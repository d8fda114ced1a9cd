//! Figure 8 reproduction: approximate index construction time versus
//! number of LSH samples (2^5 … 2^max, default 2^12, paper uses 2^15),
//! against the exact-construction line.
//!
//! Paper shape: approximate Jaccard (k-partition MinHash) is consistently
//! faster than approximate cosine (SimHash); times plateau or drop at
//! large k because the §6.3 degree heuristic reverts low-degree vertices
//! to exact merges.

use parscan_approx::{approx_index::approx_similarities, ApproxConfig, ApproxMethod};
use parscan_bench::{datasets, timing};
use parscan_core::similarity_exact::compute_merge_based;
use parscan_core::SimilarityMeasure;

fn max_samples_log2() -> u32 {
    std::env::var("PARSCAN_MAX_SAMPLES_LOG2")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(12)
}

fn main() {
    println!("Figure 8: approximate index construction time vs #samples");
    for d in datasets::datasets() {
        let g = &d.graph;
        let t_exact = timing::median_time(|| {
            std::hint::black_box(compute_merge_based(g, SimilarityMeasure::Cosine));
        });
        println!(
            "\n== {} (exact cosine similarity phase: {})",
            d.name,
            timing::fmt_time(t_exact)
        );
        println!(
            "{:>8} {:>14} {:>14}",
            "k", "approx-cosine", "approx-jaccard"
        );
        let mut log2k = 5u32;
        while log2k <= max_samples_log2() {
            let k = 1usize << log2k;
            let t_cos = timing::median_time(|| {
                std::hint::black_box(approx_similarities(
                    g,
                    &ApproxConfig {
                        method: ApproxMethod::SimHashCosine,
                        samples: k,
                        seed: log2k as u64,
                    },
                ));
            });
            let t_jac = (!g.is_weighted()).then(|| {
                timing::median_time(|| {
                    std::hint::black_box(approx_similarities(
                        g,
                        &ApproxConfig {
                            method: ApproxMethod::KPartitionMinHashJaccard,
                            samples: k,
                            seed: log2k as u64,
                        },
                    ));
                })
            });
            println!(
                "{:>8} {:>14} {:>14}",
                k,
                timing::fmt_time(t_cos),
                t_jac.map_or("n/a".into(), timing::fmt_time),
            );
            log2k += 1;
        }
    }
}
