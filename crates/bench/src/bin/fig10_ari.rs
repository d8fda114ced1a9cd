//! Figure 10 reproduction: adjusted Rand index of the approximate
//! clustering against the exact clustering ("ground truth"), at the
//! modularity-maximizing parameters of the exact index, versus the
//! approximate construction time.
//!
//! Paper shape: ARI climbs toward 1 with more samples; approximate
//! Jaccard reaches high ARI at smaller k than approximate cosine
//! (MinHash's better sampling efficiency, cf. Theorems 5.2/5.3).

use parscan_approx::{build_approx_index, ApproxConfig, ApproxMethod};
use parscan_bench::{datasets, params, timing};
use parscan_core::{IndexConfig, ScanIndex, SimilarityMeasure, SortStrategy};
use parscan_metrics::adjusted_rand_index;

fn sample_counts() -> Vec<usize> {
    let max_log2: u32 = std::env::var("PARSCAN_MAX_SAMPLES_LOG2")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(11);
    (5..=max_log2).step_by(2).map(|l| 1usize << l).collect()
}

fn main() {
    println!("Figure 10: approximate-vs-exact clustering ARI vs construction time");
    for d in datasets::datasets() {
        let g = &d.graph;
        println!("\n== {}", d.name);

        let mut setups: Vec<(ApproxMethod, SimilarityMeasure)> =
            vec![(ApproxMethod::SimHashCosine, SimilarityMeasure::Cosine)];
        if !g.is_weighted() {
            setups.push((
                ApproxMethod::KPartitionMinHashJaccard,
                SimilarityMeasure::Jaccard,
            ));
        }
        println!("{:<28} {:>8} {:>12} {:>8}", "method", "k", "build", "ARI");
        for (method, measure) in setups {
            // Exact "ground truth" clustering at its best grid parameters.
            let exact = ScanIndex::build(g.clone(), IndexConfig::with_measure(measure));
            let (_, best) = params::best_modularity(&exact);
            let truth = exact.cluster(best).labels_with_singletons();

            for k in sample_counts() {
                let config = ApproxConfig {
                    method,
                    samples: k,
                    seed: 7 * k as u64 + 1,
                    degree_heuristic: true,
                    sort: SortStrategy::Integer,
                };
                let (t_build, index) = timing::time_once(|| build_approx_index(g.clone(), config));
                let approx = index.cluster(best).labels_with_singletons();
                let ari = adjusted_rand_index(&truth, &approx);
                println!(
                    "{:<28} {:>8} {:>12} {:>8.4}  (μ*={}, ε*={:.2})",
                    method.name(),
                    k,
                    timing::fmt_time(t_build),
                    ari,
                    best.mu,
                    best.epsilon
                );
            }
        }
    }
}
