//! Figure 9 reproduction: trade-off between approximate index construction
//! time and the best modularity found over the parameter grid Σ.
//!
//! Paper shape: even modest sample counts recover clusterings whose best
//! grid modularity matches the exact index's, at a fraction of the
//! construction time on dense graphs.

use parscan_approx::{build_approx_index, ApproxConfig, ApproxMethod};
use parscan_bench::{datasets, params, timing};
use parscan_core::{ExactStrategy, IndexConfig, ScanIndex, SimilarityMeasure, SortStrategy};

fn sample_counts() -> Vec<usize> {
    let max_log2: u32 = std::env::var("PARSCAN_MAX_SAMPLES_LOG2")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(11);
    (5..=max_log2).step_by(2).map(|l| 1usize << l).collect()
}

fn main() {
    println!(
        "Figure 9: construction time vs best grid modularity (Σ, ε step {})",
        params::eps_step()
    );
    for d in datasets::datasets() {
        let g = &d.graph;
        println!("\n== {}", d.name);
        println!(
            "{:<28} {:>8} {:>12} {:>12}",
            "method", "k", "build", "modularity"
        );

        // Exact reference lines (cosine always; Jaccard when unweighted).
        let mut exact_measures = vec![SimilarityMeasure::Cosine];
        if !g.is_weighted() {
            exact_measures.push(SimilarityMeasure::Jaccard);
        }
        for measure in exact_measures {
            let config = IndexConfig {
                measure,
                exact: ExactStrategy::MergeBased,
                sort: SortStrategy::Integer,
            };
            let (t_build, index) = timing::time_once(|| ScanIndex::build(g.clone(), config));
            let (q, best) = params::best_modularity(&index);
            println!(
                "{:<28} {:>8} {:>12} {:>12.4}  (μ*={}, ε*={:.2})",
                format!("exact-{}", measure.name()),
                "-",
                timing::fmt_time(t_build),
                q,
                best.mu,
                best.epsilon
            );
        }

        let mut methods = vec![ApproxMethod::SimHashCosine];
        if !g.is_weighted() {
            methods.push(ApproxMethod::KPartitionMinHashJaccard);
        }
        for method in methods {
            for k in sample_counts() {
                let config = ApproxConfig {
                    method,
                    samples: k,
                    seed: k as u64,
                };
                let (t_build, index) = timing::time_once(|| build_approx_index(g.clone(), config));
                let (q, _) = params::best_modularity(&index);
                println!(
                    "{:<28} {:>8} {:>12} {:>12.4}",
                    method.name(),
                    k,
                    timing::fmt_time(t_build),
                    q
                );
            }
        }
    }
}
