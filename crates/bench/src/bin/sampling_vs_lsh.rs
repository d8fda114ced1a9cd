//! Extension experiment (paper §8, explicitly proposed future work):
//! "compare the efficiency and clustering quality of the LinkSCAN*
//! sampling approach versus the LSH approach of our paper."
//!
//! For each graph: construct approximate indices with (a) SimHash at
//! several sample counts and (b) neighborhood sampling at several keep
//! probabilities; report construction time, best grid modularity, and ARI
//! against the exact clustering at the exact-best (μ, ε) — the same
//! protocol as Figures 9–10, with sampling as a third series.

use parscan_approx::sampling::{build_sampled_index, SamplingConfig};
use parscan_approx::{build_approx_index, ApproxConfig, ApproxMethod};
use parscan_bench::{datasets, params, timing};
use parscan_core::{IndexConfig, ScanIndex, SimilarityMeasure};
use parscan_metrics::adjusted_rand_index;

fn main() {
    println!("Sampling (LinkSCAN*-style) vs LSH (SimHash): construction time / quality");
    for d in datasets::datasets() {
        let g = &d.graph;
        println!(
            "\n== {} (n={}, m={})",
            d.name,
            g.num_vertices(),
            g.num_edges()
        );

        // Exact reference: construction time, best grid point, clustering.
        let config = IndexConfig {
            measure: SimilarityMeasure::Cosine,
            ..Default::default()
        };
        let (t_exact, exact) = timing::time_once(|| ScanIndex::build(g.clone(), config));
        let (q_exact, best) = params::best_modularity(&exact);
        let exact_clustering = exact.cluster(best);
        let exact_labels = exact_clustering.labels_with_singletons();
        println!(
            "{:<24} {:>10} {:>12} {:>12} {:>8}",
            "method", "param", "build", "modularity", "ARI"
        );
        println!(
            "{:<24} {:>10} {:>12} {:>12.4} {:>8.3}  (μ*={}, ε*={:.2})",
            "exact-cosine",
            "-",
            timing::fmt_time(t_exact),
            q_exact,
            1.0,
            best.mu,
            best.epsilon
        );

        for k in [64usize, 256, 1024] {
            let (t, index) = timing::time_once(|| {
                build_approx_index(
                    g.clone(),
                    ApproxConfig {
                        method: ApproxMethod::SimHashCosine,
                        samples: k,
                        seed: k as u64,
                    },
                )
            });
            report(&index, g, &exact_labels, best, "simhash", &k.to_string(), t);
        }
        for p in [0.25f64, 0.5, 0.75] {
            let (t, index) = timing::time_once(|| {
                build_sampled_index(
                    g.clone(),
                    SamplingConfig {
                        keep_probability: p,
                        seed: (p * 1000.0) as u64,
                    },
                    SimilarityMeasure::Cosine,
                )
            });
            report(
                &index,
                g,
                &exact_labels,
                best,
                "sampling",
                &format!("{p}"),
                t,
            );
        }
    }
}

fn report(
    index: &ScanIndex,
    g: &parscan_graph::CsrGraph,
    exact_labels: &[u32],
    best: parscan_core::QueryParams,
    method: &str,
    param: &str,
    t: f64,
) {
    let (q, _) = params::best_modularity(index);
    let c = index.cluster(best);
    let ari = adjusted_rand_index(&c.labels_with_singletons(), exact_labels);
    let _ = g;
    println!(
        "{:<24} {:>10} {:>12} {:>12.4} {:>8.3}",
        method,
        param,
        timing::fmt_time(t),
        q,
        ari
    );
}
