//! The LSH trade-off (§5, Figures 8–10 in miniature): on dense graphs,
//! sketching beats exact triangle counting for index construction, and the
//! resulting clusterings stay close to exact.
//!
//! Run with: `cargo run --release --example approximate_speedup`

use parscan::metrics::adjusted_rand_index;
use parscan::prelude::*;
use std::time::Instant;

fn main() {
    // Dense graph — the regime where exact similarity computation is
    // expensive (arboricity large) and LSH pays off.
    let (g, _) = parscan::graph::generators::planted_partition(2500, 20, 90.0, 10.0, 21);
    println!(
        "dense graph: {} vertices, {} edges (avg degree {:.0})",
        g.num_vertices(),
        g.num_edges(),
        2.0 * g.num_edges() as f64 / g.num_vertices() as f64
    );
    let params = QueryParams::new(5, 0.45);

    let t0 = Instant::now();
    let exact = ScanIndex::build(g.clone(), IndexConfig::default());
    let t_exact = t0.elapsed();
    let truth = exact
        .cluster_with(params, BorderAssignment::MostSimilar)
        .labels_with_singletons();
    println!("exact build: {t_exact:.2?}");

    println!("{:>7} {:>12} {:>9} {:>8}", "k", "build", "speedup", "ARI");
    for k in [16usize, 32, 64, 128, 256] {
        let config = ApproxConfig {
            method: ApproxMethod::SimHashCosine,
            samples: k,
            seed: 100 + k as u64,
        };
        let t0 = Instant::now();
        let index = build_approx_index(g.clone(), config);
        let t_approx = t0.elapsed();
        let labels = index
            .cluster_with(params, BorderAssignment::MostSimilar)
            .labels_with_singletons();
        println!(
            "{:>7} {:>12.2?} {:>8.1}x {:>8.3}",
            k,
            t_approx,
            t_exact.as_secs_f64() / t_approx.as_secs_f64(),
            adjusted_rand_index(&truth, &labels)
        );
    }
    println!("\n(ARI is measured against the exact index's clustering at (μ=5, ε=0.45).)");
}
