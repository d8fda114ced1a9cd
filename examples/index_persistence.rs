//! Index persistence — amortizing construction across program runs.
//!
//! GS*-Index's pitch (§1, §3.2) is "construct once, query many times".
//! This example pushes the amortization one step further: the index is
//! serialized to disk, reloaded (as a later analysis session would), and
//! verified to answer queries identically — at a load cost that is pure
//! I/O, far below reconstruction.
//!
//! Run with: `cargo run --release --example index_persistence`

use parscan::core::sweep::{sweep, SweepGrid};
use parscan::metrics::modularity;
use parscan::prelude::*;
use std::time::Instant;

fn main() {
    // Dense weighted tissue-network regime: the expensive-to-index case.
    let (g, _) = parscan::graph::generators::weighted_planted_partition(8_000, 40, 140.0, 6.0, 7);
    println!(
        "graph: {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    );

    // Session 1: build and persist.
    let t0 = Instant::now();
    let index = ScanIndex::build(g, IndexConfig::default());
    let t_build = t0.elapsed();
    let path = std::env::temp_dir().join("parscan_example.pscidx");
    let t0 = Instant::now();
    index.save(&path).expect("save index");
    let t_save = t0.elapsed();
    let on_disk = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!(
        "built in {t_build:.2?}; saved {:.1} MiB in {t_save:.2?}",
        on_disk as f64 / (1 << 20) as f64
    );

    // Session 2: reload and explore parameters without reconstructing.
    let t0 = Instant::now();
    let loaded = ScanIndex::load(&path).expect("load index");
    let t_load = t0.elapsed();
    println!(
        "reloaded in {t_load:.2?} (build was {:.1}x that; the gap widens with density and scale)",
        t_build.as_secs_f64() / t_load.as_secs_f64().max(1e-9)
    );

    // A quality sweep against the reloaded index (the intended workflow).
    let grid = SweepGrid::stepped(loaded.graph().max_degree() as u32 + 1, 0.05);
    let t0 = Instant::now();
    let result = sweep(&loaded, &grid, |c| {
        if c.num_clusters() == 0 {
            f64::NEG_INFINITY
        } else {
            modularity(loaded.graph(), &c.labels_with_singletons())
        }
    });
    let best = result.best_params();
    println!(
        "swept {} grid points in {:.2?}: best modularity {:.4} at (μ={}, ε={:.2})",
        result.points.len(),
        t0.elapsed(),
        result.best_score(),
        best.mu,
        best.epsilon
    );

    // Identical answers before and after the round trip, at the best point.
    let a = index.cluster_with(best, BorderAssignment::MostSimilar);
    let b = loaded.cluster_with(best, BorderAssignment::MostSimilar);
    assert_eq!(a, b, "round trip must preserve clusterings");
    println!(
        "spot check at the best point: {} clusters, identical across the round trip",
        b.num_clusters()
    );

    std::fs::remove_file(&path).ok();
}
