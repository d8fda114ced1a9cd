//! Community detection with ground truth: generate a planted-partition
//! graph, recover communities with the SCAN index, and score against the
//! planted labels with the adjusted Rand index — comparing the exact index
//! with LSH-approximate indices at several sample counts (the §7.3.4
//! experiment in miniature).
//!
//! Run with: `cargo run --release --example community_detection`

use parscan::metrics::adjusted_rand_index;
use parscan::prelude::*;
use std::time::Instant;

fn main() {
    let (g, truth) = parscan::graph::generators::planted_partition(3000, 50, 16.0, 1.0, 5);
    println!(
        "planted partition: {} vertices, {} edges, 50 communities",
        g.num_vertices(),
        g.num_edges()
    );
    // Within-community similarity lands near 0.37 here (blocks of 60 at
    // p_in ≈ 0.27 share ≈ 4 neighbors per adjacent pair) while
    // cross-community similarity sits near 0.12 — ε = 0.3 splits them.
    let params = QueryParams::new(3, 0.3);

    // Exact index.
    let t0 = Instant::now();
    let exact = ScanIndex::build(g.clone(), IndexConfig::default());
    let t_exact = t0.elapsed();
    let c = exact.cluster_with(params, BorderAssignment::MostSimilar);
    let ari = adjusted_rand_index(&c.labels_with_singletons(), &truth);
    println!(
        "exact:             build {:>9.2?}  clusters {:>3}  ARI vs truth {:.3}",
        t_exact,
        c.num_clusters(),
        ari
    );

    // Approximate indices with increasing sample counts.
    for k in [32usize, 128, 512] {
        let config = ApproxConfig {
            method: ApproxMethod::SimHashCosine,
            samples: k,
            seed: k as u64,
        };
        let t0 = Instant::now();
        let approx = build_approx_index(g.clone(), config);
        let t_approx = t0.elapsed();
        let c = approx.cluster_with(params, BorderAssignment::MostSimilar);
        let ari = adjusted_rand_index(&c.labels_with_singletons(), &truth);
        println!(
            "simhash k={k:<5}:   build {:>9.2?}  clusters {:>3}  ARI vs truth {:.3}",
            t_approx,
            c.num_clusters(),
            ari
        );
    }

    println!(
        "\n(The planted communities are dense blocks; SCAN recovers them when\n\
         ε separates intra-community similarity from inter-community noise.)"
    );
}
