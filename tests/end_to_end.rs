//! End-to-end pipelines spanning every crate: generate → persist → reload
//! → index → query → classify → score.

use parscan::core::hubs::{classify_roles, role_counts};
use parscan::metrics::{adjusted_rand_index, modularity};
use parscan::prelude::*;

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("parscan_e2e_{name}_{}", std::process::id()));
    p
}

#[test]
fn generate_persist_reload_cluster() {
    let (g, truth) = parscan::graph::generators::planted_partition(800, 8, 14.0, 1.0, 42);
    let path = tmp("roundtrip");
    parscan::graph::io::write_binary(&g, &path).unwrap();
    let reloaded = parscan::graph::io::read_binary(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(g, reloaded);

    let index = ScanIndex::build(reloaded, IndexConfig::default());
    // ε = 0.25 sits at this generator's within-community similarity level
    // (adjacent same-community vertices share ≈ p_in²·c ≈ 2 open neighbors
    // at p_in = 0.14, c = 100, so σ ≈ 4/16); ε = 0.5 would yield no cores.
    let c = index.cluster_with(QueryParams::new(3, 0.25), BorderAssignment::MostSimilar);
    assert!(c.num_clusters() >= 4, "found {} clusters", c.num_clusters());

    // Quality against planted truth should be strong on this easy input.
    let ari = adjusted_rand_index(&c.labels_with_singletons(), &truth);
    assert!(ari > 0.5, "ARI {ari}");
    let q = modularity(index.graph(), &c.labels_with_singletons());
    assert!(q > 0.3, "modularity {q}");
}

#[test]
fn text_io_preserves_clustering() {
    let g = parscan::graph::generators::rmat(8, 6, 13);
    let path = tmp("text");
    parscan::graph::io::write_edge_list_text(&g, &path).unwrap();
    let reloaded = parscan::graph::io::read_edge_list_text(&path, Some(g.num_vertices())).unwrap();
    std::fs::remove_file(&path).ok();

    let a = ScanIndex::build(g, IndexConfig::default())
        .cluster_with(QueryParams::new(2, 0.4), BorderAssignment::MostSimilar);
    let b = ScanIndex::build(reloaded, IndexConfig::default())
        .cluster_with(QueryParams::new(2, 0.4), BorderAssignment::MostSimilar);
    assert_eq!(a, b);
}

#[test]
fn full_pipeline_with_roles_and_metrics() {
    let (g, _) = parscan::graph::generators::weighted_planted_partition(600, 6, 20.0, 2.0, 77);
    let index = ScanIndex::build(g, IndexConfig::default());
    let c = index.cluster_with(QueryParams::new(4, 0.5), BorderAssignment::MostSimilar);
    let roles = classify_roles(index.graph(), &c);
    let counts = role_counts(&roles);
    assert_eq!(
        counts.cores + counts.borders + counts.hubs + counts.outliers,
        600
    );
    assert_eq!(counts.cores + counts.borders, c.num_clustered());
}

#[test]
fn approximate_pipeline_end_to_end() {
    let (g, truth) = parscan::graph::generators::planted_partition(800, 40, 14.0, 0.5, 5);
    let index = build_approx_index(
        g,
        ApproxConfig {
            method: ApproxMethod::SimHashCosine,
            samples: 256,
            seed: 9,
        },
    );
    let c = index.cluster_with(QueryParams::new(3, 0.5), BorderAssignment::MostSimilar);
    let ari = adjusted_rand_index(&c.labels_with_singletons(), &truth);
    assert!(ari > 0.5, "approximate pipeline ARI {ari}");
}

#[test]
fn dense_mm_index_end_to_end() {
    let (g, _) = parscan::graph::generators::weighted_planted_partition(400, 8, 40.0, 4.0, 3);
    let sims = parscan::dense::compute_similarities_mm(&g, SimilarityMeasure::Cosine);
    let mm_index = ScanIndex::from_similarities(
        g.clone(),
        sims,
        SimilarityMeasure::Cosine,
        Default::default(),
    );
    let exact_index = ScanIndex::build(g, IndexConfig::default());
    // Clustering behavior identical between MM and merge-based (§7.3.2
    // notes "clustering behavior is the same").
    let params = QueryParams::new(3, 0.5);
    let a = mm_index.cluster_with(params, BorderAssignment::MostSimilar);
    let b = exact_index.cluster_with(params, BorderAssignment::MostSimilar);
    assert_eq!(a.core, b.core);
    assert_eq!(a.num_clusters(), b.num_clusters());
}

#[test]
fn index_reuse_across_many_queries() {
    let (g, _) = parscan::graph::generators::planted_partition(500, 5, 12.0, 1.5, 8);
    let index = ScanIndex::build(g, IndexConfig::default());
    let mut prev_clustered = usize::MAX;
    // Monotonicity across the ε sweep at fixed μ: raising ε only shrinks
    // the set of ε-similar edges, so clustered vertices cannot grow.
    for e in 1..=19 {
        let c = index.cluster(QueryParams::new(3, e as f32 * 0.05));
        let clustered = c.num_clustered();
        assert!(clustered <= prev_clustered, "ε sweep not monotone");
        prev_clustered = clustered;
    }
}

#[test]
fn concurrent_queries_against_shared_index() {
    // Many OS threads querying one index while the flat pool serves each
    // query's internal parallelism — the "analyst dashboard" workload.
    use parscan::prelude::*;
    let (g, _) = parscan::graph::generators::planted_partition(2_000, 10, 12.0, 1.0, 13);
    let index = ScanIndex::build(g, IndexConfig::default());
    let reference: Vec<Clustering> = (2..6u32)
        .map(|mu| index.cluster_with(QueryParams::new(mu, 0.3), BorderAssignment::MostSimilar))
        .collect();
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                for (i, mu) in (2..6u32).enumerate() {
                    let c = index
                        .cluster_with(QueryParams::new(mu, 0.3), BorderAssignment::MostSimilar);
                    assert_eq!(c, reference[i]);
                }
            });
        }
    });
}
