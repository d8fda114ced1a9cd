//! Integration tests for cross-session workflows: index persistence,
//! on-disk graph format interop, the parameter-sweep engine, and the
//! baselines — each spanning at least two crates through the public
//! facade.

use parscan::core::sweep::{sweep, sweep_with_best, SweepGrid};
use parscan::metrics::{adjusted_rand_index, modularity, normalized_mutual_information};
use parscan::prelude::*;

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("parscan_itest_{name}_{}", std::process::id()));
    p
}

#[test]
fn save_load_query_pipeline() {
    // generator → index → save → load → query → metrics, across 4 crates.
    let (g, truth) = parscan::graph::generators::planted_partition(600, 6, 12.0, 1.0, 31);
    let index = ScanIndex::build(g, IndexConfig::default());
    let path = tmp("pipeline.pscidx");
    index.save(&path).unwrap();

    let loaded = ScanIndex::load(&path).unwrap();
    // Pick (μ, ε) the way the paper does (§7.3.4): best grid modularity —
    // hardcoded parameters are brittle against the generator's similarity
    // scale.
    let grid = SweepGrid::stepped(loaded.graph().max_degree() as u32 + 1, 0.05);
    let score = |c: &parscan::core::Clustering| {
        if c.num_clusters() == 0 {
            f64::NEG_INFINITY
        } else {
            modularity(loaded.graph(), &c.labels_with_singletons())
        }
    };
    let picked = sweep(&loaded, &grid, score).best_params();
    let a = index.cluster_with(picked, BorderAssignment::MostSimilar);
    let b = loaded.cluster_with(picked, BorderAssignment::MostSimilar);
    assert_eq!(a, b);

    // The clustering from the reloaded index scores identically.
    let qa = modularity(index.graph(), &a.labels_with_singletons());
    let qb = modularity(loaded.graph(), &b.labels_with_singletons());
    assert_eq!(qa, qb);
    let ari = adjusted_rand_index(&b.labels_with_singletons(), &truth);
    assert!(
        ari > 0.3,
        "planted structure should be visible, ARI = {ari}"
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn approximate_index_round_trips() {
    let g = parscan::graph::generators::rmat(9, 8, 5);
    let index = build_approx_index(
        g,
        ApproxConfig {
            method: ApproxMethod::SimHashCosine,
            samples: 256,
            seed: 7,
            ..Default::default()
        },
    );
    let path = tmp("approx.pscidx");
    index.save(&path).unwrap();
    let loaded = ScanIndex::load(&path).unwrap();
    assert_eq!(
        index.similarities().as_slice(),
        loaded.similarities().as_slice()
    );
    let params = QueryParams::new(3, 0.4);
    assert_eq!(
        index.cluster_with(params, BorderAssignment::MostSimilar),
        loaded.cluster_with(params, BorderAssignment::MostSimilar)
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn format_conversion_preserves_clusterings() {
    // text ⇄ metis ⇄ binary all describe the same graph, hence the same
    // SCAN output.
    let (g, _) = parscan::graph::generators::planted_partition(300, 3, 9.0, 1.0, 13);
    let p_text = tmp("conv.txt");
    let p_metis = tmp("conv.graph");
    let p_bin = tmp("conv.bin");
    parscan::graph::io::write_edge_list_text(&g, &p_text).unwrap();
    parscan::graph::metis::write_metis(&g, &p_metis).unwrap();
    parscan::graph::io::write_binary(&g, &p_bin).unwrap();

    let from_text = parscan::graph::io::read_edge_list_text(&p_text, Some(300)).unwrap();
    let from_metis = parscan::graph::metis::read_metis(&p_metis).unwrap();
    let from_bin = parscan::graph::io::read_binary(&p_bin).unwrap();
    assert_eq!(from_text, from_metis);
    assert_eq!(from_text, from_bin);

    let params = QueryParams::new(3, 0.5);
    let reference = ScanIndex::build(g, IndexConfig::default())
        .cluster_with(params, BorderAssignment::MostSimilar);
    for h in [from_text, from_metis, from_bin] {
        let c = ScanIndex::build(h, IndexConfig::default())
            .cluster_with(params, BorderAssignment::MostSimilar);
        assert_eq!(c, reference);
    }
    for p in [p_text, p_metis, p_bin] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn sweep_engine_beats_fixed_parameters_on_planted_graphs() {
    let (g, truth) = parscan::graph::generators::planted_partition(800, 8, 14.0, 1.0, 5);
    let index = ScanIndex::build(g, IndexConfig::default());
    let grid = SweepGrid::stepped(index.graph().max_degree() as u32 + 1, 0.05);
    let (result, best) = sweep_with_best(&index, &grid, |c| {
        if c.num_clusters() == 0 {
            f64::NEG_INFINITY
        } else {
            modularity(index.graph(), &c.labels_with_singletons())
        }
    });
    assert!(result.best_score() > 0.5, "got {}", result.best_score());
    // The modularity-maximizing clustering recovers the planted partition
    // well by both external measures.
    let labels = best.labels_with_singletons();
    assert!(adjusted_rand_index(&labels, &truth) > 0.5);
    assert!(normalized_mutual_information(&labels, &truth) > 0.5);
}

#[test]
fn scanxp_baseline_matches_index_cores() {
    let (g, _) = parscan::graph::generators::planted_partition(400, 4, 10.0, 1.5, 2);
    let index = ScanIndex::build(g.clone(), IndexConfig::default());
    for (mu, eps) in [(2u32, 0.4f32), (5, 0.6)] {
        let xp = parscan::baselines::scanxp_parallel(&g, SimilarityMeasure::Cosine, mu, eps);
        let idx = index.cluster(QueryParams::new(mu, eps));
        assert_eq!(xp.core, idx.core, "(μ,ε)=({mu},{eps})");
        for v in 0..g.num_vertices() {
            if xp.core[v] {
                assert_eq!(xp.labels[v], idx.labels[v]);
            }
        }
    }
}

#[test]
fn dynamic_update_then_persist_round_trip() {
    use parscan::core::dynamic::{apply_batch, BatchUpdate};
    let g = parscan::graph::generators::erdos_renyi(300, 1800, 21);
    let index = ScanIndex::build(
        g,
        parscan::core::IndexConfig {
            exact: parscan::core::ExactStrategy::FullMerge,
            ..Default::default()
        },
    );
    let updated = apply_batch(index, &BatchUpdate::insert(&[(0, 299), (1, 250), (2, 200)]));
    let path = tmp("dynamic.pscidx");
    updated.save(&path).unwrap();
    let loaded = ScanIndex::load(&path).unwrap();
    assert_eq!(loaded.graph(), updated.graph());
    let params = QueryParams::new(3, 0.4);
    assert_eq!(
        loaded.cluster_with(params, BorderAssignment::MostSimilar),
        updated.cluster_with(params, BorderAssignment::MostSimilar)
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn torn_temp_files_never_shadow_the_durable_store_generation() {
    // Fabricate the on-disk states a kill mid-`atomic_write` can leave
    // behind — temp files truncated at arbitrary points or bit-flipped
    // by a dying disk — and prove a cold open ignores every one of them
    // and serves the last committed generation.
    let dir = tmp("torn_store");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let (g, _) = parscan::graph::generators::planted_partition(150, 4, 9.0, 1.0, 21);
    let index = ScanIndex::build(g, IndexConfig::default());
    {
        let store = IndexStore::open(&dir).unwrap();
        store.save("g", &index, true, 64).unwrap();
    }
    let manifest_bytes = std::fs::read(dir.join("manifest.psm")).unwrap();
    let snapshot_bytes = std::fs::read(dir.join("snapshots").join("g.pscidx")).unwrap();

    // Temp-file debris in both directories, at every interesting tear
    // point: empty (killed after create), a prefix (killed or torn
    // mid-write), complete-but-unrenamed (killed between fsync and
    // rename), and complete-but-corrupt (torn sector).
    let pid = std::process::id();
    let mut flipped = manifest_bytes.clone();
    flipped[manifest_bytes.len() / 2] ^= 0x40;
    let manifest_debris = dir.join(format!(".manifest.psm.tmp.{pid}"));
    let snapshot_debris = dir.join("snapshots").join(format!(".g.pscidx.tmp.{pid}"));
    for (variant, bytes) in [
        ("empty", Vec::new()),
        (
            "prefix",
            manifest_bytes[..manifest_bytes.len() / 2].to_vec(),
        ),
        ("complete", manifest_bytes.clone()),
        ("corrupt", flipped.clone()),
    ] {
        std::fs::write(&manifest_debris, &bytes).unwrap();
        std::fs::write(
            &snapshot_debris,
            &snapshot_bytes[..bytes.len().min(snapshot_bytes.len())],
        )
        .unwrap();

        let store = IndexStore::open(&dir)
            .unwrap_or_else(|e| panic!("open must ignore {variant} temp debris: {e}"));
        let entries = store.entries();
        assert_eq!(entries.len(), 1, "{variant}: generation intact");
        assert_eq!(entries[0].name, "g");
        let (reloaded, _) = store.load("g").unwrap();
        assert_eq!(
            reloaded.cluster_with(QueryParams::new(3, 0.5), BorderAssignment::MostSimilar),
            index.cluster_with(QueryParams::new(3, 0.5), BorderAssignment::MostSimilar),
            "{variant}: snapshot answers identically"
        );
    }

    // A torn write that *did* reach the real manifest (a partial rename
    // on a non-atomic filesystem, or sector corruption) is detected —
    // the store refuses to open rather than serving garbage.
    std::fs::write(dir.join("manifest.psm"), &flipped).unwrap();
    assert!(
        IndexStore::open(&dir).is_err(),
        "a corrupt root pointer must be detected, not served"
    );
    std::fs::write(
        dir.join("manifest.psm"),
        &manifest_bytes[..manifest_bytes.len() - 7],
    )
    .unwrap();
    assert!(
        IndexStore::open(&dir).is_err(),
        "a truncated root pointer must be detected, not served"
    );

    // Restoring the intact manifest restores service.
    std::fs::write(dir.join("manifest.psm"), &manifest_bytes).unwrap();
    IndexStore::open(&dir).unwrap().load("g").unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
