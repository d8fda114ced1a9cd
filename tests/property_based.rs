//! Property-based tests (proptest) over randomly generated graphs and
//! parameters: similarity-strategy agreement, SCAN-definition invariants
//! of the index's clustering, and approximation concentration.

use parscan::baselines::original_scan;
use parscan::core::similarity_exact::{
    compute_full_merge, compute_hash_based, compute_merge_based,
};
use parscan::prelude::*;
use proptest::prelude::*;

/// Random simple graph: up to `max_n` vertices, multi-edge/self-loop
/// inputs allowed (the builder cleans them).
fn arb_graph(max_n: u32, max_m: usize) -> impl Strategy<Value = CsrGraph> {
    (2..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 0..max_m)
            .prop_map(move |edges| parscan::graph::from_edges(n as usize, &edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn similarity_strategies_agree(g in arb_graph(60, 300)) {
        for measure in [SimilarityMeasure::Cosine, SimilarityMeasure::Jaccard, SimilarityMeasure::Dice] {
            let full = compute_full_merge(&g, measure);
            let merge = compute_merge_based(&g, measure);
            let hash = compute_hash_based(&g, measure);
            prop_assert_eq!(full.as_slice(), merge.as_slice());
            prop_assert_eq!(full.as_slice(), hash.as_slice());
        }
    }

    #[test]
    fn similarities_are_valid_scores(g in arb_graph(60, 300)) {
        let sims = compute_merge_based(&g, SimilarityMeasure::Cosine);
        for (u, v, slot) in g.canonical_edges() {
            let s = sims.slot(slot);
            prop_assert!(s > 0.0 && s <= 1.0, "σ({},{}) = {}", u, v, s);
            let twin = g.slot_of(v, u).unwrap();
            prop_assert_eq!(sims.slot(slot), sims.slot(twin));
        }
    }

    #[test]
    fn index_clustering_matches_original_scan(
        g in arb_graph(50, 250),
        mu in 2u32..6,
        eps_pct in 1u32..100,
    ) {
        let eps = eps_pct as f32 / 100.0;
        let want = original_scan(&g, SimilarityMeasure::Cosine, mu, eps);
        let index = ScanIndex::build(g.clone(), IndexConfig::default());
        let got = index.cluster(QueryParams::new(mu, eps));
        prop_assert_eq!(&want.core, &got.core);
        for v in 0..want.labels.len() {
            if want.core[v] {
                prop_assert_eq!(want.labels[v], got.labels[v]);
            }
            prop_assert_eq!(
                want.labels[v] == UNCLUSTERED,
                got.labels[v] == UNCLUSTERED
            );
        }
    }

    #[test]
    fn scan_clustering_defining_properties(
        g in arb_graph(50, 250),
        mu in 2u32..6,
        eps_pct in 1u32..100,
    ) {
        let eps = eps_pct as f32 / 100.0;
        let index = ScanIndex::build(g.clone(), IndexConfig::default());
        let c = index.cluster(QueryParams::new(mu, eps));
        let no = index.neighbor_order();
        for v in 0..g.num_vertices() as u32 {
            let (nbrs, _) = no.epsilon_prefix(&g, v, eps);
            // Core definition over closed ε-neighborhood.
            prop_assert_eq!(c.is_core(v), nbrs.len() + 1 >= mu as usize);
            if c.is_core(v) {
                for &u in nbrs {
                    if c.is_core(u) {
                        prop_assert_eq!(c.labels[v as usize], c.labels[u as usize]);
                    }
                }
            }
            if !c.is_core(v) && c.is_clustered(v) {
                prop_assert!(nbrs.iter().any(|&u| c.is_core(u)
                    && c.labels[u as usize] == c.labels[v as usize]));
            }
            if !c.is_clustered(v) {
                prop_assert!(nbrs.iter().all(|&u| !c.is_core(u)));
            }
        }
    }

    #[test]
    fn metrics_identities(labels in proptest::collection::vec(0u32..5, 1..100)) {
        // The ARI of a partition with itself is 1.
        let ari = parscan::metrics::adjusted_rand_index(&labels, &labels);
        prop_assert!((ari - 1.0).abs() < 1e-9);
    }

    #[test]
    fn metrics_invariant_under_label_permutation(
        (labels, other) in (2usize..100).prop_flat_map(|n| (
            proptest::collection::vec(0u32..6, n),
            proptest::collection::vec(0u32..6, n),
        )),
    ) {
        // Renaming cluster ids does not change the ARI.
        let renamed: Vec<u32> = labels.iter().map(|&l| 7 * l + 13).collect();
        let ari_a = parscan::metrics::adjusted_rand_index(&labels, &other);
        let ari_b = parscan::metrics::adjusted_rand_index(&renamed, &other);
        prop_assert!((ari_a - ari_b).abs() < 1e-9);
    }

    #[test]
    fn modularity_of_single_cluster_is_zero_or_less(g in arb_graph(40, 150)) {
        prop_assume!(g.num_edges() > 0);
        let labels = vec![0u32; g.num_vertices()];
        let q = parscan::metrics::modularity(&g, &labels);
        prop_assert!(q.abs() < 1e-9);
    }
}

proptest! {
    // I/O round trips: fewer cases, they hit the filesystem.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn index_persistence_round_trips(g in arb_graph(40, 200), case in 0u64..u64::MAX) {
        let index = ScanIndex::build(g, IndexConfig::default());
        let mut path = std::env::temp_dir();
        path.push(format!("parscan_prop_persist_{}_{case}.pscidx", std::process::id()));
        index.save(&path).unwrap();
        let loaded = ScanIndex::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(loaded.graph(), index.graph());
        prop_assert_eq!(loaded.similarities().as_slice(), index.similarities().as_slice());
        let params = QueryParams::new(2, 0.5);
        prop_assert_eq!(
            loaded.cluster_with(params, BorderAssignment::MostSimilar),
            index.cluster_with(params, BorderAssignment::MostSimilar)
        );
    }

    #[test]
    fn metis_round_trips(g in arb_graph(40, 200), case in 0u64..u64::MAX) {
        let mut path = std::env::temp_dir();
        path.push(format!("parscan_prop_metis_{}_{case}.graph", std::process::id()));
        parscan::graph::metis::write_metis(&g, &path).unwrap();
        let h = parscan::graph::metis::read_metis(&path).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(g, h);
    }
}

proptest! {
    // Approximation tests are more expensive; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn approx_with_huge_k_equals_exact_via_heuristic(g in arb_graph(40, 200)) {
        // Degree threshold k exceeds every degree, so the heuristic
        // routes every edge through the exact path.
        let config = ApproxConfig {
            method: ApproxMethod::SimHashCosine,
            samples: 4096,
            seed: 1,
        };
        let exact = compute_full_merge(&g, SimilarityMeasure::Cosine);
        let approx = parscan::approx::approx_index::approx_similarities(&g, &config);
        prop_assert_eq!(exact.as_slice(), approx.as_slice());
    }

    #[test]
    fn simhash_estimates_concentrate(seed in 0u64..1000) {
        let g = parscan::graph::generators::erdos_renyi(40, 200, seed);
        let exact = compute_full_merge(&g, SimilarityMeasure::Cosine);
        let sketches = parscan::approx::SimHashSketches::build(&g, 2048, seed, |_| true);
        for (u, v, slot) in g.canonical_edges() {
            let err = (sketches.estimate(u, v) - exact.slot(slot)).abs();
            // k = 2048 gives σ ≈ 0.01 on the angle estimate; 0.15 is a
            // loose many-sigma bound that still catches broken sketching
            // without flaking on tail seeds.
            prop_assert!(err < 0.15, "edge ({},{}) err {}", u, v, err);
        }
    }
}
