//! Approximate SCAN index construction (§5 + §6.3).
//!
//! Pipeline: sketch the vertices the degree heuristic selects, estimate
//! similarities over edges between two sketched endpoints, compute exact
//! similarities for everything else (low-degree edges are cheaper to merge
//! than to sketch), then hand the per-slot scores to the exact machinery
//! ([`parscan_core::ScanIndex::from_similarities`]) for neighbor/core-order
//! construction — which can always use integer sorting since estimates are
//! scaled integers (Theorem 5.1).

use crate::minhash::{KPartitionMinHash, StandardMinHash};
use crate::simhash::SimHashSketches;
use parscan_core::similarity::SimilarityMeasure;
use parscan_core::similarity_exact::{
    closed_norms, open_intersection_value, score_canonical_slots, score_edge, EdgeSimilarities,
};
use parscan_core::{ScanIndex, SortStrategy};
use parscan_graph::{CsrGraph, VertexId};

/// Which LSH scheme approximates which measure.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ApproxMethod {
    /// SimHash → cosine (weighted or unweighted graphs).
    #[default]
    SimHashCosine,
    /// k-partition MinHash → Jaccard (the paper's implementation choice).
    KPartitionMinHashJaccard,
    /// Standard MinHash → Jaccard (carries the Theorem 5.3 guarantee).
    StandardMinHashJaccard,
}

impl ApproxMethod {
    pub fn measure(self) -> SimilarityMeasure {
        match self {
            ApproxMethod::SimHashCosine => SimilarityMeasure::Cosine,
            _ => SimilarityMeasure::Jaccard,
        }
    }

    /// §6.3 degree threshold: sketch only vertices whose degree exceeds
    /// this (k for cosine, 3k/2 for Jaccard).
    pub fn degree_threshold(self, k: usize) -> usize {
        match self {
            ApproxMethod::SimHashCosine => k,
            _ => 3 * k / 2,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            ApproxMethod::SimHashCosine => "simhash-cosine",
            ApproxMethod::KPartitionMinHashJaccard => "kpartition-minhash-jaccard",
            ApproxMethod::StandardMinHashJaccard => "standard-minhash-jaccard",
        }
    }
}

/// Approximate construction configuration. The §6.3 low-degree
/// heuristic always applies, and the orders always sort with integer keys
/// (estimates are scaled integers, Theorem 5.1).
#[derive(Clone, Copy, Debug)]
pub struct ApproxConfig {
    pub method: ApproxMethod,
    /// Number of LSH samples `k`.
    pub samples: usize,
    pub seed: u64,
}

impl Default for ApproxConfig {
    fn default() -> Self {
        ApproxConfig {
            method: ApproxMethod::default(),
            samples: 256,
            seed: 0,
        }
    }
}

enum Sketcher {
    SimHash(SimHashSketches),
    KPartition(KPartitionMinHash),
    Standard(StandardMinHash),
}

impl Sketcher {
    fn estimate(&self, u: VertexId, v: VertexId) -> f32 {
        match self {
            Sketcher::SimHash(s) => s.estimate(u, v),
            Sketcher::KPartition(s) => s.estimate(u, v),
            Sketcher::Standard(s) => s.estimate(u, v),
        }
    }
}

/// Compute approximate per-slot similarities (without building orders) —
/// exposed separately so benchmarks can time phases.
pub fn approx_similarities(g: &CsrGraph, config: &ApproxConfig) -> EdgeSimilarities {
    let measure = config.method.measure();
    assert!(
        !g.is_weighted() || measure.supports_weights(),
        "{} cannot approximate weighted graphs",
        config.method.name()
    );
    let k = config.samples;
    let threshold = config.method.degree_threshold(k);

    // Sketch a vertex only if it is high-degree and has a high-degree
    // neighbor (otherwise no edge will ever consult its sketch).
    let high = |v: VertexId| g.degree(v) > threshold;
    let select = |v: VertexId| high(v) && g.neighbors(v).iter().any(|&x| high(x));
    let sketcher = match config.method {
        ApproxMethod::SimHashCosine => {
            Sketcher::SimHash(SimHashSketches::build(g, k, config.seed, select))
        }
        ApproxMethod::KPartitionMinHashJaccard => {
            Sketcher::KPartition(KPartitionMinHash::build(g, k, config.seed, select))
        }
        ApproxMethod::StandardMinHashJaccard => {
            Sketcher::Standard(StandardMinHash::build(g, k, config.seed, select))
        }
    };

    // Estimate when both endpoints are sketched, exact merge otherwise.
    let norms = closed_norms(g);
    score_canonical_slots(g, |u, v, s| {
        if high(u) && high(v) {
            sketcher.estimate(u, v)
        } else {
            let norms = norms.as_ref().map(|x| (x[u as usize], x[v as usize]));
            score_edge(g, measure, (u, v, s), open_intersection_value(g, s), norms)
        }
    })
}

/// Build a full approximate SCAN index.
pub fn build_approx_index(graph: CsrGraph, config: ApproxConfig) -> ScanIndex {
    let sims = approx_similarities(&graph, &config);
    ScanIndex::from_similarities(graph, sims, config.method.measure(), SortStrategy::Integer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parscan_core::similarity_exact::compute_full_merge;
    use parscan_core::{IndexConfig, QueryParams};
    use parscan_graph::generators;

    #[test]
    fn low_degree_edges_are_exact() {
        // With the heuristic and a large k, every vertex is low-degree, so
        // the "approximate" index is exactly the exact one.
        let g = generators::erdos_renyi(200, 1200, 5);
        let exact = compute_full_merge(&g, SimilarityMeasure::Cosine);
        let approx = approx_similarities(
            &g,
            &ApproxConfig {
                samples: 4096, // threshold 4096 > every degree
                ..Default::default()
            },
        );
        assert_eq!(exact.as_slice(), approx.as_slice());
    }

    #[test]
    fn approximate_clustering_close_to_exact() {
        // Small dense communities: intra-edge cosine ≈ 0.7, inter ≈ 0.15,
        // so a mid ε separates them with margin ≫ the k=512 LSH error.
        // Every vertex is sketched and every edge estimated: no §6.3
        // exact fallback.
        let (g, _) = generators::planted_partition(400, 20, 12.0, 0.5, 9);
        let exact_idx = ScanIndex::build(g.clone(), IndexConfig::default());
        let sketches = SimHashSketches::build(&g, 512, 3, |v| g.degree(v) > 0);
        let sims = score_canonical_slots(&g, |u, v, _| sketches.estimate(u, v));
        let approx_idx =
            ScanIndex::from_similarities(g, sims, SimilarityMeasure::Cosine, SortStrategy::Integer);
        let params = QueryParams::new(3, 0.45);
        let a = exact_idx.cluster_with(params, parscan_core::BorderAssignment::MostSimilar);
        let b = approx_idx.cluster_with(params, parscan_core::BorderAssignment::MostSimilar);
        let ari = parscan_metrics::adjusted_rand_index(
            &a.labels_with_singletons(),
            &b.labels_with_singletons(),
        );
        assert!(ari > 0.8, "approx clustering diverged: ARI {ari}");
    }

    #[test]
    fn minhash_methods_build_valid_indices() {
        // Community structure keeps intra-edge Jaccard (≈ 0.5) well above
        // the ε = 0.3 used below; a flat random graph would cluster nothing.
        let (g, _) = generators::planted_partition(200, 10, 12.0, 0.5, 4);
        for method in [
            ApproxMethod::KPartitionMinHashJaccard,
            ApproxMethod::StandardMinHashJaccard,
        ] {
            let idx = build_approx_index(
                g.clone(),
                ApproxConfig {
                    method,
                    samples: 128,
                    ..Default::default()
                },
            );
            assert_eq!(idx.neighbor_order().validate(idx.graph()), Ok(()));
            let c = idx.cluster(QueryParams::new(2, 0.3));
            assert!(c.num_clusters() > 0);
        }
    }

    #[test]
    fn weighted_graphs_use_simhash() {
        let (g, _) = generators::weighted_planted_partition(200, 3, 10.0, 1.0, 6);
        let idx = build_approx_index(
            g,
            ApproxConfig {
                samples: 256,
                ..Default::default()
            },
        );
        let c = idx.cluster(QueryParams::new(3, 0.4));
        assert!(c.num_clusters() > 0);
    }

    #[test]
    #[should_panic(expected = "cannot approximate weighted")]
    fn minhash_rejects_weighted() {
        let (g, _) = generators::weighted_planted_partition(50, 2, 4.0, 1.0, 2);
        build_approx_index(
            g,
            ApproxConfig {
                method: ApproxMethod::KPartitionMinHashJaccard,
                ..Default::default()
            },
        );
    }

    #[test]
    fn heuristic_reduces_sketched_set() {
        // Heavy-tailed graph: the heuristic sketches only hubs, so every
        // edge with a low-degree endpoint keeps its exact score.
        let g = generators::rmat(10, 16, 7);
        let with = approx_similarities(
            &g,
            &ApproxConfig {
                samples: 32,
                ..Default::default()
            },
        );
        let exact = compute_full_merge(&g, SimilarityMeasure::Cosine);
        let threshold = 32;
        for (u, v, slot) in g.canonical_edges() {
            if g.degree(u) <= threshold || g.degree(v) <= threshold {
                assert_eq!(with.slot(slot), exact.slot(slot), "edge ({u},{v})");
            }
        }
    }
}
