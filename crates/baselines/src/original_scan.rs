//! The original sequential SCAN algorithm (Xu et al., KDD 2007; §3.1).
//!
//! Computes every edge similarity up front (`O(Σ d(u)+d(v))` with sorted
//! merges), then finds clusters with the modified BFS: expand only from
//! cores, following only ε-similar edges, attaching non-core borders to the
//! first cluster that reaches them. Entirely sequential — this is the
//! baseline the index-based algorithms are measured against.

use parscan_core::clustering::{Clustering, UNCLUSTERED};
use parscan_core::similarity::SimilarityMeasure;
use parscan_core::similarity_exact::open_intersection_value;
use parscan_graph::{CsrGraph, VertexId};
use std::collections::VecDeque;

/// Run SCAN with parameters `(μ, ε)`; returns the clustering.
///
/// Cores are labeled by the minimum core id of their cluster (BFS roots
/// are visited in ascending id order), which makes core labels directly
/// comparable with [`parscan_core::ScanIndex::cluster`].
pub fn original_scan(
    g: &CsrGraph,
    measure: SimilarityMeasure,
    mu: u32,
    epsilon: f32,
) -> Clustering {
    assert!(mu >= 2, "SCAN requires μ ≥ 2");
    assert!(
        !g.is_weighted() || measure.supports_weights(),
        "{} undefined on weighted graphs",
        measure.name()
    );
    let n = g.num_vertices();

    // Phase 1: all similarities, sequentially.
    let norms: Option<Vec<f64>> = g
        .is_weighted()
        .then(|| (0..n).map(|v| g.closed_norm_sq(v as VertexId)).collect());
    let twins = g.twin_slots();
    let mut sims = vec![0f32; g.num_slots()];
    for u in 0..n as VertexId {
        for s in g.slot_range(u) {
            let v = g.slot_neighbor(s);
            if v <= u {
                continue;
            }
            let open = open_intersection_value(g, s);
            let score = match &norms {
                Some(norms) => measure.score_weighted(
                    open,
                    g.slot_weight(s) as f64,
                    norms[u as usize],
                    norms[v as usize],
                ),
                None => measure.score_unweighted(open as u64, g.degree(u), g.degree(v)),
            } as f32;
            sims[s] = score;
            sims[twins[s] as usize] = score;
        }
    }

    // Phase 2: core detection.
    let is_core: Vec<bool> = (0..n as VertexId)
        .map(|v| {
            let similar = g.slot_range(v).filter(|&s| sims[s] >= epsilon).count();
            similar + 1 >= mu as usize
        })
        .collect();

    // Phase 3: modified BFS from unvisited cores, ascending id.
    let mut labels = vec![UNCLUSTERED; n];
    let mut queue = VecDeque::new();
    for root in 0..n as VertexId {
        if !is_core[root as usize] || labels[root as usize] != UNCLUSTERED {
            continue;
        }
        labels[root as usize] = root;
        queue.push_back(root);
        while let Some(x) = queue.pop_front() {
            for s in g.slot_range(x) {
                if sims[s] < epsilon {
                    continue;
                }
                let y = g.slot_neighbor(s);
                if is_core[y as usize] {
                    if labels[y as usize] == UNCLUSTERED {
                        labels[y as usize] = root;
                        queue.push_back(y);
                    }
                } else if labels[y as usize] == UNCLUSTERED {
                    // Border: attach, do not expand.
                    labels[y as usize] = root;
                }
            }
        }
    }

    Clustering::new(labels, is_core)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parscan_graph::generators;

    #[test]
    fn figure1_matches_paper() {
        let g = generators::paper_figure1();
        let c = original_scan(&g, SimilarityMeasure::Cosine, 3, 0.6);
        assert_eq!(c.num_clusters(), 2);
        for v in [0usize, 1, 2, 3] {
            assert_eq!(c.labels[v], 0);
        }
        for v in [5usize, 6, 7, 10] {
            assert_eq!(c.labels[v], 5);
        }
        for v in [4usize, 8, 9] {
            assert_eq!(c.labels[v], UNCLUSTERED);
        }
        let cores: Vec<usize> = (0..11).filter(|&v| c.core[v]).collect();
        assert_eq!(cores, vec![0, 1, 2, 3, 5, 6, 7]);
    }

    #[test]
    fn epsilon_sweep_shrinks_clusters() {
        let (g, _) = generators::planted_partition(300, 3, 10.0, 1.0, 4);
        let mut prev_clustered = usize::MAX;
        for eps in [0.2f32, 0.4, 0.6, 0.8] {
            let c = original_scan(&g, SimilarityMeasure::Cosine, 3, eps);
            let clustered = c.num_clustered();
            assert!(clustered <= prev_clustered, "ε={eps}");
            prev_clustered = clustered;
        }
    }

    #[test]
    fn jaccard_variant_runs() {
        let g = generators::erdos_renyi(150, 900, 5);
        let c = original_scan(&g, SimilarityMeasure::Jaccard, 2, 0.3);
        assert_eq!(c.labels.len(), 150);
    }

    #[test]
    fn deterministic() {
        let g = generators::rmat(8, 8, 9);
        let a = original_scan(&g, SimilarityMeasure::Cosine, 3, 0.5);
        let b = original_scan(&g, SimilarityMeasure::Cosine, 3, 0.5);
        assert_eq!(a, b);
    }
}
