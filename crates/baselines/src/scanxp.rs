//! SCAN-XP (Takahashi et al., NDA 2017): parallel SCAN *without* pruning.
//!
//! The third point in the design space the paper's evaluation spans
//! (§7.1, §8): SCAN-XP parallelizes the original algorithm directly —
//! compute every edge similarity eagerly with per-edge neighborhood
//! intersections, then find cores and clusters — with no pruning (pSCAN),
//! no memoization tricks, and no index. ppSCAN's authors show pruning
//! beats this; having it here lets `fig6_query_eps` reproduce that ordering
//! (`index query < ppSCAN < SCAN-XP < sequential SCAN` in per-query cost).
//!
//! Per query, the cost is `Θ(similarity work) + O(m + n)` regardless of
//! (μ, ε) — the flat profile Figures 6–7 contrast against the index's
//! output-sensitive curve.

use parscan_core::clustering::{Clustering, UNCLUSTERED};
use parscan_core::similarity::SimilarityMeasure;
use parscan_core::similarity_exact::{compute_full_merge, EdgeSimilarities};
use parscan_graph::{CsrGraph, VertexId};
use parscan_parallel::primitives::par_for;
use parscan_parallel::union_find::ConcurrentUnionFind;
use parscan_parallel::utils::SyncMutPtr;
use std::sync::atomic::{AtomicU32, Ordering};

/// One SCAN query computed SCAN-XP style: eager parallel similarity
/// computation (no pruning), parallel core detection, concurrent
/// union-find clustering, CAS border attachment.
pub fn scanxp_parallel(
    g: &CsrGraph,
    measure: SimilarityMeasure,
    mu: u32,
    epsilon: f32,
) -> Clustering {
    assert!(mu >= 2, "SCAN requires μ ≥ 2");
    // Phase 1: every similarity, unconditionally (the defining non-choice).
    let sims: EdgeSimilarities = compute_full_merge(g, measure);

    let n = g.num_vertices();
    // Phase 2: cores by counting ε-similar neighbors (+1 for self).
    let mut is_core = vec![false; n];
    {
        let ptr = SyncMutPtr::new(&mut is_core);
        par_for(n, 64, |v| {
            let vv = v as VertexId;
            let similar = 1 + g
                .slot_range(vv)
                .filter(|&s| sims.slot(s) >= epsilon)
                .count();
            // SAFETY: one writer per vertex.
            unsafe { ptr.write(v, similar >= mu as usize) };
        });
    }

    // Phase 3: cluster cores over ε-similar core–core edges.
    let uf = ConcurrentUnionFind::new(n);
    par_for(n, 64, |v| {
        if !is_core[v] {
            return;
        }
        let vv = v as VertexId;
        for s in g.slot_range(vv) {
            let u = g.slot_neighbor(s);
            if u > vv && is_core[u as usize] && sims.slot(s) >= epsilon {
                uf.union(vv, u);
            }
        }
    });

    let labels: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNCLUSTERED)).collect();
    par_for(n, 256, |v| {
        if is_core[v] {
            labels[v].store(uf.find(v as VertexId), Ordering::Relaxed);
        }
    });
    // Phase 4: borders attach to an arbitrary ε-similar core neighbor.
    par_for(n, 64, |v| {
        if !is_core[v] {
            return;
        }
        let vv = v as VertexId;
        let root = labels[v].load(Ordering::Relaxed);
        for s in g.slot_range(vv) {
            let u = g.slot_neighbor(s) as usize;
            if !is_core[u] && sims.slot(s) >= epsilon {
                let _ = labels[u].compare_exchange(
                    UNCLUSTERED,
                    root,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
            }
        }
    });

    Clustering::new(
        labels.into_iter().map(AtomicU32::into_inner).collect(),
        is_core,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::original_scan::original_scan;
    use parscan_graph::generators;

    #[test]
    fn figure1_matches_paper() {
        let g = generators::paper_figure1();
        let c = scanxp_parallel(&g, SimilarityMeasure::Cosine, 3, 0.6);
        assert_eq!(c.num_clusters(), 2);
        assert_eq!(c.labels[0], 0);
        assert_eq!(c.labels[10], 5);
        assert_eq!(c.labels[4], UNCLUSTERED);
        assert_eq!(c.labels[8], UNCLUSTERED);
    }

    #[test]
    fn agrees_with_original_scan() {
        for seed in [3u64, 12] {
            let (g, _) = generators::planted_partition(250, 3, 9.0, 1.5, seed);
            for mu in [2u32, 4] {
                for eps in [0.3f32, 0.6] {
                    let want = original_scan(&g, SimilarityMeasure::Cosine, mu, eps);
                    let got = scanxp_parallel(&g, SimilarityMeasure::Cosine, mu, eps);
                    assert_eq!(got.core, want.core, "(μ,ε)=({mu},{eps})");
                    for v in 0..g.num_vertices() {
                        if got.core[v] {
                            assert_eq!(got.labels[v], want.labels[v]);
                        }
                        assert_eq!(
                            got.labels[v] == UNCLUSTERED,
                            want.labels[v] == UNCLUSTERED,
                            "membership of {v}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn agrees_with_pruned_variants() {
        let (g, _) = generators::planted_partition(200, 4, 8.0, 1.0, 9);
        let a = scanxp_parallel(&g, SimilarityMeasure::Jaccard, 3, 0.4);
        let b = crate::pscan::ppscan_parallel(&g, SimilarityMeasure::Jaccard, 3, 0.4);
        assert_eq!(a.core, b.core);
    }

    #[test]
    fn weighted_graphs_supported() {
        // Unlike the pruning baselines, eager computation handles weighted
        // cosine directly.
        let (g, _) = generators::weighted_planted_partition(150, 3, 8.0, 1.0, 4);
        let c = scanxp_parallel(&g, SimilarityMeasure::Cosine, 3, 0.5);
        assert_eq!(c.labels.len(), 150);
        // Must agree with the index path's cores.
        let idx = parscan_core::ScanIndex::build(g, parscan_core::IndexConfig::default());
        let want = idx.cluster(parscan_core::QueryParams::new(3, 0.5));
        assert_eq!(c.core, want.core);
    }
}
