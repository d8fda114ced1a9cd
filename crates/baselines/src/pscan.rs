//! Pruning-based SCAN: pSCAN (Chang et al., TKDE 2017) and a shared-memory
//! parallel variant standing in for ppSCAN (Che et al., ICPP 2018).
//!
//! The pruning idea: for an edge `{u, v}` with closed degrees `d̄`, cheap
//! bounds sandwich the similarity without touching neighbor lists —
//! e.g. for cosine `2/√(d̄_u d̄_v) ≤ σ(u,v) ≤ √(min/max)`. Core checking
//! walks a vertex's neighbors keeping a lower bound `sd` (confirmed
//! ε-similar, counting self) and an upper bound `ed` (not-yet-refuted,
//! closed degree), stopping as soon as `sd ≥ μ` (core) or `ed < μ`
//! (non-core); exact similarities are computed only when the bounds do not
//! decide, and are memoized per edge so the clustering phase reuses them.
//!
//! These are per-query algorithms: unlike the index, all similarity work
//! is paid again for every `(μ, ε)` — which is precisely the trade-off
//! Figures 6–7 of the paper illustrate.

use parscan_core::clustering::{Clustering, UNCLUSTERED};
use parscan_core::similarity::SimilarityMeasure;
use parscan_core::similarity_exact::open_intersection_value;
use parscan_graph::{CsrGraph, VertexId};
use parscan_parallel::primitives::par_for;
use parscan_parallel::union_find::ConcurrentUnionFind;
use parscan_parallel::utils::SyncMutPtr;
use std::sync::atomic::{AtomicU32, Ordering};

/// Not-yet-computed sentinel for the memo table (a NaN pattern no real
/// similarity produces).
const UNCOMPUTED: u32 = f32::to_bits(f32::NAN) ^ 0xdead;

/// Similarity bounds from closed degrees only. The mathematical bounds
/// are tight (an edge with no common open neighbors sits exactly on the
/// lower one), so they are padded by an f32-rounding margin to guarantee
/// pruning decisions agree with the memoized f32 exact scores.
#[inline]
fn bounds(measure: SimilarityMeasure, du: usize, dv: usize) -> (f64, f64) {
    let (cu, cv) = (du as f64 + 1.0, dv as f64 + 1.0);
    let (lo_deg, hi_deg) = if cu < cv { (cu, cv) } else { (cv, cu) };
    let (lo, hi) = match measure {
        SimilarityMeasure::Cosine => (2.0 / (cu * cv).sqrt(), (lo_deg / hi_deg).sqrt()),
        SimilarityMeasure::Jaccard => (2.0 / (cu + cv - 2.0), lo_deg / hi_deg),
        SimilarityMeasure::Dice => (4.0 / (cu + cv), 2.0 * lo_deg / (cu + cv)),
    };
    (lo - 1e-6, hi + 1e-6)
}

struct Memo<'g> {
    g: &'g CsrGraph,
    measure: SimilarityMeasure,
    /// `g`'s twin-slot permutation: a score is memoized on both slots.
    twins: Vec<u32>,
    cache: Vec<AtomicU32>,
}

impl<'g> Memo<'g> {
    fn new(g: &'g CsrGraph, measure: SimilarityMeasure) -> Self {
        assert!(
            !g.is_weighted(),
            "the pSCAN baselines run on unweighted graphs only (as in the paper)"
        );
        Memo {
            g,
            measure,
            twins: g.twin_slots(),
            cache: (0..g.num_slots())
                .map(|_| AtomicU32::new(UNCOMPUTED))
                .collect(),
        }
    }

    /// Is edge (slot `s`, endpoints `u`, `v`) ε-similar? Uses bounds first,
    /// computing and memoizing the exact score only when necessary.
    fn is_similar(&self, s: usize, u: VertexId, v: VertexId, epsilon: f32) -> bool {
        let cached = self.cache[s].load(Ordering::Relaxed);
        if cached != UNCOMPUTED {
            return f32::from_bits(cached) >= epsilon;
        }
        let (lo, hi) = bounds(self.measure, self.g.degree(u), self.g.degree(v));
        if lo >= epsilon as f64 {
            return true;
        }
        if hi < epsilon as f64 {
            return false;
        }
        let open = open_intersection_value(self.g, s) as u64;
        let score = self
            .measure
            .score_unweighted(open, self.g.degree(u), self.g.degree(v)) as f32;
        // Races are benign: the score is a pure function of the edge.
        self.cache[s].store(score.to_bits(), Ordering::Relaxed);
        self.cache[self.twins[s] as usize].store(score.to_bits(), Ordering::Relaxed);
        score >= epsilon
    }
}

/// Core check with early exit (the heart of pSCAN's pruning).
fn check_core(memo: &Memo, v: VertexId, mu: u32, epsilon: f32) -> bool {
    let g = memo.g;
    let mu = mu as usize;
    let mut sd = 1usize; // self
    let mut ed = g.degree(v) + 1; // closed degree upper bound
    if ed < mu {
        return false;
    }
    for s in g.slot_range(v) {
        if sd >= mu {
            return true;
        }
        if ed < mu {
            return false;
        }
        let u = g.slot_neighbor(s);
        if memo.is_similar(s, v, u, epsilon) {
            sd += 1;
        } else {
            ed -= 1;
        }
    }
    sd >= mu
}

fn cluster_from_cores(
    memo: &Memo,
    is_core: &[bool],
    epsilon: f32,
    parallel: bool,
) -> (Vec<u32>, Vec<bool>) {
    let g = memo.g;
    let n = g.num_vertices();
    let uf = ConcurrentUnionFind::new(n);
    let union_core_edges = |v: usize| {
        if !is_core[v] {
            return;
        }
        let v = v as VertexId;
        for s in g.slot_range(v) {
            let u = g.slot_neighbor(s);
            if u > v && is_core[u as usize] && memo.is_similar(s, v, u, epsilon) {
                uf.union(v, u);
            }
        }
    };
    if parallel {
        par_for(n, 64, union_core_edges);
    } else {
        (0..n).for_each(union_core_edges);
    }

    let labels: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNCLUSTERED)).collect();
    let assign_core = |v: usize| {
        if is_core[v] {
            labels[v].store(uf.find(v as VertexId), Ordering::Relaxed);
        }
    };
    let attach_borders = |v: usize| {
        if !is_core[v] {
            return;
        }
        let vv = v as VertexId;
        let root = labels[v].load(Ordering::Relaxed);
        for s in g.slot_range(vv) {
            let u = g.slot_neighbor(s) as usize;
            if !is_core[u]
                && labels[u].load(Ordering::Relaxed) == UNCLUSTERED
                && memo.is_similar(s, vv, u as VertexId, epsilon)
            {
                let _ = labels[u].compare_exchange(
                    UNCLUSTERED,
                    root,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
            }
        }
    };
    if parallel {
        par_for(n, 256, assign_core);
        par_for(n, 64, attach_borders);
    } else {
        (0..n).for_each(assign_core);
        (0..n).for_each(attach_borders);
    }
    (
        labels.into_iter().map(AtomicU32::into_inner).collect(),
        is_core.to_vec(),
    )
}

/// Sequential pSCAN.
pub fn pscan_sequential(
    g: &CsrGraph,
    measure: SimilarityMeasure,
    mu: u32,
    epsilon: f32,
) -> Clustering {
    assert!(mu >= 2);
    let memo = Memo::new(g, measure);
    let is_core: Vec<bool> = (0..g.num_vertices() as VertexId)
        .map(|v| check_core(&memo, v, mu, epsilon))
        .collect();
    let (labels, core) = cluster_from_cores(&memo, &is_core, epsilon, false);
    Clustering::new(labels, core)
}

/// Parallel pruned SCAN (ppSCAN-like): core checks, core unions, and
/// border attachment all run as flat parallel phases over the shared memo.
pub fn ppscan_parallel(
    g: &CsrGraph,
    measure: SimilarityMeasure,
    mu: u32,
    epsilon: f32,
) -> Clustering {
    assert!(mu >= 2);
    let memo = Memo::new(g, measure);
    let n = g.num_vertices();
    let mut is_core = vec![false; n];
    {
        let ptr = SyncMutPtr::new(&mut is_core);
        par_for(n, 64, |v| {
            let core = check_core(&memo, v as VertexId, mu, epsilon);
            // SAFETY: one writer per vertex.
            unsafe { ptr.write(v, core) };
        });
    }
    let (labels, core) = cluster_from_cores(&memo, &is_core, epsilon, true);
    Clustering::new(labels, core)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::original_scan::original_scan;
    use parscan_graph::generators;

    #[test]
    fn figure1_matches() {
        let g = generators::paper_figure1();
        for f in [pscan_sequential, ppscan_parallel] {
            let c = f(&g, SimilarityMeasure::Cosine, 3, 0.6);
            assert_eq!(c.num_clusters(), 2, "clusters");
            assert_eq!(c.labels[0], 0);
            assert_eq!(c.labels[10], 5);
            assert_eq!(c.labels[4], UNCLUSTERED);
        }
    }

    #[test]
    fn agrees_with_original_scan() {
        for seed in [2u64, 6] {
            let (g, _) = generators::planted_partition(300, 4, 9.0, 1.5, seed);
            for mu in [2u32, 3, 5] {
                for eps in [0.3f32, 0.5, 0.8] {
                    let want = original_scan(&g, SimilarityMeasure::Cosine, mu, eps);
                    for f in [pscan_sequential, ppscan_parallel] {
                        let got = f(&g, SimilarityMeasure::Cosine, mu, eps);
                        assert_eq!(got.core, want.core, "(μ,ε)=({mu},{eps})");
                        for v in 0..300usize {
                            if got.core[v] {
                                assert_eq!(got.labels[v], want.labels[v]);
                            }
                            assert_eq!(
                                got.labels[v] == UNCLUSTERED,
                                want.labels[v] == UNCLUSTERED,
                                "membership of {v} at (μ,ε)=({mu},{eps})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn bounds_are_valid() {
        // Lower ≤ exact ≤ upper on a real graph.
        let g = generators::erdos_renyi(120, 900, 8);
        let exact =
            parscan_core::similarity_exact::compute_full_merge(&g, SimilarityMeasure::Cosine);
        for (u, v, slot) in g.canonical_edges() {
            let (lo, hi) = bounds(SimilarityMeasure::Cosine, g.degree(u), g.degree(v));
            let s = exact.slot(slot) as f64;
            assert!(lo <= s + 1e-9, "lower bound violated: {lo} > {s}");
            assert!(s <= hi + 1e-9, "upper bound violated: {s} > {hi}");
        }
    }

    #[test]
    fn jaccard_and_dice_bounds_valid() {
        let g = generators::erdos_renyi(100, 700, 9);
        for measure in [SimilarityMeasure::Jaccard, SimilarityMeasure::Dice] {
            let exact = parscan_core::similarity_exact::compute_full_merge(&g, measure);
            for (u, v, slot) in g.canonical_edges() {
                let (lo, hi) = bounds(measure, g.degree(u), g.degree(v));
                let s = exact.slot(slot) as f64;
                assert!(lo <= s + 1e-9 && s <= hi + 1e-9, "{measure:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "unweighted graphs only")]
    fn rejects_weighted() {
        let (g, _) = generators::weighted_planted_partition(40, 2, 4.0, 1.0, 3);
        pscan_sequential(&g, SimilarityMeasure::Cosine, 2, 0.5);
    }
}
