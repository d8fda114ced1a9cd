//! Differential-testing support for dynamic updates: a trusted
//! from-scratch oracle plus index-equivalence assertions.
//!
//! Incremental maintenance ([`crate::dynamic`]) is the kind of code
//! that is *silently* wrong — a similarity copied when it should have
//! been recomputed produces a plausible index that answers queries
//! confidently and incorrectly. The only defense is differential: apply
//! the same mutation stream to a trusted full rebuild and demand
//! equivalence. This module is that trusted half, shared by the core
//! unit tests, the `tests/live_mutation.rs` harness, and the proptest
//! edge-case suite.
//!
//! Not part of the stable library API — test infrastructure that
//! happens to live in the library so downstream test crates can reuse
//! it.

use crate::dynamic::BatchUpdate;
use crate::index::{ExactStrategy, IndexConfig, ScanIndex, SortStrategy};
use crate::query::QueryParams;
use crate::similarity::SimilarityMeasure;
use parscan_graph::{CsrGraph, VertexId};
use std::collections::BTreeMap;

/// A star on `n` vertices plus `extra` random edges among its leaves:
/// one hub of degree `n - 1` beside many small neighborhoods. With
/// `n > 65_537` the hub's list and `CO[2]` are longer than the segments
/// the segment sort handles one per thread, so the order builds run both
/// of its branches.
#[cfg(test)]
pub(crate) fn star_with_leaf_edges(n: usize, extra: usize, seed: u64) -> CsrGraph {
    let leaves = parscan_graph::generators::erdos_renyi(n - 1, extra, seed);
    let mut edges: Vec<(VertexId, VertexId)> = (1..n as VertexId).map(|v| (0, v)).collect();
    edges.extend(leaves.canonical_edges().map(|(u, v, _)| (u + 1, v + 1)));
    parscan_graph::from_edges(n, &edges)
}

/// The oracle's build configuration: full per-edge merges (the simple
/// pSCAN-style kernel, bitwise identical to the incremental recompute
/// path) and the same integer sort the dynamic path uses, so a correct
/// incremental index matches the oracle *exactly*, not just within
/// tolerance.
pub fn oracle_config(measure: SimilarityMeasure) -> IndexConfig {
    IndexConfig {
        measure,
        exact: ExactStrategy::FullMerge,
        sort: SortStrategy::Integer,
    }
}

/// Apply `batch` to `graph`'s edge map with the documented patch-layer
/// semantics — self-loops dropped, the first duplicated insertion wins,
/// an insertion wins over a deletion of the same pair, inserting an
/// existing edge replaces its weight — and return the resulting edge
/// map keyed by canonical `(min, max)` pair.
pub fn apply_batch_to_edge_map(
    graph: &CsrGraph,
    batch: &BatchUpdate,
) -> BTreeMap<(VertexId, VertexId), f32> {
    let canon = |u: VertexId, v: VertexId| if u < v { (u, v) } else { (v, u) };
    let mut edges: BTreeMap<(VertexId, VertexId), f32> = graph
        .canonical_edges()
        .map(|(u, v, s)| ((u, v), graph.slot_weight(s)))
        .collect();

    let mut ins: Vec<(VertexId, VertexId, f32)> = batch
        .insertions
        .iter()
        .filter(|&&(u, v, _)| u != v)
        .map(|&(u, v, w)| {
            let (a, b) = canon(u, v);
            (a, b, w)
        })
        .collect();
    ins.sort_by_key(|&(a, b, _)| (a, b));
    ins.dedup_by_key(|&mut (a, b, _)| (a, b));

    for &(u, v) in &batch.deletions {
        if u == v {
            continue;
        }
        let pair = canon(u, v);
        if ins
            .binary_search_by_key(&pair, |&(a, b, _)| (a, b))
            .is_err()
        {
            edges.remove(&pair);
        }
    }
    for (a, b, w) in ins {
        edges.insert((a, b), w);
    }
    edges
}

/// The trusted oracle: apply `batch` to `graph` as an edge-map edit and
/// rebuild the index from scratch with [`oracle_config`].
pub fn rebuild_oracle(
    graph: &CsrGraph,
    batch: &BatchUpdate,
    measure: SimilarityMeasure,
) -> ScanIndex {
    let n = graph.num_vertices();
    let edges = apply_batch_to_edge_map(graph, batch);
    let rebuilt = if graph.is_weighted() {
        let list: Vec<(VertexId, VertexId, f32)> =
            edges.into_iter().map(|((u, v), w)| (u, v, w)).collect();
        parscan_graph::from_weighted_edges(n, &list)
    } else {
        let list: Vec<(VertexId, VertexId)> = edges.into_keys().collect();
        parscan_graph::from_edges(n, &list)
    };
    ScanIndex::build(rebuilt, oracle_config(measure))
}

/// Assert full structural equivalence of two indexes: identical graphs,
/// per-slot similarities within `tol`, *identical* neighbor/core orders
/// (deterministic radix sorts over equal scores leave no room for
/// legitimate divergence) and bitwise identical ε breakpoint tables.
///
/// # Panics
/// Panics with a slot-level diagnostic on the first difference.
pub fn assert_index_equivalent(actual: &ScanIndex, expected: &ScanIndex, tol: f64) {
    assert_eq!(actual.graph(), expected.graph(), "graphs differ");
    let a = actual.similarities().as_slice();
    let b = expected.similarities().as_slice();
    assert_eq!(a.len(), b.len(), "similarity slot counts differ");
    for (slot, (&x, &y)) in a.iter().zip(b).enumerate() {
        assert!(
            (x as f64 - y as f64).abs() <= tol,
            "similarity diverges at slot {slot} (edge {} -> {}): {x} vs {y}",
            actual.graph().slot_owner(slot),
            actual.graph().slot_neighbor(slot),
        );
    }
    assert_eq!(
        actual.neighbor_order().parts(),
        expected.neighbor_order().parts(),
        "neighbor orders differ"
    );
    let (a_off, a_vert, a_thr) = actual.core_order().parts();
    let (e_off, e_vert, e_thr) = expected.core_order().parts();
    assert_eq!(a_off, e_off, "core-order μ offsets differ");
    assert_eq!(a_vert, e_vert, "core-order vertex permutations differ");
    assert_eq!(a_thr, e_thr, "core-order thresholds differ");
    let bits = |index: &ScanIndex| -> Vec<u32> {
        let breakpoints = index.similarities().breakpoints();
        breakpoints.iter().map(|x| x.to_bits()).collect()
    };
    assert_eq!(bits(actual), bits(expected), "ε breakpoints differ");
}

/// Assert that both indexes answer an entire `(μ, ε)` grid alike: equal
/// clusterings (labels, roles, cluster counts).
pub fn assert_clusterings_equivalent(actual: &ScanIndex, expected: &ScanIndex) {
    for mu in [2u32, 3, 5] {
        for i in 1..=6 {
            let eps = i as f32 / 7.0;
            let params = QueryParams::new(mu, eps);
            assert_eq!(
                actual.cluster(params),
                expected.cluster(params),
                "clusterings diverge at (μ={mu}, ε={eps})"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::apply_batch;
    use parscan_graph::generators;

    #[test]
    fn oracle_agrees_with_incremental_on_a_mixed_batch() {
        let g = generators::erdos_renyi(120, 700, 5);
        let measure = SimilarityMeasure::default();
        let batch = BatchUpdate {
            insertions: vec![(0, 60, 1.0), (1, 90, 1.0), (2, 2, 1.0)],
            deletions: g
                .canonical_edges()
                .map(|(u, v, _)| (u, v))
                .take(6)
                .collect(),
        };
        let oracle = rebuild_oracle(&g, &batch, measure);
        let index = ScanIndex::build(g, oracle_config(measure));
        let updated = apply_batch(index, &batch);
        assert_index_equivalent(&updated, &oracle, 0.0);
        assert_clusterings_equivalent(&updated, &oracle);
    }

    #[test]
    fn edge_map_honors_patch_semantics() {
        let g = parscan_graph::from_edges(5, &[(0, 1), (1, 2)]);
        let batch = BatchUpdate {
            // Duplicate insertion (first weight wins), insert+delete of
            // the same pair (insert wins), and a self-loop (dropped).
            insertions: vec![(3, 4, 2.0), (4, 3, 9.0), (0, 2, 1.0), (2, 2, 1.0)],
            deletions: vec![(0, 2), (0, 1)],
        };
        let edges = apply_batch_to_edge_map(&g, &batch);
        assert_eq!(
            edges.keys().copied().collect::<Vec<_>>(),
            vec![(0, 2), (1, 2), (3, 4)]
        );
        assert_eq!(edges[&(3, 4)], 2.0, "first duplicate wins");
    }
}
