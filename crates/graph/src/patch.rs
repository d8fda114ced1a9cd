//! Batch patching of a CSR graph: splice a small set of edge
//! insertions/deletions into an existing graph *without* re-sorting all
//! `2m` directed entries.
//!
//! A vertex is *touched* when the batch changes its list. Every other
//! list is unchanged, and the untouched vertices between two touched ones
//! form a run whose slots all shift by one constant, so their neighbors
//! and weights are block copies ([`clean_pieces`]). Touched lists are
//! rebuilt by a linear three-way merge of (old list, sorted insertions,
//! sorted deletions).
//!
//! The graph is assembled without the `O(n + m)` validation pass of
//! [`CsrGraph::try_from_parts`] (debug builds still run it). What the
//! patch writes fresh — the touched lists — is checked in release builds
//! too, each slot's mirror found by binary search, at
//! `O(Σ deg log deg)` over the touched vertices.
//!
//! This is the graph-side half of the dynamic-index extension
//! (`parscan_core::dynamic`), which copies the clean runs of the scores
//! and of the neighbor order with the same [`clean_pieces`].
//!
//! Semantics (matching `BatchUpdate`): self-loops are ignored; deleting an
//! absent edge is a no-op; inserting an existing edge *replaces its
//! weight*; if the same edge is both deleted and inserted in one batch,
//! the insertion wins; duplicate insertions keep the first occurrence.

use crate::csr::{CsrGraph, VertexId};
use parscan_parallel::prefix::exclusive_scan_usize;
use parscan_parallel::primitives::{par_for, par_map};
use parscan_parallel::utils::SyncMutPtr;
use parscan_parallel::weighted::par_for_weighted;

/// Longest block copy [`clean_pieces`] hands out, so that one long run of
/// untouched vertices still splits across threads.
const PIECE_SLOTS: usize = 1 << 16;

/// Per-vertex view of the batch: directed delta entries, owner-major.
struct Deltas {
    /// `(owner, neighbor, weight)`, sorted by (owner, neighbor), deduped
    /// (first occurrence wins).
    ins: Vec<(VertexId, VertexId, f32)>,
    /// `(owner, neighbor)`, sorted, deduped, with pairs overridden by an
    /// insertion already removed.
    del: Vec<(VertexId, VertexId)>,
}

impl Deltas {
    fn build(insertions: &[(VertexId, VertexId, f32)], deletions: &[(VertexId, VertexId)]) -> Self {
        let mut ins: Vec<(VertexId, VertexId, f32)> = Vec::with_capacity(2 * insertions.len());
        for &(u, v, w) in insertions {
            if u != v {
                ins.push((u, v, w));
                ins.push((v, u, w));
            }
        }
        ins.sort_by_key(|&(a, b, _)| ((a as u64) << 32) | b as u64);
        ins.dedup_by_key(|&mut (a, b, _)| (a, b));

        let mut del: Vec<(VertexId, VertexId)> = Vec::with_capacity(2 * deletions.len());
        for &(u, v) in deletions {
            if u != v {
                del.push((u, v));
                del.push((v, u));
            }
        }
        del.sort_unstable();
        del.dedup();
        // Insertion wins over deletion of the same pair.
        del.retain(|&(a, b)| {
            ins.binary_search_by_key(&((a as u64) << 32 | b as u64), |&(x, y, _)| {
                (x as u64) << 32 | y as u64
            })
            .is_err()
        });
        Deltas { ins, del }
    }

    /// The touched vertices, ascending.
    fn owners(&self) -> Vec<VertexId> {
        let ins = self.ins.iter().map(|&(a, _, _)| a);
        let mut owners: Vec<VertexId> = ins.chain(self.del.iter().map(|&(a, _)| a)).collect();
        owners.sort_unstable();
        owners.dedup();
        owners
    }

    fn ins_range(&self, v: VertexId) -> &[(VertexId, VertexId, f32)] {
        let lo = self.ins.partition_point(|&(a, _, _)| a < v);
        let hi = self.ins.partition_point(|&(a, _, _)| a <= v);
        &self.ins[lo..hi]
    }

    fn del_range(&self, v: VertexId) -> &[(VertexId, VertexId)] {
        let lo = self.del.partition_point(|&(a, _)| a < v);
        let hi = self.del.partition_point(|&(a, _)| a <= v);
        &self.del[lo..hi]
    }

    /// Walk `v`'s patched adjacency, invoking `emit(neighbor, weight)` in
    /// ascending-neighbor order. Linear in `deg + Δ_v`.
    fn merge<F: FnMut(VertexId, f32)>(&self, g: &CsrGraph, v: VertexId, mut emit: F) {
        let (ins, del) = (self.ins_range(v), self.del_range(v));
        let range = g.slot_range(v);
        let mut i = range.start;
        let mut j = 0usize;
        let mut k = 0usize;
        loop {
            let old_nbr = (i < range.end).then(|| g.slot_neighbor(i));
            let ins_nbr = ins.get(j).map(|&(_, b, _)| b);
            // Which side advances: the smaller neighbor id; ties mean the
            // insertion replaces the existing edge's weight.
            let take_old = match (old_nbr, ins_nbr) {
                (Some(x), Some(y)) if x == y => {
                    emit(y, ins[j].2);
                    i += 1;
                    j += 1;
                    continue;
                }
                (Some(x), Some(y)) => x < y,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_old {
                let x = old_nbr.expect("old side present");
                while k < del.len() && del[k].1 < x {
                    k += 1;
                }
                if k < del.len() && del[k].1 == x {
                    k += 1; // deleted
                } else {
                    emit(x, g.slot_weight(i));
                }
                i += 1;
            } else {
                emit(ins_nbr.expect("insert side present"), ins[j].2);
                j += 1;
            }
        }
    }
}

/// The block copies that carry every list outside `dirty` (ascending,
/// distinct) from a graph with offsets `old_offsets` to one with
/// `new_offsets`, when the two differ only in the lists of `dirty`.
/// Each maximal run of other vertices keeps its slots in order and
/// shifted by one constant, so it is covered by pieces
/// `(old_start, new_start, len)` of at most 65,536 slots.
pub fn clean_pieces(
    old_offsets: &[usize],
    new_offsets: &[usize],
    dirty: &[VertexId],
) -> Vec<(usize, usize, usize)> {
    let n = old_offsets.len() - 1;
    let mut pieces = Vec::new();
    let mut first = 0usize;
    for end in dirty.iter().map(|&d| d as usize).chain([n]) {
        let (mut old, mut new) = (old_offsets[first], new_offsets[first]);
        let old_end = old_offsets[end];
        debug_assert_eq!(old_end - old, new_offsets[end] - new, "a clean run resized");
        while old < old_end {
            let len = (old_end - old).min(PIECE_SLOTS);
            pieces.push((old, new, len));
            old += len;
            new += len;
        }
        first = end + 1;
    }
    pieces
}

/// Apply a batch of edge updates to `g`, returning the patched graph.
///
/// # Panics
/// Panics if any endpoint is out of range, or if the lists the patch
/// rewrote fail [`CsrGraph`]'s invariants.
pub fn patch(
    g: &CsrGraph,
    insertions: &[(VertexId, VertexId, f32)],
    deletions: &[(VertexId, VertexId)],
) -> CsrGraph {
    let n = g.num_vertices();
    assert!(
        insertions
            .iter()
            .all(|&(u, v, _)| (u as usize) < n && (v as usize) < n),
        "insertion endpoint out of range"
    );
    assert!(
        deletions
            .iter()
            .all(|&(u, v)| (u as usize) < n && (v as usize) < n),
        "deletion endpoint out of range"
    );
    let deltas = Deltas::build(insertions, deletions);
    let touched = deltas.owners();
    let (old_offsets, old_neighbors, old_weights) = g.parts();

    // New degrees: untouched vertices keep theirs; touched ones count via
    // the merge.
    let touched_degrees: Vec<usize> = par_map(touched.len(), 1, |k| {
        let mut count = 0usize;
        deltas.merge(g, touched[k], |_, _| count += 1);
        count
    });
    let mut degrees: Vec<usize> = par_map(n, 4096, |v| g.degree(v as VertexId));
    for (&t, &d) in touched.iter().zip(&touched_degrees) {
        degrees[t as usize] = d;
    }
    let (mut offsets, total) = exclusive_scan_usize(&degrees);
    offsets.push(total);
    assert!(
        total <= u32::MAX as usize,
        "slot count exceeds u32 index space"
    );

    let mut neighbors = vec![0 as VertexId; total];
    let mut weights = old_weights.map(|_| vec![0f32; total]);
    let nbr_ptr = SyncMutPtr::new(&mut neighbors);
    let w_ptr = weights.as_deref_mut().map(SyncMutPtr::new);
    let pieces = clean_pieces(old_offsets, &offsets, &touched);
    par_for(pieces.len(), 1, |p| {
        let (old, new, len) = pieces[p];
        // SAFETY: pieces cover disjoint slot ranges of untouched lists,
        // which no other writer of this pass touches.
        unsafe {
            nbr_ptr
                .slice_mut(new, len)
                .copy_from_slice(&old_neighbors[old..old + len]);
            if let (Some(w), Some(old_w)) = (&w_ptr, old_weights) {
                w.slice_mut(new, len)
                    .copy_from_slice(&old_w[old..old + len]);
            }
        }
    });
    par_for_weighted(&touched_degrees, |k| {
        let v = touched[k];
        let mut pos = offsets[v as usize];
        deltas.merge(g, v, |x, w| {
            // SAFETY: `pos` stays inside `v`'s new range, which only this
            // iteration writes.
            unsafe {
                nbr_ptr.write(pos, x);
                if let Some(wp) = &w_ptr {
                    wp.write(pos, w);
                }
            }
            pos += 1;
        });
        debug_assert_eq!(pos, offsets[v as usize + 1]);
    });

    let patched = CsrGraph::from_parts_unchecked(offsets, neighbors, weights);
    if let Err(e) = patched.check_lists(&touched) {
        panic!("patch broke a CSR invariant: {e}");
    }
    patched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{from_edges, from_weighted_edges};
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    /// Oracle: apply the batch to an edge map and rebuild from scratch.
    fn oracle(g: &CsrGraph, insertions: &[(u32, u32, f32)], deletions: &[(u32, u32)]) -> CsrGraph {
        let canon = |u: u32, v: u32| if u < v { (u, v) } else { (v, u) };
        let mut edges: BTreeMap<(u32, u32), f32> = g
            .canonical_edges()
            .map(|(u, v, s)| ((u, v), g.slot_weight(s)))
            .collect();
        for &(u, v) in deletions {
            if u != v {
                edges.remove(&canon(u, v));
            }
        }
        // First occurrence wins for duplicate insertions; insertion
        // overrides same-batch deletion (applied after removals).
        let mut seen = std::collections::HashSet::new();
        for &(u, v, w) in insertions {
            if u != v && seen.insert(canon(u, v)) {
                edges.insert(canon(u, v), w);
            }
        }
        let list: Vec<(u32, u32, f32)> = edges.into_iter().map(|((u, v), w)| (u, v, w)).collect();
        if g.is_weighted() {
            from_weighted_edges(g.num_vertices(), &list)
        } else {
            let plain: Vec<(u32, u32)> = list.iter().map(|&(u, v, _)| (u, v)).collect();
            from_edges(g.num_vertices(), &plain)
        }
    }

    #[test]
    fn matches_oracle_on_random_batches() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..15 {
            let n = rng.gen_range(5..120usize);
            let g = generators::erdos_renyi(n.max(2), 3 * n, rng.gen());
            let ins: Vec<(u32, u32, f32)> = (0..rng.gen_range(0..30))
                .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32), 1.0))
                .collect();
            let del: Vec<(u32, u32)> = g
                .canonical_edges()
                .map(|(u, v, _)| (u, v))
                .step_by(3)
                .take(rng.gen_range(0..20))
                .collect();
            let got = patch(&g, &ins, &del);
            let want = oracle(&g, &ins, &del);
            assert_eq!(got, want);
            assert_eq!(got.validate(), Ok(()));
        }
    }

    #[test]
    fn matches_oracle_weighted() {
        let mut rng = StdRng::seed_from_u64(9);
        let (g, _) = generators::weighted_planted_partition(80, 2, 6.0, 1.0, 4);
        for _ in 0..10 {
            let ins: Vec<(u32, u32, f32)> = (0..10)
                .map(|_| {
                    (
                        rng.gen_range(0..80u32),
                        rng.gen_range(0..80u32),
                        rng.gen_range(0.1..1.0f32),
                    )
                })
                .collect();
            let del: Vec<(u32, u32)> = g
                .canonical_edges()
                .map(|(u, v, _)| (u, v))
                .take(5)
                .collect();
            let got = patch(&g, &ins, &del);
            let want = oracle(&g, &ins, &del);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn insert_existing_edge_replaces_weight() {
        let g = from_weighted_edges(3, &[(0, 1, 0.5), (1, 2, 0.7)]);
        let h = patch(&g, &[(1, 0, 0.9)], &[]);
        assert_eq!(h.num_edges(), 2);
        let s = h.slot_of(0, 1).unwrap();
        assert_eq!(h.slot_weight(s), 0.9);
    }

    #[test]
    fn delete_then_insert_same_edge_keeps_it() {
        let g = from_edges(3, &[(0, 1), (1, 2)]);
        let h = patch(&g, &[(0, 1, 1.0)], &[(0, 1)]);
        assert!(h.slot_of(0, 1).is_some());
        assert_eq!(h.num_edges(), 2);
    }

    #[test]
    fn noop_batch_is_identity() {
        let g = generators::rmat(7, 6, 3);
        let h = patch(&g, &[], &[]);
        assert_eq!(g, h);
        // Deleting absent edges and inserting self-loops are no-ops too.
        let h = patch(&g, &[(5, 5, 1.0)], &[(0, 0)]);
        assert_eq!(g, h);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_endpoints() {
        let g = from_edges(3, &[(0, 1)]);
        patch(&g, &[(0, 7, 1.0)], &[]);
    }
}
