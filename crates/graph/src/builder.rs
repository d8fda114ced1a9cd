//! Parallel CSR construction from edge lists.
//!
//! Pipeline: count each vertex's directed entries (both endpoints of
//! every input edge that is not a self-loop), prefix-sum the counts into
//! one segment per vertex, and scatter each entry, in input order, into
//! its owner's segment as a packed `neighbor << 32 | input index` key.
//! A stable sort of each segment by neighbor ([`par_sort_segments`])
//! puts each neighbor's earliest input occurrence first, and both sides
//! of an edge see the same earliest index. Keeping that first key drops
//! the duplicates with the first occurrence's weight winning, and a
//! second prefix sum compacts the lists into the CSR arrays. Both slots
//! of an edge take their weight from the same input index, so the
//! weights are symmetric by construction. The scatter keeps input order
//! within a segment whatever the chunking, so the output does not depend
//! on the thread count. Work is `O(n + m)` (segments of up to 65,536
//! entries are sorted in cache, larger ones by radix) and every phase is
//! a flat parallel loop, so construction follows the paper's work/span
//! discipline.

use crate::csr::{CsrGraph, VertexId};
use parscan_parallel::pool::chunk_ranges;
use parscan_parallel::prefix::exclusive_scan_usize;
use parscan_parallel::primitives::{par_for, par_map, reduce};
use parscan_parallel::radix::par_sort_segments;
use parscan_parallel::utils::SyncMutPtr;
use parscan_parallel::weighted::par_for_weighted;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The scatter groups owners into at most `2^OWNER_BLOCK_BITS` blocks of
/// consecutive vertices: few enough for one bucketing pass, and small
/// enough that a block's part of the key array stays in cache.
const OWNER_BLOCK_BITS: u32 = 10;

/// Build an unweighted simple undirected graph on `n` vertices.
///
/// Self-loops and duplicate edges in the input are dropped; edges are
/// symmetrized, so `(u, v)` and `(v, u)` denote the same edge.
///
/// # Panics
/// Panics if an endpoint is `>= n`.
pub fn from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> CsrGraph {
    build(n, edges.len(), |i| (edges[i].0, edges[i].1, 1.0), false)
}

/// Build a weighted simple undirected graph on `n` vertices. When the
/// input lists an edge more than once the first occurrence's weight wins.
pub fn from_weighted_edges(n: usize, edges: &[(VertexId, VertexId, f32)]) -> CsrGraph {
    build(n, edges.len(), |i| edges[i], true)
}

/// The CSR build behind [`from_edges`] and [`from_weighted_edges`];
/// `edge(i)` is input edge `i`, and weights are kept when `weighted`.
pub(crate) fn build<F>(n: usize, n_edges: usize, edge: F, weighted: bool) -> CsrGraph
where
    F: Fn(usize) -> (VertexId, VertexId, f32) + Sync,
{
    assert!(n <= u32::MAX as usize, "vertex ids are u32");
    assert!(
        n_edges <= u32::MAX as usize,
        "input edge indices are u32 (at most {} edges)",
        u32::MAX
    );
    if n_edges > 0 {
        let max_id = reduce(
            n_edges,
            4096,
            0u32,
            |i| {
                let (u, v, _) = edge(i);
                u.max(v)
            },
            |a, b| a.max(b),
        );
        assert!(
            (max_id as usize) < n,
            "edge endpoint {max_id} out of range (n = {n})"
        );
    }

    // Scatter every directed entry into its owner's segment as a
    // `neighbor << 32 | input index` key. Two cache-friendly passes
    // replace one random write per entry. Pass 1 is one radix pass over
    // owner blocks (at most 1024 blocks of consecutive vertices): count
    // each edge chunk's entries per block, then stage them block-major.
    // Pass 2 takes one block at a time: counting its vertices' entries
    // fixes their segments inside the block's range of the key array,
    // and the keys are written there in input order.
    let shift = (usize::BITS - n.leading_zeros()).saturating_sub(OWNER_BLOCK_BITS);
    let n_blocks = n.div_ceil(1 << shift);
    let chunks = chunk_ranges(n_edges, 4096);
    let for_each_entry = |c: usize, f: &mut dyn FnMut(VertexId, VertexId, u32)| {
        for i in chunks[c].clone() {
            let (u, v, _) = edge(i);
            if u != v {
                f(u, v, i as u32);
                f(v, u, i as u32);
            }
        }
    };
    // `heads[c][b]`: where chunk `c`'s entries for block `b` start.
    let mut heads: Vec<Vec<usize>> = par_map(chunks.len(), 1, |c| {
        let mut row = vec![0usize; n_blocks];
        for_each_entry(c, &mut |a, _, _| row[a as usize >> shift] += 1);
        row
    });
    let mut block_starts = vec![0usize; n_blocks + 1];
    for b in 0..n_blocks {
        block_starts[b + 1] = block_starts[b];
        for row in &mut heads {
            let count = row[b];
            row[b] = block_starts[b + 1];
            block_starts[b + 1] += count;
        }
    }
    let total = block_starts[n_blocks];
    let mut staged = vec![(0 as VertexId, 0 as VertexId, 0u32); total];
    {
        let staged_ptr = SyncMutPtr::new(&mut staged);
        par_for(chunks.len(), 1, |c| {
            let mut head = heads[c].clone();
            let end = |b: usize| heads.get(c + 1).map_or(block_starts[b + 1], |next| next[b]);
            for_each_entry(c, &mut |a, nbr, i| {
                let b = a as usize >> shift;
                assert!(head[b] < end(b), "edge(i) must not change between calls");
                // SAFETY: `head[b]` lies in chunk `c`'s range for block
                // `b` (checked), which no other chunk writes.
                unsafe { staged_ptr.write(head[b], (a, nbr, i)) };
                head[b] += 1;
            });
        });
    }
    let block_len: Vec<usize> = block_starts.windows(2).map(|w| w[1] - w[0]).collect();
    let mut segments = vec![0usize; n + 1];
    segments[n] = total;
    let mut keys = vec![0u64; total];
    {
        let seg_ptr = SyncMutPtr::new(&mut segments);
        let keys_ptr = SyncMutPtr::new(&mut keys);
        par_for_weighted(&block_len, |b| {
            let first = b << shift;
            let block = (first + (1 << shift)).min(n) - first;
            let entries = &staged[block_starts[b]..block_starts[b + 1]];
            // SAFETY: blocks cover disjoint vertex ranges of `segments`
            // and disjoint ranges of `keys`, and each block is one task.
            let (seg, out) = unsafe {
                (
                    seg_ptr.slice_mut(first, block),
                    keys_ptr.slice_mut(block_starts[b], entries.len()),
                )
            };
            let mut cursor = vec![0usize; block];
            for &(a, _, _) in entries {
                cursor[a as usize - first] += 1;
            }
            let mut at = 0;
            for (k, c) in cursor.iter_mut().enumerate() {
                seg[k] = block_starts[b] + at;
                (*c, at) = (at, at + *c);
            }
            for &(a, nbr, i) in entries {
                let c = &mut cursor[a as usize - first];
                out[*c] = ((nbr as u64) << 32) | i as u64;
                *c += 1;
            }
        });
    }
    drop(staged);
    par_sort_segments(&mut keys, &segments);

    // Compact the first key of each neighbor run into the CSR arrays,
    // block by block.
    let segment = |u: usize| first_keys(&keys[segments[u]..segments[u + 1]]);
    let degrees: Vec<usize> = par_map(n, 1024, |u| segment(u).count());
    let offsets = offsets_from(&degrees);
    let slots = offsets[n];
    assert!(
        slots <= u32::MAX as usize,
        "slot count exceeds u32 index space"
    );
    let mut neighbors = vec![0 as VertexId; slots];
    let mut weights = weighted.then(|| vec![0f32; slots]);
    {
        let nbr_ptr = SyncMutPtr::new(&mut neighbors);
        let w_ptr = weights.as_deref_mut().map(SyncMutPtr::new);
        par_for_weighted(&block_len, |b| {
            for u in (b << shift)..((b + 1) << shift).min(n) {
                for (s, (v, i)) in (offsets[u]..).zip(segment(u)) {
                    // SAFETY: `s` is in `u`'s output range, which no other
                    // vertex writes.
                    unsafe {
                        nbr_ptr.write(s, v);
                        if let Some(w) = w_ptr {
                            w.write(s, edge(i).2);
                        }
                    }
                }
            }
        });
    }
    CsrGraph::from_parts_unchecked(offsets, neighbors, weights)
}

/// Exclusive prefix sums of `counts` with the total appended: the
/// `n + 1` offsets of consecutive ranges of those sizes.
fn offsets_from(counts: &[usize]) -> Vec<usize> {
    let (mut offsets, total) = exclusive_scan_usize(counts);
    offsets.push(total);
    offsets
}

/// The first key of each neighbor run in a sorted segment, as
/// `(neighbor, input index)`: the earliest occurrence of that edge.
fn first_keys(segment: &[u64]) -> impl Iterator<Item = (VertexId, usize)> + '_ {
    segment
        .iter()
        .enumerate()
        .filter(|&(k, &key)| k == 0 || key >> 32 != segment[k - 1] >> 32)
        .map(|(_, &key)| ((key >> 32) as VertexId, (key & 0xffff_ffff) as usize))
}

/// Relabel a graph so vertex `v` becomes `perm[v]` (a bijection).
/// Used by tests to check label-invariance of clustering.
pub fn relabel(g: &CsrGraph, perm: &[VertexId]) -> CsrGraph {
    let n = g.num_vertices();
    assert_eq!(perm.len(), n);
    let edges: Vec<(VertexId, VertexId, f32)> = g
        .canonical_edges()
        .map(|(u, v, slot)| (perm[u as usize], perm[v as usize], g.slot_weight(slot)))
        .collect();
    if g.is_weighted() {
        from_weighted_edges(n, &edges)
    } else {
        let unweighted: Vec<(VertexId, VertexId)> = edges.iter().map(|&(u, v, _)| (u, v)).collect();
        from_edges(n, &unweighted)
    }
}

/// Parallel histogram of vertex degrees, from 0 to the maximum degree —
/// the index loader checks the core order's μ offsets against it.
pub fn degree_histogram(g: &CsrGraph) -> Vec<usize> {
    let max_deg = g.max_degree();
    let hist: Vec<AtomicUsize> = (0..=max_deg).map(|_| AtomicUsize::new(0)).collect();
    par_for(g.num_vertices(), 2048, |v| {
        hist[g.degree(v as VertexId)].fetch_add(1, Ordering::Relaxed);
    });
    hist.into_iter().map(|a| a.into_inner()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_triangle() {
        let g = from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[0, 1]);
    }

    #[test]
    fn drops_self_loops_and_duplicates() {
        let g = from_edges(4, &[(0, 1), (1, 0), (0, 1), (2, 2), (3, 1)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(1), &[0, 3]);
        assert_eq!(g.degree(2), 0);
        assert_eq!(g.validate(), Ok(()));
    }

    #[test]
    fn weighted_first_occurrence_wins() {
        let g = from_weighted_edges(2, &[(0, 1, 0.5), (1, 0, 0.9)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.slot_weight(0), 0.5);
        assert_eq!(g.slot_weight(1), 0.5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn empty_inputs() {
        let g = from_edges(0, &[]);
        assert_eq!(g.num_vertices(), 0);
        let g = from_edges(5, &[]);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn large_random_build_is_valid() {
        // Deterministic pseudo-random multigraph input.
        let n = 5000u32;
        let edges: Vec<(u32, u32)> = (0..40_000u64)
            .map(|i| {
                let h = parscan_parallel::utils::hash64(i);
                ((h % n as u64) as u32, ((h >> 32) % n as u64) as u32)
            })
            .collect();
        let g = from_edges(n as usize, &edges);
        assert_eq!(g.validate(), Ok(()));
        assert!(g.num_edges() > 30_000);
    }

    #[test]
    fn relabel_preserves_structure() {
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let perm = vec![3, 2, 1, 0];
        let h = relabel(&g, &perm);
        assert_eq!(h.num_edges(), 3);
        assert_eq!(h.neighbors(3), &[2]); // old 0-1 becomes 3-2
        assert_eq!(h.neighbors(0), &[1]);
    }

    #[test]
    fn degree_histogram_sums_to_n() {
        let g = from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4)]);
        let hist = degree_histogram(&g);
        assert_eq!(hist.iter().sum::<usize>(), 6);
        assert_eq!(hist[0], 1); // vertex 5
        assert_eq!(hist[1], 2); // vertices 3, 4
        assert_eq!(hist[2], 3); // triangle
    }
}
