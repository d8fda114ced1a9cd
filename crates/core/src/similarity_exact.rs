//! Exact per-edge structural similarities.
//!
//! Three interchangeable strategies, all computing identical scores:
//!
//! - [`compute_merge_based`] — the paper's default (§6.1): direct each edge
//!   at its higher-degree endpoint, enumerate every triangle once by
//!   intersecting directed out-neighborhoods, and accumulate each
//!   triangle's contribution into its three edges. `O(m^{3/2})` worst-case
//!   work but cache-friendly; this is the strategy the paper found fastest.
//!   The triangle loop is *contention-free*: each worker accumulates into
//!   a private per-edge buffer (plain `u32`/`f64` adds, no atomic
//!   read-modify-writes), buffers are reduced at the end, and per-edge
//!   work is scheduled by a cost model (`min` directed out-degree) via
//!   [`parscan_parallel::weighted::par_for_weighted_range`] so hub edges
//!   of skewed graphs don't pile into one fixed-grain chunk. Intersections
//!   dispatch between merge, gallop, and an amortized bitset probe
//!   ([`parscan_graph::intersect`]).
//! - [`compute_hash_based`] — Algorithm 1: a (phase-concurrent) hash table
//!   of all directed edges; each edge intersects its smaller endpoint's
//!   neighborhood against the table. `O(αm)` expected work.
//! - [`compute_full_merge`] — per-edge sorted merge of the *full* neighbor
//!   lists (`O(Σ d(u)+d(v))` work). Simple; used as the test oracle and as
//!   the per-edge primitive of the pSCAN-style baselines.
//!
//! Similarities are stored per CSR *slot* (both directions of every edge),
//! so the neighbor order can be built by permuting slots.

use crate::similarity::SimilarityMeasure;
use parscan_graph::intersect::{self, merge_common, NeighborhoodProbe};
use parscan_graph::{CsrGraph, DegreeOrderedDag, VertexId};
use parscan_parallel::hashtable::{ConcurrentMapU64, ConcurrentSetU64};
use parscan_parallel::primitives::{par_for, par_for_range, par_map};
use parscan_parallel::utils::{ScratchPool, SyncMutPtr};
use parscan_parallel::weighted::par_for_weighted_range;
use std::sync::atomic::{AtomicBool, Ordering};

/// Per-slot similarity scores aligned with a graph's CSR slots.
#[derive(Clone, Debug)]
pub struct EdgeSimilarities {
    per_slot: Vec<f32>,
    /// Sorted distinct similarity values — the ε-breakpoints that
    /// quantize queries in the serving layer. Computed lazily on first
    /// use (instances are immutable after construction; updates build
    /// fresh instances), restored directly from an index snapshot so a
    /// warm boot never re-sorts, or patched from the previous instance's
    /// table by a batch update.
    breakpoints: std::sync::OnceLock<Vec<f32>>,
}

impl EdgeSimilarities {
    /// Wrap a raw per-slot score array (used by the LSH approximation to
    /// inject estimated scores into the exact index machinery).
    pub fn from_per_slot(per_slot: Vec<f32>) -> Self {
        EdgeSimilarities {
            per_slot,
            breakpoints: std::sync::OnceLock::new(),
        }
    }

    /// Wrap a per-slot array together with its precomputed breakpoints
    /// (the index-snapshot restore path and the batch update's patched
    /// table). The caller asserts `breakpoints` is exactly the sorted
    /// distinct values of `per_slot`.
    pub fn from_per_slot_with_breakpoints(per_slot: Vec<f32>, breakpoints: Vec<f32>) -> Self {
        let cell = std::sync::OnceLock::new();
        let _ = cell.set(breakpoints);
        EdgeSimilarities {
            per_slot,
            breakpoints: cell,
        }
    }

    /// Sorted distinct similarity values. Every ε between two adjacent
    /// breakpoints selects the same ε-similar edge set, hence the same
    /// clustering — the serving layer keys its result cache on the
    /// breakpoint class. Computed once per instance: similarities are
    /// non-negative, so they sort identically to their IEEE-754 bit
    /// patterns (the paper's §2.3.2 integer-key trick) and a radix sort
    /// over `u32` keys replaces a comparison sort over floats.
    pub fn breakpoints(&self) -> &[f32] {
        self.breakpoints.get_or_init(|| {
            let mut bits: Vec<u32> =
                par_map(self.per_slot.len(), 8192, |s| self.per_slot[s].to_bits());
            parscan_parallel::radix::par_radix_sort_by_key(&mut bits, |&b| b as u64, None);
            bits.dedup();
            bits.into_iter().map(f32::from_bits).collect()
        })
    }

    #[inline]
    pub fn slot(&self, s: usize) -> f32 {
        self.per_slot[s]
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.per_slot.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.per_slot.is_empty()
    }

    pub fn as_slice(&self) -> &[f32] {
        &self.per_slot
    }

    /// Bytes held by the per-slot scores and, once it has been computed,
    /// the breakpoint table.
    pub(crate) fn memory_bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(&self.per_slot[..]) + self.breakpoints.get().map_or(0, |b| size_of_val(&b[..]))
    }

    /// Similarity of edge `{u, v}` if present.
    pub fn of_edge(&self, g: &CsrGraph, u: VertexId, v: VertexId) -> Option<f32> {
        g.slot_of(u, v).map(|s| self.per_slot[s])
    }
}

/// The breakpoints of `per_slot` (its sorted distinct values) from
/// `old`, the breakpoints of an earlier per-slot array that differs from
/// `per_slot` only on some changed edges: `lost` holds the earlier scores
/// of those that existed before, and `gained` the scores of those that
/// exist now.
///
/// A value of `old` that no changed edge held is still held by an
/// unchanged slot, and one that a changed edge gained is held by it, so
/// only the other lost values can leave the table. One parallel scan of
/// `per_slot` ([`still_held`]) decides which of them some slot still
/// holds; the rest are dropped and the gained values merged in. The
/// result is bitwise what sorting `per_slot` from scratch gives.
///
/// # Panics
/// Panics if a lost value is not in `old`.
pub(crate) fn patch_breakpoints(
    old: &[f32],
    per_slot: &[f32],
    lost: &[f32],
    gained: &[f32],
) -> Vec<f32> {
    let sorted_bits = |values: &[f32]| {
        let mut bits: Vec<u32> = par_map(values.len(), 8192, |i| values[i].to_bits());
        parscan_parallel::radix::par_radix_sort_by_key(&mut bits, |&b| b as u64, None);
        bits.dedup();
        bits
    };
    let gained = sorted_bits(gained);
    let mut candidates = sorted_bits(lost);
    candidates.retain(|c| gained.binary_search(c).is_err());
    let held = still_held(per_slot, &candidates);
    let mut removed = candidates
        .iter()
        .zip(held)
        .filter_map(|(&c, held)| (!held).then_some(c))
        .peekable();
    let mut gained = gained.into_iter().peekable();

    // Copy `old` in blocks between the edits: each removal skips its
    // entry, each gain is inserted unless `old` already has it. A
    // galloping search finds the next edit's place, so dense edits cost
    // a merge and sparse ones a few binary searches.
    let mut table = Vec::with_capacity(old.len() + gained.len());
    let mut at = 0usize;
    loop {
        let next = match (removed.peek(), gained.peek()) {
            (None, None) => break,
            (Some(&r), Some(&g)) => r.min(g),
            (Some(&r), None) => r,
            (None, Some(&g)) => g,
        };
        let end = at + gallop(&old[at..], |x| x.to_bits() < next);
        table.extend_from_slice(&old[at..end]);
        at = end;
        let present = old.get(at).is_some_and(|x| x.to_bits() == next);
        if removed.next_if_eq(&next).is_some() {
            assert!(present, "a lost score is missing from the old breakpoints");
        } else {
            gained.next();
            table.push(f32::from_bits(next));
        }
        if present {
            at += 1;
        }
    }
    table.extend_from_slice(&old[at..]);
    table
}

/// `slice.partition_point(below)` by galloping from the front: `O(log i)`
/// for an answer `i`.
fn gallop<T>(slice: &[T], below: impl Fn(&T) -> bool) -> usize {
    let mut hi = 1usize;
    while hi < slice.len() && below(&slice[hi - 1]) {
        hi *= 2;
    }
    let (lo, hi) = (hi / 2, hi.min(slice.len()));
    lo + slice[lo..hi].partition_point(below)
}

/// Which of `candidates` (sorted, distinct bit patterns) some value of
/// `per_slot` holds. One parallel scan; a one-hash bitmap of 16 to 32
/// bits per candidate turns away most values before the exact check.
fn still_held(per_slot: &[f32], candidates: &[u32]) -> Vec<bool> {
    if candidates.is_empty() {
        return Vec::new();
    }
    let bits = (16 * candidates.len()).next_power_of_two().max(64);
    let shift = 64 - bits.trailing_zeros();
    let hash = |x: u32| ((x as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> shift) as usize;
    let mut filter = vec![0u64; bits / 64];
    for &c in candidates {
        let h = hash(c);
        filter[h / 64] |= 1 << (h % 64);
    }
    let held: Vec<AtomicBool> = candidates.iter().map(|_| AtomicBool::new(false)).collect();
    par_for_range(per_slot.len(), 1 << 14, |r| {
        for x in &per_slot[r] {
            let (b, h) = (x.to_bits(), hash(x.to_bits()));
            if filter[h / 64] >> (h % 64) & 1 == 0 {
                continue;
            }
            if let Ok(i) = candidates.binary_search(&b) {
                if !held[i].load(Ordering::Relaxed) {
                    held[i].store(true, Ordering::Relaxed);
                }
            }
        }
    });
    held.into_iter().map(AtomicBool::into_inner).collect()
}

/// The paper's merge-based triangle-counting strategy (§6.1), with a
/// contention-free, work-balanced triangle loop (see the module docs).
pub fn compute_merge_based(g: &CsrGraph, measure: SimilarityMeasure) -> EdgeSimilarities {
    check_measure(g, measure);
    let dag = DegreeOrderedDag::build(g);
    let owners = dag.edge_owners();
    let m = dag.num_edges();
    let n = g.num_vertices();

    // Canonical undirected slot for every directed DAG edge, by walking
    // each vertex's CSR list and DAG out-list together (both are sorted by
    // neighbor id) — no per-edge binary searches. The mirror side comes
    // from the twin-slot permutation, built once for this call.
    let twins = g.twin_slots();
    let mut can_slots: Vec<u32> = vec![0; m];
    {
        let ptr = SyncMutPtr::new(&mut can_slots);
        par_for(n, 256, |u| {
            let uv = u as VertexId;
            let outs = dag.out_neighbors(uv);
            let base = dag.out_range(uv).start;
            let mut k = 0usize;
            for s in g.slot_range(uv) {
                if k == outs.len() {
                    break;
                }
                let v = g.slot_neighbor(s);
                if v == outs[k] {
                    let cs = if uv < v { s as u32 } else { twins[s] };
                    // SAFETY: each DAG edge index is written exactly once.
                    unsafe { ptr.write(base + k, cs) };
                    k += 1;
                }
            }
            debug_assert_eq!(k, outs.len());
        });
    }

    // Per-edge intersection cost (the smaller out-degree drives every
    // kernel path) → equal-work chunk boundaries for the triangle loop.
    let costs: Vec<usize> = par_map(m, 4096, |e| {
        1 + dag
            .out_degree(owners[e])
            .min(dag.out_degree(dag.edge_target(e)))
    });

    // Accumulate per *DAG edge* (one entry per undirected edge — half the
    // memory traffic of per-slot accumulators), then scatter to canonical
    // slots for finalization.
    // Triangle-loop contributions index by DAG edge (`< m` by
    // construction), so the hot loop can skip bounds checks.
    let mut per_slot = vec![0f64; g.num_slots()];
    let ptr = SyncMutPtr::new(&mut per_slot);
    if g.is_weighted() {
        let ew: Vec<f32> = par_map(m, 4096, |e| g.slot_weight(can_slots[e] as usize));
        let acc = triangle_accumulate::<f64>(&dag, &owners, &costs, |acc, e_uv, e_ux, e_vx| {
            debug_assert!(e_uv < acc.len() && e_ux < acc.len() && e_vx < acc.len());
            // SAFETY: DAG-edge indices are < m = acc.len() = ew.len().
            unsafe {
                let w_uv = *ew.get_unchecked(e_uv) as f64;
                let w_ux = *ew.get_unchecked(e_ux) as f64;
                let w_vx = *ew.get_unchecked(e_vx) as f64;
                *acc.get_unchecked_mut(e_uv) += w_ux * w_vx;
                *acc.get_unchecked_mut(e_ux) += w_uv * w_vx;
                *acc.get_unchecked_mut(e_vx) += w_uv * w_ux;
            }
        });
        // SAFETY: canonical slots are distinct across DAG edges.
        par_for(m, 4096, |e| unsafe {
            ptr.write(can_slots[e] as usize, acc[e]);
        });
    } else {
        let acc = triangle_accumulate::<u32>(&dag, &owners, &costs, |acc, e_uv, e_ux, e_vx| {
            debug_assert!(e_uv < acc.len() && e_ux < acc.len() && e_vx < acc.len());
            // SAFETY: DAG-edge indices are < m = acc.len().
            unsafe {
                *acc.get_unchecked_mut(e_uv) += 1;
                *acc.get_unchecked_mut(e_ux) += 1;
                *acc.get_unchecked_mut(e_vx) += 1;
            }
        });
        // SAFETY: canonical slots are distinct across DAG edges.
        par_for(m, 4096, |e| unsafe {
            ptr.write(can_slots[e] as usize, acc[e] as f64);
        });
    }
    finalize(g, &twins, measure, |s| per_slot[s])
}

/// Run the triangle loop over cost-balanced flat-edge ranges, each worker
/// accumulating into a private `m`-length buffer; buffers are reduced into
/// one at the end (disjoint index chunks — still contention-free).
///
/// `contribute(acc, e_uv, e_ux, e_vx)` receives the DAG-edge indices of a
/// triangle's three edges.
fn triangle_accumulate<A>(
    dag: &DegreeOrderedDag,
    owners: &[VertexId],
    costs: &[usize],
    contribute: impl Fn(&mut [A], usize, usize, usize) + Sync,
) -> Vec<A>
where
    A: Copy + Default + Send + Sync + std::ops::AddAssign,
{
    let m = dag.num_edges();
    if m == 0 {
        return Vec::new();
    }
    let n = dag.num_vertices();
    // Worker-private (accumulator, probe) pairs: a thread claims one per
    // chunk and returns it after, so at most `num_threads` buffers are
    // ever live.
    let scratch = ScratchPool::new(|| (vec![A::default(); m], NeighborhoodProbe::new(n)));
    par_for_weighted_range(costs, |range| {
        scratch.with(|(acc, probe)| {
            // Flat DAG-edge indices are grouped by owner, so a range decomposes
            // into runs sharing a source vertex `u`; a long out-list probed by
            // several edges of its run is stamped into the bitset once.
            let mut e = range.start;
            while e < range.end {
                let u = owners[e];
                let ur = dag.out_range(u);
                let run_end = ur.end.min(range.end);
                let outs_u = dag.out_neighbors(u);
                let base_u = ur.start;
                if run_end - e >= 2 && outs_u.len() >= intersect::PROBE_MIN_DEGREE {
                    probe.load(outs_u);
                    for ee in e..run_end {
                        let v = dag.edge_target(ee);
                        let base_v = dag.out_range(v).start;
                        let outs_v = dag.out_neighbors(v);
                        // The probe scans all of `outs_v`; when that dwarfs the
                        // loaded list, galloping `outs_u` into `outs_v` is
                        // cheaper — the probe stays loaded for the rest of the
                        // run either way.
                        if outs_v.len() > outs_u.len() * intersect::GALLOP_RATIO {
                            merge_common(outs_u, outs_v, |i, j| {
                                contribute(acc, ee, base_u + i, base_v + j);
                            });
                        } else {
                            probe.for_common(outs_v, |i, j| {
                                contribute(acc, ee, base_u + i, base_v + j);
                            });
                        }
                    }
                    probe.unload(outs_u);
                } else {
                    for ee in e..run_end {
                        let v = dag.edge_target(ee);
                        let base_v = dag.out_range(v).start;
                        merge_common(outs_u, dag.out_neighbors(v), |i, j| {
                            contribute(acc, ee, base_u + i, base_v + j);
                        });
                    }
                }
                e = run_end;
            }
        });
    });

    let mut buffers: Vec<Vec<A>> = scratch
        .into_values()
        .into_iter()
        .map(|(acc, _)| acc)
        .collect();
    let mut total = buffers.swap_remove(0);
    if !buffers.is_empty() {
        let ptr = SyncMutPtr::new(&mut total);
        par_for_range(m, 1 << 13, |r| {
            // SAFETY: index chunks are disjoint across workers.
            let dst = unsafe { ptr.slice_mut(r.start, r.len()) };
            for b in &buffers {
                for (d, &s) in dst.iter_mut().zip(&b[r.clone()]) {
                    *d += s;
                }
            }
        });
    }
    total
}

/// Algorithm 1: hash-table lookups of the smaller endpoint's neighbors.
pub fn compute_hash_based(g: &CsrGraph, measure: SimilarityMeasure) -> EdgeSimilarities {
    check_measure(g, measure);
    let n_slots = g.num_slots();

    if g.is_weighted() {
        // Map (u, x) -> w(u, x) bits.
        let table = ConcurrentMapU64::with_capacity(n_slots);
        par_for(g.num_vertices(), 128, |u| {
            let u = u as VertexId;
            let range = g.slot_range(u);
            let ws = g.weights_of(u).expect("weighted");
            for (k, s) in range.enumerate() {
                let x = g.slot_neighbor(s);
                table.insert(((u as u64) << 32) | x as u64, ws[k].to_bits() as u64);
            }
        });
        finalize(g, &g.twin_slots(), measure, |s| {
            let u = g.slot_owner(s);
            let v = g.slot_neighbor(s);
            let (small, large) = if g.degree(u) <= g.degree(v) {
                (u, v)
            } else {
                (v, u)
            };
            let srange = g.slot_range(small);
            let sw = g.weights_of(small).expect("weighted");
            let mut dot = 0.0f64;
            for (k, ss) in srange.enumerate() {
                let x = g.slot_neighbor(ss);
                if x == u || x == v {
                    continue; // open-neighborhood intersection only
                }
                if let Some(bits) = table.get(((large as u64) << 32) | x as u64) {
                    let w_large = f32::from_bits(bits as u32) as f64;
                    dot += sw[k] as f64 * w_large;
                }
            }
            dot
        })
    } else {
        let table = ConcurrentSetU64::with_capacity(n_slots);
        par_for(g.num_vertices(), 128, |u| {
            let u = u as VertexId;
            for s in g.slot_range(u) {
                let x = g.slot_neighbor(s);
                table.insert(((u as u64) << 32) | x as u64);
            }
        });
        finalize(g, &g.twin_slots(), measure, |s| {
            let u = g.slot_owner(s);
            let v = g.slot_neighbor(s);
            let (small, large) = if g.degree(u) <= g.degree(v) {
                (u, v)
            } else {
                (v, u)
            };
            let mut common = 0u64;
            for &x in g.neighbors(small) {
                if x != u && x != v && table.contains(((large as u64) << 32) | x as u64) {
                    common += 1;
                }
            }
            common as f64
        })
    }
}

/// Per-edge sorted merge over full neighbor lists — the oracle strategy.
pub fn compute_full_merge(g: &CsrGraph, measure: SimilarityMeasure) -> EdgeSimilarities {
    check_measure(g, measure);
    finalize(g, &g.twin_slots(), measure, |s| {
        open_intersection_value(g, s)
    })
}

/// Open-neighborhood intersection value of the edge stored in canonical
/// slot `s`: common-neighbor count (unweighted) or weight-product sum.
/// Uses the shared hybrid merge/gallop kernel, so skewed (hub–leaf) edges
/// cost `O(min · log max)` rather than `O(d(u) + d(v))` — this is the
/// per-edge primitive of the pSCAN/SCAN-XP baselines too.
pub fn open_intersection_value(g: &CsrGraph, s: usize) -> f64 {
    let u = g.slot_owner(s);
    let v = g.slot_neighbor(s);
    let nu = g.neighbors(u);
    let nv = g.neighbors(v);
    if g.is_weighted() {
        let wu = g.weights_of(u).expect("weighted");
        let wv = g.weights_of(v).expect("weighted");
        let mut acc = 0.0f64;
        merge_common(nu, nv, |i, j| acc += wu[i] as f64 * wv[j] as f64);
        acc
    } else {
        intersect::count_common(nu, nv) as f64
    }
}

/// The score of the edge `(u, v)` in `u`'s slot `s`, from its
/// open-neighborhood value `open` and, on weighted graphs, the closed
/// norms of `u` and `v` (see [`closed_norms`]). The build, the batch
/// update and the LSH estimator's exact fallback all score an edge
/// through here on its canonical slot (`u < v`), so their bits agree.
pub fn score_edge(
    g: &CsrGraph,
    measure: SimilarityMeasure,
    (u, v, s): (VertexId, VertexId, usize),
    open: f64,
    norms: Option<(f64, f64)>,
) -> f32 {
    match norms {
        Some((norm_u, norm_v)) => {
            measure.score_weighted(open, g.slot_weight(s) as f64, norm_u, norm_v) as f32
        }
        None => measure.score_unweighted(open as u64, g.degree(u), g.degree(v)) as f32,
    }
}

/// Every vertex's squared closed norm on a weighted graph, `None` on an
/// unweighted one: the normalizers [`score_edge`] takes.
pub fn closed_norms(g: &CsrGraph) -> Option<Vec<f64>> {
    g.is_weighted()
        .then(|| par_map(g.num_vertices(), 1024, |v| g.closed_norm_sq(v as VertexId)))
}

/// The one parallel score writer: call `score(u, v, s)` once per
/// canonical slot `s` (`u < v`) and store the result on `s` and on its
/// mirror. The exact kernels and both estimators write through here.
pub fn score_canonical_slots<F>(g: &CsrGraph, score: F) -> EdgeSimilarities
where
    F: Fn(VertexId, VertexId, usize) -> f32 + Sync,
{
    write_canonical_slots(g, &g.twin_slots(), score)
}

/// [`score_canonical_slots`] with the caller's copy of `g`'s
/// [`CsrGraph::twin_slots`], which makes the mirror a plain store. Only
/// that permutation may be passed: the stores below are unchecked.
fn write_canonical_slots<F>(g: &CsrGraph, twins: &[u32], score: F) -> EdgeSimilarities
where
    F: Fn(VertexId, VertexId, usize) -> f32 + Sync,
{
    let mut sims = vec![0f32; g.num_slots()];
    let ptr = SyncMutPtr::new(&mut sims);
    par_for(g.num_vertices(), 64, |u| {
        let u = u as VertexId;
        for s in g.slot_range(u) {
            let v = g.slot_neighbor(s);
            if v <= u {
                continue;
            }
            let t = twins[s] as usize;
            debug_assert!(g.slot_range(v).contains(&t) && g.slot_neighbor(t) == u);
            let score = score(u, v, s);
            // SAFETY: slot `s` and its twin `t` are written by exactly
            // one (u, v) pair — the canonical one.
            unsafe {
                ptr.write(s, score);
                ptr.write(t, score);
            }
        }
    });
    EdgeSimilarities::from_per_slot(sims)
}

/// Score every canonical slot from its open-neighborhood value
/// `open_value(slot)` through [`score_edge`].
fn finalize<F>(
    g: &CsrGraph,
    twins: &[u32],
    measure: SimilarityMeasure,
    open_value: F,
) -> EdgeSimilarities
where
    F: Fn(usize) -> f64 + Sync,
{
    let norms = closed_norms(g);
    write_canonical_slots(g, twins, |u, v, s| {
        let norms = norms.as_ref().map(|x| (x[u as usize], x[v as usize]));
        score_edge(g, measure, (u, v, s), open_value(s), norms)
    })
}

fn check_measure(g: &CsrGraph, measure: SimilarityMeasure) {
    assert!(
        !g.is_weighted() || measure.supports_weights(),
        "{} similarity is undefined for weighted graphs",
        measure.name()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use parscan_graph::generators;

    fn assert_sims_close(a: &EdgeSimilarities, b: &EdgeSimilarities, tol: f32) {
        assert_eq!(a.len(), b.len());
        for s in 0..a.len() {
            assert!(
                (a.slot(s) - b.slot(s)).abs() <= tol,
                "slot {s}: {} vs {}",
                a.slot(s),
                b.slot(s)
            );
        }
    }

    #[test]
    fn figure1_cosine_matches_paper() {
        let g = generators::paper_figure1();
        let sims = compute_merge_based(&g, SimilarityMeasure::Cosine);
        // Paper Figure 2 values (vertex ids shifted down by one).
        let expect = [
            ((0u32, 1u32), 0.87),
            ((0, 3), 0.77),
            ((1, 2), 0.87),
            ((1, 3), 0.89),
            ((2, 3), 0.77),
            ((3, 4), 0.52),
            ((4, 5), 0.58),
            ((5, 6), 0.75),
            ((5, 7), 0.75),
            ((6, 7), 0.75),
            ((6, 10), 0.71),
            ((7, 8), 0.58),
            ((8, 9), 0.82),
        ];
        for ((u, v), want) in expect {
            let got = sims.of_edge(&g, u, v).unwrap();
            assert!(
                (got - want).abs() < 0.005,
                "σ({},{}) = {got}, paper says {want}",
                u + 1,
                v + 1
            );
        }
    }

    #[test]
    fn strategies_agree_unweighted() {
        for seed in [1u64, 2, 3] {
            let g = generators::erdos_renyi(300, 2500, seed);
            for measure in [
                SimilarityMeasure::Cosine,
                SimilarityMeasure::Jaccard,
                SimilarityMeasure::Dice,
            ] {
                let merge = compute_merge_based(&g, measure);
                let hash = compute_hash_based(&g, measure);
                let full = compute_full_merge(&g, measure);
                assert_sims_close(&merge, &full, 0.0);
                assert_sims_close(&hash, &full, 0.0);
            }
        }
    }

    #[test]
    fn strategies_agree_weighted() {
        let (g, _) = generators::weighted_planted_partition(250, 4, 10.0, 2.0, 5);
        let merge = compute_merge_based(&g, SimilarityMeasure::Cosine);
        let hash = compute_hash_based(&g, SimilarityMeasure::Cosine);
        let full = compute_full_merge(&g, SimilarityMeasure::Cosine);
        assert_sims_close(&merge, &full, 1e-5);
        assert_sims_close(&hash, &full, 1e-5);
    }

    /// Skewed-graph oracle suite: the contention-free kernel must
    /// reproduce `compute_full_merge` exactly on the degree distributions
    /// that stress the scheduler and the bitset path (power-law hubs, a
    /// pure star, a dense clique).
    #[test]
    fn skewed_oracles_unweighted() {
        let cases = [
            generators::rmat(11, 12, 9),
            generators::star(300),
            // DAG out-degrees reach 159 ≥ PROBE_MIN_DEGREE: bitset path.
            generators::complete(160),
        ];
        for g in &cases {
            for measure in [SimilarityMeasure::Cosine, SimilarityMeasure::Jaccard] {
                let full = compute_full_merge(g, measure);
                let merge = compute_merge_based(g, measure);
                assert_sims_close(&merge, &full, 0.0);
            }
        }
    }

    /// Weighted skewed oracle, including a dense block model whose DAG
    /// out-degrees exceed the bitset threshold.
    #[test]
    fn skewed_oracles_weighted() {
        let sparse = generators::weighted_planted_partition(300, 5, 12.0, 2.0, 11).0;
        let dense = generators::weighted_planted_partition(400, 2, 150.0, 10.0, 13).0;
        for g in [&sparse, &dense] {
            let full = compute_full_merge(g, SimilarityMeasure::Cosine);
            let merge = compute_merge_based(g, SimilarityMeasure::Cosine);
            assert_sims_close(&merge, &full, 1e-5);
        }
    }

    #[test]
    fn sims_symmetric_and_bounded() {
        let g = generators::rmat(10, 10, 4);
        let sims = compute_merge_based(&g, SimilarityMeasure::Cosine);
        for (u, v, slot) in g.canonical_edges() {
            let twin = g.slot_of(v, u).unwrap();
            assert_eq!(sims.slot(slot), sims.slot(twin));
            let s = sims.slot(slot);
            assert!((0.0..=1.0).contains(&s), "σ({u},{v}) = {s}");
            // Adjacent vertices share {u, v}, so σ > 0 always.
            assert!(s > 0.0);
        }
    }

    #[test]
    fn skewed_graph_star() {
        // Star: leaves share only the center+themselves with the center.
        let g = generators::star(50);
        let sims = compute_merge_based(&g, SimilarityMeasure::Cosine);
        let want = 2.0 / (50.0f64 * 2.0).sqrt();
        for leaf in 1..50u32 {
            let got = sims.of_edge(&g, 0, leaf).unwrap();
            assert!((got as f64 - want).abs() < 1e-6);
        }
    }

    #[test]
    fn complete_graph_all_ones() {
        let g = generators::complete(8);
        for m in [SimilarityMeasure::Cosine, SimilarityMeasure::Jaccard] {
            let sims = compute_merge_based(&g, m);
            for s in 0..g.num_slots() {
                assert!((sims.slot(s) - 1.0).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn patched_breakpoints_equal_a_fresh_sort() {
        use parscan_parallel::utils::hash64;
        // Few distinct values, so scores repeat across slots; each round
        // changes a share of the slots, from sparse to nearly all.
        let value = |i: u64| (hash64(i) % 300) as f32 / 256.0;
        let mut per_slot: Vec<f32> = (0..20_000).map(value).collect();
        for (round, stride) in [997usize, 31, 3, 1].into_iter().enumerate() {
            let old = EdgeSimilarities::from_per_slot(per_slot.clone());
            let (mut lost, mut gained) = (Vec::new(), Vec::new());
            for s in (0..per_slot.len()).step_by(stride) {
                lost.push(per_slot[s]);
                per_slot[s] = value((1 << 20) + (round * per_slot.len() + s) as u64);
                gained.push(per_slot[s]);
            }
            let fresh = EdgeSimilarities::from_per_slot(per_slot.clone());
            let patched = patch_breakpoints(old.breakpoints(), &per_slot, &lost, &gained);
            assert_eq!(patched, fresh.breakpoints(), "stride {stride}");
        }
    }

    #[test]
    #[should_panic(expected = "undefined for weighted")]
    fn jaccard_rejects_weighted() {
        let (g, _) = generators::weighted_planted_partition(50, 2, 4.0, 1.0, 1);
        compute_merge_based(&g, SimilarityMeasure::Jaccard);
    }

    #[test]
    fn triangle_free_graph() {
        let g = generators::cycle(10);
        let sims = compute_merge_based(&g, SimilarityMeasure::Cosine);
        // No common open neighbors anywhere: σ = 2/√(3·3) = 2/3.
        for s in 0..g.num_slots() {
            assert!((sims.slot(s) - 2.0 / 3.0).abs() < 1e-6);
        }
    }
}
