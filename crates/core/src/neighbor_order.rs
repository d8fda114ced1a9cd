//! The neighbor order NO (§3.2, Algorithm 2): each vertex's neighbors
//! sorted by non-increasing similarity (ties by ascending id, making the
//! structure canonical). Conceptually `NO[v]` begins with `v` itself at
//! similarity 1.0 (paper Figure 2); we store only the neighbor part and
//! account for the implicit self entry in [`NeighborOrder::core_threshold`].
//!
//! Two construction paths mirror Theorems 4.1/4.2:
//!
//! - **Comparison**: per-vertex parallel comparison sorts (`O(m log n)`),
//! - **Integer**: each slot becomes one packed `u64`,
//!   `(!similarity bits) << 32 | neighbor`, and every vertex's slot range
//!   is stable-sorted by the high half as one segment
//!   ([`par_sort_segments`]). Similarities in
//!   `[0, 1]` map monotonically to their IEEE-754 bit patterns, so the
//!   "rational → fixed point integer" trick of §2.3.2 is exact here and
//!   both paths produce identical orders. A vertex of degree
//!   `d ≤ 65,536` costs `O(d log 65536) = O(d)` and a larger one is
//!   radix-sorted, so the build keeps Thm 4.2's `O(m)` work and
//!   polylogarithmic span.
//!
//! A batch update does not rebuild the order: [`NeighborOrder::patch`]
//! copies the lists of the vertices whose neighbors and scores the batch
//! left alone and re-sorts only the others, with the Integer path's keys
//! and segment sort, so the result is the Integer build's.

use crate::index::SortStrategy;
use crate::similarity_exact::EdgeSimilarities;
use parscan_graph::patch::clean_pieces;
use parscan_graph::{CsrGraph, VertexId};
use parscan_parallel::prefix::exclusive_scan_usize;
use parscan_parallel::primitives::{par_for, par_for_range, par_map};
use parscan_parallel::radix::par_sort_segments;
use parscan_parallel::utils::SyncMutPtr;
use parscan_parallel::weighted::par_for_weighted;

/// The sort key of a (similarity, vertex) entry, shared by NO and CO:
/// ascending keys put higher similarities first (complemented bits of a
/// non-negative float), then lower ids.
#[inline]
pub(crate) fn pack_key(sim: f32, v: VertexId) -> u64 {
    ((!sim.to_bits() as u64) << 32) | v as u64
}

/// The inverse of [`pack_key`].
#[inline]
pub(crate) fn unpack_key(key: u64) -> (VertexId, f32) {
    (key as VertexId, f32::from_bits(!((key >> 32) as u32)))
}

/// Neighbor order: per-vertex neighbor/similarity arrays sorted by
/// (similarity desc, neighbor id asc), sharing the graph's offsets.
#[derive(Clone, Debug)]
pub struct NeighborOrder {
    /// Neighbor ids in similarity-descending order, grouped per vertex.
    nbr: Vec<VertexId>,
    /// Similarities aligned with `nbr`.
    sim: Vec<f32>,
}

impl NeighborOrder {
    /// Build the neighbor order from per-slot similarities.
    pub fn build(g: &CsrGraph, sims: &EdgeSimilarities, strategy: SortStrategy) -> Self {
        match strategy {
            SortStrategy::Comparison => Self::build_comparison(g, sims),
            SortStrategy::Integer => Self::build_integer(g, sims),
        }
    }

    fn build_comparison(g: &CsrGraph, sims: &EdgeSimilarities) -> Self {
        let slots = g.num_slots();
        let mut nbr = vec![0 as VertexId; slots];
        let mut sim = vec![0f32; slots];
        let nbr_ptr = SyncMutPtr::new(&mut nbr);
        let sim_ptr = SyncMutPtr::new(&mut sim);
        par_for(g.num_vertices(), 64, |v| {
            let v = v as VertexId;
            let range = g.slot_range(v);
            let mut entries: Vec<(f32, VertexId)> = range
                .clone()
                .map(|s| (sims.slot(s), g.slot_neighbor(s)))
                .collect();
            entries.sort_unstable_by(|a, b| {
                b.0.partial_cmp(&a.0)
                    .expect("similarities are finite")
                    .then(a.1.cmp(&b.1))
            });
            for (k, (s, x)) in entries.into_iter().enumerate() {
                // SAFETY: per-vertex slot ranges are disjoint.
                unsafe {
                    nbr_ptr.write(range.start + k, x);
                    sim_ptr.write(range.start + k, s);
                }
            }
        });
        NeighborOrder { nbr, sim }
    }

    fn build_integer(g: &CsrGraph, sims: &EdgeSimilarities) -> Self {
        let slots = g.num_slots();
        // Ascending high halves put higher similarities first
        // (complemented bits). CSR lists are neighbor-ascending and the
        // segment sort is stable, so ties keep ascending neighbor order.
        let mut keys: Vec<u64> =
            par_map(slots, 8192, |s| pack_key(sims.slot(s), g.slot_neighbor(s)));
        let (offsets, _, _) = g.parts();
        par_sort_segments(&mut keys, offsets);
        let mut nbr = vec![0 as VertexId; slots];
        let mut sim = vec![0f32; slots];
        let nbr_ptr = SyncMutPtr::new(&mut nbr);
        let sim_ptr = SyncMutPtr::new(&mut sim);
        par_for_range(slots, 8192, |r| {
            for k in r {
                let (x, sim) = unpack_key(keys[k]);
                // SAFETY: chunk ranges are disjoint and in bounds.
                unsafe {
                    nbr_ptr.write(k, x);
                    sim_ptr.write(k, sim);
                }
            }
        });
        NeighborOrder { nbr, sim }
    }

    /// The order after a batch update, from `self`, the order of `old_g`.
    /// `g` and `sims` are the updated graph and scores, and `dirty`
    /// (ascending) holds every vertex whose list or scores the batch
    /// changed. Any other vertex has the same list and scores before and
    /// after, hence the same NO list, so runs of them are block copies.
    /// The dirty lists are gathered as packed keys, one segment per
    /// vertex, and sorted with [`par_sort_segments`], so a dirty hub above
    /// 65,536 neighbors gets the whole-pool radix as in the build. The
    /// result equals [`Self::build`] with [`SortStrategy::Integer`].
    pub fn patch(
        &self,
        old_g: &CsrGraph,
        g: &CsrGraph,
        sims: &EdgeSimilarities,
        dirty: &[VertexId],
    ) -> Self {
        let slots = g.num_slots();
        let (old_offsets, _, _) = old_g.parts();
        let (offsets, _, _) = g.parts();
        let mut nbr = vec![0 as VertexId; slots];
        let mut sim = vec![0f32; slots];
        let nbr_ptr = SyncMutPtr::new(&mut nbr);
        let sim_ptr = SyncMutPtr::new(&mut sim);
        let pieces = clean_pieces(old_offsets, offsets, dirty);
        par_for(pieces.len(), 1, |p| {
            let (old, new, len) = pieces[p];
            // SAFETY: pieces cover disjoint ranges of clean lists, which
            // nothing else writes.
            unsafe {
                nbr_ptr
                    .slice_mut(new, len)
                    .copy_from_slice(&self.nbr[old..old + len]);
                sim_ptr
                    .slice_mut(new, len)
                    .copy_from_slice(&self.sim[old..old + len]);
            }
        });

        let degrees: Vec<usize> = par_map(dirty.len(), 1024, |k| g.degree(dirty[k]));
        let (mut segments, total) = exclusive_scan_usize(&degrees);
        segments.push(total);
        let mut keys = vec![0u64; total];
        let key_ptr = SyncMutPtr::new(&mut keys);
        par_for_weighted(&degrees, |k| {
            for (i, s) in g.slot_range(dirty[k]).enumerate() {
                // SAFETY: segment `k` is this vertex's alone.
                unsafe {
                    key_ptr.write(segments[k] + i, pack_key(sims.slot(s), g.slot_neighbor(s)))
                };
            }
        });
        par_sort_segments(&mut keys, &segments);
        par_for_weighted(&degrees, |k| {
            let start = offsets[dirty[k] as usize];
            for (i, &key) in keys[segments[k]..segments[k + 1]].iter().enumerate() {
                let (x, s) = unpack_key(key);
                // SAFETY: a dirty vertex's range is written only here, by
                // its own iteration.
                unsafe {
                    nbr_ptr.write(start + i, x);
                    sim_ptr.write(start + i, s);
                }
            }
        });
        NeighborOrder { nbr, sim }
    }

    /// Neighbors of `v` in non-increasing similarity order.
    #[inline]
    pub fn neighbors(&self, g: &CsrGraph, v: VertexId) -> &[VertexId] {
        &self.nbr[g.slot_range(v)]
    }

    /// Similarities aligned with [`Self::neighbors`].
    #[inline]
    pub fn similarities(&self, g: &CsrGraph, v: VertexId) -> &[f32] {
        &self.sim[g.slot_range(v)]
    }

    /// Core threshold of `v` for parameter `μ`: the similarity of the μ-th
    /// entry of the conceptual `NO[v]` (which starts with `v` at 1.0), or
    /// `None` when `|N̄(v)| < μ`. `v` is a core for `(μ, ε)` iff
    /// `core_threshold(v, μ) >= Some(ε)`.
    #[inline]
    pub fn core_threshold(&self, g: &CsrGraph, v: VertexId, mu: u32) -> Option<f32> {
        debug_assert!(mu >= 2);
        let idx = mu as usize - 2; // skip the implicit self entry
        let range = g.slot_range(v);
        if idx < range.len() {
            Some(self.sim[range.start + idx])
        } else {
            None
        }
    }

    /// ε-similar neighbors of `v` (excluding `v` itself): the prefix of
    /// `NO[v]` with similarity ≥ ε, found by doubling search.
    pub fn epsilon_prefix(&self, g: &CsrGraph, v: VertexId, epsilon: f32) -> (&[VertexId], &[f32]) {
        let range = g.slot_range(v);
        let sims = &self.sim[range.clone()];
        let len = crate::doubling::doubling_search_prefix(sims, |&s| s >= epsilon);
        (&self.nbr[range.start..range.start + len], &sims[..len])
    }

    /// The raw per-slot arrays (neighbor ids, similarities) — used by the
    /// index persistence code.
    pub fn parts(&self) -> (&[VertexId], &[f32]) {
        (&self.nbr, &self.sim)
    }

    /// Rebuild from raw parts (the inverse of [`Self::parts`]). The caller
    /// is responsible for structural validity; [`Self::validate`] checks it.
    ///
    /// # Panics
    /// Panics if the arrays have different lengths.
    pub fn from_parts(nbr: Vec<VertexId>, sim: Vec<f32>) -> Self {
        assert_eq!(nbr.len(), sim.len(), "misaligned neighbor-order parts");
        NeighborOrder { nbr, sim }
    }

    /// Validate ordering invariants (used by tests and debug assertions).
    pub fn validate(&self, g: &CsrGraph) -> Result<(), String> {
        if self.nbr.len() != g.num_slots() || self.sim.len() != g.num_slots() {
            return Err(format!(
                "NO has {} entries for a graph with {} slots",
                self.nbr.len(),
                g.num_slots()
            ));
        }
        // Permutation checks run in O(deg v) per vertex via epoch
        // stamping (no per-vertex sort or allocation): stamp 2v marks
        // members of N(v), and consuming an NO entry bumps its mark to
        // 2v+1, so a repeated or foreign entry never sees stamp 2v.
        let mut mark = vec![u64::MAX; g.num_vertices()];
        for v in 0..g.num_vertices() as VertexId {
            let sims = self.similarities(g, v);
            let nbrs = self.neighbors(g, v);
            for k in 1..sims.len() {
                if sims[k - 1] < sims[k] {
                    return Err(format!("NO[{v}] similarities increase at {k}"));
                }
                if sims[k - 1] == sims[k] && nbrs[k - 1] >= nbrs[k] {
                    return Err(format!("NO[{v}] tie not id-ordered at {k}"));
                }
            }
            // Same set of neighbors as the (strictly sorted, hence
            // duplicate-free) graph list; equal lengths make set
            // equality permutation equality.
            let stamp = 2 * v as u64;
            for &x in g.neighbors(v) {
                mark[x as usize] = stamp;
            }
            for &x in nbrs {
                if mark.get(x as usize).copied() != Some(stamp) {
                    return Err(format!("NO[{v}] is not a permutation of N({v})"));
                }
                mark[x as usize] = stamp + 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::SimilarityMeasure;
    use crate::similarity_exact::compute_merge_based;
    use parscan_graph::generators;

    fn build_both(g: &CsrGraph) -> (NeighborOrder, NeighborOrder) {
        let sims = compute_merge_based(g, SimilarityMeasure::Cosine);
        (
            NeighborOrder::build(g, &sims, SortStrategy::Comparison),
            NeighborOrder::build(g, &sims, SortStrategy::Integer),
        )
    }

    #[test]
    fn figure1_neighbor_order() {
        let g = generators::paper_figure1();
        let (no, _) = build_both(&g);
        // Paper Figure 2, NO[4] (our vertex 3): 2(.89), 1(.77), 3(.77), 5(.52)
        // → ours: [1, 0, 2, 4] (ids shifted, tie .77 broken by id).
        assert_eq!(no.neighbors(&g, 3), &[1, 0, 2, 4]);
        let sims = no.similarities(&g, 3);
        assert!((sims[0] - 0.894).abs() < 0.005);
        assert!((sims[3] - 0.516).abs() < 0.005);
    }

    #[test]
    fn strategies_identical() {
        for seed in [3u64, 9] {
            let g = generators::erdos_renyi(400, 3000, seed);
            let (cmp, int) = build_both(&g);
            assert_eq!(cmp.nbr, int.nbr);
            assert_eq!(cmp.sim, int.sim);
        }
        // A hub of degree above 65,536, so the segment sort runs both its
        // per-thread branch and its whole-pool radix branch.
        let g = crate::test_support::star_with_leaf_edges(70_000, 100_000, 5);
        assert!(g.max_degree() > 1 << 16);
        let (cmp, int) = build_both(&g);
        assert_eq!(cmp.nbr, int.nbr);
        assert_eq!(cmp.sim, int.sim);
    }

    #[test]
    fn validate_invariants() {
        let g = generators::rmat(9, 8, 2);
        let (cmp, int) = build_both(&g);
        assert_eq!(cmp.validate(&g), Ok(()));
        assert_eq!(int.validate(&g), Ok(()));
    }

    #[test]
    fn core_threshold_off_by_one() {
        let g = generators::paper_figure1();
        let (no, _) = build_both(&g);
        // Vertex 3 (paper 4) has degree 4, closed size 5.
        // μ = 2 → best neighbor similarity (.89); μ = 5 → worst (.52).
        assert!((no.core_threshold(&g, 3, 2).unwrap() - 0.894).abs() < 0.005);
        assert!((no.core_threshold(&g, 3, 5).unwrap() - 0.516).abs() < 0.005);
        assert_eq!(no.core_threshold(&g, 3, 6), None);
        // Degree-1 vertex 9 (paper 10): closed size 2.
        assert!(no.core_threshold(&g, 9, 2).is_some());
        assert_eq!(no.core_threshold(&g, 9, 3), None);
    }

    #[test]
    fn epsilon_prefix_matches_linear_scan() {
        let g = generators::erdos_renyi(200, 1500, 8);
        let sims = compute_merge_based(&g, SimilarityMeasure::Cosine);
        let no = NeighborOrder::build(&g, &sims, SortStrategy::Integer);
        for v in 0..g.num_vertices() as VertexId {
            for eps in [0.0f32, 0.2, 0.5, 0.7, 1.0] {
                let (nbrs, s) = no.epsilon_prefix(&g, v, eps);
                let want = no
                    .similarities(&g, v)
                    .iter()
                    .take_while(|&&x| x >= eps)
                    .count();
                assert_eq!(nbrs.len(), want);
                assert_eq!(s.len(), want);
            }
        }
    }

    #[test]
    fn weighted_neighbor_order() {
        let (g, _) = generators::weighted_planted_partition(200, 4, 8.0, 1.0, 6);
        let sims = compute_merge_based(&g, SimilarityMeasure::Cosine);
        let cmp = NeighborOrder::build(&g, &sims, SortStrategy::Comparison);
        let int = NeighborOrder::build(&g, &sims, SortStrategy::Integer);
        assert_eq!(cmp.nbr, int.nbr);
        assert_eq!(cmp.validate(&g), Ok(()));
    }
}
