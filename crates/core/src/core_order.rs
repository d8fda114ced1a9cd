//! The core order CO (§3.2, Algorithm 2): for every `μ ≥ 2`, the list of
//! vertices whose closed neighborhood has at least `μ` members
//! (`deg(v) ≥ μ - 1`), sorted by non-increasing *core threshold* — the
//! largest ε at which the vertex is still a core for that μ. Thresholds
//! come straight out of the neighbor order: `threshold(v, μ) = NO[v][μ]`
//! (counting the implicit self entry).
//!
//! The flattened structure holds `Σ_v deg(v) = 2m` entries total, matching
//! GS*-Index's `O(m)` space bound.
//!
//! Construction needs no global sort. `CO[μ]` holds exactly the vertices
//! of degree `≥ μ - 1`, so its size is a suffix sum of the degree
//! histogram, and vertex `v`'s entries for `μ = 2 ..= deg(v) + 1` are
//! `NO[v]`'s similarities in order. One stable counting scatter fills
//! every bucket, in ascending vertex order, with packed
//! `(!threshold bits) << 32 | v` keys, and then each bucket is sorted on
//! its own: stable by the high half with the segment sort for the
//! Thm 4.2 (integer) path, or by whole keys with a parallel comparison
//! sort for the Thm 4.1 path. Either way ties keep ascending vertex
//! order. The segment sort costs `O(d log 65536) = O(d)` for a bucket of
//! `d ≤ 65,536` entries and radix-sorts larger ones, so the integer path
//! is `O(m)` work with polylogarithmic span.
//!
//! A batch update does not rebuild the order: [`CoreOrder::patch`] keeps
//! every entry of the vertices whose degree and NO similarities the batch
//! left alone, and per bucket merges in the new entries of the others,
//! which are scattered and sorted as the build does. The result is the
//! Integer build's.

use crate::index::SortStrategy;
use crate::neighbor_order::{pack_key, unpack_key, NeighborOrder};
use parscan_graph::{CsrGraph, VertexId};
use parscan_parallel::pool::num_threads;
use parscan_parallel::primitives::{par_for, par_for_range, par_map};
use parscan_parallel::radix::par_sort_segments;
use parscan_parallel::sort::par_sort_unstable_by;
use parscan_parallel::utils::SyncMutPtr;
use parscan_parallel::weighted::{par_for_weighted, weighted_chunk_ranges};

/// Core order: concatenated `CO[μ]` lists for `μ ∈ [2, max_mu]`.
#[derive(Clone, Debug)]
pub struct CoreOrder {
    /// `mu_offsets[μ - 2] .. mu_offsets[μ - 1]` bounds `CO[μ]`'s entries.
    mu_offsets: Vec<usize>,
    /// Vertices, per μ sorted by (threshold desc, id asc).
    vertices: Vec<VertexId>,
    /// Core thresholds aligned with `vertices`.
    thresholds: Vec<f32>,
}

impl CoreOrder {
    /// Largest μ with a non-empty `CO[μ]` (`max closed degree`); 1 if the
    /// graph has no edges (so every `CO[μ]`, μ ≥ 2, is empty).
    pub fn max_mu(&self) -> u32 {
        self.mu_offsets.len() as u32
    }

    /// Build the core order from the neighbor order.
    pub fn build(g: &CsrGraph, no: &NeighborOrder, strategy: SortStrategy) -> Self {
        let (mu_offsets, mut keys) = bucket_keys(g, no, g.num_vertices(), |k| k as VertexId);
        let total = *mu_offsets.last().expect("at least one offset");
        debug_assert_eq!(total, g.num_slots());

        // Sort each bucket by (threshold desc, id asc). Buckets hold
        // ascending ids, so a stable sort by the high half suffices.
        match strategy {
            SortStrategy::Integer => par_sort_segments(&mut keys, &mu_offsets),
            SortStrategy::Comparison => {
                for w in mu_offsets.windows(2) {
                    par_sort_unstable_by(&mut keys[w[0]..w[1]], |a, b| a.cmp(b));
                }
            }
        }

        let mut vertices = vec![0 as VertexId; total];
        let mut thresholds = vec![0f32; total];
        let v_ptr = SyncMutPtr::new(&mut vertices);
        let t_ptr = SyncMutPtr::new(&mut thresholds);
        par_for_range(total, 8192, |r| {
            for k in r {
                let (v, t) = unpack_key(keys[k]);
                // SAFETY: chunk ranges are disjoint and in bounds.
                unsafe {
                    v_ptr.write(k, v);
                    t_ptr.write(k, t);
                }
            }
        });
        CoreOrder {
            mu_offsets,
            vertices,
            thresholds,
        }
    }

    /// The order after a batch update, from `self`, the order of `old_g`.
    /// `g` and `no` are the updated graph and neighbor order; `dirty`
    /// (ascending) and `is_dirty` (per vertex) mark every vertex whose
    /// list or scores the batch changed. Any other vertex keeps its
    /// degree and NO similarities, hence its entry in every bucket. So
    /// bucket `i` loses the dirty vertices of old degree `> i` and gains
    /// those of new degree `> i`: its new size follows from the old one,
    /// and its new contents are one merge of the old entries that are not
    /// dirty with the dirty vertices' new keys, which are scattered and
    /// sorted as in [`Self::build`]. Buckets appear or vanish with the
    /// maximum degree. The result equals `build` with
    /// [`SortStrategy::Integer`].
    pub fn patch(
        &self,
        old_g: &CsrGraph,
        g: &CsrGraph,
        no: &NeighborOrder,
        dirty: &[VertexId],
        is_dirty: &[bool],
    ) -> Self {
        let (fresh_offsets, mut fresh) = bucket_keys(g, no, dirty.len(), |k| dirty[k]);
        par_sort_segments(&mut fresh, &fresh_offsets);
        let old_bucket = |i: usize| bucket(&self.mu_offsets, i);
        let fresh_bucket = |i: usize| &fresh[bucket(&fresh_offsets, i)];

        // `old_degrees[d]`: dirty vertices of old degree `d`; `lost` walks
        // down as the count of those of old degree `> i`.
        let old_buckets = self.mu_offsets.len() - 1;
        let mut old_degrees = vec![0usize; old_buckets + 1];
        for &v in dirty {
            old_degrees[old_g.degree(v)] += 1;
        }
        let mut lost = dirty.len() - old_degrees[0];
        let reach = old_buckets.max(fresh_offsets.len() - 1);
        let mut sizes = Vec::with_capacity(reach);
        for i in 0..reach {
            sizes.push(old_bucket(i).len() + fresh_bucket(i).len() - lost);
            lost -= old_degrees.get(i + 1).copied().unwrap_or(0);
        }
        while sizes.last() == Some(&0) {
            sizes.pop();
        }
        let mut mu_offsets = Vec::with_capacity(sizes.len() + 1);
        mu_offsets.push(0);
        for &size in &sizes {
            mu_offsets.push(mu_offsets.last().unwrap() + size);
        }
        let total = *mu_offsets.last().unwrap();
        debug_assert_eq!(total, g.num_slots());

        let mut vertices = vec![0 as VertexId; total];
        let mut thresholds = vec![0f32; total];
        let v_ptr = SyncMutPtr::new(&mut vertices);
        let t_ptr = SyncMutPtr::new(&mut thresholds);
        let costs: Vec<usize> = (0..sizes.len())
            .map(|i| old_bucket(i).len() + sizes[i])
            .collect();
        par_for_weighted(&costs, |i| {
            let old = old_bucket(i);
            // SAFETY: bucket ranges are disjoint, and bucket `i` is
            // written only by this iteration.
            let (out_v, out_t) = unsafe {
                (
                    v_ptr.slice_mut(mu_offsets[i], sizes[i]),
                    t_ptr.slice_mut(mu_offsets[i], sizes[i]),
                )
            };
            let mut out = out_v.iter_mut().zip(out_t.iter_mut());
            let mut put = |(v, t): (VertexId, f32)| {
                let (ov, ot) = out.next().expect("a bucket's size covers its entries");
                (*ov, *ot) = (v, t);
            };
            let mut fresh = fresh_bucket(i).iter().copied().peekable();
            for (&v, &t) in self.vertices[old.clone()].iter().zip(&self.thresholds[old]) {
                if is_dirty[v as usize] {
                    continue;
                }
                let key = pack_key(t, v);
                while let Some(earlier) = fresh.next_if(|&f| f < key) {
                    put(unpack_key(earlier));
                }
                put((v, t));
            }
            fresh.map(unpack_key).for_each(&mut put);
            assert!(out.next().is_none(), "bucket {i} was sized wrong");
        });
        CoreOrder {
            mu_offsets,
            vertices,
            thresholds,
        }
    }

    /// `CO[μ]`: candidate cores and their thresholds, sorted by
    /// non-increasing threshold. Empty when `μ` exceeds every closed degree.
    pub fn candidates(&self, mu: u32) -> (&[VertexId], &[f32]) {
        assert!(mu >= 2, "SCAN requires μ ≥ 2");
        let i = (mu - 2) as usize;
        if i + 1 >= self.mu_offsets.len() {
            return (&[], &[]);
        }
        let range = self.mu_offsets[i]..self.mu_offsets[i + 1];
        (&self.vertices[range.clone()], &self.thresholds[range])
    }

    /// The cores for `(μ, ε)`: the prefix of `CO[μ]` with threshold ≥ ε,
    /// located by doubling search (Algorithm 3).
    pub fn cores(&self, mu: u32, epsilon: f32) -> &[VertexId] {
        let (vs, ths) = self.candidates(mu);
        let len = crate::doubling::doubling_search_prefix(ths, |&t| t >= epsilon);
        &vs[..len]
    }

    /// The raw flattened arrays (μ offsets, vertices, thresholds) — used by
    /// the index persistence code.
    pub fn parts(&self) -> (&[usize], &[VertexId], &[f32]) {
        (&self.mu_offsets, &self.vertices, &self.thresholds)
    }

    /// Rebuild from raw parts (the inverse of [`Self::parts`]). The caller
    /// is responsible for structural validity; [`Self::validate`] checks it.
    ///
    /// # Panics
    /// Panics on misaligned arrays or non-monotone offsets.
    pub fn from_parts(
        mu_offsets: Vec<usize>,
        vertices: Vec<VertexId>,
        thresholds: Vec<f32>,
    ) -> Self {
        assert_eq!(
            vertices.len(),
            thresholds.len(),
            "misaligned core-order parts"
        );
        assert!(!mu_offsets.is_empty(), "core order needs ≥ 1 offset");
        assert!(
            mu_offsets.windows(2).all(|w| w[0] <= w[1]),
            "core-order offsets must be non-decreasing"
        );
        assert_eq!(
            *mu_offsets.last().unwrap(),
            vertices.len(),
            "core-order offsets must end at the entry count"
        );
        CoreOrder {
            mu_offsets,
            vertices,
            thresholds,
        }
    }

    /// Validate invariants against the graph and neighbor order.
    pub fn validate(&self, g: &CsrGraph, no: &NeighborOrder) -> Result<(), String> {
        for mu in 2..=self.max_mu().max(1) {
            let (vs, ths) = self.candidates(mu);
            let expect_members = (0..g.num_vertices() as VertexId)
                .filter(|&v| g.degree(v) + 1 >= mu as usize)
                .count();
            if vs.len() != expect_members {
                return Err(format!(
                    "CO[{mu}] has {} entries, expected {expect_members}",
                    vs.len()
                ));
            }
            for k in 0..vs.len() {
                if k > 0 && ths[k - 1] < ths[k] {
                    return Err(format!("CO[{mu}] thresholds increase at {k}"));
                }
                if k > 0 && ths[k - 1] == ths[k] && vs[k - 1] >= vs[k] {
                    return Err(format!("CO[{mu}] tie not id-ordered at {k}"));
                }
                let want = no
                    .core_threshold(g, vs[k], mu)
                    .ok_or_else(|| format!("CO[{mu}] member {} too small", vs[k]))?;
                if want != ths[k] {
                    return Err(format!(
                        "CO[{mu}] threshold mismatch for {}: {} vs {want}",
                        vs[k], ths[k]
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The μ offsets of `g`'s core order: `CO[μ]` holds the vertices of
/// degree `≥ μ - 1`, so bucket `i` holds as many entries as there are
/// vertices of degree `> i`, a suffix sum of the degree histogram, and
/// the last bucket is the maximum degree's.
pub(crate) fn mu_offsets(g: &CsrGraph) -> Vec<usize> {
    let histogram = parscan_graph::builder::degree_histogram(g);
    let (mut above, mut total) = (g.num_vertices(), 0usize);
    let mut offsets = vec![0usize];
    for &count in &histogram[..histogram.len() - 1] {
        above -= count;
        total += above;
        offsets.push(total);
    }
    offsets
}

/// Bucket `i`'s range under `offsets`; empty past the last bucket.
fn bucket(offsets: &[usize], i: usize) -> std::ops::Range<usize> {
    match offsets.get(i + 1) {
        Some(&end) => offsets[i]..end,
        None => 0..0,
    }
}

/// The core-order keys of `count` vertices listed in ascending order by
/// `vertex(k)`, scattered into their buckets: bucket `i` (`CO[i + 2]`)
/// gets a [`pack_key`] of every listed vertex of degree `> i`, with its
/// `i`-th NO similarity, in list order. Returns the bucket offsets (one
/// bucket per degree up to the largest listed one, so `[0]` when every
/// listed vertex is isolated) and the keys.
///
/// `CO[μ]` holds exactly the vertices of degree `≥ μ - 1`, so a bucket's
/// size is a suffix sum of the degree histogram. The vertices are cut
/// into cost-balanced chunks, each chunk's row of per-bucket counts
/// becomes its write cursors, and one stable counting scatter fills every
/// bucket.
fn bucket_keys(
    g: &CsrGraph,
    no: &NeighborOrder,
    count: usize,
    vertex: impl Fn(usize) -> VertexId + Sync,
) -> (Vec<usize>, Vec<u64>) {
    let degrees: Vec<usize> = par_map(count, 2048, |k| g.degree(vertex(k)));
    let chunks = weighted_chunk_ranges(&degrees, 8 * num_threads());

    // Per chunk, the entries it puts in each bucket it reaches: the
    // chunk's vertices of degree > i, a suffix sum of its degree
    // histogram. A chunk's row is as long as its largest degree, so
    // the rows sum to at most 2m + chunks.
    let mut cursors: Vec<Vec<usize>> = par_map(chunks.len(), 1, |c| {
        let span = chunks[c].clone().map(|k| degrees[k]).max().unwrap_or(0);
        let mut row = vec![0usize; span + 1];
        for k in chunks[c].clone() {
            row[degrees[k]] += 1;
        }
        for i in (0..span).rev() {
            row[i] += row[i + 1];
        }
        row.remove(0);
        row
    });
    // Bucket sizes are the column sums, and their prefix sums the
    // offsets. Each chunk's row then becomes its write cursors: the
    // bucket offset plus what earlier chunks put in that bucket.
    let n_buckets = cursors.iter().map(Vec::len).max().unwrap_or(0);
    let mut offsets = vec![0usize; n_buckets + 1];
    for row in &cursors {
        for (i, &k) in row.iter().enumerate() {
            offsets[i + 1] += k;
        }
    }
    for i in 0..n_buckets {
        offsets[i + 1] += offsets[i];
    }
    let mut next = offsets[..n_buckets].to_vec();
    for row in &mut cursors {
        for (i, k) in row.iter_mut().enumerate() {
            let start = next[i];
            next[i] += *k;
            *k = start;
        }
    }

    // Stable counting scatter, chunk by chunk in list order.
    let mut keys = vec![0u64; offsets[n_buckets]];
    let ptr = SyncMutPtr::new(&mut keys);
    par_for(chunks.len(), 1, |c| {
        let mut cursor = cursors[c].clone();
        for k in chunks[c].clone() {
            let v = vertex(k);
            for (i, &t) in no.similarities(g, v).iter().enumerate() {
                // SAFETY: the cursors give each (chunk, bucket) pair a
                // disjoint in-bounds range, written once per entry.
                unsafe { ptr.write(cursor[i], pack_key(t, v)) };
                cursor[i] += 1;
            }
        }
    });
    (offsets, keys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::SimilarityMeasure;
    use crate::similarity_exact::compute_merge_based;
    use parscan_graph::generators;

    fn build(g: &CsrGraph, strategy: SortStrategy) -> (NeighborOrder, CoreOrder) {
        let sims = compute_merge_based(g, SimilarityMeasure::Cosine);
        let no = NeighborOrder::build(g, &sims, strategy);
        let co = CoreOrder::build(g, &no, strategy);
        (no, co)
    }

    #[test]
    fn figure1_core_order() {
        let g = generators::paper_figure1();
        let (no, co) = build(&g, SortStrategy::Integer);
        assert_eq!(co.validate(&g, &no), Ok(()));
        assert_eq!(co.max_mu(), 5); // vertex 3 has closed degree 5

        // Paper Figure 3: CO[5] contains only paper-vertex 4 (ours: 3)
        // with threshold .52.
        let (vs, ths) = co.candidates(5);
        assert_eq!(vs, &[3]);
        assert!((ths[0] - 0.516).abs() < 0.005);

        // CO[3] members: vertices with closed degree ≥ 3 (deg ≥ 2): all
        // but paper 10 and 11 (ours 9, 10) — nine vertices.
        let (vs, _) = co.candidates(3);
        assert_eq!(vs.len(), 9);
        assert!(!vs.contains(&9) && !vs.contains(&10));
    }

    #[test]
    fn figure1_cores_at_paper_params() {
        let g = generators::paper_figure1();
        let (_, co) = build(&g, SortStrategy::Integer);
        // (μ, ε) = (3, 0.6): cores are paper {1,2,3,4,6,7,8} → ours shifted.
        let mut cores = co.cores(3, 0.6).to_vec();
        cores.sort_unstable();
        assert_eq!(cores, vec![0, 1, 2, 3, 5, 6, 7]);
    }

    #[test]
    fn strategies_identical() {
        let g = generators::erdos_renyi(300, 2500, 12);
        let (_, a) = build(&g, SortStrategy::Comparison);
        let (_, b) = build(&g, SortStrategy::Integer);
        assert_eq!(a.mu_offsets, b.mu_offsets);
        assert_eq!(a.vertices, b.vertices);
        assert_eq!(a.thresholds, b.thresholds);
        // A hub of degree above 65,536: CO[2] (every vertex) is
        // radix-sorted by the whole pool, the long tail of one-entry
        // buckets in cache.
        let g = crate::test_support::star_with_leaf_edges(70_000, 100_000, 5);
        let (_, a) = build(&g, SortStrategy::Comparison);
        let (_, b) = build(&g, SortStrategy::Integer);
        assert!(a.candidates(2).0.len() > 1 << 16);
        assert_eq!(a.mu_offsets, b.mu_offsets);
        assert_eq!(a.vertices, b.vertices);
        assert_eq!(a.thresholds, b.thresholds);
    }

    #[test]
    fn cores_monotone_in_epsilon_and_mu() {
        let g = generators::rmat(9, 10, 6);
        let (_, co) = build(&g, SortStrategy::Integer);
        for mu in [2u32, 3, 5, 8] {
            let mut prev = usize::MAX;
            for eps in [0.0f32, 0.2, 0.4, 0.6, 0.8, 1.0] {
                let count = co.cores(mu, eps).len();
                assert!(count <= prev, "cores not monotone in ε");
                prev = count;
            }
        }
        // More selective μ never yields more cores at fixed ε.
        for eps in [0.1f32, 0.5] {
            let mut prev = usize::MAX;
            for mu in 2..10u32 {
                let count = co.cores(mu, eps).len();
                assert!(count <= prev, "cores not monotone in μ at ε={eps}");
                prev = count;
            }
        }
    }

    #[test]
    fn empty_when_mu_exceeds_degrees() {
        let g = generators::path(5); // max degree 2 → max μ = 3
        let (_, co) = build(&g, SortStrategy::Integer);
        assert_eq!(co.cores(4, 0.0), &[] as &[u32]);
        assert_eq!(co.cores(100, 0.0), &[] as &[u32]);
        // μ = 2 at ε = 0: every vertex with ≥ 1 neighbor qualifies.
        assert_eq!(co.cores(2, 0.0).len(), 5);
    }

    #[test]
    fn edgeless_graph() {
        let g = parscan_graph::from_edges(4, &[]);
        let (no, co) = build(&g, SortStrategy::Integer);
        assert_eq!(co.validate(&g, &no), Ok(()));
        assert_eq!(co.cores(2, 0.0), &[] as &[u32]);
    }
}
