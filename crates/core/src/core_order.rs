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

use crate::index::SortStrategy;
use crate::neighbor_order::NeighborOrder;
use parscan_graph::{CsrGraph, VertexId};
use parscan_parallel::pool::num_threads;
use parscan_parallel::primitives::{par_for, par_for_range, par_map};
use parscan_parallel::radix::par_sort_segments;
use parscan_parallel::sort::par_sort_unstable_by;
use parscan_parallel::utils::SyncMutPtr;
use parscan_parallel::weighted::weighted_chunk_ranges;

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
        let n = g.num_vertices();
        let max_mu = g.max_degree() as u32 + 1; // closed degree
        if max_mu < 2 {
            return CoreOrder {
                mu_offsets: vec![0],
                vertices: Vec::new(),
                thresholds: Vec::new(),
            };
        }
        // Bucket `i` is `CO[i + 2]`; vertex `v` contributes its `i`-th
        // NO similarity to every bucket `i < deg(v)`.
        let n_buckets = (max_mu - 1) as usize;
        let degrees: Vec<usize> = par_map(n, 2048, |v| g.degree(v as VertexId));
        let chunks = weighted_chunk_ranges(&degrees, 8 * num_threads());

        // Per chunk, the entries it puts in each bucket it reaches: the
        // chunk's vertices of degree > i, a suffix sum of its degree
        // histogram. A chunk's row is as long as its largest degree, so
        // the rows sum to at most 2m + chunks.
        let mut cursors: Vec<Vec<usize>> = par_map(chunks.len(), 1, |c| {
            let span = chunks[c].clone().map(|v| degrees[v]).max().unwrap_or(0);
            let mut row = vec![0usize; span + 1];
            for v in chunks[c].clone() {
                row[degrees[v]] += 1;
            }
            for i in (0..span).rev() {
                row[i] += row[i + 1];
            }
            row.remove(0);
            row
        });
        // Bucket sizes are the column sums, and their prefix sums the μ
        // offsets. Each chunk's row then becomes its write cursors: the
        // bucket offset plus what earlier chunks put in that bucket.
        let mut mu_offsets = vec![0usize; n_buckets + 1];
        for row in &cursors {
            for (i, &k) in row.iter().enumerate() {
                mu_offsets[i + 1] += k;
            }
        }
        for i in 0..n_buckets {
            mu_offsets[i + 1] += mu_offsets[i];
        }
        let total = mu_offsets[n_buckets];
        debug_assert_eq!(total, g.num_slots());
        let mut next = mu_offsets[..n_buckets].to_vec();
        for row in &mut cursors {
            for (i, k) in row.iter_mut().enumerate() {
                let start = next[i];
                next[i] += *k;
                *k = start;
            }
        }

        // Stable counting scatter, chunk by chunk in vertex order.
        let mut keys = vec![0u64; total];
        let ptr = SyncMutPtr::new(&mut keys);
        par_for(chunks.len(), 1, |c| {
            let mut cursor = cursors[c].clone();
            for v in chunks[c].clone() {
                let v = v as VertexId;
                for (i, &t) in no.similarities(g, v).iter().enumerate() {
                    // SAFETY: the cursors give each (chunk, bucket) pair a
                    // disjoint in-bounds range, written once per entry.
                    unsafe { ptr.write(cursor[i], ((!t.to_bits() as u64) << 32) | v as u64) };
                    cursor[i] += 1;
                }
            }
        });

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
                let key = keys[k];
                // SAFETY: chunk ranges are disjoint and in bounds.
                unsafe {
                    v_ptr.write(k, key as VertexId);
                    t_ptr.write(k, f32::from_bits(!((key >> 32) as u32)));
                }
            }
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
