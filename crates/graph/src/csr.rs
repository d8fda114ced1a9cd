//! Compressed-sparse-row storage for simple undirected graphs.
//!
//! Every undirected edge `{u, v}` occupies two *slots*: one in `u`'s
//! neighbor list and one in `v`'s. Neighbor lists are sorted by vertex id,
//! which the merge-based similarity computation (§6.1 of the paper)
//! requires and which makes the twin slot of an edge findable by binary
//! search ([`CsrGraph::slot_of`]), or for every slot at once by one
//! sequential pass ([`CsrGraph::twin_slots`]). Per-edge quantities
//! (similarities) are stored in slot-indexed arrays of length `2m`.

/// Vertex identifier. `u32` halves the memory traffic of `usize` indices
/// (a Type-Sizes guideline) and covers every graph this repo targets.
pub type VertexId = u32;

/// An undirected simple graph in CSR form, optionally edge-weighted.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v + 1]` is `v`'s slot range. Length `n + 1`.
    offsets: Vec<usize>,
    /// Flattened neighbor lists, sorted by id within each vertex. Length `2m`.
    neighbors: Vec<VertexId>,
    /// Per-slot weights aligned with `neighbors` (`None` for unweighted).
    weights: Option<Vec<f32>>,
}

/// Validate raw CSR parts in one `O(n + m)` sequential sweep — the
/// deserialization fast path.
///
/// Scanning slots with the owner `u` ascending visits each target `v`'s
/// mirrored slots in ascending-`u` order too; because neighbor lists are
/// strictly sorted (checked first), a per-vertex cursor into `v`'s list
/// must land exactly on `u` at every step iff the graph is symmetric.
/// Each slot advances one cursor once, so no binary search is needed.
fn validate_parts(
    offsets: &[usize],
    neighbors: &[VertexId],
    weights: Option<&[f32]>,
) -> Result<(), String> {
    if offsets.is_empty() {
        return Err("offsets must have length n + 1 >= 1".into());
    }
    if offsets[0] != 0 || *offsets.last().unwrap() != neighbors.len() {
        return Err("offsets must start at 0 and end at slot count".into());
    }
    if let Some(w) = weights {
        if w.len() != neighbors.len() {
            return Err("weights length must match neighbors".into());
        }
    }
    if !neighbors.len().is_multiple_of(2) {
        return Err("odd number of slots".into());
    }
    let slots = neighbors.len();
    if slots > u32::MAX as usize {
        return Err("slot count exceeds u32 index space".into());
    }
    let n = offsets.len() - 1;
    // Pass 1: monotone offsets; per-list strictly-sorted, in-range,
    // self-loop-free neighbors.
    for v in 0..n {
        let (start, end) = (offsets[v], offsets[v + 1]);
        if start > end || end > slots {
            return Err(format!("offsets not monotone at vertex {v}"));
        }
        let list = &neighbors[start..end];
        for (i, &x) in list.iter().enumerate() {
            if x as usize >= n {
                return Err(format!("neighbor {x} of {v} out of range"));
            }
            if x as usize == v {
                return Err(format!("self-loop at vertex {v}"));
            }
            if i > 0 && list[i - 1] >= x {
                return Err(format!("neighbors of {v} not strictly sorted"));
            }
        }
    }
    // Pass 2: the symmetry check (see above).
    let mut cursor: Vec<usize> = offsets[..n].to_vec();
    for u in 0..n {
        for s in offsets[u]..offsets[u + 1] {
            let v = neighbors[s] as usize;
            let t = cursor[v];
            if t >= offsets[v + 1] || neighbors[t] as usize != u {
                return Err(format!("edge ({v},{u}) missing twin"));
            }
            if let Some(w) = weights {
                if (w[s] - w[t]).abs() > 1e-6 {
                    return Err(format!("asymmetric weight on ({u},{v})"));
                }
            }
            cursor[v] = t + 1;
        }
    }
    Ok(())
}

impl CsrGraph {
    /// Assemble a graph from raw CSR parts, validating all invariants.
    ///
    /// # Panics
    /// Panics when the parts do not describe a simple, symmetric,
    /// sorted-CSR undirected graph.
    pub fn from_parts(
        offsets: Vec<usize>,
        neighbors: Vec<VertexId>,
        weights: Option<Vec<f32>>,
    ) -> Self {
        match Self::try_from_parts(offsets, neighbors, weights) {
            Ok(g) => g,
            Err(e) => panic!("invalid CSR graph: {e}"),
        }
    }

    /// Assemble a graph from raw CSR parts, returning the validation error
    /// instead of panicking (used when the parts come from untrusted input,
    /// e.g. deserialization).
    pub fn try_from_parts(
        offsets: Vec<usize>,
        neighbors: Vec<VertexId>,
        weights: Option<Vec<f32>>,
    ) -> Result<Self, String> {
        validate_parts(&offsets, &neighbors, weights.as_deref())?;
        Ok(CsrGraph {
            offsets,
            neighbors,
            weights,
        })
    }

    /// Assemble without validation — for internal builders whose output
    /// is correct by construction (checked in debug builds).
    pub(crate) fn from_parts_unchecked(
        offsets: Vec<usize>,
        neighbors: Vec<VertexId>,
        weights: Option<Vec<f32>>,
    ) -> Self {
        debug_assert_eq!(
            validate_parts(&offsets, &neighbors, weights.as_deref()),
            Ok(())
        );
        CsrGraph {
            offsets,
            neighbors,
            weights,
        }
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Number of directed slots (`2m`).
    #[inline]
    pub fn num_slots(&self) -> usize {
        self.neighbors.len()
    }

    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Degree of `v` (open neighborhood size `|N(v)|`).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Slot range of `v` in the flat arrays.
    #[inline]
    pub fn slot_range(&self, v: VertexId) -> std::ops::Range<usize> {
        self.offsets[v as usize]..self.offsets[v as usize + 1]
    }

    /// Neighbors of `v`, sorted ascending by id.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.neighbors[self.slot_range(v)]
    }

    /// Per-slot weights of `v`'s edges (aligned with [`Self::neighbors`]).
    /// Returns `None` for unweighted graphs.
    #[inline]
    pub fn weights_of(&self, v: VertexId) -> Option<&[f32]> {
        self.weights.as_ref().map(|w| &w[self.slot_range(v)])
    }

    /// The neighbor stored in `slot`.
    #[inline]
    pub fn slot_neighbor(&self, slot: usize) -> VertexId {
        self.neighbors[slot]
    }

    /// Weight of `slot` (1.0 for unweighted graphs, the paper's convention).
    #[inline]
    pub fn slot_weight(&self, slot: usize) -> f32 {
        match &self.weights {
            Some(w) => w[slot],
            None => 1.0,
        }
    }

    /// Slot of edge `(u, v)` within `u`'s list, if the edge exists.
    pub fn slot_of(&self, u: VertexId, v: VertexId) -> Option<usize> {
        let range = self.slot_range(u);
        let list = &self.neighbors[range.clone()];
        list.binary_search(&v).ok().map(|i| range.start + i)
    }

    /// The twin-slot permutation: if slot `s` stores `(u → v)`, slot
    /// `twins[s]` stores `(v → u)`. The score writers use it to store an
    /// edge's score on both of its slots without a binary search per edge.
    ///
    /// One sequential `O(n + m)` pass: visiting slots in owner order meets
    /// each vertex's mirrored slots in its own list order, because the
    /// lists are sorted and symmetric, so a cursor per vertex finds every
    /// twin. Sequential on purpose: a parallel binary search per slot
    /// costs several times as much.
    pub fn twin_slots(&self) -> Vec<u32> {
        let n = self.num_vertices();
        let mut cursor: Vec<u32> = self.offsets[..n].iter().map(|&o| o as u32).collect();
        let mut twins = vec![0u32; self.num_slots()];
        for (twin, &v) in twins.iter_mut().zip(&self.neighbors) {
            let c = &mut cursor[v as usize];
            *twin = *c;
            *c += 1;
        }
        twins
    }

    /// The endpoint vertex that owns `slot` (i.e. `u` such that `slot` is
    /// in `u`'s range). `O(log n)`.
    pub fn slot_owner(&self, slot: usize) -> VertexId {
        debug_assert!(slot < self.num_slots());
        // partition_point returns the first v with offsets[v] > slot; the
        // owner is that minus one.
        (self.offsets.partition_point(|&o| o <= slot) - 1) as VertexId
    }

    /// Maximum degree over all vertices (0 for empty graphs).
    pub fn max_degree(&self) -> usize {
        parscan_parallel::primitives::max_u64(self.num_vertices(), 0, |v| {
            self.degree(v as VertexId) as u64
        }) as usize
    }

    /// Sum of `w(v, x)^2` over `x ∈ N(v)` plus the implicit `w(v,v) = 1`
    /// self term — the squared denominator norm of §4.1.1.
    pub fn closed_norm_sq(&self, v: VertexId) -> f64 {
        let base = 1.0f64; // w(v, v) = 1
        match self.weights_of(v) {
            Some(ws) => base + ws.iter().map(|&w| (w as f64) * (w as f64)).sum::<f64>(),
            None => base + self.degree(v) as f64,
        }
    }

    /// Iterate all canonical edges `(u, v, slot_in_u)` with `u < v`.
    pub fn canonical_edges(&self) -> impl Iterator<Item = (VertexId, VertexId, usize)> + '_ {
        (0..self.num_vertices() as VertexId).flat_map(move |u| {
            let range = self.slot_range(u);
            self.neighbors[range.clone()]
                .iter()
                .enumerate()
                .filter(move |(_, &v)| u < v)
                .map(move |(i, &v)| (u, v, range.start + i))
        })
    }

    /// Check all structural invariants; returns a description on failure.
    /// The same `O(n + m)` check that loading a graph runs.
    pub fn validate(&self) -> Result<(), String> {
        validate_parts(&self.offsets, &self.neighbors, self.weights.as_deref())
    }

    /// Check the lists of `vertices`: each list strictly sorted, in range
    /// and free of self-loops, and each of its slots `(v → x)` mirrored by
    /// a slot `(x → v)` in `x`'s list with the same weight.
    /// `O(Σ deg log deg)` over `vertices`: what a patch checks of the lists
    /// it rewrote.
    pub(crate) fn check_lists(&self, vertices: &[VertexId]) -> Result<(), String> {
        let n = self.num_vertices();
        let errors = parscan_parallel::filter::filter_map_index(vertices.len(), |k| {
            let v = vertices[k];
            let list = self.neighbors(v);
            for (s, (i, &x)) in self.slot_range(v).zip(list.iter().enumerate()) {
                if x as usize >= n {
                    return Some(format!("neighbor {x} of {v} out of range"));
                }
                if x == v {
                    return Some(format!("self-loop at vertex {v}"));
                }
                if i > 0 && list[i - 1] >= x {
                    return Some(format!("neighbors of {v} not strictly sorted"));
                }
                let Some(t) = self.slot_of(x, v) else {
                    return Some(format!("edge ({v},{x}) has no twin"));
                };
                if (self.slot_weight(s) - self.slot_weight(t)).abs() > 1e-6 {
                    return Some(format!("asymmetric weight on ({v},{x})"));
                }
            }
            None
        });
        errors.into_iter().next().map_or(Ok(()), Err)
    }

    /// Total weight `W = Σ_e w(e)` (equals `m` for unweighted graphs).
    pub fn total_edge_weight(&self) -> f64 {
        match &self.weights {
            None => self.num_edges() as f64,
            Some(w) => {
                let sum = parscan_parallel::primitives::reduce(
                    w.len(),
                    1 << 14,
                    0.0f64,
                    |i| w[i] as f64,
                    |a, b| a + b,
                );
                sum / 2.0
            }
        }
    }

    /// Degrees of all vertices, computed in parallel.
    pub fn degrees(&self) -> Vec<u32> {
        parscan_parallel::primitives::par_map(self.num_vertices(), 4096, |v| {
            self.degree(v as VertexId) as u32
        })
    }

    /// Raw parts accessor (offsets, neighbors, weights).
    pub fn parts(&self) -> (&[usize], &[VertexId], Option<&[f32]>) {
        (&self.offsets, &self.neighbors, self.weights.as_deref())
    }

    /// Bytes held by this graph's owned arrays (offsets, neighbors, and
    /// weights when present).
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(&self.offsets[..])
            + size_of_val(&self.neighbors[..])
            + self.weights.as_deref().map_or(0, size_of_val)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> CsrGraph {
        // 0-1, 1-2, 0-2
        CsrGraph::from_parts(vec![0, 2, 4, 6], vec![1, 2, 0, 2, 0, 1], None)
    }

    #[test]
    fn basic_accessors() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert!(!g.is_weighted());
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn slot_lookup() {
        let g = triangle();
        assert_eq!(g.slot_of(0, 1), Some(0));
        assert_eq!(g.slot_of(2, 0), Some(4));
        assert_eq!(g.slot_of(0, 0), None);
        assert_eq!(g.slot_owner(0), 0);
        assert_eq!(g.slot_owner(3), 1);
        assert_eq!(g.slot_owner(5), 2);
    }

    #[test]
    fn twin_slots_are_involution() {
        use crate::generators;
        let graphs = [
            triangle(),
            generators::erdos_renyi(300, 1500, 7),
            generators::rmat(10, 8, 3),
            generators::weighted_planted_partition(200, 4, 8.0, 1.0, 5).0,
            CsrGraph::from_parts(vec![0, 0, 1, 2, 2, 2], vec![2, 1], None),
            CsrGraph::from_parts(vec![0], vec![], None),
        ];
        for g in &graphs {
            let twins = g.twin_slots();
            assert_eq!(twins.len(), g.num_slots());
            for (s, &t) in twins.iter().enumerate() {
                let t = t as usize;
                assert_eq!(twins[t] as usize, s);
                assert_eq!(g.slot_of(g.slot_neighbor(s), g.slot_owner(s)), Some(t));
            }
        }
    }

    #[test]
    fn check_lists_rejects_a_one_sided_edge_and_an_asymmetric_weight() {
        // Literals, not `from_parts`: the check must catch what a patch
        // could assemble without validation.
        let one_sided = CsrGraph {
            offsets: vec![0, 2, 3, 4],
            neighbors: vec![1, 2, 0, 1],
            weights: None,
        };
        let err = one_sided.check_lists(&[0]).unwrap_err();
        assert!(err.contains("no twin"), "{err}");
        let lopsided = CsrGraph {
            offsets: vec![0, 1, 2],
            neighbors: vec![1, 0],
            weights: Some(vec![0.5, 0.7]),
        };
        let err = lopsided.check_lists(&[0]).unwrap_err();
        assert!(err.contains("asymmetric weight"), "{err}");
        assert!(lopsided.check_lists(&[1]).is_err());
        assert_eq!(triangle().check_lists(&[0, 1, 2]), Ok(()));
    }

    #[test]
    fn canonical_edges_enumerates_each_once() {
        let g = triangle();
        let edges: Vec<(u32, u32)> = g.canonical_edges().map(|(u, v, _)| (u, v)).collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn closed_norms() {
        let g = triangle();
        assert_eq!(g.closed_norm_sq(0), 3.0); // 1 + deg
        let w = CsrGraph::from_parts(vec![0, 1, 2], vec![1, 0], Some(vec![0.5, 0.5]));
        assert!((w.closed_norm_sq(0) - 1.25).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid CSR graph")]
    fn rejects_self_loop() {
        CsrGraph::from_parts(vec![0, 1, 2], vec![0, 0], None);
    }

    #[test]
    #[should_panic(expected = "invalid CSR graph")]
    fn rejects_asymmetric() {
        CsrGraph::from_parts(vec![0, 1, 1], vec![1], None);
    }

    #[test]
    #[should_panic(expected = "invalid CSR graph")]
    fn rejects_unsorted_neighbors() {
        CsrGraph::from_parts(vec![0, 2, 3, 4], vec![2, 1, 0, 0], None);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_parts(vec![0], vec![], None);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn isolated_vertices() {
        let g = CsrGraph::from_parts(vec![0, 0, 1, 2, 2, 2], vec![2, 1], None);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.degree(0), 0);
        assert_eq!(g.degree(1), 1);
    }
}
