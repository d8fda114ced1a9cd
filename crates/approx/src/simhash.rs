//! SimHash sketches (§2.1.2, §5) for cosine similarity of closed
//! neighborhoods.
//!
//! The sketch of vertex `v` is `k` sign bits: bit `i` is
//! `sign(Σ_{x ∈ N̄(v)} w(v, x) · g_i(x))` with `g_i(x)` i.i.d. standard
//! normal. For vectors at angle θ, sketch bits differ with probability
//! `θ/π`, so `cos(π · hamming/k)` estimates the cosine similarity.
//! Sketching costs `O(k)` work per edge endpoint — `O(km)` total with
//! `O(log n + log k)` span (Theorem 5.1).

use crate::rng::gaussian;
use parscan_graph::{CsrGraph, VertexId};
use parscan_parallel::primitives::par_for;
use parscan_parallel::utils::SyncMutPtr;

/// Packed `k`-bit sketches for a subset of vertices.
pub struct SimHashSketches {
    /// Sketch words; vertex `v` owns `words_per_sketch` words starting at
    /// `row[v] * words_per_sketch`, or no sketch when `row[v] == NONE`.
    words: Vec<u64>,
    row: Vec<u32>,
    words_per_sketch: usize,
    k: usize,
}

const NONE: u32 = u32::MAX;

impl SimHashSketches {
    /// Number of samples `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Build sketches for every vertex with `select(v) == true`.
    ///
    /// Weighted graphs use `w(v, x)` in the projection (the weighted cosine
    /// generalization); the implicit self entry contributes `1 · g_i(v)`.
    pub fn build<F>(g: &CsrGraph, k: usize, seed: u64, select: F) -> Self
    where
        F: Fn(VertexId) -> bool + Sync,
    {
        assert!(k >= 1, "need at least one sample");
        let n = g.num_vertices();
        let words_per_sketch = k.div_ceil(64);

        // Assign sketch rows to selected vertices.
        let selected = parscan_parallel::filter::pack_index_u32(n, |v| select(v as VertexId));
        let mut row = vec![NONE; n];
        {
            let ptr = SyncMutPtr::new(&mut row);
            // SAFETY: `selected` holds distinct vertex ids below `n`, so
            // each write is in bounds and no two iterations share a slot.
            par_for(selected.len(), 2048, |i| unsafe {
                ptr.write(selected[i] as usize, i as u32);
            });
        }

        let mut words = vec![0u64; selected.len() * words_per_sketch];
        let ptr = SyncMutPtr::new(&mut words);
        // Parallel over (vertex, word) tasks for balance on skewed degrees.
        par_for(selected.len() * words_per_sketch, 1, |task| {
            let idx = task / words_per_sketch;
            let word_i = task % words_per_sketch;
            let v = selected[idx];
            let mut word = 0u64;
            let base_bit = word_i * 64;
            for b in 0..64 {
                let sample = base_bit + b;
                if sample >= k {
                    break;
                }
                let mut dot = gaussian(seed, sample as u64, v as u64); // self, w = 1
                let nbrs = g.neighbors(v);
                match g.weights_of(v) {
                    Some(ws) => {
                        for (j, &x) in nbrs.iter().enumerate() {
                            dot += ws[j] as f64 * gaussian(seed, sample as u64, x as u64);
                        }
                    }
                    None => {
                        for &x in nbrs {
                            dot += gaussian(seed, sample as u64, x as u64);
                        }
                    }
                }
                if dot >= 0.0 {
                    word |= 1u64 << b;
                }
            }
            // SAFETY: each task owns exactly one output word.
            unsafe { ptr.write(idx * words_per_sketch + word_i, word) };
        });

        SimHashSketches {
            words,
            row,
            words_per_sketch,
            k,
        }
    }

    /// `true` if `v` has a sketch.
    #[inline]
    pub fn has(&self, v: VertexId) -> bool {
        self.row[v as usize] != NONE
    }

    fn sketch(&self, v: VertexId) -> &[u64] {
        let r = self.row[v as usize] as usize;
        &self.words[r * self.words_per_sketch..(r + 1) * self.words_per_sketch]
    }

    /// Estimated cosine similarity between the closed neighborhoods of two
    /// sketched vertices: `cos(π · hamming / k)`, clamped to `[0, 1]`
    /// (structural similarities are non-negative).
    pub fn estimate(&self, u: VertexId, v: VertexId) -> f32 {
        let (su, sv) = (self.sketch(u), self.sketch(v));
        let mut hamming = 0u32;
        for (a, b) in su.iter().zip(sv) {
            hamming += (a ^ b).count_ones();
        }
        let theta = std::f64::consts::PI * hamming as f64 / self.k as f64;
        (theta.cos() as f32).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parscan_core::similarity::SimilarityMeasure;
    use parscan_core::similarity_exact::compute_full_merge;
    use parscan_graph::generators;

    #[test]
    fn estimates_converge_to_exact() {
        let g = generators::erdos_renyi(120, 900, 3);
        let exact = compute_full_merge(&g, SimilarityMeasure::Cosine);
        let sketches = SimHashSketches::build(&g, 4096, 99, |_| true);
        let mut total_err = 0.0f64;
        let mut count = 0usize;
        for (u, v, slot) in g.canonical_edges() {
            let est = sketches.estimate(u, v);
            total_err += (est - exact.slot(slot)).abs() as f64;
            count += 1;
        }
        let mae = total_err / count as f64;
        assert!(mae < 0.03, "mean abs error {mae}");
    }

    #[test]
    fn identical_neighborhoods_estimate_one() {
        // Two adjacent degree-1 vertices: identical closed neighborhoods.
        let g = parscan_graph::from_edges(2, &[(0, 1)]);
        let sketches = SimHashSketches::build(&g, 256, 7, |_| true);
        assert_eq!(sketches.estimate(0, 1), 1.0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = generators::erdos_renyi(80, 400, 1);
        let a = SimHashSketches::build(&g, 128, 5, |_| true);
        let b = SimHashSketches::build(&g, 128, 5, |_| true);
        for (u, v, _) in g.canonical_edges() {
            assert_eq!(a.estimate(u, v), b.estimate(u, v));
        }
    }

    #[test]
    fn selective_sketching() {
        let g = generators::star(20);
        let sketches = SimHashSketches::build(&g, 64, 3, |v| v == 0 || v == 1);
        assert!(sketches.has(0));
        assert!(sketches.has(1));
        assert!(!sketches.has(2));
    }

    #[test]
    fn weighted_sketches_estimate_weighted_cosine() {
        let (g, _) = generators::weighted_planted_partition(100, 2, 10.0, 1.0, 4);
        let exact = compute_full_merge(&g, SimilarityMeasure::Cosine);
        let sketches = SimHashSketches::build(&g, 4096, 11, |_| true);
        let mut total_err = 0.0f64;
        let mut count = 0usize;
        for (u, v, slot) in g.canonical_edges() {
            total_err += (sketches.estimate(u, v) - exact.slot(slot)).abs() as f64;
            count += 1;
        }
        let mae = total_err / count as f64;
        assert!(mae < 0.04, "mean abs error {mae}");
    }

    #[test]
    fn k_not_multiple_of_64() {
        let g = generators::cycle(10);
        for k in [1usize, 63, 65, 100] {
            let s = SimHashSketches::build(&g, k, 2, |_| true);
            for (u, v, _) in g.canonical_edges() {
                let e = s.estimate(u, v);
                assert!((0.0..=1.0).contains(&e));
            }
        }
    }
}
