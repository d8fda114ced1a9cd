//! MinHash sketches for Jaccard similarity of closed neighborhoods.
//!
//! [`StandardMinHash`] is the textbook scheme (§2.1.2): `k` independent
//! hash "permutations", sketch coordinate `i` is `min_{x∈N̄(v)} h_i(x)`;
//! coordinates match with probability exactly the Jaccard similarity
//! (Theorem 5.3 analyzes this variant). `O(k·d)` work per vertex.
//!
//! [`KPartitionMinHash`] is one-permutation hashing (§6.3, Li–Owen–Zhang):
//! a single hash splits the universe into `k` buckets and keeps the
//! minimum per bucket — `O(k + d)` work per vertex — with rotation
//! densification (Shrivastava–Li) filling empty buckets so sparse
//! neighborhoods still produce full-length sketches. The paper notes the
//! Theorem 5.3 bound does not apply to this variant; it is the one their
//! implementation (and our benchmark harness) uses.

use crate::rng::uniform_u64;
use parscan_graph::{CsrGraph, VertexId};
use parscan_parallel::primitives::par_for;
use parscan_parallel::utils::{hash64_pair, SyncMutPtr};

const NONE: u32 = u32::MAX;
const EMPTY_BUCKET: u32 = u32::MAX;

/// Row assignment shared by both sketch kinds.
struct Rows {
    row: Vec<u32>,
    count: usize,
}

fn assign_rows<F>(n: usize, select: F) -> Rows
where
    F: Fn(VertexId) -> bool + Sync,
{
    let selected = parscan_parallel::filter::pack_index_u32(n, |v| select(v as VertexId));
    let mut row = vec![NONE; n];
    let ptr = SyncMutPtr::new(&mut row);
    // SAFETY: `selected` holds distinct vertex ids below `n`, so each
    // write is in bounds and no two iterations share a slot.
    par_for(selected.len(), 2048, |i| unsafe {
        ptr.write(selected[i] as usize, i as u32);
    });
    Rows {
        row,
        count: selected.len(),
    }
}

/// Textbook `k`-hash MinHash.
pub struct StandardMinHash {
    values: Vec<u64>,
    row: Vec<u32>,
    k: usize,
}

impl StandardMinHash {
    pub fn build<F>(g: &CsrGraph, k: usize, seed: u64, select: F) -> Self
    where
        F: Fn(VertexId) -> bool + Sync,
    {
        assert!(k >= 1);
        assert!(!g.is_weighted(), "MinHash estimates unweighted Jaccard");
        let rows = assign_rows(g.num_vertices(), select);
        let selected: Vec<VertexId> = (0..g.num_vertices() as VertexId)
            .filter(|&v| rows.row[v as usize] != NONE)
            .collect();
        let mut values = vec![u64::MAX; rows.count * k];
        let ptr = SyncMutPtr::new(&mut values);
        par_for(selected.len() * k, 8, |task| {
            let idx = task / k;
            let sample = task % k;
            let v = selected[idx];
            let mut min = uniform_u64(seed, sample as u64, v as u64); // self
            for &x in g.neighbors(v) {
                min = min.min(uniform_u64(seed, sample as u64, x as u64));
            }
            // SAFETY: one writer per (vertex, sample) cell.
            unsafe { ptr.write(idx * k + sample, min) };
        });
        StandardMinHash {
            values,
            row: rows.row,
            k,
        }
    }

    #[inline]
    pub fn has(&self, v: VertexId) -> bool {
        self.row[v as usize] != NONE
    }

    fn sketch(&self, v: VertexId) -> &[u64] {
        let r = self.row[v as usize] as usize;
        &self.values[r * self.k..(r + 1) * self.k]
    }

    /// Estimated Jaccard similarity: fraction of matching coordinates.
    pub fn estimate(&self, u: VertexId, v: VertexId) -> f32 {
        let (su, sv) = (self.sketch(u), self.sketch(v));
        let matches = su.iter().zip(sv).filter(|(a, b)| a == b).count();
        matches as f32 / self.k as f32
    }
}

/// One-permutation (k-partition) MinHash with rotation densification.
pub struct KPartitionMinHash {
    values: Vec<u32>,
    row: Vec<u32>,
    k: usize,
}

impl KPartitionMinHash {
    pub fn build<F>(g: &CsrGraph, k: usize, seed: u64, select: F) -> Self
    where
        F: Fn(VertexId) -> bool + Sync,
    {
        assert!(k >= 1);
        assert!(!g.is_weighted(), "MinHash estimates unweighted Jaccard");
        let rows = assign_rows(g.num_vertices(), select);
        let selected: Vec<VertexId> = (0..g.num_vertices() as VertexId)
            .filter(|&v| rows.row[v as usize] != NONE)
            .collect();
        let mut values = vec![EMPTY_BUCKET; rows.count * k];
        let ptr = SyncMutPtr::new(&mut values);
        par_for(selected.len(), 8, |idx| {
            let v = selected[idx];
            let mut sketch = vec![EMPTY_BUCKET; k];
            let mut feed = |x: u64| {
                let h = hash64_pair(seed, x);
                // Fair bucket via multiply-shift on the high 32 bits.
                let bucket = (((h >> 32) * k as u64) >> 32) as usize;
                let val = (h & 0x7fff_ffff) as u32; // < EMPTY_BUCKET
                if val < sketch[bucket] {
                    sketch[bucket] = val;
                }
            };
            feed(v as u64);
            for &x in g.neighbors(v) {
                feed(x as u64);
            }
            densify_rotation(&mut sketch);
            // SAFETY: each vertex owns a disjoint row.
            let dst = unsafe { ptr.slice_mut(idx * k, k) };
            dst.copy_from_slice(&sketch);
        });
        KPartitionMinHash {
            values,
            row: rows.row,
            k,
        }
    }

    #[inline]
    pub fn has(&self, v: VertexId) -> bool {
        self.row[v as usize] != NONE
    }

    fn sketch(&self, v: VertexId) -> &[u32] {
        let r = self.row[v as usize] as usize;
        &self.values[r * self.k..(r + 1) * self.k]
    }

    /// Estimated Jaccard similarity: fraction of matching coordinates.
    pub fn estimate(&self, u: VertexId, v: VertexId) -> f32 {
        let (su, sv) = (self.sketch(u), self.sketch(v));
        let matches = su.iter().zip(sv).filter(|(a, b)| a == b).count();
        matches as f32 / self.k as f32
    }
}

/// Fill empty buckets by borrowing the nearest non-empty bucket to the
/// right (circularly), offset-tagged so borrowed coordinates only match
/// when both sides borrowed from the same distance — the Shrivastava–Li
/// rotation scheme.
fn densify_rotation(sketch: &mut [u32]) {
    let k = sketch.len();
    if sketch.iter().all(|&v| v == EMPTY_BUCKET) {
        return; // no items at all; leave empty (estimate degenerates to 1
                // only against an equally empty sketch, which cannot occur
                // for closed neighborhoods — they always contain v itself).
    }
    // Precompute, for each position, the next filled bucket to the right.
    let filled: Vec<u32> = sketch.to_vec();
    for j in 0..k {
        if sketch[j] == EMPTY_BUCKET {
            let mut dist = 1usize;
            loop {
                let src = (j + dist) % k;
                if filled[src] != EMPTY_BUCKET {
                    // Tag with distance so different borrow distances differ.
                    sketch[j] = filled[src].wrapping_add((dist as u32).wrapping_mul(0x9e37_79b9))
                        & 0x7fff_ffff;
                    break;
                }
                dist += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parscan_core::similarity::SimilarityMeasure;
    use parscan_core::similarity_exact::compute_full_merge;
    use parscan_graph::generators;

    fn mae_standard(g: &CsrGraph, k: usize, seed: u64) -> f64 {
        let exact = compute_full_merge(g, SimilarityMeasure::Jaccard);
        let mh = StandardMinHash::build(g, k, seed, |_| true);
        let mut err = 0.0;
        let mut count = 0;
        for (u, v, slot) in g.canonical_edges() {
            err += (mh.estimate(u, v) - exact.slot(slot)).abs() as f64;
            count += 1;
        }
        err / count as f64
    }

    #[test]
    fn standard_minhash_converges() {
        let g = generators::erdos_renyi(100, 800, 6);
        let coarse = mae_standard(&g, 64, 1);
        let fine = mae_standard(&g, 2048, 1);
        assert!(fine < 0.02, "fine MAE {fine}");
        assert!(fine < coarse, "more samples should reduce error");
    }

    #[test]
    fn kpartition_minhash_converges() {
        let g = generators::erdos_renyi(150, 3000, 2);
        let exact = compute_full_merge(&g, SimilarityMeasure::Jaccard);
        let mh = KPartitionMinHash::build(&g, 1024, 3, |_| true);
        let mut err = 0.0;
        let mut count = 0;
        for (u, v, slot) in g.canonical_edges() {
            err += (mh.estimate(u, v) - exact.slot(slot)).abs() as f64;
            count += 1;
        }
        let mae = err / count as f64;
        assert!(mae < 0.06, "MAE {mae}");
    }

    #[test]
    fn identical_sets_match_perfectly() {
        let g = parscan_graph::from_edges(2, &[(0, 1)]);
        let std = StandardMinHash::build(&g, 128, 9, |_| true);
        assert_eq!(std.estimate(0, 1), 1.0);
        let kp = KPartitionMinHash::build(&g, 128, 9, |_| true);
        assert_eq!(kp.estimate(0, 1), 1.0);
    }

    #[test]
    fn estimates_bounded() {
        let g = generators::rmat(8, 8, 4);
        let kp = KPartitionMinHash::build(&g, 64, 5, |_| true);
        for (u, v, _) in g.canonical_edges() {
            let e = kp.estimate(u, v);
            assert!((0.0..=1.0).contains(&e));
        }
    }

    #[test]
    fn densification_fills_every_bucket() {
        let mut sketch = vec![EMPTY_BUCKET; 16];
        sketch[3] = 7;
        sketch[11] = 2;
        densify_rotation(&mut sketch);
        assert!(sketch.iter().all(|&v| v != EMPTY_BUCKET));
        assert_eq!(sketch[3], 7);
        assert_eq!(sketch[11], 2);
        // Borrowers at different distances from the same source differ.
        assert_ne!(sketch[4], sketch[5]);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = generators::erdos_renyi(60, 300, 8);
        let a = KPartitionMinHash::build(&g, 256, 4, |_| true);
        let b = KPartitionMinHash::build(&g, 256, 4, |_| true);
        for (u, v, _) in g.canonical_edges() {
            assert_eq!(a.estimate(u, v), b.estimate(u, v));
        }
    }

    #[test]
    #[should_panic(expected = "unweighted")]
    fn rejects_weighted_graphs() {
        let (g, _) = generators::weighted_planted_partition(30, 2, 4.0, 1.0, 1);
        StandardMinHash::build(&g, 16, 1, |_| true);
    }
}
