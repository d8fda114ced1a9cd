//! Parallel stable LSD radix sort for integer keys — the "integer sort"
//! ingredient of Theorem 4.2. Keys are sorted 8 bits per pass; each pass
//! runs per-chunk histograms, a digit-major exclusive scan over the
//! (chunk × digit) count matrix, and a stable per-chunk scatter.
//! Work is `O(n)` per pass, and the number of passes depends only on the
//! key range, matching the integer-sorting bounds the paper invokes.

use crate::pool::{chunk_ranges, global};
use crate::primitives::par_for_range;
use crate::utils::{SyncMutPtr, SyncPtr};
use parking_lot::Mutex;

const RADIX_BITS: u32 = 8;
const RADIX: usize = 1 << RADIX_BITS;
const SEQ_THRESHOLD: usize = 1 << 13;

/// Stable sort of `data` by `key(x)` ascending.
///
/// `max_key` may be supplied when known (e.g. quantized similarities) to
/// skip the max-reduction; otherwise it is computed.
#[allow(clippy::uninit_vec)]
pub fn par_radix_sort_by_key<T, K>(data: &mut [T], key: K, max_key: Option<u64>)
where
    T: Copy + Send + Sync,
    K: Fn(&T) -> u64 + Sync,
{
    let n = data.len();
    if n <= 1 {
        return;
    }
    if n <= SEQ_THRESHOLD {
        data.sort_by_key(|x| key(x));
        return;
    }
    let max_key = max_key.unwrap_or_else(|| {
        crate::primitives::reduce(n, 1 << 14, 0u64, |i| key(&data[i]), |a, b| a.max(b))
    });
    let used_bits = 64 - max_key.leading_zeros();
    let passes = used_bits.div_ceil(RADIX_BITS).max(1);

    // clippy::uninit_vec allowed at fn level: T is Copy, fully written before any read.
    let mut scratch: Vec<T> = Vec::with_capacity(n);
    // SAFETY: T is Copy; fully written before reads each pass.
    unsafe { scratch.set_len(n) };

    let ranges = chunk_ranges(n, 1 << 14);
    let n_chunks = ranges.len();
    let mut in_data = true;
    for pass in 0..passes {
        let shift = pass * RADIX_BITS;
        {
            let (src, dst): (&[T], &mut [T]) = if in_data {
                (&*data, &mut scratch[..])
            } else {
                (&scratch[..], data)
            };
            radix_pass(src, dst, &ranges, n_chunks, shift, &key);
        }
        in_data = !in_data;
    }
    if !in_data {
        let src = SyncPtr::new(&scratch);
        let dst = SyncMutPtr::new(data);
        par_for_range(n, 1 << 15, |r| {
            // SAFETY: disjoint in-bounds copy.
            unsafe {
                dst.slice_mut(r.start, r.len())
                    .copy_from_slice(src.slice(r.start, r.len()));
            }
        });
    }
}

fn radix_pass<T, K>(
    src: &[T],
    dst: &mut [T],
    ranges: &[std::ops::Range<usize>],
    n_chunks: usize,
    shift: u32,
    key: &K,
) where
    T: Copy + Send + Sync,
    K: Fn(&T) -> u64 + Sync,
{
    // Per-chunk digit histograms.
    let counts: Mutex<Vec<[u32; RADIX]>> = Mutex::new(vec![[0u32; RADIX]; n_chunks]);
    global().run(n_chunks, |c| {
        let mut local = [0u32; RADIX];
        for x in &src[ranges[c].clone()] {
            let d = ((key(x) >> shift) & (RADIX as u64 - 1)) as usize;
            local[d] += 1;
        }
        counts.lock()[c] = local;
    });
    let mut counts = counts.into_inner();

    // Digit-major exclusive scan: offset for (digit d, chunk c) is the count
    // of all (d', *) with d' < d plus (d, c') with c' < c. O(256 * chunks).
    let mut acc = 0usize;
    for d in 0..RADIX {
        for chunk_counts in counts.iter_mut().take(n_chunks) {
            let v = chunk_counts[d] as usize;
            chunk_counts[d] = acc as u32;
            acc += v;
        }
    }
    debug_assert_eq!(acc, src.len());

    // Stable scatter.
    let dst_ptr = SyncMutPtr::new(dst);
    global().run(n_chunks, |c| {
        let mut offsets = counts[c];
        for &x in &src[ranges[c].clone()] {
            let d = ((key(&x) >> shift) & (RADIX as u64 - 1)) as usize;
            // SAFETY: the offsets partition `0..src.len()` by (digit,
            // chunk), so each destination is in bounds and written once.
            unsafe { dst_ptr.write(offsets[d] as usize, x) };
            offsets[d] += 1;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utils::hash64;

    #[test]
    fn sorts_random_u64() {
        let mut got: Vec<(u64, u32)> = (0..200_000).map(|i| (hash64(i as u64), i as u32)).collect();
        let mut want = got.clone();
        par_radix_sort_by_key(&mut got, |p| p.0, None);
        want.sort_by_key(|p| p.0);
        assert_eq!(got, want);
    }

    #[test]
    fn stability_preserved() {
        // Few distinct keys; payload = original position.
        let mut got: Vec<(u64, u32)> = (0..300_000u32).map(|i| ((i as u64) % 5, i)).collect();
        let mut want = got.clone();
        par_radix_sort_by_key(&mut got, |p| p.0, None);
        want.sort_by_key(|p| p.0); // std stable sort
        assert_eq!(got, want);
    }

    #[test]
    fn small_key_range_uses_few_passes() {
        // Functional check: keys < 256 sort correctly (single pass).
        let mut got: Vec<(u64, u32)> = (0..100_000u32)
            .map(|i| (hash64(i as u64) % 250, i))
            .collect();
        let mut want = got.clone();
        par_radix_sort_by_key(&mut got, |p| p.0, None);
        want.sort_by_key(|p| p.0);
        assert_eq!(got, want);
    }

    #[test]
    fn custom_key_extractor() {
        #[derive(Clone, Copy, Debug, PartialEq)]
        struct Edge {
            u: u32,
            sim: u32,
        }
        let mut got: Vec<Edge> = (0..150_000)
            .map(|i| Edge {
                u: (hash64(i) % 1000) as u32,
                sim: (hash64(i ^ 0xabc) % 1_000_000) as u32,
            })
            .collect();
        let mut want = got.clone();
        // Sort by (u asc, sim desc) via composed key, as the index build does.
        let key = |e: &Edge| ((e.u as u64) << 32) | (!e.sim as u64 & 0xffff_ffff);
        par_radix_sort_by_key(&mut got, key, None);
        want.sort_by_key(key);
        assert_eq!(got, want);
    }

    #[test]
    fn empty_and_tiny() {
        let mut empty: Vec<(u64, u32)> = vec![];
        par_radix_sort_by_key(&mut empty, |p| p.0, None);
        assert!(empty.is_empty());
        let mut one = vec![(9u64, 1u32)];
        par_radix_sort_by_key(&mut one, |p| p.0, None);
        assert_eq!(one, vec![(9, 1)]);
    }

    #[test]
    fn all_equal_keys() {
        let mut got: Vec<(u64, u32)> = (0..100_000u32).map(|i| (7u64, i)).collect();
        let want = got.clone();
        par_radix_sort_by_key(&mut got, |p| p.0, None);
        assert_eq!(got, want); // stability: order unchanged
    }

    #[test]
    fn max_key_hint_is_respected() {
        let mut got: Vec<(u64, u32)> = (0..50_000u32).map(|i| ((i as u64) % 1000, i)).collect();
        let mut want = got.clone();
        par_radix_sort_by_key(&mut got, |p| p.0, Some(999));
        want.sort_by_key(|p| p.0);
        assert_eq!(got, want);
    }
}
