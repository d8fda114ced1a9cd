//! Parallel stable LSD radix sort for integer keys — the "integer sort"
//! ingredient of Theorem 4.2. Keys are sorted 8 bits per pass; each pass
//! runs per-chunk histograms, a digit-major exclusive scan over the
//! (chunk × digit) count matrix, and a stable per-chunk scatter.
//! Work is `O(n)` per pass, and the number of passes depends only on the
//! key range, matching the integer-sorting bounds the paper invokes.
//!
//! [`par_sort_segments`] is the segmented form the index build runs on:
//! when records are already grouped (by owner vertex, or by μ), only
//! each group needs sorting. A group of at most `POOL_THRESHOLD` (65,536)
//! records is sorted in cache by one thread at `O(d log 65536) = O(d)`
//! work, and a larger one by the radix above with the whole pool, so the
//! pass stays `O(n)` work with polylogarithmic span.

use crate::filter::filter_map_index;
use crate::pool::{chunk_ranges, global};
use crate::primitives::{par_for_range, par_map};
use crate::utils::{lock_mutex, SyncMutPtr, SyncPtr};
use crate::weighted::par_for_weighted_range;
use std::sync::{Mutex, PoisonError};

const RADIX_BITS: u32 = 8;
const RADIX: usize = 1 << RADIX_BITS;
const SEQ_THRESHOLD: usize = 1 << 13;
/// Segments above this length are radix-sorted by the whole pool, one at
/// a time. Below it, one thread per segment with an in-cache comparison
/// sort is faster: on the core order of a 1.9M-edge R-MAT (2-vCPU VM),
/// the pool radix took 70 ms over the 8,193–65,536-entry buckets at both
/// 1 and 2 threads, and `sort_unstable` beat a one-thread radix on them
/// by 1.6×.
const POOL_THRESHOLD: usize = 1 << 16;

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

/// Sort each segment `data[offsets[i]..offsets[i + 1]]` ascending, in
/// place; elements outside every segment stay put.
///
/// Each segment must arrive with the low 32 bits of its elements in
/// ascending order, as `key << 32 | value` records scattered in value
/// order do. A stable sort by the high half alone then sorts whole
/// elements, so a large segment needs a radix over 32 bits, not 64.
///
/// Segments of up to `POOL_THRESHOLD` elements are sorted with
/// `sort_unstable` inside one cost-balanced parallel loop, each by one
/// thread. Each larger segment is then sorted on its own by
/// [`par_radix_sort_by_key`] over the high half, outside that loop,
/// because a pool call nested in a loop body runs sequentially.
///
/// # Panics
/// Panics if `offsets` decreases, if its last entry exceeds
/// `data.len()`, or if a segment longer than `POOL_THRESHOLD` did not
/// arrive in ascending order of its low halves.
pub fn par_sort_segments(data: &mut [u64], offsets: &[usize]) {
    let n_segments = offsets.len().saturating_sub(1);
    if n_segments == 0 {
        return;
    }
    assert!(
        offsets[n_segments] <= data.len(),
        "segment offsets run past the data"
    );
    // Balance the loop's segments by length; the +1 lets a long run of
    // empty segments split like any other work. Pool-sized ones cost 0.
    let costs: Vec<usize> = par_map(n_segments, 8192, |i| {
        assert!(
            offsets[i] <= offsets[i + 1],
            "segment offsets must be non-decreasing"
        );
        let len = offsets[i + 1] - offsets[i];
        if len <= POOL_THRESHOLD {
            len + 1
        } else {
            0
        }
    });
    let ptr = SyncMutPtr::new(data);
    par_for_weighted_range(&costs, |r| {
        for i in r {
            let len = offsets[i + 1] - offsets[i];
            if len > POOL_THRESHOLD {
                continue;
            }
            // SAFETY: the offsets are non-decreasing and end within
            // `data` (both checked above), so segments are disjoint and
            // in bounds, and each is sorted by one chunk.
            unsafe { ptr.slice_mut(offsets[i], len) }.sort_unstable();
        }
    });
    let large = filter_map_index(n_segments, |i| {
        (offsets[i + 1] - offsets[i] > POOL_THRESHOLD).then_some(i)
    });
    for i in large {
        let segment = &mut data[offsets[i]..offsets[i + 1]];
        par_radix_sort_by_key(segment, |&x| x >> 32, None);
        assert!(
            segment.is_sorted(),
            "a segment's low halves must arrive in ascending order"
        );
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
        lock_mutex(&counts)[c] = local;
    });
    let mut counts = counts.into_inner().unwrap_or_else(PoisonError::into_inner);

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
    fn segments_match_per_segment_sort() {
        // Both sides of the sequential and the pool threshold, empty and
        // one-element segments, a long run of empty segments, and a tail
        // outside every segment that must stay put.
        let (t, p) = (SEQ_THRESHOLD, POOL_THRESHOLD);
        let mut lens = vec![0, 1, t - 1, 0, t, t + 1, 20_000, 3, p, p + 1, 150_000];
        lens.extend(std::iter::repeat_n(0, 5000));
        lens.extend([2, 7, 0]);
        let mut offsets = vec![0usize];
        for len in &lens {
            offsets.push(offsets.last().unwrap() + len);
        }
        let total = *offsets.last().unwrap();
        // Few distinct keys per segment, values ascending within each.
        let mut got: Vec<u64> = (0..total as u64 + 10)
            .map(|i| (hash64(i) % 5000) << 32 | i)
            .collect();
        let mut want = got.clone();
        for w in offsets.windows(2) {
            want[w[0]..w[1]].sort_unstable_by_key(|&x| x);
        }
        par_sort_segments(&mut got, &offsets);
        assert_eq!(got, want);
    }

    #[test]
    fn one_segment_covering_everything() {
        for n in [0usize, 1, SEQ_THRESHOLD, 50_000, 100_000] {
            // Random keys over ascending values.
            let mut got: Vec<u64> = (0..n as u64).map(|i| hash64(i) >> 32 << 32 | i).collect();
            let mut want = got.clone();
            par_sort_segments(&mut got, &[0, n]);
            want.sort_unstable_by_key(|&x| x);
            assert_eq!(got, want, "n = {n}");
        }
        // No segments at all is a no-op.
        let mut v = vec![3u64, 1, 2];
        par_sort_segments(&mut v, &[]);
        par_sort_segments(&mut v, &[0]);
        assert_eq!(v, [3, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "low halves must arrive in ascending order")]
    fn large_segment_with_unordered_low_halves_is_rejected() {
        // Equal keys whose values descend: sorting by key alone cannot
        // order them.
        let n = POOL_THRESHOLD as u64 + 1;
        let mut v: Vec<u64> = (0..n).map(|i| (i % 3) << 32 | (n - i)).collect();
        par_sort_segments(&mut v, &[0, n as usize]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn decreasing_segment_offsets_are_rejected() {
        par_sort_segments(&mut [1u64, 2, 3, 4], &[0, 3, 2, 4]);
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
