//! Parallel comparison sort, playing the role of Cole's merge sort in the
//! paper's analysis (§2.3.2): sort chunks in parallel, then merge runs in
//! `O(log P)` rounds. Merges of wide runs are themselves parallelized with
//! co-rank splitting, so no round is bottlenecked on one thread.

use crate::pool::global;
use crate::primitives::par_for_range;
use crate::utils::{SyncMutPtr, SyncPtr};
use std::cmp::Ordering;

const SEQ_SORT_THRESHOLD: usize = 1 << 14;

/// Parallel unstable sort by comparator. Ties between the two merged runs
/// always take the left run first, so the result is deterministic for any
/// input, just not stable with respect to the original order.
pub fn par_sort_unstable_by<T, C>(data: &mut [T], cmp: C)
where
    T: Copy + Send + Sync,
    C: Fn(&T, &T) -> Ordering + Sync,
{
    par_merge_sort(data, &cmp);
}

#[allow(clippy::uninit_vec)]
fn par_merge_sort<T, C>(data: &mut [T], cmp: &C)
where
    T: Copy + Send + Sync,
    C: Fn(&T, &T) -> Ordering + Sync,
{
    let n = data.len();
    if n <= SEQ_SORT_THRESHOLD {
        data.sort_unstable_by(|a, b| cmp(a, b));
        return;
    }
    let threads = crate::pool::num_threads();
    // Power-of-two run count keeps merge rounds regular.
    let n_runs = (4 * threads).next_power_of_two().min(n.next_power_of_two());
    let run_len = n.div_ceil(n_runs);

    // Sort runs in parallel.
    {
        let ptr = SyncMutPtr::new(data);
        global().run(n_runs, |r| {
            let start = (r * run_len).min(n);
            let end = ((r + 1) * run_len).min(n);
            if start < end {
                // SAFETY: run ranges are disjoint and in bounds.
                let run = unsafe { ptr.slice_mut(start, end - start) };
                run.sort_unstable_by(|a, b| cmp(a, b));
            }
        });
    }

    // Merge rounds, ping-ponging between `data` and a scratch buffer.
    // clippy::uninit_vec allowed at fn level: T is Copy, fully written before any read.
    let mut scratch: Vec<T> = Vec::with_capacity(n);
    // SAFETY: T is Copy (no drop); contents are fully written before reads.
    unsafe { scratch.set_len(n) };

    let mut width = run_len;
    let mut in_data = true; // current sorted runs live in `data`
    while width < n {
        {
            let (src, dst): (&[T], &mut [T]) = if in_data {
                (&*data, &mut scratch[..])
            } else {
                (&scratch[..], data)
            };
            merge_round(src, dst, width, cmp);
        }
        in_data = !in_data;
        width *= 2;
    }
    if !in_data {
        let src = SyncPtr::new(&scratch);
        let dst = SyncMutPtr::new(data);
        par_for_range(n, 1 << 15, |r| {
            // SAFETY: disjoint in-bounds copies.
            unsafe {
                let s = src.slice(r.start, r.len());
                let d = dst.slice_mut(r.start, r.len());
                d.copy_from_slice(s);
            }
        });
    }
}

/// One merge round: merge each adjacent pair of width-`width` runs from
/// `src` into `dst`. Pairs run in parallel; the merge of each pair is
/// additionally split into balanced segments by co-ranking.
fn merge_round<T, C>(src: &[T], dst: &mut [T], width: usize, cmp: &C)
where
    T: Copy + Send + Sync,
    C: Fn(&T, &T) -> Ordering + Sync,
{
    let n = src.len();
    let pair_span = 2 * width;
    let n_pairs = n.div_ceil(pair_span);
    let threads = crate::pool::num_threads();
    // Enough segments that every thread has work even with one pair left.
    let segs_per_pair = (4 * threads).div_ceil(n_pairs).max(1);

    // Flat task list over (pair, segment).
    let dst_ptr = SyncMutPtr::new(dst);
    global().run(n_pairs * segs_per_pair, |task| {
        let pair = task / segs_per_pair;
        let seg = task % segs_per_pair;
        let base = pair * pair_span;
        let a_end = (base + width).min(n);
        let b_end = (base + pair_span).min(n);
        let (a, b) = (&src[base..a_end], &src[a_end..b_end]);
        let total = a.len() + b.len();
        let seg_len = total.div_ceil(segs_per_pair);
        let o_start = (seg * seg_len).min(total);
        let o_end = ((seg + 1) * seg_len).min(total);
        if o_start >= o_end {
            return;
        }
        let (ai, bi) = co_rank(o_start, a, b, cmp);
        let (aj, bj) = co_rank(o_end, a, b, cmp);
        // SAFETY: segments split each pair's output range `base..b_end`
        // into disjoint in-bounds parts, one per task.
        let out = unsafe { dst_ptr.slice_mut(base + o_start, o_end - o_start) };
        merge_into(&a[ai..aj], &b[bi..bj], out, cmp);
    });
}

/// Find `(i, j)` with `i + j = o` such that taking `a[..i]` and `b[..j]`
/// yields the first `o` merged elements, ties taking from `a` first.
fn co_rank<T, C>(o: usize, a: &[T], b: &[T], cmp: &C) -> (usize, usize)
where
    C: Fn(&T, &T) -> Ordering + Sync,
{
    let mut lo = o.saturating_sub(b.len());
    let mut hi = o.min(a.len());
    while lo < hi {
        let i = lo + (hi - lo) / 2;
        let j = o - i;
        // Valid split requires a[i-1] <= b[j] and b[j-1] < a[i].
        if i < a.len() && j > 0 && cmp(&b[j - 1], &a[i]) != Ordering::Less {
            // Too few from a.
            lo = i + 1;
        } else if i > 0 && j < b.len() && cmp(&a[i - 1], &b[j]) == Ordering::Greater {
            // Too many from a.
            hi = i;
        } else {
            return (i, j);
        }
    }
    (lo, o - lo)
}

/// Sequential two-pointer merge with left-run tie priority.
fn merge_into<T, C>(a: &[T], b: &[T], out: &mut [T], cmp: &C)
where
    T: Copy,
    C: Fn(&T, &T) -> Ordering,
{
    debug_assert_eq!(a.len() + b.len(), out.len());
    let (mut i, mut j) = (0, 0);
    for slot in out.iter_mut() {
        let take_a = if i == a.len() {
            false
        } else if j == b.len() {
            true
        } else {
            cmp(&a[i], &b[j]) != Ordering::Greater
        };
        if take_a {
            *slot = a[i];
            i += 1;
        } else {
            *slot = b[j];
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_random(n: usize, seed: u64) -> Vec<u64> {
        (0..n)
            .map(|i| crate::utils::hash64(seed ^ i as u64))
            .collect()
    }

    #[test]
    fn small_input_sorts() {
        let mut v = vec![5u64, 3, 1, 4, 2];
        par_sort_unstable_by(&mut v, |a, b| a.cmp(b));
        assert_eq!(v, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn large_input_matches_std() {
        // Also empty, one element, and both sides of the sequential cutoff.
        let t = SEQ_SORT_THRESHOLD;
        for n in [0, 1, t - 1, t, t + 1, 300_000] {
            let mut got = pseudo_random(n, 42);
            let mut want = got.clone();
            par_sort_unstable_by(&mut got, |a, b| a.cmp(b));
            want.sort_unstable();
            assert_eq!(got, want, "n = {n}");
        }
    }

    #[test]
    fn descending_comparator() {
        let mut got = pseudo_random(100_000, 7);
        let mut want = got.clone();
        par_sort_unstable_by(&mut got, |a, b| b.cmp(a));
        want.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(got, want);
    }

    #[test]
    fn many_duplicates() {
        let mut got: Vec<u64> = (0..250_000).map(|i| (i as u64) % 3).collect();
        let mut want = got.clone();
        par_sort_unstable_by(&mut got, |a, b| a.cmp(b));
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn already_sorted_and_reversed() {
        let mut asc: Vec<u64> = (0..100_000).collect();
        let want = asc.clone();
        par_sort_unstable_by(&mut asc, |a, b| a.cmp(b));
        assert_eq!(asc, want);

        let mut desc: Vec<u64> = (0..100_000).rev().collect();
        par_sort_unstable_by(&mut desc, |a, b| a.cmp(b));
        assert_eq!(desc, want);
    }

    #[test]
    fn co_rank_splits_are_consistent() {
        let a: Vec<u64> = (0..1000).map(|i| i * 2).collect();
        let b: Vec<u64> = (0..800).map(|i| i * 3).collect();
        for o in [0usize, 1, 500, 1000, 1500, 1800] {
            let (i, j) = co_rank(o, &a, &b, &|x: &u64, y: &u64| x.cmp(y));
            assert_eq!(i + j, o);
            if i > 0 && j < b.len() {
                assert!(a[i - 1] <= b[j]);
            }
            if j > 0 && i < a.len() {
                assert!(b[j - 1] < a[i]);
            }
        }
    }
}
