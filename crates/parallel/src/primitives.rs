//! Flat data-parallel loops: `par_for`, `par_for_range`, `par_map`, and
//! `reduce` (§2.3.2 of the paper).

use crate::pool::{chunk_ranges, global};
use crate::utils::{lock_mutex, SyncMutPtr};
use std::mem::MaybeUninit;
use std::ops::Range;
use std::sync::{Mutex, PoisonError};

/// Default grain size for cheap per-element bodies.
pub const DEFAULT_GRAIN: usize = 2048;

/// Run `f` over every chunk range of `0..n` in parallel.
///
/// This is the workhorse: a chunk is claimed dynamically by one thread and
/// `f` receives the whole contiguous range, so the body can run a tight
/// sequential loop (and the compiler can vectorize it).
pub fn par_for_range<F>(n: usize, grain: usize, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    if n == 0 {
        return;
    }
    let ranges = chunk_ranges(n, grain);
    global().run(ranges.len(), |c| f(ranges[c].clone()));
}

/// Run `f(i)` for every `i` in `0..n` in parallel.
pub fn par_for<F>(n: usize, grain: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    par_for_range(n, grain, |r| {
        for i in r {
            f(i);
        }
    });
}

/// Build `vec![f(0), f(1), ..., f(n-1)]` in parallel.
pub fn par_map<T, F>(n: usize, grain: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out: Vec<MaybeUninit<T>> = Vec::with_capacity(n);
    // SAFETY: every element is initialized exactly once below before the
    // transmute; `MaybeUninit` needs no init to be set_len'd.
    unsafe { out.set_len(n) };
    let ptr = SyncMutPtr::new(&mut out);
    par_for_range(n, grain, |r| {
        for i in r {
            // SAFETY: chunk ranges are disjoint and in bounds.
            unsafe { ptr.write(i, MaybeUninit::new(f(i))) };
        }
    });
    // SAFETY: all n elements initialized; MaybeUninit<T> and T share layout.
    unsafe { std::mem::transmute::<Vec<MaybeUninit<T>>, Vec<T>>(out) }
}

/// Parallel reduction over `0..n` with an associative `combine` and
/// identity `id`. Each chunk folds sequentially; chunk results are combined
/// in submission order, so non-commutative (but associative) operations are
/// supported and the result is deterministic.
pub fn reduce<T, M, C>(n: usize, grain: usize, id: T, map: M, combine: C) -> T
where
    T: Send + Sync + Clone,
    M: Fn(usize) -> T + Sync,
    C: Fn(T, T) -> T + Sync + Send,
{
    if n == 0 {
        return id;
    }
    let ranges = chunk_ranges(n, grain);
    let partials: Mutex<Vec<Option<T>>> = Mutex::new(vec![None; ranges.len()]);
    global().run(ranges.len(), |c| {
        let mut acc = id.clone();
        for i in ranges[c].clone() {
            acc = combine(acc, map(i));
        }
        lock_mutex(&partials)[c] = Some(acc);
    });
    partials
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .map(|p| p.expect("all chunks completed"))
        .fold(id, &combine)
}

/// Max of `f(i)` over `0..n` (returns `id` for empty input).
pub fn max_u64<F>(n: usize, id: u64, f: F) -> u64
where
    F: Fn(usize) -> u64 + Sync,
{
    reduce(n, DEFAULT_GRAIN, id, f, |a, b| a.max(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn par_for_visits_all() {
        let hits: Vec<AtomicU64> = (0..513).map(|_| AtomicU64::new(0)).collect();
        par_for(513, 7, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_map_matches_sequential() {
        let got = par_map(1000, 13, |i| i * i);
        let want: Vec<usize> = (0..1000).map(|i| i * i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn par_map_handles_empty_and_one() {
        assert_eq!(par_map(0, 8, |i| i), Vec::<usize>::new());
        assert_eq!(par_map(1, 8, |i| i + 5), vec![5]);
    }

    #[test]
    fn par_map_nontrivial_type() {
        // Exercise drop-glue correctness (String allocates).
        let got = par_map(100, 3, |i| format!("x{i}"));
        assert_eq!(got[42], "x42");
        assert_eq!(got.len(), 100);
    }

    #[test]
    fn reduce_sum_and_max() {
        assert_eq!(max_u64(1000, 0, |i| (i as u64 * 37) % 991), 990);
        assert_eq!(max_u64(0, 7, |_| 100), 7);
    }

    #[test]
    fn reduce_is_deterministic_for_noncommutative() {
        // String concatenation is associative but not commutative.
        let s = reduce(64, 5, String::new(), |i| format!("{},", i), |a, b| a + &b);
        let want: String = (0..64).map(|i| format!("{i},")).collect();
        assert_eq!(s, want);
    }
}
