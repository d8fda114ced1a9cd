//! Parallel exclusive scan (prefix sums), the classic two-pass blocked
//! algorithm: per-chunk totals, a (tiny) sequential scan over chunk totals,
//! then a parallel pass writing prefixed outputs. `O(n)` work, `O(log n)`
//! span in the fork-join model (the chunk-total scan is `O(P)`).

use crate::pool::{chunk_ranges, global};
use crate::utils::{lock_mutex, SyncMutPtr};
use std::sync::{Mutex, PoisonError};

/// Exclusive prefix sum of `input`; returns `(prefixes, total)` where
/// `prefixes[i] = input[0] + ... + input[i-1]`.
pub fn exclusive_scan_usize(input: &[usize]) -> (Vec<usize>, usize) {
    let n = input.len();
    let mut out = vec![0usize; n];
    let total = exclusive_scan_into(input, &mut out);
    (out, total)
}

/// Exclusive prefix sum writing into `out`; returns the grand total.
pub fn exclusive_scan_into(input: &[usize], out: &mut [usize]) -> usize {
    assert_eq!(input.len(), out.len());
    let n = input.len();
    if n == 0 {
        return 0;
    }
    if n < 4096 {
        let mut acc = 0usize;
        for i in 0..n {
            out[i] = acc;
            acc += input[i];
        }
        return acc;
    }
    let ranges = chunk_ranges(n, 4096);
    let n_chunks = ranges.len();
    let chunk_totals: Mutex<Vec<usize>> = Mutex::new(vec![0usize; n_chunks]);
    global().run(n_chunks, |c| {
        let total: usize = input[ranges[c].clone()].iter().sum();
        lock_mutex(&chunk_totals)[c] = total;
    });
    let totals = chunk_totals
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    let mut offsets = vec![0usize; n_chunks];
    let mut acc = 0usize;
    for (c, t) in totals.iter().enumerate() {
        offsets[c] = acc;
        acc += t;
    }
    let outp = SyncMutPtr::new(out);
    global().run(n_chunks, |c| {
        let r = ranges[c].clone();
        // SAFETY: chunk ranges are in bounds and disjoint, so no other
        // chunk writes this part of `out`.
        let dst = unsafe { outp.slice_mut(r.start, r.len()) };
        let src = &input[r];
        let mut local = offsets[c];
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = local;
            local += s;
        }
    });
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle(input: &[usize]) -> (Vec<usize>, usize) {
        let mut out = Vec::with_capacity(input.len());
        let mut acc = 0;
        for &x in input {
            out.push(acc);
            acc += x;
        }
        (out, acc)
    }

    #[test]
    fn empty_and_small() {
        assert_eq!(exclusive_scan_usize(&[]), (vec![], 0));
        assert_eq!(exclusive_scan_usize(&[5]), (vec![0], 5));
        assert_eq!(exclusive_scan_usize(&[1, 2, 3]), (vec![0, 1, 3], 6));
    }

    #[test]
    fn matches_oracle_large() {
        let input: Vec<usize> = (0..100_000).map(|i| (i * 7919) % 13).collect();
        let (got, total) = exclusive_scan_usize(&input);
        let (want, want_total) = oracle(&input);
        assert_eq!(total, want_total);
        assert_eq!(got, want);
    }
}
