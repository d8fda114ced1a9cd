//! Parallel filter/pack (§2.3.2): count per chunk, scan chunk counts, then
//! write each chunk's survivors at its offset. `O(n)` work, logarithmic
//! span. The predicate is evaluated exactly once per element (predicates
//! may be stateful-by-side-effect, e.g. "insert into hash set succeeded").

use crate::pool::{chunk_ranges, global};
use crate::utils::{lock_mutex, SyncMutPtr, SyncPtr};
use std::mem::MaybeUninit;
use std::sync::{Mutex, PoisonError};

/// Keep elements of `input` whose `pred` holds, preserving order.
pub fn filter<T, P>(input: &[T], pred: P) -> Vec<T>
where
    T: Copy + Send + Sync,
    P: Fn(&T) -> bool + Sync,
{
    filter_map_index(input.len(), |i| {
        let x = input[i];
        pred(&x).then_some(x)
    })
}

/// Indices `i` in `0..n` for which `pred(i)` holds, in increasing order,
/// as `u32` (the vertex-id width used throughout the repository).
pub fn pack_index_u32<P>(n: usize, pred: P) -> Vec<u32>
where
    P: Fn(usize) -> bool + Sync,
{
    filter_map_index(n, |i| pred(i).then_some(i as u32))
}

/// Order-preserving parallel `filter_map` over `0..n`, calling `f` exactly
/// once per index.
pub fn filter_map_index<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send + Sync,
    F: Fn(usize) -> Option<T> + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let ranges = chunk_ranges(n, 2048);
    let n_chunks = ranges.len();
    // Pass 1: evaluate once, buffering survivors per chunk.
    let buffers: Mutex<Vec<Vec<T>>> = Mutex::new((0..n_chunks).map(|_| Vec::new()).collect());
    global().run(n_chunks, |c| {
        let mut local = Vec::new();
        for i in ranges[c].clone() {
            if let Some(v) = f(i) {
                local.push(v);
            }
        }
        lock_mutex(&buffers)[c] = local;
    });
    let buffers = buffers.into_inner().unwrap_or_else(PoisonError::into_inner);
    let mut offsets = vec![0usize; n_chunks];
    let mut total = 0usize;
    for (c, b) in buffers.iter().enumerate() {
        offsets[c] = total;
        total += b.len();
    }
    // Pass 2: move each chunk's survivors to its final offset.
    let mut out: Vec<MaybeUninit<T>> = Vec::with_capacity(total);
    // SAFETY: fully initialized below.
    unsafe { out.set_len(total) };
    let ptr = SyncMutPtr::new(&mut out);
    let bufs = SyncPtr::new(&buffers);
    global().run(n_chunks, |c| {
        // SAFETY: reading distinct chunk buffers; writes are disjoint.
        let buffers = unsafe { bufs.slice(0, n_chunks) };
        let src = &buffers[c];
        let base = offsets[c];
        for (j, v) in src.iter().enumerate() {
            // SAFETY: each destination written exactly once; source values
            // are moved out via read() and the originals forgotten below.
            unsafe { ptr.write(base + j, MaybeUninit::new(std::ptr::read(v))) };
        }
    });
    // The values were moved out bitwise; prevent double drops.
    for mut b in buffers {
        // SAFETY: contents were moved to `out`.
        unsafe { b.set_len(0) };
    }
    // SAFETY: `total` elements initialized.
    unsafe { std::mem::transmute::<Vec<MaybeUninit<T>>, Vec<T>>(out) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_matches_sequential() {
        let input: Vec<u32> = (0..100_000)
            .map(|i| (i * 2654435761u64 % 1000) as u32)
            .collect();
        let got = filter(&input, |&x| x % 3 == 0);
        let want: Vec<u32> = input.iter().copied().filter(|&x| x % 3 == 0).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn filter_empty_and_all() {
        let input = [1u32, 2, 3];
        assert_eq!(filter(&input, |_| false), Vec::<u32>::new());
        assert_eq!(filter(&input, |_| true), vec![1, 2, 3]);
        assert_eq!(filter(&[] as &[u32], |_| true), Vec::<u32>::new());
    }

    #[test]
    fn pack_index_ordered() {
        let got = pack_index_u32(10_000, |i| i % 7 == 0);
        let want: Vec<u32> = (0..10_000u32).filter(|i| i % 7 == 0).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn filter_map_with_owning_type() {
        let got = filter_map_index(1000, |i| (i % 10 == 0).then(|| i.to_string()));
        assert_eq!(got.len(), 100);
        assert_eq!(got[3], "30");
    }

    #[test]
    fn predicate_called_exactly_once_per_element() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let calls: Vec<AtomicU32> = (0..5000).map(|_| AtomicU32::new(0)).collect();
        let _ = filter_map_index(5000, |i| {
            calls[i].fetch_add(1, Ordering::Relaxed);
            (i % 2 == 0).then_some(i)
        });
        assert!(calls.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }
}
