//! Small shared helpers: pointer wrappers for disjoint parallel writes,
//! worker-scratch pooling, poison-recovering locks, hashing, and integer
//! math.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock a mutex, recovering from poisoning: a panicked holder must not
/// wedge the pool or the serving layer that share this helper.
pub fn lock_mutex<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A free list of worker-private scratch values for flat parallel loops.
///
/// A chunk body claims a value with [`Self::with`] (created on first use),
/// works on it, and returns it, so at most one value per concurrently
/// running thread is ever allocated — the idiom the similarity kernel and
/// the triangle counter use for their accumulators and bitset probes.
///
/// If the body panics the claimed value is dropped rather than returned;
/// the pool itself stays usable.
pub struct ScratchPool<T, F: Fn() -> T> {
    make: F,
    free: Mutex<Vec<T>>,
}

impl<T, F: Fn() -> T> ScratchPool<T, F> {
    /// A pool whose values are created on demand by `make`.
    pub fn new(make: F) -> Self {
        ScratchPool {
            make,
            free: Mutex::new(Vec::new()),
        }
    }

    /// Claim a scratch value, run `f` on it, and return it to the pool.
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        // Drop the lock before running `make`: first-time values can be
        // large allocations (per-worker accumulators), and holding the
        // free-list lock through them would serialize worker startup.
        let pooled = lock_mutex(&self.free).pop();
        let mut value = pooled.unwrap_or_else(&self.make);
        let result = f(&mut value);
        lock_mutex(&self.free).push(value);
        result
    }

    /// Consume the pool, yielding every value created over its lifetime
    /// (used to reduce per-worker accumulators after a parallel loop).
    pub fn into_values(self) -> Vec<T> {
        self.free
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// A raw pointer that asserts cross-thread usability.
///
/// Used to hand a base pointer to pool workers that write *disjoint*
/// regions; every use site is responsible for disjointness.
#[derive(Clone, Copy)]
pub struct SyncMutPtr<T>(pub *mut T);
// SAFETY: the wrapper only hands `T`s to other threads to write or read
// in place, which `T: Send` allows; the unsafe accessors make callers
// keep the regions disjoint.
unsafe impl<T: Send> Send for SyncMutPtr<T> {}
// SAFETY: as for `Send`: sharing the pointer only lets threads reach
// disjoint regions through the unsafe accessors.
unsafe impl<T: Send> Sync for SyncMutPtr<T> {}

impl<T> SyncMutPtr<T> {
    #[inline]
    pub fn new(slice: &mut [T]) -> Self {
        SyncMutPtr(slice.as_mut_ptr())
    }

    /// # Safety
    /// `idx` must be in bounds and not concurrently aliased.
    #[inline]
    pub unsafe fn write(&self, idx: usize, value: T) {
        self.0.add(idx).write(value);
    }

    /// # Safety
    /// `range` must be in bounds and not concurrently aliased.
    // The `&self -> &mut` projection is this type's entire purpose: it
    // hands out disjoint mutable views from a shared raw pointer, with
    // aliasing discipline delegated to the caller (see type-level docs).
    #[allow(clippy::mut_from_ref)]
    #[inline]
    pub unsafe fn slice_mut(&self, start: usize, len: usize) -> &mut [T] {
        std::slice::from_raw_parts_mut(self.0.add(start), len)
    }
}

/// A shared-read raw pointer (for slices read by all workers).
#[derive(Clone, Copy)]
pub struct SyncPtr<T>(pub *const T);
// SAFETY: the wrapper only gives out `&T`, and `T: Sync` makes shared
// references usable from any thread, like `&[T]` itself.
unsafe impl<T: Sync> Send for SyncPtr<T> {}
// SAFETY: as for `Send`.
unsafe impl<T: Sync> Sync for SyncPtr<T> {}

impl<T> SyncPtr<T> {
    #[inline]
    pub fn new(slice: &[T]) -> Self {
        SyncPtr(slice.as_ptr())
    }

    /// # Safety
    /// `start + len` must be in bounds of the original slice.
    #[inline]
    pub unsafe fn slice(&self, start: usize, len: usize) -> &[T] {
        std::slice::from_raw_parts(self.0.add(start), len)
    }
}

/// Fast 64-bit mixing (splitmix64 finalizer). Good avalanche, not
/// cryptographic; used for hash tables, LSH seeds, and samplers.
#[inline]
pub fn hash64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Combine two words into one hash (for keyed/per-sample hashing).
#[inline]
pub fn hash64_pair(a: u64, b: u64) -> u64 {
    hash64(a ^ hash64(b).rotate_left(23))
}

/// Smallest power of two >= `n` (and >= 1).
#[inline]
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_pool_reuses_and_drains() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let created = AtomicUsize::new(0);
        let pool = ScratchPool::new(|| {
            created.fetch_add(1, Ordering::Relaxed);
            Vec::<u32>::new()
        });
        // Sequential claims reuse one value.
        for i in 0..10u32 {
            pool.with(|v| v.push(i));
        }
        assert_eq!(created.load(Ordering::Relaxed), 1);
        let values = pool.into_values();
        assert_eq!(values.len(), 1);
        assert_eq!(values[0].len(), 10);
    }

    #[test]
    fn lock_mutex_recovers_a_poisoned_lock() {
        let m = std::sync::Arc::new(Mutex::new(7));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = lock_mutex(&m2);
            panic!("poison attempt");
        })
        .join();
        assert!(m.is_poisoned());
        *lock_mutex(&m) += 1;
        assert_eq!(*lock_mutex(&m), 8);
    }

    #[test]
    fn hash64_mixes() {
        // Neighbouring inputs should differ in many bits.
        let a = hash64(1);
        let b = hash64(2);
        assert!(a != b);
        assert!((a ^ b).count_ones() > 10);
    }

    #[test]
    fn hash64_pair_depends_on_order() {
        assert_ne!(hash64_pair(1, 2), hash64_pair(2, 1));
    }

    #[test]
    fn next_pow2_basics() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(4), 4);
        assert_eq!(next_pow2(1000), 1024);
    }
}
