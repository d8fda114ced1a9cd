//! A persistent fork-join worker pool executing flat parallel loops.
//!
//! The design is deliberately minimal: a job is a closure `f(chunk_index)`
//! over `n_chunks` chunks, and workers (plus the submitting thread) race on
//! an atomic counter to claim chunks. This gives dynamic load balancing at
//! chunk granularity — the property the paper relies on for skewed
//! per-vertex/per-edge work — without the complexity of a general deque
//! scheduler. Nested parallel calls from inside a worker run sequentially,
//! which keeps every algorithm in this repository expressible as a sequence
//! of flat data-parallel phases (exactly how the GBBS implementations the
//! paper builds on structure their loops).
//!
//! A panic in a chunk does not escape the thread that ran it: the first
//! payload is kept, the chunk still counts as finished, and
//! [`ThreadPool::run`] re-throws it once every chunk has finished. So a
//! panicking job neither kills a worker nor leaves workers running a
//! closure whose frame is gone.
//!
//! # Safety
//!
//! `run` erases the lifetime of the closure so workers can hold a reference
//! to it. This is sound because `run` blocks until every chunk has completed
//! (`finished == n_chunks`), a chunk is claimed by exactly one thread
//! (`fetch_add`), and `finished` is only incremented *after* the closure
//! invocation for a claimed chunk returns or unwinds. A late-waking worker
//! can still hold the (dangling) job pointer after `run` returns, but it
//! only ever dereferences the closure for a successfully claimed chunk,
//! which can no longer happen once all chunks are taken.

use crate::utils::lock_mutex;
use std::any::Any;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

/// A lifetime-erased reference to the per-chunk closure.
#[derive(Clone, Copy)]
struct JobFn(*const (dyn Fn(usize) + Sync + 'static));
// SAFETY: the pointee is `Sync`, so calling it from any thread is sound;
// `run` keeps it alive until every chunk has finished (module docs).
unsafe impl Send for JobFn {}
// SAFETY: as for `Send`; the pointer itself is never written after creation.
unsafe impl Sync for JobFn {}

struct Job {
    func: JobFn,
    n_chunks: usize,
    /// Next chunk index to claim.
    next: AtomicUsize,
    /// Number of chunks whose closure invocation has returned or unwound.
    finished: AtomicUsize,
    /// The first panic payload of any chunk, re-thrown by `run`.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Job {
    /// Claim and execute chunks until none remain. Never unwinds: a
    /// chunk's panic is caught and kept for `run` to re-throw.
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n_chunks {
                break;
            }
            // SAFETY: the submitting thread blocks until `finished ==
            // n_chunks`, so the closure is alive for every claimed chunk.
            let f = unsafe { &*self.func.0 };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i))) {
                lock_mutex(&self.panic).get_or_insert(payload);
            }
            self.finished.fetch_add(1, Ordering::Release);
        }
    }

    fn is_done(&self) -> bool {
        self.finished.load(Ordering::Acquire) == self.n_chunks
    }
}

struct Shared {
    /// Monotonic submission counter paired with the current job.
    slot: Mutex<(u64, Option<Arc<Job>>)>,
    job_ready: Condvar,
    job_done: Condvar,
    shutdown: AtomicBool,
    /// Workers with id >= active_workers sit out (used by thread sweeps).
    active_workers: AtomicUsize,
}

/// A pool of persistent worker threads executing one flat job at a time.
pub struct ThreadPool {
    shared: Arc<Shared>,
    /// Guards submission so at most one job is in flight.
    submit: Mutex<()>,
    n_workers: usize,
}

thread_local! {
    /// Set for pool workers and for threads currently inside `run`, so
    /// nested parallel calls degrade to sequential execution.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

impl ThreadPool {
    /// Create a pool with `n_workers` background workers. Total parallelism
    /// when running a job is `n_workers + 1` (the submitter participates).
    pub fn new(n_workers: usize) -> Self {
        let shared = Arc::new(Shared {
            slot: Mutex::new((0, None)),
            job_ready: Condvar::new(),
            job_done: Condvar::new(),
            shutdown: AtomicBool::new(false),
            active_workers: AtomicUsize::new(n_workers),
        });
        for id in 0..n_workers {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("parscan-worker-{id}"))
                .spawn(move || worker_loop(id, shared))
                .expect("failed to spawn pool worker");
        }
        ThreadPool {
            shared,
            submit: Mutex::new(()),
            n_workers,
        }
    }

    /// Number of threads that participate in a job at full width.
    pub fn parallelism(&self) -> usize {
        self.n_workers + 1
    }

    /// Bound the number of participating threads to `threads` (including the
    /// submitter). Values are clamped to `[1, parallelism()]`.
    pub fn set_active_threads(&self, threads: usize) {
        let workers = threads.clamp(1, self.parallelism()) - 1;
        self.shared.active_workers.store(workers, Ordering::Relaxed);
    }

    /// Currently active thread count (including the submitter).
    pub fn active_threads(&self) -> usize {
        self.shared.active_workers.load(Ordering::Relaxed) + 1
    }

    /// Execute `f(0), f(1), ..., f(n_chunks - 1)` in parallel, blocking
    /// until all invocations complete. Chunks are claimed dynamically, so
    /// skewed per-chunk work balances across threads.
    ///
    /// If any invocation panics, the other chunks still run, and the first
    /// panic is resumed on the caller once all of them have finished.
    pub fn run<F>(&self, n_chunks: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if n_chunks == 0 {
            return;
        }
        // Sequential fallbacks: trivial jobs, nested calls, no workers.
        if n_chunks == 1 || self.n_workers == 0 || IN_POOL.with(|c| c.get()) {
            for i in 0..n_chunks {
                f(i);
            }
            return;
        }

        let _guard = lock_mutex(&self.submit);
        let f_ref: &(dyn Fn(usize) + Sync) = &f;
        // SAFETY: see module-level safety comment; `run` blocks until every
        // chunk finished, so erasing the lifetime of `f` is sound.
        let f_erased: JobFn = unsafe {
            JobFn(std::mem::transmute::<
                *const (dyn Fn(usize) + Sync),
                *const (dyn Fn(usize) + Sync + 'static),
            >(f_ref as *const _))
        };
        let job = Arc::new(Job {
            func: f_erased,
            n_chunks,
            next: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            panic: Mutex::new(None),
        });

        {
            let mut slot = lock_mutex(&self.shared.slot);
            slot.0 += 1;
            slot.1 = Some(Arc::clone(&job));
            self.shared.job_ready.notify_all();
        }

        // Participate, with nested calls collapsing to sequential. `work`
        // never unwinds, so the flag is always reset.
        IN_POOL.with(|c| c.set(true));
        job.work();
        IN_POOL.with(|c| c.set(false));

        // Wait for stragglers still finishing claimed chunks.
        if !job.is_done() {
            let mut slot = lock_mutex(&self.shared.slot);
            while !job.is_done() {
                slot = self
                    .shared
                    .job_done
                    .wait(slot)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        // Retire the job so late-waking workers do not rescan it.
        lock_mutex(&self.shared.slot).1 = None;
        let panic = lock_mutex(&job.panic).take();
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        let _slot = lock_mutex(&self.shared.slot);
        self.shared.job_ready.notify_all();
    }
}

fn worker_loop(id: usize, shared: Arc<Shared>) {
    IN_POOL.with(|c| c.set(true));
    let mut last_seen = 0u64;
    loop {
        let job = {
            let mut slot = lock_mutex(&shared.slot);
            loop {
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                if slot.0 != last_seen {
                    last_seen = slot.0;
                    if let Some(job) = slot.1.clone() {
                        if id < shared.active_workers.load(Ordering::Relaxed) {
                            break Some(job);
                        }
                    }
                    break None;
                }
                slot = shared
                    .job_ready
                    .wait(slot)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        if let Some(job) = job {
            job.work();
            if job.is_done() {
                // The submitter may be waiting on `job_done`.
                let _slot = lock_mutex(&shared.slot);
                shared.job_done.notify_all();
            }
        }
    }
}

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

/// The process-wide pool used by all primitives in this crate.
///
/// Thread count comes from `PARSCAN_THREADS` if set, otherwise from
/// [`std::thread::available_parallelism`].
pub fn global() -> &'static ThreadPool {
    GLOBAL.get_or_init(|| {
        let threads = std::env::var("PARSCAN_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&t| t >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(1)
            });
        ThreadPool::new(threads - 1)
    })
}

/// Whether the current thread is a pool worker (or is itself inside a
/// [`ThreadPool::run`] call). Nested parallel calls collapse to
/// sequential on such threads; layers that might otherwise *block* on
/// another thread's work (e.g. request coalescing in the serving layer)
/// use this to fall back to direct computation, since a blocked worker
/// stalls the whole pool.
pub fn in_pool() -> bool {
    IN_POOL.with(|c| c.get())
}

/// Number of threads the global pool currently uses per job.
pub fn num_threads() -> usize {
    global().active_threads()
}

/// Maximum parallelism of the global pool.
pub fn max_threads() -> usize {
    global().parallelism()
}

/// Bound the global pool to `threads` participating threads (incl. caller).
/// Used by the scaling experiments to sweep thread counts.
pub fn set_active_threads(threads: usize) {
    global().set_active_threads(threads);
}

/// Split `n` elements into chunk ranges of roughly `grain` elements, capped
/// so a full-width job has several chunks per thread for load balancing.
pub fn chunk_ranges(n: usize, grain: usize) -> Vec<Range<usize>> {
    let grain = grain.max(1);
    let max_chunks = 8 * num_threads();
    let n_chunks = n.div_ceil(grain).clamp(1, max_chunks.max(1));
    let base = n / n_chunks;
    let extra = n % n_chunks;
    let mut out = Vec::with_capacity(n_chunks);
    let mut start = 0;
    for i in 0..n_chunks {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_every_chunk_exactly_once() {
        let pool = ThreadPool::new(3);
        let counts: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        pool.run(1000, |i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn zero_workers_is_sequential() {
        let pool = ThreadPool::new(0);
        let sum = AtomicU64::new(0);
        pool.run(100, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 99 * 100 / 2);
    }

    #[test]
    fn nested_run_degrades_to_sequential() {
        let pool = global();
        let total = AtomicU64::new(0);
        pool.run(8, |_| {
            // Nested call executes inline on this worker.
            global().run(8, |j| {
                total.fetch_add(j as u64, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 8 * 28);
    }

    #[test]
    fn sequential_jobs_reuse_pool() {
        let pool = ThreadPool::new(2);
        for round in 0..50 {
            let sum = AtomicU64::new(0);
            pool.run(64, |i| {
                sum.fetch_add((i + round) as u64, Ordering::Relaxed);
            });
            let expected: u64 = (0..64).map(|i| (i + round) as u64).sum();
            assert_eq!(sum.load(Ordering::Relaxed), expected);
        }
    }

    #[test]
    fn active_thread_limit_is_respected_functionally() {
        let pool = ThreadPool::new(4);
        pool.set_active_threads(1);
        assert_eq!(pool.active_threads(), 1);
        let sum = AtomicU64::new(0);
        pool.run(256, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 255 * 256 / 2);
        pool.set_active_threads(usize::MAX);
        assert_eq!(pool.active_threads(), 5);
    }

    /// Run `body` on its own thread; fail, rather than hang, after 10 s.
    fn within_timeout(body: impl FnOnce() + Send + 'static) {
        use std::sync::mpsc::RecvTimeoutError::Timeout;
        let (done, finished) = std::sync::mpsc::channel();
        let body = std::thread::spawn(move || {
            body();
            done.send(())
        });
        // A panicking body drops `done`, which also ends the wait.
        let waited = finished.recv_timeout(std::time::Duration::from_secs(10));
        assert!(!matches!(waited, Err(Timeout)), "pool job hung");
        if let Err(panic) = body.join() {
            resume_unwind(panic);
        }
    }

    fn on_worker() -> bool {
        std::thread::current()
            .name()
            .is_some_and(|name| name.starts_with("parscan-worker-"))
    }

    fn wait_for(flag: &AtomicBool) {
        while !flag.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn worker_panic_reaches_the_caller_and_the_pool_stays_usable() {
        within_timeout(|| {
            let pool = ThreadPool::new(1);
            // Chunk 0 waits until the worker has run a chunk, so the worker
            // runs one whichever thread claims what. Returns chunks run.
            let job = |worker_panics: bool| {
                let (worker_ran, chunks) = (AtomicBool::new(false), AtomicUsize::new(0));
                pool.run(64, |i| {
                    if on_worker() {
                        worker_ran.store(true, Ordering::Release);
                        if worker_panics {
                            panic!("worker chunk panics");
                        }
                    } else if i == 0 {
                        wait_for(&worker_ran);
                    }
                    chunks.fetch_add(1, Ordering::Relaxed);
                });
                chunks.into_inner()
            };
            let payload = catch_unwind(AssertUnwindSafe(|| job(true)))
                .expect_err("the worker's panic must reach the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"worker chunk panics"));
            assert!(!in_pool());
            // The worker survived: a clean job runs every chunk, one of
            // them on the worker.
            assert_eq!(job(false), 64);
        });
    }

    #[test]
    fn submitter_panic_waits_for_in_flight_worker_chunks() {
        within_timeout(|| {
            let pool = ThreadPool::new(1);
            let worker_started = AtomicBool::new(false);
            let submitter_panicking = AtomicBool::new(false);
            let worker_finished = AtomicBool::new(false);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                pool.run(2, |_| {
                    if on_worker() {
                        worker_started.store(true, Ordering::Release);
                        // Stay in the chunk well after the submitter
                        // panicked: `run` must not return before this ends.
                        wait_for(&submitter_panicking);
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        worker_finished.store(true, Ordering::Release);
                    } else {
                        wait_for(&worker_started);
                        submitter_panicking.store(true, Ordering::Release);
                        panic!("submitter chunk panics");
                    }
                })
            }));
            assert!(caught.is_err());
            assert!(!in_pool(), "IN_POOL must be reset after a panic");
            assert!(
                worker_finished.load(Ordering::Acquire),
                "run returned while a worker was still in the closure"
            );
        });
    }

    #[test]
    fn chunk_ranges_cover_input() {
        for n in [0usize, 1, 7, 100, 1001] {
            for grain in [1usize, 3, 64, 10_000] {
                let ranges = chunk_ranges(n, grain);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    next = r.end;
                }
                assert_eq!(next, n);
            }
        }
    }
}
