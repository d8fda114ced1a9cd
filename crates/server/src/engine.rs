//! The query engine: a resident `Arc<ScanIndex>` behind a result cache.
//!
//! # ε quantization
//!
//! A SCAN query's result depends on ε only through the predicate
//! `σ ≥ ε`, and the index stores finitely many distinct similarity
//! values. Sorting those distinct values into *breakpoints*
//! `s_1 < s_2 < … < s_k` partitions `[0, 1]` into equivalence classes
//! `(s_{j-1}, s_j]` (plus the class above `s_k`): every ε in a class
//! selects exactly the same ε-similar edge set, hence the same
//! clustering. The cache is keyed by the class index, so `ε = 0.50` and
//! `ε = 0.51` hit the same entry whenever no similarity value separates
//! them — which on real graphs collapses fine-grained parameter sweeps
//! onto a few dozen distinct computations.
//!
//! # Concurrency
//!
//! `ScanIndex` queries borrow the index immutably, so any number of
//! sessions may query one engine at once; the cache serializes only
//! per-shard map updates. Counters are relaxed atomics.
//!
//! # In-flight coalescing
//!
//! The cache alone leaves one gap: two sessions that miss on the same
//! `(μ, ε-class)` *simultaneously* would both compute the clustering,
//! because neither result is cached yet when the second arrives. The
//! engine closes it with a per-key in-flight table: the first cold miss
//! (the *leader*) registers a once-cell slot, computes, and publishes;
//! every concurrent miss on the same key (a *follower*) waits on the
//! slot instead of recomputing — blocking in [`QueryEngine::cluster`],
//! by callback in [`QueryEngine::cluster_deferred`]. Followers are
//! counted as cache hits (they did not compute) and additionally as
//! [`EngineStats::coalesced_waits`]. A follower whose leader dies is
//! answered at once: `cluster_deferred` reports the abandonment, and
//! `cluster` computes directly.
//!
//! # Live mutation: epoch publishing
//!
//! [`QueryEngine::apply_update`] splices a [`BatchUpdate`] into the
//! resident index via the core crate's incremental maintenance and
//! *publishes* the result: the engine holds its index inside an
//! epoch-stamped, swappable cell (`Published`, behind an `RwLock`
//! whose write section is two pointer stores). Every query path takes
//! one snapshot `Arc` up front and uses it throughout, so in-flight
//! readers finish on the epoch they started on — a writer never blocks
//! them and never tears their view. Writers serialize among themselves
//! on a separate mutex; the heavy lifting (similarity recomputation,
//! order and breakpoint patches) runs on the shared worker pool
//! *outside* any lock the read path takes.
//!
//! Cache entries are keyed by epoch, and an update invalidates
//! *selectively*: a clustering at `(μ, ε)` depends only on edges with
//! `σ ≥ ε`, so every cached ε-class whose interval lies entirely above
//! the update's [affected-similarity ceiling](parscan_core::ApplyOutcome::max_affected_similarity)
//! is still correct. Those entries are re-keyed to the new epoch (their
//! class index remapped through the new breakpoint table); everything
//! else is dropped. Late inserts from readers still on the old epoch
//! land under old-epoch keys, which no new reader can form — they age
//! out of the LRU instead of ever being served stale.

use crate::cache::ShardedLru;
use crate::coalesce::{Cell, Coalescer, Entry};
use crate::{lock_mutex, read_lock, write_lock};
use parscan_core::{
    apply_batch_diff, BatchUpdate, BorderAssignment, Clustering, QueryOptions, QueryParams,
    ScanIndex, VertexProbe,
};
use parscan_graph::VertexId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Engine construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Maximum number of cached clusterings (each `O(n)` memory).
    pub cache_capacity: usize,
    /// Number of independently locked cache shards.
    pub cache_shards: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            cache_capacity: 128,
            cache_shards: 8,
        }
    }
}

/// Served queries assign borders deterministically, so identical
/// requests always receive identical answers (cached or not).
const BORDER: BorderAssignment = BorderAssignment::MostSimilar;

/// Cache key: the publication epoch, μ, and the ε equivalence class.
/// Keying by epoch makes entries from superseded indexes unreachable the
/// moment a new epoch publishes — even a racing insert from a reader
/// that snapshotted the old epoch can only create a key no current
/// reader asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct CacheKey {
    epoch: u64,
    mu: u32,
    eps_class: u32,
}

/// One immutable publication of the serving state: the index and the
/// epoch stamp. Readers clone the `Arc` once per request and never look
/// back at the engine's cell.
struct Published {
    index: Arc<ScanIndex>,
    epoch: u64,
}

impl Published {
    /// Sorted distinct similarity values (the ε breakpoints): the
    /// index's own table, which [`QueryEngine::new`] forces and a batch
    /// update patches, so reading it never sorts.
    fn breakpoints(&self) -> &[f32] {
        self.index.similarities().breakpoints()
    }

    fn snap_epsilon(&self, epsilon: f32) -> (u32, f32) {
        let breakpoints = self.breakpoints();
        let class = breakpoints.partition_point(|&s| s < epsilon);
        let snapped = breakpoints.get(class).copied().unwrap_or(epsilon);
        (class as u32, snapped)
    }

    /// The cache key for `params` against this publication, and the
    /// class's canonical ε.
    fn key(&self, params: QueryParams) -> (CacheKey, f32) {
        let (eps_class, eps_snapped) = self.snap_epsilon(params.epsilon);
        let key = CacheKey {
            epoch: self.epoch,
            mu: params.mu,
            eps_class,
        };
        (key, eps_snapped)
    }
}

/// One clustering request bound to one publication. The snapshot is
/// taken and the cache key formed exactly once, here, so a concurrent
/// update can never mix state from two publications inside one query.
struct Query {
    published: Arc<Published>,
    params: QueryParams,
    key: CacheKey,
    eps_snapped: f32,
    start: Instant,
}

impl Query {
    fn new(published: Arc<Published>, params: QueryParams) -> Query {
        let start = Instant::now();
        let (key, eps_snapped) = published.key(params);
        Query {
            published,
            params,
            key,
            eps_snapped,
            start,
        }
    }

    fn outcome(
        &self,
        clustering: Arc<Clustering>,
        cached: bool,
        coalesced: bool,
    ) -> ClusterOutcome {
        ClusterOutcome {
            clustering,
            cached,
            coalesced,
            micros: self.start.elapsed().as_micros() as u64,
            eps_class: self.key.eps_class,
            eps_snapped: self.eps_snapped,
            epoch: self.key.epoch,
        }
    }
}

/// Where [`QueryEngine::lookup`] left a request.
enum Lookup {
    /// Answered: a cache hit, or a computation this caller led.
    Done(ClusterOutcome),
    /// Another caller is computing the same key. The adapter waits on
    /// the cell — by blocking or by callback — and settles the request
    /// with [`QueryEngine::follow`].
    Follow(Arc<Cell<Arc<Clustering>>>, Query),
}

/// Monotonically increasing serving counters.
#[derive(Default)]
struct Counters {
    cluster_requests: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    coalesced_waits: AtomicU64,
    probe_requests: AtomicU64,
    compute_micros: AtomicU64,
    updates_applied: AtomicU64,
    cache_invalidated: AtomicU64,
    cache_retained: AtomicU64,
}

/// A point-in-time copy of the engine's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    pub cluster_requests: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Requests that arrived while an identical `(μ, ε-class)` query was
    /// already computing and waited for its result instead of recomputing.
    /// Each such wait is also counted in `cache_hits` (the request was
    /// answered without a computation), so the
    /// `cluster_requests == cache_hits + cache_misses` ledger still holds.
    pub coalesced_waits: u64,
    pub probe_requests: u64,
    /// Cumulative wall-clock microseconds spent computing cache misses.
    pub compute_micros: u64,
    pub cache_len: usize,
    pub cache_capacity: usize,
    /// The currently published index epoch (0 until the first mutation).
    pub epoch: u64,
    /// Mutation batches that changed the index (no-op batches excluded).
    pub updates_applied: u64,
    /// Cache entries dropped by updates (their ε-class similarities changed).
    pub cache_invalidated: u64,
    /// Cache entries that survived updates (ε-class provably unaffected).
    pub cache_retained: u64,
}

impl EngineStats {
    /// Fraction of cluster requests answered from the cache (0 when none
    /// have been served).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Outcome of one served clustering query.
#[derive(Clone, Debug)]
pub struct ClusterOutcome {
    pub clustering: Arc<Clustering>,
    /// Whether the answer came from the cache.
    pub cached: bool,
    /// Whether this request waited on another session's in-flight
    /// computation of the same `(μ, ε-class)` (implies `cached`).
    pub coalesced: bool,
    /// Wall-clock microseconds this call spent (≈0 for hits).
    pub micros: u64,
    /// The ε equivalence class index (see module docs).
    pub eps_class: u32,
    /// The class's canonical ε — the smallest breakpoint ≥ the requested
    /// ε, or the request itself when ε exceeds every similarity.
    pub eps_snapped: f32,
    /// The index epoch this query ran against.
    pub epoch: u64,
}

/// Outcome of one [`QueryEngine::apply_update`] call.
#[derive(Clone, Copy, Debug)]
pub struct UpdateOutcome {
    /// The epoch now serving (unchanged when `changed` is false).
    pub epoch: u64,
    /// Whether the batch changed the index at all. An effectively empty
    /// batch (every op a no-op) publishes nothing and keeps every cache
    /// entry.
    pub changed: bool,
    /// Effective structural insertions / deletions / weight replacements.
    pub inserted: usize,
    pub deleted: usize,
    pub reweighted: usize,
    /// Canonical edges whose similarity changed.
    pub changed_edges: usize,
    /// Cache entries dropped because their ε-class was affected.
    pub cache_dropped: usize,
    /// Cache entries retained (re-keyed to the new epoch).
    pub cache_kept: usize,
    /// Graph size after the update.
    pub n: usize,
    pub m: usize,
    /// Wall-clock microseconds spent applying (incremental maintenance +
    /// publication + cache surgery).
    pub micros: u64,
}

/// A resident index serving concurrent `(μ, ε)` queries through a
/// quantized result cache.
pub struct QueryEngine {
    /// The epoch-stamped serving state. Readers take the read lock for
    /// exactly one `Arc` clone; writers swap the `Arc` under the write
    /// lock — two pointer stores, so the swap never stalls the read path
    /// behind index construction.
    published: RwLock<Arc<Published>>,
    /// Serializes mutators ([`Self::apply_update`]) against each other
    /// without touching the read path.
    update_lock: Mutex<()>,
    cache: ShardedLru<CacheKey, Arc<Clustering>>,
    /// Keys whose clustering is being computed right now; see the module
    /// docs on in-flight coalescing.
    inflight: Coalescer<CacheKey, Arc<Clustering>>,
    counters: Counters,
}

impl std::fmt::Debug for QueryEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let p = self.published();
        f.debug_struct("QueryEngine")
            .field("vertices", &p.index.graph().num_vertices())
            .field("edges", &p.index.graph().num_edges())
            .field("breakpoints", &p.breakpoints().len())
            .field("epoch", &p.epoch)
            .finish_non_exhaustive()
    }
}

impl QueryEngine {
    pub fn new(index: Arc<ScanIndex>, config: EngineConfig) -> Self {
        // Force the ε breakpoints here, so that no query — least of all a
        // cached CLUSTER probed on the reactor thread — pays their sort.
        // Freshly built indexes compute them with a radix sort; indexes
        // loaded from a v2 snapshot carry them as a persisted section, so
        // installing a warm-booted graph is sort-free.
        index.similarities().breakpoints();
        QueryEngine {
            published: RwLock::new(Arc::new(Published { index, epoch: 0 })),
            update_lock: Mutex::new(()),
            cache: ShardedLru::new(config.cache_capacity, config.cache_shards),
            inflight: Coalescer::new(),
            counters: Counters::default(),
        }
    }

    /// One consistent snapshot of the serving state.
    fn published(&self) -> Arc<Published> {
        Arc::clone(&read_lock(&self.published))
    }

    /// The currently published index. Callers get an owned `Arc`
    /// snapshot: it stays valid (and internally consistent) for as long
    /// as they hold it, even across concurrent [`Self::apply_update`]s.
    #[inline]
    pub fn index(&self) -> Arc<ScanIndex> {
        Arc::clone(&self.published().index)
    }

    /// The currently published epoch (0 until the first mutation).
    pub fn epoch(&self) -> u64 {
        self.published().epoch
    }

    /// Number of ε equivalence classes (distinct similarity values).
    pub fn num_breakpoints(&self) -> usize {
        self.published().breakpoints().len()
    }

    /// Snap ε to its equivalence class: the class index and its
    /// canonical (largest-result-preserving) representative.
    pub fn snap_epsilon(&self, epsilon: f32) -> (u32, f32) {
        self.published().snap_epsilon(epsilon)
    }

    /// Serve one clustering query through the cache, blocking while an
    /// identical in-flight computation finishes. If that computation's
    /// leader dies, this call (which has no error channel) computes
    /// directly instead; the request still counts as one miss.
    pub fn cluster(&self, params: QueryParams) -> ClusterOutcome {
        match self.lookup(params) {
            Lookup::Done(outcome) => outcome,
            Lookup::Follow(cell, query) => self.follow(&query, cell.wait()).unwrap_or_else(|| {
                let clustering = self.compute(&query.published.index, query.params);
                query.outcome(clustering, false, false)
            }),
        }
    }

    /// [`Self::cluster`] for the reactor's workers: `notify` runs exactly
    /// once — inline for cache hits and led computations, later on the
    /// leader's thread when this request follows an in-flight one — so a
    /// worker never parks on another request's progress. `None` means
    /// the leader died (it panicked); the caller answers with a
    /// retryable error instead of re-running the work on whatever thread
    /// the cancellation fired on.
    pub fn cluster_deferred(
        self: &Arc<Self>,
        params: QueryParams,
        notify: impl FnOnce(Option<ClusterOutcome>) + Send + 'static,
    ) {
        match self.lookup(params) {
            Lookup::Done(outcome) => notify(Some(outcome)),
            Lookup::Follow(cell, query) => {
                let engine = Arc::clone(self);
                cell.on_ready(move |result| notify(engine.follow(&query, result)));
            }
        }
    }

    /// The cache-only half of [`Self::lookup`]: answer `params` if its
    /// key is cached, counting one request and one hit; on a miss count
    /// nothing and return `None`. O(1) whatever the graph size, which is
    /// why the reactor may call it on its own thread
    /// ([`answer_now`](crate::server::answer_now)).
    pub(crate) fn cached(&self, params: QueryParams) -> Option<ClusterOutcome> {
        self.hit(&Query::new(self.published(), params))
    }

    fn hit(&self, query: &Query) -> Option<ClusterOutcome> {
        let clustering = self.cache.get(&query.key)?;
        self.counters
            .cluster_requests
            .fetch_add(1, Ordering::Relaxed);
        self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
        Some(query.outcome(clustering, true, false))
    }

    /// The one clustering path behind both adapters. Starts with the
    /// cache-only probe ([`Self::cached`]); only a miss counts the
    /// request here and touches the in-flight table, which re-probes
    /// under its lock (a leader publishes to the cache before
    /// deregistering, so a miss there with no registered cell proves
    /// nobody is, or was just, computing this key). The caller then
    /// leads the computation or follows the one already running.
    ///
    /// Ledger: every request is a hit or a miss once settled, so
    /// `cluster_requests == cache_hits + cache_misses` holds — except
    /// for a leader whose computation panics, which counts only in
    /// `cluster_requests`.
    fn lookup(&self, params: QueryParams) -> Lookup {
        let query = Query::new(self.published(), params);
        if let Some(outcome) = self.hit(&query) {
            return Lookup::Done(outcome);
        }
        self.counters
            .cluster_requests
            .fetch_add(1, Ordering::Relaxed);
        // Pool workers must never block on another thread's computation:
        // the leader may itself need the (single, global) pool for its
        // query phases, and a worker parked on a follower cell stalls its
        // whole job — a circular wait that would hang every query in the
        // process. Workers therefore compute directly: a rare duplicate
        // computation instead of a possible deadlock.
        let guard = if parscan_parallel::pool::in_pool() {
            None
        } else {
            match self
                .inflight
                .enter_with(query.key, || self.cache.get(&query.key))
            {
                // Published between the probe and the table lock.
                Ok(hit) => {
                    self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                    return Lookup::Done(query.outcome(hit, true, false));
                }
                Err(Entry::Follower(cell)) => return Lookup::Follow(cell, query),
                Err(Entry::Leader(guard)) => Some(guard),
            }
        };
        // Lead: compute, publish to the cache, then deregister and wake
        // followers through the guard, which cancels the cell instead if
        // the computation unwinds.
        let clustering = self.compute(&query.published.index, query.params);
        self.cache.insert(query.key, Arc::clone(&clustering));
        if let Some(guard) = guard {
            guard.publish(Arc::clone(&clustering));
        }
        self.counters.cache_misses.fetch_add(1, Ordering::Relaxed);
        Lookup::Done(query.outcome(clustering, false, false))
    }

    /// Settle a follower once its leader's cell resolves. A coalesced
    /// wait is a hit (answered without computing) that also moves
    /// `coalesced_waits`; a follower whose leader died is a miss and
    /// gets `None`.
    fn follow(&self, query: &Query, result: Option<Arc<Clustering>>) -> Option<ClusterOutcome> {
        match result {
            Some(clustering) => {
                self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                self.counters
                    .coalesced_waits
                    .fetch_add(1, Ordering::Relaxed);
                Some(query.outcome(clustering, true, true))
            }
            None => {
                self.counters.cache_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Run the clustering computation itself against one publication's
    /// index, adding its wall time to `compute_micros`.
    fn compute(&self, index: &ScanIndex, params: QueryParams) -> Arc<Clustering> {
        let start = Instant::now();
        // Torture hook: a `panic` policy here is how tests kill a
        // coalescing leader mid-computation; a `delay` policy is how
        // they park a worker. Error policies have no channel at this
        // site and are ignored.
        let _ = failpoint::check("engine.compute");
        let opts = QueryOptions {
            border: BORDER,
            ..Default::default()
        };
        let clustering = index.cluster_with_opts(params, opts);
        self.counters
            .compute_micros
            .fetch_add(start.elapsed().as_micros() as u64, Ordering::Relaxed);
        Arc::new(clustering)
    }

    /// Apply a batch of edge mutations and publish the updated index as
    /// a new epoch. See the module docs: in-flight readers finish on
    /// their snapshot, unaffected cache ε-classes survive (re-keyed),
    /// affected ones are dropped. Concurrent writers serialize; readers
    /// are never blocked by any phase of this call.
    ///
    /// An effectively empty batch (every op a no-op against the current
    /// graph) is detected before any recomputation and reported with
    /// `changed: false` — the epoch and the cache stay as they were.
    ///
    /// Errors on out-of-range endpoints (mutations cannot grow the
    /// vertex set).
    pub fn apply_update(&self, batch: &BatchUpdate) -> Result<UpdateOutcome, String> {
        let start = Instant::now();
        let _writers = lock_mutex(&self.update_lock);
        let current = self.published();
        let n = current.index.graph().num_vertices();
        if let Some(max) = batch.max_endpoint() {
            if max as usize >= n {
                return Err(format!("edge endpoint {max} out of range (n = {n})"));
            }
        }
        let Some(diff) = apply_batch_diff(&current.index, batch) else {
            return Ok(UpdateOutcome {
                epoch: current.epoch,
                changed: false,
                inserted: 0,
                deleted: 0,
                reweighted: 0,
                changed_edges: 0,
                cache_dropped: 0,
                cache_kept: self.cache.len(),
                n,
                m: current.index.graph().num_edges(),
                micros: start.elapsed().as_micros() as u64,
            });
        };
        // The update patched the new index's breakpoints from the old
        // table, so publishing sorts nothing.
        let next = Arc::new(Published {
            epoch: current.epoch + 1,
            index: Arc::new(diff.index),
        });
        let (next_n, next_m) = (
            next.index.graph().num_vertices(),
            next.index.graph().num_edges(),
        );
        // Publish before touching the cache: from this instant new
        // readers snapshot the new epoch and can only form new-epoch
        // keys, so nothing they do can resurrect a stale entry.
        *write_lock(&self.published) = Arc::clone(&next);

        // Selective invalidation. θ bounds the reach of the update: every
        // changed edge has old and new similarity ≤ θ, so an ε-class
        // whose interval lower bound is ≥ θ selects identical ε-similar
        // edge sets before and after — its cached clustering is still
        // exact. Breakpoint values above θ are identical in both tables
        // (only scores ≤ θ changed), so surviving classes remap by
        // locating their old upper-bound breakpoint in the new table.
        let theta = diff.max_affected_similarity;
        let (old_bp, new_bp) = (current.breakpoints(), next.breakpoints());
        let (dropped, kept) = self.cache.rekey(|key| {
            if key.epoch != current.epoch {
                // A stray from an even older epoch (racing reader insert
                // that lost an earlier rekey): unreachable, drop it.
                return None;
            }
            let class = key.eps_class as usize;
            let keep = match theta {
                // The graph changed but no similarity did (a weight
                // replacement landing on identical scores): every
                // clustering is unaffected.
                None => true,
                Some(theta) => match class.checked_sub(1).and_then(|c| old_bp.get(c)) {
                    Some(&lower) => lower >= theta,
                    // Class 0 reaches down to ε = 0; θ > 0 always
                    // overlaps it.
                    None => false,
                },
            };
            if !keep {
                return None;
            }
            let eps_class = match old_bp.get(class) {
                // Interior class: its upper-bound breakpoint survives
                // verbatim in the new table; find it there.
                Some(&upper) => new_bp.partition_point(|&s| s < upper) as u32,
                // The class above every similarity maps to its
                // counterpart.
                None => new_bp.len() as u32,
            };
            Some(CacheKey {
                epoch: next.epoch,
                eps_class,
                ..*key
            })
        });
        self.counters
            .updates_applied
            .fetch_add(1, Ordering::Relaxed);
        self.counters
            .cache_invalidated
            .fetch_add(dropped as u64, Ordering::Relaxed);
        self.counters
            .cache_retained
            .fetch_add(kept as u64, Ordering::Relaxed);
        Ok(UpdateOutcome {
            epoch: next.epoch,
            changed: true,
            inserted: diff.inserted,
            deleted: diff.deleted,
            reweighted: diff.reweighted,
            changed_edges: diff.changed_edges,
            cache_dropped: dropped,
            cache_kept: kept,
            n: next_n,
            m: next_m,
            micros: start.elapsed().as_micros() as u64,
        })
    }

    /// The cheap per-vertex lookup path ([`ScanIndex::probe_vertex`]):
    /// degree-bounded work, never touches the cache.
    pub fn probe(&self, vertex: VertexId, params: QueryParams) -> Result<VertexProbe, String> {
        self.counters.probe_requests.fetch_add(1, Ordering::Relaxed);
        let index = self.index();
        let n = index.graph().num_vertices();
        if (vertex as usize) >= n {
            return Err(format!("vertex {vertex} out of range (n = {n})"));
        }
        Ok(index.probe_vertex(vertex, params))
    }

    /// Modularity-scored sweep over the (μ, ε) grid with the given ε
    /// step, returning the best parameters. The grid is
    /// [`SweepGrid::stepped`](parscan_core::SweepGrid::stepped), the one
    /// grid definition shared with `parscan sweep`. Grid points run
    /// through the cache only when the whole grid fits in half its
    /// capacity — a full sweep through a small cache would evict every
    /// hot entry other sessions rely on — so "repeated sweeps are hits"
    /// holds exactly when caching them is harmless. The whole grid runs against one snapshot, and its
    /// queries never move the client-facing request/hit/miss counters
    /// (only `compute_micros`).
    ///
    /// `eps_step` is bounded below (0.005, ≤ 199 ε points) because this
    /// runs on behalf of untrusted network clients: an arbitrarily small
    /// step would turn one request line into an unbounded computation.
    pub fn sweep_best(&self, eps_step: f32) -> Result<SweepBest, String> {
        if !(0.005..1.0).contains(&eps_step) {
            return Err(format!("eps_step must be in [0.005, 1), got {eps_step}"));
        }
        let published = self.published();
        let g = published.index.graph();
        let points = parscan_core::SweepGrid::stepped(g.max_degree() as u32 + 1, eps_step).points();
        let use_cache = points.len() <= self.cache.capacity() / 2;
        let mut best: Option<SweepBest> = None;
        for params in points {
            let (key, _) = published.key(params);
            let cached = use_cache.then(|| self.cache.get(&key)).flatten();
            let c = cached.unwrap_or_else(|| {
                let c = self.compute(&published.index, params);
                if use_cache {
                    self.cache.insert(key, Arc::clone(&c));
                }
                c
            });
            let score = if c.num_clusters() == 0 {
                f64::NEG_INFINITY
            } else {
                parscan_metrics::modularity(g, &c.labels_with_singletons())
            };
            let better = best.as_ref().is_none_or(|b| score > b.modularity);
            if better && score.is_finite() {
                best = Some(SweepBest {
                    mu: params.mu,
                    epsilon: params.epsilon,
                    modularity: score,
                    num_clusters: c.num_clusters(),
                    num_clustered: c.num_clustered(),
                });
            }
        }
        best.ok_or_else(|| "sweep found no non-empty clustering".to_string())
    }

    /// Snapshot the serving counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            cluster_requests: self.counters.cluster_requests.load(Ordering::Relaxed),
            cache_hits: self.counters.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.counters.cache_misses.load(Ordering::Relaxed),
            coalesced_waits: self.counters.coalesced_waits.load(Ordering::Relaxed),
            probe_requests: self.counters.probe_requests.load(Ordering::Relaxed),
            compute_micros: self.counters.compute_micros.load(Ordering::Relaxed),
            cache_len: self.cache.len(),
            cache_capacity: self.cache.capacity(),
            epoch: self.epoch(),
            updates_applied: self.counters.updates_applied.load(Ordering::Relaxed),
            cache_invalidated: self.counters.cache_invalidated.load(Ordering::Relaxed),
            cache_retained: self.counters.cache_retained.load(Ordering::Relaxed),
        }
    }
}

/// Best point found by [`QueryEngine::sweep_best`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepBest {
    pub mu: u32,
    pub epsilon: f32,
    pub modularity: f64,
    pub num_clusters: usize,
    pub num_clustered: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use parscan_core::IndexConfig;
    use parscan_graph::generators;

    fn engine(capacity: usize) -> QueryEngine {
        let (g, _) = generators::planted_partition(300, 5, 10.0, 1.0, 42);
        let index = Arc::new(ScanIndex::build(g, IndexConfig::default()));
        QueryEngine::new(
            index,
            EngineConfig {
                cache_capacity: capacity,
                cache_shards: 2,
            },
        )
    }

    #[test]
    fn equivalent_epsilons_share_a_cache_entry() {
        let e = engine(64);
        // 0.5 and its snapped breakpoint are distinct ε values in the
        // same equivalence class (unless 0.5 is itself a breakpoint, in
        // which case they coincide — the assertion still holds).
        let (c1, s1) = e.snap_epsilon(0.5);
        let (c2, s2) = e.snap_epsilon(s1);
        assert_eq!(c1, c2, "ε and its snapped value share a class");
        assert_eq!(s1, s2);

        let a = e.cluster(QueryParams::new(3, 0.5));
        assert!(!a.cached);
        let b = e.cluster(QueryParams::new(3, s1));
        assert!(b.cached, "snapped ε must hit the same entry");
        assert!(Arc::ptr_eq(&a.clustering, &b.clustering));
        assert_eq!(e.stats().cache_hits, 1);
        assert_eq!(e.stats().cache_misses, 1);
    }

    #[test]
    fn snapping_preserves_results() {
        let e = engine(256);
        // A snapped ε must produce the identical clustering when queried
        // directly against the index.
        for eps in [0.05f32, 0.21, 0.37, 0.5, 0.74, 0.99] {
            let (_, snapped) = e.snap_epsilon(eps);
            let direct_raw = e
                .index()
                .cluster_with(QueryParams::new(3, eps), BorderAssignment::MostSimilar);
            let direct_snapped = e
                .index()
                .cluster_with(QueryParams::new(3, snapped), BorderAssignment::MostSimilar);
            assert_eq!(direct_raw, direct_snapped, "class of ε={eps} not exact");
        }
    }

    #[test]
    fn cache_hits_return_identical_results() {
        let e = engine(64);
        let p = QueryParams::new(4, 0.4);
        let cold = e.cluster(p);
        let hot = e.cluster(p);
        assert!(!cold.cached);
        assert!(hot.cached);
        assert!(Arc::ptr_eq(&cold.clustering, &hot.clustering));
        let direct = e.index().cluster_with(p, BorderAssignment::MostSimilar);
        assert_eq!(*cold.clustering, direct);
    }

    #[test]
    fn cache_only_probe_counts_a_request_only_when_it_hits() {
        let e = engine(16);
        let p = QueryParams::new(3, 0.4);
        let before = e.stats();
        assert!(e.cached(p).is_none());
        assert_eq!(e.stats(), before, "a miss counts nothing");

        let cold = e.cluster(p);
        let before = e.stats();
        let hit = e.cached(p).expect("cached after the miss");
        assert!(hit.cached && !hit.coalesced);
        assert!(Arc::ptr_eq(&hit.clustering, &cold.clustering));
        assert_eq!(
            (hit.eps_class, hit.eps_snapped, hit.epoch),
            (cold.eps_class, cold.eps_snapped, cold.epoch)
        );
        let after = e.stats();
        assert_eq!(after.cluster_requests, before.cluster_requests + 1);
        assert_eq!(after.cache_hits, before.cache_hits + 1);
        let unchanged = EngineStats {
            cluster_requests: before.cluster_requests,
            cache_hits: before.cache_hits,
            ..after
        };
        assert_eq!(unchanged, before, "a hit moves only requests and hits");
        assert_eq!(
            after.cluster_requests,
            after.cache_hits + after.cache_misses
        );
    }

    #[test]
    fn eviction_keeps_engine_correct() {
        let e = engine(2); // tiny cache forces evictions
        let params: Vec<QueryParams> = (1..=8)
            .map(|i| QueryParams::new(2, i as f32 / 10.0))
            .collect();
        let first: Vec<_> = params.iter().map(|&p| e.cluster(p).clustering).collect();
        // Re-query in the same order: most entries were evicted, but every
        // answer must still be correct.
        for (p, want) in params.iter().zip(&first) {
            let again = e.cluster(*p);
            assert_eq!(*again.clustering, **want, "params {p:?}");
        }
        let stats = e.stats();
        assert!(stats.cache_len <= stats.cache_capacity);
        assert!(stats.cache_misses >= 8, "evictions must force recomputes");
    }

    #[test]
    fn probe_validates_vertex_range() {
        let e = engine(8);
        assert!(e.probe(0, QueryParams::new(2, 0.5)).is_ok());
        assert!(e.probe(10_000, QueryParams::new(2, 0.5)).is_err());
        assert_eq!(e.stats().probe_requests, 2);
    }

    #[test]
    fn sweep_best_finds_community_structure() {
        let e = engine(512);
        let best = e.sweep_best(0.1).expect("planted graph has structure");
        assert!(best.modularity > 0.3, "modularity {}", best.modularity);
        assert!(best.num_clusters >= 2);
        // The sweep populated the cache: re-running is all hits.
        let before = e.stats();
        let again = e.sweep_best(0.1).unwrap();
        let after = e.stats();
        assert_eq!(best, again);
        assert_eq!(after.cache_misses, before.cache_misses);
    }

    #[test]
    fn sweep_best_matches_the_core_sweep_on_the_stepped_grid() {
        let e = engine(512);
        let index = e.index();
        let g = index.graph();
        let grid = parscan_core::SweepGrid::stepped(g.max_degree() as u32 + 1, 0.05);
        let result = parscan_core::sweep::sweep(&index, &grid, |c| {
            if c.num_clusters() == 0 {
                f64::NEG_INFINITY
            } else {
                parscan_metrics::modularity(g, &c.labels_with_singletons())
            }
        });
        let best = e.sweep_best(0.05).expect("planted graph has structure");
        assert_eq!(
            (best.mu, best.epsilon, best.modularity),
            (
                result.best_params().mu,
                result.best_params().epsilon,
                result.best_score()
            )
        );
    }

    #[test]
    fn counters_reconcile_after_mixed_traffic() {
        // `cluster_requests == cache_hits + cache_misses` must survive
        // sweeps: internal grid queries are not client traffic.
        let e = engine(512);
        e.cluster(QueryParams::new(2, 0.3));
        e.sweep_best(0.1).unwrap();
        e.cluster(QueryParams::new(2, 0.3));
        e.cluster(QueryParams::new(3, 0.6));
        let s = e.stats();
        assert_eq!(s.cluster_requests, 3);
        assert_eq!(s.cluster_requests, s.cache_hits + s.cache_misses);
    }

    #[test]
    fn sweep_on_a_small_cache_does_not_evict_hot_entries() {
        // Grid (≈45 points) far exceeds half this cache's capacity, so
        // the sweep must bypass the cache entirely.
        let e = engine(4);
        let hot = QueryParams::new(3, 0.4);
        e.cluster(hot);
        let before = e.stats();
        e.sweep_best(0.1).expect("sweep");
        let after = e.stats();
        assert_eq!(
            before.cache_misses, after.cache_misses,
            "sweep must not touch the cache at this capacity"
        );
        assert!(after.cache_len <= after.cache_capacity);
        // The previously hot entry survived the sweep.
        assert!(e.cluster(hot).cached, "hot entry was evicted by a sweep");
    }

    #[test]
    fn concurrent_cold_misses_coalesce_to_one_computation() {
        let e = engine(64);
        const THREADS: usize = 8;
        let barrier = std::sync::Barrier::new(THREADS);
        let outcomes: Vec<ClusterOutcome> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let (e, barrier) = (&e, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        e.cluster(QueryParams::new(3, 0.4))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Exactly one underlying computation, no matter how the threads
        // interleave: the in-flight table guarantees every concurrent
        // miss either follows the leader or hits the published entry.
        let s = e.stats();
        assert_eq!(s.cache_misses, 1, "{s:?}");
        assert_eq!(s.cache_hits, (THREADS - 1) as u64, "{s:?}");
        assert_eq!(s.cluster_requests, THREADS as u64);
        assert!(s.coalesced_waits <= (THREADS - 1) as u64);
        // Every thread got the same allocation, and exactly one outcome
        // reports having computed.
        for o in &outcomes[1..] {
            assert!(Arc::ptr_eq(&outcomes[0].clustering, &o.clustering));
        }
        assert_eq!(outcomes.iter().filter(|o| !o.cached).count(), 1);
        for o in &outcomes {
            assert!(!o.coalesced || o.cached, "coalesced implies cached");
        }
    }

    #[test]
    fn pool_workers_bypass_coalescing_and_stay_correct() {
        use parscan_parallel::primitives::par_map;
        let e = engine(64);
        // Identical cold queries issued from inside pool workers: they
        // must not register on (or wait for) the in-flight table — a
        // blocked worker would stall its whole job and can deadlock
        // against a leader that needs the pool — yet every result must
        // agree and the hit/miss ledger must stay consistent.
        let outcomes: Vec<ClusterOutcome> = par_map(6, 1, |_| e.cluster(QueryParams::new(3, 0.4)));
        for o in &outcomes[1..] {
            assert_eq!(*o.clustering, *outcomes[0].clustering);
            assert!(!o.coalesced, "workers must not wait on in-flight slots");
        }
        let s = e.stats();
        assert_eq!(s.cluster_requests, 6);
        assert_eq!(s.cache_hits + s.cache_misses, 6);
        assert!(s.cache_misses >= 1);
        assert_eq!(s.coalesced_waits, 0);
    }

    #[test]
    fn coalesced_counter_reconciles_with_hits() {
        // Sequential traffic never coalesces; the counter stays zero and
        // hits/misses behave exactly as before the in-flight table.
        let e = engine(16);
        for _ in 0..4 {
            e.cluster(QueryParams::new(2, 0.3));
        }
        let s = e.stats();
        assert_eq!(s.coalesced_waits, 0);
        assert_eq!(s.cache_hits, 3);
        assert_eq!(s.cache_misses, 1);
    }

    #[test]
    fn stats_accumulate() {
        let e = engine(16);
        for _ in 0..3 {
            e.cluster(QueryParams::new(2, 0.3));
        }
        let s = e.stats();
        assert_eq!(s.cluster_requests, 3);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.cache_hits, 2);
        assert!(s.hit_rate() > 0.6);
    }

    /// An engine whose invalidation frontier is analytically known: a K4
    /// clique (every σ = 1.0) in one component and a 4-vertex path
    /// (σ ∈ {2/√6 ≈ 0.8165, 2/3}) in another. Mutations inside the path
    /// can never reach the clique's similarity class.
    fn split_engine() -> QueryEngine {
        let edges: Vec<(u32, u32)> = vec![
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3), // K4
            (4, 5),
            (5, 6),
            (6, 7), // path
        ];
        let g = parscan_graph::from_edges(8, &edges);
        let index = Arc::new(ScanIndex::build(g, IndexConfig::default()));
        QueryEngine::new(
            index,
            EngineConfig {
                cache_capacity: 16,
                cache_shards: 2,
            },
        )
    }

    #[test]
    fn apply_update_keeps_unaffected_cache_classes_and_drops_affected_ones() {
        let e = split_engine();
        let high = QueryParams::new(2, 0.95); // selects only clique edges
        let low = QueryParams::new(2, 0.7); // selects path-end edges too
        assert!(!e.cluster(high).cached);
        assert!(!e.cluster(low).cached);
        let before = e.stats();
        assert_eq!(before.cache_misses, 2);

        // Delete a path edge: θ = 2/√6 < 1.0, so the high-ε class (lower
        // bound 2/√6 ≥ θ... the clique class's lower bound is the path's
        // top breakpoint) survives and the low-ε class is dropped.
        let up = e
            .apply_update(&BatchUpdate::delete(&[(6, 7)]))
            .expect("valid batch");
        assert!(up.changed);
        assert_eq!(up.epoch, 1);
        assert_eq!(up.deleted, 1);
        assert!(up.cache_kept >= 1, "{up:?}");
        assert!(up.cache_dropped >= 1, "{up:?}");

        // The unaffected high-ε entry is served from the cache under the
        // new epoch: hits move, misses don't (the counter pattern the
        // coalescing tests use to observe recomputation).
        let again = e.cluster(high);
        assert!(again.cached, "unaffected ε-class must survive the APPLY");
        assert_eq!(again.epoch, 1);
        let mid = e.stats();
        assert_eq!(mid.cache_misses, before.cache_misses, "no recompute");
        assert_eq!(mid.cache_hits, before.cache_hits + 1);
        // And it is *correct* for the new index.
        let direct = e.index().cluster_with(high, BorderAssignment::MostSimilar);
        assert_eq!(*again.clustering, direct);

        // The affected low-ε entry was dropped: re-querying recomputes.
        let recompute = e.cluster(low);
        assert!(!recompute.cached, "affected ε-class must be invalidated");
        let after = e.stats();
        assert_eq!(after.cache_misses, mid.cache_misses + 1);
        let direct_low = e.index().cluster_with(low, BorderAssignment::MostSimilar);
        assert_eq!(*recompute.clustering, direct_low);

        // Ledger: counters reconcile and the stats surface the surgery.
        assert_eq!(
            after.cluster_requests,
            after.cache_hits + after.cache_misses
        );
        assert_eq!(after.updates_applied, 1);
        assert!(after.cache_retained >= 1);
        assert!(after.cache_invalidated >= 1);
        assert_eq!(after.epoch, 1);
    }

    #[test]
    fn noop_update_keeps_epoch_and_cache() {
        let e = split_engine();
        e.cluster(QueryParams::new(2, 0.5));
        let len_before = e.stats().cache_len;
        // Insert an existing edge, delete an absent one, add a self-loop:
        // all no-ops.
        let up = e
            .apply_update(&BatchUpdate {
                insertions: vec![(0, 1, 1.0), (4, 4, 1.0)],
                deletions: vec![(0, 7)],
            })
            .expect("valid batch");
        assert!(!up.changed);
        assert_eq!(up.epoch, 0);
        assert_eq!(up.cache_dropped, 0);
        assert_eq!(e.stats().cache_len, len_before);
        assert_eq!(e.stats().updates_applied, 0);
        // The entry still hits.
        assert!(e.cluster(QueryParams::new(2, 0.5)).cached);
    }

    #[test]
    fn apply_update_rejects_out_of_range_endpoints() {
        let e = split_engine();
        let err = e
            .apply_update(&BatchUpdate::insert(&[(0, 99)]))
            .expect_err("out of range");
        assert!(err.contains("out of range"), "{err}");
        // Nothing changed.
        assert_eq!(e.epoch(), 0);
    }

    #[test]
    fn readers_on_an_old_snapshot_finish_consistently() {
        // A reader that grabbed its snapshot before an update keeps a
        // fully consistent view: the old Arc stays alive and its answers
        // match a direct computation on the old index.
        let e = split_engine();
        let old_index = e.index();
        let p = QueryParams::new(2, 0.7);
        let before = old_index.cluster_with(p, BorderAssignment::MostSimilar);
        e.apply_update(&BatchUpdate::delete(&[(6, 7)])).unwrap();
        // The old snapshot is untouched by the update.
        let again = old_index.cluster_with(p, BorderAssignment::MostSimilar);
        assert_eq!(before, again);
        // New queries see the new graph.
        assert_eq!(e.index().graph().num_edges(), 8);
        assert_eq!(old_index.graph().num_edges(), 9);
    }

    #[test]
    fn surviving_entries_remap_to_the_new_class_indexes() {
        // After a deletion removes breakpoints below the surviving
        // class, the class *index* shifts; the remapped entry must hit
        // for every ε in the class under the new table.
        let e = split_engine();
        let high = QueryParams::new(2, 0.95);
        e.cluster(high);
        e.apply_update(&BatchUpdate::delete(&[(6, 7), (4, 5), (5, 6)]))
            .unwrap();
        // The path component is now empty; only σ = 1.0 breaks remain.
        assert_eq!(e.num_breakpoints(), 1);
        let hit = e.cluster(QueryParams::new(2, 0.99));
        assert!(hit.cached, "remapped entry must serve the whole class");
        let direct = e
            .index()
            .cluster_with(QueryParams::new(2, 0.99), BorderAssignment::MostSimilar);
        assert_eq!(*hit.clustering, direct);
    }

    // The always-panicking-leader test (every coalescing leader dies at
    // the `engine.compute` failpoint; followers must be told the
    // computation was abandoned) lives in `tests/server_deadlines.rs`:
    // the failpoint registry is process-global, and arming a panic
    // policy here would crash unrelated unit tests running in parallel
    // threads of this binary.
}
