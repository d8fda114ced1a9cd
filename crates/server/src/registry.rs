//! The graph registry: several resident indexes in one server process.
//!
//! PR 1 made a single [`ScanIndex`] resident behind a [`QueryEngine`];
//! this module generalizes that to a *named collection* of resident
//! engines, treating index memory as the scarce resource it is on a
//! serving box:
//!
//! - **Admission / eviction.** Every graph's footprint is estimated with
//!   [`ScanIndex::memory_bytes`] (the paper's `O(m)` space claim made
//!   operational). When a configured byte budget would be exceeded, the
//!   registry evicts least-recently-*queried* graphs until the newcomer
//!   fits; the default (boot) graph is pinned against eviction, and a
//!   graph that could never fit — even with everything else evicted — is
//!   rejected outright, before anything is evicted.
//! - **Load coalescing.** Concurrent `LOAD`s of the same name build the
//!   index once: the first caller becomes the leader, everyone else
//!   waits on its outcome ([`LoadOutcome::Coalesced`]). This is the
//!   registry-level sibling of the per-`(μ, ε-class)` query coalescing
//!   in [`engine`](crate::engine).
//! - **Observability.** Monotonic counters ([`RegistryStats`]) for
//!   loads, coalesced loads, failures, unloads, and evictions, surfaced
//!   through the protocol's `STATS` response.
//!
//! Eviction drops the registry's `Arc` to the engine; the memory is
//! actually reclaimed when the last in-flight query on that engine
//! finishes, so a busy graph never has the index freed under it.
//!
//! # Examples
//!
//! ```
//! use parscan_server::{GraphRegistry, RegistryConfig};
//! use parscan_core::{IndexConfig, QueryParams, ScanIndex};
//!
//! let registry = GraphRegistry::new("boot", RegistryConfig::default());
//! let (g, _) = parscan_graph::generators::planted_partition(120, 3, 8.0, 1.0, 7);
//! registry.install("boot", ScanIndex::build(g, IndexConfig::default())).unwrap();
//!
//! // Queries address graphs by name; `None` means the default graph.
//! let (name, engine) = registry.get(None).unwrap();
//! assert_eq!(name, "boot");
//! assert!(engine.cluster(QueryParams::new(2, 0.3)).clustering.num_clusters() > 0);
//! assert_eq!(registry.list().len(), 1);
//! ```

use crate::coalesce::Cell;
use crate::engine::{EngineConfig, QueryEngine};
use crate::{lock_mutex, read_lock, write_lock};
use parscan_core::{IndexConfig, ScanIndex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// What a [`GraphRegistry::load`] reports: the graph's engine and how
/// the load was satisfied.
pub type LoadResult = Result<(Arc<QueryEngine>, LoadOutcome), RegistryError>;

/// Registry construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct RegistryConfig {
    /// Total bytes of resident index memory the registry may hold
    /// (estimated via [`ScanIndex::memory_bytes`]); `None` is unlimited.
    pub byte_budget: Option<usize>,
    /// Maximum number of resident graphs (LRU-evicted like bytes).
    pub max_graphs: usize,
    /// Engine configuration applied to every hosted graph.
    pub engine: EngineConfig,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            byte_budget: None,
            max_graphs: 64,
            engine: EngineConfig::default(),
        }
    }
}

/// Why a registry operation failed. Rendered into protocol error
/// responses verbatim.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegistryError {
    /// No graph with this name is resident.
    NotFound { name: String },
    /// The graph is currently being loaded by another session.
    Loading { name: String },
    /// The graph can never fit: its footprint alone exceeds the budget,
    /// or it would not fit even with everything evictable evicted (then
    /// nothing is evicted).
    BudgetExceeded {
        name: String,
        bytes: usize,
        budget: usize,
    },
    /// The graph-count budget is exhausted and nothing is evictable.
    TooManyGraphs { name: String, max_graphs: usize },
    /// Building or reading the index failed.
    LoadFailed { name: String, message: String },
    /// The graph name is syntactically invalid (see [`validate_graph_name`]).
    BadName { name: String, message: String },
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::NotFound { name } => write!(f, "no graph named {name:?} is loaded"),
            RegistryError::Loading { name } => {
                write!(f, "graph {name:?} is still loading; retry shortly")
            }
            RegistryError::BudgetExceeded { name, bytes, budget } => write!(
                f,
                "graph {name:?} ({bytes} bytes) does not fit the registry byte budget ({budget} bytes)"
            ),
            RegistryError::TooManyGraphs { name, max_graphs } => write!(
                f,
                "cannot load graph {name:?}: the registry already holds its maximum of {max_graphs} graph(s)"
            ),
            RegistryError::LoadFailed { name, message } => {
                write!(f, "loading graph {name:?} failed: {message}")
            }
            RegistryError::BadName { name, message } => {
                write!(f, "bad graph name {name:?}: {message}")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// How a [`GraphRegistry::load`] call was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadOutcome {
    /// This call built and admitted the graph.
    Loaded,
    /// The graph was already resident; nothing was built.
    AlreadyLoaded,
    /// Another session was mid-load; this call waited for its result.
    Coalesced,
}

/// A point-in-time description of one resident graph.
#[derive(Clone, Debug)]
pub struct GraphInfo {
    pub name: String,
    pub vertices: usize,
    pub edges: usize,
    /// Estimated index footprint ([`ScanIndex::memory_bytes`]).
    pub bytes: usize,
    /// Distinct ε breakpoints (the engine's cache-class count).
    pub breakpoints: usize,
    /// Whether this is the registry's default graph.
    pub is_default: bool,
}

/// Monotonic registry counters plus current residency.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Graphs currently resident (excluding in-flight loads).
    pub graphs: usize,
    /// Loads currently in flight.
    pub loading: usize,
    /// Estimated bytes of resident index memory.
    pub bytes_resident: usize,
    /// The configured budget, if any.
    pub byte_budget: Option<usize>,
    /// Successful admissions.
    pub loads: u64,
    /// Load calls that waited on another session's in-flight load.
    pub coalesced_loads: u64,
    /// Loads that failed (build error or rejected admission).
    pub load_failures: u64,
    /// Explicit `UNLOAD`s.
    pub unloads: u64,
    /// Graphs evicted to make room under the byte/count budget.
    pub evictions: u64,
}

/// Check a graph name for protocol use: 1–64 characters drawn from
/// `[A-Za-z0-9_.-]`. Names appear verbatim in the wire protocol (as
/// `@name` prefixes and `LOAD`/`UNLOAD` arguments), so whitespace and
/// exotic characters are rejected at the door.
pub fn validate_graph_name(name: &str) -> Result<(), String> {
    if name.is_empty() {
        return Err("empty name".into());
    }
    if name.len() > 64 {
        return Err(format!("name longer than 64 bytes ({})", name.len()));
    }
    if let Some(bad) = name
        .chars()
        .find(|c| !(c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')))
    {
        return Err(format!(
            "character {bad:?} not allowed (use [A-Za-z0-9_.-])"
        ));
    }
    Ok(())
}

/// One resident graph.
struct GraphEntry {
    engine: Arc<QueryEngine>,
    /// Global tick of the most recent query/lookup; the eviction victim
    /// is the Ready entry with the smallest tick.
    last_used: AtomicU64,
}

impl GraphEntry {
    /// The resident index's footprint ([`ScanIndex::memory_bytes`], O(1)),
    /// read from the engine's current epoch so that it follows every
    /// mutation.
    fn bytes(&self) -> usize {
        self.engine.index().memory_bytes()
    }
}

/// The once-cell a load leader publishes through — the shared
/// [`coalesce::Cell`](crate::coalesce::Cell) machinery, to which
/// followers subscribe their completion callback ([`Cell::on_ready`]).
/// The registry's slot map is
/// also its residency map, so the cell lives inside [`Slot::Loading`]
/// rather than a separate keyed [`crate::coalesce::Coalescer`]: leader
/// registration must be atomic with the Ready-residency check under one
/// lock.
type LoadCell = Cell<Result<Arc<GraphEntry>, RegistryError>>;

enum Slot {
    Ready(Arc<GraphEntry>),
    Loading(Arc<LoadCell>),
}

/// Graphs an admission evicted, by name, still owned so that they are
/// freed only after the slots lock is released.
type Evicted = Vec<(String, Slot)>;

/// How a load attempt was classified against the slot map.
enum RegisterLoad {
    /// Name already resident.
    Ready(Arc<QueryEngine>),
    /// Someone else is loading this name; share their outcome.
    Follower(Arc<LoadCell>),
    /// This caller owns the load.
    Leader(Arc<LoadCell>),
}

#[derive(Default)]
struct RegistryCounters {
    loads: AtomicU64,
    coalesced_loads: AtomicU64,
    load_failures: AtomicU64,
    unloads: AtomicU64,
    evictions: AtomicU64,
}

/// Observer invoked with the name of every graph the registry evicts
/// (after the registry lock is released). The server wires this to the
/// durable store's audit log.
pub type EvictHook = Box<dyn Fn(&str) + Send + Sync>;

/// A named collection of resident [`QueryEngine`]s with byte-budgeted
/// LRU admission and coalesced loading. See the module docs.
pub struct GraphRegistry {
    slots: RwLock<HashMap<String, Slot>>,
    default_name: String,
    config: RegistryConfig,
    /// Global recency clock; bumped on every lookup.
    tick: AtomicU64,
    counters: RegistryCounters,
    evict_hook: Mutex<Option<EvictHook>>,
}

impl GraphRegistry {
    /// An empty registry whose unnamed queries resolve to `default_name`
    /// (install that graph with [`GraphRegistry::install`]).
    pub fn new(default_name: impl Into<String>, config: RegistryConfig) -> Self {
        GraphRegistry {
            slots: RwLock::new(HashMap::new()),
            default_name: default_name.into(),
            config,
            tick: AtomicU64::new(0),
            counters: RegistryCounters::default(),
            evict_hook: Mutex::new(None),
        }
    }

    /// Install an eviction observer (replacing any previous one). The
    /// hook runs outside the registry lock, once per victim, after the
    /// admission that displaced it completes.
    pub fn set_evict_hook(&self, hook: EvictHook) {
        *lock_mutex(&self.evict_hook) = Some(hook);
    }

    /// Report evictions to the hook and free the evicted graphs, both
    /// outside the slots lock: the reactor reads the slots on every
    /// cached `CLUSTER`, and freeing a resident index takes milliseconds.
    fn notify_evicted(&self, victims: Evicted) {
        if victims.is_empty() {
            return;
        }
        let hook = lock_mutex(&self.evict_hook);
        if let Some(hook) = hook.as_ref() {
            for (name, _) in &victims {
                hook(name);
            }
        }
    }

    /// The name unaddressed queries resolve to.
    pub fn default_name(&self) -> &str {
        &self.default_name
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Resolve `name` (or the default graph for `None`) to its engine,
    /// refreshing its recency. Errors if the graph is absent or still
    /// loading.
    pub fn get(&self, name: Option<&str>) -> Result<(String, Arc<QueryEngine>), RegistryError> {
        let name = name.unwrap_or(&self.default_name);
        let slots = read_lock(&self.slots);
        match slots.get(name) {
            Some(Slot::Ready(entry)) => {
                entry.last_used.store(self.next_tick(), Ordering::Relaxed);
                Ok((name.to_string(), Arc::clone(&entry.engine)))
            }
            Some(Slot::Loading(_)) => Err(RegistryError::Loading { name: name.into() }),
            None => Err(RegistryError::NotFound { name: name.into() }),
        }
    }

    /// Install an already-built index under `name` with the registry's
    /// engine configuration (the programmatic API; protocol `LOAD`s,
    /// warm boots and the CLI go through [`GraphRegistry::load`]).
    /// Replaces nothing: installing over a resident name is an error —
    /// call [`GraphRegistry::unload`] first.
    pub fn install(
        &self,
        name: impl Into<String>,
        index: ScanIndex,
    ) -> Result<Arc<QueryEngine>, RegistryError> {
        let name = name.into();
        if let Err(message) = validate_graph_name(&name) {
            return Err(RegistryError::BadName { name, message });
        }
        let entry = self.entry(index, self.config.engine);
        let mut slots = write_lock(&self.slots);
        match slots.get(&name) {
            Some(Slot::Ready(_)) => {
                return Err(RegistryError::LoadFailed {
                    name,
                    message: "a graph with this name is already loaded (UNLOAD it first)".into(),
                })
            }
            Some(Slot::Loading(_)) => return Err(RegistryError::Loading { name }),
            None => {}
        }
        let victims = self.admit_locked(&mut slots, &name, Arc::clone(&entry))?;
        self.counters.loads.fetch_add(1, Ordering::Relaxed);
        drop(slots);
        self.notify_evicted(victims);
        Ok(Arc::clone(&entry.engine))
    }

    /// A resident entry for `index`, stamped as just used.
    fn entry(&self, index: ScanIndex, engine_config: EngineConfig) -> Arc<GraphEntry> {
        let engine = Arc::new(QueryEngine::new(Arc::new(index), engine_config));
        Arc::new(GraphEntry {
            engine,
            last_used: AtomicU64::new(self.next_tick()),
        })
    }

    /// Admit `entry` under `name`, evicting least-recently-used
    /// non-default graphs until both the byte budget and the graph-count
    /// budget hold. When even evicting every evictable graph would not
    /// make room, nothing is evicted and the error names the budget that
    /// fails. Caller holds the write lock and has verified the name is
    /// free. Returns the evicted graphs; the caller hands them to
    /// [`GraphRegistry::notify_evicted`] once the lock is released.
    fn admit_locked(
        &self,
        slots: &mut HashMap<String, Slot>,
        name: &str,
        entry: Arc<GraphEntry>,
    ) -> Result<Evicted, RegistryError> {
        let budget = self.config.byte_budget;
        // Whether `entry` fits beside the Ready graphs `keep` selects.
        let fits_beside = |slots: &HashMap<String, Slot>, keep: &dyn Fn(&str) -> bool| {
            let (mut bytes, mut count) = (0, 0);
            for (n, s) in slots {
                if let Slot::Ready(e) = s {
                    if keep(n) {
                        bytes += e.bytes();
                        count += 1;
                    }
                }
            }
            let bytes_ok = budget.is_none_or(|b| bytes + entry.bytes() <= b);
            (bytes_ok, count < self.config.max_graphs)
        };
        // The floor: only the pinned default graph stays.
        match fits_beside(slots, &|n| n == self.default_name) {
            (true, true) => {}
            // Report the budget that actually fails: bytes when the
            // footprint does not fit, otherwise the graph count.
            (false, _) => {
                return Err(RegistryError::BudgetExceeded {
                    name: name.into(),
                    bytes: entry.bytes(),
                    budget: budget.expect("bytes only fail under a byte budget"),
                })
            }
            (true, false) => {
                return Err(RegistryError::TooManyGraphs {
                    name: name.into(),
                    max_graphs: self.config.max_graphs,
                })
            }
        }
        let mut victims = Vec::new();
        while fits_beside(slots, &|_| true) != (true, true) {
            // Evict the least-recently-queried Ready graph; the default
            // graph is pinned (only an explicit UNLOAD removes it).
            let victim = slots
                .iter()
                .filter_map(|(n, s)| match s {
                    Slot::Ready(e) if n != &self.default_name => {
                        Some((n.clone(), e.last_used.load(Ordering::Relaxed)))
                    }
                    _ => None,
                })
                .min_by_key(|&(_, tick)| tick)
                .map(|(n, _)| n)
                .expect("the floor check leaves a victim while the budgets fail");
            let slot = slots.remove(&victim).expect("the victim is resident");
            self.counters.evictions.fetch_add(1, Ordering::Relaxed);
            victims.push((victim, slot));
        }
        slots.insert(name.to_string(), Slot::Ready(entry));
        Ok(victims)
    }

    /// Load a graph under `name`, building the index with `build` only
    /// if nobody else is. `notify` runs exactly once: inline when the
    /// name is already resident ([`LoadOutcome::AlreadyLoaded`]) or this
    /// caller leads the build (which runs synchronously here), and on
    /// the leader's thread when the load coalesces onto one already in
    /// flight ([`LoadOutcome::Coalesced`]) — so a reactor worker never
    /// parks on another load's progress. Library callers that want to
    /// block wait on a channel. `cache_capacity` overrides the
    /// registry's per-graph result-cache capacity (the protocol's
    /// `LOAD … CACHE=<n>`, and each graph's persisted value on a warm
    /// boot).
    pub fn load(
        &self,
        name: &str,
        cache_capacity: Option<usize>,
        build: impl FnOnce() -> Result<ScanIndex, String>,
        notify: impl FnOnce(LoadResult) + Send + 'static,
    ) {
        if let Err(message) = validate_graph_name(name) {
            return notify(Err(RegistryError::BadName {
                name: name.into(),
                message,
            }));
        }
        // Phase 1: register as leader, join as follower, or answer now.
        match self.register_load(name) {
            RegisterLoad::Ready(engine) => notify(Ok((engine, LoadOutcome::AlreadyLoaded))),
            RegisterLoad::Follower(cell) => {
                self.counters
                    .coalesced_loads
                    .fetch_add(1, Ordering::Relaxed);
                let name = name.to_string();
                cell.on_ready(move |outcome| notify(Self::follower_outcome(&name, outcome)));
            }
            RegisterLoad::Leader(cell) => {
                let engine_config = EngineConfig {
                    cache_capacity: cache_capacity.unwrap_or(self.config.engine.cache_capacity),
                    ..self.config.engine
                };
                notify(self.lead_load(name, cell, engine_config, build))
            }
        }
    }

    /// Classify a load attempt against the slot map (one write lock).
    fn register_load(&self, name: &str) -> RegisterLoad {
        let mut slots = write_lock(&self.slots);
        match slots.get(name) {
            Some(Slot::Ready(entry)) => {
                entry.last_used.store(self.next_tick(), Ordering::Relaxed);
                RegisterLoad::Ready(Arc::clone(&entry.engine))
            }
            Some(Slot::Loading(cell)) => RegisterLoad::Follower(Arc::clone(cell)),
            None => {
                let cell = Arc::new(LoadCell::new());
                slots.insert(name.to_string(), Slot::Loading(Arc::clone(&cell)));
                RegisterLoad::Leader(cell)
            }
        }
    }

    /// Translate a follower's settled cell into the load result. `None`
    /// (the cell was cancelled rather than published) cannot happen with
    /// the guard in [`Self::lead_load`], which always publishes a value;
    /// it is mapped to the same abandonment error for safety.
    fn follower_outcome(
        name: &str,
        outcome: Option<Result<Arc<GraphEntry>, RegistryError>>,
    ) -> LoadResult {
        match outcome {
            Some(Ok(entry)) => Ok((Arc::clone(&entry.engine), LoadOutcome::Coalesced)),
            Some(Err(e)) => Err(e),
            None => Err(RegistryError::LoadFailed {
                name: name.into(),
                message: "load was abandoned".into(),
            }),
        }
    }

    /// Phase 2 (leader): build outside any lock, then admit. The guard
    /// guarantees followers are woken and the Loading slot is removed
    /// even if `build` unwinds.
    fn lead_load(
        &self,
        name: &str,
        cell: Arc<LoadCell>,
        engine_config: EngineConfig,
        build: impl FnOnce() -> Result<ScanIndex, String>,
    ) -> LoadResult {
        struct LoadGuard<'r> {
            registry: &'r GraphRegistry,
            name: String,
            cell: Arc<LoadCell>,
            done: bool,
        }
        impl LoadGuard<'_> {
            fn publish(&mut self, outcome: Result<Arc<GraphEntry>, RegistryError>) {
                self.done = true;
                self.cell.resolve(Some(outcome));
            }
        }
        impl Drop for LoadGuard<'_> {
            fn drop(&mut self) {
                if !self.done {
                    // Unwound mid-build: clear the Loading slot so the
                    // name becomes loadable again, and fail followers.
                    let mut slots = write_lock(&self.registry.slots);
                    if matches!(slots.get(&self.name), Some(Slot::Loading(_))) {
                        slots.remove(&self.name);
                    }
                    drop(slots);
                    self.cell.resolve(Some(Err(RegistryError::LoadFailed {
                        name: self.name.clone(),
                        message: "load was abandoned".into(),
                    })));
                }
            }
        }
        let mut guard = LoadGuard {
            registry: self,
            name: name.to_string(),
            cell,
            done: false,
        };

        let admit = |index: ScanIndex| -> Result<(Arc<GraphEntry>, Evicted), RegistryError> {
            let entry = self.entry(index, engine_config);
            let mut slots = write_lock(&self.slots);
            // Our Loading marker holds the name; remove it and admit.
            slots.remove(name);
            let victims = self.admit_locked(&mut slots, name, Arc::clone(&entry))?;
            Ok((entry, victims))
        };
        let (outcome, victims) = match build() {
            Ok(index) => match admit(index) {
                Ok((entry, victims)) => (Ok(entry), victims),
                Err(e) => (Err(e), Vec::new()),
            },
            Err(message) => {
                // Build failed: free the name for retries.
                let mut slots = write_lock(&self.slots);
                slots.remove(name);
                drop(slots);
                (
                    Err(RegistryError::LoadFailed {
                        name: name.into(),
                        message,
                    }),
                    Vec::new(),
                )
            }
        };
        guard.publish(outcome.clone());
        self.notify_evicted(victims);
        match outcome {
            Ok(entry) => {
                self.counters.loads.fetch_add(1, Ordering::Relaxed);
                Ok((Arc::clone(&entry.engine), LoadOutcome::Loaded))
            }
            Err(e) => {
                self.counters.load_failures.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Remove a graph. Errors while a load of the same name is in
    /// flight. Returns the freed (estimated) bytes. The default graph
    /// *may* be unloaded — subsequent unaddressed queries then error
    /// until it is loaded again.
    pub fn unload(&self, name: &str) -> Result<usize, RegistryError> {
        let mut slots = write_lock(&self.slots);
        match slots.get(name) {
            Some(Slot::Ready(entry)) => {
                let bytes = entry.bytes();
                let removed = slots.remove(name);
                drop(slots);
                // Free the graph outside the lock (see `notify_evicted`).
                drop(removed);
                self.counters.unloads.fetch_add(1, Ordering::Relaxed);
                Ok(bytes)
            }
            Some(Slot::Loading(_)) => Err(RegistryError::Loading { name: name.into() }),
            None => Err(RegistryError::NotFound { name: name.into() }),
        }
    }

    /// Describe every resident graph, sorted by name.
    pub fn list(&self) -> Vec<GraphInfo> {
        let slots = read_lock(&self.slots);
        let mut infos: Vec<GraphInfo> = slots
            .iter()
            .filter_map(|(name, slot)| match slot {
                Slot::Ready(entry) => {
                    let index = entry.engine.index();
                    let g = index.graph();
                    Some(GraphInfo {
                        name: name.clone(),
                        vertices: g.num_vertices(),
                        edges: g.num_edges(),
                        bytes: entry.bytes(),
                        breakpoints: entry.engine.num_breakpoints(),
                        is_default: name == &self.default_name,
                    })
                }
                Slot::Loading(_) => None,
            })
            .collect();
        infos.sort_by(|a, b| a.name.cmp(&b.name));
        infos
    }

    /// Snapshot residency and the monotonic counters.
    pub fn stats(&self) -> RegistryStats {
        let slots = read_lock(&self.slots);
        let mut graphs = 0usize;
        let mut loading = 0usize;
        let mut bytes_resident = 0usize;
        for slot in slots.values() {
            match slot {
                Slot::Ready(e) => {
                    graphs += 1;
                    bytes_resident += e.bytes();
                }
                Slot::Loading(_) => loading += 1,
            }
        }
        RegistryStats {
            graphs,
            loading,
            bytes_resident,
            byte_budget: self.config.byte_budget,
            loads: self.counters.loads.load(Ordering::Relaxed),
            coalesced_loads: self.counters.coalesced_loads.load(Ordering::Relaxed),
            load_failures: self.counters.load_failures.load(Ordering::Relaxed),
            unloads: self.counters.unloads.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
        }
    }
}

/// Read a graph or persisted index from a server-local file, for
/// [`GraphRegistry::load`]. The file type is detected by extension:
/// `.pscidx` (persisted index), otherwise a graph file read by
/// [`parscan_graph::io::read_graph`] and indexed with
/// [`IndexConfig::default`].
pub fn build_index_from_path(path: &str) -> Result<ScanIndex, String> {
    if path.ends_with(".pscidx") {
        return ScanIndex::load(path).map_err(|e| format!("cannot load index {path}: {e}"));
    }
    let g = parscan_graph::io::read_graph(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok(ScanIndex::build(g, IndexConfig::default()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use parscan_core::{BatchUpdate, QueryParams};
    use parscan_graph::generators;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    fn small_index(seed: u64) -> ScanIndex {
        let (g, _) = generators::planted_partition(120, 3, 8.0, 1.0, seed);
        ScanIndex::build(g, IndexConfig::default())
    }

    /// The footprint of `small_index(1)` as installed: the engine
    /// computes its ε breakpoint table, which the footprint counts.
    fn index_bytes() -> usize {
        let index = small_index(1);
        index.similarities().breakpoints();
        index.memory_bytes()
    }

    /// [`GraphRegistry::load`], waited on through a channel.
    fn load_now(
        r: &GraphRegistry,
        name: &str,
        cache_capacity: Option<usize>,
        build: impl FnOnce() -> Result<ScanIndex, String>,
    ) -> LoadResult {
        let (tx, rx) = std::sync::mpsc::channel();
        r.load(name, cache_capacity, build, move |result| {
            let _ = tx.send(result);
        });
        rx.recv().expect("load answers exactly once")
    }

    #[test]
    fn name_validation() {
        assert!(validate_graph_name("web-2024.v1_final").is_ok());
        assert!(validate_graph_name("").is_err());
        assert!(validate_graph_name("has space").is_err());
        assert!(validate_graph_name("semi;colon").is_err());
        assert!(validate_graph_name(&"x".repeat(65)).is_err());
        let r = GraphRegistry::new("d", RegistryConfig::default());
        assert!(matches!(
            r.install("bad name", small_index(1)),
            Err(RegistryError::BadName { .. })
        ));
    }

    #[test]
    fn default_resolution_and_named_lookup() {
        let r = GraphRegistry::new("main", RegistryConfig::default());
        r.install("main", small_index(1)).unwrap();
        r.install("other", small_index(2)).unwrap();
        let (name, _) = r.get(None).unwrap();
        assert_eq!(name, "main");
        let (name, engine) = r.get(Some("other")).unwrap();
        assert_eq!(name, "other");
        assert!(!engine
            .cluster(QueryParams::new(2, 0.3))
            .clustering
            .labels
            .is_empty());
        assert!(matches!(
            r.get(Some("absent")),
            Err(RegistryError::NotFound { .. })
        ));
        let infos = r.list();
        assert_eq!(infos.len(), 2);
        assert!(infos.iter().any(|i| i.name == "main" && i.is_default));
        assert!(infos.iter().any(|i| i.name == "other" && !i.is_default));
    }

    #[test]
    fn duplicate_install_is_rejected_until_unload() {
        let r = GraphRegistry::new("main", RegistryConfig::default());
        r.install("main", small_index(1)).unwrap();
        assert!(r.install("main", small_index(2)).is_err());
        let freed = r.unload("main").unwrap();
        assert!(freed > 0);
        r.install("main", small_index(2)).unwrap();
        assert!(matches!(
            r.unload("gone"),
            Err(RegistryError::NotFound { .. })
        ));
        assert_eq!(r.stats().unloads, 1);
    }

    #[test]
    fn byte_budget_evicts_lru_and_pins_default() {
        let one = index_bytes();
        // Room for the default plus two extras.
        let r = GraphRegistry::new(
            "boot",
            RegistryConfig {
                byte_budget: Some(3 * one + one / 2),
                ..Default::default()
            },
        );
        r.install("boot", small_index(1)).unwrap();
        r.install("a", small_index(2)).unwrap();
        r.install("b", small_index(3)).unwrap();
        assert_eq!(r.stats().graphs, 3);
        // Touch "a" so "b" is the LRU victim.
        r.get(Some("a")).unwrap();
        r.install("c", small_index(4)).unwrap();
        let names: Vec<String> = r.list().into_iter().map(|i| i.name).collect();
        assert_eq!(names, ["a", "boot", "c"], "b was LRU and must go");
        assert_eq!(r.stats().evictions, 1);
        // The default graph is pinned: filling the registry repeatedly
        // never evicts it.
        for (i, name) in ["d", "e", "f"].iter().enumerate() {
            r.install(*name, small_index(10 + i as u64)).unwrap();
        }
        assert!(r.get(None).is_ok(), "default graph must survive pressure");
        let stats = r.stats();
        assert!(stats.bytes_resident <= stats.byte_budget.unwrap());
    }

    #[test]
    fn byte_accounting_follows_mutations() {
        let one = index_bytes();
        // Room for the default plus one more graph of admission size.
        let r = GraphRegistry::new(
            "boot",
            RegistryConfig {
                byte_budget: Some(2 * one + one / 4),
                ..Default::default()
            },
        );
        let engine = r.install("boot", small_index(1)).unwrap();
        assert_eq!(r.list()[0].bytes, one);
        // Grow the default graph by more than the budget's slack.
        let n = engine.index().graph().num_vertices() as u32;
        let chords: Vec<(u32, u32)> = (0..n)
            .flat_map(|v| [7, 31, 53].map(|k| (v, (v + k) % n)))
            .collect();
        assert!(
            engine
                .apply_update(&BatchUpdate::insert(&chords))
                .unwrap()
                .inserted
                > 0
        );
        let live = engine.index().memory_bytes();
        assert!(live > one + one / 4, "the update must grow the index");
        // LIST and STATS report the grown index, and admission counts it:
        // a second graph of admission size no longer fits.
        assert_eq!(r.list()[0].bytes, live);
        assert_eq!(r.stats().bytes_resident, live);
        let err = r.install("a", small_index(1)).unwrap_err();
        assert!(matches!(err, RegistryError::BudgetExceeded { .. }), "{err}");
    }

    #[test]
    fn impossible_admission_is_rejected() {
        let one = index_bytes();
        let r = GraphRegistry::new(
            "boot",
            RegistryConfig {
                byte_budget: Some(one / 2), // smaller than any index
                ..Default::default()
            },
        );
        let err = r.install("boot", small_index(1)).unwrap_err();
        assert!(matches!(err, RegistryError::BudgetExceeded { .. }), "{err}");
        assert_eq!(r.stats().graphs, 0);
        // Budget for exactly one: the default fits, a second non-default
        // install evicts nothing (only the pinned default is resident)
        // and is rejected.
        let r = GraphRegistry::new(
            "boot",
            RegistryConfig {
                byte_budget: Some(one + one / 2),
                ..Default::default()
            },
        );
        r.install("boot", small_index(1)).unwrap();
        let err = r.install("big", small_index(2)).unwrap_err();
        assert!(matches!(err, RegistryError::BudgetExceeded { .. }), "{err}");
        assert!(r.get(None).is_ok());
    }

    #[test]
    fn failed_admission_evicts_nothing() {
        let one = index_bytes();
        let big = || {
            let (g, _) = generators::planted_partition(600, 3, 8.0, 1.0, 7);
            ScanIndex::build(g, IndexConfig::default())
        };
        let big_bytes = big().memory_bytes();
        assert!(big_bytes > 2 * one, "big must outweigh the default plus a");
        // The default plus `a` fit and `big` alone fits, but the default
        // plus `big` does not, so admitting `big` must fail up front.
        let r = GraphRegistry::new(
            "boot",
            RegistryConfig {
                byte_budget: Some(big_bytes + one / 2),
                ..Default::default()
            },
        );
        let hook_calls = Arc::new(AtomicUsize::new(0));
        let calls = Arc::clone(&hook_calls);
        r.set_evict_hook(Box::new(move |_| {
            calls.fetch_add(1, Ordering::Relaxed);
        }));
        r.install("boot", small_index(1)).unwrap();
        r.install("a", small_index(2)).unwrap();
        let err = r.install("big", big()).unwrap_err();
        assert!(matches!(err, RegistryError::BudgetExceeded { .. }), "{err}");
        let names: Vec<String> = r.list().into_iter().map(|i| i.name).collect();
        assert_eq!(names, ["a", "boot"], "a failed admission evicted a graph");
        assert_eq!(r.stats().evictions, 0);
        assert_eq!(hook_calls.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn max_graphs_budget_evicts_by_count() {
        let r = GraphRegistry::new(
            "boot",
            RegistryConfig {
                max_graphs: 2,
                ..Default::default()
            },
        );
        r.install("boot", small_index(1)).unwrap();
        r.install("a", small_index(2)).unwrap();
        r.install("b", small_index(3)).unwrap();
        assert_eq!(r.stats().graphs, 2);
        assert!(r.get(Some("a")).is_err(), "a was LRU and must be evicted");
        assert!(r.get(Some("b")).is_ok());
        assert!(r.get(None).is_ok());

        // With only the pinned default resident and max_graphs 1, a new
        // install has no victim: the error names the count budget, not a
        // phantom byte budget.
        let r = GraphRegistry::new(
            "boot",
            RegistryConfig {
                max_graphs: 1,
                ..Default::default()
            },
        );
        r.install("boot", small_index(1)).unwrap();
        let err = r.install("extra", small_index(2)).unwrap_err();
        assert!(matches!(err, RegistryError::TooManyGraphs { .. }), "{err}");
        assert!(err.to_string().contains("maximum of 1"), "{err}");
    }

    #[test]
    fn evict_hook_observes_victims() {
        let one = index_bytes();
        let r = GraphRegistry::new(
            "boot",
            RegistryConfig {
                byte_budget: Some(2 * one + one / 2),
                ..Default::default()
            },
        );
        let evicted = Arc::new(Mutex::new(Vec::<String>::new()));
        let sink = Arc::clone(&evicted);
        r.set_evict_hook(Box::new(move |name| {
            sink.lock().unwrap().push(name.to_string());
        }));
        r.install("boot", small_index(1)).unwrap();
        r.install("a", small_index(2)).unwrap();
        r.install("b", small_index(3)).unwrap(); // evicts "a" (LRU)
        assert_eq!(evicted.lock().unwrap().as_slice(), ["a".to_string()]);
    }

    #[test]
    fn per_load_engine_config_overrides_cache_capacity() {
        let r = GraphRegistry::new("main", RegistryConfig::default());
        let (engine, _) = load_now(&r, "g", Some(16), || Ok(small_index(1))).unwrap();
        assert_eq!(engine.stats().cache_capacity, 16);
        // The registry-wide default is unchanged for other graphs.
        let (other, _) = load_now(&r, "h", None, || Ok(small_index(2))).unwrap();
        assert_eq!(
            other.stats().cache_capacity,
            RegistryConfig::default().engine.cache_capacity
        );
    }

    #[test]
    fn load_with_reports_already_loaded() {
        let r = GraphRegistry::new("main", RegistryConfig::default());
        let (_, outcome) = load_now(&r, "main", None, || Ok(small_index(1))).unwrap();
        assert_eq!(outcome, LoadOutcome::Loaded);
        let built_again = AtomicUsize::new(0);
        let (_, outcome) = load_now(&r, "main", None, || {
            built_again.fetch_add(1, Ordering::Relaxed);
            Ok(small_index(1))
        })
        .unwrap();
        assert_eq!(outcome, LoadOutcome::AlreadyLoaded);
        assert_eq!(built_again.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn failed_load_frees_the_name() {
        let r = GraphRegistry::new("main", RegistryConfig::default());
        let err = load_now(&r, "g", None, || Err("synthetic failure".into())).unwrap_err();
        assert!(matches!(err, RegistryError::LoadFailed { .. }), "{err}");
        assert_eq!(r.stats().load_failures, 1);
        // The name is free again; a retry succeeds.
        let (_, outcome) = load_now(&r, "g", None, || Ok(small_index(1))).unwrap();
        assert_eq!(outcome, LoadOutcome::Loaded);
    }

    #[test]
    fn abandoned_load_fails_followers_and_frees_the_name() {
        // The leader's build panics mid-flight. Followers (blocking and
        // subscribed) must observe `LoadFailed { "load was abandoned" }`
        // — not park forever — and the name must become loadable again.
        // (Recovery from a *poisoned* cell lock itself is exercised in
        // `coalesce::tests::wait_recovers_from_a_poisoned_cell_lock`;
        // this covers the registry-level consequence of that unwind.)
        let r = Arc::new(GraphRegistry::new("main", RegistryConfig::default()));
        let gate = Arc::new(std::sync::Barrier::new(2));

        let leader = {
            let r = Arc::clone(&r);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let build = || -> Result<ScanIndex, String> {
                    gate.wait(); // followers may now register
                    std::thread::sleep(Duration::from_millis(40));
                    panic!("build exploded")
                };
                r.load("doomed", None, build, |_| {});
            })
        };
        gate.wait();

        // Blocking follower.
        let blocking = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || load_now(&r, "doomed", None, || Ok(small_index(1))))
        };
        // Subscribed (reactor-path) follower.
        let (tx, rx) = std::sync::mpsc::channel();
        r.load(
            "doomed",
            None,
            || build_index_from_path("/nonexistent/never-read.graph"),
            move |outcome| {
                tx.send(outcome.map(|(_, o)| o)).unwrap();
            },
        );

        assert!(leader.join().is_err(), "leader must have panicked");
        let err = blocking.join().unwrap().unwrap_err();
        assert!(
            matches!(&err, RegistryError::LoadFailed { message, .. } if message.contains("abandoned")),
            "{err}"
        );
        let deferred = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let err = deferred.unwrap_err();
        assert!(
            matches!(&err, RegistryError::LoadFailed { message, .. } if message.contains("abandoned")),
            "{err}"
        );

        // The name is free again; a retry succeeds.
        let (_, outcome) = load_now(&r, "doomed", None, || Ok(small_index(1))).unwrap();
        assert_eq!(outcome, LoadOutcome::Loaded);
    }

    #[test]
    fn deferred_load_coalesces_onto_an_in_flight_leader() {
        let r = Arc::new(GraphRegistry::new("main", RegistryConfig::default()));
        let gate = Arc::new(std::sync::Barrier::new(2));

        let leader = {
            let r = Arc::clone(&r);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                load_now(&r, "shared", None, || {
                    gate.wait();
                    std::thread::sleep(Duration::from_millis(30));
                    Ok(small_index(2))
                })
            })
        };
        gate.wait();

        let (tx, rx) = std::sync::mpsc::channel();
        r.load(
            "shared",
            None,
            || build_index_from_path("/nonexistent/never-read.graph"),
            move |outcome| {
                tx.send(outcome.map(|(_, o)| o)).unwrap();
            },
        );
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap().unwrap(),
            LoadOutcome::Coalesced,
            "the deferred follower must ride the leader's build, not read the path"
        );
        assert_eq!(leader.join().unwrap().unwrap().1, LoadOutcome::Loaded);
        assert!(r.stats().coalesced_loads >= 1);
    }

    #[test]
    fn concurrent_loads_of_one_name_build_once() {
        let r = GraphRegistry::new("main", RegistryConfig::default());
        const THREADS: usize = 6;
        let builds = AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(THREADS);
        let outcomes: Vec<LoadOutcome> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let (r, builds, barrier) = (&r, &builds, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        let (_, outcome) = load_now(r, "shared", None, || {
                            builds.fetch_add(1, Ordering::Relaxed);
                            // Widen the in-flight window so followers
                            // genuinely coalesce rather than racing past
                            // a finished load.
                            std::thread::sleep(std::time::Duration::from_millis(50));
                            Ok(small_index(9))
                        })
                        .expect("load");
                        outcome
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(
            builds.load(Ordering::Relaxed),
            1,
            "exactly one build for {THREADS} concurrent LOADs"
        );
        assert_eq!(
            outcomes
                .iter()
                .filter(|&&o| o == LoadOutcome::Loaded)
                .count(),
            1
        );
        let stats = r.stats();
        assert_eq!(stats.loads, 1);
        assert!(stats.coalesced_loads >= 1, "{stats:?}");
        // Exactly one engine is resident and shared.
        let (_, e1) = r.get(Some("shared")).unwrap();
        let (_, e2) = r.get(Some("shared")).unwrap();
        assert!(Arc::ptr_eq(&e1, &e2));
    }

    #[test]
    fn load_path_round_trips_an_edge_list() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("parscan-registry-{}.txt", std::process::id()));
        let (g, _) = generators::planted_partition(80, 2, 7.0, 1.0, 3);
        parscan_graph::io::write_edge_list_text(&g, &path).unwrap();
        let r = GraphRegistry::new("main", RegistryConfig::default());
        let path = path.to_str().unwrap();
        let (engine, outcome) = load_now(&r, "fromfile", None, || build_index_from_path(path))
            .expect("load from edge list");
        assert_eq!(outcome, LoadOutcome::Loaded);
        assert_eq!(engine.index().graph().num_vertices(), 80);
        assert!(matches!(
            load_now(&r, "nope", None, || build_index_from_path(
                "/definitely/not/here.txt"
            )),
            Err(RegistryError::LoadFailed { .. })
        ));
        let _ = std::fs::remove_file(path);
    }
}
