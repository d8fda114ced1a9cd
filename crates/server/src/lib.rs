//! # parscan-serve — concurrent multi-graph query serving over resident SCAN indexes
//!
//! The paper's central trade (§1): build the GS*-style index **once**,
//! then answer arbitrary `(μ, ε)` SCAN queries in output-sensitive time.
//! That shape calls for a serving layer — keep hot
//! [`ScanIndex`](parscan_core::ScanIndex)es resident and let many
//! clients query them — which this crate provides in four layers, all
//! `std`-only:
//!
//! - [`QueryEngine`] ([`engine`]): an `Arc<ScanIndex>` behind a sharded
//!   LRU result cache ([`cache`]) keyed by *quantized* parameters — ε is
//!   snapped to the index's similarity breakpoints, so every ε between
//!   two consecutive stored similarity values maps to one cache entry
//!   (distinct-but-equivalent queries are hits, not recomputes) — plus
//!   per-key in-flight coalescing, so concurrent cold misses on one
//!   `(μ, ε-class)` run exactly one computation.
//! - [`GraphRegistry`] ([`registry`]): several named resident engines in
//!   one process, with a byte-budgeted LRU admission/eviction policy
//!   over estimated index footprints and coalesced `LOAD`s.
//! - [`BatchExecutor`] ([`batch`]): deduplicates the clustering queries
//!   of a mixed workload (possibly across graphs) and runs the distinct
//!   ones as one flat parallel job on [`parscan_parallel::pool`].
//! - [`serve`] ([`server`]): a line/JSON protocol ([`protocol`]) over
//!   `std::net::TcpListener` — a readiness-polled reactor multiplexes
//!   every connection on one thread (10k+ idle sessions in a bounded
//!   thread count) and answers `PING` and cached `CLUSTER` itself, a
//!   small worker pool hands every other request to one dispatcher,
//!   with admission control that sheds load past
//!   [`ServeConfig`] bounds, an optional durable store, graceful
//!   shutdown that flushes in-flight responses, and
//!   request/latency/hit-rate counters ([`EngineStats`],
//!   [`RegistryStats`], [`protocol::ReactorStats`]).
//!
//! ## Quick start
//!
//! ```
//! use parscan_server::{serve, GraphRegistry, RegistryConfig, ServeConfig};
//! use parscan_core::{IndexConfig, ScanIndex};
//! use std::io::{BufRead, BufReader, Write};
//! use std::sync::Arc;
//!
//! // A registry hosting two graphs; "primary" answers unaddressed queries.
//! let registry = Arc::new(GraphRegistry::new("primary", RegistryConfig::default()));
//! let (g1, _) = parscan_graph::generators::planted_partition(200, 4, 9.0, 1.0, 1);
//! let (g2, _) = parscan_graph::generators::planted_partition(120, 3, 8.0, 1.0, 2);
//! registry.install("primary", ScanIndex::build(g1, IndexConfig::default())).unwrap();
//! registry.install("alt", ScanIndex::build(g2, IndexConfig::default())).unwrap();
//!
//! // In-process use: resolve a graph and query through its cache.
//! let (_, engine) = registry.get(None).unwrap();
//! assert!(!engine.cluster(parscan_core::QueryParams::new(3, 0.4)).cached);
//!
//! // Or over TCP (port 0 = OS-assigned); `@alt` addresses the second graph.
//! let server = serve(registry, "127.0.0.1:0", ServeConfig::default()).unwrap();
//! let mut conn = std::net::TcpStream::connect(server.addr()).unwrap();
//! conn.write_all(b"@alt CLUSTER 3 0.4\n").unwrap();
//! let mut line = String::new();
//! BufReader::new(conn).read_line(&mut line).unwrap();
//! assert!(line.contains("\"ok\":true") && line.contains("\"graph\":\"alt\""));
//! server.shutdown();
//! ```
//!
//! The wire protocol is specified in `docs/PROTOCOL.md`; the system
//! layout in `docs/ARCHITECTURE.md`.

pub mod batch;
pub mod boot;
pub mod cache;
pub mod coalesce;
mod conn;
pub mod engine;
pub mod protocol;
mod reactor;
pub mod registry;
pub mod server;

pub use batch::BatchExecutor;
pub use boot::{warm_boot, WarmBootReport};
pub use cache::ShardedLru;
pub use engine::{
    ClusterOutcome, EngineConfig, EngineStats, QueryEngine, SweepBest, UpdateOutcome,
};
pub use protocol::{
    parse_request, FaultStats, ReactorStats, Request, Response, StatsGraph, StoreStats,
};
pub use reactor::ServeConfig;
pub use registry::{
    build_index_from_path, validate_graph_name, GraphInfo, GraphRegistry, LoadOutcome,
    RegistryConfig, RegistryError, RegistryStats,
};
pub use server::{serve, ServerHandle};

pub(crate) use parscan_parallel::utils::lock_mutex;

/// [`lock_mutex`]'s sibling for `RwLock` readers.
pub(crate) fn read_lock<T>(l: &std::sync::RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// [`lock_mutex`]'s sibling for `RwLock` writers.
pub(crate) fn write_lock<T>(l: &std::sync::RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(std::sync::PoisonError::into_inner)
}

// The whole crate exists to share indexes and engines across threads;
// enforce those bounds at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<parscan_core::ScanIndex>();
    assert_send_sync::<QueryEngine>();
    assert_send_sync::<GraphRegistry>();
    assert_send_sync::<ServerHandle>();
};
