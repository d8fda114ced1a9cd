//! # parscan — Parallel Index-Based Structural Graph Clustering
//!
//! A Rust reproduction of *"Parallel Index-Based Structural Graph
//! Clustering and Its Approximation"* (Tseng, Dhulipala, Shun — SIGMOD
//! 2021): a parallel GS*-Index-style SCAN index with output-sensitive
//! clustering queries, plus LSH-approximated similarities (SimHash /
//! MinHash) with provable classification guarantees.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! - [`graph`] — CSR graphs, builders, generators, I/O: edge-list text,
//!   binary, METIS ([`parscan_graph`])
//! - [`core`] — the SCAN index, queries, persistence, the (μ, ε) sweep
//!   engine, and batch dynamic updates ([`parscan_core`])
//! - [`approx`] — LSH approximation ([`parscan_approx`])
//! - [`baselines`] — original SCAN, sequential GS*-Index, pSCAN/ppSCAN,
//!   SCAN-XP ([`parscan_baselines`])
//! - [`dense`] — matmul similarities for dense graphs ([`parscan_dense`])
//! - [`metrics`] — modularity & ARI ([`parscan_metrics`])
//! - [`parallel`] — the shared-memory primitives: one flat worker pool
//!   running data-parallel loops, and the parallel for/map/reduce, scan,
//!   filter, sorts, hash tables and union-find built on it
//!   ([`parscan_parallel`])
//! - [`server`] — concurrent query serving: named resident indexes in a
//!   byte-budgeted [`GraphRegistry`](parscan_server::GraphRegistry),
//!   cached [`QueryEngine`](parscan_server::QueryEngine)s with in-flight
//!   request coalescing, batched execution, and a TCP line/JSON protocol
//!   ([`parscan_server`]; see `docs/PROTOCOL.md`)
//! - [`store`] — the durable index store: versioned snapshots, a
//!   checksummed registry manifest, an append-only audit log, and the
//!   warm-boot path that restarts a server without rebuilding indexes
//!   ([`parscan_store`])
//!
//! ## Quick start
//!
//! ```
//! use parscan::prelude::*;
//!
//! // A graph with ten tight planted communities (σ within a community
//! // lands around 0.4 at this density).
//! let (g, _truth) = parscan::graph::generators::planted_partition(400, 10, 12.0, 1.0, 42);
//!
//! // Build the index once...
//! let index = ScanIndex::build(g, IndexConfig::default());
//!
//! // ...then query any (μ, ε) cheaply.
//! let clustering = index.cluster(QueryParams::new(3, 0.35));
//! assert!(clustering.num_clusters() >= 2);
//! ```

pub use parscan_approx as approx;
pub use parscan_baselines as baselines;
pub use parscan_core as core;
pub use parscan_dense as dense;
pub use parscan_graph as graph;
pub use parscan_metrics as metrics;
pub use parscan_parallel as parallel;
pub use parscan_server as server;
pub use parscan_store as store;

/// The types most programs need.
pub mod prelude {
    pub use parscan_approx::{build_approx_index, ApproxConfig, ApproxMethod};
    pub use parscan_core::{
        BorderAssignment, Clustering, IndexConfig, QueryOptions, QueryParamError, QueryParams,
        ScanIndex, SimilarityMeasure, VertexProbe, VertexRole, UNCLUSTERED,
    };
    pub use parscan_graph::{CsrGraph, VertexId};
    pub use parscan_server::{
        serve, warm_boot, EngineConfig, GraphRegistry, QueryEngine, RegistryConfig, ServeConfig,
        ServerHandle,
    };
    pub use parscan_store::IndexStore;
}
