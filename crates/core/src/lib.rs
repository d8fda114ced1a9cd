//! Parallel index-based structural graph clustering (SCAN).
//!
//! This crate implements the paper's primary contribution: a parallel
//! algorithm that constructs the GS*-Index structures — per-edge structural
//! similarities, the *neighbor order* NO, and the *core order* CO — and
//! answers SCAN clustering queries for arbitrary `(μ, ε)` parameters in
//! output-sensitive work and low span.
//!
//! # SCAN semantics (§3.1 of the paper)
//!
//! Structural similarity is measured over *closed* neighborhoods
//! `N̄(v) = N(v) ∪ {v}` with `σ(v, v) = 1` and `w(v, v) = 1`. Given
//! parameters `μ ≥ 2` and `ε ∈ [0, 1]`:
//!
//! - the ε-neighborhood of `v` is `N̄_ε(v) = {u ∈ N̄(v) : σ(u, v) ≥ ε}`
//!   (which always contains `v` itself),
//! - `v` is a **core** iff `|N̄_ε(v)| ≥ μ`,
//! - clusters are the structurally-reachable closures of cores; non-core
//!   members of a cluster are **borders**, and unclustered vertices are
//!   **hubs** (neighbors in ≥ 2 clusters) or **outliers**.
//!
//! # Quick start
//!
//! ```
//! use parscan_core::{ScanIndex, IndexConfig, QueryParams};
//!
//! let g = parscan_graph::generators::paper_figure1();
//! let index = ScanIndex::build(g, IndexConfig::default());
//! let clustering = index.cluster(QueryParams::new(3, 0.6));
//! assert_eq!(clustering.num_clusters(), 2);
//! ```

pub mod clustering;
pub mod core_order;
pub mod doubling;
pub mod dynamic;
pub mod hierarchy;
pub mod hubs;
pub mod index;
pub mod neighbor_order;
pub mod persist;
pub mod query;
pub mod similarity;
pub mod similarity_exact;
pub mod sweep;
pub mod test_support;

pub use clustering::{Clustering, VertexRole, UNCLUSTERED};
pub use core_order::CoreOrder;
pub use doubling::doubling_search_prefix;
pub use dynamic::{apply_batch, apply_batch_diff, ApplyOutcome, BatchUpdate};
pub use index::{ExactStrategy, IndexConfig, ScanIndex, SortStrategy};
pub use neighbor_order::NeighborOrder;
pub use query::{BorderAssignment, QueryOptions, QueryParamError, QueryParams, VertexProbe};
pub use similarity::SimilarityMeasure;
pub use similarity_exact::EdgeSimilarities;
pub use sweep::{sweep, sweep_with_best, SweepGrid, SweepPoint, SweepResult};
