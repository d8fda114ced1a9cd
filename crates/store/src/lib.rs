//! # parscan-store — the durable index store
//!
//! Construction of a GS*-Index costs `O((α + log n) m)` work; this crate
//! makes that investment survive process restarts. A store is one
//! directory holding three durable artifacts that together let a server
//! come back from a cold start *without rebuilding anything*:
//!
//! 1. **Snapshots** — one v2 index snapshot per graph (section-tabled,
//!    checksummed, loaded with a single sequential read; the format
//!    lives in `parscan_core::persist`).
//! 2. **Manifest** ([`manifest`]) — the checksummed, atomically
//!    rewritten "root pointer" naming every persisted graph with its
//!    measure, pin status, and per-graph engine config.
//! 3. **Audit log** ([`audit`]) — an append-only, size-rotated history
//!    of every LOAD/BUILD/SAVE/UNLOAD/EVICT with monotonic sequence
//!    numbers that survive restarts.
//!
//! [`IndexStore`] ties the three together with crash-safe write
//! ordering; the server crate layers warm boot and the `SAVE` protocol
//! verb on top.

pub mod audit;
pub mod manifest;
mod store;

pub use audit::{AuditEvent, AuditKind, AuditLog};
pub use manifest::ManifestEntry;
pub use store::IndexStore;
