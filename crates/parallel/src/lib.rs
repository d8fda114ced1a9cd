//! Work-efficient parallel primitives for shared-memory multicores.
//!
//! This crate is the substrate that the rest of the repository builds on. It
//! plays the role that GBBS/ParlayLib and the Cilk scheduler play in the
//! paper "Parallel Index-Based Structural Graph Clustering and Its
//! Approximation" (SIGMOD 2021): a fork-join execution model plus the
//! parallel building blocks of §2.3.2 of the paper:
//!
//! - a persistent [`pool`] of worker threads executing flat fork-join loops
//!   (the crate's one scheduler: every algorithm in the repository is a
//!   sequence of flat data-parallel phases, and nested calls run inline),
//! - [`primitives`]: parallel for, map, and reduce,
//! - [`weighted`]: work-balanced loops (prefix-sum cost scheduling),
//! - [`prefix`]: parallel (exclusive) scan,
//! - [`filter`](mod@filter): parallel filter/pack,
//! - [`sort`]: parallel comparison sort (chunk sort + co-rank parallel merge),
//! - [`radix`]: parallel stable LSD integer sort (the Thm 4.2 ingredient)
//!   and its segmented form, which sorts each pre-grouped segment,
//! - [`hashtable`]: phase-concurrent open-addressing hash set/map,
//! - [`union_find`]: lock-free concurrent union-find (ConnectIt-style).
//!
//! All primitives run on a single global pool (see [`pool::global`]); the
//! number of participating threads can be bounded with
//! [`pool::set_active_threads`], which the scaling experiments use to sweep
//! thread counts without re-creating pools.

pub mod filter;
pub mod hashtable;
pub mod pool;
pub mod prefix;
pub mod primitives;
pub mod radix;
pub mod sort;
pub mod union_find;
pub mod utils;
pub mod weighted;

pub use filter::{filter, pack_index_u32};
pub use hashtable::{ConcurrentMapU64, ConcurrentSetU64};
pub use pool::{num_threads, set_active_threads};
pub use prefix::exclusive_scan_usize;
pub use primitives::{par_for, par_for_range, par_map, reduce};
pub use radix::{par_radix_sort_by_key, par_sort_segments};
pub use sort::par_sort_unstable_by;
pub use union_find::ConcurrentUnionFind;
pub use weighted::{par_for_weighted, par_for_weighted_range, weighted_chunk_ranges};
