//! Code shared by the figure/table reproduction binaries.
//!
//! The paper's evaluation (§7) runs on six real graphs (Table 2); this
//! crate generates laptop-scale synthetic stand-ins in the same
//! structural regimes (see DESIGN.md §3) and reports the same rows/series
//! as each figure. Scale with `PARSCAN_SCALE` (default 1.0), e.g.
//! `PARSCAN_SCALE=4 cargo run --release -p parscan-bench --bin fig5_index_construction`.

pub mod datasets;
pub mod params;
pub mod timing;

pub use datasets::{dataset, datasets, Dataset};
pub use timing::{median_time, time_once};
