//! Clustering quality measures (§7.2 of the paper): modularity (weighted
//! and unweighted) and the adjusted Rand index (ARI).

pub mod ari;
pub mod modularity;

pub use ari::adjusted_rand_index;
pub use modularity::modularity;
