//! The parameter grid Σ of Equation (1) in §7.3.4, scaled for laptop
//! budgets: μ over powers of two, ε over a uniform grid. The paper sweeps
//! μ ∈ {2, 4, …, 2^18} × ε ∈ {.01, …, .99}, which is
//! `SweepGrid::stepped(max_mu, 0.01)`; the defaults here keep the same
//! shape with a coarser ε step (override with `PARSCAN_EPS_STEP`).
//!
//! The sweep itself is the library's [`parscan_core::sweep()`] engine —
//! grid points run in parallel against the shared index.

use parscan_core::sweep::{sweep, SweepGrid};
use parscan_core::{QueryParams, ScanIndex};
use parscan_metrics::modularity;

/// ε grid step (default 0.05).
pub fn eps_step() -> f32 {
    std::env::var("PARSCAN_EPS_STEP")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s| s > 0.0 && s < 1.0)
        .unwrap_or(0.05)
}

/// The Σ-shaped sweep grid for a graph whose maximum closed degree is
/// `max_mu`, at the configured ε step.
pub fn sigma_sweep_grid(max_mu: u32) -> SweepGrid {
    SweepGrid::stepped(max_mu, eps_step())
}

/// Best modularity over the grid, using the deterministic most-similar
/// border rule (§7.3.4) and singleton treatment of unclustered vertices.
pub fn best_modularity(index: &ScanIndex) -> (f64, QueryParams) {
    let g = index.graph();
    let max_mu = g.max_degree() as u32 + 1;
    let grid = sigma_sweep_grid(max_mu);
    let result = sweep(index, &grid, |c| {
        if c.num_clusters() == 0 {
            f64::NEG_INFINITY
        } else {
            modularity(g, &c.labels_with_singletons())
        }
    });
    (result.best_score(), result.best_params())
}

#[cfg(test)]
mod tests {
    use super::*;
    use parscan_core::IndexConfig;

    #[test]
    fn grid_shape() {
        let grid = sigma_sweep_grid(16).points();
        // μ ∈ {2,4,8,16}, ε in (0,1) stepping by eps_step.
        let mus: std::collections::BTreeSet<u32> = grid.iter().map(|p| p.mu).collect();
        assert_eq!(mus.into_iter().collect::<Vec<_>>(), vec![2, 4, 8, 16]);
        assert!(grid.iter().all(|p| p.epsilon > 0.0 && p.epsilon < 1.0));
    }

    #[test]
    fn best_modularity_finds_planted_structure() {
        let (g, _) = parscan_graph::generators::planted_partition(400, 4, 12.0, 1.0, 2);
        let index = parscan_core::ScanIndex::build(g, IndexConfig::default());
        let (q, params) = best_modularity(&index);
        assert!(q > 0.3, "modularity {q} at {params:?}");
    }

    #[test]
    fn sweep_engine_matches_serial_argmax() {
        // The engine's argmax equals a plain serial loop over the grid.
        let (g, _) = parscan_graph::generators::planted_partition(200, 3, 10.0, 1.0, 5);
        let index = parscan_core::ScanIndex::build(g, IndexConfig::default());
        let (q, params) = best_modularity(&index);
        let mut best = (f64::NEG_INFINITY, QueryParams::new(2, eps_step()));
        for p in sigma_sweep_grid(index.graph().max_degree() as u32 + 1).points() {
            let c = index.cluster_with(p, parscan_core::BorderAssignment::MostSimilar);
            if c.num_clusters() == 0 {
                continue;
            }
            let m = parscan_metrics::modularity(index.graph(), &c.labels_with_singletons());
            if m > best.0 {
                best = (m, p);
            }
        }
        assert_eq!(q, best.0);
        assert_eq!(params, best.1);
    }
}
