//! Parameter exploration over a (μ, ε) grid.
//!
//! The motivation for an index-based SCAN (§1): users "often explore many
//! parameter settings to find good clusterings", so construction cost is
//! paid once and each setting is a cheap query. The paper's quality
//! experiments (§7.3.4) do exactly this — they scan the grid
//! `Σ = {2, 4, 8, …, 2^18} × {.01, .02, …, .99}` (Equation 1) and keep the
//! modularity-maximizing setting. This module packages that loop as a
//! library feature: a parallel sweep over grid points against one shared
//! index, scored by any user-supplied quality function.
//!
//! The engine is deliberately generic over the score so this crate does not
//! depend on `parscan-metrics`; the workspace facade and the Figure 9/10
//! harnesses pass modularity.

use crate::clustering::Clustering;
use crate::index::ScanIndex;
use crate::query::QueryParams;
use parscan_parallel::primitives::par_for;
use parscan_parallel::utils::SyncMutPtr;

/// The grid of SCAN parameter settings to explore.
#[derive(Clone, Debug)]
pub struct SweepGrid {
    /// μ values (each ≥ 2).
    pub mus: Vec<u32>,
    /// ε values (each in `[0, 1]`).
    pub epsilons: Vec<f32>,
}

impl SweepGrid {
    /// The paper's grid Σ (Equation 1): μ ∈ {2, 4, 8, …, 2^18} and
    /// ε ∈ {.01, .02, …, .99}, with μ capped at `max_mu` (pass the graph's
    /// max closed degree — larger μ yield empty clusterings anyway).
    pub fn paper_sigma(max_mu: u32) -> Self {
        SweepGrid {
            mus: doubling_mus(max_mu),
            epsilons: (1..=99).map(|i| i as f32 / 100.0).collect(),
        }
    }

    /// The same μ doubling capped at `max_mu`, with ε at every multiple
    /// of `eps_step` below 1: ε = `i as f32 * eps_step` for i = 1, 2, ….
    /// Exact multiples, not repeated addition (which drifts in f32), so
    /// `parscan sweep` and the server's `SWEEP` evaluate the same points.
    /// `stepped(max_mu, 0.05)` is ε ∈ {0.05, 0.10, …, 0.95}. The grid
    /// has about `1 / eps_step` ε values, so callers bound the step from
    /// below.
    ///
    /// # Panics
    /// If `eps_step` is not positive.
    pub fn stepped(max_mu: u32, eps_step: f32) -> Self {
        assert!(eps_step > 0.0, "eps_step must be positive, got {eps_step}");
        SweepGrid {
            mus: doubling_mus(max_mu),
            epsilons: (1..)
                .map(|i| i as f32 * eps_step)
                .take_while(|&e| e < 1.0)
                .collect(),
        }
    }

    /// All (μ, ε) points in the grid, μ-major.
    pub fn points(&self) -> Vec<QueryParams> {
        let mut out = Vec::with_capacity(self.mus.len() * self.epsilons.len());
        for &mu in &self.mus {
            for &eps in &self.epsilons {
                out.push(QueryParams::new(mu, eps));
            }
        }
        out
    }
}

/// μ ∈ {2, 4, 8, …, 2^18} capped at `max_mu`; never empty.
fn doubling_mus(max_mu: u32) -> Vec<u32> {
    let mut mus = Vec::new();
    let mut mu = 2u32;
    while mu <= max_mu.max(2) && mu <= 1 << 18 {
        mus.push(mu);
        mu = mu.saturating_mul(2);
    }
    if mus.is_empty() {
        mus.push(2);
    }
    mus
}

/// Score of one grid point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepPoint {
    pub params: QueryParams,
    pub score: f64,
    pub num_clusters: usize,
    pub num_clustered: usize,
}

/// Outcome of a parameter sweep: every scored point plus the argmax.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// One entry per grid point, in grid order (μ-major).
    pub points: Vec<SweepPoint>,
    /// Index into `points` of the best score (ties: first in grid order).
    pub best: usize,
}

impl SweepResult {
    /// The best-scoring parameters.
    pub fn best_params(&self) -> QueryParams {
        self.points[self.best].params
    }

    /// The best score.
    pub fn best_score(&self) -> f64 {
        self.points[self.best].score
    }
}

/// Sweep the grid against `index`, scoring each point's clustering with
/// `score`. Grid points run in parallel (each query is independent and
/// borrows the index immutably); the query's borders follow the
/// deterministic §7.3.4 tie-break, so scores are reproducible.
///
/// Returns every scored point (callers can plot the full quality surface)
/// plus the argmax. Ties break toward the earliest grid point, so results
/// are deterministic.
///
/// ```
/// use parscan_core::sweep::{sweep, SweepGrid};
/// use parscan_core::{IndexConfig, ScanIndex};
///
/// let (g, _) = parscan_graph::generators::planted_partition(300, 6, 12.0, 1.0, 7);
/// let index = ScanIndex::build(g, IndexConfig::default());
/// let grid = SweepGrid { mus: vec![2, 3], epsilons: vec![0.2, 0.3, 0.4] };
/// // Score by clustered fraction (any Fn(&Clustering) -> f64 works).
/// let result = sweep(&index, &grid, |c| c.num_clustered() as f64);
/// assert_eq!(result.points.len(), 6);
/// assert!(result.best_score() > 0.0);
/// ```
pub fn sweep<F>(index: &ScanIndex, grid: &SweepGrid, score: F) -> SweepResult
where
    F: Fn(&Clustering) -> f64 + Sync,
{
    let params = grid.points();
    assert!(!params.is_empty(), "sweep grid is empty");
    let mut points = vec![
        SweepPoint {
            params: params[0],
            score: f64::NEG_INFINITY,
            num_clusters: 0,
            num_clustered: 0,
        };
        params.len()
    ];
    {
        let ptr = SyncMutPtr::new(&mut points);
        par_for(params.len(), 1, |i| {
            let c = index.cluster(params[i]);
            let s = score(&c);
            // SAFETY: one grid point per slot; writes are disjoint.
            unsafe {
                ptr.write(
                    i,
                    SweepPoint {
                        params: params[i],
                        score: s,
                        num_clusters: c.num_clusters(),
                        num_clustered: c.num_clustered(),
                    },
                );
            }
        });
    }
    let mut best = 0;
    for (i, p) in points.iter().enumerate() {
        if p.score > points[best].score {
            best = i;
        }
    }
    SweepResult { points, best }
}

/// Convenience: sweep and also return the clustering at the best point
/// (recomputed once — clusterings are not retained during the sweep to
/// keep memory `O(|grid|)`, not `O(|grid| · n)`).
pub fn sweep_with_best<F>(
    index: &ScanIndex,
    grid: &SweepGrid,
    score: F,
) -> (SweepResult, Clustering)
where
    F: Fn(&Clustering) -> f64 + Sync,
{
    let result = sweep(index, grid, score);
    let best = index.cluster(result.best_params());
    (result, best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexConfig;
    use crate::query::BorderAssignment;
    use parscan_graph::generators;

    fn quality_proxy(c: &Clustering) -> f64 {
        // A simple deterministic score: clustered fraction minus cluster
        // fragmentation — enough to exercise argmax logic.
        if c.num_vertices() == 0 {
            return 0.0;
        }
        c.num_clustered() as f64 / c.num_vertices() as f64
            - c.num_clusters() as f64 / c.num_vertices() as f64
    }

    #[test]
    fn paper_sigma_shape() {
        let grid = SweepGrid::paper_sigma(1 << 20);
        assert_eq!(grid.mus.first(), Some(&2));
        assert_eq!(grid.mus.last(), Some(&(1 << 18)));
        assert_eq!(grid.epsilons.len(), 99);
        assert!((grid.epsilons[0] - 0.01).abs() < 1e-6);
        assert!((grid.epsilons[98] - 0.99).abs() < 1e-6);
    }

    #[test]
    fn sigma_caps_at_max_mu() {
        let grid = SweepGrid::paper_sigma(10);
        assert_eq!(grid.mus, vec![2, 4, 8]);
        // Degenerate cap still yields a usable grid.
        let tiny = SweepGrid::paper_sigma(1);
        assert_eq!(tiny.mus, vec![2]);
    }

    #[test]
    fn stepped_grid_is_exact_multiples_of_the_step() {
        let coarse = SweepGrid::stepped(10, 0.05);
        assert_eq!(coarse.mus, SweepGrid::paper_sigma(10).mus);
        assert_eq!(coarse.epsilons.len(), 19);
        // Repeated f32 addition gives 0.40000004 here.
        assert_eq!(coarse.epsilons[7], 0.4f32);
        let fine = SweepGrid::stepped(10, 0.01);
        assert_eq!(fine.epsilons.len(), 99);
        for (i, &e) in fine.epsilons.iter().enumerate() {
            assert_eq!(e, (i + 1) as f32 * 0.01, "ε index {i}");
        }
    }

    #[test]
    fn sweep_is_deterministic_and_covers_grid() {
        let (g, _) = generators::planted_partition(300, 3, 10.0, 1.0, 11);
        let idx = ScanIndex::build(g, IndexConfig::default());
        let grid = SweepGrid {
            mus: vec![2, 3, 5],
            epsilons: vec![0.2, 0.4, 0.6, 0.8],
        };
        let a = sweep(&idx, &grid, quality_proxy);
        let b = sweep(&idx, &grid, quality_proxy);
        assert_eq!(a.points.len(), 12);
        assert_eq!(a.points, b.points);
        assert_eq!(a.best, b.best);
        // Every point carries its own params in grid order.
        assert_eq!(a.points[0].params, QueryParams::new(2, 0.2));
        assert_eq!(a.points[11].params, QueryParams::new(5, 0.8));
    }

    #[test]
    fn best_is_argmax() {
        let (g, _) = generators::planted_partition(200, 2, 9.0, 1.0, 3);
        let idx = ScanIndex::build(g, IndexConfig::default());
        let grid = SweepGrid::stepped(idx.graph().max_degree() as u32 + 1, 0.05);
        let result = sweep(&idx, &grid, quality_proxy);
        let max = result
            .points
            .iter()
            .map(|p| p.score)
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(result.best_score(), max);
        // Ties break to the first grid point with the max score.
        let first = result.points.iter().position(|p| p.score == max).unwrap();
        assert_eq!(result.best, first);
    }

    #[test]
    fn sweep_with_best_returns_matching_clustering() {
        let (g, _) = generators::planted_partition(200, 4, 9.0, 1.0, 17);
        let idx = ScanIndex::build(g, IndexConfig::default());
        let grid = SweepGrid {
            mus: vec![2, 4],
            epsilons: vec![0.3, 0.5, 0.7],
        };
        let (result, best) = sweep_with_best(&idx, &grid, quality_proxy);
        let expect = idx.cluster_with(result.best_params(), BorderAssignment::MostSimilar);
        assert_eq!(best, expect);
        assert_eq!(result.points[result.best].num_clusters, best.num_clusters());
    }

    #[test]
    #[should_panic(expected = "grid is empty")]
    fn rejects_empty_grid() {
        let g = generators::path(4);
        let idx = ScanIndex::build(g, IndexConfig::default());
        let grid = SweepGrid {
            mus: vec![],
            epsilons: vec![],
        };
        sweep(&idx, &grid, quality_proxy);
    }
}
