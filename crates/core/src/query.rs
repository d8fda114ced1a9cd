//! Clustering queries against the index (Algorithms 3–5).
//!
//! The query for `(μ, ε)`:
//! 1. **GetCores** (Alg. 3): the prefix of `CO[μ]` with threshold ≥ ε,
//!    found by doubling search.
//! 2. One pass over each core's ε-similar edges, the doubling-search
//!    prefix of its neighbor order (only these edges are ever touched —
//!    the output-sensitive bound of Theorem 4.3). Core–core edges go into
//!    a concurrent union-find (the §6.2 optimization that replaces
//!    materializing the induced subgraph and running a connectivity
//!    algorithm); every other endpoint is claimed once as a border
//!    candidate (Alg. 4's remove-duplicates).
//! 3. Each core takes its union-find root, the minimum core id of its
//!    cluster, as its label.
//! 4. **AssignNonCores** (Alg. 4) with the tie-break of the paper's
//!    quality experiments (§7.3.4): each candidate joins the cluster of
//!    its most similar ε-similar core, ties to the lowest id. The answer
//!    is deterministic, whatever the thread count or schedule.

use crate::clustering::{Clustering, UNCLUSTERED};
use crate::index::ScanIndex;
use parscan_graph::VertexId;
use parscan_parallel::pool::num_threads;
use parscan_parallel::primitives::{par_for, par_map};
use parscan_parallel::union_find::ConcurrentUnionFind;
use parscan_parallel::weighted::weighted_chunk_ranges;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

/// The label of a non-core that the union pass has claimed as a border
/// candidate, until the border pass replaces it. Only `UNCLUSTERED` is
/// ever compared against, so this value may equal a real label.
const CLAIMED: u32 = UNCLUSTERED - 1;

/// SCAN query parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueryParams {
    pub mu: u32,
    pub epsilon: f32,
}

/// Why a `(μ, ε)` pair is outside SCAN's parameter domain.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum QueryParamError {
    /// `μ < 2`: a "cluster" of one vertex is not a structural cluster.
    MuTooSmall { mu: u32 },
    /// `ε ∉ [0, 1]` (similarities are normalized scores), or `ε` is NaN.
    EpsilonOutOfRange { epsilon: f32 },
}

impl std::fmt::Display for QueryParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryParamError::MuTooSmall { mu } => {
                write!(f, "SCAN requires μ ≥ 2, got {mu}")
            }
            QueryParamError::EpsilonOutOfRange { epsilon } => {
                write!(f, "ε must lie in [0, 1], got {epsilon}")
            }
        }
    }
}

impl std::error::Error for QueryParamError {}

impl QueryParams {
    /// Validating constructor: `μ ≥ 2` and `ε ∈ [0, 1]` (the paper's
    /// domain). The fallible entry point for parameters arriving from
    /// CLIs, network clients, and other untrusted sources.
    ///
    /// # Examples
    ///
    /// ```
    /// use parscan_core::{QueryParamError, QueryParams};
    ///
    /// let p = QueryParams::try_new(3, 0.5).unwrap();
    /// assert_eq!((p.mu, p.epsilon), (3, 0.5));
    ///
    /// // Out-of-domain parameters are structured errors, not panics.
    /// assert_eq!(
    ///     QueryParams::try_new(1, 0.5),
    ///     Err(QueryParamError::MuTooSmall { mu: 1 })
    /// );
    /// assert!(matches!(
    ///     QueryParams::try_new(2, 1.5),
    ///     Err(QueryParamError::EpsilonOutOfRange { .. })
    /// ));
    /// // NaN is rejected too.
    /// assert!(QueryParams::try_new(2, f32::NAN).is_err());
    /// ```
    pub fn try_new(mu: u32, epsilon: f32) -> Result<Self, QueryParamError> {
        if mu < 2 {
            return Err(QueryParamError::MuTooSmall { mu });
        }
        // `contains` is false for NaN, rejecting it too.
        if !(0.0..=1.0).contains(&epsilon) {
            return Err(QueryParamError::EpsilonOutOfRange { epsilon });
        }
        Ok(QueryParams { mu, epsilon })
    }

    /// # Panics
    /// Panics unless `μ ≥ 2` and `ε ∈ [0, 1]` (the paper's domain).
    pub fn new(mu: u32, epsilon: f32) -> Self {
        match Self::try_new(mu, epsilon) {
            Ok(params) => params,
            Err(e) => panic!("{e}"),
        }
    }
}

/// How border vertices pick among adjacent clusters. The query has one
/// policy; this type and [`QueryOptions`] remain because the `scanbench`
/// harness names them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BorderAssignment {
    /// Attach to the most similar ε-similar core neighbor, ties to the
    /// lowest id (§7.3.4).
    #[default]
    MostSimilar,
}

/// Query configuration for [`ScanIndex::cluster_with_opts`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct QueryOptions {
    pub border: BorderAssignment,
}

impl ScanIndex {
    /// The core vertices for `(μ, ε)` (Algorithm 3).
    pub fn cores(&self, params: QueryParams) -> &[VertexId] {
        self.core_order().cores(params.mu, params.epsilon)
    }

    /// SCAN clustering for `(μ, ε)` (Algorithms 3–5): every border joins
    /// the cluster of its most similar core, ties to the lowest id, so
    /// the answer is deterministic.
    pub fn cluster(&self, params: QueryParams) -> Clustering {
        let g = self.graph();
        let no = self.neighbor_order();
        let n = g.num_vertices();
        let eps = params.epsilon;
        let cores = self.cores(params);

        let core_flag: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
        par_for(cores.len(), 1024, |i| {
            core_flag[cores[i] as usize].store(true, Ordering::Relaxed);
        });
        let core_flag: Vec<bool> = core_flag.into_iter().map(AtomicBool::into_inner).collect();

        // One pass over the cores' ε-prefixes, in chunks of balanced
        // degree. Each undirected core–core edge appears in both
        // endpoints' prefixes; union it from the smaller endpoint only.
        // Any other endpoint is a border candidate: the first core to
        // reach it claims it (a load first, so an already claimed vertex
        // costs no write) and keeps it in its chunk's buffer. Relaxed is
        // enough: a claim publishes no other data, and each later phase
        // reads only what an earlier loop wrote, which the pool's join
        // orders.
        let labels: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNCLUSTERED)).collect();
        let uf = ConcurrentUnionFind::new(n);
        let degrees = par_map(cores.len(), 2048, |i| g.degree(cores[i]));
        let chunks = weighted_chunk_ranges(&degrees, 8 * num_threads());
        let claimed: Vec<Vec<VertexId>> = par_map(chunks.len(), 1, |c| {
            let mut buffer = Vec::new();
            for &v in &cores[chunks[c].clone()] {
                for &u in no.epsilon_prefix(g, v, eps).0 {
                    if core_flag[u as usize] {
                        if u > v {
                            uf.union(v, u);
                        }
                    } else {
                        let label = &labels[u as usize];
                        if label.load(Ordering::Relaxed) == UNCLUSTERED
                            && label.swap(CLAIMED, Ordering::Relaxed) == UNCLUSTERED
                        {
                            buffer.push(u);
                        }
                    }
                }
            }
            buffer
        });

        // Label cores by their component root (the minimum core id in the
        // cluster — a deterministic representative).
        par_for(cores.len(), 1024, |i| {
            let v = cores[i];
            labels[v as usize].store(uf.find(v), Ordering::Relaxed);
        });

        // A candidate's neighbor order is (similarity desc, id asc), so
        // the first core in its ε-prefix is its most similar, lowest-id
        // one. Only asymmetric scores, which a crafted snapshot may
        // carry, leave a candidate without one: it stays unclustered.
        let borders = claimed.concat();
        par_for(borders.len(), 256, |i| {
            let u = borders[i];
            let label = no
                .neighbors(g, u)
                .iter()
                .zip(no.similarities(g, u))
                .take_while(|&(_, &s)| s >= eps)
                .find(|&(&x, _)| core_flag[x as usize])
                .map_or(UNCLUSTERED, |(&x, _)| {
                    labels[x as usize].load(Ordering::Relaxed)
                });
            labels[u as usize].store(label, Ordering::Relaxed);
        });

        let labels: Vec<u32> = labels.into_iter().map(AtomicU32::into_inner).collect();
        Clustering::new(labels, core_flag)
    }

    /// [`Self::cluster`]. Kept only because the `scanbench` harness
    /// calls it.
    pub fn cluster_with(&self, params: QueryParams, _border: BorderAssignment) -> Clustering {
        self.cluster(params)
    }

    /// [`Self::cluster`]. Kept only because the `scanbench` harness
    /// calls it.
    pub fn cluster_with_opts(&self, params: QueryParams, _opts: QueryOptions) -> Clustering {
        self.cluster(params)
    }

    /// A degree-bounded summary of one vertex at `(μ, ε)` — its closed
    /// ε-neighborhood size, core flag, and the core it would attach to as
    /// a border — answered from the index orders alone, without running
    /// (or caching) a full clustering query. The cheap point-lookup path
    /// the serving layer exposes.
    pub fn probe_vertex(&self, v: VertexId, params: QueryParams) -> VertexProbe {
        let g = self.graph();
        let no = self.neighbor_order();
        let (nbrs, _) = no.epsilon_prefix(g, v, params.epsilon);
        let is_core = nbrs.len() + 1 >= params.mu as usize;
        // The prefix is (similarity desc, id asc), so the first core hit
        // is the most similar, lowest-id attachment — the core whose
        // cluster [`ScanIndex::cluster`] gives a border.
        let attach_core = nbrs.iter().copied().find(|&u| {
            no.core_threshold(g, u, params.mu)
                .is_some_and(|t| t >= params.epsilon)
        });
        VertexProbe {
            eps_neighborhood: nbrs.len() + 1,
            is_core,
            attach_core,
        }
    }
}

/// Result of [`ScanIndex::probe_vertex`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VertexProbe {
    /// `|N̄_ε(v)|`, counting `v` itself.
    pub eps_neighborhood: usize,
    /// Whether `v` is a core at these parameters.
    pub is_core: bool,
    /// The most similar ε-similar core neighbor (self excluded), if any:
    /// the cluster anchor for a border vertex. `None` for cores without
    /// core neighbors and for unclustered vertices.
    pub attach_core: Option<VertexId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{IndexConfig, ScanIndex};
    use crate::similarity::SimilarityMeasure;
    use parscan_graph::generators;

    fn figure1_index() -> ScanIndex {
        ScanIndex::build(generators::paper_figure1(), IndexConfig::default())
    }

    #[test]
    fn figure1_clustering_matches_paper() {
        let idx = figure1_index();
        let c = idx.cluster(QueryParams::new(3, 0.6));
        assert_eq!(c.num_clusters(), 2);
        // Paper clusters {1,2,3,4} and {6,7,8,11} → ours {0,1,2,3}, {5,6,7,10}.
        assert_eq!(c.labels[0], 0);
        assert_eq!(c.labels[1], 0);
        assert_eq!(c.labels[2], 0);
        assert_eq!(c.labels[3], 0);
        assert_eq!(c.labels[5], 5);
        assert_eq!(c.labels[6], 5);
        assert_eq!(c.labels[7], 5);
        assert_eq!(c.labels[10], 5);
        // Hub 5 and outliers 9, 10 (paper ids) are unclustered.
        assert_eq!(c.labels[4], UNCLUSTERED);
        assert_eq!(c.labels[8], UNCLUSTERED);
        assert_eq!(c.labels[9], UNCLUSTERED);
        // Border: paper vertex 11 (ours 10) is clustered but not a core.
        assert!(!c.is_core(10));
        assert!(c.is_clustered(10));
    }

    #[test]
    fn epsilon_one_keeps_only_perfect_pairs() {
        // Two adjacent degree-1 vertices have σ = 1.
        let g = parscan_graph::from_edges(4, &[(0, 1), (2, 3)]);
        let idx = ScanIndex::build(g, IndexConfig::default());
        let c = idx.cluster(QueryParams::new(2, 1.0));
        assert_eq!(c.num_clusters(), 2);
        assert_eq!(c.labels[0], c.labels[1]);
        assert_eq!(c.labels[2], c.labels[3]);
        assert_ne!(c.labels[0], c.labels[2]);
    }

    #[test]
    fn epsilon_zero_mu_two_clusters_every_edge_endpoint() {
        let g = generators::erdos_renyi(200, 600, 2);
        let idx = ScanIndex::build(g, IndexConfig::default());
        let c = idx.cluster(QueryParams::new(2, 0.0));
        for v in 0..200u32 {
            let deg = idx.graph().degree(v);
            if deg >= 1 {
                assert!(c.is_clustered(v), "vertex {v} with degree {deg}");
                assert!(c.is_core(v));
            } else {
                assert!(!c.is_clustered(v));
            }
        }
    }

    #[test]
    fn clustering_invariants_random_graphs() {
        for seed in [1u64, 5, 11] {
            let (g, _) = generators::planted_partition(500, 5, 10.0, 1.5, seed);
            let idx = ScanIndex::build(g, IndexConfig::with_measure(SimilarityMeasure::Cosine));
            for mu in [2u32, 3, 5] {
                for eps in [0.3f32, 0.5, 0.7] {
                    let params = QueryParams::new(mu, eps);
                    let c = idx.cluster(params);
                    check_scan_invariants(&idx, params, &c);
                }
            }
        }
    }

    /// Validate the defining properties of a SCAN clustering.
    fn check_scan_invariants(idx: &ScanIndex, params: QueryParams, c: &Clustering) {
        let g = idx.graph();
        let no = idx.neighbor_order();
        let cores: std::collections::HashSet<u32> = idx.cores(params).iter().copied().collect();
        for v in 0..g.num_vertices() as u32 {
            // Core flag matches the ε-neighborhood definition.
            let eps_closed = 1 + no.epsilon_prefix(g, v, params.epsilon).0.len();
            assert_eq!(
                cores.contains(&v),
                eps_closed >= params.mu as usize,
                "core flag wrong at {v}"
            );
            assert_eq!(c.is_core(v), cores.contains(&v));
            if c.is_core(v) {
                // Connectivity: ε-similar core neighbors share the cluster.
                let (nbrs, _) = no.epsilon_prefix(g, v, params.epsilon);
                for &u in nbrs {
                    if cores.contains(&u) {
                        assert_eq!(c.labels[v as usize], c.labels[u as usize]);
                    }
                }
                assert!(c.is_clustered(v));
            } else if c.is_clustered(v) {
                // Border: must be ε-similar to a core in its cluster.
                let (nbrs, _) = no.epsilon_prefix(g, v, params.epsilon);
                assert!(
                    nbrs.iter().any(
                        |&u| cores.contains(&u) && c.labels[u as usize] == c.labels[v as usize]
                    ),
                    "border {v} lacks supporting core"
                );
            } else {
                // Unclustered: no ε-similar core neighbor at all.
                let (nbrs, _) = no.epsilon_prefix(g, v, params.epsilon);
                assert!(
                    nbrs.iter().all(|&u| !cores.contains(&u)),
                    "vertex {v} should have been clustered"
                );
            }
        }
        // Maximality: every cluster contains at least one core.
        for (label, members) in c.members() {
            assert!(
                members.iter().any(|&v| c.is_core(v)),
                "cluster {label} has no core"
            );
        }
    }

    #[test]
    fn deterministic_border_mode_is_stable_across_runs() {
        let (g, _) = generators::planted_partition(400, 4, 9.0, 2.0, 7);
        let idx = ScanIndex::build(g, IndexConfig::default());
        let params = QueryParams::new(3, 0.45);
        let first = idx.cluster_with(params, BorderAssignment::MostSimilar);
        for _ in 0..5 {
            let again = idx.cluster_with(params, BorderAssignment::MostSimilar);
            assert_eq!(first, again);
        }
    }

    #[test]
    fn most_similar_with_many_borders_per_core() {
        // Regression: a few cores exposing many distinct borders used to
        // overflow the under-sized candidate set (sized by core count) and
        // spin forever in the probe loop. Star: hub is the only core at
        // large μ; every leaf is a border candidate.
        let n = 200u32;
        let edges: Vec<(u32, u32)> = (1..n).map(|leaf| (0, leaf)).collect();
        let g = parscan_graph::from_edges(n as usize, &edges);
        let idx = ScanIndex::build(g, IndexConfig::default());
        // σ(hub, leaf) = 2/√(2n̄) > 0.01, so at ε = 0.01 the hub has n-1
        // ε-similar neighbors: core at μ = 50; leaves (closed degree 2) are not.
        let c = idx.cluster_with(QueryParams::new(50, 0.01), BorderAssignment::MostSimilar);
        assert!(c.is_core(0));
        assert_eq!(c.num_clusters(), 1);
        for leaf in 1..n {
            assert!(!c.is_core(leaf));
            assert_eq!(c.labels[leaf as usize], c.labels[0], "leaf {leaf}");
        }
    }

    #[test]
    fn tied_border_joins_the_lowest_id_core_then_the_most_similar() {
        // Two 5-cliques, {0..4} and {5..9}, and b = 10 joined to the first
        // vertex of each: b is ε-similar to cores 0 and 5 with bitwise
        // equal scores, so the tie goes to the lower id.
        let clique =
            |base: u32| (base..base + 5).flat_map(move |u| (u + 1..base + 5).map(move |v| (u, v)));
        let mut edges: Vec<(u32, u32)> = clique(0).chain(clique(5)).collect();
        edges.extend([(0, 10), (5, 10)]);
        let params = QueryParams::new(5, 0.35);
        let idx = ScanIndex::build(
            parscan_graph::from_edges(11, &edges),
            IndexConfig::default(),
        );
        let sims = idx.neighbor_order().similarities(idx.graph(), 10);
        assert_eq!(sims[0].to_bits(), sims[1].to_bits(), "the scores must tie");
        let c = idx.cluster(params);
        assert!(!c.is_core(10) && c.is_core(0) && c.is_core(5));
        assert_ne!(c.labels[0], c.labels[5]);
        assert_eq!(c.labels[10], c.labels[0]);

        // One more edge into the higher-id clique makes its cores 5 and 6
        // strictly more similar to b than 0 is; b, still a non-core,
        // follows them.
        edges.push((6, 10));
        let idx = ScanIndex::build(
            parscan_graph::from_edges(11, &edges),
            IndexConfig::default(),
        );
        let c = idx.cluster(params);
        assert!(!c.is_core(10) && c.is_core(0) && c.is_core(5));
        assert_ne!(c.labels[0], c.labels[5]);
        assert_eq!(c.labels[10], c.labels[5]);
    }

    #[test]
    #[should_panic(expected = "μ ≥ 2")]
    fn rejects_mu_one() {
        QueryParams::new(1, 0.5);
    }

    #[test]
    #[should_panic(expected = "ε must lie in")]
    fn rejects_bad_epsilon() {
        QueryParams::new(2, 1.5);
    }

    #[test]
    fn try_new_validates_the_domain() {
        assert_eq!(
            QueryParams::try_new(3, 0.5),
            Ok(QueryParams {
                mu: 3,
                epsilon: 0.5
            })
        );
        assert_eq!(
            QueryParams::try_new(1, 0.5),
            Err(QueryParamError::MuTooSmall { mu: 1 })
        );
        assert_eq!(
            QueryParams::try_new(0, 0.5),
            Err(QueryParamError::MuTooSmall { mu: 0 })
        );
        assert!(matches!(
            QueryParams::try_new(2, -0.1),
            Err(QueryParamError::EpsilonOutOfRange { .. })
        ));
        assert!(matches!(
            QueryParams::try_new(2, 1.01),
            Err(QueryParamError::EpsilonOutOfRange { .. })
        ));
        assert!(matches!(
            QueryParams::try_new(2, f32::NAN),
            Err(QueryParamError::EpsilonOutOfRange { .. })
        ));
        // Boundary values are legal.
        assert!(QueryParams::try_new(2, 0.0).is_ok());
        assert!(QueryParams::try_new(2, 1.0).is_ok());
        // Error messages match the panicking constructor's wording.
        let msg = QueryParamError::MuTooSmall { mu: 1 }.to_string();
        assert!(msg.contains("μ ≥ 2"), "{msg}");
    }

    #[test]
    fn probe_vertex_agrees_with_clustering() {
        let (g, _) = generators::planted_partition(250, 5, 9.0, 1.5, 23);
        let idx = ScanIndex::build(g, IndexConfig::default());
        for (mu, eps) in [(2u32, 0.35f32), (4, 0.5)] {
            let params = QueryParams::new(mu, eps);
            let c = idx.cluster_with(params, BorderAssignment::MostSimilar);
            for v in 0..idx.graph().num_vertices() as u32 {
                let probe = idx.probe_vertex(v, params);
                assert_eq!(probe.is_core, c.is_core(v), "core flag at {v}");
                if probe.is_core {
                    assert!(probe.eps_neighborhood >= mu as usize);
                }
                match probe.attach_core {
                    Some(u) => {
                        assert!(c.is_core(u), "attach target {u} must be a core");
                        if !probe.is_core {
                            // v is a border of u's cluster.
                            assert_eq!(c.labels[v as usize], c.labels[u as usize]);
                        }
                    }
                    None => {
                        if !probe.is_core {
                            assert!(!c.is_clustered(v), "borders have a core anchor");
                        }
                    }
                }
            }
        }
    }
}
