//! The SCAN index ([`ScanIndex`]): per-edge similarities + neighbor order +
//! core order, with parallel construction (§4.1, Theorems 4.1/4.2).

use crate::core_order::CoreOrder;
use crate::neighbor_order::NeighborOrder;
use crate::similarity::SimilarityMeasure;
use crate::similarity_exact::{
    compute_full_merge, compute_hash_based, compute_merge_based, EdgeSimilarities,
};
use parscan_graph::CsrGraph;

/// How exact similarities are computed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ExactStrategy {
    /// Merge-based triangle counting over the degree-ordered orientation —
    /// the paper's production choice (§6.1).
    #[default]
    MergeBased,
    /// Algorithm 1: per-vertex hash tables (`O(αm)` expected work).
    HashBased,
    /// Per-edge full neighbor-list merges (pSCAN-style; simple oracle).
    FullMerge,
}

/// How the neighbor and core orders are sorted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SortStrategy {
    /// Integer sorts of pre-grouped segments — the Thm 4.2 improvement:
    /// each vertex's slots (NO) and each μ bucket (CO) is sorted on its
    /// own, in cache when it holds at most 65,536 records and by radix
    /// otherwise, for `O(m)` work.
    #[default]
    Integer,
    /// Parallel comparison sorts — the Thm 4.1 path.
    Comparison,
}

/// Index construction configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct IndexConfig {
    pub measure: SimilarityMeasure,
    pub exact: ExactStrategy,
    pub sort: SortStrategy,
}

impl IndexConfig {
    pub fn with_measure(measure: SimilarityMeasure) -> Self {
        IndexConfig {
            measure,
            ..Default::default()
        }
    }
}

/// The GS*-Index structures, constructed in parallel. Owns its graph;
/// queries borrow the index immutably, so many queries may run at once.
pub struct ScanIndex {
    graph: CsrGraph,
    sims: EdgeSimilarities,
    no: NeighborOrder,
    co: CoreOrder,
    measure: SimilarityMeasure,
}

// The serving layer keeps one `Arc<ScanIndex>` resident and answers many
// clients' queries against it concurrently; queries borrow the index
// immutably. Keep the index free of interior mutability so this stays true.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ScanIndex>();
};

impl std::fmt::Debug for ScanIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScanIndex")
            .field("n", &self.graph.num_vertices())
            .field("m", &self.graph.num_edges())
            .field("weighted", &self.graph.is_weighted())
            .field("measure", &self.measure)
            .field("max_mu", &self.co.max_mu())
            .finish()
    }
}

impl ScanIndex {
    /// Construct the index: similarities, then neighbor order, then core
    /// order — each phase a flat parallel pass (§4.1).
    pub fn build(graph: CsrGraph, config: IndexConfig) -> Self {
        let sims = match config.exact {
            ExactStrategy::MergeBased => compute_merge_based(&graph, config.measure),
            ExactStrategy::HashBased => compute_hash_based(&graph, config.measure),
            ExactStrategy::FullMerge => compute_full_merge(&graph, config.measure),
        };
        Self::from_similarities(graph, sims, config.measure, config.sort)
    }

    /// Construct the orders on top of externally computed per-slot
    /// similarities — the entry point the LSH approximation uses (§5).
    pub fn from_similarities(
        graph: CsrGraph,
        sims: EdgeSimilarities,
        measure: SimilarityMeasure,
        sort: SortStrategy,
    ) -> Self {
        assert_eq!(
            sims.len(),
            graph.num_slots(),
            "similarities must cover every slot"
        );
        let no = NeighborOrder::build(&graph, &sims, sort);
        let co = CoreOrder::build(&graph, &no, sort);
        ScanIndex {
            graph,
            sims,
            no,
            co,
            measure,
        }
    }

    /// Reassemble an index from already-built structures without any
    /// recomputation — used by [`crate::persist`] when loading from disk.
    ///
    /// # Panics
    /// Panics if array lengths are inconsistent with the graph.
    pub fn from_existing_parts(
        graph: CsrGraph,
        sims: EdgeSimilarities,
        no: NeighborOrder,
        co: CoreOrder,
        measure: SimilarityMeasure,
    ) -> Self {
        assert_eq!(sims.len(), graph.num_slots(), "similarity length mismatch");
        assert_eq!(
            no.parts().0.len(),
            graph.num_slots(),
            "neighbor-order length mismatch"
        );
        assert_eq!(
            co.parts().1.len(),
            graph.num_slots(),
            "core-order length mismatch"
        );
        ScanIndex {
            graph,
            sims,
            no,
            co,
            measure,
        }
    }

    #[inline]
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    #[inline]
    pub fn similarities(&self) -> &EdgeSimilarities {
        &self.sims
    }

    #[inline]
    pub fn neighbor_order(&self) -> &NeighborOrder {
        &self.no
    }

    #[inline]
    pub fn core_order(&self) -> &CoreOrder {
        &self.co
    }

    #[inline]
    pub fn measure(&self) -> SimilarityMeasure {
        self.measure
    }

    /// Resident memory footprint in bytes, summed from the actual owned
    /// array lengths (including the owned graph, which the index keeps
    /// alive, and the ε breakpoint table once it has been computed) so it
    /// tracks structural changes automatically — the registry's
    /// byte-budgeted eviction depends on this staying honest. Still
    /// `O(m)`, the paper's space claim.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of_val;
        let (no_nbr, no_sim) = self.no.parts();
        let (mu_offsets, co_vertices, co_thresholds) = self.co.parts();
        self.graph.memory_bytes()
            + self.sims.memory_bytes()
            + size_of_val(no_nbr)
            + size_of_val(no_sim)
            + size_of_val(mu_offsets)
            + size_of_val(co_vertices)
            + size_of_val(co_thresholds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parscan_graph::generators;

    #[test]
    fn build_all_configs() {
        let g = generators::erdos_renyi(150, 900, 3);
        let mut reference: Option<Vec<u32>> = None;
        for exact in [
            ExactStrategy::MergeBased,
            ExactStrategy::HashBased,
            ExactStrategy::FullMerge,
        ] {
            for sort in [SortStrategy::Integer, SortStrategy::Comparison] {
                let idx = ScanIndex::build(
                    g.clone(),
                    IndexConfig {
                        measure: SimilarityMeasure::Cosine,
                        exact,
                        sort,
                    },
                );
                assert_eq!(idx.neighbor_order().validate(&g), Ok(()));
                assert_eq!(idx.core_order().validate(&g, idx.neighbor_order()), Ok(()));
                // All strategies yield identical core sets at a fixed query.
                let mut cores = idx.core_order().cores(3, 0.5).to_vec();
                cores.sort_unstable();
                match &reference {
                    None => reference = Some(cores),
                    Some(want) => assert_eq!(&cores, want, "{exact:?}/{sort:?}"),
                }
            }
        }
    }

    #[test]
    fn from_similarities_respects_injection() {
        let g = generators::path(4); // edges 0-1, 1-2, 2-3
                                     // Inject constant similarities.
        let sims = EdgeSimilarities::from_per_slot(vec![0.5; g.num_slots()]);
        let idx =
            ScanIndex::from_similarities(g, sims, SimilarityMeasure::Cosine, SortStrategy::Integer);
        assert_eq!(idx.core_order().cores(2, 0.5).len(), 4);
        assert_eq!(idx.core_order().cores(2, 0.51).len(), 0);
    }

    #[test]
    #[should_panic(expected = "cover every slot")]
    fn rejects_wrong_similarity_length() {
        let g = generators::path(4);
        let sims = EdgeSimilarities::from_per_slot(vec![0.5; 3]);
        ScanIndex::from_similarities(g, sims, SimilarityMeasure::Cosine, SortStrategy::Integer);
    }

    #[test]
    fn memory_is_linear_in_m() {
        let g = generators::erdos_renyi(500, 4000, 1);
        let (n, m) = (g.num_vertices(), g.num_edges());
        let idx = ScanIndex::build(g, IndexConfig::default());
        let bytes = idx.memory_bytes();
        // Per slot (2m of them): graph neighbors (4), sims (4), NO
        // (4 + 4), CO (4 + 4) = 24 bytes; plus the graph offsets
        // ((n + 1) × 8) and the CO μ-offsets (≤ n × 8).
        assert!(bytes >= 2 * m * 24 + (n + 1) * 8);
        assert!(bytes <= 2 * m * 24 + (n + 1) * 8 + n * 8);
    }

    #[test]
    fn memory_counts_the_breakpoint_table_once_computed() {
        let (g, _) = generators::weighted_planted_partition(400, 4, 9.0, 2.0, 3);
        let idx = ScanIndex::build(g, IndexConfig::default());
        let before = idx.memory_bytes();
        let table = idx.similarities().breakpoints().len();
        assert!(table > 1);
        assert_eq!(idx.memory_bytes(), before + 4 * table);
    }
}
