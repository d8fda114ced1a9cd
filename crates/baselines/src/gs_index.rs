//! Sequential GS*-Index (Wen et al., VLDB 2017; §3.2) — the system the
//! paper parallelizes and benchmarks against as "GS*-Index (1 thread)".
//!
//! Construction builds the same neighbor order and core order as the
//! parallel index, but with ordinary sequential similarity computation and
//! sequential sorts (`O((α + log n) m)` work, which is also its span).
//! Queries scan the `CO[μ]` prefix and run the index-guided BFS of the
//! original system, touching only ε-similar prefixes of NO lists.
//!
//! Restricted to unweighted graphs, as the original implementation is
//! (§7.1: "Neither GS*-Index and ppSCAN run on weighted graphs").

use parscan_core::clustering::{Clustering, UNCLUSTERED};
use parscan_core::similarity::SimilarityMeasure;
use parscan_core::similarity_exact::open_intersection_value;
use parscan_graph::{CsrGraph, VertexId};
use std::collections::VecDeque;

/// The sequential index: per-vertex similarity-sorted neighbor lists plus
/// per-μ core-threshold lists.
pub struct SequentialGsIndex<'g> {
    g: &'g CsrGraph,
    /// Neighbor order: ids sorted by (similarity desc, id asc), per vertex.
    no_nbr: Vec<VertexId>,
    no_sim: Vec<f32>,
    /// `co[μ - 2]` = (threshold, vertex) sorted by (threshold desc, id asc).
    co: Vec<Vec<(f32, VertexId)>>,
}

impl<'g> SequentialGsIndex<'g> {
    /// Sequential index construction.
    pub fn build(g: &'g CsrGraph, measure: SimilarityMeasure) -> Self {
        assert!(
            !g.is_weighted(),
            "the GS*-Index baseline runs on unweighted graphs only (as in the paper)"
        );
        let n = g.num_vertices();

        // Similarities, sequentially, one canonical edge at a time.
        let twins = g.twin_slots();
        let mut sims = vec![0f32; g.num_slots()];
        for u in 0..n as VertexId {
            for s in g.slot_range(u) {
                let v = g.slot_neighbor(s);
                if v <= u {
                    continue;
                }
                let open = open_intersection_value(g, s) as u64;
                let score = measure.score_unweighted(open, g.degree(u), g.degree(v)) as f32;
                sims[s] = score;
                sims[twins[s] as usize] = score;
            }
        }

        // Neighbor order: sequential per-vertex sorts.
        let mut no_nbr = vec![0 as VertexId; g.num_slots()];
        let mut no_sim = vec![0f32; g.num_slots()];
        for v in 0..n as VertexId {
            let range = g.slot_range(v);
            let mut entries: Vec<(f32, VertexId)> = range
                .clone()
                .map(|s| (sims[s], g.slot_neighbor(s)))
                .collect();
            entries.sort_unstable_by(|a, b| {
                b.0.partial_cmp(&a.0).expect("finite").then(a.1.cmp(&b.1))
            });
            for (k, (s, x)) in entries.into_iter().enumerate() {
                no_nbr[range.start + k] = x;
                no_sim[range.start + k] = s;
            }
        }

        // Core order: for each μ, collect (threshold, v) and sort.
        let max_mu = g.max_degree() + 1;
        let mut co: Vec<Vec<(f32, VertexId)>> = vec![Vec::new(); max_mu.saturating_sub(1)];
        for v in 0..n as VertexId {
            let range = g.slot_range(v);
            for mu in 2..=(g.degree(v) + 1) {
                let threshold = no_sim[range.start + mu - 2];
                co[mu - 2].push((threshold, v));
            }
        }
        for list in &mut co {
            list.sort_unstable_by(|a, b| {
                b.0.partial_cmp(&a.0).expect("finite").then(a.1.cmp(&b.1))
            });
        }

        SequentialGsIndex {
            g,
            no_nbr,
            no_sim,
            co,
        }
    }

    /// ε-similar neighbor prefix of `v` (sequential linear scan, as the
    /// original system walks prefixes element by element).
    fn epsilon_prefix(&self, v: VertexId, epsilon: f32) -> &[VertexId] {
        let range = self.g.slot_range(v);
        let sims = &self.no_sim[range.clone()];
        let len = sims.iter().take_while(|&&s| s >= epsilon).count();
        &self.no_nbr[range.start..range.start + len]
    }

    /// Core vertices for `(μ, ε)` — the `CO[μ]` prefix.
    pub fn cores(&self, mu: u32, epsilon: f32) -> Vec<VertexId> {
        assert!(mu >= 2);
        let i = (mu - 2) as usize;
        if i >= self.co.len() {
            return Vec::new();
        }
        self.co[i]
            .iter()
            .take_while(|&&(t, _)| t >= epsilon)
            .map(|&(_, v)| v)
            .collect()
    }

    /// Index-guided SCAN query: BFS over cores using only NO prefixes.
    pub fn query(&self, mu: u32, epsilon: f32) -> Clustering {
        let n = self.g.num_vertices();
        let mut is_core = vec![false; n];
        let mut cores = self.cores(mu, epsilon);
        for &v in &cores {
            is_core[v as usize] = true;
        }
        // Ascending roots give min-core-id labels, comparable across
        // implementations.
        cores.sort_unstable();

        let mut labels = vec![UNCLUSTERED; n];
        let mut queue = VecDeque::new();
        for &root in &cores {
            if labels[root as usize] != UNCLUSTERED {
                continue;
            }
            labels[root as usize] = root;
            queue.push_back(root);
            while let Some(x) = queue.pop_front() {
                for &y in self.epsilon_prefix(x, epsilon) {
                    if is_core[y as usize] {
                        if labels[y as usize] == UNCLUSTERED {
                            labels[y as usize] = root;
                            queue.push_back(y);
                        }
                    } else if labels[y as usize] == UNCLUSTERED {
                        labels[y as usize] = root;
                    }
                }
            }
        }
        Clustering::new(labels, is_core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::original_scan::original_scan;
    use parscan_graph::generators;

    #[test]
    fn figure1_query() {
        let g = generators::paper_figure1();
        let idx = SequentialGsIndex::build(&g, SimilarityMeasure::Cosine);
        let c = idx.query(3, 0.6);
        assert_eq!(c.num_clusters(), 2);
        assert_eq!(c.labels[0], 0);
        assert_eq!(c.labels[10], 5);
        assert_eq!(c.labels[4], UNCLUSTERED);
    }

    #[test]
    fn agrees_with_original_scan_on_cores() {
        let (g, _) = generators::planted_partition(250, 4, 9.0, 1.5, 3);
        let idx = SequentialGsIndex::build(&g, SimilarityMeasure::Cosine);
        for mu in [2u32, 3, 4] {
            for eps in [0.3f32, 0.5, 0.7] {
                let a = idx.query(mu, eps);
                let b = original_scan(&g, SimilarityMeasure::Cosine, mu, eps);
                assert_eq!(a.core, b.core, "(μ,ε)=({mu},{eps})");
                for v in 0..250usize {
                    if a.core[v] {
                        assert_eq!(a.labels[v], b.labels[v], "core {v}");
                    }
                    // Clustered-ness matches even for borders.
                    assert_eq!(
                        a.labels[v] == UNCLUSTERED,
                        b.labels[v] == UNCLUSTERED,
                        "membership of {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn cores_shrink_with_epsilon() {
        let g = generators::rmat(8, 10, 2);
        let idx = SequentialGsIndex::build(&g, SimilarityMeasure::Cosine);
        let mut prev = usize::MAX;
        for eps in [0.1f32, 0.3, 0.5, 0.7, 0.9] {
            let c = idx.cores(3, eps).len();
            assert!(c <= prev);
            prev = c;
        }
    }

    #[test]
    #[should_panic(expected = "unweighted graphs only")]
    fn rejects_weighted() {
        let (g, _) = generators::weighted_planted_partition(40, 2, 4.0, 1.0, 1);
        SequentialGsIndex::build(&g, SimilarityMeasure::Cosine);
    }
}
