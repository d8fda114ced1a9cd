//! Clustering results: per-vertex cluster labels plus core flags.

use parscan_graph::VertexId;
use std::collections::HashMap;

/// Label for vertices outside every cluster.
pub const UNCLUSTERED: u32 = u32::MAX;

/// Role of a vertex in a SCAN clustering (§3.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VertexRole {
    /// Clustered, with `|N̄_ε(v)| ≥ μ`.
    Core,
    /// Clustered non-core (attached to an ε-similar core).
    Border,
    /// Unclustered with neighbors in ≥ 2 distinct clusters.
    Hub,
    /// Unclustered with neighbors in ≤ 1 cluster.
    Outlier,
}

/// A SCAN clustering. `labels[v]` is the cluster id of `v` — the minimum
/// core vertex id in the cluster, a deterministic representative — or
/// [`UNCLUSTERED`].
#[derive(Clone, Debug, PartialEq)]
pub struct Clustering {
    pub labels: Vec<u32>,
    pub core: Vec<bool>,
    num_clusters: usize,
    num_clustered: usize,
}

impl Clustering {
    /// Wrap label/core arrays, counting clusters and clustered vertices
    /// in one pass. A cluster's representative is always its minimum
    /// core id, so the cluster count is the number of vertices labeled by
    /// themselves.
    pub fn new(labels: Vec<u32>, core: Vec<bool>) -> Self {
        assert_eq!(labels.len(), core.len());
        let (num_clusters, num_clustered) = parscan_parallel::primitives::reduce(
            labels.len(),
            8192,
            (0usize, 0usize),
            |v| {
                let label = labels[v];
                (
                    usize::from(label == v as u32),
                    usize::from(label != UNCLUSTERED),
                )
            },
            |a, b| (a.0 + b.0, a.1 + b.1),
        );
        Clustering {
            labels,
            core,
            num_clusters,
            num_clustered,
        }
    }

    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.labels.len()
    }

    #[inline]
    pub fn num_clusters(&self) -> usize {
        self.num_clusters
    }

    #[inline]
    pub fn is_clustered(&self, v: VertexId) -> bool {
        self.labels[v as usize] != UNCLUSTERED
    }

    #[inline]
    pub fn is_core(&self, v: VertexId) -> bool {
        self.core[v as usize]
    }

    /// Number of clustered vertices.
    #[inline]
    pub fn num_clustered(&self) -> usize {
        self.num_clustered
    }

    /// Members of every cluster, keyed by representative label.
    pub fn members(&self) -> HashMap<u32, Vec<VertexId>> {
        let mut map: HashMap<u32, Vec<VertexId>> = HashMap::new();
        for (v, &label) in self.labels.iter().enumerate() {
            if label != UNCLUSTERED {
                map.entry(label).or_default().push(v as VertexId);
            }
        }
        map
    }

    /// Treat every unclustered vertex as a singleton cluster — the
    /// convention the paper's modularity evaluation uses (§7.3.4).
    pub fn labels_with_singletons(&self) -> Vec<u32> {
        let n = self.labels.len() as u32;
        self.labels
            .iter()
            .enumerate()
            .map(|(v, &l)| if l == UNCLUSTERED { n + v as u32 } else { l })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Clustering {
        // Clusters {0,1,2} (rep 0) and {4,5} (rep 4); 3 unclustered.
        Clustering::new(
            vec![0, 0, 0, UNCLUSTERED, 4, 4],
            vec![true, true, false, false, true, true],
        )
    }

    #[test]
    fn counts() {
        let c = sample();
        assert_eq!(c.num_clusters(), 2);
        assert_eq!(c.num_clustered(), 5);
        assert!(c.is_clustered(0));
        assert!(!c.is_clustered(3));
        assert!(c.is_core(0));
        assert!(!c.is_core(2));
    }

    #[test]
    fn members_grouping() {
        let members = sample().members();
        assert_eq!(members[&0], vec![0, 1, 2]);
        assert_eq!(members[&4], vec![4, 5]);
        assert_eq!(members.len(), 2);
    }

    #[test]
    fn singleton_labels_are_unique() {
        let labels = sample().labels_with_singletons();
        assert_eq!(labels[3], 6 + 3);
        let mut distinct: Vec<u32> = labels.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 3); // {0}, {4}, singleton for 3
    }

    #[test]
    fn empty_clustering() {
        let c = Clustering::new(vec![], vec![]);
        assert_eq!(c.num_clusters(), 0);
        assert_eq!(c.num_clustered(), 0);
    }

    #[test]
    fn stored_counts_match_a_sequential_recount_across_reduce_chunks() {
        // Lengths straddle the 8192-label chunks of the counting reduce.
        for n in [0usize, 1, 8191, 8192, 8193, 3 * 8192 + 17] {
            // A fixed scramble decides each vertex's kind: a cluster
            // representative (labelled by itself), a member of the most
            // recent representative, or unclustered.
            let mut rep = None;
            let labels: Vec<u32> = (0..n as u32)
                .map(|v| match (v.wrapping_mul(2_654_435_761) >> 7) % 7 {
                    0 | 1 => {
                        rep = Some(v);
                        v
                    }
                    2 => UNCLUSTERED,
                    _ => rep.unwrap_or(UNCLUSTERED),
                })
                .collect();
            let core = labels
                .iter()
                .enumerate()
                .map(|(v, &l)| l == v as u32)
                .collect();
            let clusters = labels
                .iter()
                .enumerate()
                .filter(|&(v, &l)| l == v as u32)
                .count();
            let clustered = labels.iter().filter(|&&l| l != UNCLUSTERED).count();
            if n > 8192 {
                assert!(clusters > 0 && clustered > clusters && clustered < n);
            }
            let c = Clustering::new(labels, core);
            assert_eq!(c.num_clusters(), clusters, "n = {n}");
            assert_eq!(c.num_clustered(), clustered, "n = {n}");
        }
    }
}
