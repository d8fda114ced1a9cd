//! Graph statistics: degree summaries, exact triangle counts (test oracle
//! and Table 2-style reporting), degeneracy (an arboricity bound — the
//! paper's work bounds are stated in terms of arboricity α), and connected
//! components.

use crate::csr::{CsrGraph, VertexId};
use crate::directed::DegreeOrderedDag;
use crate::intersect::{self, NeighborhoodProbe};
use parscan_parallel::primitives::{par_for, par_for_range, reduce};
use parscan_parallel::union_find::ConcurrentUnionFind;
use parscan_parallel::utils::ScratchPool;
use std::sync::atomic::{AtomicU64, Ordering};

/// Summary statistics used by the Table 2 reproduction.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphStats {
    pub n: usize,
    pub m: usize,
    pub min_degree: usize,
    pub max_degree: usize,
    pub avg_degree: f64,
    pub triangles: u64,
    pub degeneracy: usize,
    pub components: usize,
    pub weighted: bool,
}

/// Compute all statistics (triangle counting is the expensive part,
/// `O(αm)` with the degree-ordered orientation).
pub fn graph_stats(g: &CsrGraph) -> GraphStats {
    let n = g.num_vertices();
    let min_degree = if n == 0 {
        0
    } else {
        reduce(
            n,
            4096,
            usize::MAX,
            |v| g.degree(v as VertexId),
            |a, b| a.min(b),
        )
    };
    GraphStats {
        n,
        m: g.num_edges(),
        min_degree,
        max_degree: g.max_degree(),
        avg_degree: if n == 0 {
            0.0
        } else {
            2.0 * g.num_edges() as f64 / n as f64
        },
        triangles: triangle_count(g),
        degeneracy: degeneracy(g),
        components: connected_components(g).1,
        weighted: g.is_weighted(),
    }
}

/// Exact triangle count via the degree-ordered orientation. Ranking the
/// vertices of a triangle `{u,v,x}` as `r(u) < r(v) < r(x)` gives directed
/// edges `u→v`, `u→x`, `v→x`, so every triangle is counted exactly once by
/// intersecting `out(u) ∩ out(v)` over directed edges `(u, v)` — the
/// Shun–Tangwongsan scheme the paper's §6.1 adopts.
pub fn triangle_count(g: &CsrGraph) -> u64 {
    let dag = DegreeOrderedDag::build(g);
    let n = g.num_vertices();
    let total = AtomicU64::new(0);
    // One bitset probe per worker (pooled) so a high-out-degree vertex is
    // stamped once and probed against each of its out-neighbors in O(1)
    // per element.
    let probes = ScratchPool::new(|| NeighborhoodProbe::new(n));
    par_for_range(n, 64, |r| {
        probes.with(|probe| {
            let mut local = 0u64;
            for u in r {
                let outs = dag.out_neighbors(u as VertexId);
                if outs.len() >= intersect::PROBE_MIN_DEGREE {
                    probe.load(outs);
                    for &v in outs {
                        let outs_v = dag.out_neighbors(v);
                        // Gallop beats a full bit-test scan when `outs_v`
                        // dwarfs the loaded list (same dispatch as the
                        // similarity kernel's probe run).
                        if outs_v.len() > outs.len() * intersect::GALLOP_RATIO {
                            local += intersect::count_common(outs, outs_v);
                        } else {
                            local += probe.count_common(outs_v);
                        }
                    }
                    probe.unload(outs);
                } else {
                    for &v in outs {
                        local += intersect::count_common(outs, dag.out_neighbors(v));
                    }
                }
            }
            if local > 0 {
                total.fetch_add(local, Ordering::Relaxed);
            }
        });
    });
    total.into_inner()
}

/// Degeneracy via sequential bucketed core decomposition. The arboricity α
/// satisfies `⌈degeneracy / 2⌉ ≤ α ≤ degeneracy`.
pub fn degeneracy(g: &CsrGraph) -> usize {
    let n = g.num_vertices();
    if n == 0 {
        return 0;
    }
    let max_deg = g.max_degree();
    let mut deg: Vec<usize> = (0..n).map(|v| g.degree(v as VertexId)).collect();
    // Bucket queue over degrees.
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); max_deg + 1];
    for (v, &d) in deg.iter().enumerate() {
        buckets[d].push(v as u32);
    }
    let mut removed = vec![false; n];
    let mut degeneracy = 0usize;
    let mut cur = 0usize;
    for _ in 0..n {
        // Find the lowest non-empty bucket holding a live vertex.
        while cur <= max_deg {
            match buckets[cur].last() {
                Some(&v) if !removed[v as usize] && deg[v as usize] == cur => break,
                Some(_) => {
                    buckets[cur].pop();
                }
                None => cur += 1,
            }
        }
        if cur > max_deg {
            break;
        }
        let v = buckets[cur].pop().unwrap();
        removed[v as usize] = true;
        degeneracy = degeneracy.max(cur);
        for &x in g.neighbors(v) {
            let xi = x as usize;
            if !removed[xi] && deg[xi] > 0 {
                deg[xi] -= 1;
                buckets[deg[xi]].push(x);
                // Removing a neighbor can open a lower bucket.
                cur = cur.min(deg[xi]);
            }
        }
    }
    degeneracy
}

/// Connected components via concurrent union-find. Returns the component
/// label of each vertex (min member id) and the component count.
pub fn connected_components(g: &CsrGraph) -> (Vec<u32>, usize) {
    let n = g.num_vertices();
    let uf = ConcurrentUnionFind::new(n);
    par_for(n, 256, |u| {
        let uv = u as VertexId;
        for &v in g.neighbors(uv) {
            if v > uv {
                uf.union(uv, v);
            }
        }
    });
    let labels = uf.components();
    let roots = reduce(
        n,
        4096,
        0usize,
        |v| usize::from(labels[v] == v as u32),
        |a, b| a + b,
    );
    (labels, roots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn triangle_counts_known_graphs() {
        assert_eq!(triangle_count(&generators::complete(4)), 4);
        assert_eq!(triangle_count(&generators::complete(6)), 20);
        assert_eq!(triangle_count(&generators::path(10)), 0);
        assert_eq!(triangle_count(&generators::cycle(3)), 1);
        assert_eq!(triangle_count(&generators::cycle(5)), 0);
        assert_eq!(triangle_count(&generators::star(20)), 0);
    }

    #[test]
    fn triangle_count_exercises_bitset_path() {
        // complete(160): vertex 0's DAG out-degree is 159 ≥ PROBE_MIN_DEGREE,
        // so the word-blocked bitmap path runs. C(160, 3) triangles.
        assert_eq!(triangle_count(&generators::complete(160)), 669_920);
    }

    #[test]
    fn triangle_count_matches_brute_force() {
        let g = generators::erdos_renyi(120, 900, 17);
        let mut brute = 0u64;
        let n = g.num_vertices() as u32;
        for u in 0..n {
            for v in (u + 1)..n {
                for x in (v + 1)..n {
                    if g.slot_of(u, v).is_some()
                        && g.slot_of(v, x).is_some()
                        && g.slot_of(u, x).is_some()
                    {
                        brute += 1;
                    }
                }
            }
        }
        assert_eq!(triangle_count(&g), brute);
    }

    #[test]
    fn degeneracy_known_values() {
        assert_eq!(degeneracy(&generators::complete(5)), 4);
        assert_eq!(degeneracy(&generators::path(10)), 1);
        assert_eq!(degeneracy(&generators::cycle(8)), 2);
        assert_eq!(degeneracy(&generators::star(10)), 1);
        assert_eq!(degeneracy(&generators::grid(5, 5)), 2);
    }

    #[test]
    fn components_counts() {
        let g = crate::builder::from_edges(6, &[(0, 1), (1, 2), (3, 4)]);
        let (labels, count) = connected_components(&g);
        assert_eq!(count, 3); // {0,1,2}, {3,4}, {5}
        assert_eq!(labels[0], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
        assert_eq!(labels[5], 5);
    }

    #[test]
    fn stats_bundle() {
        let s = graph_stats(&generators::complete(5));
        assert_eq!(s.n, 5);
        assert_eq!(s.m, 10);
        assert_eq!(s.min_degree, 4);
        assert_eq!(s.max_degree, 4);
        assert_eq!(s.triangles, 10);
        assert_eq!(s.degeneracy, 4);
        assert_eq!(s.components, 1);
        assert!(!s.weighted);
    }

    #[test]
    fn figure1_has_five_triangles() {
        // {1,2,4},{2,3,4},{1,2,3}? Check: edges among {0,1,2,3}: 0-1,0-3,
        // 1-2,1-3,2-3 → triangles {0,1,3},{1,2,3}; plus {5,6,7}.
        let g = generators::paper_figure1();
        assert_eq!(triangle_count(&g), 3);
    }
}
