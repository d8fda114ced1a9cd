//! Synthetic graph generators.
//!
//! The paper evaluates on six real-world graphs (Table 2): Orkut,
//! Friendster (social networks), brain (dense connectome), WebBase (web
//! crawl), and two dense weighted HumanBase tissue networks. Those inputs
//! are multi-gigabyte downloads, so this reproduction substitutes
//! generators that hit the same structural regimes (see DESIGN.md §3):
//!
//! - [`rmat`] — skewed, heavy-tailed degree distributions (social/web),
//! - [`erdos_renyi`] — flat random baseline,
//! - [`planted_partition`] — clusterable community structure with ground
//!   truth, unweighted or [`weighted_planted_partition`] with
//!   probability-like weights in `(0, 1]` mimicking the HumanBase graphs,
//! - structured graphs and [`paper_figure1`], the 11-vertex worked example
//!   from the paper (Figures 1–3), used as a golden test throughout.

use crate::builder::{from_edges, from_weighted_edges};
use crate::csr::{CsrGraph, VertexId};
use parscan_parallel::primitives::par_map;
use parscan_parallel::utils::hash64_pair;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Generate edges in parallel: `count` draws of `f(rng)`, split evenly
/// into `⌈count / 4096⌉` chunks, each drawing from its own RNG seeded by
/// `seed` and the chunk index. The chunking depends on `count` alone, so
/// the output is fixed by `seed` whatever the thread count.
fn par_generate_edges<T, F>(count: usize, seed: u64, f: F) -> Vec<T>
where
    T: Send + Sync + Copy,
    F: Fn(&mut SmallRng) -> T + Sync,
{
    let n_chunks = count.div_ceil(4096).max(1);
    let per_chunk: Vec<Vec<T>> = par_map(n_chunks, 1, |c| {
        let mut rng = SmallRng::seed_from_u64(hash64_pair(seed, c as u64));
        let len = count / n_chunks + usize::from(c < count % n_chunks);
        (0..len).map(|_| f(&mut rng)).collect()
    });
    per_chunk.into_iter().flatten().collect()
}

/// Erdős–Rényi-style `G(n, M)` graph: `target_m` uniformly random pairs
/// (duplicates and self-loops are dropped, so the realized edge count is
/// slightly below `target_m` for dense settings).
pub fn erdos_renyi(n: usize, target_m: usize, seed: u64) -> CsrGraph {
    assert!(n >= 2);
    let edges = par_generate_edges(target_m, seed, |rng| {
        (
            rng.gen_range(0..n as VertexId),
            rng.gen_range(0..n as VertexId),
        )
    });
    from_edges(n, &edges)
}

/// R-MAT graph (Chakrabarti et al.) with the standard social-network
/// parameters `(a, b, c, d) = (0.57, 0.19, 0.19, 0.05)`: `n = 2^scale`
/// vertices and `edge_factor * n` sampled edges, yielding heavy-tailed
/// degrees like the paper's Orkut/Friendster inputs.
pub fn rmat(scale: u32, edge_factor: usize, seed: u64) -> CsrGraph {
    rmat_with_params(scale, edge_factor, (0.57, 0.19, 0.19), seed)
}

/// R-MAT with explicit quadrant probabilities `(a, b, c)` (`d = 1-a-b-c`).
pub fn rmat_with_params(
    scale: u32,
    edge_factor: usize,
    (a, b, c): (f64, f64, f64),
    seed: u64,
) -> CsrGraph {
    assert!((1..32).contains(&scale));
    assert!(a + b + c <= 1.0 + 1e-9);
    let n = 1usize << scale;
    let target_m = edge_factor * n;
    let edges = par_generate_edges(target_m, seed, |rng| {
        let (mut u, mut v) = (0u32, 0u32);
        for _ in 0..scale {
            u <<= 1;
            v <<= 1;
            let r: f64 = rng.gen();
            if r < a {
                // top-left quadrant
            } else if r < a + b {
                v |= 1;
            } else if r < a + b + c {
                u |= 1;
            } else {
                u |= 1;
                v |= 1;
            }
        }
        (u, v)
    });
    from_edges(n, &edges)
}

/// Planted-partition graph: `n` vertices split into `communities` equal
/// blocks; `intra_deg * n / 2` edges drawn inside blocks and
/// `inter_deg * n / 2` across blocks. Returns the graph and the
/// ground-truth community label of every vertex.
pub fn planted_partition(
    n: usize,
    communities: usize,
    intra_deg: f64,
    inter_deg: f64,
    seed: u64,
) -> (CsrGraph, Vec<u32>) {
    let (edges, labels) = planted_partition_edges(n, communities, intra_deg, inter_deg, seed);
    let unweighted: Vec<(VertexId, VertexId)> = edges.iter().map(|&(u, v)| (u, v)).collect();
    (from_edges(n, &unweighted), labels)
}

/// Weighted planted partition: same structure, with intra-community edge
/// weights drawn from `U(0.6, 1.0)` and inter-community weights from
/// `U(0.05, 0.4)` — probability-like weights as in the HumanBase tissue
/// networks the paper uses (edge weight = confidence of a functional
/// relationship).
pub fn weighted_planted_partition(
    n: usize,
    communities: usize,
    intra_deg: f64,
    inter_deg: f64,
    seed: u64,
) -> (CsrGraph, Vec<u32>) {
    let (edges, labels) = planted_partition_edges(n, communities, intra_deg, inter_deg, seed);
    let block = n.div_ceil(communities).max(1);
    let weighted: Vec<(VertexId, VertexId, f32)> = par_map(edges.len(), 4096, |i| {
        let (u, v) = edges[i];
        let mut rng = SmallRng::seed_from_u64(hash64_pair(
            seed ^ x_weights(),
            ((u as u64) << 32) | v as u64,
        ));
        let same = (u as usize) / block == (v as usize) / block;
        let w = if same {
            rng.gen_range(0.6..1.0f32)
        } else {
            rng.gen_range(0.05..0.4f32)
        };
        (u, v, w)
    });
    (from_weighted_edges(n, &weighted), labels)
}

fn planted_partition_edges(
    n: usize,
    communities: usize,
    intra_deg: f64,
    inter_deg: f64,
    seed: u64,
) -> (Vec<(VertexId, VertexId)>, Vec<u32>) {
    assert!(communities >= 1 && n >= communities);
    let block = n.div_ceil(communities).max(1);
    let labels: Vec<u32> = (0..n).map(|v| (v / block) as u32).collect();
    let m_intra = ((intra_deg * n as f64) / 2.0) as usize;
    let m_inter = ((inter_deg * n as f64) / 2.0) as usize;

    let intra = par_generate_edges(m_intra, seed ^ x_intra(), |rng| {
        let u = rng.gen_range(0..n) as VertexId;
        let base = (u as usize / block) * block;
        let len = block.min(n - base);
        let v = (base + rng.gen_range(0..len)) as VertexId;
        (u, v)
    });
    let inter = par_generate_edges(m_inter, seed ^ x_inter(), |rng| {
        (
            rng.gen_range(0..n) as VertexId,
            rng.gen_range(0..n) as VertexId,
        )
    });
    let mut edges = intra;
    edges.extend(inter);
    (edges, labels)
}

// Seed-salt helpers (avoid magic hex literals sprinkled inline).
#[allow(non_snake_case)]
fn x_seed(tag: &str) -> u64 {
    tag.bytes().fold(0xcbf29ce484222325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}
#[allow(non_snake_case)]
fn x_weights() -> u64 {
    x_seed("weights")
}
#[allow(non_snake_case)]
fn x_intra() -> u64 {
    x_seed("intra")
}
#[allow(non_snake_case)]
fn x_inter() -> u64 {
    x_seed("inter")
}

/// Complete graph `K_n`.
pub fn complete(n: usize) -> CsrGraph {
    let mut edges = Vec::with_capacity(n * (n - 1) / 2);
    for u in 0..n as VertexId {
        for v in (u + 1)..n as VertexId {
            edges.push((u, v));
        }
    }
    from_edges(n, &edges)
}

/// Simple path `0 - 1 - ... - (n-1)`.
pub fn path(n: usize) -> CsrGraph {
    let edges: Vec<(VertexId, VertexId)> = (0..n.saturating_sub(1))
        .map(|i| (i as u32, i as u32 + 1))
        .collect();
    from_edges(n, &edges)
}

/// Cycle on `n >= 3` vertices.
pub fn cycle(n: usize) -> CsrGraph {
    assert!(n >= 3);
    let mut edges: Vec<(VertexId, VertexId)> =
        (0..n - 1).map(|i| (i as u32, i as u32 + 1)).collect();
    edges.push((n as u32 - 1, 0));
    from_edges(n, &edges)
}

/// Star with center 0 and `n - 1` leaves.
pub fn star(n: usize) -> CsrGraph {
    let edges: Vec<(VertexId, VertexId)> = (1..n as u32).map(|v| (0, v)).collect();
    from_edges(n, &edges)
}

/// `w × h` grid graph.
pub fn grid(w: usize, h: usize) -> CsrGraph {
    let mut edges = Vec::new();
    let id = |x: usize, y: usize| (y * w + x) as VertexId;
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                edges.push((id(x, y), id(x + 1, y)));
            }
            if y + 1 < h {
                edges.push((id(x, y), id(x, y + 1)));
            }
        }
    }
    from_edges(w * h, &edges)
}

/// The 11-vertex worked example of the paper (Figure 1), 0-indexed: paper
/// vertex `i` is vertex `i - 1` here. With cosine similarity, `μ = 3`,
/// `ε = 0.6`, SCAN finds clusters `{0,1,2,3}` and `{5,6,7,10}`, hub `4`,
/// and outliers `8`, `9`.
pub fn paper_figure1() -> CsrGraph {
    let edges: &[(VertexId, VertexId)] = &[
        (0, 1),
        (0, 3),
        (1, 2),
        (1, 3),
        (2, 3),
        (3, 4),
        (4, 5),
        (5, 6),
        (5, 7),
        (6, 7),
        (6, 10),
        (7, 8),
        (8, 9),
    ];
    from_edges(11, edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erdos_renyi_is_valid_and_deterministic() {
        let g1 = erdos_renyi(1000, 5000, 42);
        let g2 = erdos_renyi(1000, 5000, 42);
        assert_eq!(g1, g2);
        assert_eq!(g1.validate(), Ok(()));
        assert!(g1.num_edges() > 4000 && g1.num_edges() <= 5000);
    }

    #[test]
    fn generated_edges_do_not_depend_on_the_thread_count() {
        use parscan_parallel::pool::{max_threads, num_threads, set_active_threads};
        let before = num_threads();
        let at = |threads| {
            set_active_threads(threads);
            rmat(14, 16, 7)
        };
        let (one, all) = (at(1), at(max_threads()));
        set_active_threads(before);
        let (m1, m) = (one.num_edges(), all.num_edges());
        assert!(one == all, "m = {m1} at 1 thread, {m} at {}", max_threads());
    }

    #[test]
    fn different_seeds_differ() {
        let g1 = erdos_renyi(1000, 5000, 1);
        let g2 = erdos_renyi(1000, 5000, 2);
        assert_ne!(g1, g2);
    }

    #[test]
    fn rmat_has_skewed_degrees() {
        let g = rmat(12, 8, 7);
        assert_eq!(g.validate(), Ok(()));
        let max_deg = g.max_degree();
        let avg = 2.0 * g.num_edges() as f64 / g.num_vertices() as f64;
        assert!(
            max_deg as f64 > 5.0 * avg,
            "expected heavy tail: max {max_deg}, avg {avg}"
        );
    }

    #[test]
    fn planted_partition_labels_match_blocks() {
        let (g, labels) = planted_partition(1200, 4, 12.0, 1.0, 3);
        assert_eq!(g.validate(), Ok(()));
        assert_eq!(labels.len(), 1200);
        assert_eq!(labels[0], 0);
        assert_eq!(labels[1199], 3);
        // Most edges should be intra-community.
        let intra = g
            .canonical_edges()
            .filter(|&(u, v, _)| labels[u as usize] == labels[v as usize])
            .count();
        assert!(
            intra * 2 > g.num_edges(),
            "intra {} of {}",
            intra,
            g.num_edges()
        );
    }

    #[test]
    fn weighted_planted_partition_weight_ranges() {
        let (g, labels) = weighted_planted_partition(600, 3, 10.0, 1.0, 9);
        assert!(g.is_weighted());
        assert_eq!(g.validate(), Ok(()));
        for (u, v, slot) in g.canonical_edges() {
            let w = g.slot_weight(slot);
            if labels[u as usize] == labels[v as usize] {
                assert!((0.6..1.0).contains(&w));
            } else {
                assert!((0.05..0.4).contains(&w));
            }
        }
    }

    #[test]
    fn structured_graphs() {
        assert_eq!(complete(5).num_edges(), 10);
        assert_eq!(path(5).num_edges(), 4);
        assert_eq!(cycle(5).num_edges(), 5);
        assert_eq!(star(5).num_edges(), 4);
        assert_eq!(grid(3, 4).num_edges(), 3 * 3 + 2 * 4);
        assert_eq!(grid(3, 4).num_vertices(), 12);
    }

    #[test]
    fn figure1_structure() {
        let g = paper_figure1();
        assert_eq!(g.num_vertices(), 11);
        assert_eq!(g.num_edges(), 13);
        // Paper: vertex 4 (here 3) has closed neighborhood {1,2,3,4,5}.
        assert_eq!(g.neighbors(3), &[0, 1, 2, 4]);
        assert_eq!(g.validate(), Ok(()));
    }
}
