//! Seeded input generators. Both are sequential on one RNG stream, so a
//! seed names exactly one graph whatever the thread count.

use parscan_graph::{CsrGraph, VertexId};
use std::collections::HashSet;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// SplitMix64: tiny, seedable, and good enough for workload generation.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound`.
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A generated simple undirected graph: canonical `u < v` edges sorted
/// by `(u, v)`; unweighted inputs carry weight 1.
pub struct Input {
    pub name: &'static str,
    pub n: usize,
    pub edges: Vec<(VertexId, VertexId, f32)>,
    pub weighted: bool,
}

/// `(n, m, hash)` of an edge set, printed and checked on every run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub n: usize,
    pub m: usize,
    pub hash: u64,
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n={} m={} hash={:016x}", self.n, self.m, self.hash)
    }
}

/// FNV-1a over the canonical edge list `(u, v, weight bits)`.
pub fn fingerprint_edges(
    n: usize,
    edges: impl Iterator<Item = (VertexId, VertexId, f32)>,
) -> Fingerprint {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut m = 0;
    for (u, v, w) in edges {
        for word in [u, v, w.to_bits()] {
            for byte in word.to_le_bytes() {
                hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        m += 1;
    }
    Fingerprint { n, m, hash }
}

/// Fingerprint of a CSR graph, comparable with [`Input::fingerprint`].
pub fn fingerprint_graph(g: &CsrGraph) -> Fingerprint {
    let weighted = g.is_weighted();
    fingerprint_edges(
        g.num_vertices(),
        g.canonical_edges().map(|(u, v, s)| {
            let w = if weighted { g.slot_weight(s) } else { 1.0 };
            (u, v, w)
        }),
    )
}

fn canonical(u: VertexId, v: VertexId) -> (VertexId, VertexId) {
    if u < v {
        (u, v)
    } else {
        (v, u)
    }
}

fn pack(u: VertexId, v: VertexId) -> u64 {
    (u as u64) << 32 | v as u64
}

impl Input {
    /// Unweighted R-MAT (a, b, c) = (0.57, 0.19, 0.19) on `2^scale`
    /// vertex ids: the stand-in for the paper's skewed social graphs.
    /// Draws until exactly `m` distinct non-loop edges exist.
    pub fn rmat(scale: u32, m: usize, seed: u64) -> Input {
        let mut rng = Rng::new(seed);
        let mut seen = HashSet::with_capacity(m);
        let mut edges = Vec::with_capacity(m);
        while edges.len() < m {
            let (mut u, mut v) = (0u32, 0u32);
            for _ in 0..scale {
                let r = rng.unit();
                let (bu, bv) = if r < 0.57 {
                    (0, 0)
                } else if r < 0.76 {
                    (0, 1)
                } else if r < 0.95 {
                    (1, 0)
                } else {
                    (1, 1)
                };
                u = u << 1 | bu;
                v = v << 1 | bv;
            }
            if u == v {
                continue;
            }
            let (a, b) = canonical(u, v);
            if seen.insert(pack(a, b)) {
                edges.push((a, b, 1.0));
            }
        }
        Input::finish("rmat", edges, false)
    }

    /// Weighted planted partition: `n` vertices in communities of
    /// `community` consecutive ids, `intra` distinct edges inside
    /// communities (weights in [0.5, 1)) and `inter` distinct edges
    /// between them (weights in [0.05, 0.35)). Small dense communities
    /// give intra edges high structural similarity, so SCAN finds them
    /// at mid-range ε.
    pub fn planted(n: usize, community: usize, intra: usize, inter: usize, seed: u64) -> Input {
        let mut rng = Rng::new(seed);
        let communities = (n / community) as u64;
        let mut seen = HashSet::with_capacity(intra + inter);
        let mut edges = Vec::with_capacity(intra + inter);
        let mut add = |rng: &mut Rng, u: u64, v: u64, lo: u64, span: u64| {
            if u == v {
                return false;
            }
            let (a, b) = canonical(u as VertexId, v as VertexId);
            if !seen.insert(pack(a, b)) {
                return false;
            }
            // Millesimal weights print exactly and parse back bit-equal.
            let w = (lo + rng.below(span)) as f32 / 1000.0;
            edges.push((a, b, w));
            true
        };
        let mut made = 0;
        while made < intra {
            let base = rng.below(communities) * community as u64;
            let u = base + rng.below(community as u64);
            let v = base + rng.below(community as u64);
            made += usize::from(add(&mut rng, u, v, 500, 500));
        }
        made = 0;
        while made < inter {
            let u = rng.below(communities * community as u64);
            let v = rng.below(communities * community as u64);
            if u / community as u64 == v / community as u64 {
                continue;
            }
            made += usize::from(add(&mut rng, u, v, 50, 300));
        }
        Input::finish("planted", edges, true)
    }

    fn finish(
        name: &'static str,
        mut edges: Vec<(VertexId, VertexId, f32)>,
        weighted: bool,
    ) -> Input {
        edges.sort_unstable_by_key(|&(u, v, _)| (u, v));
        // The text reader infers n as max id + 1; match it exactly.
        let n = edges
            .iter()
            .map(|&(_, v, _)| v as usize + 1)
            .max()
            .unwrap_or(0);
        Input {
            name,
            n,
            edges,
            weighted,
        }
    }

    pub fn fingerprint(&self) -> Fingerprint {
        fingerprint_edges(self.n, self.edges.iter().copied())
    }

    pub fn to_graph(&self) -> CsrGraph {
        if self.weighted {
            parscan_graph::from_weighted_edges(self.n, &self.edges)
        } else {
            let plain: Vec<_> = self.edges.iter().map(|&(u, v, _)| (u, v)).collect();
            parscan_graph::from_edges(self.n, &plain)
        }
    }

    /// Write the edge list in the format `parscan serve <path>` reads.
    pub fn write_edge_list(&self, path: &Path) -> io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "# scanbench {} {}", self.name, self.fingerprint())?;
        for &(u, v, wt) in &self.edges {
            if self.weighted {
                writeln!(w, "{u} {v} {wt}")?;
            } else {
                writeln!(w, "{u} {v}")?;
            }
        }
        w.flush()
    }

    fn degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.n];
        for &(u, v, _) in &self.edges {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        deg
    }

    /// `k` distinct edges, drawn with `seed`, whose endpoints both have
    /// degree between the median and twice it: a batch whose update work
    /// does not hinge on whether the draw happened to hit a hub.
    pub fn pick_edges(&self, k: usize, seed: u64) -> Vec<(VertexId, VertexId, f32)> {
        let deg = self.degrees();
        let mut sorted: Vec<u32> = deg.iter().copied().filter(|&d| d > 0).collect();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2];
        let typical = |v: VertexId| (median..=2 * median).contains(&deg[v as usize]);
        let eligible: Vec<usize> = (0..self.edges.len())
            .filter(|&i| typical(self.edges[i].0) && typical(self.edges[i].1))
            .collect();
        let mut rng = Rng::new(seed);
        let mut picked = HashSet::new();
        let mut out = Vec::with_capacity(k);
        while out.len() < k.min(eligible.len()) {
            let i = eligible[rng.below(eligible.len() as u64) as usize];
            if picked.insert(i) {
                out.push(self.edges[i]);
            }
        }
        out
    }

    /// `k` vertices at evenly spaced degree quantiles (ties by id): probe
    /// targets whose cost is the same from one seed to the next.
    pub fn quantile_vertices(&self, k: usize) -> Vec<VertexId> {
        let deg = self.degrees();
        let mut order: Vec<VertexId> = (0..self.n as VertexId)
            .filter(|&v| deg[v as usize] > 0)
            .collect();
        order.sort_unstable_by_key(|&v| (deg[v as usize], v));
        (0..k)
            .map(|i| order[(2 * i + 1) * order.len() / (2 * k)])
            .collect()
    }
}
