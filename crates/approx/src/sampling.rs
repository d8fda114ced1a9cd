//! Neighborhood-sampling approximation (LinkSCAN\*-style).
//!
//! The paper's related-work section (§8) singles this comparison out:
//! "LinkSCAN\* reduces computation time at the cost of accuracy by
//! operating on a sampled subgraph … It may be worthwhile in the future to
//! compare the efficiency and clustering quality of the LinkSCAN\*
//! sampling approach versus the LSH approach of our paper." This module
//! implements that sampling approach so the comparison can actually run
//! (see the `sampling_vs_lsh` binary in `crates/bench`).
//!
//! The estimator: fix a keep-probability `p` and a seed. A *vertex* `x` is
//! kept iff `hash(seed, x) < p`. The open intersection of an edge
//! `{u, v}` is estimated by merging only the kept neighbors and scaling by
//! `1/p` — a Horvitz–Thompson estimate with `E[Î] = I` and
//! `Var[Î] = I·(1−p)/p` (each common neighbor is an independent
//! Bernoulli). Degrees/norms stay exact (they are `O(m)` to compute), so
//! only the expensive intersection term is approximated — mirroring how
//! the LSH path approximates only similarities.
//!
//! Work: one `O(m)` filtering pass, then merges over lists that are `p`
//! of their original length in expectation — so the `O(αm)` similarity
//! phase shrinks by roughly `p` (vs the LSH path's `O(km)`).

use parscan_core::similarity::SimilarityMeasure;
use parscan_core::similarity_exact::{closed_norms, score_canonical_slots, EdgeSimilarities};
use parscan_core::{ScanIndex, SortStrategy};
use parscan_graph::{CsrGraph, VertexId};
use parscan_parallel::prefix::exclusive_scan_usize;
use parscan_parallel::primitives::{par_for, par_map};
use parscan_parallel::utils::{hash64, SyncMutPtr};

/// Sampling-approximation configuration.
#[derive(Clone, Copy, Debug)]
pub struct SamplingConfig {
    /// Probability that a vertex survives into the sampled universe.
    pub keep_probability: f64,
    /// Seed for the (deterministic, hash-based) sampling decisions.
    pub seed: u64,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        SamplingConfig {
            keep_probability: 0.5,
            seed: 1,
        }
    }
}

/// Is vertex `x` kept under `(seed, p)`? Deterministic across calls.
#[inline]
fn kept(seed: u64, x: VertexId, threshold: u64) -> bool {
    hash64(seed ^ ((x as u64) << 1 | 1)) <= threshold
}

/// Sampled adjacency: per-vertex sublists of kept neighbors (id-sorted,
/// inherited from CSR order), with aligned weights for weighted graphs.
struct SampledLists {
    offsets: Vec<usize>,
    nbr: Vec<VertexId>,
    weight: Option<Vec<f32>>,
}

fn build_sampled_lists(g: &CsrGraph, seed: u64, threshold: u64) -> SampledLists {
    let n = g.num_vertices();
    let counts: Vec<usize> = par_map(n, 512, |v| {
        g.neighbors(v as VertexId)
            .iter()
            .filter(|&&x| kept(seed, x, threshold))
            .count()
    });
    let (offsets, total) = exclusive_scan_usize(&counts);
    let mut offsets = offsets;
    offsets.push(total);
    let mut nbr = vec![0 as VertexId; total];
    let mut weight = g.is_weighted().then(|| vec![0f32; total]);
    {
        let nbr_ptr = SyncMutPtr::new(&mut nbr);
        let w_ptr = weight.as_mut().map(|w| SyncMutPtr::new(w));
        par_for(n, 512, |v| {
            let vv = v as VertexId;
            let mut pos = offsets[v];
            for s in g.slot_range(vv) {
                let x = g.slot_neighbor(s);
                if kept(seed, x, threshold) {
                    // SAFETY: per-vertex output ranges are disjoint.
                    unsafe {
                        nbr_ptr.write(pos, x);
                        if let Some(w) = &w_ptr {
                            w.write(pos, g.slot_weight(s));
                        }
                    }
                    pos += 1;
                }
            }
        });
    }
    SampledLists {
        offsets,
        nbr,
        weight,
    }
}

/// Estimate all per-slot similarities from sampled neighborhoods.
pub fn sampled_similarities_for(
    g: &CsrGraph,
    config: &SamplingConfig,
    measure: SimilarityMeasure,
) -> EdgeSimilarities {
    assert!(
        config.keep_probability > 0.0 && config.keep_probability <= 1.0,
        "keep probability must be in (0, 1], got {}",
        config.keep_probability
    );
    assert!(
        !g.is_weighted() || measure.supports_weights(),
        "{} cannot score weighted graphs",
        measure.name()
    );
    let p = config.keep_probability;
    let threshold = (p * u64::MAX as f64) as u64;
    let lists = build_sampled_lists(g, config.seed, threshold);
    let inv_p = 1.0 / p;
    let norms = closed_norms(g);
    // Score each canonical u < v edge from the sampled sublists.
    score_canonical_slots(g, |u, v, s| {
        let (au, bu) = (lists.offsets[u as usize], lists.offsets[u as usize + 1]);
        let (av, bv) = (lists.offsets[v as usize], lists.offsets[v as usize + 1]);
        // Sorted-merge the kept sublists; endpoints u, v are excluded
        // from the *open* intersection by id check.
        let mut i = au;
        let mut j = av;
        let mut open = 0.0f64;
        while i < bu && j < bv {
            let (x, y) = (lists.nbr[i], lists.nbr[j]);
            match x.cmp(&y) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    if x != u && x != v {
                        open += match &lists.weight {
                            Some(w) => (w[i] as f64) * (w[j] as f64),
                            None => 1.0,
                        };
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        let est = open * inv_p;
        match &norms {
            Some(norms) => measure
                .score_weighted(
                    est,
                    g.slot_weight(s) as f64,
                    norms[u as usize],
                    norms[v as usize],
                )
                .clamp(0.0, 1.0) as f32,
            None => measure.score_unweighted_estimate(est, g.degree(u), g.degree(v)) as f32,
        }
    })
}

/// Build a full SCAN index from sampling-estimated similarities — the
/// LinkSCAN\*-flavored counterpart of [`crate::build_approx_index`].
pub fn build_sampled_index(
    graph: CsrGraph,
    config: SamplingConfig,
    measure: SimilarityMeasure,
) -> ScanIndex {
    let sims = sampled_similarities_for(&graph, &config, measure);
    ScanIndex::from_similarities(graph, sims, measure, SortStrategy::Integer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parscan_core::similarity_exact::compute_full_merge;
    use parscan_core::{IndexConfig, QueryParams};
    use parscan_graph::generators;

    #[test]
    fn p_one_is_exact() {
        let g = generators::erdos_renyi(200, 1500, 4);
        let exact = compute_full_merge(&g, SimilarityMeasure::Cosine);
        let config = SamplingConfig {
            keep_probability: 1.0,
            ..Default::default()
        };
        let sampled = sampled_similarities_for(&g, &config, SimilarityMeasure::Cosine);
        for s in 0..g.num_slots() {
            assert!(
                (exact.slot(s) - sampled.slot(s)).abs() < 1e-6,
                "slot {s}: {} vs {}",
                exact.slot(s),
                sampled.slot(s)
            );
        }
    }

    #[test]
    fn p_one_weighted_is_exact() {
        let (g, _) = generators::weighted_planted_partition(150, 3, 9.0, 1.0, 7);
        let exact = compute_full_merge(&g, SimilarityMeasure::Cosine);
        let config = SamplingConfig {
            keep_probability: 1.0,
            ..Default::default()
        };
        let sampled = sampled_similarities_for(&g, &config, SimilarityMeasure::Cosine);
        for s in 0..g.num_slots() {
            assert!((exact.slot(s) - sampled.slot(s)).abs() < 1e-5, "slot {s}");
        }
    }

    #[test]
    fn estimates_are_unbiased_on_average() {
        // Average the estimate over many seeds on a fixed edge-rich graph;
        // it must approach the exact value (Horvitz–Thompson unbiasedness
        // of the intersection estimate — the final score is a smooth
        // function, so bias shrinks with p).
        let (g, _) = generators::planted_partition(200, 2, 20.0, 2.0, 3);
        let exact = compute_full_merge(&g, SimilarityMeasure::Cosine);
        let slots: Vec<usize> = (0..g.num_slots()).step_by(97).collect();
        let trials = 40;
        for &s in &slots {
            let mut sum = 0.0f64;
            for seed in 0..trials {
                let config = SamplingConfig {
                    keep_probability: 0.5,
                    seed,
                };
                let est = sampled_similarities_for(&g, &config, SimilarityMeasure::Cosine);
                sum += est.slot(s) as f64;
            }
            let avg = sum / trials as f64;
            assert!(
                (avg - exact.slot(s) as f64).abs() < 0.1,
                "slot {s}: avg {avg} vs exact {}",
                exact.slot(s)
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::rmat(8, 8, 9);
        let config = SamplingConfig {
            keep_probability: 0.3,
            seed: 42,
        };
        let a = sampled_similarities_for(&g, &config, SimilarityMeasure::Jaccard);
        let b = sampled_similarities_for(&g, &config, SimilarityMeasure::Jaccard);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn sampled_index_recovers_planted_structure() {
        let (g, truth) = generators::planted_partition(600, 6, 20.0, 1.0, 11);
        let index = build_sampled_index(
            g.clone(),
            SamplingConfig {
                keep_probability: 0.6,
                seed: 5,
            },
            SimilarityMeasure::Cosine,
        );
        let exact = ScanIndex::build(g, IndexConfig::default());
        // Find a decent parameter point on the exact index, then check the
        // sampled index clusters similarly against ground truth.
        let params = QueryParams::new(3, 0.3);
        let approx_c = index.cluster(params);
        let exact_c = exact.cluster(params);
        let ari_exact =
            parscan_metrics::adjusted_rand_index(&exact_c.labels_with_singletons(), &truth);
        let ari_sampled =
            parscan_metrics::adjusted_rand_index(&approx_c.labels_with_singletons(), &truth);
        assert!(
            ari_sampled > 0.5 * ari_exact,
            "sampled ARI {ari_sampled} too far below exact {ari_exact}"
        );
    }

    #[test]
    #[should_panic(expected = "keep probability")]
    fn rejects_zero_probability() {
        let g = generators::path(4);
        sampled_similarities_for(
            &g,
            &SamplingConfig {
                keep_probability: 0.0,
                ..Default::default()
            },
            SimilarityMeasure::Cosine,
        );
    }

    #[test]
    #[should_panic(expected = "cannot score weighted")]
    fn rejects_weighted_jaccard() {
        let (g, _) = generators::weighted_planted_partition(40, 2, 4.0, 1.0, 2);
        sampled_similarities_for(&g, &SamplingConfig::default(), SimilarityMeasure::Jaccard);
    }
}
