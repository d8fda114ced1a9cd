//! Batch edge updates — the paper's §9 lists "extending our work to
//! dynamic graphs by devising parallel algorithms for processing batches
//! of edge updates" as future work; this module implements the batch
//! update as an extension.
//!
//! The key observation: `σ(a, b)` depends only on the closed
//! neighborhoods of `a` and `b`, so inserting or deleting a batch of
//! edges with endpoint set `S` changes similarities **only for edges
//! incident to `S`**. The update therefore patches every structure of
//! the index instead of rebuilding it:
//!
//! 1. it splices the batch into the CSR (`parscan_graph::patch`):
//!    untouched adjacency lists are block copies and keep their twins,
//!    with no global re-sort; inserting an existing edge replaces its
//!    weight;
//! 2. it block-copies the scores of every vertex outside `S` (an edge
//!    with no endpoint in `S` keeps its score bit for bit), then rescores
//!    every edge at `S` once, on its canonical slot, through the build's
//!    own per-edge scorer — a sorted merge per edge, in parallel, with
//!    each weighted closed norm computed once;
//! 3. a lockstep walk of each touched vertex's old and new lists finds
//!    the changed edges, their old and new scores, and the *dirty*
//!    vertices — `S` and the other ends of its changed edges, the only
//!    vertices whose list or scores can change;
//! 4. the neighbor order re-sorts only the dirty vertices' lists and
//!    copies the rest ([`crate::NeighborOrder::patch`]); the core order
//!    drops the dirty vertices' old entries from each μ bucket and merges
//!    in their new ones ([`crate::CoreOrder::patch`]); the ε breakpoints
//!    are the old table minus the scores no slot holds any more, plus the
//!    new ones.
//!
//! A clean vertex has the same list, NO list and CO entries before and
//! after, so the work past the `O(n + m)` block copies grows with the
//! touched and dirty vertices' degrees, and the result is bitwise the
//! from-scratch build's (the `test_support` oracle checks exactly that).
//!
//! The serving layer consumes the richer [`apply_batch_diff`] entry
//! point, which additionally reports **how high the damage reaches**:
//! the maximum similarity (old or new) of any edge whose score changed.
//! A clustering at `(μ, ε)` depends only on edges with `σ ≥ ε` — cores
//! are ε-prefix counts, core connectivity unions ε-similar core pairs,
//! borders attach along ε-similar edges — so every cached result for an
//! ε-class entirely above that bound is provably still correct and can
//! survive the update (see `parscan-server`'s engine).

use crate::index::ScanIndex;
use crate::similarity_exact::{
    open_intersection_value, patch_breakpoints, score_edge, EdgeSimilarities,
};
use parscan_graph::patch::clean_pieces;
use parscan_graph::{CsrGraph, VertexId};
use parscan_parallel::primitives::{par_for, par_map};
use parscan_parallel::utils::SyncMutPtr;
use parscan_parallel::weighted::par_for_weighted;

/// A batch of edge updates. Weights are ignored on unweighted graphs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BatchUpdate {
    pub insertions: Vec<(VertexId, VertexId, f32)>,
    pub deletions: Vec<(VertexId, VertexId)>,
}

impl BatchUpdate {
    pub fn insert(edges: &[(VertexId, VertexId)]) -> Self {
        BatchUpdate {
            insertions: edges.iter().map(|&(u, v)| (u, v, 1.0)).collect(),
            deletions: Vec::new(),
        }
    }

    pub fn delete(edges: &[(VertexId, VertexId)]) -> Self {
        BatchUpdate {
            deletions: edges.to_vec(),
            insertions: Vec::new(),
        }
    }

    /// Total number of edge operations carried by the batch.
    pub fn len(&self) -> usize {
        self.insertions.len() + self.deletions.len()
    }

    pub fn is_empty(&self) -> bool {
        self.insertions.is_empty() && self.deletions.is_empty()
    }

    /// Largest endpoint id mentioned anywhere in the batch (`None` for
    /// an empty batch). Callers validate this against `n` *before*
    /// applying — the patch layer panics on out-of-range ids.
    pub fn max_endpoint(&self) -> Option<VertexId> {
        let ins = self.insertions.iter().map(|&(u, v, _)| u.max(v));
        let del = self.deletions.iter().map(|&(u, v)| u.max(v));
        ins.chain(del).max()
    }
}

/// What [`apply_batch_diff`] did, beyond the new index itself.
#[derive(Debug)]
pub struct ApplyOutcome {
    /// The incrementally maintained index.
    pub index: ScanIndex,
    /// Maximum of `max(σ_old, σ_new)` over every edge whose similarity
    /// changed (deleted edges contribute their old score, inserted edges
    /// their new one). Any ε strictly above this bound selects the same
    /// ε-similar edge set before and after the update, hence the same
    /// clustering. `None` when the graph changed but no per-edge score
    /// did (e.g. a weight replacement that lands on the same scores).
    pub max_affected_similarity: Option<f32>,
    /// Number of canonical edges whose similarity changed (including
    /// edges that appeared or disappeared).
    pub changed_edges: usize,
    /// Effective structural insertions (edges that did not exist).
    pub inserted: usize,
    /// Effective deletions (edges that did exist).
    pub deleted: usize,
    /// Weight replacements on existing edges (weighted graphs only).
    pub reweighted: usize,
}

/// The batch after canonicalization against the patch-layer semantics
/// (see `parscan_graph::patch`): self-loops dropped, duplicate
/// insertions keep the first occurrence, an insertion wins over a
/// deletion of the same pair — and, on top of that, ops that would not
/// change `graph` at all are filtered out.
struct EffectiveBatch {
    insertions: Vec<(VertexId, VertexId, f32)>,
    deletions: Vec<(VertexId, VertexId)>,
    inserted: usize,
    reweighted: usize,
}

fn effective_batch(graph: &CsrGraph, batch: &BatchUpdate) -> EffectiveBatch {
    let n = graph.num_vertices() as VertexId;
    let canon = |u: VertexId, v: VertexId| if u < v { (u, v) } else { (v, u) };

    let mut ins: Vec<(VertexId, VertexId, f32)> = batch
        .insertions
        .iter()
        .filter(|&&(u, v, _)| u != v)
        .map(|&(u, v, w)| {
            assert!(u < n && v < n, "insertion endpoint out of range");
            let (a, b) = canon(u, v);
            (a, b, w)
        })
        .collect();
    // Stable sort + dedup keeps the *first* occurrence of a duplicated
    // pair, matching the patch layer.
    ins.sort_by_key(|&(a, b, _)| (a, b));
    ins.dedup_by_key(|&mut (a, b, _)| (a, b));

    let mut del: Vec<(VertexId, VertexId)> = batch
        .deletions
        .iter()
        .filter(|&&(u, v)| u != v)
        .map(|&(u, v)| {
            assert!(u < n && v < n, "deletion endpoint out of range");
            canon(u, v)
        })
        .collect();
    del.sort_unstable();
    del.dedup();
    // Insert wins over delete of the same pair within one batch.
    del.retain(|&(a, b)| {
        ins.binary_search_by_key(&(a, b), |&(x, y, _)| (x, y))
            .is_err()
    });

    let mut inserted = 0usize;
    let mut reweighted = 0usize;
    ins.retain(|&(a, b, w)| match graph.slot_of(a, b) {
        None => {
            inserted += 1;
            true
        }
        // Re-inserting an existing edge only matters on weighted graphs
        // where it replaces the weight with a different value.
        Some(s) if graph.is_weighted() && graph.slot_weight(s) != w => {
            reweighted += 1;
            true
        }
        Some(_) => false,
    });
    del.retain(|&(a, b)| graph.slot_of(a, b).is_some());

    EffectiveBatch {
        insertions: ins,
        deletions: del,
        inserted,
        reweighted,
    }
}

/// Apply a batch of updates to an index, recomputing only affected
/// similarities. Returns the updated index (the old one is consumed).
/// An effectively empty batch returns the original index untouched —
/// no graph splice, no similarity pass, no order patch.
pub fn apply_batch(index: ScanIndex, batch: &BatchUpdate) -> ScanIndex {
    match apply_batch_diff(&index, batch) {
        Some(outcome) => outcome.index,
        None => index,
    }
}

/// Apply a batch to `index`, returning the new index plus the change
/// summary the serving layer needs for selective cache invalidation.
/// Returns `None` — and does **no work past classification** — when the
/// batch is effectively empty: every insertion already present (with
/// the same weight, on weighted graphs), every deletion absent, every
/// op a self-loop, or the batch literally empty.
///
/// The new index's ε breakpoints come patched from `index`'s, which are
/// computed first if they have not been yet.
///
/// # Panics
/// Panics if any endpoint is `≥ n` (validate with
/// [`BatchUpdate::max_endpoint`] first when the batch is untrusted).
pub fn apply_batch_diff(index: &ScanIndex, batch: &BatchUpdate) -> Option<ApplyOutcome> {
    let old_graph = index.graph();
    let eff = effective_batch(old_graph, batch);
    if eff.insertions.is_empty() && eff.deletions.is_empty() {
        return None;
    }
    let measure = index.measure();
    let old_sims = index.similarities();
    let old = (old_graph, old_sims.as_slice());

    // Splice the batch into the CSR directly (untouched adjacency lists
    // are copied wholesale) instead of re-sorting all 2m entries.
    let new_graph = parscan_graph::patch::patch(old_graph, &eff.insertions, &eff.deletions);

    // Touched vertices: endpoints of any *effective* op. No-op entries
    // (already-present edges, absent deletions) must not widen the
    // recompute set — or an all-no-op batch would still pay the orders.
    let ins = eff.insertions.iter().flat_map(|&(u, v, _)| [u, v]);
    let del = eff.deletions.iter().flat_map(|&(u, v)| [u, v]);
    let mut touched: Vec<VertexId> = ins.chain(del).collect();
    touched.sort_unstable();
    touched.dedup();
    let is_touched = flags(old_graph.num_vertices(), &touched);

    let sims = rescore(index, &new_graph, &touched, &is_touched);
    let diff = ScoreDiff::walk(old, (&new_graph, &sims), &touched, &is_touched);
    let breakpoints = patch_breakpoints(old_sims.breakpoints(), &sims, &diff.lost, &diff.gained);
    let sims = EdgeSimilarities::from_per_slot_with_breakpoints(sims, breakpoints);
    let no = index
        .neighbor_order()
        .patch(old_graph, &new_graph, &sims, &diff.dirty);
    let co = index
        .core_order()
        .patch(old_graph, &new_graph, &no, &diff.dirty, &diff.is_dirty);
    Some(ApplyOutcome {
        index: ScanIndex::from_existing_parts(new_graph, sims, no, co, measure),
        max_affected_similarity: diff.ceiling,
        changed_edges: diff.changed,
        inserted: eff.inserted,
        deleted: eff.deletions.len(),
        reweighted: eff.reweighted,
    })
}

/// `vertices` (below `n`) as per-vertex flags.
fn flags(n: usize, vertices: &[VertexId]) -> Vec<bool> {
    let mut flags = vec![false; n];
    for &v in vertices {
        flags[v as usize] = true;
    }
    flags
}

/// The per-slot scores of `new_graph`. An edge with no endpoint in
/// `touched` (ascending) keeps its lists and weights, hence its score bit
/// for bit, so every other vertex's run of scores is a block copy of the
/// old one. Then every edge at a touched vertex is scored afresh, once,
/// on its canonical slot, and written to both of its slots; the twin may
/// lie in a copied list, whose stale score it overwrites.
fn rescore(
    index: &ScanIndex,
    new_graph: &CsrGraph,
    touched: &[VertexId],
    is_touched: &[bool],
) -> Vec<f32> {
    let old_sims = index.similarities().as_slice();
    let mut sims = vec![0f32; new_graph.num_slots()];
    let ptr = SyncMutPtr::new(&mut sims);
    let pieces = clean_pieces(index.graph().parts().0, new_graph.parts().0, touched);
    par_for(pieces.len(), 1, |p| {
        let (old, new, len) = pieces[p];
        // SAFETY: pieces cover disjoint ranges of untouched lists.
        unsafe {
            ptr.slice_mut(new, len)
                .copy_from_slice(&old_sims[old..old + len])
        };
    });

    // Closed norms of the touched vertices and their neighbors — every
    // endpoint scored below — each computed once: a norm costs O(deg),
    // and a hub may neighbor many touched vertices.
    let norms = new_graph.is_weighted().then(|| {
        let n = new_graph.num_vertices();
        let (mut seen, mut ends) = (vec![false; n], Vec::new());
        for &a in touched {
            for &x in std::iter::once(&a).chain(new_graph.neighbors(a)) {
                if !std::mem::replace(&mut seen[x as usize], true) {
                    ends.push(x);
                }
            }
        }
        let values = par_map(ends.len(), 256, |k| new_graph.closed_norm_sq(ends[k]));
        let mut norms = vec![0f64; n];
        for (&x, value) in ends.iter().zip(values) {
            norms[x as usize] = value;
        }
        norms
    });

    // The touched lists in runs of at most `RUN` slots, so that a hub's
    // list splits across threads.
    const RUN: usize = 1024;
    let runs: Vec<(VertexId, std::ops::Range<usize>)> = touched
        .iter()
        .flat_map(|&a| {
            let list = new_graph.slot_range(a);
            let end = list.end;
            list.step_by(RUN).map(move |s| (a, s..end.min(s + RUN)))
        })
        .collect();
    let costs: Vec<usize> = runs.iter().map(|(_, run)| run.len()).collect();
    par_for_weighted(&costs, |k| {
        let (a, ref run) = runs[k];
        for s in run.clone() {
            let b = new_graph.slot_neighbor(s);
            if b < a && is_touched[b as usize] {
                continue; // scored from `b`'s list
            }
            let (u, v, canonical) = if a < b {
                (a, b, s)
            } else {
                (b, a, new_graph.twin_slot(s))
            };
            let open = open_intersection_value(new_graph, canonical);
            let norms = norms.as_ref().map(|x| (x[u as usize], x[v as usize]));
            let score = score_edge(new_graph, index.measure(), (u, v, canonical), open, norms);
            // SAFETY: an edge is scored by exactly one touched endpoint,
            // the only writer of its two slots in this pass.
            unsafe {
                ptr.write(s, score);
                ptr.write(new_graph.twin_slot(s), score);
            }
        }
    });
    sims
}

/// What the batch did to the scores. Only an edge with a touched endpoint
/// can change score, so walking the touched vertices' old and new lists
/// finds every change.
struct ScoreDiff {
    /// θ: the maximum of `max(σ_old, σ_new)` over changed edges — the
    /// ceiling below which clusterings may differ — or `None` when no
    /// score changed.
    ceiling: Option<f32>,
    /// Canonical edges whose score changed, appeared or disappeared.
    changed: usize,
    /// Vertices whose list or any of whose scores changed, ascending: the
    /// touched vertices and the other ends of their changed edges.
    dirty: Vec<VertexId>,
    /// `dirty` as per-vertex flags.
    is_dirty: Vec<bool>,
    /// The old scores of the changed edges that existed before.
    lost: Vec<f32>,
    /// The new scores of the changed edges that exist after.
    gained: Vec<f32>,
}

impl ScoreDiff {
    /// Diff each touched vertex's old and new lists. A changed edge is
    /// counted from the walk of `a` when its other end `b` is above `a`
    /// or untouched (and then not walked); a deleted or inserted edge has
    /// both ends touched.
    fn walk(
        old: (&CsrGraph, &[f32]),
        new: (&CsrGraph, &[f32]),
        touched: &[VertexId],
        is_touched: &[bool],
    ) -> ScoreDiff {
        type Change = (Option<f32>, Option<f32>);
        let per_vertex: Vec<(Vec<Change>, Vec<VertexId>)> = par_map(touched.len(), 1, |k| {
            let a = touched[k];
            let (mut changes, mut clean_ends) = (Vec::new(), Vec::new());
            diff_vertex(old, new, a, |b, o, s| {
                let clean = !is_touched[b as usize];
                if clean {
                    clean_ends.push(b);
                }
                if clean || b > a {
                    changes.push((o, s));
                }
            });
            (changes, clean_ends)
        });

        let mut ceiling = f32::NEG_INFINITY;
        let (mut changed, mut lost, mut gained) = (0usize, Vec::new(), Vec::new());
        let mut dirty = touched.to_vec();
        for (changes, clean_ends) in per_vertex {
            changed += changes.len();
            for (o, s) in changes {
                ceiling = o.into_iter().chain(s).fold(ceiling, f32::max);
                lost.extend(o);
                gained.extend(s);
            }
            dirty.extend(clean_ends);
        }
        dirty.sort_unstable();
        dirty.dedup();
        ScoreDiff {
            ceiling: (changed > 0).then_some(ceiling),
            changed,
            is_dirty: flags(new.0.num_vertices(), &dirty),
            dirty,
            lost,
            gained,
        }
    }
}

/// Walk `a`'s old and new lists in lockstep and call `on_change(b, σ_old,
/// σ_new)` for every neighbor `b` whose edge score changed, with `None` on
/// the side where the edge is absent (deleted edges have only an old
/// score, inserted ones only a new one).
fn diff_vertex(
    (old_graph, old_sims): (&CsrGraph, &[f32]),
    (new_graph, new_sims): (&CsrGraph, &[f32]),
    a: VertexId,
    mut on_change: impl FnMut(VertexId, Option<f32>, Option<f32>),
) {
    let old_range = old_graph.slot_range(a);
    let new_range = new_graph.slot_range(a);
    let (mut i, mut j) = (old_range.start, new_range.start);
    loop {
        let ob = (i < old_range.end).then(|| old_graph.slot_neighbor(i));
        let nb = (j < new_range.end).then(|| new_graph.slot_neighbor(j));
        let deleted = match (ob, nb) {
            (None, None) => break,
            (Some(x), Some(y)) if x == y => {
                let (o, s) = (old_sims[i], new_sims[j]);
                i += 1;
                j += 1;
                if o.to_bits() != s.to_bits() {
                    on_change(x, Some(o), Some(s));
                }
                continue;
            }
            (Some(x), Some(y)) => x < y,
            (Some(_), None) => true,
            (None, Some(_)) => false,
        };
        if deleted {
            on_change(ob.unwrap(), Some(old_sims[i]), None);
            i += 1;
        } else {
            on_change(nb.unwrap(), None, Some(new_sims[j]));
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{ExactStrategy, IndexConfig};
    use crate::query::{BorderAssignment, QueryParams};
    use crate::similarity::SimilarityMeasure;
    use crate::test_support::{assert_index_equivalent, oracle_config, rebuild_oracle};
    use parscan_graph::generators;
    use parscan_parallel::utils::hash64;

    fn rebuild_config() -> IndexConfig {
        // Full-merge matches the per-edge recompute path bit for bit.
        IndexConfig {
            exact: ExactStrategy::FullMerge,
            ..Default::default()
        }
    }

    #[test]
    fn insertion_batch_matches_full_rebuild() {
        let g = generators::erdos_renyi(200, 1000, 3);
        let index = ScanIndex::build(g.clone(), rebuild_config());
        let new_edges: Vec<(u32, u32)> = (0..30).map(|i| (i, (i * 7 + 13) % 200)).collect();
        let updated = apply_batch(index, &BatchUpdate::insert(&new_edges));

        let mut edges: Vec<(u32, u32)> = g.canonical_edges().map(|(u, v, _)| (u, v)).collect();
        edges.extend(new_edges.iter().filter(|&&(u, v)| u != v));
        let rebuilt = ScanIndex::build(parscan_graph::from_edges(200, &edges), rebuild_config());
        assert_eq!(updated.graph(), rebuilt.graph());
        assert_eq!(
            updated.similarities().as_slice(),
            rebuilt.similarities().as_slice()
        );
        // Queries agree too.
        let params = QueryParams::new(3, 0.4);
        assert_eq!(
            updated.cluster_with(params, BorderAssignment::MostSimilar),
            rebuilt.cluster_with(params, BorderAssignment::MostSimilar)
        );
    }

    #[test]
    fn deletion_batch_matches_full_rebuild() {
        let g = generators::erdos_renyi(150, 900, 6);
        let victims: Vec<(u32, u32)> = g
            .canonical_edges()
            .map(|(u, v, _)| (u, v))
            .step_by(17)
            .take(20)
            .collect();
        let index = ScanIndex::build(g.clone(), rebuild_config());
        let updated = apply_batch(index, &BatchUpdate::delete(&victims));

        let keep: std::collections::HashSet<(u32, u32)> = victims.into_iter().collect();
        let edges: Vec<(u32, u32)> = g
            .canonical_edges()
            .map(|(u, v, _)| (u, v))
            .filter(|e| !keep.contains(e))
            .collect();
        let rebuilt = ScanIndex::build(parscan_graph::from_edges(150, &edges), rebuild_config());
        assert_eq!(
            updated.similarities().as_slice(),
            rebuilt.similarities().as_slice()
        );
    }

    #[test]
    fn mixed_batch_weighted_graph() {
        let (g, _) = generators::weighted_planted_partition(150, 3, 10.0, 1.0, 4);
        let index = ScanIndex::build(g.clone(), rebuild_config());
        let batch = BatchUpdate {
            insertions: vec![(0, 75, 0.9), (1, 140, 0.8)],
            deletions: g
                .canonical_edges()
                .map(|(u, v, _)| (u, v))
                .take(5)
                .collect(),
        };
        let updated = apply_batch(index, &batch);
        assert_eq!(updated.graph().validate(), Ok(()));
        // Spot check: inserted edges exist with their weights.
        assert!(updated.graph().slot_of(0, 75).is_some());
        let c = updated.cluster(QueryParams::new(3, 0.4));
        assert_eq!(c.labels.len(), 150);
    }

    #[test]
    fn empty_batch_is_identity_on_similarities() {
        let g = generators::rmat(7, 8, 2);
        let index = ScanIndex::build(g, rebuild_config());
        let before = index.similarities().as_slice().to_vec();
        let updated = apply_batch(index, &BatchUpdate::default());
        assert_eq!(updated.similarities().as_slice(), &before[..]);
    }

    #[test]
    fn self_loop_insertions_are_ignored() {
        let g = generators::path(10);
        let index = ScanIndex::build(g, rebuild_config());
        let updated = apply_batch(index, &BatchUpdate::insert(&[(3, 3)]));
        assert_eq!(updated.graph().num_edges(), 9);
    }

    #[test]
    fn effectively_empty_batch_returns_the_original_index_without_rebuilding() {
        // Regression: the update path used to rebuild the neighbor/core
        // orders even when every op in the batch was a no-op. Observe
        // identity through the similarity buffer's address: a rebuild
        // would allocate fresh arrays.
        let g = generators::erdos_renyi(120, 600, 11);
        let existing: Vec<(u32, u32)> = g
            .canonical_edges()
            .map(|(u, v, _)| (u, v))
            .take(4)
            .collect();
        let index = ScanIndex::build(g, rebuild_config());
        let before_ptr = index.similarities().as_slice().as_ptr();

        let batch = BatchUpdate {
            // Already present (unweighted: the weight token is ignored),
            // plus a self-loop.
            insertions: existing
                .iter()
                .map(|&(u, v)| (u, v, 1.0))
                .chain([(5, 5, 1.0)])
                .collect(),
            // Absent edge and a duplicate of it.
            deletions: vec![(0, 119), (119, 0)],
        };
        assert!(index.graph().slot_of(0, 119).is_none(), "test premise");
        assert!(apply_batch_diff(&index, &batch).is_none());
        let updated = apply_batch(index, &batch);
        assert_eq!(updated.similarities().as_slice().as_ptr(), before_ptr);
    }

    #[test]
    fn diff_reports_the_affected_similarity_ceiling() {
        // Two triangles joined by nothing; delete an edge inside one.
        // Every changed score lives in that triangle, so θ is bounded by
        // its scores and the other triangle keeps every score bitwise.
        let edges: Vec<(u32, u32)> = vec![(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)];
        let g = parscan_graph::from_edges(6, &edges);
        let index = ScanIndex::build(g, rebuild_config());
        let outcome = apply_batch_diff(&index, &BatchUpdate::delete(&[(0, 1)]))
            .expect("a real deletion is never a no-op");
        let theta = outcome.max_affected_similarity.expect("scores changed");
        assert_eq!(outcome.deleted, 1);
        assert_eq!(outcome.inserted, 0);
        assert!(outcome.changed_edges >= 3, "{:?}", outcome.changed_edges);
        // The untouched triangle's scores sit at the maximum similarity
        // of a triangle graph; deleting (0,1) cannot reach them, so θ
        // must stay at or below that value and above zero.
        assert!(theta > 0.0 && theta <= 1.0);
        // Differential check: every edge of the untouched triangle keeps
        // its score bitwise.
        let old = index.similarities();
        let new = outcome.index.similarities();
        for &(u, v) in &[(3u32, 4u32), (4, 5), (3, 5)] {
            let os = index.graph().slot_of(u, v).unwrap();
            let ns = outcome.index.graph().slot_of(u, v).unwrap();
            assert_eq!(old.slot(os).to_bits(), new.slot(ns).to_bits());
        }
    }

    #[test]
    fn weight_replacement_is_effective_only_when_the_weight_changes() {
        let (g, _) = generators::weighted_planted_partition(80, 2, 8.0, 1.0, 9);
        let (u, v, s) = g.canonical_edges().next().unwrap();
        let w = g.slot_weight(s);
        let index = ScanIndex::build(g, rebuild_config());

        // Same weight: a no-op.
        let same = BatchUpdate {
            insertions: vec![(u, v, w)],
            deletions: vec![],
        };
        assert!(apply_batch_diff(&index, &same).is_none());

        // Different weight: a reweight, and the edge count is unchanged.
        let diff = BatchUpdate {
            insertions: vec![(u, v, w + 1.0)],
            deletions: vec![],
        };
        let outcome = apply_batch_diff(&index, &diff).expect("weight changed");
        assert_eq!(outcome.reweighted, 1);
        assert_eq!(outcome.inserted, 0);
        assert_eq!(outcome.index.graph().num_edges(), index.graph().num_edges());
        let ns = outcome.index.graph().slot_of(u, v).unwrap();
        assert_eq!(outcome.index.graph().slot_weight(ns), w + 1.0);
    }

    /// Apply `batch` to `index` and demand the from-scratch oracle's
    /// index, breakpoints included; returns the patched index.
    fn apply_and_check(index: ScanIndex, batch: &BatchUpdate) -> ScanIndex {
        let oracle = rebuild_oracle(index.graph(), batch, index.measure());
        let updated = apply_batch(index, batch);
        assert_index_equivalent(&updated, &oracle, 0.0);
        updated
    }

    fn base(g: CsrGraph) -> ScanIndex {
        ScanIndex::build(g, oracle_config(SimilarityMeasure::Cosine))
    }

    #[test]
    fn eight_chained_batches_match_a_rebuild_after_each() {
        let (g, _) = generators::weighted_planted_partition(300, 6, 9.0, 2.0, 21);
        let mut draw = 0u64;
        let mut below = |bound: usize| {
            draw += 1;
            (hash64(draw) % bound as u64) as usize
        };
        let mut index = base(g);
        for round in 0..8u32 {
            let edges: Vec<(u32, u32)> = index
                .graph()
                .canonical_edges()
                .map(|(u, v, _)| (u, v))
                .collect();
            let batch = BatchUpdate {
                insertions: (0..12)
                    .map(|i| {
                        let (u, v) = (below(300) as u32, below(300) as u32);
                        (u, v, (round * 12 + i + 1) as f32 / 100.0)
                    })
                    .collect(),
                deletions: (0..10).map(|_| edges[below(edges.len())]).collect(),
            };
            index = apply_and_check(index, &batch);
        }
    }

    #[test]
    fn a_small_batch_on_a_large_graph_copies_the_clean_vertices() {
        let (g, _) = generators::weighted_planted_partition(5_000, 100, 12.0, 2.0, 8);
        let m = g.num_edges();
        let (a, b, _) = g.canonical_edges().nth(m / 3).unwrap();
        let (c, d, _) = g.canonical_edges().nth(2 * m / 3).unwrap();
        let batch = BatchUpdate {
            insertions: vec![(7, 4_021, 0.6), (1_234, 3_999, 0.3)],
            deletions: vec![(a, b), (c, d)],
        };
        let index = base(g);
        let outcome = apply_batch_diff(&index, &batch).expect("the batch changes edges");
        assert!(
            outcome.changed_edges < m / 50,
            "a 4-edge batch changed {} of {m} scores",
            outcome.changed_edges
        );
        apply_and_check(index, &batch);
    }

    #[test]
    fn a_dirty_hub_above_the_segment_threshold_is_radix_sorted() {
        let g = crate::test_support::star_with_leaf_edges(70_000, 100_000, 3);
        assert!(g.max_degree() > 1 << 16);
        let leaf = g.neighbors(5)[1];
        let batch = BatchUpdate {
            insertions: vec![(11, 60_123, 1.0), (0, 0, 1.0)],
            deletions: vec![(0, 17), (5, leaf)],
        };
        apply_and_check(base(g), &batch);
    }

    #[test]
    fn the_maximum_degree_grows_shrinks_and_vanishes() {
        let g = generators::erdos_renyi(60, 200, 4);
        let mut index = base(g);
        let max = |index: &ScanIndex| index.graph().max_degree();

        // Grow: one vertex gains edges to every other vertex.
        let before = max(&index);
        let spokes: Vec<(u32, u32)> = (1..60).map(|v| (0, v)).collect();
        index = apply_and_check(index, &BatchUpdate::insert(&spokes));
        assert_eq!(max(&index), 59);
        assert!(before < 59);

        // Shrink: empty that vertex again.
        index = apply_and_check(index, &BatchUpdate::delete(&spokes));
        assert_eq!(index.graph().degree(0), 0);
        assert!(max(&index) < 59);

        // Vanish: delete every edge, then insert into the edgeless graph.
        let all: Vec<(u32, u32)> = index
            .graph()
            .canonical_edges()
            .map(|(u, v, _)| (u, v))
            .collect();
        index = apply_and_check(index, &BatchUpdate::delete(&all));
        assert_eq!(index.graph().num_edges(), 0);
        assert_eq!(index.core_order().parts().0, &[0]);
        assert!(index.similarities().breakpoints().is_empty());
        index = apply_and_check(
            index,
            &BatchUpdate::insert(&[(3, 4), (4, 5), (3, 5), (9, 3)]),
        );
        assert_eq!(max(&index), 3);
    }

    #[test]
    fn breakpoints_keep_a_score_another_edge_holds_and_drop_a_vanished_one() {
        // Two equal paths 0-1-2-3 and 4-5-6-7, and a star 8-{9, 10, 11}.
        // Both middle edges score 2/3 and every star edge 1/√2. Deleting
        // (0, 1) moves (1, 2) off 2/3 while (5, 6) keeps it; deleting
        // (8, 9) moves every star edge off 1/√2, which no edge holds after.
        let edges = [
            (0, 1),
            (1, 2),
            (2, 3),
            (4, 5),
            (5, 6),
            (6, 7),
            (8, 9),
            (8, 10),
            (8, 11),
        ];
        let index = base(parscan_graph::from_edges(12, &edges));
        let sims = index.similarities();
        let middle = sims.of_edge(index.graph(), 1, 2).unwrap();
        let spoke = sims.of_edge(index.graph(), 8, 9).unwrap();
        let has = |index: &ScanIndex, x: f32| index.similarities().breakpoints().contains(&x);
        assert!(has(&index, middle) && has(&index, spoke));

        let updated = apply_and_check(index, &BatchUpdate::delete(&[(0, 1), (8, 9)]));
        let new_sims = updated.similarities();
        assert_ne!(new_sims.of_edge(updated.graph(), 1, 2), Some(middle));
        assert_eq!(new_sims.of_edge(updated.graph(), 5, 6), Some(middle));
        assert!(has(&updated, middle), "(5, 6) still holds 2/3");
        assert!(!has(&updated, spoke), "no edge holds 1/√2 any more");
    }
}
