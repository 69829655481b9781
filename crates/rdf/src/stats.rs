//! Planner statistics snapshot over a sealed graph.
//!
//! [`GraphStats`] is the cost model's view of a [`Graph`](crate::Graph):
//! per-predicate triple counts with distinct-subject/object counts, the
//! global distinct-term cardinalities, and the min/max keys of the
//! sealed SPO scan. The snapshot is immutable and `Arc`-shared, so a
//! frozen session's many threads read it without synchronisation, and it
//! always describes the graph's current logical content. It comes about
//! in one of two ways:
//!
//! * **The full sweep** — on the first
//!   [`Graph::graph_stats`](crate::Graph::graph_stats) call against a
//!   *sealed* graph that holds no snapshot: two O(n) passes over the
//!   permutation indexes (no hashing of triples, the sorted scan orders
//!   make every distinct count a transition count).
//! * **The patch** — when a graph that held a snapshot is mutated and
//!   then re-sealed by [`Graph::seal`](crate::Graph::seal). The mutation
//!   does not throw the snapshot away: the graph keeps it as a *base*,
//!   with the insertion-log mark it was valid at and the triples removed
//!   from below that mark. At the seal the net delta is `added` = the
//!   log window since the mark, `removed` = that list, and
//!   the patch (`GraphStats::patched`) corrects the base exactly in
//!   `O(delta · log n)` by probing the new sealed run once per distinct
//!   `(s, p)`, `(p, o)`, `s` and `o` group of the delta — so the
//!   snapshot is in place before the first reader asks.
//!
//! The patch runs only when it is cheaper than the sweep and the layout
//! can be probed: `delta · 2 · ilog2(n) < n` (the rule the store's
//! merge uses to choose galloping, with the window's slot count standing
//! in for `added`), the sorted-run backend, one plain run per
//! permutation. Otherwise — a bulk load's window, a columnar or B-tree
//! graph, a graph never asked for statistics — the base is dropped and
//! the sweep runs lazily as before. The sweep stays the only full
//! implementation; the patch is tested equal to it field by field.
//!
//! Consumers: the cost-based join orderer in `rps-query` (see
//! `PreparedQueryIds::compile_only` there) and the flat counters surfaced through
//! [`StorageStats`](crate::StorageStats) (`stats_*` fields).

use crate::dict::TermId;
use crate::store::Perm;
use crate::triple::IdTriple;
use std::collections::BTreeMap;

/// Per-predicate statistics: how many triples carry the predicate, and
/// how many distinct subjects/objects they spread over. The ratios
/// `count / distinct_subjects` and `count / distinct_objects` are the
/// expected fan-out of a subject- or object-bound probe — exactly the
/// selectivities a join orderer needs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PredicateStats {
    /// Triples whose predicate is this predicate.
    pub count: usize,
    /// Distinct subjects among those triples.
    pub distinct_subjects: usize,
    /// Distinct objects among those triples.
    pub distinct_objects: usize,
}

/// An immutable statistics snapshot of a sealed graph, produced by
/// [`Graph::graph_stats`](crate::Graph::graph_stats).
#[derive(Clone, Debug, Default)]
pub struct GraphStats {
    /// Per-predicate statistics, keyed by the predicate's term id. Only
    /// predicates some triple carries have an entry.
    pub(crate) preds: BTreeMap<TermId, PredicateStats>,
    /// Total triples in the snapshot.
    pub triples: usize,
    /// Distinct subjects across the whole graph.
    pub distinct_subjects: usize,
    /// Distinct objects across the whole graph.
    pub distinct_objects: usize,
    /// First and last key of the sealed SPO scan (`None` when empty) —
    /// the run min/max bounds the store's pruning already works from,
    /// recorded here so the planner can zero-estimate constants outside
    /// the key space.
    pub spo_bounds: Option<(IdTriple, IdTriple)>,
    /// Wall time producing the snapshot took, in nanoseconds: the two
    /// passes of a full sweep, or the patch of the previous snapshot.
    pub build_nanos: u64,
}

impl GraphStats {
    /// The statistics for predicate `p`, or `None` when no triple
    /// carries it (the planner treats that as cardinality zero).
    pub fn predicate(&self, p: TermId) -> Option<&PredicateStats> {
        self.preds.get(&p)
    }

    /// Number of distinct predicates in the snapshot.
    pub fn predicates(&self) -> usize {
        self.preds.len()
    }

    /// Iterates the per-predicate statistics in predicate-id order.
    pub fn iter_predicates(&self) -> impl Iterator<Item = (TermId, &PredicateStats)> {
        self.preds.iter().map(|(p, s)| (*p, s))
    }

    /// The snapshot of the graph that results from taking `removed` out
    /// of, and putting `added` into, the graph `self` describes.
    /// `runs` are the *new* graph's sealed SPO, POS and OSP runs and
    /// `spo_bounds` the ends of the first. Every `removed` triple was in
    /// the old graph and is listed once; every `added` triple is in the
    /// new one and is listed once; a triple removed and put back is in
    /// both lists and cancels out.
    ///
    /// Counts move by the delta itself. A distinct count moves when a
    /// group — the triples sharing an `(s, p)`, a `(p, o)`, an `s` or an
    /// `o` — appears or vanishes, and a group's old size is its new size
    /// less its additions plus its removals: so per group of the delta
    /// one binary search finds it in the new run, and reading at most
    /// `additions + 1` keys there settles both "is it there now" and
    /// "was it there before".
    pub(crate) fn patched(
        &self,
        added: &[IdTriple],
        removed: &[IdTriple],
        [spo, pos, osp]: [&[[u32; 3]]; 3],
        spo_bounds: Option<(IdTriple, IdTriple)>,
    ) -> GraphStats {
        let t0 = std::time::Instant::now();
        let mut out = GraphStats {
            triples: spo.len(),
            spo_bounds,
            ..self.clone()
        };
        let mut delta: Vec<([u32; 3], bool)> = Vec::with_capacity(added.len() + removed.len());
        let sort_into = |perm: Perm, delta: &mut Vec<([u32; 3], bool)>| {
            delta.clear();
            delta.extend(added.iter().map(|&t| (perm.permute(t), true)));
            delta.extend(removed.iter().map(|&t| (perm.permute(t), false)));
            delta.sort_unstable();
        };
        let step = |n: &mut usize, appeared: bool| {
            if appeared {
                *n += 1
            } else {
                *n -= 1
            }
        };

        sort_into(Perm::Spo, &mut delta);
        presence_changes(spo, &delta, 2, |[_, p, _], appeared| {
            let e = out.preds.entry(TermId(p)).or_default();
            step(&mut e.distinct_subjects, appeared)
        });
        presence_changes(spo, &delta, 1, |_, appeared| {
            step(&mut out.distinct_subjects, appeared)
        });

        sort_into(Perm::Pos, &mut delta);
        presence_changes(pos, &delta, 2, |[p, _, _], appeared| {
            let e = out.preds.entry(TermId(p)).or_default();
            step(&mut e.distinct_objects, appeared)
        });
        // A predicate's removals were all in the old graph, so its count
        // never dips below zero on the way, whatever the order.
        for &([p, _, _], is_add) in &delta {
            step(&mut out.preds.entry(TermId(p)).or_default().count, is_add);
        }
        out.preds.retain(|_, e| e.count > 0);

        sort_into(Perm::Osp, &mut delta);
        presence_changes(osp, &delta, 1, |_, appeared| {
            step(&mut out.distinct_objects, appeared)
        });

        out.build_nanos = t0.elapsed().as_nanos() as u64;
        out
    }
}

/// Calls `change(key, appeared)` for every group of `delta` — the
/// entries sharing their first `plen` key components; `key` is one of
/// them — whose triples were all absent before the delta and some are
/// present in `run` after it (`appeared`), or the other way round.
/// `delta` holds `(key, is_addition)` sorted by key, `run` the sorted
/// keys after the delta.
fn presence_changes(
    run: &[[u32; 3]],
    delta: &[([u32; 3], bool)],
    plen: usize,
    mut change: impl FnMut([u32; 3], bool),
) {
    let groups: Vec<&[([u32; 3], bool)]> =
        delta.chunk_by(|a, b| a.0[..plen] == b.0[..plen]).collect();
    // Where each group starts in the run: the first key not below its
    // prefix padded with zeros. All the binary searches advance
    // together, a level at a time — a search alone misses the cache on
    // most of its steps and waits for each miss in turn; side by side
    // the misses of one level are independent loads and overlap.
    let floors: Vec<[u32; 3]> = groups
        .iter()
        .map(|group| std::array::from_fn(|i| if i < plen { group[0].0[i] } else { 0 }))
        .collect();
    let mut starts = vec![0usize; groups.len()];
    let mut size = run.len();
    while size > 1 {
        let half = size / 2;
        for (start, floor) in starts.iter_mut().zip(&floors) {
            if run[*start + half] < *floor {
                *start += half;
            }
        }
        size -= half;
    }
    for ((group, floor), start) in groups.into_iter().zip(floors).zip(starts) {
        let start = start + usize::from(run.get(start).is_some_and(|k| *k < floor));
        let adds = group.iter().filter(|e| e.1).count();
        let removes = group.len() - adds;
        // Old size = new − adds + removes, so only whether the new size
        // is zero, and whether it exceeds `adds − removes`, matter.
        let now = run[start..]
            .iter()
            .take(adds.saturating_sub(removes) + 1)
            .take_while(|k| k[..plen] == floor[..plen])
            .count();
        let (was_present, is_present) = (now + removes > adds, now > 0);
        if was_present != is_present {
            change(group[0].0, is_present);
        }
    }
}
