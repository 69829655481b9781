//! Evaluation of graph patterns and graph pattern queries over a [`Graph`].
//!
//! Implements Definition 1 of the paper (the Pérez-et-al. join semantics)
//! with an index-nested-loop strategy: conjuncts are ordered greedily by
//! estimated selectivity, and each conjunct is matched by a range scan on
//! the store's permutation indexes ([`Graph::match_ids`] — under the
//! default sorted-run backend that scan is a k-way merge over the run
//! slices and the mutable tail, in the same key order as a B-tree
//! range, so the evaluator is storage-agnostic). Both result semantics
//! are provided:
//!
//! * `Q_D` (certain-answer eligible): tuples containing blank nodes are
//!   dropped;
//! * `Q*_D`: blank nodes are kept (used by Definition 2's equivalence-
//!   mapping conditions and by the chase).

use crate::binding::Mapping;
use crate::pattern::{GraphPattern, GraphPatternQuery, TermOrVar, Variable};
use rps_rdf::{Graph, GraphStats, IdTriple, TermId};
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashSet};

/// Which tuples a query evaluation returns (Section 2.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Semantics {
    /// `Q_D`: only tuples over `I ∪ L` — blank-node tuples are dropped.
    Certain,
    /// `Q*_D`: tuples may contain blank nodes.
    Star,
}

/// One position of a compiled triple pattern.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Slot {
    /// A constant, already resolved to a term id of the target graph.
    Const(TermId),
    /// A variable, identified by its dense index.
    Var(usize),
}

/// A graph pattern compiled against a specific graph's dictionary.
#[derive(Clone, PartialEq, Eq, Debug)]
struct Compiled {
    /// One `[s, p, o]` slot triple per conjunct, in planner order.
    slots: Vec<[Slot; 3]>,
    /// Dense variable table; `Slot::Var` indexes into this. Empty for an
    /// id-level plan ([`PreparedQueryIds::from_id_slots`]), whose
    /// variables have numbers, not names.
    vars: Vec<Variable>,
    /// The number of variables.
    nvars: usize,
    /// False if some constant does not occur in the graph at all, which
    /// makes the whole conjunction unsatisfiable.
    satisfiable: bool,
    /// Whether the plan was ordered by the shape heuristic alone (delta
    /// evaluation re-orders its non-pivot conjuncts the same way).
    heuristic: bool,
    /// Source conjunct index per planner position — `source[i]` is the
    /// position the `i`-th planned conjunct held in the input pattern.
    source: Vec<usize>,
}

fn compile(graph: &Graph, gp: &GraphPattern, heuristic: bool) -> Compiled {
    // A pattern names a handful of variables: a scan of the dense table
    // beats hashing each occurrence.
    let mut vars: Vec<Variable> = Vec::new();
    let mut slots = Vec::with_capacity(gp.len());
    let mut satisfiable = true;

    for pat in gp.patterns() {
        let mut slot = [Slot::Var(usize::MAX); 3];
        for (i, tv) in [&pat.s, &pat.p, &pat.o].into_iter().enumerate() {
            slot[i] = match tv {
                TermOrVar::Term(t) => match graph.term_id(t) {
                    Some(id) => Slot::Const(id),
                    None => {
                        satisfiable = false;
                        // Placeholder; never used because satisfiable=false.
                        Slot::Var(usize::MAX)
                    }
                },
                TermOrVar::Var(v) => {
                    Slot::Var(vars.iter().position(|w| w == v).unwrap_or_else(|| {
                        vars.push(v.clone());
                        vars.len() - 1
                    }))
                }
            };
        }
        slots.push(slot);
    }

    let source = if satisfiable {
        order_slots(graph, &mut slots, &[], heuristic)
    } else {
        (0..slots.len()).collect()
    };
    Compiled {
        slots,
        nvars: vars.len(),
        vars,
        satisfiable,
        heuristic,
        source,
    }
}

/// Greedy join ordering: repeatedly pick the conjunct with the smallest
/// cardinality estimate given the variables bound so far — those of
/// `seed` (non-empty when ordering the non-pivot conjuncts of a delta
/// evaluation) and of the conjuncts already picked. The estimate is the
/// stats-based selectivity model when the graph is sealed (and so has a
/// [`GraphStats`] snapshot) and `heuristic` is off, the shape heuristic
/// otherwise. Returns the applied
/// permutation: element `i` is the input position of the conjunct now
/// planned `i`-th.
fn order_slots(
    graph: &Graph,
    slots: &mut [[Slot; 3]],
    seed: &[usize],
    heuristic: bool,
) -> Vec<usize> {
    let n = slots.len();
    if n < 2 {
        // Nothing to order — and no statistics to ask for, which on a
        // graph sealed by accident would be a full sweep.
        return (0..n).collect();
    }
    let stats = if heuristic { None } else { graph.graph_stats() };
    let mut source: Vec<usize> = (0..n).collect();
    for i in 0..n {
        // A conjunction names a handful of variables: asking the picked
        // conjuncts beats keeping a set of them.
        let (picked, rest) = slots.split_at(i);
        let bound =
            |v: usize| seed.contains(&v) || picked.iter().any(|s| slot_vars(s).any(|w| w == v));
        let mut best = i;
        let mut best_cost = f64::INFINITY;
        for (j, slot) in rest.iter().enumerate() {
            let cost = match &stats {
                Some(st) => stats_estimate(st, slot, &bound),
                None => shape_estimate(graph, slot, &bound),
            };
            if cost < best_cost {
                best_cost = cost;
                best = i + j;
            }
        }
        slots.swap(i, best);
        source.swap(i, best);
    }
    source
}

/// `true` iff every position of the conjunct is a constant — a pure
/// membership probe, which both estimators order first unconditionally
/// (cost 0: one `contains` call can only shrink the search).
fn all_const(slot: &[Slot; 3]) -> bool {
    slot.iter().all(|s| matches!(s, Slot::Const(_)))
}

/// The legacy shape heuristic: predicate counts refined by fixed
/// divisors, sqrt guesses for subject/object anchors. Kept bit-for-bit
/// (apart from the all-constant fix) as the differential oracle for the
/// stats-based estimator.
fn shape_estimate(graph: &Graph, slot: &[Slot; 3], bound: &impl Fn(usize) -> bool) -> f64 {
    if all_const(slot) {
        return 0.0;
    }
    let is_bound = |s: &Slot| match s {
        Slot::Const(_) => true,
        Slot::Var(v) => bound(*v),
    };
    let s_bound = is_bound(&slot[0]);
    let o_bound = is_bound(&slot[2]);
    let est: usize = match (&slot[1], s_bound, o_bound) {
        (_, true, true) if is_bound(&slot[1]) => 1,
        (Slot::Const(p), s, o) => {
            let base = graph.predicate_count(*p);
            match (s, o) {
                (true, true) => (base / 16).max(1),
                (true, false) | (false, true) => (base / 4).max(1),
                (false, false) => base.max(1),
            }
        }
        (Slot::Var(pv), s, o) => {
            let p_bound = bound(*pv);
            let n = graph.len().max(1);
            match (p_bound, s, o) {
                (_, true, true) => ((n as f64).sqrt() as usize).max(1),
                (true, _, _) => (n / 4).max(1),
                (false, true, false) | (false, false, true) => ((n as f64).sqrt() as usize).max(1),
                (false, false, false) => n,
            }
        }
    };
    est as f64
}

/// The stats-based selectivity estimate: start from the predicate's
/// triple count (or the graph total for a variable predicate) and divide
/// by the distinct-subject/object cardinality for each bound position —
/// the expected fan-out of the probe under a uniform-spread assumption.
/// Constants absent from the snapshot (unknown predicate, subject
/// outside the sealed SPO key bounds) estimate 0: scanning them first
/// terminates the join immediately.
fn stats_estimate(stats: &GraphStats, slot: &[Slot; 3], bound: &impl Fn(usize) -> bool) -> f64 {
    if all_const(slot) {
        return 0.0;
    }
    let is_bound = |s: &Slot| match s {
        Slot::Const(_) => true,
        Slot::Var(v) => bound(*v),
    };
    let s_bound = is_bound(&slot[0]);
    let o_bound = is_bound(&slot[2]);
    if let Slot::Const(s) = slot[0] {
        if let Some((lo, hi)) = &stats.spo_bounds {
            if s < lo.s || s > hi.s {
                return 0.0;
            }
        }
    }
    match &slot[1] {
        Slot::Const(p) => {
            let Some(ps) = stats.predicate(*p) else {
                return 0.0;
            };
            let mut est = ps.count as f64;
            if s_bound {
                est /= ps.distinct_subjects.max(1) as f64;
            }
            if o_bound {
                est /= ps.distinct_objects.max(1) as f64;
            }
            est
        }
        Slot::Var(pv) => {
            let mut est = stats.triples.max(1) as f64;
            if bound(*pv) {
                est /= stats.predicates().max(1) as f64;
            }
            if s_bound {
                est /= stats.distinct_subjects.max(1) as f64;
            }
            if o_bound {
                est /= stats.distinct_objects.max(1) as f64;
            }
            est
        }
    }
}

/// Evaluates a graph pattern, returning the set of solution mappings
/// `⟦GP⟧_D` of Definition 1 (term-level, sorted, deduplicated).
pub fn evaluate_pattern(graph: &Graph, gp: &GraphPattern) -> Vec<Mapping> {
    let compiled = compile(graph, gp, false);
    if !compiled.satisfiable {
        return Vec::new();
    }
    let nvars = compiled.vars.len();
    let mut binding: Vec<Option<TermId>> = vec![None; nvars];
    let mut results: Vec<Vec<TermId>> = Vec::new();
    Matcher::plain(graph, &compiled.slots).search(0, &mut binding, &mut |binding| {
        results.push((0..nvars).map(|v| bound(binding, v)).collect());
        true
    });
    results.sort();
    results.dedup();
    results
        .into_iter()
        .map(|row| {
            Mapping::from_pairs(
                row.iter()
                    .enumerate()
                    .map(|(i, id)| (compiled.vars[i].clone(), graph.term(*id).clone())),
            )
        })
        .collect()
}

/// The value a solution gives variable `v`.
fn bound(binding: &[Option<TermId>], v: usize) -> TermId {
    binding[v].expect("a solution binds every variable of its conjuncts")
}

/// Where a plan's remaining conjuncts stop depending on everything
/// bound above them: `slots[depth..]` mention, of the variables the
/// conjuncts before `depth` bind, only `key` — and some conjunct after
/// the last one that binds a `key` variable and before `depth` binds a
/// variable of its own, so the loops above `depth` arrive there again
/// and again under one `key` value. The suffix's sub-answer is then a
/// function of `key` alone and is evaluated once per `key` value (see
/// [`Matcher::replay_suffix`]). Chains and two-atom plans have no such
/// depth; a hub self-join (`?f starring ?z1 . ?z1 artist ?p . ?f
/// starring ?z2 . ?z2 artist ?q`), a star and a cartesian product do.
#[derive(Clone, Debug, PartialEq, Eq)]
struct SuffixMemo {
    /// Planner position of the suffix's first conjunct.
    depth: usize,
    /// The variables the suffix shares with the conjuncts above it,
    /// ascending.
    key: Vec<usize>,
    /// The projected variables the conjuncts above `depth` bind, less
    /// `key`, ascending: the part of an emitted row the prefix decides
    /// once the key is fixed. Arrivals that agree on it under one key
    /// emit the same rows, so only the first is replayed (see
    /// [`Matcher::replay_suffix`]).
    inp: Vec<usize>,
    /// The projected variables the suffix binds, ascending: what a
    /// replay has to restore. Its other variables are existential and
    /// are dropped when the sub-answer is stored.
    out: Vec<usize>,
}

/// The variables of one conjunct, position by position.
fn slot_vars(slot: &[Slot; 3]) -> impl Iterator<Item = usize> + '_ {
    slot.iter().filter_map(|s| match s {
        Slot::Var(v) => Some(*v),
        Slot::Const(_) => None,
    })
}

/// The first depth at which the plan has an independent suffix (see
/// [`SuffixMemo`]), or `None`. `proj` is the plan's projection.
fn independent_suffix(slots: &[[Slot; 3]], proj: &[usize]) -> Option<SuffixMemo> {
    // The conjunct that binds a variable (a projected one may occur in
    // none, when the plan is trivially empty).
    let first = |v: usize| {
        slots
            .iter()
            .position(|s| slot_vars(s).any(|w| w == v))
            .unwrap_or(usize::MAX)
    };
    (1..slots.len()).find_map(|depth| {
        let key_vars = || {
            slots[depth..]
                .iter()
                .flat_map(slot_vars)
                .filter(|&v| first(v) < depth)
        };
        // The conjuncts that run with the key fixed: those after the
        // last one binding a key variable. One of them must bind a
        // variable, or `depth` is reached once per key value anyway.
        let fixed_from = key_vars().map(|v| first(v) + 1).max().unwrap_or(0);
        if !(fixed_from..depth).any(|d| slot_vars(&slots[d]).any(|v| first(v) == d)) {
            return None;
        }
        let mut key: Vec<usize> = key_vars().collect();
        key.sort_unstable();
        key.dedup();
        // The projected variables the prefix binds, or the suffix; the
        // key's are fixed under the cache and belong to neither.
        let projected = |above: bool| {
            let mut vars: Vec<usize> = proj
                .iter()
                .copied()
                .filter(|&v| (first(v) < depth) == above && !key.contains(&v))
                .collect();
            vars.sort_unstable();
            vars.dedup();
            vars
        };
        let (inp, out) = (projected(true), projected(false));
        Some(SuffixMemo {
            depth,
            key,
            inp,
            out,
        })
    })
}

/// The `inp` values of the arrivals a [`SuffixCache`] has replayed
/// under its current key, each packed into one word like the rows
/// [`sort_dedup_rows`] compares. Cleared, not freed, when the key
/// changes, so an arrival allocates nothing once the set has grown to
/// the largest key's. `None` when `inp` is wider than a word holds;
/// every arrival is then replayed.
type Replayed = Option<HashSet<u128>>;

/// One key's sub-answer of a plan's independent suffix: a size-1 cache,
/// as large as that one sub-answer and no larger. Its buffers outlive a
/// key: a new key clears and refills them, so an evaluation allocates
/// for its largest sub-answer, not once per key.
struct SuffixCache<'a> {
    plan: &'a SuffixMemo,
    /// The `plan.key` values `rows` answers; meaningless before the
    /// first arrival (`fresh`).
    key: Vec<TermId>,
    fresh: bool,
    /// The suffix's answer under `key`, projected onto `plan.out`.
    rows: IdRows,
    /// Where the next key's answer is gathered: `rows`' buffer of the
    /// key before last.
    sink: RowSink,
    /// The `plan.inp` values already replayed under `key`.
    replayed: Replayed,
}

impl<'a> SuffixCache<'a> {
    fn new(plan: &'a SuffixMemo) -> Self {
        SuffixCache {
            plan,
            key: Vec::new(),
            fresh: true,
            rows: RowSink::new(plan.out.len()).finish(),
            sink: RowSink::new(plan.out.len()),
            replayed: (plan.inp.len() <= 4).then(HashSet::new),
        }
    }
}

/// The backtracking matcher over compiled conjuncts: what one
/// evaluation reads besides its binding.
struct Matcher<'a> {
    graph: &'a Graph,
    slots: &'a [[Slot; 3]],
    /// The variables a blank node may not bind — the projected ones
    /// under [`Semantics::Certain`], a handful, so a scan beats a table.
    /// Refusing the binding prunes the subtree whose every leaf the
    /// projection would drop. Empty when no variable is restricted.
    named: &'a [usize],
    /// The plan's independent suffix and its cached sub-answer, when the
    /// evaluation projects (`None` runs the plain loop at every depth).
    memo: Option<SuffixCache<'a>>,
}

impl<'a> Matcher<'a> {
    /// A matcher that binds any term to any variable and evaluates
    /// every conjunct under every binding above it.
    fn plain(graph: &'a Graph, slots: &'a [[Slot; 3]]) -> Self {
        Matcher {
            graph,
            slots,
            named: &[],
            memo: None,
        }
    }

    /// Matches `slots[depth..]` under `binding`. The `emit` callback
    /// receives the binding at each solution and returns `false` to stop
    /// the search; the overall return is `false` iff the search was
    /// stopped. Candidates stream directly off the permutation-index
    /// range scans — no per-level candidate materialisation.
    fn search(
        &mut self,
        depth: usize,
        binding: &mut Vec<Option<TermId>>,
        emit: &mut dyn FnMut(&[Option<TermId>]) -> bool,
    ) -> bool {
        if depth == self.slots.len() {
            // All conjuncts matched; every variable that occurs is bound.
            return emit(binding);
        }
        if let Some(mut cache) = self.memo.take_if(|c| c.plan.depth == depth) {
            // With the cache taken, the suffix itself runs the plain loop.
            let keep_going = self.replay_suffix(&mut cache, binding, emit);
            self.memo = Some(cache);
            return keep_going;
        }
        let slot = self.slots[depth];
        let resolve = |s: &Slot| match s {
            Slot::Const(id) => Some(*id),
            Slot::Var(v) => binding[*v],
        };
        let (qs, qp, qo) = (resolve(&slot[0]), resolve(&slot[1]), resolve(&slot[2]));
        let graph = self.graph;
        for t in graph.match_ids(qs, qp, qo) {
            if !self.match_one(depth + 1, &slot, t, binding, emit) {
                return false;
            }
        }
        true
    }

    /// Binds one candidate triple against `slot`, recurses into
    /// `slots[next_depth..]` on success, and undoes the bindings.
    /// Returns `false` iff the search was stopped.
    fn match_one(
        &mut self,
        next_depth: usize,
        slot: &[Slot; 3],
        t: IdTriple,
        binding: &mut Vec<Option<TermId>>,
        emit: &mut dyn FnMut(&[Option<TermId>]) -> bool,
    ) -> bool {
        let vals = [t.s, t.p, t.o];
        let mut newly_bound: [Option<usize>; 3] = [None; 3];
        let fits = (0..3).all(|i| match slot[i] {
            Slot::Const(c) => c == vals[i],
            Slot::Var(v) => match binding[v] {
                Some(existing) => existing == vals[i],
                None if self.named.contains(&v) && !self.graph.dict().is_name(vals[i]) => false,
                None => {
                    binding[v] = Some(vals[i]);
                    newly_bound[i] = Some(v);
                    true
                }
            },
        });
        let keep_going = !fits || self.search(next_depth, binding, emit);
        for nb in newly_bound.into_iter().flatten() {
            binding[nb] = None;
        }
        keep_going
    }

    /// [`Self::search`] at the depth of the plan's independent suffix:
    /// evaluates the suffix only if `binding` holds another key than the
    /// one `cache` answers, then emits once per stored row. What is
    /// stored is the suffix's answer projected onto `plan.out`, sorted
    /// and duplicate-free; a suffix that binds no projected variable
    /// stores one bit (the arity-0 row or none) and stops at its first
    /// witness.
    ///
    /// An arrival whose `plan.inp` values an earlier arrival under the
    /// same key already replayed emits nothing. That is exact for the
    /// set of rows emitted: an emit reads only the projected variables,
    /// which are `key`, `inp` and `out`; `key` and `inp` are the earlier
    /// arrival's, and the `out` values come from `cache.rows`, which
    /// depends on the key alone — so the arrival would emit the very
    /// rows the earlier one did, into a sink that keeps a set. What it
    /// skips are the prefix's existential bindings: a film's cast member
    /// reached through several cast nodes is replayed once.
    fn replay_suffix(
        &mut self,
        cache: &mut SuffixCache<'_>,
        binding: &mut Vec<Option<TermId>>,
        emit: &mut dyn FnMut(&[Option<TermId>]) -> bool,
    ) -> bool {
        let SuffixMemo {
            depth,
            key,
            inp,
            out,
        } = cache.plan;
        let same_key = !cache.fresh
            && (key.iter())
                .zip(&cache.key)
                .all(|(&v, &id)| binding[v] == Some(id));
        if !same_key {
            cache.fresh = false;
            cache.key.clear();
            cache.key.extend(key.iter().map(|&v| bound(binding, v)));
            let sink = &mut cache.sink;
            self.search(*depth, binding, &mut |b| {
                sink.push(out.iter().map(|&v| bound(b, v)));
                !out.is_empty()
            });
            sink.finish_into(&mut cache.rows);
            if let Some(replayed) = &mut cache.replayed {
                replayed.clear();
            }
        }
        if cache.rows.is_empty() {
            return true;
        }
        if let Some(replayed) = &mut cache.replayed {
            let word = inp
                .iter()
                .fold(0u128, |acc, &v| acc << 32 | u128::from(bound(binding, v).0));
            if !replayed.insert(word) {
                return true;
            }
        }
        let keep_going = cache.rows.iter().all(|row| {
            for (&v, &id) in out.iter().zip(row) {
                binding[v] = Some(id);
            }
            emit(binding)
        });
        for &v in out {
            binding[v] = None;
        }
        keep_going
    }
}

/// Evaluates a graph pattern query, returning its answer tuples under the
/// requested semantics (`Q_D` or `Q*_D`), sorted and deduplicated.
pub fn evaluate_query(
    graph: &Graph,
    query: &GraphPatternQuery,
    semantics: Semantics,
) -> BTreeSet<Vec<rps_rdf::Term>> {
    let mappings = evaluate_pattern(graph, query.pattern());
    let mut out = BTreeSet::new();
    for m in mappings {
        if let Some(tuple) = m.project(query.free_vars()) {
            if semantics == Semantics::Certain && tuple.iter().any(|t| t.is_blank()) {
                continue;
            }
            out.insert(tuple);
        }
    }
    out
}

/// Evaluates a Boolean (arity-0) query: `true` iff the body matches.
pub fn evaluate_boolean(graph: &Graph, query: &GraphPatternQuery) -> bool {
    // A single witness suffices; reuse evaluate_pattern but stop early by
    // checking non-emptiness of the mapping set. (The search enumerates all
    // matches; for the workloads in this repository bodies are small, and
    // the early-exit variant is provided by `has_match`.)
    has_match(graph, query.pattern())
}

/// `true` iff the pattern has at least one solution mapping (early exit).
pub fn has_match(graph: &Graph, gp: &GraphPattern) -> bool {
    has_match_with(graph, gp, &|_| None)
}

/// A graph pattern compiled once against a graph's dictionary for
/// repeated matching (e.g. the per-trigger satisfaction checks of the
/// chase). Construction interns the pattern's constants, so the plan
/// stays valid as the graph grows — a constant with no triples simply
/// matches nothing until triples arrive.
pub struct PreparedPattern {
    compiled: Compiled,
}

impl PreparedPattern {
    /// Compiles `gp` against `graph`, interning its constants.
    pub fn new(graph: &mut Graph, gp: &GraphPattern) -> Self {
        for pat in gp.patterns() {
            for tv in [&pat.s, &pat.p, &pat.o] {
                if let TermOrVar::Term(t) = tv {
                    graph.intern(t);
                }
            }
        }
        PreparedPattern {
            compiled: compile(graph, gp, false),
        }
    }

    /// `true` iff the pattern has a solution extending the id-level
    /// binding `bind` (early exit). `graph` must be the graph (or a
    /// descendant sharing its dictionary ids) the pattern was prepared
    /// against.
    pub fn has_match_with(
        &self,
        graph: &Graph,
        bind: &dyn Fn(&Variable) -> Option<TermId>,
    ) -> bool {
        debug_assert!(self.compiled.satisfiable, "constants were interned");
        let mut binding: Vec<Option<TermId>> = vec![None; self.compiled.vars.len()];
        for (i, v) in self.compiled.vars.iter().enumerate() {
            if let Some(id) = bind(v) {
                binding[i] = Some(id);
            }
        }
        let mut found = false;
        Matcher::plain(graph, &self.compiled.slots).search(0, &mut binding, &mut |_| {
            found = true;
            false
        });
        found
    }

    /// The triples supporting the *first* solution extending the
    /// id-level binding `bind` (early exit), one per conjunct in
    /// planner order, or `None` when no solution exists. This is the
    /// witness-extraction form of [`Self::has_match_with`]: the chase
    /// records these triples as the premise provenance of a firing, so
    /// delete-and-rederive knows which conclusions a removal can
    /// invalidate.
    pub fn first_match_with(
        &self,
        graph: &Graph,
        bind: &dyn Fn(&Variable) -> Option<TermId>,
    ) -> Option<Vec<IdTriple>> {
        if !self.compiled.satisfiable {
            return None;
        }
        let mut binding: Vec<Option<TermId>> = vec![None; self.compiled.vars.len()];
        for (i, v) in self.compiled.vars.iter().enumerate() {
            if let Some(id) = bind(v) {
                binding[i] = Some(id);
            }
        }
        let slots = &self.compiled.slots;
        let mut witness: Option<Vec<IdTriple>> = None;
        Matcher::plain(graph, slots).search(0, &mut binding, &mut |b| {
            let resolve = |s: &Slot| match s {
                Slot::Const(id) => *id,
                Slot::Var(v) => bound(b, *v),
            };
            witness = Some(
                slots
                    .iter()
                    .map(|sl| IdTriple::new(resolve(&sl[0]), resolve(&sl[1]), resolve(&sl[2])))
                    .collect(),
            );
            false
        });
        witness
    }
}

/// `true` iff the pattern has a solution mapping extending the partial
/// id-level binding `bind` (early exit). This is the hot-path form of
/// "substitute the tuple into the pattern, then test for a match": no
/// pattern copy and no term re-interning — variables are pre-bound to
/// term ids of this graph's dictionary.
pub fn has_match_with(
    graph: &Graph,
    gp: &GraphPattern,
    bind: &dyn Fn(&Variable) -> Option<TermId>,
) -> bool {
    let compiled = compile(graph, gp, false);
    if !compiled.satisfiable {
        return false;
    }
    let mut binding: Vec<Option<TermId>> = vec![None; compiled.vars.len()];
    for (i, v) in compiled.vars.iter().enumerate() {
        if let Some(id) = bind(v) {
            binding[i] = Some(id);
        }
    }
    let mut found = false;
    Matcher::plain(graph, &compiled.slots).search(0, &mut binding, &mut |_| {
        found = true;
        false
    });
    found
}

/// A graph pattern *query* compiled once against a graph's dictionary to
/// an id-level plan: planner-ordered conjunct slots plus the projection
/// of the query's free variables into the dense variable table. Where
/// [`PreparedPattern`] answers repeated *match* probes, a
/// `PreparedQueryIds` answers repeated *evaluations* — full or delta —
/// without re-compiling, re-ordering or re-resolving constants per call.
///
/// ```
/// use rps_query::{GraphPattern, GraphPatternQuery, PreparedQueryIds,
///                 Semantics, TermOrVar, Variable};
/// use rps_rdf::{Graph, Term};
///
/// let mut g = Graph::new();
/// let q = GraphPatternQuery::new(
///     vec![Variable::new("who")],
///     GraphPattern::triple(
///         TermOrVar::var("who"),
///         TermOrVar::iri("http://e/knows"),
///         TermOrVar::iri("http://e/alice"),
///     ),
/// );
/// // Compile once (interning constants so the plan survives growth)...
/// let plan = PreparedQueryIds::new(&mut g, &q);
/// let mark = g.log_len();
/// g.insert_terms(
///     Term::iri("http://e/bob"), Term::iri("http://e/knows"),
///     Term::iri("http://e/alice"),
/// ).unwrap();
/// // ...then evaluate repeatedly: full, or restricted to the delta
/// // window since a mark.
/// assert_eq!(plan.evaluate(&g, Semantics::Certain).len(), 1);
/// assert_eq!(plan.evaluate_delta(&g, Semantics::Certain, mark).len(), 1);
/// assert!(plan.evaluate_delta(&g, Semantics::Certain, g.log_len()).is_empty());
/// ```
///
/// Two plans are equal when they are field by field: the same planned
/// conjuncts, order, satisfiability and projection.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PreparedQueryIds {
    compiled: Compiled,
    /// Free-variable projection into compiled variable indexes; `None`
    /// when some free variable does not occur in the pattern (the answer
    /// set is then empty).
    proj: Option<Vec<usize>>,
    /// The plan's independent suffix under `proj`, if it has one.
    memo: Option<SuffixMemo>,
}

impl PreparedQueryIds {
    /// Compiles `query` against `graph`, interning the pattern's
    /// constants so the plan stays valid as the graph grows (a constant
    /// with no triples simply matches nothing until triples arrive).
    pub fn new(graph: &mut Graph, query: &GraphPatternQuery) -> Self {
        for pat in query.pattern().patterns() {
            for tv in [&pat.s, &pat.p, &pat.o] {
                if let TermOrVar::Term(t) = tv {
                    graph.intern(t);
                }
            }
        }
        Self::compile_only(graph, query)
    }

    /// Compiles `query` against a graph *without* interning its
    /// constants: a constant missing from the dictionary makes the plan
    /// unsatisfiable. Correct for frozen graphs (e.g. a materialised
    /// universal solution) — a graph that later gains triples could make
    /// the missing constant appear, which this plan would not notice.
    ///
    /// The planner is cost-based when the graph is sealed (it then
    /// carries a [`GraphStats`] snapshot) and falls back to the shape
    /// heuristic otherwise.
    pub fn compile_only(graph: &Graph, query: &GraphPatternQuery) -> Self {
        Self::compile_ordered(graph, query, false)
    }

    /// [`Self::compile_only`] ordered by the shape heuristic alone, even
    /// on a sealed graph: the oracle the cost-based planner is
    /// differentially tested against. Answers are byte-identical; only
    /// the conjunct order and scan permutations may differ.
    #[doc(hidden)]
    pub fn compile_heuristic(graph: &Graph, query: &GraphPatternQuery) -> Self {
        Self::compile_ordered(graph, query, true)
    }

    fn compile_ordered(graph: &Graph, query: &GraphPatternQuery, heuristic: bool) -> Self {
        let compiled = compile(graph, query.pattern(), heuristic);
        let proj = projection(&compiled, query);
        Self::from_parts(compiled, proj)
    }

    /// Derives what depends on both the planned conjuncts and the
    /// projection.
    fn from_parts(compiled: Compiled, proj: Option<Vec<usize>>) -> Self {
        let memo = proj
            .as_deref()
            .filter(|_| compiled.satisfiable)
            .and_then(|proj| independent_suffix(&compiled.slots, proj));
        PreparedQueryIds {
            compiled,
            proj,
            memo,
        }
    }

    /// The planner's conjunct order: element `i` is the position in the
    /// source pattern of the conjunct executed `i`-th. The ordering
    /// unit tests pin planner decisions through this.
    pub fn planned_order(&self) -> &[usize] {
        &self.compiled.source
    }

    /// The scan permutation each planned conjunct probes, in execution
    /// order — derived from which positions are constant or bound by
    /// earlier conjuncts, mirroring [`Graph::match_ids`]'s choice.
    pub fn planned_scans(&self) -> Vec<ScanPerm> {
        let mut bound: BTreeSet<usize> = BTreeSet::new();
        let mut out = Vec::with_capacity(self.compiled.slots.len());
        for slot in &self.compiled.slots {
            let known = |s: &Slot| match s {
                Slot::Const(_) => true,
                Slot::Var(v) => bound.contains(v),
            };
            let (s, p, o) = (known(&slot[0]), known(&slot[1]), known(&slot[2]));
            out.push(match (s, p, o) {
                (true, true, true) => ScanPerm::Probe,
                (true, true, false) | (true, false, false) => ScanPerm::Spo,
                (true, false, true) => ScanPerm::Osp,
                (false, true, _) => ScanPerm::Pos,
                (false, false, true) => ScanPerm::Osp,
                (false, false, false) => ScanPerm::Spo,
            });
            for sl in slot {
                if let Slot::Var(v) = sl {
                    bound.insert(*v);
                }
            }
        }
        out
    }

    /// The plan's independent suffix, or `None` when it has none: the
    /// planner position of the suffix's first conjunct and the variables
    /// it shares with the conjuncts above it (none on an id-level plan,
    /// whose variables have no names). [`Self::evaluate_rows`]
    /// evaluates `planned_order()[depth..]` once per value of those
    /// variables and replays the stored sub-answer for every binding of
    /// the conjuncts above that leaves them unchanged — a hub self-join
    /// re-joins its second arm once per hub, not once per member of the
    /// first. Chains and two-atom plans have no such suffix.
    pub fn planned_memo(&self) -> Option<(usize, Vec<&Variable>)> {
        let memo = self.memo.as_ref()?;
        let key = (memo.key.iter())
            .filter_map(|&v| self.compiled.vars.get(v))
            .collect();
        Some((memo.depth, key))
    }

    /// A matcher over `slots` that refuses blank nodes for the
    /// projected variables under [`Semantics::Certain`].
    fn matcher<'a>(
        &'a self,
        graph: &'a Graph,
        slots: &'a [[Slot; 3]],
        semantics: Semantics,
    ) -> Matcher<'a> {
        Matcher {
            named: match semantics {
                Semantics::Certain => self.proj.as_deref().unwrap_or_default(),
                Semantics::Star => &[],
            },
            ..Matcher::plain(graph, slots)
        }
    }

    /// The projection to run, or `None` when the plan is trivially
    /// empty: an unsatisfiable constant, or a free variable the
    /// pattern cannot bind.
    fn runnable(&self) -> Option<&[usize]> {
        self.proj.as_deref().filter(|_| self.compiled.satisfiable)
    }

    /// Evaluates the plan into [`IdRows`]: the answer tuples as term
    /// ids in one flat, sorted, duplicate-free buffer — no per-row
    /// allocation. Under [`Semantics::Certain`], tuples containing
    /// blank nodes are dropped. `graph` must be the graph the plan was
    /// compiled against (or a descendant sharing its dictionary ids).
    pub fn evaluate_rows(&self, graph: &Graph, semantics: Semantics) -> IdRows {
        let mut out = RowSink::new(self.arity());
        if let Some(proj) = self.runnable() {
            let mut binding: Vec<Option<TermId>> = vec![None; self.compiled.nvars];
            let mut matcher = self.matcher(graph, &self.compiled.slots, semantics);
            matcher.memo = self.memo.as_ref().map(SuffixCache::new);
            matcher.search(0, &mut binding, &mut |b| {
                out.push(proj.iter().map(|&v| bound(b, v)));
                true
            });
        }
        out.finish()
    }

    /// [`Self::evaluate_rows`] as an ordered set of owned tuples, for
    /// callers that index or merge the answers as a set.
    pub fn evaluate(&self, graph: &Graph, semantics: Semantics) -> BTreeSet<Vec<TermId>> {
        self.evaluate_rows(graph, semantics).to_set()
    }

    /// The number of positions of an answer tuple.
    fn arity(&self) -> usize {
        self.proj.as_ref().map_or(0, Vec::len)
    }

    /// Delta evaluation: the answer tuples with at least one witness
    /// using a triple inserted at log index `log_from` or later (see
    /// [`Graph::log_since`]). Together with the monotonicity of
    /// conjunctive queries this is the semi-naive decomposition:
    /// evaluating from `log_from = 0` equals [`Self::evaluate_rows`],
    /// and a consumer that saw all tuples before `log_from` misses
    /// nothing by evaluating only the delta. An empty pattern has no
    /// delta (its sole empty witness uses no triples).
    pub fn evaluate_delta(&self, graph: &Graph, semantics: Semantics, log_from: usize) -> IdRows {
        let mut out = RowSink::new(self.arity());
        let (Some(proj), false) = (self.runnable(), graph.log_since(log_from).is_empty()) else {
            return out.finish();
        };
        // One pass per pivot conjunct: the pivot ranges over the delta
        // triples, the remaining conjuncts over the whole graph (ordered
        // with the pivot's variables pre-bound). Tuples found via several
        // pivots collapse in the output set.
        for pivot in 0..self.compiled.slots.len() {
            let slot = self.compiled.slots[pivot];
            let mut rest: Vec<[Slot; 3]> = self
                .compiled
                .slots
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != pivot)
                .map(|(_, s)| *s)
                .collect();
            let pivot_vars: Vec<usize> = slot_vars(&slot).collect();
            order_slots(graph, &mut rest, &pivot_vars, self.compiled.heuristic);
            let mut binding: Vec<Option<TermId>> = vec![None; self.compiled.nvars];
            let mut matcher = self.matcher(graph, &rest, semantics);
            for t in graph.log_since(log_from) {
                matcher.match_one(0, &slot, t, &mut binding, &mut |b| {
                    out.push(proj.iter().map(|&v| bound(b, v)));
                    true
                });
            }
        }
        out.finish()
    }
}

/// One position of an id-level conjunct handed to
/// [`PreparedQueryIds::from_id_slots`]: a constant already resolved to a
/// term id of the target graph, or a dense variable index.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PlanSlot {
    /// A constant, already resolved against the target graph's
    /// dictionary.
    Const(TermId),
    /// A variable, identified by its dense index (must be `< nvars`).
    Var(usize),
}

impl PreparedQueryIds {
    /// Builds a plan from pre-resolved id-level conjuncts — the seam the
    /// UCQ rewriting pipeline hands its numbered-variable CQ branches
    /// through, with no [`Term`](rps_rdf::Term) decode / re-intern
    /// round-trip on the way.
    ///
    /// `nvars` is the dense variable count (every [`PlanSlot::Var`]
    /// index must be below it); `proj` maps answer positions to variable
    /// indexes, or is `None` when some answer variable cannot be bound
    /// by the body (the answer set is then empty); `satisfiable: false`
    /// short-circuits evaluation for branches whose constants the caller
    /// already knows are absent from the graph's dictionary. Conjuncts
    /// are planner-ordered against the graph's current statistics,
    /// exactly as Term-level compilation would order them.
    pub fn from_id_slots(
        graph: &Graph,
        conjuncts: &[[PlanSlot; 3]],
        nvars: usize,
        proj: Option<Vec<usize>>,
        satisfiable: bool,
    ) -> Self {
        let mut slots: Vec<[Slot; 3]> = conjuncts
            .iter()
            .map(|c| {
                c.map(|s| match s {
                    PlanSlot::Const(id) => Slot::Const(id),
                    PlanSlot::Var(v) => {
                        debug_assert!(v < nvars, "variable index out of range");
                        Slot::Var(v)
                    }
                })
            })
            .collect();
        let source = if satisfiable {
            order_slots(graph, &mut slots, &[], false)
        } else {
            (0..slots.len()).collect()
        };
        debug_assert!(proj.iter().flatten().all(|&i| i < nvars));
        let compiled = Compiled {
            slots,
            vars: Vec::new(),
            nvars,
            satisfiable,
            heuristic: false,
            source,
        };
        Self::from_parts(compiled, proj)
    }
}

/// The scan permutation a planned conjunct probes (see
/// [`PreparedQueryIds::planned_scans`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScanPerm {
    /// Subject-anchored range scan of the SPO index.
    Spo,
    /// Predicate-anchored range scan of the POS index.
    Pos,
    /// Object-anchored range scan of the OSP index.
    Osp,
    /// All three positions known at scan time: a single membership
    /// probe, no range scan at all.
    Probe,
}

/// Maps the query's free variables to compiled variable indexes; `None`
/// if some free variable does not occur in the pattern (no tuple can bind
/// it, so the answer set is empty).
fn projection(compiled: &Compiled, query: &GraphPatternQuery) -> Option<Vec<usize>> {
    query
        .free_vars()
        .iter()
        .map(|v| compiled.vars.iter().position(|x| x == v))
        .collect()
}

/// The answer tuples of one evaluation as term ids in one flat
/// row-major buffer: `len` rows of `arity` ids each, sorted ascending
/// (row-lexicographic by id) and duplicate-free — the iteration order
/// of the `BTreeSet<Vec<TermId>>` it stands in for, without a heap
/// allocation per row. Ids are only meaningful against the dictionary
/// of the graph that was evaluated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IdRows {
    arity: usize,
    len: usize,
    ids: Vec<TermId>,
}

impl IdRows {
    /// Positions per row.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of rows. An arity-0 result has one (empty) row when the
    /// pattern matched and none otherwise.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    pub fn row(&self, i: usize) -> &[TermId] {
        assert!(i < self.len, "row {i} of {}", self.len);
        &self.ids[i * self.arity..(i + 1) * self.arity]
    }

    /// Every row's ids, row after row.
    pub(crate) fn cells(&self) -> &[TermId] {
        &self.ids
    }

    /// The rows in ascending order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[TermId]> + '_ {
        (0..self.len).map(|i| self.row(i))
    }

    /// The rows as an ordered set of owned tuples.
    pub fn to_set(&self) -> BTreeSet<Vec<TermId>> {
        self.iter().map(<[TermId]>::to_vec).collect()
    }
}

/// Rows a [`RowSink`] holds before it first compacts.
const COMPACT_MIN_ROWS: usize = 4096;

/// Rows a [`RowSink`] makes room for at its first push: an answer of up
/// to this many rows is one allocation, not one per doubling.
const FIRST_ROWS: usize = 256;

/// The emit side of [`IdRows`]: rows are appended unsorted beside the
/// sorted, duplicate-free rows of every earlier compaction. When as
/// many have been appended as are already sorted, they are sorted and
/// deduplicated among themselves and merged in, in one linear pass — so
/// a projection that maps many solutions onto few distinct tuples stays
/// bounded by twice its answer, and no row is sorted twice. Once more
/// at [`RowSink::finish`].
pub struct RowSink {
    /// Every row pushed before the last compaction.
    rows: IdRows,
    /// The `fresh_len` rows pushed since, in push order.
    fresh: Vec<TermId>,
    fresh_len: usize,
}

impl RowSink {
    /// An empty sink for rows of `arity` ids.
    pub fn new(arity: usize) -> Self {
        RowSink {
            rows: IdRows {
                arity,
                len: 0,
                ids: Vec::new(),
            },
            fresh: Vec::new(),
            fresh_len: 0,
        }
    }

    /// Appends one row, which must yield exactly `arity` ids.
    pub fn push(&mut self, row: impl Iterator<Item = TermId>) {
        if self.fresh.capacity() == 0 {
            self.fresh.reserve_exact(self.rows.arity * FIRST_ROWS);
        }
        self.fresh.extend(row);
        self.fresh_len += 1;
        debug_assert_eq!(self.fresh.len(), self.fresh_len * self.rows.arity);
        if self.fresh_len >= self.rows.len.max(COMPACT_MIN_ROWS) {
            self.compact();
        }
    }

    fn compact(&mut self) {
        let width = self.rows.arity;
        let fresh_len = sort_dedup_rows(&mut self.fresh, width, self.fresh_len);
        self.fresh_len = 0;
        if self.rows.len == 0 || width == 0 {
            // Nothing to merge with (every arity-0 row is the same row).
            std::mem::swap(&mut self.rows.ids, &mut self.fresh);
            self.rows.len = self.rows.len.max(fresh_len);
            self.fresh.clear();
            return;
        }
        let mut merged = Vec::with_capacity(self.rows.ids.len() + self.fresh.len());
        let mut old = self.rows.ids.chunks_exact(width).peekable();
        let mut new = self.fresh.chunks_exact(width).peekable();
        while let (Some(a), Some(b)) = (old.peek(), new.peek()) {
            match a.cmp(b) {
                Ordering::Less => {
                    merged.extend_from_slice(a);
                    old.next();
                }
                Ordering::Greater => {
                    merged.extend_from_slice(b);
                    new.next();
                }
                // The sorted rows' own copy follows.
                Ordering::Equal => {
                    new.next();
                }
            }
        }
        old.chain(new).for_each(|row| merged.extend_from_slice(row));
        self.rows.len = merged.len() / width;
        self.rows.ids = merged;
        self.fresh.clear();
    }

    /// The sorted, duplicate-free rows.
    pub fn finish(mut self) -> IdRows {
        self.compact();
        self.rows
    }

    /// [`Self::finish`] into `rows`, whose buffer the sink keeps for its
    /// next rows: a sink that is filled and finished again and again
    /// reuses two buffers instead of allocating per round.
    fn finish_into(&mut self, rows: &mut IdRows) {
        self.compact();
        std::mem::swap(&mut self.rows, rows);
        self.rows.len = 0;
        self.rows.ids.clear();
    }
}

/// A cell of the rows [`sort_dedup_rows`] sorts: one 32-bit word, whose
/// order is the cell's.
pub(crate) trait Word: Copy + Ord {
    fn word(self) -> u32;
}

impl Word for u32 {
    fn word(self) -> u32 {
        self
    }
}

impl Word for TermId {
    fn word(self) -> u32 {
        self.0
    }
}

/// An unsigned integer a row of up to `BITS / 32` words packs into, first
/// word highest, so the integers order as the rows do.
trait Packed: Copy + Ord + From<u32> + std::ops::Shl<u32, Output = Self> {
    fn or(self, word: u32) -> Self;
}

macro_rules! packed {
    ($($t:ty),*) => {$(
        impl Packed for $t {
            fn or(self, word: u32) -> Self {
                self | <$t>::from(word)
            }
        }
    )*};
}
packed!(u64, u128);

/// Sorts the `len` rows of `width` cells each held row-major in
/// `cells` ascending (row-lexicographic), drops duplicate rows and
/// returns how many remain. Width 0 keeps at most the one empty row.
/// Rows of up to four cells compare as machine words — a cell, a `u64`,
/// a `u128` — which is what the tail's and the row sink's rows are.
/// Rows of up to four cells and of six sort in place, allocating
/// nothing; other widths sort through a permutation.
pub(crate) fn sort_dedup_rows<T: Word>(cells: &mut Vec<T>, width: usize, len: usize) -> usize {
    debug_assert_eq!(cells.len(), len * width);
    if width == 0 || len <= 1 {
        return len.min(1);
    }
    match width {
        1 => {
            cells.sort_unstable();
            cells.dedup();
            cells.len()
        }
        2 => sort_dedup_packed::<T, u64, 2>(cells),
        3 => sort_dedup_packed::<T, u128, 3>(cells),
        4 => sort_dedup_packed::<T, u128, 4>(cells),
        // The tail's three-column rows with their ids.
        6 => {
            let (rows, _) = cells.as_chunks_mut::<6>();
            rows.sort_unstable();
            dedup_sorted::<T, 6>(cells)
        }
        _ => {
            // Wider rows sort through a permutation and are gathered.
            let row = |i: u32| &cells[i as usize * width..(i as usize + 1) * width];
            let mut order: Vec<u32> =
                (0..u32::try_from(len).expect("row count fits u32")).collect();
            order.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
            order.dedup_by(|b, a| row(*a) == row(*b));
            let sorted: Vec<T> = order.iter().flat_map(|&i| row(i)).copied().collect();
            *cells = sorted;
            order.len()
        }
    }
}

/// [`sort_dedup_rows`] for rows of `N` cells that fit a `W`: the rows
/// sort in place, each compared as the one integer its cells pack into.
fn sort_dedup_packed<T: Word, W: Packed, const N: usize>(cells: &mut Vec<T>) -> usize {
    let (rows, _) = cells.as_chunks_mut::<N>();
    rows.sort_unstable_by_key(|row| {
        row.iter()
            .fold(W::from(0), |acc, c| (acc << 32).or(c.word()))
    });
    dedup_sorted::<T, N>(cells)
}

/// Drops the repeats of sorted rows of `N` cells, keeping the first of
/// each, and returns how many rows are left.
fn dedup_sorted<T: Copy + Eq, const N: usize>(cells: &mut Vec<T>) -> usize {
    let (rows, _) = cells.as_chunks_mut::<N>();
    let mut kept = 0;
    for i in 0..rows.len() {
        if kept == 0 || rows[i] != rows[kept - 1] {
            rows[kept] = rows[i];
            kept += 1;
        }
    }
    cells.truncate(kept * N);
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use rps_rdf::Term;

    fn graph() -> Graph {
        let src = r#"
@prefix e: <http://e/> .
e:film1 e:starring _:c1 .
_:c1 e:artist e:actor1 .
e:film1 e:starring _:c2 .
_:c2 e:artist e:actor2 .
e:actor1 e:age "39" .
e:actor2 e:age "32" .
e:film2 e:starring _:c3 .
_:c3 e:artist e:actor1 .
"#;
        rps_rdf::turtle::parse(src).unwrap()
    }

    fn var(n: &str) -> Variable {
        Variable::new(n)
    }

    #[test]
    fn single_pattern_all_matches() {
        let g = graph();
        let gp = GraphPattern::triple(
            TermOrVar::var("f"),
            TermOrVar::iri("http://e/starring"),
            TermOrVar::var("c"),
        );
        assert_eq!(evaluate_pattern(&g, &gp).len(), 3);
    }

    #[test]
    fn join_two_patterns() {
        let g = graph();
        let gp = GraphPattern::triple(
            TermOrVar::iri("http://e/film1"),
            TermOrVar::iri("http://e/starring"),
            TermOrVar::var("z"),
        )
        .and(GraphPattern::triple(
            TermOrVar::var("z"),
            TermOrVar::iri("http://e/artist"),
            TermOrVar::var("x"),
        ));
        let sols = evaluate_pattern(&g, &gp);
        assert_eq!(sols.len(), 2);
        let actors: BTreeSet<_> = sols
            .iter()
            .map(|m| m.get(&var("x")).unwrap().clone())
            .collect();
        assert!(actors.contains(&Term::iri("http://e/actor1")));
        assert!(actors.contains(&Term::iri("http://e/actor2")));
    }

    #[test]
    fn three_way_join_paper_shape() {
        // The Example 1 query shape: starring / artist / age.
        let g = graph();
        let gp = GraphPattern::triple(
            TermOrVar::iri("http://e/film1"),
            TermOrVar::iri("http://e/starring"),
            TermOrVar::var("z"),
        )
        .and(GraphPattern::triple(
            TermOrVar::var("z"),
            TermOrVar::iri("http://e/artist"),
            TermOrVar::var("x"),
        ))
        .and(GraphPattern::triple(
            TermOrVar::var("x"),
            TermOrVar::iri("http://e/age"),
            TermOrVar::var("y"),
        ));
        let q = GraphPatternQuery::new(vec![var("x"), var("y")], gp);
        let ans = evaluate_query(&g, &q, Semantics::Certain);
        assert_eq!(ans.len(), 2);
        assert!(ans.contains(&vec![Term::iri("http://e/actor1"), Term::literal("39")]));
    }

    #[test]
    fn certain_semantics_drops_blank_tuples() {
        let g = graph();
        let gp = GraphPattern::triple(
            TermOrVar::var("f"),
            TermOrVar::iri("http://e/starring"),
            TermOrVar::var("c"),
        );
        let q = GraphPatternQuery::new(vec![var("c")], gp.clone());
        assert!(evaluate_query(&g, &q, Semantics::Certain).is_empty());
        assert_eq!(evaluate_query(&g, &q, Semantics::Star).len(), 3);
    }

    #[test]
    fn existential_projection() {
        let g = graph();
        // q(f) <- (f, starring, z): z existential, blanks allowed in body.
        let gp = GraphPattern::triple(
            TermOrVar::var("f"),
            TermOrVar::iri("http://e/starring"),
            TermOrVar::var("z"),
        );
        let q = GraphPatternQuery::new(vec![var("f")], gp);
        let ans = evaluate_query(&g, &q, Semantics::Certain);
        assert_eq!(ans.len(), 2); // film1, film2
    }

    #[test]
    fn unknown_constant_yields_empty() {
        let g = graph();
        let gp = GraphPattern::triple(
            TermOrVar::iri("http://e/NO-SUCH"),
            TermOrVar::var("p"),
            TermOrVar::var("o"),
        );
        assert!(evaluate_pattern(&g, &gp).is_empty());
        assert!(!has_match(&g, &gp));
    }

    #[test]
    fn repeated_variable_within_pattern() {
        let mut g = Graph::new();
        g.insert_terms(Term::iri("a"), Term::iri("p"), Term::iri("a"))
            .unwrap();
        g.insert_terms(Term::iri("a"), Term::iri("p"), Term::iri("b"))
            .unwrap();
        let gp = GraphPattern::triple(
            TermOrVar::var("x"),
            TermOrVar::iri("p"),
            TermOrVar::var("x"),
        );
        let sols = evaluate_pattern(&g, &gp);
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].get(&var("x")), Some(&Term::iri("a")));
    }

    #[test]
    fn empty_pattern_yields_single_empty_mapping() {
        let g = graph();
        let sols = evaluate_pattern(&g, &GraphPattern::new());
        assert_eq!(sols.len(), 1);
        assert!(sols[0].is_empty());
        assert!(has_match(&g, &GraphPattern::new()));
    }

    #[test]
    fn variable_predicate() {
        let g = graph();
        let gp = GraphPattern::triple(
            TermOrVar::iri("http://e/actor1"),
            TermOrVar::var("p"),
            TermOrVar::var("o"),
        );
        let sols = evaluate_pattern(&g, &gp);
        assert_eq!(sols.len(), 1); // age triple
    }

    #[test]
    fn boolean_query() {
        let g = graph();
        let yes = GraphPatternQuery::boolean(GraphPattern::triple(
            TermOrVar::var("x"),
            TermOrVar::iri("http://e/age"),
            TermOrVar::literal("39"),
        ));
        let no = GraphPatternQuery::boolean(GraphPattern::triple(
            TermOrVar::var("x"),
            TermOrVar::iri("http://e/age"),
            TermOrVar::literal("99"),
        ));
        assert!(evaluate_boolean(&g, &yes));
        assert!(!evaluate_boolean(&g, &no));
    }

    #[test]
    fn id_level_evaluation_matches_term_level() {
        let g = graph();
        let gp = GraphPattern::triple(
            TermOrVar::var("x"),
            TermOrVar::iri("http://e/age"),
            TermOrVar::var("y"),
        );
        let q = GraphPatternQuery::new(vec![var("x"), var("y")], gp);
        let terms = evaluate_query(&g, &q, Semantics::Certain);
        let ids = PreparedQueryIds::compile_only(&g, &q).evaluate(&g, Semantics::Certain);
        let decoded: BTreeSet<Vec<Term>> = ids
            .iter()
            .map(|t| t.iter().map(|&id| g.term(id).clone()).collect())
            .collect();
        assert_eq!(terms, decoded);
    }

    #[test]
    fn delta_evaluation_finds_exactly_new_tuples() {
        let mut g = graph();
        let gp = GraphPattern::triple(
            TermOrVar::var("x"),
            TermOrVar::iri("http://e/age"),
            TermOrVar::var("y"),
        );
        let q = GraphPatternQuery::new(vec![var("x"), var("y")], gp);
        let plan = PreparedQueryIds::new(&mut g, &q);
        assert_eq!(plan.evaluate_rows(&g, Semantics::Certain).len(), 2);
        let mark = g.log_len();
        // No new triples: empty delta.
        assert!(plan.evaluate_delta(&g, Semantics::Certain, mark).is_empty());
        g.insert_terms(
            Term::iri("http://e/actor3"),
            Term::iri("http://e/age"),
            Term::literal("55"),
        )
        .unwrap();
        let delta = plan.evaluate_delta(&g, Semantics::Certain, mark);
        assert_eq!(delta.len(), 1);
        // Delta-from-zero equals the full evaluation.
        assert_eq!(
            plan.evaluate_delta(&g, Semantics::Certain, 0),
            plan.evaluate_rows(&g, Semantics::Certain)
        );
    }

    #[test]
    fn delta_evaluation_requires_one_new_conjunct_witness() {
        // A two-conjunct join where the new triple completes an old one.
        let mut g = Graph::new();
        g.insert_terms(Term::iri("f"), Term::iri("starring"), Term::iri("c"))
            .unwrap();
        let mark = g.log_len();
        let gp = GraphPattern::triple(
            TermOrVar::var("f"),
            TermOrVar::iri("starring"),
            TermOrVar::var("z"),
        )
        .and(GraphPattern::triple(
            TermOrVar::var("z"),
            TermOrVar::iri("artist"),
            TermOrVar::var("x"),
        ));
        let q = GraphPatternQuery::new(vec![var("f"), var("x")], gp);
        let plan = PreparedQueryIds::new(&mut g, &q);
        assert!(plan.evaluate_delta(&g, Semantics::Certain, mark).is_empty());
        g.insert_terms(Term::iri("c"), Term::iri("artist"), Term::iri("a"))
            .unwrap();
        let delta = plan.evaluate_delta(&g, Semantics::Certain, mark);
        assert_eq!(delta.len(), 1);
    }

    #[test]
    fn prepared_query_survives_graph_growth() {
        let mut g = Graph::new();
        let gp = GraphPattern::triple(
            TermOrVar::var("x"),
            TermOrVar::iri("http://e/age"),
            TermOrVar::var("y"),
        );
        let q = GraphPatternQuery::new(vec![var("x"), var("y")], gp);
        // Interning constructor on an empty graph: the constant gets an
        // id up front, so the plan keeps working as triples arrive.
        let plan = PreparedQueryIds::new(&mut g, &q);
        assert!(plan.evaluate(&g, Semantics::Certain).is_empty());
        let mark = g.log_len();
        g.insert_terms(
            Term::iri("http://e/actor1"),
            Term::iri("http://e/age"),
            Term::literal("39"),
        )
        .unwrap();
        assert_eq!(plan.evaluate(&g, Semantics::Certain).len(), 1);
        assert_eq!(plan.evaluate_delta(&g, Semantics::Certain, mark).len(), 1);
        // Repeated execution agrees with a plan compiled afterwards.
        assert_eq!(
            plan.evaluate_rows(&g, Semantics::Certain),
            PreparedQueryIds::compile_only(&g, &q).evaluate_rows(&g, Semantics::Certain)
        );
    }

    #[test]
    fn prepared_query_missing_free_var_is_empty() {
        let g = graph();
        let gp = GraphPattern::triple(
            TermOrVar::var("x"),
            TermOrVar::iri("http://e/age"),
            TermOrVar::var("y"),
        );
        let q = GraphPatternQuery::new(vec![var("x"), var("unbound")], gp);
        let plan = PreparedQueryIds::compile_only(&g, &q);
        assert!(plan.evaluate(&g, Semantics::Star).is_empty());
    }

    #[test]
    fn from_id_slots_matches_term_level_compilation() {
        let g = graph();
        let age = g.term_id(&Term::iri("http://e/age")).unwrap();
        // q(x, y) <- (x, age, y) built straight from resolved ids.
        let plan = PreparedQueryIds::from_id_slots(
            &g,
            &[[PlanSlot::Var(0), PlanSlot::Const(age), PlanSlot::Var(1)]],
            2,
            Some(vec![0, 1]),
            true,
        );
        let gp = GraphPattern::triple(
            TermOrVar::var("x"),
            TermOrVar::iri("http://e/age"),
            TermOrVar::var("y"),
        );
        let q = GraphPatternQuery::new(vec![var("x"), var("y")], gp);
        assert_eq!(
            plan.evaluate_rows(&g, Semantics::Certain),
            PreparedQueryIds::compile_only(&g, &q).evaluate_rows(&g, Semantics::Certain)
        );
        // An unsatisfiable branch (constant absent from the dictionary)
        // evaluates to nothing.
        let dead = PreparedQueryIds::from_id_slots(
            &g,
            &[[PlanSlot::Var(0), PlanSlot::Const(age), PlanSlot::Var(1)]],
            2,
            Some(vec![0, 1]),
            false,
        );
        assert!(dead.evaluate(&g, Semantics::Star).is_empty());
        // A projection that no variable can bind yields nothing either.
        let unbound = PreparedQueryIds::from_id_slots(
            &g,
            &[[PlanSlot::Var(0), PlanSlot::Const(age), PlanSlot::Var(1)]],
            2,
            None,
            true,
        );
        assert!(unbound.evaluate(&g, Semantics::Star).is_empty());
    }

    #[test]
    fn has_match_with_pre_bound_ids() {
        let g = graph();
        let gp = GraphPattern::triple(
            TermOrVar::var("x"),
            TermOrVar::iri("http://e/age"),
            TermOrVar::var("y"),
        );
        let actor1 = g.term_id(&Term::iri("http://e/actor1")).unwrap();
        let film1 = g.term_id(&Term::iri("http://e/film1")).unwrap();
        assert!(has_match_with(&g, &gp, &|v| {
            (v.name() == "x").then_some(actor1)
        }));
        assert!(!has_match_with(&g, &gp, &|v| {
            (v.name() == "x").then_some(film1)
        }));
    }

    #[test]
    fn cartesian_product_of_disconnected_patterns() {
        let g = graph();
        let gp = GraphPattern::triple(
            TermOrVar::var("a"),
            TermOrVar::iri("http://e/age"),
            TermOrVar::var("v"),
        )
        .and(GraphPattern::triple(
            TermOrVar::var("f"),
            TermOrVar::iri("http://e/starring"),
            TermOrVar::var("c"),
        ));
        // 2 age triples x 3 starring triples.
        assert_eq!(evaluate_pattern(&g, &gp).len(), 6);
    }

    #[test]
    fn blank_constant_in_pattern_is_matchable() {
        // Algorithm 1 substitutes tuples that may contain blanks into query
        // bodies, so the evaluator must accept blank-node constants.
        let mut g = Graph::new();
        g.insert_terms(Term::blank("b"), Term::iri("p"), Term::iri("o"))
            .unwrap();
        let gp = GraphPattern::triple(
            TermOrVar::Term(Term::blank("b")),
            TermOrVar::iri("p"),
            TermOrVar::var("o"),
        );
        assert_eq!(evaluate_pattern(&g, &gp).len(), 1);
    }

    /// The flat emit buffer against what it replaced — every projected
    /// solution inserted into a `BTreeSet` — under a projection that
    /// maps 14 400 solutions onto three tuples, so the buffer compacts
    /// repeatedly and must stay bounded while it does.
    #[test]
    fn flat_emit_buffer_equals_the_set_under_a_narrow_projection() {
        let mut g = Graph::new();
        let iri = |s: String| Term::iri(s);
        for i in 0..120 {
            g.insert_terms(iri(format!("a{i}")), Term::iri("p"), Term::iri("hub"))
                .unwrap();
            g.insert_terms(Term::iri("hub"), Term::iri("q"), iri(format!("b{i}")))
                .unwrap();
            g.insert_terms(
                iri(format!("b{i}")),
                Term::iri("r"),
                iri(format!("t{}", i % 3)),
            )
            .unwrap();
        }
        let pattern = GraphPattern::triple(
            TermOrVar::var("a"),
            TermOrVar::iri("p"),
            TermOrVar::var("h"),
        )
        .and(GraphPattern::triple(
            TermOrVar::var("h"),
            TermOrVar::iri("q"),
            TermOrVar::var("b"),
        ))
        .and(GraphPattern::triple(
            TermOrVar::var("b"),
            TermOrVar::iri("r"),
            TermOrVar::var("t"),
        ));
        for head in [vec![var("t")], vec![var("t"), var("h")], vec![]] {
            let plan =
                PreparedQueryIds::compile_only(&g, &GraphPatternQuery::new(head, pattern.clone()));
            let proj = plan.proj.as_ref().unwrap();
            let mut set = BTreeSet::new();
            let mut solutions = 0;
            let mut binding = vec![None; plan.compiled.vars.len()];
            Matcher::plain(&g, &plan.compiled.slots).search(0, &mut binding, &mut |b| {
                set.insert(proj.iter().map(|&i| bound(b, i)).collect::<Vec<_>>());
                solutions += 1;
                true
            });
            assert_eq!(solutions, 120 * 120);
            let rows = plan.evaluate_rows(&g, Semantics::Certain);
            assert_eq!(rows.len(), set.len());
            assert_eq!(rows.to_set(), set);
        }
        let mut sink = RowSink::new(1);
        for i in 0..100_000u32 {
            sink.push(std::iter::once(TermId(i % 3)));
            assert!(sink.rows.len + sink.fresh_len < 2 * COMPACT_MIN_ROWS);
        }
        assert_eq!(sink.finish().to_set().len(), 3);
    }

    #[test]
    fn sort_dedup_rows_matches_a_set_at_every_width() {
        for width in 0..=6usize {
            let len = 500;
            let mut x = 0x9E37_79B9u32;
            let mut cells: Vec<u32> = (0..len * width)
                .map(|_| {
                    x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                    (x >> 24) % 3
                })
                .collect();
            let want: BTreeSet<Vec<u32>> = match width {
                0 => BTreeSet::from([vec![]]),
                _ => cells.chunks(width).map(<[u32]>::to_vec).collect(),
            };
            let kept = sort_dedup_rows(&mut cells, width, len);
            assert_eq!(kept, want.len(), "width {width}");
            assert_eq!(cells, want.into_iter().flatten().collect::<Vec<_>>());
        }
        assert_eq!(sort_dedup_rows(&mut Vec::<u32>::new(), 0, 0), 0);
    }

    /// The word-keyed widths against the array sort of the same rows,
    /// over cells drawn mostly from the edges of the id space: 0, the
    /// top id a dictionary mints and the tail's unbound marker, which
    /// must sort last and survive the packing.
    #[test]
    fn packed_rows_sort_like_arrays() {
        fn check<const N: usize>(cells: &[u32]) {
            let len = cells.len() / N;
            let mut want = cells.to_vec();
            want.as_chunks_mut::<N>().0.sort_unstable();
            let kept = dedup_sorted::<u32, N>(&mut want);
            let mut packed = cells.to_vec();
            assert_eq!(sort_dedup_rows(&mut packed, N, len), kept, "width {N}");
            assert_eq!(packed, want, "width {N}");
            let mut ids: Vec<TermId> = cells.iter().map(|&c| TermId(c)).collect();
            assert_eq!(sort_dedup_rows(&mut ids, N, len), kept, "width {N}, ids");
            assert!(ids.iter().map(|id| id.0).eq(want), "width {N}, ids");
        }
        let edges = [0, 1, u32::MAX - 1, u32::MAX, 1 << 31, (1 << 31) - 1];
        let mut x = 0x2545_F491u32;
        for len in [0usize, 1, 2, 3, 64, 700] {
            let cells: Vec<u32> = (0..len * 4)
                .map(|_| {
                    x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                    match x >> 29 {
                        0..=5 => edges[(x >> 8) as usize % edges.len()],
                        _ => x,
                    }
                })
                .collect();
            check::<1>(&cells);
            check::<2>(&cells);
            check::<3>(&cells[..len * 3]);
            check::<4>(&cells);
        }
    }

    /// The sink against a `BTreeSet` at every width the tail's rows take:
    /// few distinct values per cell, so most pushes repeat a row that is
    /// already sorted, already pending, or both, across eight
    /// compactions and more.
    #[test]
    fn row_sink_merges_like_a_set_across_compactions() {
        for width in 0..=5usize {
            let mut x = 0x2545_F491u32;
            let mut sink = RowSink::new(width);
            let mut want: BTreeSet<Vec<TermId>> = BTreeSet::new();
            let mut compactions = 0;
            for push in 0..60_000usize {
                // The value range widens as the pushes go, so every
                // compaction meets rows below, between and above the
                // sorted ones, and rows equal to their first and last.
                let row: Vec<TermId> = (0..width)
                    .map(|_| {
                        x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                        TermId((x >> 20) % (2 + push as u32 / 8_000))
                    })
                    .collect();
                let sorted_before = sink.rows.len;
                sink.push(row.iter().copied());
                want.insert(row);
                compactions += usize::from(sink.fresh_len == 0);
                assert!(sink.rows.len >= sorted_before);
                assert!(sink.fresh_len < want.len().max(COMPACT_MIN_ROWS));
            }
            assert!(compactions >= 8, "width {width}: {compactions} compactions");
            let rows = sink.finish();
            assert_eq!((rows.arity(), rows.len()), (width, want.len()));
            assert_eq!(rows.ids, want.into_iter().flatten().collect::<Vec<_>>());
        }
        assert!(RowSink::new(0).finish().is_empty());
    }

    /// The benchmark's catalogue in small: films with a year and three
    /// cast hubs each, people with an age, and three direct cast
    /// predicates — sealed, so the plans below are the cost-based ones.
    fn film_graph() -> Result<Graph, rps_rdf::RdfError> {
        let e = |s: String| Term::iri(format!("http://e/{s}"));
        let mut g = Graph::new();
        let mut add = |s: Term, p: &str, o: Term| g.insert_terms(s, e(p.into()), o);
        for f in 0..40 {
            let film = e(format!("film{f}"));
            let year = Term::literal(format!("{}", 1900 + f % 4));
            add(film.clone(), "year", year)?;
            for k in 0..3 {
                let hub = Term::blank(format!("hub{f}_{k}"));
                let person = e(format!("person{}", (f * 3 + k) % 25));
                add(film.clone(), "starring", hub.clone())?;
                add(hub, "artist", person.clone())?;
                add(film.clone(), &format!("actor{}", k + 1), person)?;
            }
        }
        for x in 0..25 {
            let age = Term::literal(format!("{}", 20 + x));
            add(e(format!("person{x}")), "age", age)?;
        }
        g.seal();
        Ok(g)
    }

    /// Parses `"s p o"` conjuncts (`?name` a variable, a quoted word a
    /// literal, anything else an IRI under `http://e/`) into a query.
    fn film_query(head: &[&str], body: &[&str]) -> GraphPatternQuery {
        let tv = |w: &str| match (w.strip_prefix('?'), w.strip_prefix('"')) {
            (Some(name), _) => TermOrVar::var(name),
            (_, Some(lit)) => TermOrVar::literal(lit.trim_end_matches('"')),
            _ => TermOrVar::iri(&format!("http://e/{w}")),
        };
        let patterns = body
            .iter()
            .map(|conjunct| {
                let w: Vec<&str> = conjunct.split(' ').collect();
                crate::pattern::TriplePattern::new(tv(w[0]), tv(w[1]), tv(w[2]))
            })
            .collect();
        GraphPatternQuery::new(
            head.iter().map(|v| var(v)).collect(),
            GraphPattern::from_patterns(patterns),
        )
    }

    const COSTAR: [&str; 5] = [
        "?f year \"1901\"",
        "?f starring ?z1",
        "?z1 artist ?p",
        "?f starring ?z2",
        "?z2 artist ?q",
    ];

    /// The five shapes the repo benchmark runs, as the cost-based
    /// planner orders them: only the hub self-join has an independent
    /// suffix, and it is the second arm keyed on the film.
    #[test]
    fn planned_memo_on_the_benchmark_shapes() -> Result<(), rps_rdf::RdfError> {
        let g = film_graph()?;
        let plan = |head: &[&str], body: &[&str]| {
            PreparedQueryIds::compile_only(&g, &film_query(head, body))
        };
        let costar = plan(&["p", "q"], &COSTAR);
        assert_eq!(costar.planned_order(), &[0, 1, 2, 3, 4]);
        assert_eq!(costar.planned_memo(), Some((3, vec![&var("f")])));

        let cast_hub = plan(&["p"], &["film7 starring ?z", "?z artist ?p"]);
        let films_of = plan(&["f"], &["?f starring ?z", "?z artist person3"]);
        let age_range = plan(
            &["f", "x", "a"],
            &[
                "?f year \"1902\"",
                "?f starring ?z",
                "?z artist ?x",
                "?x age ?a",
            ],
        );
        let union_hub = plan(
            &["f", "p"],
            &["?f year \"1903\"", "?f starring ?z", "?z artist ?p"],
        );
        let union_direct = plan(&["f", "p"], &["?f year \"1903\"", "?f actor2 ?p"]);
        for (name, chain) in [
            ("cast_hub", &cast_hub),
            ("films_of", &films_of),
            ("age_range", &age_range),
            ("union_cast, hub branch", &union_hub),
            ("union_cast, direct branch", &union_direct),
        ] {
            assert_eq!(chain.planned_memo(), None, "{name}");
            assert!(!chain.evaluate(&g, Semantics::Certain).is_empty(), "{name}");
        }
        // The suffix is found under the projection: a head that names no
        // variable of the second arm keeps the depth and the key.
        let semi = plan(&["p"], &COSTAR);
        assert_eq!(semi.planned_memo(), costar.planned_memo());
        // The prefix decides `?p`, the suffix `?q`: an arrival is known
        // by its `?p` under the film, and replays `?q` — or nothing, under
        // the head that does not name it.
        fn fields(plan: &PreparedQueryIds) -> Option<(Vec<&str>, Vec<&str>)> {
            let memo = plan.memo.as_ref()?;
            let name = |vars: &[usize]| -> Vec<&str> {
                vars.iter().map(|&v| plan.compiled.vars[v].name()).collect()
            };
            Some((name(&memo.inp), name(&memo.out)))
        }
        assert_eq!(fields(&costar), Some((vec!["p"], vec!["q"])));
        assert_eq!(fields(&semi), Some((vec!["p"], vec![])));
        // Replaying the second arm answers what re-joining it answers.
        for mut memoised in [costar, semi] {
            let rows = memoised.evaluate_rows(&g, Semantics::Certain);
            memoised.memo = None;
            assert_eq!(rows, memoised.evaluate_rows(&g, Semantics::Certain));
            assert!(rows.len() >= 10);
        }
        Ok(())
    }

    /// The prefix dedup on `costar`, over a catalogue where a film reaches
    /// one cast member through several cast nodes: a memoised plan emits
    /// once per distinct `(film, ?p)` arrival and suffix row — not once
    /// per `(film, cast node, ?p)` — and answers what the plain loop does.
    #[test]
    fn costar_emits_once_per_distinct_prefix_tuple() -> Result<(), rps_rdf::RdfError> {
        let e = |s: String| Term::iri(format!("http://e/{s}"));
        let mut g = Graph::new();
        // Per film: its `(cast node, person)` pairs and distinct persons.
        let (mut pairs, mut cast) = (Vec::new(), Vec::new());
        for f in 0..12 {
            let film = e(format!("film{f}"));
            g.insert_terms(film.clone(), e("year".into()), Term::literal("1901"))?;
            let mut members = BTreeSet::new();
            let mut arrivals = 0;
            // 2–4 cast nodes; node k names person (f + k) % 4 and, on
            // every other node, person 4 + f % 2 as well.
            for k in 0..2 + f % 3 {
                let hub = Term::blank(format!("hub{f}_{k}"));
                g.insert_terms(film.clone(), e("starring".into()), hub.clone())?;
                let mut named = vec![(f + k) % 4];
                if k % 2 == 0 {
                    named.push(4 + f % 2);
                }
                for x in named {
                    g.insert_terms(hub.clone(), e("artist".into()), e(format!("person{x}")))?;
                    members.insert(x);
                    arrivals += 1;
                }
            }
            pairs.push(arrivals);
            cast.push(members.len());
        }
        g.seal();
        let mut plan = PreparedQueryIds::compile_only(&g, &film_query(&["p", "q"], &COSTAR));
        assert_eq!(plan.planned_memo(), Some((3, vec![&var("f")])));
        let inp = plan.memo.as_ref().map(|memo| &memo.inp[..]);
        assert_eq!(inp, plan.proj.as_ref().map(|proj| &proj[..1]));
        let emits = |plan: &PreparedQueryIds| {
            let proj = plan.proj.as_deref().unwrap_or_default();
            let mut matcher = plan.matcher(&g, &plan.compiled.slots, Semantics::Certain);
            matcher.memo = plan.memo.as_ref().map(SuffixCache::new);
            let mut binding = vec![None; plan.compiled.nvars];
            let mut rows = RowSink::new(proj.len());
            let mut emits = 0;
            matcher.search(0, &mut binding, &mut |b| {
                emits += 1;
                rows.push(proj.iter().map(|&v| bound(b, v)));
                true
            });
            (emits, rows.finish())
        };
        // A film's distinct `?p` arrivals × its suffix rows (its distinct
        // `?q`s, the same people): cast².
        let (memoised, rows) = emits(&plan);
        assert_eq!(memoised, cast.iter().map(|c| c * c).sum::<usize>());
        // The plain loop emits every `(?z1, ?p)` × `(?z2, ?q)` pair.
        plan.memo = None;
        let (plain, plain_rows) = emits(&plan);
        assert_eq!(plain, pairs.iter().map(|a| a * a).sum::<usize>());
        assert!(plain > memoised, "{plain} plain emits, {memoised} memoised");
        assert_eq!(rows, plain_rows);
        Ok(())
    }

    /// A replay stops where `emit` says so, like the loop it stands in
    /// for: the callback is not called again after its first `false`.
    #[test]
    fn suffix_replay_honours_an_early_stop() -> Result<(), rps_rdf::RdfError> {
        let g = film_graph()?;
        let plan = PreparedQueryIds::compile_only(&g, &film_query(&["p", "q"], &COSTAR));
        for stop_at in [1, 2, 3, 4, 10, 89, 90] {
            let mut matcher = plan.matcher(&g, &plan.compiled.slots, Semantics::Certain);
            matcher.memo = plan.memo.as_ref().map(SuffixCache::new);
            let mut binding = vec![None; plan.compiled.vars.len()];
            let mut calls = 0;
            let finished = matcher.search(0, &mut binding, &mut |_| {
                calls += 1;
                calls < stop_at
            });
            assert!(!finished, "stop at {stop_at}");
            assert_eq!(calls, stop_at);
            assert!(binding.iter().all(Option::is_none), "bindings undone");
        }
        Ok(())
    }

    /// A graph with two predicates of equal cardinality but opposite
    /// skew: `status` fans into 2 objects, `ident` is one-to-one.
    fn skewed_graph(n: usize) -> Graph {
        let mut g = Graph::new();
        for i in 0..n {
            let s = Term::iri(format!("http://e/s{i}"));
            g.insert_terms(
                s.clone(),
                Term::iri("http://e/status"),
                Term::literal(if i % 2 == 0 { "active" } else { "idle" }),
            )
            .unwrap();
            g.insert_terms(
                s,
                Term::iri("http://e/ident"),
                Term::literal(format!("{i}")),
            )
            .unwrap();
        }
        g
    }

    #[test]
    fn all_constant_atom_is_ordered_first() {
        // The membership probe comes first under BOTH estimators even
        // though its predicate is the most frequent one — the blind
        // spot the old heuristic had (it costed fully-bound atoms 1,
        // tying with refined estimates instead of winning outright).
        let g = skewed_graph(64);
        let probe = GraphPattern::triple(
            TermOrVar::iri("http://e/s3"),
            TermOrVar::iri("http://e/status"),
            TermOrVar::Term(Term::literal("idle")),
        );
        let gp = GraphPattern::triple(
            TermOrVar::var("x"),
            TermOrVar::iri("http://e/ident"),
            TermOrVar::var("i"),
        )
        .and(probe);
        let q = GraphPatternQuery::new(vec![var("x")], gp);
        let heuristic = PreparedQueryIds::compile_heuristic(&g, &q);
        let cost = PreparedQueryIds::compile_only(&g, &q);
        for (plan, name) in [(heuristic, "heuristic"), (cost, "cost-based")] {
            assert_eq!(
                plan.planned_order()[0],
                1,
                "all-constant atom must lead under the {name} planner"
            );
            assert_eq!(plan.planned_scans()[0], ScanPerm::Probe);
        }
    }

    #[test]
    fn cost_based_orderer_uses_distinct_counts() {
        // Both atoms have predicate count n, so the shape heuristic
        // (count/4 for one bound position) ties and keeps query order.
        // The stats see that `ident "7"` pins one row while `status
        // "active"` matches n/2, and reorder.
        let mut g = skewed_graph(64);
        g.seal();
        let gp = GraphPattern::triple(
            TermOrVar::var("x"),
            TermOrVar::iri("http://e/status"),
            TermOrVar::Term(Term::literal("active")),
        )
        .and(GraphPattern::triple(
            TermOrVar::var("x"),
            TermOrVar::iri("http://e/ident"),
            TermOrVar::Term(Term::literal("7")),
        ));
        let q = GraphPatternQuery::new(vec![var("x")], gp);

        let heuristic = PreparedQueryIds::compile_heuristic(&g, &q);
        assert_eq!(heuristic.planned_order(), &[0, 1], "tie keeps query order");

        let cost = PreparedQueryIds::compile_only(&g, &q);
        assert_eq!(cost.planned_order(), &[1, 0], "selective atom leads");
        // The ident atom scans POS (only p+o known); by then the
        // status atom is fully bound and degenerates to a probe.
        assert_eq!(cost.planned_scans(), vec![ScanPerm::Pos, ScanPerm::Probe]);

        // Same answers either way — ordering is performance-only.
        assert_eq!(
            heuristic.evaluate(&g, Semantics::Certain),
            cost.evaluate(&g, Semantics::Certain)
        );
        // The planner falls back to the heuristic on an unsealed graph
        // (no snapshot). Keep the graph under TAIL_MAX triples so the
        // tail does not auto-flush, which would leave the store sealed.
        let unsealed = skewed_graph(20);
        assert!(!unsealed.is_sealed());
        let unsealed_plan = PreparedQueryIds::compile_only(&unsealed, &q);
        assert_eq!(unsealed_plan.planned_order(), &[0, 1]);
    }

    #[test]
    fn stats_snapshot_counts_are_exact() {
        let mut g = skewed_graph(32);
        assert!(
            g.graph_stats().is_none(),
            "unsealed graphs have no snapshot"
        );
        g.seal();
        let stats = g.graph_stats().expect("sealed");
        assert_eq!(stats.triples, 64);
        let status = g.term_id(&Term::iri("http://e/status")).unwrap();
        let ident = g.term_id(&Term::iri("http://e/ident")).unwrap();
        let st = stats.predicate(status).unwrap();
        assert_eq!(
            (st.count, st.distinct_subjects, st.distinct_objects),
            (32, 32, 2)
        );
        let id = stats.predicate(ident).unwrap();
        assert_eq!(
            (id.count, id.distinct_subjects, id.distinct_objects),
            (32, 32, 32)
        );
        assert_eq!(stats.predicates(), 2);
        assert!(stats.spo_bounds.is_some());
        // Mutation invalidates; resealing rebuilds.
        g.insert_terms(
            Term::iri("http://e/s0"),
            Term::iri("http://e/status"),
            Term::literal("gone"),
        )
        .unwrap();
        assert!(g.graph_stats().is_none(), "tail reopened by the insert");
        g.seal();
        assert_eq!(g.graph_stats().unwrap().triples, 65);
        // The flat counters surface through storage_stats once built.
        let flat = g.storage_stats();
        assert_eq!(flat.stats_predicates, 2);
        assert!(flat.stats_distinct_subjects >= 32);
    }

    /// A one-conjunct plan, or a delta pivot with nothing left to order,
    /// never asks for the planner statistics: on a graph a batch left
    /// sealed by accident that would be a full sweep.
    #[test]
    fn nothing_to_order_builds_no_statistics() {
        // 128 single inserts: the last one flushes the tail.
        let mut g = skewed_graph(64);
        assert!(g.is_sealed(), "sealed by accident");
        let q = GraphPatternQuery::new(
            vec![var("s")],
            GraphPattern::triple(
                TermOrVar::var("s"),
                TermOrVar::iri("http://e/status"),
                TermOrVar::var("o"),
            ),
        );
        let plan = PreparedQueryIds::new(&mut g, &q);
        let rows = plan.evaluate_delta(&g, Semantics::Certain, 0);
        assert_eq!(rows.len(), 64);
        assert_eq!(g.storage_stats().stats_predicates, 0, "no sweep ran");
        assert!(g.graph_stats().is_some());
        assert_eq!(
            g.storage_stats().stats_predicates,
            2,
            "a sweep reads as one"
        );
    }
}
