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
use std::collections::BTreeSet;

/// How the planner orders a conjunction's atoms (and with it, which scan
/// permutation each atom ends up probing — see
/// [`PreparedQueryIds::planned_scans`]). Orthogonal to answer
/// correctness: every mode yields byte-identical answer sets (the
/// equivalence proptests pin this); only wall-clock time changes.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum JoinOrder {
    /// Cost-based when the graph has a statistics snapshot
    /// ([`Graph::graph_stats`] — sealed graphs only), shape heuristic
    /// otherwise. The default.
    #[default]
    Auto,
    /// Selectivity estimation from the [`GraphStats`] snapshot
    /// (per-predicate counts refined by distinct-subject/object
    /// cardinalities). Falls back to the shape heuristic when the graph
    /// is unsealed and therefore has no snapshot.
    CostBased,
    /// The legacy smallest-first shape heuristic (predicate counts with
    /// fixed refinement divisors), retained as the oracle the
    /// cost-based path is differentially tested against.
    SmallestFirst,
}

/// Which tuples a query evaluation returns (Section 2.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Semantics {
    /// `Q_D`: only tuples over `I ∪ L` — blank-node tuples are dropped.
    Certain,
    /// `Q*_D`: tuples may contain blank nodes.
    Star,
}

/// One position of a compiled triple pattern.
#[derive(Clone, Copy, Debug)]
enum Slot {
    /// A constant, already resolved to a term id of the target graph.
    Const(TermId),
    /// A variable, identified by its dense index.
    Var(usize),
}

/// A graph pattern compiled against a specific graph's dictionary.
struct Compiled {
    /// One `[s, p, o]` slot triple per conjunct, in planner order.
    slots: Vec<[Slot; 3]>,
    /// Dense variable table; `Slot::Var` indexes into this.
    vars: Vec<Variable>,
    /// False if some constant does not occur in the graph at all, which
    /// makes the whole conjunction unsatisfiable.
    satisfiable: bool,
    /// The ordering mode the plan was compiled under (delta evaluation
    /// re-orders its non-pivot conjuncts under the same mode).
    order: JoinOrder,
    /// Source conjunct index per planner position — `source[i]` is the
    /// position the `i`-th planned conjunct held in the input pattern.
    source: Vec<usize>,
}

fn compile(graph: &Graph, gp: &GraphPattern, order: JoinOrder) -> Compiled {
    let mut vars: Vec<Variable> = Vec::new();
    let mut var_index = std::collections::HashMap::new();
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
                    let idx = *var_index.entry(v.clone()).or_insert_with(|| {
                        vars.push(v.clone());
                        vars.len() - 1
                    });
                    Slot::Var(idx)
                }
            };
        }
        slots.push(slot);
    }

    let source = if satisfiable {
        order_slots(graph, &mut slots, BTreeSet::new(), order)
    } else {
        (0..slots.len()).collect()
    };
    Compiled {
        slots,
        vars,
        satisfiable,
        order,
        source,
    }
}

/// Greedy join ordering: repeatedly pick the conjunct with the smallest
/// cardinality estimate given the variables bound so far (seeded with
/// `bound` — non-empty when ordering the non-pivot conjuncts of a delta
/// evaluation). The estimate is the stats-based selectivity model when
/// `order` resolves to the cost-based path (the graph is sealed and has
/// a [`GraphStats`] snapshot), the shape heuristic otherwise. Returns
/// the applied permutation: element `i` is the input position of the
/// conjunct now planned `i`-th.
fn order_slots(
    graph: &Graph,
    slots: &mut [[Slot; 3]],
    bound: BTreeSet<usize>,
    order: JoinOrder,
) -> Vec<usize> {
    let stats = match order {
        JoinOrder::SmallestFirst => None,
        JoinOrder::Auto | JoinOrder::CostBased => graph.graph_stats(),
    };
    let n = slots.len();
    let mut source: Vec<usize> = (0..n).collect();
    let mut bound = bound;
    for i in 0..n {
        let mut best = i;
        let mut best_cost = f64::INFINITY;
        for (j, slot) in slots.iter().enumerate().take(n).skip(i) {
            let cost = match &stats {
                Some(st) => stats_estimate(st, slot, &bound),
                None => shape_estimate(graph, slot, &bound),
            };
            if cost < best_cost {
                best_cost = cost;
                best = j;
            }
        }
        slots.swap(i, best);
        source.swap(i, best);
        for s in slots[i] {
            if let Slot::Var(v) = s {
                bound.insert(v);
            }
        }
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
fn shape_estimate(graph: &Graph, slot: &[Slot; 3], bound: &BTreeSet<usize>) -> f64 {
    if all_const(slot) {
        return 0.0;
    }
    let is_bound = |s: &Slot| match s {
        Slot::Const(_) => true,
        Slot::Var(v) => bound.contains(v),
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
            let p_bound = bound.contains(pv);
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
fn stats_estimate(stats: &GraphStats, slot: &[Slot; 3], bound: &BTreeSet<usize>) -> f64 {
    if all_const(slot) {
        return 0.0;
    }
    let is_bound = |s: &Slot| match s {
        Slot::Const(_) => true,
        Slot::Var(v) => bound.contains(v),
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
            if bound.contains(pv) {
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
    let compiled = compile(graph, gp, JoinOrder::Auto);
    if !compiled.satisfiable {
        return Vec::new();
    }
    let nvars = compiled.vars.len();
    let mut binding: Vec<Option<TermId>> = vec![None; nvars];
    let mut results: Vec<Vec<TermId>> = Vec::new();
    search(graph, &compiled.slots, 0, &mut binding, &mut |binding| {
        results.push(binding.iter().map(|b| b.expect("var bound")).collect());
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

/// Backtracking matcher over compiled conjuncts. The `emit` callback
/// receives the full binding at each solution and returns `false` to stop
/// the search; the overall return is `false` iff the search was stopped.
/// Candidates stream directly off the permutation-index range scans — no
/// per-level candidate materialisation.
fn search(
    graph: &Graph,
    slots: &[[Slot; 3]],
    depth: usize,
    binding: &mut Vec<Option<TermId>>,
    emit: &mut dyn FnMut(&[Option<TermId>]) -> bool,
) -> bool {
    if depth == slots.len() {
        // All conjuncts matched; every variable that occurs is bound.
        return emit(binding);
    }
    let slot = &slots[depth];
    let resolve = |s: &Slot, binding: &[Option<TermId>]| match s {
        Slot::Const(id) => Some(*id),
        Slot::Var(v) => binding[*v],
    };
    let qs = resolve(&slot[0], binding);
    let qp = resolve(&slot[1], binding);
    let qo = resolve(&slot[2], binding);

    for t in graph.match_ids(qs, qp, qo) {
        let keep_going = match_one(graph, slots, depth + 1, slot, t, binding, emit);
        if !keep_going {
            return false;
        }
    }
    true
}

/// Binds one candidate triple against `slot`, recurses into
/// `slots[next_depth..]` on success, and undoes the bindings. Returns
/// `false` iff the search was stopped.
fn match_one(
    graph: &Graph,
    slots: &[[Slot; 3]],
    next_depth: usize,
    slot: &[Slot; 3],
    t: rps_rdf::IdTriple,
    binding: &mut Vec<Option<TermId>>,
    emit: &mut dyn FnMut(&[Option<TermId>]) -> bool,
) -> bool {
    let vals = [t.s, t.p, t.o];
    let mut newly_bound: [Option<usize>; 3] = [None; 3];
    let mut ok = true;
    for i in 0..3 {
        match slot[i] {
            Slot::Var(v) => match binding[v] {
                Some(existing) => {
                    if existing != vals[i] {
                        ok = false;
                        break;
                    }
                }
                None => {
                    binding[v] = Some(vals[i]);
                    newly_bound[i] = Some(v);
                }
            },
            Slot::Const(c) => {
                if c != vals[i] {
                    ok = false;
                    break;
                }
            }
        }
    }
    let keep_going = if ok {
        search(graph, slots, next_depth, binding, emit)
    } else {
        true
    };
    for nb in newly_bound.into_iter().flatten() {
        binding[nb] = None;
    }
    keep_going
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
            compiled: compile(graph, gp, JoinOrder::Auto),
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
        search(graph, &self.compiled.slots, 0, &mut binding, &mut |_| {
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
        search(graph, slots, 0, &mut binding, &mut |b| {
            let resolve = |s: &Slot| match s {
                Slot::Const(id) => *id,
                Slot::Var(v) => b[*v].expect("a full match binds every occurring variable"),
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
    let compiled = compile(graph, gp, JoinOrder::Auto);
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
    search(graph, &compiled.slots, 0, &mut binding, &mut |_| {
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
pub struct PreparedQueryIds {
    compiled: Compiled,
    /// Free-variable projection into compiled variable indexes; `None`
    /// when some free variable does not occur in the pattern (the answer
    /// set is then empty).
    proj: Option<Vec<usize>>,
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
    pub fn compile_only(graph: &Graph, query: &GraphPatternQuery) -> Self {
        Self::compile_only_with(graph, query, JoinOrder::Auto)
    }

    /// [`Self::compile_only`] with an explicit join-ordering mode —
    /// the seam the `ExecConfig` knob forces the cost-based or the
    /// smallest-first planner through (answers are byte-identical
    /// either way; only the conjunct order and scan permutations
    /// change).
    pub fn compile_only_with(graph: &Graph, query: &GraphPatternQuery, order: JoinOrder) -> Self {
        let compiled = compile(graph, query.pattern(), order);
        let proj = projection(&compiled, query);
        PreparedQueryIds { compiled, proj }
    }

    /// The ordering mode this plan was compiled under.
    pub fn join_order(&self) -> JoinOrder {
        self.compiled.order
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
            let mut binding: Vec<Option<TermId>> = vec![None; self.compiled.vars.len()];
            search(graph, &self.compiled.slots, 0, &mut binding, &mut |b| {
                project_into(graph, proj, b, semantics, &mut out);
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
    /// [`Graph::log_since`] and [`evaluate_query_ids_delta`]).
    pub fn evaluate_delta(
        &self,
        graph: &Graph,
        semantics: Semantics,
        log_from: usize,
    ) -> BTreeSet<Vec<TermId>> {
        let Some(proj) = self.runnable() else {
            return BTreeSet::new();
        };
        if graph.log_since(log_from).is_empty() {
            return BTreeSet::new();
        }
        let mut out = RowSink::new(proj.len());
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
            let pivot_vars: BTreeSet<usize> = slot
                .iter()
                .filter_map(|s| match s {
                    Slot::Var(v) => Some(*v),
                    Slot::Const(_) => None,
                })
                .collect();
            order_slots(graph, &mut rest, pivot_vars, self.compiled.order);
            let mut binding: Vec<Option<TermId>> = vec![None; self.compiled.vars.len()];
            for t in graph.log_since(log_from) {
                match_one(graph, &rest, 0, &slot, t, &mut binding, &mut |b| {
                    project_into(graph, proj, b, semantics, &mut out);
                    true
                });
            }
        }
        out.finish().to_set()
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
        Self::from_id_slots_with(graph, conjuncts, nvars, proj, satisfiable, JoinOrder::Auto)
    }

    /// [`Self::from_id_slots`] with an explicit join-ordering mode (see
    /// [`Self::compile_only_with`]).
    pub fn from_id_slots_with(
        graph: &Graph,
        conjuncts: &[[PlanSlot; 3]],
        nvars: usize,
        proj: Option<Vec<usize>>,
        satisfiable: bool,
        order: JoinOrder,
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
            order_slots(graph, &mut slots, BTreeSet::new(), order)
        } else {
            (0..slots.len()).collect()
        };
        debug_assert!(proj.iter().flatten().all(|&i| i < nvars));
        // Numbered variables have no source names; synthesise stable
        // placeholders so the dense table keeps its invariants.
        let vars: Vec<Variable> = (0..nvars).map(|i| Variable::new(format!("_{i}"))).collect();
        PreparedQueryIds {
            compiled: Compiled {
                slots,
                vars,
                satisfiable,
                order,
                source,
            },
            proj,
        }
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

/// Evaluates a graph pattern query at the id level: answer tuples are
/// [`TermId`]s of this graph's dictionary (dense, copy-free). Under
/// [`Semantics::Certain`], tuples containing blank nodes are dropped.
pub fn evaluate_query_ids(
    graph: &Graph,
    query: &GraphPatternQuery,
    semantics: Semantics,
) -> BTreeSet<Vec<TermId>> {
    PreparedQueryIds::compile_only(graph, query).evaluate(graph, semantics)
}

/// Delta evaluation: the answer tuples of `query` that have at least one
/// witness using a triple inserted at log index `log_from` or later
/// (see [`Graph::log_since`]). Together with the monotonicity of
/// conjunctive queries this is the semi-naive decomposition: evaluating
/// from `log_from = 0` equals [`evaluate_query_ids`], and a consumer that
/// saw all tuples before `log_from` misses nothing by evaluating only the
/// delta. An empty pattern has no delta (its sole empty witness uses no
/// triples).
pub fn evaluate_query_ids_delta(
    graph: &Graph,
    query: &GraphPatternQuery,
    semantics: Semantics,
    log_from: usize,
) -> BTreeSet<Vec<TermId>> {
    PreparedQueryIds::compile_only(graph, query).evaluate_delta(graph, semantics, log_from)
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

fn project_into(
    graph: &Graph,
    proj: &[usize],
    binding: &[Option<TermId>],
    semantics: Semantics,
    out: &mut RowSink,
) {
    let tuple = proj
        .iter()
        .map(|&i| binding[i].expect("solution binds all pattern vars"));
    if semantics == Semantics::Certain && tuple.clone().any(|id| !graph.dict().is_name(id)) {
        return;
    }
    out.push(tuple);
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

/// The emit side of [`IdRows`]: rows are appended unsorted, and the
/// buffer is sorted and deduplicated when it has doubled since the
/// last compaction (so a projection that maps many solutions onto few
/// distinct tuples stays bounded by twice its answer) and once more at
/// [`RowSink::finish`].
pub(crate) struct RowSink {
    rows: IdRows,
    compact_at: usize,
}

impl RowSink {
    /// An empty sink for rows of `arity` ids.
    pub(crate) fn new(arity: usize) -> Self {
        RowSink {
            rows: IdRows {
                arity,
                len: 0,
                ids: Vec::new(),
            },
            compact_at: COMPACT_MIN_ROWS,
        }
    }

    /// Appends one row, which must yield exactly `arity` ids.
    pub(crate) fn push(&mut self, row: impl Iterator<Item = TermId>) {
        self.rows.ids.extend(row);
        self.rows.len += 1;
        debug_assert_eq!(self.rows.ids.len(), self.rows.len * self.rows.arity);
        if self.rows.len >= self.compact_at {
            self.compact();
        }
    }

    fn compact(&mut self) {
        self.rows.len = sort_dedup_rows(&mut self.rows.ids, self.rows.arity, self.rows.len);
        self.compact_at = (2 * self.rows.len).max(COMPACT_MIN_ROWS);
    }

    /// The sorted, duplicate-free rows.
    pub(crate) fn finish(mut self) -> IdRows {
        self.compact();
        self.rows
    }
}

/// Sorts the `len` rows of `width` cells each held row-major in
/// `cells` ascending (row-lexicographic), drops duplicate rows and
/// returns how many remain. Width 0 keeps at most the one empty row.
pub(crate) fn sort_dedup_rows<T: Ord + Copy>(
    cells: &mut Vec<T>,
    width: usize,
    len: usize,
) -> usize {
    debug_assert_eq!(cells.len(), len * width);
    match width {
        0 => len.min(1),
        1 => sort_dedup_arrays::<T, 1>(cells),
        2 => sort_dedup_arrays::<T, 2>(cells),
        3 => sort_dedup_arrays::<T, 3>(cells),
        4 => sort_dedup_arrays::<T, 4>(cells),
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

/// [`sort_dedup_rows`] for a width known at compile time: the rows
/// sort in place as `[T; N]` values.
fn sort_dedup_arrays<T: Ord + Copy, const N: usize>(cells: &mut Vec<T>) -> usize {
    let (rows, _) = cells.as_chunks_mut::<N>();
    rows.sort_unstable();
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
        let ids = evaluate_query_ids(&g, &q, Semantics::Certain);
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
        let before = evaluate_query_ids(&g, &q, Semantics::Certain);
        assert_eq!(before.len(), 2);
        let mark = g.log_len();
        // No new triples: empty delta.
        assert!(evaluate_query_ids_delta(&g, &q, Semantics::Certain, mark).is_empty());
        g.insert_terms(
            Term::iri("http://e/actor3"),
            Term::iri("http://e/age"),
            Term::literal("55"),
        )
        .unwrap();
        let delta = evaluate_query_ids_delta(&g, &q, Semantics::Certain, mark);
        assert_eq!(delta.len(), 1);
        // Delta-from-zero equals the full evaluation.
        assert_eq!(
            evaluate_query_ids_delta(&g, &q, Semantics::Certain, 0),
            evaluate_query_ids(&g, &q, Semantics::Certain)
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
        assert!(evaluate_query_ids_delta(&g, &q, Semantics::Certain, mark).is_empty());
        g.insert_terms(Term::iri("c"), Term::iri("artist"), Term::iri("a"))
            .unwrap();
        let delta = evaluate_query_ids_delta(&g, &q, Semantics::Certain, mark);
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
        // Repeated execution agrees with the one-shot helpers.
        assert_eq!(
            plan.evaluate(&g, Semantics::Certain),
            evaluate_query_ids(&g, &q, Semantics::Certain)
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
            plan.evaluate(&g, Semantics::Certain),
            evaluate_query_ids(&g, &q, Semantics::Certain)
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
            search(&g, &plan.compiled.slots, 0, &mut binding, &mut |b| {
                set.insert(proj.iter().map(|&i| b[i].unwrap()).collect::<Vec<_>>());
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
            assert!(sink.rows.len < 2 * COMPACT_MIN_ROWS);
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
        for order in [JoinOrder::SmallestFirst, JoinOrder::CostBased] {
            let plan = PreparedQueryIds::compile_only_with(&g, &q, order);
            assert_eq!(
                plan.planned_order()[0],
                1,
                "all-constant atom must lead under {order:?}"
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

        let heuristic = PreparedQueryIds::compile_only_with(&g, &q, JoinOrder::SmallestFirst);
        assert_eq!(heuristic.planned_order(), &[0, 1], "tie keeps query order");

        let cost = PreparedQueryIds::compile_only_with(&g, &q, JoinOrder::CostBased);
        assert_eq!(cost.planned_order(), &[1, 0], "selective atom leads");
        // The ident atom scans POS (only p+o known); by then the
        // status atom is fully bound and degenerates to a probe.
        assert_eq!(cost.planned_scans(), vec![ScanPerm::Pos, ScanPerm::Probe]);

        // Same answers either way — ordering is performance-only.
        assert_eq!(
            heuristic.evaluate(&g, Semantics::Certain),
            cost.evaluate(&g, Semantics::Certain)
        );
        // Auto resolves to the cost-based plan on a sealed graph...
        let auto = PreparedQueryIds::compile_only_with(&g, &q, JoinOrder::Auto);
        assert_eq!(auto.planned_order(), cost.planned_order());
        // ...and to the heuristic on an unsealed one (no snapshot).
        // Keep the graph under TAIL_MAX triples so the tail does not
        // auto-flush, which would leave the store sealed.
        let unsealed = skewed_graph(20);
        assert!(!unsealed.is_sealed());
        let auto_unsealed = PreparedQueryIds::compile_only_with(&unsealed, &q, JoinOrder::Auto);
        assert_eq!(auto_unsealed.planned_order(), &[0, 1]);
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
}
