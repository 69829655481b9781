//! The unified answering API: [`Session`], [`FrozenSession`],
//! [`PreparedQuery`] and [`AnswerStream`].
//!
//! The RPS model has one conceptual operation — answer a conjunctive
//! query over a peer system under a chosen strategy and semantics — and
//! this module is its façade. A [`Session`] is the builder: it owns a
//! validated [`RdfPeerSystem`] plus an [`EngineConfig`], may chase the
//! universal solution ahead of time ([`Session::universal_solution`]),
//! and answers nothing itself. [`Session::freeze`] runs the remaining
//! compile-phase work once and yields the [`FrozenSession`] that
//! answers: [`FrozenSession::prepare`] compiles a query **once** —
//! canonical UCQ rewriting or an id-level plan over the chased solution
//! — into a shared [`PreparedQuery`] that [`FrozenSession::execute`]
//! runs repeatedly, from any number of threads. Results come back as a
//! streaming [`AnswerStream`] that decodes id-level tuples lazily
//! instead of materialising term vectors up front, and every failure is
//! a typed [`RpsError`].
//!
//! Everything below the façade runs on the `rps_rdf` triple store: the
//! materialise route chases into a [`rps_rdf::Graph`] (sorted-run
//! storage by default — see `rps_rdf::store`) — on a full system the
//! equivalence quotient, otherwise the saturated universal solution —
//! the rewrite route evaluates its UCQs over the canonical stored one,
//! and the id-level plans compiled here are
//! `rps_query::PreparedQueryIds` range scans against its permutation
//! indexes.
//!
//! The federated counterpart with the same vocabulary lives in
//! `rps-p2p` (`FederatedSession`), which reuses this module's
//! [`AnswerStream`], [`EngineConfig`], [`ExecRoute`] and [`RpsError`].
//!
//! ```
//! use rps_core::{EngineConfig, ExecRoute, PeerId, RpsBuilder, Session};
//! use rps_query::{GraphPattern, GraphPatternQuery, TermOrVar, Variable};
//!
//! // Two peers; peer B's `actor` facts imply peer A's `cast` facts.
//! let (mut a, mut b) = (PeerId(0), PeerId(0));
//! let premise = GraphPatternQuery::new(
//!     vec![Variable::new("x"), Variable::new("y")],
//!     GraphPattern::triple(
//!         TermOrVar::var("x"),
//!         TermOrVar::iri("http://b/actor"),
//!         TermOrVar::var("y"),
//!     ),
//! );
//! let conclusion = GraphPatternQuery::new(
//!     vec![Variable::new("x"), Variable::new("y")],
//!     GraphPattern::triple(
//!         TermOrVar::var("x"),
//!         TermOrVar::iri("http://a/cast"),
//!         TermOrVar::var("y"),
//!     ),
//! );
//! let system = RpsBuilder::new()
//!     .peer_turtle("A", "<http://a/f1> <http://a/cast> <http://a/p1> .", &mut a)
//!     .unwrap()
//!     .peer_turtle("B", "<http://b/f2> <http://b/actor> <http://b/p2> .", &mut b)
//!     .unwrap()
//!     .assertion(b, a, premise, conclusion)
//!     .unwrap()
//!     .build();
//!
//! let session = Session::open(system, EngineConfig::default())
//!     .unwrap()
//!     .freeze()
//!     .unwrap();
//! let query = GraphPatternQuery::new(
//!     vec![Variable::new("x"), Variable::new("y")],
//!     GraphPattern::triple(
//!         TermOrVar::var("x"),
//!         TermOrVar::iri("http://a/cast"),
//!         TermOrVar::var("y"),
//!     ),
//! );
//! // Prepare once, execute as often as needed.
//! let prepared = session.prepare(&query).unwrap();
//! let stream = session.execute(&prepared).unwrap();
//! assert_eq!(stream.route(), ExecRoute::Rewritten); // linear ⇒ Proposition 2
//! let answers: Vec<_> = stream.collect();
//! assert_eq!(answers.len(), 2);
//! ```

use crate::answers::AnswerSet;
use crate::chase::{chase_quotient, chase_system, RpsChaseConfig, UniversalSolution};
use crate::equivalence::{canonicalize_query, expand_rows, ClassTable, EquivalenceIndex};
use crate::error::RpsError;
use crate::system::RdfPeerSystem;
use rps_query::{
    GraphPatternQuery, IdRows, PlanSlot, PreparedQueryIds, RowSink, Semantics, TermOrVar, Variable,
};
use rps_rdf::{Graph, SealConfig, Term, TermId};
use rps_tgd::RewriteConfig;
use std::sync::Arc;

pub mod frozen;
pub use frozen::{
    canonical_plan_key, FrozenSession, PlanCache, PlanCacheStats, SparqlCompiler,
    DEFAULT_PLAN_CACHE_CAPACITY,
};

/// Query-answering strategy.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Strategy {
    /// Materialise the universal solution once (Algorithm 1) and evaluate
    /// queries over it. Amortises well under high query rates. On a full
    /// system (no existential variable in any assertion's conclusion)
    /// the chase runs over the equivalence quotient of the sources and
    /// answers expand over the classes: that is the least model of the
    /// assertions' Datalog program (future work item 1), covering the
    /// systems Proposition 3 puts beyond FO rewriting, without the
    /// equivalence copies.
    Materialise,
    /// Rewrite each query into a UCQ over the sources (Proposition 2).
    /// No materialisation; pays per query.
    Rewrite,
    /// Use rewriting when the mapping TGDs are FO-rewritable, otherwise
    /// materialise.
    #[default]
    Auto,
}

/// How a prepared query actually executes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExecRoute {
    /// Evaluated over the universal solution or, on a full system, its
    /// quotient by the equivalence mappings, answers expanded over the
    /// classes.
    Materialised,
    /// Evaluated through a (complete) UCQ rewriting.
    Rewritten,
    /// Evaluated federatedly over the peers (see `rps-p2p`).
    Federated,
}

/// The one configuration object of the answering stack: strategy,
/// result semantics, and the chase/rewriting budgets that used to be
/// plumbed separately through every entry point.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Route selection policy.
    pub strategy: Strategy,
    /// Result semantics (`Q_D` drops blank-node tuples, `Q*_D` keeps
    /// them). `Q*` is only available through the materialised route.
    pub semantics: Semantics,
    /// Chase budgets for the materialised route.
    pub chase: RpsChaseConfig,
    /// Rewriting budgets for the rewritten route.
    pub rewrite: RewriteConfig,
    /// Retry policy for federated peer exchanges (attempt bound,
    /// deterministic-jitter backoff, per-peer deadline budget). Read by
    /// the federated sessions in `rps-p2p`; the local routes never talk
    /// to a network and ignore it.
    pub retry: crate::fault::RetryPolicy,
    /// What a federated execution does when a peer stays unreachable
    /// after the retries. Ignored by the local routes, like
    /// [`EngineConfig::retry`].
    pub failure: crate::fault::FailurePolicy,
    /// Physical execution configuration: columnar compression of a frozen
    /// solution's sealed runs.
    pub exec: ExecConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            strategy: Strategy::default(),
            semantics: Semantics::Certain,
            chase: RpsChaseConfig::default(),
            rewrite: RewriteConfig::default(),
            retry: crate::fault::RetryPolicy::default(),
            failure: crate::fault::FailurePolicy::default(),
            exec: ExecConfig::default(),
        }
    }
}

impl EngineConfig {
    /// Sets the strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the result semantics.
    pub fn with_semantics(mut self, semantics: Semantics) -> Self {
        self.semantics = semantics;
        self
    }

    /// Overrides the chase budgets.
    pub fn with_chase(mut self, chase: RpsChaseConfig) -> Self {
        self.chase = chase;
        self
    }

    /// Overrides the rewriting budgets.
    pub fn with_rewrite(mut self, rewrite: RewriteConfig) -> Self {
        self.rewrite = rewrite;
        self
    }

    /// Overrides the federated retry policy.
    pub fn with_retry(mut self, retry: crate::fault::RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Overrides the federated failure policy.
    pub fn with_failure(mut self, failure: crate::fault::FailurePolicy) -> Self {
        self.failure = failure;
        self
    }

    /// Overrides the physical execution configuration.
    pub fn with_exec(mut self, exec: ExecConfig) -> Self {
        self.exec = exec;
        self
    }
}

/// Physical execution configuration: how the logical plans of this
/// module actually touch the triple store. Orthogonal to the *answer*
/// configuration ([`Strategy`], [`Semantics`], budgets): any setting
/// here yields byte-identical answers — it only changes wall-clock time
/// and resident bytes. (The join order is not a setting: the planner is
/// cost-based on a sealed graph, which every frozen substrate is.)
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecConfig {
    /// Encode a frozen solution's sealed runs as delta-varint columnar
    /// blocks when they are large enough to benefit. Off, freezing
    /// serves the one plain run per permutation the chase sealed.
    pub compress: bool,
}

impl ExecConfig {
    /// The [`SealConfig`] a frozen graph should be resealed with.
    pub fn seal_config(&self) -> SealConfig {
        SealConfig {
            compress: self.compress,
            ..SealConfig::default()
        }
    }
}

/// Whichever `Arc` keeps a sealed graph — and with it the dictionary a
/// plan's ids index — alive: a chased solution (the universal solution,
/// or the chase of a full system's quotient), or the rewriter's
/// canonical stored graph.
#[derive(Clone)]
pub(crate) enum GraphHandle {
    Solution(Arc<UniversalSolution>),
    Quotient(Arc<Graph>),
}

impl std::ops::Deref for GraphHandle {
    type Target = Graph;

    fn deref(&self) -> &Graph {
        match self {
            GraphHandle::Solution(solution) => &solution.graph,
            GraphHandle::Quotient(graph) => graph,
        }
    }
}

/// One conjunctive branch of a [`Plan`]: an id-level plan over the
/// plan's graph, and the head template that turns one of its rows into
/// an answer row — `None` consumes the row's next id, `Some(id)` injects
/// a constant the rewriting specialised that position to. An empty
/// template takes the row as it is.
pub(crate) type Branch = (PreparedQueryIds, Vec<Option<TermId>>);

/// A chased solution to plan against and — when it is the chase of the
/// equivalence quotient — the class table its answers expand over.
pub(crate) type Chased = (Arc<UniversalSolution>, Option<Arc<ClassTable>>);

/// The compiled execution plan of a [`PreparedQuery`], the same shape on
/// every local route: a union of id-level branches over one sealed graph,
/// whose answers are expanded over `classes` when that graph is a
/// quotient by the equivalence mappings. Materialised = one all-variable
/// branch over the chased solution: the saturated universal solution (no
/// classes) or, on a full system, the chase of the quotient with its
/// classes; rewritten = the UCQ's branches over the canonical stored
/// graph.
/// Carrying the graph makes repeated execution and lazy answer decoding
/// independent of the session's own caches.
pub(crate) struct Plan {
    pub(crate) graph: GraphHandle,
    pub(crate) branches: Vec<Branch>,
    pub(crate) classes: Option<Arc<ClassTable>>,
}

impl Plan {
    /// `query` as the one all-variable branch over a chased solution.
    /// Over a quotient (`classes: Some`) the query's constants go onto
    /// `index`'s class representatives first, as the chased graph's did.
    /// The graph is sealed, so the branch compiles without interning: an
    /// unknown constant is simply unsatisfiable.
    pub(crate) fn chased(
        (solution, classes): Chased,
        index: &EquivalenceIndex,
        query: &GraphPatternQuery,
    ) -> Self {
        let canonical;
        let query = match classes {
            Some(_) => {
                canonical = canonicalize_query(query, index);
                &canonical
            }
            None => query,
        };
        let graph = GraphHandle::Solution(solution);
        let plan = PreparedQueryIds::compile_only(&graph, query);
        Plan {
            graph,
            branches: vec![(plan, Vec::new())],
            classes,
        }
    }

    /// The one way to run a plan: the union of its branches' answers as
    /// sorted, duplicate-free rows of ids over [`Plan::graph`], one per
    /// variable of `vars`, expanded over the equivalence classes. A
    /// single all-variable branch hands its rows through untouched;
    /// otherwise the row sink deduplicates across branches before
    /// anything is expanded.
    pub(crate) fn execute(
        &self,
        vars: Arc<[Variable]>,
        route: ExecRoute,
        semantics: Semantics,
    ) -> AnswerStream {
        let rows = match self.branches.as_slice() {
            [(only, head)] if head.iter().all(Option::is_none) => {
                only.evaluate_rows(&self.graph, semantics)
            }
            branches => {
                let mut union = RowSink::new(vars.len());
                for (plan, head) in branches {
                    for row in plan.evaluate_rows(&self.graph, semantics).iter() {
                        let mut ids = row.iter().copied();
                        if head.is_empty() {
                            union.push(ids);
                        } else {
                            union.push(head.iter().filter_map(|c| c.or_else(|| ids.next())));
                        }
                    }
                }
                union.finish()
            }
        };
        let rows = match &self.classes {
            Some(classes) => expand_rows(rows, classes),
            None => rows,
        };
        AnswerStream::new(vars, route, self.graph.clone(), rows)
    }
}

/// One position of a [`BranchTemplate`].
#[derive(Clone, Copy, Debug)]
pub(crate) enum Arg {
    /// A variable, by its dense index.
    Var(usize),
    /// A constant, by its id in the plan's graph.
    Const(TermId),
    /// The `k`-th parameter.
    Param(usize),
}

/// A conjunctive branch compiled once with its parameters left open:
/// what [`Plan::bound`] plans once their ids are written in. The
/// rewriter keeps one per branch of a query shape's union, its conjuncts
/// in the rewriting's order ([`crate::rewriting`]); a frozen session's
/// SPARQL front keeps one per lowered CQ of a text's shape.
pub(crate) struct BranchTemplate {
    /// The conjuncts' positions.
    pub(crate) body: Vec<[Arg; 3]>,
    pub(crate) nvars: usize,
    /// The head variables, or `None` when the body cannot bind one.
    pub(crate) proj: Option<Vec<usize>>,
    /// False when a constant that is not a parameter has no id.
    pub(crate) satisfiable: bool,
    /// The head, a variable standing for the answer row's next id; empty
    /// when it is the row as it is.
    pub(crate) head: Vec<Arg>,
}

impl BranchTemplate {
    /// `query` as one all-variable branch over `graph`, `param` naming
    /// the parameter a constant stands for: variables numbered by first
    /// occurrence and the other constants looked up in `graph`'s
    /// dictionary, as [`PreparedQueryIds::compile_only`] does.
    pub(crate) fn of_query<'q>(
        graph: &Graph,
        query: &'q GraphPatternQuery,
        param: impl Fn(&Term) -> Option<usize>,
    ) -> Self {
        let mut vars: Vec<&'q Variable> = Vec::new();
        let mut satisfiable = true;
        let mut arg = |tv: &'q TermOrVar| match tv {
            TermOrVar::Var(v) => Arg::Var(vars.iter().position(|w| *w == v).unwrap_or_else(|| {
                vars.push(v);
                vars.len() - 1
            })),
            TermOrVar::Term(c) => match (param(c), graph.term_id(c)) {
                (Some(k), _) => Arg::Param(k),
                (None, Some(id)) => Arg::Const(id),
                (None, None) => {
                    // Dead branch; the placeholder slot is never consulted.
                    satisfiable = false;
                    Arg::Var(0)
                }
            },
        };
        let body = (query.pattern().patterns().iter())
            .map(|tp| [arg(&tp.s), arg(&tp.p), arg(&tp.o)])
            .collect();
        let proj = (query.free_vars().iter())
            .map(|v| vars.iter().position(|w| *w == v))
            .collect();
        BranchTemplate {
            body,
            nvars: vars.len().max(1),
            proj,
            satisfiable,
            head: Vec::new(),
        }
    }
}

impl Plan {
    /// `templates` bound to one query's parameters and planned over
    /// `graph`: `value(k)` is parameter `k`'s id in `graph`, `None` when
    /// it has none. A branch whose body holds such a parameter binds
    /// unsatisfiable; one whose head does is dropped (dead, by the
    /// rewriter's compile argument) — both as a compile of the query's
    /// own constants would do. Each bound body is planned afresh, so a
    /// bound plan is the plan of its values by construction.
    pub(crate) fn bound(
        graph: GraphHandle,
        templates: &[BranchTemplate],
        value: impl Fn(usize) -> Option<TermId>,
        classes: Option<Arc<ClassTable>>,
    ) -> Plan {
        let mut branches = Vec::with_capacity(templates.len());
        'branches: for t in templates {
            let mut head = Vec::with_capacity(t.head.len());
            for arg in &t.head {
                head.push(match *arg {
                    Arg::Var(_) => None,
                    Arg::Const(id) => Some(id),
                    Arg::Param(k) => match value(k) {
                        Some(id) => Some(id),
                        None => continue 'branches, // dead
                    },
                });
            }
            let mut satisfiable = t.satisfiable;
            let mut slot = |arg: Arg| match arg {
                Arg::Var(v) => PlanSlot::Var(v),
                Arg::Const(id) => PlanSlot::Const(id),
                Arg::Param(k) => value(k).map_or_else(
                    || {
                        satisfiable = false;
                        PlanSlot::Var(0)
                    },
                    PlanSlot::Const,
                ),
            };
            let body: Vec<[PlanSlot; 3]> = t.body.iter().map(|c| c.map(&mut slot)).collect();
            let plan = PreparedQueryIds::from_id_slots(
                &graph,
                &body,
                t.nvars,
                t.proj.clone(),
                satisfiable,
            );
            branches.push((plan, head));
        }
        Plan {
            graph,
            branches,
            classes,
        }
    }
}

/// A query compiled once against a [`FrozenSession`] — route resolved,
/// result semantics captured, rewriting expanded, id-level pattern plan
/// built — and executable any number of times with
/// [`FrozenSession::execute`] *on the session that prepared it*
/// (execution elsewhere returns [`RpsError::SessionMismatch`]) — a live
/// session's epochs share one.
pub struct PreparedQuery {
    session_id: u64,
    epoch: u32,
    /// The projection variables, shared with every stream this plan
    /// produces.
    vars: Arc<[Variable]>,
    route: ExecRoute,
    semantics: Semantics,
    rewrite_fell_back: bool,
    plan: Plan,
}

impl PreparedQuery {
    /// The route this query will execute through.
    pub fn route(&self) -> ExecRoute {
        self.route
    }

    /// `true` iff the `Auto` strategy attempted the rewrite route but
    /// the expansion exhausted its budgets, so this query was compiled
    /// against the universal solution chased before the freeze
    /// ([`Session::universal_solution`]) instead. The answers are still
    /// exact — this flag only explains the route change. Without such a
    /// solution, and under an explicit [`Strategy::Rewrite`], the same
    /// condition is the typed [`RpsError::RewriteBudget`].
    pub fn rewrite_fell_back(&self) -> bool {
        self.rewrite_fell_back
    }

    /// The result semantics this query was compiled under: the frozen
    /// session's, fixed at [`Session::freeze`].
    pub fn semantics(&self) -> Semantics {
        self.semantics
    }

    /// The live epoch this query was compiled at and answers, until the
    /// writer's retention floor passes it ([`RpsError::StalePlan`]); 0
    /// on a plain frozen session.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Number of *compiled* UCQ branch plans when the route is
    /// [`ExecRoute::Rewritten`] — what execution actually runs (branches
    /// whose head was specialised to a labelled null, or to a constant
    /// the canonical stored graph does not know, are dropped at compile
    /// time, so this can be below the rewriting's union size).
    pub fn branch_count(&self) -> Option<usize> {
        (self.route == ExecRoute::Rewritten).then_some(self.plan.branches.len())
    }
}

/// A streaming iterator over answer tuples: sorted, duplicate-free id
/// rows over one sealed graph, decoded to [`Term`]s lazily, one tuple
/// per `next()` call, instead of materialising the whole answer vector
/// up front. Every route answers in this one form — the local ones over
/// the graph their plan ran on, the federated one over the rewriter's
/// canonical graph.
/// The stream reports the [`ExecRoute`] taken and the projection
/// variables, and can be collected into an [`AnswerSet`] with
/// [`AnswerStream::into_set`].
pub struct AnswerStream {
    vars: Arc<[Variable]>,
    route: ExecRoute,
    graph: GraphHandle,
    rows: IdRows,
    next: usize,
}

impl AnswerStream {
    /// A stream over `rows`, ids of `graph`'s dictionary.
    pub(crate) fn new(
        vars: Arc<[Variable]>,
        route: ExecRoute,
        graph: GraphHandle,
        rows: IdRows,
    ) -> Self {
        AnswerStream {
            vars,
            route,
            graph,
            rows,
            next: 0,
        }
    }

    /// The projection variables, in tuple order.
    pub fn vars(&self) -> &[Variable] {
        &self.vars
    }

    /// The route the execution took.
    pub fn route(&self) -> ExecRoute {
        self.route
    }

    /// Drains the stream into an [`AnswerSet`].
    pub fn into_set(self) -> AnswerSet {
        let vars = var_names(&self.vars);
        AnswerSet {
            vars,
            tuples: self.collect(),
        }
    }

    /// The undecoded id rows of `streams` and the graph whose
    /// dictionary they index — when every stream is untouched and over
    /// that one graph. Otherwise (ids of different graphs, a stream
    /// already advanced) the streams come back unchanged.
    pub(crate) fn into_shared_ids(
        streams: Vec<AnswerStream>,
    ) -> Result<(GraphHandle, Vec<IdRows>), Vec<AnswerStream>> {
        let Some(graph) = streams.first().map(|s| s.graph.clone()) else {
            return Err(streams);
        };
        let shared = streams
            .iter()
            .all(|s| s.next == 0 && std::ptr::eq::<Graph>(&*graph, &*s.graph));
        if !shared {
            return Err(streams);
        }
        Ok((graph, streams.into_iter().map(|s| s.rows).collect()))
    }
}

impl Iterator for AnswerStream {
    type Item = Vec<Term>;

    fn next(&mut self) -> Option<Vec<Term>> {
        (self.next < self.rows.len()).then(|| {
            self.next += 1;
            let row = self.rows.row(self.next - 1);
            row.iter().map(|&id| self.graph.term(id).clone()).collect()
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.rows.len() - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for AnswerStream {}

/// A process-unique token identifying the session a prepared query was
/// compiled against. Compiled plans are only meaningful relative to
/// their session's caches and dictionaries, so execution on a different
/// session is rejected with [`RpsError::SessionMismatch`]. Shared with
/// the federated sessions in `rps-p2p`.
pub fn next_session_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The projection variables of a query, in tuple order, as the `Arc` a
/// plan shares with its streams: one allocation, each name shared with
/// the query's own.
pub(crate) fn stream_vars(query: &GraphPatternQuery) -> Arc<[Variable]> {
    query.free_vars().into()
}

/// The names of `vars`, as an [`AnswerSet`] holds them.
pub(crate) fn var_names(vars: &[Variable]) -> Vec<String> {
    vars.iter().map(|v| v.name().to_string()).collect()
}

/// The builder of the answering façade: one system, one configuration
/// and, once [`Session::universal_solution`] has chased it, the
/// universal solution. It answers nothing; [`Session::freeze`] turns it
/// into the [`FrozenSession`] that does. See the [module docs](self)
/// for an end-to-end example.
pub struct Session {
    system: RdfPeerSystem,
    config: EngineConfig,
    /// Built once: the rewriter and the quotient chase quotient by it,
    /// and every quotient plan canonicalises its query with it.
    eq_index: Arc<EquivalenceIndex>,
    /// The universal solution, once a chase under the configured
    /// budgets reached its fixpoint. An exhausted chase caches nothing.
    solution: Option<Arc<UniversalSolution>>,
}

impl Session {
    /// Builds a session after validating the system. This is the
    /// preferred entry point: schema violations surface here as
    /// [`RpsError::Validation`] instead of as wrong answers later.
    pub fn open(system: RdfPeerSystem, config: EngineConfig) -> Result<Self, RpsError> {
        system.validate()?;
        Ok(Self::new(system, config))
    }

    /// Builds a session without validating the system (for callers that
    /// constructed the system programmatically and validated it already).
    pub fn new(system: RdfPeerSystem, config: EngineConfig) -> Self {
        let eq_index = Arc::new(EquivalenceIndex::from_mappings(system.equivalences()));
        Session {
            system,
            config,
            eq_index,
            solution: None,
        }
    }

    /// The underlying system.
    pub fn system(&self) -> &RdfPeerSystem {
        &self.system
    }

    /// The configuration [`Session::freeze`] will freeze.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Mutable access to the configuration. Nothing has been compiled
    /// yet, so a change simply applies to the session frozen later; a
    /// cached universal solution is complete and stays valid whatever
    /// the budgets become.
    pub fn config_mut(&mut self) -> &mut EngineConfig {
        &mut self.config
    }

    /// The union-find index over the system's equivalence mappings.
    pub fn equivalence_index(&self) -> &EquivalenceIndex {
        &self.eq_index
    }

    /// The materialised universal solution, chasing on first use; a
    /// solution chased here is the one [`Session::freeze`] serves (and,
    /// under [`Strategy::Auto`], the one an exhausted rewriting falls
    /// back to). Returns [`RpsError::ChaseBudget`] if the chase could
    /// not reach a fixpoint within the configured budgets — an
    /// incomplete solution is unsound to answer over, so it is not
    /// cached: raise [`EngineConfig::chase`] and call again.
    pub fn universal_solution(&mut self) -> Result<Arc<UniversalSolution>, RpsError> {
        if let Some(solution) = &self.solution {
            return Ok(solution.clone());
        }
        let solution = complete(chase_system(&self.system, &self.config.chase))?;
        Ok(self.solution.insert(solution).clone())
    }

    /// What a materialising [`Session::freeze`] chases when no solution
    /// was chased before it. A full system — no existential variable in
    /// any assertion's conclusion — chases its quotient by the
    /// equivalence mappings (`chase::chase_quotient`: no equivalence
    /// copies), and its answers expand over the classes that occur in
    /// it; any other system, the universal solution. Either way under
    /// the configured budgets, [`RpsError::ChaseBudget`] on exhaustion.
    fn materialise(&self) -> Result<Chased, RpsError> {
        let (system, chase) = (&self.system, &self.config.chase);
        let mut conclusions = system.assertions().iter().map(|gma| &gma.conclusion);
        if conclusions.any(|c| !c.existential_vars().is_empty()) {
            return Ok((complete(chase_system(system, chase))?, None));
        }
        let (quotient, classes) = chase_quotient(system, &self.eq_index, chase);
        // A table no class occurs in would expand every row to itself.
        let classes = (!classes.is_empty()).then(|| Arc::new(classes));
        Ok((complete(quotient)?, classes))
    }
}

/// A chased solution, if the chase reached its fixpoint: an incomplete
/// one is unsound to answer over.
fn complete(solution: UniversalSolution) -> Result<Arc<UniversalSolution>, RpsError> {
    if !solution.complete {
        return Err(RpsError::ChaseBudget {
            rounds: solution.stats.rounds,
            triples: solution.graph.len(),
        });
    }
    Ok(Arc::new(solution))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answers::certain_answers;
    use crate::rewriting::RpsRewriter;
    use crate::system::RpsBuilder;
    use crate::PeerId;
    use rps_query::{GraphPattern, TermOrVar, Variable};

    fn v(n: &str) -> Variable {
        Variable::new(n)
    }

    pub(super) fn linear_system() -> RdfPeerSystem {
        let mut a = PeerId(0);
        let mut b = PeerId(0);
        let premise = GraphPatternQuery::new(
            vec![v("x"), v("y")],
            GraphPattern::triple(
                TermOrVar::var("x"),
                TermOrVar::iri("http://b/actor"),
                TermOrVar::var("y"),
            ),
        );
        let conclusion = GraphPatternQuery::new(
            vec![v("x"), v("y")],
            GraphPattern::triple(
                TermOrVar::var("x"),
                TermOrVar::iri("http://a/cast"),
                TermOrVar::var("y"),
            ),
        );
        RpsBuilder::new()
            .peer_turtle("A", "<http://a/f1> <http://a/cast> <http://a/p1> .", &mut a)
            .unwrap()
            .peer_turtle(
                "B",
                "<http://b/f2> <http://b/actor> <http://b/p2> .",
                &mut b,
            )
            .unwrap()
            .assertion(b, a, premise, conclusion)
            .unwrap()
            .equivalence("http://a/p1", "http://b/p2")
            .build()
    }

    pub(super) fn cast_query() -> GraphPatternQuery {
        GraphPatternQuery::new(
            vec![v("x"), v("y")],
            GraphPattern::triple(
                TermOrVar::var("x"),
                TermOrVar::iri("http://a/cast"),
                TermOrVar::var("y"),
            ),
        )
    }

    /// `(s A o)` on the chain's edge predicate.
    fn edge(s: &str, o: &str) -> GraphPattern {
        GraphPattern::triple(
            TermOrVar::var(s),
            TermOrVar::iri("http://c/A"),
            TermOrVar::var(o),
        )
    }

    fn edge_query() -> GraphPatternQuery {
        GraphPatternQuery::new(vec![v("x"), v("y")], edge("x", "y"))
    }

    /// The transitive-closure chain of `len` edges (the Proposition 3
    /// workload), built here to avoid a dev-dependency cycle with
    /// `rps-lodgen`.
    fn transitive_system(len: usize) -> Result<RdfPeerSystem, RpsError> {
        let turtle: String = (0..len)
            .map(|i| format!("<http://c/n{i}> <http://c/A> <http://c/n{}> .\n", i + 1))
            .collect();
        let two_hops =
            GraphPatternQuery::new(vec![v("x"), v("y")], edge("x", "z").and(edge("z", "y")));
        let mut p = PeerId(0);
        Ok(RpsBuilder::new()
            .peer_turtle("chain", &turtle, &mut p)?
            .assertion(p, p, two_hops, edge_query())?
            .build())
    }

    fn frozen(system: RdfPeerSystem, config: EngineConfig) -> Result<FrozenSession, RpsError> {
        Session::open(system, config)?.freeze()
    }

    fn materialise() -> EngineConfig {
        EngineConfig::default().with_strategy(Strategy::Materialise)
    }

    #[test]
    fn routes_agree_on_linear_system() -> Result<(), RpsError> {
        let sys = linear_system();
        let mat = frozen(
            sys.clone(),
            EngineConfig::default().with_strategy(Strategy::Materialise),
        )?;
        let rew = frozen(
            sys,
            EngineConfig::default().with_strategy(Strategy::Rewrite),
        )?;
        let m = mat.answer(&cast_query())?;
        assert_eq!(m.route(), ExecRoute::Materialised);
        let r = rew.answer(&cast_query())?;
        assert_eq!(r.route(), ExecRoute::Rewritten);
        let m = m.into_set();
        assert_eq!(m.tuples, r.into_set().tuples);
        // The equivalence p1 ≡ p2 is answered over, not just the mapping.
        assert!(m
            .tuples
            .contains(&vec![Term::iri("http://a/f1"), Term::iri("http://b/p2")]));
        Ok(())
    }

    #[test]
    fn prepared_queries_execute_repeatedly() -> Result<(), RpsError> {
        let s = frozen(linear_system(), EngineConfig::default())?;
        let prepared = s.prepare(&cast_query())?;
        assert_eq!(prepared.route(), ExecRoute::Rewritten);
        assert!(prepared.branch_count().is_some_and(|n| n >= 2));
        let first = s.execute(&prepared)?.into_set();
        let second = s.execute(&prepared)?.into_set();
        assert_eq!(first.tuples, second.tuples);
        assert_eq!(first.len(), 4);
        Ok(())
    }

    #[test]
    fn stream_is_lazy_and_exact_sized() -> Result<(), RpsError> {
        let s = frozen(
            linear_system(),
            EngineConfig::default().with_strategy(Strategy::Materialise),
        )?;
        let mut stream = s.answer(&cast_query())?;
        let n = stream.len();
        assert_eq!(n, 4);
        assert!(stream.next().is_some());
        assert_eq!(stream.len(), n - 1);
        assert_eq!(stream.vars(), &[Variable::new("x"), Variable::new("y")]);
        Ok(())
    }

    #[test]
    fn chase_budget_is_a_typed_error() -> Result<(), RpsError> {
        let sys = transitive_system(12)?;
        let mut s = Session::new(
            sys,
            EngineConfig::default()
                .with_strategy(Strategy::Materialise)
                .with_chase(RpsChaseConfig {
                    max_rounds: 1,
                    max_triples: 10_000,
                    ..RpsChaseConfig::default()
                }),
        );
        // An exhausted chase is an error every time and caches nothing…
        for _ in 0..2 {
            assert!(matches!(
                s.universal_solution(),
                Err(RpsError::ChaseBudget { .. })
            ));
        }
        // …so raising the budget and retrying re-chases and succeeds, as
        // the error message advises, and the frozen session serves it.
        s.config_mut().chase = RpsChaseConfig::default();
        let solution = s.universal_solution()?;
        assert!(solution.complete);
        let stream = s.freeze()?.answer(&edge_query())?;
        assert_eq!(stream.len(), 13 * 12 / 2);
        Ok(())
    }

    #[test]
    fn exhausted_rewrite_budget_is_typed_and_auto_falls_back() -> Result<(), RpsError> {
        // A zero-depth budget makes even a linear system's rewriting
        // non-exhaustive. Explicit Rewrite reports the typed error, even
        // with a solution chased before the freeze…
        let tiny = RewriteConfig {
            max_depth: 0,
            max_cqs: 10,
        };
        let mut strict = Session::open(
            linear_system(),
            EngineConfig::default()
                .with_strategy(Strategy::Rewrite)
                .with_rewrite(tiny.clone()),
        )?;
        strict.universal_solution()?;
        assert!(matches!(
            strict.freeze()?.prepare(&cast_query()),
            Err(RpsError::RewriteBudget { .. })
        ));
        // …while Auto falls back to the (exact) solution chased before the
        // freeze and records why the route changed.
        let mut auto = Session::open(linear_system(), EngineConfig::default().with_rewrite(tiny))?;
        auto.universal_solution()?;
        let auto = auto.freeze()?;
        let prepared = auto.prepare(&cast_query())?;
        assert_eq!(prepared.route(), ExecRoute::Materialised);
        assert!(prepared.rewrite_fell_back());
        assert_eq!(auto.execute(&prepared)?.len(), 4);
        // A normally-budgeted preparation does not set the flag.
        let ok = frozen(linear_system(), EngineConfig::default())?;
        let prepared = ok.prepare(&cast_query())?;
        assert!(!prepared.rewrite_fell_back());
        assert_eq!(prepared.route(), ExecRoute::Rewritten);
        Ok(())
    }

    #[test]
    fn foreign_prepared_queries_are_rejected() -> Result<(), RpsError> {
        let sys = linear_system();
        let a = frozen(sys.clone(), EngineConfig::default())?;
        let b = frozen(sys, EngineConfig::default())?;
        let prepared = a.prepare(&cast_query())?;
        assert!(matches!(
            b.execute(&prepared),
            Err(RpsError::SessionMismatch)
        ));
        // The owning session, and any clone of it, still executes it.
        assert_eq!(a.execute(&prepared)?.len(), 4);
        assert_eq!(a.clone().execute(&prepared)?.len(), 4);
        Ok(())
    }

    #[test]
    fn frozen_session_executes_all_routes() -> Result<(), RpsError> {
        let solution = chase_system(&linear_system(), &RpsChaseConfig::default());
        let expected = certain_answers(&solution, &cast_query());
        for strategy in [Strategy::Materialise, Strategy::Rewrite, Strategy::Auto] {
            let frozen = frozen(
                linear_system(),
                EngineConfig::default().with_strategy(strategy),
            )?;
            let prepared = frozen.prepare(&cast_query())?;
            let got = frozen.execute(&prepared)?.into_set();
            assert_eq!(got.tuples, expected.tuples, "{strategy:?}");
        }
        Ok(())
    }

    #[test]
    fn frozen_plan_cache_hits_and_bounds() {
        let frozen = Session::open(linear_system(), EngineConfig::default())
            .unwrap()
            .freeze_with_cache_capacity(1)
            .unwrap();
        let p1 = frozen.prepare(&cast_query()).unwrap();
        // An α-equivalent renaming of the same query is a cache hit and
        // shares the identical plan.
        let renamed = GraphPatternQuery::new(
            vec![v("a"), v("b")],
            GraphPattern::triple(
                TermOrVar::var("a"),
                TermOrVar::iri("http://a/cast"),
                TermOrVar::var("b"),
            ),
        );
        let p2 = frozen.prepare(&renamed).unwrap();
        assert!(Arc::ptr_eq(&p1, &p2));
        let stats = frozen.plan_cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.capacity, 1);
        // A different query evicts the old entry (capacity 1)…
        let other = GraphPatternQuery::new(
            vec![v("x"), v("y")],
            GraphPattern::triple(
                TermOrVar::var("x"),
                TermOrVar::iri("http://b/actor"),
                TermOrVar::var("y"),
            ),
        );
        frozen.prepare(&other).unwrap();
        assert_eq!(frozen.plan_cache_stats().entries, 1);
        // …and hit answers equal miss answers.
        let hit = frozen.execute(&p2).unwrap().into_set();
        let miss = frozen
            .execute(&frozen.prepare(&cast_query()).unwrap())
            .unwrap()
            .into_set();
        assert_eq!(hit.tuples, miss.tuples);
    }

    #[test]
    fn frozen_auto_without_solution_reports_rewrite_budget() {
        // Auto over an FO-rewritable system freezes without a solution;
        // a budget-starved rewriting is then a typed error (no lazy
        // chase exists to fall back to).
        let tiny = RewriteConfig {
            max_depth: 0,
            max_cqs: 10,
        };
        let frozen = Session::open(linear_system(), EngineConfig::default().with_rewrite(tiny))
            .unwrap()
            .freeze()
            .unwrap();
        assert!(matches!(
            frozen.prepare(&cast_query()),
            Err(RpsError::RewriteBudget { .. })
        ));
    }

    #[test]
    fn frozen_star_strategy_checked_at_freeze() {
        let cfg = EngineConfig::default()
            .with_strategy(Strategy::Rewrite)
            .with_semantics(Semantics::Star);
        assert!(matches!(
            Session::open(linear_system(), cfg).unwrap().freeze(),
            Err(RpsError::StarNeedsMaterialisation)
        ));
    }

    #[test]
    fn literal_subject_conclusions_are_never_joined_on() -> Result<(), RpsError> {
        // `(x p y) ⇝ (y q x)` would put the literal in subject position;
        // `(x q y) ⇝ (y r y)` would then derive a valid triple from that
        // non-triple.
        let cq = |head: &[&str], [s, p, o]: [&str; 3]| {
            let atom =
                GraphPattern::triple(TermOrVar::var(s), TermOrVar::iri(p), TermOrVar::var(o));
            GraphPatternQuery::new(head.iter().map(|n| v(n)).collect(), atom)
        };
        let (xy, y) = (["x", "y"], ["y"]);
        let mut a = PeerId(0);
        let sys = RpsBuilder::new()
            .peer_turtle("A", "<http://s> <http://p> \"lit\" .", &mut a)?
            .assertion(
                a,
                a,
                cq(&xy, ["x", "http://p", "y"]),
                cq(&xy, ["y", "http://q", "x"]),
            )?
            .assertion(
                a,
                a,
                cq(&y, ["x", "http://q", "y"]),
                cq(&y, ["y", "http://r", "y"]),
            )?
            .build();
        let model = crate::chase::chase_quotient_model(&sys, &RpsChaseConfig::default());
        assert_eq!((model.stats.invalid_firings, model.graph.len()), (1, 1));
        // `http://q` and `http://r` are in no peer's schema: unvalidated.
        let frozen = Session::new(sys, materialise()).freeze()?;
        assert_eq!(frozen.answer(&cq(&xy, ["x", "http://r", "y"]))?.len(), 0);
        Ok(())
    }

    #[test]
    fn star_semantics_requires_materialisation() -> Result<(), RpsError> {
        let cfg = EngineConfig::default()
            .with_strategy(Strategy::Rewrite)
            .with_semantics(Semantics::Star);
        assert!(matches!(
            frozen(linear_system(), cfg.clone()),
            Err(RpsError::StarNeedsMaterialisation)
        ));
        // Auto silently picks the materialised route instead.
        let mut s = Session::open(linear_system(), cfg)?;
        s.config_mut().strategy = Strategy::Auto;
        let prepared = s.freeze()?.prepare(&cast_query())?;
        assert_eq!(prepared.route(), ExecRoute::Materialised);
        Ok(())
    }

    #[test]
    fn arity_mismatch_is_a_typed_error() {
        let rewriter = RpsRewriter::new(&linear_system());
        let budgets = RewriteConfig::default();
        assert!(matches!(
            rewriter.is_certain_answer(&cast_query(), &[Term::iri("http://a/f1")], &budgets),
            Err(RpsError::Arity {
                expected: 2,
                got: 1
            })
        ));
        assert!(rewriter
            .is_certain_answer(
                &cast_query(),
                &[Term::iri("http://b/f2"), Term::iri("http://a/p1")],
                &budgets
            )
            .unwrap());
    }
}
