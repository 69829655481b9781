//! The unified answering API: [`Session`], [`PreparedQuery`] and
//! [`AnswerStream`].
//!
//! The RPS model has one conceptual operation — answer a conjunctive
//! query over a peer system under a chosen strategy and semantics — and
//! this module is its single façade. A [`Session`] owns a validated
//! [`RdfPeerSystem`] plus an [`EngineConfig`] and caches every heavy
//! artefact (universal solution, rewriter, Datalog least model) across
//! queries. [`Session::prepare`] compiles a query **once** — route
//! resolution, canonical UCQ rewriting, id-level plan compilation — into
//! a [`PreparedQuery`] that [`Session::execute`] can run repeatedly.
//! Results come back as a streaming [`AnswerStream`] that decodes
//! id-level tuples lazily instead of materialising term vectors up
//! front, and every failure is a typed [`RpsError`].
//!
//! Everything below the façade runs on the `rps_rdf` triple store: the
//! materialise route chases into a [`rps_rdf::Graph`] (sorted-run
//! storage by default — see `rps_rdf::store`), the Datalog route chases
//! the equivalence quotient into another, the rewrite route evaluates its
//! UCQs over the canonical stored one, and the id-level plans compiled
//! here are `rps_query::PreparedQueryIds` range scans against its
//! permutation indexes.
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
//! let mut session = Session::open(system, EngineConfig::default()).unwrap();
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
use crate::chase::{chase_system, RpsChaseConfig, UniversalSolution};
use crate::datalog_route::DatalogEngine;
use crate::equivalence::{canonicalize_query, expand_rows, ClassTable, EquivalenceIndex};
use crate::error::RpsError;
use crate::rewriting::RpsRewriter;
use crate::system::RdfPeerSystem;
use rps_query::{
    GraphPatternQuery, IdRows, JoinOrder, PreparedQueryIds, RowSink, Semantics, Variable,
};
use rps_rdf::{Graph, SealConfig, Term, TermId};
use rps_tgd::RewriteConfig;
use std::collections::BTreeSet;
use std::sync::Arc;

pub mod frozen;
pub use frozen::{
    canonical_plan_key, FrozenSession, PlanCache, PlanCacheStats, DEFAULT_PLAN_CACHE_CAPACITY,
};

/// Query-answering strategy.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Strategy {
    /// Materialise the universal solution once (Algorithm 1) and evaluate
    /// queries over it. Amortises well under high query rates.
    Materialise,
    /// Rewrite each query into a UCQ over the sources (Proposition 2).
    /// No materialisation; pays per query.
    Rewrite,
    /// Chase the equivalence quotient of the sources (Algorithm 1, under
    /// [`EngineConfig::chase`]'s budgets) and expand answers over the
    /// classes: for full graph mapping assertions — required here — that
    /// is the least model of their Datalog program (future work item 1),
    /// covering the systems Proposition 3 puts beyond FO rewriting.
    Datalog,
    /// Use rewriting when the mapping TGDs are FO-rewritable, otherwise
    /// materialise.
    #[default]
    Auto,
}

/// How a prepared query actually executes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExecRoute {
    /// Evaluated over a materialised universal solution.
    Materialised,
    /// Evaluated through a (complete) UCQ rewriting.
    Rewritten,
    /// Evaluated over the least model of a full system: the chase of
    /// its equivalence quotient, answers expanded over the classes.
    Datalog,
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
    /// Chase budgets for the materialised and Datalog routes.
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
    /// Physical execution knobs: columnar compression of a frozen
    /// solution's sealed runs, and the join-order policy.
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

    /// Overrides the physical execution knobs.
    pub fn with_exec(mut self, exec: ExecConfig) -> Self {
        self.exec = exec;
        self
    }
}

/// Physical execution configuration: how the logical plans of this
/// module actually touch the triple store. Orthogonal to the *answer*
/// configuration ([`Strategy`], [`Semantics`], budgets): any setting
/// here yields byte-identical answers — it only changes wall-clock time
/// and resident bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecConfig {
    /// Encode a frozen solution's sealed runs as delta-varint columnar
    /// blocks when they are large enough to benefit. Off, freezing
    /// serves the one plain run per permutation the chase sealed.
    pub compress: bool,
    /// Join-order policy for id-level plans. [`JoinOrder::Auto`] uses
    /// the stats-driven cost model whenever the graph is sealed (and
    /// therefore carries a [`rps_rdf::GraphStats`] snapshot), falling
    /// back to the shape heuristic otherwise; the other variants force
    /// one path for A/B comparison. Like every knob here, the choice
    /// never changes answers — only the order conjuncts are probed in.
    pub order: JoinOrder,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            compress: false,
            order: JoinOrder::Auto,
        }
    }
}

impl ExecConfig {
    /// The [`SealConfig`] a frozen graph should be resealed with.
    pub fn seal_config(&self) -> SealConfig {
        SealConfig {
            compress: self.compress,
            ..SealConfig::default()
        }
    }

    /// Whether freezing should physically reseal the solution graph
    /// (compression requested).
    pub fn wants_reseal(&self) -> bool {
        self.compress
    }
}

/// Whichever `Arc` keeps a sealed graph — and with it the dictionary a
/// plan's ids index — alive: a chased solution (the universal solution,
/// the Datalog least model), or the rewriter's canonical stored graph.
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
/// branch over the universal solution (which is saturated, so no
/// classes); rewritten = the UCQ's branches over the canonical stored
/// graph; Datalog = the materialised plan over the chase of the quotient,
/// with its classes.
/// Carrying the graph makes repeated execution and lazy answer decoding
/// independent of the session's own caches.
pub(crate) struct Plan {
    pub(crate) graph: GraphHandle,
    pub(crate) branches: Vec<Branch>,
    pub(crate) classes: Option<Arc<ClassTable>>,
}

impl Plan {
    /// `query` as the one all-variable branch over `graph`. The graph is
    /// frozen, so the branch compiles without interning: an unknown
    /// constant is simply unsatisfiable.
    pub(crate) fn single(
        graph: GraphHandle,
        query: &GraphPatternQuery,
        order: JoinOrder,
        classes: Option<Arc<ClassTable>>,
    ) -> Self {
        let plan = PreparedQueryIds::compile_only_with(&graph, query, order);
        Plan {
            graph,
            branches: vec![(plan, Vec::new())],
            classes,
        }
    }

    /// `query` as the one branch over a chased solution. Over a quotient
    /// (`classes: Some`) the query's constants go onto `index`'s class
    /// representatives first, as the chased graph's did.
    pub(crate) fn chased(
        (solution, classes): Chased,
        index: &EquivalenceIndex,
        query: &GraphPatternQuery,
        order: JoinOrder,
    ) -> Self {
        let graph = GraphHandle::Solution(solution);
        match classes {
            Some(_) => Plan::single(graph, &canonicalize_query(query, index), order, classes),
            None => Plan::single(graph, query, order, None),
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
        AnswerStream {
            vars,
            route,
            inner: StreamInner::Ids {
                graph: self.graph.clone(),
                rows,
                next: 0,
            },
        }
    }
}

/// A query compiled once against a [`Session`] — route resolved,
/// result semantics captured, rewriting expanded, id-level pattern plan
/// built — and executable any number of times with [`Session::execute`]
/// *on the session that prepared it* (compiled plans reference that
/// session's caches; execution elsewhere returns
/// [`RpsError::SessionMismatch`]).
pub struct PreparedQuery {
    session_id: u64,
    /// The session's configuration generation at prepare time; a later
    /// [`Session::config_mut`] bumps the session's counter, making this
    /// plan stale ([`RpsError::StalePlan`] at execute).
    generation: u32,
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
    /// against the materialised solution instead. The answers are still
    /// exact — this flag only explains the route change. An explicit
    /// [`Strategy::Rewrite`] reports the same condition as the typed
    /// [`RpsError::RewriteBudget`] instead of falling back.
    pub fn rewrite_fell_back(&self) -> bool {
        self.rewrite_fell_back
    }

    /// The result semantics this query was compiled under. Captured at
    /// prepare time; a later [`Session::config_mut`] call marks the plan
    /// stale ([`RpsError::StalePlan`] at execute) rather than letting it
    /// silently diverge from the active configuration.
    pub fn semantics(&self) -> Semantics {
        self.semantics
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

/// A streaming iterator over answer tuples.
///
/// Id-level results (every local route) are decoded to [`Term`]s
/// lazily, one tuple per `next()` call, instead of materialising the
/// whole answer vector up front; already-decoded results (federation)
/// pass through.
/// The stream reports the [`ExecRoute`] taken and the projection
/// variables, and can be collected into an [`AnswerSet`] with
/// [`AnswerStream::into_set`].
pub struct AnswerStream {
    vars: Arc<[Variable]>,
    route: ExecRoute,
    inner: StreamInner,
}

enum StreamInner {
    Ids {
        graph: GraphHandle,
        rows: IdRows,
        next: usize,
    },
    Terms(std::collections::btree_set::IntoIter<Vec<Term>>),
}

impl AnswerStream {
    /// A stream over already-decoded tuples. Building block for
    /// alternative executors (the federated engine in `rps-p2p`).
    pub fn from_terms(
        vars: impl Into<Arc<[Variable]>>,
        route: ExecRoute,
        tuples: BTreeSet<Vec<Term>>,
    ) -> Self {
        AnswerStream {
            vars: vars.into(),
            route,
            inner: StreamInner::Terms(tuples.into_iter()),
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
    /// dictionary they index — when every stream is an untouched id
    /// stream over that one graph. Otherwise (decoded tuples, ids of
    /// different graphs, a stream already advanced) the streams come
    /// back unchanged.
    pub(crate) fn into_shared_ids(
        streams: Vec<AnswerStream>,
    ) -> Result<(GraphHandle, Vec<IdRows>), Vec<AnswerStream>> {
        let Some(StreamInner::Ids { graph, .. }) = streams.first().map(|s| &s.inner) else {
            return Err(streams);
        };
        let graph = graph.clone();
        let shared = streams.iter().all(|s| {
            matches!(&s.inner, StreamInner::Ids { graph: other, next: 0, .. }
                if std::ptr::eq::<Graph>(&*graph, &**other))
        });
        if !shared {
            return Err(streams);
        }
        let rows = streams
            .into_iter()
            .filter_map(|s| match s.inner {
                StreamInner::Ids { rows, .. } => Some(rows),
                StreamInner::Terms(_) => None,
            })
            .collect();
        Ok((graph, rows))
    }
}

impl Iterator for AnswerStream {
    type Item = Vec<Term>;

    fn next(&mut self) -> Option<Vec<Term>> {
        match &mut self.inner {
            StreamInner::Ids { graph, rows, next } => (*next < rows.len()).then(|| {
                *next += 1;
                let row = rows.row(*next - 1);
                row.iter().map(|&id| graph.term(id).clone()).collect()
            }),
            StreamInner::Terms(iter) => iter.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.inner {
            StreamInner::Ids { rows, next, .. } => {
                let left = rows.len() - next;
                (left, Some(left))
            }
            StreamInner::Terms(iter) => iter.size_hint(),
        }
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

/// The one route → [`Plan`] body behind [`Session::prepare`] and
/// [`FrozenSession::prepare`], which differ only in where the compile
/// state comes from: the `rewriter` on the rewritten route, and `chased`
/// yields the solution to plan against — the Datalog least model on that
/// route, the universal solution otherwise; `Ok(None)` when there is
/// none and none can be computed (a frozen session that froze without
/// one). An incomplete rewriting is unsound to trust: it falls back to
/// the solution (which is exact) unless the strategy is the explicit
/// [`Strategy::Rewrite`] or there is no solution — then it is
/// [`RpsError::RewriteBudget`].
fn compile_query(
    (id, generation): (u64, u32),
    config: &EngineConfig,
    index: &EquivalenceIndex,
    route: ExecRoute,
    query: &GraphPatternQuery,
    rewriter: Option<&RpsRewriter>,
    chased: impl FnOnce() -> Result<Option<Chased>, RpsError>,
) -> Result<PreparedQuery, RpsError> {
    let plan = |chased: Chased| Plan::chased(chased, index, query, config.exec.order);
    let (route, rewrite_fell_back, plan) = match (route, rewriter) {
        (ExecRoute::Rewritten, Some(rewriter)) => {
            let rewriting = rewriter.rewrite_canonical(query, &config.rewrite);
            if rewriting.complete {
                (route, false, rewriter.plan(&rewriting))
            } else {
                // The explicit Rewrite strategy never falls back.
                let fallback = match config.strategy {
                    Strategy::Rewrite => None,
                    _ => chased()?,
                };
                let Some(solution) = fallback else {
                    return Err(RpsError::RewriteBudget {
                        explored: rewriting.explored,
                        max_depth: config.rewrite.max_depth,
                        max_cqs: config.rewrite.max_cqs,
                    });
                };
                (ExecRoute::Materialised, true, plan(solution))
            }
        }
        // The chased routes. (The universal solution is exact whatever
        // the route, should a caller ever come without its rewriter.)
        _ => {
            let solution = chased()?.expect("the caller holds a solution for this route");
            let route = match route {
                ExecRoute::Datalog => route,
                _ => ExecRoute::Materialised,
            };
            (route, false, plan(solution))
        }
    };
    Ok(PreparedQuery {
        session_id: id,
        generation,
        vars: stream_vars(query),
        route,
        semantics: config.semantics,
        rewrite_fell_back,
        plan,
    })
}

/// The one execute body behind [`Session::execute`] and
/// [`FrozenSession::execute`]: the session-id / generation check, then
/// the plan. A plan touches only the immutable data it carries, so the
/// frozen session runs this concurrently from many threads.
fn execute_prepared(
    prepared: &PreparedQuery,
    (id, generation): (u64, u32),
) -> Result<AnswerStream, RpsError> {
    if prepared.session_id != id {
        return Err(RpsError::SessionMismatch);
    }
    if prepared.generation != generation {
        return Err(RpsError::StalePlan {
            prepared: prepared.generation,
            current: generation,
        });
    }
    Ok(prepared
        .plan
        .execute(prepared.vars.clone(), prepared.route, prepared.semantics))
}

/// The unified answering façade: one system, one configuration, cached
/// heavy state, typed errors. See the [module docs](self) for an
/// end-to-end example.
pub struct Session {
    id: u64,
    system: RdfPeerSystem,
    config: EngineConfig,
    /// Bumped by every [`Session::config_mut`] call; prepared queries
    /// are stamped with the generation they were compiled under, so a
    /// post-prepare config change surfaces as [`RpsError::StalePlan`]
    /// instead of silently executing a plan the new configuration would
    /// not have produced.
    generation: u32,
    /// Built once: the rewriter and the Datalog engine quotient by it,
    /// and every quotient plan canonicalises its query with it.
    eq_index: Arc<EquivalenceIndex>,
    solution: Option<Arc<UniversalSolution>>,
    /// The chase budgets the cached (possibly incomplete) solution was
    /// computed under; a later budget change invalidates an incomplete
    /// cache without re-chasing on every call under unchanged budgets.
    solution_budgets: Option<RpsChaseConfig>,
    rewriter: Option<RpsRewriter>,
    datalog: Option<DatalogEngine>,
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
            id: next_session_id(),
            system,
            config,
            generation: 0,
            eq_index,
            solution: None,
            solution_budgets: None,
            rewriter: None,
            datalog: None,
        }
    }

    /// The underlying system.
    pub fn system(&self) -> &RdfPeerSystem {
        &self.system
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Mutable access to the configuration. Changes apply to queries
    /// prepared afterwards; queries prepared *before* the change are
    /// marked stale and report [`RpsError::StalePlan`] when executed —
    /// their compiled route, semantics and budgets may no longer match
    /// the active configuration, and silently running them was a
    /// long-standing footgun. Re-prepare after reconfiguring.
    pub fn config_mut(&mut self) -> &mut EngineConfig {
        self.generation += 1;
        &mut self.config
    }

    /// The current configuration generation (bumped by every
    /// [`Session::config_mut`] call; prepared queries record the
    /// generation they were compiled under).
    pub fn config_generation(&self) -> u32 {
        self.generation
    }

    /// The union-find index over the system's equivalence mappings.
    pub fn equivalence_index(&self) -> &EquivalenceIndex {
        &self.eq_index
    }

    /// The materialised universal solution, chasing on first use.
    /// Returns [`RpsError::ChaseBudget`] if the chase could not reach a
    /// fixpoint within the configured budgets — an incomplete solution is
    /// unsound to answer over. An incomplete cached solution is not
    /// sticky: after raising [`EngineConfig::chase`] the next call
    /// re-runs the chase under the new budgets (retries under unchanged
    /// budgets reuse the cached outcome instead of re-chasing).
    pub fn universal_solution(&mut self) -> Result<Arc<UniversalSolution>, RpsError> {
        materialise(
            &self.system,
            &self.config.chase,
            &mut self.solution,
            &mut self.solution_budgets,
        )
    }

    /// The cached rewriter, built on first use.
    fn rewriter(&mut self) -> &RpsRewriter {
        self.rewriter
            .get_or_insert_with(|| RpsRewriter::with_index(&self.system, self.eq_index.clone()))
    }

    /// Builds the cached Datalog engine — the chase of the quotient under
    /// the current budgets — on first use. A run the budgets cut short is
    /// [`RpsError::ChaseBudget`] and caches nothing.
    fn datalog(&mut self) -> Result<(), RpsError> {
        if self.datalog.is_none() {
            let index = self.eq_index.clone();
            let engine = DatalogEngine::with_index(&self.system, index, &self.config.chase)?;
            self.datalog = Some(engine);
        }
        Ok(())
    }

    /// Resolves the route a fresh preparation of a query would take.
    fn resolve_route(&mut self) -> Result<ExecRoute, RpsError> {
        let star = self.config.semantics == Semantics::Star;
        match self.config.strategy {
            Strategy::Materialise => Ok(ExecRoute::Materialised),
            Strategy::Rewrite if star => Err(RpsError::StarNeedsMaterialisation),
            Strategy::Datalog if star => Err(RpsError::StarNeedsMaterialisation),
            Strategy::Rewrite => Ok(ExecRoute::Rewritten),
            Strategy::Datalog => Ok(ExecRoute::Datalog),
            Strategy::Auto => {
                if !star && self.rewriter().fo_rewritable() {
                    Ok(ExecRoute::Rewritten)
                } else {
                    Ok(ExecRoute::Materialised)
                }
            }
        }
    }

    /// Compiles a query once — route resolution, canonical UCQ rewriting
    /// (id-level, subsumption-pruned) and per-branch plan compilation
    /// over the canonical stored graph, or an id-level plan against the
    /// materialised solution — into a [`PreparedQuery`] for repeated
    /// execution.
    ///
    /// An incomplete rewriting (budget exhaustion, non-FO-rewritable
    /// mappings) is unsound to trust. Under the explicit
    /// [`Strategy::Rewrite`] it is reported as the typed
    /// [`RpsError::RewriteBudget`]; under [`Strategy::Auto`] preparation
    /// falls back to the materialised route (which is exact) and records
    /// the fact on [`PreparedQuery::rewrite_fell_back`].
    pub fn prepare(&mut self, query: &GraphPatternQuery) -> Result<PreparedQuery, RpsError> {
        let route = self.resolve_route()?;
        match route {
            ExecRoute::Rewritten => {
                self.rewriter();
            }
            ExecRoute::Datalog => {
                self.datalog()?;
            }
            _ => {}
        }
        let stamp = (self.id, self.generation);
        // Split borrows: the solution cache is mutated lazily (it may
        // chase) while the rewriter is read.
        let Session {
            system,
            config,
            eq_index,
            solution,
            solution_budgets,
            rewriter,
            datalog,
            ..
        } = self;
        let chased = || match (route, datalog) {
            (ExecRoute::Datalog, Some(engine)) => Ok(Some(engine.chased())),
            _ => materialise(system, &config.chase, solution, solution_budgets)
                .map(|solution| Some((solution, None))),
        };
        compile_query(
            stamp,
            config,
            eq_index,
            route,
            query,
            rewriter.as_ref(),
            chased,
        )
    }

    /// Executes a prepared query, returning a streaming answer iterator.
    /// The query must have been prepared by *this* session
    /// ([`RpsError::SessionMismatch`] otherwise) under the session's
    /// *current* configuration ([`RpsError::StalePlan`] after a
    /// [`Session::config_mut`] call — re-prepare first).
    pub fn execute(&mut self, prepared: &PreparedQuery) -> Result<AnswerStream, RpsError> {
        execute_prepared(prepared, (self.id, self.generation))
    }

    /// Prepares and executes in one call. Prefer [`Session::prepare`] +
    /// [`Session::execute`] when the same query runs repeatedly.
    pub fn answer(&mut self, query: &GraphPatternQuery) -> Result<AnswerStream, RpsError> {
        let prepared = self.prepare(query)?;
        self.execute(&prepared)
    }

    /// Like [`Session::answer`], but drains the stream into an
    /// [`AnswerSet`] and removes equivalence-induced redundancy
    /// (Listing 1's "Result without redundancy").
    pub fn answer_without_redundancy(
        &mut self,
        query: &GraphPatternQuery,
    ) -> Result<AnswerSet, RpsError> {
        let set = self.answer(query)?.into_set();
        Ok(set.without_redundancy(&self.eq_index))
    }

    /// The Example 3 decision procedure through the façade: is `tuple` a
    /// certain answer of `query`? A malformed tuple is
    /// [`RpsError::Arity`].
    pub fn is_certain_answer(
        &mut self,
        query: &GraphPatternQuery,
        tuple: &[Term],
    ) -> Result<bool, RpsError> {
        let cfg = self.config.rewrite.clone();
        self.rewriter().is_certain_answer(query, tuple, &cfg)
    }
}

/// [`Session::universal_solution`] over the session's fields, so
/// [`Session::prepare`] can borrow the rewriter alongside. `budgets` is
/// what the cached solution was chased under: only a budget *change*
/// re-chases an incomplete one.
fn materialise(
    system: &RdfPeerSystem,
    chase: &RpsChaseConfig,
    cache: &mut Option<Arc<UniversalSolution>>,
    budgets: &mut Option<RpsChaseConfig>,
) -> Result<Arc<UniversalSolution>, RpsError> {
    if cache.as_ref().is_some_and(|s| !s.complete) && budgets.as_ref() != Some(chase) {
        *cache = None;
    }
    let sol = cache.get_or_insert_with(|| {
        *budgets = Some(chase.clone());
        Arc::new(chase_system(system, chase))
    });
    if !sol.complete {
        return Err(RpsError::ChaseBudget {
            rounds: sol.stats.rounds,
            triples: sol.graph.len(),
        });
    }
    Ok(sol.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn routes_agree_on_linear_system() {
        let sys = linear_system();
        let mut mat = Session::open(
            sys.clone(),
            EngineConfig::default().with_strategy(Strategy::Materialise),
        )
        .unwrap();
        let mut rew = Session::open(
            sys,
            EngineConfig::default().with_strategy(Strategy::Rewrite),
        )
        .unwrap();
        let m = mat.answer(&cast_query()).unwrap();
        assert_eq!(m.route(), ExecRoute::Materialised);
        let r = rew.answer(&cast_query()).unwrap();
        assert_eq!(r.route(), ExecRoute::Rewritten);
        let m = m.into_set();
        assert_eq!(m.tuples, r.into_set().tuples);
        // The equivalence p1 ≡ p2 is answered over, not just the mapping.
        assert!(m
            .tuples
            .contains(&vec![Term::iri("http://a/f1"), Term::iri("http://b/p2")]));
    }

    #[test]
    fn prepared_queries_execute_repeatedly() {
        let mut s = Session::open(linear_system(), EngineConfig::default()).unwrap();
        let prepared = s.prepare(&cast_query()).unwrap();
        assert_eq!(prepared.route(), ExecRoute::Rewritten);
        assert!(prepared.branch_count().unwrap() >= 2);
        let first = s.execute(&prepared).unwrap().into_set();
        let second = s.execute(&prepared).unwrap().into_set();
        assert_eq!(first.tuples, second.tuples);
        assert_eq!(first.len(), 4);
    }

    #[test]
    fn stream_is_lazy_and_exact_sized() {
        let mut s = Session::open(
            linear_system(),
            EngineConfig::default().with_strategy(Strategy::Materialise),
        )
        .unwrap();
        let mut stream = s.answer(&cast_query()).unwrap();
        let n = stream.len();
        assert_eq!(n, 4);
        assert!(stream.next().is_some());
        assert_eq!(stream.len(), n - 1);
        assert_eq!(stream.vars(), &[Variable::new("x"), Variable::new("y")]);
    }

    #[test]
    fn chase_budget_is_a_typed_error() {
        let sys = crate::datalog_route::tests_support::transitive_system(12);
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
        let err = s.answer(&crate::datalog_route::tests_support::edge_query());
        assert!(matches!(err, Err(RpsError::ChaseBudget { .. })));
        // The incomplete solution is not sticky: raising the budget and
        // retrying re-chases and succeeds, as the error message advises.
        s.config_mut().chase = RpsChaseConfig::default();
        let stream = s
            .answer(&crate::datalog_route::tests_support::edge_query())
            .unwrap();
        assert_eq!(stream.len(), 13 * 12 / 2);
    }

    #[test]
    fn exhausted_rewrite_budget_is_typed_and_auto_falls_back() {
        // A zero-depth budget makes even a linear system's rewriting
        // non-exhaustive. Explicit Rewrite reports the typed error…
        let tiny = RewriteConfig {
            max_depth: 0,
            max_cqs: 10,
        };
        let mut strict = Session::open(
            linear_system(),
            EngineConfig::default()
                .with_strategy(Strategy::Rewrite)
                .with_rewrite(tiny.clone()),
        )
        .unwrap();
        assert!(matches!(
            strict.prepare(&cast_query()),
            Err(RpsError::RewriteBudget { .. })
        ));
        // …while Auto falls back to the (exact) materialised route and
        // records why the route changed.
        let mut auto =
            Session::open(linear_system(), EngineConfig::default().with_rewrite(tiny)).unwrap();
        let prepared = auto.prepare(&cast_query()).unwrap();
        assert_eq!(prepared.route(), ExecRoute::Materialised);
        assert!(prepared.rewrite_fell_back());
        assert_eq!(auto.execute(&prepared).unwrap().len(), 4);
        // A normally-budgeted preparation does not set the flag.
        let mut ok = Session::open(linear_system(), EngineConfig::default()).unwrap();
        let prepared = ok.prepare(&cast_query()).unwrap();
        assert!(!prepared.rewrite_fell_back());
        assert_eq!(prepared.route(), ExecRoute::Rewritten);
    }

    #[test]
    fn foreign_prepared_queries_are_rejected() {
        let sys = linear_system();
        let mut a = Session::open(sys.clone(), EngineConfig::default()).unwrap();
        let mut b = Session::open(sys, EngineConfig::default()).unwrap();
        let prepared = a.prepare(&cast_query()).unwrap();
        assert!(matches!(
            b.execute(&prepared),
            Err(RpsError::SessionMismatch)
        ));
        // The owning session still executes it fine.
        assert_eq!(a.execute(&prepared).unwrap().len(), 4);
    }

    #[test]
    fn config_changes_stale_prepared_plans() {
        let mut s = Session::open(
            linear_system(),
            EngineConfig::default()
                .with_strategy(Strategy::Materialise)
                .with_semantics(Semantics::Star),
        )
        .unwrap();
        let prepared = s.prepare(&cast_query()).unwrap();
        assert_eq!(prepared.semantics(), Semantics::Star);
        let star = s.execute(&prepared).unwrap().into_set();
        // Mutating the config after prepare marks the plan stale:
        // executing it is a typed error instead of silently running a
        // plan the new configuration would not have produced (the old
        // footgun).
        s.config_mut().semantics = Semantics::Certain;
        assert_eq!(s.config_generation(), 1);
        assert!(matches!(
            s.execute(&prepared),
            Err(RpsError::StalePlan {
                prepared: 0,
                current: 1
            })
        ));
        // A fresh preparation picks up the new semantics and executes.
        let certain = s.answer(&cast_query()).unwrap().into_set();
        assert!(certain.tuples.is_subset(&star.tuples));
        assert!(certain.len() < star.len() || certain.tuples == star.tuples);
    }

    #[test]
    fn frozen_session_executes_all_routes() {
        for strategy in [Strategy::Materialise, Strategy::Rewrite, Strategy::Auto] {
            let mut seq = Session::open(
                linear_system(),
                EngineConfig::default().with_strategy(strategy),
            )
            .unwrap();
            let expected = seq.answer(&cast_query()).unwrap().into_set();
            let frozen = Session::open(
                linear_system(),
                EngineConfig::default().with_strategy(strategy),
            )
            .unwrap()
            .freeze()
            .unwrap();
            let prepared = frozen.prepare(&cast_query()).unwrap();
            let got = frozen.execute(&prepared).unwrap().into_set();
            assert_eq!(got.tuples, expected.tuples, "{strategy:?}");
        }
    }

    #[test]
    fn freeze_preserves_prefrozen_prepared_queries() {
        let mut s = Session::open(linear_system(), EngineConfig::default()).unwrap();
        let prepared = s.prepare(&cast_query()).unwrap();
        let before = s.execute(&prepared).unwrap().into_set();
        let frozen = s.freeze().unwrap();
        // Plans carry their substrate; identity and generation carry
        // over, so the pre-freeze plan still runs.
        let after = frozen.execute(&prepared).unwrap().into_set();
        assert_eq!(before.tuples, after.tuples);
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
    fn datalog_route_handles_non_fo_systems() {
        let sys = crate::datalog_route::tests_support::transitive_system(10);
        let mut s = Session::new(
            sys.clone(),
            EngineConfig::default().with_strategy(Strategy::Datalog),
        );
        let stream = s
            .answer(&crate::datalog_route::tests_support::edge_query())
            .unwrap();
        assert_eq!(stream.route(), ExecRoute::Datalog);
        let datalog = stream.into_set();
        let mut mat = Session::new(
            sys,
            EngineConfig::default().with_strategy(Strategy::Materialise),
        );
        let chased = mat
            .answer(&crate::datalog_route::tests_support::edge_query())
            .unwrap()
            .into_set();
        assert_eq!(datalog.tuples, chased.tuples);
        assert_eq!(datalog.len(), 55);
    }

    #[test]
    fn star_semantics_requires_materialisation() {
        let cfg = EngineConfig::default()
            .with_strategy(Strategy::Rewrite)
            .with_semantics(Semantics::Star);
        let mut s = Session::open(linear_system(), cfg).unwrap();
        assert!(matches!(
            s.prepare(&cast_query()),
            Err(RpsError::StarNeedsMaterialisation)
        ));
        // Auto silently picks the materialised route instead.
        s.config_mut().strategy = Strategy::Auto;
        let prepared = s.prepare(&cast_query()).unwrap();
        assert_eq!(prepared.route(), ExecRoute::Materialised);
    }

    #[test]
    fn arity_mismatch_is_a_typed_error() {
        let mut s = Session::open(linear_system(), EngineConfig::default()).unwrap();
        assert!(matches!(
            s.is_certain_answer(&cast_query(), &[Term::iri("http://a/f1")]),
            Err(RpsError::Arity {
                expected: 2,
                got: 1
            })
        ));
        assert!(s
            .is_certain_answer(
                &cast_query(),
                &[Term::iri("http://b/f2"), Term::iri("http://a/p1")]
            )
            .unwrap());
    }
}
