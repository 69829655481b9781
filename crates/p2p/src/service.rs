//! The Section 5 prototype, end to end: a SPARQL query service that
//! (a) rewrites the query to entail the peer mappings and (b) evaluates
//! the rewriting federatedly over the sources.
//!
//! [`FederatedSession`] is the federated counterpart of
//! [`rps_core::Session`], sharing its vocabulary: a builder over an
//! [`RdfPeerSystem`] plus an [`EngineConfig`] (and a cost model and a
//! transport) that answers nothing itself. [`FederatedSession::freeze`]
//! yields the shareable [`FrozenFederatedSession`], which compiles a
//! query **once** with [`FrozenFederatedSession::prepare`] (canonical
//! UCQ rewriting + id-level federation plan) into a
//! [`PreparedFederatedQuery`], executes it any number of times, streams
//! answers through [`rps_core::AnswerStream`], and reports failures as
//! [`rps_core::RpsError`]. SPARQL text rides the same pipeline through
//! the one glue in [`rps_core::sparql`].

use crate::federation::{FederatedEngine, FederationReport, FederationStats, PreparedFederation};
use crate::network::{CostModel, SimNetwork};
use crate::transport::{SimTransport, Transport};
use rps_core::sparql::{execute_sparql_with, PreparedSparql};
use rps_core::{
    next_session_id, AnswerStream, EngineConfig, PlanCache, PlanCacheStats, RdfPeerSystem,
    RpsError, RpsRewriter, SparqlCompiler,
};
use rps_query::sparql::shape::bind_query;
use rps_query::{GraphPatternQuery, Semantics, SparqlResult, TermOrVar, Variable};
use rps_rdf::Term;
use std::sync::{Arc, Mutex};

/// A query compiled once against a [`FrozenFederatedSession`]: the
/// canonical UCQ rewriting is expanded and every branch is routed,
/// constant-resolved and id-compiled for repeated federated execution —
/// on the session that prepared it (the compiled plan's term ids belong
/// to that session's answer dictionary; execution elsewhere returns
/// [`RpsError::SessionMismatch`]).
pub struct PreparedFederatedQuery {
    session_id: u64,
    /// The projection variables, shared with every stream.
    vars: Arc<[Variable]>,
    prepared: PreparedFederation,
}

impl PreparedFederatedQuery {
    /// Number of UNION branches compiled.
    pub fn branch_count(&self) -> usize {
        self.prepared.branch_count()
    }
}

/// Result of one federated execution: a streaming answer iterator plus
/// the run's traffic statistics and fault-tolerance report. The
/// underlying rewriting is always exhaustive — a truncated one never
/// prepares ([`RpsError::RewriteBudget`]).
pub struct FederatedAnswer {
    /// The answers (route is [`rps_core::ExecRoute::Federated`]).
    pub stream: AnswerStream,
    /// Number of UNION branches evaluated.
    pub branches: usize,
    /// Federation traffic statistics.
    pub stats: FederationStats,
    /// Simulated wall-clock of the federated round.
    pub makespan_ms: f64,
    /// The fault-tolerance outcome: skipped peers, retries per branch,
    /// quorum accounting. [`FederationReport::degraded`] is `false` on
    /// a fault-free run, and under `FailurePolicy::Strict` always — a
    /// degraded strict run errors instead.
    pub report: FederationReport,
}

/// What the federated façades are built from and answer through.
/// Immutable once frozen apart from the rewriter's memo, so
/// executes touch it lock-free from any number of threads, and a
/// prepare locks only for the memo's probe.
struct FedCore {
    id: u64,
    /// Its answer dictionary is the rewriter's canonical graph's, shared,
    /// so its answer rows are ids of that graph; it never mutates.
    engine: FederatedEngine,
    /// The rewriting compiler; each prepare interns into its own scratch
    /// dictionary, and only the memo behind its own lock ever
    /// changes. Also holds the canonical graph and the class table the
    /// answers are expanded over and decoded against.
    rewriter: RpsRewriter,
    config: EngineConfig,
    cost_model: CostModel,
    /// The peer-exchange transport (defaults to the perfect in-process
    /// [`SimTransport`] over the engine's sealed peer graphs).
    transport: Arc<dyn Transport>,
}

impl FedCore {
    /// `rewrite → branches → prepare_branches`. The federated pipeline
    /// computes certain answers (freezing refuses the `Q*` semantics). A
    /// rewriting that exhausts its budgets before reaching a fixpoint is
    /// unsound to federate — there is no materialised fallback out here
    /// — so it is the typed [`RpsError::RewriteBudget`].
    /// A branch whose head holds a constant the canonical graph lacks is
    /// dropped, as the rewriter's own compile drops it (the constant is
    /// in the body too, where it matches nothing): no plan-local overlay
    /// id reaches a stream.
    fn prepare(&self, query: &GraphPatternQuery) -> Result<PreparedFederatedQuery, RpsError> {
        let rewriting = self.rewriter.rewrite_canonical(query, &self.config.rewrite);
        if !rewriting.complete {
            return Err(RpsError::RewriteBudget {
                explored: rewriting.explored,
                max_depth: self.config.rewrite.max_depth,
                max_cqs: self.config.rewrite.max_cqs,
            });
        }
        let canon = self.rewriter.canon_graph();
        let known = |e: &TermOrVar| !matches!(e, TermOrVar::Term(t) if canon.term_id(t).is_none());
        let mut branches = rewriting.branches();
        branches.retain(|(_, head)| head.iter().all(known));
        Ok(PreparedFederatedQuery {
            session_id: self.id,
            vars: query.free_vars().into(),
            prepared: self.engine.prepare_branches(&branches),
        })
    }

    /// Federates every branch over the canonical peer stores at the id
    /// level on up to `max_threads` OS threads (1 is the sequential
    /// walk; answers, statistics and traffic are byte-identical either
    /// way), then expands the union's id rows over the equivalence
    /// classes. No term is re-parsed or re-interned per peer per round —
    /// that work happened once, at prepare time.
    fn execute(
        &self,
        prepared: &PreparedFederatedQuery,
        max_threads: usize,
    ) -> Result<FederatedAnswer, RpsError> {
        if prepared.session_id != self.id {
            return Err(RpsError::SessionMismatch);
        }
        let mut net = SimNetwork::new();
        let (canon_ids, stats, report) = self.engine.execute_parallel_with(
            &prepared.prepared,
            Semantics::Certain,
            &mut net,
            &*self.transport,
            &self.config.retry,
            self.config.failure,
            max_threads,
        )?;
        Ok(FederatedAnswer {
            stream: self
                .rewriter
                .federated_stream(prepared.vars.clone(), &canon_ids),
            branches: prepared.branch_count(),
            stats,
            makespan_ms: net.round_makespan_ms(&self.cost_model, self.engine.peer_count()),
            report,
        })
    }
}

/// The builder of the federated answering façade: it rewrites against
/// the quotient system, federates the id-compiled branches over the
/// canonical peer stores and expands the answers back over the
/// equivalence classes — once frozen ([`FederatedSession::freeze`]).
pub struct FederatedSession {
    core: FedCore,
}

impl FederatedSession {
    /// Builds a session after validating the system.
    pub fn open(system: &RdfPeerSystem, config: EngineConfig) -> Result<Self, RpsError> {
        system.validate()?;
        Ok(Self::new(system, config))
    }

    /// Builds a session without validating the system. Peer stores are
    /// canonicalised on equivalence classes (the combined approach), so
    /// rewriting only has to expand graph-mapping dependencies.
    pub fn new(system: &RdfPeerSystem, config: EngineConfig) -> Self {
        let rewriter = RpsRewriter::new(system);
        let engine = FederatedEngine::new_canonical(system, &rewriter);
        let transport = Arc::new(SimTransport::new(engine.peer_graphs()));
        FederatedSession {
            core: FedCore {
                id: next_session_id(),
                engine,
                rewriter,
                config,
                cost_model: CostModel::default(),
                transport,
            },
        }
    }

    /// Overrides the network cost model.
    pub fn with_cost_model(mut self, model: CostModel) -> Self {
        self.core.cost_model = model;
        self
    }

    /// Overrides the peer-exchange transport — e.g. a
    /// [`crate::FaultyTransport`] for deterministic fault injection, or
    /// a [`crate::TcpTransport`] served over the engine's graphs
    /// ([`FederatedSession::peer_graphs`]). Retry and failure behaviour
    /// come from the configuration
    /// ([`rps_core::EngineConfig::retry`]/[`rps_core::EngineConfig::failure`]).
    pub fn with_transport(mut self, transport: Arc<dyn Transport>) -> Self {
        self.core.transport = transport;
        self
    }

    /// The engine's sealed peer graphs, for wiring up external
    /// transports that must serve the same stores.
    pub fn peer_graphs(&self) -> Arc<Vec<rps_rdf::Graph>> {
        self.core.engine.peer_graphs()
    }

    /// The configuration [`FederatedSession::freeze`] will freeze.
    pub fn config(&self) -> &EngineConfig {
        &self.core.config
    }

    /// Mutable access to the configuration, which applies to the
    /// session frozen later.
    pub fn config_mut(&mut self) -> &mut EngineConfig {
        &mut self.core.config
    }

    /// `true` iff Proposition 2 guarantees the rewriting is perfect.
    pub fn fo_rewritable(&self) -> bool {
        self.core.rewriter.fo_rewritable()
    }

    /// Freezes this session into a shareable [`FrozenFederatedSession`]
    /// with the default plan-cache bound: a `Send + Sync` handle whose
    /// `prepare(&self)`/`execute(&self)` run concurrently from many
    /// threads, and whose execution fans the prepared branches out
    /// across OS threads. `Q*` semantics has no federated route, so it is
    /// rejected at freeze ([`RpsError::StarNeedsMaterialisation`]).
    pub fn freeze(self) -> Result<FrozenFederatedSession, RpsError> {
        self.freeze_with_cache_capacity(rps_core::DEFAULT_PLAN_CACHE_CAPACITY)
    }

    /// [`FederatedSession::freeze`] with an explicit plan-cache bound.
    pub fn freeze_with_cache_capacity(
        self,
        capacity: usize,
    ) -> Result<FrozenFederatedSession, RpsError> {
        if self.core.config.semantics == Semantics::Star {
            return Err(RpsError::StarNeedsMaterialisation);
        }
        Ok(FrozenFederatedSession {
            inner: Arc::new(FrozenFedInner {
                core: self.core,
                cache: Mutex::new(PlanCache::new(capacity)),
            }),
        })
    }
}

/// The shared state behind every clone of a [`FrozenFederatedSession`].
struct FrozenFedInner {
    core: FedCore,
    cache: Mutex<PlanCache<PreparedFederatedQuery>>,
}

/// The federated compile, as the statement front drives it. A text
/// shape keeps nothing per CQ: a bind writes the text's constants into
/// the template's CQ and compiles that ([`FedCore::prepare`]) without a
/// plan-cache probe — the rewriter's memo still serves the expansion of
/// the query's shape.
impl SparqlCompiler for FrozenFedInner {
    type Plan = PreparedFederatedQuery;
    type Template = ();

    fn prepare_cq(&self, cq: &GraphPatternQuery) -> Result<Arc<PreparedFederatedQuery>, RpsError> {
        PlanCache::get_or_compile(&self.cache, cq, || self.core.prepare(cq))
    }

    fn template_cq(&self, _cq: &GraphPatternQuery, _values: &[Term]) -> Option<()> {
        Some(())
    }

    /// `None` when the bound CQ does not prepare (its rewriting ran out
    /// of budget): the plan-cache path then reports the error.
    fn bind_cq(
        &self,
        _template: &(),
        cq: &GraphPatternQuery,
        values: &[Term],
    ) -> Option<PreparedFederatedQuery> {
        self.core.prepare(&bind_query(cq, values)).ok()
    }
}

/// The federated counterpart of `rps_core::FrozenSession`: the
/// `Send + Sync` handle a [`FederatedSession`] freezes into, on which
/// [`prepare`](FrozenFederatedSession::prepare) and
/// [`execute`](FrozenFederatedSession::execute) take `&self` and run
/// concurrently, with the same bounded plan cache (plans keyed on the
/// canonical numbered-variable query, SPARQL statements on their text
/// and on their shape). `execute` fans the prepared UNION branches out across OS
/// threads (`std::thread::scope`), merging the per-branch id-level
/// answer sets, statistics and traffic traces deterministically in
/// branch order — answers are byte-identical to the sequential walk's
/// ([`FrozenFederatedSession::execute_with_threads`] with one thread).
/// Cloning is an `Arc` bump.
#[derive(Clone)]
pub struct FrozenFederatedSession {
    inner: Arc<FrozenFedInner>,
}

// One handle, many threads — enforced at compile time.
#[allow(dead_code)]
fn static_assert_send_sync() {
    fn assert<T: Send + Sync>() {}
    assert::<FrozenFederatedSession>();
    assert::<PreparedFederatedQuery>();
    assert::<PreparedSparql<Arc<PreparedFederatedQuery>>>();
    assert::<RpsRewriter>();
}

impl FrozenFederatedSession {
    /// The (immutable) configuration this session was frozen with.
    pub fn config(&self) -> &EngineConfig {
        &self.inner.core.config
    }

    /// `true` iff Proposition 2 guarantees the rewriting is perfect.
    pub fn fo_rewritable(&self) -> bool {
        self.inner.core.rewriter.fo_rewritable()
    }

    /// Plan-cache hit/miss counters and occupancy.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        PlanCache::lock(&self.inner.cache).stats()
    }

    /// Compiles a query once for repeated federated execution — or
    /// returns the cached plan of an α-equivalent one. Canonical UCQ
    /// rewriting, branch decoding, per-pattern routing, per-peer
    /// constant resolution and head-template interning all happen on a
    /// miss. An exhausted rewriting budget is the typed
    /// [`RpsError::RewriteBudget`] (a truncated union is never cached).
    pub fn prepare(
        &self,
        query: &GraphPatternQuery,
    ) -> Result<Arc<PreparedFederatedQuery>, RpsError> {
        self.inner.prepare_cq(query)
    }

    /// Executes a prepared query with the branch fan-out spread over up
    /// to [`rps_rdf::host_parallelism`] OS threads. The query must have
    /// been prepared by this frozen session ([`RpsError::SessionMismatch`]
    /// otherwise — its term ids belong to this session's answer
    /// dictionary).
    pub fn execute(&self, prepared: &PreparedFederatedQuery) -> Result<FederatedAnswer, RpsError> {
        self.execute_with_threads(prepared, rps_rdf::host_parallelism())
    }

    /// [`FrozenFederatedSession::execute`] with an explicit worker-thread
    /// bound (1 runs the sequential path; the bound is also clamped to
    /// the live branch count).
    pub fn execute_with_threads(
        &self,
        prepared: &PreparedFederatedQuery,
        max_threads: usize,
    ) -> Result<FederatedAnswer, RpsError> {
        self.inner.core.execute(prepared, max_threads)
    }

    /// Prepares (or fetches from the plan cache) and executes in one
    /// call.
    pub fn answer(&self, query: &GraphPatternQuery) -> Result<FederatedAnswer, RpsError> {
        let prepared = self.prepare(query)?;
        self.execute(&prepared)
    }

    /// Compiles a SPARQL SELECT/ASK query (the subset documented in
    /// `rps_query::sparql`) for repeated federated execution: a repeated
    /// text comes back whole from the plan cache's statement front; a
    /// new one takes every lowered CQ through the bounded plan cache.
    /// Execution assembles the streams with the same id-level tail as the
    /// local sessions — the federated rows are ids of the rewriter's
    /// canonical graph, like the rewritten route's — so the federated
    /// route answers byte-identically.
    pub fn prepare_sparql(
        &self,
        text: &str,
    ) -> Result<PreparedSparql<Arc<PreparedFederatedQuery>>, RpsError> {
        PlanCache::get_or_prepare_sparql(&self.inner.cache, text, &*self.inner)
    }

    /// Executes a prepared SPARQL query over the federation.
    pub fn execute_sparql(
        &self,
        prepared: &PreparedSparql<Arc<PreparedFederatedQuery>>,
    ) -> Result<SparqlResult, RpsError> {
        execute_sparql_with(prepared, |plan| self.execute(plan).map(|a| a.stream))
    }

    /// Parses, prepares (or fetches from the plan cache) and executes
    /// in one call.
    pub fn answer_sparql(&self, text: &str) -> Result<SparqlResult, RpsError> {
        let prepared = self.prepare_sparql(text)?;
        self.execute_sparql(&prepared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rps_core::{certain_answers, chase_system, ExecRoute, PeerId, RpsBuilder, RpsChaseConfig};
    use rps_query::{GraphPattern, TermOrVar, Variable};
    use rps_tgd::RewriteConfig;

    fn linear_system() -> RdfPeerSystem {
        let mut a = PeerId(0);
        let mut b = PeerId(0);
        let premise = GraphPatternQuery::new(
            vec![Variable::new("x"), Variable::new("y")],
            GraphPattern::triple(
                TermOrVar::var("x"),
                TermOrVar::iri("http://b/actor"),
                TermOrVar::var("y"),
            ),
        );
        let conclusion = GraphPatternQuery::new(
            vec![Variable::new("x"), Variable::new("y")],
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

    fn cast_query() -> GraphPatternQuery {
        GraphPatternQuery::new(
            vec![Variable::new("x"), Variable::new("y")],
            GraphPattern::triple(
                TermOrVar::var("x"),
                TermOrVar::iri("http://a/cast"),
                TermOrVar::var("y"),
            ),
        )
    }

    fn frozen(sys: &RdfPeerSystem, config: EngineConfig) -> FrozenFederatedSession {
        FederatedSession::open(sys, config)
            .and_then(FederatedSession::freeze)
            .expect("the linear system freezes")
    }

    #[test]
    fn service_matches_materialised_answers() {
        let sys = linear_system();
        let session = FederatedSession::new(&sys, EngineConfig::default());
        assert!(session.fo_rewritable());
        let result = session.freeze().unwrap().answer(&cast_query()).unwrap();
        assert!(result.branches >= 2);
        assert!(result.stats.messages > 0);
        assert!(result.makespan_ms > 0.0);
        let sol = chase_system(&sys, &RpsChaseConfig::default());
        let chased = certain_answers(&sol, &cast_query());
        assert_eq!(result.stream.into_set().tuples, chased.tuples);
    }

    #[test]
    fn repeated_queries_are_independent() {
        let session = frozen(&linear_system(), EngineConfig::default());
        let r1 = session.answer(&cast_query()).unwrap();
        let r2 = session.answer(&cast_query()).unwrap();
        assert_eq!(r1.stats, r2.stats);
        assert_eq!(r1.stream.into_set().tuples, r2.stream.into_set().tuples);
    }

    #[test]
    fn session_prepares_once_and_executes_repeatedly() {
        let sys = linear_system();
        let session = frozen(&sys, EngineConfig::default());
        let prepared = session.prepare(&cast_query()).unwrap();
        assert!(prepared.branch_count() >= 2);
        let first = session.execute_with_threads(&prepared, 1).unwrap();
        assert_eq!(first.stream.route(), ExecRoute::Federated);
        let second = session.execute_with_threads(&prepared, 1).unwrap();
        assert_eq!(first.stats, second.stats);
        let a = first.stream.into_set();
        let b = second.stream.into_set();
        assert_eq!(a.tuples, b.tuples);
        let sol = chase_system(&sys, &RpsChaseConfig::default());
        assert_eq!(a.tuples, certain_answers(&sol, &cast_query()).tuples);
    }

    #[test]
    fn foreign_prepared_queries_are_rejected() {
        let sys = linear_system();
        let a = frozen(&sys, EngineConfig::default());
        let b = frozen(&sys, EngineConfig::default());
        let prepared = a.prepare(&cast_query()).unwrap();
        // Executing against another session's answer dictionary would
        // silently mistranslate ids; it must error instead.
        assert!(matches!(
            b.execute(&prepared),
            Err(RpsError::SessionMismatch)
        ));
        assert!(!a.execute(&prepared).unwrap().stream.into_set().is_empty());
    }

    #[test]
    fn exhausted_rewriting_budget_is_a_typed_error() {
        // Transitive closure is not FO-rewritable (Proposition 3): a
        // bounded expansion can never be exhaustive. Prepare reports that
        // as the typed budget error instead of federating a truncated
        // union, on a miss and again on the retry (nothing is cached).
        let sys = rps_lodgen::chain::transitive_system(6);
        let rewrite = RewriteConfig {
            max_depth: 3,
            max_cqs: 10_000,
        };
        let session = frozen(&sys, EngineConfig::default().with_rewrite(rewrite.clone()));
        let query = rps_lodgen::chain::edge_query();
        for err in [session.prepare(&query).err(), session.prepare(&query).err()] {
            match err {
                Some(RpsError::RewriteBudget {
                    explored,
                    max_depth,
                    max_cqs,
                }) => {
                    assert!(explored > 0);
                    assert_eq!((max_depth, max_cqs), (rewrite.max_depth, rewrite.max_cqs));
                }
                other => panic!("expected RewriteBudget, got {other:?}"),
            }
        }
    }

    /// One federated rewriter under tight, default, then tight budgets
    /// again: a complete union memoised under the default budgets must
    /// not be served to a budget that runs out.
    #[test]
    fn budgets_are_part_of_the_rewriters_memo_key() {
        let session = FederatedSession::open(&linear_system(), EngineConfig::default()).unwrap();
        let rewriter = &session.core.rewriter;
        let tight = RewriteConfig {
            max_cqs: 1,
            ..RewriteConfig::default()
        };
        assert!(!rewriter.rewrite_canonical(&cast_query(), &tight).complete);
        let complete = rewriter.rewrite_canonical(&cast_query(), &RewriteConfig::default());
        assert!(complete.complete);
        assert!(complete.len() >= 2);
        assert!(!rewriter.rewrite_canonical(&cast_query(), &tight).complete);
        // The frozen session, under the default budgets, federates that
        // complete union.
        let frozen = session.freeze().unwrap();
        let text = "SELECT ?x ?y WHERE { ?x <http://a/cast> ?y }";
        let rows = frozen.answer_sparql(text).unwrap();
        assert_eq!(rows.rows().map(|r| r.rows.len()), Some(4));
    }

    #[test]
    fn building_the_engine_interns_no_term() -> Result<(), RpsError> {
        // Every canonical peer term already has its canonical-graph id.
        let session = FederatedSession::open(&linear_system(), EngineConfig::default())?;
        let (engine, canon) = (&session.core.engine, session.core.rewriter.canon_graph());
        assert_eq!(engine.dict().len(), canon.dict().len());
        for (peer, graph) in engine.peer_graphs().iter().enumerate() {
            for (local, term) in graph.dict().iter() {
                let id = engine.translation(peer)[local.index()];
                assert_eq!(Some(id), canon.term_id(term), "{term}");
            }
        }
        Ok(())
    }

    #[test]
    fn a_head_constant_the_canonical_graph_lacks_drops_its_branch() -> Result<(), RpsError> {
        // `tests/sparql_routes.rs`' factorised query: a branch's head has
        // `?y` specialised to a constant no peer mentions.
        let session = frozen(&linear_system(), EngineConfig::default());
        let nobody = TermOrVar::iri("http://no/body");
        let cast =
            |o| GraphPattern::triple(TermOrVar::var("x"), TermOrVar::iri("http://a/cast"), o);
        let query = GraphPatternQuery::new(
            cast_query().free_vars().to_vec(),
            cast(TermOrVar::var("y")).and(cast(nobody.clone())),
        );
        let core = &session.inner.core;
        let rewriting = core
            .rewriter
            .rewrite_canonical(&query, &core.config.rewrite);
        let branches = rewriting.branches();
        assert!(branches.iter().any(|(_, head)| head.contains(&nobody)));
        let prepared = session.prepare(&query)?;
        assert!(prepared.prepared.overlay().is_empty());
        assert!(prepared.branch_count() < branches.len());
        assert!(session.execute(&prepared)?.stream.into_set().is_empty());
        Ok(())
    }

    #[test]
    fn star_semantics_is_rejected() {
        // `Q*` has no federated route: the configuration is rejected at
        // freeze time.
        let cfg = EngineConfig::default().with_semantics(Semantics::Star);
        assert!(matches!(
            FederatedSession::open(&linear_system(), cfg)
                .unwrap()
                .freeze(),
            Err(RpsError::StarNeedsMaterialisation)
        ));
    }

    #[test]
    fn frozen_federated_matches_sequential_session() {
        let sys = linear_system();
        let seq = frozen(&sys, EngineConfig::default());
        let expected = seq
            .execute_with_threads(&seq.prepare(&cast_query()).unwrap(), 1)
            .unwrap();
        let expected_tuples = expected.stream.into_set().tuples;

        let frozen = frozen(&sys, EngineConfig::default());
        let prepared = frozen.prepare(&cast_query()).unwrap();
        for threads in [1, 2, 4, 8] {
            let got = frozen.execute_with_threads(&prepared, threads).unwrap();
            assert_eq!(got.stats, expected.stats, "{threads} threads");
            assert!((got.makespan_ms - expected.makespan_ms).abs() < 1e-9);
            assert_eq!(got.stream.into_set().tuples, expected_tuples);
        }
        // Re-preparing the same (α-equivalent) query is a cache hit on
        // the identical shared plan.
        let renamed = GraphPatternQuery::new(
            vec![Variable::new("a"), Variable::new("b")],
            GraphPattern::triple(
                TermOrVar::var("a"),
                TermOrVar::iri("http://a/cast"),
                TermOrVar::var("b"),
            ),
        );
        let again = frozen.prepare(&renamed).unwrap();
        assert!(std::sync::Arc::ptr_eq(&prepared, &again));
        let stats = frozen.plan_cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }
}
