//! The answering half of the configure / answer split:
//! [`FrozenSession`].
//!
//! A [`Session`] is the builder: it holds a system and a configuration
//! and answers nothing, so nothing it holds can change under a prepared
//! plan. Freezing it ([`Session::freeze`]) runs the compile-phase work
//! **once** — materialising (and sealing) the universal solution, or on
//! a full system its equivalence quotient, where the strategy needs it,
//! or taking the one [`Session::universal_solution`] already chased, and
//! building the rewriter — and moves the result into an `Arc`-backed,
//! `Send + Sync` handle on which [`FrozenSession::prepare`] and
//! [`FrozenSession::execute`] take `&self` and run concurrently from any
//! number of threads.
//!
//! Everything behind the handle is immutable but two caches: plans carry
//! their own `Arc` of the sealed substrate (chased solution or canonical
//! stored graph), and the rewriter binds a new query's constants into
//! the branches it compiled for the query's shape. One lock is the
//! **plan cache**'s ([`PlanCache`]) — two bounded maps under one mutex,
//! conjunctive plans keyed on the canonical numbered-variable form of
//! the query and whole SPARQL statements keyed on their text, held for
//! a hash probe and never across parsing, compilation or execution —
//! with hit/miss counters exposed via
//! [`FrozenSession::plan_cache_stats`]. The other is the rewriter's
//! memo of expansions and compiled branches by query shape
//! ([`crate::rewriting`]), held the same way.
//!
//! ```
//! use rps_core::{EngineConfig, PeerId, RpsBuilder, Session};
//! use rps_query::{GraphPattern, GraphPatternQuery, TermOrVar, Variable};
//!
//! let mut p = PeerId(0);
//! let system = RpsBuilder::new()
//!     .peer_turtle(
//!         "A",
//!         "<http://a/f1> <http://a/cast> <http://a/p1> .\n\
//!          <http://a/f2> <http://a/cast> <http://a/p2> .",
//!         &mut p,
//!     )
//!     .unwrap()
//!     .build();
//! let query = GraphPatternQuery::new(
//!     vec![Variable::new("x"), Variable::new("y")],
//!     GraphPattern::triple(
//!         TermOrVar::var("x"),
//!         TermOrVar::iri("http://a/cast"),
//!         TermOrVar::var("y"),
//!     ),
//! );
//!
//! // The builder configures; `freeze` runs the compile phase and
//! // produces a Send + Sync handle shared across threads by reference.
//! let frozen = Session::open(system, EngineConfig::default())
//!     .unwrap()
//!     .freeze()
//!     .unwrap();
//! frozen.prepare(&query).unwrap(); // compile once (a cache miss)
//! let counts: Vec<usize> = std::thread::scope(|scope| {
//!     let handles: Vec<_> = (0..2)
//!         .map(|_| {
//!             scope.spawn(|| {
//!                 let prepared = frozen.prepare(&query).unwrap();
//!                 frozen.execute(&prepared).unwrap().count()
//!             })
//!         })
//!         .collect();
//!     handles.into_iter().map(|h| h.join().unwrap()).collect()
//! });
//! assert_eq!(counts, vec![2, 2]);
//! // Both thread-side preparations were plan-cache hits.
//! let stats = frozen.plan_cache_stats();
//! assert_eq!((stats.hits, stats.misses), (2, 1));
//! ```

use super::{
    next_session_id, stream_vars, AnswerStream, Chased, EngineConfig, ExecRoute, Plan,
    PreparedQuery, Session, Strategy,
};
use crate::answers::AnswerSet;
use crate::chase::{RpsChaseStats, UniversalSolution};
use crate::equivalence::{ClassTable, EquivalenceIndex};
use crate::error::RpsError;
use crate::mapping::EquivalenceMapping;
use crate::rewriting::RpsRewriter;
use crate::sparql::{prepare_sparql_with, PreparedSparql};
use rps_query::{GraphPatternQuery, Semantics, TermOrVar};
use rps_rdf::{Graph, Iri, LiteralAnnotation, RdfError, Term};
use std::borrow::Borrow;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::hash::Hash;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Default bound of the plan cache (entries), used by
/// [`Session::freeze`].
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 1024;

/// Hit/miss counters and occupancy of a frozen session's plan cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PlanCacheStats {
    /// Conjunctive plans served without compilation (no rewriting, no
    /// plan compilation): one per plan-key hit, and
    /// [`PreparedSparql::plan_count`] per statement hit.
    pub hits: u64,
    /// Preparations that compiled a fresh plan.
    pub misses: u64,
    /// Conjunctive plans currently cached.
    pub entries: usize,
    /// The configured bound — of `entries` and of `statements`, each.
    pub capacity: usize,
    /// SPARQL statements currently cached by their text.
    pub statements: usize,
}

/// A map that forgets its oldest key once it holds `capacity` of them —
/// the plan cache's two maps and the rewriter's memo
/// ([`crate::rewriting`]). Keys are cheap to clone (`Arc`s): each is
/// held by the map and by the eviction order.
pub(crate) struct Fifo<K, V> {
    capacity: usize,
    map: HashMap<K, V>,
    order: VecDeque<K>,
}

impl<K: Hash + Eq + Clone, V: Clone> Fifo<K, V> {
    pub(crate) fn new(capacity: usize) -> Self {
        Fifo {
            capacity,
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    pub(crate) fn get<Q: Hash + Eq + ?Sized>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
    {
        self.map.get(key).cloned()
    }

    /// Inserts `value` under `key`, unless a concurrent preparation of
    /// the same key landed first — then that one wins (so every caller
    /// of the same key converges on one shared value). Returns the value
    /// held under `key` and what the map let go of: the oldest entry,
    /// evicted to make room, or the caller's own entry when an existing
    /// one won. The caller drops that after releasing its lock — freeing
    /// an evicted plan or statement is not the lock's work.
    pub(crate) fn insert(&mut self, key: K, value: V) -> (V, Option<(K, V)>) {
        if let Some(existing) = self.map.get(&key) {
            return (existing.clone(), Some((key, value)));
        }
        let evicted = if self.map.len() >= self.capacity {
            self.order
                .pop_front()
                .and_then(|old| self.map.remove_entry(&old))
        } else {
            None
        };
        self.map.insert(key.clone(), value.clone());
        self.order.push_back(key);
        (value, evicted)
    }

    /// Entries currently held.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }
}

/// The bounded plan cache of a frozen façade, keyed two ways under one
/// bound, one mutex and one pair of counters:
///
/// * **plans** — canonical query key ([`canonical_plan_key`]) → shared
///   prepared plan, so α-equivalent conjunctive queries compile once no
///   matter which SPARQL text (or CQ-API caller) they came from;
/// * **statements** — SPARQL text, byte for byte → the whole
///   [`PreparedSparql`] (lowered recipe + its plans), so a repeated
///   text skips lexing, parsing, lowering, key building and the per-CQ
///   probes ([`PlanCache::get_or_prepare_sparql`]).
///
/// Each is FIFO-evicted at `capacity`. The mutex (owned by the
/// embedding session) guards both maps, their eviction orders and the
/// counters together — a critical section is a hash probe, so the lock
/// is never held across parsing, compilation or execution. Generic over
/// the plan type so the federated counterpart in `rps-p2p` shares the
/// implementation.
pub struct PlanCache<T> {
    plans: Fifo<Arc<str>, Arc<T>>,
    statements: Fifo<Arc<str>, PreparedSparql<Arc<T>>>,
    hits: u64,
    misses: u64,
}

impl<T> PlanCache<T> {
    /// An empty cache bounded to `capacity` plans and as many
    /// statements (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        PlanCache {
            plans: Fifo::new(capacity),
            statements: Fifo::new(capacity),
            hits: 0,
            misses: 0,
        }
    }

    /// Locks `cache`, recovering it if the mutex is poisoned. That is
    /// sound because a guard only ever lives for a hash probe with a
    /// counter bump, a whole-entry insert (the oldest entry unlinked,
    /// then one added) or a read of the counters: `std` collection calls
    /// and `Arc` clones, which do not panic short of an allocation
    /// failure, and that aborts. Parsing, compiling and executing run
    /// unlocked, and so does freeing: an insert hands the evicted entry
    /// (a whole lowered recipe and its plans, on a statement) back to
    /// the caller, which drops it after the guard, as `LiveShared::swap`
    /// hands back the epoch it replaces.
    /// So the state behind a poisoned lock is one such step's before or
    /// after, and serves the answers it would have served unpoisoned.
    pub fn lock(cache: &Mutex<Self>) -> MutexGuard<'_, Self> {
        cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The plan cached for `query` (or an α-equivalent one prepared
    /// earlier, on any thread) — or `compile`'s, run *outside* the lock
    /// so a slow compile never blocks hits. If several threads race on
    /// the same fresh query, the first insert wins and the rest adopt it.
    pub fn get_or_compile<E>(
        cache: &Mutex<Self>,
        query: &GraphPatternQuery,
        compile: impl FnOnce() -> Result<T, E>,
    ) -> Result<Arc<T>, E> {
        let key = canonical_plan_key(query);
        if let Some(hit) = Self::lock(cache).plan(&key) {
            return Ok(hit);
        }
        let compiled = Arc::new(compile()?);
        // The guard is a temporary of this statement; `_released` outlives
        // it, so an evicted plan is freed unlocked.
        let (plan, _released) = Self::lock(cache).plans.insert(key.into(), compiled);
        Ok(plan)
    }

    /// The statement cached for exactly this `text`, or a fresh
    /// [`prepare_sparql_with`] through `prepare` — the façade's own
    /// per-CQ path, which goes through [`PlanCache::get_or_compile`]
    /// and counts there, a hit or a miss per CQ, exactly as a caller of
    /// the CQ API would. Nothing runs under the lock but the two hash
    /// probes; a text that fails to parse, lower or prepare is an `Err`
    /// and is never cached, and racing threads converge on the first
    /// statement inserted.
    pub fn get_or_prepare_sparql(
        cache: &Mutex<Self>,
        text: &str,
        prepare: impl FnMut(&GraphPatternQuery) -> Result<Arc<T>, RpsError>,
    ) -> Result<PreparedSparql<Arc<T>>, RpsError> {
        if let Some(hit) = Self::lock(cache).statement(text) {
            return Ok(hit);
        }
        let prepared = prepare_sparql_with(text, prepare)?;
        let (statement, _released) = Self::lock(cache).statements.insert(text.into(), prepared);
        Ok(statement)
    }

    /// Fetches the plan cached under `key`, counting a hit or a miss.
    fn plan(&mut self, key: &str) -> Option<Arc<T>> {
        let hit = self.plans.get(key);
        match hit {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        hit
    }

    /// Fetches the statement cached for `text`, counting one hit per
    /// plan it carries: that many plans are served without compilation.
    /// An absent statement counts nothing — its CQs count themselves.
    fn statement(&mut self, text: &str) -> Option<PreparedSparql<Arc<T>>> {
        let hit = self.statements.get(text)?;
        self.hits += hit.plan_count() as u64;
        Some(hit)
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.plans.len(),
            capacity: self.plans.capacity,
            statements: self.statements.len(),
        }
    }
}

/// The canonical (numbered-variable) cache key of a query: variables are
/// renamed to dense `#n` slots by first occurrence — head first, then
/// body in conjunct order — so α-equivalent queries share one plan.
/// Constants render with an explicit kind tag, making the key injective
/// on everything that affects compilation. Shared with the federated
/// frozen session in `rps-p2p`.
pub fn canonical_plan_key(query: &GraphPatternQuery) -> String {
    let mut slots = Slots::default();
    let mut key = String::with_capacity(plan_key_len(query));
    fn push_var<'q>(name: &'q str, key: &mut String, slots: &mut Slots<'q>) {
        let _ = write!(key, "#{} ", slots.slot(name));
    }
    for v in query.free_vars() {
        push_var(v.name(), &mut key, &mut slots);
    }
    key.push('|');
    for tp in query.pattern().patterns() {
        for tv in [&tp.s, &tp.p, &tp.o] {
            match tv {
                TermOrVar::Var(v) => push_var(v.name(), &mut key, &mut slots),
                TermOrVar::Term(Term::Iri(i)) => {
                    let _ = write!(key, "I<{i}> ");
                }
                TermOrVar::Term(Term::Literal(l)) => {
                    let _ = write!(key, "L<{l}> ");
                }
                TermOrVar::Term(Term::Blank(b)) => {
                    let _ = write!(key, "B<{b}> ");
                }
            }
        }
        key.push('.');
    }
    key
}

/// The variable names of a plan key (and of the rewriter's shape key),
/// numbered by first occurrence. A conjunctive query names a handful of
/// variables: a linear scan over borrowed names beats hashing (and
/// copying) each occurrence, and the first [`Slots::INLINE`] are held
/// without a heap list.
#[derive(Default)]
pub(crate) struct Slots<'q> {
    inline: [&'q str; Slots::INLINE],
    len: usize,
    spilled: Vec<&'q str>,
}

impl<'q> Slots<'q> {
    const INLINE: usize = 16;

    /// The slot of `name`, numbering it next if it is new.
    pub(crate) fn slot(&mut self, name: &'q str) -> usize {
        let known = self.inline[..self.len.min(Self::INLINE)]
            .iter()
            .chain(&self.spilled)
            .position(|s| *s == name);
        known.unwrap_or_else(|| {
            match self.inline.get_mut(self.len) {
                Some(free) => *free = name,
                None => self.spilled.push(name),
            }
            self.len += 1;
            self.len - 1
        })
    }
}

/// The length of [`canonical_plan_key`]'s key for `query`, short only
/// by the escapes of its literals and the digits of slots past 99: the
/// key is built in one allocation.
fn plan_key_len(query: &GraphPatternQuery) -> usize {
    let term_len = |tv: &TermOrVar| match tv {
        TermOrVar::Var(_) => 4,
        TermOrVar::Term(Term::Iri(i)) => i.as_str().len() + 6,
        TermOrVar::Term(Term::Blank(b)) => b.label().len() + 7,
        TermOrVar::Term(Term::Literal(l)) => {
            l.lexical().len()
                + 6
                + match l.annotation() {
                    LiteralAnnotation::Plain => 0,
                    LiteralAnnotation::Lang(tag) => tag.len() + 1,
                    LiteralAnnotation::Typed(dt) => dt.as_str().len() + 4,
                }
        }
    };
    let body: usize = (query.pattern().patterns().iter())
        .map(|tp| term_len(&tp.s) + term_len(&tp.p) + term_len(&tp.o) + 1)
        .sum();
    4 * query.arity() + 1 + body
}

/// What a plan miss compiles against, fixed at [`Session::freeze`].
enum Compiler {
    /// The rewritten route: the rewriter, and the universal solution
    /// chased before the freeze, which an exhausted rewriting falls back
    /// to under [`Strategy::Auto`]. Compiled plans carry their own `Arc`
    /// of the rewriter's sealed canonical graph and execute without it.
    Rewriter(Box<RpsRewriter>, Option<Arc<UniversalSolution>>),
    /// The materialised route: the sealed universal solution or, on a
    /// full system, the chase of its equivalence quotient and the
    /// classes its rows expand over.
    Chased(Chased),
}

/// The shared, immutable state behind every clone of a [`FrozenSession`].
struct FrozenInner {
    id: u64,
    config: EngineConfig,
    eq_index: Arc<EquivalenceIndex>,
    /// Where every fresh preparation goes — resolved once, at freeze (the
    /// configuration and the FO-rewritability verdict never change).
    route: ExecRoute,
    compiler: Compiler,
    cache: Mutex<PlanCache<PreparedQuery>>,
}

/// The `Send + Sync` answering handle a [`Session`] freezes into:
/// [`prepare`](FrozenSession::prepare) and
/// [`execute`](FrozenSession::execute) take `&self` and run concurrently
/// from many threads, with a bounded plan cache in front of the compile
/// phase. Cloning is an `Arc` bump — clones share the cache and all
/// compiled state. See the [module docs](self) for the threading
/// example and [`Session::freeze`] for what freezing seals.
#[derive(Clone)]
pub struct FrozenSession {
    inner: Arc<FrozenInner>,
}

// The point of freezing: one handle, many threads. (Enforced here at
// compile time; a regression — e.g. a `Cell` slipping into a plan —
// fails this function's where-clauses.)
#[allow(dead_code)]
fn static_assert_send_sync() {
    fn assert<T: Send + Sync>() {}
    assert::<FrozenSession>();
    assert::<PreparedQuery>();
    assert::<PreparedSparql>();
    assert::<AnswerStream>();
    assert::<RpsRewriter>();
}

impl Session {
    /// Freezes this session into a shareable [`FrozenSession`] with the
    /// default plan-cache bound, running the outstanding compile-phase
    /// work eagerly:
    ///
    /// * strategies that can route to the materialised plan
    ///   ([`Strategy::Materialise`], and [`Strategy::Auto`] when
    ///   rewriting is not guaranteed perfect) take the solution
    ///   [`Session::universal_solution`] already chased, as it is, or
    ///   chase now — on a full system the equivalence quotient, whose
    ///   answers expand over the classes, otherwise the universal
    ///   solution — and seal it ([`RpsError::ChaseBudget`] on
    ///   exhaustion);
    /// * the rewrite route's compiler is built now, so the first
    ///   concurrent `prepare` pays only its own query's expansion.
    ///
    /// A frozen session never starts a chase. Under [`Strategy::Auto`]
    /// with FO-rewritable mappings nothing is materialised, so a
    /// rewriting that exhausts its budgets falls back only to a solution
    /// chased through [`Session::universal_solution`] before the freeze,
    /// and is [`RpsError::RewriteBudget`] otherwise. Chase first, raise
    /// the budgets, or freeze under [`Strategy::Materialise`] if that
    /// can matter.
    pub fn freeze(self) -> Result<FrozenSession, RpsError> {
        self.freeze_with_cache_capacity(DEFAULT_PLAN_CACHE_CAPACITY)
    }

    /// [`Session::freeze`] with an explicit plan-cache bound (entries;
    /// clamped to at least 1).
    pub fn freeze_with_cache_capacity(
        mut self,
        capacity: usize,
    ) -> Result<FrozenSession, RpsError> {
        let star = self.config.semantics == Semantics::Star;
        let build = || RpsRewriter::with_index(&self.system, self.eq_index.clone());
        // `Some` exactly on the rewritten route.
        let rewriter = match self.config.strategy {
            Strategy::Rewrite if star => return Err(RpsError::StarNeedsMaterialisation),
            Strategy::Rewrite => Some(build()),
            Strategy::Auto if !star => Some(build()).filter(RpsRewriter::fo_rewritable),
            _ => None,
        };
        // Frozen sessions serve reads only, so this is the moment to pick
        // the physical layout. By default that is the one plain run per
        // permutation the chase sealed, untouched; under
        // `ExecConfig::compress` the runs are re-encoded columnar — in
        // place when the session was the solution's only owner, on a copy
        // when a caller of `universal_solution` still holds it. Answers
        // are unaffected: both forms scan byte-identically.
        // The SPARQL tail ranks answer ids by the solution's term order:
        // it is settled here too, like the layout, so no read sweeps.
        let exec = self.config.exec;
        let seal = move |mut solution: Arc<UniversalSolution>| {
            if exec.compress {
                Arc::make_mut(&mut solution)
                    .graph
                    .seal_with(&exec.seal_config());
            }
            solution.graph.term_order();
            solution
        };
        let (route, compiler) = match rewriter {
            Some(rewriter) => {
                let fallback = self.solution.take().map(seal);
                (
                    ExecRoute::Rewritten,
                    Compiler::Rewriter(Box::new(rewriter), fallback),
                )
            }
            None => {
                // Out of the session, so its own handle does not pin the
                // solution while it is resealed.
                let (solution, classes) = match self.solution.take() {
                    Some(solution) => (solution, None),
                    None => self.materialise()?,
                };
                (
                    ExecRoute::Materialised,
                    Compiler::Chased((seal(solution), classes)),
                )
            }
        };
        Ok(FrozenSession {
            inner: Arc::new(FrozenInner {
                id: next_session_id(),
                config: self.config,
                eq_index: self.eq_index,
                route,
                compiler,
                cache: Mutex::new(PlanCache::new(capacity)),
            }),
        })
    }
}

impl FrozenSession {
    /// The (immutable) configuration this session was frozen with.
    pub fn config(&self) -> &EngineConfig {
        &self.inner.config
    }

    /// The union-find index over the system's equivalence mappings.
    pub fn equivalence_index(&self) -> &EquivalenceIndex {
        &self.inner.eq_index
    }

    /// Plan-cache hit/miss counters and occupancy.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        PlanCache::lock(&self.inner.cache).stats()
    }

    /// The cache itself, for the SPARQL entry points in [`crate::sparql`].
    pub(crate) fn plan_cache(&self) -> &Mutex<PlanCache<PreparedQuery>> {
        &self.inner.cache
    }

    /// Compiles a query — or returns the cached plan of an α-equivalent
    /// one prepared earlier (on any thread). The returned handle is
    /// shared: executing it does not require re-preparation, and
    /// repeated preparations of the same canonical query are cache hits
    /// that skip route resolution, rewriting and plan compilation
    /// entirely.
    ///
    /// An incomplete rewriting (budget exhaustion, non-FO-rewritable
    /// mappings) is unsound to trust. Under [`Strategy::Auto`] it falls
    /// back to a universal solution chased before the freeze, if there
    /// is one, and records the fact on
    /// [`PreparedQuery::rewrite_fell_back`]; otherwise, and always under
    /// the explicit [`Strategy::Rewrite`], it is the typed
    /// [`RpsError::RewriteBudget`].
    ///
    /// Cache-hit note: the projection variable *names* on executed
    /// streams are those of the first-prepared representative of the
    /// α-equivalence class; answer tuples are identical for every member
    /// of the class.
    pub fn prepare(&self, query: &GraphPatternQuery) -> Result<Arc<PreparedQuery>, RpsError> {
        PlanCache::get_or_compile(&self.inner.cache, query, || self.compile(query))
    }

    /// A plan-cache miss: the route → [`Plan`] compile over the frozen
    /// compile state, which is all there will ever be — a frozen session
    /// cannot start a chase.
    fn compile(&self, query: &GraphPatternQuery) -> Result<PreparedQuery, RpsError> {
        let inner = &*self.inner;
        let config = &inner.config;
        let chased = |chased: Chased| Plan::chased(chased, &inner.eq_index, query);
        let (route, rewrite_fell_back, plan) = match &inner.compiler {
            Compiler::Chased(solution) => (inner.route, false, chased(solution.clone())),
            Compiler::Rewriter(rewriter, fallback) => {
                let rewritten = rewriter.plan(query, &config.rewrite);
                match fallback {
                    _ if rewritten.complete => (inner.route, false, rewritten.plan),
                    // The explicit Rewrite strategy never falls back.
                    Some(solution) if config.strategy == Strategy::Auto => {
                        let plan = chased((solution.clone(), None));
                        (ExecRoute::Materialised, true, plan)
                    }
                    _ => {
                        return Err(RpsError::RewriteBudget {
                            explored: rewritten.explored,
                            max_depth: config.rewrite.max_depth,
                            max_cqs: config.rewrite.max_cqs,
                        })
                    }
                }
            }
        };
        Ok(PreparedQuery {
            session_id: inner.id,
            vars: stream_vars(query),
            route,
            semantics: config.semantics,
            rewrite_fell_back,
            plan,
        })
    }

    /// Executes a prepared query, returning a streaming answer iterator.
    /// Lock-free on every route: a plan touches only the immutable,
    /// sealed substrate it carries. The query must have been prepared by
    /// this frozen session (or a clone of it):
    /// [`RpsError::SessionMismatch`] otherwise.
    pub fn execute(&self, prepared: &PreparedQuery) -> Result<AnswerStream, RpsError> {
        if prepared.session_id != self.inner.id {
            return Err(RpsError::SessionMismatch);
        }
        Ok(prepared
            .plan
            .execute(prepared.vars.clone(), prepared.route, prepared.semantics))
    }

    /// Prepares (or fetches from the plan cache) and executes in one
    /// call.
    pub fn answer(&self, query: &GraphPatternQuery) -> Result<AnswerStream, RpsError> {
        let prepared = self.prepare(query)?;
        self.execute(&prepared)
    }

    /// Like [`FrozenSession::answer`], but drains the stream into an
    /// [`AnswerSet`] and removes equivalence-induced redundancy
    /// (Listing 1's "Result without redundancy").
    pub fn answer_without_redundancy(
        &self,
        query: &GraphPatternQuery,
    ) -> Result<AnswerSet, RpsError> {
        let set = self.answer(query)?.into_set();
        Ok(set.without_redundancy(&self.inner.eq_index))
    }

    /// The chased solution this session holds: the materialised route's
    /// substrate (the universal solution or a full system's quotient),
    /// or the rewritten route's `Auto` fallback.
    fn solution(&self) -> Option<&Arc<UniversalSolution>> {
        match &self.inner.compiler {
            Compiler::Rewriter(_, fallback) => fallback.as_ref(),
            Compiler::Chased((solution, _)) => Some(solution),
        }
    }

    /// Physical storage counters of the frozen chased solution — the
    /// universal solution or a full system's quotient — (run/tail shape
    /// plus the durability counters), or `None` when the session's route
    /// carries no chased solution.
    pub fn storage_stats(&self) -> Option<rps_rdf::StorageStats> {
        self.solution().map(|s| s.graph.storage_stats())
    }

    /// Persists this frozen session into `dir` so [`FrozenSession::open`]
    /// can rebuild it in a fresh process **without re-running the
    /// chase**: the sealed chased solution goes through the durable
    /// graph tier ([`Graph::persist`], under `dir/solution`) and the
    /// session metadata — semantics, budgets, chase statistics, the
    /// equivalence classes and, when the solution is a full system's
    /// quotient, a `quotient` line — into a `SESSION` file committed by
    /// write-temp-then-atomic-rename.
    ///
    /// Only the **materialised route** persists: the rewritten route
    /// carries compile state (compiled TGD sets) that is cheap to
    /// rebuild but has no stable on-disk form; a session resolving to it
    /// is a typed [`RpsError::Persist`]. Freeze under
    /// [`Strategy::Materialise`] to guarantee persistability.
    ///
    /// The dictionary round-trips id-for-id, so a reopened session
    /// serves **byte-identical** answer tuples in identical order.
    pub fn persist(&self, dir: impl AsRef<Path>) -> Result<(), RpsError> {
        let dir = dir.as_ref();
        let route = self.inner.route;
        let (ExecRoute::Materialised, Compiler::Chased((solution, classes))) =
            (route, &self.inner.compiler)
        else {
            return Err(RpsError::Persist {
                detail: format!(
                    "only the materialised route persists; this session resolves to {route:?} \
                     (freeze under Strategy::Materialise)"
                ),
            });
        };
        std::fs::create_dir_all(dir)
            .map_err(|e| RdfError::io(format!("create session directory {}", dir.display()), &e))?;
        solution.graph.persist(dir.join("solution"))?;

        let mut text = String::from("RPS-SESSION v1\n");
        let cfg = &self.inner.config;
        let semantics = match cfg.semantics {
            Semantics::Certain => "certain",
            Semantics::Star => "star",
        };
        let _ = writeln!(text, "semantics {semantics}");
        let _ = writeln!(text, "chase.max_rounds {}", cfg.chase.max_rounds);
        let _ = writeln!(text, "chase.max_triples {}", cfg.chase.max_triples);
        let _ = writeln!(text, "rewrite.max_depth {}", cfg.rewrite.max_depth);
        let _ = writeln!(text, "rewrite.max_cqs {}", cfg.rewrite.max_cqs);
        let s = &solution.stats;
        let _ = writeln!(
            text,
            "stats {} {} {} {} {}",
            s.rounds, s.gma_firings, s.eq_copies, s.blanks_created, s.invalid_firings
        );
        let _ = writeln!(text, "complete {}", solution.complete);
        if classes.is_some() {
            text.push_str("quotient\n");
        }
        for (_, members) in self.inner.eq_index.classes() {
            text.push_str("eq");
            for m in members {
                text.push(' ');
                text.push_str(&escape_field(m.as_str()));
            }
            text.push('\n');
        }
        text.push_str("end\n");

        // Same commit discipline as the graph manifest: the rename is
        // the point after which the session exists.
        let tmp = dir.join("SESSION.tmp");
        let dst = dir.join("SESSION");
        let ctx = || format!("commit session file in {}", dir.display());
        std::fs::write(&tmp, &text)
            .and_then(|()| std::fs::File::open(&tmp).and_then(|f| f.sync_all()))
            .and_then(|()| std::fs::rename(&tmp, &dst))
            .map_err(|e| RdfError::io(ctx(), &e))?;
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    /// Reopens a session persisted by [`FrozenSession::persist`]: the
    /// chased solution is recovered through the durable graph tier
    /// (checksum-verified pages, WAL replay — no chase), a quotient's
    /// class table is looked up again in its recovered dictionary, and
    /// the handle answers on the materialised route exactly as the
    /// pre-persist session did, byte-identically. Malformed session
    /// metadata is a typed [`rps_rdf::RdfError::Corrupt`] via
    /// [`RpsError::Rdf`]; the federated retry/failure policies reset to
    /// defaults (they describe transports, not this snapshot).
    pub fn open(dir: impl AsRef<Path>) -> Result<FrozenSession, RpsError> {
        let dir = dir.as_ref();
        let path = dir.join("SESSION");
        let name = path.display().to_string();
        let text = std::fs::read_to_string(&path)
            .map_err(|e| RdfError::io(format!("open session file {name}"), &e))?;
        let corrupt = |detail: &str| RpsError::Rdf(RdfError::corrupt(&name, detail));

        let mut lines = text.lines();
        if lines.next() != Some("RPS-SESSION v1") {
            return Err(corrupt("bad session header"));
        }
        let mut semantics = None;
        let mut chase_rounds = None;
        let mut chase_triples = None;
        let mut rw_depth = None;
        let mut rw_cqs = None;
        let mut stats: Option<RpsChaseStats> = None;
        let mut complete = None;
        let mut quotient = false;
        let mut mappings: Vec<EquivalenceMapping> = Vec::new();
        let mut ended = false;
        for line in lines {
            let mut parts = line.split(' ');
            let key = parts.next().unwrap_or("");
            let num = |v: Option<&str>| -> Result<usize, RpsError> {
                v.and_then(|v| v.parse().ok())
                    .ok_or_else(|| corrupt(&format!("bad numeric field in `{line}`")))
            };
            match key {
                "semantics" => {
                    semantics = Some(match parts.next() {
                        Some("certain") => Semantics::Certain,
                        Some("star") => Semantics::Star,
                        _ => return Err(corrupt("unknown semantics")),
                    });
                }
                "chase.max_rounds" => chase_rounds = Some(num(parts.next())?),
                "chase.max_triples" => chase_triples = Some(num(parts.next())?),
                "rewrite.max_depth" => rw_depth = Some(num(parts.next())?),
                "rewrite.max_cqs" => rw_cqs = Some(num(parts.next())?),
                "stats" => {
                    stats = Some(RpsChaseStats {
                        rounds: num(parts.next())?,
                        gma_firings: num(parts.next())?,
                        eq_copies: num(parts.next())?,
                        blanks_created: num(parts.next())? as u64,
                        invalid_firings: num(parts.next())?,
                        // Live-update counters are not persisted — a
                        // reopened session starts from a quiescent state.
                        ..RpsChaseStats::default()
                    });
                }
                "complete" => {
                    complete = Some(match parts.next() {
                        Some("true") => true,
                        Some("false") => false,
                        _ => return Err(corrupt("bad completeness flag")),
                    });
                }
                "quotient" => quotient = true,
                "eq" => {
                    let members: Vec<Iri> = parts
                        .map(|m| unescape_field(m).map(Iri::new))
                        .collect::<Result<_, _>>()
                        .map_err(|detail| corrupt(&detail))?;
                    let [first, rest @ ..] = members.as_slice() else {
                        return Err(corrupt("empty equivalence class"));
                    };
                    for m in rest {
                        mappings.push(EquivalenceMapping::new(first.clone(), m.clone()));
                    }
                }
                "end" => {
                    ended = true;
                    break;
                }
                _ => return Err(corrupt(&format!("unknown session field `{key}`"))),
            }
        }
        if !ended {
            return Err(corrupt("session file is truncated (no `end` marker)"));
        }
        let (Some(semantics), Some(stats), Some(complete)) = (semantics, stats, complete) else {
            return Err(corrupt("session file is missing required fields"));
        };
        if !complete {
            // `Session::universal_solution` refuses an incomplete chase as
            // unsound to answer over, so `persist` never writes one.
            return Err(corrupt("session records an incomplete universal solution"));
        }

        let mut graph = Graph::open(dir.join("solution"))?;
        // The persisted solution was sealed; recovery replays the tail
        // through the WAL, so re-seal for lock-free shared scans, and rank
        // the dictionary for the SPARQL tail before the first read.
        graph.seal();
        graph.term_order();
        let eq_index = EquivalenceIndex::from_mappings(&mappings);
        // The quotient chase interned every class member before it ran,
        // so the recovered dictionary holds the whole table.
        let classes = match quotient {
            true => Some(Arc::new(ClassTable::find(&eq_index, &graph).ok_or_else(
                || corrupt("a class member is missing from the quotient's dictionary"),
            )?)),
            false => None,
        };
        let mut config = EngineConfig::default()
            .with_strategy(Strategy::Materialise)
            .with_semantics(semantics);
        if let (Some(r), Some(t)) = (chase_rounds, chase_triples) {
            config.chase.max_rounds = r;
            config.chase.max_triples = t;
        }
        if let (Some(d), Some(c)) = (rw_depth, rw_cqs) {
            config.rewrite.max_depth = d;
            config.rewrite.max_cqs = c;
        }
        Ok(FrozenSession {
            inner: Arc::new(FrozenInner {
                id: next_session_id(),
                config,
                eq_index: Arc::new(eq_index),
                route: ExecRoute::Materialised,
                compiler: Compiler::Chased((
                    Arc::new(UniversalSolution {
                        graph,
                        stats,
                        complete,
                    }),
                    classes,
                )),
                cache: Mutex::new(PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY)),
            }),
        })
    }
}

/// Escapes one space-separated `SESSION` field (IRIs may in principle
/// contain spaces or control characters).
fn escape_field(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            ' ' => out.push_str("\\_"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            other => out.push(other),
        }
    }
    out
}

fn unescape_field(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('_') => out.push(' '),
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            _ => return Err(format!("bad escape in session field `{s}`")),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::super::tests::{cast_query, linear_system};
    use super::super::ExecConfig;
    use super::*;

    /// Where the solution lives: one resealed in place keeps its
    /// allocation, a copy cannot while the original is still alive. (Not
    /// the dictionary's buffer: a cloned graph shares that.)
    fn solution_at(solution: &UniversalSolution) -> *const UniversalSolution {
        solution
    }

    fn frozen_solution_at(frozen: &FrozenSession) -> *const UniversalSolution {
        frozen
            .solution()
            .map_or(std::ptr::null(), |s| solution_at(s))
    }

    /// An insert hands back what the map let go of, for the caller to
    /// drop unlocked: the oldest entry at capacity, or its own entry
    /// when one under the same key was there first.
    #[test]
    fn fifo_insert_returns_what_it_lets_go() {
        let mut fifo: Fifo<u32, Arc<&str>> = Fifo::new(2);
        assert_eq!(fifo.insert(1, Arc::new("a")), (Arc::new("a"), None));
        assert_eq!(fifo.insert(2, Arc::new("b")), (Arc::new("b"), None));
        assert_eq!(
            fifo.insert(2, Arc::new("late")),
            (Arc::new("b"), Some((2, Arc::new("late"))))
        );
        assert_eq!(
            fifo.insert(3, Arc::new("c")),
            (Arc::new("c"), Some((1, Arc::new("a"))))
        );
        assert_eq!(
            (fifo.len(), fifo.get(&1), fifo.get(&3)),
            (2, None, Some(Arc::new("c")))
        );
    }

    #[test]
    fn freeze_reseals_a_solely_owned_solution_in_place() -> Result<(), RpsError> {
        let config = EngineConfig::default()
            .with_strategy(Strategy::Materialise)
            .with_exec(ExecConfig { compress: true });
        let mut session = Session::open(linear_system(), config.clone())?;
        let before = solution_at(&*session.universal_solution()?);
        let frozen = session.freeze()?;
        assert_eq!(
            frozen_solution_at(&frozen),
            before,
            "the session was the only owner"
        );

        // Held by the caller, the solution is copied, and the caller's
        // copy still answers as the frozen one does.
        let mut session = Session::open(linear_system(), config)?;
        let held = session.universal_solution()?;
        let frozen = session.freeze()?;
        assert_ne!(
            frozen_solution_at(&frozen),
            solution_at(&held),
            "both copies are alive"
        );
        let expected = crate::answers::certain_answers(&held, &cast_query());
        assert_eq!(frozen.answer(&cast_query())?.into_set(), expected);
        Ok(())
    }
}
