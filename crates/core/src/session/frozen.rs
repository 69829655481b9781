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
//! **plan cache**'s ([`PlanCache`]) — three bounded maps under one
//! mutex, conjunctive plans keyed on the canonical numbered-variable
//! form of the query, whole SPARQL statements keyed on their text and
//! SPARQL text shapes keyed on their tokens with the constants numbered,
//! held for a hash probe and never across parsing, compilation or
//! execution — with hit/miss counters exposed via
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
    next_session_id, stream_vars, AnswerStream, BranchTemplate, Chased, EngineConfig, ExecRoute,
    GraphHandle, Plan, PreparedQuery, Session, Strategy,
};
use crate::answers::AnswerSet;
use crate::chase::{RpsChaseStats, UniversalSolution};
use crate::equivalence::{canonicalize_query, ClassTable, EquivalenceIndex};
use crate::error::RpsError;
use crate::live::Retention;
use crate::mapping::EquivalenceMapping;
use crate::rewriting::{RewriteTemplate, RpsRewriter};
use crate::sparql::{common_prefixes, prepare_sparql_with, PreparedSparql};
use rps_query::sparql::shape::{bind_query, bound_term, placeholder_index};
use rps_query::sparql::{SparqlShape, SparqlTemplate};
use rps_query::{GraphPatternQuery, Semantics, TermOrVar, Variable};
use rps_rdf::{Graph, Iri, LiteralAnnotation, RdfError, Term, TermId};
use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::hash::{BuildHasher, Hash};
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
    /// Preparations that compiled a fresh plan: plan-key misses, and the
    /// plans of a statement bound into its shape's template.
    pub misses: u64,
    /// Of the `misses`, the plans compiled by binding a SPARQL text's
    /// constants into its shape's template: no parsing, lowering or
    /// plan-key probe ([`PlanCache::get_or_prepare_sparql`]).
    pub binds: u64,
    /// Conjunctive plans currently cached.
    pub entries: usize,
    /// The configured bound — of `entries`, `statements` and `shapes`,
    /// each.
    pub capacity: usize,
    /// SPARQL statements currently cached by their text.
    pub statements: usize,
    /// SPARQL text shapes currently known, with a template or without.
    pub shapes: usize,
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

    /// The value held under `key`, borrowed.
    fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key)
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

    /// Sets `key`'s value to `value`: in place, keeping its turn in the
    /// eviction order, when `key` is held, and as [`Self::insert`] does
    /// otherwise. Returns what the map let go of, for the caller to drop
    /// unlocked.
    pub(crate) fn replace(&mut self, key: K, value: V) -> Option<(K, V)> {
        match self.map.get_mut(&key) {
            Some(held) => Some((key, std::mem::replace(held, value))),
            None => self.insert(key, value).1,
        }
    }

    /// Entries currently held.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }
}

/// How a façade compiles the conjunctive queries a SPARQL text lowers
/// to, as its plan cache's statement front
/// ([`PlanCache::get_or_prepare_sparql`]) drives it: through its plan
/// cache, or by binding a text's constants into what a text shape keeps
/// of each CQ.
pub trait SparqlCompiler {
    /// The façade's plan of one CQ.
    type Plan;
    /// What a text shape keeps of one of its lowered CQs.
    type Template;

    /// Prepares `cq` through the façade's plan cache
    /// ([`PlanCache::get_or_compile`]): the path of a text whose shape
    /// has no template, and the façade's CQ API.
    fn prepare_cq(&self, cq: &GraphPatternQuery) -> Result<Arc<Self::Plan>, RpsError>;

    /// The template of `cq` — a lowered CQ of a shape's template, with
    /// [`placeholder`](rps_query::sparql::shape::placeholder)`(k)` for
    /// parameter `k` — made while the text whose parameters are `values`
    /// is bound. `None` when the façade binds no text of the shape: each
    /// then takes the plan cache's path.
    fn template_cq(&self, cq: &GraphPatternQuery, values: &[Term]) -> Option<Self::Template>;

    /// The plan of `cq` with its parameters bound to `values`, compiled
    /// from `template` without a plan-cache probe; `None` when this text
    /// must take the plan cache's path instead.
    fn bind_cq(
        &self,
        template: &Self::Template,
        cq: &GraphPatternQuery,
        values: &[Term],
    ) -> Option<Self::Plan>;
}

/// What the statement front knows of a SPARQL text shape, under the hash
/// of its key.
enum Shape<S> {
    /// A text of the shape was prepared: the next one makes its template.
    Seen,
    /// The shape's template, and the façade's of each lowered CQ.
    Bound(Arc<BoundShape<S>>),
    /// The façade binds no text of the shape.
    Unbound,
}

impl<S> Clone for Shape<S> {
    fn clone(&self) -> Self {
        match self {
            Shape::Seen => Shape::Seen,
            Shape::Bound(bound) => Shape::Bound(bound.clone()),
            Shape::Unbound => Shape::Unbound,
        }
    }
}

/// A shape's template and the façade's template of each of its CQs, in
/// [`rps_query::LoweredSparql::queries`] order.
struct BoundShape<S> {
    sparql: SparqlTemplate,
    cqs: Vec<S>,
}

/// The bounded plan cache of a frozen façade, keyed three ways under one
/// bound, one mutex and one set of counters:
///
/// * **plans** — canonical query key ([`canonical_plan_key`]) → shared
///   prepared plan, so α-equivalent conjunctive queries compile once no
///   matter which SPARQL text (or CQ-API caller) they came from;
/// * **statements** — SPARQL text, byte for byte → the whole
///   [`PreparedSparql`] (lowered recipe + its plans), so a repeated
///   text skips lexing, parsing, lowering, key building and the per-CQ
///   probes ([`PlanCache::get_or_prepare_sparql`]). The map is keyed on
///   a keyed hash of the text, taken once per preparation, and holds the
///   text beside its statement: a probe, an insert and an eviction read
///   each text once at most;
/// * **shapes** — a SPARQL text's shape ([`SparqlShape`]: its tokens,
///   constants numbered) → the shape parsed and lowered once with
///   placeholders, and the façade's template of each CQ, so a new text
///   of a seen shape is lexed and bound, not parsed, lowered and keyed.
///
/// Each is FIFO-evicted at `capacity`. The mutex (owned by the
/// embedding session) guards the maps, their eviction orders and the
/// counters together — a critical section is a hash probe, so the lock
/// is never held across parsing, compilation or execution. Generic over
/// the plan type `T` and the façade's CQ template `S` so the federated
/// counterpart in `rps-p2p` shares the implementation.
pub struct PlanCache<T, S = ()> {
    plans: Fifo<Arc<str>, Arc<T>>,
    statements: Fifo<u64, (Arc<str>, PreparedSparql<Arc<T>>)>,
    /// The keyed hasher of the statements' texts.
    texts: RandomState,
    shapes: Fifo<u64, Shape<S>>,
    hits: u64,
    misses: u64,
    binds: u64,
}

impl<T, S> PlanCache<T, S> {
    /// An empty cache bounded to `capacity` plans and as many
    /// statements and shapes (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        PlanCache {
            plans: Fifo::new(capacity),
            statements: Fifo::new(capacity),
            texts: RandomState::new(),
            shapes: Fifo::new(capacity),
            hits: 0,
            misses: 0,
            binds: 0,
        }
    }

    /// Locks `cache`, recovering it if the mutex is poisoned. That is
    /// sound because a guard only ever lives for a hash probe with a
    /// counter bump, a whole-entry insert or replace (the oldest entry
    /// unlinked, then one added) or a read of the counters: `std`
    /// collection calls and `Arc` clones, which do not panic short of an
    /// allocation failure, and that aborts. Parsing, compiling and
    /// executing run unlocked, and so does freeing: an insert hands the
    /// evicted entry (a statement's plans, a shape's template) back to
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

    /// The statement cached for exactly this `text`; else the text bound
    /// into its shape's template; else a fresh parse, lowering and
    /// prepare of each CQ through `compiler`'s plan-cache path, which
    /// counts in [`PlanCache::get_or_compile`], a hit or a miss per CQ,
    /// exactly as a caller of the CQ API would.
    ///
    /// A shape is made a template lazily. The first text of a shape
    /// takes the plan-cache path and leaves only the shape's hash
    /// behind, so a text asked once costs no more than before. The
    /// second is parsed and lowered once more with placeholders for its
    /// constants ([`SparqlTemplate`]), `compiler` makes a template of
    /// each CQ, and the text is bound into them. Every later text of the
    /// shape is lexed, checked against the template's key, has its
    /// constants resolved and each CQ bound ([`SparqlCompiler::bind_cq`]):
    /// its plans count as misses, and as `binds`. A text whose constant
    /// does not resolve (an undeclared prefix), or which `compiler`
    /// declines to bind, takes the plan-cache path — where a malformed
    /// text fails with its typed, spanned error.
    ///
    /// Nothing runs under the lock but the hash probes and inserts; a
    /// text that fails to parse, lower or prepare is an `Err` and is
    /// never cached, and racing threads converge on the first statement
    /// inserted.
    pub fn get_or_prepare_sparql<C>(
        cache: &Mutex<Self>,
        text: &str,
        compiler: &C,
    ) -> Result<PreparedSparql<Arc<T>>, RpsError>
    where
        C: SparqlCompiler<Plan = T, Template = S>,
    {
        let hash = match Self::lock(cache).statement(text) {
            Ok(hit) => return Ok(hit),
            Err(hash) => hash,
        };
        let shape = SparqlShape::of(text);
        let bound = shape.as_ref().and_then(|s| Self::bind(cache, s, compiler));
        let (prepared, binds) = match bound {
            Some(bound) => bound,
            None => {
                let prepared = prepare_sparql_with(text, |cq| compiler.prepare_cq(cq))?;
                if let Some(shape) = &shape {
                    // A shape known already keeps what it has.
                    let _released = Self::lock(cache).shapes.insert(shape.hash(), Shape::Seen);
                }
                (prepared, 0)
            }
        };
        let mut guard = Self::lock(cache);
        guard.misses += binds;
        guard.binds += binds;
        // Another text under the same hash keeps its place: this one is
        // served uncached.
        if guard
            .statements
            .peek(&hash)
            .is_some_and(|(held, _)| **held != *text)
        {
            return Ok(prepared);
        }
        let ((_, statement), released) = guard.statements.insert(hash, (text.into(), prepared));
        drop(guard);
        drop(released);
        Ok(statement)
    }

    /// The statement of `shape`'s text bound into the shape's template —
    /// made now when the shape was only seen — and the number of plans
    /// bound; `None` when the text takes the plan-cache path.
    fn bind<C>(
        cache: &Mutex<Self>,
        shape: &SparqlShape<'_>,
        compiler: &C,
    ) -> Option<(PreparedSparql<Arc<T>>, u64)>
    where
        C: SparqlCompiler<Plan = T, Template = S>,
    {
        let base = common_prefixes();
        let known = Self::lock(cache).shapes.get(&shape.hash())?;
        let (bound, values) = match known {
            Shape::Bound(bound) if bound.sparql.matches(shape) => {
                let values = bound.sparql.values(shape, base)?;
                (bound, values)
            }
            Shape::Seen => {
                let sparql = SparqlTemplate::new(shape, base).ok()?;
                let values = sparql.values(shape, base)?;
                let cqs = (sparql.lowered().cqs())
                    .map(|cq| compiler.template_cq(cq, &values))
                    .collect::<Option<Vec<_>>>();
                let made = match cqs {
                    Some(cqs) => Shape::Bound(Arc::new(BoundShape { sparql, cqs })),
                    None => Shape::Unbound,
                };
                let _released = Self::lock(cache).shapes.replace(shape.hash(), made.clone());
                match made {
                    Shape::Bound(bound) => (bound, values),
                    _ => return None,
                }
            }
            Shape::Bound(_) | Shape::Unbound => return None,
        };
        let lowered = bound.sparql.lowered();
        let mut plans = Vec::with_capacity(bound.cqs.len());
        for (cq, template) in lowered.cqs().zip(&bound.cqs) {
            plans.push(Arc::new(compiler.bind_cq(template, cq, &values)?));
        }
        let lowered = match bound.sparql.bind_lowered(&values) {
            Some(own) => Arc::new(own),
            None => lowered.clone(),
        };
        let binds = plans.len() as u64;
        Some((PreparedSparql::new(lowered, plans), binds))
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
    /// A miss is the text's hash, under which the caller inserts.
    fn statement(&mut self, text: &str) -> Result<PreparedSparql<Arc<T>>, u64> {
        let hash = self.texts.hash_one(text);
        match self.statements.peek(&hash) {
            Some((held, hit)) if **held == *text => {
                self.hits += hit.plan_count() as u64;
                Ok(hit.clone())
            }
            _ => Err(hash),
        }
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits,
            misses: self.misses,
            binds: self.binds,
            entries: self.plans.len(),
            capacity: self.plans.capacity,
            statements: self.statements.len(),
            shapes: self.shapes.len(),
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
    /// The live epoch this session answers, stamped on its plans, and
    /// the live session's retention window; 0 and `None` on a freeze.
    epoch: u32,
    retention: Option<Arc<Retention>>,
    config: EngineConfig,
    eq_index: Arc<EquivalenceIndex>,
    /// Where every fresh preparation goes — resolved once, at freeze (the
    /// configuration and the FO-rewritability verdict never change).
    route: ExecRoute,
    compiler: Compiler,
    cache: Mutex<PlanCache<PreparedQuery, CqTemplate>>,
}

impl FrozenInner {
    /// A frozen session's state: no live epoch, and an empty plan cache
    /// bounded to `capacity`.
    fn new(
        id: u64,
        config: EngineConfig,
        eq_index: Arc<EquivalenceIndex>,
        (route, compiler): (ExecRoute, Compiler),
        capacity: usize,
    ) -> Self {
        FrozenInner {
            id,
            epoch: 0,
            retention: None,
            config,
            eq_index,
            route,
            compiler,
            cache: Mutex::new(PlanCache::new(capacity)),
        }
    }
}

/// What a frozen session's SPARQL front keeps of one lowered CQ of a text
/// shape: its projection, and its plan with the parameters left open.
struct CqTemplate {
    vars: Arc<[Variable]>,
    plan: PlanTemplate,
}

/// A [`CqTemplate`]'s plan, per route.
enum PlanTemplate {
    /// The materialised route: the CQ as one branch over the chased
    /// solution, its constants on their class representatives over a
    /// quotient; and the parameters of the text the template was made
    /// from with their ids, which a text spelling a parameter alike
    /// reuses instead of looking its term up again.
    Chased(BranchTemplate, Vec<(Term, Option<TermId>)>),
    /// The rewritten route: the compiled union of the CQ's query shape.
    Rewritten(RewriteTemplate),
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
        let routed = match rewriter {
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
        let id = next_session_id();
        let inner = FrozenInner::new(id, self.config, self.eq_index, routed, capacity);
        Ok(FrozenSession {
            inner: Arc::new(inner),
        })
    }
}

impl FrozenSession {
    /// A [`crate::LiveSession`]'s `epoch`: its sealed `solution` on the
    /// materialised route, under the identity `id` every epoch's session
    /// shares. Nothing is resealed, ranked or copied (see [`crate::live`]).
    pub(crate) fn live_epoch(
        id: u64,
        epoch: u32,
        retention: Arc<Retention>,
        config: EngineConfig,
        eq_index: Arc<EquivalenceIndex>,
        solution: Arc<UniversalSolution>,
    ) -> Self {
        let routed = (ExecRoute::Materialised, Compiler::Chased((solution, None)));
        let mut inner = FrozenInner::new(id, config, eq_index, routed, DEFAULT_PLAN_CACHE_CAPACITY);
        (inner.epoch, inner.retention) = (epoch, Some(retention));
        FrozenSession {
            inner: Arc::new(inner),
        }
    }

    /// The live epoch this session answers; 0 on a freeze.
    pub(crate) fn epoch(&self) -> u32 {
        self.inner.epoch
    }

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

    /// [`FrozenSession::prepare_sparql`]: the plan cache's statement
    /// front, driving this session's compile.
    pub(crate) fn prepare_statement(&self, text: &str) -> Result<PreparedSparql, RpsError> {
        PlanCache::get_or_prepare_sparql(&self.inner.cache, text, &*self.inner)
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
    /// Cache-hit note, a live epoch's included: the projection variable
    /// *names* on executed streams are those of the first-prepared
    /// representative of the α-equivalence class; answer tuples are
    /// identical for every member of the class.
    pub fn prepare(&self, query: &GraphPatternQuery) -> Result<Arc<PreparedQuery>, RpsError> {
        self.inner.prepare_cq(query)
    }

    /// Executes a prepared query, returning a streaming answer iterator.
    /// Lock-free on every route: a plan touches only the immutable,
    /// sealed substrate it carries. The query must have been prepared by
    /// this frozen session (or a clone of it):
    /// [`RpsError::SessionMismatch`] otherwise, and a live epoch's plan
    /// is [`RpsError::StalePlan`] once the retention window leaves it.
    pub fn execute(&self, prepared: &PreparedQuery) -> Result<AnswerStream, RpsError> {
        self.execute_as(prepared, prepared.semantics)
    }

    /// [`FrozenSession::execute`] under `semantics`, as a
    /// [`crate::LiveReader`] sets it per handle.
    pub(crate) fn execute_as(
        &self,
        prepared: &PreparedQuery,
        semantics: Semantics,
    ) -> Result<AnswerStream, RpsError> {
        if prepared.session_id != self.inner.id {
            return Err(RpsError::SessionMismatch);
        }
        if let Some(retention) = &self.inner.retention {
            retention.admit(prepared.epoch)?;
        }
        Ok(prepared
            .plan
            .execute(prepared.vars.clone(), prepared.route, semantics))
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
    pub(crate) fn solution(&self) -> Option<&Arc<UniversalSolution>> {
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
    /// (checksum-verified pages — no chase), a quotient's
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
        // The persisted solution was sealed, but recovery rebuilds a
        // writable run store, so re-seal for lock-free shared scans, and
        // rank the dictionary for the SPARQL tail before the first read.
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
        let solution = Arc::new(UniversalSolution {
            graph,
            stats,
            complete,
        });
        let routed = (
            ExecRoute::Materialised,
            Compiler::Chased((solution, classes)),
        );
        let (id, eq_index) = (next_session_id(), Arc::new(eq_index));
        let inner = FrozenInner::new(id, config, eq_index, routed, DEFAULT_PLAN_CACHE_CAPACITY);
        Ok(FrozenSession {
            inner: Arc::new(inner),
        })
    }
}

impl FrozenInner {
    /// A plan-cache miss: the route → [`Plan`] compile over the frozen
    /// compile state, which is all there will ever be — a frozen session
    /// cannot start a chase.
    fn compile(&self, query: &GraphPatternQuery) -> Result<PreparedQuery, RpsError> {
        let config = &self.config;
        let chased = |chased: Chased| Plan::chased(chased, &self.eq_index, query);
        let (route, rewrite_fell_back, plan) = match &self.compiler {
            Compiler::Chased(solution) => (self.route, false, chased(solution.clone())),
            Compiler::Rewriter(rewriter, fallback) => {
                let rewritten = rewriter.plan(query, &config.rewrite);
                match fallback {
                    _ if rewritten.complete => (self.route, false, rewritten.plan),
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
            session_id: self.id,
            epoch: self.epoch,
            vars: stream_vars(query),
            route,
            semantics: config.semantics,
            rewrite_fell_back,
            plan,
        })
    }
}

impl SparqlCompiler for FrozenInner {
    type Plan = PreparedQuery;
    type Template = CqTemplate;

    fn prepare_cq(&self, cq: &GraphPatternQuery) -> Result<Arc<PreparedQuery>, RpsError> {
        PlanCache::get_or_compile(&self.cache, cq, || self.compile(cq))
    }

    /// On the materialised route the CQ as one branch over the solution,
    /// always; on the rewritten route the compiled union of the query
    /// shape of the CQ bound to `values`, when its rewriting completes
    /// within the budgets (otherwise the plan-cache path falls back or
    /// fails as [`FrozenSession::prepare`] documents).
    fn template_cq(&self, cq: &GraphPatternQuery, values: &[Term]) -> Option<CqTemplate> {
        let plan = match &self.compiler {
            Compiler::Chased((solution, classes)) => {
                let canonical;
                let cq = match classes {
                    Some(_) => {
                        canonical = canonicalize_query(cq, &self.eq_index);
                        &canonical
                    }
                    None => cq,
                };
                let graph = &solution.graph;
                let branch = BranchTemplate::of_query(graph, cq, placeholder_index);
                let index = classes.as_ref().map(|_| &*self.eq_index);
                let ids = values
                    .iter()
                    .map(|v| (v.clone(), solution_id(graph, index, v)));
                PlanTemplate::Chased(branch, ids.collect())
            }
            Compiler::Rewriter(rewriter, _) => {
                let query = bind_query(cq, values);
                PlanTemplate::Rewritten(rewriter.template(&query, &self.config.rewrite)?)
            }
        };
        Some(CqTemplate {
            vars: stream_vars(cq),
            plan,
        })
    }

    /// The template's plan with `values` written in: the parameters'
    /// ids looked up in the solution (on their class representatives over
    /// a quotient) and the branch planned, or the rewriter's
    /// [`RpsRewriter::plan_from`] — `None` when the CQ bound to `values`
    /// is of another query shape than the template's.
    fn bind_cq(
        &self,
        template: &CqTemplate,
        cq: &GraphPatternQuery,
        values: &[Term],
    ) -> Option<PreparedQuery> {
        let plan = match (&self.compiler, &template.plan) {
            (Compiler::Chased((solution, classes)), PlanTemplate::Chased(branch, known)) => {
                let index = classes.as_ref().map(|_| &*self.eq_index);
                let id = |k: usize| {
                    let value = values.get(k)?;
                    match known.get(k) {
                        Some((term, id)) if term == value => *id,
                        _ => solution_id(&solution.graph, index, value),
                    }
                };
                let handle = GraphHandle::Solution(solution.clone());
                Plan::bound(handle, std::slice::from_ref(branch), id, classes.clone())
            }
            (Compiler::Rewriter(rewriter, _), PlanTemplate::Rewritten(union)) => {
                let value = |c| bound_term(c, values);
                rewriter.plan_from(union, cq, &self.config.rewrite, value)?
            }
            _ => return None,
        };
        Some(PreparedQuery {
            session_id: self.id,
            epoch: self.epoch,
            vars: template.vars.clone(),
            route: self.route,
            semantics: self.config.semantics,
            rewrite_fell_back: false,
            plan,
        })
    }
}

/// The id of `value` in a chased solution's `graph`: of its class
/// representative when the solution is the chase of the equivalence
/// quotient by `index`.
fn solution_id(graph: &Graph, index: Option<&EquivalenceIndex>, value: &Term) -> Option<TermId> {
    match index {
        Some(index) => graph.term_id(&index.canonical_term(value)),
        None => graph.term_id(value),
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
