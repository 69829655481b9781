//! Live updates under serving: incremental chase maintenance behind
//! epoch-stamped immutable snapshots.
//!
//! A [`crate::Session`] freezes one system once, and the
//! [`crate::FrozenSession`] it freezes into forbids change altogether. This module fills the gap between them: a
//! [`LiveSession`] owns the write side of a peer system and keeps its
//! materialised universal solution *incrementally* maintained while
//! any number of [`LiveReader`]s keep answering queries concurrently.
//!
//! # Epoch MVCC
//!
//! Every committed update batch publishes a new **epoch**: a
//! [`FrozenSession`] over the sealed universal solution, with its own
//! plan cache and statement front. Publication is an atomic pointer swap
//! behind an `RwLock`, giving multi-version concurrency:
//!
//! - readers never block the writer and never observe a torn graph —
//!   they either see epoch *N* or epoch *N+1*, complete in both cases;
//! - the writer blocks readers for a pointer swap and no longer: the
//!   replaced epoch is dropped — when the writer held its last
//!   reference, a free of its predicate counts, its dictionary tail and
//!   whatever runs and dictionary base no later epoch shares — only after
//!   the write guard is released;
//! - a plan prepared at epoch *N* ([`PreparedQuery::epoch`]) keeps
//!   executing against epoch *N*'s pinned solution on any later epoch's
//!   session — all share one identity — until the writer's retention
//!   floor passes it; then execution fails with the typed
//!   [`RpsError::StalePlan`] and the caller re-prepares.
//!
//! # Publish cost
//!
//! A publish seals the write-side graph and takes its
//! [`read_only_copy`](rps_rdf::Graph::read_only_copy). The seal is one
//! merge pass per permutation that copies the solution's run around the
//! batch's few additions and tombstones (1.7–2.6 ms on the repo
//! benchmark's `live_churn`: 185k–245k solution triples, 64-triple
//! batches, 2-core VM). The copy **shares** the three runs — its store
//! is a clone of the sealed store, which holds nothing else: an empty
//! tail, no tombstone, and no set of its keys, so its membership test
//! is a lookup in the SPO run's directory — and the term dictionary's
//! `Arc`-shared base, and carries the planner statistics; it
//! **copies** the per-predicate counts and the dictionary's tail — the
//! terms interned since its last fold, at most `max(1024, base / 8)`;
//! it **leaves** the writer's insertion log and the log's position map
//! on the write side, where the chase needs them and readers never
//! did. So the seal's merge is the one `O(solution)` copy of a publish:
//! traced on `live_churn`, the copy is ≈ 0.05 ms where `Graph::clone`
//! was ≈ 10, and an `apply` ≈ 4 ms where it was ≈ 13. Every published
//! solution is one run per permutation with no tail and no tombstone,
//! so a reader's probe never merges.
//!
//! The planner statistics are the one part of a publish that is
//! `O(batch)`: the seal patches the previous epoch's `GraphStats` from
//! the batch's net delta (`rps_rdf::stats`; well under a millisecond
//! where the full sweep took 5–6) and the copy carries the result, so
//! an epoch's first `prepare` finds its statistics in place instead of
//! sweeping the solution — what is left of a cold read is a plan miss
//! on a cold cache. Only epoch 0, and a batch too large for a patch to
//! pay, sweep; they do it here, on the writer's side.
//!
//! The term order the SPARQL tail ranks answers by
//! ([`Graph::term_order`](rps_rdf::Graph::term_order)) is left to the
//! readers. Epoch 0 is ranked at open; a batch's new terms take the
//! writer's order out as a base, which the copy carries, and the first
//! read of the epoch that assembles SPARQL rows merges them in on the
//! copy. Placing a new term is a binary search comparing terms through
//! cold caches — about 0.9 ms for a batch's ≈ 110 terms among 94k on
//! `live_churn` — which a publish would pay whether or not the epoch is
//! ever read that way. The writer adopts the order a reader built
//! ([`Graph::adopt_term_order`](rps_rdf::Graph::adopt_term_order))
//! before its next publish, so a patch covers one batch's terms.
//!
//! # Incremental maintenance
//!
//! Insertions extend the solution by the semi-naive chase from the
//! delta window only (the engine's persistent per-assertion log marks).
//! Deletions run **delete-and-rederive** over the derivation provenance
//! recorded during conclusion firing: an over-deleting cascade removes
//! everything the retracted base tuples transitively support, then a
//! rederivation phase re-fires every retracted firing whose premise
//! still holds and restores equivalence copies with surviving sources.
//!
//! Byte-identity of the incrementally maintained solution with a
//! from-scratch re-chase requires a *confluent* chase, so live sessions
//! force [`FiringMode::Skolem`]:
//! fresh blanks are named deterministically by the firing that creates
//! them, making the fixpoint independent of insertion order.

use crate::chase::{ChaseEngine, FiringMode, RpsChaseStats, UniversalSolution};
use crate::equivalence::EquivalenceIndex;
use crate::error::RpsError;
use crate::peer::PeerId;
use crate::session::{
    next_session_id, AnswerStream, EngineConfig, FrozenSession, PlanCacheStats, PreparedQuery,
    Strategy,
};
use crate::sparql::PreparedSparql;
use crate::system::{scoped_term, RdfPeerSystem};
use rps_query::{GraphPatternQuery, Semantics, SparqlResult};
use rps_rdf::{IdTriple, Term, Triple};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// A batch of peer-database updates, applied atomically by
/// [`LiveSession::apply`]: readers observe either none of the batch or
/// all of it (plus its chase consequences). Within a batch, removals
/// are applied before insertions, so removing and re-inserting the same
/// triple is a no-op.
#[derive(Default, Debug, Clone)]
pub struct UpdateBatch {
    inserts: Vec<(PeerId, Triple)>,
    removes: Vec<(PeerId, Triple)>,
}

impl UpdateBatch {
    /// An empty batch.
    pub fn new() -> Self {
        UpdateBatch::default()
    }

    /// Queues a triple for insertion into a peer's database.
    pub fn insert(mut self, peer: PeerId, triple: Triple) -> Self {
        self.inserts.push((peer, triple));
        self
    }

    /// Queues a triple for removal from a peer's database. Removing a
    /// triple the peer does not hold is a no-op.
    pub fn remove(mut self, peer: PeerId, triple: Triple) -> Self {
        self.removes.push((peer, triple));
        self
    }

    /// `true` iff the batch queues no work.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.removes.is_empty()
    }
}

/// A live session's retention window, shared by the writer and every
/// epoch's session: a plan more than `retain` epochs behind the last
/// published one is refused ([`FrozenSession::execute`]).
pub(crate) struct Retention {
    /// The last published epoch.
    epoch: AtomicU32,
    retain: u32,
}

impl Retention {
    /// [`RpsError::StalePlan`] once the window has left `prepared`, the
    /// epoch of a plan, behind.
    pub(crate) fn admit(&self, prepared: u32) -> Result<(), RpsError> {
        let current = self.epoch.load(Ordering::Acquire);
        match prepared < current.saturating_sub(self.retain) {
            true => Err(RpsError::StalePlan { prepared, current }),
            false => Ok(()),
        }
    }
}

/// The published epoch's session, shared between the writer and all
/// readers.
struct LiveShared {
    current: RwLock<FrozenSession>,
}

impl LiveShared {
    // The epoch lock guards one session, an `Arc`, and a guard lives for
    // one clone of it (`load`) or one swap (`swap`): neither can panic
    // short of an allocation failure, which aborts, nor leave the pointer
    // half written. So a poisoned lock still holds a whole published
    // session, and both recover it rather than fail every reader.

    /// The published epoch's session.
    fn load(&self) -> FrozenSession {
        FrozenSession::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Publishes `session`, returning the one it replaces.
    fn swap(&self, session: FrozenSession) -> FrozenSession {
        let mut current = self.current.write().unwrap_or_else(PoisonError::into_inner);
        std::mem::replace(&mut *current, session)
    }
}

/// The write side of a live peer system: owns the system, the
/// incremental chase engine and the publication state. Single-writer by
/// construction (`apply` takes `&mut self`); concurrent reads go
/// through cloneable [`LiveReader`] handles.
pub struct LiveSession {
    system: RdfPeerSystem,
    config: EngineConfig,
    engine: ChaseEngine,
    /// Multiplicity of each scoped base triple across peers (engine id
    /// space). A triple only becomes a retraction candidate when its
    /// count reaches zero — two peers asserting the same IRI-only
    /// triple keep it alive until both drop it.
    base: HashMap<IdTriple, u32>,
    /// What every epoch's session shares. The equivalence index is an
    /// empty one: a live epoch serves the chased solution itself, whose
    /// plans expand no class (`FrozenSession::live_epoch`), and a
    /// [`LiveReader`] reaches no path that reads the index.
    id: u64,
    eq_index: Arc<EquivalenceIndex>,
    retention: Arc<Retention>,
    shared: Arc<LiveShared>,
    epoch: u32,
}

impl LiveSession {
    /// Validates the system, materialises the initial universal
    /// solution and publishes it as epoch 0. Plans stay executable
    /// forever (unbounded retention); see [`LiveSession::open_with_retention`]
    /// to bound the window instead.
    ///
    /// The rewrite route assumes an immutable base instance, so
    /// `config.strategy` must be `Materialise` or `Auto` (both serve
    /// the maintained materialisation); anything else fails with
    /// [`RpsError::LiveNeedsMaterialisation`]. The chase firing mode is
    /// forced to `Skolem` — see the [module docs](self).
    pub fn open(system: RdfPeerSystem, config: EngineConfig) -> Result<Self, RpsError> {
        Self::open_with_retention(system, config, u32::MAX)
    }

    /// Like [`LiveSession::open`], but plans prepared against an epoch
    /// more than `retain` epochs behind the current one fail with
    /// [`RpsError::StalePlan`]. `retain = 0` means only current-epoch
    /// plans execute.
    pub fn open_with_retention(
        system: RdfPeerSystem,
        config: EngineConfig,
        retain: u32,
    ) -> Result<Self, RpsError> {
        system.validate().map_err(RpsError::Validation)?;
        if config.strategy == Strategy::Rewrite {
            return Err(RpsError::LiveNeedsMaterialisation);
        }
        let mut chase = config.chase.clone();
        chase.firing = FiringMode::Skolem;
        let mut engine = ChaseEngine::new(&system, &chase, true);
        let mut base: HashMap<IdTriple, u32> = HashMap::new();
        for (idx, peer) in system.peers().iter().enumerate() {
            for triple in peer.database.iter() {
                let t = scoped_id(&mut engine, idx, &triple);
                *base.entry(t).or_insert(0) += 1;
            }
        }
        if !engine.run() {
            return Err(RpsError::ChaseBudget {
                rounds: engine.stats.rounds,
                triples: engine.graph.len(),
            });
        }
        // Epoch 0 is set-up: its readers find the term order in place.
        engine.graph.term_order();
        let id = next_session_id();
        let eq_index = Arc::new(EquivalenceIndex::default());
        let retention = Arc::new(Retention {
            epoch: AtomicU32::new(0),
            retain,
        });
        let session = FrozenSession::live_epoch(
            id,
            0,
            retention.clone(),
            config.clone(),
            eq_index.clone(),
            seal_solution(&mut engine),
        );
        let shared = Arc::new(LiveShared {
            current: RwLock::new(session),
        });
        Ok(LiveSession {
            system,
            config,
            engine,
            base,
            id,
            eq_index,
            retention,
            shared,
            epoch: 0,
        })
    }

    /// Applies a batch to the peer databases, repairs the universal
    /// solution incrementally and publishes the result as a new epoch.
    /// Returns the committed epoch number. An empty batch still commits
    /// (and bumps) an epoch.
    ///
    /// On a chase-budget failure the error is returned and **no epoch
    /// is published** — readers keep serving the last committed epoch —
    /// but the write side is left mid-repair and the session should be
    /// discarded (rebuild via [`LiveSession::open`] from the peers'
    /// databases, which the failed batch has already mutated).
    ///
    /// A batch entry naming a peer outside the system is
    /// [`RpsError::UnknownPeer`]: the whole batch is refused before any
    /// peer database changes, and the session stays usable.
    pub fn apply(&mut self, batch: &UpdateBatch) -> Result<u32, RpsError> {
        let peers = self.system.peers().len();
        if let Some((peer, _)) = batch
            .removes
            .iter()
            .chain(&batch.inserts)
            .find(|(peer, _)| peer.0 >= peers)
        {
            return Err(RpsError::UnknownPeer {
                peer: peer.0,
                peers,
            });
        }
        // --- Removals first (batch semantics: remove-then-insert of the
        // same triple is a no-op). ---
        let mut candidates: Vec<IdTriple> = Vec::new();
        for (peer, triple) in &batch.removes {
            let idx = peer.0;
            if !self.system.peer_mut(*peer).database.remove(triple) {
                continue; // absent at the peer — nothing to retract
            }
            let t = scoped_id(&mut self.engine, idx, triple);
            match self.base.get_mut(&t) {
                Some(n) if *n > 1 => *n -= 1,
                Some(_) => {
                    self.base.remove(&t);
                    candidates.push(t);
                }
                None => {}
            }
        }
        // --- Insertions: extend the peer database (and its schema, so
        // the system stays valid), then the base multiplicity map. ---
        let mut fresh: Vec<IdTriple> = Vec::new();
        for (peer, triple) in &batch.inserts {
            let idx = peer.0;
            let p = self.system.peer_mut(*peer);
            for term in [triple.subject(), triple.predicate(), triple.object()] {
                if let Term::Iri(iri) = term {
                    p.schema.insert(iri.clone());
                }
            }
            if !p.database.insert(triple) {
                continue; // the peer already held it
            }
            let t = scoped_id(&mut self.engine, idx, triple);
            let count = self.base.entry(t).or_insert(0);
            *count += 1;
            if *count == 1 {
                fresh.push(t);
            }
        }
        // --- Repair the materialisation: delete-and-rederive for the
        // retracted base tuples, then the semi-naive delta chase over
        // the (re-)insertions. ---
        let complete = if candidates.is_empty() {
            true
        } else {
            let base = &self.base;
            self.engine
                .retract_base(candidates, &|t| base.contains_key(&t))
        };
        for t in fresh {
            self.engine.insert_base(t);
        }
        if !(complete && self.engine.run()) {
            return Err(RpsError::ChaseBudget {
                rounds: self.engine.stats.rounds,
                triples: self.engine.graph.len(),
            });
        }
        self.epoch += 1;
        self.publish();
        Ok(self.epoch)
    }

    /// Swaps the published epoch for one of the write side's current
    /// state. Readers holding the previous session keep it alive; new
    /// preparations see the new epoch.
    fn publish(&mut self) {
        self.engine.graph.adopt_term_order(&self.solution().graph);
        let session = FrozenSession::live_epoch(
            self.id,
            self.epoch,
            self.retention.clone(),
            self.config.clone(),
            self.eq_index.clone(),
            seal_solution(&mut self.engine),
        );
        // Possibly the last reference: freed with the lock released.
        drop(self.shared.swap(session));
        // After the swap, so a refusal never names an unpublished epoch
        // (`Release` pairs with `Retention::admit`'s `Acquire`).
        self.retention.epoch.store(self.epoch, Ordering::Release);
    }

    /// A cloneable read handle over the published epochs. Readers stay
    /// valid (and keep answering) after the `LiveSession` is dropped —
    /// they serve the last published epoch forever.
    pub fn reader(&self) -> LiveReader {
        LiveReader {
            shared: Arc::clone(&self.shared),
            semantics: self.config.semantics,
        }
    }

    /// The last committed epoch number.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// The peer system in its current (post-batch) state.
    pub fn system(&self) -> &RdfPeerSystem {
        &self.system
    }

    /// The currently published universal solution.
    pub fn solution(&self) -> Arc<UniversalSolution> {
        let session = self.shared.load();
        session.solution().expect("a live epoch is chased").clone()
    }

    /// Cumulative chase statistics across the initial materialisation
    /// and every applied batch (`retractions` / `refirings` count the
    /// delete-and-rederive work).
    pub fn stats(&self) -> RpsChaseStats {
        self.engine.stats
    }
}

/// Seals the write-side graph and copies it out as the next epoch's
/// solution, its planner statistics settled and its term order left to
/// the epoch's first SPARQL read (see the module docs' "Publish cost").
fn seal_solution(engine: &mut ChaseEngine) -> Arc<UniversalSolution> {
    engine.graph.seal();
    engine.graph.graph_stats();
    Arc::new(UniversalSolution {
        graph: engine.graph.read_only_copy(),
        stats: engine.stats,
        complete: true,
    })
}

/// Interns a peer triple into the engine's dictionary under the peer's
/// blank scope — the same `p{idx}_` scoping the stored database uses,
/// so live updates and the from-scratch chase agree on identity.
fn scoped_id(engine: &mut ChaseEngine, idx: usize, triple: &Triple) -> IdTriple {
    let s = engine.intern(&scoped_term(idx, triple.subject()));
    let p = engine.intern(&scoped_term(idx, triple.predicate()));
    let o = engine.intern(&scoped_term(idx, triple.object()));
    IdTriple::new(s, p, o)
}

/// A shareable, cloneable read handle over a [`LiveSession`]'s published
/// epochs: each method is the current epoch's [`FrozenSession`]'s, under
/// the handle's semantics. The handle is `Send + Sync`, so worker threads
/// can prepare and execute concurrently while the writer publishes.
#[derive(Clone)]
pub struct LiveReader {
    shared: Arc<LiveShared>,
    semantics: Semantics,
}

impl LiveReader {
    /// The epoch a preparation issued right now would pin.
    pub fn epoch(&self) -> u32 {
        self.shared.load().epoch()
    }

    /// A handle answering under a different result semantics (`Q` drops
    /// blank-node tuples, `Q*` keeps them). The materialised route
    /// serves both, so no re-chase is involved — plans are even shared,
    /// as the semantics is applied at execution.
    pub fn with_semantics(mut self, semantics: Semantics) -> Self {
        self.semantics = semantics;
        self
    }

    /// [`FrozenSession::prepare`] on the current epoch, whose solution
    /// the plan pins, regardless of later publications.
    pub fn prepare(&self, query: &GraphPatternQuery) -> Result<Arc<PreparedQuery>, RpsError> {
        self.shared.load().prepare(query)
    }

    /// Executes a plan against the epoch it was compiled for, until the
    /// writer's retention floor passes it ([`RpsError::StalePlan`]).
    pub fn execute(&self, plan: &PreparedQuery) -> Result<AnswerStream, RpsError> {
        self.shared.load().execute_as(plan, self.semantics)
    }

    /// Prepare-and-execute against the current epoch.
    pub fn answer(&self, query: &GraphPatternQuery) -> Result<AnswerStream, RpsError> {
        let plan = self.prepare(query)?;
        self.execute(&plan)
    }

    /// [`FrozenSession::prepare_sparql`] on the current epoch: every
    /// lowered CQ pins the *same* epoch.
    pub fn prepare_sparql(&self, text: &str) -> Result<PreparedSparql, RpsError> {
        self.shared.load().prepare_sparql(text)
    }

    /// [`LiveReader::execute`] for each plan of a SPARQL query.
    pub fn execute_sparql(&self, prepared: &PreparedSparql) -> Result<SparqlResult, RpsError> {
        self.shared
            .load()
            .execute_sparql_as(prepared, self.semantics)
    }

    /// Parses, prepares and executes against the current epoch.
    pub fn answer_sparql(&self, text: &str) -> Result<SparqlResult, RpsError> {
        self.execute_sparql(&self.prepare_sparql(text)?)
    }

    /// The current epoch's plan-cache counters: each epoch starts empty.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.shared.load().plan_cache_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::RpsBuilder;
    use rps_query::{GraphPattern, TermOrVar, Variable};
    use std::collections::BTreeSet;

    fn v(n: &str) -> Variable {
        Variable::new(n)
    }

    /// Two peers: peer B holds `actor` facts, peer A uses
    /// `starring`/`artist`; one GMA translates B into A's shape with an
    /// existential witness (`z`) between the two A-triples.
    fn small_system() -> RdfPeerSystem {
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
        RpsBuilder::new()
            .peer_turtle(
                "A",
                "<http://a/film> <http://a/starring> _:c .\n\
                 _:c <http://a/artist> <http://a/actor1> .",
                &mut a,
            )
            .unwrap()
            .peer_turtle(
                "B",
                "<http://b/film2> <http://b/actor> <http://b/actor2> .",
                &mut b,
            )
            .unwrap()
            .assertion(b, a, premise, cast_query())
            .unwrap()
            .build()
    }

    /// Join through the existential witness, so both projected
    /// positions are IRIs and survive `Certain` semantics.
    fn cast_query() -> GraphPatternQuery {
        cast_over(["x", "z", "y"])
    }

    /// `film` starring `witness`, whose artist is `who`, answering
    /// `(film, who)`.
    fn cast_over([film, witness, who]: [&str; 3]) -> GraphPatternQuery {
        GraphPatternQuery::new(
            vec![v(film), v(who)],
            GraphPattern::triple(
                TermOrVar::var(film),
                TermOrVar::iri("http://a/starring"),
                TermOrVar::var(witness),
            )
            .and(GraphPattern::triple(
                TermOrVar::var(witness),
                TermOrVar::iri("http://a/artist"),
                TermOrVar::var(who),
            )),
        )
    }

    fn iri(s: &str) -> Term {
        Term::Iri(rps_rdf::Iri::new(s))
    }

    fn actor_triple(film: &str, actor: &str) -> Triple {
        Triple::new(
            iri(&format!("http://b/{film}")),
            iri("http://b/actor"),
            iri(&format!("http://b/{actor}")),
        )
        .expect("valid triple")
    }

    #[test]
    fn open_publishes_epoch_zero_with_chased_solution() -> Result<(), RpsError> {
        let live = LiveSession::open(small_system(), EngineConfig::default())?;
        assert_eq!(live.epoch(), 0);
        let reader = live.reader();
        assert_eq!(reader.epoch(), 0);
        let answers = reader.answer(&cast_query())?.into_set();
        // A's stored pair plus the chased translation of B's fact.
        assert_eq!(answers.len(), 2);
        Ok(())
    }

    /// An α-equivalent query shares the plan its first preparer
    /// compiled, and with it that query's projection names: a live
    /// epoch's cache keeps the frozen session's one contract. Answer
    /// tuples are the same for every member of the class.
    #[test]
    fn a_cached_plan_streams_under_its_first_preparers_names() -> Result<(), RpsError> {
        let live = LiveSession::open(small_system(), EngineConfig::default())?;
        let reader = live.reader();
        let first = reader.prepare(&cast_query())?;
        let again = reader.prepare(&cast_query())?;
        assert!(Arc::ptr_eq(&first, &again));

        let other = reader.prepare(&cast_over(["film", "c", "who"]))?;
        assert!(Arc::ptr_eq(&first, &other));
        let stream = reader.execute(&other)?;
        assert_eq!(stream.vars(), &[v("x"), v("y")]);
        assert_eq!(
            stream.into_set().tuples,
            reader.execute(&first)?.into_set().tuples
        );
        let stats = reader.plan_cache_stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
        Ok(())
    }

    /// A SPARQL read of every epoch ranks its rows by a term order that
    /// covers the batch's new terms — the first read patches it on the
    /// published copy, from the base the writer adopted from the epoch
    /// before — and answers as the same query over a fresh graph of the
    /// same triples, which sweeps.
    #[test]
    fn sparql_reads_rank_each_epoch_like_a_sweep() -> Result<(), RpsError> {
        let mut live = LiveSession::open(small_system(), EngineConfig::default())?;
        let reader = live.reader();
        let text = "SELECT ?x ?y WHERE { ?x <http://a/starring> ?z . \
                    ?z <http://a/artist> ?y } ORDER BY DESC(?y) ?x";
        let lowered = rps_query::parse_sparql(text, &rps_rdf::PrefixMap::common())?.lower();
        for round in 0..12 {
            let mut batch = UpdateBatch::new();
            for i in 0..3 {
                let film = iri(&format!("http://b/film{}", round % 5));
                let actor = iri(&format!("http://b/actor{round}x{i}"));
                batch = batch.insert(PeerId(1), Triple::new(film, iri("http://b/actor"), actor)?);
            }
            live.apply(&batch)?;
            let got = reader.answer_sparql(text)?;
            let solution = live.solution();
            let order = solution.graph.term_order();
            assert_eq!(*order, rps_rdf::TermOrder::sweep(solution.graph.dict()));
            let fresh = rps_rdf::Graph::from_triples(solution.graph.iter());
            assert_eq!(got, lowered.evaluate(&fresh, live.config.semantics));
            let rows = got.rows().map_or(0, |r| r.rows.len());
            assert_eq!(rows, 2 + 3 * (round + 1), "round {round}");
        }
        Ok(())
    }

    #[test]
    fn rewrite_strategy_is_rejected() {
        let config = EngineConfig::default().with_strategy(Strategy::Rewrite);
        match LiveSession::open(small_system(), config) {
            Err(e) => assert!(matches!(e, RpsError::LiveNeedsMaterialisation), "{e}"),
            Ok(_) => panic!("rewrite strategy must be rejected"),
        }
    }

    #[test]
    fn insert_extends_answers_and_bumps_epoch() {
        let mut live = LiveSession::open(small_system(), EngineConfig::default()).expect("opens");
        let reader = live.reader();
        let batch = UpdateBatch::new().insert(PeerId(1), actor_triple("film3", "actor3"));
        let epoch = live.apply(&batch).expect("applies");
        assert_eq!(epoch, 1);
        assert_eq!(reader.epoch(), 1);
        let answers = reader.answer(&cast_query()).expect("answers").into_set();
        assert_eq!(answers.len(), 3);
    }

    #[test]
    fn remove_retracts_derived_consequences() {
        let mut live = LiveSession::open(small_system(), EngineConfig::default()).expect("opens");
        let batch = UpdateBatch::new().remove(PeerId(1), actor_triple("film2", "actor2"));
        live.apply(&batch).expect("applies");
        let answers = live
            .reader()
            .answer(&cast_query())
            .expect("answers")
            .into_set();
        // The derived (film2, actor2) pair disappears with its base
        // support; only A's stored pair remains.
        assert_eq!(answers.len(), 1);
        assert!(live.stats().retractions > 0);
    }

    #[test]
    fn unknown_peer_refuses_the_whole_batch_before_any_mutation() {
        let mut live = LiveSession::open(small_system(), EngineConfig::default()).expect("opens");
        let triples = live.solution().graph.len();
        // Valid entries first, so a late check would already have mutated
        // peer B; the bad peer is the batch's last entry.
        let batch = UpdateBatch::new()
            .remove(PeerId(1), actor_triple("film2", "actor2"))
            .insert(PeerId(1), actor_triple("film3", "actor3"))
            .insert(PeerId(2), actor_triple("film4", "actor4"));
        assert!(matches!(
            live.apply(&batch),
            Err(RpsError::UnknownPeer { peer: 2, peers: 2 })
        ));
        assert_eq!(live.epoch(), 0);
        assert_eq!(live.reader().epoch(), 0);
        assert_eq!(live.solution().graph.len(), triples);
        assert_eq!(live.system().peer(PeerId(1)).database.len(), 1);
        // A bad peer among the removals is caught the same way.
        let batch = UpdateBatch::new().remove(PeerId(7), actor_triple("film2", "actor2"));
        assert!(matches!(
            live.apply(&batch),
            Err(RpsError::UnknownPeer { peer: 7, peers: 2 })
        ));
        // The session is still usable: the next valid batch commits epoch 1.
        let batch = UpdateBatch::new().insert(PeerId(1), actor_triple("film3", "actor3"));
        assert_eq!(live.apply(&batch).expect("applies"), 1);
    }

    #[test]
    fn plans_pin_their_epoch_until_the_floor_passes() {
        let mut live = LiveSession::open_with_retention(small_system(), EngineConfig::default(), 1)
            .expect("opens");
        let reader = live.reader();
        let plan0 = reader.prepare(&cast_query()).expect("prepares");
        let before = reader.execute(&plan0).expect("executes").into_set();

        live.apply(&UpdateBatch::new().insert(PeerId(1), actor_triple("f3", "a3")))
            .expect("applies");
        // Epoch 1, retention 1: the epoch-0 plan still executes and
        // still answers epoch 0's graph.
        let pinned = reader.execute(&plan0).expect("still executable").into_set();
        assert_eq!(before, pinned);

        live.apply(&UpdateBatch::new().insert(PeerId(1), actor_triple("f4", "a4")))
            .expect("applies");
        // Epoch 2: the floor (2 − 1 = 1) passed epoch 0.
        match reader.execute(&plan0) {
            Err(err @ RpsError::StalePlan { prepared, current }) => {
                assert_eq!(prepared, 0);
                assert_eq!(current, 2);
                assert_eq!(
                    err.to_string(),
                    "prepared query is stale: its epoch 0 has left the live writer's \
                     retention window (the writer is at epoch 2); re-prepare it"
                );
            }
            Err(other) => panic!("expected StalePlan, got {other}"),
            Ok(_) => panic!("expected StalePlan, got answers"),
        }
        // Re-preparing picks up the current epoch.
        let plan2 = reader.prepare(&cast_query()).expect("prepares");
        assert_eq!(plan2.epoch(), 2);
        assert!(reader.execute(&plan2).is_ok());
    }

    /// Batches minting IRIs and Skolem blanks by the hundred (three terms
    /// per inserted actor triple) grow the writer's dictionary by 2 400
    /// terms over a base of a dozen, so its tail folds into the base at
    /// least twice (`rps_rdf::dict`: a fold every 1 024 terms at this
    /// size) while older epochs still share the prefix. A plan pinned at
    /// any epoch decodes exactly what it decoded when it was prepared,
    /// and no published snapshot carries the writer's insertion log.
    #[test]
    fn pinned_plans_decode_the_same_answers_after_the_dictionary_folds() -> Result<(), RpsError> {
        let mut live = LiveSession::open(small_system(), EngineConfig::default())?;
        let reader = live.reader().with_semantics(Semantics::Star);
        let witness = GraphPatternQuery::new(
            vec![v("x"), v("z")],
            GraphPattern::triple(
                TermOrVar::var("x"),
                TermOrVar::iri("http://a/starring"),
                TermOrVar::var("z"),
            ),
        );
        let terms_at_open = live.solution().graph.dict().len();
        let mut pinned = Vec::new();
        for round in 0..8 {
            for query in [cast_query(), witness.clone()] {
                let plan = reader.prepare(&query)?;
                let answers = reader.execute(&plan)?.into_set();
                pinned.push((plan, answers));
            }
            let batch = (0..100).fold(UpdateBatch::new(), |batch, i| {
                let (film, actor) = (format!("g{round}_{i}"), format!("p{round}_{i}"));
                batch.insert(PeerId(1), actor_triple(&film, &actor))
            });
            live.apply(&batch)?;
            assert_eq!(live.solution().graph.log_len(), 0, "epoch {}", live.epoch());
        }
        assert!(live.solution().graph.dict().len() >= terms_at_open + 2_400);
        for (plan, answers) in &pinned {
            let again = reader.execute(plan)?.into_set();
            assert_eq!(&again, answers, "epoch {}", plan.epoch());
        }
        Ok(())
    }

    #[test]
    fn remove_then_insert_of_the_same_triple_is_a_noop() {
        let mut live = LiveSession::open(small_system(), EngineConfig::default()).expect("opens");
        let before = live
            .reader()
            .answer(&cast_query())
            .expect("answers")
            .into_set();
        let t = actor_triple("film2", "actor2");
        let batch = UpdateBatch::new()
            .remove(PeerId(1), t.clone())
            .insert(PeerId(1), t);
        live.apply(&batch).expect("applies");
        let after = live
            .reader()
            .answer(&cast_query())
            .expect("answers")
            .into_set();
        assert_eq!(before, after);
    }

    /// An insert-only batch leaves no tombstone for the seal to purge;
    /// the publish folds the runs all the same, however many pile up.
    #[test]
    fn insert_only_batches_publish_one_run() {
        let mut live = LiveSession::open(small_system(), EngineConfig::default()).expect("opens");
        for i in 0..300 {
            let batch = UpdateBatch::new()
                .insert(PeerId(1), actor_triple(&format!("f{i}"), &format!("a{i}")));
            live.apply(&batch).expect("applies");
            let stats = live.solution().graph.storage_stats();
            assert!(
                stats.runs == 1 && stats.tail == 0 && stats.tombstones == 0,
                "epoch {}: {stats:?}",
                live.epoch()
            );
        }
        assert_eq!(
            live.reader().answer(&cast_query()).expect("answers").len(),
            302
        );
    }

    /// The statistics are part of what is published, not something the
    /// epoch's first `prepare` has to derive.
    #[test]
    fn published_snapshot_carries_its_statistics() {
        let mut live = LiveSession::open(small_system(), EngineConfig::default()).expect("opens");
        let published = |live: &LiveSession| live.solution().graph.storage_stats().stats_predicates;
        assert!(published(&live) > 0, "epoch 0");
        for i in 0..4 {
            let batch = UpdateBatch::new()
                .insert(PeerId(1), actor_triple(&format!("f{i}"), &format!("a{i}")))
                .remove(PeerId(1), actor_triple("film2", "actor2"));
            let epoch = live.apply(&batch).expect("applies");
            assert!(published(&live) > 0, "epoch {epoch}");
        }
    }

    #[test]
    fn incremental_matches_from_scratch_rechase() {
        let mut live = LiveSession::open(small_system(), EngineConfig::default()).expect("opens");
        let batch = UpdateBatch::new()
            .insert(PeerId(1), actor_triple("film3", "actor3"))
            .remove(PeerId(1), actor_triple("film2", "actor2"));
        live.apply(&batch).expect("applies");

        // From-scratch oracle: chase the mutated system under the same
        // (confluent) configuration.
        let chase = crate::RpsChaseConfig {
            firing: FiringMode::Skolem,
            ..crate::RpsChaseConfig::default()
        };
        let scratch = crate::chase_system(live.system(), &chase);
        assert!(scratch.complete);
        let live_triples: BTreeSet<Triple> = live.solution().graph.iter().collect();
        let scratch_triples: BTreeSet<Triple> = scratch.graph.iter().collect();
        assert_eq!(live_triples, scratch_triples);
    }
}
