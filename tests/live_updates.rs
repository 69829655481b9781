//! Differential update oracle for live incremental maintenance.
//!
//! A [`LiveSession`] maintains its universal solution *incrementally* —
//! semi-naive delta chase for insertions, delete-and-rederive for
//! removals. The oracle is brutal and simple: after **every** committed
//! epoch, a from-scratch [`Session`] re-chases the mutated system under
//! the same confluent (Skolem) configuration, and the two must agree
//! **byte-identically** — the universal-solution triple sets are equal
//! as term-level sets, and the answers to a query panel are equal under
//! both `Semantics::Certain` and `Semantics::Star` and across every
//! strategy route the scratch session can legally take. Every epoch's
//! published layout is pinned too: one sorted run per permutation, no
//! tail, no tombstone — a publish that lets a run stack through to
//! readers fails here, not in a benchmark. So are the planner
//! statistics each epoch is published with: equal, by term, to those of
//! the re-chased solution, whether the publish patched them from the
//! batch's delta or left them to a full sweep.
//!
//! The sweep runs random interleavings of insert/remove batches over
//! randomly generated linear + sticky TGD sets (weakly acyclic by
//! construction: assertions only point from lower to strictly higher
//! peer indices, so both chase variants terminate). The seed matrix is
//! overridable with `RPS_LIVE_SEED=1,2,3`, mirroring
//! `tests/recovery.rs` and `tests/fault_injection.rs`.

mod common;

use common::assert_one_run_layout;
use rps_core::{
    chase_system, EngineConfig, FiringMode, LiveSession, PeerId, RdfPeerSystem, RpsBuilder,
    RpsChaseConfig, RpsError, Session, Strategy, UpdateBatch,
};
use rps_lodgen::{seed_matrix, SeededRng};
use rps_query::{GraphPattern, GraphPatternQuery, Semantics, TermOrVar, Variable};
use rps_rdf::{Graph, Iri, PredicateStats, Term, Triple};
use std::collections::{BTreeMap, BTreeSet};

const PEERS: usize = 3;
const PREDS: usize = 3;
const CONSTS: usize = 8;
const BATCHES: usize = 5;

fn seeds() -> Vec<u64> {
    seed_matrix("RPS_LIVE_SEED", &[11, 42, 1337])
}

fn pred_iri(peer: usize, j: usize) -> String {
    format!("http://peer{peer}/pred{j}")
}

fn const_iri(k: usize) -> String {
    format!("http://ex/c{k}")
}

fn random_triple(rng: &mut SeededRng, peer: usize) -> Triple {
    Triple::new(
        Term::Iri(Iri::new(const_iri(rng.gen_range(0..CONSTS)))),
        Term::Iri(Iri::new(pred_iri(peer, rng.gen_range(0..PREDS)))),
        Term::Iri(Iri::new(const_iri(rng.gen_range(0..CONSTS)))),
    )
    .expect("IRI triples are always valid")
}

fn v(n: &str) -> Variable {
    Variable::new(n)
}

fn atom(x: &str, pred: String, y: &str) -> GraphPattern {
    GraphPattern::triple(TermOrVar::var(x), TermOrVar::iri(&pred), TermOrVar::var(y))
}

/// A random weakly-acyclic system: every peer starts with a few random
/// facts, and 3–4 graph mapping assertions point from lower to strictly
/// higher peers. Premises are linear (single atom); conclusions are
/// either full (copying both frontier variables) or sticky/existential
/// (routing them through a fresh witness).
fn random_system(rng: &mut SeededRng) -> RdfPeerSystem {
    let mut builder = RpsBuilder::new();
    let mut ids = Vec::new();
    for peer in 0..PEERS {
        let mut lines = String::new();
        for _ in 0..rng.gen_range(3..6) {
            let t = random_triple(rng, peer);
            lines.push_str(&format!(
                "{} {} {} .\n",
                t.subject(),
                t.predicate(),
                t.object()
            ));
        }
        let mut id = PeerId(0);
        builder = builder
            .peer_turtle(&format!("peer{peer}"), &lines, &mut id)
            .expect("generated turtle parses");
        ids.push(id);
    }
    for _ in 0..rng.gen_range(3..5) {
        let s = rng.gen_range(0..PEERS - 1);
        let t = rng.gen_range(s + 1..PEERS);
        let premise = GraphPatternQuery::new(
            vec![v("x"), v("y")],
            atom("x", pred_iri(s, rng.gen_range(0..PREDS)), "y"),
        );
        let conclusion = if rng.gen_bool(0.5) {
            // Full: no existential.
            GraphPatternQuery::new(
                vec![v("x"), v("y")],
                atom("x", pred_iri(t, rng.gen_range(0..PREDS)), "y"),
            )
        } else {
            // Sticky: the frontier joins through a fresh witness.
            GraphPatternQuery::new(
                vec![v("x"), v("y")],
                atom("x", pred_iri(t, rng.gen_range(0..PREDS)), "z").and(atom(
                    "z",
                    pred_iri(t, rng.gen_range(0..PREDS)),
                    "y",
                )),
            )
        };
        builder = builder
            .assertion(ids[s], ids[t], premise, conclusion)
            .expect("generated assertion is well-formed");
    }
    if rng.gen_bool(0.5) {
        let p = rng.gen_range(0..PEERS);
        builder = builder.equivalence(&pred_iri(p, 0), &pred_iri(p, 1));
    }
    let mut system = builder.build();
    // Every peer may receive any vocabulary term through live inserts,
    // and mapping validation needs conclusion IRIs in the target
    // schema: give all peers the full vocabulary up front.
    for idx in 0..PEERS {
        let schema = &mut system.peer_mut(PeerId(idx)).schema;
        for peer in 0..PEERS {
            for j in 0..PREDS {
                schema.insert(Iri::new(pred_iri(peer, j)));
            }
        }
        for k in 0..CONSTS {
            schema.insert(Iri::new(const_iri(k)));
        }
    }
    system
}

/// The query panel: one atom query per peer over a random predicate,
/// plus a join through the last peer (where existential witnesses
/// accumulate, so `Certain` and `Star` genuinely differ).
fn query_panel(rng: &mut SeededRng) -> Vec<GraphPatternQuery> {
    let mut panel: Vec<GraphPatternQuery> = (0..PEERS)
        .map(|peer| {
            GraphPatternQuery::new(
                vec![v("x"), v("y")],
                atom("x", pred_iri(peer, rng.gen_range(0..PREDS)), "y"),
            )
        })
        .collect();
    let last = PEERS - 1;
    panel.push(GraphPatternQuery::new(
        vec![v("x"), v("y")],
        atom("x", pred_iri(last, rng.gen_range(0..PREDS)), "z").and(atom(
            "z",
            pred_iri(last, rng.gen_range(0..PREDS)),
            "y",
        )),
    ));
    panel
}

fn skolem_chase() -> RpsChaseConfig {
    RpsChaseConfig {
        firing: FiringMode::Skolem,
        ..RpsChaseConfig::default()
    }
}

/// A sealed graph's planner statistics with the predicate ids resolved:
/// triples, distinct subjects, distinct objects, per-predicate entries.
fn by_term(graph: &Graph) -> (usize, usize, usize, BTreeMap<Term, PredicateStats>) {
    let stats = graph.graph_stats().expect("sealed");
    let preds = stats
        .iter_predicates()
        .map(|(p, st)| (graph.term(p).clone(), *st))
        .collect();
    (
        stats.triples,
        stats.distinct_subjects,
        stats.distinct_objects,
        preds,
    )
}

/// Asserts that the incrementally maintained state is byte-identical to
/// a from-scratch re-chase of the live session's current system;
/// `touched` lists the triples the epoch's batch inserted or removed.
fn assert_matches_scratch(
    live: &LiveSession,
    panel: &[GraphPatternQuery],
    seed: u64,
    epoch: u32,
    touched: &[Triple],
) {
    let ctx = format!("seed {seed}, epoch {epoch}");
    let scratch = chase_system(live.system(), &skolem_chase());
    assert!(scratch.complete, "{ctx}: scratch chase must complete");

    // 0. The published layout is what the read path is priced on, and a
    // publish leaves the chase's insertion log on the write side.
    assert_one_run_layout(&live.solution().graph.storage_stats(), &ctx);
    assert_eq!(live.solution().graph.log_len(), 0, "{ctx}: published log");
    // A published graph has no live-key set: its membership test is a
    // binary search of the SPO run, and it must answer as the re-chase
    // does for every triple the batch moved.
    for triple in touched {
        assert_eq!(
            live.solution().graph.contains(triple),
            scratch.graph.contains(triple),
            "{ctx}: membership of {triple:?}"
        );
    }

    // 1. Universal solutions agree as term-level triple sets.
    let live_triples: BTreeSet<Triple> = live.solution().graph.iter().collect();
    let scratch_triples: BTreeSet<Triple> = scratch.graph.iter().collect();
    assert_eq!(
        live_triples, scratch_triples,
        "{ctx}: universal solutions diverged"
    );

    // 1b. So do the planner statistics the epoch was published with —
    // patched from the batch's delta or swept afresh, depending on which
    // side of the size rule the batch fell — by term, the dictionaries
    // differ.
    let graph = &live.solution().graph;
    let (got, expected) = (by_term(graph), by_term(&scratch.graph));
    assert_eq!(got, expected, "{ctx}: planner statistics diverged");

    // 2. Answers agree under both semantics and every strategy route
    // the scratch session can legally take on this system.
    for semantics in [Semantics::Certain, Semantics::Star] {
        let reader = live.reader().with_semantics(semantics);
        for strategy in [Strategy::Materialise, Strategy::Auto, Strategy::Rewrite] {
            let config = EngineConfig::default()
                .with_strategy(strategy)
                .with_semantics(semantics)
                .with_chase(skolem_chase());
            // Routes this system/semantics cannot take are not part of
            // the contract.
            let oracle =
                match Session::open(live.system().clone(), config).and_then(Session::freeze) {
                    Ok(oracle) => oracle,
                    Err(RpsError::StarNeedsMaterialisation) => continue,
                    Err(other) => panic!("{ctx}: oracle failed to freeze: {other}"),
                };
            for (qi, query) in panel.iter().enumerate() {
                let expected = match oracle.answer(query) {
                    Ok(stream) => stream.into_set(),
                    Err(RpsError::RewriteBudget { .. }) => continue,
                    Err(other) => panic!("{ctx}: oracle failed: {other}"),
                };
                let got = reader
                    .answer(query)
                    .unwrap_or_else(|e| panic!("{ctx}: live answer failed: {e}"))
                    .into_set();
                assert_eq!(
                    got, expected,
                    "{ctx}: answers diverged on query {qi} \
                     ({strategy:?}, {semantics:?})"
                );
            }
        }
    }
}

/// What a batch of the sweep is made of.
#[derive(Clone, Copy)]
enum Shape {
    Mixed,
    InsertOnly,
    RemoveOnly,
    Empty,
}

#[test]
fn incremental_maintenance_matches_scratch_rechase() {
    for seed in seeds() {
        let mut rng = SeededRng::seed_from_u64(seed);
        let system = random_system(&mut rng);
        let panel = query_panel(&mut rng);

        // Track the current peer contents so removals hit real triples.
        let mut present: Vec<(PeerId, Triple)> = system
            .peers()
            .iter()
            .enumerate()
            .flat_map(|(idx, peer)| {
                peer.database
                    .iter()
                    .map(move |t| (PeerId(idx), t))
                    .collect::<Vec<_>>()
            })
            .collect();

        let mut live =
            LiveSession::open(system, EngineConfig::default()).expect("live session opens");
        let loaded: Vec<Triple> = present.iter().map(|(_, t)| t.clone()).collect();
        assert_matches_scratch(&live, &panel, seed, 0, &loaded);

        // The random batches, then one insert-only, one remove-only and
        // one empty batch: a publish must not depend on a tombstone
        // being there to fold the runs.
        let shapes = std::iter::repeat_n(Shape::Mixed, BATCHES).chain([
            Shape::InsertOnly,
            Shape::RemoveOnly,
            Shape::Empty,
        ]);
        for shape in shapes {
            let ops = match shape {
                Shape::Empty => 0,
                _ => rng.gen_range(1..4),
            };
            let mut batch = UpdateBatch::new();
            let mut touched = Vec::new();
            for _ in 0..ops {
                let removing = !present.is_empty()
                    && match shape {
                        Shape::Mixed => rng.gen_bool(0.4),
                        Shape::RemoveOnly => true,
                        Shape::InsertOnly | Shape::Empty => false,
                    };
                if removing {
                    let at = rng.gen_range(0..present.len());
                    let (peer, triple) = present.swap_remove(at);
                    touched.push(triple.clone());
                    batch = batch.remove(peer, triple);
                } else {
                    let peer = PeerId(rng.gen_range(0..PEERS));
                    let triple = random_triple(&mut rng, peer.0);
                    if !present.contains(&(peer, triple.clone())) {
                        present.push((peer, triple.clone()));
                    }
                    touched.push(triple.clone());
                    batch = batch.insert(peer, triple);
                }
            }
            let before = live.epoch();
            let epoch = live.apply(&batch).expect("batch applies");
            assert_eq!(epoch, before + 1, "seed {seed}: epochs must be dense");
            assert_matches_scratch(&live, &panel, seed, epoch, &touched);
        }
    }
}

/// Removing everything ever inserted must drain the derived closure
/// back to exactly the scratch chase of the depleted system — the
/// delete-and-rederive path with maximal cascades.
#[test]
fn draining_all_insertions_matches_scratch() {
    for seed in seeds() {
        let mut rng = SeededRng::seed_from_u64(seed ^ 0x5eed);
        let system = random_system(&mut rng);
        let panel = query_panel(&mut rng);
        let initial: Vec<(PeerId, Triple)> = system
            .peers()
            .iter()
            .enumerate()
            .flat_map(|(idx, peer)| {
                peer.database
                    .iter()
                    .map(move |t| (PeerId(idx), t))
                    .collect::<Vec<_>>()
            })
            .collect();
        let mut live =
            LiveSession::open(system, EngineConfig::default()).expect("live session opens");

        let mut batch = UpdateBatch::new();
        let mut drained = Vec::new();
        for (peer, triple) in initial {
            drained.push(triple.clone());
            batch = batch.remove(peer, triple);
        }
        let epoch = live.apply(&batch).expect("drain batch applies");
        assert_matches_scratch(&live, &panel, seed, epoch, &drained);
        assert!(
            live.solution().graph.is_empty(),
            "seed {seed}: draining all base facts must empty the solution"
        );
    }
}
