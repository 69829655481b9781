//! Session routing behaviour across system classes: Auto must rewrite
//! when Proposition 2 applies and materialise when it does not, and
//! budget exhaustion must surface as a typed error, never as silently
//! unsound answers.

use rps_core::{
    canonicalize_graph, certain_answers, chase_system, EngineConfig, EquivalenceIndex, ExecRoute,
    FrozenSession, PeerId, RdfPeerSystem, RpsBuilder, RpsChaseConfig, RpsError, Session, Strategy,
};
use rps_lodgen::{actor_shape_query, chain, film_system, query_from, FilmConfig, Topology};
use rps_tgd::RewriteConfig;
use std::sync::Arc;

/// A session over `sys`, frozen straight away.
fn frozen(sys: RdfPeerSystem, config: EngineConfig) -> Result<FrozenSession, RpsError> {
    Session::new(sys, config).freeze()
}

/// A session over `sys`, frozen over the universal solution it chased
/// first.
fn pre_chased(sys: RdfPeerSystem, config: EngineConfig) -> Result<FrozenSession, RpsError> {
    let mut session = Session::new(sys, config);
    session.universal_solution()?;
    session.freeze()
}

fn film(topology: Topology, hub_style: bool) -> rps_core::RdfPeerSystem {
    film_system(&FilmConfig {
        peers: 3,
        films_per_peer: 8,
        actors_per_film: 2,
        person_pool: 12,
        sameas_per_pair: 2,
        topology,
        hub_style,
        seed: 31,
    })
}

#[test]
fn auto_materialises_non_fo_systems() {
    // Transitive closure is not FO-rewritable: Auto must take the chase.
    let sys = chain::transitive_system(10);
    let session = frozen(sys, EngineConfig::default()).unwrap();
    let stream = session.answer(&chain::edge_query()).unwrap();
    assert_eq!(stream.route(), ExecRoute::Materialised);
    assert_eq!(stream.len(), 55);
}

#[test]
fn auto_rewrites_linear_systems() {
    let config = EngineConfig::default().with_rewrite(RewriteConfig {
        max_depth: 30,
        max_cqs: 60_000,
    });
    let session = frozen(film(Topology::Chain, false), config).unwrap();
    let stream = session.answer(&actor_shape_query(2, false)).unwrap();
    assert_eq!(stream.route(), ExecRoute::Rewritten);
}

#[test]
fn rewrite_strategy_falls_back_when_incomplete() {
    // Force an absurdly small rewriting budget. Nothing may return a
    // partial (unsound-as-certain) answer set: the explicit Rewrite
    // strategy reports the incomplete expansion as a typed error…
    let sys = chain::transitive_system(12);
    let tiny = RewriteConfig {
        max_depth: 1,
        max_cqs: 4,
    };
    let config = EngineConfig::default()
        .with_strategy(Strategy::Rewrite)
        .with_rewrite(tiny.clone());
    let strict = frozen(sys.clone(), config).unwrap();
    match strict.answer(&chain::edge_query()) {
        Err(RpsError::RewriteBudget {
            max_depth: 1,
            max_cqs: 4,
            ..
        }) => {}
        Err(other) => panic!("expected RewriteBudget, got {other}"),
        Ok(_) => panic!("expected RewriteBudget, got answers"),
    }
    // …and only Auto falls back, to the chase, which computes the full
    // closure of the 13-node chain.
    let auto = frozen(sys, EngineConfig::default().with_rewrite(tiny)).unwrap();
    let stream = auto.answer(&chain::edge_query()).unwrap();
    assert_eq!(stream.route(), ExecRoute::Materialised);
    assert_eq!(stream.len(), 13 * 12 / 2);
}

/// `freeze` reuses a solution already chased through
/// `universal_solution()`, and every query of the frozen session is
/// answered over it.
#[test]
fn materialisation_is_cached_across_queries() {
    let sys = chain::transitive_system(16);
    let config = EngineConfig::default().with_strategy(Strategy::Materialise);
    let mut session = Session::new(sys, config);
    let solution = session.universal_solution().unwrap();
    // A second call is the cached solution, not a second chase.
    assert!(Arc::ptr_eq(
        &solution,
        &session.universal_solution().unwrap()
    ));
    let expected = certain_answers(&solution, &chain::edge_query());
    let frozen = session.freeze().unwrap();
    // The frozen session serves that solution: the caller's handle and
    // the frozen one are its only owners, so no chase or copy ran.
    assert_eq!(Arc::strong_count(&solution), 2);
    let answers = frozen.answer(&chain::edge_query()).unwrap().into_set();
    assert_eq!(answers.tuples, expected.tuples);
    assert_eq!(answers.len(), 17 * 16 / 2);
}

#[test]
fn chase_budget_exhaustion_is_reported() {
    let sys = chain::transitive_system(20);
    let config = EngineConfig::default()
        .with_strategy(Strategy::Materialise)
        .with_chase(RpsChaseConfig {
            max_rounds: 1,
            max_triples: 10_000,
            ..RpsChaseConfig::default()
        });
    // One round is not enough for the full closure.
    assert!(matches!(
        frozen(sys, config),
        Err(RpsError::ChaseBudget { rounds: 1, .. })
    ));
}

#[test]
fn fresh_freeze_serves_the_quotient_only_on_full_systems() {
    // A full system with `sameAs` classes: a fresh freeze serves the
    // canonical image of the saturated solution, which is smaller, and a
    // pre-chased one the saturated solution itself — so comparing the two
    // compares two substrates.
    let config = EngineConfig::default().with_strategy(Strategy::Materialise);
    let run_keys = |frozen: Result<FrozenSession, RpsError>| {
        frozen
            .unwrap()
            .storage_stats()
            .expect("materialised")
            .run_keys
    };
    let full = film(Topology::Chain, false);
    let saturated = chase_system(&full, &RpsChaseConfig::default()).graph;
    let index = EquivalenceIndex::from_mappings(full.equivalences());
    let image = canonicalize_graph(&saturated, &index).len();
    assert_eq!(run_keys(frozen(full.clone(), config.clone())), image);
    assert_eq!(run_keys(pre_chased(full, config.clone())), saturated.len());
    assert!(image < saturated.len(), "{image} of {}", saturated.len());
    // Conclusions into a hub-style peer 0 invent a blank node per firing,
    // so the system is not full: a fresh freeze chases the saturated
    // universal solution.
    let existential = film(Topology::Star { hub: 0 }, true);
    let saturated = chase_system(&existential, &RpsChaseConfig::default()).graph;
    assert_eq!(run_keys(frozen(existential, config)), saturated.len());
}

#[test]
fn datalog_keeps_the_blank_guard_on_a_premise_frontier() {
    // ROADMAP 6(e): the premise's frontier variable `x` meets a source
    // blank. `Q_J` drops that tuple (Section 3's `rt` guard), so the
    // saturating chase never casts `b:p2` — and neither may the chase of
    // the quotient, which a fresh freeze of this full system serves.
    let edge = |pred: &str| {
        let text = format!("SELECT ?x ?y WHERE {{ ?x <http://{pred}> ?y }}");
        query_from(&Default::default(), &text)
    };
    let (mut a, mut b) = (PeerId(0), PeerId(0));
    let stored_b =
        "_:x <http://b/actor> <http://b/p2> . <http://b/f3> <http://b/actor> <http://b/p3> .";
    let sys = RpsBuilder::new()
        .peer_turtle("A", "<http://a/f1> <http://a/cast> <http://a/p1> .", &mut a)
        .unwrap()
        .peer_turtle("B", stored_b, &mut b)
        .unwrap()
        .assertion(b, a, edge("b/actor"), edge("a/cast"))
        .unwrap()
        .build();
    let text = "SELECT ?who WHERE { ?f <http://a/cast> ?who }";
    let config = EngineConfig::default().with_strategy(Strategy::Materialise);
    let chased = pre_chased(sys.clone(), config.clone())
        .unwrap()
        .answer_sparql(text)
        .unwrap();
    let who = |iri: &str| vec![Some(rps_rdf::Term::iri(iri))];
    let expected = [who("http://a/p1"), who("http://b/p3")];
    assert_eq!(
        chased.rows().unwrap().rows.iter().collect::<Vec<_>>(),
        expected
    );
    let quotient = frozen(sys, config).unwrap();
    assert_eq!(quotient.answer_sparql(text).unwrap(), chased);
}

#[test]
fn quotient_chase_honours_the_budgets() {
    // 64 edges close to 2 080; 500 triples do not hold them. The error is
    // typed, at freeze, every time: under a budget that fits, a session
    // reconfigured before its freeze answers in full.
    let sys = chain::transitive_system(64);
    let config = EngineConfig::default()
        .with_strategy(Strategy::Materialise)
        .with_chase(RpsChaseConfig {
            max_triples: 500,
            ..RpsChaseConfig::default()
        });
    for _ in 0..2 {
        assert!(matches!(
            frozen(sys.clone(), config.clone()),
            Err(RpsError::ChaseBudget { triples: 501.., .. })
        ));
    }
    let mut session = Session::new(sys, config);
    session.config_mut().chase = RpsChaseConfig::default();
    let stream = session
        .freeze()
        .unwrap()
        .answer(&chain::edge_query())
        .unwrap();
    assert_eq!(stream.route(), ExecRoute::Materialised);
    assert_eq!(stream.len(), 65 * 64 / 2);
}
