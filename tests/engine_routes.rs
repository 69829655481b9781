//! Session routing behaviour across system classes: Auto must rewrite
//! when Proposition 2 applies and materialise when it does not, and
//! budget exhaustion must surface as a typed error, never as silently
//! unsound answers.

use rps_core::{
    EngineConfig, ExecRoute, PeerId, RpsBuilder, RpsChaseConfig, RpsError, Session, Strategy,
};
use rps_lodgen::{actor_shape_query, chain, film_system, query_from, FilmConfig, Topology};
use rps_tgd::RewriteConfig;
use std::sync::Arc;

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
    let mut session = Session::new(sys, EngineConfig::default());
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
    let mut session = Session::new(film(Topology::Chain, false), config);
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
    let mut strict = Session::new(sys.clone(), config);
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
    let mut auto = Session::new(sys, EngineConfig::default().with_rewrite(tiny));
    let stream = auto.answer(&chain::edge_query()).unwrap();
    assert_eq!(stream.route(), ExecRoute::Materialised);
    assert_eq!(stream.len(), 13 * 12 / 2);
}

#[test]
fn materialisation_is_cached_across_queries() {
    let sys = chain::transitive_system(16);
    let config = EngineConfig::default().with_strategy(Strategy::Materialise);
    let mut session = Session::new(sys, config);
    let a1 = session.answer(&chain::edge_query()).unwrap().into_set();
    let first = session.universal_solution().unwrap();
    let a2 = session.answer(&chain::edge_query()).unwrap().into_set();
    let second = session.universal_solution().unwrap();
    assert_eq!(a1, a2);
    // The second query reuses the cached universal solution; it must not
    // re-run the chase.
    assert!(Arc::ptr_eq(&first, &second));
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
    let mut session = Session::new(sys, config);
    // One round is not enough for the full closure.
    assert!(matches!(
        session.answer(&chain::edge_query()),
        Err(RpsError::ChaseBudget { rounds: 1, .. })
    ));
}

#[test]
fn datalog_strategy_rejects_existential_mappings() {
    // Conclusions into a hub-style peer 0 invent a blank node per firing,
    // so the system is not a Datalog program: the route is refused, not
    // silently swapped for another.
    let config = EngineConfig::default().with_strategy(Strategy::Datalog);
    let mut session = Session::new(film(Topology::Star { hub: 0 }, true), config);
    assert!(matches!(
        session.answer(&actor_shape_query(0, true)),
        Err(RpsError::NotDatalog(_))
    ));
}

#[test]
fn datalog_keeps_the_blank_guard_on_a_premise_frontier() {
    // ROADMAP 6(e): the premise's frontier variable `x` meets a source
    // blank. `Q_J` drops that tuple (Section 3's `rt` guard), so the
    // chase never casts `b:p2` — and neither may the Datalog route, on
    // the mutable session or frozen.
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
    let open =
        |strategy| Session::new(sys.clone(), EngineConfig::default().with_strategy(strategy));
    let chased = open(Strategy::Materialise).answer_sparql(text).unwrap();
    let who = |iri: &str| vec![Some(rps_rdf::Term::iri(iri))];
    let expected = [who("http://a/p1"), who("http://b/p3")];
    assert_eq!(chased.rows().unwrap().rows, expected);
    let mut datalog = open(Strategy::Datalog);
    assert_eq!(datalog.answer_sparql(text).unwrap(), chased);
    let frozen = datalog.freeze().unwrap();
    assert_eq!(frozen.answer_sparql(text).unwrap(), chased);
}

#[test]
fn datalog_route_honours_the_chase_budgets() {
    // 64 edges close to 2 080; 500 triples do not hold them. The error is
    // typed, on prepare and on freeze, and no truncated model is cached:
    // under a budget that fits, the same session answers in full.
    let sys = chain::transitive_system(64);
    let config = EngineConfig::default()
        .with_strategy(Strategy::Datalog)
        .with_chase(RpsChaseConfig {
            max_triples: 500,
            ..RpsChaseConfig::default()
        });
    let mut session = Session::new(sys.clone(), config.clone());
    for _ in 0..2 {
        assert!(matches!(
            session.prepare(&chain::edge_query()),
            Err(RpsError::ChaseBudget { triples: 501.., .. })
        ));
    }
    assert!(matches!(
        Session::new(sys, config).freeze(),
        Err(RpsError::ChaseBudget { .. })
    ));
    session.config_mut().chase = RpsChaseConfig::default();
    let stream = session.answer(&chain::edge_query()).unwrap();
    assert_eq!(stream.route(), ExecRoute::Datalog);
    assert_eq!(stream.len(), 65 * 64 / 2);
}
