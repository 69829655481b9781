//! Session routing behaviour across system classes: Auto must rewrite
//! when Proposition 2 applies and materialise when it does not, and
//! budget exhaustion must surface as a typed error, never as silently
//! unsound answers.

use rps_core::{EngineConfig, ExecRoute, RpsChaseConfig, RpsError, Session, Strategy};
use rps_lodgen::{actor_shape_query, chain, film_system, FilmConfig, Topology};
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
