//! Cross-crate federation tests: the simulated P2P pipeline returns the
//! same certain answers as centralised materialisation, and routing
//! actually prunes traffic.

use rps_core::{certain_answers, chase_system, EngineConfig, RpsChaseConfig};
use rps_lodgen::{actor_shape_query, film_system, FilmConfig, Topology};
use rps_p2p::{FederatedEngine, FederatedSession, SchemaIndex, SimNetwork};
use rps_query::Semantics;
use rps_tgd::RewriteConfig;

fn cfg(peers: usize, seed: u64) -> FilmConfig {
    FilmConfig {
        peers,
        films_per_peer: 10,
        actors_per_film: 2,
        person_pool: 15,
        sameas_per_pair: 2,
        topology: Topology::Chain,
        hub_style: false,
        seed,
    }
}

#[test]
fn service_equals_materialisation_across_seeds() {
    for seed in [1u64, 7, 21] {
        let sys = film_system(&cfg(4, seed));
        let query = actor_shape_query(3, false);
        let config = EngineConfig::default().with_rewrite(RewriteConfig {
            max_depth: 30,
            max_cqs: 60_000,
        });
        let result = FederatedSession::new(&sys, config)
            .freeze()
            .and_then(|session| session.answer(&query))
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let sol = chase_system(&sys, &RpsChaseConfig::default());
        let reference = certain_answers(&sol, &query);
        assert_eq!(
            result.stream.into_set().tuples,
            reference.tuples,
            "seed {seed}"
        );
    }
}

#[test]
fn plain_federation_equals_centralised_pattern_eval() {
    let sys = film_system(&cfg(5, 3));
    let engine = FederatedEngine::new(&sys);
    let query = actor_shape_query(2, false);
    let mut net = SimNetwork::new();
    let (fed, stats) = engine.evaluate_query(&query, Semantics::Certain, &mut net);
    let central = rps_query::evaluate_query(&sys.stored_database(), &query, Semantics::Certain);
    assert_eq!(fed, central);
    // The actor predicate of peer 2 is peer-2-local: routing contacts
    // exactly one peer.
    assert_eq!(stats.peers_contacted, 1);
    assert_eq!(stats.subqueries, 1);
}

#[test]
fn schema_index_covers_all_peer_iris() {
    let sys = film_system(&cfg(4, 5));
    let index = SchemaIndex::build(&sys);
    for (i, peer) in sys.peers().iter().enumerate() {
        for iri in &peer.schema {
            assert!(
                index.peers_for(iri).contains(&rps_core::PeerId(i)),
                "IRI {iri} of peer {i} missing from index"
            );
        }
    }
}

#[test]
fn traffic_grows_with_peer_count() {
    // An open query (variable predicate) must fan out to every peer, so
    // message counts scale linearly with the network size.
    let q = rps_query::GraphPatternQuery::new(
        vec![rps_query::Variable::new("s")],
        rps_query::GraphPattern::triple(
            rps_query::TermOrVar::var("s"),
            rps_query::TermOrVar::var("p"),
            rps_query::TermOrVar::var("o"),
        ),
    );
    let mut previous = 0usize;
    for peers in [2usize, 4, 8] {
        let sys = film_system(&cfg(peers, 2));
        let engine = FederatedEngine::new(&sys);
        let mut net = SimNetwork::new();
        let (_, stats) = engine.evaluate_query(&q, Semantics::Star, &mut net);
        assert_eq!(stats.subqueries, peers);
        assert!(stats.messages > previous);
        previous = stats.messages;
    }
}
