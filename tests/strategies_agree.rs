//! Proposition 2: for linear mapping sets the UCQ
//! rewriting is *perfect* — its answers coincide with chase-based certain
//! answers — across generated workloads and query shapes.

use rps_core::{
    certain_answers, chase_system, encode_system, EngineConfig, EquivalenceMapping, ExecRoute,
    RpsChaseConfig, RpsError, RpsRewriter, Session,
};
use rps_lodgen::{
    actor_shape_query, edge_query, film_system, paper_example, queries, transitive_system,
    FilmConfig, Topology,
};
use rps_rdf::Iri;
use rps_tgd::{Classification, RewriteConfig};

fn small(topology: Topology, hub_style: bool, seed: u64) -> FilmConfig {
    FilmConfig {
        peers: 3,
        films_per_peer: 8,
        actors_per_film: 2,
        person_pool: 12,
        sameas_per_pair: 3,
        topology,
        hub_style,
        seed,
    }
}

fn assert_perfect(cfg: &FilmConfig, query: &rps_query::GraphPatternQuery) {
    let sys = film_system(cfg);
    let sol = chase_system(&sys, &RpsChaseConfig::default());
    assert!(sol.complete);
    let chased = certain_answers(&sol, query);

    let rw = RpsRewriter::new(&sys);
    assert!(rw.fo_rewritable(), "config {cfg:?} should be FO-rewritable");
    let (rewritten, complete) = rw.answers(
        query,
        &RewriteConfig {
            max_depth: 30,
            max_cqs: 60_000,
        },
    );
    assert!(complete, "expansion must terminate for {cfg:?}");
    assert_eq!(
        rewritten.tuples, chased.tuples,
        "perfect rewriting violated for {cfg:?}"
    );
}

#[test]
fn chain_topology_open_query() {
    for seed in [1, 2, 3] {
        let cfg = small(Topology::Chain, false, seed);
        assert_perfect(&cfg, &actor_shape_query(2, false));
    }
}

#[test]
fn chain_topology_anchored_query() {
    let cfg = small(Topology::Chain, false, 11);
    assert_perfect(&cfg, &queries::film_cast_query(2, 0));
    assert_perfect(&cfg, &queries::film_cast_query(1, 3));
}

#[test]
fn ring_topology_with_cycles() {
    // Mapping cycles are the paper's headline motivation; linear rings
    // still rewrite perfectly because dedup closes the loop.
    let cfg = small(Topology::Ring, false, 5);
    assert_perfect(&cfg, &actor_shape_query(0, false));
}

#[test]
fn bidi_chain_topology() {
    let cfg = small(Topology::BidiChain, false, 8);
    assert_perfect(&cfg, &actor_shape_query(1, false));
}

#[test]
fn star_topology_hub_existentials() {
    // Hub-style conclusions contain an existential variable; queries on
    // the hub shape exercise the existential applicability condition.
    let cfg = small(Topology::Star { hub: 0 }, true, 9);
    assert_perfect(&cfg, &actor_shape_query(0, true));
}

#[test]
fn costar_join_query() {
    let cfg = small(Topology::Chain, false, 13);
    assert_perfect(&cfg, &queries::costar_query(2, 2));
}

/// The rewriter classifies the graph-mapping TGDs alone; its verdict is
/// the one on Section 3's full set (graph-mapping and equivalence TGDs),
/// and `Strategy::Auto` takes the route that verdict picks.
#[test]
fn the_rewriters_classification_is_the_full_sets() -> Result<(), RpsError> {
    let paper = paper_example();
    let mut chain = transitive_system(4);
    let iri = |local: &str| Iri::new(format!("{}{local}", rps_lodgen::chain::NS));
    for (left, right) in [("n0", "m0"), ("A", "B"), ("n2", "n3")] {
        chain.add_equivalence(EquivalenceMapping::new(iri(left), iri(right)));
    }
    let film = film_system(&small(Topology::Chain, false, 4));
    let systems = [
        ("Figure 1", paper.system, paper.query, ExecRoute::Rewritten),
        ("chain", chain, edge_query(), ExecRoute::Materialised),
        (
            "film",
            film,
            actor_shape_query(2, false),
            ExecRoute::Rewritten,
        ),
    ];
    for (name, system, query, route) in systems {
        assert!(!system.equivalences().is_empty(), "{name}");
        let encoded = encode_system(&system);
        let mut full = encoded.mapping_tgds_unguarded;
        full.extend(encoded.equivalence_tgds);
        let full = Classification::of(&full);
        assert_eq!(RpsRewriter::new(&system).classification(), full, "{name}");
        assert_eq!(
            full.fo_rewritable(),
            route == ExecRoute::Rewritten,
            "{name}"
        );
        let session = Session::open(system, EngineConfig::default())?.freeze()?;
        assert_eq!(session.prepare(&query)?.route(), route, "{name}");
    }
    Ok(())
}
