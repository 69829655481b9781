//! Determinism contract of the physical execution knob: with columnar
//! compression on or off, answers are byte-identical for every strategy
//! × semantics route, both on sessions frozen straight away and on ones
//! whose universal solution was chased before the freeze (the freeze
//! re-encodes the solution graph per the config either way — on a full
//! system, frozen straight away, the chase of its quotient). The
//! planner's join order is not a knob; `tests/cost_based_agree.rs`
//! holds it to the shape heuristic.

use rps_core::chase::chase_quotient_model;
use rps_core::{EngineConfig, ExecConfig, RpsChaseConfig, Session, Strategy};
use rps_lodgen::{actor_shape_query, film_system, queries, FilmConfig, Topology};
use rps_query::{GraphPatternQuery, Semantics};
use rps_rdf::Term;
use std::collections::BTreeSet;

fn workload(seed: u64) -> FilmConfig {
    FilmConfig {
        peers: 3,
        films_per_peer: 12,
        actors_per_film: 3,
        person_pool: 20,
        sameas_per_pair: 4,
        topology: Topology::Chain,
        hub_style: true, // stored blanks ⇒ Certain ≠ Star
        seed,
    }
}

/// Answers through a session whose universal solution was chased
/// before the freeze.
fn answers(
    config: EngineConfig,
    cfg: &FilmConfig,
    query: &GraphPatternQuery,
) -> BTreeSet<Vec<Term>> {
    let mut session = Session::open(film_system(cfg), config).expect("session opens");
    session.universal_solution().expect("chases");
    let frozen = session.freeze().expect("freeze");
    let prepared = frozen.prepare(query).expect("prepare");
    let stream = frozen.execute(&prepared).expect("execute");
    stream.collect()
}

fn frozen_answers(
    config: EngineConfig,
    cfg: &FilmConfig,
    query: &GraphPatternQuery,
) -> BTreeSet<Vec<Term>> {
    let session = Session::open(film_system(cfg), config).expect("session opens");
    let frozen = session.freeze().expect("freeze");
    let prepared = frozen.prepare(query).expect("prepare");
    let stream = frozen.execute(&prepared).expect("execute");
    stream.collect()
}

/// The exec configurations under test: the default plain runs, then
/// columnar ones.
fn exec_grid() -> [ExecConfig; 2] {
    [false, true].map(|compress| ExecConfig { compress })
}

fn assert_exec_invariant(strategy: Strategy, semantics: Semantics, seed: u64) {
    // Chain mappings never conclude into the hub-style peer 0, so the
    // first two systems are full — a fresh freeze serves their quotient,
    // stored blanks beside class members in the first — and the third,
    // concluding into peer 0, is existential.
    let systems = [
        (Topology::Chain, true),
        (Topology::Chain, false),
        (Topology::Star { hub: 0 }, true),
    ];
    let queries: Vec<GraphPatternQuery> = vec![
        actor_shape_query(2, false),
        queries::film_cast_query(2, 0),
        queries::film_cast_query(1, 3),
    ];
    for (topology, hub_style) in systems {
        let cfg = &FilmConfig {
            topology,
            hub_style,
            ..workload(seed)
        };
        for query in &queries {
            let base_config = EngineConfig::default()
                .with_strategy(strategy)
                .with_semantics(semantics)
                .with_exec(exec_grid()[0]);
            let reference = answers(base_config.clone(), cfg, query);
            let frozen_reference = frozen_answers(base_config, cfg, query);
            assert_eq!(
                reference, frozen_reference,
                "frozen route diverges from the pre-chased one at the reference config ({strategy:?}, {semantics:?}, {cfg:?})"
            );
            for exec in exec_grid().into_iter().skip(1) {
                let config = EngineConfig::default()
                    .with_strategy(strategy)
                    .with_semantics(semantics)
                    .with_exec(exec);
                assert_eq!(
                    answers(config.clone(), cfg, query),
                    reference,
                    "pre-chased session diverges under {exec:?} ({strategy:?}, {semantics:?}, {cfg:?})"
                );
                assert_eq!(
                    frozen_answers(config, cfg, query),
                    reference,
                    "frozen session diverges under {exec:?} ({strategy:?}, {semantics:?}, {cfg:?})"
                );
            }
        }
    }
}

#[test]
fn materialise_certain_is_exec_invariant() {
    for seed in [1, 7] {
        assert_exec_invariant(Strategy::Materialise, Semantics::Certain, seed);
    }
}

#[test]
fn materialise_star_is_exec_invariant() {
    assert_exec_invariant(Strategy::Materialise, Semantics::Star, 3);
}

#[test]
fn rewrite_certain_is_exec_invariant() {
    assert_exec_invariant(Strategy::Rewrite, Semantics::Certain, 5);
}

#[test]
fn auto_route_is_exec_invariant() {
    assert_exec_invariant(Strategy::Auto, Semantics::Certain, 9);
}

/// The frozen reseal is visible in the storage counters: a compressing
/// config leaves the solution graph — saturated or a quotient — as one
/// columnar run per permutation.
#[test]
fn frozen_reseal_reports_compression() {
    // Large enough to clear the seal config's `compress_min_keys` floor
    // (a small solution stays plain by design).
    let cfg = FilmConfig {
        films_per_peer: 150,
        person_pool: 200,
        ..workload(21)
    };
    let config = EngineConfig::default()
        .with_strategy(Strategy::Materialise)
        .with_exec(exec_grid()[1]);
    let mut session = Session::open(film_system(&cfg), config.clone()).expect("session opens");
    let len = session.universal_solution().expect("chases").graph.len();
    let frozen = session.freeze().expect("freeze");
    let stats = frozen.storage_stats().expect("materialised ⇒ stats");
    assert!(
        stats.compressed_runs > 0,
        "compression requested and the solution is large enough"
    );
    assert!(stats.compressed_bytes < stats.compressed_raw_bytes);
    assert_eq!(stats.run_keys + stats.shard_keys + stats.tail, len);
    assert_eq!(stats.shards, 0);

    // The system is full: frozen straight away, it serves the chase of
    // its quotient, compressed the same way.
    let system = film_system(&cfg);
    let len = chase_quotient_model(&system, &RpsChaseConfig::default())
        .graph
        .len();
    let session = Session::open(system, config).expect("session opens");
    let stats = (session.freeze().expect("freeze").storage_stats()).expect("materialised");
    assert!(stats.compressed_runs > 0, "the quotient is large enough");
    assert!(stats.compressed_bytes < stats.compressed_raw_bytes);
    assert_eq!(stats.run_keys + stats.tail, len);
}

/// The one "auto" thread bound left — the federated branch fan-out's —
/// is the host's own answer; no environment variable is involved.
#[test]
fn host_parallelism_is_the_hosts() {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(rps_rdf::host_parallelism(), host);
    assert!(host >= 1);
}
