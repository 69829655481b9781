//! Determinism contract of the scale-out execution layer: whatever the
//! physical knobs — worker count, morsel size, shard count, columnar
//! compression — answers are byte-identical to the default
//! single-threaded, unsharded execution, for every strategy × semantics
//! route, both on mutable [`Session`]s and on frozen ones (where the
//! freeze reseals the solution graph per the config).

use rps_core::{EngineConfig, ExecConfig, Session, Strategy};
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
        hub_style: true, // existential mappings ⇒ Certain ≠ Star
        seed,
    }
}

fn answers(
    config: EngineConfig,
    cfg: &FilmConfig,
    query: &GraphPatternQuery,
) -> BTreeSet<Vec<Term>> {
    let mut session = Session::open(film_system(cfg), config).expect("session opens");
    let prepared = session.prepare(query).expect("prepare");
    let stream = session.execute(&prepared).expect("execute");
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

/// The exec configurations under test: sequential unsharded reference,
/// forced-parallel with tiny and default morsels, sharded, sharded +
/// compressed.
fn exec_grid() -> Vec<ExecConfig> {
    vec![
        ExecConfig {
            workers: 1,
            shards: 1,
            ..ExecConfig::default()
        },
        ExecConfig {
            workers: 4,
            morsel_size: 1,
            shards: 1,
            ..ExecConfig::default()
        },
        ExecConfig {
            workers: 4,
            shards: 3,
            ..ExecConfig::default()
        },
        ExecConfig {
            workers: 8,
            morsel_size: 7,
            shards: 5,
            compress: true,
            ..ExecConfig::default()
        },
    ]
}

fn assert_exec_invariant(strategy: Strategy, semantics: Semantics, seed: u64) {
    let cfg = workload(seed);
    let queries: Vec<GraphPatternQuery> = vec![
        actor_shape_query(2, false),
        queries::film_cast_query(2, 0),
        queries::film_cast_query(1, 3),
    ];
    for query in &queries {
        let base_config = EngineConfig::default()
            .with_strategy(strategy)
            .with_semantics(semantics)
            .with_exec(exec_grid()[0]);
        let reference = answers(base_config.clone(), &cfg, query);
        let frozen_reference = frozen_answers(base_config, &cfg, query);
        assert_eq!(
            reference, frozen_reference,
            "frozen route diverges at the reference config ({strategy:?}, {semantics:?}, seed {seed})"
        );
        for exec in exec_grid().into_iter().skip(1) {
            let config = EngineConfig::default()
                .with_strategy(strategy)
                .with_semantics(semantics)
                .with_exec(exec);
            assert_eq!(
                answers(config.clone(), &cfg, query),
                reference,
                "mutable session diverges under {exec:?} ({strategy:?}, {semantics:?}, seed {seed})"
            );
            assert_eq!(
                frozen_answers(config, &cfg, query),
                reference,
                "frozen session diverges under {exec:?} ({strategy:?}, {semantics:?}, seed {seed})"
            );
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

/// The frozen reseal is visible in the storage counters: a sharded +
/// compressed config leaves the solution graph physically repartitioned.
#[test]
fn frozen_reseal_reports_shards_and_compression() {
    // Large enough that every shard's runs clear the seal config's
    // `compress_min_keys` floor (small runs stay plain by design).
    let cfg = FilmConfig {
        films_per_peer: 150,
        person_pool: 200,
        ..workload(21)
    };
    let exec = ExecConfig {
        workers: 2,
        shards: 4,
        compress: true,
        ..ExecConfig::default()
    };
    // CI forces a fixed shard count via RPS_SHARDS, which overrides the
    // explicit setting — assert against the resolved value either way.
    let expected_shards = exec.resolved_shards();
    let config = EngineConfig::default()
        .with_strategy(Strategy::Materialise)
        .with_exec(exec);
    let session = Session::open(film_system(&cfg), config).expect("session opens");
    let frozen = session.freeze().expect("freeze");
    let stats = frozen.storage_stats().expect("materialised ⇒ stats");
    assert_eq!(
        stats.shards, expected_shards,
        "solution graph resealed into the resolved shard count"
    );
    assert_eq!(
        stats.run_keys, 0,
        "after a sharded reseal every live key is shard-resident"
    );
    assert!(stats.shard_keys > 0);
    assert!(
        stats.compressed_runs > 0,
        "compression requested and the solution is large enough"
    );
}

/// How the "auto" (`0`) counts resolve: the host is asked once per
/// process ([`rps_rdf::host_parallelism`]), explicit values never ask,
/// and `RPS_SHARDS` — unlike the host — is read on every call. The test
/// changes its environment, so it re-runs itself alone in a child
/// process, where that races with no other test.
#[test]
fn auto_counts_resolve_through_one_cached_host_query() {
    const CHILD: &str = "RPS_TEST_RESOLVE_CHILD";
    if std::env::var_os(CHILD).is_none() {
        let status = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args([
                "--exact",
                "auto_counts_resolve_through_one_cached_host_query",
            ])
            .env(CHILD, "1")
            .status()
            .expect("child test process runs");
        assert!(status.success(), "child half failed: {status}");
        return;
    }
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(rps_rdf::host_parallelism(), host);
    assert!(rps_rdf::host_parallelism() >= 1);

    let auto = ExecConfig::default();
    let explicit = ExecConfig {
        workers: 3,
        shards: 5,
        ..auto
    };
    assert_eq!((auto.workers, auto.shards), (0, 0));
    assert_eq!(auto.resolved_workers(), host);
    assert_eq!(explicit.resolved_workers(), 3);

    // The override wins over both, and follows the environment.
    for forced in [3, 7] {
        std::env::set_var("RPS_SHARDS", forced.to_string());
        assert_eq!(auto.resolved_shards(), forced);
        assert_eq!(explicit.resolved_shards(), forced);
        assert_eq!(explicit.seal_config().shards, forced);
    }
    std::env::remove_var("RPS_SHARDS");
    assert_eq!(auto.resolved_shards(), host);
    assert_eq!(explicit.resolved_shards(), 5);
    let seal = rps_rdf::SealConfig::default();
    assert_eq!(
        rps_rdf::SealConfig { shards: 0, ..seal }.effective_shards(),
        host
    );
    assert_eq!(
        rps_rdf::SealConfig { shards: 5, ..seal }.effective_shards(),
        5
    );
}
