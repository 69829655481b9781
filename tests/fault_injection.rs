//! Deterministic fault-injection agreement tests for the federated
//! transport stack.
//!
//! The contract under test, across a seed matrix (override with
//! `RPS_FAULT_SEED=1,2,3`):
//!
//! * **Zero faults** — the perfect simulated transport, a fault wrapper
//!   with every rate at zero, and real localhost TCP produce
//!   byte-identical answers, statistics and traffic traces, sequential
//!   and parallel, under every failure policy.
//! * **Best effort** — with seeded whole-peer outages, the degraded
//!   answers equal centralised evaluation restricted to the reachable
//!   peers, and every skipped peer is itemised in the report.
//! * **Quorum(k)** — errors with the typed `QuorumNotMet` exactly when
//!   fewer than `k` contacted peers responded.
//! * **Strict** — any give-up surfaces as the typed `PeerUnreachable`
//!   with the right cause; answers are never silently incomplete.
//! * **Determinism** — identical seeds replay identical outcomes across
//!   runs and thread counts.

use rps_core::{EngineConfig, FailureCause, FailurePolicy, PeerId, RetryPolicy, RpsError};
use rps_lodgen::{actor_shape_query, film_system, FilmConfig, Topology};
use rps_p2p::{
    FaultConfig, FaultyTransport, FederatedAnswer, FederatedEngine, FederatedSession,
    FederationReport, SimNetwork, SimTransport, TcpTransport, Transport,
};
use rps_query::{GraphPattern, GraphPatternQuery, Semantics, TermOrVar, UnionQuery, Variable};
use rps_rdf::{Graph, TermId};
use rps_tgd::RewriteConfig;
use std::collections::BTreeSet;
use std::sync::Arc;

const PEERS: usize = 4;
const DATA_SEED: u64 = 7;

/// The fault-schedule seed matrix: `RPS_FAULT_SEED` (comma-separated)
/// overrides the default sweep, so CI can shard seeds across jobs.
fn seeds() -> Vec<u64> {
    rps_lodgen::seed_matrix("RPS_FAULT_SEED", &[11, 42, 1337])
}

fn data_cfg() -> FilmConfig {
    FilmConfig {
        peers: PEERS,
        films_per_peer: 8,
        actors_per_film: 2,
        person_pool: 12,
        sameas_per_pair: 2,
        topology: Topology::Chain,
        hub_style: false,
        seed: DATA_SEED,
    }
}

fn rewrite_cfg() -> RewriteConfig {
    RewriteConfig {
        max_depth: 30,
        max_cqs: 60_000,
    }
}

/// A UCQ touching every peer: one shape branch per peer (each routed to
/// exactly that peer) plus a full-scan branch that fans out to all of
/// them — so every peer is contacted and fault schedules have many
/// pattern×peer exchanges to bite on.
fn spanning_union() -> UnionQuery {
    let mut branches: Vec<GraphPattern> = (0..PEERS)
        .map(|p| actor_shape_query(p, false).pattern().clone())
        .collect();
    branches.push(GraphPattern::triple(
        TermOrVar::var("x"),
        TermOrVar::var("p"),
        TermOrVar::var("y"),
    ));
    UnionQuery::new(vec![Variable::new("x"), Variable::new("y")], branches)
}

fn outage_cfg(seed: u64) -> FaultConfig {
    FaultConfig {
        seed,
        peer_outage_rate: 0.5,
        ..FaultConfig::default()
    }
}

type Execution = (
    BTreeSet<Vec<TermId>>,
    rps_p2p::FederationStats,
    FederationReport,
);

/// Runs one engine-level execution and returns everything observable,
/// including the recorded traffic.
fn run(
    engine: &FederatedEngine,
    prepared: &rps_p2p::PreparedFederation,
    transport: &dyn Transport,
    retry: &RetryPolicy,
    policy: FailurePolicy,
    threads: usize,
) -> Result<(Execution, SimNetwork), RpsError> {
    let mut net = SimNetwork::new();
    let out = if threads <= 1 {
        engine.execute_with(
            prepared,
            Semantics::Certain,
            &mut net,
            transport,
            retry,
            policy,
        )?
    } else {
        engine.execute_parallel_with(
            prepared,
            Semantics::Certain,
            &mut net,
            transport,
            retry,
            policy,
            threads,
        )?
    };
    Ok((out, net))
}

// ---------------------------------------------------------------------
// Zero faults: all transports byte-identical
// ---------------------------------------------------------------------

#[test]
fn zero_faults_make_all_transports_byte_identical() {
    let sys = film_system(&data_cfg());
    let engine = FederatedEngine::new(&sys);
    let sim = SimTransport::new(engine.peer_graphs());
    let faulty = FaultyTransport::new(
        SimTransport::new(engine.peer_graphs()),
        FaultConfig::default(), // every rate zero
    );
    let tcp = TcpTransport::serve(engine.peer_graphs()).expect("tcp transport serves");
    let retry = RetryPolicy::default();
    let plans = [
        ("shape", engine.prepare_query(&actor_shape_query(0, false))),
        ("union", engine.prepare_union(&spanning_union())),
    ];
    for (qlabel, prepared) in &plans {
        // The historical perfect path is the reference.
        let mut base_net = SimNetwork::new();
        let (base_ids, base_stats) = engine.execute(prepared, Semantics::Certain, &mut base_net);
        let transports: [&dyn Transport; 3] = [&sim, &faulty, &tcp];
        for transport in transports {
            for policy in [
                FailurePolicy::Strict,
                FailurePolicy::BestEffort,
                FailurePolicy::Quorum(1),
            ] {
                for threads in [1, 4] {
                    let ((ids, stats, report), net) =
                        run(&engine, prepared, transport, &retry, policy, threads)
                            .expect("fault-free executions cannot fail");
                    let label = format!(
                        "{qlabel} transport {} policy {policy:?} threads {threads}",
                        transport.name()
                    );
                    assert_eq!(ids, base_ids, "{label}: answers");
                    assert_eq!(stats, base_stats, "{label}: statistics");
                    assert_eq!(net.messages(), base_net.messages(), "{label}: traffic");
                    assert_eq!(net.retry_bytes(), 0, "{label}: no retry traffic");
                    assert!(!report.degraded(), "{label}: no degradation");
                    assert_eq!(report.retries(), 0, "{label}: no retries");
                    assert_eq!(
                        report.peers_responded, report.peers_contacted,
                        "{label}: every contacted peer responded"
                    );
                }
            }
        }
    }
}

/// `query` on `session`, frozen, down the sequential path (one thread).
fn sequential(
    session: FederatedSession,
    query: &GraphPatternQuery,
) -> Result<FederatedAnswer, RpsError> {
    let frozen = session.freeze()?;
    let prepared = frozen.prepare(query)?;
    frozen.execute_with_threads(&prepared, 1)
}

#[test]
fn zero_faults_keep_the_rewriting_session_identical_over_tcp() {
    let sys = film_system(&data_cfg());
    let config = || EngineConfig::default().with_rewrite(rewrite_cfg());
    let query = actor_shape_query(3, false);

    let sim_session = FederatedSession::open(&sys, config()).unwrap();
    let expected = sequential(sim_session, &query).unwrap();
    let expected_tuples = expected.stream.into_set().tuples;

    let tcp_session = FederatedSession::open(&sys, config()).unwrap();
    let tcp = TcpTransport::serve(tcp_session.peer_graphs()).expect("tcp transport serves");
    let got = sequential(tcp_session.with_transport(Arc::new(tcp)), &query).unwrap();
    assert_eq!(got.stats, expected.stats);
    assert!((got.makespan_ms - expected.makespan_ms).abs() < 1e-9);
    assert_eq!(got.report.transport, "tcp");
    assert!(!got.report.degraded());
    assert_eq!(got.stream.into_set().tuples, expected_tuples);

    // The frozen, thread-fanned path over TCP agrees too.
    let frozen_session = FederatedSession::open(&sys, config()).unwrap();
    let tcp = TcpTransport::serve(frozen_session.peer_graphs()).expect("tcp transport serves");
    let frozen = frozen_session
        .with_transport(Arc::new(tcp))
        .freeze()
        .unwrap();
    let prepared = frozen.prepare(&query).unwrap();
    for threads in [1, 2, 4] {
        let got = frozen.execute_with_threads(&prepared, threads).unwrap();
        assert_eq!(got.stats, expected.stats, "{threads} threads");
        assert!(!got.report.degraded());
        assert_eq!(
            got.stream.into_set().tuples,
            expected_tuples,
            "{threads} threads"
        );
    }
}

// ---------------------------------------------------------------------
// Degraded modes under seeded outages
// ---------------------------------------------------------------------

/// Centralised evaluation restricted to the peers a fault schedule
/// leaves reachable: the union of their scoped stores.
fn reachable_union(sys: &rps_core::RdfPeerSystem, up: &BTreeSet<usize>) -> Graph {
    let mut merged = Graph::new();
    for &p in up {
        for t in sys.scoped_database(PeerId(p)).iter() {
            let _ = merged.insert_terms(
                t.subject().clone(),
                t.predicate().clone(),
                t.object().clone(),
            );
        }
    }
    merged
}

#[test]
fn best_effort_equals_centralised_over_reachable_peers() {
    let sys = film_system(&data_cfg());
    let engine = FederatedEngine::new(&sys);
    let retry = RetryPolicy::default();
    let union = spanning_union();
    let prepared = engine.prepare_union(&union);
    for seed in seeds() {
        let transport =
            FaultyTransport::new(SimTransport::new(engine.peer_graphs()), outage_cfg(seed));
        let up: BTreeSet<usize> = (0..PEERS).filter(|&p| !transport.peer_down(p)).collect();
        let down: BTreeSet<usize> = (0..PEERS).filter(|&p| transport.peer_down(p)).collect();
        let merged = reachable_union(&sys, &up);
        let ((ids, _stats, report), _net) = run(
            &engine,
            &prepared,
            &transport,
            &retry,
            FailurePolicy::BestEffort,
            1,
        )
        .expect("best effort never fails the query");
        let federated = engine.decode_prepared(&prepared, &ids);
        let central = union.evaluate(&merged, Semantics::Certain);
        assert_eq!(federated, central, "seed {seed}");
        // The spanning union contacts every peer; exactly the
        // schedule's down peers fail, each give-up itemised with the
        // outage cause.
        assert_eq!(report.peers_contacted, PEERS, "seed {seed}");
        assert_eq!(report.failed_peers(), down, "seed {seed}");
        assert_eq!(report.peers_responded, up.len(), "seed {seed}");
        for failure in &report.skipped {
            assert_eq!(failure.cause, FailureCause::PeerDown, "seed {seed}");
            assert_eq!(failure.attempts, retry.max_attempts, "seed {seed}");
        }
        assert_eq!(
            report.degraded(),
            report.peers_responded < report.peers_contacted,
            "seed {seed}"
        );
    }
}

#[test]
fn quorum_errors_exactly_when_too_few_peers_respond() {
    let sys = film_system(&data_cfg());
    let engine = FederatedEngine::new(&sys);
    let retry = RetryPolicy::default();
    let prepared = engine.prepare_union(&spanning_union());
    for seed in seeds() {
        let transport =
            FaultyTransport::new(SimTransport::new(engine.peer_graphs()), outage_cfg(seed));
        let ((best_ids, _, best_report), _) = run(
            &engine,
            &prepared,
            &transport,
            &retry,
            FailurePolicy::BestEffort,
            1,
        )
        .unwrap();
        let responded = best_report.peers_responded;
        let contacted = best_report.peers_contacted;
        assert_eq!(contacted, PEERS, "the spanning union contacts every peer");
        for k in 1..=PEERS {
            let result = run(
                &engine,
                &prepared,
                &transport,
                &retry,
                FailurePolicy::Quorum(k),
                1,
            );
            if responded >= k {
                let ((ids, _, report), _) =
                    result.unwrap_or_else(|e| panic!("seed {seed} quorum {k}: unexpected {e}"));
                assert_eq!(
                    ids, best_ids,
                    "seed {seed} quorum {k}: same degraded answers"
                );
                assert_eq!(report.policy, FailurePolicy::Quorum(k));
                assert_eq!(report.peers_responded, responded);
            } else {
                match result {
                    Err(RpsError::QuorumNotMet {
                        responded: r,
                        required,
                    }) => assert_eq!((r, required), (responded, k), "seed {seed}"),
                    other => panic!(
                        "seed {seed} quorum {k}: expected QuorumNotMet, got {:?}",
                        other.map(|((ids, _, _), _)| ids.len())
                    ),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Strict policy: typed failures, never silent incompleteness
// ---------------------------------------------------------------------

#[test]
fn strict_surfaces_typed_peer_unreachable() {
    let sys = film_system(&data_cfg());
    let engine = FederatedEngine::new(&sys);
    let retry = RetryPolicy::default();
    let prepared = engine.prepare_union(&spanning_union());
    for seed in seeds() {
        for (cfg, expected_cause) in [
            (
                FaultConfig {
                    seed,
                    peer_outage_rate: 1.0,
                    ..FaultConfig::default()
                },
                FailureCause::PeerDown,
            ),
            (
                FaultConfig {
                    seed,
                    drop_rate: 1.0,
                    ..FaultConfig::default()
                },
                FailureCause::Timeout,
            ),
            (
                FaultConfig {
                    seed,
                    transient_rate: 1.0,
                    ..FaultConfig::default()
                },
                FailureCause::Transient,
            ),
        ] {
            let transport = FaultyTransport::new(SimTransport::new(engine.peer_graphs()), cfg);
            for threads in [1, 4] {
                match run(
                    &engine,
                    &prepared,
                    &transport,
                    &retry,
                    FailurePolicy::Strict,
                    threads,
                ) {
                    Err(RpsError::PeerUnreachable {
                        peer,
                        attempts,
                        cause,
                    }) => {
                        assert!(peer < PEERS, "seed {seed}");
                        assert_eq!(attempts, retry.max_attempts, "seed {seed}");
                        assert_eq!(cause, expected_cause, "seed {seed}");
                    }
                    other => panic!(
                        "seed {seed} {expected_cause:?} threads {threads}: expected \
                         PeerUnreachable, got {:?}",
                        other.map(|((ids, _, _), _)| ids.len())
                    ),
                }
            }
        }
    }
}

#[test]
fn injected_transient_errors_are_retried_and_visible_in_traffic() {
    let sys = film_system(&data_cfg());
    let engine = FederatedEngine::new(&sys);
    let retry = RetryPolicy::default();
    let prepared = engine.prepare_union(&spanning_union());
    let mut total_retries = 0u32;
    for seed in seeds() {
        let cfg = FaultConfig {
            seed,
            transient_rate: 0.5,
            ..FaultConfig::default()
        };
        let transport = FaultyTransport::new(SimTransport::new(engine.peer_graphs()), cfg);
        let ((ids, _, report), net) = run(
            &engine,
            &prepared,
            &transport,
            &retry,
            FailurePolicy::BestEffort,
            1,
        )
        .unwrap();
        total_retries += report.retries();
        if report.retries() > 0 {
            // Retried exchanges leave their error responses and
            // re-sent requests in the trace.
            assert!(net.retry_bytes() > 0, "seed {seed}");
            assert!(net.bytes_by_kind().contains_key("error"), "seed {seed}");
        }
        if !report.degraded() {
            // Every exchange eventually succeeded: the answers are the
            // fault-free answers despite the injected errors.
            let mut clean = SimNetwork::new();
            let (base_ids, _) = engine.execute(&prepared, Semantics::Certain, &mut clean);
            assert_eq!(ids, base_ids, "seed {seed}");
        }
    }
    assert!(
        total_retries > 0,
        "a 50% transient schedule must force at least one retry across the seed sweep"
    );
}

#[test]
fn deadline_exhaustion_is_typed_and_deterministic() {
    let sys = film_system(&data_cfg());
    let engine = FederatedEngine::new(&sys);
    let retry = RetryPolicy {
        peer_deadline_ms: 5.0,
        ..RetryPolicy::default()
    };
    let cfg = FaultConfig {
        seed: seeds()[0],
        added_latency_ms: 50.0, // every exchange outlives the budget
        ..FaultConfig::default()
    };
    let transport = FaultyTransport::new(SimTransport::new(engine.peer_graphs()), cfg);
    let prepared = engine.prepare_union(&spanning_union());
    match run(
        &engine,
        &prepared,
        &transport,
        &retry,
        FailurePolicy::Strict,
        1,
    ) {
        Err(RpsError::PeerUnreachable { cause, .. }) => {
            assert!(
                matches!(
                    cause,
                    FailureCause::Timeout | FailureCause::DeadlineExhausted
                ),
                "got {cause:?}"
            );
        }
        other => panic!(
            "expected PeerUnreachable, got {:?}",
            other.map(|((ids, _, _), _)| ids.len())
        ),
    }
    // Best effort under the same starvation: the query answers (with
    // nothing) and every contacted peer is reported exhausted.
    let ((ids, _, report), _) = run(
        &engine,
        &prepared,
        &transport,
        &retry,
        FailurePolicy::BestEffort,
        1,
    )
    .unwrap();
    assert!(ids.is_empty());
    assert_eq!(report.peers_responded, 0);
    assert!(report.degraded());
}

// ---------------------------------------------------------------------
// Determinism: identical seeds replay identical outcomes
// ---------------------------------------------------------------------

#[test]
fn identical_seeds_replay_identical_outcomes_across_thread_counts() {
    let sys = film_system(&data_cfg());
    let engine = FederatedEngine::new(&sys);
    let retry = RetryPolicy::default();
    let prepared = engine.prepare_union(&spanning_union());
    for seed in seeds() {
        let cfg = FaultConfig {
            seed,
            peer_outage_rate: 0.25,
            drop_rate: 0.2,
            transient_rate: 0.2,
            added_latency_ms: 1.0,
            latency_jitter_ms: 3.0,
            ..FaultConfig::default()
        };
        let transport = FaultyTransport::new(SimTransport::new(engine.peer_graphs()), cfg);
        let ((ids, stats, report), net) = run(
            &engine,
            &prepared,
            &transport,
            &retry,
            FailurePolicy::BestEffort,
            1,
        )
        .unwrap();
        // A second sequential run and every parallel fan-out replay the
        // run bit-for-bit: answers, statistics, report and trace.
        for threads in [1, 1, 2, 4, 8] {
            let ((ids2, stats2, report2), net2) = run(
                &engine,
                &prepared,
                &transport,
                &retry,
                FailurePolicy::BestEffort,
                threads,
            )
            .unwrap();
            assert_eq!(ids2, ids, "seed {seed} threads {threads}");
            assert_eq!(stats2, stats, "seed {seed} threads {threads}");
            assert_eq!(report2, report, "seed {seed} threads {threads}");
            assert_eq!(
                net2.messages(),
                net.messages(),
                "seed {seed} threads {threads}"
            );
        }
        // And a fresh transport with the same seed is the same schedule.
        let again = FaultyTransport::new(
            SimTransport::new(engine.peer_graphs()),
            FaultConfig {
                seed,
                peer_outage_rate: 0.25,
                drop_rate: 0.2,
                transient_rate: 0.2,
                added_latency_ms: 1.0,
                latency_jitter_ms: 3.0,
                ..FaultConfig::default()
            },
        );
        let ((ids3, stats3, report3), net3) = run(
            &engine,
            &prepared,
            &again,
            &retry,
            FailurePolicy::BestEffort,
            1,
        )
        .unwrap();
        assert_eq!(ids3, ids, "seed {seed}: fresh transport");
        assert_eq!(stats3, stats, "seed {seed}: fresh transport");
        assert_eq!(report3, report, "seed {seed}: fresh transport");
        assert_eq!(
            net3.messages(),
            net.messages(),
            "seed {seed}: fresh transport"
        );
    }
}

#[test]
fn session_config_carries_retry_and_failure_policies() {
    // The end-to-end path: a rewriting session configured BestEffort
    // over a fully-dead fault schedule still answers (with nothing
    // certain from any peer) and reports the degradation, while the
    // default strict session errors.
    let sys = film_system(&data_cfg());
    let query = actor_shape_query(0, false);
    let config = || EngineConfig::default().with_rewrite(rewrite_cfg());

    let strict = FederatedSession::open(&sys, config()).unwrap();
    let dead = FaultyTransport::new(
        SimTransport::new(strict.peer_graphs()),
        FaultConfig {
            seed: seeds()[0],
            peer_outage_rate: 1.0,
            ..FaultConfig::default()
        },
    );
    let strict = strict.with_transport(Arc::new(dead));
    assert!(matches!(
        sequential(strict, &query),
        Err(RpsError::PeerUnreachable { .. })
    ));

    let lenient =
        FederatedSession::open(&sys, config().with_failure(FailurePolicy::BestEffort)).unwrap();
    let dead = FaultyTransport::new(
        SimTransport::new(lenient.peer_graphs()),
        FaultConfig {
            seed: seeds()[0],
            peer_outage_rate: 1.0,
            ..FaultConfig::default()
        },
    );
    let got = sequential(lenient.with_transport(Arc::new(dead)), &query).unwrap();
    assert!(got.report.degraded());
    assert_eq!(got.report.peers_responded, 0);
    assert!(got.stream.into_set().is_empty());
}
