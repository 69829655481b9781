//! Concurrency agreement tests for the frozen answering API: N threads
//! sharing one `FrozenSession` (or `FrozenFederatedSession`) across
//! mixed routes and semantics must each observe answers byte-identical
//! to a separately frozen session answered from one thread before the
//! hammer starts (the sequential oracle), plan-cache hits must answer
//! exactly like misses, and cold prepares (every one a miss, each with
//! its own constants) must not interfere with each other.
//!
//! Thread counts deliberately exceed the host's cores (oversubscription
//! shakes out interleavings); CI additionally runs this file with
//! `RUST_TEST_THREADS` unconstrained so the test binary's own
//! parallelism stacks on top.

use rps_core::{EngineConfig, FrozenSession, Session, Strategy};
use rps_lodgen::{chain, film_system, FilmConfig, Topology};
use rps_p2p::FederatedSession;
use rps_query::{GraphPattern, GraphPatternQuery, Semantics, TermOrVar, Variable};
use rps_rdf::Term;
use std::collections::BTreeSet;

const THREADS: usize = 8;
const REPS_PER_THREAD: usize = 3;

fn film_cfg(seed: u64) -> FilmConfig {
    FilmConfig {
        peers: 3,
        films_per_peer: 10,
        actors_per_film: 2,
        person_pool: 12,
        sameas_per_pair: 2,
        topology: Topology::Chain,
        hub_style: false,
        seed,
    }
}

fn film_queries() -> Vec<GraphPatternQuery> {
    let mut queries = vec![rps_lodgen::actor_shape_query(2, false)];
    // A star-join over peer 1's vocabulary plus a single-pattern scan.
    queries.push(GraphPatternQuery::new(
        vec![Variable::new("f"), Variable::new("a")],
        GraphPattern::triple(
            TermOrVar::var("f"),
            TermOrVar::Term(Term::Iri(rps_lodgen::film::actor_pred(1))),
            TermOrVar::var("a"),
        ),
    ));
    queries.push(GraphPatternQuery::new(
        vec![Variable::new("s"), Variable::new("p"), Variable::new("o")],
        GraphPattern::triple(
            TermOrVar::var("s"),
            TermOrVar::var("p"),
            TermOrVar::var("o"),
        ),
    ));
    queries
}

/// Sequential oracle: one separately frozen session per (strategy,
/// semantics), answered from this thread alone.
fn sequential_answers(
    sys: &rps_core::RdfPeerSystem,
    cfg: &EngineConfig,
    queries: &[GraphPatternQuery],
) -> Vec<BTreeSet<Vec<Term>>> {
    let session = Session::open(sys.clone(), cfg.clone())
        .and_then(Session::freeze)
        .unwrap();
    queries
        .iter()
        .map(|q| session.answer(q).unwrap().into_set().tuples)
        .collect()
}

/// Hammers one frozen session from `THREADS` threads, each preparing
/// and executing every query several times, and asserts every thread
/// observes exactly `expected`.
fn hammer(frozen: &FrozenSession, queries: &[GraphPatternQuery], expected: &[BTreeSet<Vec<Term>>]) {
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            scope.spawn(move || {
                for rep in 0..REPS_PER_THREAD {
                    for (qi, query) in queries.iter().enumerate() {
                        let prepared = frozen.prepare(query).unwrap();
                        let got = frozen.execute(&prepared).unwrap().into_set().tuples;
                        assert_eq!(
                            got, expected[qi],
                            "thread {t}, rep {rep}, query {qi} diverged"
                        );
                    }
                }
            });
        }
    });
}

#[test]
fn threads_agree_with_sequential_session_across_routes() {
    let sys = film_system(&film_cfg(42));
    let queries = film_queries();
    for (strategy, semantics) in [
        (Strategy::Materialise, Semantics::Certain),
        (Strategy::Materialise, Semantics::Star),
        (Strategy::Rewrite, Semantics::Certain),
        (Strategy::Auto, Semantics::Certain),
    ] {
        let cfg = EngineConfig::default()
            .with_strategy(strategy)
            .with_semantics(semantics);
        let expected = sequential_answers(&sys, &cfg, &queries);
        let frozen = Session::open(sys.clone(), cfg.clone())
            .unwrap()
            .freeze()
            .unwrap();
        hammer(&frozen, &queries, &expected);
        // Every preparation is exactly one hit or one miss; misses can
        // exceed the query count only by benign first-use races (several
        // threads missing the same fresh key before one insert wins).
        let stats = frozen.plan_cache_stats();
        assert!(
            stats.misses >= queries.len() as u64
                && stats.misses <= (queries.len() * THREADS) as u64,
            "{strategy:?}: {stats:?}"
        );
        assert_eq!(
            stats.hits + stats.misses,
            (THREADS * REPS_PER_THREAD * queries.len()) as u64,
            "{strategy:?} {semantics:?}"
        );
        assert_eq!(stats.entries, queries.len(), "{strategy:?}");
    }
}

#[test]
fn threads_agree_on_the_transitive_closure() {
    // Transitive closure is the system rewriting cannot take
    // (Proposition 3); the chase of its quotient is shared lock-free and
    // must agree with the sequential session from every thread.
    let sys = chain::transitive_system(12);
    let queries = vec![chain::edge_query(), chain::endpoint_query(12)];
    let cfg = EngineConfig::default().with_strategy(Strategy::Materialise);
    let expected = sequential_answers(&sys, &cfg, &queries);
    assert!(!expected[0].is_empty());
    let frozen = Session::new(sys, cfg).freeze().unwrap();
    hammer(&frozen, &queries, &expected);
}

#[test]
fn plan_cache_hit_equals_miss() {
    let sys = film_system(&film_cfg(7));
    let query = rps_lodgen::actor_shape_query(2, false);
    // A cache so small every second query evicts: the same query is
    // answered through a miss (fresh compile) and a hit (cached plan),
    // and both answer sets must be identical.
    let frozen = Session::open(sys, EngineConfig::default())
        .unwrap()
        .freeze_with_cache_capacity(1)
        .unwrap();
    let miss = frozen.answer(&query).unwrap().into_set().tuples;
    let hit = frozen.answer(&query).unwrap().into_set().tuples;
    assert_eq!(miss, hit);
    let stats = frozen.plan_cache_stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));

    // Evict by preparing a different query, then re-miss the original.
    let other = GraphPatternQuery::new(
        vec![Variable::new("s")],
        GraphPattern::triple(
            TermOrVar::var("s"),
            TermOrVar::var("p"),
            TermOrVar::var("o"),
        ),
    );
    frozen.prepare(&other).unwrap();
    let re_missed = frozen.answer(&query).unwrap().into_set().tuples;
    assert_eq!(re_missed, miss);
}

#[test]
fn frozen_federated_threads_agree_with_sequential() {
    let sys = film_system(&film_cfg(11));
    let queries = film_queries();
    // The sequential oracle: a separately frozen session, one thread,
    // the sequential branch walk.
    let seq = FederatedSession::open(&sys, EngineConfig::default())
        .and_then(FederatedSession::freeze)
        .unwrap();
    let expected: Vec<BTreeSet<Vec<Term>>> = queries
        .iter()
        .map(|q| {
            let prepared = seq.prepare(q).unwrap();
            let answer = seq.execute_with_threads(&prepared, 1).unwrap();
            answer.stream.into_set().tuples
        })
        .collect();
    let frozen = FederatedSession::open(&sys, EngineConfig::default())
        .unwrap()
        .freeze()
        .unwrap();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let frozen = &frozen;
            let queries = &queries;
            let expected = &expected;
            scope.spawn(move || {
                for (qi, query) in queries.iter().enumerate() {
                    let prepared = frozen.prepare(query).unwrap();
                    // Exercise both the internal branch fan-out widths
                    // and repeated execution of one shared plan.
                    for threads in [1, 4] {
                        let got = frozen
                            .execute_with_threads(&prepared, threads)
                            .unwrap()
                            .stream
                            .into_set()
                            .tuples;
                        assert_eq!(got, expected[qi], "thread {t}, query {qi}");
                    }
                }
            });
        }
    });
}

/// Thread `t`'s `rep`-th cold query over the film system: the cast of
/// one film under peer 2's vocabulary, anchored on a film IRI no other
/// (thread, rep) pair uses. Films of peers 0 and 1 are only reachable
/// through the mapping chain, and indexes past `films_per_peer` name
/// films absent from the data.
fn cold_film_query(t: usize, rep: usize) -> GraphPatternQuery {
    let film = format!(
        "{}film{}",
        rps_lodgen::film::peer_ns(t % 3),
        t / 3 + 3 * rep + 5
    );
    GraphPatternQuery::new(
        vec![Variable::new("y")],
        GraphPattern::triple(
            TermOrVar::iri(&film),
            TermOrVar::Term(Term::Iri(rps_lodgen::film::actor_pred(2))),
            TermOrVar::var("y"),
        ),
    )
}

/// Thread `t`'s `rep`-th cold query over the 12-edge chain: everything
/// reachable from one node; nodes past 12 are absent from the data.
fn cold_chain_query(t: usize, rep: usize) -> GraphPatternQuery {
    GraphPatternQuery::new(
        vec![Variable::new("y")],
        GraphPattern::triple(
            TermOrVar::Term(chain::node(t + THREADS * rep)),
            TermOrVar::Term(chain::edge_pred()),
            TermOrVar::var("y"),
        ),
    )
}

/// `THREADS` threads each prepare and execute `REPS_PER_THREAD` queries
/// nobody else prepares — through `answer`, which returns the tuples of
/// one cold prepare + execute — and every answer must equal
/// `expected[t][rep]`, computed sequentially beforehand.
fn cold_hammer(
    query: fn(usize, usize) -> GraphPatternQuery,
    expected: &[Vec<BTreeSet<Vec<Term>>>],
    answer: impl Fn(&GraphPatternQuery) -> BTreeSet<Vec<Term>> + Sync,
) {
    // All threads enter their first (cold) prepare together.
    let start = std::sync::Barrier::new(expected.len());
    std::thread::scope(|scope| {
        for (t, expected) in expected.iter().enumerate() {
            let (answer, start) = (&answer, &start);
            scope.spawn(move || {
                start.wait();
                for (rep, expected) in expected.iter().enumerate() {
                    assert_eq!(
                        &answer(&query(t, rep)),
                        expected,
                        "thread {t}, rep {rep} diverged"
                    );
                }
            });
        }
    });
}

/// The sequential oracle of [`cold_hammer`]: one separately frozen
/// materialising session answers every (thread, rep) query in turn,
/// from this thread alone.
fn cold_expected(
    sys: &rps_core::RdfPeerSystem,
    query: fn(usize, usize) -> GraphPatternQuery,
) -> Vec<Vec<BTreeSet<Vec<Term>>>> {
    let cfg = EngineConfig::default().with_strategy(Strategy::Materialise);
    let session = Session::open(sys.clone(), cfg)
        .and_then(Session::freeze)
        .unwrap();
    let expected: Vec<Vec<_>> = (0..THREADS)
        .map(|t| {
            (0..REPS_PER_THREAD)
                .map(|rep| session.answer(&query(t, rep)).unwrap().into_set().tuples)
                .collect()
        })
        .collect();
    // The workload is only a test if some constants hit and some miss.
    let non_empty = expected.iter().flatten().filter(|a| !a.is_empty()).count();
    assert!(0 < non_empty && non_empty < THREADS * REPS_PER_THREAD);
    expected
}

#[test]
fn cold_concurrent_prepares_agree_with_sequential_session() {
    let all_misses = |stats: rps_core::PlanCacheStats| {
        assert_eq!(
            (stats.hits, stats.misses),
            (0, (THREADS * REPS_PER_THREAD) as u64)
        );
    };

    let films = film_system(&film_cfg(23));
    let expected = cold_expected(&films, cold_film_query);
    let cfg = EngineConfig::default().with_strategy(Strategy::Rewrite);
    let frozen = Session::open(films.clone(), cfg).unwrap().freeze().unwrap();
    cold_hammer(cold_film_query, &expected, |q| {
        let prepared = frozen.prepare(q).unwrap();
        assert_eq!(prepared.route(), rps_core::ExecRoute::Rewritten);
        frozen.execute(&prepared).unwrap().into_set().tuples
    });
    all_misses(frozen.plan_cache_stats());

    let federated = FederatedSession::open(&films, EngineConfig::default())
        .unwrap()
        .freeze()
        .unwrap();
    cold_hammer(cold_film_query, &expected, |q| {
        let prepared = federated.prepare(q).unwrap();
        federated
            .execute(&prepared)
            .unwrap()
            .stream
            .into_set()
            .tuples
    });
    all_misses(federated.plan_cache_stats());

    let tc = chain::transitive_system(12);
    let expected = cold_expected(&tc, cold_chain_query);
    let cfg = EngineConfig::default().with_strategy(Strategy::Materialise);
    let frozen = Session::new(tc, cfg).freeze().unwrap();
    cold_hammer(cold_chain_query, &expected, |q| {
        let prepared = frozen.prepare(q).unwrap();
        assert_eq!(prepared.route(), rps_core::ExecRoute::Materialised);
        frozen.execute(&prepared).unwrap().into_set().tuples
    });
    all_misses(frozen.plan_cache_stats());
}

/// SPARQL texts every thread repeats: a two-CQ OPTIONAL, a two-CQ ASK
/// UNION and a plain scan over the mapped vocabulary.
fn hot_texts() -> Vec<String> {
    let actor = rps_lodgen::film::actor_pred(2);
    let other = rps_lodgen::film::actor_pred(1);
    vec![
        format!("SELECT ?f ?a WHERE {{ ?f {actor} ?a }} ORDER BY ?f ?a"),
        format!("SELECT ?f ?a ?g WHERE {{ ?f {actor} ?a OPTIONAL {{ ?g {other} ?a }} }}"),
        format!("ASK {{ {{ ?f {actor} ?a }} UNION {{ ?f <http://no/such> ?a }} }}"),
    ]
}

/// [`cold_film_query`] as SPARQL text (an `Iri` displays bracketed).
fn cold_film_text(t: usize, rep: usize) -> String {
    let query = cold_film_query(t, rep);
    let tp = &query.pattern().patterns()[0];
    let (TermOrVar::Term(film), TermOrVar::Term(actor)) = (&tp.s, &tp.p) else {
        panic!("cold film queries are anchored on a film IRI");
    };
    format!("SELECT ?y WHERE {{ {film} {actor} ?y }}")
}

/// The statement front under contention: `THREADS` barrier-started
/// threads interleave the same hot texts with texts nobody else sends,
/// through `answer_sparql` on a cache of 8 statements and 8 plans — far
/// fewer than the 27 texts in flight, so hits, misses, first-insert
/// races and evictions all happen together — and every answer equals
/// the sequential oracle's, a separately frozen session answered from
/// one thread before the hammer starts.
#[test]
fn statement_front_under_eviction_agrees_with_sequential_session() {
    const CAPACITY: usize = 8;
    let films = film_system(&film_cfg(23));
    let hot = hot_texts();
    let cfg = EngineConfig::default().with_strategy(Strategy::Materialise);
    let oracle = Session::open(films.clone(), cfg.clone())
        .and_then(Session::freeze)
        .unwrap();
    let hot_expected: Vec<_> = hot
        .iter()
        .map(|text| oracle.answer_sparql(text).unwrap())
        .collect();
    assert!(hot_expected[0].rows().is_some_and(|r| !r.rows.is_empty()));
    assert_eq!(hot_expected[2].boolean(), Some(true));
    let cold_expected: Vec<Vec<_>> = (0..THREADS)
        .map(|t| {
            (0..REPS_PER_THREAD)
                .map(|rep| oracle.answer_sparql(&cold_film_text(t, rep)).unwrap())
                .collect()
        })
        .collect();

    let hammer = |answer: &(dyn Fn(&str) -> rps_core::SparqlResult + Sync)| {
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for (t, cold_expected) in cold_expected.iter().enumerate() {
                let (start, hot, hot_expected) = (&start, &hot, &hot_expected);
                scope.spawn(move || {
                    start.wait();
                    for (rep, cold) in cold_expected.iter().enumerate() {
                        for (text, expected) in hot.iter().zip(hot_expected) {
                            assert_eq!(&answer(text), expected, "thread {t}, rep {rep}: {text}");
                        }
                        let text = cold_film_text(t, rep);
                        assert_eq!(&answer(&text), cold, "thread {t}, rep {rep}: {text}");
                    }
                });
            }
        });
    };
    let bounded = |stats: rps_core::PlanCacheStats| {
        assert!(
            stats.statements <= CAPACITY && stats.entries <= CAPACITY,
            "{stats:?}"
        );
        // Hot texts repeat 24 times each: some repeats were served
        // without compilation, and every cold text compiled.
        assert!(stats.hits > 0, "{stats:?}");
        assert!(
            stats.misses >= (THREADS * REPS_PER_THREAD) as u64,
            "{stats:?}"
        );
    };

    for strategy in [Strategy::Materialise, Strategy::Rewrite] {
        let frozen = Session::open(films.clone(), cfg.clone().with_strategy(strategy))
            .unwrap()
            .freeze_with_cache_capacity(CAPACITY)
            .unwrap();
        hammer(&|text| frozen.answer_sparql(text).unwrap());
        bounded(frozen.plan_cache_stats());
    }
    let federated = FederatedSession::open(&films, EngineConfig::default())
        .unwrap()
        .freeze_with_cache_capacity(CAPACITY)
        .unwrap();
    hammer(&|text| federated.answer_sparql(text).unwrap());
    bounded(federated.plan_cache_stats());
}
