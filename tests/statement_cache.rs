//! The statement front of the frozen plan caches: a SPARQL text seen
//! before comes back whole, keyed by its bytes, and answers exactly as
//! the first (missing) preparation and as the sequential oracle — a
//! separately frozen materialising [`Session`] — do.
//! Checked on the three façades that have the front — frozen
//! `Materialise`, frozen `Rewrite` and [`FrozenFederatedSession`] —
//! together with the counter contract (`hits` counts plans served
//! without compilation, `binds` the misses a shape's template served),
//! the bound, and that errors are never cached. A live reader answers
//! through its current epoch's frozen session, so it has the front too,
//! one per epoch.

use rps_core::{
    EngineConfig, FrozenSession, LiveReader, LiveSession, PeerId, PlanCacheStats, RdfPeerSystem,
    RpsBuilder, RpsError, Session, SparqlResult, Strategy, UpdateBatch,
};
use rps_p2p::{FederatedSession, FrozenFederatedSession};
use rps_query::{GraphPattern, GraphPatternQuery, TermOrVar, Variable};
use rps_rdf::{Term, Triple};
use rps_tgd::RewriteConfig;

const PEOPLE: usize = 100;

const SELECT: &str = "SELECT ?f ?who WHERE { ?f <http://a/cast> ?who }";

const OPTIONAL_FILTER: &str = "PREFIX a: <http://a/>\n\
     SELECT ?who ?age ?nick WHERE {\n\
       ?f a:cast ?who . ?who a:age ?age\n\
       OPTIONAL { ?who a:nick ?nick }\n\
       FILTER(?age > \"40\")\n\
     } ORDER BY DESC(?age) LIMIT 7";

const ASK_UNION: &str =
    "ASK { { ?f <http://a/cast> <http://a/p2> } UNION { ?f <http://no/such> ?x } }";

const TEXTS: [&str; 3] = [SELECT, OPTIONAL_FILTER, ASK_UNION];

/// What the fronted façades have in common, so every check below is
/// written once. A prepared statement travels as its plan count and a
/// closure that executes it (the handle types differ per façade).
trait Front {
    fn name(&self) -> &'static str;
    fn prepare(&self, text: &str) -> Result<(usize, Execute<'_>), RpsError>;
    fn answer(&self, text: &str) -> Result<SparqlResult, RpsError>;
    fn stats(&self) -> PlanCacheStats;
}

type Execute<'a> = Box<dyn Fn() -> SparqlResult + 'a>;

struct Named<S>(&'static str, S);

macro_rules! front {
    ($session:ty) => {
        impl Front for Named<$session> {
            fn name(&self) -> &'static str {
                self.0
            }
            fn prepare(&self, text: &str) -> Result<(usize, Execute<'_>), RpsError> {
                let prepared = self.1.prepare_sparql(text)?;
                Ok((
                    prepared.plan_count(),
                    Box::new(move || self.1.execute_sparql(&prepared).unwrap()),
                ))
            }
            fn answer(&self, text: &str) -> Result<SparqlResult, RpsError> {
                self.1.answer_sparql(text)
            }
            fn stats(&self) -> PlanCacheStats {
                self.1.plan_cache_stats()
            }
        }
    };
}
front!(FrozenSession);
front!(FrozenFederatedSession);

/// Runs `check` on each fronted façade over `sys`, every cache bounded
/// to `capacity`.
fn on_every_front(
    sys: &RdfPeerSystem,
    config: &EngineConfig,
    capacity: usize,
    mut check: impl FnMut(&dyn Front),
) {
    for (name, strategy) in [
        ("frozen materialise", Strategy::Materialise),
        ("frozen rewrite", Strategy::Rewrite),
    ] {
        let frozen = Session::open(sys.clone(), config.clone().with_strategy(strategy))
            .unwrap()
            .freeze_with_cache_capacity(capacity)
            .unwrap();
        check(&Named(name, frozen));
    }
    let federated = FederatedSession::open(sys, config.clone())
        .unwrap()
        .freeze_with_cache_capacity(capacity)
        .unwrap();
    check(&Named("frozen federated", federated));
}

/// The sequential oracle: a separately frozen materialising session,
/// answered from the test's own thread.
fn oracle(sys: &RdfPeerSystem) -> FrozenSession {
    let config = EngineConfig::default().with_strategy(Strategy::Materialise);
    Session::open(sys.clone(), config)
        .and_then(Session::freeze)
        .unwrap()
}

#[test]
fn hit_equals_miss_equals_mutable_session_and_counts_its_plans() {
    let sys = build_system();
    let oracle = oracle(&sys);
    on_every_front(&sys, &EngineConfig::default(), 64, |front| {
        for (seen, text) in TEXTS.into_iter().enumerate() {
            let label = format!("{}: {text}", front.name());
            let expected = oracle.answer_sparql(text).unwrap();
            let cold = front.stats();
            assert_eq!(cold.statements, seen, "{label}");

            // The miss: every CQ of the text compiles, nothing hits.
            let miss = front.answer(text).unwrap();
            assert_eq!(miss, expected, "{label}: miss");
            let warm = front.stats();
            let plans = (warm.misses - cold.misses) as usize;
            assert!(plans >= 1, "{label}");
            assert_eq!(warm.hits, cold.hits, "{label}");
            assert_eq!(warm.statements, seen + 1, "{label}");

            // The hit, through both entry points: `plan_count` plans
            // served without compilation, nothing else moves.
            assert_eq!(front.answer(text).unwrap(), expected, "{label}: hit");
            let (plan_count, execute) = front.prepare(text).unwrap();
            assert_eq!(plan_count, plans, "{label}");
            assert_eq!(execute(), expected, "{label}: prepared hit");
            assert_eq!(
                front.stats(),
                PlanCacheStats {
                    hits: warm.hits + 2 * plans as u64,
                    ..warm
                },
                "{label}"
            );
        }
    });
}

/// Two texts of one query are two statements. One that differs in
/// whitespace only is of the first's shape and is bound; an α-renamed
/// one is a shape of its own and shares the first's plans.
#[test]
fn texts_differing_in_spelling_are_two_statements_sharing_their_plans() {
    let sys = build_system();
    let oracle = oracle(&sys);
    // The same query three ways: as is, re-spaced, and α-renamed.
    let respaced = OPTIONAL_FILTER.replace('\n', "  \n\t");
    let renamed = OPTIONAL_FILTER
        .replace("?who", "?whom")
        .replace("?f ", "?film ");
    assert_ne!(respaced, OPTIONAL_FILTER);
    assert_ne!(renamed, OPTIONAL_FILTER);
    on_every_front(&sys, &EngineConfig::default(), 64, |front| {
        let name = front.name();
        assert_eq!(
            front.answer(OPTIONAL_FILTER).unwrap(),
            oracle.answer_sparql(OPTIONAL_FILTER).unwrap()
        );
        let first = front.stats();
        let plans = first.misses;
        assert_eq!((first.hits, first.statements), (0, 1), "{name}");
        // The re-spaced text is of the first one's shape (whitespace is
        // no part of a shape): a statement miss bound into the shape's
        // template, its CQs compiled afresh — misses that are binds —
        // with no per-CQ probe. The α-renamed text is a shape of its
        // own: a statement miss that falls through to the per-CQ path,
        // where every α-equivalent CQ is already compiled.
        let expected = [
            PlanCacheStats {
                misses: 2 * plans,
                binds: plans,
                statements: 2,
                ..first
            },
            PlanCacheStats {
                hits: plans,
                misses: 2 * plans,
                binds: plans,
                statements: 3,
                shapes: 2,
                ..first
            },
        ];
        for (text, expected) in [respaced.as_str(), renamed.as_str()]
            .into_iter()
            .zip(expected)
        {
            assert_eq!(
                front.answer(text).unwrap(),
                oracle.answer_sparql(text).unwrap(),
                "{name}: {text}"
            );
            assert_eq!(front.stats(), expected, "{name}: {text}");
        }
    });
}

/// `{err:?}` of what must be an error.
fn failure(result: Result<SparqlResult, RpsError>) -> String {
    format!("{:?}", result.expect_err("must fail"))
}

#[test]
fn errors_are_typed_repeatable_and_never_cached() {
    // Malformed text, on every front.
    let sys = build_system();
    on_every_front(&sys, &EngineConfig::default(), 64, |front| {
        let malformed = "SELECT ?x WHERE { ?x }";
        let first = front.answer(malformed);
        assert!(
            matches!(first, Err(RpsError::Sparql(_))),
            "{}",
            front.name()
        );
        assert_eq!(failure(first), failure(front.answer(malformed)));
        assert!(front.prepare(malformed).is_err());
        let stats = front.stats();
        assert_eq!(
            (stats.statements, stats.entries),
            (0, 0),
            "{}",
            front.name()
        );
    });

    // A rewriting that cannot finish inside its budget: transitive
    // closure is not FO-rewritable (Proposition 3).
    let tc = rps_lodgen::chain::transitive_system(6);
    let config = EngineConfig::default().with_rewrite(RewriteConfig {
        max_depth: 3,
        max_cqs: 10_000,
    });
    let text = format!(
        "SELECT ?x ?y WHERE {{ ?x <{}A> ?y }}",
        rps_lodgen::chain::NS
    );
    let rewrite = Session::open(tc.clone(), config.clone().with_strategy(Strategy::Rewrite))
        .unwrap()
        .freeze()
        .unwrap();
    let federated = FederatedSession::open(&tc, config)
        .unwrap()
        .freeze()
        .unwrap();
    let fronts: [&dyn Front; 2] = [
        &Named("frozen rewrite", rewrite),
        &Named("frozen federated", federated),
    ];
    for front in fronts {
        let first = front.answer(&text);
        assert!(
            matches!(first, Err(RpsError::RewriteBudget { .. })),
            "{}",
            front.name()
        );
        assert_eq!(failure(first), failure(front.answer(&text)));
        let stats = front.stats();
        assert_eq!(
            (stats.statements, stats.entries),
            (0, 0),
            "{}",
            front.name()
        );
        // Nothing was served without compilation either time.
        assert_eq!((stats.hits, stats.misses), (0, 2), "{}", front.name());
    }
}

#[test]
fn capacity_bounds_the_statements_and_an_evicted_handle_still_executes() {
    const CAPACITY: usize = 4;
    let sys = build_system();
    let oracle = oracle(&sys);
    // Each text a shape of its own (variables are verbatim in a shape),
    // so every map fills: statements, shapes and plans.
    let films_of = |i: usize| {
        format!("SELECT ?f{i} WHERE {{ ?f{i} <http://a/cast> <http://a/p{i}> }} ORDER BY ?f{i}")
    };
    on_every_front(&sys, &EngineConfig::default(), CAPACITY, |front| {
        let name = front.name();
        let first = films_of(0);
        let (_, early) = front.prepare(&first).unwrap();
        for i in 0..PEOPLE {
            let text = films_of(i);
            let expected = oracle.answer_sparql(&text).unwrap();
            assert!(!expected.rows().unwrap().rows.is_empty(), "{text}");
            assert_eq!(front.answer(&text).unwrap(), expected, "{name}: {text}");
            let stats = front.stats();
            assert!(
                stats.statements <= CAPACITY
                    && stats.entries <= CAPACITY
                    && stats.shapes <= CAPACITY,
                "{name}: {stats:?}"
            );
            assert_eq!(stats.capacity, CAPACITY);
        }
        let full = front.stats();
        assert_eq!(
            (full.statements, full.entries, full.shapes),
            (CAPACITY, CAPACITY, CAPACITY)
        );
        // The first text fell out of every map long ago: asking again
        // compiles again — while the handle taken before the eviction
        // keeps its plans and answers as ever.
        let expected = oracle.answer_sparql(&first).unwrap();
        assert_eq!(early(), expected, "{name}: evicted handle");
        assert_eq!(front.answer(&first).unwrap(), expected);
        assert_eq!(front.stats().misses, full.misses + 1, "{name}");
    });
}

/// A live epoch's front: a repeated text is a statement hit, a text of
/// the same shape with another constant binds into the shape's
/// template, and a publish starts the next epoch cold. A statement
/// prepared before the publishes answers its own epoch until the
/// retention window leaves it.
#[test]
fn a_live_epoch_fronts_its_statements_until_the_window_leaves_them() -> Result<(), RpsError> {
    let mut live = LiveSession::open_with_retention(build_system(), EngineConfig::default(), 1)?;
    let reader = live.reader();
    let counters = |reader: &LiveReader| {
        let stats = reader.plan_cache_stats();
        (stats.hits, stats.misses, stats.binds)
    };
    let cast =
        |film: usize| format!("SELECT ?who WHERE {{ <http://a/f{film}> <http://a/cast> ?who }}");

    let pinned = reader.prepare_sparql(&cast(3))?;
    let before = reader.execute_sparql(&pinned)?;
    assert_eq!(counters(&reader), (0, 1, 0));
    assert_eq!(reader.answer_sparql(&cast(3))?, before);
    assert_eq!(
        counters(&reader),
        (1, 1, 0),
        "a repeated text is a statement hit"
    );
    let expected = oracle(live.system()).answer_sparql(&cast(4))?;
    assert_eq!(reader.answer_sparql(&cast(4))?, expected);
    assert_eq!(counters(&reader), (1, 2, 1), "a new constant binds");

    let iri = Term::iri;
    let triple = Triple::new(
        iri("http://a/f3"),
        iri("http://a/cast"),
        iri("http://a/p50"),
    )?;
    live.apply(&UpdateBatch::new().insert(PeerId(0), triple))?;
    assert_eq!(counters(&reader), (0, 0, 0), "a new epoch starts cold");
    let expected = oracle(live.system()).answer_sparql(&cast(3))?;
    assert_ne!(expected, before);
    assert_eq!(reader.answer_sparql(&cast(3))?, expected);
    assert_eq!(
        counters(&reader),
        (0, 1, 0),
        "the epoch's first read misses"
    );
    assert_eq!(reader.execute_sparql(&pinned)?, before, "within the window");

    live.apply(&UpdateBatch::new())?;
    match reader.execute_sparql(&pinned) {
        Err(RpsError::StalePlan { prepared, current }) => assert_eq!((prepared, current), (0, 2)),
        Err(other) => panic!("expected StalePlan, got {other}"),
        Ok(_) => panic!("expected StalePlan, got answers"),
    }
    Ok(())
}

/// Peer A casts person `i` in films `i` and `7i mod 100` and knows
/// everybody's age and every third nick; peer B's `actor` triples map
/// into A's `cast`.
fn build_system() -> RdfPeerSystem {
    let pair = |pred: &str| {
        GraphPatternQuery::new(
            vec![Variable::new("x"), Variable::new("y")],
            GraphPattern::triple(
                TermOrVar::var("x"),
                TermOrVar::iri(pred),
                TermOrVar::var("y"),
            ),
        )
    };
    let mut a_text = String::new();
    let mut b_text = String::new();
    for i in 0..PEOPLE {
        a_text += &format!("<http://a/f{i}> <http://a/cast> <http://a/p{i}> .\n");
        b_text += &format!(
            "<http://b/f{}> <http://b/actor> <http://a/p{i}> .\n",
            i * 7 % PEOPLE
        );
        a_text += &format!("<http://a/p{i}> <http://a/age> \"{}\" .\n", 20 + i % 50);
        if i % 3 == 0 {
            a_text += &format!("<http://a/p{i}> <http://a/nick> \"n{i}\" .\n");
        }
    }
    let (mut a, mut b) = (PeerId(0), PeerId(0));
    RpsBuilder::new()
        .peer_turtle("A", &a_text, &mut a)
        .unwrap()
        .peer_turtle("B", &b_text, &mut b)
        .unwrap()
        .assertion(b, a, pair("http://b/actor"), pair("http://a/cast"))
        .unwrap()
        .build()
}
