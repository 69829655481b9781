//! Epoch snapshot swap under concurrent serving.
//!
//! Eight reader threads execute prepared plans non-stop while a single
//! writer publishes a stream of epochs. The contract:
//!
//! * **No torn reads** — every answer set a reader observes equals the
//!   answer set of *some* committed epoch, exactly (the workload is
//!   constructed so each epoch has a distinct, predictable answer set).
//! * **Monotone epochs** — the epochs a thread pins through `prepare`
//!   never go backwards.
//! * **Pinning** — a plan keeps answering its own epoch even while
//!   later epochs land, until the writer's retention floor passes it;
//!   only then does execution fail, with the typed
//!   [`RpsError::StalePlan`], and a re-prepare recovers.
//! * **SPARQL reads** — a SPARQL text answers as some epoch the reader
//!   could see during the call, whether its epoch's statement front
//!   parses it, finds it whole or binds it into its shape's template.
//!
//! CI runs this suite under `RUST_TEST_THREADS=8`.

use rps_core::{
    EngineConfig, LiveSession, PeerId, RdfPeerSystem, RpsBuilder, RpsError, UpdateBatch,
};
use rps_query::{GraphPattern, GraphPatternQuery, TermOrVar, Variable};
use rps_rdf::{Iri, Term, Triple};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const READERS: usize = 8;
const EPOCHS: u32 = 20;

fn v(n: &str) -> Variable {
    Variable::new(n)
}

/// Peer A holds one `starring`/`artist` pair; peer B holds `actor`
/// facts that a GMA translates into A's shape through an existential
/// witness. Epoch `k` inserts `actor(film{k+2}, actor{k+2})` on B, so
/// the cast query answers exactly `k + 2` pairs at epoch `k`.
fn system() -> RdfPeerSystem {
    let mut a = PeerId(0);
    let mut b = PeerId(0);
    let premise = GraphPatternQuery::new(
        vec![v("x"), v("y")],
        GraphPattern::triple(
            TermOrVar::var("x"),
            TermOrVar::iri("http://b/actor"),
            TermOrVar::var("y"),
        ),
    );
    let conclusion = GraphPatternQuery::new(
        vec![v("x"), v("y")],
        GraphPattern::triple(
            TermOrVar::var("x"),
            TermOrVar::iri("http://a/starring"),
            TermOrVar::var("z"),
        )
        .and(GraphPattern::triple(
            TermOrVar::var("z"),
            TermOrVar::iri("http://a/artist"),
            TermOrVar::var("y"),
        )),
    );
    RpsBuilder::new()
        .peer_turtle(
            "A",
            "<http://a/film> <http://a/starring> _:c .\n\
             _:c <http://a/artist> <http://a/actor1> .",
            &mut a,
        )
        .unwrap()
        .peer_turtle(
            "B",
            "<http://b/film2> <http://b/actor> <http://b/actor2> .",
            &mut b,
        )
        .unwrap()
        .assertion(b, a, premise, conclusion)
        .unwrap()
        .build()
}

fn cast_query() -> GraphPatternQuery {
    GraphPatternQuery::new(
        vec![v("x"), v("y")],
        GraphPattern::triple(
            TermOrVar::var("x"),
            TermOrVar::iri("http://a/starring"),
            TermOrVar::var("z"),
        )
        .and(GraphPattern::triple(
            TermOrVar::var("z"),
            TermOrVar::iri("http://a/artist"),
            TermOrVar::var("y"),
        )),
    )
}

fn iri(s: &str) -> Term {
    Term::Iri(Iri::new(s))
}

fn actor_triple(i: u32) -> Triple {
    Triple::new(
        iri(&format!("http://b/film{i}")),
        iri("http://b/actor"),
        iri(&format!("http://b/actor{i}")),
    )
    .expect("valid triple")
}

/// The exact cast-query answer set at a given epoch.
fn expected(epoch: u32) -> BTreeSet<Vec<Term>> {
    let mut set = BTreeSet::new();
    set.insert(vec![iri("http://a/film"), iri("http://a/actor1")]);
    for i in 2..=epoch + 2 {
        set.insert(vec![
            iri(&format!("http://b/film{i}")),
            iri(&format!("http://b/actor{i}")),
        ]);
    }
    set
}

#[test]
fn readers_always_see_a_committed_epoch() {
    let mut live = LiveSession::open(system(), EngineConfig::default()).expect("opens");
    let done = Arc::new(AtomicBool::new(false));
    let query = cast_query();

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let reader = live.reader();
            let done = Arc::clone(&done);
            let query = query.clone();
            std::thread::spawn(move || {
                let mut last_epoch = 0u32;
                let mut observations = 0u64;
                while !done.load(Ordering::Acquire) {
                    let plan = reader.prepare(&query).expect("prepare never fails");
                    assert!(
                        plan.epoch() >= last_epoch,
                        "epoch went backwards: {} after {last_epoch}",
                        plan.epoch()
                    );
                    last_epoch = plan.epoch();
                    let got: BTreeSet<Vec<Term>> = reader
                        .execute(&plan)
                        .expect("unbounded retention: plans never go stale")
                        .collect();
                    // The answers are exactly those of the committed
                    // epoch the plan pinned — never a torn mixture.
                    assert_eq!(
                        got,
                        expected(plan.epoch()),
                        "torn read at epoch {}",
                        plan.epoch()
                    );
                    observations += 1;
                }
                (last_epoch, observations)
            })
        })
        .collect();

    for k in 0..EPOCHS {
        let epoch = live
            .apply(&UpdateBatch::new().insert(PeerId(1), actor_triple(k + 3)))
            .expect("batch applies");
        assert_eq!(epoch, k + 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    done.store(true, Ordering::Release);

    let mut total = 0;
    for handle in readers {
        let (_, observations) = handle.join().expect("reader thread panics propagate");
        total += observations;
    }
    assert!(total > 0, "readers must have observed at least one epoch");
}

#[test]
fn pinned_plans_answer_their_epoch_until_the_floor_passes() {
    let mut live =
        LiveSession::open_with_retention(system(), EngineConfig::default(), 2).expect("opens");
    let reader = live.reader();
    let plan0 = reader.prepare(&cast_query()).expect("prepares");

    for k in 0..2 {
        live.apply(&UpdateBatch::new().insert(PeerId(1), actor_triple(k + 3)))
            .expect("applies");
        // Within the retention window the plan still answers epoch 0.
        let got: BTreeSet<Vec<Term>> = reader
            .execute(&plan0)
            .expect("within the retention window")
            .collect();
        assert_eq!(got, expected(0));
    }

    live.apply(&UpdateBatch::new().insert(PeerId(1), actor_triple(5)))
        .expect("applies");
    // Epoch 3, retention 2: the floor (1) has passed epoch 0.
    match reader.execute(&plan0) {
        Err(RpsError::StalePlan { prepared, current }) => {
            assert_eq!(prepared, 0);
            assert_eq!(current, 3);
        }
        Err(other) => panic!("expected StalePlan, got {other}"),
        Ok(_) => panic!("expected StalePlan, got answers"),
    }
    // Re-preparing recovers at the current epoch.
    let plan3 = reader.prepare(&cast_query()).expect("prepares");
    assert_eq!(plan3.epoch(), 3);
    let got: BTreeSet<Vec<Term>> = reader.execute(&plan3).expect("fresh plan").collect();
    assert_eq!(got, expected(3));
}

#[test]
fn readers_survive_the_writer() {
    let mut live = LiveSession::open(system(), EngineConfig::default()).expect("opens");
    live.apply(&UpdateBatch::new().insert(PeerId(1), actor_triple(3)))
        .expect("applies");
    let reader = live.reader();
    drop(live);
    // The last published epoch keeps serving.
    let got: BTreeSet<Vec<Term>> = reader
        .answer(&cast_query())
        .expect("answers after writer drop")
        .collect();
    assert_eq!(got, expected(1));
}

/// The one row `SELECT ?y` over `film{i}`'s cast answers at `epoch`:
/// `actor{i}` once epoch `i − 2` has inserted it, nothing before.
fn cast_of(i: u32, epoch: u32) -> Vec<Vec<Option<Term>>> {
    match i <= epoch + 2 {
        true => vec![vec![Some(iri(&format!("http://b/actor{i}")))]],
        false => Vec::new(),
    }
}

#[test]
fn sparql_readers_answer_an_epoch_they_could_see() {
    let mut live = LiveSession::open(system(), EngineConfig::default()).expect("opens");
    let done = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..READERS as u32)
        .map(|r| {
            let reader = live.reader();
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut observations = 0u32;
                // Each thread rotates through every film of the run and
                // one past it, starting at its own.
                let films = EPOCHS + 2;
                while !done.load(Ordering::Acquire) {
                    let i = 2 + (r + observations) % films;
                    let text = format!(
                        "SELECT ?y WHERE {{ <http://b/film{i}> <http://a/starring> ?z . \
                         ?z <http://a/artist> ?y }}"
                    );
                    let low = reader.epoch();
                    let got = reader.answer_sparql(&text).expect("unbounded retention");
                    let high = reader.epoch();
                    let rows: Vec<Vec<Option<Term>>> = (got.rows().expect("a SELECT").rows.iter())
                        .map(<[_]>::to_vec)
                        .collect();
                    assert!(
                        (low..=high).any(|epoch| rows == cast_of(i, epoch)),
                        "film{i} answered {rows:?}, no epoch in {low}..={high} does"
                    );
                    observations += 1;
                }
                observations
            })
        })
        .collect();

    for k in 0..EPOCHS {
        let epoch = live
            .apply(&UpdateBatch::new().insert(PeerId(1), actor_triple(k + 3)))
            .expect("batch applies");
        assert_eq!(epoch, k + 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    done.store(true, Ordering::Release);

    let mut total = 0;
    for handle in readers {
        total += handle.join().expect("reader thread panics propagate");
    }
    assert!(total > 0, "readers must have answered at least one text");
}
