//! Allocation budgets of the SPARQL front-end: what it costs to get from
//! a new query text to a cached plan, counted in heap allocations — and
//! the exact counts of the warm read path behind it (`execute` of a
//! prepared CQ, a hot `answer_sparql`), which no change to the scans
//! under the join may raise.
//!
//! A `#[global_allocator]` counts the allocations of the calling thread
//! only, so the tests of this binary running in parallel do not see each
//! other's. Allocation counts are deterministic: this is a regression
//! gate on the cold read path, not a timing test. The texts are the
//! benchmark's four point templates (`benchmark/src/ops.rs::render`).
//! Run it optimised, as CI does (`cargo test --release --test
//! front_end_allocs`); the counts hold unoptimised too.

use rps_core::{EngineConfig, FrozenSession, PeerId, RpsBuilder, Session, Strategy};
use rps_query::parse_sparql;
use rps_rdf::PrefixMap;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting allocations (fresh blocks and
/// resizes) per thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // A `const`-initialised `Cell` has no destructor, so this neither
    // allocates nor fails while the thread winds down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// counting touches a thread-local `Cell` only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations this thread made running it.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

const VOCAB: &str = "http://vocab.example.org/";

fn film(i: usize) -> String {
    format!("http://db0.example.org/film/F{i}")
}

fn person(i: usize) -> String {
    format!("http://people.example.org/person/P{i}")
}

/// The text of point template `name` at key `i`, byte for byte as the
/// benchmark renders it.
fn render(name: &str, i: usize) -> String {
    let p = format!("PREFIX v: <{VOCAB}> ");
    let (f, x) = (film(i), person(i));
    match name {
        "cast_hub" => format!("{p}SELECT ?p WHERE {{ <{f}> v:starring ?z . ?z v:artist ?p }}"),
        "films_of" => format!("{p}SELECT ?f WHERE {{ ?f v:starring ?z . ?z v:artist <{x}> }}"),
        "age_opt" => format!(
            "{p}SELECT ?x ?y ?n WHERE {{ <{f}> v:starring ?z . ?z v:artist ?x . ?x v:age ?y \
             OPTIONAL {{ ?x v:nick ?n }} }}"
        ),
        "ask_cast" => format!("{p}ASK {{ <{f}> v:starring ?z . ?z v:artist <{x}> }}"),
        other => panic!("no template {other}"),
    }
}

/// Parsing and lowering a point template, in allocations: what
/// `parse_sparql` + `lower` reached when the lexer started borrowing
/// from the text and the parser moving its tokens (from 53 + 12 on
/// `cast_hub` before).
#[test]
fn parse_and_lower_stay_within_budget() {
    let prefixes = PrefixMap::common();
    for (name, parse_budget, lower_budget) in [
        ("cast_hub", 9, 4),
        ("films_of", 9, 4),
        ("age_opt", 15, 9),
        ("ask_cast", 8, 2),
    ] {
        let text = render(name, 7);
        let (parsed, parse) = counted(|| parse_sparql(&text, &prefixes));
        let parsed = parsed.unwrap_or_else(|e| panic!("{name}: {e}"));
        let (lowered, lower) = counted(|| parsed.lower());
        assert!(!lowered.queries().is_empty(), "{name}");
        assert!(
            parse <= parse_budget,
            "{name}: parse made {parse} allocations, the budget is {parse_budget}"
        );
        assert!(
            lower <= lower_budget,
            "{name}: lower made {lower} allocations, the budget is {lower_budget}"
        );
    }
}

/// `PrefixMap::common()` is the documented base of `parse_sparql`, made
/// on every call by callers that do not keep one: its entries borrow
/// their text, so it costs its one map node.
#[test]
fn common_prefixes_copy_no_text() {
    let (prefixes, allocs) = counted(PrefixMap::common);
    assert_eq!(prefixes.len(), 5);
    assert!(allocs <= 1, "PrefixMap::common made {allocs} allocations");
}

/// A hub of `films` films, each with a cast of one through a blank node
/// and an age — the shape the templates read — frozen under `strategy`.
fn frozen(films: usize, strategy: Strategy) -> FrozenSession {
    frozen_with_cast(films, 1, strategy)
}

/// [`frozen`], where film 0's cast has `cast` members, each through a
/// blank node of its own.
fn frozen_with_cast(films: usize, cast: usize, strategy: Strategy) -> FrozenSession {
    let mut turtle = String::new();
    for i in 0..films {
        let (f, x) = (film(i), person(i));
        turtle.push_str(&format!(
            "<{f}> <{VOCAB}starring> _:c{i} .\n_:c{i} <{VOCAB}artist> <{x}> .\n\
             <{x}> <{VOCAB}age> \"{}\" .\n",
            20 + i % 50
        ));
    }
    for k in 1..cast {
        let (f, x) = (film(0), person(films + k));
        turtle.push_str(&format!(
            "<{f}> <{VOCAB}starring> _:m{k} .\n_:m{k} <{VOCAB}artist> <{x}> .\n"
        ));
    }
    let mut peer = PeerId(0);
    let system = RpsBuilder::new()
        .peer_turtle("hub", &turtle, &mut peer)
        .expect("generated turtle")
        .build();
    let config = EngineConfig::default().with_strategy(strategy);
    Session::open(system, config)
        .and_then(Session::freeze)
        .expect("the session freezes")
}

/// `cast_hub` at key `i` with its variables renamed after `i`: the same
/// query, but a text shape of its own (variables are kept verbatim in a
/// shape), so it is the first text of its shape.
fn render_fresh_shape(i: usize) -> String {
    render("cast_hub", i)
        .replace("?p", &format!("?p{i}"))
        .replace("?z", &format!("?z{i}"))
}

/// The fewest allocations of a cold `prepare_sparql` of `cast_hub` over
/// films 40..48, after films 0..40 filled the caches past their first
/// few growth steps — and made the text shape of `cast_hub` a template
/// at its second text. `fresh_shapes` renders each of the eight with
/// its own variable names, the first text of its shape; otherwise each
/// is a text of the seen shape. Each must be a plan-cache miss answering
/// one row, bound into the template exactly when its shape was seen.
fn fewest_cold_cast_hub_allocs(session: &FrozenSession, fresh_shapes: bool) -> usize {
    for i in 0..40 {
        session
            .prepare_sparql(&render("cast_hub", i))
            .expect("warm-up");
    }
    let before = session.plan_cache_stats();
    let fewest = (40..48)
        .map(|i| {
            let text = match fresh_shapes {
                true => render_fresh_shape(i),
                false => render("cast_hub", i),
            };
            let (prepared, allocs) = counted(|| session.prepare_sparql(&text));
            let result = prepared
                .and_then(|p| session.execute_sparql(&p))
                .expect("cold read");
            assert_eq!(result.rows().map(|r| r.rows.len()), Some(1), "{text}");
            allocs
        })
        .min()
        .unwrap_or(usize::MAX);
    let after = session.plan_cache_stats();
    assert_eq!(
        after.misses - before.misses,
        8,
        "every cold text is a plan-cache miss"
    );
    let binds = if fresh_shapes { 0 } else { 8 };
    assert_eq!(
        after.binds - before.binds,
        binds,
        "a text is bound iff its shape was seen"
    );
    fewest
}

/// A cold `FrozenSession::prepare_sparql` of `cast_hub` that is the
/// first text of its shape — a text the statement front has not seen,
/// its CQ a plan-cache miss: lex and hash the shape, parse, lower, key,
/// compile, cache. 91 allocations before the front-end stopped copying
/// its text. The shape's hash is all the front keeps of it, and hashing
/// allocates nothing, so this is what a cold text cost before the front
/// kept shapes. The fewest over eight cold texts in a row is asserted,
/// so the cache maps growing on one insert does not count.
#[test]
fn cold_prepare_sparql_of_a_point_read_stays_within_budget() {
    const BUDGET: usize = 25;
    let fewest = fewest_cold_cast_hub_allocs(&frozen(64, Strategy::Materialise), true);
    assert!(
        fewest <= BUDGET,
        "a cold prepare_sparql made {fewest} allocations, the budget is {BUDGET}"
    );
}

/// The same first text of a text shape on the rewritten route, of a
/// film whose query shape the rewriter has seen: key the query shape,
/// probe the memo, look the film up, write it into the shape's compiled
/// branches and plan them — no interning, no expansion, no decoding of
/// the union (31 allocations when a plan miss interned the query and
/// compiled its branches). The count is exact, and the same unoptimised
/// and optimised: a rise is a regression.
#[test]
fn cold_prepare_sparql_of_a_seen_shape_on_the_rewritten_route_is_pinned() {
    const ALLOCS: usize = 28;
    let fewest = fewest_cold_cast_hub_allocs(&frozen(64, Strategy::Rewrite), true);
    assert_eq!(
        fewest, ALLOCS,
        "a cold prepare_sparql of a seen shape made {fewest} allocations"
    );
}

/// A cold `prepare_sparql` of `cast_hub` whose text shape the statement
/// front has made a template: lex and hash the text, check it against
/// the template's key, resolve the film (the prefixed names are spelled
/// as in the template's text and cost a reference count), look it up in
/// the solution and plan the CQ's one branch, then cache the statement —
/// no parsing, lowering, plan key or plan-cache insert. The count is
/// exact; the shape front was built to bring it to 12 or fewer from the
/// 25 of a parsed text.
#[test]
fn cold_prepare_sparql_of_a_seen_text_shape_is_pinned() {
    const ALLOCS: usize = 11;
    let fewest = fewest_cold_cast_hub_allocs(&frozen(64, Strategy::Materialise), false);
    assert_eq!(
        fewest, ALLOCS,
        "a cold prepare_sparql of a seen text shape made {fewest} allocations"
    );
}

/// The same on the rewritten route: after the film is resolved, key its
/// CQ's query shape — it must be the template's — look the film up in
/// the canonical graph and bind it into the union compiled once per
/// shape, with no probe of the rewriter's memo. The count is exact; the
/// shape front was built to bring it to 16 or fewer from the 28 of a
/// parsed text.
#[test]
fn cold_prepare_sparql_of_a_seen_text_shape_on_the_rewritten_route_is_pinned() {
    const ALLOCS: usize = 14;
    let fewest = fewest_cold_cast_hub_allocs(&frozen(64, Strategy::Rewrite), false);
    assert_eq!(
        fewest, ALLOCS,
        "a cold prepare_sparql of a seen text shape made {fewest} allocations"
    );
}

/// The allocations of `f`'s third call in a row, after asserting the
/// second made as many: the caches `f` reaches are warm by then, so the
/// count is the read path's own.
fn warm_allocs<T>(mut f: impl FnMut() -> T) -> usize {
    f();
    let (_, second) = counted(&mut f);
    let (_, third) = counted(&mut f);
    assert_eq!(second, third, "a warm call's allocations repeat");
    third
}

/// A warm `FrozenSession::execute` of `cast_hub`'s prepared CQ, its
/// stream drained: the join over the sealed solution, the row sink and
/// the stream. The count is exact; a probe of the store allocates
/// nothing, so a change to the scan under the join must leave it as it
/// is.
#[test]
fn warm_execute_of_a_point_read_is_pinned() {
    const ALLOCS: usize = 3;
    let session = frozen(64, Strategy::Materialise);
    let parsed = parse_sparql(&render("cast_hub", 7), &PrefixMap::common()).expect("cast_hub");
    let lowered = parsed.lower();
    let cq = lowered.queries()[0];
    let prepared = session.prepare(cq).expect("prepare");
    let allocs = warm_allocs(|| {
        let rows = session.execute(&prepared).expect("execute").count();
        assert_eq!(rows, 1);
    });
    assert_eq!(allocs, ALLOCS, "a warm execute made {allocs} allocations");
}

/// A hot `FrozenSession::answer_sparql` of `cast_hub`: a statement-cache
/// hit, then execute and assemble. The count is exact, like the warm
/// execute's; assembling ranks the row by the solution's term order,
/// which the freeze built, so the tail allocates no ranking table. It
/// was 13 while the tail copied the base CQ's rows twice before the
/// sort and decoded into a `Vec` per row.
#[test]
fn hot_answer_sparql_of_a_point_read_is_pinned() {
    const ALLOCS: usize = 10;
    let session = frozen(64, Strategy::Materialise);
    let text = render("cast_hub", 7);
    let allocs = warm_allocs(|| {
        let result = session.answer_sparql(&text).expect("hot read");
        assert_eq!(result.rows().map(|r| r.rows.len()), Some(1));
    });
    assert_eq!(
        allocs, ALLOCS,
        "a hot answer_sparql made {allocs} allocations"
    );
}

/// A hot `answer_sparql` of `cast_hub` on a film with a cast of 24 makes
/// exactly the allocations of the same read on a film with a cast of
/// one: the join's row sink, the tail's keyed rows and the decoded table
/// are one buffer each, so a result's allocations do not grow with its
/// rows.
#[test]
fn hot_answer_sparql_of_a_multi_row_read_allocates_like_a_one_row_read() {
    const ALLOCS: usize = 10;
    const CAST: usize = 24;
    let session = frozen_with_cast(64, CAST, Strategy::Materialise);
    let hot = |film: usize, rows: usize| {
        let text = render("cast_hub", film);
        warm_allocs(|| {
            let result = session.answer_sparql(&text).expect("hot read");
            assert_eq!(result.rows().map(|r| r.rows.len()), Some(rows));
        })
    };
    let (many, one) = (hot(0, CAST), hot(7, 1));
    assert_eq!(
        many, ALLOCS,
        "a hot {CAST}-row answer_sparql made {many} allocations"
    );
    assert_eq!(
        many, one,
        "a hot one-row answer_sparql made {one} allocations"
    );
}
