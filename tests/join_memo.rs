//! The suffix memo, the merging row sink and the allocation-free probe
//! are *optimisations* of the one evaluator: a plan that evaluates an
//! independent conjunct suffix once per key answers exactly what the
//! plain nested loop answers. This seeded sweep (`RPS_JOIN_SEED`,
//! comma-separated u64 seeds) builds random film catalogues — blank
//! cast hubs, people who are IRIs or blank nodes, a self-loop predicate
//! — and runs the shapes that have such a suffix (hub self-joins,
//! stars, cartesian products, an existential suffix that projects
//! nothing, a repeated variable inside the suffix, a constant shared by
//! prefix and suffix, stars whose arms bind an existential) beside the
//! shapes that have none (chains) — where a film casts one person through
//! several hubs, so a projected prefix tuple arrives at the suffix under
//! several existential bindings, which the memo replays once — with
//! random heads, conjunct orders and constant substitutions. Every plan
//! under both planners (the cost-based one and the shape heuristic) ×
//! `Semantics`, on a sealed graph and on an unsealed one (several runs,
//! a tail and tombstones), must equal
//!
//! * term-level `evaluate_query` over a `StorageBackend::BTree` copy —
//!   `evaluate_pattern` enumerates every solution mapping with the
//!   plain loop and projects afterwards, so it shares neither the memo
//!   nor the blank-node pruning with the plans under test — and
//! * the shipped oracle pair, the heuristic plan
//!   (`PreparedQueryIds::compile_heuristic`) over that copy.

use rps_lodgen::{seed_matrix, SeededRng};
use rps_query::{
    evaluate_query, GraphPattern, GraphPatternQuery, PreparedQueryIds, Semantics, TermOrVar,
    TriplePattern, Variable,
};
use rps_rdf::{Graph, StorageBackend, Term, Triple};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;

/// The system allocator, counting the allocations (fresh blocks and
/// resizes) of the calling thread only, so the tests of this binary
/// running in parallel do not see each other's.
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

const FILMS: usize = 9;
const PEOPLE: usize = 7;

fn iri(name: &str) -> Term {
    Term::iri(format!("http://jm/{name}"))
}

fn film(i: usize) -> Term {
    iri(&format!("film{i}"))
}

/// Every third person is a blank node: a projected `?p` meets blanks,
/// which `Semantics::Certain` must drop and `Star` must keep.
fn person(i: usize) -> Term {
    match i % 3 {
        0 => Term::blank(format!("anon{i}")),
        _ => iri(&format!("person{i}")),
    }
}

/// The catalogue's triples, then enough unrelated filler that an
/// unsealed graph holding them stacks runs under its tail.
fn arb_triples(rng: &mut SeededRng) -> Vec<Triple> {
    let mut out = Vec::new();
    let mut add = |s: Term, p: &str, o: Term| out.push(Triple::new(s, iri(p), o).unwrap());
    for f in 0..FILMS {
        add(
            film(f),
            "year",
            Term::literal(format!("{}", 1900 + rng.gen_range(0..3))),
        );
        for g in 0..rng.gen_range(0..3) {
            add(film(f), "genre", iri(&format!("genre{}", (f + g) % 4)));
        }
        for k in 0..rng.gen_range(0..5) {
            let hub = Term::blank(format!("hub{f}_{k}"));
            add(film(f), "starring", hub.clone());
            // Some hubs name two artists, some none.
            for _ in 0..rng.gen_range(0..3) {
                add(hub.clone(), "artist", person(rng.gen_range(0..PEOPLE)));
            }
        }
        // A person cast through two or three hubs of one film: a prefix
        // reaches the same projected tuple through several existential
        // bindings under one key.
        for j in 0..rng.gen_range(0..3) {
            let x = person(rng.gen_range(0..PEOPLE));
            for k in 0..rng.gen_range(2..4) {
                let hub = Term::blank(format!("rep{f}_{j}_{k}"));
                add(film(f), "starring", hub.clone());
                add(hub, "artist", x.clone());
            }
        }
    }
    for x in 0..PEOPLE {
        if rng.gen_bool(0.7) {
            add(
                person(x),
                "age",
                Term::literal(format!("{}", 20 + rng.gen_range(0..4))),
            );
        }
        if rng.gen_bool(0.5) {
            add(person(x), "knows", person(x));
        }
        add(person(x), "knows", person(rng.gen_range(0..PEOPLE)));
    }
    // Filler up to 830 triples in all: six tail flushes, which the
    // size tiering leaves as two runs, under a tail.
    for i in 0..830usize.saturating_sub(out.len()) {
        let (s, o) = (iri(&format!("fill{i}")), iri(&format!("fill{}", i / 2)));
        out.push(Triple::new(s, iri("filler"), o).unwrap());
    }
    // Fisher–Yates: catalogue triples land in every run and in the tail.
    for i in (1..out.len()).rev() {
        out.swap(i, rng.gen_range(0..i + 1));
    }
    out
}

/// The same triples three ways: unsealed sorted runs with tombstones,
/// that graph sealed, and the B-tree oracle.
fn build(triples: &[Triple], rng: &mut SeededRng) -> (Graph, Graph, Graph) {
    let mut runs = Graph::new();
    let mut oracle = Graph::with_backend(StorageBackend::BTree);
    for t in triples {
        assert_eq!(runs.insert(t), oracle.insert(t));
    }
    // Tombstone a few catalogue triples and some filler.
    for t in triples
        .iter()
        .filter(|_| rng.gen_bool(0.04))
        .collect::<Vec<_>>()
    {
        assert_eq!(runs.remove(t), oracle.remove(t));
    }
    // One more flush-free insert keeps the tail non-empty.
    let last = Triple::new(iri("fill0"), iri("filler"), iri("tail")).unwrap();
    runs.insert(&last);
    oracle.insert(&last);
    let layout = runs.storage_stats();
    assert!(
        layout.runs >= 2 && layout.tail > 0 && layout.tombstones > 0,
        "the unsealed fixture must stack runs under a tail: {layout:?}"
    );
    let mut sealed = runs.clone();
    sealed.seal();
    let layout = sealed.storage_stats();
    assert!(layout.runs == 1 && layout.tail == 0 && layout.tombstones == 0);
    assert!(sealed.graph_stats().is_some() && runs.graph_stats().is_none());
    (runs, sealed, oracle)
}

/// Conjuncts as `"s p o"` words: `?name` is a variable, `F` / `P` a
/// random film / person constant drawn once per query, a quoted word a
/// literal, anything else an IRI.
const SHAPES: &[(&str, &[&str])] = &[
    (
        "hub self-join",
        &[
            "?f starring ?z1",
            "?z1 artist ?p",
            "?f starring ?z2",
            "?z2 artist ?q",
        ],
    ),
    (
        "hub self-join under a year",
        &[
            "?f year \"1901\"",
            "?f starring ?z1",
            "?z1 artist ?p",
            "?f starring ?z2",
            "?z2 artist ?q",
        ],
    ),
    ("star", &["?f year ?y", "?f starring ?z", "?f genre ?g"]),
    (
        "star with a hub arm",
        &[
            "?f genre ?g",
            "?f starring ?z",
            "?z artist ?p",
            "?f year ?y",
        ],
    ),
    ("chain", &["?f starring ?z", "?z artist ?x", "?x age ?a"]),
    ("cartesian product", &["?f year ?y", "?x age ?a"]),
    (
        "cartesian product of joins",
        &["?f starring ?z", "?z artist ?p", "?x knows ?w", "?w age ?a"],
    ),
    (
        "repeated variable inside the suffix",
        &[
            "?f starring ?z1",
            "?z1 artist ?p",
            "?f starring ?z2",
            "?z2 artist ?q",
            "?q knows ?q",
        ],
    ),
    (
        "constant shared by prefix and suffix",
        &[
            "?f starring ?z1",
            "?z1 artist P",
            "?f starring ?z2",
            "?z2 artist ?q",
            "?q knows P",
        ],
    ),
    (
        "film constant on both arms",
        &[
            "F starring ?z1",
            "?z1 artist ?p",
            "F starring ?z2",
            "?z2 artist ?q",
            "?p age ?a",
        ],
    ),
    (
        "star with existential arms",
        &[
            "?f starring ?z1",
            "?z1 artist ?p",
            "?f genre ?g",
            "?f starring ?z2",
            "?z2 artist ?q",
        ],
    ),
    (
        "star of a hub arm and an existential arm",
        &[
            "?f year ?y",
            "?f starring ?z1",
            "?z1 artist ?p",
            "?f genre ?g",
            "?f starring ?z2",
        ],
    ),
    (
        "variable predicate in the suffix",
        &["?f year ?y", "?f starring ?z", "?f ?r ?o"],
    ),
];

fn arb_query(rng: &mut SeededRng) -> (&'static str, GraphPatternQuery) {
    let (name, body) = SHAPES[rng.gen_range(0..SHAPES.len())];
    let (f, p) = (
        film(rng.gen_range(0..FILMS)),
        person(rng.gen_range(0..PEOPLE)),
    );
    // Now and then pin one variable to a constant everywhere it occurs.
    let pinned = match rng.gen_range(0..8) {
        0 => Some(("?f", f.clone())),
        1 => Some(("?p", p.clone())),
        2 => Some(("?q", p.clone())),
        _ => None,
    };
    let tv = |word: &str| match (word, pinned.as_ref()) {
        (w, Some((name, term))) if w == *name => TermOrVar::Term(term.clone()),
        ("F", _) => TermOrVar::Term(f.clone()),
        ("P", _) => TermOrVar::Term(p.clone()),
        (w, _) => match (w.strip_prefix('?'), w.strip_prefix('"')) {
            (Some(var), _) => TermOrVar::var(var),
            (_, Some(lit)) => TermOrVar::Term(Term::literal(lit.trim_end_matches('"'))),
            _ => TermOrVar::Term(iri(w)),
        },
    };
    let mut patterns: Vec<TriplePattern> = body
        .iter()
        .map(|conjunct| {
            let w: Vec<&str> = conjunct.split(' ').collect();
            TriplePattern::new(tv(w[0]), tv(w[1]), tv(w[2]))
        })
        .collect();
    // The written order breaks the planner's ties.
    for i in (1..patterns.len()).rev() {
        patterns.swap(i, rng.gen_range(0..i + 1));
    }
    let gp = GraphPattern::from_patterns(patterns);
    // A random head: any subset of the variables, hubs included, so
    // blanks are met in projected and in existential positions alike
    // and some suffixes project nothing.
    let head: Vec<Variable> = gp
        .vars()
        .into_iter()
        .filter(|_| rng.gen_bool(0.45))
        .collect();
    (name, GraphPatternQuery::new(head, gp))
}

fn to_terms(graph: &Graph, ids: &BTreeSet<Vec<rps_rdf::TermId>>) -> BTreeSet<Vec<Term>> {
    ids.iter()
        .map(|row| row.iter().map(|id| graph.term(*id).clone()).collect())
        .collect()
}

#[test]
fn memoised_plans_agree_with_the_plain_loop_on_every_layout() {
    let (mut memoised, mut plans, mut nonempty) = (0, 0, 0);
    for seed in seed_matrix("RPS_JOIN_SEED", &[0xC057, 0xA12, 7]) {
        let rng = &mut SeededRng::seed_from_u64(seed);
        for round in 0..6 {
            let triples = arb_triples(rng);
            let (unsealed, sealed, oracle) = build(&triples, rng);
            for case in 0..24 {
                let (shape, q) = arb_query(rng);
                for semantics in [Semantics::Certain, Semantics::Star] {
                    let reference = evaluate_query(&oracle, &q, semantics);
                    let pair = PreparedQueryIds::compile_heuristic(&oracle, &q);
                    assert_eq!(
                        to_terms(&oracle, &pair.evaluate(&oracle, semantics)),
                        reference,
                        "seed {seed} round {round} case {case} ({shape}) {semantics:?}: \
                         the oracle pair left the term-level evaluation\n{q:?}"
                    );
                    nonempty += usize::from(!reference.is_empty());
                    for (layout, graph) in [("sealed", &sealed), ("unsealed", &unsealed)] {
                        for (order, plan) in [
                            ("cost-based", PreparedQueryIds::compile_only(graph, &q)),
                            ("heuristic", PreparedQueryIds::compile_heuristic(graph, &q)),
                        ] {
                            plans += 1;
                            memoised += usize::from(plan.planned_memo().is_some());
                            let got = to_terms(graph, &plan.evaluate(graph, semantics));
                            assert_eq!(
                                got,
                                reference,
                                "seed {seed} round {round} case {case} ({shape}) {layout} \
                                 {order} {semantics:?}: order {:?}, memo {:?}\n{q:?}",
                                plan.planned_order(),
                                plan.planned_memo(),
                            );
                        }
                    }
                }
            }
        }
    }
    // The sweep is only worth its name if the memo engages and answers
    // are not trivially empty.
    assert!(
        memoised * 2 >= plans,
        "{memoised} of {plans} plans memoised"
    );
    // Four plans per reference: at least half the references non-empty.
    assert!(nonempty * 8 >= plans, "{nonempty} non-empty answers");
}

/// A memoised evaluation allocates for its largest sub-answer, not per
/// key: the suffix cache clears and refills its key and its row buffers
/// when the key changes. Films `0..n`, each starring one person through
/// a hub of its own, under the hub self-join (`costar`'s shape, keyed on
/// the film): `n` keys, one answer row — and as many allocations for 200
/// keys as for 20 (two more per key while each key took a fresh buffer
/// of each kind).
#[test]
fn a_memoised_evaluation_allocates_alike_for_any_number_of_keys() {
    let allocs = |films: usize| {
        let mut graph = Graph::new();
        for f in 0..films {
            let hub = Term::blank(format!("hub{f}"));
            for (s, p, o) in [
                (film(f), "starring", hub.clone()),
                (hub, "artist", iri("star")),
            ] {
                let triple = Triple::new(s, iri(p), o);
                graph.insert(&triple.unwrap_or_else(|e| panic!("{e}")));
            }
        }
        graph.seal();
        let v = |n: &str| TermOrVar::var(n);
        let t = |s, p: &str, o| TriplePattern::new(v(s), TermOrVar::Term(iri(p)), v(o));
        let query = GraphPatternQuery::new(
            vec![Variable::new("p"), Variable::new("q")],
            GraphPattern::from_patterns(vec![
                t("f", "starring", "z1"),
                t("z1", "artist", "p"),
                t("f", "starring", "z2"),
                t("z2", "artist", "q"),
            ]),
        );
        let plan = PreparedQueryIds::compile_only(&graph, &query);
        assert!(
            plan.planned_memo().is_some(),
            "{films} films: a memoised plan"
        );
        let evaluate = || plan.evaluate_rows(&graph, Semantics::Certain).len();
        assert_eq!(evaluate(), 1, "{films} films");
        let before = ALLOCS.with(Cell::get);
        assert_eq!(evaluate(), 1, "{films} films");
        ALLOCS.with(Cell::get) - before
    };
    let (few, many) = (allocs(20), allocs(200));
    assert_eq!(few, many, "20 keys made {few} allocations, 200 made {many}");
}
