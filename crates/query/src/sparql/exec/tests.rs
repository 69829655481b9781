//! The id-level tail against the term-level [`reference`]: pinned
//! cases for the semantics that are easy to lose on ids, and a seeded
//! differential sweep (`RPS_SPARQL_SEED`, comma-separated u64 seeds)
//! over random graphs × the SPARQL corpus plus generated queries.
//!
//! Every check runs one query three ways and wants one `SparqlResult`:
//! the reference over term-level CQ answers, the tail on the graph's
//! own ids ([`LoweredSparql::evaluate`]) and the tail through the
//! interning adapter ([`LoweredSparql::assemble`]).

use super::{assemble, assemble_interned, is_identity, reference};
use crate::eval::{evaluate_query, Semantics};
use crate::sparql::{parse_sparql, LoweredSparql, Rows, SparqlResult};
use rps_rdf::{Graph, PrefixMap, Term};
use std::collections::BTreeSet;

fn prefixes() -> PrefixMap {
    let mut m = PrefixMap::common();
    m.insert("c", "http://c/");
    m
}

fn lower(text: &str) -> LoweredSparql {
    parse_sparql(text, &prefixes())
        .unwrap_or_else(|e| panic!("{e}\n{text}"))
        .lower()
}

fn term_answers(
    lowered: &LoweredSparql,
    graph: &Graph,
    semantics: Semantics,
) -> Vec<BTreeSet<Vec<Term>>> {
    lowered
        .queries()
        .into_iter()
        .map(|cq| evaluate_query(graph, cq, semantics))
        .collect()
}

/// Runs `text` over `graph` the three ways and returns the one result.
fn agree(text: &str, graph: &Graph, semantics: Semantics) -> SparqlResult {
    let lowered = lower(text);
    let answers = term_answers(&lowered, graph, semantics);
    let want = reference::assemble(&lowered, &answers);
    assert_eq!(
        lowered.evaluate(graph, semantics),
        want,
        "ids of the graph ≠ reference\n{text}"
    );
    assert_eq!(
        lowered.assemble(&answers),
        want,
        "interned ids ≠ reference\n{text}"
    );
    want
}

fn turtle(body: &str) -> Graph {
    rps_rdf::turtle::parse(&format!("@prefix c: <http://c/> .\n{body}")).unwrap()
}

fn table(result: &SparqlResult) -> &Rows {
    &result.rows().expect("a SELECT result").rows
}

fn rows(result: &SparqlResult) -> Vec<Vec<Option<Term>>> {
    table(result).to_vecs()
}

fn iri(local: &str) -> Option<Term> {
    Some(Term::iri(format!("http://c/{local}")))
}

fn lit(s: &str) -> Option<Term> {
    Some(Term::literal(s))
}

#[test]
fn optional_variable_shared_by_two_optional_blocks() {
    // ?v is bound by whichever OPTIONAL matches first; the second block
    // must agree with a bound ?v and may fill an unbound one.
    let g = turtle(
        "c:a c:p c:o ; c:q \"1\" ; c:r \"1\" .\n\
         c:b c:p c:o ; c:q \"1\" ; c:r \"2\" .\n\
         c:d c:p c:o ; c:r \"3\" .\n\
         c:e c:p c:o .\n",
    );
    let r = agree(
        "SELECT ?x ?v WHERE { ?x c:p ?y OPTIONAL { ?x c:q ?v } OPTIONAL { ?x c:r ?v } }",
        &g,
        Semantics::Certain,
    );
    assert_eq!(
        rows(&r),
        [
            vec![iri("a"), lit("1")],
            vec![iri("b"), lit("1")],
            vec![iri("d"), lit("3")],
            vec![iri("e"), None],
        ]
    );
}

#[test]
fn union_branches_bind_different_projected_columns() {
    let g = turtle("c:a c:q \"n\" .\nc:b c:r c:k .\nc:a c:r c:k .\n");
    let r = agree(
        "SELECT ?x ?n ?k WHERE { { ?x c:q ?n } UNION { ?x c:r ?k } }",
        &g,
        Semantics::Certain,
    );
    // Unbound sorts first, column by column.
    assert_eq!(
        rows(&r),
        [
            vec![iri("a"), None, iri("k")],
            vec![iri("a"), lit("n"), None],
            vec![iri("b"), None, iri("k")],
        ]
    );
}

#[test]
fn filter_errors_on_unbound_variables_through_not_and_or() {
    let g = turtle("c:a c:age \"31\" .\nc:b c:age \"25\" .\nc:c c:age \"40\" ; c:nick \"cc\" .\n");
    let subjects = |filter: &str| -> Vec<Option<Term>> {
        let text = format!(
            "SELECT ?x WHERE {{ ?x c:age ?a OPTIONAL {{ ?x c:nick ?n }} FILTER({filter}) }}"
        );
        rows(&agree(&text, &g, Semantics::Certain))
            .iter()
            .map(|r| r[0].clone())
            .collect()
    };
    // ?n is unbound for a and b: `?n = "x"` is an error there.
    assert_eq!(subjects("!(?n = \"x\")"), [iri("c")], "!error = error");
    assert_eq!(
        subjects("!(?n = \"x\") || ?a > \"30\""),
        [iri("a"), iri("c")],
        "error || true = true, error || false = error"
    );
    assert_eq!(
        subjects("!(?n = \"x\" && ?a > \"30\")"),
        [iri("b"), iri("c")],
        "error && false = false, error && true = error"
    );
    assert_eq!(subjects("!bound(?n)"), [iri("a"), iri("b")]);
    assert!(subjects("?n < c:a").is_empty(), "ordering on an IRI");
}

#[test]
fn numeric_equality_holds_across_distinct_ids() {
    let g = turtle("c:a c:age \"31\" .\nc:b c:age \"31.0\" .\nc:c c:age \"32\" .\n");
    let r = agree(
        "SELECT ?x ?y WHERE { ?x c:age ?a . ?y c:age ?b FILTER(?a = ?b) }",
        &g,
        Semantics::Certain,
    );
    // a and b pair up both ways although "31" and "31.0" are two terms.
    assert_eq!(rows(&r).len(), 5);
    let r = agree(
        "SELECT ?x WHERE { ?x c:age ?a FILTER(?a = \"31.00\" && ?a != \"32\") }",
        &g,
        Semantics::Certain,
    );
    assert_eq!(rows(&r), [vec![iri("a")], vec![iri("b")]]);
}

#[test]
fn order_by_ties_fall_to_term_order_then_the_whole_row() {
    let g = turtle(
        "c:a c:age \"31\" .\nc:b c:age \"31.0\" .\nc:c c:age \"31\" .\nc:d c:age \"4\" .\n\
         c:e c:age \"old\" .\n",
    );
    let r = agree(
        "SELECT ?x ?a WHERE { ?x c:age ?a } ORDER BY DESC(?a)",
        &g,
        Semantics::Certain,
    );
    assert_eq!(
        rows(&r),
        [
            vec![iri("e"), lit("old")],
            // 31 = 31.0 numerically: "31.0" > "31" as terms; the two
            // "31" rows tie on the key and fall to the row, ascending.
            vec![iri("b"), lit("31.0")],
            vec![iri("a"), lit("31")],
            vec![iri("c"), lit("31")],
            vec![iri("d"), lit("4")],
        ]
    );
}

/// ORDER BY over a column mixing numerics with digit-leading
/// non-numerics (`123`, `45x`, `7.5`): numerics come in numeric order,
/// every other literal after them in term order — on graphs where a
/// comparator that is not a total order made the sort panic.
#[test]
fn order_by_a_column_mixing_numerics_and_other_literals() {
    for seed in 0..20u64 {
        let mut rng = Rng(seed);
        let mut body = String::new();
        for i in 0..200 {
            let n = rng.below(1000);
            let o = match rng.below(3) {
                0 => format!("{n}"),
                1 => format!("{n}x"),
                _ => format!("{n}.5"),
            };
            body.push_str(&format!("c:s{i} c:p \"{o}\" .\n"));
        }
        let g = turtle(&body);
        for (text, desc) in [
            ("SELECT ?s ?o WHERE { ?s c:p ?o } ORDER BY ?o", false),
            (
                "SELECT ?s ?o WHERE { ?s c:p ?o } ORDER BY DESC(?o) LIMIT 30",
                true,
            ),
        ] {
            let r = agree(text, &g, Semantics::Certain);
            let mut col: Vec<(bool, f64, String)> = rows(&r)
                .iter()
                .filter_map(|row| match &row[1] {
                    Some(Term::Literal(l)) => {
                        let v = l.lexical().parse::<f64>().ok();
                        Some((v.is_none(), v.unwrap_or(0.0), l.lexical().to_string()))
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(col.len(), rows(&r).len(), "seed {seed}: {text}");
            if desc {
                col.reverse();
            }
            let sorted = col
                .windows(2)
                .all(|w| (w[0].0, w[0].1, &w[0].2) <= (w[1].0, w[1].1, &w[1].2));
            assert!(sorted, "seed {seed}: {text}");
        }
    }
}

#[test]
fn offset_past_the_end_is_empty_with_columns() {
    let g = turtle("c:a c:p c:o .\nc:b c:p c:o .\n");
    let r = agree(
        "SELECT ?x WHERE { ?x c:p ?y } ORDER BY ?x LIMIT 5 OFFSET 7",
        &g,
        Semantics::Certain,
    );
    assert!(rows(&r).is_empty());
    assert_eq!(r.rows().unwrap().vars, ["x"]);
    assert_eq!(table(&r).width(), 1);
}

/// A result table at its edges, on every way into the tail: width 0
/// (`SELECT *` of a pattern with no variable) holds one empty row when
/// the pattern matches and none otherwise; `LIMIT 0` and an `OFFSET`
/// past the end keep their width and hold no row.
#[test]
fn result_tables_at_their_edges() {
    let g = turtle("c:a c:p c:o .\nc:b c:p c:o .\n");
    let shape = |text: &str| -> (usize, usize, Vec<usize>) {
        let result = agree(text, &g, Semantics::Certain);
        let table = table(&result);
        (
            table.width(),
            table.len(),
            table.iter().map(<[_]>::len).collect(),
        )
    };
    for (text, want) in [
        ("SELECT * WHERE { c:a c:p c:o }", (0, 1, vec![0])),
        ("SELECT * WHERE { c:a c:p c:nope }", (0, 0, vec![])),
        ("SELECT * WHERE { c:a c:p c:o } OFFSET 0", (0, 1, vec![0])),
        ("SELECT * WHERE { c:a c:p c:o } OFFSET 1", (0, 0, vec![])),
        ("SELECT ?x WHERE { ?x c:p ?o } LIMIT 0", (1, 0, vec![])),
        (
            "SELECT ?x ?o WHERE { ?x c:p ?o } ORDER BY ?x LIMIT 0",
            (2, 0, vec![]),
        ),
        ("SELECT ?x ?o WHERE { ?x c:p ?o } OFFSET 2", (2, 0, vec![])),
        ("SELECT ?x ?o WHERE { ?x c:p ?o } OFFSET 1", (2, 1, vec![2])),
    ] {
        assert_eq!(shape(text), want, "{text}");
    }
}

/// A table's rows read the same through `Index`, `iter` and
/// `&table`, and hold `width × len` cells in all.
#[test]
fn result_table_index_and_iter_agree() {
    let g = turtle("c:a c:p c:o ; c:q \"1\" .\nc:b c:p c:o .\nc:c c:p c:b .\n");
    let result = agree(
        "SELECT ?x ?o ?v WHERE { ?x c:p ?o OPTIONAL { ?x c:q ?v } }",
        &g,
        Semantics::Certain,
    );
    let table = table(&result);
    assert_eq!((table.width(), table.len()), (3, 3));
    assert_eq!(table.iter().len(), table.len());
    for (i, row) in table.iter().enumerate() {
        assert_eq!(row, &table[i]);
        assert_eq!(row.len(), table.width());
    }
    assert!(table.iter().eq(table));
    assert_eq!(table.iter().flatten().filter(|c| c.is_none()).count(), 2);
}

#[test]
#[should_panic(expected = "row 3 of 3")]
fn result_table_index_past_the_end_panics() {
    let g = turtle("c:a c:p c:o .\nc:b c:p c:o .\nc:c c:p c:o .\n");
    let result = agree("SELECT ?x WHERE { ?x c:p ?o }", &g, Semantics::Certain);
    let _ = &table(&result)[3];
}

#[test]
fn ask_over_optional_filter_and_union() {
    let g = turtle("c:a c:p c:o ; c:q \"1\" .\n");
    for (text, want) in [
        (
            "ASK { ?x c:p ?y OPTIONAL { ?x c:q ?v } FILTER(bound(?v)) }",
            true,
        ),
        (
            "ASK { ?x c:p ?y OPTIONAL { ?x c:r ?v } FILTER(bound(?v)) }",
            false,
        ),
        ("ASK { { ?x c:r ?y } UNION { ?x c:q \"1\" } }", true),
        ("ASK { c:a c:p c:o }", true),
        ("ASK { c:a c:p c:nope }", false),
    ] {
        assert_eq!(
            agree(text, &g, Semantics::Certain).boolean(),
            Some(want),
            "{text}"
        );
    }
}

#[test]
fn answers_from_several_dictionaries_enter_through_the_adapter() {
    // The same triples interned in two orders: the two graphs disagree
    // on every id, as two peers' stores would. Taking the base CQ's
    // answers from one and the OPTIONAL's from the other only works
    // through terms.
    let lines = [
        "c:a c:p c:o .",
        "c:b c:p c:o .",
        "c:a c:q \"7\" .",
        "c:o c:q \"8\" .",
    ];
    let forward = turtle(&lines.join("\n"));
    let mut reversed = lines;
    reversed.reverse();
    let backward = turtle(&reversed.join("\n"));
    let text = "SELECT ?x ?v WHERE { ?x c:p ?y OPTIONAL { ?x c:q ?v } } ORDER BY DESC(?v)";
    let lowered = lower(text);
    let mut answers = term_answers(&lowered, &forward, Semantics::Certain);
    answers[1] = term_answers(&lowered, &backward, Semantics::Certain).remove(1);
    let want = agree(text, &forward, Semantics::Certain);
    assert_eq!(lowered.assemble(&answers), want);
    assert_eq!(
        rows(&want),
        [vec![iri("a"), lit("7")], vec![iri("b"), None]]
    );
}

#[test]
fn identity_statements_pass_their_set_through_like_the_interning_path() {
    let g = turtle(
        "c:a c:p c:o ; c:q \"1\" .\nc:b c:p c:o2 , _:x .\n_:x c:p c:a .\nc:c c:q \"2\" , \"10\" .\n",
    );
    for (text, identity) in [
        ("SELECT ?o ?x WHERE { ?x c:p ?o }", true),
        ("SELECT ?o ?x WHERE { ?x c:p ?o } LIMIT 2", true),
        ("SELECT ?v WHERE { ?x c:q ?v } LIMIT 0", true),
        ("SELECT * WHERE { ?a c:p ?b . ?b c:p ?c }", true),
        ("SELECT DISTINCT ?x WHERE { ?x c:p ?o }", true),
        ("ASK { ?x c:p ?o }", true),
        ("ASK { c:a c:p c:nope }", true),
        // Near-misses: each needs something only the full tail does.
        ("SELECT ?x ?o WHERE { ?x c:p ?o }", false),
        ("SELECT ?o ?x ?w WHERE { ?x c:p ?o }", false),
        ("SELECT ?o ?x WHERE { ?x c:p ?o } OFFSET 1", false),
        ("SELECT ?o ?x WHERE { ?x c:p ?o } ORDER BY ?o", false),
        ("SELECT ?o ?x WHERE { ?x c:p ?o FILTER(?o != c:o) }", false),
        (
            "SELECT ?o ?x WHERE { ?x c:p ?o OPTIONAL { ?x c:q ?v } }",
            false,
        ),
        (
            "SELECT ?x WHERE { { ?x c:p ?o } UNION { ?x c:q ?o } }",
            false,
        ),
        ("ASK { ?x c:q ?v FILTER(?v > \"1\") }", false),
    ] {
        let lowered = lower(text);
        assert_eq!(is_identity(&lowered), identity, "{text}");
        for semantics in [Semantics::Certain, Semantics::Star] {
            let answers = term_answers(&lowered, &g, semantics);
            let want = agree(text, &g, semantics);
            // Equal results are equal tables: width, rows and cells.
            assert_eq!(assemble(&lowered, &answers), want, "{text}");
            assert_eq!(assemble_interned(&lowered, &answers), want, "{text}");
            if let Some(table) = want.rows() {
                assert_eq!(table.rows.width(), table.vars.len(), "{text}");
            }
        }
    }
}

/// `tests/sparql_corpus.rs`'s valid corpus (kept in step by hand: an
/// integration test's constant is not importable).
const CORPUS: &[&str] = &[
    "SELECT ?s ?o WHERE { ?s <http://c/p> ?o }",
    "SELECT * WHERE { ?s ?p ?o }",
    "SELECT DISTINCT ?s WHERE { ?s <http://c/p> ?o . ?o <http://c/q> ?z }",
    "PREFIX c: <http://c/> SELECT ?s WHERE { ?s c:p c:o1 }",
    "PREFIX c: <http://c/>\nBASE <http://c/>\nSELECT ?s WHERE { ?s c:p <o1> }",
    "SELECT ?s ?o WHERE { ?s <http://c/p> ?o OPTIONAL { ?o <http://c/q> ?z } }",
    "SELECT ?s ?z WHERE { ?s <http://c/p> ?o \
     OPTIONAL { ?o <http://c/q> ?z FILTER(?z != \"x\") } }",
    "SELECT ?s WHERE { { ?s <http://c/p> ?o } UNION { ?s <http://c/q> ?o } }",
    "SELECT ?s WHERE { ?s <http://c/p> ?o FILTER(?o = \"v1\") }",
    "SELECT ?s WHERE { ?s <http://c/p> ?o FILTER(?o > \"1\" && ?o < \"9\") }",
    "SELECT ?s ?o WHERE { ?s <http://c/p> ?o FILTER(!bound(?missing)) \
     OPTIONAL { ?o <http://c/q> ?missing } }",
    "SELECT ?s ?o WHERE { ?s <http://c/p> ?o } ORDER BY ?o LIMIT 5",
    "SELECT ?s ?o WHERE { ?s <http://c/p> ?o } ORDER BY DESC(?s) ASC(?o) \
     LIMIT 3 OFFSET 1",
    "SELECT ?s ?o WHERE { ?s <http://c/p> ?o } OFFSET 2 LIMIT 2",
    "SELECT REDUCED ?s WHERE { ?s <http://c/p> ?o }",
    "ASK { ?s <http://c/p> ?o }",
    "ASK { <http://c/s1> <http://c/p> ?o }",
    "ASK { { ?s <http://c/p> ?o } UNION { ?s <http://no/p> ?o } }",
    "ASK { ?s <http://c/p> ?o FILTER(?o != \"nope\") }",
    "SELECT ?s ?o ?z WHERE {\n  ?s <http://c/p> ?o .\n  \
     OPTIONAL { ?o <http://c/q> ?z }\n  FILTER(bound(?s))\n} ORDER BY ?s ?o",
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n\
     SELECT ?s WHERE { ?s rdf:type <http://c/T> }",
    "SELECT ?s WHERE { ?s a <http://c/T> }",
    "SELECT ?s WHERE { ?s <http://c/p> 42 }",
    "SELECT ?s WHERE { ?s <http://c/p> \"v\"@en }",
    "SELECT ?s WHERE { ?s <http://c/p> \"5\"^^<http://www.w3.org/2001/XMLSchema#integer> }",
];

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn pick<'a>(&mut self, of: &[&'a str]) -> &'a str {
        of[self.below(of.len())]
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

const PREDICATES: &[&str] = &["c:p", "c:q", "c:r", "a"];
const NODES: &[&str] = &[
    "c:s1", "c:s2", "c:s3", "c:o1", "c:o2", "c:T", "_:b1", "_:b2",
];
/// Literals of every ORDER BY class: numerics (plain, decimal, typed)
/// and, among the others, lexical forms that sort between numerics as
/// terms — `"5x"`, `"45x"`, `"-x"`, `"5"@en` — where comparing by value
/// when both sides are numeric and by term otherwise would not be
/// transitive.
const LITERALS: &[&str] = &[
    "\"1\"",
    "\"5\"",
    "\"5.0\"",
    "\"7.5\"",
    "\"9\"",
    "\"10\"",
    "\"31\"",
    "\"31.0\"",
    "\"123\"",
    "42",
    "\"5x\"",
    "\"45x\"",
    "\"-x\"",
    "\"v1\"",
    "\"x\"",
    "\"v\"@en",
    "\"5\"@en",
    "\"5\"^^<http://www.w3.org/2001/XMLSchema#integer>",
];
const VARS: &[&str] = &["?s", "?o", "?z", "?w"];

fn random_graph(rng: &mut Rng) -> Graph {
    let mut body = String::new();
    for _ in 0..8 + rng.below(40) {
        let s = rng.pick(NODES);
        let p = rng.pick(PREDICATES);
        let o = if p == "a" {
            "c:T"
        } else if rng.chance(50) {
            rng.pick(NODES)
        } else {
            rng.pick(LITERALS)
        };
        body.push_str(&format!("{s} {p} {o} .\n"));
    }
    turtle(&body)
}

fn random_filter(rng: &mut Rng, depth: usize) -> String {
    let var = |rng: &mut Rng| rng.pick(VARS).to_string();
    match rng.below(if depth == 0 { 3 } else { 6 }) {
        0 => format!("bound({})", var(rng)),
        1 => {
            let op = rng.pick(&["=", "!=", "<", "<=", ">", ">="]);
            let rhs = if rng.chance(30) {
                var(rng)
            } else if rng.chance(20) {
                rng.pick(NODES[..6].as_ref()).to_string()
            } else {
                rng.pick(LITERALS).to_string()
            };
            format!("{} {op} {rhs}", var(rng))
        }
        2 => format!("!bound({})", var(rng)),
        3 => format!("!({})", random_filter(rng, depth - 1)),
        4 => format!(
            "({} && {})",
            random_filter(rng, depth - 1),
            random_filter(rng, depth - 1)
        ),
        _ => format!(
            "({} || {})",
            random_filter(rng, depth - 1),
            random_filter(rng, depth - 1)
        ),
    }
}

fn random_triple(rng: &mut Rng, subject: &str) -> String {
    let o = if rng.chance(75) {
        rng.pick(VARS)
    } else if rng.chance(50) {
        rng.pick(LITERALS)
    } else {
        rng.pick(&NODES[..6])
    };
    format!("{subject} {} {o}", rng.pick(PREDICATES))
}

/// A random query of the subset: a base BGP, UNION blocks, OPTIONALs
/// over a small variable pool (so blocks share variables with the base
/// and with each other), filters at every level, and the modifiers.
fn random_query(rng: &mut Rng) -> String {
    let mut group = random_triple(rng, "?s");
    if rng.chance(40) {
        group.push_str(&format!(" . {}", random_triple(rng, "?o")));
    }
    if rng.chance(35) {
        let alts: Vec<String> = (0..2 + rng.below(2))
            .map(|_| {
                let subject = rng.pick(VARS);
                let mut alt = random_triple(rng, subject);
                if rng.chance(25) {
                    alt.push_str(&format!(" FILTER({})", random_filter(rng, 1)));
                }
                format!("{{ {alt} }}")
            })
            .collect();
        group.push_str(&format!(" {}", alts.join(" UNION ")));
    }
    for _ in 0..rng.below(3) {
        let subject = rng.pick(VARS);
        let mut opt = random_triple(rng, subject);
        if rng.chance(30) {
            opt.push_str(&format!(" FILTER({})", random_filter(rng, 1)));
        }
        group.push_str(&format!(" OPTIONAL {{ {opt} }}"));
    }
    for _ in 0..rng.below(3) {
        group.push_str(&format!(" FILTER({})", random_filter(rng, 2)));
    }
    if rng.chance(15) {
        return format!("ASK {{ {group} }}");
    }
    let projected: Vec<&str> = VARS.iter().copied().filter(|_| rng.chance(60)).collect();
    let (select, sortable) = if projected.is_empty() {
        ("*".to_string(), vec!["?s"])
    } else {
        (projected.join(" "), projected)
    };
    let mut text = format!("SELECT {select} WHERE {{ {group} }}");
    if rng.chance(50) {
        text.push_str(" ORDER BY");
        for _ in 0..1 + rng.below(2) {
            let key = rng.pick(&sortable);
            text.push_str(&if rng.chance(50) {
                format!(" DESC({key})")
            } else {
                format!(" {key}")
            });
        }
    }
    if rng.chance(30) {
        text.push_str(&format!(" LIMIT {}", rng.below(6)));
    }
    if rng.chance(20) {
        text.push_str(&format!(" OFFSET {}", rng.below(4)));
    }
    text
}

fn seeds() -> Vec<u64> {
    match std::env::var("RPS_SPARQL_SEED") {
        Ok(list) => list
            .split(',')
            .map(|tok| {
                tok.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("RPS_SPARQL_SEED: bad seed {tok:?} in {list:?}"))
            })
            .collect(),
        Err(_) => vec![0xEDB7, 0xD1CE],
    }
}

#[test]
fn seeded_differential_sweep_against_the_reference() {
    for seed in seeds() {
        let mut rng = Rng(seed);
        let (mut nonempty, mut unbound) = (0usize, 0usize);
        for round in 0..60 {
            let graph = random_graph(&mut rng);
            let generated: Vec<String> = (0..20).map(|_| random_query(&mut rng)).collect();
            let texts = CORPUS
                .iter()
                .copied()
                .chain(generated.iter().map(String::as_str));
            for text in texts {
                let semantics = if rng.chance(25) {
                    Semantics::Star
                } else {
                    Semantics::Certain
                };
                let run = std::panic::AssertUnwindSafe(|| agree(text, &graph, semantics));
                let result = std::panic::catch_unwind(run)
                    .unwrap_or_else(|_| panic!("seed {seed} round {round}\n{text}"));
                if let Some(table) = result.rows() {
                    nonempty += usize::from(!table.rows.is_empty());
                    unbound += usize::from(table.rows.iter().flatten().any(Option::is_none));
                }
            }
        }
        // The sweep must reach the interesting part of the tail.
        assert!(nonempty > 500, "seed {seed}: {nonempty} non-empty results");
        assert!(
            unbound > 50,
            "seed {seed}: {unbound} results with unbound cells"
        );
    }
}
