//! SPARQL syntax corpus: every valid query in the corpus parses,
//! lowers and executes on a real session, and a seeded mutation sweep
//! (`RPS_SPARQL_SEED`, comma-separated u64 seeds) hammers the parser
//! with corrupted variants — each must yield either `Ok` or a typed
//! [`rps_query::SparqlError`] whose span lies within the input. The
//! parser must never panic, whatever bytes it is fed.

use rps_core::{
    canonical_plan_key, EngineConfig, FrozenSession, PeerId, RpsBuilder, Session, SparqlResult,
};
use rps_lodgen::seed_matrix;
use rps_query::{parse_sparql, GraphPatternQuery, TermOrVar};
use rps_rdf::{PrefixMap, Term};
use std::collections::HashMap;

mod corpus;
use corpus::CORPUS;

fn session() -> FrozenSession {
    let mut p = PeerId(0);
    let system = RpsBuilder::new()
        .peer_turtle(
            "C",
            "<http://c/s1> <http://c/p> \"v1\" .\n\
             <http://c/s2> <http://c/p> <http://c/o1> .\n\
             <http://c/o1> <http://c/q> \"5\" .\n\
             <http://c/s3> <http://c/q> \"x\" .\n\
             <http://c/s1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://c/T> .",
            &mut p,
        )
        .unwrap()
        .build();
    Session::open(system, EngineConfig::default())
        .and_then(Session::freeze)
        .unwrap()
}

#[test]
fn corpus_parses_lowers_and_executes() {
    let session = session();
    for (i, text) in CORPUS.iter().enumerate() {
        let parsed = parse_sparql(text, &PrefixMap::common())
            .unwrap_or_else(|e| panic!("corpus[{i}] failed to parse: {e}\n{text}"));
        let lowered = parsed.lower();
        assert!(
            !lowered.queries().is_empty(),
            "corpus[{i}] lowered to zero CQs"
        );
        let result = session
            .answer_sparql(text)
            .unwrap_or_else(|e| panic!("corpus[{i}] failed to execute: {e}\n{text}"));
        match result {
            SparqlResult::Rows(rows) => {
                for row in &rows.rows {
                    assert_eq!(row.len(), rows.vars.len(), "corpus[{i}] ragged row");
                }
            }
            SparqlResult::Boolean(_) => {}
        }
    }
}

/// The plan-cache key by its definition, written the plain way (a map
/// from name to slot): variables numbered by first occurrence, head
/// first, constants kind-tagged.
fn reference_plan_key(query: &GraphPatternQuery) -> String {
    let mut slots: HashMap<String, usize> = HashMap::new();
    let mut slot = |name: &str| {
        let next = slots.len();
        format!("#{} ", slots.entry(name.to_string()).or_insert(next))
    };
    let mut key: String = query.free_vars().iter().map(|v| slot(v.name())).collect();
    key.push('|');
    for tp in query.pattern().patterns() {
        for tv in [&tp.s, &tp.p, &tp.o] {
            key += &match tv {
                TermOrVar::Var(v) => slot(v.name()),
                TermOrVar::Term(Term::Iri(i)) => format!("I<{i}> "),
                TermOrVar::Term(Term::Literal(l)) => format!("L<{l}> "),
                TermOrVar::Term(Term::Blank(b)) => format!("B<{b}> "),
            };
        }
        key.push('.');
    }
    key
}

/// The key bytes are a contract (the benchmark's live reader tells hits
/// from misses by them): every CQ the corpus lowers to keys exactly as
/// the definition says, and one is pinned literally.
#[test]
fn plan_keys_of_the_corpus_are_pinned() {
    let mut cqs = 0;
    for text in CORPUS {
        let lowered = parse_sparql(text, &PrefixMap::common()).unwrap().lower();
        for cq in lowered.queries() {
            assert_eq!(canonical_plan_key(cq), reference_plan_key(cq), "{text}");
            cqs += 1;
        }
    }
    assert!(
        cqs > CORPUS.len(),
        "OPTIONAL and UNION lower to several CQs"
    );
    let lowered = parse_sparql(CORPUS[2], &PrefixMap::common())
        .unwrap()
        .lower();
    assert_eq!(
        canonical_plan_key(lowered.queries()[0]),
        "#0 |#0 I<<http://c/p>> #1 .#1 I<<http://c/q>> #2 ."
    );
}

/// Malformed queries that must produce a typed error with an in-bounds
/// span — not a panic, and not a silent `Ok`. Each error is pinned
/// exactly — message, span, line, column — as the parser reported it
/// when it still lexed the whole text into owned tokens before parsing:
/// the borrowed, on-demand lexer and the token-moving parser change no
/// error. The one exception is the last entry, which that parser
/// accepted: its `<` opened an IRI across the `|` SPARQL's IRIREF
/// excludes.
#[test]
fn malformed_corpus_yields_spanned_errors() {
    type Pinned = (&'static str, &'static str, (usize, usize), usize, usize);
    const BAD: &[Pinned] = &[
        (
            "",
            "expected SELECT or ASK (found end of input)",
            (0, 0),
            1,
            1,
        ),
        (
            "SELECT",
            "SELECT needs a variable list or '*' (found end of input)",
            (6, 6),
            1,
            1,
        ),
        (
            "SELECT ?x",
            "expected '{' to open the graph pattern (found end of input)",
            (9, 9),
            1,
            8,
        ),
        (
            "SELECT ?x WHERE",
            "expected '{' to open the graph pattern (found end of input)",
            (15, 15),
            1,
            11,
        ),
        (
            "SELECT ?x WHERE {",
            "expected '}' to close the graph pattern (found end of input)",
            (17, 17),
            1,
            17,
        ),
        (
            "SELECT ?x WHERE { ?x }",
            "expected a predicate",
            (21, 22),
            1,
            22,
        ),
        (
            "SELECT ?x WHERE { ?x <http://c/p> }",
            "expected an object",
            (34, 35),
            1,
            35,
        ),
        (
            "SELECT ?x WHERE { ?x <http://c/p ?y }",
            "unexpected character '/'",
            (27, 28),
            1,
            28,
        ),
        (
            "SELECT ?x WHERE { ?x c:p ?y }",
            "unknown prefix in \"c:p\"",
            (21, 24),
            1,
            22,
        ),
        (
            "SELECT ?x WHERE { ?x <http://c/p> ?y } ORDER BY ?z",
            "ORDER BY variable ?z must appear in the SELECT list (found end of input)",
            (50, 50),
            1,
            49,
        ),
        (
            "SELECT ?x WHERE { ?x <http://c/p> ?y } LIMIT ?x",
            "expected a non-negative integer after LIMIT",
            (45, 47),
            1,
            46,
        ),
        (
            "SELECT ?x WHERE { OPTIONAL { ?x <http://c/p> ?y } }",
            "the graph pattern needs at least one triple (OPTIONAL and FILTER cannot stand alone) (found end of input)",
            (51, 51),
            1,
            51,
        ),
        (
            "SELECT ?x WHERE { ?x <http://c/p> ?y FILTER() }",
            "expected a comparison operand",
            (44, 45),
            1,
            45,
        ),
        (
            "SELECT ?x WHERE { ?x <http://c/p> ?y FILTER(?y =) }",
            "expected a comparison operand",
            (48, 49),
            1,
            49,
        ),
        (
            "ASK { ?x <http://c/p> ?y } ORDER BY ?x",
            "ASK queries take no ORDER BY (found end of input)",
            (38, 38),
            1,
            37,
        ),
        (
            "CONSTRUCT { ?x <http://c/p> ?y } WHERE { ?x <http://c/p> ?y }",
            "unknown keyword or bare name \"CONSTRUCT\"",
            (0, 9),
            1,
            1,
        ),
        (
            "SELECT ?x WHERE { ?x <http://c/p> ?y } trailing garbage",
            "unknown keyword or bare name \"trailing\"",
            (39, 47),
            1,
            40,
        ),
        (
            "SELECT ?x WHERE { { ?x <http://c/p> ?y } UNION { OPTIONAL { ?x ?p ?y } } }",
            "OPTIONAL cannot nest inside an UNION alternative block",
            (49, 57),
            1,
            50,
        ),
        // What the deleted legacy parser rejected and nothing above covers.
        (
            "SELECT ? WHERE { ?x <http://c/p> ?y }",
            "empty variable name",
            (7, 8),
            1,
            8,
        ),
        (
            "SELECT WHERE { ?x <http://c/p> ?y }",
            "SELECT needs a variable list or '*'",
            (7, 12),
            1,
            8,
        ),
        (
            "SELECT ?x WHERE { ?x <http://c/p> \"bad \\q escape\" }",
            "unsupported escape \\q",
            (34, 41),
            1,
            35,
        ),
        (
            "SELECT ?x WHERE { ?x <http://c/p> \"unterminated }",
            "unterminated string literal",
            (34, 49),
            1,
            35,
        ),
        (
            "SELECT ?x WHERE { ?x <http://c/p> \"v\"@ }",
            "empty language tag",
            (34, 38),
            1,
            35,
        ),
        (
            "SELECT ?x WHERE { ?x <http://c/p> \"v\"^<http://c/t> }",
            "expected '^^' before datatype",
            (34, 39),
            1,
            35,
        ),
        (
            "SELECT ?x WHERE { ?x <http://c/p> \"v\"^^<http://c/t }",
            "unterminated datatype IRI",
            (34, 52),
            1,
            35,
        ),
        (
            "SELECT ?x WHERE { ?x <http://c/p> ?y % }",
            "unexpected character '%'",
            (37, 38),
            1,
            38,
        ),
        (
            "SELECT ?x WHERE { ?x <http://c/p> ?y ?x <http://c/q> ?z }",
            "expected '.', ';' or ',' between triples",
            (37, 39),
            1,
            38,
        ),
        (
            "PREFIX SELECT ?x WHERE { ?x <http://c/p> ?y }",
            "expected a prefix name after PREFIX",
            (14, 16),
            1,
            15,
        ),
        (
            "PREFIX c <http://c/> SELECT ?x WHERE { ?x c:p ?y }",
            "unknown keyword or bare name \"c\"",
            (7, 8),
            1,
            8,
        ),
        (
            "PREFIX c: SELECT ?x WHERE { ?x c:p ?y }",
            "expected a namespace IRI after the prefix",
            (17, 19),
            1,
            18,
        ),
        (
            "ASK { { ?x <http://c/p> ?y } UNION { ?x <http://c/q> ?y }",
            "expected '}' to close the graph pattern (found end of input)",
            (57, 57),
            1,
            57,
        ),
        (
            "SELECT ?x WHERE { ?x <http://c/p|x> ?y }",
            "unexpected character '/'",
            (27, 28),
            1,
            28,
        ),
    ];
    for (i, &(text, message, span, line, col)) in BAD.iter().enumerate() {
        match parse_sparql(text, &PrefixMap::common()) {
            Ok(_) => panic!("bad[{i}] unexpectedly parsed:\n{text}"),
            Err(e) => {
                assert!(e.span.0 <= e.span.1, "bad[{i}] inverted span");
                assert!(e.span.1 <= text.len(), "bad[{i}] span out of bounds");
                assert_eq!(
                    (e.message.as_str(), e.span, e.line, e.col),
                    (message, span, line, col),
                    "bad[{i}]: {text}"
                );
            }
        }
    }
}

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
}

/// One random corruption of `text`: delete a byte, truncate, inject a
/// metacharacter, duplicate a span, or swap two whitespace-separated
/// tokens. Mutants may remain valid (e.g. swapping two triple
/// patterns); the invariant under test is *no panic, spans in bounds*.
fn mutate(text: &str, rng: &mut Rng) -> String {
    let bytes = text.as_bytes();
    match rng.below(5) {
        0 if !bytes.is_empty() => {
            // Delete one byte (may split a UTF-8 sequence in ASCII-only
            // corpus text it never does, so stay on a char boundary).
            let mut at = rng.below(bytes.len());
            while !text.is_char_boundary(at) {
                at -= 1;
            }
            let mut s = String::with_capacity(text.len());
            s.push_str(&text[..at]);
            s.push_str(&text[at + 1..]);
            s
        }
        1 if !bytes.is_empty() => {
            let mut at = rng.below(bytes.len());
            while !text.is_char_boundary(at) {
                at -= 1;
            }
            text[..at].to_string()
        }
        2 => {
            const META: &[&str] = &["{", "}", "(", ")", "<", ">", "?", "\"", ".", "FILTER"];
            let mut at = rng.below(bytes.len() + 1);
            while at < text.len() && !text.is_char_boundary(at) {
                at -= 1;
            }
            let mut s = String::with_capacity(text.len() + 8);
            s.push_str(&text[..at]);
            s.push_str(META[rng.below(META.len())]);
            s.push_str(&text[at..]);
            s
        }
        3 if bytes.len() > 4 => {
            let mut lo = rng.below(bytes.len());
            while !text.is_char_boundary(lo) {
                lo -= 1;
            }
            let mut hi = lo + 1 + rng.below(bytes.len() - lo);
            while hi < text.len() && !text.is_char_boundary(hi) {
                hi += 1;
            }
            let hi = hi.min(text.len());
            let mut s = String::with_capacity(text.len() * 2);
            s.push_str(&text[..hi]);
            s.push_str(&text[lo..hi]);
            s.push_str(&text[hi..]);
            s
        }
        _ => {
            let mut toks: Vec<&str> = text.split_whitespace().collect();
            if toks.len() >= 2 {
                let a = rng.below(toks.len());
                let b = rng.below(toks.len());
                toks.swap(a, b);
            }
            toks.join(" ")
        }
    }
}

#[test]
fn seeded_mutation_sweep_never_panics() {
    for seed in seed_matrix("RPS_SPARQL_SEED", &[0xEDB7, 0xD1CE]) {
        let mut rng = Rng(seed);
        let mut parsed = 0usize;
        let mut rejected = 0usize;
        for round in 0..400 {
            let base = CORPUS[rng.below(CORPUS.len())];
            let mut mutant = base.to_string();
            for _ in 0..=rng.below(3) {
                mutant = mutate(&mutant, &mut rng);
            }
            match parse_sparql(&mutant, &PrefixMap::common()) {
                Ok(query) => {
                    // Lowering is infallible on anything that parses.
                    let lowered = query.lower();
                    assert!(
                        lowered.is_ask() || !lowered.columns().is_empty(),
                        "seed {seed} round {round}: SELECT lowered to no columns\n{mutant}"
                    );
                    parsed += 1;
                }
                Err(e) => {
                    assert!(
                        e.span.0 <= e.span.1 && e.span.1 <= mutant.len(),
                        "seed {seed} round {round}: span {:?} out of bounds for \
                         len {}\n{mutant}",
                        e.span,
                        mutant.len()
                    );
                    assert!(e.line >= 1 && e.col >= 1);
                    rejected += 1;
                }
            }
        }
        // The sweep must exercise both outcomes, otherwise the mutator
        // is too aggressive (or not aggressive enough) to mean much.
        assert!(parsed > 0, "seed {seed}: no mutant parsed");
        assert!(rejected > 0, "seed {seed}: no mutant rejected");
    }
}
