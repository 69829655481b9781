//! The shape level of the statement front, differentially: a SPARQL
//! text of a seen shape is bound into the shape's template rather than
//! parsed and lowered, and must answer byte for byte as the full path —
//! parse, lower, one plan per CQ, the CQs' answers assembled by the
//! interning tail (`LoweredSparql::assemble`) — of a separately frozen
//! session does. Checked on the three fronted façades
//! (frozen `Materialise`, frozen `Rewrite`, `FrozenFederatedSession`)
//! over two systems: one whose mapping has an existential (the
//! materialised route serves the universal solution) and a full one
//! (it serves the equivalence quotient).
//!
//! The texts are every query of the valid corpus and the benchmark's
//! eight templates, each rendered again and again with fresh constants —
//! IRIs, prefixed names, lang-tagged, datatyped and numeric literals,
//! FILTER constants, members of an equivalence class and terms no graph
//! holds — and families that put equal or distinct constants in two
//! positions, the same token twice or two tokens that denote one term.
//! A text whose prefix is declared nowhere must fail as the full path
//! fails — the same typed error, the same span — and never be cached.
//! Seeded on `RPS_SPARQL_SEED` (comma-separated u64 seeds).

use rps_core::{
    AnswerStream, EngineConfig, FrozenSession, PeerId, PlanCacheStats, RdfPeerSystem, RpsBuilder,
    RpsError, Session, SparqlResult, Strategy,
};
use rps_lodgen::{seed_matrix, SeededRng};
use rps_p2p::{FederatedSession, FrozenFederatedSession};
use rps_query::sparql::SparqlShape;
use rps_query::{
    parse_sparql, GraphPattern, GraphPatternQuery, TermOrVar, TriplePattern, Variable,
};
use rps_rdf::PrefixMap;
use std::collections::{BTreeSet, HashMap, HashSet};

mod corpus;
use corpus::CORPUS;

const VOCAB: &str = "http://vocab.example.org/";
const PEOPLE_NS: &str = "http://people.example.org/person/";
const FILMS: usize = 12;
const PEOPLE: usize = 12;
/// Texts rendered per family: the first is parsed, the second makes
/// the shape's template, the rest are bound.
const RENDERS: usize = 6;

fn film(i: usize) -> String {
    format!("http://db0.example.org/film/F{i}")
}

fn person(i: usize) -> String {
    format!("{PEOPLE_NS}P{i}")
}

fn actor(k: usize) -> String {
    format!("http://db{k}.example.org/schema/actor")
}

/// The second name of person 1 and film 2: an equivalence mapping
/// makes each one class with the first.
fn alias(name: &str) -> String {
    format!("http://alias.example.org/{name}")
}

fn v(local: &str) -> String {
    format!("{VOCAB}{local}")
}

/// Films cast through blank hubs, with years, ages, nicks and the
/// `union_cast` actor predicates; peer B's `cast` triples map into the
/// hub's vocabulary — through a fresh hub (`existential`) or straight
/// onto `actor(1)` (a full system); and the corpus's own triples.
fn system(existential: bool) -> RdfPeerSystem {
    let mut hub = String::new();
    for f in 0..FILMS {
        for k in 0..1 + f % 3 {
            let p = (f * 5 + k * 7) % PEOPLE;
            hub += &format!(
                "<{}> <{}> _:h{f}_{k} .\n_:h{f}_{k} <{}> <{}> .\n",
                film(f),
                v("starring"),
                v("artist"),
                person(p)
            );
        }
        hub += &format!("<{}> <{}> \"{}\" .\n", film(f), v("year"), 1990 + f % 3);
        hub += &format!(
            "<{}> <{}> <{}> .\n",
            film(f),
            actor(1 + f % 3),
            person((f + 1) % PEOPLE)
        );
    }
    for p in 0..PEOPLE {
        hub += &format!("<{}> <{}> \"{}\" .\n", person(p), v("age"), 20 + p % 5);
        if p % 3 == 0 {
            hub += &format!("<{}> <{}> \"n{p}\"@en .\n", person(p), v("nick"));
        }
    }
    hub += &format!("<{}> <{}> <{}> .\n", film(3), v("starring"), alias("F2"));
    hub += "<http://c/s1> <http://c/p> \"v1\" .\n\
            <http://c/s2> <http://c/p> <http://c/o1> .\n\
            <http://c/o1> <http://c/q> \"5\" .\n\
            <http://c/s3> <http://c/q> \"x\" .\n\
            <http://c/s3> <http://c/p> \"5\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n\
            <http://c/s2> <http://c/p> \"v\"@en .\n\
            <http://c/s1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://c/T> .\n";
    let mut b = String::new();
    for f in 0..FILMS {
        b += &format!(
            "<http://b/f{f}> <http://b/cast> <{}> .\n",
            person((f * 3) % PEOPLE)
        );
    }
    b += &format!("<http://b/f1> <http://b/cast> <{}> .\n", alias("P1"));
    let (x, y, z) = (Variable::new("x"), Variable::new("y"), Variable::new("z"));
    let t = |s: &Variable, p: &str, o: &Variable| {
        TriplePattern::new(
            TermOrVar::Var(s.clone()),
            TermOrVar::iri(p),
            TermOrVar::Var(o.clone()),
        )
    };
    let head = vec![x.clone(), y.clone()];
    let premise = GraphPatternQuery::new(
        head.clone(),
        GraphPattern::from_patterns(vec![t(&x, "http://b/cast", &y)]),
    );
    let conclusion = match existential {
        true => vec![t(&x, &v("starring"), &z), t(&z, &v("artist"), &y)],
        false => vec![t(&x, &actor(1), &y)],
    };
    let conclusion = GraphPatternQuery::new(head, GraphPattern::from_patterns(conclusion));
    let (mut a, mut bp) = (PeerId(0), PeerId(0));
    RpsBuilder::new()
        .peer_turtle("hub", &hub, &mut a)
        .unwrap()
        .peer_turtle("B", &b, &mut bp)
        .unwrap()
        .assertion(bp, a, premise, conclusion)
        .unwrap()
        .equivalence(&person(1), &alias("P1"))
        .equivalence(&film(2), &alias("F2"))
        .build()
}

/// `text` through the full path: parsed and lowered, each CQ prepared,
/// then each executed, and the answers assembled.
fn full_path<P>(
    text: &str,
    prepare: impl Fn(&GraphPatternQuery) -> Result<P, RpsError>,
    execute: impl Fn(&P) -> Result<AnswerStream, RpsError>,
) -> Result<SparqlResult, RpsError> {
    let lowered = parse_sparql(text, &PrefixMap::common())?.into_lowered();
    let plans = lowered.cqs().map(prepare).collect::<Result<Vec<_>, _>>()?;
    let mut answers = Vec::with_capacity(plans.len());
    for plan in &plans {
        answers.push(execute(plan)?.collect::<BTreeSet<_>>());
    }
    Ok(lowered.assemble(&answers))
}

/// A fronted façade, and a separately frozen twin answering through the
/// full path only.
trait Front {
    fn name(&self) -> String;
    fn answer(&self, text: &str) -> Result<SparqlResult, RpsError>;
    fn full_path(&self, text: &str) -> Result<SparqlResult, RpsError>;
    fn stats(&self) -> PlanCacheStats;
}

struct Local(String, FrozenSession, FrozenSession);

impl Front for Local {
    fn name(&self) -> String {
        self.0.clone()
    }
    fn answer(&self, text: &str) -> Result<SparqlResult, RpsError> {
        self.1.answer_sparql(text)
    }
    fn full_path(&self, text: &str) -> Result<SparqlResult, RpsError> {
        let oracle = &self.2;
        full_path(text, |cq| oracle.prepare(cq), |plan| oracle.execute(plan))
    }
    fn stats(&self) -> PlanCacheStats {
        self.1.plan_cache_stats()
    }
}

struct Federated(String, FrozenFederatedSession, FrozenFederatedSession);

impl Front for Federated {
    fn name(&self) -> String {
        self.0.clone()
    }
    fn answer(&self, text: &str) -> Result<SparqlResult, RpsError> {
        self.1.answer_sparql(text)
    }
    fn full_path(&self, text: &str) -> Result<SparqlResult, RpsError> {
        let oracle = &self.2;
        full_path(
            text,
            |cq| oracle.prepare(cq),
            |plan| oracle.execute_with_threads(plan, 1).map(|a| a.stream),
        )
    }
    fn stats(&self) -> PlanCacheStats {
        self.1.plan_cache_stats()
    }
}

fn fronts() -> Vec<Box<dyn Front>> {
    let mut out: Vec<Box<dyn Front>> = Vec::new();
    for existential in [true, false] {
        let sys = system(existential);
        let label = if existential { "existential" } else { "full" };
        for strategy in [Strategy::Materialise, Strategy::Rewrite] {
            let frozen = || {
                Session::open(sys.clone(), EngineConfig::default().with_strategy(strategy))
                    .and_then(Session::freeze)
                    .unwrap()
            };
            let name = format!("{label} {strategy:?}");
            out.push(Box::new(Local(name, frozen(), frozen())));
        }
        let federated = || {
            FederatedSession::open(&sys, EngineConfig::default())
                .and_then(FederatedSession::freeze)
                .unwrap()
        };
        let name = format!("{label} federated");
        out.push(Box::new(Federated(name, federated(), federated())));
    }
    out
}

/// One of `items`, drawn.
fn pick<'a>(rng: &mut SeededRng, items: &[&'a str]) -> &'a str {
    items[rng.gen_range(0..items.len())]
}

/// A film, a person or a year key — now and then one no graph holds or
/// a second name of a class.
fn film_key(rng: &mut SeededRng) -> String {
    match rng.gen_range(0..8) {
        0 => film(FILMS + 5),
        1 => alias("F2"),
        _ => film(rng.gen_range(0..FILMS)),
    }
}

fn person_key(rng: &mut SeededRng) -> String {
    match rng.gen_range(0..8) {
        0 => person(PEOPLE + 5),
        1 => alias("P1"),
        _ => person(rng.gen_range(0..PEOPLE)),
    }
}

/// The benchmark's eight templates (`benchmark/src/ops.rs::render`),
/// spelled as it spells them, at fresh keys.
fn benchmark_text(template: usize, rng: &mut SeededRng) -> String {
    let p = format!("PREFIX v: <{VOCAB}> ");
    let (f, x) = (film_key(rng), person_key(rng));
    let y = 1989 + rng.gen_range(0..5);
    match template {
        0 => format!("{p}SELECT ?p WHERE {{ <{f}> v:starring ?z . ?z v:artist ?p }}"),
        1 => format!("{p}SELECT ?f WHERE {{ ?f v:starring ?z . ?z v:artist <{x}> }}"),
        2 => format!(
            "{p}SELECT ?x ?y ?n WHERE {{ <{f}> v:starring ?z . ?z v:artist ?x . ?x v:age ?y \
             OPTIONAL {{ ?x v:nick ?n }} }}"
        ),
        3 => format!("{p}ASK {{ <{f}> v:starring ?z . ?z v:artist <{x}> }}"),
        4 => {
            let lo = 18 + rng.gen_range(0..6);
            let hi = lo + rng.gen_range(1..6);
            format!(
                "{p}SELECT ?f ?x ?a WHERE {{ ?f v:year \"{y}\" . ?f v:starring ?z . \
                 ?z v:artist ?x . ?x v:age ?a FILTER(?a >= \"{lo}\" && ?a < \"{hi}\") }} \
                 ORDER BY DESC(?a) ?x ?f LIMIT 100"
            )
        }
        5 => format!(
            "{p}SELECT DISTINCT ?p ?q WHERE {{ ?f v:year \"{y}\" . ?f v:starring ?z1 . \
             ?z1 v:artist ?p . ?f v:starring ?z2 . ?z2 v:artist ?q }}"
        ),
        6 => format!(
            "{p}SELECT DISTINCT ?f ?p WHERE {{ ?f v:year \"{y}\" \
             {{ ?f v:starring ?z . ?z v:artist ?p }} UNION {{ ?f <{}> ?p }} \
             UNION {{ ?f <{}> ?p }} UNION {{ ?f <{}> ?p }} }}",
            actor(1),
            actor(2),
            actor(3)
        ),
        _ => {
            let a = 19 + rng.gen_range(0..7);
            format!("{p}SELECT ?x ?n WHERE {{ ?x v:age \"{a}\" OPTIONAL {{ ?x v:nick ?n }} }}")
        }
    }
}

/// Families beyond the corpus and the benchmark: two positions holding
/// one token or two, two tokens that can denote one term (an IRI and a
/// prefixed name, or two members of a class), and every literal form,
/// in triples and in FILTERs.
fn extra_text(family: usize, rng: &mut SeededRng) -> String {
    let p = format!("PREFIX v: <{VOCAB}> PREFIX p: <{PEOPLE_NS}> ");
    let (a, b) = (rng.gen_range(0..4), rng.gen_range(0..4));
    match family {
        // The same token in two positions: one parameter.
        0 => {
            let x = person_key(rng);
            format!(
                "{p}SELECT ?f ?g WHERE {{ ?f v:starring ?z . ?z v:artist <{x}> . \
                 ?g v:starring ?y . ?y v:artist <{x}> }}"
            )
        }
        // Two tokens: an IRI and a prefixed name, equal terms when a == b.
        1 => format!(
            "{p}SELECT ?f WHERE {{ ?f v:starring ?z . ?z v:artist <{}> . \
             ?f v:starring ?y . ?y v:artist p:P{b} }}",
            person(a)
        ),
        // Two IRIs, one class when both are a name of person 1.
        2 => {
            let one = [person(1), alias("P1"), person(a)];
            let (x, y) = (&one[a % 3], &one[b % 3]);
            format!("{p}ASK {{ ?f v:starring ?z . ?z v:artist <{x}> . ?g <http://b/cast> <{y}> }}")
        }
        // A lang-tagged literal, now and then another tag.
        3 => {
            let tag = pick(rng, &["en", "en", "de"]);
            format!("{p}SELECT ?x WHERE {{ ?x v:nick \"n{}\"@{tag} }}", 3 * a)
        }
        // A datatyped literal and a number, compared in a FILTER.
        4 => format!(
            "{p}SELECT ?s ?o WHERE {{ ?s <http://c/p> ?o \
             FILTER(?o = \"{}\"^^<http://www.w3.org/2001/XMLSchema#integer> || ?o > {}) }}",
            3 + a,
            b
        ),
        // A FILTER constant equal to a triple's, or not.
        _ => {
            let age = 20 + a;
            format!(
                "{p}SELECT ?x ?a WHERE {{ ?x v:age ?a . ?x v:age \"{age}\" \
                 FILTER(?a = \"{}\") }}",
                20 + b
            )
        }
    }
}

/// The kind of a constant token the corpus re-rendering replaces.
#[derive(Clone, Copy)]
enum Kind {
    Iri,
    PName,
    Literal,
    Number,
}

/// The constant tokens of `text`'s body, by byte range and kind, found
/// by a scan of its own (independent of the engine's lexer): IRIs that
/// do not open with `?`, `=` or a space, prefixed names, quoted literals
/// with their tag or datatype, and numbers not after LIMIT or OFFSET.
fn constants(text: &str) -> Vec<(usize, usize, Kind)> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let Some(mut i) = text.find('{') else {
        return out;
    };
    let word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    while i < bytes.len() {
        let start = i;
        match bytes[i] {
            b'<' if bytes.get(i + 1).is_some_and(|&b| word(b)) => {
                let end = start + text[start..].find('>').unwrap() + 1;
                out.push((start, end, Kind::Iri));
                i = end;
            }
            b'"' => {
                let mut end = start + 1 + text[start + 1..].find('"').unwrap() + 1;
                if bytes.get(end) == Some(&b'@') {
                    end += 1;
                    while bytes.get(end).is_some_and(|&b| word(b) || b == b'-') {
                        end += 1;
                    }
                } else if text[end..].starts_with("^^<") {
                    end += text[end..].find('>').unwrap() + 1;
                }
                out.push((start, end, Kind::Literal));
                i = end;
            }
            b'?' | b'$' => {
                i += 1;
                while i < bytes.len() && word(bytes[i]) {
                    i += 1;
                }
            }
            b if b.is_ascii_digit() => {
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let before = text[..start].trim_end().to_ascii_uppercase();
                if !before.ends_with("LIMIT") && !before.ends_with("OFFSET") {
                    out.push((start, i, Kind::Number));
                }
            }
            b if word(b) => {
                while i < bytes.len() && (word(bytes[i]) || bytes[i] == b':') {
                    i += 1;
                }
                if text[start..i].contains(':') {
                    out.push((start, i, Kind::PName));
                }
            }
            _ => i += 1,
        }
    }
    out
}

/// `text` with each distinct constant token replaced by a drawn one of
/// its kind — its own spelling half the time, so that rows come back;
/// equal tokens stay equal.
fn rerender(text: &str, rng: &mut SeededRng) -> String {
    let mut chosen: HashMap<&str, String> = HashMap::new();
    let mut out = String::new();
    let mut at = 0;
    for (start, end, kind) in constants(text) {
        let token = &text[start..end];
        let fresh = chosen.entry(token).or_insert_with(|| {
            if rng.gen_bool(0.5) {
                return token.to_string();
            }
            match kind {
                Kind::Iri => {
                    let local = pick(rng, &["s1", "s2", "s3", "o1", "p", "q", "T", "none"]);
                    match token.contains(':') {
                        true => format!("<http://c/{local}>"),
                        false => format!("<{local}>"),
                    }
                }
                Kind::PName => {
                    let prefix = token.split(':').next().unwrap_or("c");
                    match prefix {
                        "rdf" => pick(rng, &["rdf:type", "rdf:value"]).to_string(),
                        _ => format!("{prefix}:{}", pick(rng, &["p", "q", "o1", "s1", "T"])),
                    }
                }
                Kind::Literal => {
                    let lexical = pick(rng, &["v1", "5", "x", "nope", "1", "9", "v"]);
                    let suffix = &token[token[1..].find('"').unwrap() + 2..];
                    format!("\"{lexical}\"{suffix}")
                }
                Kind::Number => format!("{}", rng.gen_range(0..10)),
            }
        });
        out += &text[at..start];
        out += fresh;
        at = end;
    }
    out + &text[at..]
}

/// Answers `text` on `front` and on its full-path twin, and checks they
/// agree byte for byte — an error included, which must be a typed
/// SPARQL or rewriting error, the same again when asked twice, and
/// never cached. Returns whether the text was bound into a template.
fn check(front: &dyn Front, text: &str) -> bool {
    let name = front.name();
    let before = front.stats();
    let answer = front.answer(text);
    let expected = front.full_path(text);
    let after = front.stats();
    match (&answer, &expected) {
        (Ok(answer), Ok(expected)) => {
            assert_eq!(answer, expected, "{name}: {text}");
            assert_eq!(
                format!("{answer:?}"),
                format!("{expected:?}"),
                "{name}: {text}"
            );
        }
        (Err(error), Err(oracle)) => {
            assert!(
                matches!(error, RpsError::Sparql(_) | RpsError::RewriteBudget { .. }),
                "{name}: {text}: {error:?}"
            );
            assert_eq!(
                format!("{error:?}"),
                format!("{oracle:?}"),
                "{name}: {text}"
            );
            let again = front.answer(text).map(|_| ());
            assert_eq!(format!("{again:?}"), format!("{:?}", Err::<(), _>(error)));
            assert_eq!(after.statements, before.statements, "{name}: {text} cached");
        }
        _ => panic!("{name}: {text}: {answer:?} but the full path gives {expected:?}"),
    }
    after.binds > before.binds
}

#[test]
fn shape_bound_texts_answer_as_the_full_path_on_every_front() {
    for seed in seed_matrix("RPS_SPARQL_SEED", &[0x5A9E, 0xB1D5]) {
        let mut rng = SeededRng::seed_from_u64(seed);
        let mut texts: Vec<Vec<String>> = Vec::new();
        for t in 0..8 {
            texts.push((0..RENDERS).map(|_| benchmark_text(t, &mut rng)).collect());
        }
        for family in 0..6 {
            texts.push((0..RENDERS).map(|_| extra_text(family, &mut rng)).collect());
        }
        for text in CORPUS {
            texts.push((0..RENDERS).map(|_| rerender(text, &mut rng)).collect());
        }
        // An undeclared prefix in a parameter: the shape of a valid text,
        // and the error the parser reports.
        texts.push(
            (0..RENDERS)
                .map(|i| {
                    let prefix = if i % 2 == 0 { "v" } else { "nope" };
                    format!(
                        "PREFIX v: <{VOCAB}> SELECT ?z WHERE {{ <{}> {prefix}:starring ?z }}",
                        film(i)
                    )
                })
                .collect(),
        );
        for front in fronts() {
            let name = front.name();
            // How many texts of each shape were answered, and how many of
            // those after the second were bound.
            let mut seen: HashMap<u64, usize> = HashMap::new();
            let mut asked: HashSet<&str> = HashSet::new();
            // [all families, the benchmark's]
            let (mut bindable, mut bound) = ([0; 2], [0; 2]);
            // Families interleaved, as a workload asks them.
            for round in 0..RENDERS {
                for (f, family) in texts.iter().enumerate() {
                    let text = &family[round];
                    let was_bound = check(&*front, text);
                    let shape = SparqlShape::of(text).map(|s| s.hash());
                    let count = shape.map_or(0, |h| {
                        let n = seen.entry(h).or_insert(0);
                        *n += 1;
                        *n
                    });
                    assert!(
                        !was_bound || count > 1,
                        "{name}: {text}: a first text was bound"
                    );
                    // A text asked before is a statement hit.
                    let new_text = asked.insert(text);
                    if count > 2 && new_text && front.full_path(text).is_ok() {
                        for k in [0, 1].into_iter().take(if f < 8 { 2 } else { 1 }) {
                            bindable[k] += 1;
                            bound[k] += usize::from(was_bound);
                        }
                    }
                }
            }
            // The materialised and federated routes bind every text of a
            // seen shape. The rewritten route binds a text whose query
            // shapes are the template's: the benchmark's, whose
            // predicates are fixed, all; a re-rendered corpus query
            // whose predicate changed takes the plan-cache path.
            match name.contains("Rewrite") {
                false => assert_eq!(bound[0], bindable[0], "{name}"),
                true => assert!(bound[0] > 0, "{name}: nothing bound of {}", bindable[0]),
            }
            assert_eq!(bound[1], bindable[1], "{name}: the benchmark's templates");
            assert!(bindable[1] > 0, "{name}");
        }
    }
}
