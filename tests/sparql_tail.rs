//! The SPARQL tail has two ways in and one implementation: façades on a
//! materialised solution hand it their undecoded id rows, every other
//! route hands it terms that are interned first. This seeded sweep
//! (`RPS_SPARQL_SEED`, comma-separated u64 seeds) builds random peer
//! systems and runs tail-heavy queries — OPTIONAL, UNION, FILTER,
//! ORDER BY, LIMIT/OFFSET, ASK — through every façade; all must return
//! the one `SparqlResult`, byte for byte. Statements whose tail is the
//! identity (the terms way in hands their answer set straight through)
//! sit beside near-misses that must take the full tail.
//!
//! The tail itself is checked against the term-level reference it
//! replaced in `rps_query`'s unit tests (`sparql::exec::tests`, same
//! environment variable): the reference is `#[cfg(test)]` there and
//! cannot be seen from an integration test.

use rps_core::{
    EngineConfig, FrozenSession, LiveSession, PeerId, RdfPeerSystem, RpsBuilder, Session,
    SparqlResult, Strategy,
};
use rps_lodgen::seed_matrix;
use rps_p2p::FederatedSession;
use rps_query::{parse_sparql, GraphPattern, GraphPatternQuery, Semantics, TermOrVar, Variable};
use rps_rdf::PrefixMap;
use std::collections::BTreeSet;
use std::fmt::Write as _;

const QUERIES: &[&str] = &[
    "PREFIX a: <http://a/> SELECT ?f ?who ?nick WHERE { ?f a:cast ?who \
     OPTIONAL { ?who a:nick ?nick } } ORDER BY DESC(?f) LIMIT 5",
    "PREFIX a: <http://a/> SELECT ?who ?age WHERE { ?f a:cast ?who . ?who a:age ?age \
     FILTER(?age > \"26\") } ORDER BY ?age ?who",
    "PREFIX a: <http://a/> SELECT DISTINCT ?p ?q WHERE { ?f a:cast ?p . ?f a:cast ?q \
     FILTER(?p != ?q) }",
    "PREFIX a: <http://a/> SELECT ?who ?n ?a WHERE { ?f a:cast ?who \
     OPTIONAL { ?who a:nick ?n } OPTIONAL { ?who a:age ?a } \
     FILTER(!bound(?n) || ?a >= \"30\") } ORDER BY DESC(?a) OFFSET 1",
    "PREFIX a: <http://a/> SELECT ?who ?v WHERE { ?f a:cast ?who \
     OPTIONAL { ?who a:nick ?v } OPTIONAL { ?who a:age ?v } }",
    "PREFIX a: <http://a/> SELECT ?x ?v ?f WHERE { { ?x a:age ?v } UNION { ?x a:nick ?v } \
     UNION { ?f a:cast ?x } }",
    "PREFIX a: <http://a/> SELECT ?x ?y WHERE { ?x a:age ?a . ?y a:age ?b \
     FILTER(?a = ?b && ?x != ?y) } ORDER BY ?x DESC(?y) LIMIT 7",
    "PREFIX a: <http://a/> SELECT * WHERE { ?f a:cast ?who } OFFSET 1000",
    "PREFIX a: <http://a/> ASK { ?f a:cast ?who . ?who a:age ?a FILTER(?a = \"31.0\") }",
    "PREFIX a: <http://a/> ASK { ?f a:cast ?who OPTIONAL { ?who a:nick ?n } \
     FILTER(bound(?n) && ?n > \"zz\") }",
    // Identity tails: the interning adapter hands the answer set through.
    "PREFIX a: <http://a/> ASK { ?f a:cast ?who }",
    "PREFIX a: <http://a/> ASK { <http://a/f9> a:cast ?who }",
    "PREFIX a: <http://a/> SELECT ?age ?who WHERE { ?who a:age ?age } LIMIT 4",
    "PREFIX a: <http://a/> SELECT * WHERE { ?f a:cast ?p . ?p a:age ?q }",
    // Near-misses, one tail feature each: permuted projection, a projected
    // variable the pattern lacks, OFFSET, FILTER, OPTIONAL.
    "PREFIX a: <http://a/> SELECT ?who ?age WHERE { ?who a:age ?age }",
    "PREFIX a: <http://a/> SELECT ?age ?who ?zz WHERE { ?who a:age ?age }",
    "PREFIX a: <http://a/> SELECT ?age ?who WHERE { ?who a:age ?age } OFFSET 2",
    "PREFIX a: <http://a/> SELECT ?age ?who WHERE { ?who a:age ?age FILTER(?age != \"7\") }",
    "PREFIX a: <http://a/> SELECT ?f ?who WHERE { ?f a:cast ?who OPTIONAL { ?who a:nick ?n } }",
];

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n.max(1) as u64) as usize
    }
}

/// Peer A casts, ages and nicknames its people; peer B's `actor` facts
/// imply A's `cast`, B ages some of its own, and a few of B's people
/// are `sameAs` A's.
fn random_system(rng: &mut Rng) -> RdfPeerSystem {
    const AGES: &[&str] = &["25", "26", "31", "31.0", "40", "7"];
    let (mut a, mut b) = (String::new(), String::new());
    for _ in 0..6 + rng.below(10) {
        let (f, p) = (rng.below(5), rng.below(7));
        let _ = writeln!(a, "<http://a/f{f}> <http://a/cast> <http://a/p{p}> .");
    }
    for p in 0..7 {
        if rng.below(3) > 0 {
            let age = AGES[rng.below(AGES.len())];
            let _ = writeln!(a, "<http://a/p{p}> <http://a/age> \"{age}\" .");
        }
        if rng.below(3) == 0 {
            let _ = writeln!(a, "<http://a/p{p}> <http://a/nick> \"n{}\" .", rng.below(3));
        }
    }
    for _ in 0..3 + rng.below(6) {
        let (f, p) = (rng.below(4), rng.below(5));
        let _ = writeln!(b, "<http://b/f{f}> <http://b/actor> <http://b/p{p}> .");
    }
    for p in 0..5 {
        if rng.below(2) == 0 {
            let age = AGES[rng.below(AGES.len())];
            let _ = writeln!(b, "<http://b/p{p}> <http://a/age> \"{age}\" .");
        }
    }
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
    let (mut pa, mut pb) = (PeerId(0), PeerId(0));
    let mut builder = RpsBuilder::new()
        .peer_turtle("A", &a, &mut pa)
        .unwrap()
        .peer_turtle("B", &b, &mut pb)
        .unwrap()
        .assertion(pb, pa, pair("http://b/actor"), pair("http://a/cast"))
        .unwrap();
    for _ in 0..rng.below(3) {
        let (x, y) = (rng.below(7), rng.below(5));
        builder = builder.equivalence(&format!("http://a/p{x}"), &format!("http://b/p{y}"));
    }
    builder.build()
}

fn config(strategy: Strategy) -> EngineConfig {
    EngineConfig::default().with_strategy(strategy)
}

/// A session over `system` under `strategy`, frozen.
fn freeze(system: &RdfPeerSystem, strategy: Strategy) -> FrozenSession {
    Session::open(system.clone(), config(strategy))
        .and_then(Session::freeze)
        .unwrap()
}

#[test]
fn id_rows_and_interned_terms_assemble_identically_on_every_facade() {
    for seed in seed_matrix("RPS_SPARQL_SEED", &[0xEDB7, 0xD1CE]) {
        let mut rng = Rng(seed);
        let (mut nonempty, mut unbound) = (0, 0);
        for round in 0..12 {
            let system = random_system(&mut rng);
            // Undecoded ids of one solution: the materialised façades (a
            // session frozen over the saturated solution chased before its
            // freeze, the live reader) — and of the chase of the quotient,
            // which a session frozen straight away serves, the mappings
            // being full.
            let mut mat = Session::open(system.clone(), config(Strategy::Materialise)).unwrap();
            let solution = mat.universal_solution().unwrap();
            let mat = mat.freeze().unwrap();
            let frozen = freeze(&system, Strategy::Materialise);
            let live = LiveSession::open(system.clone(), config(Strategy::Auto)).unwrap();
            // Ids of the canonical stored graph (rewriting, federation).
            let rewrite = freeze(&system, Strategy::Rewrite);
            let federated = FederatedSession::new(&system, config(Strategy::Auto))
                .freeze()
                .unwrap();

            for text in QUERIES {
                let label = format!("seed {seed} round {round}\n{text}");
                let want = mat.answer_sparql(text).unwrap();
                let check = |got: SparqlResult, route: &str| {
                    assert_eq!(got, want, "{route} ≠ materialised: {label}");
                };
                check(frozen.answer_sparql(text).unwrap(), "frozen");
                check(live.reader().answer_sparql(text).unwrap(), "live");
                check(rewrite.answer_sparql(text).unwrap(), "rewritten");
                check(federated.answer_sparql(text).unwrap(), "federated");
                // The same two entry points below the session layer.
                let lowered = parse_sparql(text, &PrefixMap::common()).unwrap().lower();
                check(
                    lowered.evaluate(&solution.graph, Semantics::Certain),
                    "LoweredSparql::evaluate",
                );
                let answers: Vec<BTreeSet<_>> = lowered
                    .queries()
                    .into_iter()
                    .map(|cq| frozen.answer(cq).unwrap().collect())
                    .collect();
                check(lowered.assemble(&answers), "LoweredSparql::assemble");

                if let Some(table) = want.rows() {
                    nonempty += usize::from(!table.rows.is_empty());
                    unbound += usize::from(table.rows.iter().flatten().any(Option::is_none));
                }
            }
        }
        assert!(nonempty >= 40, "seed {seed}: {nonempty} non-empty results");
        assert!(
            unbound >= 12,
            "seed {seed}: {unbound} results with unbound cells"
        );
    }
}
