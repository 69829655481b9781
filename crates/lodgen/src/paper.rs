//! The paper's running example, reproduced exactly: Figure 1's three
//! sources, Example 2's RPS, Example 1's query, and Listing 1's expected
//! answers.

use rps_core::{PeerId, RdfPeerSystem, RpsBuilder};
use rps_query::{parse_sparql, GraphPatternQuery, Variable};
use rps_rdf::{PrefixMap, Term};
use std::collections::BTreeSet;

/// Namespace of Source 1 (`DB1:`).
pub const DB1: &str = "http://db1.example.org/";
/// Namespace of Source 2 (`DB2:`).
pub const DB2: &str = "http://db2.example.org/";
/// Namespace of Source 3 (`foaf:`).
pub const FOAF: &str = "http://xmlns.com/foaf/0.1/";
/// Shared property vocabulary (the paper writes `starring`, `artist`,
/// `age`, `actor` unprefixed).
pub const V: &str = "http://vocab.example.org/";

/// The fully assembled paper example.
pub struct PaperExample {
    /// The RPS of Example 2 (three peers, one graph mapping assertion,
    /// equivalence mappings imported from the `owl:sameAs` triples).
    pub system: RdfPeerSystem,
    /// Prefixes for parsing/rendering queries.
    pub prefixes: PrefixMap,
    /// The SPARQL text of the Example 1 query.
    pub query_text: &'static str,
    /// The Example 1 query as a graph pattern query.
    pub query: GraphPatternQuery,
    /// Listing 1's six expected rows (with redundancy).
    pub expected_full: BTreeSet<Vec<Term>>,
    /// Listing 1's three expected rows after redundancy elimination.
    pub expected_lean: BTreeSet<Vec<Term>>,
}

/// Builds the paper example.
pub fn paper_example() -> PaperExample {
    let mut prefixes = PrefixMap::new();
    prefixes.insert("db1", DB1);
    prefixes.insert("db2", DB2);
    prefixes.insert("foaf", FOAF);
    prefixes.insert("v", V);
    prefixes.insert("owl", "http://www.w3.org/2002/07/owl#");

    // --- Figure 1, Source 1: films in DB1 vocabulary. ---
    let source1 = format!(
        "@prefix db1: <{DB1}> .\n\
         @prefix db2: <{DB2}> .\n\
         @prefix v: <{V}> .\n\
         @prefix owl: <http://www.w3.org/2002/07/owl#> .\n\
         db1:Spiderman v:starring _:z1 .\n\
         _:z1 v:artist db1:Toby_Maguire .\n\
         db1:Spiderman v:starring _:z2 .\n\
         _:z2 v:artist db1:Kirsten_Dunst .\n\
         db1:Spiderman owl:sameAs db2:Spiderman2002 .\n"
    );

    // --- Figure 1, Source 2: films in DB2 vocabulary. ---
    // Pleasantville's actor is unknown (a blank node): its premise tuple
    // contains a blank and therefore must NOT fire the mapping — the `rt`
    // guard of Section 3 in action.
    let source2 = format!(
        "@prefix db2: <{DB2}> .\n\
         @prefix v: <{V}> .\n\
         db2:Spiderman2002 v:actor db2:Willem_Dafoe .\n\
         db2:Pleasantville v:actor _:unknown .\n"
    );

    // --- Figure 1, Source 3: people and their properties. ---
    let source3 = format!(
        "@prefix db1: <{DB1}> .\n\
         @prefix db2: <{DB2}> .\n\
         @prefix foaf: <{FOAF}> .\n\
         @prefix v: <{V}> .\n\
         @prefix owl: <http://www.w3.org/2002/07/owl#> .\n\
         foaf:Toby_Maguire v:age \"39\" .\n\
         foaf:Kirsten_Dunst v:age \"32\" .\n\
         foaf:Willem_Dafoe v:age \"59\" .\n\
         foaf:Toby_Maguire owl:sameAs db1:Toby_Maguire .\n\
         foaf:Kirsten_Dunst owl:sameAs db1:Kirsten_Dunst .\n\
         foaf:Willem_Dafoe owl:sameAs db2:Willem_Dafoe .\n"
    );

    // --- Example 2's single graph mapping assertion: Q2 ⇝ Q1. ---
    // Q2 := q(x, y) ← (x, actor, y)        (over Source 2)
    // Q1 := q(x, y) ← (x, starring, z) AND (z, artist, y)  (over Source 1)
    let q2 = query_from(&prefixes, "SELECT ?x ?y WHERE { ?x v:actor ?y }");
    let q1 = query_from(
        &prefixes,
        "SELECT ?x ?y WHERE { ?x v:starring ?z . ?z v:artist ?y }",
    );

    let mut s1 = PeerId(0);
    let mut s2 = PeerId(0);
    let mut s3 = PeerId(0);
    let system = RpsBuilder::new()
        .peer_turtle("Source 1", &source1, &mut s1)
        .expect("source 1 parses")
        .peer_turtle("Source 2", &source2, &mut s2)
        .expect("source 2 parses")
        .peer_turtle("Source 3", &source3, &mut s3)
        .expect("source 3 parses")
        .assertion(s2, s1, q2, q1)
        .expect("assertion arities agree")
        .import_same_as()
        .build();

    // --- Example 1's query. ---
    let query_text =
        "SELECT ?x ?y WHERE { db1:Spiderman v:starring ?z . ?z v:artist ?x . ?x v:age ?y }";
    let query = query_from(&prefixes, query_text);

    let iri = |ns: &str, local: &str| Term::iri(format!("{ns}{local}"));
    let lit = |s: &str| Term::literal(s);
    let expected_full: BTreeSet<Vec<Term>> = [
        vec![iri(DB1, "Toby_Maguire"), lit("39")],
        vec![iri(FOAF, "Toby_Maguire"), lit("39")],
        vec![iri(DB1, "Kirsten_Dunst"), lit("32")],
        vec![iri(FOAF, "Kirsten_Dunst"), lit("32")],
        vec![iri(DB2, "Willem_Dafoe"), lit("59")],
        vec![iri(FOAF, "Willem_Dafoe"), lit("59")],
    ]
    .into_iter()
    .collect();
    let expected_lean: BTreeSet<Vec<Term>> = [
        vec![iri(DB1, "Toby_Maguire"), lit("39")],
        vec![iri(DB1, "Kirsten_Dunst"), lit("32")],
        vec![iri(DB2, "Willem_Dafoe"), lit("59")],
    ]
    .into_iter()
    .collect();

    PaperExample {
        system,
        prefixes,
        query_text,
        query,
        expected_full,
        expected_lean,
    }
}

/// Parses a conjunctive SELECT query into a [`GraphPatternQuery`] whose
/// head is the SELECT list, in order.
pub fn query_from(prefixes: &PrefixMap, text: &str) -> GraphPatternQuery {
    let lowered = parse_sparql(text, prefixes).expect("query parses").lower();
    assert!(!lowered.is_ask(), "expected SELECT");
    let [cq] = lowered.queries()[..] else {
        panic!("expected a conjunctive query");
    };
    let head = lowered.columns().into_iter().map(Variable::new).collect();
    GraphPatternQuery::new(head, cq.pattern().clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rps_core::{certain_answers, chase_system, EquivalenceIndex, RpsChaseConfig};
    use rps_query::{evaluate_query, Semantics};

    #[test]
    fn fixture_shape() {
        let ex = paper_example();
        assert_eq!(ex.system.peers().len(), 3);
        assert_eq!(ex.system.assertions().len(), 1);
        // 4 sameAs links in the data.
        assert_eq!(ex.system.equivalences().len(), 4);
        assert!(ex.system.validate().is_ok());
    }

    #[test]
    fn example1_query_is_empty_on_stored_data() {
        // "This query returns an empty result on the data of Figure 1."
        let ex = paper_example();
        let stored = ex.system.stored_database();
        let ans = evaluate_query(&stored, &ex.query, Semantics::Certain);
        assert!(ans.is_empty());
    }

    #[test]
    fn listing1_rows_over_universal_solution() {
        let ex = paper_example();
        let sol = chase_system(&ex.system, &RpsChaseConfig::default());
        assert!(sol.complete);
        let ans = certain_answers(&sol, &ex.query);
        assert_eq!(ans.tuples, ex.expected_full);
    }

    #[test]
    fn listing1_without_redundancy() {
        let ex = paper_example();
        let sol = chase_system(&ex.system, &RpsChaseConfig::default());
        let ans = certain_answers(&sol, &ex.query);
        let index = EquivalenceIndex::from_mappings(ex.system.equivalences());
        let lean = ans.without_redundancy(&index);
        assert_eq!(lean.tuples, ex.expected_lean);
    }

    #[test]
    fn pleasantville_blank_does_not_fire() {
        let ex = paper_example();
        let sol = chase_system(&ex.system, &RpsChaseConfig::default());
        // Pleasantville never gains a starring edge: its only actor tuple
        // contains a blank node.
        let q = query_from(
            &ex.prefixes,
            "SELECT ?z WHERE { db2:Pleasantville v:starring ?z }",
        );
        let ans = evaluate_query(&sol.graph, &q, Semantics::Star);
        assert!(ans.is_empty());
    }
}
