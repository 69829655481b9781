//! End-to-end reproduction of the paper's running example (experiments
//! E1–E3): Figure 1, Example 1, Example 2, Listing 1 and Listing 2.

use rps_core::{
    certain_answers, chase_system, is_solution, EngineConfig, EquivalenceIndex, ExecRoute,
    RpsChaseConfig, RpsRewriter, Session, Strategy,
};
use rps_lodgen::{paper_example, query_from};
use rps_query::{evaluate_query, Semantics};
use rps_rdf::Term;
use rps_tgd::RewriteConfig;

#[test]
fn e1_query_empty_over_raw_data() {
    let ex = paper_example();
    let stored = ex.system.stored_database();
    assert!(evaluate_query(&stored, &ex.query, Semantics::Certain).is_empty());
}

#[test]
fn e2_listing1_exact_rows() {
    let ex = paper_example();
    let sol = chase_system(&ex.system, &RpsChaseConfig::default());
    assert!(sol.complete, "Theorem 1: the chase terminates");
    let ans = certain_answers(&sol, &ex.query);
    assert_eq!(ans.tuples, ex.expected_full, "Listing 1 (with redundancy)");
    let index = EquivalenceIndex::from_mappings(ex.system.equivalences());
    assert_eq!(
        ans.without_redundancy(&index).tuples,
        ex.expected_lean,
        "Listing 1 (without redundancy)"
    );
}

#[test]
fn e2_universal_solution_is_a_solution() {
    let ex = paper_example();
    let sol = chase_system(&ex.system, &RpsChaseConfig::default());
    assert!(is_solution(&ex.system, &sol.graph));
    assert!(!is_solution(&ex.system, &ex.system.stored_database()));
}

#[test]
fn e3_listing2_boolean_rewriting() {
    let ex = paper_example();
    let rw = RpsRewriter::new(&ex.system);
    // Example 3 rewrites because the paper's G is linear.
    assert!(rw.classification().linear);
    let toby = Term::iri(format!("{}Toby_Maguire", rps_lodgen::paper::DB1));
    let tuple = [toby, Term::literal("39")];

    // Before rewriting: the ASK over the stored data is false.
    let free = ex.query.free_vars().to_vec();
    let bound = ex
        .query
        .pattern()
        .substitute(&|v| free.iter().position(|f| f == v).map(|i| tuple[i].clone()));
    assert!(!rps_query::has_match(&ex.system.stored_database(), &bound));

    // After rewriting: true.
    let cfg = RewriteConfig::default();
    assert!(rw.is_certain_answer(&ex.query, &tuple, &cfg).unwrap());

    // A non-answer stays false.
    let wrong = [
        Term::iri(format!("{}Toby_Maguire", rps_lodgen::paper::DB1)),
        Term::literal("99"),
    ];
    assert!(!rw.is_certain_answer(&ex.query, &wrong, &cfg).unwrap());
}

#[test]
fn e3_full_boolean_enumeration_matches_chase() {
    // The complete Example 3 pipeline on a *small* anchored query whose
    // candidate space is tractable.
    let ex = paper_example();
    let q = query_from(
        &ex.prefixes,
        "SELECT ?y WHERE { foaf:Toby_Maguire v:age ?y }",
    );
    let rw = RpsRewriter::new(&ex.system);
    let enumerated = rw
        .certain_answers_via_boolean(&q, &RewriteConfig::default(), 100)
        .expect("arity-1 candidate space fits");
    let sol = chase_system(&ex.system, &RpsChaseConfig::default());
    let chased = certain_answers(&sol, &q);
    assert_eq!(enumerated.tuples, chased.tuples);
    assert_eq!(enumerated.len(), 1);
}

#[test]
fn engine_auto_route_reproduces_listing1() {
    let ex = paper_example();
    let mut session = Session::open(ex.system.clone(), EngineConfig::default()).unwrap();
    let ans = session.answer(&ex.query).unwrap().into_set();
    assert_eq!(ans.tuples, ex.expected_full);
    let lean = session.answer_without_redundancy(&ex.query).unwrap();
    assert_eq!(lean.tuples, ex.expected_lean);
}

#[test]
fn rewriting_strategy_reproduces_listing1() {
    let ex = paper_example();
    let config = EngineConfig::default().with_strategy(Strategy::Rewrite);
    let mut session = Session::open(ex.system.clone(), config).unwrap();
    let stream = session.answer(&ex.query).unwrap();
    assert_eq!(stream.route(), ExecRoute::Rewritten);
    assert_eq!(stream.into_set().tuples, ex.expected_full);
}

#[test]
fn federated_service_reproduces_listing1() {
    let ex = paper_example();
    let mut session = rps_p2p::FederatedSession::open(&ex.system, EngineConfig::default()).unwrap();
    let result = session.answer(&ex.query).unwrap();
    assert!(result.stats.messages > 0);
    assert_eq!(result.stream.into_set().tuples, ex.expected_full);
}
