//! Quickstart: the paper's running example, end to end, through the
//! unified `Session` API.
//!
//! Builds the three sources of Figure 1, the RPS of Example 2, poses the
//! Example 1 query — as SPARQL text, the way the paper writes it —
//! and reproduces Listing 1: the empty result over the raw data, the
//! certain answers over the universal solution, and the
//! redundancy-free result.
//!
//! Run with: `cargo run --example quickstart`

use rps_core::{EngineConfig, ExecRoute, Session, Strategy};
use rps_lodgen::paper_example;
use rps_query::{evaluate_query, Semantics};
use rps_rdf::Term;
use std::collections::BTreeSet;

/// Example 1's query, verbatim SPARQL with its own prologue. The
/// session parses and lowers this text onto the same prepared-plan
/// pipeline the hand-built `GraphPatternQuery` uses.
const EXAMPLE1_SPARQL: &str = "\
    PREFIX db1: <http://db1.example.org/>\n\
    PREFIX v: <http://vocab.example.org/>\n\
    SELECT ?x ?y WHERE {\n\
      db1:Spiderman v:starring ?z .\n\
      ?z v:artist ?x .\n\
      ?x v:age ?y\n\
    }";

fn main() {
    let ex = paper_example();

    println!("== RDF Peer System (Example 2) ==");
    for (i, peer) in ex.system.peers().iter().enumerate() {
        println!(
            "  peer {i}: {:12} {:3} triples, schema of {} IRIs",
            peer.name,
            peer.size(),
            peer.schema.len()
        );
    }
    println!(
        "  graph mapping assertions: {}",
        ex.system.assertions().len()
    );
    println!(
        "  equivalence mappings (from owl:sameAs): {}",
        ex.system.equivalences().len()
    );

    println!("\n== Example 1 query ==\n  {}", ex.query_text);

    // Over the raw stored data the query is empty: SPARQL does not
    // entail the sameAs links or the actor/starring mapping.
    let stored = ex.system.stored_database();
    let raw = evaluate_query(&stored, &ex.query, Semantics::Certain);
    println!(
        "\nOver the raw stored data: {} answers (the paper: \"returns an empty result\")",
        raw.len()
    );
    assert!(raw.is_empty());

    // One façade for the whole stack: system + config in, validated
    // session out, frozen into the handle that answers; every failure
    // is a typed RpsError.
    let mut session = Session::open(
        ex.system.clone(),
        EngineConfig::default().with_strategy(Strategy::Materialise),
    )
    .expect("the paper system validates");

    // Algorithm 1: chase to a universal solution (cached by the session,
    // and served by the session it freezes into).
    let sol = session
        .universal_solution()
        .expect("default budgets suffice");
    println!(
        "\n== Algorithm 1 (chase) ==\n  rounds: {}  gma firings: {}  equivalence copies: {}  fresh blanks: {}",
        sol.stats.rounds, sol.stats.gma_firings, sol.stats.eq_copies, sol.stats.blanks_created
    );
    println!(
        "  stored database: {} triples -> universal solution: {} triples",
        stored.len(),
        sol.graph.len()
    );

    // Listing 1, via the SPARQL front-end: the query text compiles
    // once (parse → lower → one prepared conjunctive plan) and
    // executes repeatedly; the result is the same certain answers.
    let session = session.freeze().expect("the chased solution freezes");
    let sparql = session
        .prepare_sparql(EXAMPLE1_SPARQL)
        .expect("Example 1 is inside the supported subset");
    println!(
        "\n== Listing 1: certain answers (SPARQL text, {} lowered plan) ==",
        sparql.plan_count()
    );
    let result = session.execute_sparql(&sparql).expect("executes");
    let rows = result.rows().expect("SELECT yields rows");
    // One flat table: `len` rows of `width` cells, each row a slice.
    assert_eq!(rows.rows.width(), rows.vars.len());
    let tuples: BTreeSet<Vec<Term>> = rows
        .rows
        .iter()
        .map(|r| r.iter().map(|t| t.clone().expect("all bound")).collect())
        .collect();
    for row in &rows.rows {
        let cells: Vec<String> = row
            .iter()
            .map(|t| t.as_ref().expect("all bound").to_string())
            .collect();
        println!("  {}", cells.join("  "));
    }
    assert_eq!(tuples, ex.expected_full);

    // The hand-built conjunctive query takes the identical pipeline
    // and agrees tuple-for-tuple.
    let prepared = session.prepare(&ex.query).expect("prepares");
    let stream = session.execute(&prepared).expect("executes");
    assert_eq!(stream.route(), ExecRoute::Materialised);
    let ans = stream.into_set();
    assert_eq!(ans.tuples, tuples);

    let lean = session
        .answer_without_redundancy(&ex.query)
        .expect("executes");
    println!("\n== Listing 1: result without redundancy ==");
    print!("{}", lean.render());
    assert_eq!(lean.tuples, ex.expected_lean);

    println!("\nAll results match the paper. ✔");
}
