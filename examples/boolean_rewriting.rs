//! Listing 2, executable: deciding a certain answer by Boolean query
//! rewriting.
//!
//! The paper asks whether `(DB1:Toby_Maguire, "39")` is a certain answer
//! of the Example 1 query. Over the stored data the ASK is `false`; after
//! rewriting the triple pattern through the equivalence dependency
//! `tt(foaf:Toby_Maguire, y, z) → tt(DB1:Toby_Maguire, y, z)` the UNION
//! query becomes `true`.
//!
//! Run with: `cargo run --example boolean_rewriting`

use rps_core::RpsRewriter;
use rps_lodgen::paper_example;
use rps_query::{evaluate_boolean, to_sparql, GraphPatternQuery, Query, UnionQuery, Variable};
use rps_rdf::Term;
use rps_tgd::RewriteConfig;

fn main() {
    let ex = paper_example();
    println!("#Original query\n{}\n", ex.query_text);

    // The candidate tuple of Listing 2.
    let tuple = [
        Term::iri(format!("{}Toby_Maguire", rps_lodgen::paper::DB1)),
        Term::literal("39"),
    ];
    println!(
        "#Boolean query: ask if the tuple ({}, {}) is in the result.",
        tuple[0], tuple[1]
    );

    // Substitute the tuple into the free variables -> Boolean query.
    let free = ex.query.free_vars().to_vec();
    let bound = ex
        .query
        .pattern()
        .substitute(&|v: &Variable| free.iter().position(|f| f == v).map(|i| tuple[i].clone()));
    let ask = Query::Ask(UnionQuery::new(vec![], vec![bound.clone()]));
    println!("\n{}", to_sparql(&ask, &ex.prefixes));

    // Over the stored database the ASK is false.
    let stored = ex.system.stored_database();
    let before = evaluate_boolean(&stored, &GraphPatternQuery::boolean(bound.clone()));
    println!("=> {before}   (the paper: false)");
    assert!(!before);

    // Rewrite the Boolean query under the system's dependencies.
    let rw = RpsRewriter::new(&ex.system);
    let rewriting = {
        let boolean = GraphPatternQuery::boolean(bound);
        let r = rw.rewrite(&boolean, &RewriteConfig::default());
        println!(
            "\n#Rewritten query ({} UNION branches, {} CQs explored)",
            r.len(),
            r.explored
        );
        r
    };
    let union = rewriting.to_union_query(&[]);
    // Print a UNION excerpt like Listing 2 (the full union is large).
    let display = Query::Ask(UnionQuery::new(
        vec![],
        union.branches().iter().take(4).cloned().collect(),
    ));
    println!("{} ...", to_sparql(&display, &ex.prefixes));

    let after = union.ask(&stored);
    println!("=> {after}   (the paper: true)");
    assert!(after);

    // And the full decision procedure agrees.
    let decided = rw
        .is_certain_answer(&ex.query, &tuple, &RewriteConfig::default())
        .expect("the tuple has the query's arity");
    assert!(decided);
    println!("\nis_certain_answer(query, (DB1:Toby_Maguire, \"39\")) = {decided} ✔");
}
