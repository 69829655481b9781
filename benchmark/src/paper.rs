//! The paper's own example as a fixed point of reference: Figure 1's
//! three sources and Example 2's mappings, against which Listing 1 must
//! return its six rows and Listing 2's ASK must be true before anything
//! is timed.

use crate::ops::render_rows;
use rps_core::{EngineConfig, PeerId, RdfPeerSystem, RpsBuilder, Session, Strategy};
use rps_query::{parse_sparql, GraphPatternQuery, SparqlQuery};
use rps_rdf::PrefixMap;

const PROLOGUE: &str = "PREFIX db1: <http://db1.example.org/> \
    PREFIX db2: <http://db2.example.org/> \
    PREFIX foaf: <http://xmlns.com/foaf/0.1/> \
    PREFIX v: <http://vocab.example.org/> ";

fn turtle(body: &str) -> String {
    format!(
        "@prefix db1: <http://db1.example.org/> .\n\
         @prefix db2: <http://db2.example.org/> .\n\
         @prefix foaf: <http://xmlns.com/foaf/0.1/> .\n\
         @prefix v: <http://vocab.example.org/> .\n\
         @prefix owl: <http://www.w3.org/2002/07/owl#> .\n{body}"
    )
}

fn cq(text: &str) -> GraphPatternQuery {
    let query: SparqlQuery =
        parse_sparql(&format!("{PROLOGUE}{text}"), &PrefixMap::common()).expect("fixed text");
    query.lower().queries()[0].clone()
}

/// Figure 1 and Example 2.
pub fn paper_system() -> RdfPeerSystem {
    let (mut s1, mut s2, mut s3) = (PeerId(0), PeerId(0), PeerId(0));
    RpsBuilder::new()
        .peer_turtle(
            "Source 1",
            &turtle(
                "db1:Spiderman v:starring _:z1 .\n_:z1 v:artist db1:Toby_Maguire .\n\
                 db1:Spiderman v:starring _:z2 .\n_:z2 v:artist db1:Kirsten_Dunst .\n\
                 db1:Spiderman owl:sameAs db2:Spiderman2002 .\n",
            ),
            &mut s1,
        )
        .expect("source 1 parses")
        .peer_turtle(
            "Source 2",
            &turtle(
                "db2:Spiderman2002 v:actor db2:Willem_Dafoe .\n\
                 db2:Pleasantville v:actor _:unknown .\n",
            ),
            &mut s2,
        )
        .expect("source 2 parses")
        .peer_turtle(
            "Source 3",
            &turtle(
                "foaf:Toby_Maguire v:age \"39\" .\nfoaf:Kirsten_Dunst v:age \"32\" .\n\
                 foaf:Willem_Dafoe v:age \"59\" .\n\
                 foaf:Toby_Maguire owl:sameAs db1:Toby_Maguire .\n\
                 foaf:Kirsten_Dunst owl:sameAs db1:Kirsten_Dunst .\n\
                 foaf:Willem_Dafoe owl:sameAs db2:Willem_Dafoe .\n",
            ),
            &mut s3,
        )
        .expect("source 3 parses")
        .assertion(
            s2,
            s1,
            cq("SELECT ?x ?y WHERE { ?x v:actor ?y }"),
            cq("SELECT ?x ?y WHERE { ?x v:starring ?z . ?z v:artist ?y }"),
        )
        .expect("Q2 and Q1 have the same arity")
        .import_same_as()
        .build()
}

/// Runs Listing 1 and Listing 2 through `answer_sparql` under `strategy`.
pub fn check_paper(strategy: Strategy) -> Result<(), String> {
    let frozen = Session::open(
        paper_system(),
        EngineConfig::default().with_strategy(strategy),
    )
    .and_then(Session::freeze)
    .map_err(|e| format!("paper example does not open: {e}"))?;

    let listing1 = format!(
        "{PROLOGUE}SELECT ?x ?y WHERE {{ db1:Spiderman v:starring ?z . ?z v:artist ?x . ?x v:age ?y }}"
    );
    let got = frozen
        .answer_sparql(&listing1)
        .map_err(|e| format!("Listing 1: {e}"))?;
    let row = |ns: &str, who: &str, age: &str| {
        vec![Some(format!("http://{ns}/{who}")), Some(age.to_string())]
    };
    let mut want = vec![
        row("db1.example.org", "Toby_Maguire", "39"),
        row("xmlns.com/foaf/0.1", "Toby_Maguire", "39"),
        row("db1.example.org", "Kirsten_Dunst", "32"),
        row("xmlns.com/foaf/0.1", "Kirsten_Dunst", "32"),
        row("db2.example.org", "Willem_Dafoe", "59"),
        row("xmlns.com/foaf/0.1", "Willem_Dafoe", "59"),
    ];
    want.sort();
    if render_rows(&got) != want {
        return Err(format!("Listing 1 returned {:?}", render_rows(&got)));
    }

    let listing2 = format!(
        "{PROLOGUE}ASK {{ db1:Spiderman v:starring ?z . ?z v:artist db1:Toby_Maguire . \
         db1:Toby_Maguire v:age \"39\" }}"
    );
    match frozen
        .answer_sparql(&listing2)
        .map_err(|e| format!("Listing 2: {e}"))?
        .boolean()
    {
        Some(true) => Ok(()),
        other => Err(format!("Listing 2's ASK answered {other:?}")),
    }
}
