//! The valid SPARQL corpus, shared by the suites that sweep it:
//! `sparql_corpus.rs` (parse, lower, execute, plan keys, mutations) and
//! `sparql_shapes.rs` (every query re-rendered with fresh constants,
//! bound into its shape's template ≡ parsed and lowered).

/// Valid corpus: one query per supported grammar feature, plus
/// combinations. All must parse, lower and execute without error.
pub const CORPUS: &[&str] = &[
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
    // `<` opens an IRI only up to a character IRIREF excludes: here
    // both `<` and `>` compare.
    "SELECT ?a WHERE { ?a <http://c/p> ?b . ?c <http://c/q> ?d FILTER(?a<?b||?c>?d) }",
];
