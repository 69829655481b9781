//! A SPARQL front-end for the SELECT/ASK subset the engine executes.
//!
//! The paper's query language is conjunctive SPARQL plus UNION
//! (Section 2.1), and everything below the surface — prepare/execute,
//! plan caching, the chase and rewriting routes, federation — speaks
//! conjunctive queries. This module closes the gap to actual SPARQL
//! text:
//!
//! ```text
//! query     := prologue ( select | ask )
//! prologue  := ( PREFIX pname: <iri> | BASE <iri> )*
//! select    := SELECT [DISTINCT|REDUCED] ( ?v+ | * ) [WHERE] ggp modifiers
//! ask       := ASK [WHERE] ggp
//! ggp       := '{' ( triples | FILTER constraint
//!                  | OPTIONAL sgp | sgp (UNION sgp)* )* '}'
//! sgp       := '{' ( triples | FILTER constraint )* '}'
//! constraint:= '(' expr ')' | bound(?v)
//! expr      := expr '||' expr | expr '&&' expr | '!' expr | '(' expr ')'
//!            | operand ( '=' | '!=' | '<' | '<=' | '>' | '>=' ) operand
//!            | bound(?v)
//! modifiers := [ORDER BY ( ?v | ASC(?v) | DESC(?v) )+] [LIMIT n] [OFFSET n]
//! ```
//!
//! The subset is *structural*: OPTIONAL bodies and UNION alternatives
//! are triples + filters only, so every query lowers exactly to a
//! union of conjunctive plans plus an assembly tail (left joins,
//! filters, projection, ordering) that runs on term ids and is shared
//! by all routes. Queries
//! outside the subset are rejected at parse time with a typed,
//! span-carrying [`SparqlError`] — never a panic, never a silently
//! dropped clause.
//!
//! Entry points: [`parse_sparql`] text → [`SparqlQuery`] AST,
//! [`SparqlQuery::lower`] AST → [`LoweredSparql`] conjunctive plans,
//! [`LoweredSparql::assemble_ids`] id rows + their dictionary →
//! [`SparqlResult`] ([`LoweredSparql::assemble`] takes term tuples and
//! interns them first). [`shape`] keys a text on its tokens with the
//! constants numbered, and makes a [`SparqlTemplate`] a text of the
//! same shape binds into without being parsed or lowered. The
//! session façades in `rps-core` and `rps-p2p` wrap these around their
//! own prepare/execute pipelines.

mod exec;
mod lex;
mod lower;
mod parse;
pub mod shape;

pub use lower::{LoweredSparql, RowIter, Rows, SparqlResult, SparqlRows};
pub use parse::{
    parse_sparql, CmpOp, FilterExpr, Operand, OrderKey, Projection, QueryForm, SimpleGroup,
    SparqlQuery,
};
pub use shape::{SparqlShape, SparqlTemplate};

use std::fmt;

/// A SPARQL front-end error: what went wrong and where.
///
/// `span` is the half-open byte range of the offending token in the
/// query text; `line`/`col` are 1-based and point at its first
/// character. Every malformed query is reported through this type —
/// the front-end never panics on input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparqlError {
    /// What was wrong.
    pub message: String,
    /// Byte range of the offending token in the source text.
    pub span: (usize, usize),
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column.
    pub col: usize,
}

impl fmt::Display for SparqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SPARQL parse error at line {}, column {}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for SparqlError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Semantics;
    use rps_rdf::{PrefixMap, Term};

    fn base() -> PrefixMap {
        let mut m = PrefixMap::common();
        m.insert("e", "http://e/");
        m
    }

    fn graph() -> rps_rdf::Graph {
        rps_rdf::turtle::parse(
            "@prefix e: <http://e/> .\n\
             e:alice e:age \"31\" ; e:knows e:bob .\n\
             e:bob e:age \"25\" .\n\
             e:carol e:age \"40\" ; e:nick \"cc\" .\n",
        )
        .unwrap()
    }

    fn run(src: &str) -> SparqlResult {
        let q = parse_sparql(src, &base()).expect("parse");
        q.lower().evaluate(&graph(), Semantics::Certain)
    }

    #[test]
    fn select_basic() {
        let r = run("SELECT ?x WHERE { ?x e:age ?a }");
        let rows = r.rows().unwrap();
        assert_eq!(rows.vars, ["x"]);
        assert_eq!(rows.rows.len(), 3);
    }

    #[test]
    fn select_star_projects_first_occurrence_order() {
        let r = run("SELECT * WHERE { ?x e:knows ?y . ?y e:age ?a }");
        let rows = r.rows().unwrap();
        assert_eq!(rows.vars, ["x", "y", "a"]);
        assert_eq!(rows.rows.len(), 1);
    }

    #[test]
    fn optional_keeps_unmatched_rows_unbound() {
        let r = run("SELECT ?x ?n WHERE { ?x e:age ?a OPTIONAL { ?x e:nick ?n } }");
        let rows = r.rows().unwrap();
        assert_eq!(rows.rows.len(), 3);
        let bound: Vec<_> = rows.rows.iter().filter(|r| r[1].is_some()).collect();
        assert_eq!(bound.len(), 1);
        assert_eq!(bound[0][0], Some(Term::iri("http://e/carol")));
        assert_eq!(bound[0][1], Some(Term::literal("cc")));
    }

    #[test]
    fn filter_comparisons_are_numeric_aware() {
        let r = run("SELECT ?x WHERE { ?x e:age ?a FILTER(?a > \"30\") }");
        let rows = r.rows().unwrap();
        // "25" < "30" numerically even though "25" < "30" also as a
        // string; "31" > "30" numerically but NOT as a string — the
        // numeric comparison must win.
        assert_eq!(rows.rows.len(), 2);
    }

    #[test]
    fn filter_bound_and_negation() {
        let r = run("SELECT ?x WHERE { ?x e:age ?a OPTIONAL { ?x e:nick ?n } FILTER(!bound(?n)) }");
        assert_eq!(r.rows().unwrap().rows.len(), 2);
    }

    #[test]
    fn filter_logical_connectives() {
        let r = run(
            "SELECT ?x WHERE { ?x e:age ?a FILTER(?a < \"26\" || (?a >= \"40\" && ?a <= \"41\")) }",
        );
        assert_eq!(r.rows().unwrap().rows.len(), 2);
    }

    #[test]
    fn order_by_desc_limit_offset() {
        let r = run("SELECT ?x ?a WHERE { ?x e:age ?a } ORDER BY DESC(?a) LIMIT 2 OFFSET 1");
        let rows = r.rows().unwrap();
        assert_eq!(rows.rows.len(), 2);
        assert_eq!(rows.rows[0][1], Some(Term::literal("31")));
        assert_eq!(rows.rows[1][1], Some(Term::literal("25")));
    }

    #[test]
    fn ask_union() {
        let t = run("ASK { { e:alice e:knows ?x } UNION { e:alice e:hates ?x } }");
        assert_eq!(t.boolean(), Some(true));
        let f = run("ASK { { e:bob e:knows ?x } UNION { e:alice e:hates ?x } }");
        assert_eq!(f.boolean(), Some(false));
    }

    #[test]
    fn union_select_merges_branches() {
        let r = run("SELECT ?x WHERE { { ?x e:nick \"cc\" } UNION { ?x e:knows e:bob } }");
        let rows = r.rows().unwrap();
        assert_eq!(rows.rows.len(), 2);
    }

    #[test]
    fn distinct_is_accepted() {
        let r = run("SELECT DISTINCT ?a WHERE { ?x e:age ?a }");
        assert_eq!(r.rows().unwrap().rows.len(), 3);
    }

    #[test]
    fn prologue_prefix_and_base() {
        let q = parse_sparql(
            "BASE <http://e/> PREFIX p: <http://e/> SELECT ?x { <alice> p:age ?x }",
            &PrefixMap::new(),
        )
        .unwrap();
        let r = q.lower().evaluate(&graph(), Semantics::Certain);
        assert_eq!(r.rows().unwrap().rows.len(), 1);
    }

    /// The base map is borrowed, not copied: a query's own declarations
    /// shadow it (and each other, latest wins) for that parse only.
    #[test]
    fn query_prefixes_shadow_the_borrowed_base() {
        let base = base();
        let count = |src: &str| {
            let lowered = parse_sparql(src, &base).expect("parse").lower();
            let result = lowered.evaluate(&graph(), Semantics::Certain);
            result.rows().unwrap().rows.len()
        };
        assert_eq!(
            count("PREFIX e: <http://other/> SELECT ?x { ?x e:age ?a }"),
            0
        );
        assert_eq!(
            count("PREFIX e: <http://other/> PREFIX e: <http://e/> SELECT ?x { ?x e:age ?a }"),
            3
        );
        assert_eq!(count("SELECT ?x { ?x e:age ?a }"), 3);
        assert!(parse_sparql("SELECT ?x { ?x nope:age ?a }", &base).is_err());
    }

    #[test]
    fn errors_carry_spans_and_positions() {
        let src = "SELECT ?x WHERE { ?x e:age }";
        let err = parse_sparql(src, &base()).unwrap_err();
        assert!(err.message.contains("expected an object"), "{err}");
        assert_eq!(&src[err.span.0..err.span.1], "}");
        assert_eq!(err.line, 1);
        assert!(err.col > 1);
    }

    #[test]
    fn structural_restrictions_are_typed_errors() {
        for (src, needle) in [
            (
                "SELECT ?x { ?x e:p ?y OPTIONAL { OPTIONAL { ?x e:q ?z } } }",
                "OPTIONAL cannot nest",
            ),
            (
                "SELECT ?x { OPTIONAL { ?x e:q ?z } }",
                "at least one triple",
            ),
            (
                "ASK { { ?x e:p ?y } UNION { OPTIONAL { ?x e:q ?z } } }",
                "OPTIONAL cannot nest",
            ),
            ("SELECT ?x { }", "at least one triple"),
            (
                "SELECT ?x { ?x e:p ?y } ORDER BY ?z",
                "must appear in the SELECT list",
            ),
            ("ASK { ?x e:p ?y } ORDER BY ?x", "no ORDER BY"),
            ("SELECT { ?x e:p ?y }", "variable list or '*'"),
            ("SELECT ?x { ?x e:p ?y FILTER(?y) }", "comparison operator"),
            ("SELECT ?x { ?x e:p \"unterminated }", "unterminated"),
            ("SELECT ?x { ?x nope:q ?y }", "unknown prefix"),
        ] {
            let err = parse_sparql(src, &base()).unwrap_err();
            assert!(
                err.message.contains(needle),
                "{src:?} => {:?} (wanted {needle:?})",
                err.message
            );
        }
    }

    #[test]
    fn lowering_minimises_heads() {
        let q = parse_sparql(
            "SELECT ?x WHERE { ?x e:knows ?y . ?y e:age ?a FILTER(?a > \"20\") }",
            &base(),
        )
        .unwrap();
        let lowered = q.lower();
        let queries = lowered.queries();
        assert_eq!(queries.len(), 1);
        // ?y joins internally but is neither projected nor filtered, so
        // the base head keeps only ?x and ?a.
        let head: Vec<_> = queries[0].free_vars().iter().map(|v| v.name()).collect();
        assert_eq!(head.len(), 2);
        assert!(head.contains(&"x") && head.contains(&"a"));
    }

    #[test]
    fn optional_join_var_survives_head_minimisation() {
        // ?y is neither projected, filtered nor sorted, but it is the
        // left-join key between the base BGP and the OPTIONAL. If head
        // minimisation dropped it, the two bindings of ?y would
        // collapse into one base row before the join and the
        // unmatched-OPTIONAL row would be lost.
        let g = rps_rdf::turtle::parse(
            "@prefix e: <http://e/> .\n\
             e:x1 e:p e:y1 .\n\
             e:x1 e:p e:y2 .\n\
             e:y1 e:q \"n1\" .\n",
        )
        .unwrap();
        let q = parse_sparql(
            "SELECT ?x ?n WHERE { ?x e:p ?y OPTIONAL { ?y e:q ?n } }",
            &base(),
        )
        .unwrap();
        let lowered = q.lower();
        for cq in lowered.queries() {
            assert!(
                cq.free_vars().iter().any(|v| v.name() == "y"),
                "join variable ?y must survive head minimisation"
            );
        }
        let r = lowered.evaluate(&g, Semantics::Certain);
        let rows = r.rows().unwrap().rows.to_vecs();
        assert_eq!(rows.len(), 2, "one matched and one unmatched row");
        assert!(rows.contains(&vec![
            Some(Term::iri("http://e/x1")),
            Some(Term::literal("n1"))
        ]));
        assert!(rows.contains(&vec![Some(Term::iri("http://e/x1")), None]));
    }

    #[test]
    fn filter_type_errors_propagate_through_negation() {
        // ?n is unbound for alice and bob, so ?n = "x" is a type
        // error; the error propagates through ! and the FILTER removes
        // the row. Only carol binds ?n ("cc" != "x" → !false → true).
        let r =
            run("SELECT ?x WHERE { ?x e:age ?a OPTIONAL { ?x e:nick ?n } FILTER(!(?n = \"x\")) }");
        let rows = &r.rows().unwrap().rows;
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Some(Term::iri("http://e/carol")));
        // At an || the error is masked by a true branch but survives a
        // false one.
        let masked = run("SELECT ?x WHERE { ?x e:age ?a OPTIONAL { ?x e:nick ?n } \
             FILTER(!(?n = \"x\") || ?a > \"0\") }");
        assert_eq!(masked.rows().unwrap().rows.len(), 3);
        let surviving = run("SELECT ?x WHERE { ?x e:age ?a OPTIONAL { ?x e:nick ?n } \
             FILTER(!(?n = \"x\") || ?a < \"0\") }");
        assert_eq!(surviving.rows().unwrap().rows.len(), 1);
    }

    #[test]
    fn assemble_matches_direct_evaluation_shape() {
        let q = parse_sparql("SELECT ?x { ?x e:age ?a } LIMIT 1", &base()).unwrap();
        let lowered = q.lower();
        let g = graph();
        let answers: Vec<_> = lowered
            .queries()
            .into_iter()
            .map(|cq| crate::eval::evaluate_query(&g, cq, Semantics::Certain))
            .collect();
        assert_eq!(
            lowered.assemble(&answers),
            lowered.evaluate(&g, Semantics::Certain)
        );
    }
}
