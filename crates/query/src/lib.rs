//! # rps-query — graph pattern queries over RDF
//!
//! Implements the query language of Section 2.1 of *Peer-to-Peer Semantic
//! Integration of Linked Data*: graph patterns (conjunctions of triple
//! patterns over `(I ∪ L ∪ V) × (I ∪ V) × (I ∪ L ∪ V)`), graph pattern
//! queries `q(x̄) ← GP`, and the two result semantics `Q_D` (blank nodes
//! dropped — certain-answer eligible) and `Q*_D` (blank nodes kept — used
//! by the equivalence-mapping conditions of Definition 2).
//!
//! * [`pattern`] — [`Variable`], [`TermOrVar`], [`TriplePattern`],
//!   [`GraphPattern`], [`GraphPatternQuery`] (including the `subjQ` /
//!   `predQ` / `objQ` star queries of Section 2.3);
//! * [`binding`] — mappings `µ` and the compatible-join semantics;
//! * [`eval`] — the index-nested-loop evaluator with greedy join ordering;
//! * [`algebra`] — unions of conjunctive queries (the output language of
//!   the Section 4 rewriting), SELECT/ASK forms, and their SPARQL
//!   pretty-printer [`to_sparql`];
//! * [`sparql`] — the SPARQL front-end (SELECT/ASK with OPTIONAL,
//!   UNION, FILTER, DISTINCT, ORDER BY, LIMIT/OFFSET), lowered onto the
//!   conjunctive engine — the only parser.

#![warn(missing_docs)]

pub mod algebra;
pub mod binding;
pub mod eval;
#[cfg(test)]
mod parser;
pub mod pattern;
pub mod sparql;

pub use algebra::{to_sparql, Query, UnionQuery};
pub use binding::{join, Mapping};
pub use eval::{
    evaluate_boolean, evaluate_pattern, evaluate_query, has_match, has_match_with, IdRows,
    PlanSlot, PreparedPattern, PreparedQueryIds, RowSink, ScanPerm, Semantics,
};
pub use pattern::{GraphPattern, GraphPatternQuery, TermOrVar, TriplePattern, Variable};
pub use sparql::{
    parse_sparql, LoweredSparql, Rows, SparqlError, SparqlQuery, SparqlResult, SparqlRows,
};
