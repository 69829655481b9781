//! Query algebra above single graph patterns: unions of conjunctive
//! queries (UCQs), SELECT and ASK forms.
//!
//! The rewriting algorithms of Section 4 produce unions of conjunctive
//! SPARQL queries (Listing 2 rewrites an ASK into a UNION of two ASKs),
//! so the algebra models a query as a *set of branches*, each branch a
//! [`GraphPattern`].

use crate::eval::{evaluate_query, has_match, Semantics};
use crate::pattern::{GraphPattern, GraphPatternQuery, TermOrVar, Variable};
use rps_rdf::{Graph, PrefixMap, Term};
use std::collections::BTreeSet;
use std::fmt;

/// A union of conjunctive queries with a shared head `q(x̄)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UnionQuery {
    free: Vec<Variable>,
    branches: Vec<GraphPattern>,
}

impl UnionQuery {
    /// Creates a UCQ from a head and its branches.
    pub fn new(free: Vec<Variable>, branches: Vec<GraphPattern>) -> Self {
        UnionQuery { free, branches }
    }

    /// A UCQ with a single branch.
    pub fn single(query: GraphPatternQuery) -> Self {
        UnionQuery {
            free: query.free_vars().to_vec(),
            branches: vec![query.pattern().clone()],
        }
    }

    /// The head variables.
    pub fn free_vars(&self) -> &[Variable] {
        &self.free
    }

    /// The branches.
    pub fn branches(&self) -> &[GraphPattern] {
        &self.branches
    }

    /// Number of branches.
    pub fn len(&self) -> usize {
        self.branches.len()
    }

    /// `true` iff the union has no branches (evaluates to the empty set).
    pub fn is_empty(&self) -> bool {
        self.branches.is_empty()
    }

    /// Adds a branch, skipping exact duplicates.
    pub fn add_branch(&mut self, branch: GraphPattern) {
        if !self.branches.contains(&branch) {
            self.branches.push(branch);
        }
    }

    /// The branches as [`GraphPatternQuery`]s sharing this UCQ's head.
    pub fn branch_queries(&self) -> impl Iterator<Item = GraphPatternQuery> + '_ {
        self.branches
            .iter()
            .map(|b| GraphPatternQuery::new(self.free.clone(), b.clone()))
    }

    /// Evaluates the UCQ: the union of the branch answer sets.
    pub fn evaluate(&self, graph: &Graph, semantics: Semantics) -> BTreeSet<Vec<Term>> {
        let mut out = BTreeSet::new();
        for q in self.branch_queries() {
            out.extend(evaluate_query(graph, &q, semantics));
        }
        out
    }

    /// Evaluates the UCQ as a Boolean query (arity 0): true iff some
    /// branch matches.
    pub fn ask(&self, graph: &Graph) -> bool {
        self.branches.iter().any(|b| has_match(graph, b))
    }
}

impl fmt::Display for UnionQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let head: Vec<String> = self.free.iter().map(|v| v.to_string()).collect();
        let body: Vec<String> = self.branches.iter().map(|b| b.to_string()).collect();
        write!(f, "q({}) <- {}", head.join(", "), body.join(" UNION "))
    }
}

/// A top-level UCQ in one of the two SPARQL forms the rewriting emits.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Query {
    /// `SELECT ?x … WHERE { … }` (body may be a UNION of groups).
    Select(UnionQuery),
    /// `ASK { … }` (body may be a UNION of groups).
    Ask(UnionQuery),
}

impl Query {
    /// The underlying UCQ.
    pub fn as_union(&self) -> &UnionQuery {
        match self {
            Query::Select(u) | Query::Ask(u) => u,
        }
    }
}

/// Serialises a query to SPARQL text, shrinking IRIs with `prefixes` —
/// the inverse of [`crate::parse_sparql`] + [`crate::SparqlQuery::lower`]
/// on UCQs (how Listing 2's rewritten ASK is printed).
pub fn to_sparql(query: &Query, prefixes: &PrefixMap) -> String {
    let render_tv = |tv: &TermOrVar| -> String {
        match tv {
            TermOrVar::Term(Term::Iri(iri)) => {
                prefixes.shrink(iri).unwrap_or_else(|| iri.to_string())
            }
            TermOrVar::Term(t) => t.to_string(),
            TermOrVar::Var(v) => v.to_string(),
        }
    };
    let render_branch = |gp: &GraphPattern| -> String {
        let pats: Vec<String> = gp
            .patterns()
            .iter()
            .map(|p| {
                format!(
                    "{} {} {}",
                    render_tv(&p.s),
                    render_tv(&p.p),
                    render_tv(&p.o)
                )
            })
            .collect();
        format!("{{ {} }}", pats.join(" . "))
    };
    let u = query.as_union();
    let body = match u.branches() {
        [single] => render_branch(single),
        branches => {
            let branches: Vec<String> = branches.iter().map(render_branch).collect();
            format!("{{ {} }}", branches.join(" UNION "))
        }
    };
    match query {
        Query::Select(_) => {
            let vars: Vec<String> = u.free_vars().iter().map(|v| v.to_string()).collect();
            format!("SELECT {} WHERE {}", vars.join(" "), body)
        }
        Query::Ask(_) => format!("ASK {body}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::TermOrVar;

    fn graph() -> Graph {
        rps_rdf::turtle::parse(
            "@prefix e: <http://e/> .\n\
             e:a e:p e:b .\n\
             e:c e:q e:d .\n",
        )
        .unwrap()
    }

    fn v(n: &str) -> Variable {
        Variable::new(n)
    }

    #[test]
    fn union_evaluates_all_branches() {
        let g = graph();
        let b1 = GraphPattern::triple(
            TermOrVar::var("x"),
            TermOrVar::iri("http://e/p"),
            TermOrVar::var("y"),
        );
        let b2 = GraphPattern::triple(
            TermOrVar::var("x"),
            TermOrVar::iri("http://e/q"),
            TermOrVar::var("y"),
        );
        let u = UnionQuery::new(vec![v("x"), v("y")], vec![b1, b2]);
        let ans = u.evaluate(&g, Semantics::Certain);
        assert_eq!(ans.len(), 2);
    }

    #[test]
    fn union_dedups_branches() {
        let b = GraphPattern::triple(
            TermOrVar::var("x"),
            TermOrVar::iri("p"),
            TermOrVar::var("y"),
        );
        let mut u = UnionQuery::new(vec![v("x")], vec![b.clone()]);
        u.add_branch(b);
        assert_eq!(u.len(), 1);
    }

    #[test]
    fn ask_short_circuits_branches() {
        let g = graph();
        let dead = GraphPattern::triple(
            TermOrVar::iri("http://e/none"),
            TermOrVar::var("p"),
            TermOrVar::var("o"),
        );
        let live = GraphPattern::triple(
            TermOrVar::var("s"),
            TermOrVar::iri("http://e/q"),
            TermOrVar::var("o"),
        );
        let u = UnionQuery::new(vec![], vec![dead, live]);
        assert!(u.ask(&g));
    }

    #[test]
    fn empty_union_is_false_and_empty() {
        let g = graph();
        let u = UnionQuery::new(vec![v("x")], vec![]);
        assert!(u.is_empty());
        assert!(u.evaluate(&g, Semantics::Star).is_empty());
        assert!(!u.ask(&g));
    }
}
