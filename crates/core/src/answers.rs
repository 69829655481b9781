//! Certain answers over universal solutions, and the redundancy
//! elimination shown at the bottom of Listing 1.

use crate::chase::UniversalSolution;
use crate::equivalence::EquivalenceIndex;
use rps_query::{evaluate_query, GraphPatternQuery, Semantics, UnionQuery};
use rps_rdf::Term;
use std::collections::{BTreeMap, BTreeSet};

/// Answer tuples of a query against an RPS.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AnswerSet {
    /// Free-variable names, in projection order.
    pub vars: Vec<String>,
    /// The certain answers (never contain blank nodes).
    pub tuples: BTreeSet<Vec<Term>>,
}

impl AnswerSet {
    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// `true` iff there are no answers.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Removes redundancy induced by equivalence classes (the "Result
    /// without redundancy" of Listing 1): among tuples that are equal
    /// position-wise up to `≡ₑ`, only the lexicographically least
    /// representative is kept.
    pub fn without_redundancy(&self, index: &EquivalenceIndex) -> AnswerSet {
        let mut best: BTreeMap<Vec<Term>, Vec<Term>> = BTreeMap::new();
        for tuple in &self.tuples {
            let key: Vec<Term> = tuple.iter().map(|t| index.canonical_term(t)).collect();
            match best.get(&key) {
                Some(existing) if existing <= tuple => {}
                _ => {
                    best.insert(key, tuple.clone());
                }
            }
        }
        AnswerSet {
            vars: self.vars.clone(),
            tuples: best.into_values().collect(),
        }
    }

    /// Renders the answers as a simple aligned table (for examples).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(
            &self
                .vars
                .iter()
                .map(|v| format!("?{v}"))
                .collect::<Vec<_>>()
                .join("\t"),
        );
        out.push('\n');
        for tuple in &self.tuples {
            let row: Vec<String> = tuple.iter().map(|t| t.to_string()).collect();
            out.push_str(&row.join("\t"));
            out.push('\n');
        }
        out
    }
}

/// Evaluates a graph pattern query over a universal solution, yielding
/// the certain answers (Definition 3 + the observation that evaluating
/// `Q_J` drops blank-node tuples automatically).
pub fn certain_answers(solution: &UniversalSolution, query: &GraphPatternQuery) -> AnswerSet {
    let tuples = evaluate_query(&solution.graph, query, Semantics::Certain);
    AnswerSet {
        vars: query
            .free_vars()
            .iter()
            .map(|v| v.name().to_string())
            .collect(),
        tuples,
    }
}

/// Evaluates a UCQ over a universal solution (certain semantics).
pub fn certain_answers_union(solution: &UniversalSolution, query: &UnionQuery) -> AnswerSet {
    let tuples = query.evaluate(&solution.graph, Semantics::Certain);
    AnswerSet {
        vars: query
            .free_vars()
            .iter()
            .map(|v| v.name().to_string())
            .collect(),
        tuples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::RpsChaseStats;
    use crate::mapping::EquivalenceMapping;
    use rps_rdf::Iri;

    fn solution(turtle: &str) -> UniversalSolution {
        UniversalSolution {
            graph: rps_rdf::turtle::parse(turtle).unwrap(),
            stats: RpsChaseStats::default(),
            complete: true,
        }
    }

    fn q_subject() -> GraphPatternQuery {
        GraphPatternQuery::new(
            vec![rps_query::Variable::new("x")],
            rps_query::GraphPattern::triple(
                rps_query::TermOrVar::var("x"),
                rps_query::TermOrVar::iri("p"),
                rps_query::TermOrVar::var("y"),
            ),
        )
    }

    #[test]
    fn blanks_never_appear() {
        let sol = solution("<a> <p> <o> .\n_:b <p> <o> .");
        let ans = certain_answers(&sol, &q_subject());
        assert_eq!(ans.len(), 1);
        assert!(ans.tuples.contains(&vec![Term::iri("a")]));
    }

    #[test]
    fn redundancy_elimination_keeps_least_member() {
        let sol = solution("<a> <p> <o> .\n<b> <p> <o> .\n<z> <p> <o> .");
        let ans = certain_answers(&sol, &q_subject());
        assert_eq!(ans.len(), 3);
        let index = EquivalenceIndex::from_mappings(&[EquivalenceMapping::new(
            Iri::new("a"),
            Iri::new("b"),
        )]);
        let lean = ans.without_redundancy(&index);
        assert_eq!(lean.len(), 2);
        assert!(lean.tuples.contains(&vec![Term::iri("a")]));
        assert!(!lean.tuples.contains(&vec![Term::iri("b")]));
        assert!(lean.tuples.contains(&vec![Term::iri("z")]));
    }

    #[test]
    fn render_is_tab_separated() {
        let sol = solution("<a> <p> <o> .");
        let ans = certain_answers(&sol, &q_subject());
        let text = ans.render();
        assert!(text.starts_with("?x\n"));
        assert!(text.contains("<a>"));
    }

    #[test]
    fn union_answers() {
        let sol = solution("<a> <p> <o> .\n<b> <q> <o> .");
        let u = rps_query::UnionQuery::new(
            vec![rps_query::Variable::new("x")],
            vec![
                rps_query::GraphPattern::triple(
                    rps_query::TermOrVar::var("x"),
                    rps_query::TermOrVar::iri("p"),
                    rps_query::TermOrVar::var("y"),
                ),
                rps_query::GraphPattern::triple(
                    rps_query::TermOrVar::var("x"),
                    rps_query::TermOrVar::iri("q"),
                    rps_query::TermOrVar::var("y"),
                ),
            ],
        );
        let ans = certain_answers_union(&sol, &u);
        assert_eq!(ans.len(), 2);
    }
}
