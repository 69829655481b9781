//! The Datalog route (paper Section 5, future-work item 1): for systems
//! whose graph mapping assertions are *full* (no existential variables in
//! the conclusion), the mapping dependencies form a Datalog program, and
//! Algorithm 1 computes exactly its least model — covering the systems
//! Proposition 3 puts beyond FO rewriting, such as transitive closure.
//! The route is that chase, run over the equivalence quotient
//! (`chase::chase_quotient`): certain answers are one id-level plan over the
//! quotient model, expanded over the equivalence classes.

use crate::answers::AnswerSet;
use crate::chase::{chase_quotient, RpsChaseConfig, UniversalSolution};
use crate::equivalence::{ClassTable, EquivalenceIndex};
use crate::error::RpsError;
use crate::session::{Chased, ExecRoute, Plan};
use crate::system::RdfPeerSystem;
use rps_query::{GraphPatternQuery, Semantics};
use std::sync::Arc;

/// Why a system cannot take the Datalog route.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DatalogError {
    /// A graph mapping assertion's conclusion has existential variables.
    NotFull {
        /// Index of the offending assertion (its TGD in the Section 3
        /// encoding).
        tgd: usize,
    },
}

impl std::fmt::Display for DatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatalogError::NotFull { tgd } => {
                write!(f, "TGD #{tgd} has existential variables; not Datalog")
            }
        }
    }
}

impl std::error::Error for DatalogError {}

/// A Datalog evaluator for one system: the least model of the
/// (equivalence-quotiented) sources under the mapping program, chased
/// once at construction, sealed and immutable afterwards, so
/// [`DatalogEngine::answers`] takes `&self` from any number of threads
/// and a query is one id-level plan over that model.
pub struct DatalogEngine {
    /// The chase of the quotient. An instantiation that is not an RDF
    /// triple (a literal subject, a non-IRI predicate) is never derived.
    solution: Arc<UniversalSolution>,
    /// The equivalence classes as ids of the model's dictionary.
    classes: Arc<ClassTable>,
    index: Arc<EquivalenceIndex>,
}

impl DatalogEngine {
    /// Chases a system's quotient to its least model under the default
    /// budgets.
    ///
    /// Fails with [`DatalogError::NotFull`] (as [`RpsError::NotDatalog`])
    /// if some graph mapping assertion's conclusion has existential
    /// variables — those invent labelled nulls, which no Datalog program
    /// does.
    pub fn new(system: &RdfPeerSystem) -> Result<Self, RpsError> {
        let index = EquivalenceIndex::from_mappings(system.equivalences());
        Self::with_index(system, Arc::new(index), &RpsChaseConfig::default())
    }

    /// [`Self::new`] over an equivalence index the caller already built
    /// from `system.equivalences()`, under the caller's budgets:
    /// [`RpsError::ChaseBudget`] when they run out before the fixpoint.
    pub(crate) fn with_index(
        system: &RdfPeerSystem,
        index: Arc<EquivalenceIndex>,
        chase: &RpsChaseConfig,
    ) -> Result<Self, RpsError> {
        let mut conclusions = system.assertions().iter().map(|gma| &gma.conclusion);
        if let Some(tgd) = conclusions.position(|c| !c.existential_vars().is_empty()) {
            return Err(DatalogError::NotFull { tgd }.into());
        }
        let (solution, classes) = chase_quotient(system, &index, chase);
        if !solution.complete {
            return Err(RpsError::ChaseBudget {
                rounds: solution.stats.rounds,
                triples: solution.graph.len(),
            });
        }
        Ok(DatalogEngine {
            solution: Arc::new(solution),
            classes: Arc::new(classes),
            index,
        })
    }

    /// The model and its class table, as a plan's substrate.
    pub(crate) fn chased(&self) -> Chased {
        (self.solution.clone(), Some(self.classes.clone()))
    }

    /// Certain answers of a query: evaluate over the least model, expand
    /// over equivalence classes.
    pub fn answers(&self, query: &GraphPatternQuery) -> AnswerSet {
        let vars = crate::session::stream_vars(query);
        Plan::chased(self.chased(), &self.index, query)
            .execute(vars, ExecRoute::Datalog, Semantics::Certain)
            .into_set()
    }

    /// The chase behind the engine: its graph is the least model over
    /// the quotient (no triple holds a non-canonical IRI), its statistics
    /// are the run's.
    pub fn solution(&self) -> &UniversalSolution {
        &self.solution
    }
}

/// Crate-internal test fixtures: the transitive-closure chain system
/// (the Proposition 3 workload) reimplemented locally to avoid a
/// dev-dependency cycle with `rps-lodgen`. Shared by this module's tests
/// and the [`crate::session`] tests.
#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;
    use crate::peer::Peer;
    use rps_query::{GraphPattern, TermOrVar, Variable};
    use rps_rdf::Term;

    pub(crate) fn transitive_system(len: usize) -> RdfPeerSystem {
        let pred = Term::iri("http://c/A");
        let node = |i: usize| Term::iri(format!("http://c/n{i}"));
        let mut g = rps_rdf::Graph::new();
        for i in 0..len {
            g.insert_terms(node(i), pred.clone(), node(i + 1)).unwrap();
        }
        let mut sys = RdfPeerSystem::new();
        let p = sys.add_peer(Peer::from_database("chain", g));
        let premise = GraphPatternQuery::new(
            vec![Variable::new("x"), Variable::new("y")],
            GraphPattern::triple(
                TermOrVar::var("x"),
                TermOrVar::Term(pred.clone()),
                TermOrVar::var("z"),
            )
            .and(GraphPattern::triple(
                TermOrVar::var("z"),
                TermOrVar::Term(pred.clone()),
                TermOrVar::var("y"),
            )),
        );
        let conclusion = GraphPatternQuery::new(
            vec![Variable::new("x"), Variable::new("y")],
            GraphPattern::triple(
                TermOrVar::var("x"),
                TermOrVar::Term(pred),
                TermOrVar::var("y"),
            ),
        );
        sys.add_assertion(
            crate::mapping::GraphMappingAssertion::new(p, p, premise, conclusion).unwrap(),
        );
        sys
    }

    pub(crate) fn edge_query() -> GraphPatternQuery {
        GraphPatternQuery::new(
            vec![Variable::new("x"), Variable::new("y")],
            GraphPattern::triple(
                TermOrVar::var("x"),
                TermOrVar::iri("http://c/A"),
                TermOrVar::var("y"),
            ),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::{edge_query, transitive_system as tc_system};
    use super::*;
    use crate::chase::{chase_system, RpsChaseConfig};
    use crate::PeerId;
    use rps_rdf::Term;

    #[test]
    fn datalog_equals_chase_on_transitive_closure() {
        let sys = tc_system(10);
        let engine = DatalogEngine::new(&sys).expect("full TGDs");
        let datalog = engine.answers(&edge_query());
        let sol = chase_system(&sys, &RpsChaseConfig::default());
        let chased = crate::answers::certain_answers(&sol, &edge_query());
        assert_eq!(datalog.tuples, chased.tuples);
        assert_eq!(datalog.len(), 55); // 11 choose 2
    }

    #[test]
    fn existential_systems_are_rejected() {
        use rps_query::{GraphPattern, TermOrVar, Variable};
        let mut sys = tc_system(3);
        // Add a hub-style assertion with an existential conclusion var.
        let premise = GraphPatternQuery::new(
            vec![Variable::new("x"), Variable::new("y")],
            GraphPattern::triple(
                TermOrVar::var("x"),
                TermOrVar::iri("http://c/A"),
                TermOrVar::var("y"),
            ),
        );
        let conclusion = GraphPatternQuery::new(
            vec![Variable::new("x"), Variable::new("y")],
            GraphPattern::triple(
                TermOrVar::var("x"),
                TermOrVar::iri("http://c/B"),
                TermOrVar::var("z"),
            )
            .and(GraphPattern::triple(
                TermOrVar::var("z"),
                TermOrVar::iri("http://c/C"),
                TermOrVar::var("y"),
            )),
        );
        sys.add_assertion(
            crate::mapping::GraphMappingAssertion::new(PeerId(0), PeerId(0), premise, conclusion)
                .unwrap(),
        );
        assert!(matches!(
            DatalogEngine::new(&sys),
            Err(RpsError::NotDatalog(DatalogError::NotFull { .. }))
        ));
    }

    #[test]
    fn equivalences_are_quotiented() {
        let mut sys = tc_system(4);
        sys.add_equivalence(crate::mapping::EquivalenceMapping::new(
            rps_rdf::Iri::new("http://c/n0"),
            rps_rdf::Iri::new("http://c/alias"),
        ));
        let engine = DatalogEngine::new(&sys).unwrap();
        let ans = engine.answers(&edge_query());
        // alias inherits all of n0's closure edges.
        assert!(ans
            .tuples
            .contains(&vec![Term::iri("http://c/alias"), Term::iri("http://c/n4")]));
    }

    #[test]
    fn literal_subject_conclusions_are_never_joined_on() -> Result<(), RpsError> {
        use crate::system::RpsBuilder;
        use rps_query::{GraphPattern, TermOrVar, Variable};
        // `(x p y) ⇝ (y q x)` would put the literal in subject position;
        // `(x q y) ⇝ (y r y)` would then derive a valid triple from that
        // non-triple.
        let cq = |head: &[&str], s: &str, p: &str, o: &str| {
            GraphPatternQuery::new(
                head.iter().map(|v| Variable::new(*v)).collect(),
                GraphPattern::triple(TermOrVar::var(s), TermOrVar::iri(p), TermOrVar::var(o)),
            )
        };
        let (xy, y) = (["x", "y"], ["y"]);
        let mut a = PeerId(0);
        let sys = RpsBuilder::new()
            .peer_turtle("A", "<http://s> <http://p> \"lit\" .", &mut a)?
            .assertion(
                a,
                a,
                cq(&xy, "x", "http://p", "y"),
                cq(&xy, "y", "http://q", "x"),
            )?
            .assertion(
                a,
                a,
                cq(&y, "x", "http://q", "y"),
                cq(&y, "y", "http://r", "y"),
            )?
            .build();
        let engine = DatalogEngine::new(&sys)?;
        assert_eq!(engine.solution.stats.invalid_firings, 1);
        assert_eq!(engine.solution.graph.len(), 1);
        assert!(engine.answers(&cq(&xy, "x", "http://r", "y")).is_empty());
        Ok(())
    }
}
