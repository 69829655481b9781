//! The Datalog route (paper Section 5, future-work item 1): for systems
//! whose graph mapping assertions are *full* (no existential variables in
//! the conclusion after pairing with the premise), the mapping
//! dependencies form a Datalog program. Certain answers are then computed
//! by a semi-naive fixpoint over the (equivalence-quotiented) sources —
//! covering exactly the systems Proposition 3 puts beyond FO rewriting,
//! such as transitive closure.

use crate::answers::AnswerSet;
use crate::encode::{graph_as_tt, mapping_tgds_unguarded, tt_as_graph, Encoder};
use crate::equivalence::{canonicalize_graph, canonicalize_query, ClassTable, EquivalenceIndex};
use crate::session::{ExecRoute, GraphHandle, Plan};
use crate::system::RdfPeerSystem;
use rps_query::{GraphPatternQuery, JoinOrder, Semantics};
use rps_rdf::Graph;
use rps_tgd::{DatalogError, Program};
use std::sync::Arc;

/// A Datalog evaluator for one system: the least model of the
/// (equivalence-quotiented) sources under the mapping program, computed
/// once at construction, decoded into a sealed [`Graph`] and immutable
/// afterwards, so [`DatalogEngine::answers`] takes `&self` from any
/// number of threads and a query is one id-level plan over that graph.
pub struct DatalogEngine {
    /// The least model of the canonical sources. Facts that are not RDF
    /// triples (a literal subject, a non-IRI predicate) are left out, as
    /// the chase refuses to derive them.
    model: Arc<Graph>,
    /// The equivalence classes as ids of `model`'s dictionary.
    classes: Arc<ClassTable>,
    index: Arc<EquivalenceIndex>,
    /// Derivation rounds of the fixpoint run.
    pub rounds: usize,
}

impl DatalogEngine {
    /// Compiles a system into a Datalog engine and saturates it.
    ///
    /// Fails with [`DatalogError::NotFull`] if some graph mapping
    /// assertion's conclusion has existential variables — those need the
    /// chase (labelled nulls), not Datalog.
    pub fn new(system: &RdfPeerSystem) -> Result<Self, DatalogError> {
        let index = EquivalenceIndex::from_mappings(system.equivalences());
        Self::with_index(system, Arc::new(index))
    }

    /// [`Self::new`] over an equivalence index the caller already built
    /// from `system.equivalences()`.
    pub fn with_index(
        system: &RdfPeerSystem,
        index: Arc<EquivalenceIndex>,
    ) -> Result<Self, DatalogError> {
        let mut encoder = Encoder::new();
        let program = Program::compile(&mapping_tgds_unguarded(system, &index, &mut encoder))?;
        let canon_graph = canonicalize_graph(&system.stored_database(), &index);
        let (saturated, rounds) = program.fixpoint(graph_as_tt(&canon_graph, &mut encoder));
        let mut model = tt_as_graph(&saturated, &encoder);
        let classes = Arc::new(ClassTable::intern(&index, &mut model));
        model.seal();
        Ok(DatalogEngine {
            model: Arc::new(model),
            classes,
            index,
            rounds,
        })
    }

    /// The execution plan of a query: one branch over the least model,
    /// answers expanded over the equivalence classes.
    pub(crate) fn plan(&self, query: &GraphPatternQuery) -> Plan {
        Plan::single(
            GraphHandle::Quotient(self.model.clone()),
            &canonicalize_query(query, &self.index),
            JoinOrder::Auto,
            Some(self.classes.clone()),
        )
    }

    /// Certain answers of a query: evaluate over the least model, expand
    /// over equivalence classes.
    pub fn answers(&self, query: &GraphPatternQuery) -> AnswerSet {
        let vars = crate::session::stream_vars(query);
        self.plan(query)
            .execute(vars, ExecRoute::Datalog, Semantics::Certain)
            .into_set()
    }

    /// Number of facts in the least model.
    pub fn model_size(&self) -> usize {
        self.model.len()
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
            Err(DatalogError::NotFull { .. })
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
}
