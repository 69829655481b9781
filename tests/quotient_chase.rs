//! `Strategy::Datalog` is Algorithm 1 over the system's quotient by its
//! equivalence mappings, rows expanded over the classes afterwards. This
//! seeded sweep (`RPS_QUOTIENT_SEED`, comma-separated u64 seeds) holds it
//! to the saturating `chase_system` on full systems: the same certain
//! answers byte for byte, a model that is the canonical image of the
//! saturated solution, and no non-canonical IRI in any of its triples.

use rps_core::{
    canonicalize_graph, certain_answers, chase_system, DatalogEngine, EquivalenceIndex,
    EquivalenceMapping, GraphMappingAssertion, PeerId, RdfPeerSystem, RpsChaseConfig,
};
use rps_lodgen::{actor_shape_query, chain, film_system, queries, seed_matrix};
use rps_lodgen::{FilmConfig, SeededRng, Topology};
use rps_query::{GraphPattern, GraphPatternQuery, TermOrVar, Variable};
use rps_rdf::{Iri, Term, Triple};
use std::collections::BTreeSet;

fn seeds() -> Vec<u64> {
    seed_matrix("RPS_QUOTIENT_SEED", &[0x5A3E, 0xC1A55, 24])
}

fn assert_quotient_agrees(sys: &RdfPeerSystem, queries: &[GraphPatternQuery], label: &str) {
    let saturated = chase_system(sys, &RpsChaseConfig::default());
    let engine = DatalogEngine::new(sys).unwrap_or_else(|e| panic!("{label}: {e}"));
    for query in queries {
        let expected = certain_answers(&saturated, query).tuples;
        assert_eq!(engine.answers(query).tuples, expected, "{label}: {query}");
    }
    let index = EquivalenceIndex::from_mappings(sys.equivalences());
    let model: BTreeSet<Triple> = engine.solution().graph.iter().collect();
    for triple in &model {
        for term in [triple.subject(), triple.predicate(), triple.object()] {
            assert_eq!(&index.canonical_term(term), term, "{label}: in the model");
        }
    }
    let image = canonicalize_graph(&saturated.graph, &index);
    assert_eq!(model, image.iter().collect(), "{label}");
}

#[test]
fn film_topologies_agree() {
    for seed in seeds() {
        let topologies = [
            Topology::Chain,
            Topology::Ring,
            Topology::BidiChain,
            Topology::Star { hub: 1 },
            Topology::Random {
                edge_prob: 0.5,
                seed,
            },
        ];
        for topology in topologies {
            let label = format!("seed {seed}, {topology:?}");
            let sys = film_system(&FilmConfig {
                peers: 4,
                films_per_peer: 6,
                actors_per_film: 2,
                person_pool: 8,
                sameas_per_pair: 4,
                topology,
                hub_style: false,
                seed,
            });
            let mut asked: Vec<_> = (0..4).map(|p| actor_shape_query(p, false)).collect();
            asked.extend([queries::costar_query(3, 2), queries::film_cast_query(1, 0)]);
            assert_quotient_agrees(&sys, &asked, &label);
        }
    }
}

#[test]
fn closure_with_aliases_agrees() {
    let ns = |local: &str| Term::iri(format!("{}{local}", chain::NS));
    let eq = |l: &str, r: &str| {
        EquivalenceMapping::new(
            Iri::new(format!("{}{l}", chain::NS)),
            Iri::new(format!("{}{r}", chain::NS)),
        )
    };
    let about = |s: TermOrVar, p: Term, o: TermOrVar| {
        GraphPatternQuery::new(vec![Variable::new("y")], GraphPattern::triple(s, p, o))
    };
    let y = || TermOrVar::var("y");
    for seed in seeds() {
        let rng = &mut SeededRng::seed_from_u64(seed);
        let len = rng.gen_range(6..12);
        let (i, j) = (rng.gen_range(0..len), rng.gen_range(0..len));
        // Aliases of a node and of an alias, and two nodes equated (which
        // closes the chain into a cycle)…
        let mut sys = chain::transitive_system(len);
        sys.add_equivalence(eq(&format!("n{i}"), "alias"));
        sys.add_equivalence(eq("alias", "alias2"));
        sys.add_equivalence(eq(&format!("n{j}"), &format!("n{}", len - j)));
        // …a class holding the edge *predicate*, stored under both names…
        sys.add_equivalence(eq("A", "A2"));
        let stored = Triple::new(chain::node(len), ns("A2"), ns("far")).expect("IRIs");
        sys.peer_mut(PeerId(0)).database.insert(&stored);
        // …class members as constants inside an assertion…
        let premise = about(ns("alias2").into(), chain::edge_pred(), y());
        let conclusion = about(y(), ns("reachedFrom"), ns("alias").into());
        let gma = GraphMappingAssertion::new(PeerId(0), PeerId(0), premise, conclusion.clone());
        sys.add_assertion(gma.expect("arity 1, safe"));
        // …and a class no stored triple touches.
        sys.add_equivalence(eq("ghost", "ghost2"));
        let all = ["s", "p", "o"].map(Variable::new);
        let [s, p, o] = all.clone().map(TermOrVar::Var);
        let asked = [
            chain::edge_query(),
            chain::endpoint_query(len),
            about(ns("alias").into(), chain::edge_pred(), y()),
            about(ns("ghost").into(), chain::edge_pred(), y()),
            conclusion,
            GraphPatternQuery::new(all.to_vec(), GraphPattern::triple(s, p, o)),
        ];
        assert_quotient_agrees(&sys, &asked, &format!("seed {seed}, chain {len}"));
    }
}
