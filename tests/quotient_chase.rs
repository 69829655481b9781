//! On a full system a fresh `Strategy::Materialise` freeze serves
//! Algorithm 1 over the system's quotient by its equivalence mappings,
//! rows expanded over the classes afterwards. This seeded sweep
//! (`RPS_QUOTIENT_SEED`, comma-separated u64 seeds) holds it to the
//! saturating `chase_system`: the same certain answers byte for byte,
//! the same `Q*` answers as a freeze over the saturated solution with
//! stored blanks beside class members, a model that is the canonical
//! image of the saturated solution, and no non-canonical IRI in any of
//! its triples.

use rps_core::chase::chase_quotient_model;
use rps_core::{
    canonicalize_graph, certain_answers, chase_system, EngineConfig, EquivalenceIndex,
    EquivalenceMapping, FrozenSession, GraphMappingAssertion, PeerId, RdfPeerSystem,
    RpsChaseConfig, Session, Strategy,
};
use rps_lodgen::{actor_shape_query, chain, film, film_system, queries, query_from, seed_matrix};
use rps_lodgen::{FilmConfig, SeededRng, Topology};
use rps_query::{GraphPattern, GraphPatternQuery, Semantics, TermOrVar, Variable};
use rps_rdf::{Iri, Term, Triple};
use std::collections::BTreeSet;

fn seeds() -> Vec<u64> {
    seed_matrix("RPS_QUOTIENT_SEED", &[0x5A3E, 0xC1A55, 24])
}

/// A materialising session over `sys` under `semantics`, frozen straight
/// away (over the quotient) or over the universal solution it chased
/// first (saturated).
fn freeze(sys: &RdfPeerSystem, semantics: Semantics, pre_chased: bool) -> FrozenSession {
    let config = EngineConfig::default()
        .with_strategy(Strategy::Materialise)
        .with_semantics(semantics);
    let mut session = Session::new(sys.clone(), config);
    if pre_chased {
        session.universal_solution().expect("the chase completes");
    }
    session.freeze().expect("the session freezes")
}

fn assert_quotient_agrees(sys: &RdfPeerSystem, queries: &[GraphPatternQuery], label: &str) {
    let saturated = chase_system(sys, &RpsChaseConfig::default());
    let frozen = freeze(sys, Semantics::Certain, false);
    for query in queries {
        let expected = certain_answers(&saturated, query).tuples;
        let got = frozen
            .answer(query)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(got.into_set().tuples, expected, "{label}: {query}");
    }
    let index = EquivalenceIndex::from_mappings(sys.equivalences());
    let model: BTreeSet<Triple> = chase_quotient_model(sys, &RpsChaseConfig::default())
        .graph
        .iter()
        .collect();
    let served = frozen.storage_stats().expect("materialised").run_keys;
    assert_eq!(served, model.len(), "{label}: the freeze serves the model");
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

/// Under `Q*` a row may hold a stored blank beside a class member: chain
/// mappings never conclude into the hub-style peer 0, whose films cast
/// people through blanks, and its people are `sameAs` peer 1's. Over the
/// quotient such a row holds the class's representative, and
/// `expand_rows` must range the cell over the members, as the saturating
/// chase copies the blank's triples onto each of them: a fresh freeze
/// and a pre-chased one answer the same rows, none twice.
#[test]
fn star_rows_with_blanks_agree() {
    let (starring, artist) = (film::starring_pred(0), film::artist_pred(0));
    let asked = [
        "SELECT ?s ?p ?o WHERE { ?s ?p ?o }".to_string(),
        format!("SELECT ?f ?z ?y WHERE {{ ?f {starring} ?z . ?z {artist} ?y }}"),
    ]
    .map(|text| query_from(&Default::default(), &text));
    for seed in seeds() {
        let sys = film_system(&FilmConfig {
            hub_style: true,
            seed,
            ..FilmConfig::default()
        });
        let index = EquivalenceIndex::from_mappings(sys.equivalences());
        let [quotient, saturated] = [false, true].map(|pre| freeze(&sys, Semantics::Star, pre));
        let mut mixed = 0;
        for query in &asked {
            let rows = |frozen: &FrozenSession| {
                let stream = frozen.answer(query).expect("answers");
                let len = stream.len();
                let rows: BTreeSet<Vec<Term>> = stream.collect();
                assert_eq!(rows.len(), len, "seed {seed}: a row twice for {query}");
                rows
            };
            let got = rows(&quotient);
            assert_eq!(got, rows(&saturated), "seed {seed}: {query}");
            mixed += got
                .iter()
                .filter(|row| row.iter().any(Term::is_blank))
                .filter(|row| row.iter().any(|t| &index.canonical_term(t) != t))
                .count();
        }
        assert!(mixed > 0, "seed {seed}: no row holds a blank and a member");
    }
}
