//! The peer loader behind `RdfPeerSystem::{stored_database,
//! scoped_database, canonical_database, canonical_scoped_database}`
//! against the definitions it replaces:
//!
//! - the canonical graph holds the triples and terms of
//!   `canonicalize_graph` over the stored union, and per peer over the
//!   scoped database;
//! - the stored union has the dictionary, insertion log and scans of
//!   inserting each peer's scoped triples one at a time, peer by peer.
//!
//! Run on Figure 1, the film systems (hub and plain), a transitive chain
//! with equivalences, and seeded random systems whose peers share blank
//! labels and store literals and class members at every position.

use rps_core::{
    canonicalize_graph, EquivalenceIndex, EquivalenceMapping, Peer, PeerId, RdfPeerSystem,
};
use rps_lodgen::{chain, film_system, paper_example, FilmConfig, SeededRng, Topology};
use rps_rdf::{Graph, IdTriple, Iri, Term, TermId, Triple};
use std::collections::BTreeSet;

fn triples(g: &Graph) -> BTreeSet<Triple> {
    g.iter().collect()
}

fn terms(g: &Graph) -> BTreeSet<Term> {
    g.dict().iter().map(|(_, term)| term.clone()).collect()
}

/// The canonical loads hold what `canonicalize_graph` makes of the
/// stored union and of each scoped peer database.
fn assert_canonical_loads(sys: &RdfPeerSystem, label: &str) {
    let index = EquivalenceIndex::from_mappings(sys.equivalences());
    let loaded = sys.canonical_database(&index);
    let reference = canonicalize_graph(&sys.stored_database(), &index);
    assert_eq!(triples(&loaded), triples(&reference), "{label}: triples");
    assert_eq!(terms(&loaded), terms(&reference), "{label}: terms");
    assert_eq!(loaded.len(), reference.len(), "{label}: len");
    for term in terms(&loaded) {
        assert_eq!(index.canonical_term(&term), term, "{label}: canonical");
    }
    for i in 0..sys.peers().len() {
        let loaded = sys.canonical_scoped_database(PeerId(i), &index);
        let reference = canonicalize_graph(&sys.scoped_database(PeerId(i)), &index);
        assert_eq!(triples(&loaded), triples(&reference), "{label}: peer {i}");
        assert_eq!(terms(&loaded), terms(&reference), "{label}: peer {i} terms");
    }
}

/// A peer's term with its blank label scoped to the peer, as the
/// stored database documents it.
fn scoped(peer: usize, term: &Term) -> Term {
    match term {
        Term::Blank(b) => Term::blank(format!("p{peer}_{}", b.label())),
        other => other.clone(),
    }
}

/// The stored union is what inserting every peer's scoped triples one at
/// a time, peer by peer, builds: the same dictionary, log and scans.
fn assert_stored_union(sys: &RdfPeerSystem, label: &str) {
    let mut reference = Graph::new();
    for (i, peer) in sys.peers().iter().enumerate() {
        for t in peer.database.iter() {
            let [s, p, o] = [t.subject(), t.predicate(), t.object()].map(|x| scoped(i, x));
            reference.insert(&Triple::new(s, p, o).expect("a stored triple"));
        }
    }
    let stored = sys.stored_database();
    let dict = |g: &Graph| {
        g.dict()
            .iter()
            .map(|(id, t)| (id, t.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(dict(&stored), dict(&reference), "{label}: dictionary");
    let log = |g: &Graph| g.log_since(0).collect::<Vec<IdTriple>>();
    assert_eq!(log(&stored), log(&reference), "{label}: log");
    assert_eq!(stored.len(), reference.len(), "{label}: len");
    let ids = |g: &Graph| g.iter_ids().collect::<Vec<_>>();
    assert_eq!(ids(&stored), ids(&reference), "{label}: SPO scan");
    let used: BTreeSet<TermId> = ids(&stored).iter().flat_map(|t| [t.s, t.p, t.o]).collect();
    for &id in &used {
        let by = |g: &Graph, p: Option<TermId>, o: Option<TermId>| {
            g.match_ids(None, p, o).collect::<Vec<_>>()
        };
        assert_eq!(
            by(&stored, Some(id), None),
            by(&reference, Some(id), None),
            "{label}: POS"
        );
        assert_eq!(
            by(&stored, None, Some(id)),
            by(&reference, None, Some(id)),
            "{label}: OSP"
        );
    }
}

fn assert_loads(sys: &RdfPeerSystem, label: &str) {
    assert_canonical_loads(sys, label);
    assert_stored_union(sys, label);
}

#[test]
fn figure_1_loads() {
    let ex = paper_example();
    assert!(!ex.system.equivalences().is_empty());
    assert_loads(&ex.system, "Figure 1");
}

#[test]
fn film_systems_load() {
    for seed in [3u64, 4] {
        for hub_style in [false, true] {
            let sys = film_system(&FilmConfig {
                peers: 4,
                films_per_peer: 8,
                actors_per_film: 2,
                person_pool: 10,
                sameas_per_pair: 5,
                topology: Topology::BidiChain,
                hub_style,
                seed,
            });
            assert!(!sys.equivalences().is_empty());
            assert_loads(&sys, &format!("film seed {seed}, hub {hub_style}"));
        }
    }
}

#[test]
fn chain_with_equivalences_loads() {
    let iri = |local: &str| Iri::new(format!("{}{local}", chain::NS));
    for len in [5usize, 9] {
        let mut sys = chain::transitive_system(len);
        sys.add_equivalence(EquivalenceMapping::new(iri("n1"), iri("alias")));
        sys.add_equivalence(EquivalenceMapping::new(iri("n2"), iri(&format!("n{len}"))));
        assert_loads(&sys, &format!("chain {len}"));
    }
}

/// Peers over one small vocabulary: shared IRIs (some in classes, some
/// used as predicates), the same blank labels in every peer, literals.
fn random_system(seed: u64) -> RdfPeerSystem {
    let rng = &mut SeededRng::seed_from_u64(seed);
    let iri = |i: usize| Iri::new(format!("http://load.test/e{i}"));
    let node = |rng: &mut SeededRng| match rng.gen_range(0..3) {
        0 => Term::blank(format!("b{}", rng.gen_range(0..4))),
        _ => Term::Iri(iri(rng.gen_range(0..12))),
    };
    let mut sys = RdfPeerSystem::new();
    for _ in 0..rng.gen_range(2..5) {
        let mut g = Graph::new();
        for _ in 0..rng.gen_range(5..60) {
            let s = node(rng);
            let p = Term::Iri(iri(rng.gen_range(0..6)));
            let o = match rng.gen_range(0..4) {
                0 => Term::literal(format!("v{}", rng.gen_range(0..5))),
                _ => node(rng),
            };
            g.insert(&Triple::new(s, p, o).expect("IRI predicate"));
        }
        sys.add_peer(Peer::from_database(format!("r{}", sys.peers().len()), g));
    }
    for _ in 0..rng.gen_range(1..8) {
        let (a, b) = (rng.gen_range(0..12), rng.gen_range(0..12));
        sys.add_equivalence(EquivalenceMapping::new(iri(a), iri(b)));
    }
    sys
}

#[test]
fn random_systems_load() {
    // Per position, how many systems store a non-canonical class member
    // there.
    let mut moved = [0usize; 3];
    for seed in 0..40u64 {
        let sys = random_system(seed);
        let index = EquivalenceIndex::from_mappings(sys.equivalences());
        for (count, pos) in moved.iter_mut().zip(0..) {
            *count += usize::from(triples(&sys.stored_database()).iter().any(|t| {
                let term = [t.subject(), t.predicate(), t.object()][pos];
                &index.canonical_term(term) != term
            }));
        }
        assert_loads(&sys, &format!("random seed {seed}"));
    }
    assert!(
        moved.iter().all(|&n| n >= 5),
        "class members at s, p, o: {moved:?}"
    );
}
