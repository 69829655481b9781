//! Cross-crate randomised property tests on the system's core
//! invariants:
//!
//! * the chase always produces a solution (Definition 2) and is
//!   idempotent;
//! * union-find equivalence saturation ≡ the naïve Algorithm 1 repairs;
//! * UCQ rewritings are sound at any depth and perfect once complete;
//! * certain answers never contain blank nodes.
//!
//! Cases are generated from a seeded SplitMix64 stream (`rps_lodgen::rng`)
//! rather than `proptest`, which is unavailable offline.

use rps_core::{
    canonicalize_graph, certain_answers, chase_system, expand_answers, is_solution, saturate_naive,
    EquivalenceIndex, EquivalenceMapping, Peer, RdfPeerSystem, RpsChaseConfig, RpsRewriter,
};
use rps_lodgen::rng::SeededRng;
use rps_query::{evaluate_query, GraphPattern, GraphPatternQuery, Semantics, TermOrVar, Variable};
use rps_rdf::{Graph, Iri, Term};
use rps_tgd::RewriteConfig;

/// A small universe of IRIs so that random graphs overlap heavily.
fn iri_pool() -> Vec<String> {
    (0..8).map(|i| format!("http://u/{i}")).collect()
}

/// A random graph over the IRI pool: up to 20 triples, occasionally a
/// literal object or a blank subject.
fn arb_graph(rng: &mut SeededRng) -> Graph {
    let pool = iri_pool();
    let mut g = Graph::new();
    for _ in 0..rng.gen_range(0..20) {
        let (s, p, o) = (
            rng.gen_range(0..8),
            rng.gen_range(0..8),
            rng.gen_range(0..10),
        );
        let subject = if s == 7 {
            Term::blank(format!("b{s}"))
        } else {
            Term::iri(pool[s].clone())
        };
        let object = if o >= 8 {
            Term::literal(format!("lit{o}"))
        } else {
            Term::iri(pool[o].clone())
        };
        let _ = g.insert_terms(subject, Term::iri(pool[p].clone()), object);
    }
    g
}

/// A random set of equivalence mappings over the pool.
fn arb_equivalences(rng: &mut SeededRng) -> Vec<EquivalenceMapping> {
    let pool = iri_pool();
    (0..rng.gen_range(0..5))
        .filter_map(|_| {
            let (a, b) = (rng.gen_range(0..8), rng.gen_range(0..8));
            (a != b).then(|| {
                EquivalenceMapping::new(Iri::new(pool[a].clone()), Iri::new(pool[b].clone()))
            })
        })
        .collect()
}

/// A generic 2-variable query over a pool predicate.
fn pool_query(p: usize) -> GraphPatternQuery {
    GraphPatternQuery::new(
        vec![Variable::new("x"), Variable::new("y")],
        GraphPattern::triple(
            TermOrVar::var("x"),
            TermOrVar::Term(Term::iri(iri_pool()[p].clone())),
            TermOrVar::var("y"),
        ),
    )
}

const CASES: u64 = 64;

#[test]
fn chase_produces_solutions() {
    for seed in 0..CASES {
        let rng = &mut SeededRng::seed_from_u64(seed);
        let g = arb_graph(rng);
        let eqs = arb_equivalences(rng);
        let mut sys = RdfPeerSystem::new();
        sys.add_peer(Peer::from_database("p", g));
        for e in eqs {
            sys.add_equivalence(e);
        }
        let sol = chase_system(&sys, &RpsChaseConfig::default());
        assert!(sol.complete, "seed {seed}");
        assert!(is_solution(&sys, &sol.graph), "seed {seed}");
        // Idempotence: chasing the solution adds nothing.
        let mut sys2 = RdfPeerSystem::new();
        sys2.add_peer(Peer::from_database("p", sol.graph.clone()));
        for e in sys.equivalences() {
            sys2.add_equivalence(e.clone());
        }
        let sol2 = chase_system(&sys2, &RpsChaseConfig::default());
        assert_eq!(sol.graph.len(), sol2.graph.len(), "seed {seed}");
    }
}

#[test]
fn unionfind_equals_naive_saturation() {
    for seed in 0..CASES {
        let rng = &mut SeededRng::seed_from_u64(seed);
        let g = arb_graph(rng);
        let eqs = arb_equivalences(rng);
        let p = rng.gen_range(0..8);
        let index = EquivalenceIndex::from_mappings(&eqs);
        let naive = saturate_naive(&g, &eqs);

        // Canonical route: canonicalise graph and query constant, expand.
        let canon = canonicalize_graph(&g, &index);
        let pool = iri_pool();
        let canon_pred = index.canonical(&Iri::new(pool[p].clone()));
        let canon_q = GraphPatternQuery::new(
            vec![Variable::new("x"), Variable::new("y")],
            GraphPattern::triple(
                TermOrVar::var("x"),
                TermOrVar::Term(Term::Iri(canon_pred)),
                TermOrVar::var("y"),
            ),
        );
        let canon_ans = evaluate_query(&canon, &canon_q, Semantics::Star);
        let expanded = expand_answers(&canon_ans, &index);

        let naive_ans = evaluate_query(&naive, &pool_query(p), Semantics::Star);
        assert_eq!(expanded, naive_ans, "seed {seed}");
    }
}

#[test]
fn certain_answers_never_contain_blanks() {
    for seed in 0..CASES {
        let rng = &mut SeededRng::seed_from_u64(seed);
        let g = arb_graph(rng);
        let eqs = arb_equivalences(rng);
        let p = rng.gen_range(0..8);
        let mut sys = RdfPeerSystem::new();
        sys.add_peer(Peer::from_database("p", g));
        for e in eqs {
            sys.add_equivalence(e);
        }
        let sol = chase_system(&sys, &RpsChaseConfig::default());
        let ans = certain_answers(&sol, &pool_query(p));
        for t in &ans.tuples {
            assert!(t.iter().all(|x| !x.is_blank()), "seed {seed}");
        }
    }
}

#[test]
fn rewriting_is_sound_and_complete_for_equivalence_systems() {
    for seed in 0..CASES {
        let rng = &mut SeededRng::seed_from_u64(seed);
        let g = arb_graph(rng);
        let eqs = arb_equivalences(rng);
        let p = rng.gen_range(0..8);
        // Equivalence-only systems are linear+sticky, so the rewriting is
        // perfect (Proposition 2) — compare against the chase.
        let mut sys = RdfPeerSystem::new();
        // Drop blank-node triples: Section 4's rewriting assumes
        // blank-free sources (the paper's own assumption).
        let mut clean = Graph::new();
        for t in g.iter() {
            if !t.subject().is_blank() && !t.object().is_blank() {
                clean.insert(&t);
            }
        }
        sys.add_peer(Peer::from_database("p", clean));
        for e in eqs {
            sys.add_equivalence(e);
        }
        let sol = chase_system(&sys, &RpsChaseConfig::default());
        let chased = certain_answers(&sol, &pool_query(p));

        let rw = RpsRewriter::new(&sys);
        assert!(rw.fo_rewritable(), "seed {seed}");
        let (ans, complete) = rw.answers(
            &pool_query(p),
            &RewriteConfig {
                max_depth: 30,
                max_cqs: 60_000,
            },
        );
        assert!(complete, "seed {seed}");
        assert_eq!(ans.tuples, chased.tuples, "seed {seed}");
    }
}
