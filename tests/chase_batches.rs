//! The bulk chase writes a pass at a time: a log window's equivalence
//! copies as one batch, and a blind assertion pass's conclusions once at
//! its end (`rps_core::chase`'s module docs, "Pass-at-a-time writes").
//! This seeded sweep (`RPS_CHASE_SEED`, comma-separated u64 seeds) holds
//! the engine's run to the chase that writes every copy and every firing
//! as soon as it is derived — the `chase_system_seam` with `per_firing`
//! — under both firing modes, with provenance off and on: the same
//! dictionary id for id, the same insertion log entry for entry, the
//! same statistics, and the same SPO, POS and OSP scans and layout after
//! the seal.
//!
//! The counterexamples are systems on which writing a restricted pass
//! once at its end *without* the independence test would fire more
//! often: each test computes that count from the stored database and
//! checks that the per-firing chase fires less, and that the engine
//! fires exactly as the per-firing chase does.

use rps_core::chase::chase_system_seam;
use rps_core::{
    chase_system, EquivalenceMapping, FiringMode, GraphMappingAssertion, Peer, PeerId,
    RdfPeerSystem, RpsChaseConfig, UniversalSolution,
};
use rps_lodgen::{chain, film_system, paper, seed_matrix, FilmConfig, SeededRng, Topology};
use rps_query::{evaluate_query, GraphPattern, GraphPatternQuery, Semantics, TermOrVar, Variable};
use rps_rdf::{Graph, IdTriple, Iri, Term, TermId};

fn seeds() -> Vec<u64> {
    seed_matrix("RPS_CHASE_SEED", &[0xBA7C, 31, 0x5EED])
}

/// Every id-level view of a sealed solution that a later reader sees.
#[derive(Debug, PartialEq)]
struct Layout {
    terms: Vec<Term>,
    log: Vec<IdTriple>,
    spo: Vec<IdTriple>,
    pos: Vec<IdTriple>,
    osp: Vec<IdTriple>,
    runs: (usize, usize, usize, usize),
}

fn layout(graph: &Graph) -> Layout {
    let ids: Vec<TermId> = (0..graph.dict().len() as u32).map(TermId).collect();
    let stats = graph.storage_stats();
    Layout {
        terms: ids.iter().map(|&id| graph.term(id).clone()).collect(),
        log: graph.log_since(0).collect(),
        spo: graph.iter_ids().collect(),
        // A predicate's (an object's) matches come in POS (OSP) order,
        // and the ids in their own order: the concatenation is the scan.
        pos: ids
            .iter()
            .flat_map(|&p| graph.match_ids(None, Some(p), None))
            .collect(),
        osp: ids
            .iter()
            .flat_map(|&o| graph.match_ids(None, None, Some(o)))
            .collect(),
        runs: (stats.runs, stats.run_keys, stats.tail, stats.tombstones),
    }
}

fn assert_same(a: &UniversalSolution, b: &UniversalSolution, label: &str) {
    assert_eq!(a.complete, b.complete, "{label}: complete");
    assert_eq!(a.stats, b.stats, "{label}: stats");
    assert_eq!(layout(&a.graph), layout(&b.graph), "{label}: layout");
}

/// The engine against the per-firing chase in all four configurations,
/// and `chase_system` against the engine. Returns the restricted run.
fn assert_batches_exact(sys: &RdfPeerSystem, label: &str) -> UniversalSolution {
    let mut restricted = None;
    for firing in [FiringMode::Restricted, FiringMode::Skolem] {
        let cfg = RpsChaseConfig {
            firing,
            ..RpsChaseConfig::default()
        };
        for provenance in [false, true] {
            let label = format!("{label}, {firing:?}, provenance {provenance}");
            let per_firing = chase_system_seam(sys, &cfg, provenance, true);
            let engine = chase_system_seam(sys, &cfg, provenance, false);
            assert!(engine.complete, "{label}");
            assert_same(&engine, &per_firing, &label);
            if !provenance {
                assert_same(&chase_system(sys, &cfg), &engine, &label);
                if firing == FiringMode::Restricted {
                    restricted = Some(engine);
                }
            }
        }
    }
    restricted.expect("the restricted run without provenance")
}

#[test]
fn figure_one_writes_a_pass_at_a_time_exactly() {
    let sol = assert_batches_exact(&paper::paper_example().system, "Figure 1");
    assert!(sol.stats.gma_firings > 0 && sol.stats.eq_copies > 0);
}

#[test]
fn film_systems_write_a_pass_at_a_time_exactly() {
    for seed in seeds() {
        for hub_style in [false, true] {
            for topology in [
                Topology::Chain,
                Topology::Ring,
                Topology::Star { hub: 0 },
                Topology::Random {
                    edge_prob: 0.5,
                    seed,
                },
            ] {
                let label = format!("seed {seed}, hub {hub_style}, {topology:?}");
                let sys = film_system(&FilmConfig {
                    peers: 4,
                    films_per_peer: 12,
                    actors_per_film: 3,
                    person_pool: 16,
                    sameas_per_pair: 6,
                    topology,
                    hub_style,
                    seed,
                });
                let sol = assert_batches_exact(&sys, &label);
                assert!(sol.stats.eq_copies > 0, "{label}");
            }
        }
    }
}

fn iri(local: &str) -> Iri {
    Iri::new(format!("{}{local}", chain::NS))
}

#[test]
fn transitive_closure_with_equivalences_writes_a_pass_at_a_time_exactly() {
    for seed in seeds() {
        let rng = &mut SeededRng::seed_from_u64(seed);
        let len = rng.gen_range(5..11);
        let mut sys = chain::transitive_system(len);
        for _ in 0..3 {
            let (i, j) = (rng.gen_range(0..len + 1), rng.gen_range(0..len + 1));
            sys.add_equivalence(EquivalenceMapping::new(
                iri(&format!("n{i}")),
                iri(&format!("alias{j}")),
            ));
        }
        sys.add_equivalence(EquivalenceMapping::new(iri("A"), iri("B")));
        let sol = assert_batches_exact(&sys, &format!("seed {seed}, chain {len}"));
        assert!(sol.stats.gma_firings > 0 && sol.stats.eq_copies > 0);
    }
}

const NS: &str = "http://batch.example.org/";

fn var(name: &str) -> TermOrVar {
    TermOrVar::var(name)
}

fn c(local: &str) -> TermOrVar {
    TermOrVar::Term(Term::iri(format!("{NS}{local}")))
}

/// `q(x, y) ← atoms`.
fn query(atoms: &[[TermOrVar; 3]]) -> GraphPatternQuery {
    let pattern = GraphPattern::from_patterns(
        atoms
            .iter()
            .map(|[s, p, o]| rps_query::TriplePattern::new(s.clone(), p.clone(), o.clone()))
            .collect(),
    );
    GraphPatternQuery::new(vec![Variable::new("x"), Variable::new("y")], pattern)
}

/// The conclusion shapes the random systems draw from, over predicates
/// `q` and `r`. The first is firing-independent always; the next three
/// when `q ≠ r` (the two atoms' constants clash), and the rest never.
fn conclusion_shapes(q: &str, r: &str) -> Vec<Vec<[TermOrVar; 3]>> {
    let (x, y, z, w) = (var("x"), var("y"), var("z"), var("w"));
    vec![
        vec![
            [x.clone(), c(q), z.clone()],
            [z.clone(), c("via"), y.clone()],
        ],
        vec![[x.clone(), c(q), z.clone()], [z.clone(), c(r), y.clone()]],
        vec![[z.clone(), c(q), x.clone()], [z.clone(), c(r), y.clone()]],
        vec![[x.clone(), c(q), z.clone()], [y.clone(), c(r), z.clone()]],
        vec![[x.clone(), c(q), y.clone()]],
        vec![[x.clone(), c(q), c("k0")], [y.clone(), c(r), z.clone()]],
        vec![[x.clone(), c(q), y.clone()], [y.clone(), c(q), x.clone()]],
        vec![[x, c(q), z.clone()], [z, c(q), w.clone()], [w, c(r), y]],
    ]
}

/// A seeded system over a small vocabulary: two peers, random triples
/// (a few with blank or literal objects), random assertions over the
/// shapes above, and random equivalences among constants and predicates.
fn random_system(seed: u64) -> RdfPeerSystem {
    let rng = &mut SeededRng::seed_from_u64(seed);
    let preds = ["p0", "p1", "p2", "p3"];
    let mut sys = RdfPeerSystem::new();
    for peer in 0..2 {
        let mut g = Graph::new();
        for _ in 0..rng.gen_range(6..14) {
            let s = Term::iri(format!("{NS}k{}", rng.gen_range(0..6)));
            let p = Term::iri(format!("{NS}{}", preds[rng.gen_range(0..preds.len())]));
            let o = match rng.gen_range(0..8) {
                0 => Term::blank(format!("b{}", rng.gen_range(0..2))),
                1 => Term::literal(format!("v{}", rng.gen_range(0..2))),
                _ => Term::iri(format!("{NS}k{}", rng.gen_range(0..6))),
            };
            g.insert_terms(s, p, o).expect("a valid triple");
        }
        sys.add_peer(Peer::from_database(format!("peer{peer}"), g));
    }
    for _ in 0..rng.gen_range(1..4) {
        let p = preds[rng.gen_range(0..preds.len())];
        let premise = query(&[[var("x"), c(p), var("y")]]);
        let (q, r) = (
            preds[rng.gen_range(0..preds.len())],
            preds[rng.gen_range(0..preds.len())],
        );
        let shapes = conclusion_shapes(q, r);
        let conclusion = query(&shapes[rng.gen_range(0..shapes.len())]);
        let (from, to) = (PeerId(rng.gen_range(0..2)), PeerId(rng.gen_range(0..2)));
        sys.add_assertion(
            GraphMappingAssertion::new(from, to, premise, conclusion).expect("arity 2, safe"),
        );
    }
    for _ in 0..rng.gen_range(0..4) {
        let pick = |rng: &mut SeededRng| match rng.gen_range(0..3) {
            0 => format!("{NS}{}", preds[rng.gen_range(0..preds.len())]),
            _ => format!("{NS}k{}", rng.gen_range(0..6)),
        };
        let (a, b) = (pick(rng), pick(rng));
        if a != b {
            sys.add_equivalence(EquivalenceMapping::new(Iri::new(a), Iri::new(b)));
        }
    }
    sys
}

#[test]
fn random_systems_mixing_shapes_write_a_pass_at_a_time_exactly() {
    let (mut firings, mut copies) = (0, 0);
    for seed in seeds() {
        for k in 0..24 {
            let seed = seed.wrapping_mul(31).wrapping_add(k);
            let sol = assert_batches_exact(&random_system(seed), &format!("seed {seed}"));
            firings += sol.stats.gma_firings;
            copies += sol.stats.eq_copies;
        }
    }
    assert!(
        firings > 0 && copies > 0,
        "{firings} firings, {copies} copies"
    );
}

/// One peer storing `triples`, one assertion `(x, a, y) ⇝ conclusion`.
fn one_pass_system(triples: &[(&str, &str, &str)], conclusion: &[[TermOrVar; 3]]) -> RdfPeerSystem {
    let mut g = Graph::new();
    for (s, p, o) in triples {
        let t = |l: &str| Term::iri(format!("{NS}{l}"));
        g.insert_terms(t(s), t(p), t(o)).expect("a valid triple");
    }
    let mut sys = RdfPeerSystem::new();
    let peer = sys.add_peer(Peer::from_database("only", g));
    let premise = query(&[[var("x"), c("a"), var("y")]]);
    let gma = GraphMappingAssertion::new(peer, peer, premise, query(conclusion));
    sys.add_assertion(gma.expect("arity 2, safe"));
    sys
}

/// On a system whose firings cannot make a new premise tuple, a
/// restricted pass written once at its end without the independence
/// test checks every premise tuple against the stored database alone:
/// it fires once per tuple the stored database does not satisfy.
fn firings_without_the_test(sys: &RdfPeerSystem) -> usize {
    let stored = sys.stored_database();
    let gma = &sys.assertions()[0];
    let premise = evaluate_query(&stored, &gma.premise, Semantics::Certain);
    let satisfied = evaluate_query(&stored, &gma.conclusion, Semantics::Certain);
    premise.difference(&satisfied).count()
}

fn assert_counterexample(sys: &RdfPeerSystem, label: &str) {
    let sol = assert_batches_exact(sys, label);
    let unconditional = firings_without_the_test(sys);
    assert!(
        sol.stats.gma_firings < unconditional,
        "{label}: {} firings, {unconditional} without the test",
        sol.stats.gma_firings
    );
}

/// Clause (iii): `(x, p, z) . (y, p, z)` — the firing on `(k1, k2)`
/// writes `(k1, p, _:b) (k2, p, _:b)`, which satisfy `(k2, k1)`.
#[test]
fn a_shared_existential_under_two_free_variables_is_not_batched() {
    let sys = one_pass_system(
        &[("k1", "a", "k2"), ("k2", "a", "k1")],
        &[[var("x"), c("p"), var("z")], [var("y"), c("p"), var("z")]],
    );
    assert_counterexample(&sys, "(x p z . y p z)");
}

/// Clause (i): `(x, p, k0) . (y, q, z)` — the firing on `(k1, k2)` writes
/// `(k1, p, k0)`, and the stored `(k3, q, k4)` completes `(k1, k3)`.
#[test]
fn an_atom_without_an_existential_is_not_batched() {
    let sys = one_pass_system(
        &[("k1", "a", "k2"), ("k1", "a", "k3"), ("k3", "q", "k4")],
        &[[var("x"), c("p"), c("k0")], [var("y"), c("q"), var("z")]],
    );
    assert_counterexample(&sys, "(x p k0 . y q z)");
}

/// Clause (i), no existential at all: `(x, p, y) . (y, p, x)` — the
/// firing on `(k1, k2)` satisfies `(k2, k1)`.
#[test]
fn a_full_symmetric_conclusion_is_not_batched() {
    let sys = one_pass_system(
        &[("k1", "a", "k2"), ("k2", "a", "k1")],
        &[[var("x"), c("p"), var("y")], [var("y"), c("p"), var("x")]],
    );
    assert_counterexample(&sys, "(x p y . y p x)");
}

/// Clause (i) rejects the two-hop closure too. Its conclusion is one
/// full atom, which only the firing of its own tuple writes, so writing
/// its passes once would happen to be exact: what the test pins is the
/// rejection (in the unit tests) and the engine's agreement here.
#[test]
fn the_two_hop_closure_agrees_with_the_per_firing_chase() {
    for len in [1, 2, 5, 9] {
        let sol = assert_batches_exact(&chain::transitive_system(len), &format!("chain {len}"));
        assert_eq!(sol.graph.len(), len * (len + 1) / 2, "chain {len}");
    }
}
