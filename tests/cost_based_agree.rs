//! The cost-based join orderer is an *optimiser*, never a semantics
//! change: across random graphs and join shapes, plans compiled by the
//! planner (`PreparedQueryIds::compile_only`, cost-based on a sealed
//! graph) and by the shape heuristic
//! (`PreparedQueryIds::compile_heuristic`) produce byte-identical
//! answer sets, and both agree with a `BTreeSet`-backed oracle graph
//! holding the same triples. The same invariant is then pinned
//! end-to-end: every frozen session, for every strategy × semantics
//! combination, answers what the heuristic plan answers over that
//! session's universal solution.

use rps_core::{EngineConfig, PeerId, RpsBuilder, Session, Strategy};
use rps_query::{
    evaluate_query, GraphPattern, GraphPatternQuery, PreparedQueryIds, Semantics, TermOrVar,
    TriplePattern, Variable,
};
use rps_rdf::{Graph, StorageBackend, Term};
use std::collections::BTreeSet;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn iri(i: usize) -> Term {
    Term::iri(format!("http://cb/{i}"))
}

/// Random triples with deliberately skewed predicate shapes: predicate
/// 20 is high-fanout (few distinct objects), predicate 21 is
/// near-unique, the rest uniform — the regime where cost-based and
/// smallest-first genuinely disagree on order.
fn arb_triples(rng: &mut Rng) -> Vec<(Term, Term, Term)> {
    let n = 20 + rng.below(60);
    (0..n)
        .map(|i| match rng.below(3) {
            0 => (iri(rng.below(10)), iri(20), iri(rng.below(2) + 40)),
            1 => (iri(rng.below(10)), iri(21), iri(100 + i)),
            _ => (
                iri(rng.below(10)),
                iri(22 + rng.below(2)),
                iri(rng.below(10) + 40),
            ),
        })
        .collect()
}

fn arb_tv(rng: &mut Rng) -> TermOrVar {
    if rng.below(2) == 0 {
        TermOrVar::Term(iri(rng.below(10)))
    } else {
        TermOrVar::Var(Variable::new(format!("v{}", rng.below(4))))
    }
}

fn arb_query(rng: &mut Rng) -> GraphPatternQuery {
    let n = 1 + rng.below(3);
    let pats: Vec<TriplePattern> = (0..n)
        .map(|_| {
            let o = if rng.below(3) == 0 {
                TermOrVar::Term(iri(40 + rng.below(4)))
            } else {
                TermOrVar::Var(Variable::new(format!("v{}", rng.below(4))))
            };
            TriplePattern::new(arb_tv(rng), TermOrVar::Term(iri(20 + rng.below(4))), o)
        })
        .collect();
    let gp = GraphPattern::from_patterns(pats);
    let vars: Vec<Variable> = gp.vars().into_iter().collect();
    GraphPatternQuery::new(vars, gp)
}

fn to_terms(graph: &Graph, ids: &BTreeSet<Vec<rps_rdf::TermId>>) -> BTreeSet<Vec<Term>> {
    ids.iter()
        .map(|row| row.iter().map(|id| graph.term(*id).clone()).collect())
        .collect()
}

#[test]
fn all_join_orders_agree_with_btree_oracle() {
    for seed in 0..48u64 {
        let rng = &mut Rng(seed);
        let triples = arb_triples(rng);
        let mut runs = Graph::new();
        let mut oracle = Graph::with_backend(StorageBackend::BTree);
        for (s, p, o) in &triples {
            let _ = runs.insert_terms(s.clone(), p.clone(), o.clone());
            let _ = oracle.insert_terms(s.clone(), p.clone(), o.clone());
        }
        runs.seal();
        assert!(runs.is_sealed(), "seed {seed}: fixture must exercise stats");
        for case in 0..4 {
            let q = arb_query(rng);
            for semantics in [Semantics::Certain, Semantics::Star] {
                let reference = evaluate_query(&oracle, &q, semantics);
                for (order, plan) in [
                    ("cost-based", PreparedQueryIds::compile_only(&runs, &q)),
                    ("heuristic", PreparedQueryIds::compile_heuristic(&runs, &q)),
                ] {
                    let got = to_terms(&runs, &plan.evaluate(&runs, semantics));
                    assert_eq!(
                        got, reference,
                        "seed {seed} case {case} {order} {semantics:?} diverged \
                         from the BTree oracle"
                    );
                }
            }
        }
    }
}

/// Turtle serialisation of the same random triples, for session-level
/// system building.
fn turtle(triples: &[(Term, Term, Term)]) -> String {
    triples
        .iter()
        .map(|(s, p, o)| format!("{s} {p} {o} ."))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn session_answers_are_order_invariant_across_strategies_and_semantics() {
    for seed in 0..8u64 {
        let rng = &mut Rng(0xC0DE ^ seed);
        let a_triples = arb_triples(rng);
        // Peer B speaks its own predicate; a mapping assertion folds it
        // into peer A's predicate 20 so the chase/rewriting actually
        // derives new tuples.
        let b_triples: Vec<(Term, Term, Term)> = (0..4)
            .map(|i| {
                (
                    iri(200 + i),
                    Term::iri("http://cb/actor"),
                    iri(rng.below(2) + 40),
                )
            })
            .collect();
        let premise = GraphPatternQuery::new(
            vec![Variable::new("x"), Variable::new("y")],
            GraphPattern::triple(
                TermOrVar::var("x"),
                TermOrVar::iri("http://cb/actor"),
                TermOrVar::var("y"),
            ),
        );
        let conclusion = GraphPatternQuery::new(
            vec![Variable::new("x"), Variable::new("y")],
            GraphPattern::triple(
                TermOrVar::var("x"),
                TermOrVar::iri("http://cb/20"),
                TermOrVar::var("y"),
            ),
        );
        let mut a = PeerId(0);
        let mut b = PeerId(0);
        let sys = RpsBuilder::new()
            .peer_turtle("A", &turtle(&a_triples), &mut a)
            .unwrap()
            .peer_turtle("B", &turtle(&b_triples), &mut b)
            .unwrap()
            .assertion(b, a, premise, conclusion)
            .unwrap()
            .build();

        let query = arb_query(rng);
        let mut chased = Session::open(sys.clone(), EngineConfig::default()).unwrap();
        let solution = chased.universal_solution().unwrap();
        let graph = &solution.graph;
        for (strategy, semantics) in [
            (Strategy::Materialise, Semantics::Certain),
            (Strategy::Materialise, Semantics::Star),
            (Strategy::Rewrite, Semantics::Certain),
            (Strategy::Auto, Semantics::Certain),
            (Strategy::Auto, Semantics::Star),
        ] {
            let heuristic = PreparedQueryIds::compile_heuristic(graph, &query);
            let expected = to_terms(graph, &heuristic.evaluate(graph, semantics));
            let config = EngineConfig::default()
                .with_strategy(strategy)
                .with_semantics(semantics);
            let frozen = Session::open(sys.clone(), config)
                .and_then(Session::freeze)
                .unwrap();
            let got: BTreeSet<Vec<Term>> = frozen.answer(&query).unwrap().collect();
            assert_eq!(
                got, expected,
                "seed {seed} {strategy:?} {semantics:?}: frozen session vs the heuristic plan"
            );
        }
    }
}
