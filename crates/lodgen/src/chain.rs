//! The Proposition 3 workload: a mapping assertion encoding transitive
//! closure, which no finite FO (UCQ) rewriting can capture.
//!
//! The system has a single peer storing an edge chain
//! `n0 —A→ n1 —A→ … —A→ nL` and one self-mapping
//! `q(x,y) ← (x,A,z) AND (z,A,y)  ⇝  q(x,y) ← (x,A,y)`:
//! every 2-hop pair must also be a direct edge, i.e. `A` is transitively
//! closed in every solution.

use rps_core::{GraphMappingAssertion, Peer, PeerId, RdfPeerSystem};
use rps_query::{GraphPattern, GraphPatternQuery, TermOrVar, Variable};
use rps_rdf::{Graph, Term};

/// Namespace of the chain peer.
pub const NS: &str = "http://chain.example.org/";

/// The edge predicate `A`.
pub fn edge_pred() -> Term {
    Term::iri(format!("{NS}A"))
}

/// The i-th chain node.
pub fn node(i: usize) -> Term {
    Term::iri(format!("{NS}n{i}"))
}

/// Builds the transitive-closure system over a chain of `len` edges
/// (`len + 1` nodes).
pub fn transitive_system(len: usize) -> RdfPeerSystem {
    let mut g = Graph::new();
    for i in 0..len {
        g.insert_terms(node(i), edge_pred(), node(i + 1))
            .expect("valid chain triple");
    }
    let mut system = RdfPeerSystem::new();
    let p = system.add_peer(Peer::from_database("chain", g));
    system.add_assertion(two_hop_assertion(p));
    system
}

/// The `(x,A,z) AND (z,A,y) ⇝ (x,A,y)` assertion.
pub fn two_hop_assertion(peer: PeerId) -> GraphMappingAssertion {
    let premise = GraphPatternQuery::new(
        vec![Variable::new("x"), Variable::new("y")],
        GraphPattern::triple(
            TermOrVar::var("x"),
            TermOrVar::Term(edge_pred()),
            TermOrVar::var("z"),
        )
        .and(GraphPattern::triple(
            TermOrVar::var("z"),
            TermOrVar::Term(edge_pred()),
            TermOrVar::var("y"),
        )),
    );
    let conclusion = GraphPatternQuery::new(
        vec![Variable::new("x"), Variable::new("y")],
        GraphPattern::triple(
            TermOrVar::var("x"),
            TermOrVar::Term(edge_pred()),
            TermOrVar::var("y"),
        ),
    );
    GraphMappingAssertion::new(peer, peer, premise, conclusion)
        .expect("well-formed transitive assertion")
}

/// The reachability query `q(x, y) ← (x, A, y)`.
pub fn edge_query() -> GraphPatternQuery {
    GraphPatternQuery::new(
        vec![Variable::new("x"), Variable::new("y")],
        GraphPattern::triple(
            TermOrVar::var("x"),
            TermOrVar::Term(edge_pred()),
            TermOrVar::var("y"),
        ),
    )
}

/// The Boolean endpoint query `q() ← (n0, A, nL)`.
pub fn endpoint_query(len: usize) -> GraphPatternQuery {
    GraphPatternQuery::boolean(GraphPattern::triple(
        TermOrVar::Term(node(0)),
        TermOrVar::Term(edge_pred()),
        TermOrVar::Term(node(len)),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rps_core::{certain_answers, chase_system, RpsChaseConfig};

    #[test]
    fn chase_computes_transitive_closure() {
        let sys = transitive_system(6);
        let sol = chase_system(&sys, &RpsChaseConfig::default());
        assert!(sol.complete);
        // 7 nodes: 7*6/2 = 21 ordered reachable pairs.
        let ans = certain_answers(&sol, &edge_query());
        assert_eq!(ans.len(), 21);
        assert!(ans.tuples.contains(&vec![node(0), node(6)]));
    }

    #[test]
    fn mapping_tgds_are_not_fo_rewritable_class() {
        // The encoded mapping TGD is neither linear nor sticky
        // (Section 4's marking argument).
        let sys = transitive_system(3);
        let de = rps_core::encode_system(&sys);
        assert!(!rps_tgd::is_linear(&de.mapping_tgds_unguarded));
        assert!(!rps_tgd::is_sticky(&de.mapping_tgds_unguarded));
        let cl = rps_tgd::Classification::of(&de.mapping_tgds_unguarded);
        assert!(!cl.fo_rewritable());
    }

    #[test]
    fn bounded_rewriting_misses_long_chains() {
        use rps_core::RpsRewriter;
        use rps_tgd::RewriteConfig;
        let len = 20;
        let sys = transitive_system(len);
        let rw = RpsRewriter::new(&sys);
        assert!(!rw.fo_rewritable());
        let cfg = RewriteConfig {
            max_depth: 2,
            max_cqs: 2_000,
        };
        // Short endpoints reachable within the depth bound are found...
        let decide = |to| rw.is_certain_answer(&edge_query(), &[node(0), node(to)], &cfg);
        assert!(decide(2).unwrap());
        // ...but the far endpoint is not, although the chase proves it.
        assert!(!decide(len).unwrap());
        let sol = chase_system(&sys, &RpsChaseConfig::default());
        let ans = certain_answers(&sol, &edge_query());
        assert!(ans.tuples.contains(&vec![node(0), node(len)]));
    }

    #[test]
    fn endpoint_query_shape() {
        let q = endpoint_query(5);
        assert_eq!(q.arity(), 0);
        assert!(q.pattern().vars().is_empty());
    }
}
