//! Proposition 3: the transitive-closure mapping is not
//! FO-rewritable — bounded rewritings miss answers the chase proves.

use rps_core::{certain_answers, chase_system, encode_system, RpsChaseConfig, RpsRewriter};
use rps_lodgen::chain::{edge_query, node, transitive_system};
use rps_tgd::{Classification, RewriteConfig};

#[test]
fn chase_closure_size_is_quadratic() {
    for len in [2usize, 4, 8] {
        let sys = transitive_system(len);
        let sol = chase_system(&sys, &RpsChaseConfig::default());
        assert!(sol.complete);
        let ans = certain_answers(&sol, &edge_query());
        let nodes = len + 1;
        assert_eq!(ans.len(), nodes * (nodes - 1) / 2, "len={len}");
    }
}

#[test]
fn classification_rejects_fo_rewriting() {
    let sys = transitive_system(4);
    let de = encode_system(&sys);
    let c = Classification::of(&de.mapping_tgds_unguarded);
    assert!(!c.linear);
    assert!(!c.sticky);
    assert!(!c.sticky_join);
    assert!(!c.fo_rewritable());
}

#[test]
fn depth_k_rewriting_covers_exactly_bounded_chains() {
    // A rewriting with depth budget k can only assemble paths of bounded
    // length; the far endpoint of a long chain needs more derivation
    // steps than the budget allows.
    let len = 24;
    let sys = transitive_system(len);
    let rw = RpsRewriter::new(&sys);
    assert!(!rw.fo_rewritable());

    // Each rewriting step unfolds one 2-hop TGD application, extending
    // the coverable chain length by exactly one edge: depth k covers
    // chains of length ≤ k + 1.
    for (depth, reachable, unreachable) in [(1usize, 2usize, 3usize), (2, 3, 4), (3, 4, 5)] {
        let cfg = RewriteConfig {
            max_depth: depth,
            max_cqs: 50_000,
        };
        let decide = |to| {
            rw.is_certain_answer(&edge_query(), &[node(0), node(to)], &cfg)
                .unwrap()
        };
        assert!(
            decide(reachable),
            "depth {depth} must reach node {reachable}"
        );
        assert!(
            !decide(unreachable),
            "depth {depth} must NOT reach node {unreachable}"
        );
    }
}

#[test]
fn chase_finds_what_rewriting_misses() {
    let cfg = RewriteConfig {
        max_depth: 3,
        max_cqs: 50_000,
    };
    let mut missed_before = 0;
    for len in [8, 16, 24] {
        let sys = transitive_system(len);
        let sol = chase_system(&sys, &RpsChaseConfig::default());
        let ans = certain_answers(&sol, &edge_query());
        assert!(ans.tuples.contains(&vec![node(0), node(len)]));

        let (rw_ans, complete) = RpsRewriter::new(&sys).answers(&edge_query(), &cfg);
        assert!(!complete, "expansion must be cut off");
        // Soundness: the bounded rewriting never invents answers.
        assert!(rw_ans.tuples.is_subset(&ans.tuples));
        // Incompleteness: it strictly misses some, and more on a longer
        // chain — the closure grows quadratically, a fixed depth's reach
        // linearly.
        let missed = ans.len() - rw_ans.len();
        assert!(missed > missed_before, "len {len}: missed {missed}");
        missed_before = missed;
    }
}
