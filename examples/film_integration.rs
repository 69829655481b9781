//! A larger synthetic integration scenario: several film sources with
//! overlapping person entities, sameAs links and chain mappings.
//! Compares the two query-answering strategies of the engine —
//! materialisation (Algorithm 1) vs rewriting (Section 4) — and checks
//! they agree.
//!
//! Run with: `cargo run --example film_integration`

use rps_core::{EngineConfig, Session, Strategy};
use rps_lodgen::{actor_shape_query, film_system, FilmConfig, Topology};
use std::time::Instant;

fn main() {
    let cfg = FilmConfig {
        peers: 4,
        films_per_peer: 60,
        actors_per_film: 3,
        person_pool: 100,
        sameas_per_pair: 3,
        topology: Topology::Chain,
        hub_style: false,
        seed: 2015,
    };
    println!("generating film workload: {cfg:?}");
    let system = film_system(&cfg);
    system.validate().expect("generated system is valid");
    println!(
        "  peers: {}  stored triples: {}  assertions: {}  equivalences: {}",
        system.peers().len(),
        system.stored_size(),
        system.assertions().len(),
        system.equivalences().len()
    );

    // Ask for the casts of the *last* peer's vocabulary: the chain
    // mappings funnel every upstream peer's data into it.
    let query = actor_shape_query(cfg.peers - 1, false);

    // Strategy 1: materialise (Algorithm 1).
    let mut mat = Session::new(
        system.clone(),
        EngineConfig::default().with_strategy(Strategy::Materialise),
    );
    let t0 = Instant::now();
    let sol = mat.universal_solution().expect("chase terminates");
    let mat = mat.freeze().expect("freezes the chased solution");
    let ans_mat = mat.answer(&query).expect("answers").into_set();
    let mat_time = t0.elapsed();
    println!(
        "\nmaterialise: universal solution {} triples ({} chase rounds, {} firings) in {mat_time:?}",
        sol.graph.len(),
        sol.stats.rounds,
        sol.stats.gma_firings
    );
    println!("  answers: {}", ans_mat.len());

    // Strategy 2: rewrite per query (the chain of single-triple mappings
    // is linear, so Proposition 2 applies).
    let rw = Session::new(
        system.clone(),
        EngineConfig::default()
            .with_strategy(Strategy::Rewrite)
            .with_rewrite(rps_tgd::RewriteConfig {
                max_depth: 10,
                max_cqs: 10_000,
            }),
    );
    let t1 = Instant::now();
    let rw = rw.freeze().expect("builds the rewriter");
    let stream = rw.answer(&query).expect("rewriting is exhaustive");
    let route = stream.route();
    let ans_rw = stream.into_set();
    let rw_time = t1.elapsed();
    println!(
        "\nrewrite: route {route:?}, {} answers in {rw_time:?}",
        ans_rw.len()
    );

    assert_eq!(
        ans_mat.tuples, ans_rw.tuples,
        "strategies must agree (Proposition 2: the rewriting is perfect)"
    );
    println!("\nstrategies agree on {} answers ✔", ans_mat.len());

    // Redundancy elimination across sameAs-merged persons.
    let lean = mat.answer_without_redundancy(&query).expect("answers");
    println!(
        "answers without equivalence-induced redundancy: {} (from {})",
        lean.len(),
        ans_mat.len()
    );
}
