//! The Section 5 prototype in action through the `FederatedSession`
//! façade: rewrite a query once, compile its branches to the id-level
//! federation plan once, then execute repeatedly over a simulated
//! network — compared against the centralised materialisation route and
//! the retained term-level baseline.
//!
//! Run with: `cargo run --example federated_p2p`

use rps_core::{EngineConfig, Session, Strategy};
use rps_lodgen::{actor_shape_query, film_system, FilmConfig, Topology};
use rps_p2p::{CostModel, FederatedSession};
use rps_tgd::RewriteConfig;
use std::time::Instant;

fn main() {
    let cfg = FilmConfig {
        peers: 6,
        films_per_peer: 30,
        actors_per_film: 2,
        person_pool: 80,
        sameas_per_pair: 2,
        topology: Topology::Chain,
        hub_style: false,
        seed: 7,
    };
    let system = film_system(&cfg);
    println!(
        "film workload: {} peers, {} stored triples, {} mappings, {} equivalences",
        system.peers().len(),
        system.stored_size(),
        system.assertions().len(),
        system.equivalences().len()
    );

    let query = actor_shape_query(cfg.peers - 1, false);

    // Federated route (Section 5 prototype): one config object, one
    // prepare, many executes.
    let engine_config = EngineConfig::default().with_rewrite(RewriteConfig {
        max_depth: 40,
        max_cqs: 30_000,
    });
    let session = FederatedSession::open(&system, engine_config)
        .expect("the generated system validates")
        .with_cost_model(CostModel {
            latency_ms: 20.0,
            ms_per_kb: 0.5,
        })
        .freeze()
        .expect("certain-answer semantics freezes");
    println!(
        "\nmappings FO-rewritable (Proposition 2 applies): {}",
        session.fo_rewritable()
    );

    let t0 = Instant::now();
    let prepared = session
        .prepare(&query)
        .expect("chain mappings rewrite exhaustively");
    let prepare_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t1 = Instant::now();
    let result = session
        .execute_with_threads(&prepared, 1)
        .expect("executes");
    let execute_ms = t1.elapsed().as_secs_f64() * 1e3;

    println!("\n== federated execution (prepared, id-level) ==");
    println!("  UNION branches compiled  : {}", result.branches);
    println!("  prepare (once)           : {prepare_ms:.2} ms");
    println!("  execute (repeatable)     : {execute_ms:.2} ms");
    println!("  sub-queries dispatched   : {}", result.stats.subqueries);
    println!(
        "  peers contacted (max)    : {}",
        result.stats.peers_contacted
    );
    println!("  messages exchanged       : {}", result.stats.messages);
    println!("  bytes moved              : {}", result.stats.bytes);
    println!(
        "  binding tuples received  : {}",
        result.stats.tuples_received
    );
    println!("  simulated makespan       : {:.1} ms", result.makespan_ms);
    let answers = result.stream.into_set();
    println!("  answers                  : {}", answers.len());

    // Re-executing the prepared query re-runs only the id-level hot
    // loop: no re-rewriting, no re-routing, no term re-interning.
    let t2 = Instant::now();
    let again = session
        .execute_with_threads(&prepared, 1)
        .expect("executes");
    let reexec_ms = t2.elapsed().as_secs_f64() * 1e3;
    assert_eq!(again.stats, result.stats);
    println!("  re-execute (cached plan) : {reexec_ms:.2} ms");

    // Centralised reference: materialise and evaluate via the local
    // Session façade.
    let central = Session::open(
        system,
        EngineConfig::default().with_strategy(Strategy::Materialise),
    )
    .and_then(Session::freeze)
    .expect("validates and chases");
    let reference = central.answer(&query).expect("answers").into_set();
    assert_eq!(
        answers.tuples, reference.tuples,
        "federated answers equal centralised certain answers"
    );
    println!(
        "\nfederated answers match the centralised universal solution ({} tuples) ✔",
        reference.len()
    );
}
