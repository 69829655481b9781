//! Future-work items made concrete: automatic discovery of `owl:sameAs`
//! mappings (Section 5, item 3) feeding the integration pipeline, and the
//! Datalog route for non-FO-rewritable systems (Section 5, item 1): a
//! full system materialises the chase of its equivalence quotient, the
//! least model of its Datalog program.
//!
//! Run with: `cargo run --example mapping_discovery`

use rps_core::{
    certain_answers, chase_system, discover, evaluate_discovery, DiscoveryConfig, EngineConfig,
    RpsChaseConfig, Session, Strategy,
};
use rps_lodgen::{chain, people_workload, PeopleConfig};

fn main() {
    // --- Part 1: discovery on the people-deduplication workload. ---
    let cfg = PeopleConfig {
        peers: 4,
        persons_per_peer: 50,
        duplicate_fraction: 0.3,
        cities: 5,
        seed: 11,
    };
    let w = people_workload(&cfg);
    println!(
        "people workload: {} peers x {} persons, {} ground-truth duplicate pairs",
        cfg.peers,
        cfg.persons_per_peer,
        w.truth.len()
    );

    let candidates = discover(&w.system, &DiscoveryConfig::default());
    let quality = evaluate_discovery(&candidates, &w.truth);
    println!(
        "discovered {} candidate mappings: precision {:.2}, recall {:.2}",
        quality.proposed, quality.precision, quality.recall
    );
    for c in candidates.iter().take(3) {
        println!(
            "  e.g. {}  (score {:.2}, {} shared literals)",
            c.mapping, c.score, c.shared
        );
    }

    // Install the discovered mappings and integrate.
    let mut system = w.system.clone();
    for c in &candidates {
        system.add_equivalence(c.mapping.clone());
    }
    let sol = chase_system(&system, &RpsChaseConfig::default());
    println!(
        "after installing discovered mappings, the universal solution grows {} -> {} triples",
        system.stored_size(),
        sol.graph.len()
    );

    // --- Part 2: the Datalog route on the Proposition-3 workload. ---
    println!("\ntransitive-closure system (no finite FO rewriting exists, Prop. 3):");
    let tc = chain::transitive_system(32);
    let t0 = std::time::Instant::now();
    let tc_sol = chase_system(&tc, &RpsChaseConfig::default());
    let chase_time = t0.elapsed();
    let chase_answers = certain_answers(&tc_sol, &chain::edge_query());

    let t1 = std::time::Instant::now();
    let config = EngineConfig::default().with_strategy(Strategy::Materialise);
    let frozen = Session::new(tc, config)
        .freeze()
        .expect("TC mappings are full TGDs");
    let quotient_answers = frozen
        .answer(&chain::edge_query())
        .expect("the closure answers")
        .into_set();
    let quotient_time = t1.elapsed();

    assert_eq!(chase_answers.tuples, quotient_answers.tuples);
    println!(
        "  {} certain answers;  the saturating chase {chase_time:?}  vs  a Materialise freeze (over the quotient) {quotient_time:?}",
        chase_answers.len()
    );
    println!("  both agree ✔ (the least model of the Datalog program: future-work item 1)");
}
