//! Benches for the rewriting engine (experiments E3, E5, E6),
//! `harness = false` plain timed loops (criterion is unavailable
//! offline).
//!
//! * `rewrite_listing2` — the Boolean certain-answer decision of
//!   Listing 2 on the paper fixture;
//! * `rewrite_linear` — UCQ rewriting along linear mapping chains of
//!   growing length (Proposition 2);
//! * `transitive_chase` — the chase computing transitive closure, the
//!   workload no FO rewriting covers (Proposition 3);
//! * `rewrite_ids` / `rewrite_naive` — the engine ablation at the tgd
//!   layer (e14's inputs): the id-level engine against the retained
//!   string-level oracle, by resolution depth.
//!
//! Run with `cargo bench -p rps-bench --bench rewrite`.

use rps_core::{chase_system, RpsChaseConfig, RpsRewriter};
use rps_lodgen::{actor_shape_query, chain, film_system, paper_example, FilmConfig, Topology};
use rps_tgd::RewriteConfig;

fn bench(name: &str, iters: usize, mut f: impl FnMut() -> usize) {
    let _ = f();
    let mut times = Vec::with_capacity(iters);
    let mut last = 0;
    for _ in 0..iters {
        let t0 = std::time::Instant::now();
        last = f();
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    println!("{name:<40} min {min:9.3} ms   mean {mean:9.3} ms   (result {last})");
}

fn main() {
    let ex = paper_example();
    let toby = rps_rdf::Term::iri(format!("{}Toby_Maguire", rps_lodgen::paper::DB1));
    let tuple = [toby, rps_rdf::Term::literal("39")];
    let rw = RpsRewriter::new(&ex.system);
    bench("rewrite_listing2_decide", 20, || {
        let decided = rw.is_certain_answer(&ex.query, &tuple, &RewriteConfig::default());
        usize::from(decided.expect("the tuple has the query's arity"))
    });

    for peers in [2usize, 4, 6, 8] {
        let cfg = FilmConfig {
            peers,
            films_per_peer: 12,
            actors_per_film: 2,
            person_pool: 20,
            sameas_per_pair: 2,
            topology: Topology::Chain,
            hub_style: false,
            seed: 5,
        };
        let sys = film_system(&cfg);
        let query = actor_shape_query(peers - 1, false);
        let rw = RpsRewriter::new(&sys);
        let rcfg = RewriteConfig {
            max_depth: 40,
            max_cqs: 100_000,
        };
        bench(&format!("rewrite_linear_chain/{peers}"), 5, || {
            let (ans, complete) = rw.answers(&query, &rcfg);
            assert!(complete);
            ans.len()
        });
    }

    let ab = rps_bench::RewriteAblation::new(&chain::transitive_system(40), &chain::edge_query());
    for depth in [4usize, 6, 8] {
        let cfg = RewriteConfig {
            max_depth: depth,
            max_cqs: 50_000,
        };
        bench(&format!("rewrite_ids/depth{depth}"), 5, || {
            rps_tgd::rewrite_ids(&ab.id_cq, &ab.id_tgds, &cfg).cqs.len()
        });
        bench(&format!("rewrite_naive/depth{depth}"), 5, || {
            rps_tgd::naive::rewrite(&ab.cq, &ab.tgds, &cfg).cqs.len()
        });
    }

    for len in [8usize, 16, 32] {
        let sys = chain::transitive_system(len);
        bench(&format!("transitive_chase/{len}"), 5, || {
            let sol = chase_system(&sys, &RpsChaseConfig::default());
            assert!(sol.complete);
            sol.graph.len()
        });
    }
}
