//! # rps-bench — experiment runners for every figure, listing and claim
//!
//! The paper has no measured evaluation: its artefacts are worked
//! examples (Figure 1/2, Listings 1/2) and complexity/rewritability
//! claims (Theorem 1, Propositions 2/3), plus a deferred scalability
//! study (Section 5). Each experiment here regenerates one of them:
//!
//! | id | paper artefact | runner |
//! |----|----------------|--------|
//! | E1 | Example 1 (empty result on raw data) | [`e1_raw_query`] |
//! | E2 | Figure 2 + Listing 1 (universal solution, 6 → 3 rows) | [`e2_listing1`] |
//! | E3 | Example 3 + Listing 2 (Boolean rewriting false → true) | [`e3_listing2`] |
//! | E4 | Theorem 1 (PTIME data complexity; chase scaling) | [`e4_chase_scaling`] |
//! | E5 | Proposition 2 (perfect rewriting for linear G) | [`e5_rewrite_linear`] |
//! | E6 | Proposition 3 (bounded rewriting misses TC answers) | [`e6_transitive`] |
//! | E7 | Definition 4 / Section 4 classification claims | [`e7_classification`] |
//! | E8 | Section 5 scalability (peers × topology) | [`e8_topology_scaling`] |
//! | E9 | Section 5 item 1 (chase vs rewrite crossover, ablation) | [`e9_crossover`], [`e9_equivalence_ablation`] |
//!
//! Post-paper engineering experiments: E10 (Datalog route), E11 (mapping
//! discovery), E12 (id-level federation), E13 (sorted-run vs B-tree
//! triple storage, [`e13_storage`]), E14 (id-level vs string-level
//! UCQ rewriting, [`e14_rewrite_ablation`]), E15 (frozen-session
//! concurrency, [`e15_frozen_concurrency`]), E16 (fault-tolerant
//! federation under seeded fault injection, [`e16_fault_tolerance`]),
//! E17 (durable storage: persist+reopen vs cold re-chase and
//! paged-run scan overhead, [`e17_durability`]), E18 (live updates:
//! incremental chase maintenance vs full re-chase and reader
//! throughput under epoch churn, [`e18_live_updates`]), E19
//! (scale-out single-graph execution: subject-hash sharding with
//! morsel-driven parallel scans, and compressed columnar sealed runs,
//! [`e19_scaleout`]) and E20 (SPARQL front-end wall and the
//! stats-driven cost-based join orderer vs the smallest-first
//! heuristic on a skewed-predicate workload,
//! [`e20_sparql_optimiser`]).

#![warn(missing_docs)]

use rps_core::{
    certain_answers, chase_system, saturate_naive, EquivalenceIndex, RpsChaseConfig, RpsRewriter,
};
use rps_lodgen::{
    actor_shape_query, chain, film_system, paper_example, queries, FilmConfig, Topology,
};
use rps_query::{evaluate_query, Semantics};
use rps_tgd::{Classification, RewriteConfig};
use std::time::Instant;

/// A rendered experiment: a title, column headers and text rows.
#[derive(Clone, Debug)]
pub struct Table {
    /// Experiment id and description.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = format!("## {}\n\n", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let parts: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:w$}", c, w = widths.get(i).copied().unwrap_or(0)))
                .collect();
            format!("| {} |\n", parts.join(" | "))
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&fmt_row(&sep, &widths));
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

fn ms(d: std::time::Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// E1 — Example 1: the query over the raw stored data is empty.
pub fn e1_raw_query() -> Table {
    let ex = paper_example();
    let stored = ex.system.stored_database();
    let ans = evaluate_query(&stored, &ex.query, Semantics::Certain);
    Table {
        title: "E1 — Example 1: query over raw Figure-1 data (paper: empty result)".into(),
        headers: vec!["stored triples".into(), "answers".into(), "paper".into()],
        rows: vec![vec![
            stored.len().to_string(),
            ans.len().to_string(),
            "0".into(),
        ]],
    }
}

/// E2 — Figure 2 + Listing 1: universal solution and certain answers.
pub fn e2_listing1() -> Table {
    let ex = paper_example();
    let t0 = Instant::now();
    let sol = chase_system(&ex.system, &RpsChaseConfig::default());
    let chase_time = t0.elapsed();
    let ans = certain_answers(&sol, &ex.query);
    let index = EquivalenceIndex::from_mappings(ex.system.equivalences());
    let lean = ans.without_redundancy(&index);
    let mut rows = vec![vec![
        format!("{} -> {}", ex.system.stored_size(), sol.graph.len()),
        sol.stats.gma_firings.to_string(),
        sol.stats.blanks_created.to_string(),
        ans.len().to_string(),
        lean.len().to_string(),
        ms(chase_time),
        "6 / 3".into(),
    ]];
    let matches = ans.tuples == ex.expected_full && lean.tuples == ex.expected_lean;
    rows.push(vec![
        "rows match paper".into(),
        matches.to_string(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        "true".into(),
    ]);
    Table {
        title: "E2 — Listing 1: certain answers over the universal solution".into(),
        headers: vec![
            "triples".into(),
            "gma firings".into(),
            "fresh blanks".into(),
            "answers".into(),
            "w/o redundancy".into(),
            "chase ms".into(),
            "paper".into(),
        ],
        rows,
    }
}

/// E3 — Listing 2: Boolean certain-answer decision via rewriting.
pub fn e3_listing2() -> Table {
    let ex = paper_example();
    let rw = RpsRewriter::new(&ex.system);
    let toby = rps_rdf::Term::iri(format!("{}Toby_Maguire", rps_lodgen::paper::DB1));
    let tuple = [toby, rps_rdf::Term::literal("39")];

    let free = ex.query.free_vars().to_vec();
    let bound = ex
        .query
        .pattern()
        .substitute(&|v| free.iter().position(|f| f == v).map(|i| tuple[i].clone()));
    let before = rps_query::has_match(&ex.system.stored_database(), &bound);
    let t0 = Instant::now();
    let after = rw
        .is_certain_answer(&ex.query, &tuple, &RewriteConfig::default())
        .expect("the tuple has the query's arity");
    let rewrite_time = t0.elapsed();
    Table {
        title: "E3 — Listing 2: ASK before vs after rewriting (paper: false -> true)".into(),
        headers: vec![
            "tuple".into(),
            "ASK raw".into(),
            "ASK rewritten".into(),
            "decide ms".into(),
            "paper".into(),
        ],
        rows: vec![vec![
            "(DB1:Toby_Maguire, \"39\")".into(),
            before.to_string(),
            after.to_string(),
            ms(rewrite_time),
            "false -> true".into(),
        ]],
    }
}

/// E4 — Theorem 1: chase wall time and output size vs stored size.
/// The log-log slope between successive sizes estimates the polynomial
/// degree (PTIME data complexity; near-linear for this workload family).
pub fn e4_chase_scaling(sizes: &[usize]) -> Table {
    let mut rows = Vec::new();
    let mut prev: Option<(usize, f64)> = None;
    for &films in sizes {
        let cfg = FilmConfig {
            peers: 3,
            films_per_peer: films,
            actors_per_film: 3,
            person_pool: films,
            sameas_per_pair: films / 10,
            topology: Topology::Chain,
            hub_style: false,
            seed: 4,
        };
        let sys = film_system(&cfg);
        let stored = sys.stored_size();
        let t0 = Instant::now();
        let sol = chase_system(&sys, &RpsChaseConfig::default());
        let secs = t0.elapsed().as_secs_f64();
        assert!(sol.complete);
        let slope = prev
            .map(|(ps, pt)| ((secs / pt).ln() / (stored as f64 / ps as f64).ln()).max(0.0))
            .map(|s| format!("{s:.2}"))
            .unwrap_or_else(|| "-".into());
        prev = Some((stored, secs));
        rows.push(vec![
            stored.to_string(),
            sol.graph.len().to_string(),
            format!("{:.1}", secs * 1e3),
            sol.stats.rounds.to_string(),
            slope,
        ]);
    }
    Table {
        title: "E4 — Theorem 1: chase scaling (PTIME; log-log slope ~ polynomial degree)".into(),
        headers: vec![
            "stored triples".into(),
            "solution triples".into(),
            "chase ms".into(),
            "rounds".into(),
            "slope".into(),
        ],
        rows,
    }
}

/// E5 — Proposition 2: perfect rewriting for linear chains; UCQ size and
/// agreement with the chase as the mapping chain grows. The rewrite time
/// is an average of several runs (single shots are below timer
/// resolution); the engine-vs-oracle ablation is e14's.
pub fn e5_rewrite_linear(chain_lengths: &[usize]) -> Table {
    const REPS: u32 = 5;
    let mut rows = Vec::new();
    for &peers in chain_lengths {
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
        let t0 = Instant::now();
        let mut rewriting = rw.rewrite_canonical(&query, &rcfg);
        for _ in 1..REPS {
            rewriting = rw.rewrite_canonical(&query, &rcfg);
        }
        let rewrite_time = t0.elapsed() / REPS;
        let (ans, complete) = rw.answers(&query, &rcfg);
        let sol = chase_system(&sys, &RpsChaseConfig::default());
        let chased = certain_answers(&sol, &query);
        rows.push(vec![
            peers.to_string(),
            rewriting.len().to_string(),
            ms(rewrite_time),
            complete.to_string(),
            (ans.tuples == chased.tuples).to_string(),
            ans.len().to_string(),
        ]);
    }
    Table {
        title: "E5 — Proposition 2: UCQ rewriting on linear chains (perfect = agrees with chase)"
            .into(),
        headers: vec![
            "peers".into(),
            "UCQ branches".into(),
            "rewrite ms".into(),
            "complete".into(),
            "equals chase".into(),
            "answers".into(),
        ],
        rows,
    }
}

/// E6 — Proposition 3: bounded rewriting vs chase on transitive closure.
pub fn e6_transitive(chain_lengths: &[usize], depths: &[usize]) -> Table {
    let mut rows = Vec::new();
    for &len in chain_lengths {
        let sys = chain::transitive_system(len);
        let sol = chase_system(&sys, &RpsChaseConfig::default());
        let chase_ans = certain_answers(&sol, &chain::edge_query());
        let rw = RpsRewriter::new(&sys);
        for &depth in depths {
            let cfg = RewriteConfig {
                max_depth: depth,
                max_cqs: 100_000,
            };
            let (ans, complete) = rw.answers(&chain::edge_query(), &cfg);
            rows.push(vec![
                len.to_string(),
                depth.to_string(),
                chase_ans.len().to_string(),
                ans.len().to_string(),
                (chase_ans.len() - ans.len()).to_string(),
                complete.to_string(),
            ]);
        }
    }
    Table {
        title: "E6 — Proposition 3: transitive closure defeats bounded FO rewriting".into(),
        headers: vec![
            "chain len".into(),
            "rewrite depth".into(),
            "chase answers".into(),
            "rewriting answers".into(),
            "missed".into(),
            "complete".into(),
        ],
        rows,
    }
}

/// E7 — Definition 4 / Section 4 classification claims.
pub fn e7_classification() -> Table {
    use rps_tgd::term::dsl::{atom, c, v};
    let mut rows = Vec::new();
    let mut add = |name: &str, tgds: &[rps_tgd::Tgd], paper: &str| {
        let cl = Classification::of(tgds);
        rows.push(vec![
            name.to_string(),
            cl.linear.to_string(),
            cl.sticky.to_string(),
            cl.sticky_join.to_string(),
            cl.guarded.to_string(),
            cl.weakly_acyclic.to_string(),
            cl.fo_rewritable().to_string(),
            paper.to_string(),
        ]);
    };

    let ex = paper_example();
    let de = rps_core::encode_system(&ex.system);
    add(
        "paper G (Example 2)",
        &de.mapping_tgds_unguarded,
        "linear (Example 3)",
    );
    add(
        "paper E (equivalences)",
        &de.equivalence_tgds,
        "linear + sticky (S4)",
    );

    let section4 = vec![rps_tgd::Tgd::new(
        vec![
            atom("tt", &[v("x"), c("A"), v("z")]),
            atom("tt", &[v("z"), c("B"), v("y")]),
        ],
        vec![atom("tt", &[v("x"), c("C"), v("y")])],
    )];
    add("Section-4 witness", &section4, "not sticky (S4)");

    let tc = rps_core::encode_system(&chain::transitive_system(3));
    add(
        "transitive closure (Prop 3)",
        &tc.mapping_tgds_unguarded,
        "not FO-rewritable",
    );
    Table {
        title: "E7 — Definition 4 classification vs the paper's claims".into(),
        headers: vec![
            "TGD set".into(),
            "linear".into(),
            "sticky".into(),
            "sticky-join".into(),
            "guarded".into(),
            "weakly-acyclic".into(),
            "FO-rewritable".into(),
            "paper says".into(),
        ],
        rows,
    }
}

/// E8 — Section 5 scalability: chase cost and federation traffic vs
/// number of peers and mapping topology.
pub fn e8_topology_scaling(peer_counts: &[usize]) -> Table {
    let mut rows = Vec::new();
    for &peers in peer_counts {
        for topology in [
            Topology::Chain,
            Topology::Ring,
            Topology::Star { hub: 0 },
            Topology::Clique,
        ] {
            let label = topology.label();
            let cfg = FilmConfig {
                peers,
                films_per_peer: 12,
                actors_per_film: 2,
                person_pool: 20,
                sameas_per_pair: 2,
                topology,
                hub_style: false,
                seed: 6,
            };
            let sys = film_system(&cfg);
            let stored = sys.stored_size();
            let t0 = Instant::now();
            let sol = chase_system(&sys, &RpsChaseConfig::default());
            let chase_ms = t0.elapsed();
            let query = actor_shape_query(peers - 1, false);
            let config = rps_core::EngineConfig::default().with_rewrite(RewriteConfig {
                max_depth: 60,
                max_cqs: 200_000,
            });
            let result = rps_p2p::FederatedSession::new(&sys, config)
                .answer(&query)
                .expect("chain/ring/star/clique film mappings rewrite exhaustively");
            rows.push(vec![
                peers.to_string(),
                label.to_string(),
                stored.to_string(),
                sol.graph.len().to_string(),
                ms(chase_ms),
                result.branches.to_string(),
                result.stats.messages.to_string(),
                format!("{:.1}", result.makespan_ms),
            ]);
        }
    }
    Table {
        title: "E8 — scalability: peers × topology (chase size/time, federation traffic)".into(),
        headers: vec![
            "peers".into(),
            "topology".into(),
            "stored".into(),
            "solution".into(),
            "chase ms".into(),
            "UCQ branches".into(),
            "messages".into(),
            "makespan ms".into(),
        ],
        rows,
    }
}

/// E9 — the materialise-vs-rewrite crossover: total cost of answering a
/// workload of `q` queries under each strategy.
pub fn e9_crossover(query_counts: &[usize]) -> Table {
    // Hub-style star mappings: every firing invents a blank node, making
    // materialisation pay a real up-front cost, while anchored lookup
    // queries rewrite into tiny unions. This exposes the trade-off the
    // paper's future-work item 1 discusses.
    let cfg = FilmConfig {
        peers: 4,
        films_per_peer: 400,
        actors_per_film: 3,
        person_pool: 300,
        sameas_per_pair: 4,
        topology: Topology::Star { hub: 0 },
        hub_style: true,
        seed: 8,
    };
    let sys = film_system(&cfg);
    // Source access/encoding is common to both strategies (both must read
    // the peers' data); it is excluded from the timings.
    let rw = RpsRewriter::new(&sys);
    let rcfg = RewriteConfig {
        max_depth: 40,
        max_cqs: 100_000,
    };
    let mut rows = Vec::new();
    for &q in query_counts {
        let workload = queries::random_cast_queries(1, cfg.films_per_peer, q, 99);

        // Materialise once (Algorithm 1), evaluate queries over the
        // solution.
        let t0 = Instant::now();
        let sol = chase_system(&sys, &RpsChaseConfig::default());
        for query in &workload {
            let _ = certain_answers(&sol, query);
        }
        let mat_total = t0.elapsed();

        // Rewrite each query (combined route), no materialisation.
        let t1 = Instant::now();
        for query in &workload {
            let (_, complete) = rw.answers(query, &rcfg);
            assert!(complete);
        }
        let rw_total = t1.elapsed();

        rows.push(vec![
            q.to_string(),
            ms(mat_total),
            ms(rw_total),
            if mat_total < rw_total {
                "materialise"
            } else {
                "rewrite"
            }
            .to_string(),
        ]);
    }
    Table {
        title: "E9a — crossover: total cost for q queries (materialise-once vs rewrite-per-query)"
            .into(),
        headers: vec![
            "queries".into(),
            "materialise ms".into(),
            "rewrite ms".into(),
            "winner".into(),
        ],
        rows,
    }
}

/// E9b — equivalence-saturation ablation: naïve Algorithm-1 copying vs
/// the union-find canonical route, as sameAs density grows.
pub fn e9_equivalence_ablation(densities: &[usize]) -> Table {
    let mut rows = Vec::new();
    for &density in densities {
        let cfg = FilmConfig {
            peers: 3,
            films_per_peer: 120,
            actors_per_film: 3,
            person_pool: 60,
            sameas_per_pair: density,
            topology: Topology::Chain,
            hub_style: false,
            seed: 10,
        };
        let sys = film_system(&cfg);
        let stored = sys.stored_database();
        let eqs = sys.equivalences().to_vec();

        let t0 = Instant::now();
        let saturated = saturate_naive(&stored, &eqs);
        let naive_time = t0.elapsed();

        let t1 = Instant::now();
        let index = EquivalenceIndex::from_mappings(&eqs);
        let canon = rps_core::canonicalize_graph(&stored, &index);
        let uf_time = t1.elapsed();

        rows.push(vec![
            eqs.len().to_string(),
            stored.len().to_string(),
            saturated.len().to_string(),
            canon.len().to_string(),
            ms(naive_time),
            ms(uf_time),
            format!(
                "{:.1}x",
                naive_time.as_secs_f64() / uf_time.as_secs_f64().max(1e-9)
            ),
        ]);
    }
    Table {
        title: "E9b — ablation: naïve equivalence saturation vs union-find canonicalisation".into(),
        headers: vec![
            "equivalences".into(),
            "stored".into(),
            "saturated".into(),
            "canonical".into(),
            "naive ms".into(),
            "union-find ms".into(),
            "speedup".into(),
        ],
        rows,
    }
}

/// E10 — future-work item 1, realised: the Datalog route answers the
/// non-FO-rewritable transitive-closure systems exactly, and the
/// semi-naive fixpoint beats the generic trigger-and-check chase.
pub fn e10_datalog(chain_lengths: &[usize]) -> Table {
    let mut rows = Vec::new();
    for &len in chain_lengths {
        let sys = chain::transitive_system(len);
        let t0 = Instant::now();
        let sol = chase_system(&sys, &RpsChaseConfig::default());
        let chase_time = t0.elapsed();
        let chase_ans = certain_answers(&sol, &chain::edge_query());

        let t1 = Instant::now();
        let engine = rps_core::DatalogEngine::new(&sys).expect("TC mappings are full TGDs");
        let datalog_ans = engine.answers(&chain::edge_query());
        let datalog_time = t1.elapsed();

        rows.push(vec![
            len.to_string(),
            chase_ans.len().to_string(),
            (datalog_ans.tuples == chase_ans.tuples).to_string(),
            ms(chase_time),
            ms(datalog_time),
            format!(
                "{:.1}x",
                chase_time.as_secs_f64() / datalog_time.as_secs_f64().max(1e-9)
            ),
        ]);
    }
    Table {
        title:
            "E10 — future work 1: Datalog (semi-naive) route on the Prop-3 workload vs Algorithm 1"
                .into(),
        headers: vec![
            "chain len".into(),
            "answers".into(),
            "equals chase".into(),
            "chase ms".into(),
            "datalog ms".into(),
            "speedup".into(),
        ],
        rows,
    }
}

/// E12 — the federation redesign: id-level *prepared* federated
/// execution (answer dictionary + per-peer id translation + hash joins
/// on dense ids) vs the retained term-level baseline (per-peer pattern
/// re-compilation, owned-term bindings, nested-loop mapping joins), per
/// peer count. The prepared plan is compiled once and executed
/// repeatedly, so the id column is the steady-state per-query cost.
pub fn e12_federation(peer_counts: &[usize]) -> Table {
    use rps_p2p::{FederatedEngine, SimNetwork};
    use rps_query::Semantics;
    const REPS: u32 = 7;
    let mut rows = Vec::new();
    for &peers in peer_counts {
        let cfg = FilmConfig {
            peers,
            films_per_peer: 60,
            actors_per_film: 3,
            person_pool: 80,
            sameas_per_pair: 2,
            topology: Topology::Chain,
            hub_style: false,
            seed: 12,
        };
        let sys = film_system(&cfg);
        let query = actor_shape_query(peers - 1, false);
        let engine = FederatedEngine::new(&sys);

        let t0 = Instant::now();
        let prepared = engine.prepare_query(&query);
        let prepare_time = t0.elapsed();

        let t1 = Instant::now();
        let mut id_answers = std::collections::BTreeSet::new();
        for _ in 0..REPS {
            let mut net = SimNetwork::new();
            let (ids, _) = engine.execute(&prepared, Semantics::Certain, &mut net);
            id_answers = ids;
        }
        let id_time = t1.elapsed() / REPS;
        let id_decoded = engine.decode(&id_answers);

        let t2 = Instant::now();
        let mut term_answers = std::collections::BTreeSet::new();
        for _ in 0..REPS {
            let mut net = SimNetwork::new();
            let (terms, _) = engine.evaluate_query_term_level(&query, Semantics::Certain, &mut net);
            term_answers = terms;
        }
        let term_time = t2.elapsed() / REPS;

        rows.push(vec![
            peers.to_string(),
            sys.stored_size().to_string(),
            id_decoded.len().to_string(),
            (id_decoded == term_answers).to_string(),
            ms(prepare_time),
            ms(id_time),
            ms(term_time),
            format!(
                "{:.1}x",
                term_time.as_secs_f64() / id_time.as_secs_f64().max(1e-9)
            ),
        ]);
    }
    Table {
        title: "E12 — federation: id-level prepared execution vs term-level baseline".into(),
        headers: vec![
            "peers".into(),
            "stored".into(),
            "answers".into(),
            "paths agree".into(),
            "prepare ms".into(),
            "id exec ms".into(),
            "term exec ms".into(),
            "speedup".into(),
        ],
        rows,
    }
}

/// E11 — future-work item 3: automatic mapping discovery quality on the
/// people-deduplication workload, sweeping the duplicate fraction.
pub fn e11_discovery(duplicate_fractions: &[f64]) -> Table {
    use rps_core::{discover, evaluate_discovery, DiscoveryConfig};
    use rps_lodgen::{people_workload, PeopleConfig};
    let mut rows = Vec::new();
    for &frac in duplicate_fractions {
        let w = people_workload(&PeopleConfig {
            peers: 4,
            persons_per_peer: 60,
            duplicate_fraction: frac,
            cities: 5,
            seed: 11,
        });
        let t0 = Instant::now();
        let candidates = discover(&w.system, &DiscoveryConfig::default());
        let time = t0.elapsed();
        let q = evaluate_discovery(&candidates, &w.truth);
        rows.push(vec![
            format!("{frac:.1}"),
            q.truth.to_string(),
            q.proposed.to_string(),
            format!("{:.2}", q.precision),
            format!("{:.2}", q.recall),
            ms(time),
        ]);
    }
    Table {
        title: "E11 — future work 3: sameAs discovery (fingerprint baseline) precision/recall"
            .into(),
        headers: vec![
            "dup fraction".into(),
            "truth pairs".into(),
            "proposed".into(),
            "precision".into(),
            "recall".into(),
            "time ms".into(),
        ],
        rows,
    }
}

/// The tgd-layer inputs of the rewriting ablation (e14 and
/// `benches/rewrite.rs`): a system's stored database loaded as `tt`
/// facts, its unguarded mapping TGDs compiled against that instance, the
/// same TGDs at the string level for the oracle, and a query as a
/// relational CQ in both forms.
pub struct RewriteAblation {
    /// The stored database as `tt` facts; its dictionaries mint every id
    /// below.
    pub instance: rps_tgd::Instance,
    /// `encode_system`'s unguarded mapping TGDs.
    pub tgds: Vec<rps_tgd::Tgd>,
    /// `tgds` compiled for `rps_tgd::rewrite_ids`.
    pub id_tgds: rps_tgd::IdTgdSet,
    /// The query for `rps_tgd::naive::rewrite`.
    pub cq: rps_tgd::Cq,
    /// The query for `rps_tgd::rewrite_ids`.
    pub id_cq: rps_tgd::IdCq,
}

impl RewriteAblation {
    /// Encodes `system` and `query` for both engines.
    pub fn new(system: &rps_core::RdfPeerSystem, query: &rps_query::GraphPatternQuery) -> Self {
        let mut de = rps_core::encode_system(system);
        let mut instance = rps_core::graph_as_tt(&system.stored_database(), &mut de.encoder);
        let tgds = de.mapping_tgds_unguarded;
        let id_tgds = rps_tgd::IdTgdSet::compile(&tgds, &mut instance);
        let cq = rps_core::query_to_cq(query, &mut de.encoder, false);
        let id_cq = rps_tgd::intern_cq(&cq, &mut instance);
        RewriteAblation {
            instance,
            tgds,
            id_tgds,
            cq,
            id_cq,
        }
    }

    /// `true` iff the two engines' unions have byte-identical certain
    /// answers over the stored database.
    pub fn answers_agree(&self, id: &[rps_tgd::IdCq], naive: &[rps_tgd::Cq]) -> bool {
        let values = self.instance.values();
        let id_answers: std::collections::BTreeSet<Vec<rps_tgd::GroundTerm>> =
            rps_tgd::evaluate_union_ids(id, &self.instance)
                .iter()
                .map(|row| row.iter().map(|&v| values.value(v).clone()).collect())
                .collect();
        id_answers == rps_tgd::evaluate_union(naive, &self.instance)
    }
}

/// E14 — the rewriting-engine ablation, at the layer that owns both
/// engines: id-level numbered-variable UCQ rewriting
/// (`rps_tgd::rewrite_ids`, subsumption-pruned — what
/// `RpsRewriter::rewrite_canonical` runs) vs the retained string-level
/// oracle (`rps_tgd::naive::rewrite`) at increasing resolution depth, on
/// the Proposition-3 transitive-closure workload whose expansion grows
/// with depth (e6's shape — per-step allocation is what the id engine
/// removes). Both engines' unions are evaluated over the same stored
/// database and the answer sets compared for byte identity; rewrite
/// times are averages of several runs.
pub fn e14_rewrite_ablation(depths: &[usize]) -> Table {
    const REPS: u32 = 3;
    let ab = RewriteAblation::new(&chain::transitive_system(40), &chain::edge_query());
    let mut rows = Vec::new();
    for &depth in depths {
        let cfg = RewriteConfig {
            max_depth: depth,
            max_cqs: 50_000,
        };
        let t0 = Instant::now();
        let mut id_rw = rps_tgd::rewrite_ids(&ab.id_cq, &ab.id_tgds, &cfg);
        for _ in 1..REPS {
            id_rw = rps_tgd::rewrite_ids(&ab.id_cq, &ab.id_tgds, &cfg);
        }
        let id_time = t0.elapsed() / REPS;
        let t1 = Instant::now();
        let mut naive_rw = rps_tgd::naive::rewrite(&ab.cq, &ab.tgds, &cfg);
        for _ in 1..REPS {
            naive_rw = rps_tgd::naive::rewrite(&ab.cq, &ab.tgds, &cfg);
        }
        let naive_time = t1.elapsed() / REPS;
        rows.push(vec![
            depth.to_string(),
            id_rw.cqs.len().to_string(),
            id_rw.explored.to_string(),
            naive_rw.cqs.len().to_string(),
            ms(id_time),
            ms(naive_time),
            format!(
                "{:.1}x",
                naive_time.as_secs_f64() / id_time.as_secs_f64().max(1e-9)
            ),
            ab.answers_agree(&id_rw.cqs, &naive_rw.cqs).to_string(),
        ]);
    }
    Table {
        title: "E14 — rewriting ablation: id-level (pruned) vs string-level oracle by depth".into(),
        headers: vec![
            "depth".into(),
            "id branches".into(),
            "explored".into(),
            "naive branches".into(),
            "id rewrite ms".into(),
            "naive rewrite ms".into(),
            "speedup".into(),
            "answers agree".into(),
        ],
        rows,
    }
}

/// E13 — the storage-layer ablation: sorted-run / merge-batch indexes
/// (the [`rps_rdf::StorageBackend::SortedRuns`] default) vs the
/// three-`BTreeSet` baseline, on an insert-then-scan microworkload in
/// the chase's shape (skewed predicates, growing subject space).
///
/// Columns: per-backend insert wall time (one `insert_ids` per triple),
/// the sorted-run batch-load time ([`rps_rdf::Graph::insert_batch`],
/// which sorts once into a fresh run), per-backend scan wall time (all
/// predicate ranges + sampled subject ranges + one full SPO sweep), the
/// combined insert+scan speedup of runs over B-trees, and an agreement
/// check (identical scan results).
pub fn e13_storage(sizes: &[usize]) -> Table {
    use rps_lodgen::rng::SeededRng;
    use rps_rdf::{Graph, IdTriple, StorageBackend, Term};
    const PREDS: usize = 16;
    const SCAN_REPS: u32 = 3;

    let mut rows = Vec::new();
    for &n in sizes {
        // One deterministic triple workload per size; both backends see
        // the same interning order, so term ids coincide and scans are
        // comparable id-for-id.
        let mut rng = SeededRng::seed_from_u64(13 + n as u64);
        let subjects = (n / 8).max(4);
        let objects = (n / 4).max(4);
        let make = |g: &mut Graph, rng: &mut SeededRng| -> Vec<IdTriple> {
            let pred_ids: Vec<_> = (0..PREDS)
                .map(|i| g.intern(&Term::iri(format!("http://e13/p{i}"))))
                .collect();
            let subj_ids: Vec<_> = (0..subjects)
                .map(|i| g.intern(&Term::iri(format!("http://e13/s{i}"))))
                .collect();
            let obj_ids: Vec<_> = (0..objects)
                .map(|i| g.intern(&Term::iri(format!("http://e13/o{i}"))))
                .collect();
            (0..n)
                .map(|_| {
                    // Zipf-ish predicate skew: half the triples on 2
                    // predicates, like `starring`/`artist` in the film
                    // workloads.
                    let p = if rng.gen_bool(0.5) {
                        rng.gen_range(0..2)
                    } else {
                        rng.gen_range(0..PREDS)
                    };
                    IdTriple::new(
                        subj_ids[rng.gen_range(0..subjects)],
                        pred_ids[p],
                        obj_ids[rng.gen_range(0..objects)],
                    )
                })
                .collect()
        };

        let mut g_runs = Graph::new();
        let triples = make(&mut g_runs, &mut rng);
        let mut rng2 = SeededRng::seed_from_u64(13 + n as u64);
        let mut g_btree = Graph::with_backend(StorageBackend::BTree);
        let triples_bt = make(&mut g_btree, &mut rng2);
        assert_eq!(triples, triples_bt, "identical interning order");

        let t0 = Instant::now();
        for &t in &triples {
            g_runs.insert_ids(t);
        }
        let runs_insert = t0.elapsed();

        let t1 = Instant::now();
        for &t in &triples_bt {
            g_btree.insert_ids(t);
        }
        let btree_insert = t1.elapsed();

        // The bulk path: one merge-batch instead of n tail pushes.
        let mut g_batch = Graph::new();
        let triples_batch = make(&mut g_batch, &mut SeededRng::seed_from_u64(13 + n as u64));
        let t2 = Instant::now();
        g_batch.insert_batch(triples_batch);
        let batch_insert = t2.elapsed();
        assert_eq!(g_batch.len(), g_runs.len());

        let pred_ids: Vec<_> = (0..PREDS)
            .map(|i| {
                g_runs
                    .term_id(&Term::iri(format!("http://e13/p{i}")))
                    .unwrap()
            })
            .collect();
        let subj_sample: Vec<_> = (0..64)
            .map(|i| {
                g_runs
                    .term_id(&Term::iri(format!("http://e13/s{}", i * subjects / 64)))
                    .unwrap()
            })
            .collect();
        let scan = |g: &Graph| -> (std::time::Duration, usize) {
            let t = Instant::now();
            let mut total = 0usize;
            for _ in 0..SCAN_REPS {
                for &p in &pred_ids {
                    total += g.match_ids(None, Some(p), None).count();
                }
                for &s in &subj_sample {
                    total += g.match_ids(Some(s), None, None).count();
                }
                total += g.iter_ids().count();
            }
            (t.elapsed(), total)
        };
        let (runs_scan, runs_total) = scan(&g_runs);
        let (btree_scan, btree_total) = scan(&g_btree);
        let agree = runs_total == btree_total && g_runs.len() == g_btree.len();

        let runs_combined = runs_insert + runs_scan;
        let btree_combined = btree_insert + btree_scan;
        rows.push(vec![
            n.to_string(),
            g_runs.len().to_string(),
            ms(btree_insert),
            ms(runs_insert),
            ms(batch_insert),
            ms(btree_scan),
            ms(runs_scan),
            format!(
                "{:.2}x",
                btree_combined.as_secs_f64() / runs_combined.as_secs_f64().max(1e-9)
            ),
            agree.to_string(),
        ]);
    }
    Table {
        title: "E13 — storage: sorted-run / merge-batch indexes vs BTreeSet baseline".into(),
        headers: vec![
            "triples".into(),
            "distinct".into(),
            "btree insert ms".into(),
            "runs insert ms".into(),
            "runs batch ms".into(),
            "btree scan ms".into(),
            "runs scan ms".into(),
            "ins+scan speedup".into(),
            "agree".into(),
        ],
        rows,
    }
}

/// E15 — the frozen-session concurrency experiment: execute throughput
/// of one shared `FrozenSession` as the thread count grows, plus the
/// plan-cache hit-vs-miss preparation speedup.
///
/// The `execute` rows split a **fixed** total of `total_execs`
/// executions of one prepared query across 1/2/4/… threads sharing a
/// single frozen handle (materialised route — the execution itself is
/// lock-free), so wall time shrinks with real parallel speedup and
/// stays flat on a single-core host; every thread checks its answers
/// against the sequential `Session`. The `prepare` rows measure the
/// rewrite route's compile cost (fresh frozen session per miss) against
/// repeated preparations of the same canonical query served from the
/// plan cache.
pub fn e15_frozen_concurrency(threads: &[usize], total_execs: usize) -> Table {
    use rps_core::{EngineConfig, Session, Strategy};
    const MISS_REPS: u32 = 5;
    const HIT_REPS: u32 = 2_000;

    let cfg = FilmConfig {
        peers: 4,
        films_per_peer: 24,
        actors_per_film: 3,
        person_pool: 40,
        sameas_per_pair: 2,
        topology: Topology::Chain,
        hub_style: false,
        seed: 15,
    };
    let sys = film_system(&cfg);
    let query = actor_shape_query(cfg.peers - 1, false);
    let mat = EngineConfig::default().with_strategy(Strategy::Materialise);
    let expected = Session::open(sys.clone(), mat.clone())
        .unwrap()
        .answer(&query)
        .unwrap()
        .into_set()
        .tuples;
    let frozen = Session::open(sys.clone(), mat).unwrap().freeze().unwrap();
    let prepared = frozen.prepare(&query).unwrap();

    let mut rows = Vec::new();
    let mut base_qps = 0.0;
    for &t in threads {
        let per_thread = (total_execs / t.max(1)).max(1);
        let t0 = Instant::now();
        let agree = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..t)
                .map(|_| {
                    let (frozen, prepared, expected) = (&frozen, &prepared, &expected);
                    scope.spawn(move || {
                        let mut ok = true;
                        for _ in 0..per_thread {
                            let got = frozen.execute(prepared).unwrap().into_set().tuples;
                            ok &= &got == expected;
                        }
                        ok
                    })
                })
                .collect();
            handles.into_iter().all(|h| h.join().unwrap())
        });
        let wall = t0.elapsed();
        let execs = per_thread * t;
        let qps = execs as f64 / wall.as_secs_f64().max(1e-9);
        if base_qps == 0.0 {
            base_qps = qps;
        }
        rows.push(vec![
            "execute".into(),
            t.to_string(),
            execs.to_string(),
            ms(wall),
            format!("{qps:.0}"),
            format!("{:.2}x", qps / base_qps),
            agree.to_string(),
        ]);
    }

    // Plan-cache ablation on the rewrite route (compilation is the
    // expensive phase the cache skips).
    let rw_cfg = EngineConfig::default()
        .with_strategy(Strategy::Rewrite)
        .with_rewrite(RewriteConfig {
            max_depth: 40,
            max_cqs: 100_000,
        });
    let mut miss_total = std::time::Duration::ZERO;
    let mut miss_answers = None;
    for _ in 0..MISS_REPS {
        let f = Session::open(sys.clone(), rw_cfg.clone())
            .unwrap()
            .freeze()
            .unwrap();
        let t0 = Instant::now();
        let p = f.prepare(&query).unwrap();
        miss_total += t0.elapsed();
        miss_answers = Some(f.execute(&p).unwrap().into_set().tuples);
    }
    let miss_avg = miss_total / MISS_REPS;

    let f = Session::open(sys, rw_cfg).unwrap().freeze().unwrap();
    let p = f.prepare(&query).unwrap(); // warm the cache
    let t0 = Instant::now();
    for _ in 0..HIT_REPS {
        std::hint::black_box(f.prepare(&query).unwrap());
    }
    let hit_avg = t0.elapsed() / HIT_REPS;
    let hit_answers = f.execute(&p).unwrap().into_set().tuples;
    let agree = miss_answers.as_ref() == Some(&hit_answers);
    let per_sec = |d: std::time::Duration| format!("{:.0}", 1.0 / d.as_secs_f64().max(1e-9));
    rows.push(vec![
        "prepare-miss".into(),
        "1".into(),
        MISS_REPS.to_string(),
        ms(miss_avg),
        per_sec(miss_avg),
        "1.00x".into(),
        "-".into(),
    ]);
    rows.push(vec![
        "prepare-hit".into(),
        "1".into(),
        HIT_REPS.to_string(),
        ms(hit_avg),
        per_sec(hit_avg),
        format!(
            "{:.1}x",
            miss_avg.as_secs_f64() / hit_avg.as_secs_f64().max(1e-9)
        ),
        agree.to_string(),
    ]);

    Table {
        title: "E15 — frozen sessions: shared-handle execute throughput by threads \
                + plan-cache hit speedup"
            .into(),
        headers: vec![
            "phase".into(),
            "threads".into(),
            "ops".into(),
            "wall ms".into(),
            "ops/s".into(),
            "speedup".into(),
            "agree".into(),
        ],
        rows,
    }
}

/// E16 — fault-tolerant federation: the cost of the retry/deadline
/// machinery at zero faults and the degraded-mode behaviour as the
/// injected fault rate grows.
///
/// The first row runs the legacy perfect path
/// (`FederatedEngine::execute`, no retry bookkeeping); the `0.00` row
/// runs the same exchanges through `execute_with` + `RetryPolicy` over
/// a fault wrapper with every rate at zero — their wall-clock delta is
/// the whole fault-tolerance overhead. Each further row injects drops
/// and transient errors at the given per-exchange rate (seeded, so
/// every run reproduces the same schedule) under
/// `FailurePolicy::BestEffort`, reporting the retries taken, the retry
/// traffic added, the exchanges given up on, the quorum accounting and
/// the degraded-round makespan. `sound` pins the degradation contract:
/// degraded answers are always a subset of the fault-free answers.
pub fn e16_fault_tolerance(fault_rates: &[f64]) -> Table {
    use rps_core::{FailurePolicy, RetryPolicy};
    use rps_p2p::{
        CostModel, FaultConfig, FaultyTransport, FederatedEngine, SimNetwork, SimTransport,
    };
    const REPS: u32 = 7;
    let cfg = FilmConfig {
        peers: 4,
        films_per_peer: 40,
        actors_per_film: 3,
        person_pool: 60,
        sameas_per_pair: 2,
        topology: Topology::Chain,
        hub_style: false,
        seed: 16,
    };
    let sys = film_system(&cfg);
    // A UCQ touching every peer: one shape branch per peer plus a full
    // scan branch that fans out to all of them — so fault schedules
    // have many pattern×peer exchanges to bite on.
    let query = {
        use rps_query::{GraphPattern, TermOrVar, UnionQuery, Variable};
        let mut branches: Vec<GraphPattern> = (0..cfg.peers)
            .map(|p| actor_shape_query(p, false).pattern().clone())
            .collect();
        branches.push(GraphPattern::triple(
            TermOrVar::var("x"),
            TermOrVar::var("p"),
            TermOrVar::var("y"),
        ));
        UnionQuery::new(vec![Variable::new("x"), Variable::new("y")], branches)
    };
    let engine = FederatedEngine::new(&sys);
    let prepared = engine.prepare_union(&query);
    let retry = RetryPolicy::default();
    let cost = CostModel::default();
    let mut rows = Vec::new();

    // Fault-free reference: the legacy no-retry path.
    let t0 = Instant::now();
    let mut clean = (std::collections::BTreeSet::new(), SimNetwork::new());
    for _ in 0..REPS {
        let mut net = SimNetwork::new();
        let (ids, _) = engine.execute(&prepared, Semantics::Certain, &mut net);
        clean = (ids, net);
    }
    let legacy_wall = t0.elapsed() / REPS;
    let (clean_ids, clean_net) = clean;
    rows.push(vec![
        "legacy".into(),
        ms(legacy_wall),
        "0".into(),
        "0".into(),
        "0".into(),
        format!("{peers}/{peers}", peers = cfg.peers),
        format!("{:.2}", clean_net.round_makespan_ms(&cost, cfg.peers)),
        "true".into(),
    ]);

    for &rate in fault_rates {
        let transport = FaultyTransport::new(
            SimTransport::new(engine.peer_graphs()),
            FaultConfig {
                seed: 16,
                drop_rate: rate,
                transient_rate: rate,
                latency_jitter_ms: 2.0,
                ..FaultConfig::default()
            },
        );
        let t0 = Instant::now();
        let mut last = None;
        for _ in 0..REPS {
            let mut net = SimNetwork::new();
            let out = engine
                .execute_with(
                    &prepared,
                    Semantics::Certain,
                    &mut net,
                    &transport,
                    &retry,
                    FailurePolicy::BestEffort,
                )
                .expect("best effort never fails the query");
            last = Some((out, net));
        }
        let wall = t0.elapsed() / REPS;
        let ((ids, _stats, report), net) = last.expect("REPS > 0");
        rows.push(vec![
            format!("{rate:.2}"),
            ms(wall),
            report.retries().to_string(),
            net.retry_bytes().to_string(),
            report.skipped.len().to_string(),
            format!("{}/{}", report.peers_responded, report.peers_contacted),
            format!("{:.2}", net.round_makespan_ms(&cost, cfg.peers)),
            ids.is_subset(&clean_ids).to_string(),
        ]);
    }
    Table {
        title: "E16 — fault-tolerant federation: retry overhead at zero faults and \
                degraded-mode cost by injected fault rate (best effort)"
            .into(),
        headers: vec![
            "fault rate".into(),
            "exec ms".into(),
            "retries".into(),
            "retry bytes".into(),
            "skipped".into(),
            "responded".into(),
            "makespan ms".into(),
            "sound".into(),
        ],
        rows,
    }
}

/// E17 — the durable storage tier: persisting a materialised universal
/// solution and reopening it from disk vs re-running the chase cold,
/// plus the overhead of scanning the checksummed paged run files
/// through a small buffer pool against the recovered in-memory indexes.
///
/// `sizes` are films-per-peer as in [`e4_chase_scaling`]. For each
/// size the solution is chased once (the cold path a restart would
/// otherwise pay), checkpointed with [`rps_rdf::Graph::persist`], and
/// recovered with [`rps_rdf::Graph::open`]; `reopen speedup` is
/// chase-wall over persist+reopen-wall — the restart amortisation the
/// tier exists for. The scan columns drive one full SPO pass through
/// [`rps_rdf::store::disk::PagedRun`] over a deliberately tiny
/// (16-frame) [`rps_rdf::store::disk::BufferPool`] — every page fault,
/// checksum and eviction on the clock — against `iter_ids` on the
/// recovered graph. `agree` pins both paths to the key counts the
/// manifest promises.
pub fn e17_durability(sizes: &[usize]) -> Table {
    use rps_rdf::store::disk::{BufferPool, Manifest, PagedRun};
    use rps_rdf::Graph;
    const POOL_FRAMES: usize = 16;

    let mut rows = Vec::new();
    for (i, &films) in sizes.iter().enumerate() {
        let cfg = FilmConfig {
            peers: 3,
            films_per_peer: films,
            actors_per_film: 3,
            person_pool: films,
            sameas_per_pair: films / 10,
            topology: Topology::Chain,
            hub_style: false,
            seed: 17,
        };
        let sys = film_system(&cfg);
        let t0 = Instant::now();
        let sol = chase_system(&sys, &RpsChaseConfig::default());
        let chase = t0.elapsed();
        assert!(sol.complete);

        let dir = std::env::temp_dir().join(format!("rps-e17-{}-{i}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let t1 = Instant::now();
        sol.graph.persist(&dir).expect("persist");
        let persist = t1.elapsed();
        let t2 = Instant::now();
        let reopened = Graph::open(&dir).expect("reopen");
        let reopen = t2.elapsed();
        assert_eq!(reopened.len(), sol.graph.len());
        let stats = reopened.storage_stats();

        let manifest = Manifest::load(&dir).expect("manifest");
        let mut pool = BufferPool::new(POOL_FRAMES);
        let runs: Vec<PagedRun> = manifest.runs[0]
            .iter()
            .map(|m| PagedRun::open(&mut pool, &dir.join(&m.name), m.keys).expect("run"))
            .collect();
        let t3 = Instant::now();
        let mut paged_keys = 0usize;
        for run in &runs {
            run.for_each_in_range(&mut pool, [u32::MIN; 3], [u32::MAX; 3], &mut |_| {
                paged_keys += 1
            })
            .expect("paged scan");
        }
        let paged = t3.elapsed();
        let t4 = Instant::now();
        let mem_keys = reopened.iter_ids().count();
        let mem = t4.elapsed();
        let _ = std::fs::remove_dir_all(&dir);

        let agree = paged_keys == stats.run_keys && mem_keys == reopened.len();
        rows.push(vec![
            sol.graph.len().to_string(),
            ms(chase),
            ms(persist),
            ms(reopen),
            format!(
                "{:.1}x",
                chase.as_secs_f64() / (persist + reopen).as_secs_f64().max(1e-9)
            ),
            stats.pages_read.to_string(),
            stats.wal_replayed.to_string(),
            ms(paged),
            ms(mem),
            format!("{:.1}x", paged.as_secs_f64() / mem.as_secs_f64().max(1e-9)),
            agree.to_string(),
        ]);
    }
    Table {
        title: "E17 — durability: persist+reopen vs cold re-chase; paged-run scan vs in-memory"
            .into(),
        headers: vec![
            "solution triples".into(),
            "chase ms".into(),
            "persist ms".into(),
            "reopen ms".into(),
            "reopen speedup".into(),
            "pages read".into(),
            "wal replayed".into(),
            "paged scan ms".into(),
            "mem scan ms".into(),
            "scan overhead".into(),
            "agree".into(),
        ],
        rows,
    }
}

/// **E18 — live updates**: incremental chase maintenance against a full
/// re-chase across update-batch sizes, plus reader throughput while the
/// writer churns epochs.
///
/// For each workload size, a [`rps_core::LiveSession`] applies insert
/// batches of growing size; each `apply` (semi-naive delta chase +
/// epoch publication) is timed against a from-scratch re-chase of the
/// mutated system under the same confluent configuration, and `agree`
/// pins the two solutions to the same triple count (full byte-identity
/// is the `tests/live_updates.rs` oracle's job). The final `churn` row
/// per size runs 4 reader threads executing prepared plans non-stop
/// while the writer publishes one-triple epochs for a fixed window,
/// reporting sustained reader queries/second and epochs published.
pub fn e18_live_updates(sizes: &[usize]) -> Table {
    use rps_core::{EngineConfig, FiringMode, LiveSession, PeerId, UpdateBatch};
    use rps_lodgen::film::actor_pred;
    use rps_lodgen::peer_ns;
    use rps_rdf::{Iri, Term, Triple};
    use std::sync::atomic::{AtomicBool, Ordering};

    const BATCHES: &[usize] = &[1, 16, 128];
    const CHURN_READERS: usize = 4;
    const CHURN_WINDOW_MS: u64 = 150;

    let skolem = RpsChaseConfig {
        firing: FiringMode::Skolem,
        ..RpsChaseConfig::default()
    };
    let fresh_actor = |n: usize| -> Triple {
        Triple::new(
            Term::Iri(Iri::new(format!("{}live-film{n}", peer_ns(0)))),
            Term::Iri(actor_pred(0)),
            Term::Iri(Iri::new(format!("{}live-person{n}", peer_ns(0)))),
        )
        .expect("IRI triples are always valid")
    };

    let mut rows = Vec::new();
    for &films in sizes {
        let cfg = FilmConfig {
            peers: 3,
            films_per_peer: films,
            actors_per_film: 3,
            person_pool: films,
            sameas_per_pair: films / 10,
            topology: Topology::Chain,
            hub_style: false,
            seed: 18,
        };
        let mut live =
            LiveSession::open(film_system(&cfg), EngineConfig::default()).expect("live opens");
        let mut fresh = 0usize;

        for &batch_size in BATCHES {
            let mut batch = UpdateBatch::new();
            for _ in 0..batch_size {
                fresh += 1;
                batch = batch.insert(PeerId(0), fresh_actor(fresh));
            }
            let t0 = Instant::now();
            live.apply(&batch).expect("batch applies");
            let incr = t0.elapsed();
            let t1 = Instant::now();
            let scratch = chase_system(live.system(), &skolem);
            let rechase = t1.elapsed();
            assert!(scratch.complete);
            let agree = scratch.graph.len() == live.solution().graph.len();
            rows.push(vec![
                films.to_string(),
                live.solution().graph.len().to_string(),
                batch_size.to_string(),
                ms(incr),
                ms(rechase),
                format!(
                    "{:.1}x",
                    rechase.as_secs_f64() / incr.as_secs_f64().max(1e-9)
                ),
                agree.to_string(),
                "-".into(),
                "-".into(),
            ]);
        }

        // Reader throughput while the writer churns epochs.
        let query = actor_shape_query(2, false);
        let done = AtomicBool::new(false);
        let (executed, published) = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..CHURN_READERS)
                .map(|_| {
                    let reader = live.reader();
                    let query = query.clone();
                    let done = &done;
                    scope.spawn(move || {
                        let mut n = 0u64;
                        while !done.load(Ordering::Acquire) {
                            let plan = reader.prepare(&query).expect("prepare");
                            let _ = reader.execute(&plan).expect("execute").count();
                            n += 1;
                        }
                        n
                    })
                })
                .collect();
            let deadline = Instant::now() + std::time::Duration::from_millis(CHURN_WINDOW_MS);
            let mut published = 0u64;
            while Instant::now() < deadline {
                fresh += 1;
                live.apply(&UpdateBatch::new().insert(PeerId(0), fresh_actor(fresh)))
                    .expect("churn batch applies");
                published += 1;
            }
            done.store(true, Ordering::Release);
            let executed: u64 = readers
                .into_iter()
                .map(|h| h.join().expect("reader thread"))
                .sum();
            (executed, published)
        });
        let secs = CHURN_WINDOW_MS as f64 / 1e3;
        rows.push(vec![
            films.to_string(),
            live.solution().graph.len().to_string(),
            "churn".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            format!("{:.0}", executed as f64 / secs),
            format!("{:.0}", published as f64 / secs),
        ]);
    }
    Table {
        title: "E18 — live updates: incremental maintenance vs full re-chase; readers under churn"
            .into(),
        headers: vec![
            "films/peer".into(),
            "solution triples".into(),
            "batch".into(),
            "incremental ms".into(),
            "re-chase ms".into(),
            "speedup".into(),
            "agree".into(),
            "reader q/s".into(),
            "epochs/s".into(),
        ],
        rows,
    }
}

/// E19 — scale-out single-graph execution: subject-hash sharding +
/// morsel-driven parallel scans (Part A) and compressed columnar sealed
/// runs (Part B), over one [`rps_lodgen::bulk`] graph of `triples`
/// triples.
///
/// Part A rows compare a morsel-parallel join at 1/2/4/8 workers over a
/// 4-shard sealed graph against the sequential evaluation over the
/// unsharded sealed baseline, asserting byte-identical answers. Part B
/// rows compare a full scan of a columnar-compressed seal against the
/// plain seal and report the resident-byte ratio.
pub fn e19_scaleout(triples: usize) -> Table {
    use rps_lodgen::{bulk_graph, BulkConfig};
    use rps_query::{GraphPattern, GraphPatternQuery, PreparedQueryIds, TermOrVar, Variable};
    use rps_rdf::SealConfig;

    const WORKERS: &[usize] = &[1, 2, 4, 8];
    const MORSEL: usize = 1024;
    const SHARDS: usize = 4;

    let (mut graph, ids) = bulk_graph(&BulkConfig {
        triples,
        entities: 0,
        seed: 19,
    });
    // Probe-heavy triangle join: every conjunct is an unselective
    // full-predicate scan (so the planner cannot shrink the driver to a
    // handful of candidates), while the closing conjunct almost never
    // matches — wall time is dominated by the morsel-distributed index
    // probes, not by materialising a result set (which no worker count
    // can parallelise).
    let p0 = graph.term(ids.predicates[0]).clone();
    let p1 = graph.term(ids.predicates[1]).clone();
    let p2 = graph.term(ids.predicates[2]).clone();
    let query = GraphPatternQuery::new(
        vec![Variable::new("x"), Variable::new("y"), Variable::new("z")],
        GraphPattern::triple(
            TermOrVar::var("x"),
            TermOrVar::Term(p0),
            TermOrVar::var("y"),
        )
        .and(GraphPattern::triple(
            TermOrVar::var("y"),
            TermOrVar::Term(p1),
            TermOrVar::var("z"),
        ))
        .and(GraphPattern::triple(
            TermOrVar::var("x"),
            TermOrVar::Term(p2),
            TermOrVar::var("z"),
        )),
    );
    let plan = PreparedQueryIds::new(&mut graph, &query);

    // Baselines share the fully-compacted layout (one plain run per
    // permutation) so the comparison isolates sharding + workers.
    let mut plain = graph.clone();
    plain.seal_with(&SealConfig::default());
    let mut sharded = graph.clone();
    sharded.seal_with(&SealConfig {
        shards: SHARDS,
        ..SealConfig::default()
    });

    // Best-of-N timings: single-shot wall clocks on a shared host are
    // dominated by scheduler noise at these durations.
    const REPS: usize = 3;
    let best = |f: &mut dyn FnMut() -> std::collections::BTreeSet<Vec<rps_rdf::TermId>>| {
        let mut wall = std::time::Duration::MAX;
        let mut out = None;
        for _ in 0..REPS {
            let t0 = Instant::now();
            let r = f();
            wall = wall.min(t0.elapsed());
            out = Some(r);
        }
        (out.expect("REPS > 0"), wall)
    };
    let (baseline, seq_wall) = best(&mut || plan.evaluate(&plain, Semantics::Certain));

    let mut rows = Vec::new();
    let mut morsels_before = sharded.storage_stats().morsels_dispatched;
    for &workers in WORKERS {
        let (par, wall) =
            best(&mut || plan.evaluate_parallel(&sharded, Semantics::Certain, workers, MORSEL));
        assert_eq!(par, baseline, "parallel answers must be byte-identical");
        let morsels_after = sharded.storage_stats().morsels_dispatched;
        let morsels = (morsels_after - morsels_before) / REPS as u64;
        morsels_before = morsels_after;
        rows.push(vec![
            "A: join".into(),
            triples.to_string(),
            format!("{workers}w/{SHARDS}s"),
            baseline.len().to_string(),
            ms(wall),
            format!(
                "{:.2}x",
                seq_wall.as_secs_f64() / wall.as_secs_f64().max(1e-9)
            ),
            format!("{morsels} morsels"),
        ]);
    }

    // Part B — full sequential scan: columnar-compressed vs plain runs,
    // both as a single sealed unit per permutation so the comparison
    // isolates the encoding (no merge overhead on either side).
    let mut compressed = graph.clone();
    compressed.seal_with(&SealConfig {
        shards: 1,
        compress: true,
        ..SealConfig::default()
    });
    let scan_best = |g: &rps_rdf::Graph| {
        let mut wall = std::time::Duration::MAX;
        let mut count = 0;
        for _ in 0..REPS {
            let t0 = Instant::now();
            count = g.iter_ids().count();
            wall = wall.min(t0.elapsed());
        }
        (count, wall)
    };
    let (plain_count, plain_scan) = scan_best(&plain);
    let (comp_count, comp_scan) = scan_best(&compressed);
    assert_eq!(
        plain_count, comp_count,
        "compressed scan must see every triple"
    );
    let stats = compressed.storage_stats();
    let ratio = stats.compressed_bytes as f64 / (stats.compressed_raw_bytes as f64).max(1.0);
    rows.push(vec![
        "B: scan plain".into(),
        triples.to_string(),
        "seq".into(),
        plain_count.to_string(),
        ms(plain_scan),
        "1.00x".into(),
        "-".into(),
    ]);
    rows.push(vec![
        "B: scan compressed".into(),
        triples.to_string(),
        "seq".into(),
        comp_count.to_string(),
        ms(comp_scan),
        format!(
            "{:.2}x",
            plain_scan.as_secs_f64() / comp_scan.as_secs_f64().max(1e-9)
        ),
        format!("{ratio:.2}"),
    ]);

    Table {
        title: "E19 — scale-out: sharded morsel-parallel join; compressed-run scan".into(),
        headers: vec![
            "part".into(),
            "triples".into(),
            "exec".into(),
            "rows".into(),
            "wall ms".into(),
            "speedup".into(),
            "detail".into(),
        ],
        rows,
    }
}

/// E20 — SPARQL front-end and the stats-driven cost-based join
/// orderer.
///
/// Part A times the new text pipeline: `iterations` rounds of parsing
/// a mixed SPARQL corpus, then `iterations` rounds of full
/// parse+lower+prepare against a live session (plan compilation
/// included, plan cache cold each round by construction of fresh
/// sessions being too slow — prepare on a mutable session recompiles).
///
/// Part B is the optimiser's showcase regime: two predicates with
/// *identical* triple counts but wildly different `distinct_objects`
/// (2 vs one-per-triple). Both query atoms are (var s, const p,
/// const o), so the legacy shape heuristic estimates `count/4` for
/// each, ties, and keeps the adversarial listed order — driving the
/// join from the unselective atom. The stats-driven orderer divides by
/// `distinct_objects`, reorders, and drives from the atom that matches
/// a single subject. Answers are asserted byte-identical before any
/// timing is reported.
pub fn e20_sparql_optimiser(subjects: usize, iterations: usize) -> Table {
    use rps_core::{EngineConfig, PeerId, RpsBuilder, Session};
    use rps_query::{
        parse_sparql, GraphPattern, GraphPatternQuery, JoinOrder, PreparedQueryIds, TermOrVar,
        Variable,
    };
    use rps_rdf::{Graph, PrefixMap, Term};

    const CORPUS: &[&str] = &[
        "SELECT ?f ?c WHERE { ?f <http://rps/cast> ?c }",
        "PREFIX r: <http://rps/> SELECT DISTINCT ?f WHERE { ?f r:cast ?c . ?c r:age ?a \
         FILTER(?a > \"20\") } ORDER BY ?f LIMIT 10",
        "SELECT ?f ?c ?n WHERE { ?f <http://rps/cast> ?c \
         OPTIONAL { ?c <http://rps/nick> ?n } } ORDER BY DESC(?f) LIMIT 5 OFFSET 1",
        "ASK { { ?f <http://rps/cast> ?c } UNION { ?f <http://rps/stars> ?c } }",
        "SELECT * WHERE { ?s ?p ?o FILTER(bound(?s) && ?o != \"x\") }",
    ];

    let mut p = PeerId(0);
    let system = RpsBuilder::new()
        .peer_turtle(
            "A",
            "<http://rps/f1> <http://rps/cast> <http://rps/p1> .\n\
             <http://rps/p1> <http://rps/age> \"31\" .\n\
             <http://rps/p1> <http://rps/nick> \"ace\" .",
            &mut p,
        )
        .expect("static turtle parses")
        .build();
    let mut session =
        Session::open(system, EngineConfig::default()).expect("benchmark system opens");

    let prefixes = PrefixMap::common();
    let t0 = Instant::now();
    let mut parsed = 0usize;
    for _ in 0..iterations {
        for text in CORPUS {
            parse_sparql(text, &prefixes).expect("corpus is valid");
            parsed += 1;
        }
    }
    let parse_wall = t0.elapsed();

    let t0 = Instant::now();
    for _ in 0..iterations {
        for text in CORPUS {
            session.prepare_sparql(text).expect("corpus prepares");
        }
    }
    let prepare_wall = t0.elapsed();

    let mut rows = vec![
        vec![
            "A: parse".into(),
            parsed.to_string(),
            "-".into(),
            "-".into(),
            ms(parse_wall),
            "1.00x".into(),
            format!(
                "{:.0} q/s",
                parsed as f64 / parse_wall.as_secs_f64().max(1e-9)
            ),
        ],
        vec![
            "A: parse+prepare".into(),
            parsed.to_string(),
            "-".into(),
            "-".into(),
            ms(prepare_wall),
            format!(
                "{:.2}x",
                parse_wall.as_secs_f64() / prepare_wall.as_secs_f64().max(1e-9)
            ),
            format!(
                "{:.0} q/s",
                parsed as f64 / prepare_wall.as_secs_f64().max(1e-9)
            ),
        ],
    ];

    // Part B — skewed-predicate join. Equal counts, skewed distincts.
    let mut graph = Graph::new();
    for i in 0..subjects {
        let s = Term::iri(format!("http://rps/s{i}"));
        let _ = graph.insert_terms(
            s.clone(),
            Term::iri("http://rps/wide"),
            Term::iri(format!("http://rps/w{}", i % 2)),
        );
        let _ = graph.insert_terms(
            s,
            Term::iri("http://rps/narrow"),
            Term::iri(format!("http://rps/u{i}")),
        );
    }
    graph.seal();
    // Adversarial listing: the unselective atom first. Both atoms are
    // (var, const, const), so the shape heuristic ties at count/4 and
    // keeps this order; the stats orderer flips it.
    let probe = 6; // an even subject, so the wide atom matches w0
    let query = GraphPatternQuery::new(
        vec![Variable::new("x")],
        GraphPattern::triple(
            TermOrVar::var("x"),
            TermOrVar::iri("http://rps/wide"),
            TermOrVar::iri("http://rps/w0"),
        )
        .and(GraphPattern::triple(
            TermOrVar::var("x"),
            TermOrVar::iri("http://rps/narrow"),
            TermOrVar::Term(Term::iri(format!("http://rps/u{probe}"))),
        )),
    );
    let heuristic = PreparedQueryIds::compile_only_with(&graph, &query, JoinOrder::SmallestFirst);
    let cost = PreparedQueryIds::compile_only_with(&graph, &query, JoinOrder::CostBased);

    const REPS: usize = 5;
    let best = |plan: &PreparedQueryIds| {
        let mut wall = std::time::Duration::MAX;
        let mut out = None;
        for _ in 0..REPS {
            let t0 = Instant::now();
            let r = plan.evaluate(&graph, Semantics::Certain);
            wall = wall.min(t0.elapsed());
            out = Some(r);
        }
        (out.expect("REPS > 0"), wall)
    };
    let (h_rows, h_wall) = best(&heuristic);
    let (c_rows, c_wall) = best(&cost);
    assert_eq!(h_rows, c_rows, "join order must never change answers");
    assert_eq!(h_rows.len(), 1, "the probe subject is the only match");

    rows.push(vec![
        "B: skewed join".into(),
        (subjects * 2).to_string(),
        "smallest-first".into(),
        h_rows.len().to_string(),
        ms(h_wall),
        "1.00x".into(),
        format!("order {:?}", heuristic.planned_order()),
    ]);
    rows.push(vec![
        "B: skewed join".into(),
        (subjects * 2).to_string(),
        "cost-based".into(),
        c_rows.len().to_string(),
        ms(c_wall),
        format!(
            "{:.2}x",
            h_wall.as_secs_f64() / c_wall.as_secs_f64().max(1e-9)
        ),
        format!("order {:?}", cost.planned_order()),
    ]);

    Table {
        title: "E20 — SPARQL front-end wall; cost-based vs smallest-first join order".into(),
        headers: vec![
            "part".into(),
            "queries/triples".into(),
            "order".into(),
            "rows".into(),
            "wall ms".into(),
            "speedup".into(),
            "detail".into(),
        ],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e20_cost_based_reorders_and_agrees() {
        let t = e20_sparql_optimiser(4_000, 5);
        let b: Vec<_> = t.rows.iter().filter(|r| r[0].starts_with("B:")).collect();
        assert_eq!(b.len(), 2);
        // The heuristic keeps the adversarial listed order; the
        // stats-driven orderer flips it. Answer agreement is asserted
        // inside the runner before timings are reported.
        assert_eq!(b[0][6], "order [0, 1]");
        assert_eq!(b[1][6], "order [1, 0]");
    }

    #[test]
    fn e19_parallel_agrees_and_compression_shrinks() {
        let t = e19_scaleout(40_000);
        // The runner itself asserts answer agreement; here pin the
        // compression payoff on the clustered bulk workload.
        let ratio: f64 = t
            .rows
            .last()
            .unwrap()
            .last()
            .unwrap()
            .parse()
            .expect("bytes ratio is numeric");
        assert!(ratio <= 0.7, "compressed/raw byte ratio was {ratio}");
    }

    #[test]
    fn e18_incremental_agrees_and_beats_rechase_on_small_deltas() {
        let t = e18_live_updates(&[100]);
        for row in &t.rows {
            if row[2] == "churn" {
                let qps: f64 = row[7].parse().unwrap();
                assert!(qps > 0.0, "readers must make progress under churn");
                continue;
            }
            assert_eq!(row[6], "true", "incremental and re-chase solutions agree");
        }
        // A one-triple delta must be cheaper to maintain incrementally
        // than a full re-chase of the whole system.
        let speedup: f64 = t.rows[0][5].trim_end_matches('x').parse().unwrap();
        assert!(speedup > 1.0, "batch=1 speedup was {speedup}");
    }

    #[test]
    fn e13_backends_agree() {
        let t = e13_storage(&[4_000]);
        for row in &t.rows {
            assert_eq!(row[8], "true", "backends agree on scan results");
        }
    }

    #[test]
    fn e10_datalog_agrees() {
        let t = e10_datalog(&[6, 10]);
        for row in &t.rows {
            assert_eq!(row[2], "true");
        }
    }

    #[test]
    fn e11_discovery_quality_reasonable() {
        let t = e11_discovery(&[0.3]);
        let precision: f64 = t.rows[0][3].parse().unwrap();
        let recall: f64 = t.rows[0][4].parse().unwrap();
        assert!(precision >= 0.9);
        assert!(recall >= 0.9);
    }

    #[test]
    fn e12_paths_agree() {
        let t = e12_federation(&[2, 4]);
        for row in &t.rows {
            assert_eq!(row[3], "true", "id and term federation paths agree");
        }
    }

    #[test]
    fn e1_is_empty() {
        let t = e1_raw_query();
        assert_eq!(t.rows[0][1], "0");
    }

    #[test]
    fn e2_matches_paper() {
        let t = e2_listing1();
        assert_eq!(t.rows[1][1], "true");
    }

    #[test]
    fn e3_flips_to_true() {
        let t = e3_listing2();
        assert_eq!(t.rows[0][1], "false");
        assert_eq!(t.rows[0][2], "true");
    }

    #[test]
    fn e5_perfect_on_small_chain() {
        let t = e5_rewrite_linear(&[2, 3]);
        for row in &t.rows {
            assert_eq!(row[3], "true", "complete");
            assert_eq!(row[4], "true", "equals chase");
        }
    }

    #[test]
    fn e14_engines_answer_identically() {
        let t = e14_rewrite_ablation(&[2, 4]);
        for row in &t.rows {
            assert_eq!(row[7], "true", "answer sets byte-identical");
        }
        // Deeper expansions explore strictly more CQs.
        let explored: Vec<usize> = t.rows.iter().map(|r| r[2].parse().unwrap()).collect();
        assert!(explored[1] > explored[0]);
    }

    #[test]
    fn e6_misses_grow_with_length() {
        let t = e6_transitive(&[8, 16], &[2]);
        let missed8: usize = t.rows[0][4].parse().unwrap();
        let missed16: usize = t.rows[1][4].parse().unwrap();
        assert!(missed16 > missed8);
        assert_eq!(t.rows[0][5], "false");
    }

    #[test]
    fn e7_matches_section4() {
        let t = e7_classification();
        let find = |name: &str| t.rows.iter().find(|r| r[0] == name).unwrap().clone();
        assert_eq!(find("paper G (Example 2)")[1], "true"); // linear
        assert_eq!(find("paper E (equivalences)")[2], "true"); // sticky
        assert_eq!(find("Section-4 witness")[2], "false"); // not sticky
        assert_eq!(find("transitive closure (Prop 3)")[6], "false");
    }

    #[test]
    fn table_rendering() {
        let t = e1_raw_query();
        let text = t.render();
        assert!(text.contains("E1"));
        assert!(text.contains('|'));
    }
}
