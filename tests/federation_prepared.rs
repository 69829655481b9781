//! Federation agreement under the redesigned API: the id-level prepared
//! federated path must return exactly the same answer sets as the
//! retained term-level path and as centralised evaluation, across both
//! result semantics, plain/union/templated query forms, and repeated
//! executions of one prepared query.

use rps_core::{
    certain_answers, chase_system, EngineConfig, ExecRoute, RpsChaseConfig, RpsRewriter,
};
use rps_lodgen::{actor_shape_query, film_system, FilmConfig, Topology};
use rps_p2p::{FederatedEngine, FederatedSession, SimNetwork};
use rps_query::{GraphPattern, GraphPatternQuery, Semantics, TermOrVar, UnionQuery, Variable};
use rps_tgd::RewriteConfig;

fn cfg(peers: usize, seed: u64) -> FilmConfig {
    FilmConfig {
        peers,
        films_per_peer: 10,
        actors_per_film: 2,
        person_pool: 15,
        sameas_per_pair: 2,
        topology: Topology::Chain,
        hub_style: false,
        seed,
    }
}

fn rewrite_cfg() -> RewriteConfig {
    RewriteConfig {
        max_depth: 30,
        max_cqs: 60_000,
    }
}

#[test]
fn id_level_equals_term_level_and_centralised_across_semantics() {
    for seed in [1u64, 7, 21] {
        let sys = film_system(&cfg(4, seed));
        let engine = FederatedEngine::new(&sys);
        let stored = sys.stored_database();
        for shape in 0..3 {
            let query = actor_shape_query(shape, false);
            for semantics in [Semantics::Certain, Semantics::Star] {
                let mut net = SimNetwork::new();
                let (id_path, _) = engine.evaluate_query(&query, semantics, &mut net);
                let mut net = SimNetwork::new();
                let (term_path, _) = engine.evaluate_query_term_level(&query, semantics, &mut net);
                let central = rps_query::evaluate_query(&stored, &query, semantics);
                assert_eq!(
                    id_path, term_path,
                    "seed {seed} shape {shape} {semantics:?}"
                );
                assert_eq!(id_path, central, "seed {seed} shape {shape} {semantics:?}");
            }
        }
    }
}

#[test]
fn union_forms_agree_across_paths() {
    let sys = film_system(&cfg(3, 5));
    let engine = FederatedEngine::new(&sys);
    let stored = sys.stored_database();
    // A union over two differently-shaped branches, sharing one head var.
    let union = UnionQuery::new(
        vec![Variable::new("s")],
        vec![
            actor_shape_query(0, false).pattern().clone(),
            GraphPattern::triple(
                TermOrVar::var("s"),
                TermOrVar::var("p"),
                TermOrVar::var("o"),
            ),
        ],
    );
    for semantics in [Semantics::Certain, Semantics::Star] {
        let mut net = SimNetwork::new();
        let (id_path, _) = engine.evaluate_union(&union, semantics, &mut net);
        let mut net = SimNetwork::new();
        let (term_path, _) = engine.evaluate_union_term_level(&union, semantics, &mut net);
        assert_eq!(id_path, term_path, "{semantics:?}");
        let central = union.evaluate(&stored, semantics);
        assert_eq!(id_path, central, "{semantics:?}");
    }
}

/// The old term-level service pipeline, replayed by hand: rewrite
/// canonically, evaluate every templated branch at the term level over
/// the canonical stores, expand over the equivalence classes.
fn term_level_service_answers(
    sys: &rps_core::RdfPeerSystem,
    query: &GraphPatternQuery,
) -> std::collections::BTreeSet<Vec<rps_rdf::Term>> {
    let rewriter = RpsRewriter::new(sys);
    let engine = FederatedEngine::new_canonical(sys, &rewriter);
    let rewriting = rewriter.rewrite_canonical(query, &rewrite_cfg());
    assert!(rewriting.complete);
    let branches = rewriting.branches();
    let mut net = SimNetwork::new();
    let mut stats = rps_p2p::FederationStats::default();
    let mut canon = std::collections::BTreeSet::new();
    for (pattern, template) in &branches {
        engine.evaluate_templated_term_level(
            pattern,
            template,
            Semantics::Certain,
            &mut net,
            &mut stats,
            &mut canon,
        );
    }
    rps_core::expand_answers(&canon, rewriter.index())
}

#[test]
fn templated_rewritten_pipeline_agrees_with_chase_and_term_level() {
    for seed in [3u64, 13] {
        let sys = film_system(&cfg(4, seed));
        let query = actor_shape_query(3, false);

        // New id-level prepared pipeline.
        let session =
            FederatedSession::open(&sys, EngineConfig::default().with_rewrite(rewrite_cfg()))
                .and_then(FederatedSession::freeze)
                .unwrap();
        let result = session
            .answer(&query)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(result.stream.route(), ExecRoute::Federated);
        let id_answers = result.stream.into_set();

        // Old term-level pipeline.
        let term_answers = term_level_service_answers(&sys, &query);

        // Centralised reference (Algorithm 1).
        let sol = chase_system(&sys, &RpsChaseConfig::default());
        let chased = certain_answers(&sol, &query);

        assert_eq!(id_answers.tuples, term_answers, "seed {seed}");
        assert_eq!(id_answers.tuples, chased.tuples, "seed {seed}");
    }
}

#[test]
fn prepared_federated_query_is_reusable() {
    let sys = film_system(&cfg(4, 9));
    let session = FederatedSession::open(&sys, EngineConfig::default().with_rewrite(rewrite_cfg()))
        .and_then(FederatedSession::freeze)
        .unwrap();
    let query = actor_shape_query(3, false);
    let prepared = session.prepare(&query).unwrap();
    assert!(prepared.branch_count() >= 1);
    let first = session.execute(&prepared).unwrap();
    let second = session.execute(&prepared).unwrap();
    assert_eq!(first.stats, second.stats);
    assert_eq!(
        first.stream.into_set().tuples,
        second.stream.into_set().tuples
    );
}
