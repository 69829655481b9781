//! SPARQL front-end acceptance: the same query text answers
//! byte-identically on every answering façade — a frozen [`Session`]
//! under each strategy, the federated session and the live reader — and
//! matches hand-built conjunctive plans and hand-computed ground truth.

use rps_core::{
    EngineConfig, ExecRoute, FrozenSession, LiveSession, PeerId, RdfPeerSystem, RpsBuilder,
    Session, SparqlResult, Strategy, UpdateBatch,
};
use rps_p2p::{FederatedSession, FrozenFederatedSession};
use rps_query::{GraphPattern, GraphPatternQuery, TermOrVar, Variable};
use rps_rdf::{Term, Triple};

const SELECT_QUERY: &str = "PREFIX a: <http://a/>\n\
     SELECT ?f ?who ?nick WHERE {\n\
       ?f a:cast ?who\n\
       OPTIONAL { ?who a:nick ?nick }\n\
     } ORDER BY DESC(?f) LIMIT 3";

const SELECT_FILTERED: &str = "PREFIX a: <http://a/>\n\
     SELECT ?who ?age WHERE { ?f a:cast ?who . ?who a:age ?age FILTER(?age > \"26\") }\n\
     ORDER BY ?age";

const ASK_UNION: &str =
    "ASK { { ?f <http://a/cast> <http://a/p2> } UNION { ?f <http://no/such> ?x } }";

const ASK_UNION_FALSE: &str =
    "ASK { { ?f <http://no/such> ?x } UNION { ?x <http://also/none> ?y } }";

/// Hand-computed ground truth for [`SELECT_QUERY`]: three cast pairs
/// (two native to peer A, one implied by peer B's `actor` mapping),
/// IRIs sorted descending, only `p1` carrying the optional nick.
fn expected_select() -> Vec<Vec<Option<Term>>> {
    let iri = |s: &str| Some(Term::iri(s));
    let lit = |s: &str| Some(Term::literal(s));
    vec![
        vec![iri("http://b/f3"), iri("http://b/p3"), None],
        vec![iri("http://a/f2"), iri("http://a/p2"), None],
        vec![iri("http://a/f1"), iri("http://a/p1"), lit("ace")],
    ]
}

fn check_all(result: &SparqlResult, label: &str) {
    let rows = result.rows().unwrap_or_else(|| panic!("{label}: rows"));
    assert_eq!(rows.vars, ["f", "who", "nick"], "{label}");
    assert_eq!(
        rows.rows.iter().collect::<Vec<_>>(),
        expected_select(),
        "{label}"
    );
}

#[test]
fn select_with_optional_filter_order_limit_agrees_on_every_route() {
    let sys = build_system();
    // Materialise route.
    let r_mat = frozen(&sys, Strategy::Materialise)
        .answer_sparql(SELECT_QUERY)
        .unwrap();
    check_all(&r_mat, "materialised");
    // Rewrite route.
    let r_rw = frozen(&sys, Strategy::Rewrite)
        .answer_sparql(SELECT_QUERY)
        .unwrap();
    check_all(&r_rw, "rewritten");
    // Auto.
    let r_frozen = frozen(&sys, Strategy::Auto)
        .answer_sparql(SELECT_QUERY)
        .unwrap();
    check_all(&r_frozen, "frozen");
    // Federated session.
    let r_fed = federated(&sys).answer_sparql(SELECT_QUERY).unwrap();
    check_all(&r_fed, "federated");
    // Live reader (epoch 0).
    let live = LiveSession::open(sys, strategy(Strategy::Auto)).unwrap();
    let r_live = live.reader().answer_sparql(SELECT_QUERY).unwrap();
    check_all(&r_live, "live");
    // Byte-identical across routes.
    assert_eq!(r_mat, r_rw);
    assert_eq!(r_mat, r_frozen);
    assert_eq!(r_mat, r_fed);
    assert_eq!(r_mat, r_live);
}

#[test]
fn filtered_select_matches_hand_built_plan() {
    let session = frozen(&build_system(), Strategy::Materialise);
    let sparql = session.answer_sparql(SELECT_FILTERED).unwrap();
    // The equivalent hand-built conjunctive plan (the filter and sort
    // applied by hand on its answer set).
    let cq = GraphPatternQuery::new(
        vec![Variable::new("who"), Variable::new("age")],
        GraphPattern::triple(
            TermOrVar::var("f"),
            TermOrVar::iri("http://a/cast"),
            TermOrVar::var("who"),
        )
        .and(GraphPattern::triple(
            TermOrVar::var("who"),
            TermOrVar::iri("http://a/age"),
            TermOrVar::var("age"),
        )),
    );
    let mut hand: Vec<Vec<Option<Term>>> = session
        .answer(&cq)
        .unwrap()
        .filter(|row| {
            let age: f64 = row[1].to_string().trim_matches('"').parse().unwrap();
            age > 26.0
        })
        .map(|row| row.into_iter().map(Some).collect())
        .collect();
    hand.sort_by(|a, b| {
        let num = |r: &Vec<Option<Term>>| -> f64 {
            r[1].as_ref()
                .unwrap()
                .to_string()
                .trim_matches('"')
                .parse()
                .unwrap()
        };
        num(a).partial_cmp(&num(b)).unwrap().then_with(|| a.cmp(b))
    });
    let rows = sparql.rows().unwrap();
    assert_eq!(rows.vars, ["who", "age"]);
    assert_eq!(rows.rows.iter().collect::<Vec<_>>(), hand);
    assert_eq!(rows.rows.len(), 2, "ages 31 and 40 pass, 25 fails");
    let live = LiveSession::open(build_system(), strategy(Strategy::Auto)).unwrap();
    assert_eq!(
        live.reader().answer_sparql(SELECT_FILTERED).unwrap(),
        sparql
    );
}

#[test]
fn ask_with_union_agrees_on_every_route() {
    let sys = build_system();
    for (text, want) in [(ASK_UNION, true), (ASK_UNION_FALSE, false)] {
        for s in [Strategy::Materialise, Strategy::Rewrite, Strategy::Auto] {
            let answer = frozen(&sys, s).answer_sparql(text).unwrap();
            assert_eq!(answer.boolean(), Some(want), "{s:?}");
        }
        let fed = federated(&sys);
        assert_eq!(fed.answer_sparql(text).unwrap().boolean(), Some(want));
        let live = LiveSession::open(sys.clone(), strategy(Strategy::Auto)).unwrap();
        let reader = live.reader();
        assert_eq!(reader.answer_sparql(text).unwrap().boolean(), Some(want));
    }
}

#[test]
fn live_sparql_after_an_epoch_equals_a_fresh_session() {
    let mut live = LiveSession::open(build_system(), strategy(Strategy::Auto)).unwrap();
    let reader = live.reader();
    // Prepared against epoch 0: stays pinned there.
    let pinned = reader.prepare_sparql(SELECT_QUERY).unwrap();
    let before = reader.execute_sparql(&pinned).unwrap();

    let iri = |s: &str| Term::iri(s);
    let actor = |film: &str, who: &str| {
        Triple::new(iri(film), iri("http://b/actor"), iri(who)).expect("valid triple")
    };
    let batch = UpdateBatch::new()
        .remove(PeerId(1), actor("http://b/f3", "http://b/p3"))
        .insert(PeerId(1), actor("http://b/f9", "http://b/p9"))
        .insert(
            PeerId(0),
            Triple::new(
                iri("http://b/p9"),
                iri("http://a/nick"),
                Term::literal("nine"),
            )
            .expect("valid triple"),
        );
    assert_eq!(live.apply(&batch).unwrap(), 1);

    // Every text, after the epoch, equals a fresh session over the
    // updated system — and the update is visible.
    let fresh = frozen(live.system(), Strategy::Materialise);
    for text in [SELECT_QUERY, SELECT_FILTERED, ASK_UNION, ASK_UNION_FALSE] {
        assert_eq!(
            reader.answer_sparql(text).unwrap(),
            fresh.answer_sparql(text).unwrap(),
            "{text}"
        );
    }
    let after = reader.answer_sparql(SELECT_QUERY).unwrap();
    assert_ne!(after, before);
    let top = &after.rows().unwrap().rows[0];
    assert_eq!(
        top,
        &vec![
            Some(iri("http://b/f9")),
            Some(iri("http://b/p9")),
            Some(Term::literal("nine"))
        ]
    );
    // The epoch-0 plans still answer epoch 0.
    assert_eq!(reader.execute_sparql(&pinned).unwrap(), before);
}

#[test]
fn prepared_sparql_executes_repeatedly_and_reports_shape() {
    let frozen = frozen(&build_system(), Strategy::Auto);
    let prepared = frozen.prepare_sparql(SELECT_QUERY).unwrap();
    assert!(!prepared.is_ask());
    assert_eq!(prepared.columns(), ["f", "who", "nick"]);
    assert_eq!(prepared.plan_count(), 2, "base CQ + one OPTIONAL CQ");
    let first = frozen.execute_sparql(&prepared).unwrap();
    let second = frozen.execute_sparql(&prepared).unwrap();
    assert_eq!(first, second);

    let p1 = frozen.prepare_sparql(ASK_UNION).unwrap();
    assert!(p1.is_ask());
    assert_eq!(p1.plan_count(), 2, "one CQ per UNION branch");
    // A second prepare of the same text hits the frozen plan cache.
    let before = frozen.plan_cache_stats().hits;
    let _p2 = frozen.prepare_sparql(ASK_UNION).unwrap();
    assert!(frozen.plan_cache_stats().hits > before);
}

#[test]
fn sparql_errors_surface_as_typed_rps_errors() {
    let session = frozen(&build_system(), Strategy::Auto);
    let err = session.answer_sparql("SELECT ?x WHERE { ?x }").unwrap_err();
    match err {
        rps_core::RpsError::Sparql(e) => {
            assert!(e.line >= 1 && e.col >= 1);
            assert!(!e.message.is_empty());
        }
        other => panic!("expected RpsError::Sparql, got {other:?}"),
    }
}

/// A system with equivalences: `a:p1 ≡ b:p2` (people) and
/// `a:Film ≡ b:Movie` (a class no stored triple mentions), peer B's
/// `actor` facts implying peer A's `cast` facts and a `kind` fact whose
/// object is the constant `a:Film`.
fn equivalence_system() -> RdfPeerSystem {
    let mut a = PeerId(0);
    let mut b = PeerId(0);
    let xy = || vec![Variable::new("x"), Variable::new("y")];
    let triple =
        |p: &str, o: TermOrVar| GraphPattern::triple(TermOrVar::var("x"), TermOrVar::iri(p), o);
    let actor = || GraphPatternQuery::new(xy(), triple("http://b/actor", TermOrVar::var("y")));
    let cast = GraphPatternQuery::new(xy(), triple("http://a/cast", TermOrVar::var("y")));
    let kind = GraphPatternQuery::new(
        xy(),
        triple("http://a/kind", TermOrVar::iri("http://a/Film"))
            .and(triple("http://a/cast", TermOrVar::var("y"))),
    );
    let mut sys = RpsBuilder::new()
        .peer_turtle(
            "A",
            "<http://a/f1> <http://a/cast> <http://a/p1> .\n\
             <http://a/p1> <http://a/nick> \"ace\" .",
            &mut a,
        )
        .unwrap()
        .peer_turtle(
            "B",
            "<http://b/f3> <http://b/actor> <http://b/p2> .\n\
             <http://b/p2> <http://a/nick> \"bee\" .",
            &mut b,
        )
        .unwrap()
        .assertion(b, a, actor(), cast)
        .unwrap()
        .assertion(b, a, actor(), kind)
        .unwrap()
        .equivalence("http://a/p1", "http://b/p2")
        .equivalence("http://a/Film", "http://b/Movie")
        .build();
    // Peer A's schema names what its data does not use yet.
    let unused = ["http://a/kind", "http://a/Film"].map(rps_rdf::Iri::new);
    sys.peer_mut(a).schema.extend(unused);
    sys
}

/// `text` on the three answering façades, the frozen session under
/// every strategy (`Materialise` over the quotient, the mappings being
/// full): one answer, which is returned.
fn on_every_facade(sys: &RdfPeerSystem, text: &str) -> SparqlResult {
    let want = frozen(sys, Strategy::Materialise)
        .answer_sparql(text)
        .unwrap();
    for s in [Strategy::Rewrite, Strategy::Auto] {
        let session = frozen(sys, s);
        assert_eq!(session.answer_sparql(text).unwrap(), want, "{s:?}\n{text}");
    }
    let fed = federated(sys);
    assert_eq!(fed.answer_sparql(text).unwrap(), want, "federated\n{text}");
    let live = LiveSession::open(sys.clone(), strategy(Strategy::Auto)).unwrap();
    let reader = live.reader();
    assert_eq!(reader.answer_sparql(text).unwrap(), want, "live\n{text}");
    want
}

fn iri_cells(row: &[&str]) -> Vec<Option<Term>> {
    row.iter().map(|s| Some(Term::iri(*s))).collect()
}

#[test]
fn filter_tells_the_members_of_a_class_apart_on_every_route() {
    // Expansion precedes the tail: the rewritten and materialised routes
    // evaluate over the quotient, where only `a:p1` exists, and must
    // still hand FILTER the member it keeps.
    let result = on_every_facade(
        &equivalence_system(),
        "SELECT ?f ?who WHERE { ?f <http://a/cast> ?who FILTER(?who = <http://b/p2>) }",
    );
    assert_eq!(
        result.rows().unwrap().rows.iter().collect::<Vec<_>>(),
        [
            iri_cells(&["http://a/f1", "http://b/p2"]),
            iri_cells(&["http://b/f3", "http://b/p2"]),
        ]
    );
}

#[test]
fn optional_joins_on_a_non_canonical_member_on_every_route() {
    // The shared variable binds `b:p2` in both CQs' expanded answers;
    // the left join matches them as ids of one dictionary.
    let result = on_every_facade(
        &equivalence_system(),
        "SELECT ?f ?nick WHERE { ?f <http://a/cast> ?who OPTIONAL { ?who <http://a/nick> ?nick } \
         FILTER(?who = <http://b/p2>) }",
    );
    let row = |f: &str, nick: &str| vec![Some(Term::iri(f)), Some(Term::literal(nick))];
    assert_eq!(
        result.rows().unwrap().rows.iter().collect::<Vec<_>>(),
        [
            row("http://a/f1", "ace"),
            row("http://a/f1", "bee"),
            row("http://b/f3", "ace"),
            row("http://b/f3", "bee"),
        ]
    );
}

#[test]
fn a_mapping_constant_no_triple_mentions_lands_in_a_rewritten_head() {
    // `?k` unifies with the conclusion's `a:Film`: the rewritten branch
    // projects a constant the stored data never mentions, and the
    // answer ranges over its class.
    let sys = equivalence_system();
    let result = on_every_facade(&sys, "SELECT ?f ?k WHERE { ?f <http://a/kind> ?k }");
    assert_eq!(
        result.rows().unwrap().rows.iter().collect::<Vec<_>>(),
        [
            iri_cells(&["http://b/f3", "http://a/Film"]),
            iri_cells(&["http://b/f3", "http://b/Movie"]),
        ]
    );
    assert!(!sys
        .stored_database()
        .iter()
        .any(|t| format!("{t:?}").contains("Film")));
}

#[test]
fn a_rewritten_head_constant_without_an_id_means_a_dead_branch() {
    // A head variable bound to a query constant the canonical graph has
    // never seen: the constant stays in the branch's body, so dropping
    // the branch loses nothing — the rewritten route answers what the
    // chase answers (here: nothing, for a person nobody mentions).
    let result = on_every_facade(
        &equivalence_system(),
        "SELECT ?f ?who WHERE { ?f <http://a/cast> ?who . ?f <http://a/cast> <http://no/body> }",
    );
    assert!(result.rows().unwrap().rows.is_empty());
}

#[test]
fn a_fallen_back_conjunct_mixes_substrates_and_still_equals_materialise() {
    // A budget of one CQ is enough for `nick` (no mapping concludes it)
    // and not for `cast`: the statement's two plans index two
    // dictionaries, so the tail interns.
    let sys = equivalence_system();
    let text = "SELECT ?x ?y WHERE { { ?x <http://a/nick> ?y } UNION { ?x <http://a/cast> ?y } }";
    let want = frozen(&sys, Strategy::Materialise)
        .answer_sparql(text)
        .unwrap();
    assert_eq!(want.rows().unwrap().rows.len(), 8);

    // Auto falls back to the solution chased before the freeze.
    let mut starved = strategy(Strategy::Auto);
    starved.rewrite.max_cqs = 1;
    let mut auto = Session::open(sys, starved).unwrap();
    auto.universal_solution().unwrap();
    let auto = auto.freeze().unwrap();
    let routes: Vec<ExecRoute> = rps_query::parse_sparql(text, &rps_rdf::PrefixMap::common())
        .unwrap()
        .lower()
        .queries()
        .into_iter()
        .map(|cq| auto.prepare(cq).unwrap().route())
        .collect();
    assert_eq!(routes, [ExecRoute::Rewritten, ExecRoute::Materialised]);
    assert_eq!(auto.answer_sparql(text).unwrap(), want);
}

#[test]
fn branch_count_is_some_on_the_rewritten_route_only() {
    let sys = equivalence_system();
    let cq = GraphPatternQuery::new(
        vec![Variable::new("f"), Variable::new("who")],
        GraphPattern::triple(
            TermOrVar::var("f"),
            TermOrVar::iri("http://a/cast"),
            TermOrVar::var("who"),
        ),
    );
    for (s, want) in [
        (Strategy::Materialise, None),
        (Strategy::Rewrite, Some(2)),
        (Strategy::Auto, Some(2)),
    ] {
        let prepared = frozen(&sys, s).prepare(&cq).unwrap();
        assert_eq!(prepared.branch_count(), want, "{s:?}");
    }
}

fn strategy(strategy: Strategy) -> EngineConfig {
    EngineConfig {
        strategy,
        ..EngineConfig::default()
    }
}

/// A session over `sys` under `s`, frozen.
fn frozen(sys: &RdfPeerSystem, s: Strategy) -> FrozenSession {
    Session::open(sys.clone(), strategy(s))
        .and_then(Session::freeze)
        .unwrap()
}

/// The federated session over `sys`, frozen.
fn federated(sys: &RdfPeerSystem) -> FrozenFederatedSession {
    FederatedSession::new(sys, strategy(Strategy::Auto))
        .freeze()
        .unwrap()
}

fn build_system() -> RdfPeerSystem {
    let mut a = PeerId(0);
    let mut b = PeerId(0);
    let premise = GraphPatternQuery::new(
        vec![Variable::new("x"), Variable::new("y")],
        GraphPattern::triple(
            TermOrVar::var("x"),
            TermOrVar::iri("http://b/actor"),
            TermOrVar::var("y"),
        ),
    );
    let conclusion = GraphPatternQuery::new(
        vec![Variable::new("x"), Variable::new("y")],
        GraphPattern::triple(
            TermOrVar::var("x"),
            TermOrVar::iri("http://a/cast"),
            TermOrVar::var("y"),
        ),
    );
    RpsBuilder::new()
        .peer_turtle(
            "A",
            "<http://a/f1> <http://a/cast> <http://a/p1> .\n\
             <http://a/f2> <http://a/cast> <http://a/p2> .\n\
             <http://a/p1> <http://a/age> \"31\" .\n\
             <http://a/p2> <http://a/age> \"25\" .\n\
             <http://a/p1> <http://a/nick> \"ace\" .",
            &mut a,
        )
        .unwrap()
        .peer_turtle(
            "B",
            "<http://b/f3> <http://b/actor> <http://b/p3> .\n\
             <http://b/p3> <http://a/age> \"40\" .",
            &mut b,
        )
        .unwrap()
        .assertion(b, a, premise, conclusion)
        .unwrap()
        .build()
}
