//! Query generators for the synthetic workloads.

use crate::film::{actor_pred, artist_pred, peer_ns, starring_pred};
use crate::rng::SeededRng;
use rps_query::{GraphPattern, GraphPatternQuery, TermOrVar, Variable};
use rps_rdf::Term;

/// A star query over one peer's vocabulary: one film variable joined to
/// `k` actor variables, all returned.
///
/// `q(y1..yk) ← (x, actor_p, y1) AND … AND (x, actor_p, yk)`
pub fn costar_query(peer: usize, k: usize) -> GraphPatternQuery {
    assert!(k >= 1);
    let mut gp = GraphPattern::new();
    let mut free = Vec::new();
    for i in 0..k {
        let y = Variable::new(format!("y{i}"));
        gp.push(rps_query::TriplePattern::new(
            TermOrVar::var("x"),
            TermOrVar::Term(Term::Iri(actor_pred(peer))),
            TermOrVar::Var(y.clone()),
        ));
        free.push(y);
    }
    GraphPatternQuery::new(free, gp)
}

/// A fixed-subject lookup query, like Example 1's `DB1:Spiderman` anchor:
/// `q(y) ← (film_f, actor_p, y)`.
pub fn film_cast_query(peer: usize, film: usize) -> GraphPatternQuery {
    GraphPatternQuery::new(
        vec![Variable::new("y")],
        GraphPattern::triple(
            TermOrVar::Term(Term::iri(format!("{}film{film}", peer_ns(peer)))),
            TermOrVar::Term(Term::Iri(actor_pred(peer))),
            TermOrVar::var("y"),
        ),
    )
}

/// The hub-shape analogue of [`film_cast_query`] for hub-style peer 0:
/// `q(y) ← (film_f, starring, z) AND (z, artist, y)`.
pub fn hub_film_cast_query(film: usize) -> GraphPatternQuery {
    GraphPatternQuery::new(
        vec![Variable::new("y")],
        GraphPattern::triple(
            TermOrVar::Term(Term::iri(format!("{}film{film}", peer_ns(0)))),
            TermOrVar::Term(Term::Iri(starring_pred(0))),
            TermOrVar::var("z"),
        )
        .and(GraphPattern::triple(
            TermOrVar::var("z"),
            TermOrVar::Term(Term::Iri(artist_pred(0))),
            TermOrVar::var("y"),
        )),
    )
}

/// A batch of randomly anchored cast queries (seeded), modelling a
/// query workload for a chase-vs-rewrite comparison (the repo benchmark
/// prices that as `lookup_mat` against `lookup_rewrite`, with its own
/// generator — see `docs/BENCHMARKING.md`).
pub fn random_cast_queries(
    peer: usize,
    films: usize,
    count: usize,
    seed: u64,
) -> Vec<GraphPatternQuery> {
    let mut rng = SeededRng::seed_from_u64(seed);
    (0..count)
        .map(|_| film_cast_query(peer, rng.gen_range(0..films.max(1))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costar_shapes() {
        let q = costar_query(1, 3);
        assert_eq!(q.arity(), 3);
        assert_eq!(q.pattern().len(), 3);
        // x is existential.
        assert_eq!(q.existential_vars().len(), 1);
    }

    #[test]
    fn film_cast_anchoring() {
        let q = film_cast_query(2, 7);
        let consts = q.pattern().constants();
        assert!(consts.contains(&Term::iri("http://source2.example.org/film7")));
    }

    #[test]
    fn hub_query_has_two_patterns() {
        let q = hub_film_cast_query(0);
        assert_eq!(q.pattern().len(), 2);
        assert_eq!(q.arity(), 1);
    }

    #[test]
    fn random_queries_are_seeded() {
        let a = random_cast_queries(0, 10, 5, 3);
        let b = random_cast_queries(0, 10, 5, 3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
    }
}
