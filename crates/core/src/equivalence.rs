//! Equivalence-class machinery for `≡ₑ` mappings.
//!
//! Algorithm 1 saturates equivalence mappings by *copying triples* across
//! equivalent IRIs in all three positions — simple, faithful to the
//! paper, but quadratic in the class size (a class of `k` IRIs with `m`
//! triples each materialises `k·m` variants of every triple).
//!
//! This module adds the engineering fast path: a union-find
//! [`EquivalenceIndex`] with canonical representatives. Instead of
//! saturating, the rewritten route and the materialised route of a full
//! system canonicalise the graph and queries, evaluate once, and
//! *expand* answers over class members last — on id rows (`expand_rows`
//! over a `ClassTable`) locally, on terms ([`expand_answers`], which the
//! id form is swept against) in the federation. `tests/properties.rs`
//! (and [`saturate_naive`], which implements the paper's repair
//! literally) establish that both ways produce identical answer sets;
//! what saturation costs the materialised route of a system with
//! existential conclusions is the benchmark's `core.chase.eq_copies`
//! (`docs/BENCHMARKING.md`).

use crate::mapping::EquivalenceMapping;
use rps_query::{IdRows, RowSink};
use rps_rdf::{Graph, Iri, Term, TermId};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Equivalence classes of IRIs with lexicographically-least canonical
/// representatives.
#[derive(Clone, Debug, Default)]
pub struct EquivalenceIndex {
    /// Canonical representative per mapped IRI (least member).
    canon: HashMap<Iri, Iri>,
    /// Members per canonical representative.
    members: BTreeMap<Iri, BTreeSet<Iri>>,
}

impl EquivalenceIndex {
    /// Builds the index from a set of equivalence mappings: every IRI a
    /// mapping names gets a dense id once, a union-find with path
    /// halving over those ids joins the mapped pairs, and each class is
    /// then sorted by IRI, its least member the representative.
    pub fn from_mappings(mappings: &[EquivalenceMapping]) -> Self {
        let find = |parent: &mut [u32], mut x: u32| {
            while parent[x as usize] != x {
                parent[x as usize] = parent[parent[x as usize] as usize];
                x = parent[x as usize];
            }
            x
        };
        let mut dense: HashMap<&Iri, u32> = HashMap::new();
        let mut iris: Vec<&Iri> = Vec::new();
        let mut parent: Vec<u32> = Vec::new();
        for m in mappings {
            let mut ends = [0u32; 2];
            for (end, iri) in ends.iter_mut().zip([&m.left, &m.right]) {
                *end = *dense.entry(iri).or_insert_with(|| {
                    iris.push(iri);
                    parent.push(parent.len() as u32);
                    (iris.len() - 1) as u32
                });
            }
            let (ra, rb) = (find(&mut parent, ends[0]), find(&mut parent, ends[1]));
            if ra != rb {
                parent[ra as usize] = rb;
            }
        }
        let mut by_root: Vec<(u32, u32)> = (0..iris.len() as u32)
            .map(|x| (find(&mut parent, x), x))
            .collect();
        by_root.sort_unstable();
        let mut idx = EquivalenceIndex::default();
        for class in by_root.chunk_by(|a, b| a.0 == b.0) {
            let mut members: Vec<&Iri> = class.iter().map(|&(_, x)| iris[x as usize]).collect();
            members.sort_unstable();
            let canon = members[0].clone();
            for &m in &members {
                idx.canon.insert(m.clone(), canon.clone());
            }
            idx.members
                .insert(canon, members.into_iter().cloned().collect());
        }
        idx
    }

    /// The canonical representative of an IRI (itself if unmapped).
    pub fn canonical(&self, iri: &Iri) -> Iri {
        self.canon.get(iri).cloned().unwrap_or_else(|| iri.clone())
    }

    /// The canonical form of a term (non-IRIs are untouched).
    pub fn canonical_term(&self, term: &Term) -> Term {
        match term {
            Term::Iri(iri) => Term::Iri(self.canonical(iri)),
            other => other.clone(),
        }
    }

    /// `true` iff the two IRIs are in the same class.
    pub fn same(&self, a: &Iri, b: &Iri) -> bool {
        self.canonical(a) == self.canonical(b)
    }

    /// The members of an IRI's class (singleton if unmapped).
    pub fn class_of(&self, iri: &Iri) -> BTreeSet<Iri> {
        let canon = self.canonical(iri);
        self.members
            .get(&canon)
            .cloned()
            .unwrap_or_else(|| [iri.clone()].into_iter().collect())
    }

    /// The members of a term's class (singleton for non-IRIs).
    pub fn class_of_term(&self, term: &Term) -> BTreeSet<Term> {
        match term {
            Term::Iri(iri) => self.class_of(iri).into_iter().map(Term::Iri).collect(),
            other => [other.clone()].into_iter().collect(),
        }
    }

    /// Iterates over non-trivial classes `(canonical, members)`.
    pub fn classes(&self) -> impl Iterator<Item = (&Iri, &BTreeSet<Iri>)> {
        self.members.iter().filter(|(_, m)| m.len() > 1)
    }

    /// Number of non-trivial classes.
    pub fn class_count(&self) -> usize {
        self.classes().count()
    }
}

/// Saturates a graph under equivalence mappings exactly as Algorithm 1
/// does: copy triples across each `c ≡ c'` pair in all three positions,
/// both directions, until fixpoint. Returns the saturated graph.
pub fn saturate_naive(graph: &Graph, mappings: &[EquivalenceMapping]) -> Graph {
    let mut g = graph.clone();
    loop {
        let mut added = 0usize;
        for eq in mappings {
            let c = Term::Iri(eq.left.clone());
            let cp = Term::Iri(eq.right.clone());
            for pos in rps_rdf::TriplePosition::ALL {
                added += copy_position(&mut g, &c, &cp, pos);
                added += copy_position(&mut g, &cp, &c, pos);
            }
        }
        if added == 0 {
            return g;
        }
    }
}

fn copy_position(graph: &mut Graph, from: &Term, to: &Term, pos: rps_rdf::TriplePosition) -> usize {
    let Some(from_id) = graph.term_id(from) else {
        return 0;
    };
    let (s, p, o) = match pos {
        rps_rdf::TriplePosition::Subject => (Some(from_id), None, None),
        rps_rdf::TriplePosition::Predicate => (None, Some(from_id), None),
        rps_rdf::TriplePosition::Object => (None, None, Some(from_id)),
    };
    let matches: Vec<_> = graph.match_ids(s, p, o).collect();
    if matches.is_empty() {
        return 0;
    }
    let to_id = graph.intern(to);
    let mut added = 0;
    for t in matches {
        if graph.insert_ids(t.with(pos, to_id)) {
            added += 1;
        }
    }
    added
}

/// Rewrites a graph onto canonical representatives: every IRI is replaced
/// by its class canonical. The result is the quotient graph the fast
/// path evaluates against. The routes load theirs straight from the
/// peers instead ([`RdfPeerSystem::canonical_database`]), without a
/// stored union to canonicalise and drop; this is the definition the
/// tests hold that load to.
///
/// [`RdfPeerSystem::canonical_database`]: crate::RdfPeerSystem::canonical_database
pub fn canonicalize_graph(graph: &Graph, index: &EquivalenceIndex) -> Graph {
    let mut out = Graph::new();
    // Memoise per distinct source term id: each term is canonicalised and
    // re-interned once, not once per occurrence.
    let mut memo: Vec<Option<rps_rdf::TermId>> = vec![None; graph.dict().len()];
    let mut map = |id: rps_rdf::TermId, out: &mut Graph| match memo[id.index()] {
        Some(mapped) => mapped,
        None => {
            let mapped = out.intern(&index.canonical_term(graph.term(id)));
            memo[id.index()] = Some(mapped);
            mapped
        }
    };
    // One batch in source order: the dictionary and the insertion log
    // are those of inserting the triples one at a time, and the store
    // sorts once.
    let batch: Vec<rps_rdf::IdTriple> = graph
        .iter_ids()
        .map(|t| {
            let s = map(t.s, &mut out);
            let p = map(t.p, &mut out);
            let o = map(t.o, &mut out);
            rps_rdf::IdTriple::new(s, p, o)
        })
        .collect();
    out.insert_batch(batch);
    out
}

/// Rewrites a graph pattern query's constants onto canonical
/// representatives (the query-side half of the quotient construction).
pub fn canonicalize_query(
    query: &rps_query::GraphPatternQuery,
    index: &EquivalenceIndex,
) -> rps_query::GraphPatternQuery {
    let pattern = rps_query::GraphPattern::from_patterns(
        query
            .pattern()
            .patterns()
            .iter()
            .map(|tp| {
                let fix = |tv: &rps_query::TermOrVar| match tv {
                    rps_query::TermOrVar::Term(t) => {
                        rps_query::TermOrVar::Term(index.canonical_term(t))
                    }
                    v => v.clone(),
                };
                rps_query::TriplePattern::new(fix(&tp.s), fix(&tp.p), fix(&tp.o))
            })
            .collect(),
    );
    rps_query::GraphPatternQuery::new(query.free_vars().to_vec(), pattern)
}

/// Expands answer tuples over equivalence classes: each position ranges
/// over the class of its term, producing the cross product. This is the
/// inverse of canonicalisation: evaluating a canonicalised query over
/// the canonical graph and expanding yields exactly the answers over the
/// naively saturated graph.
pub fn expand_answers(
    answers: &BTreeSet<Vec<Term>>,
    index: &EquivalenceIndex,
) -> BTreeSet<Vec<Term>> {
    let mut out = BTreeSet::new();
    for tuple in answers {
        let choices: Vec<Vec<Term>> = tuple
            .iter()
            .map(|t| index.class_of_term(t).into_iter().collect())
            .collect();
        cross_product(&choices, &mut Vec::new(), &mut out);
    }
    out
}

fn cross_product(choices: &[Vec<Term>], prefix: &mut Vec<Term>, out: &mut BTreeSet<Vec<Term>>) {
    if prefix.len() == choices.len() {
        out.insert(prefix.clone());
        return;
    }
    for t in &choices[prefix.len()] {
        prefix.push(t.clone());
        cross_product(choices, prefix, out);
        prefix.pop();
    }
}

/// The equivalence classes of an [`EquivalenceIndex`] as term ids of one
/// quotient graph's dictionary: canonical id → the ids of every member
/// of its class (the canonical one included). The id-level counterpart
/// of [`EquivalenceIndex::class_of_term`], consumed by [`expand_rows`].
pub(crate) struct ClassTable(HashMap<TermId, Box<[TermId]>>);

impl ClassTable {
    /// Interns the members of every non-trivial class whose canonical
    /// representative `graph`'s dictionary already holds, and records
    /// them under the representative's id. A class the dictionary does
    /// not mention can occur in no row over that graph, so it is left
    /// out. Call before the graph is shared: ids minted here are what
    /// expanded rows carry.
    pub(crate) fn intern(index: &EquivalenceIndex, graph: &mut Graph) -> Self {
        let id = |iri: &Iri, graph: &mut Graph| graph.intern(&Term::Iri(iri.clone()));
        let classes = index.classes().filter_map(|(canon, members)| {
            let canon = graph.term_id(&Term::Iri(canon.clone()))?;
            Some((canon, members.iter().map(|m| id(m, graph)).collect()))
        });
        ClassTable(classes.collect())
    }

    /// The table [`ClassTable::intern`] built into `graph`, looked up
    /// again in a dictionary that kept every id it minted (a persisted
    /// quotient's): `None` if a member of a class whose representative
    /// the dictionary holds is missing from it.
    pub(crate) fn find(index: &EquivalenceIndex, graph: &Graph) -> Option<Self> {
        let id = |iri: &Iri| graph.term_id(&Term::Iri(iri.clone()));
        let mut table = HashMap::new();
        for (canon, members) in index.classes() {
            if let Some(canon) = id(canon) {
                table.insert(canon, members.iter().map(id).collect::<Option<_>>()?);
            }
        }
        Some(ClassTable(table))
    }

    /// `true` iff no class occurs in the graph: its rows expand to
    /// themselves.
    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// [`expand_answers`] on id rows over a quotient graph: every cell
/// holding a canonical representative ranges over its class's members,
/// per row as a cross product; every other cell (a term in no class, a
/// literal, a blank) stays put, so a row no class touches is copied
/// through.
pub(crate) fn expand_rows(rows: IdRows, table: &ClassTable) -> IdRows {
    let mut out = RowSink::new(rows.arity());
    let mut choices: Vec<&[TermId]> = Vec::with_capacity(rows.arity());
    let mut pick = vec![0usize; rows.arity()];
    for row in rows.iter() {
        choices.clear();
        choices.extend(row.iter().map(|id| {
            table
                .0
                .get(id)
                .map_or(std::slice::from_ref(id), |class| &**class)
        }));
        // Odometer over the row's choices (one empty row at arity 0).
        'row: loop {
            out.push(choices.iter().zip(&pick).map(|(c, &i)| c[i]));
            for (slot, c) in pick.iter_mut().zip(&choices).rev() {
                *slot += 1;
                if *slot < c.len() {
                    continue 'row;
                }
                *slot = 0;
            }
            break;
        }
    }
    out.finish()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rps_query::{
        evaluate_query, GraphPattern, GraphPatternQuery, Semantics, TermOrVar, Variable,
    };
    use rps_rdf::Triple;

    fn eq(a: &str, b: &str) -> EquivalenceMapping {
        EquivalenceMapping::new(Iri::new(a), Iri::new(b))
    }

    #[test]
    fn union_find_transitivity() {
        let idx = EquivalenceIndex::from_mappings(&[eq("b", "a"), eq("b", "c"), eq("x", "y")]);
        assert!(idx.same(&Iri::new("a"), &Iri::new("c")));
        assert!(!idx.same(&Iri::new("a"), &Iri::new("x")));
        assert_eq!(idx.canonical(&Iri::new("c")), Iri::new("a"));
        assert_eq!(idx.class_of(&Iri::new("b")).len(), 3);
        assert_eq!(idx.class_count(), 2);
        // Unmapped IRIs are their own canonical singleton class.
        assert_eq!(idx.canonical(&Iri::new("zzz")), Iri::new("zzz"));
        assert_eq!(idx.class_of(&Iri::new("zzz")).len(), 1);
    }

    #[test]
    fn naive_saturation_fixpoint() {
        let g = rps_rdf::turtle::parse("<a> <p> <o> .").unwrap();
        let sat = saturate_naive(&g, &[eq("a", "b"), eq("b", "c")]);
        // a, b, c each as subject → 3 triples.
        assert_eq!(sat.len(), 3);
        assert!(sat.contains(&Triple::new(Term::iri("c"), Term::iri("p"), Term::iri("o")).unwrap()));
    }

    #[test]
    fn canonical_route_equals_naive_route() {
        let g = rps_rdf::turtle::parse(
            "<a> <p> <o> .\n<x> <a> <y> .\n<m> <q> <a2> .\n<other> <p> <o2> .",
        )
        .unwrap();
        let mappings = [eq("a", "a2"), eq("o", "o2")];
        let index = EquivalenceIndex::from_mappings(&mappings);

        // Query: q(s) <- (s, p, o_var) with constant p.
        let q = GraphPatternQuery::new(
            vec![Variable::new("s"), Variable::new("v")],
            GraphPattern::triple(
                TermOrVar::var("s"),
                TermOrVar::iri("p"),
                TermOrVar::var("v"),
            ),
        );
        // Naive route.
        let naive = evaluate_query(&saturate_naive(&g, &mappings), &q, Semantics::Star);
        // Canonical route: canonicalise graph AND query constants, then
        // expand.
        let canon_graph = canonicalize_graph(&g, &index);
        let canon_q = GraphPatternQuery::new(
            q.free_vars().to_vec(),
            q.pattern().substitute(&|_| None).clone(),
        ); // the query has no IRI constants needing canonicalisation except p (unmapped)
        let canon_answers = evaluate_query(&canon_graph, &canon_q, Semantics::Star);
        let expanded = expand_answers(&canon_answers, &index);
        assert_eq!(naive, expanded);
    }

    /// The construction `from_mappings` replaced: a union-find keyed by
    /// IRI in a `HashMap`, compressed through a per-call path `Vec`,
    /// classes grouped under arbitrary roots. Returns (canonical of
    /// every mapped IRI, members per canonical).
    fn hashed_union_find(
        mappings: &[EquivalenceMapping],
    ) -> (BTreeMap<Iri, Iri>, BTreeMap<Iri, BTreeSet<Iri>>) {
        fn find_root(parent: &mut HashMap<Iri, Iri>, iri: &Iri) -> Iri {
            let mut cur = iri.clone();
            let mut path = Vec::new();
            while let Some(p) = parent.get(&cur) {
                if p == &cur {
                    break;
                }
                path.push(cur.clone());
                cur = p.clone();
            }
            for node in path {
                parent.insert(node, cur.clone());
            }
            cur
        }
        let mut parent: HashMap<Iri, Iri> = HashMap::new();
        for m in mappings {
            parent
                .entry(m.left.clone())
                .or_insert_with(|| m.left.clone());
            parent
                .entry(m.right.clone())
                .or_insert_with(|| m.right.clone());
            let (ra, rb) = (
                find_root(&mut parent, &m.left),
                find_root(&mut parent, &m.right),
            );
            if ra != rb {
                parent.insert(ra, rb);
            }
        }
        let keys: Vec<Iri> = parent.keys().cloned().collect();
        let mut classes: BTreeMap<Iri, BTreeSet<Iri>> = BTreeMap::new();
        for k in keys {
            classes
                .entry(find_root(&mut parent, &k))
                .or_default()
                .insert(k);
        }
        let (mut canon, mut members) = (BTreeMap::new(), BTreeMap::new());
        for (_, class) in classes {
            let least = class.iter().next().cloned().unwrap_or_else(|| Iri::new(""));
            canon.extend(class.iter().map(|m| (m.clone(), least.clone())));
            members.insert(least, class);
        }
        (canon, members)
    }

    #[test]
    fn dense_union_find_equals_the_hashed_one_on_a_seeded_mix() {
        for seed in sweep_seeds() {
            // xorshift64; the state must not be zero.
            let mut state = seed | 1;
            let mut below = move |n: usize| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % n as u64) as usize
            };
            let iri = |i: usize| Iri::new(format!("http://e/{i:03}"));
            let mut mappings = Vec::new();
            let mut next = 0;
            for _ in 0..40 {
                let len = 1 + below(6);
                let nodes: Vec<usize> = (next..next + len).collect();
                next += len;
                match below(3) {
                    // A chain, in a random direction per link.
                    0 => mappings.extend(nodes.windows(2).map(|w| {
                        let (a, b) = if below(2) == 0 {
                            (w[0], w[1])
                        } else {
                            (w[1], w[0])
                        };
                        eq_iri(iri(a), iri(b))
                    })),
                    // A star around its last node.
                    1 => {
                        mappings.extend(nodes.iter().map(|&n| eq_iri(iri(n), iri(nodes[len - 1]))))
                    }
                    // A cycle.
                    _ => mappings.extend(
                        nodes
                            .iter()
                            .zip(nodes.iter().cycle().skip(1))
                            .map(|(&a, &b)| eq_iri(iri(a), iri(b))),
                    ),
                }
                // Now and then a link into an earlier class.
                if below(4) == 0 {
                    mappings.push(eq_iri(iri(below(next)), iri(below(next))));
                }
            }
            let (canon, members) = hashed_union_find(&mappings);
            let idx = EquivalenceIndex::from_mappings(&mappings);
            let nontrivial: Vec<_> = members.iter().filter(|(_, m)| m.len() > 1).collect();
            assert_eq!(idx.classes().collect::<Vec<_>>(), nontrivial, "seed {seed}");
            for i in 0..next + 3 {
                let expected = canon.get(&iri(i)).cloned().unwrap_or_else(|| iri(i));
                assert_eq!(idx.canonical(&iri(i)), expected, "seed {seed}, {i}");
            }
        }
    }

    fn eq_iri(a: Iri, b: Iri) -> EquivalenceMapping {
        EquivalenceMapping::new(a, b)
    }

    #[test]
    fn expansion_is_cross_product() {
        let index = EquivalenceIndex::from_mappings(&[eq("a", "b")]);
        let answers: BTreeSet<Vec<Term>> =
            [vec![Term::iri("a"), Term::iri("a")]].into_iter().collect();
        let expanded = expand_answers(&answers, &index);
        assert_eq!(expanded.len(), 4);
    }

    /// The seeds of the crate's `RPS_SPARQL_SEED` sweeps (this one and
    /// the rewriter's memo test).
    pub(crate) fn sweep_seeds() -> Vec<u64> {
        match std::env::var("RPS_SPARQL_SEED") {
            Ok(list) => list
                .split(',')
                .map(|tok| {
                    tok.trim()
                        .parse()
                        .unwrap_or_else(|_| panic!("RPS_SPARQL_SEED: bad seed {tok:?} in {list:?}"))
                })
                .collect(),
            Err(_) => vec![0xEDB7, 0xD1CE],
        }
    }

    #[test]
    fn expand_rows_agrees_with_expand_answers_on_a_seeded_sweep() {
        for seed in sweep_seeds() {
            // xorshift64; the state must not be zero.
            let mut state = seed | 1;
            let mut below = move |n: usize| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % n as u64) as usize
            };
            let (mut expanded, mut untouched, mut twice) = (0usize, 0usize, 0usize);
            for round in 0..300 {
                // Classes of 1–4 members (a one-member class is an IRI
                // mapped to itself); `m0` is each one's representative.
                let member = |k: usize, j: usize| Iri::new(format!("http://e/c{k}/m{j}"));
                let sizes: Vec<usize> = (0..1 + below(4)).map(|_| 1 + below(4)).collect();
                let mappings: Vec<EquivalenceMapping> = sizes
                    .iter()
                    .enumerate()
                    .flat_map(|(k, &size)| {
                        (0..size).map(move |j| EquivalenceMapping::new(member(k, 0), member(k, j)))
                    })
                    .collect();
                let index = EquivalenceIndex::from_mappings(&mappings);
                // What a quotient row can hold: representatives, IRIs in
                // no class, literals, blanks. One class may stay out of
                // the graph altogether.
                let absent = below(sizes.len() + 1);
                let mut pool: Vec<Term> = (0..sizes.len())
                    .filter(|&k| k != absent)
                    .map(|k| Term::Iri(member(k, 0)))
                    .collect();
                pool.extend([
                    Term::iri("http://e/loose"),
                    Term::literal("http://e/c0/m0"),
                    Term::blank("b"),
                ]);
                let mut graph = Graph::new();
                let arity = below(4);
                let mut sink = RowSink::new(arity);
                let mut canon: BTreeSet<Vec<Term>> = BTreeSet::new();
                for _ in 0..below(6) {
                    let row: Vec<Term> = (0..arity)
                        .map(|_| pool[below(pool.len())].clone())
                        .collect();
                    sink.push(row.iter().map(|t| graph.intern(t)));
                    twice += usize::from(row.iter().any(|t| {
                        index.class_of_term(t).len() > 1
                            && row.iter().filter(|u| *u == t).count() > 1
                    }));
                    canon.insert(row);
                }
                let rows = sink.finish();
                let table = ClassTable::intern(&index, &mut graph);
                let got = expand_rows(rows.clone(), &table);
                let decoded: BTreeSet<Vec<Term>> = got
                    .iter()
                    .map(|row| row.iter().map(|&id| graph.term(id).clone()).collect())
                    .collect();
                let what = format!("seed {seed} round {round}");
                assert_eq!(decoded, expand_answers(&canon, &index), "{what}");
                assert_eq!(decoded.len(), got.len(), "{what}: duplicate rows");
                assert!(got.iter().is_sorted(), "{what}: unsorted rows");
                if got == rows {
                    untouched += 1;
                } else {
                    expanded += 1;
                }
            }
            // The sweep must reach both sides, and a class met twice in
            // one row.
            assert!(expanded > 50 && untouched > 50 && twice > 20, "seed {seed}");
        }
    }

    #[test]
    fn canonicalize_graph_shrinks() {
        let g = rps_rdf::turtle::parse("<a> <p> <o> .\n<b> <p> <o> .").unwrap();
        let index = EquivalenceIndex::from_mappings(&[eq("a", "b")]);
        let c = canonicalize_graph(&g, &index);
        assert_eq!(c.len(), 1);
    }

    /// [`canonicalize_graph`]'s one batch builds what inserting its
    /// triples one at a time built: the same dictionary, the same
    /// insertion log and, sealed, the same runs.
    #[test]
    fn canonicalize_graph_in_one_batch_equals_one_at_a_time() -> Result<(), rps_rdf::RdfError> {
        for seed in sweep_seeds() {
            // xorshift64; the state must not be zero.
            let mut state = seed | 1;
            let mut below = move |n: usize| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % n as u64) as usize
            };
            let name = |k: usize| format!("http://e/t{k}");
            let mut graph = Graph::new();
            // Enough triples for the one-at-a-time build to flush its
            // tail and merge runs several times over.
            for _ in 0..2_000 {
                let object = match below(4) {
                    0 => Term::literal(name(below(40))),
                    _ => Term::iri(name(below(40))),
                };
                graph.insert_terms(
                    Term::iri(name(below(40))),
                    Term::iri(name(below(8))),
                    object,
                )?;
            }
            // Classes over subjects, predicates and objects alike.
            let mappings: Vec<EquivalenceMapping> = (0..16)
                .map(|_| eq(&name(below(40)), &name(below(40))))
                .collect();
            let index = EquivalenceIndex::from_mappings(&mappings);

            let mut batched = canonicalize_graph(&graph, &index);
            let mut single = Graph::new();
            let mut memo: Vec<Option<TermId>> = vec![None; graph.dict().len()];
            for t in graph.iter_ids() {
                let [s, p, o] = [t.s, t.p, t.o].map(|id| {
                    *memo[id.index()]
                        .get_or_insert_with(|| single.intern(&index.canonical_term(graph.term(id))))
                });
                single.insert_ids(rps_rdf::IdTriple::new(s, p, o));
            }

            let what = format!("seed {seed}");
            assert!(batched.len() < graph.len(), "{what}: nothing merged");
            let dict = |g: &Graph| -> Vec<(TermId, Term)> {
                g.dict().iter().map(|(id, t)| (id, t.clone())).collect()
            };
            assert_eq!(dict(&batched), dict(&single), "{what}: dictionary");
            let log = |g: &Graph| -> Vec<rps_rdf::IdTriple> { g.log_since(0).collect() };
            assert_eq!(log(&batched), log(&single), "{what}: insertion log");
            batched.seal();
            single.seal();
            let layout = |g: &Graph| {
                let s = g.storage_stats();
                (s.runs, s.tail, s.tombstones, s.run_keys)
            };
            assert_eq!(layout(&batched), layout(&single), "{what}: layout");
            // Every run in its own order: SPO whole, POS and OSP per term.
            let scans = |g: &Graph| -> Vec<rps_rdf::IdTriple> {
                let mut out: Vec<_> = g.iter_ids().collect();
                for (id, _) in g.dict().iter() {
                    out.extend(g.match_ids(None, Some(id), None));
                    out.extend(g.match_ids(None, None, Some(id)));
                }
                out
            };
            assert_eq!(scans(&batched), scans(&single), "{what}: sealed runs");
        }
        Ok(())
    }

    #[test]
    fn literals_are_never_merged() {
        let index = EquivalenceIndex::from_mappings(&[eq("a", "b")]);
        let lit = Term::literal("a");
        assert_eq!(index.canonical_term(&lit), lit);
        assert_eq!(index.class_of_term(&lit).len(), 1);
    }
}
