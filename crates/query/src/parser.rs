//! The conjunctive subset the paper uses (Section 2.1 graph pattern
//! queries, plus the UNION form Listing 2's rewriting produces), pinned
//! against the one SPARQL front-end: [`crate::parse_sparql`] reads every
//! shape the paper writes, rejects what is malformed, and reads
//! [`crate::to_sparql`]'s output back to the same branch CQs.

mod tests {
    use crate::algebra::{to_sparql, Query, UnionQuery};
    use crate::eval::Semantics;
    use crate::pattern::{GraphPattern, TermOrVar, TriplePattern, Variable};
    use crate::sparql::{parse_sparql, LoweredSparql};
    use rps_rdf::{Iri, Literal, PrefixMap, Term};
    use std::collections::BTreeSet;

    fn base() -> PrefixMap {
        let mut m = PrefixMap::common();
        m.insert("e", "http://e/");
        m
    }

    fn lowered(src: &str, prefixes: &PrefixMap) -> LoweredSparql {
        parse_sparql(src, prefixes).expect("parses").lower()
    }

    #[test]
    fn parse_select() {
        let q = lowered("SELECT ?x ?y WHERE { ?x e:p ?z . ?z e:q ?y }", &base());
        assert!(!q.is_ask());
        assert_eq!(q.columns(), ["x", "y"]);
        assert_eq!(q.queries().len(), 1);
        assert_eq!(q.queries()[0].pattern().len(), 2);
    }

    #[test]
    fn parse_select_without_where() {
        let q = lowered("SELECT ?x { ?x e:p ?y }", &base());
        assert_eq!(q.columns(), ["x"]);
    }

    #[test]
    fn parse_prefix_declaration() {
        let q = lowered(
            "PREFIX db: <http://db/> SELECT ?x WHERE { db:Spiderman db:starring ?x }",
            &PrefixMap::new(),
        );
        let c = q.queries()[0].pattern().constants();
        assert!(c.contains(&Term::iri("http://db/Spiderman")));
    }

    #[test]
    fn parse_ask_with_union() {
        let q = lowered(
            "ASK {{ ?x e:p ?y } UNION { ?x e:q ?y } UNION { ?x e:r ?y }}",
            &base(),
        );
        assert!(q.is_ask());
        assert_eq!(q.queries().len(), 3);
    }

    #[test]
    fn parse_literals_and_integers() {
        let q = lowered(
            "SELECT ?x WHERE { ?x e:age \"39\" . ?x e:year 2002 . ?x e:label \"f\"@en }",
            &base(),
        );
        let gp = q.queries()[0].pattern();
        assert_eq!(gp.len(), 3);
        assert!(gp.constants().contains(&Term::literal("39")));
    }

    #[test]
    fn parse_semicolon_and_comma_groups() {
        let q = lowered(
            "SELECT ?x WHERE { ?x e:p e:a , e:b ; e:q e:c . e:s e:r ?x }",
            &base(),
        );
        assert_eq!(q.queries()[0].pattern().len(), 4);
    }

    #[test]
    fn unknown_prefix_fails() {
        assert!(parse_sparql("SELECT ?x WHERE { ?x nope:p ?y }", &PrefixMap::new()).is_err());
    }

    #[test]
    fn trailing_garbage_fails() {
        assert!(parse_sparql("ASK { ?x e:p ?y } garbage", &base()).is_err());
    }

    /// SplitMix64 (no `rand` in the build container).
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// A random subject/object: a variable, an IRI `e:` shrinks, an IRI
    /// nothing shrinks, or (objects only) a plain/lang/typed literal.
    fn arb_node(rng: &mut Rng, object: bool) -> TermOrVar {
        match rng.below(if object { 7 } else { 4 }) {
            0 | 1 => TermOrVar::Var(Variable::new(format!("v{}", rng.below(3)))),
            2 => TermOrVar::iri(&format!("http://e/n{}", rng.below(5))),
            3 => TermOrVar::iri(&format!("http://other/path/n{}", rng.below(5))),
            4 => TermOrVar::Term(Term::literal(format!("a \"b\" {}", rng.below(5)))),
            5 => TermOrVar::Term(Term::Literal(Literal::lang("chat", "fr"))),
            _ => TermOrVar::Term(Term::Literal(Literal::typed(
                rng.below(100).to_string(),
                Iri::new("http://www.w3.org/2001/XMLSchema#integer"),
            ))),
        }
    }

    /// A random safe UCQ: 1–4 branches of 1–3 triples, every head
    /// variable occurring in every branch.
    fn arb_union(rng: &mut Rng, ask: bool) -> UnionQuery {
        let head: Vec<Variable> = if ask {
            Vec::new()
        } else {
            (0..1 + rng.below(2))
                .map(|i| Variable::new(format!("h{i}")))
                .collect()
        };
        let branches = (0..1 + rng.below(4))
            .map(|_| {
                let mut triples: Vec<TriplePattern> = head
                    .iter()
                    .map(|h| {
                        TriplePattern::new(
                            TermOrVar::Var(h.clone()),
                            TermOrVar::iri(&format!("http://e/p{}", rng.below(4))),
                            arb_node(rng, true),
                        )
                    })
                    .collect();
                for _ in 0..1 + rng.below(2) {
                    triples.push(TriplePattern::new(
                        arb_node(rng, false),
                        TermOrVar::iri(&format!("http://e/p{}", rng.below(4))),
                        arb_node(rng, true),
                    ));
                }
                GraphPattern::from_patterns(triples)
            })
            .collect();
        UnionQuery::new(head, branches)
    }

    /// `to_sparql` text read back by the one parser lowers to the same
    /// branch CQs, in branch order.
    fn roundtrip(ask: bool) {
        for seed in 0..200u64 {
            let mut rng = Rng(seed ^ if ask { 0xA5 } else { 0x5E1 });
            let union = arb_union(&mut rng, ask);
            let query = if ask {
                Query::Ask(union.clone())
            } else {
                Query::Select(union.clone())
            };
            let text = to_sparql(&query, &base());
            let back = parse_sparql(&text, &base())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"))
                .lower();
            assert_eq!(back.is_ask(), ask, "seed {seed}\n{text}");
            let columns: Vec<&str> = union.free_vars().iter().map(Variable::name).collect();
            assert_eq!(back.columns(), columns, "seed {seed}\n{text}");
            let want_head: BTreeSet<&Variable> = union.free_vars().iter().collect();
            assert_eq!(back.queries().len(), union.len(), "seed {seed}\n{text}");
            for (cq, branch) in back.queries().iter().zip(union.branches()) {
                assert_eq!(cq.pattern(), branch, "seed {seed}\n{text}");
                let head: BTreeSet<&Variable> = cq.free_vars().iter().collect();
                assert_eq!(head, want_head, "seed {seed}\n{text}");
            }
        }
    }

    #[test]
    fn roundtrip_through_to_sparql() {
        roundtrip(false);
    }

    #[test]
    fn roundtrip_union_ask() {
        roundtrip(true);
    }

    #[test]
    fn end_to_end_evaluation() {
        let g = rps_rdf::turtle::parse("@prefix e: <http://e/> .\ne:s e:p e:m .\ne:m e:q e:o .\n")
            .unwrap();
        let q = lowered("SELECT ?x WHERE { e:s e:p ?m . ?m e:q ?x }", &base());
        let r = q.evaluate(&g, Semantics::Certain);
        assert_eq!(
            r.rows().unwrap().rows.to_vecs(),
            [vec![Some(Term::iri("http://e/o"))]]
        );
    }

    #[test]
    fn paper_example_query_parses() {
        // The exact query from Example 1 of the paper (modulo prefixes).
        let mut m = PrefixMap::new();
        m.insert("db1", "http://db1/");
        m.insert("", "http://vocab/");
        let q = lowered(
            "SELECT ?x ?y WHERE { db1:Spiderman :starring ?z . ?z :artist ?x . ?x :age ?y }",
            &m,
        );
        assert_eq!(q.queries()[0].pattern().len(), 3);
    }
}
