//! Section 3: encoding an RPS into a relational data-exchange setting.
//!
//! Relational alphabets `Rs = {ts/3, rs/1}` (stored triples and
//! identified resources) and `Rt = {tt/3, rt/1}` (inferred triples and
//! resources). The source-to-target dependencies copy `ts → tt` and
//! `rs → rt`; each graph mapping assertion becomes one target TGD with
//! `rt` guards on the free variables; each equivalence mapping becomes
//! six target TGDs (one per position per direction).

use crate::equivalence::{canonicalize_query, EquivalenceIndex};
use crate::mapping::EquivalenceMapping;
use crate::system::RdfPeerSystem;
use rps_query::{GraphPattern, GraphPatternQuery, TermOrVar};
use rps_rdf::Term;
use rps_tgd::{Atom, AtomArg, GroundTerm, Instance, Sym, Tgd};
use std::collections::HashMap;
use std::sync::Arc;

/// Bidirectional mapping between RDF terms and relational symbols.
///
/// IRIs encode as `i:<iri>`, literals as `l:<display form>` (both
/// prefixes keep the namespaces disjoint, mirroring the disjointness of
/// `I` and `L`); blank nodes become labelled nulls.
///
/// The blank ↔ null tables are copy-on-write, so a clone is two
/// reference-count bumps: `&self` answering paths encode a query into a
/// scratch clone and only a query naming a blank label the encoder has
/// never seen pays for a copy.
#[derive(Clone, Debug, Default)]
pub struct Encoder {
    blank_to_null: Arc<HashMap<String, u64>>,
    null_to_blank: Arc<HashMap<u64, String>>,
    next_null: u64,
}

impl Encoder {
    /// Creates an encoder minting nulls from 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Highest null id handed out so far (pass to the chase so fresh
    /// nulls do not collide).
    pub fn next_null(&self) -> u64 {
        self.next_null
    }

    /// Encodes a term as a relational ground term.
    pub fn encode(&mut self, term: &Term) -> GroundTerm {
        match term {
            Term::Iri(iri) => GroundTerm::constant(format!("i:{}", iri.as_str())),
            Term::Literal(lit) => GroundTerm::constant(format!("l:{lit}")),
            Term::Blank(b) => {
                if let Some(&null) = self.blank_to_null.get(b.label()) {
                    return GroundTerm::Null(null);
                }
                let null = self.next_null;
                self.next_null += 1;
                Arc::make_mut(&mut self.blank_to_null).insert(b.label().to_string(), null);
                Arc::make_mut(&mut self.null_to_blank).insert(null, b.label().to_string());
                GroundTerm::Null(null)
            }
        }
    }

    /// Decodes a relational ground term back to an RDF term. Nulls that
    /// the encoder did not mint (chase-invented) become fresh blank
    /// nodes labelled `null<N>`.
    pub fn decode(&self, g: &GroundTerm) -> Term {
        match g {
            GroundTerm::Const(sym) => decode_const(sym),
            GroundTerm::Null(n) => match self.null_to_blank.get(n) {
                Some(label) => Term::blank(label.clone()),
                None => Term::blank(format!("null{n}")),
            },
        }
    }
}

/// Decodes a constant symbol (`i:` / `l:` tagged) to an RDF term.
fn decode_const(sym: &Sym) -> Term {
    if let Some(iri) = sym.strip_prefix("i:") {
        Term::iri(iri)
    } else if let Some(lit) = sym.strip_prefix("l:") {
        // Re-parse the display form: "lex"[@tag|^^<iri>]. For round-trips
        // within this crate the lexical form is enough; we parse the
        // common shapes and fall back to a plain literal.
        parse_literal_display(lit).unwrap_or_else(|| Term::literal(lit.to_string()))
    } else {
        // Foreign constant (e.g. from hand-written relational tests).
        Term::iri(sym.to_string())
    }
}

fn parse_literal_display(s: &str) -> Option<Term> {
    let rest = s.strip_prefix('"')?;
    let close = find_closing_quote(rest)?;
    let lex = unescape(&rest[..close]);
    let tail = &rest[close + 1..];
    if tail.is_empty() {
        Some(Term::Literal(rps_rdf::Literal::plain(lex)))
    } else if let Some(tag) = tail.strip_prefix('@') {
        Some(Term::Literal(rps_rdf::Literal::lang(lex, tag.to_string())))
    } else if let Some(dt) = tail.strip_prefix("^^<") {
        let dt = dt.strip_suffix('>')?;
        Some(Term::Literal(rps_rdf::Literal::typed(
            lex,
            rps_rdf::Iri::new(dt.to_string()),
        )))
    } else {
        None
    }
}

fn find_closing_quote(s: &str) -> Option<usize> {
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return Some(i),
            _ => i += 1,
        }
    }
    None
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some(other) => out.push(other),
                None => {}
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Encodes a query-position term (constant or variable) as an atom
/// argument over the target alphabet.
fn encode_tv(tv: &TermOrVar, enc: &mut Encoder) -> AtomArg {
    match tv {
        TermOrVar::Var(v) => AtomArg::var(v.name()),
        TermOrVar::Term(t) => AtomArg::from(enc.encode(t)),
    }
}

/// Converts a graph pattern into `tt` atoms.
pub fn pattern_to_atoms(gp: &GraphPattern, enc: &mut Encoder) -> Vec<Atom> {
    gp.patterns()
        .iter()
        .map(|tp| {
            Atom::new(
                "tt",
                vec![
                    encode_tv(&tp.s, enc),
                    encode_tv(&tp.p, enc),
                    encode_tv(&tp.o, enc),
                ],
            )
        })
        .collect()
}

/// Converts a graph pattern query to a relational CQ over `tt`
/// (optionally guarded by `rt` atoms on the free variables, as in the
/// paper's CQ translation).
pub fn query_to_cq(query: &GraphPatternQuery, enc: &mut Encoder, with_rt: bool) -> rps_tgd::Cq {
    let mut body = pattern_to_atoms(query.pattern(), enc);
    if with_rt {
        for v in query.free_vars() {
            body.push(Atom::new("rt", vec![AtomArg::var(v.name())]));
        }
    }
    rps_tgd::Cq {
        head: query
            .free_vars()
            .iter()
            .map(|v| AtomArg::var(v.name()))
            .collect(),
        body,
    }
}

/// The full data-exchange setting for a system.
#[derive(Clone, Debug)]
pub struct DataExchange {
    /// Source-to-target dependencies (`ts → tt`, `rs → rt`).
    pub source_to_target: Vec<Tgd>,
    /// Target dependencies: graph-mapping TGDs (with `rt` guards) and the
    /// six TGDs per equivalence mapping.
    pub target: Vec<Tgd>,
    /// Graph-mapping TGDs *without* the `rt` guards — the form used for
    /// classification and rewriting (Section 4 drops the guards; what
    /// that loses is in the [`crate::rewriting`] module docs).
    pub mapping_tgds_unguarded: Vec<Tgd>,
    /// The six-per-mapping equivalence TGDs (a subset of `target`).
    pub equivalence_tgds: Vec<Tgd>,
    /// The source instance (`ts` + `rs` facts).
    pub source: Instance,
    /// The term encoder (shared so decoded answers map back).
    pub encoder: Encoder,
}

/// Builds the Section 3 data-exchange setting for a system.
pub fn encode_system(system: &RdfPeerSystem) -> DataExchange {
    let mut enc = Encoder::new();

    // Source instance: ts-facts for stored triples, rs-facts for names.
    // Each distinct RDF term is encoded and interned once.
    let stored = system.stored_database();
    let mut source = Instance::new();
    let rs = source.intern_pred(&Sym::from("rs"));
    let ts = source.intern_pred(&Sym::from("ts"));
    let mut memo: Vec<Option<rps_tgd::ValId>> = vec![None; stored.dict().len()];
    let mut map =
        |id: rps_rdf::TermId, source: &mut Instance, enc: &mut Encoder| match memo[id.index()] {
            Some(v) => v,
            None => {
                let v = source.intern_value(&enc.encode(stored.term(id)));
                memo[id.index()] = Some(v);
                v
            }
        };
    for t in stored.iter_ids() {
        let s = map(t.s, &mut source, &mut enc);
        let p = map(t.p, &mut source, &mut enc);
        let o = map(t.o, &mut source, &mut enc);
        for v in [s, o] {
            if !source.values().is_null(v) {
                source.insert_row(rs, Box::new([v]));
            }
        }
        source.insert_row(rs, Box::new([p]));
        source.insert_row(ts, Box::new([s, p, o]));
    }

    let source_to_target = vec![
        Tgd::new(
            vec![Atom::new(
                "ts",
                vec![AtomArg::var("x"), AtomArg::var("y"), AtomArg::var("z")],
            )],
            vec![Atom::new(
                "tt",
                vec![AtomArg::var("x"), AtomArg::var("y"), AtomArg::var("z")],
            )],
        ),
        Tgd::new(
            vec![Atom::new("rs", vec![AtomArg::var("x")])],
            vec![Atom::new("rt", vec![AtomArg::var("x")])],
        ),
    ];

    // The TGD half is data-independent and shared with the Section 4
    // rewriter; the guarded form adds an `rt` atom per free variable.
    let mapping_tgds_unguarded =
        mapping_tgds_unguarded(system, &EquivalenceIndex::default(), &mut enc);
    let equivalence_tgds = equivalence_tgds(system.equivalences(), &mut enc);
    let mut target: Vec<Tgd> = system
        .assertions()
        .iter()
        .zip(&mapping_tgds_unguarded)
        .map(|(gma, unguarded)| {
            let mut guarded_body = unguarded.body().to_vec();
            for v in gma.premise.free_vars() {
                guarded_body.push(Atom::new("rt", vec![AtomArg::var(v.name())]));
            }
            Tgd::new(guarded_body, unguarded.head().to_vec())
        })
        .collect();
    target.extend(equivalence_tgds.iter().cloned());

    DataExchange {
        source_to_target,
        target,
        mapping_tgds_unguarded,
        equivalence_tgds,
        source,
        encoder: enc,
    }
}

/// The system's graph-mapping TGDs *without* the `rt` guards, one per
/// assertion in declaration order — the form Section 4 classifies and
/// rewrites. No stored triple is touched. Premise and conclusion
/// constants are replaced by their `index` representatives first: the
/// system's own index gives the TGDs over the equivalence quotient (the
/// combined approach rewrites only these and leaves the equivalences
/// to the quotient); an empty index gives them as written.
pub fn mapping_tgds_unguarded(
    system: &RdfPeerSystem,
    index: &EquivalenceIndex,
    enc: &mut Encoder,
) -> Vec<Tgd> {
    system
        .assertions()
        .iter()
        .map(|gma| {
            let premise = canonicalize_query(&gma.premise, index);
            let conclusion = canonicalize_query(&gma.conclusion, index);
            gma_tgd_unguarded(&premise, &conclusion, enc)
        })
        .collect()
}

/// The six target TGDs of each equivalence mapping `c ≡ c'`: one per
/// triple position per direction.
pub fn equivalence_tgds(mappings: &[EquivalenceMapping], enc: &mut Encoder) -> Vec<Tgd> {
    let mut out = Vec::with_capacity(mappings.len() * 6);
    for eq in mappings {
        let c = AtomArg::from(enc.encode(&Term::Iri(eq.left.clone())));
        let cp = AtomArg::from(enc.encode(&Term::Iri(eq.right.clone())));
        for pos in 0..3 {
            for (from, to) in [(&c, &cp), (&cp, &c)] {
                let mut body_args = vec![AtomArg::var("u"), AtomArg::var("v"), AtomArg::var("w")];
                let mut head_args = body_args.clone();
                body_args[pos] = from.clone();
                head_args[pos] = to.clone();
                out.push(Tgd::new(
                    vec![Atom::new("tt", body_args)],
                    vec![Atom::new("tt", head_args)],
                ));
            }
        }
    }
    out
}

/// Encodes one graph mapping assertion `Q ⇝ Q'` as a single target TGD
/// over `tt`, without the `rt` guards. Premise existential variables are
/// renamed apart (`_b_` prefix) so they cannot clash with conclusion
/// existentials.
pub fn gma_tgd_unguarded(
    premise: &GraphPatternQuery,
    conclusion: &GraphPatternQuery,
    enc: &mut Encoder,
) -> Tgd {
    let body_atoms = pattern_to_atoms(premise.pattern(), enc);
    let head_atoms = pattern_to_atoms(conclusion.pattern(), enc);
    let premise_existentials = premise.existential_vars();
    let body_atoms: Vec<Atom> = body_atoms
        .iter()
        .map(|a| {
            Atom::new(
                a.pred.clone(),
                a.args
                    .iter()
                    .map(|arg| match arg {
                        AtomArg::Var(v)
                            if premise_existentials.iter().any(|e| e.name() == v.as_ref()) =>
                        {
                            AtomArg::var(format!("_b_{v}"))
                        }
                        other => other.clone(),
                    })
                    .collect(),
            )
        })
        .collect();
    Tgd::new(body_atoms, head_atoms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peer::Peer;
    use crate::system::RpsBuilder;
    use crate::PeerId;
    use rps_query::Variable;

    #[test]
    fn term_roundtrip() {
        let mut enc = Encoder::new();
        for t in [
            Term::iri("http://e/a"),
            Term::literal("39"),
            Term::Literal(rps_rdf::Literal::lang("x", "en")),
            Term::Literal(rps_rdf::Literal::typed(
                "5",
                rps_rdf::Iri::new("http://www.w3.org/2001/XMLSchema#integer"),
            )),
            Term::blank("b1"),
        ] {
            let g = enc.encode(&t);
            assert_eq!(enc.decode(&g), t, "roundtrip failed for {t}");
        }
    }

    #[test]
    fn blank_encoding_is_stable() {
        let mut enc = Encoder::new();
        let a1 = enc.encode(&Term::blank("x"));
        let a2 = enc.encode(&Term::blank("x"));
        let b = enc.encode(&Term::blank("y"));
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert!(a1.is_null());
    }

    #[test]
    fn iri_literal_namespaces_disjoint() {
        let mut enc = Encoder::new();
        let i = enc.encode(&Term::iri("39"));
        let l = enc.encode(&Term::literal("39"));
        assert_ne!(i, l);
    }

    fn sample_system() -> RdfPeerSystem {
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
                TermOrVar::iri("http://a/starring"),
                TermOrVar::var("z"),
            )
            .and(GraphPattern::triple(
                TermOrVar::var("z"),
                TermOrVar::iri("http://a/artist"),
                TermOrVar::var("y"),
            )),
        );
        RpsBuilder::new()
            .peer_turtle(
                "A",
                "<http://a/f> <http://a/starring> _:c .\n_:c <http://a/artist> <http://a/p1> .",
                &mut a,
            )
            .unwrap()
            .peer_turtle("B", "<http://b/g> <http://b/actor> <http://b/p2> .", &mut b)
            .unwrap()
            .assertion(b, a, premise, conclusion)
            .unwrap()
            .equivalence("http://a/p1", "http://b/p2")
            .build()
    }

    #[test]
    fn encoding_shapes() {
        let de = encode_system(&sample_system());
        assert_eq!(de.source_to_target.len(), 2);
        // 1 GMA + 6 equivalence TGDs.
        assert_eq!(de.target.len(), 7);
        assert_eq!(de.mapping_tgds_unguarded.len(), 1);
        // ts facts = 3 triples; rs facts cover names only (blank is null).
        assert_eq!(de.source.relation_size("ts"), 3);
        assert!(de.source.relation_size("rs") >= 5);
        // Guarded GMA TGD has rt atoms; unguarded does not.
        let guarded = &de.target[0];
        assert!(guarded.body().iter().any(|a| a.pred.as_ref() == "rt"));
        assert!(de.mapping_tgds_unguarded[0]
            .body()
            .iter()
            .all(|a| a.pred.as_ref() == "tt"));
    }

    #[test]
    fn equivalence_tgds_are_linear_and_sticky() {
        // Paper Section 4: "the set E of TGDs for equivalence mappings
        // enjoys the sticky property of the chase, as well as linearity."
        let de = encode_system(&sample_system());
        let eq_tgds: Vec<Tgd> = de.target[1..].to_vec();
        assert!(rps_tgd::is_linear(&eq_tgds));
        assert!(rps_tgd::is_sticky(&eq_tgds));
    }

    #[test]
    fn relational_chase_agrees_with_rps_chase() {
        use crate::chase::{chase_system, RpsChaseConfig};
        let sys = sample_system();
        let de = encode_system(&sys);

        // Chase relationally, with the Section-3 reference.
        let mut all_tgds = de.source_to_target.clone();
        all_tgds.extend(de.target.clone());
        let r = rps_tgd::naive::chase(
            de.source.clone(),
            &all_tgds,
            &rps_tgd::naive::ChaseConfig::default(),
            1_000_000,
        );
        assert!(r.is_complete());

        // Chase at the RDF level.
        let sol = chase_system(&sys, &RpsChaseConfig::default());
        assert!(sol.complete);

        // Compare certain answers of the paper-style CQ on both sides.
        let q = GraphPatternQuery::new(
            vec![Variable::new("x"), Variable::new("y")],
            GraphPattern::triple(
                TermOrVar::var("x"),
                TermOrVar::iri("http://a/starring"),
                TermOrVar::var("z"),
            )
            .and(GraphPattern::triple(
                TermOrVar::var("z"),
                TermOrVar::iri("http://a/artist"),
                TermOrVar::var("y"),
            )),
        );
        let mut enc = de.encoder.clone();
        let cq = query_to_cq(&q, &mut enc, false);
        let rel_answers = rps_tgd::naive::evaluate_union(&[cq], &r.instance);
        let rdf_answers = rps_query::evaluate_query(&sol.graph, &q, rps_query::Semantics::Certain);
        let decoded: std::collections::BTreeSet<Vec<Term>> = rel_answers
            .iter()
            .map(|row| row.iter().map(|g| enc.decode(g)).collect())
            .collect();
        assert_eq!(decoded, rdf_answers);
    }

    #[test]
    fn stored_database_via_peer() {
        let mut sys = RdfPeerSystem::new();
        sys.add_peer(Peer::from_database(
            "p",
            rps_rdf::turtle::parse("<a> <p> \"lit\" .").unwrap(),
        ));
        let de = encode_system(&sys);
        // Literal object gets an rs fact too (it is a "name").
        assert_eq!(de.source.relation_size("rs"), 3);
    }
}
