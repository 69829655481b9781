//! The shape of a SPARQL text, and the template its texts bind into.
//!
//! A text's **shape** is its token stream with every constant of the
//! query body replaced by a numbered parameter. The constants are the
//! IRI, prefixed-name, literal (with its language tag or datatype) and
//! number tokens after the first `{`, but for the number after `LIMIT`
//! or `OFFSET`; byte-equal tokens share one number, numbered by first
//! occurrence, and the key records each parameter's token kind.
//! Everything else is kept verbatim: the prologue, the keywords (`true`
//! and `false` among them), `a`, variables, punctuation and the `LIMIT`
//! / `OFFSET` counts. Whitespace and comments are no part of it.
//!
//! Two texts of one shape are the same query but for the terms their
//! parameters denote. The parser reads a constant token only to turn it
//! into a term, and every decision it takes otherwise rests on token
//! kinds and verbatim tokens, so the two parse alike. Lowering reads
//! variables only and [`GraphPattern`] does not deduplicate its
//! conjuncts, so the two lower alike too. So a shape is parsed and lowered
//! once, with [`placeholder`]`(k)` standing for parameter `k` — its
//! [`SparqlTemplate`] — and each further text of the shape is lexed,
//! matched and has its parameters resolved ([`SparqlTemplate::values`]):
//! substituting them into the template's conjunctive queries
//! ([`bind_query`]) gives what lowering the text would have given.
//!
//! A placeholder is a blank node, which no parsed query holds (the
//! subset has no blank-node syntax), one per parameter: a bind can never
//! take one parameter for another, nor a placeholder for a constant.

use super::lex::{Kw, Lexer, Tok};
use super::lower::LoweredSparql;
use super::parse::{parse_with_params, resolve_constant};
use super::SparqlError;
use crate::pattern::{GraphPattern, GraphPatternQuery, TermOrVar, TriplePattern};
use rps_rdf::{Iri, PrefixMap, Term};
use std::sync::Arc;

/// The most parameters a shape has. A text with more distinct constants
/// has no shape: it is parsed like any other.
pub const MAX_PARAMS: usize = 32;

/// The label prefix of a [`placeholder`].
const PLACEHOLDER: &str = "sparql-param-";

/// The term that stands for parameter `k` in a [`SparqlTemplate`].
pub fn placeholder(k: usize) -> Term {
    Term::blank(format!("{PLACEHOLDER}{k}"))
}

/// `Some(k)` iff `term` is [`placeholder`]`(k)`.
pub fn placeholder_index(term: &Term) -> Option<usize> {
    let label = term.as_blank()?.label();
    label.strip_prefix(PLACEHOLDER)?.parse().ok()
}

/// The term `values` gives `term`: `values[k]` for [`placeholder`]`(k)`,
/// `term` itself otherwise. A placeholder past the end of `values` is
/// left as it is.
pub fn bound_term<'a>(term: &'a Term, values: &'a [Term]) -> &'a Term {
    placeholder_index(term)
        .and_then(|k| values.get(k))
        .unwrap_or(term)
}

/// `query` with every placeholder written as its value: what lowering the
/// text whose parameters are `values` gives (see the [module
/// docs](self)).
pub fn bind_query(query: &GraphPatternQuery, values: &[Term]) -> GraphPatternQuery {
    let bind = |tv: &TermOrVar| match tv {
        TermOrVar::Term(t) => TermOrVar::Term(bound_term(t, values).clone()),
        var => var.clone(),
    };
    let patterns = (query.pattern().patterns().iter())
        .map(|tp| TriplePattern::new(bind(&tp.s), bind(&tp.p), bind(&tp.o)))
        .collect();
    GraphPatternQuery::new(
        query.free_vars().to_vec(),
        GraphPattern::from_patterns(patterns),
    )
}

/// The longest shape key, in bytes. A text whose key is longer has no
/// shape: it is parsed like any other.
pub const MAX_KEY: usize = 1024;

/// A text's shape key as [`SparqlShape::of`] writes it, in place: each
/// verbatim token as a 0 byte, its length (two bytes) and its text; each
/// parameter as its token kind (never 0) and its number. So the key
/// reads alike for two texts exactly when their verbatim tokens, their
/// parameters' kinds and numbers, and the order of all of them agree.
struct Key {
    bytes: [u8; MAX_KEY],
    len: usize,
}

impl Key {
    fn verbatim(&mut self, text: &str) -> Option<()> {
        let [lo, hi] = u16::try_from(text.len()).ok()?.to_le_bytes();
        let end = self.len + 3 + text.len();
        let piece = self.bytes.get_mut(self.len..end)?;
        piece[..3].copy_from_slice(&[0, lo, hi]);
        piece[3..].copy_from_slice(text.as_bytes());
        self.len = end;
        Some(())
    }

    /// Parameter `k` (below [`MAX_PARAMS`]), of the token kind `kind`.
    fn param(&mut self, kind: u8, k: usize) -> Option<()> {
        let piece = self.bytes.get_mut(self.len..self.len + 2)?;
        piece.copy_from_slice(&[kind, u8::try_from(k).ok()?]);
        self.len += 2;
        Some(())
    }

    fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len]
    }

    /// A hash of the key: a multiply-rotate over its words. Only the
    /// front's map reads it, which hashes it again with its own keyed
    /// hasher, and a template checks the whole key before it is used,
    /// so a collision costs a parse, never an answer.
    fn hash(&self) -> u64 {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        let mut chunks = self.as_bytes().chunks_exact(8);
        let mut h = self.len as u64;
        for chunk in &mut chunks {
            let mut word = [0; 8];
            word.copy_from_slice(chunk);
            h = (h.rotate_left(5) ^ u64::from_le_bytes(word)).wrapping_mul(K);
        }
        let mut word = [0; 8];
        word[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
        (h.rotate_left(5) ^ u64::from_le_bytes(word)).wrapping_mul(K)
    }
}

/// The parameters of a text, in number order, and where its body starts.
struct Walk<'t> {
    /// Byte offset of the first `{`: the text before it is the prologue
    /// and the query form.
    body: usize,
    params: [&'t str; MAX_PARAMS],
    len: usize,
}

/// Lexes `text`, writing its shape key into `key`. `None` on a lexical
/// error (the parser reports it), past [`MAX_PARAMS`] parameters and
/// past [`MAX_KEY`] key bytes.
fn walk<'t>(text: &'t str, key: &mut Key) -> Option<Walk<'t>> {
    let mut lexer = Lexer::new(text);
    let mut walked = Walk {
        body: text.len(),
        params: [""; MAX_PARAMS],
        len: 0,
    };
    let mut in_body = false;
    let mut count = false;
    while let Some(token) = lexer.next_token().ok()? {
        let piece = &text[token.span.0..token.span.1];
        let kind = match token.tok {
            Tok::Iri(_) => Some(b'i'),
            Tok::PName(_) => Some(b'p'),
            Tok::Literal { .. } => Some(b'l'),
            Tok::Integer(_) if !count => Some(b'n'),
            Tok::LBrace if !in_body => {
                in_body = true;
                walked.body = token.span.0;
                None
            }
            _ => None,
        };
        count = matches!(token.tok, Tok::Keyword(Kw::Limit | Kw::Offset));
        match kind.filter(|_| in_body) {
            Some(kind) => {
                let known = walked.params[..walked.len].iter().position(|p| *p == piece);
                let k = known.unwrap_or(walked.len);
                if k == walked.len {
                    *walked.params.get_mut(k)? = piece;
                    walked.len += 1;
                }
                key.param(kind, k)?;
            }
            None => key.verbatim(piece)?,
        }
    }
    Some(walked)
}

/// A SPARQL text's shape (see the [module docs](self)): its key and a
/// hash of it, and its parameters' token texts. Computing one lexes the
/// text once and allocates nothing but what the lexer does (the
/// unescaped form of a literal that holds a `\`).
pub struct SparqlShape<'t> {
    text: &'t str,
    key: Key,
    hash: u64,
    walked: Walk<'t>,
}

impl<'t> SparqlShape<'t> {
    /// The shape of `text`, or `None` when it has none: it does not lex,
    /// holds more than [`MAX_PARAMS`] distinct constants, or its key
    /// outgrows [`MAX_KEY`] bytes.
    pub fn of(text: &'t str) -> Option<Self> {
        let mut key = Key {
            bytes: [0; MAX_KEY],
            len: 0,
        };
        let walked = walk(text, &mut key)?;
        Some(SparqlShape {
            text,
            hash: key.hash(),
            key,
            walked,
        })
    }

    /// A hash of the shape's key: equal for two texts of one shape, and
    /// seldom for two texts of two ([`SparqlTemplate::matches`] tells).
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The parameters' token texts, in number order.
    fn params(&self) -> &[&'t str] {
        &self.walked.params[..self.walked.len]
    }
}

/// A shape parsed and lowered once, with [`placeholder`]`(k)` for
/// parameter `k`, and what it takes to bind a text of the shape into it.
pub struct SparqlTemplate {
    /// The shape's key, to tell it from a shape whose hash is equal.
    key: Box<[u8]>,
    /// The text before the body of the text the template was made from:
    /// its `PREFIX` and `BASE` declarations resolve a prefixed name or a
    /// relative IRI in every text of the shape.
    head: Box<str>,
    /// Per parameter, the token text of the text the template was made
    /// from and the term it denotes (`None`: an undeclared prefix): a
    /// text that spells the parameter alike reuses the term.
    params: Box<[(Box<str>, Option<Term>)]>,
    lowered: Arc<LoweredSparql>,
    /// `true` iff a FILTER holds a placeholder.
    filter_params: bool,
}

impl SparqlTemplate {
    /// Parses and lowers the text of `shape` with placeholders for its
    /// parameters. The error is the text's own when it does not parse —
    /// but for an undeclared prefix in a parameter, which parses here
    /// and fails [`Self::values`].
    pub fn new(shape: &SparqlShape<'_>, base: &PrefixMap) -> Result<Self, SparqlError> {
        let lowered = parse_with_params(shape.text, base, shape.params())?.into_lowered();
        let head = &shape.text[..shape.walked.body];
        let params = (shape.params().iter())
            .map(|&text| (text.into(), resolve_constant(head, text, base)))
            .collect();
        Ok(SparqlTemplate {
            key: shape.key.as_bytes().into(),
            head: head.into(),
            params,
            filter_params: lowered.any_filter_term(&|t| placeholder_index(t).is_some()),
            lowered: Arc::new(lowered),
        })
    }

    /// `true` iff `shape` is this template's shape, not merely one with
    /// the same hash.
    pub fn matches(&self, shape: &SparqlShape<'_>) -> bool {
        *self.key == *shape.key.as_bytes()
    }

    /// The terms the parameters of `shape` — a text of this template's
    /// shape ([`Self::matches`]) — denote, in number order; `None` when
    /// one does not resolve (an undeclared prefix: parsing the text
    /// reports it). A parameter spelled as in the template's own text
    /// costs a reference count.
    pub fn values(&self, shape: &SparqlShape<'_>, base: &PrefixMap) -> Option<Vec<Term>> {
        (self.params.iter().zip(shape.params()))
            .map(|((known, term), &text)| match term {
                Some(term) if **known == *text => Some(term.clone()),
                // An IRI token with a scheme denotes its text: nothing
                // to resolve against the prologue.
                _ => match text.strip_prefix('<').and_then(|t| t.strip_suffix('>')) {
                    Some(iri) if iri.contains(':') => Some(Term::Iri(Iri::new(iri))),
                    _ => resolve_constant(&self.head, text, base),
                },
            })
            .collect()
    }

    /// The template's lowered query, a placeholder in place of every
    /// parameter. The assembly tail reads no pattern constant, so it
    /// assembles every text of the shape whose FILTERs hold none
    /// ([`Self::bind_lowered`]).
    pub fn lowered(&self) -> &Arc<LoweredSparql> {
        &self.lowered
    }

    /// The lowered query of the text whose parameters are `values`, when
    /// a FILTER holds a parameter — the tail compares with its value —
    /// and `None` when [`Self::lowered`] serves.
    pub fn bind_lowered(&self, values: &[Term]) -> Option<LoweredSparql> {
        self.filter_params.then(|| {
            let mut lowered = LoweredSparql::clone(&self.lowered);
            lowered.bind_terms(values);
            lowered
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparql::parse_sparql;

    fn shape(text: &str) -> SparqlShape<'_> {
        match SparqlShape::of(text) {
            Some(shape) => shape,
            None => panic!("{text:?} has no shape"),
        }
    }

    fn template(text: &str) -> Result<SparqlTemplate, SparqlError> {
        SparqlTemplate::new(&shape(text), &PrefixMap::common())
    }

    /// What is a parameter and what stays verbatim.
    #[test]
    fn shapes_replace_the_body_constants_and_nothing_else() {
        let same = [
            (
                "PREFIX v: <http://v/> SELECT ?p WHERE { <http://f/1> v:s ?z . ?z v:a ?p }",
                "PREFIX v: <http://v/>\nSELECT ?p WHERE {\n <http://f/2> v:t ?z . # c\n ?z v:b ?p }",
            ),
            (
                "SELECT ?x { ?x <http://p> \"a\"@en FILTER(?x != 3) } LIMIT 5",
                "SELECT ?x { ?x <http://q> \"b\"^^<http://d> FILTER(?x != 4) } LIMIT 5",
            ),
        ];
        for (a, b) in same {
            assert_eq!(shape(a).hash(), shape(b).hash(), "{a} / {b}");
            assert!(template(a).is_ok_and(|t| t.matches(&shape(b))), "{a} / {b}");
        }
        let differ = [
            // The prologue, variables, keywords and LIMIT are verbatim.
            (
                "PREFIX v: <http://v/> ASK { ?s v:p ?o }",
                "PREFIX v: <http://w/> ASK { ?s v:p ?o }",
            ),
            ("ASK { ?s <http://p> ?o }", "ASK { ?t <http://p> ?o }"),
            ("ASK { ?s <http://p> true }", "ASK { ?s <http://p> false }"),
            (
                "ASK { ?s a <http://c> }",
                "ASK { ?s <http://p> <http://c> }",
            ),
            (
                "SELECT ?s { ?s <http://p> ?o } LIMIT 5",
                "SELECT ?s { ?s <http://p> ?o } LIMIT 6",
            ),
            // Equal constants share a number; kinds are kept.
            (
                "ASK { <http://a> <http://p> <http://a> }",
                "ASK { <http://a> <http://p> <http://b> }",
            ),
            (
                "ASK { ?s <http://p> <http://a> }",
                "ASK { ?s <http://p> \"a\" }",
            ),
            ("ASK { ?s <http://p> 4 }", "ASK { ?s <http://p> \"4\" }"),
        ];
        for (a, b) in differ {
            assert_ne!(shape(a).hash(), shape(b).hash(), "{a} / {b}");
            assert!(
                template(a).is_ok_and(|t| !t.matches(&shape(b))),
                "{a} / {b}"
            );
        }
        assert!(SparqlShape::of("SELECT ?x { ?x <http://p> \"open }").is_none());
    }

    /// A template with its parameters bound lowers as the text does, and
    /// only a FILTER parameter asks for a lowered copy of its own.
    #[test]
    fn binding_a_template_equals_lowering_the_text() -> Result<(), SparqlError> {
        let base = PrefixMap::common();
        let first = "PREFIX v: <http://v/> SELECT ?x ?n WHERE { <http://f/1> v:s ?x \
             OPTIONAL { ?x v:nick ?n } FILTER(?n != \"a\"@en) } ORDER BY ?x LIMIT 3";
        let template = template(first)?;
        for text in [
            first,
            "PREFIX v: <http://v/> SELECT ?x ?n WHERE { <http://f/9> v:s ?x \
             OPTIONAL { ?x v:age ?n } FILTER(?n != \"b\"@de) } ORDER BY ?x LIMIT 3",
        ] {
            let shape = shape(text);
            assert!(template.matches(&shape), "{text}");
            let Some(values) = template.values(&shape, &base) else {
                panic!("{text}: a parameter did not resolve");
            };
            let lowered = parse_sparql(text, &base)?.lower();
            let bound: Vec<_> = (template.lowered().queries().into_iter())
                .map(|cq| bind_query(cq, &values))
                .collect();
            let direct: Vec<_> = lowered.queries().into_iter().cloned().collect();
            assert_eq!(format!("{bound:?}"), format!("{direct:?}"), "{text}");
            let Some(own) = template.bind_lowered(&values) else {
                panic!("{text}: the FILTER holds a parameter");
            };
            assert_eq!(format!("{own:?}"), format!("{lowered:?}"), "{text}");
        }
        let plain = self::template("ASK { ?s <http://p> ?o FILTER(?o != ?s) }")?;
        assert!(plain.bind_lowered(&[]).is_none());
        Ok(())
    }

    /// An undeclared prefix in a parameter leaves the template whole and
    /// the text without values.
    #[test]
    fn an_undeclared_prefix_has_no_value() -> Result<(), SparqlError> {
        let base = PrefixMap::common();
        let template = template("SELECT ?x { ?x nope:p ?y }")?;
        assert!(template
            .values(&shape("SELECT ?x { ?x nope:p ?y }"), &base)
            .is_none());
        assert!(template
            .values(&shape("SELECT ?x { ?x rdf:type ?y }"), &base)
            .is_some());
        Ok(())
    }
}
