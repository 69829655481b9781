//! RDF terms: IRIs, blank nodes and literals.
//!
//! The paper (Section 2.1) assumes three pairwise disjoint infinite sets
//! `I` (IRIs), `B` (blank nodes) and `L` (literals). An RDF triple is an
//! element of `(I ∪ B) × I × (I ∪ B ∪ L)`.
//!
//! Terms are cheap to clone: their string payloads are reference-counted.

use std::fmt::{self, Write as _};
use std::sync::Arc;

/// An IRI (element of the set `I`).
///
/// We store the full lexical form; no normalisation beyond exact string
/// identity is performed, matching the paper's treatment of IRIs as opaque
/// constants.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Iri(Arc<str>);

impl Iri {
    /// Creates an IRI from its lexical form.
    pub fn new(iri: impl Into<Arc<str>>) -> Self {
        Iri(iri.into())
    }

    /// The lexical form of the IRI.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for Iri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}>", self.0)
    }
}

impl fmt::Display for Iri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}>", self.0)
    }
}

impl From<&str> for Iri {
    fn from(s: &str) -> Self {
        Iri::new(s)
    }
}

impl From<String> for Iri {
    fn from(s: String) -> Self {
        Iri::new(s)
    }
}

/// A blank node (element of the set `B`), identified by a local label.
///
/// Blank nodes act as labelled nulls: per Section 2.1 of the paper they are
/// "placeholders for unknown resources" and are excluded from certain-answer
/// results. Fresh blank nodes created during the chase are minted via
/// [`BlankNode::fresh`].
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlankNode(Arc<str>);

impl BlankNode {
    /// Creates a blank node with the given label (without the `_:` prefix).
    pub fn new(label: impl Into<Arc<str>>) -> Self {
        BlankNode(label.into())
    }

    /// Mints a fresh blank node from a counter, in a reserved label space
    /// (`_:chaseN`) that parsers never produce.
    pub fn fresh(counter: u64) -> Self {
        BlankNode::new(format!("chase{counter}"))
    }

    /// The label of the blank node (without the `_:` prefix).
    pub fn label(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for BlankNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "_:{}", self.0)
    }
}

impl fmt::Display for BlankNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "_:{}", self.0)
    }
}

/// The annotation of a literal: plain, language-tagged or datatyped.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum LiteralAnnotation {
    /// A simple literal with no language tag or datatype.
    Plain,
    /// A language-tagged string, e.g. `"film"@en`.
    Lang(Arc<str>),
    /// A datatyped literal, e.g. `"39"^^xsd:integer`.
    Typed(Iri),
}

/// A literal (element of the set `L`).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Literal {
    lexical: Arc<str>,
    annotation: LiteralAnnotation,
}

impl Literal {
    /// Creates a plain literal.
    pub fn plain(lexical: impl Into<Arc<str>>) -> Self {
        Literal {
            lexical: lexical.into(),
            annotation: LiteralAnnotation::Plain,
        }
    }

    /// Creates a language-tagged literal.
    pub fn lang(lexical: impl Into<Arc<str>>, tag: impl Into<Arc<str>>) -> Self {
        Literal {
            lexical: lexical.into(),
            annotation: LiteralAnnotation::Lang(tag.into()),
        }
    }

    /// Creates a datatyped literal.
    pub fn typed(lexical: impl Into<Arc<str>>, datatype: Iri) -> Self {
        Literal {
            lexical: lexical.into(),
            annotation: LiteralAnnotation::Typed(datatype),
        }
    }

    /// The lexical form of the literal.
    pub fn lexical(&self) -> &str {
        &self.lexical
    }

    /// The annotation (plain / language tag / datatype).
    pub fn annotation(&self) -> &LiteralAnnotation {
        &self.annotation
    }
}

impl fmt::Debug for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        write_escaped(f, &self.lexical)?;
        f.write_char('"')?;
        match &self.annotation {
            LiteralAnnotation::Plain => Ok(()),
            LiteralAnnotation::Lang(tag) => write!(f, "@{tag}"),
            LiteralAnnotation::Typed(dt) => write!(f, "^^{dt}"),
        }
    }
}

impl From<&str> for Literal {
    fn from(s: &str) -> Self {
        Literal::plain(s)
    }
}

/// Writes a literal's lexical form escaped for N-Triples / Turtle
/// serialisation, unescaped runs in one piece.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    let mut rest = s;
    while let Some(at) = rest.find(['"', '\\', '\n', '\r', '\t']) {
        f.write_str(&rest[..at])?;
        let escaped = match rest.as_bytes()[at] {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            _ => "\\t",
        };
        f.write_str(escaped)?;
        rest = &rest[at + 1..];
    }
    f.write_str(rest)
}

/// An RDF term: an element of `I ∪ B ∪ L`.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// An IRI.
    Iri(Iri),
    /// A blank node.
    Blank(BlankNode),
    /// A literal.
    Literal(Literal),
}

impl Term {
    /// Convenience constructor for an IRI term.
    pub fn iri(iri: impl Into<Arc<str>>) -> Self {
        Term::Iri(Iri::new(iri))
    }

    /// Convenience constructor for a blank-node term.
    pub fn blank(label: impl Into<Arc<str>>) -> Self {
        Term::Blank(BlankNode::new(label))
    }

    /// Convenience constructor for a plain-literal term.
    pub fn literal(lexical: impl Into<Arc<str>>) -> Self {
        Term::Literal(Literal::plain(lexical))
    }

    /// Returns `true` iff this term is an IRI.
    pub fn is_iri(&self) -> bool {
        matches!(self, Term::Iri(_))
    }

    /// Returns `true` iff this term is a blank node.
    pub fn is_blank(&self) -> bool {
        matches!(self, Term::Blank(_))
    }

    /// Returns `true` iff this term is a literal.
    pub fn is_literal(&self) -> bool {
        matches!(self, Term::Literal(_))
    }

    /// The IRI inside this term, if any.
    pub fn as_iri(&self) -> Option<&Iri> {
        match self {
            Term::Iri(iri) => Some(iri),
            _ => None,
        }
    }

    /// The blank node inside this term, if any.
    pub fn as_blank(&self) -> Option<&BlankNode> {
        match self {
            Term::Blank(b) => Some(b),
            _ => None,
        }
    }

    /// The literal inside this term, if any.
    pub fn as_literal(&self) -> Option<&Literal> {
        match self {
            Term::Literal(l) => Some(l),
            _ => None,
        }
    }

    /// The kind of the term (IRI / blank / literal), useful for compact
    /// dispatch without matching on payloads.
    pub fn kind(&self) -> TermKind {
        match self {
            Term::Iri(_) => TermKind::Iri,
            Term::Blank(_) => TermKind::Blank,
            Term::Literal(_) => TermKind::Literal,
        }
    }

    /// Returns `true` iff the term may appear in a certain-answer tuple,
    /// i.e. it is an IRI or a literal (element of `I ∪ L`).
    pub fn is_name(&self) -> bool {
        !self.is_blank()
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(t) => write!(f, "{t}"),
            Term::Blank(t) => write!(f, "{t}"),
            Term::Literal(t) => write!(f, "{t}"),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(t) => write!(f, "{t}"),
            Term::Blank(t) => write!(f, "{t}"),
            Term::Literal(t) => write!(f, "{t}"),
        }
    }
}

impl From<Iri> for Term {
    fn from(iri: Iri) -> Self {
        Term::Iri(iri)
    }
}

impl From<BlankNode> for Term {
    fn from(b: BlankNode) -> Self {
        Term::Blank(b)
    }
}

impl From<Literal> for Term {
    fn from(l: Literal) -> Self {
        Term::Literal(l)
    }
}

/// A discriminant-only view of a term's kind.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum TermKind {
    /// An IRI.
    Iri,
    /// A blank node.
    Blank,
    /// A literal.
    Literal,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iri_display_and_eq() {
        let a = Iri::new("http://example.org/a");
        let b = Iri::new("http://example.org/a");
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "<http://example.org/a>");
        assert_eq!(a.as_str(), "http://example.org/a");
    }

    #[test]
    fn blank_node_fresh_labels_are_distinct() {
        assert_ne!(BlankNode::fresh(0), BlankNode::fresh(1));
        assert_eq!(BlankNode::fresh(7).label(), "chase7");
    }

    #[test]
    fn literal_kinds() {
        let p = Literal::plain("39");
        let l = Literal::lang("film", "en");
        let t = Literal::typed("39", Iri::new("http://www.w3.org/2001/XMLSchema#integer"));
        assert_eq!(p.to_string(), "\"39\"");
        assert_eq!(l.to_string(), "\"film\"@en");
        assert_eq!(
            t.to_string(),
            "\"39\"^^<http://www.w3.org/2001/XMLSchema#integer>"
        );
        assert_ne!(p, t);
        assert_eq!(p.lexical(), "39");
    }

    #[test]
    fn literal_escaping() {
        let l = Literal::plain("a\"b\\c\nd");
        assert_eq!(l.to_string(), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn term_kind_predicates() {
        assert!(Term::iri("x").is_iri());
        assert!(Term::blank("x").is_blank());
        assert!(Term::literal("x").is_literal());
        assert!(Term::iri("x").is_name());
        assert!(Term::literal("x").is_name());
        assert!(!Term::blank("x").is_name());
        assert_eq!(Term::iri("x").kind(), TermKind::Iri);
    }

    #[test]
    fn term_accessors() {
        let t = Term::iri("http://e/a");
        assert_eq!(t.as_iri().unwrap().as_str(), "http://e/a");
        assert!(t.as_blank().is_none());
        assert!(t.as_literal().is_none());
    }

    #[test]
    fn term_ordering_is_total() {
        let mut v = vec![Term::literal("z"), Term::iri("a"), Term::blank("m")];
        v.sort();
        // Ordering is by enum discriminant first; just assert it is stable.
        let v2 = {
            let mut v2 = v.clone();
            v2.sort();
            v2
        };
        assert_eq!(v, v2);
    }
}
