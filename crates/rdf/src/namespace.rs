//! Namespace prefixes and well-known vocabulary constants.

use crate::error::RdfError;
use crate::term::Iri;
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Well-known vocabulary IRIs used throughout the paper's examples.
pub mod vocab {
    /// `owl:sameAs` — the identity-link property whose semantics the
    /// paper's equivalence mappings formalise (Section 1, footnote 1).
    pub const OWL_SAME_AS: &str = "http://www.w3.org/2002/07/owl#sameAs";
    /// `rdf:type`.
    pub const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
    /// The RDF namespace.
    pub const RDF_NS: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#";
    /// The RDFS namespace.
    pub const RDFS_NS: &str = "http://www.w3.org/2000/01/rdf-schema#";
    /// The OWL namespace.
    pub const OWL_NS: &str = "http://www.w3.org/2002/07/owl#";
    /// The XSD namespace.
    pub const XSD_NS: &str = "http://www.w3.org/2001/XMLSchema#";
    /// The FOAF namespace (used by Source 3 in the paper's Figure 1).
    pub const FOAF_NS: &str = "http://xmlns.com/foaf/0.1/";
}

/// A prefix → namespace map supporting expansion of `prefix:local` names
/// and best-effort shrinking for serialisation. The well-known entries
/// of [`PrefixMap::common`] borrow their `'static` text, so building one
/// costs only its map nodes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PrefixMap {
    prefixes: BTreeMap<Cow<'static, str>, Cow<'static, str>>,
}

impl PrefixMap {
    /// An empty prefix map.
    pub fn new() -> Self {
        Self::default()
    }

    /// A prefix map preloaded with `rdf`, `rdfs`, `owl`, `xsd` and `foaf`.
    pub fn common() -> Self {
        let mut m = Self::new();
        for (prefix, ns) in [
            ("rdf", vocab::RDF_NS),
            ("rdfs", vocab::RDFS_NS),
            ("owl", vocab::OWL_NS),
            ("xsd", vocab::XSD_NS),
            ("foaf", vocab::FOAF_NS),
        ] {
            m.prefixes.insert(Cow::Borrowed(prefix), Cow::Borrowed(ns));
        }
        m
    }

    /// Declares (or redeclares) a prefix.
    pub fn insert(&mut self, prefix: impl Into<String>, namespace: impl Into<String>) {
        self.prefixes
            .insert(Cow::Owned(prefix.into()), Cow::Owned(namespace.into()));
    }

    /// The namespace bound to a prefix.
    pub fn get(&self, prefix: &str) -> Option<&str> {
        self.prefixes.get(prefix).map(|ns| &**ns)
    }

    /// Expands `prefix:local` to a full IRI.
    pub fn expand(&self, prefixed: &str) -> Result<Iri, RdfError> {
        let (prefix, local) = prefixed
            .split_once(':')
            .ok_or_else(|| RdfError::UnknownPrefix(prefixed.to_string()))?;
        let ns = self
            .prefixes
            .get(prefix)
            .ok_or_else(|| RdfError::UnknownPrefix(prefix.to_string()))?;
        Ok(Iri::new(format!("{ns}{local}")))
    }

    /// Attempts to shrink a full IRI to `prefix:local` form, preferring the
    /// longest matching namespace.
    pub fn shrink(&self, iri: &Iri) -> Option<String> {
        let s = iri.as_str();
        let mut best: Option<(&str, &str)> = None;
        for (prefix, ns) in &self.prefixes {
            if let Some(local) = s.strip_prefix(&**ns) {
                // Locals with further separators would not round-trip.
                if local.contains('/') || local.contains('#') || local.contains(':') {
                    continue;
                }
                match best {
                    Some((_, bns)) if bns.len() >= ns.len() => {}
                    _ => best = Some((prefix, local)),
                }
            }
        }
        best.map(|(prefix, local)| format!("{prefix}:{local}"))
    }

    /// Iterates over `(prefix, namespace)` pairs in prefix order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.prefixes.iter().map(|(p, n)| (&**p, &**n))
    }

    /// Number of declared prefixes.
    pub fn len(&self) -> usize {
        self.prefixes.len()
    }

    /// Whether no prefixes are declared.
    pub fn is_empty(&self) -> bool {
        self.prefixes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expand_known_prefix() {
        let m = PrefixMap::common();
        let iri = m.expand("foaf:age").unwrap();
        assert_eq!(iri.as_str(), "http://xmlns.com/foaf/0.1/age");
    }

    #[test]
    fn expand_unknown_prefix_fails() {
        let m = PrefixMap::new();
        assert!(matches!(
            m.expand("db1:Spiderman"),
            Err(RdfError::UnknownPrefix(_))
        ));
        assert!(matches!(
            m.expand("nocolon"),
            Err(RdfError::UnknownPrefix(_))
        ));
    }

    #[test]
    fn shrink_prefers_longest_namespace() {
        let mut m = PrefixMap::new();
        m.insert("a", "http://e/");
        m.insert("ab", "http://e/deep/");
        let iri = Iri::new("http://e/deep/x");
        assert_eq!(m.shrink(&iri).unwrap(), "ab:x");
    }

    #[test]
    fn shrink_refuses_non_roundtrippable_locals() {
        let mut m = PrefixMap::new();
        m.insert("a", "http://e/");
        assert_eq!(m.shrink(&Iri::new("http://e/x/y")), None);
        assert_eq!(m.shrink(&Iri::new("http://other/x")), None);
    }

    #[test]
    fn common_contains_owl() {
        let m = PrefixMap::common();
        assert_eq!(m.expand("owl:sameAs").unwrap().as_str(), vocab::OWL_SAME_AS);
    }

    /// The well-known entries borrow their text: building the map
    /// copies no namespace.
    #[test]
    fn common_borrows_its_entries() {
        let m = PrefixMap::common();
        for (prefix, ns) in &m.prefixes {
            assert!(matches!((prefix, ns), (Cow::Borrowed(_), Cow::Borrowed(_))));
        }
        assert_eq!(m.len(), 5);
        assert_eq!(m.get("xsd"), Some(vocab::XSD_NS));
    }

    #[test]
    fn len_and_iter() {
        let mut m = PrefixMap::new();
        assert!(m.is_empty());
        m.insert("x", "http://x/");
        assert_eq!(m.len(), 1);
        assert_eq!(m.iter().next(), Some(("x", "http://x/")));
    }
}
