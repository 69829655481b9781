//! Peers and peer schemas (paper Section 2.2).
//!
//! A peer is characterised by its *peer schema* — the set of IRIs it uses
//! to describe data — and its stored RDF database. Peer schemas need not
//! be disjoint: real Linked Data sources share IRIs.

use rps_rdf::{Graph, Iri, Term, TermId, TermKind, Triple};
use std::collections::BTreeSet;
use std::fmt;

/// Identifier of a peer within an RPS (dense index).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PeerId(pub usize);

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "peer#{}", self.0)
    }
}

/// A peer: name, schema `S ⊆ I` and stored database `d`.
#[derive(Clone, Debug)]
pub struct Peer {
    /// Human-readable name (e.g. "Source 1").
    pub name: String,
    /// The peer schema: the IRIs this peer uses in its triples.
    pub schema: BTreeSet<Iri>,
    /// The peer's stored RDF database.
    pub database: Graph,
}

impl Peer {
    /// Creates a peer whose schema is inferred from its database (the set
    /// of IRIs occurring in any triple), mirroring how the paper derives
    /// `S_i` from the i-th source in Example 2.
    pub fn from_database(name: impl Into<String>, database: Graph) -> Self {
        let schema = database.iris_used();
        Peer {
            name: name.into(),
            schema,
            database,
        }
    }

    /// Creates a peer with an explicit schema.
    pub fn with_schema(name: impl Into<String>, schema: BTreeSet<Iri>, database: Graph) -> Self {
        Peer {
            name: name.into(),
            schema,
            database,
        }
    }

    /// Checks the storage constraint of Section 2.3: every stored triple
    /// must be in `(S ∪ B) × S × (S ∪ B ∪ L)`.
    #[allow(clippy::result_large_err)] // the offending triple is the useful payload
    pub fn validate(&self) -> Result<(), PeerValidationError> {
        let dict = self.database.dict();
        // Per term id, once: `None` until asked, then whether the id is
        // an IRI of the schema.
        let mut in_schema: Vec<Option<bool>> = vec![None; dict.len()];
        let mut known = |id: TermId| {
            *in_schema[id.index()].get_or_insert_with(|| match dict.term(id) {
                Term::Iri(iri) => self.schema.contains(iri),
                _ => false,
            })
        };
        for t in self.database.iter_ids() {
            let ok_subject = match dict.kind(t.s) {
                TermKind::Iri => known(t.s),
                TermKind::Blank => true,
                TermKind::Literal => false,
            };
            let ok_predicate = dict.kind(t.p) == TermKind::Iri && known(t.p);
            let ok_object = dict.kind(t.o) != TermKind::Iri || known(t.o);
            if !(ok_subject && ok_predicate && ok_object) {
                return Err(PeerValidationError {
                    peer: self.name.clone(),
                    triple: self.database.materialise(t),
                });
            }
        }
        Ok(())
    }

    /// `true` iff this peer's schema contains the IRI.
    pub fn knows(&self, iri: &Iri) -> bool {
        self.schema.contains(iri)
    }

    /// Number of stored triples.
    pub fn size(&self) -> usize {
        self.database.len()
    }
}

/// A stored triple uses an IRI outside the peer's schema.
#[derive(Clone, Debug)]
pub struct PeerValidationError {
    /// Offending peer name.
    pub peer: String,
    /// Offending triple.
    pub triple: Triple,
}

impl fmt::Display for PeerValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "peer {:?} stores a triple outside its schema: {}",
            self.peer, self.triple
        )
    }
}

impl std::error::Error for PeerValidationError {}

#[cfg(test)]
mod tests {
    use super::*;
    use rps_rdf::IdTriple;

    fn db() -> Graph {
        rps_rdf::turtle::parse(
            "@prefix e: <http://e/> .\n\
             e:s e:p e:o .\n\
             _:b e:p \"lit\" .\n",
        )
        .unwrap()
    }

    #[test]
    fn schema_inference() {
        let p = Peer::from_database("Source 1", db());
        assert_eq!(p.schema.len(), 3);
        assert!(p.knows(&Iri::new("http://e/p")));
        assert!(!p.knows(&Iri::new("http://e/other")));
        assert_eq!(p.size(), 2);
    }

    #[test]
    fn inferred_schema_validates() {
        let p = Peer::from_database("Source 1", db());
        assert!(p.validate().is_ok());
    }

    #[test]
    fn narrow_schema_fails_validation() {
        let schema: BTreeSet<Iri> = [Iri::new("http://e/p")].into_iter().collect();
        let p = Peer::with_schema("narrow", schema, db());
        let err = p.validate().unwrap_err();
        assert_eq!(err.peer, "narrow");
    }

    /// The first offending triple in SPO (id) order is the error's, for
    /// each of the three position rules.
    #[test]
    fn validation_reports_the_first_offending_triple() {
        let mut g = Graph::new();
        let mut id = |t: Term| g.intern(&t);
        let (s, p, o) = (
            id(Term::iri("http://e/s")),
            id(Term::iri("http://e/p")),
            id(Term::iri("http://e/o")),
        );
        let lit = id(Term::literal("lit"));
        let blank = id(Term::blank("b"));
        let out = id(Term::iri("http://e/out"));
        let triples = [
            IdTriple::new(s, p, o),
            IdTriple::new(lit, p, o),
            IdTriple::new(s, blank, o),
            IdTriple::new(s, p, out),
        ];
        let schema: BTreeSet<Iri> = ["http://e/s", "http://e/p", "http://e/o"]
            .into_iter()
            .map(Iri::new)
            .collect();
        for &bad in &triples[1..] {
            let mut one = g.clone();
            one.insert_batch([triples[0], bad]);
            let err = Peer::with_schema("one", schema.clone(), one.clone()).validate();
            assert_eq!(err.unwrap_err().triple, one.materialise(bad));
        }
        g.insert_batch(triples);
        let err = Peer::with_schema("all", schema, g.clone()).validate();
        let first = g.iter_ids().find(|t| t != &triples[0]);
        assert_eq!(
            Some(err.unwrap_err().triple),
            first.map(|t| g.materialise(t))
        );
        assert_eq!(first, Some(triples[3]), "(s, p, out) sorts first by id");
    }

    #[test]
    fn blanks_and_literals_always_allowed() {
        let mut g = Graph::new();
        g.insert_terms(
            Term::blank("x"),
            Term::iri("http://e/p"),
            Term::literal("v"),
        )
        .unwrap();
        let p = Peer::from_database("b", g);
        assert!(p.validate().is_ok());
        assert_eq!(p.schema.len(), 1);
    }
}
