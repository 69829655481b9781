//! RDF Peer Systems: `P = (S, G, E)` (paper Section 2.2) and their stored
//! databases.

use crate::equivalence::EquivalenceIndex;
use crate::mapping::{EquivalenceMapping, GraphMappingAssertion, MappingError};
use crate::peer::{Peer, PeerId};
use rps_rdf::{vocab, Graph, IdTriple, Iri, Term, TermId};
use std::collections::BTreeSet;
use std::fmt;
use std::ops::Range;

/// An RDF Peer System `P = (S, G, E)`: peers (each carrying its schema
/// and stored database), graph mapping assertions and equivalence
/// mappings.
#[derive(Clone, Debug, Default)]
pub struct RdfPeerSystem {
    peers: Vec<Peer>,
    assertions: Vec<GraphMappingAssertion>,
    equivalences: Vec<EquivalenceMapping>,
}

impl RdfPeerSystem {
    /// Creates an empty system; add peers and mappings with the `add_*`
    /// methods or use [`RpsBuilder`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a peer, returning its id.
    pub fn add_peer(&mut self, peer: Peer) -> PeerId {
        self.peers.push(peer);
        PeerId(self.peers.len() - 1)
    }

    /// Adds a graph mapping assertion.
    pub fn add_assertion(&mut self, assertion: GraphMappingAssertion) {
        self.assertions.push(assertion);
    }

    /// Adds an equivalence mapping (deduplicated, trivial ones dropped).
    pub fn add_equivalence(&mut self, eq: EquivalenceMapping) {
        if eq.is_trivial() {
            return;
        }
        let canon = eq.canonical();
        if !self.equivalences.contains(&canon) {
            self.equivalences.push(canon);
        }
    }

    /// The peers.
    pub fn peers(&self) -> &[Peer] {
        &self.peers
    }

    /// A peer by id.
    pub fn peer(&self, id: PeerId) -> &Peer {
        &self.peers[id.0]
    }

    /// Mutable access to a peer, the write side of live updates
    /// ([`crate::live::LiveSession`] routes every insert/remove batch
    /// through here so the peer databases stay the source of truth). The
    /// caller keeps the peer's schema consistent with its database;
    /// validation re-checks when a session opens over the system.
    pub fn peer_mut(&mut self, id: PeerId) -> &mut Peer {
        &mut self.peers[id.0]
    }

    /// The graph mapping assertions `G`.
    pub fn assertions(&self) -> &[GraphMappingAssertion] {
        &self.assertions
    }

    /// The equivalence mappings `E`.
    pub fn equivalences(&self) -> &[EquivalenceMapping] {
        &self.equivalences
    }

    /// The *stored database* `D`: the union of all peer databases
    /// (Section 2.3). Blank nodes are kept peer-local by prefixing their
    /// labels with the peer index, matching the paper's treatment of
    /// blank nodes as scoped placeholders. The dictionary and the
    /// insertion log are those of inserting each peer's triples in turn,
    /// one at a time.
    pub fn stored_database(&self) -> Graph {
        self.load(0..self.peers.len(), None)
    }

    /// One peer's database with its blank nodes relabelled into the
    /// peer-scoped namespace used by [`Self::stored_database`]. Federated
    /// evaluation uses these so that cross-pattern joins on blanks behave
    /// identically to centralised evaluation.
    pub fn scoped_database(&self, id: PeerId) -> Graph {
        self.load(id.0..id.0 + 1, None)
    }

    /// The stored database on `index`'s class representatives: the
    /// quotient graph the rewritten route evaluates over (Section 4
    /// evaluates a perfect rewriting directly over the sources), and the
    /// one a full system's materialised route chases. It holds the triples and terms of
    /// [`canonicalize_graph`](crate::canonicalize_graph) over
    /// [`Self::stored_database`], but is loaded from the peers in one
    /// pass, so its ids follow the peers' load order.
    pub fn canonical_database(&self, index: &EquivalenceIndex) -> Graph {
        self.load(0..self.peers.len(), Some(index))
    }

    /// [`Self::canonical_database`] of one peer: its
    /// [`Self::scoped_database`] on `index`'s class representatives.
    pub fn canonical_scoped_database(&self, id: PeerId, index: &EquivalenceIndex) -> Graph {
        self.load(id.0..id.0 + 1, Some(index))
    }

    /// Loads the peers `peers` into one graph. Each peer's triples are
    /// walked once and every distinct term of its dictionary is mapped
    /// once, through a dense memo: blanks are scoped to the peer
    /// ([`scoped_term`]), IRIs moved to their class representative when
    /// an index is given, and the result interned. All peers' triples
    /// then go into the store as one batch; first occurrence wins, so the
    /// insertion log is that of loading the peers one after the other.
    fn load(&self, peers: Range<usize>, index: Option<&EquivalenceIndex>) -> Graph {
        let mut out = Graph::new();
        let mut batch: Vec<IdTriple> =
            Vec::with_capacity(self.peers[peers.clone()].iter().map(Peer::size).sum());
        for idx in peers {
            let db = &self.peers[idx].database;
            let mut memo: Vec<Option<TermId>> = vec![None; db.dict().len()];
            let mut map = |id: TermId, out: &mut Graph| {
                *memo[id.index()].get_or_insert_with(|| {
                    let scoped = scoped_term(idx, db.term(id));
                    match index {
                        Some(index) => out.intern(&index.canonical_term(&scoped)),
                        None => out.intern(&scoped),
                    }
                })
            };
            batch.extend(db.iter_ids().map(|t| {
                let s = map(t.s, &mut out);
                let p = map(t.p, &mut out);
                let o = map(t.o, &mut out);
                IdTriple::new(s, p, o)
            }));
        }
        out.insert_batch(batch);
        out
    }

    /// Imports equivalence mappings from `owl:sameAs` triples found in
    /// the stored databases, as in the paper's Example 2 ("E contains an
    /// equivalence mapping c ≡ₑ c' for each triple (c, sameAs, c')").
    /// Returns how many (non-trivial, deduplicated) mappings were added.
    pub fn import_same_as(&mut self) -> usize {
        let mut found: BTreeSet<EquivalenceMapping> = BTreeSet::new();
        for peer in &self.peers {
            let g = &peer.database;
            let Some(p) = g.term_id(&Term::iri(vocab::OWL_SAME_AS)) else {
                continue;
            };
            for t in g.match_ids(None, Some(p), None) {
                if let (Term::Iri(a), Term::Iri(b)) = (g.term(t.s), g.term(t.o)) {
                    let eq = EquivalenceMapping::new(a.clone(), b.clone());
                    if !eq.is_trivial() {
                        found.insert(eq.canonical());
                    }
                }
            }
        }
        let before = self.equivalences.len();
        for eq in found {
            self.add_equivalence(eq);
        }
        self.equivalences.len() - before
    }

    /// Validates the whole system: peer storage constraints, and mapping
    /// queries expressed over the schemas of their peers (IRIs of `Q`
    /// must belong to the source schema ∪ literals, per Section 2.2).
    pub fn validate(&self) -> Result<(), SystemValidationError> {
        for peer in &self.peers {
            peer.validate()
                .map_err(|e| SystemValidationError::Peer(Box::new(e)))?;
        }
        for (i, gma) in self.assertions.iter().enumerate() {
            if gma.source.0 >= self.peers.len() || gma.target.0 >= self.peers.len() {
                return Err(SystemValidationError::UnknownPeer { assertion: i });
            }
            let src_schema = &self.peer(gma.source).schema;
            for iri in GraphMappingAssertion::iris_of(&gma.premise) {
                if !src_schema.contains(&iri) {
                    return Err(SystemValidationError::SchemaViolation {
                        assertion: i,
                        iri,
                        peer: gma.source,
                    });
                }
            }
            let dst_schema = &self.peer(gma.target).schema;
            for iri in GraphMappingAssertion::iris_of(&gma.conclusion) {
                if !dst_schema.contains(&iri) {
                    return Err(SystemValidationError::SchemaViolation {
                        assertion: i,
                        iri,
                        peer: gma.target,
                    });
                }
            }
        }
        Ok(())
    }

    /// Total number of stored triples across peers.
    pub fn stored_size(&self) -> usize {
        self.peers.iter().map(Peer::size).sum()
    }
}

/// The peer-scoped image of a term in the stored database: blank labels
/// are prefixed with the peer index (`p{idx}_…`), matching the paper's
/// treatment of blank nodes as peer-local placeholders. Both the peer
/// loader behind [`RdfPeerSystem::stored_database`] (and its scoped and
/// canonical forms) and the live-update write path ([`crate::live`])
/// apply this mapping, so a triple inserted live lands on exactly the id
/// a batch load would have given it.
pub(crate) fn scoped_term(idx: usize, term: &Term) -> Term {
    match term {
        Term::Blank(b) => Term::blank(format!("p{idx}_{}", b.label())),
        other => other.clone(),
    }
}

/// Validation failures for a whole system.
#[derive(Debug)]
pub enum SystemValidationError {
    /// A peer stores triples outside its schema.
    Peer(Box<crate::peer::PeerValidationError>),
    /// An assertion references a peer id that does not exist.
    UnknownPeer {
        /// Index of the offending assertion.
        assertion: usize,
    },
    /// A mapping query uses an IRI outside the peer's schema.
    SchemaViolation {
        /// Index of the offending assertion.
        assertion: usize,
        /// The foreign IRI.
        iri: Iri,
        /// The peer whose schema was violated.
        peer: PeerId,
    },
}

impl fmt::Display for SystemValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemValidationError::Peer(e) => write!(f, "{e}"),
            SystemValidationError::UnknownPeer { assertion } => {
                write!(f, "assertion #{assertion} references an unknown peer")
            }
            SystemValidationError::SchemaViolation {
                assertion,
                iri,
                peer,
            } => write!(
                f,
                "assertion #{assertion} uses {iri} outside the schema of {peer}"
            ),
        }
    }
}

impl std::error::Error for SystemValidationError {}

/// Fluent builder for small systems (tests, examples).
#[derive(Default)]
pub struct RpsBuilder {
    system: RdfPeerSystem,
}

impl RpsBuilder {
    /// Starts an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a peer from Turtle source, inferring its schema; returns the
    /// builder and stores the new peer's id in `out_id`.
    pub fn peer_turtle(
        mut self,
        name: &str,
        turtle: &str,
        out_id: &mut PeerId,
    ) -> Result<Self, rps_rdf::RdfError> {
        let g = rps_rdf::turtle::parse(turtle)?;
        *out_id = self.system.add_peer(Peer::from_database(name, g));
        Ok(self)
    }

    /// Adds a graph mapping assertion.
    pub fn assertion(
        mut self,
        source: PeerId,
        target: PeerId,
        premise: rps_query::GraphPatternQuery,
        conclusion: rps_query::GraphPatternQuery,
    ) -> Result<Self, MappingError> {
        let gma = GraphMappingAssertion::new(source, target, premise, conclusion)?;
        self.system.add_assertion(gma);
        Ok(self)
    }

    /// Adds an equivalence mapping by IRI strings.
    pub fn equivalence(mut self, left: &str, right: &str) -> Self {
        self.system
            .add_equivalence(EquivalenceMapping::new(Iri::new(left), Iri::new(right)));
        self
    }

    /// Imports `owl:sameAs` links as equivalence mappings.
    pub fn import_same_as(mut self) -> Self {
        self.system.import_same_as();
        self
    }

    /// Finishes building.
    pub fn build(self) -> RdfPeerSystem {
        self.system
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rps_query::{GraphPattern, GraphPatternQuery, TermOrVar, Variable};

    #[test]
    fn stored_database_unions_and_scopes_blanks() {
        let mut sys = RdfPeerSystem::new();
        let g1 = rps_rdf::turtle::parse("_:b <http://e/p> <http://e/o> .").unwrap();
        let g2 = rps_rdf::turtle::parse("_:b <http://e/p> <http://e/o2> .").unwrap();
        sys.add_peer(Peer::from_database("a", g1));
        sys.add_peer(Peer::from_database("b", g2));
        let d = sys.stored_database();
        assert_eq!(d.len(), 2);
        // The two _:b blanks stay distinct.
        let subjects: BTreeSet<String> = d.iter().map(|t| t.subject().to_string()).collect();
        assert_eq!(subjects.len(), 2);
    }

    #[test]
    fn same_as_import() {
        let mut sys = RdfPeerSystem::new();
        let g = rps_rdf::turtle::parse(&format!(
            "<http://a> <{}> <http://b> .\n<http://a> <{}> <http://a> .\n",
            vocab::OWL_SAME_AS,
            vocab::OWL_SAME_AS
        ))
        .unwrap();
        sys.add_peer(Peer::from_database("s", g));
        let n = sys.import_same_as();
        assert_eq!(n, 1); // trivial self-link dropped
        assert_eq!(sys.equivalences().len(), 1);
        // Importing again is idempotent.
        assert_eq!(sys.import_same_as(), 0);
    }

    #[test]
    fn validation_checks_mapping_schemas() {
        let mut sys = RdfPeerSystem::new();
        let g1 = rps_rdf::turtle::parse("<http://a/s> <http://a/p> <http://a/o> .").unwrap();
        let g2 = rps_rdf::turtle::parse("<http://b/s> <http://b/p> <http://b/o> .").unwrap();
        let p1 = sys.add_peer(Peer::from_database("a", g1));
        let p2 = sys.add_peer(Peer::from_database("b", g2));
        let q_src = GraphPatternQuery::new(
            vec![Variable::new("x"), Variable::new("y")],
            GraphPattern::triple(
                TermOrVar::var("x"),
                TermOrVar::iri("http://a/p"),
                TermOrVar::var("y"),
            ),
        );
        let q_dst = GraphPatternQuery::new(
            vec![Variable::new("x"), Variable::new("y")],
            GraphPattern::triple(
                TermOrVar::var("x"),
                TermOrVar::iri("http://b/p"),
                TermOrVar::var("y"),
            ),
        );
        sys.add_assertion(
            GraphMappingAssertion::new(p1, p2, q_src.clone(), q_dst.clone()).unwrap(),
        );
        assert!(sys.validate().is_ok());
        // A premise over the wrong peer's vocabulary fails.
        sys.add_assertion(GraphMappingAssertion::new(p2, p1, q_src, q_dst).unwrap());
        assert!(matches!(
            sys.validate(),
            Err(SystemValidationError::SchemaViolation { assertion: 1, .. })
        ));
    }

    #[test]
    fn builder_roundtrip() {
        let mut a = PeerId(0);
        let mut b = PeerId(0);
        let sys = RpsBuilder::new()
            .peer_turtle("a", "<http://a/s> <http://a/p> <http://a/o> .", &mut a)
            .unwrap()
            .peer_turtle("b", "<http://b/s> <http://b/p> <http://b/o> .", &mut b)
            .unwrap()
            .equivalence("http://a/s", "http://b/s")
            .build();
        assert_eq!(sys.peers().len(), 2);
        assert_eq!(sys.equivalences().len(), 1);
        assert_eq!(sys.stored_size(), 2);
        assert!(sys.validate().is_ok());
    }

    #[test]
    fn duplicate_and_trivial_equivalences_dropped() {
        let mut sys = RdfPeerSystem::new();
        sys.add_equivalence(EquivalenceMapping::new(Iri::new("a"), Iri::new("b")));
        sys.add_equivalence(EquivalenceMapping::new(Iri::new("b"), Iri::new("a")));
        sys.add_equivalence(EquivalenceMapping::new(Iri::new("a"), Iri::new("a")));
        assert_eq!(sys.equivalences().len(), 1);
    }
}
