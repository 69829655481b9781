//! Schema-based query routing.
//!
//! Each peer's schema is the set of IRIs it uses (Section 2.2), so a
//! triple pattern can only match at peers whose schema contains the
//! pattern's constant IRIs. The router maintains an inverted index from
//! IRI to peers and prunes the fan-out of federated evaluation.

use rps_core::{PeerId, RdfPeerSystem};
use rps_query::{TermOrVar, TriplePattern};
use rps_rdf::{Iri, Term};
use std::collections::{BTreeSet, HashMap};

/// Inverted index `IRI → peers that know it`.
#[derive(Clone, Debug, Default)]
pub struct SchemaIndex {
    by_iri: HashMap<Iri, BTreeSet<PeerId>>,
    all_peers: BTreeSet<PeerId>,
}

impl SchemaIndex {
    /// Builds the index from a system's peer schemas.
    pub fn build(system: &RdfPeerSystem) -> Self {
        Self::from_schemas(
            system
                .peers()
                .iter()
                .map(|peer| peer.schema.iter().cloned()),
        )
    }

    /// Builds the index from peer schemas, peer `i`'s the `i`-th.
    pub(crate) fn from_schemas<S: IntoIterator<Item = Iri>>(
        schemas: impl Iterator<Item = S>,
    ) -> Self {
        let mut by_iri: HashMap<Iri, BTreeSet<PeerId>> = HashMap::new();
        let mut all_peers = BTreeSet::new();
        for (idx, schema) in schemas.enumerate() {
            let id = PeerId(idx);
            all_peers.insert(id);
            for iri in schema {
                by_iri.entry(iri).or_default().insert(id);
            }
        }
        SchemaIndex { by_iri, all_peers }
    }

    /// Peers whose schema contains the IRI.
    pub fn peers_for(&self, iri: &Iri) -> BTreeSet<PeerId> {
        self.by_iri.get(iri).cloned().unwrap_or_default()
    }

    /// Peers that can possibly match a triple pattern: the intersection
    /// of the peer sets of all constant IRIs in the pattern (all peers if
    /// the pattern has no IRI constants).
    pub fn route(&self, pattern: &TriplePattern) -> BTreeSet<PeerId> {
        let mut candidates: Option<BTreeSet<PeerId>> = None;
        for tv in [&pattern.s, &pattern.p, &pattern.o] {
            if let TermOrVar::Term(Term::Iri(iri)) = tv {
                let peers = self.peers_for(iri);
                candidates = Some(match candidates {
                    None => peers,
                    Some(prev) => prev.intersection(&peers).cloned().collect(),
                });
            }
        }
        candidates.unwrap_or_else(|| self.all_peers.clone())
    }

    /// Number of indexed IRIs.
    pub fn len(&self) -> usize {
        self.by_iri.len()
    }

    /// `true` iff the index is empty.
    pub fn is_empty(&self) -> bool {
        self.by_iri.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rps_core::RpsBuilder;

    fn system() -> RdfPeerSystem {
        let mut a = PeerId(0);
        let mut b = PeerId(0);
        RpsBuilder::new()
            .peer_turtle("A", "<http://a/s> <http://shared/p> <http://a/o> .", &mut a)
            .unwrap()
            .peer_turtle("B", "<http://b/s> <http://shared/p> <http://b/o> .", &mut b)
            .unwrap()
            .build()
    }

    #[test]
    fn shared_iris_route_to_both() {
        let idx = SchemaIndex::build(&system());
        let shared = idx.peers_for(&Iri::new("http://shared/p"));
        assert_eq!(shared.len(), 2);
        let only_a = idx.peers_for(&Iri::new("http://a/s"));
        assert_eq!(only_a, [PeerId(0)].into_iter().collect());
        assert!(idx.peers_for(&Iri::new("http://nowhere/x")).is_empty());
    }

    #[test]
    fn pattern_routing_intersects() {
        let idx = SchemaIndex::build(&system());
        // (a/s, shared/p, ?o): only peer A knows a/s.
        let p = TriplePattern::new(
            TermOrVar::iri("http://a/s"),
            TermOrVar::iri("http://shared/p"),
            TermOrVar::var("o"),
        );
        assert_eq!(idx.route(&p), [PeerId(0)].into_iter().collect());
        // Pure-variable pattern fans out to everyone.
        let open = TriplePattern::new(
            TermOrVar::var("s"),
            TermOrVar::var("p"),
            TermOrVar::var("o"),
        );
        assert_eq!(idx.route(&open).len(), 2);
        // Foreign IRI: nobody.
        let dead = TriplePattern::new(
            TermOrVar::iri("http://nowhere/x"),
            TermOrVar::var("p"),
            TermOrVar::var("o"),
        );
        assert!(idx.route(&dead).is_empty());
    }
}
