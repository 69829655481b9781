//! # rps-rdf — RDF substrate for the RPS peer-to-peer integration system
//!
//! This crate implements the RDF data model of Section 2.1 of *Peer-to-Peer
//! Semantic Integration of Linked Data* (Dimartino, Calì, Poulovassilis,
//! Wood; EDBT/ICDT 2015 workshops): terms drawn from the pairwise-disjoint
//! sets `I` (IRIs), `B` (blank nodes) and `L` (literals); RDF triples
//! `(s, p, o) ∈ (I ∪ B) × I × (I ∪ B ∪ L)`; and RDF databases as sets of
//! triples.
//!
//! The concrete pieces are:
//!
//! * [`term`] — [`Term`], [`Iri`], [`BlankNode`], [`Literal`];
//! * [`dict`] — dictionary interning of terms to dense [`TermId`]s;
//! * [`order`] — [`TermOrder`], a dictionary's ids ranked by term order,
//!   which a graph keeps beside its planner statistics;
//! * [`triple`] — owned and interned triples, position helpers;
//! * [`graph`] — the indexed triple store ([`Graph`]) with SPO/POS/OSP
//!   permutation indexes answering all eight triple-pattern shapes via
//!   range scans;
//! * [`store`] — the physical index layouts behind [`StorageBackend`]:
//!   sorted-run / merge-batch storage (immutable sorted runs + mutable
//!   tail, size-tiered compaction) by default, with the historical
//!   B-tree layout kept as oracle and benchmark baseline;
//! * [`durable`] — the durable storage tier: graphs checkpoint to
//!   checksummed paged run files and dictionary segments behind an
//!   atomically-committed manifest ([`Graph::persist`] /
//!   [`Graph::open`]), with recovery that refuses corrupt state with
//!   typed errors;
//! * [`turtle`] — an N-Triples / Turtle-lite parser and serialiser;
//! * [`namespace`] — prefix maps and well-known vocabulary constants
//!   (notably `owl:sameAs`, which the paper's equivalence mappings model).
//!
//! The store is deliberately self-contained (no sophia/oxigraph): the paper
//! only requires the conjunctive fragment of SPARQL, and building the
//! substrate ourselves keeps the chase and rewriting engines in full
//! control of blank-node (labelled-null) identity.

#![warn(missing_docs)]

pub mod dict;
pub mod durable;
pub mod error;
pub mod graph;
pub mod namespace;
pub mod order;
pub mod stats;
pub mod store;
pub mod term;
pub mod triple;
pub mod turtle;

pub use dict::{TermDict, TermId};
pub use error::RdfError;
pub use graph::{Graph, LogWindow, MatchIter};
pub use namespace::{vocab, PrefixMap};
pub use order::TermOrder;
pub use stats::{GraphStats, PredicateStats};
pub use store::{host_parallelism, SealConfig, StorageBackend, StorageStats};
pub use term::{BlankNode, Iri, Literal, LiteralAnnotation, Term, TermKind};
pub use triple::{IdTriple, Triple, TriplePosition};
