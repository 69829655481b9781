//! # rps-lodgen — synthetic Linked Data workloads
//!
//! The paper evaluates nothing empirically (it is a theory-first workshop
//! report whose Section 5 defers a prototype and scalability study to
//! future work), and its running example uses hand-picked LOD-cloud
//! data. This crate supplies both:
//!
//! * [`paper`] — the Figure 1 / Example 2 fixture reproduced *exactly*,
//!   with Listing 1's expected answers;
//! * [`film`] — a seeded, parameterised film/people generator in the
//!   same shape (peers, person-pool overlap, `sameAs` density,
//!   hub-style existential mappings);
//! * [`topology`] — mapping topologies (chain, ring, star, clique,
//!   random, bidirectional chain) for the scalability experiments;
//! * [`chain`] — the Proposition 3 transitive-closure workload;
//! * [`queries`] — query generators for workload mixes;
//! * [`bulk`] — O(n) multi-million-triple single-graph generation for
//!   storage-layer scale tests (no caller outside this crate today;
//!   ROADMAP item 1b decides it).

#![warn(missing_docs)]

pub mod bulk;
pub mod chain;
pub mod film;
pub mod paper;
pub mod people;
pub mod queries;
pub mod rng;
pub mod topology;

pub use bulk::{bulk_graph, BulkConfig, BulkIds};
pub use chain::{edge_query, endpoint_query, transitive_system};
pub use film::{actor_shape_query, film_system, peer_ns, FilmConfig};
pub use paper::{paper_example, query_from, PaperExample};
pub use people::{people_workload, PeopleConfig, PeopleWorkload};
pub use rng::{seed_matrix, SeededRng};
pub use topology::Topology;
