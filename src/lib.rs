//! # rps-suite — umbrella crate
//!
//! Re-exports the workspace crates so the examples and integration tests
//! under the repository root can use one coherent namespace. See the
//! individual crates for the real APIs:
//!
//! * [`rps_rdf`] — RDF substrate (terms, store, Turtle-lite);
//! * [`rps_query`] — graph pattern queries and the SPARQL subset;
//! * [`rps_tgd`] — TGDs, classification, UCQ rewriting, and the
//!   Section-3 reference chase / CQ evaluation (`rps_tgd::naive`);
//! * [`rps_core`] — RDF Peer Systems (the paper's contribution);
//! * [`rps_p2p`] — simulated federation;
//! * [`rps_lodgen`] — synthetic workloads and the paper fixture.

pub use rps_core;
pub use rps_lodgen;
pub use rps_p2p;
pub use rps_query;
pub use rps_rdf;
pub use rps_tgd;
