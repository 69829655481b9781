//! # rps-p2p — simulated peer-to-peer query federation
//!
//! Section 5 of *Peer-to-Peer Semantic Integration of Linked Data*
//! sketches a prototype that (a) rewrites a SPARQL query to entail the
//! peer mappings and (b) performs federated querying over the sources,
//! joining sub-query results transparently. The paper gives no
//! implementation or measurements; this crate builds the closest
//! laptop-scale equivalent:
//!
//! * [`network`] — a deterministic message-accounting simulator with a
//!   latency/bandwidth cost model (no sockets; the experiments need
//!   message counts, bytes and critical-path estimates, not real I/O);
//! * [`routing`] — schema-based routing: an inverted IRI→peers index
//!   prunes which peers receive each sub-query (peer schemas are exactly
//!   the paper's notion of "the IRIs adopted by the peer");
//! * [`federation`] — pattern-level federated evaluation with
//!   originator-side joins, proven (by tests) to coincide with
//!   centralised evaluation over the stored database. Queries are
//!   *prepared once* (routing, per-peer constant resolution, head
//!   templates) and executed at the id level against an originator-side
//!   answer dictionary — the term-level path survives as a benchmark
//!   baseline;
//! * [`service`] — the full prototype pipeline behind the
//!   [`service::FederatedSession`] builder and the
//!   [`service::FrozenFederatedSession`] it freezes into (rewrite once →
//!   prepare once → federate repeatedly), sharing `rps_core`'s `Session`
//!   vocabulary (`EngineConfig`, `AnswerStream`, `ExecRoute`,
//!   `RpsError`);
//! * [`wire`] — the length-prefixed wire format every transport (and the
//!   simulator's byte accounting) shares;
//! * [`transport`] — the pluggable peer-exchange layer: a perfect
//!   in-process transport over the simulator's graphs, a seeded
//!   fault-injecting wrapper, and a real localhost TCP transport —
//!   combined with `rps_core`'s `RetryPolicy`/`FailurePolicy` for
//!   fault-tolerant federation.

#![warn(missing_docs)]

pub mod federation;
pub mod network;
pub mod routing;
pub mod service;
pub mod transport;
pub mod wire;

pub use federation::{
    FederatedEngine, FederationReport, FederationStats, PeerFailure, PreparedFederation,
};
pub use network::{CostModel, Message, NodeId, SimNetwork};
pub use routing::SchemaIndex;
pub use service::{
    FederatedAnswer, FederatedSession, FrozenFederatedSession, PreparedFederatedQuery,
};
pub use transport::{
    FaultConfig, FaultyTransport, Reply, SimTransport, TcpTransport, Transport, TransportError,
};
pub use wire::{WireBatch, WireError, WireFault, WireMessage, WireRequest, WireSlot};
