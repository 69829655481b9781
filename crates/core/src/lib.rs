//! # rps-core — RDF Peer Systems
//!
//! The primary contribution of *Peer-to-Peer Semantic Integration of
//! Linked Data* (Dimartino, Calì, Poulovassilis, Wood; EDBT/ICDT 2015
//! workshops): a peer-to-peer data-integration framework for Linked Data
//! with
//!
//! * **peers** carrying peer schemas and stored RDF databases
//!   ([`peer`]),
//! * **graph mapping assertions** `Q ⇝ Q'` and **equivalence mappings**
//!   `c ≡ₑ c'` ([`mapping`]), assembled into systems `P = (S, G, E)`
//!   ([`system`]),
//! * **Algorithm 1** — the chase producing a universal solution, over
//!   which certain answers are evaluated ([`chase`], [`answers`]);
//!   the repo benchmark (`benchmark/`, metrics `core.chase.*`) times it
//!   at one size — Theorem 1's growth with size is not measured,
//! * the **Section 3 reduction** to relational data exchange
//!   ([`encode`]),
//! * the **Section 4 rewriting** machinery — classification-driven UCQ
//!   rewriting (Proposition 2), the Boolean certain-answer procedure of
//!   Example 3 / Listing 2, and the non-FO-rewritability witness of
//!   Proposition 3 ([`rewriting`]),
//! * a union-find fast path for equivalence saturation used as an
//!   engineering ablation ([`equivalence`]),
//! * the unified answering façade — the [`session::Session`] builder
//!   that freezes into the answering [`session::FrozenSession`],
//!   [`session::PreparedQuery`], streaming [`session::AnswerStream`]
//!   results and the typed [`error::RpsError`] — with SPARQL text on
//!   every façade through the one glue in [`sparql`].

#![warn(missing_docs)]

pub mod answers;
pub mod chase;
pub mod discovery;
pub mod encode;
pub mod equivalence;
pub mod error;
pub mod fault;
pub mod live;
pub mod mapping;
pub mod peer;
pub mod rewriting;
pub mod session;
pub mod sparql;
pub mod system;

pub use answers::{certain_answers, certain_answers_union, AnswerSet};
pub use chase::{
    chase_system, is_solution, FiringMode, RpsChaseConfig, RpsChaseStats, UniversalSolution,
};
pub use discovery::{
    discover, evaluate as evaluate_discovery, Candidate, DiscoveryConfig, DiscoveryQuality,
};
pub use encode::{encode_system, query_to_cq, DataExchange, Encoder};
pub use equivalence::{canonicalize_graph, expand_answers, saturate_naive, EquivalenceIndex};
pub use error::RpsError;
pub use fault::{splitmix64, FailureCause, FailurePolicy, RetryPolicy};
pub use live::{LiveReader, LiveSession, UpdateBatch};
pub use mapping::{EquivalenceMapping, GraphMappingAssertion, MappingError};
pub use peer::{Peer, PeerId, PeerValidationError};
pub use rewriting::{RpsRewriter, RpsRewriting};
pub use rps_query::{SparqlError, SparqlResult, SparqlRows};
pub use session::{
    canonical_plan_key, next_session_id, AnswerStream, EngineConfig, ExecConfig, ExecRoute,
    FrozenSession, PlanCache, PlanCacheStats, PreparedQuery, Session, SparqlCompiler, Strategy,
    DEFAULT_PLAN_CACHE_CAPACITY,
};
pub use sparql::PreparedSparql;
pub use system::{RdfPeerSystem, RpsBuilder, SystemValidationError};
