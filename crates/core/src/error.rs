//! The unified error type of the answering API.
//!
//! Earlier revisions of this crate signalled failure in four different
//! ways: panics (arity mismatches), `Option`s (budget overflows),
//! bespoke error enums per layer (validation, mappings, Datalog
//! compilation) and silent flags (`complete: false` on otherwise normal
//! results). [`RpsError`] is the single surface the answering façades
//! ([`crate::Session`] and the sessions it freezes into, the live and
//! federated sessions) report all of them through.

use crate::fault::FailureCause;
use crate::mapping::MappingError;
use crate::system::SystemValidationError;
use rps_rdf::RdfError;
use std::fmt;

/// Everything that can go wrong while building a [`crate::Session`] or
/// answering a query through the session it freezes into.
#[derive(Debug)]
pub enum RpsError {
    /// The peer system failed validation (storage constraints, mapping
    /// schemas, unknown peers).
    Validation(SystemValidationError),
    /// A mapping assertion was malformed.
    Mapping(MappingError),
    /// An RDF-level failure (Turtle parsing, invalid triple positions).
    Rdf(RdfError),
    /// The chase exhausted its budget before reaching a fixpoint, so no
    /// sound universal solution exists to answer over. Raise the budgets
    /// in [`crate::EngineConfig::chase`].
    ChaseBudget {
        /// Rounds executed before giving up.
        rounds: usize,
        /// Triples materialised before giving up.
        triples: usize,
    },
    /// The UCQ rewriting exhausted its budgets before reaching a
    /// fixpoint, so the union is not a perfect rewriting and answering
    /// over it would silently drop certain answers. Raised when the
    /// strategy *requires* the rewrite route; the `Auto` strategy falls
    /// back to materialisation instead (see
    /// [`crate::PreparedQuery::rewrite_fell_back`]). Raise the budgets
    /// in [`crate::EngineConfig::rewrite`], or pick a strategy with a
    /// complete route (materialise).
    RewriteBudget {
        /// Distinct CQs explored before giving up.
        explored: usize,
        /// The depth budget that bounded the expansion.
        max_depth: usize,
        /// The union-size budget that bounded the expansion.
        max_cqs: usize,
    },
    /// The `Q*` (blank-keeping) semantics is only available through the
    /// materialised route; rewriting computes certain answers.
    StarNeedsMaterialisation,
    /// A prepared query was executed on a session other than the one
    /// that prepared it. Compiled plans reference their session's caches
    /// and dictionaries, so they are not transferable.
    SessionMismatch,
    /// A live plan's epoch has left the retention window: the
    /// [`crate::live::LiveSession`] writer has published more epochs
    /// since the query was prepared than the window keeps executable. A
    /// live plan stays pinned to the epoch it was prepared against until
    /// the writer's retention floor passes it. Re-prepare the query to
    /// pick up the current epoch. (A plain frozen session never raises
    /// this — its substrate never changes.)
    StalePlan {
        /// The epoch the plan was prepared against.
        prepared: u32,
        /// The writer's current epoch.
        current: u32,
    },
    /// Live sessions answer from the incrementally maintained,
    /// materialised universal solution; the rewrite route assumes an
    /// immutable base instance and is not available through
    /// [`crate::live::LiveSession`]. Use `Strategy::Materialise` or
    /// `Strategy::Auto`.
    LiveNeedsMaterialisation,
    /// A federated peer stayed unreachable after the configured retry
    /// policy was exhausted, and the failure policy is
    /// [`crate::FailurePolicy::Strict`] — the query fails rather than
    /// returning silently incomplete answers. Switch to `BestEffort` or
    /// `Quorum` (see [`crate::EngineConfig::failure`]) to degrade
    /// gracefully instead; the skipped peers are then itemised in the
    /// per-query federation report.
    PeerUnreachable {
        /// The unreachable peer's index.
        peer: usize,
        /// Attempts made before giving up.
        attempts: u32,
        /// Why the final attempt failed.
        cause: FailureCause,
    },
    /// A federated execution under [`crate::FailurePolicy::Quorum`]
    /// finished with fewer responsive peers than the quorum requires.
    QuorumNotMet {
        /// Contacted peers that responded to every exchange.
        responded: usize,
        /// The configured quorum.
        required: usize,
    },
    /// A frozen session could not be persisted or reopened: the route
    /// is not persistable (only the materialised route snapshots to
    /// disk — the rewritten route carries live compile state), or
    /// the session file on disk is malformed. Low-level I/O and
    /// durable-state corruption surface as [`RpsError::Rdf`] instead.
    Persist {
        /// What prevented the persist/open.
        detail: String,
    },
    /// A live update batch names a peer index outside the system;
    /// [`crate::live::LiveSession::apply`] refuses it whole, unapplied.
    UnknownPeer {
        /// The peer index the batch named.
        peer: usize,
        /// The number of peers in the system.
        peers: usize,
    },
    /// A candidate tuple's arity does not match the query's.
    Arity {
        /// The query arity.
        expected: usize,
        /// The tuple arity supplied.
        got: usize,
    },
    /// A SPARQL query failed to parse, or fell outside the supported
    /// SELECT/ASK subset. The payload carries the offending byte span
    /// and line/column; the front-end never panics on malformed input.
    Sparql(rps_query::SparqlError),
}

impl fmt::Display for RpsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpsError::Validation(e) => write!(f, "system validation failed: {e}"),
            RpsError::Mapping(e) => write!(f, "malformed mapping: {e}"),
            RpsError::Rdf(e) => write!(f, "RDF error: {e}"),
            RpsError::ChaseBudget { rounds, triples } => write!(
                f,
                "chase budget exhausted after {rounds} rounds / {triples} triples \
                 without reaching a fixpoint"
            ),
            RpsError::RewriteBudget {
                explored,
                max_depth,
                max_cqs,
            } => write!(
                f,
                "rewriting budget exhausted after exploring {explored} CQs \
                 (max_depth {max_depth}, max_cqs {max_cqs}) without reaching a fixpoint"
            ),
            RpsError::StarNeedsMaterialisation => write!(
                f,
                "Q* (blank-keeping) semantics requires the materialised route"
            ),
            RpsError::SessionMismatch => write!(
                f,
                "prepared query was compiled by a different session; re-prepare it here"
            ),
            RpsError::LiveNeedsMaterialisation => write!(
                f,
                "live sessions answer from the incrementally maintained universal \
                 solution; the rewrite route is unavailable — use \
                 Strategy::Materialise or Strategy::Auto"
            ),
            RpsError::StalePlan { prepared, current } => write!(
                f,
                "prepared query is stale: its epoch {prepared} has left the live writer's \
                 retention window (the writer is at epoch {current}); re-prepare it"
            ),
            RpsError::PeerUnreachable {
                peer,
                attempts,
                cause,
            } => write!(
                f,
                "peer {peer} unreachable after {attempts} attempt(s): {cause}"
            ),
            RpsError::QuorumNotMet {
                responded,
                required,
            } => write!(
                f,
                "quorum not met: {responded} peer(s) responded, {required} required"
            ),
            RpsError::Persist { detail } => {
                write!(f, "cannot persist/open frozen session: {detail}")
            }
            RpsError::UnknownPeer { peer, peers } => write!(
                f,
                "update batch names peer {peer}, but the system has {peers} peer(s)"
            ),
            RpsError::Arity { expected, got } => {
                write!(
                    f,
                    "arity mismatch: query has {expected} free variables, tuple has {got}"
                )
            }
            RpsError::Sparql(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RpsError {}

impl From<SystemValidationError> for RpsError {
    fn from(e: SystemValidationError) -> Self {
        RpsError::Validation(e)
    }
}

impl From<MappingError> for RpsError {
    fn from(e: MappingError) -> Self {
        RpsError::Mapping(e)
    }
}

impl From<RdfError> for RpsError {
    fn from(e: RdfError) -> Self {
        RpsError::Rdf(e)
    }
}

impl From<rps_query::SparqlError> for RpsError {
    fn from(e: rps_query::SparqlError) -> Self {
        RpsError::Sparql(e)
    }
}
