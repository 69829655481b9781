//! SPARQL text on both answering types, written once: [`FrozenSession`],
//! which a [`crate::LiveReader`] answers through, and `rps-p2p`'s
//! `FrozenFederatedSession`.
//!
//! `rps_query::sparql` lowers a SPARQL SELECT/ASK query to a list of
//! plain conjunctive queries plus an id-level assembly tail. The two
//! functions here are the whole glue around that front-end —
//! `prepare_sparql_with` (parse → lower → prepare each CQ, the plan
//! cache's path for a text of an unseen shape) and
//! [`execute_sparql_with`] (execute each plan → assemble) — taking the
//! façade's own `prepare` / `execute` as closures. Each lowered CQ
//! therefore rides the façade's *ordinary* pipeline — route resolution,
//! plan cache, rewriting, federation, all unchanged — and because the
//! tail is shared and deterministic, the same query text answers
//! byte-identically on every façade and route.
//!
//! **Late materialisation.** On every route (materialised, a live
//! epoch's included, or rewritten; and the federated route, whose
//! answer dictionary is the rewriter's canonical graph's) a lowered CQ
//! answers with undecoded id rows over one sealed graph — equivalence
//! classes already expanded — and when a statement's CQs all index that
//! one graph's dictionary the tail runs on those ids: joins, filters,
//! DISTINCT, ordering and LIMIT all happen before a single
//! [`Term`](rps_rdf::Term) is cloned, and only the rows that leave the
//! engine are decoded. The one statement
//! without a shared dictionary — an `Auto` statement whose CQs fell back
//! to different substrates — is interned into a scratch dictionary by
//! [`LoweredSparql::assemble`] and goes through the *same* tail. There
//! is no second implementation and nothing to configure.
//!
//! Prefixed names resolve against the query's own `PREFIX`/`BASE`
//! prologue, falling back to the common well-known namespaces
//! ([`rps_rdf::PrefixMap::common`]).

use crate::error::RpsError;
use crate::session::frozen::FrozenSession;
use crate::session::{AnswerStream, PreparedQuery};
use rps_query::sparql::LoweredSparql;
use rps_query::{parse_sparql, GraphPatternQuery, Semantics, SparqlResult};
use rps_rdf::PrefixMap;
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

/// A SPARQL query compiled against a façade: the lowered plan recipe
/// plus one of the façade's own prepared plans `P` per lowered CQ.
/// Execute it on the façade that prepared it — the underlying plans
/// are bound to it exactly like a plain [`PreparedQuery`].
///
/// The handle is one `Arc`: cloning is a reference-count bump, which is
/// what lets a frozen façade's plan cache keep whole statements by
/// their text ([`crate::PlanCache::get_or_prepare_sparql`]) and hand
/// the same one to every thread that repeats it.
pub struct PreparedSparql<P = Arc<PreparedQuery>> {
    statement: Arc<Statement<P>>,
}

/// A compiled statement: its lowered query — the one its text lowered
/// to, or its shape template's, shared with every text of the shape
/// whose FILTERs hold no parameter (see
/// [`crate::PlanCache::get_or_prepare_sparql`]) — and a plan per
/// lowered CQ.
struct Statement<P> {
    lowered: Arc<LoweredSparql>,
    plans: Vec<P>,
}

impl<P> Clone for PreparedSparql<P> {
    fn clone(&self) -> Self {
        PreparedSparql {
            statement: self.statement.clone(),
        }
    }
}

impl<P> PreparedSparql<P> {
    /// The statement of `lowered` with a plan per CQ, in
    /// [`LoweredSparql::queries`] order.
    pub(crate) fn new(lowered: Arc<LoweredSparql>, plans: Vec<P>) -> Self {
        debug_assert_eq!(plans.len(), lowered.query_count());
        PreparedSparql {
            statement: Arc::new(Statement { lowered, plans }),
        }
    }

    /// The number of conjunctive plans behind this query (one per
    /// UNION branch plus one per OPTIONAL block per branch).
    pub fn plan_count(&self) -> usize {
        self.statement.plans.len()
    }

    /// `true` for ASK queries.
    pub fn is_ask(&self) -> bool {
        self.statement.lowered.is_ask()
    }

    /// The output column names, in order (empty for ASK).
    pub fn columns(&self) -> Vec<String> {
        self.statement.lowered.columns()
    }
}

/// The well-known namespaces every façade resolves prefixed names
/// against, built once per process ([`parse_sparql`] only borrows it).
pub(crate) fn common_prefixes() -> &'static PrefixMap {
    static COMMON: OnceLock<PrefixMap> = OnceLock::new();
    COMMON.get_or_init(PrefixMap::common)
}

/// Compiles SPARQL text through a façade's own `prepare` (the subset and
/// the error contract of [`FrozenSession::prepare_sparql`]).
pub(crate) fn prepare_sparql_with<P>(
    text: &str,
    mut prepare: impl FnMut(&GraphPatternQuery) -> Result<P, RpsError>,
) -> Result<PreparedSparql<P>, RpsError> {
    let lowered = parse_sparql(text, common_prefixes())?.into_lowered();
    let mut plans = Vec::with_capacity(lowered.query_count());
    for cq in lowered.cqs() {
        plans.push(prepare(cq)?);
    }
    Ok(PreparedSparql::new(Arc::new(lowered), plans))
}

/// Runs every conjunctive plan of `prepared` through a façade's own
/// `execute` and assembles the answers with the shared tail (left
/// joins, filters, ordering): directly on the streams' id rows when
/// they all index one graph's dictionary — every statement of every
/// façade but one — and through the interning adapter for that one, a
/// mixed-substrate `Auto` statement.
pub fn execute_sparql_with<P>(
    prepared: &PreparedSparql<P>,
    execute: impl FnMut(&P) -> Result<AnswerStream, RpsError>,
) -> Result<SparqlResult, RpsError> {
    let Statement { lowered, plans } = &*prepared.statement;
    let streams = plans.iter().map(execute).collect::<Result<Vec<_>, _>>()?;
    Ok(match AnswerStream::into_shared_ids(streams) {
        Ok((graph, rows)) => lowered.assemble_ids(&rows, &graph),
        Err(streams) => {
            let answers: Vec<BTreeSet<_>> = streams.into_iter().map(Iterator::collect).collect();
            lowered.assemble(&answers)
        }
    })
}

impl FrozenSession {
    /// Compiles a SPARQL SELECT/ASK query for repeated execution: the
    /// subset documented in [`rps_query::sparql`] (BGPs, OPTIONAL, UNION,
    /// FILTER, DISTINCT, ORDER BY, LIMIT/OFFSET). Malformed or
    /// out-of-subset text is a typed [`RpsError::Sparql`] with the
    /// offending span — never a panic. A text seen before (byte for
    /// byte) comes back whole from the plan cache's statement front — no
    /// lexing, parsing, lowering or per-CQ lookup. A new text of a seen shape — the same tokens but for its
    /// constants — is lexed and its constants bound into the plans the
    /// shape keeps, with no parsing or lowering; the first text of a
    /// shape takes each lowered CQ through the bounded plan cache, so
    /// hot conjunctive plans are shared across texts and threads
    /// ([`crate::PlanCache::get_or_prepare_sparql`]).
    ///
    /// ```
    /// use rps_core::{EngineConfig, PeerId, RpsBuilder, Session};
    /// use rps_rdf::Term;
    ///
    /// let mut p = PeerId(0);
    /// let system = RpsBuilder::new()
    ///     .peer_turtle(
    ///         "A",
    ///         "<http://a/f1> <http://a/cast> <http://a/p1> .",
    ///         &mut p,
    ///     )
    ///     .unwrap()
    ///     .build();
    /// let frozen = Session::open(system, EngineConfig::default())
    ///     .unwrap()
    ///     .freeze()
    ///     .unwrap();
    ///
    /// let prepared = frozen
    ///     .prepare_sparql("SELECT ?f ?who WHERE { ?f <http://a/cast> ?who }")
    ///     .unwrap();
    /// let result = frozen.execute_sparql(&prepared).unwrap();
    /// let rows = result.rows().unwrap();
    /// assert_eq!(rows.vars, ["f", "who"]);
    /// // One flat table: `len` rows of `width` cells, row `i` a slice.
    /// assert_eq!((rows.rows.len(), rows.rows.width()), (1, 2));
    /// let cast = [Term::iri("http://a/f1"), Term::iri("http://a/p1")].map(Some);
    /// assert_eq!(rows.rows[0], cast);
    ///
    /// let ok = frozen
    ///     .answer_sparql("ASK { ?f <http://a/cast> ?who }")
    ///     .unwrap();
    /// assert_eq!(ok.boolean(), Some(true));
    /// ```
    pub fn prepare_sparql(&self, text: &str) -> Result<PreparedSparql, RpsError> {
        self.prepare_statement(text)
    }

    /// Executes a prepared SPARQL query against this frozen session.
    pub fn execute_sparql(&self, prepared: &PreparedSparql) -> Result<SparqlResult, RpsError> {
        execute_sparql_with(prepared, |plan| self.execute(plan))
    }

    /// [`FrozenSession::execute_sparql`] under `semantics`.
    pub(crate) fn execute_sparql_as(
        &self,
        prepared: &PreparedSparql,
        semantics: Semantics,
    ) -> Result<SparqlResult, RpsError> {
        execute_sparql_with(prepared, |plan| self.execute_as(plan, semantics))
    }

    /// Parses, prepares and executes in one call.
    pub fn answer_sparql(&self, text: &str) -> Result<SparqlResult, RpsError> {
        let prepared = self.prepare_sparql(text)?;
        self.execute_sparql(&prepared)
    }
}
