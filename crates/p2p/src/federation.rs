//! Federated evaluation of (rewritten) queries over the peers.
//!
//! Implements the Section 5 prototype sketch: after query rewriting,
//! sub-queries are posed to the relevant RDF sources and sub-query
//! results are joined at the originator. Evaluation is pattern-level:
//! each triple pattern of a branch is routed to the peers whose schema
//! can match it, the per-peer binding sets are unioned, and the
//! originator joins the pattern binding sets.
//!
//! Pattern matching distributes over the union of the peer databases, so
//! federated evaluation returns exactly the centralised answers — a
//! property the tests assert.
//!
//! **Id-level prepared execution.** The engine maintains an *answer
//! dictionary* at the originator (the union of the peer dictionaries,
//! built once with [`rps_rdf::TermDict::absorb`] — or, canonical, the
//! rewriter's canonical graph's, which holds every peer term already)
//! plus a per-peer translation table from peer-local term ids to originator ids.
//! [`FederatedEngine::prepare_branches`] compiles a UCQ once — routing
//! each pattern, resolving its constants against every routed peer's
//! dictionary, and interning head-template constants — into a
//! [`PreparedFederation`] that [`FederatedEngine::execute`] can run any
//! number of times. The hot loop is then pure id arithmetic: peer-side
//! range scans (served by each peer graph's permutation indexes —
//! sorted-run storage by default, see `rps_rdf::store`), array-lookup
//! id translation, and hash joins on dense `u32` tuples at the
//! originator. No term is parsed, cloned, re-interned
//! or compared per peer per round — the failure mode of the previous
//! term-level path, which is retained as
//! [`FederatedEngine::evaluate_union_term_level`] for the benchmark
//! baseline and agreement tests.

use crate::network::{NodeId, SimNetwork};
use crate::routing::SchemaIndex;
use crate::transport::{SimTransport, Transport};
use crate::wire::{self, WireMessage, WireRequest, WireSlot};
use rps_core::{
    FailureCause, FailurePolicy, PeerId, RdfPeerSystem, RetryPolicy, RpsError, RpsRewriter,
};
use rps_query::{
    evaluate_pattern, join, GraphPattern, GraphPatternQuery, Mapping, Semantics, TermOrVar,
    UnionQuery, Variable,
};
use rps_rdf::{Graph, Term, TermDict, TermId};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Statistics of one federated query execution.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FederationStats {
    /// Sub-queries dispatched (pattern × peer).
    pub subqueries: usize,
    /// The widest fan-out of one triple pattern (peers it was routed to);
    /// the distinct count is [`FederationReport::peers_contacted`].
    pub peers_contacted: usize,
    /// Messages exchanged (requests + responses).
    pub messages: usize,
    /// Total bytes moved.
    pub bytes: usize,
    /// Binding tuples received from peers.
    pub tuples_received: usize,
}

/// One peer exchange the execution finally gave up on (after the retry
/// policy was exhausted).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PeerFailure {
    /// The peer that stayed unreachable.
    pub peer: usize,
    /// Attempts actually made before giving up (0 when the per-peer
    /// deadline was already exhausted by earlier exchanges).
    pub attempts: u32,
    /// Why the final attempt failed.
    pub cause: FailureCause,
    /// Human-readable detail from the transport or the peer.
    pub detail: String,
}

/// The fault-tolerance outcome of one federated execution — which peers
/// were skipped, why, and how much retrying it took. Returned alongside
/// the answers by [`FederatedEngine::execute_with`]; under
/// [`FailurePolicy::BestEffort`]/[`FailurePolicy::Quorum`] this is the
/// *only* record of degradation, so answers are never silently
/// incomplete.
#[derive(Clone, Debug, PartialEq)]
pub struct FederationReport {
    /// The transport's label ("sim", "faulty", "tcp").
    pub transport: &'static str,
    /// The failure policy the execution ran under.
    pub policy: FailurePolicy,
    /// Every exchange given up on (empty ⇔ the execution was not
    /// degraded). Under [`FailurePolicy::Strict`] the execution errors
    /// at the first entry instead.
    pub skipped: Vec<PeerFailure>,
    /// Retry attempts (beyond each exchange's first) per prepared
    /// branch, aligned with the plan's branch order.
    pub retries_by_branch: Vec<u32>,
    /// Distinct peers contacted across the whole execution.
    pub peers_contacted: usize,
    /// Distinct contacted peers that responded to *every* exchange
    /// addressed to them (the quorum count).
    pub peers_responded: usize,
}

impl FederationReport {
    /// Total retry attempts across every branch.
    pub fn retries(&self) -> u32 {
        self.retries_by_branch.iter().sum()
    }

    /// `true` iff at least one exchange was skipped (the answers may be
    /// a strict subset of the fault-free answers).
    pub fn degraded(&self) -> bool {
        !self.skipped.is_empty()
    }

    /// The distinct peers that failed at least one exchange.
    pub fn failed_peers(&self) -> BTreeSet<usize> {
        self.skipped.iter().map(|f| f.peer).collect()
    }
}

/// Mutable report bookkeeping threaded through an execution.
struct ReportState {
    skipped: Vec<PeerFailure>,
    retries_by_branch: Vec<u32>,
    contacted: BTreeSet<usize>,
    failed: BTreeSet<usize>,
}

impl ReportState {
    fn new(branches: usize) -> Self {
        ReportState {
            skipped: Vec::new(),
            retries_by_branch: vec![0; branches],
            contacted: BTreeSet::new(),
            failed: BTreeSet::new(),
        }
    }

    /// Merges a parallel worker's bookkeeping (branch slots are
    /// disjoint across workers).
    fn merge(&mut self, other: ReportState) {
        self.skipped.extend(other.skipped);
        for (slot, v) in self
            .retries_by_branch
            .iter_mut()
            .zip(&other.retries_by_branch)
        {
            *slot += v;
        }
        self.contacted.extend(other.contacted);
        self.failed.extend(other.failed);
    }

    /// Seals the report, enforcing the quorum policy: with peers
    /// contacted and fewer than `k` fully responsive, the execution
    /// fails with [`RpsError::QuorumNotMet`].
    fn finish(
        self,
        transport: &'static str,
        policy: FailurePolicy,
    ) -> Result<FederationReport, RpsError> {
        let responded = self.contacted.difference(&self.failed).count();
        if let FailurePolicy::Quorum(k) = policy {
            if !self.contacted.is_empty() && responded < k {
                return Err(RpsError::QuorumNotMet {
                    responded,
                    required: k,
                });
            }
        }
        Ok(FederationReport {
            transport,
            policy,
            skipped: self.skipped,
            retries_by_branch: self.retries_by_branch,
            peers_contacted: self.contacted.len(),
            peers_responded: responded,
        })
    }
}

/// A head-template position of a prepared branch.
enum TemplateSlot {
    /// Branch-local variable index.
    Var(usize),
    /// A constant, interned in the originator's answer dictionary.
    Const(TermId),
}

/// One triple pattern of a branch, compiled for repeated federated
/// execution: routing decided, constants resolved per routed peer, and
/// the wire request built — all once, at prepare time.
struct PatternPlan {
    /// The pattern's distinct branch-local variable indexes, in first
    /// occurrence order; binding rows are aligned with this.
    pvars: Vec<usize>,
    /// Routed peers, each with its ready-to-encode wire request:
    /// constants resolved to the peer's dictionary
    /// ([`WireSlot::Unresolved`] when unknown there — the sub-query is
    /// still sent, but matches nothing).
    probes: Vec<(PeerId, WireRequest)>,
}

/// One conjunctive branch of a prepared UCQ.
struct BranchPlan {
    patterns: Vec<PatternPlan>,
    /// Head template; `None` marks a dead branch (a head variable that
    /// never occurs in the body can never bind).
    template: Option<Vec<TemplateSlot>>,
}

/// A UCQ compiled against a [`FederatedEngine`] for repeated execution.
pub struct PreparedFederation {
    branches: Vec<BranchPlan>,
    /// Head-template constants absent from the engine's answer
    /// dictionary, carried by the plan itself: they get synthetic ids
    /// one past the dictionary (`dict.len() + k`), so preparation never
    /// mutates the shared engine — the seam that lets `prepare` take
    /// `&self` and run concurrently on a frozen session. Decode answer
    /// ids through [`FederatedEngine::decode_prepared`].
    extra: Vec<Term>,
}

impl PreparedFederation {
    /// Number of branches (including pruned dead ones).
    pub fn branch_count(&self) -> usize {
        self.branches.len()
    }

    #[cfg(test)]
    pub(crate) fn overlay(&self) -> &[Term] {
        &self.extra
    }
}

/// The federated query processor.
pub struct FederatedEngine {
    /// Peer-local stores (blank nodes scoped exactly as in the
    /// centralised stored database), shared with transports.
    locals: Arc<Vec<Graph>>,
    index: SchemaIndex,
    /// The originator's node id (one past the last peer).
    originator: NodeId,
    /// The originator's answer dictionary: it holds every peer term, so
    /// any peer's binding decodes without re-interning.
    dict: TermDict,
    /// Per peer: local term id → answer-dictionary id (dense table).
    to_global: Vec<Vec<TermId>>,
}

impl FederatedEngine {
    /// Seals the peer stores and absorbs their dictionaries into `dict`.
    fn build(mut locals: Vec<Graph>, index: SchemaIndex, mut dict: TermDict) -> Self {
        // Peer stores never change after engine construction: seal them
        // so concurrent range scans merge immutable runs only.
        for g in &mut locals {
            g.seal();
        }
        let to_global: Vec<Vec<TermId>> = locals.iter().map(|g| dict.absorb(g.dict())).collect();
        FederatedEngine {
            originator: locals.len(),
            locals: Arc::new(locals),
            index,
            dict,
            to_global,
        }
    }

    /// Builds the engine from a system.
    pub fn new(system: &RdfPeerSystem) -> Self {
        let locals: Vec<Graph> = (0..system.peers().len())
            .map(|i| system.scoped_database(PeerId(i)))
            .collect();
        let index = SchemaIndex::build(system);
        Self::build(locals, index, TermDict::new())
    }

    /// Builds the engine with each peer's store canonicalised onto
    /// `rewriter`'s class representatives, for the combined
    /// rewrite-then-federate pipeline. The answer dictionary is a clone
    /// of the rewriter's canonical graph's (an `Arc` bump): one loader
    /// built that graph from these very stores, so absorbing them interns
    /// nothing and answer ids are that graph's, which
    /// [`RpsRewriter::federated_stream`] expands over the classes.
    pub fn new_canonical(system: &RdfPeerSystem, rewriter: &RpsRewriter) -> Self {
        let locals: Vec<Graph> = (0..system.peers().len())
            .map(|i| system.canonical_scoped_database(PeerId(i), rewriter.index()))
            .collect();
        // The schema index must reflect canonical IRIs too: read each
        // peer's off its canonical store, as `Peer::from_database` does.
        let index = SchemaIndex::from_schemas(locals.iter().map(Graph::iris_used));
        Self::build(locals, index, rewriter.canon_graph().dict().clone())
    }

    /// Number of peers.
    pub fn peer_count(&self) -> usize {
        self.locals.len()
    }

    /// The sealed peer graphs, shared for constructing transports
    /// ([`SimTransport::new`], [`crate::TcpTransport::serve`]) that
    /// serve the same stores this engine plans against.
    pub fn peer_graphs(&self) -> Arc<Vec<Graph>> {
        Arc::clone(&self.locals)
    }

    /// The originator's answer dictionary (decode id-level answers
    /// against this); [`FederatedEngine::new_canonical`]'s is shared.
    pub fn dict(&self) -> &TermDict {
        &self.dict
    }

    #[cfg(test)]
    pub(crate) fn translation(&self, peer: usize) -> &[TermId] {
        &self.to_global[peer]
    }

    /// Decodes id-level answer tuples to owned terms. Only valid for
    /// tuples whose every id lives in the answer dictionary; answers of
    /// a [`PreparedFederation`] may carry plan-local overlay ids, so
    /// decode those with [`FederatedEngine::decode_prepared`].
    pub fn decode(&self, tuples: &BTreeSet<Vec<TermId>>) -> BTreeSet<Vec<Term>> {
        tuples
            .iter()
            .map(|row| row.iter().map(|&id| self.dict.term(id).clone()).collect())
            .collect()
    }

    /// Decodes the id-level answers of one prepared federation,
    /// resolving plan-local overlay ids (head-template constants
    /// unknown to the answer dictionary) against the plan.
    pub fn decode_prepared(
        &self,
        prepared: &PreparedFederation,
        tuples: &BTreeSet<Vec<TermId>>,
    ) -> BTreeSet<Vec<Term>> {
        tuples
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&id| self.term_of(&prepared.extra, id).clone())
                    .collect()
            })
            .collect()
    }

    /// Resolves an answer id against the dictionary or a plan's overlay.
    fn term_of<'a>(&'a self, extra: &'a [Term], id: TermId) -> &'a Term {
        let i = id.index();
        if i < self.dict.len() {
            self.dict.term(id)
        } else {
            &extra[i - self.dict.len()]
        }
    }

    /// Certain-answer eligibility of an answer id (names are IRIs and
    /// literals; blank nodes are not certain).
    fn id_is_name(&self, extra: &[Term], id: TermId) -> bool {
        let i = id.index();
        if i < self.dict.len() {
            self.dict.is_name(id)
        } else {
            !extra[i - self.dict.len()].is_blank()
        }
    }

    // ------------------------------------------------------------------
    // Prepared, id-level path
    // ------------------------------------------------------------------

    /// Compiles a UCQ — given as `(body pattern, head template)` branches,
    /// the shape [`rps_core::RpsRewriting::branches`] produces — for
    /// repeated federated execution. Routing, per-peer constant
    /// resolution and template constant resolution happen here, once.
    /// Takes `&self`: template constants missing from the answer
    /// dictionary ride along in the plan as overlay terms (decoded via
    /// [`FederatedEngine::decode_prepared`]) instead of being interned,
    /// so any number of preparations can run against a shared engine.
    pub fn prepare_branches(
        &self,
        branches: &[(GraphPattern, Vec<TermOrVar>)],
    ) -> PreparedFederation {
        let mut extra: Vec<Term> = Vec::new();
        let mut plans = Vec::with_capacity(branches.len());
        for (gp, template) in branches {
            let mut var_ix: HashMap<Variable, usize> = HashMap::new();
            let mut patterns = Vec::with_capacity(gp.len());
            for tp in gp.patterns() {
                let mut pvars: Vec<usize> = Vec::new();
                // Each position once: a variable becomes its row slot,
                // a constant stays a term until a peer resolves it.
                let positions = [&tp.s, &tp.p, &tp.o].map(|tv| match tv {
                    TermOrVar::Var(v) => {
                        let next = var_ix.len();
                        let vix = *var_ix.entry(v.clone()).or_insert(next);
                        let slot = pvars.iter().position(|&x| x == vix).unwrap_or_else(|| {
                            pvars.push(vix);
                            pvars.len() - 1
                        });
                        Ok(slot as u8)
                    }
                    TermOrVar::Term(t) => Err(t),
                });
                let probes = self
                    .index
                    .route(tp)
                    .into_iter()
                    .map(|peer| {
                        let g = &self.locals[peer.0];
                        let slots = positions.map(|pos| match pos {
                            Ok(slot) => WireSlot::Var(slot),
                            Err(t) => match g.term_id(t) {
                                Some(id) => WireSlot::Const(id),
                                // Unknown at this peer: the request is
                                // still sent (mirroring the wire
                                // protocol) but matches nothing.
                                None => WireSlot::Unresolved,
                            },
                        });
                        (peer, WireRequest { attempt: 1, slots })
                    })
                    .collect();
                patterns.push(PatternPlan { pvars, probes });
            }
            let template = template
                .iter()
                .map(|entry| match entry {
                    TermOrVar::Var(v) => var_ix.get(v).copied().map(TemplateSlot::Var),
                    TermOrVar::Term(t) => Some(TemplateSlot::Const(match self.dict.id(t) {
                        Some(id) => id,
                        None => {
                            // Unknown constant: a plan-local overlay id
                            // one past the (immutable) dictionary, one
                            // per distinct term so equal tuples from
                            // different branches share one id.
                            let slot = extra.iter().position(|e| e == t).unwrap_or_else(|| {
                                extra.push(t.clone());
                                extra.len() - 1
                            });
                            TermId((self.dict.len() + slot) as u32)
                        }
                    })),
                })
                .collect::<Option<Vec<TemplateSlot>>>();
            plans.push(BranchPlan { patterns, template });
        }
        PreparedFederation {
            branches: plans,
            extra,
        }
    }

    /// Compiles a single graph pattern query (head = its free variables).
    pub fn prepare_query(&self, query: &GraphPatternQuery) -> PreparedFederation {
        let template: Vec<TermOrVar> = query
            .free_vars()
            .iter()
            .map(|v| TermOrVar::Var(v.clone()))
            .collect();
        self.prepare_branches(&[(query.pattern().clone(), template)])
    }

    /// Compiles a UCQ whose every branch projects the union's free
    /// variables.
    pub fn prepare_union(&self, union: &UnionQuery) -> PreparedFederation {
        let template: Vec<TermOrVar> = union
            .free_vars()
            .iter()
            .map(|v| TermOrVar::Var(v.clone()))
            .collect();
        let branches: Vec<(GraphPattern, Vec<TermOrVar>)> = union
            .branches()
            .iter()
            .map(|b| (b.clone(), template.clone()))
            .collect();
        self.prepare_branches(&branches)
    }

    /// Executes a prepared federation over the perfect in-process
    /// [`SimTransport`], recording traffic into `net` and returning
    /// answer tuples over the originator's answer dictionary.
    ///
    /// Per branch: every pattern's sub-queries fan out to its routed
    /// peers as encoded wire frames (peer-side index range scans, ids
    /// translated to the answer dictionary by table lookup), the
    /// per-pattern binding sets are hash-joined smallest-first at the
    /// originator, and the head template projects the result. Under
    /// [`Semantics::Certain`], tuples containing blank nodes are
    /// dropped. The fault-tolerant generalisation over pluggable
    /// transports is [`FederatedEngine::execute_with`].
    pub fn execute(
        &self,
        prepared: &PreparedFederation,
        semantics: Semantics,
        net: &mut SimNetwork,
    ) -> (BTreeSet<Vec<TermId>>, FederationStats) {
        let transport = SimTransport::new(Arc::clone(&self.locals));
        let (out, stats, _report) = self
            .execute_with(
                prepared,
                semantics,
                net,
                &transport,
                &RetryPolicy::none(),
                FailurePolicy::Strict,
            )
            .expect("the perfect in-process transport cannot fail");
        (out, stats)
    }

    /// Executes a prepared federation over an explicit [`Transport`]
    /// under a [`RetryPolicy`] and a [`FailurePolicy`] — the
    /// fault-tolerant core every other execute entry point wraps.
    ///
    /// Each pattern×peer exchange encodes the prepared wire request
    /// (the attempt number stamped into the frame), records the exact
    /// frame bytes in `net`, and retries per the policy: exponential
    /// backoff with deterministic jitter, all charged — together with
    /// the transport-reported latency — against a per-branch, per-peer
    /// virtual deadline budget. Exchanges that stay failed after the
    /// retries are resolved by the failure policy:
    ///
    /// * [`FailurePolicy::Strict`] — the execution stops with
    ///   [`RpsError::PeerUnreachable`];
    /// * [`FailurePolicy::BestEffort`] — the peer contributes nothing,
    ///   and the give-up is itemised in the returned
    ///   [`FederationReport`];
    /// * [`FailurePolicy::Quorum`]`(k)` — best-effort, then
    ///   [`RpsError::QuorumNotMet`] unless at least `k` contacted peers
    ///   responded to every exchange.
    ///
    /// With a fault-free transport this is byte-identical (answers,
    /// statistics, traffic trace) to [`FederatedEngine::execute`] for
    /// every policy combination; under a seeded
    /// [`crate::FaultyTransport`] every outcome is deterministic.
    pub fn execute_with(
        &self,
        prepared: &PreparedFederation,
        semantics: Semantics,
        net: &mut SimNetwork,
        transport: &dyn Transport,
        retry: &RetryPolicy,
        policy: FailurePolicy,
    ) -> Result<(BTreeSet<Vec<TermId>>, FederationStats, FederationReport), RpsError> {
        let mut stats = FederationStats::default();
        let mut out = BTreeSet::new();
        let mut report = ReportState::new(prepared.branches.len());
        for (bi, branch) in prepared.branches.iter().enumerate() {
            let Some(template) = &branch.template else {
                continue; // dead branch: its head can never bind
            };
            self.execute_branch_with(
                bi,
                branch,
                template,
                &prepared.extra,
                semantics,
                net,
                transport,
                retry,
                policy,
                &mut stats,
                &mut out,
                &mut report,
            )?;
        }
        stats.messages = net.message_count();
        stats.bytes = net.total_bytes();
        let report = report.finish(transport.name(), policy)?;
        Ok((out, stats, report))
    }

    /// [`FederatedEngine::execute_with`], fanning the prepared branches
    /// out across OS threads (`std::thread::scope`; at most
    /// `max_threads` of them, clamped to the live branch count and to
    /// at least 1). Each worker owns a private network, statistics,
    /// answer set and report over a contiguous chunk of branches;
    /// deadline budgets are branch-local, so nothing depends on the
    /// interleaving, and merging happens in branch order — the returned
    /// answers, statistics, report and traffic trace are byte-identical
    /// to the sequential walk (property the agreement tests pin). Under
    /// [`FailurePolicy::Strict`] the error of the lowest-indexed failing
    /// branch wins, exactly as the sequential walk would surface it.
    #[allow(clippy::too_many_arguments)]
    pub fn execute_parallel_with(
        &self,
        prepared: &PreparedFederation,
        semantics: Semantics,
        net: &mut SimNetwork,
        transport: &dyn Transport,
        retry: &RetryPolicy,
        policy: FailurePolicy,
        max_threads: usize,
    ) -> Result<(BTreeSet<Vec<TermId>>, FederationStats, FederationReport), RpsError> {
        let live: Vec<(usize, &BranchPlan, &Vec<TemplateSlot>)> = prepared
            .branches
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.template.as_ref().map(|t| (i, b, t)))
            .collect();
        let threads = max_threads.max(1).min(live.len().max(1));
        if threads <= 1 {
            return self.execute_with(prepared, semantics, net, transport, retry, policy);
        }
        let chunk = live.len().div_ceil(threads);
        type WorkerOut = (
            SimNetwork,
            FederationStats,
            BTreeSet<Vec<TermId>>,
            ReportState,
            Option<RpsError>,
        );
        let results: Vec<WorkerOut> = std::thread::scope(|scope| {
            let handles: Vec<_> = live
                .chunks(chunk)
                .map(|branches| {
                    scope.spawn(move || {
                        let mut wnet = SimNetwork::new();
                        let mut stats = FederationStats::default();
                        let mut out = BTreeSet::new();
                        let mut report = ReportState::new(prepared.branches.len());
                        let mut err = None;
                        for (bi, branch, template) in branches {
                            if let Err(e) = self.execute_branch_with(
                                *bi,
                                branch,
                                template,
                                &prepared.extra,
                                semantics,
                                &mut wnet,
                                transport,
                                retry,
                                policy,
                                &mut stats,
                                &mut out,
                                &mut report,
                            ) {
                                err = Some(e);
                                break; // mirror the sequential early stop
                            }
                        }
                        (wnet, stats, out, report, err)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("federated worker panicked"))
                .collect()
        });
        let mut stats = FederationStats::default();
        let mut out = BTreeSet::new();
        let mut report = ReportState::new(prepared.branches.len());
        for (worker_net, worker_stats, worker_out, worker_report, worker_err) in results {
            net.absorb(&worker_net);
            report.merge(worker_report);
            if let Some(e) = worker_err {
                // Lowest-branch error wins; later chunks' traffic is
                // discarded, deterministically.
                return Err(e);
            }
            stats.subqueries += worker_stats.subqueries;
            stats.tuples_received += worker_stats.tuples_received;
            stats.peers_contacted = stats.peers_contacted.max(worker_stats.peers_contacted);
            out.extend(worker_out);
        }
        stats.messages = net.message_count();
        stats.bytes = net.total_bytes();
        let report = report.finish(transport.name(), policy)?;
        Ok((out, stats, report))
    }

    /// Translates one peer batch into answer-dictionary rows, verifying
    /// shape and id range (a malformed batch is a protocol failure, not
    /// a panic).
    fn translate(
        &self,
        batch: &wire::WireBatch,
        pat: &PatternPlan,
        peer: usize,
    ) -> Result<Vec<Vec<TermId>>, String> {
        if usize::from(batch.width) != pat.pvars.len() {
            return Err(format!(
                "batch width {} does not match the expected {}",
                batch.width,
                pat.pvars.len()
            ));
        }
        let table = &self.to_global[peer];
        let mut out = Vec::with_capacity(batch.rows.len());
        for row in &batch.rows {
            let mut global = Vec::with_capacity(row.len());
            for id in row {
                match table.get(id.index()) {
                    Some(&gid) => global.push(gid),
                    None => return Err(format!("peer id {} outside its dictionary", id.0)),
                }
            }
            out.push(global);
        }
        Ok(out)
    }

    /// Resolves one failed exchange per the failure policy: Strict
    /// escalates to the typed error, the degrading policies record it.
    fn note_failure(
        report: &mut ReportState,
        policy: FailurePolicy,
        failure: PeerFailure,
    ) -> Result<(), RpsError> {
        report.failed.insert(failure.peer);
        match policy {
            FailurePolicy::Strict => Err(RpsError::PeerUnreachable {
                peer: failure.peer,
                attempts: failure.attempts,
                cause: failure.cause,
            }),
            FailurePolicy::BestEffort | FailurePolicy::Quorum(_) => {
                report.skipped.push(failure);
                Ok(())
            }
        }
    }

    /// One retried exchange with `peer`: encodes the request with the
    /// attempt number stamped in, records exact frame bytes in `net`,
    /// and charges backoff plus transport-reported latency against the
    /// branch's per-peer budget (`spent`). Returns the decoded batch or
    /// the final failure, plus the retries used (attempts beyond the
    /// first).
    fn exchange(
        &self,
        transport: &dyn Transport,
        retry: &RetryPolicy,
        req: &WireRequest,
        peer: usize,
        net: &mut SimNetwork,
        spent: &mut f64,
    ) -> (Result<wire::WireBatch, PeerFailure>, u32) {
        let fingerprint = req.fingerprint();
        let max_attempts = retry.max_attempts.max(1);
        let mut last: Option<(FailureCause, String)> = None;
        let mut attempts = 0u32;
        for attempt in 1..=max_attempts {
            *spent += retry.backoff_ms(peer, attempt, fingerprint);
            if *spent >= retry.peer_deadline_ms {
                let failure = PeerFailure {
                    peer,
                    attempts,
                    cause: FailureCause::DeadlineExhausted,
                    detail: format!(
                        "per-peer deadline of {:.1}ms exhausted before attempt {attempt}",
                        retry.peer_deadline_ms
                    ),
                };
                return (Err(failure), attempts.saturating_sub(1));
            }
            attempts = attempt;
            let frame = wire::encode_request(&WireRequest { attempt, ..*req });
            net.send_attempt(self.originator, peer, frame.len(), "subquery", attempt);
            let budget = retry.peer_deadline_ms - *spent;
            match transport.request(peer, &frame, budget) {
                Ok(reply) => {
                    *spent += reply.elapsed_ms;
                    match wire::decode(&reply.frame) {
                        Ok(WireMessage::Batch(batch)) => {
                            net.send_attempt(
                                peer,
                                self.originator,
                                reply.frame.len(),
                                "answers",
                                attempt,
                            );
                            return (Ok(batch), attempt - 1);
                        }
                        Ok(WireMessage::Fault(fault)) => {
                            net.send_attempt(
                                peer,
                                self.originator,
                                reply.frame.len(),
                                "error",
                                attempt,
                            );
                            let transient = fault.transient;
                            let cause = if transient {
                                FailureCause::Transient
                            } else {
                                FailureCause::Protocol
                            };
                            last = Some((cause, fault.message));
                            if !transient {
                                break; // permanent: retrying cannot help
                            }
                        }
                        Ok(WireMessage::Request(_)) => {
                            net.send_attempt(
                                peer,
                                self.originator,
                                reply.frame.len(),
                                "error",
                                attempt,
                            );
                            last = Some((
                                FailureCause::Protocol,
                                "peer replied with a request frame".to_string(),
                            ));
                            break;
                        }
                        Err(e) => {
                            // Corruption may be transient: retry.
                            net.send_attempt(
                                peer,
                                self.originator,
                                reply.frame.len(),
                                "error",
                                attempt,
                            );
                            last = Some((
                                FailureCause::Protocol,
                                format!("undecodable response: {e}"),
                            ));
                        }
                    }
                }
                Err(e) => {
                    *spent += e.elapsed_ms;
                    last = Some((e.cause, e.detail));
                }
            }
        }
        let (cause, detail) =
            last.unwrap_or((FailureCause::Timeout, "no attempt was possible".to_string()));
        (
            Err(PeerFailure {
                peer,
                attempts,
                cause,
                detail,
            }),
            attempts.saturating_sub(1),
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn execute_branch_with(
        &self,
        branch_ix: usize,
        branch: &BranchPlan,
        template: &[TemplateSlot],
        extra: &[Term],
        semantics: Semantics,
        net: &mut SimNetwork,
        transport: &dyn Transport,
        retry: &RetryPolicy,
        policy: FailurePolicy,
        stats: &mut FederationStats,
        out: &mut BTreeSet<Vec<TermId>>,
        report: &mut ReportState,
    ) -> Result<(), RpsError> {
        // Per-peer virtual deadline budgets, branch-local so the
        // parallel fan-out stays deterministic.
        let mut spent: BTreeMap<usize, f64> = BTreeMap::new();
        // Fetch every pattern's binding set from its routed peers.
        let mut fetched: Vec<(usize, Vec<Vec<TermId>>)> = Vec::with_capacity(branch.patterns.len());
        for (pi, pat) in branch.patterns.iter().enumerate() {
            let mut rows: Vec<Vec<TermId>> = Vec::new();
            for (peer, req) in &pat.probes {
                report.contacted.insert(peer.0);
                stats.subqueries += 1;
                let budget = spent.entry(peer.0).or_insert(0.0);
                let (outcome, retries) = self.exchange(transport, retry, req, peer.0, net, budget);
                report.retries_by_branch[branch_ix] += retries;
                match outcome {
                    Ok(batch) => match self.translate(&batch, pat, peer.0) {
                        Ok(translated) => {
                            stats.tuples_received += translated.len();
                            rows.extend(translated);
                        }
                        Err(detail) => Self::note_failure(
                            report,
                            policy,
                            PeerFailure {
                                peer: peer.0,
                                attempts: retries + 1,
                                cause: FailureCause::Protocol,
                                detail,
                            },
                        )?,
                    },
                    Err(failure) => Self::note_failure(report, policy, failure)?,
                }
            }
            stats.peers_contacted = stats.peers_contacted.max(pat.probes.len());
            // Union of per-peer bindings may contain duplicates.
            rows.sort_unstable();
            rows.dedup();
            fetched.push((pi, rows));
        }

        // Join at the originator, smallest binding set first. A join row
        // has a cell per branch variable; `bound` marks the filled ones.
        fetched.sort_by_key(|(_, rows)| rows.len());
        let nvars = branch
            .patterns
            .iter()
            .flat_map(|p| &p.pvars)
            .max()
            .map_or(0, |v| v + 1);
        let mut bound = vec![false; nvars];
        let mut acc: Vec<Vec<TermId>> = vec![vec![TermId(0); nvars]];
        for (pi, rows) in &fetched {
            let pat = &branch.patterns[*pi];
            // (var, row position) of the shared and of the new variables.
            let mut shared: Vec<(usize, usize)> = Vec::new();
            let mut fresh: Vec<(usize, usize)> = Vec::new();
            for (rp, &v) in pat.pvars.iter().enumerate() {
                if bound[v] { &mut shared } else { &mut fresh }.push((v, rp));
                bound[v] = true;
            }
            let mut table: HashMap<Vec<TermId>, Vec<u32>> = HashMap::new();
            for (ri, row) in rows.iter().enumerate() {
                let key: Vec<TermId> = shared.iter().map(|&(_, rp)| row[rp]).collect();
                table.entry(key).or_default().push(ri as u32);
            }
            let mut next: Vec<Vec<TermId>> = Vec::new();
            let mut key = Vec::with_capacity(shared.len());
            for arow in &acc {
                key.clear();
                key.extend(shared.iter().map(|&(v, _)| arow[v]));
                if let Some(matches) = table.get(&key) {
                    for &ri in matches {
                        let row = &rows[ri as usize];
                        let mut merged = arow.clone();
                        for &(v, rp) in &fresh {
                            merged[v] = row[rp];
                        }
                        next.push(merged);
                    }
                }
            }
            acc = next;
            if acc.is_empty() {
                return Ok(());
            }
        }

        // Project through the head template: a live branch's head
        // variables occur in its body, so their cells are filled.
        'rows: for arow in &acc {
            let mut tuple = Vec::with_capacity(template.len());
            for slot in template {
                let id = match *slot {
                    TemplateSlot::Var(v) => arow[v],
                    TemplateSlot::Const(id) => id,
                };
                if semantics == Semantics::Certain && !self.id_is_name(extra, id) {
                    continue 'rows;
                }
                tuple.push(id);
            }
            out.insert(tuple);
        }
        Ok(())
    }

    /// Prepares and executes a single graph pattern query, decoding the
    /// answers. Prefer [`FederatedEngine::prepare_query`] +
    /// [`FederatedEngine::execute`] when the query runs repeatedly.
    pub fn evaluate_query(
        &self,
        query: &GraphPatternQuery,
        semantics: Semantics,
        net: &mut SimNetwork,
    ) -> (BTreeSet<Vec<Term>>, FederationStats) {
        let prepared = self.prepare_query(query);
        let (ids, stats) = self.execute(&prepared, semantics, net);
        (self.decode_prepared(&prepared, &ids), stats)
    }

    /// Prepares and executes a UCQ, decoding the answers.
    pub fn evaluate_union(
        &self,
        query: &UnionQuery,
        semantics: Semantics,
        net: &mut SimNetwork,
    ) -> (BTreeSet<Vec<Term>>, FederationStats) {
        let prepared = self.prepare_union(query);
        let (ids, stats) = self.execute(&prepared, semantics, net);
        (self.decode_prepared(&prepared, &ids), stats)
    }

    // ------------------------------------------------------------------
    // Term-level baseline (the pre-redesign path), kept as the
    // reference of the agreement tests (tests/federation_prepared.rs).
    // ------------------------------------------------------------------

    /// Evaluates a single conjunctive branch federatedly at the term
    /// level, returning the solution mappings. Every pattern is
    /// re-compiled at every peer and every binding materialises owned
    /// terms — this is the baseline the id-level path is measured
    /// against.
    fn evaluate_branch_term_level(
        &self,
        branch: &GraphPattern,
        net: &mut SimNetwork,
        stats: &mut FederationStats,
    ) -> Vec<Mapping> {
        let mut acc: Option<Vec<Mapping>> = None;
        for pattern in branch.patterns() {
            let peers = self.index.route(pattern);
            let mut pattern_bindings: Vec<Mapping> = Vec::new();
            let request_bytes = pattern.to_string().len();
            let mut contacted = BTreeSet::new();
            for peer in peers {
                contacted.insert(peer);
                net.send(self.originator, peer.0, request_bytes, "subquery");
                stats.subqueries += 1;
                let single = GraphPattern::from_patterns(vec![pattern.clone()]);
                let bindings = evaluate_pattern(&self.locals[peer.0], &single);
                let response_bytes: usize = bindings
                    .iter()
                    .map(|m| {
                        m.iter()
                            .map(|(v, t)| v.name().len() + t.to_string().len())
                            .sum::<usize>()
                    })
                    .sum();
                stats.tuples_received += bindings.len();
                net.send(peer.0, self.originator, response_bytes.max(1), "answers");
                pattern_bindings.extend(bindings);
            }
            stats.peers_contacted = stats.peers_contacted.max(contacted.len());
            pattern_bindings.sort();
            pattern_bindings.dedup();
            acc = Some(match acc {
                None => pattern_bindings,
                Some(prev) => join(&prev, &pattern_bindings),
            });
        }
        acc.unwrap_or_else(|| vec![Mapping::new()])
    }

    /// Term-level evaluation of one branch with an explicit head
    /// template, accumulating into `out` and `stats` (baseline
    /// counterpart of the prepared path's templated projection).
    pub fn evaluate_templated_term_level(
        &self,
        branch: &GraphPattern,
        head: &[TermOrVar],
        semantics: Semantics,
        net: &mut SimNetwork,
        stats: &mut FederationStats,
        out: &mut BTreeSet<Vec<Term>>,
    ) {
        let mappings = self.evaluate_branch_term_level(branch, net, stats);
        'mappings: for m in mappings {
            let mut tuple = Vec::with_capacity(head.len());
            for entry in head {
                match entry {
                    TermOrVar::Var(v) => match m.get(v) {
                        Some(t) => tuple.push(t.clone()),
                        None => continue 'mappings,
                    },
                    TermOrVar::Term(t) => tuple.push(t.clone()),
                }
            }
            if semantics == Semantics::Certain && tuple.iter().any(Term::is_blank) {
                continue;
            }
            out.insert(tuple);
        }
    }

    /// Term-level evaluation of a UCQ (the pre-redesign path).
    pub fn evaluate_union_term_level(
        &self,
        query: &UnionQuery,
        semantics: Semantics,
        net: &mut SimNetwork,
    ) -> (BTreeSet<Vec<Term>>, FederationStats) {
        let mut stats = FederationStats::default();
        let mut out = BTreeSet::new();
        for branch in query.branches() {
            let mappings = self.evaluate_branch_term_level(branch, net, &mut stats);
            for m in mappings {
                if let Some(tuple) = m.project(query.free_vars()) {
                    if semantics == Semantics::Certain && tuple.iter().any(Term::is_blank) {
                        continue;
                    }
                    out.insert(tuple);
                }
            }
        }
        stats.messages = net.message_count();
        stats.bytes = net.total_bytes();
        (out, stats)
    }

    /// Term-level evaluation of a single graph pattern query.
    pub fn evaluate_query_term_level(
        &self,
        query: &GraphPatternQuery,
        semantics: Semantics,
        net: &mut SimNetwork,
    ) -> (BTreeSet<Vec<Term>>, FederationStats) {
        let union = UnionQuery::new(query.free_vars().to_vec(), vec![query.pattern().clone()]);
        self.evaluate_union_term_level(&union, semantics, net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rps_core::RpsBuilder;
    use rps_query::{evaluate_query as central_eval, TermOrVar, Variable};

    fn system() -> RdfPeerSystem {
        let mut a = PeerId(0);
        let mut b = PeerId(0);
        let mut c = PeerId(0);
        RpsBuilder::new()
            .peer_turtle(
                "A",
                "<http://e/s1> <http://e/p> <http://e/m1> .\n\
                 <http://e/s2> <http://e/p> <http://e/m2> .",
                &mut a,
            )
            .unwrap()
            .peer_turtle("B", "<http://e/m1> <http://e/q> <http://e/o1> .", &mut b)
            .unwrap()
            .peer_turtle(
                "C",
                "<http://e/m2> <http://e/q> <http://e/o2> .\n\
                 <http://c/only> <http://c/r> <http://c/x> .",
                &mut c,
            )
            .unwrap()
            .build()
    }

    fn path_query() -> GraphPatternQuery {
        GraphPatternQuery::new(
            vec![Variable::new("x"), Variable::new("y")],
            GraphPattern::triple(
                TermOrVar::var("x"),
                TermOrVar::iri("http://e/p"),
                TermOrVar::var("m"),
            )
            .and(GraphPattern::triple(
                TermOrVar::var("m"),
                TermOrVar::iri("http://e/q"),
                TermOrVar::var("y"),
            )),
        )
    }

    #[test]
    fn federated_equals_centralised() {
        let sys = system();
        let engine = FederatedEngine::new(&sys);
        let mut net = SimNetwork::new();
        let (fed, stats) = engine.evaluate_query(&path_query(), Semantics::Certain, &mut net);
        let central = central_eval(&sys.stored_database(), &path_query(), Semantics::Certain);
        assert_eq!(fed, central);
        assert_eq!(fed.len(), 2); // (s1,o1) and (s2,o2) across peers
        assert!(stats.messages > 0);
        assert!(stats.bytes > 0);
    }

    #[test]
    fn id_level_agrees_with_term_level() {
        let sys = system();
        let engine = FederatedEngine::new(&sys);
        for semantics in [Semantics::Certain, Semantics::Star] {
            let mut net = SimNetwork::new();
            let (fed, _) = engine.evaluate_query(&path_query(), semantics, &mut net);
            let mut net2 = SimNetwork::new();
            let (term, _) = engine.evaluate_query_term_level(&path_query(), semantics, &mut net2);
            assert_eq!(fed, term);
        }
    }

    #[test]
    fn prepared_execution_is_repeatable() {
        let sys = system();
        let engine = FederatedEngine::new(&sys);
        let prepared = engine.prepare_query(&path_query());
        assert_eq!(prepared.branch_count(), 1);
        let mut net = SimNetwork::new();
        let (first, s1) = engine.execute(&prepared, Semantics::Certain, &mut net);
        let mut net = SimNetwork::new();
        let (second, s2) = engine.execute(&prepared, Semantics::Certain, &mut net);
        assert_eq!(first, second);
        assert_eq!(s1, s2);
        assert_eq!(engine.decode(&first).len(), 2);
    }

    #[test]
    fn cross_peer_join_works() {
        let sys = system();
        let engine = FederatedEngine::new(&sys);
        let mut net = SimNetwork::new();
        let (fed, _) = engine.evaluate_query(&path_query(), Semantics::Certain, &mut net);
        assert!(fed.contains(&vec![Term::iri("http://e/s1"), Term::iri("http://e/o1")]));
    }

    #[test]
    fn routing_prunes_subqueries() {
        let sys = system();
        let engine = FederatedEngine::new(&sys);
        let mut net = SimNetwork::new();
        // A pattern anchored in C-only vocabulary contacts one peer.
        let q = GraphPatternQuery::new(
            vec![Variable::new("x")],
            GraphPattern::triple(
                TermOrVar::iri("http://c/only"),
                TermOrVar::iri("http://c/r"),
                TermOrVar::var("x"),
            ),
        );
        let (ans, stats) = engine.evaluate_query(&q, Semantics::Certain, &mut net);
        assert_eq!(ans.len(), 1);
        assert_eq!(stats.subqueries, 1);
        assert_eq!(stats.peers_contacted, 1);
    }

    #[test]
    fn union_queries_accumulate() {
        let sys = system();
        let engine = FederatedEngine::new(&sys);
        let mut net = SimNetwork::new();
        let u = UnionQuery::new(
            vec![Variable::new("x")],
            vec![
                GraphPattern::triple(
                    TermOrVar::var("x"),
                    TermOrVar::iri("http://e/p"),
                    TermOrVar::var("y"),
                ),
                GraphPattern::triple(
                    TermOrVar::var("x"),
                    TermOrVar::iri("http://e/q"),
                    TermOrVar::var("y"),
                ),
            ],
        );
        let (ans, _) = engine.evaluate_union(&u, Semantics::Certain, &mut net);
        assert_eq!(ans.len(), 4);
    }

    #[test]
    fn repeated_variable_within_pattern() {
        // (x, p, x) must only match reflexive triples, at the id level.
        let mut p = PeerId(0);
        let sys = RpsBuilder::new()
            .peer_turtle(
                "A",
                "<http://e/a> <http://e/p> <http://e/a> .\n\
                 <http://e/a> <http://e/p> <http://e/b> .",
                &mut p,
            )
            .unwrap()
            .build();
        let engine = FederatedEngine::new(&sys);
        let q = GraphPatternQuery::new(
            vec![Variable::new("x")],
            GraphPattern::triple(
                TermOrVar::var("x"),
                TermOrVar::iri("http://e/p"),
                TermOrVar::var("x"),
            ),
        );
        let mut net = SimNetwork::new();
        let (ans, _) = engine.evaluate_query(&q, Semantics::Certain, &mut net);
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&vec![Term::iri("http://e/a")]));
    }

    #[test]
    fn constant_head_templates_project() {
        // A rewriting may specialise an answer position to a constant.
        let sys = system();
        let engine = FederatedEngine::new(&sys);
        let branch = GraphPattern::triple(
            TermOrVar::var("x"),
            TermOrVar::iri("http://e/p"),
            TermOrVar::var("y"),
        );
        let head = vec![
            TermOrVar::var("x"),
            TermOrVar::Term(Term::iri("http://answer/const")),
        ];
        let prepared = engine.prepare_branches(&[(branch, head)]);
        let mut net = SimNetwork::new();
        let (ids, _) = engine.execute(&prepared, Semantics::Certain, &mut net);
        // The constant is unknown to every peer dictionary, so it rides
        // in the plan's overlay; `decode_prepared` resolves it.
        let ans = engine.decode_prepared(&prepared, &ids);
        assert_eq!(ans.len(), 2);
        for tuple in &ans {
            assert_eq!(tuple[1], Term::iri("http://answer/const"));
        }
    }

    #[test]
    fn repeated_overlay_constants_share_one_id() {
        // Two branches specialising the head to the *same* unknown
        // constant must produce one id per distinct answer tuple —
        // duplicate overlay ids would make the id-level union
        // over-report rows that decode identically.
        let sys = system();
        let engine = FederatedEngine::new(&sys);
        let branch = |pred: &str| {
            GraphPattern::triple(
                TermOrVar::var("x"),
                TermOrVar::iri(pred),
                TermOrVar::var("y"),
            )
        };
        let head = vec![
            TermOrVar::var("x"),
            TermOrVar::Term(Term::iri("http://answer/const")),
        ];
        // Both branches bind x = e/m1 (via p at peer A and q at peer B),
        // so their projected tuples coincide.
        let prepared = engine.prepare_branches(&[
            (
                GraphPattern::triple(
                    TermOrVar::var("x"),
                    TermOrVar::iri("http://e/p"),
                    TermOrVar::var("m"),
                ),
                head.clone(),
            ),
            (branch("http://e/p"), head),
        ]);
        let mut net = SimNetwork::new();
        let (ids, _) = engine.execute(&prepared, Semantics::Certain, &mut net);
        let decoded = engine.decode_prepared(&prepared, &ids);
        assert_eq!(
            ids.len(),
            decoded.len(),
            "id-level and term-level answer counts must agree"
        );
    }

    #[test]
    fn parallel_execution_is_byte_identical_to_sequential() {
        let sys = system();
        let engine = FederatedEngine::new(&sys);
        // A union with several branches so the fan-out has work to
        // split; one branch carries an overlay head constant.
        let mk = |pred: &str| {
            GraphPattern::triple(
                TermOrVar::var("x"),
                TermOrVar::iri(pred),
                TermOrVar::var("y"),
            )
        };
        let head = vec![TermOrVar::var("x"), TermOrVar::var("y")];
        let branches = vec![
            (mk("http://e/p"), head.clone()),
            (mk("http://e/q"), head.clone()),
            (mk("http://c/r"), head.clone()),
            (
                mk("http://e/p"),
                vec![
                    TermOrVar::var("x"),
                    TermOrVar::Term(Term::iri("http://answer/const")),
                ],
            ),
        ];
        let prepared = engine.prepare_branches(&branches);
        for semantics in [Semantics::Certain, Semantics::Star] {
            let mut seq_net = SimNetwork::new();
            let (seq_ids, seq_stats) = engine.execute(&prepared, semantics, &mut seq_net);
            for threads in [1, 2, 4, 8] {
                let mut par_net = SimNetwork::new();
                let (par_ids, par_stats, _) = engine
                    .execute_parallel_with(
                        &prepared,
                        semantics,
                        &mut par_net,
                        &SimTransport::new(Arc::clone(&engine.locals)),
                        &RetryPolicy::none(),
                        FailurePolicy::Strict,
                        threads,
                    )
                    .unwrap();
                assert_eq!(par_ids, seq_ids, "{threads} threads, {semantics:?}");
                assert_eq!(par_stats, seq_stats);
                assert_eq!(par_net.messages(), seq_net.messages(), "traffic trace");
            }
        }
    }

    #[test]
    fn dead_branches_are_pruned() {
        let sys = system();
        let engine = FederatedEngine::new(&sys);
        let branch = GraphPattern::triple(
            TermOrVar::var("x"),
            TermOrVar::iri("http://e/p"),
            TermOrVar::var("y"),
        );
        // Head variable `z` never occurs in the body: no tuple can bind.
        let prepared = engine.prepare_branches(&[(branch, vec![TermOrVar::var("z")])]);
        let mut net = SimNetwork::new();
        let (ids, stats) = engine.execute(&prepared, Semantics::Certain, &mut net);
        assert!(ids.is_empty());
        assert_eq!(stats.subqueries, 0);
    }

    #[test]
    fn blank_joins_match_centralised_scoping() {
        // Peer stores a blank-mediated path entirely locally; federated
        // join on the blank must succeed exactly as centralised.
        let mut a = PeerId(0);
        let sys = RpsBuilder::new()
            .peer_turtle(
                "A",
                "<http://e/f> <http://e/starring> _:c .\n\
                 _:c <http://e/artist> <http://e/p1> .",
                &mut a,
            )
            .unwrap()
            .build();
        let q = GraphPatternQuery::new(
            vec![Variable::new("y")],
            GraphPattern::triple(
                TermOrVar::iri("http://e/f"),
                TermOrVar::iri("http://e/starring"),
                TermOrVar::var("z"),
            )
            .and(GraphPattern::triple(
                TermOrVar::var("z"),
                TermOrVar::iri("http://e/artist"),
                TermOrVar::var("y"),
            )),
        );
        let engine = FederatedEngine::new(&sys);
        let mut net = SimNetwork::new();
        let (fed, _) = engine.evaluate_query(&q, Semantics::Certain, &mut net);
        let central = central_eval(&sys.stored_database(), &q, Semantics::Certain);
        assert_eq!(fed, central);
        assert_eq!(fed.len(), 1);
    }
}
