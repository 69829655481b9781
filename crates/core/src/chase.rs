//! Algorithm 1: the RPS chase, producing a universal solution.
//!
//! The chase starts from the stored database `D` and repeatedly repairs
//! violated mappings:
//!
//! * a graph mapping assertion `Q ⇝ Q'` is violated when some tuple
//!   `t ∈ Q_J \ Q'_J`; the repair instantiates the conclusion pattern
//!   with `t` on the free variables and *fresh blank nodes* on the
//!   existential variables (the labelled nulls of Section 3);
//! * an equivalence mapping `c ≡ₑ c'` is violated when the
//!   `subjQ*`/`predQ*`/`objQ*` result sets of `c` and `c'` differ; the
//!   repair copies the missing triples in both directions for all three
//!   positions (note the `Q*` semantics: blank nodes participate).
//!
//! Theorem 1's argument — only graph mapping assertions invent blanks and
//! (because `Q_J` drops blank tuples, the `rt` guard of the relational
//! encoding) freshly created blanks never re-trigger them — bounds the
//! chase, giving PTIME data complexity. Budgets are still enforced so
//! that misuse fails loudly.
//!
//! **Delta-driven execution.** The chase is monotone, so the engine is
//! semi-naive throughout:
//!
//! * equivalence repairs drain the graph's insertion log
//!   ([`Graph::log_since`]) — each inserted triple is examined once per
//!   equivalence neighbour of its terms, instead of rescanning every
//!   equivalence constant every round;
//! * each graph mapping assertion evaluates its premise only over the
//!   delta window since its previous evaluation
//!   ([`PreparedQueryIds::evaluate_delta`], on a premise plan compiled
//!   once per engine), and a per-assertion memo
//!   of already-processed premise tuples (fired or found satisfied — both
//!   states are permanent) skips the per-tuple satisfaction subquery for
//!   everything seen before;
//! * all per-round work runs on interned [`TermId`]s; terms are only
//!   materialised when a firing instantiates its conclusion.
//!
//! **Pass-at-a-time writes.** The store takes a batch in one sort
//! ([`Graph::insert_batch`]: first occurrence wins, one log entry per
//! added triple in batch order), so the engine writes a pass at a time
//! wherever nothing inside the pass can tell:
//!
//! * the equivalence drain collects the copies of a whole log window
//!   `[eq_mark, log_len)` — entry by entry, position S/P/O, neighbour by
//!   neighbour, the order a copy-at-a-time drain visits them — and
//!   inserts them as one batch, then takes the window the batch
//!   appended. Copy-at-a-time appends the same copies after the window
//!   in the same order, so the log is the same entry for entry;
//! * an assertion's pass collects the conclusions of its firings and
//!   writes them at the end of the pass when it is a *blind* pass:
//!   provenance off (witness extraction reads the graph between
//!   firings) and either the skolem mode (no satisfaction check) or a
//!   restricted pass over a *firing-independent* conclusion. Any other
//!   pass writes after each firing, before the next check reads the
//!   graph.
//!
//! A conclusion `∃ȳ Q'(x̄)` is firing-independent when it is safe and (i)
//! every atom holds an existential variable, (ii) the atoms are
//! connected through shared existentials, and (iii) any two atoms whose
//! constants do not clash (an atom paired with itself included) have the
//! same shape: at every position the same constant, the same free
//! variable, or an existential in both.
//!
//! *Lemma.* Within one restricted pass of a firing-independent
//! assertion, the check `t′ ∈ Q'_J` decides the same against the graph
//! as it stood before the pass as against the graph after every earlier
//! firing of the pass. *Proof.* Let `h` be a match of the conclusion with
//! `h(x̄) = t′` that maps some atom `A` onto a triple `τ` written by a
//! firing on `t` in this pass, `τ` the instance of atom `B` under `t` and
//! the firing's blanks. Their constants agree wherever both hold one, so
//! by (iii) `A` and `B` have the same shape; by (i) `A` holds an
//! existential `y`, and `B` an existential at the same position, so
//! `h(y)` is one of `t`'s blanks. Those blanks are fresh — no triple
//! from before the pass or from another firing holds them — so every
//! atom sharing `y` with `A` is mapped onto `t`'s triples too, and by
//! (ii) so is every atom. Each free variable of the (safe) conclusion
//! occurs in some atom, at a position that holds the same free variable
//! in its image's atom (iii), so `t′ = h(x̄) = t`. But the pass's tuples
//! are distinct and `processed` already holds `t` when `t′` is checked.
//! So no match uses a triple of this pass. ∎
//!
//! The benchmark's `actor ⇝ starring·artist` and Figure 1's `Q2 ⇝ Q1`
//! are independent; a full conclusion such as transitive closure's
//! `(x, A, y)` is not (clause (i)), nor is `(x, p, z) . (y, p, z)`
//! (clause (iii): the firing on `(a, b)` writes `(a, p, _:z)` and
//! `(b, p, _:z)`, which satisfy the check of `(b, a)`). Either way the
//! written graph, the dictionary, the insertion log and
//! [`RpsChaseStats`] are those of writing each triple as it is derived.
//!
//! **Two firing modes.** [`FiringMode::Restricted`] is the paper's chase:
//! a premise tuple whose conclusion is already satisfied (`t ∈ Q'_J`)
//! does not fire. That chase is *order-dependent* — which firings are
//! skipped depends on what happened to be derived first — so two runs
//! over the same final base data can produce different (homomorphically
//! equivalent, but not identical) universal solutions.
//! [`FiringMode::Skolem`] removes the satisfaction guard and names the
//! invented blanks deterministically from the firing itself (assertion
//! index + premise tuple), making the chase *confluent*: the result is
//! the least fixpoint of the repair rules, independent of execution
//! order. That order-independence is what lets the live-update layer
//! ([`crate::live`]) maintain a solution incrementally and still promise
//! byte-identical triples to a from-scratch re-chase. Termination still
//! holds: premise tuples are blank-free (the `rt` guard), so the skolem
//! chase fires at most once per assertion and base-domain tuple.

use crate::equivalence::{canonicalize_query, ClassTable, EquivalenceIndex};
use crate::mapping::{EquivalenceMapping, GraphMappingAssertion};
use crate::system::RdfPeerSystem;
use rps_query::{evaluate_query, PreparedPattern, PreparedQueryIds, Semantics, Variable};
use rps_rdf::{Graph, IdTriple, Term, TermId, TriplePosition};
use std::collections::{BTreeSet, HashMap, HashSet};

/// How graph mapping assertions fire (see the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FiringMode {
    /// The paper's restricted chase: skip a premise tuple when the
    /// conclusion is already satisfied; invent counter-named blanks.
    #[default]
    Restricted,
    /// The confluent variant: always fire, naming existential blanks
    /// deterministically from (assertion, premise tuple) so the result
    /// is the order-independent least fixpoint. Used by
    /// [`crate::live::LiveSession`] and its differential test oracle.
    Skolem,
}

/// Budgets for an RPS chase run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RpsChaseConfig {
    /// Maximum number of rounds (full passes over all mappings).
    pub max_rounds: usize,
    /// Maximum number of triples in the universal solution.
    pub max_triples: usize,
    /// The firing mode (restricted by default).
    pub firing: FiringMode,
}

impl Default for RpsChaseConfig {
    fn default() -> Self {
        RpsChaseConfig {
            max_rounds: 10_000,
            max_triples: 10_000_000,
            firing: FiringMode::Restricted,
        }
    }
}

/// Statistics of a chase run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RpsChaseStats {
    /// Rounds executed.
    pub rounds: usize,
    /// Graph-mapping-assertion firings.
    pub gma_firings: usize,
    /// Triples copied by equivalence repairs.
    pub eq_copies: usize,
    /// Fresh blank nodes created.
    pub blanks_created: u64,
    /// Firings skipped because instantiation would produce invalid RDF
    /// (e.g. a literal in subject position).
    pub invalid_firings: usize,
    /// Triples retracted by delete-and-rederive cascades (live updates).
    pub retractions: usize,
    /// Previously retracted firings re-fired because their premise still
    /// held after a deletion (live updates).
    pub refirings: usize,
}

/// A universal solution produced by the chase.
#[derive(Clone, Debug)]
pub struct UniversalSolution {
    /// The chased peer-to-peer database `J`.
    pub graph: Graph,
    /// Run statistics.
    pub stats: RpsChaseStats,
    /// `true` iff a fixpoint was reached (always the case within default
    /// budgets, per Theorem 1).
    pub complete: bool,
}

/// Runs Algorithm 1 on a system, producing a universal solution.
pub fn chase_system(system: &RdfPeerSystem, config: &RpsChaseConfig) -> UniversalSolution {
    ChaseEngine::new(system, config, false).into_solution()
}

/// Test seam, not API: [`chase_system`] with provenance tracking on or
/// off and, with `per_firing`, every write made as soon as it is
/// derived — each log entry's equivalence copies, then each firing's
/// conclusions — instead of a window or a pass at a time. The batch
/// tests hold the engine's own run to this one byte for byte.
#[doc(hidden)]
pub fn chase_system_seam(
    system: &RdfPeerSystem,
    config: &RpsChaseConfig,
    track_provenance: bool,
    per_firing: bool,
) -> UniversalSolution {
    let mut engine = ChaseEngine::new(system, config, track_provenance);
    engine.per_firing = per_firing;
    engine.into_solution()
}

/// Runs Algorithm 1 on the system's quotient by its equivalence mappings:
/// the stored database and every assertion's premise and conclusion are
/// rewritten onto `index`'s class representatives, and the chase then
/// runs with **no** equivalence edges — a class is one node, so there is
/// nothing to copy. The solution holds no non-canonical IRI in a triple;
/// its answers (to a query canonicalised the same way) expand over the
/// returned [`ClassTable`] into exactly the answers over
/// [`chase_system`]'s saturated solution.
pub(crate) fn chase_quotient(
    system: &RdfPeerSystem,
    index: &EquivalenceIndex,
    config: &RpsChaseConfig,
) -> (UniversalSolution, ClassTable) {
    let canonical = |gma: &GraphMappingAssertion| GraphMappingAssertion {
        source: gma.source,
        target: gma.target,
        premise: canonicalize_query(&gma.premise, index),
        conclusion: canonicalize_query(&gma.conclusion, index),
    };
    let gmas = system.assertions().iter().map(canonical).collect();
    let graph = system.canonical_database(index);
    let mut engine = ChaseEngine::from_parts(graph, gmas, &[], config, false);
    // Every constant is interned by now (a chase mints blanks only), and
    // the ids minted here are what expanded rows carry.
    let classes = ClassTable::intern(index, &mut engine.graph);
    (engine.into_solution(), classes)
}

/// Test seam, not API: the model [`chase_quotient`] chases over the
/// system's own equivalence index — what a materialising freeze of a
/// full system serves. The quotient tests hold it to the canonical image
/// of [`chase_system`]'s saturated solution.
#[doc(hidden)]
pub fn chase_quotient_model(system: &RdfPeerSystem, config: &RpsChaseConfig) -> UniversalSolution {
    let index = EquivalenceIndex::from_mappings(system.equivalences());
    chase_quotient(system, &index, config).0
}

/// One firing of a graph mapping assertion, recorded when provenance
/// tracking is on: which assertion fired on which premise tuple, the
/// premise triples that supported it (one witness), and the conclusion
/// triples it stands behind. Delete-and-rederive walks these records.
struct FiringRecord {
    gma: usize,
    tuple: Vec<TermId>,
    witness: Vec<IdTriple>,
    conclusions: Vec<IdTriple>,
    live: bool,
}

/// Minimal derivation provenance, maintained only for live sessions
/// (`track_provenance`). Maps are additive and never shrink; stale
/// entries (a dead firing, a re-extracted witness) are filtered at use.
#[derive(Default)]
struct Provenance {
    firings: Vec<FiringRecord>,
    /// Triple → firings whose *current* witness contains it.
    dependents: HashMap<IdTriple, Vec<u32>>,
    /// Triple → every firing whose conclusions contain it (live or not).
    producers: HashMap<IdTriple, Vec<u32>>,
    /// Triple → equivalence copies first derived from it.
    eq_children: HashMap<IdTriple, Vec<IdTriple>>,
}

/// An `eq_span` entry whose term has not been visited yet.
const UNRESOLVED: (u32, u32) = (u32::MAX, u32::MAX);

/// The chase loop's persistent state: graph, semi-naive marks, memos and
/// compiled plans. [`chase_system`] drives it once to a fixpoint;
/// [`crate::live::LiveSession`] keeps one alive across update batches so
/// every `run()` continues from the delta windows instead of starting
/// over.
pub(crate) struct ChaseEngine {
    pub(crate) graph: Graph,
    pub(crate) config: RpsChaseConfig,
    pub(crate) stats: RpsChaseStats,
    blank_counter: u64,
    /// Term-level equivalence adjacency (both directions); id-level
    /// neighbour lists are resolved lazily, on a term's first visit.
    eq_adj: HashMap<Term, Vec<Term>>,
    /// Per term id: its resolved neighbours as a span of `eq_flat`, or
    /// [`UNRESOLVED`]. The dictionary is append-only, so resolved ids
    /// stay valid.
    eq_span: Vec<(u32, u32)>,
    eq_flat: Vec<TermId>,
    /// Log index up to which equivalence repairs have been applied.
    eq_mark: usize,
    gmas: Vec<GraphMappingAssertion>,
    /// Per assertion: whether its conclusion is firing-independent (see
    /// the module docs), so a restricted pass may write once at its end.
    independent: Vec<bool>,
    /// Write every copy and firing as it is derived (the test seam).
    per_firing: bool,
    /// Per assertion: the log index of its previous premise evaluation.
    gma_marks: Vec<usize>,
    /// Per assertion: premise tuples already processed (fired or
    /// satisfied — permanent states under the restricted chase; under
    /// the skolem chase a retraction may remove a tuple again).
    processed: Vec<HashSet<Vec<TermId>>>,
    /// Conclusions compiled to id slots, so firing assembles `IdTriple`s
    /// directly instead of substituting, validating and re-interning
    /// term-level patterns on every trigger.
    plans: Vec<ConclusionPlan>,
    /// Conclusion patterns compiled once for the per-tuple satisfaction
    /// checks (`t ∈ Q'_J`; restricted mode only).
    conclusion_pats: Vec<PreparedPattern>,
    /// Premise queries compiled once (constants interned, so the plans
    /// survive the graph's growth) for the full and delta evaluations.
    premise_plans: Vec<PreparedQueryIds>,
    /// Premise patterns compiled once for witness extraction and the
    /// rederive premise re-checks (provenance mode only).
    premise_pats: Vec<PreparedPattern>,
    prov: Option<Provenance>,
}

impl ChaseEngine {
    pub(crate) fn new(
        system: &RdfPeerSystem,
        config: &RpsChaseConfig,
        track_provenance: bool,
    ) -> Self {
        let (graph, gmas) = (system.stored_database(), system.assertions().to_vec());
        Self::from_parts(graph, gmas, system.equivalences(), config, track_provenance)
    }

    /// An engine over parts that need not be a system's own: the graph to
    /// chase, the assertions to repair it under and the equivalence edges
    /// to copy along.
    fn from_parts(
        mut graph: Graph,
        gmas: Vec<GraphMappingAssertion>,
        equivalences: &[EquivalenceMapping],
        config: &RpsChaseConfig,
        track_provenance: bool,
    ) -> Self {
        let mut eq_adj: HashMap<Term, Vec<Term>> = HashMap::new();
        for eq in equivalences {
            let c = Term::Iri(eq.left.clone());
            let cp = Term::Iri(eq.right.clone());
            eq_adj.entry(c.clone()).or_default().push(cp.clone());
            eq_adj.entry(cp).or_default().push(c);
        }
        let plans: Vec<ConclusionPlan> = gmas
            .iter()
            .map(|gma| ConclusionPlan::new(&gma.conclusion, &mut graph))
            .collect();
        let conclusion_pats: Vec<PreparedPattern> = gmas
            .iter()
            .map(|gma| PreparedPattern::new(&mut graph, gma.conclusion.pattern()))
            .collect();
        let premise_plans: Vec<PreparedQueryIds> = gmas
            .iter()
            .map(|gma| PreparedQueryIds::new(&mut graph, &gma.premise))
            .collect();
        let premise_pats: Vec<PreparedPattern> = if track_provenance {
            gmas.iter()
                .map(|gma| PreparedPattern::new(&mut graph, gma.premise.pattern()))
                .collect()
        } else {
            Vec::new()
        };
        ChaseEngine {
            graph,
            config: config.clone(),
            stats: RpsChaseStats::default(),
            blank_counter: 0,
            eq_adj,
            eq_span: Vec::new(),
            eq_flat: Vec::new(),
            eq_mark: 0,
            independent: gmas
                .iter()
                .map(|gma| firing_independent(&gma.conclusion))
                .collect(),
            per_firing: false,
            gma_marks: vec![0; gmas.len()],
            processed: vec![HashSet::new(); gmas.len()],
            plans,
            conclusion_pats,
            premise_plans,
            premise_pats,
            prov: track_provenance.then(Provenance::default),
            gmas,
        }
    }

    /// Runs to a fixpoint, or out of budget, and hands the solution over.
    fn into_solution(mut self) -> UniversalSolution {
        let complete = self.run();
        if complete {
            // Fixpoint: the solution never grows again. Seal the store
            // (flush the sorted-run tail into an immutable run) so every
            // later scan — including concurrent ones through a frozen
            // session — merges immutable runs only.
            self.graph.seal();
        }
        UniversalSolution {
            stats: self.stats,
            complete,
            graph: self.graph,
        }
    }

    /// Interns a term into the chase graph's dictionary.
    pub(crate) fn intern(&mut self, term: &Term) -> TermId {
        self.graph.intern(term)
    }

    /// Inserts a base triple (live updates). Derivation provenance is
    /// not recorded — base multiplicity is the caller's bookkeeping.
    pub(crate) fn insert_base(&mut self, t: IdTriple) -> bool {
        self.graph.insert_ids(t)
    }

    /// Runs repair rounds until a fixpoint or until the budgets are
    /// exhausted; `true` iff a fixpoint was reached. The round budget is
    /// counted per call, so a long-lived engine gets a fresh allowance
    /// for every update batch. Does **not** seal the graph.
    pub(crate) fn run(&mut self) -> bool {
        let round_base = self.stats.rounds;
        loop {
            if self.stats.rounds - round_base >= self.config.max_rounds {
                return false;
            }
            self.stats.rounds += 1;
            let mut changed = false;

            // --- Equivalence mappings (Definition 2, item 3). ---
            // Drain the insertion log to a local fixpoint: every logged
            // triple (including the copies this loop itself inserts) is
            // examined once per equivalence neighbour of its terms. This
            // is the delta form of the `subjQ*`/`predQ*`/`objQ*` repairs.
            // A window's copies go in as one batch (module docs), and
            // early wherever the budget might be crossed, so an exhausted
            // run stops on the entry a copy-at-a-time drain stops on.
            if !self.eq_adj.is_empty() {
                let (mut copies, mut sources) = (Vec::new(), Vec::new());
                while self.eq_mark < self.graph.log_len() {
                    for i in self.eq_mark..self.graph.log_len() {
                        self.eq_mark = i + 1;
                        // A tombstoned entry (a removal) is skipped, as
                        // the log contract allows.
                        let Some(t) = self.graph.log_entry(i) else {
                            continue;
                        };
                        for pos in TriplePosition::ALL {
                            let span = self.eq_neighbours(t.get(pos));
                            for &to_id in &self.eq_flat[span] {
                                copies.push(t.with(pos, to_id));
                                if self.prov.is_some() {
                                    sources.push(t);
                                }
                            }
                        }
                        if self.per_firing
                            || self.graph.len() + copies.len() > self.config.max_triples
                        {
                            changed |= self.write_copies(&mut copies, &mut sources);
                            if self.graph.len() > self.config.max_triples {
                                return false;
                            }
                        }
                    }
                    changed |= self.write_copies(&mut copies, &mut sources);
                }
            }

            // --- Graph mapping assertions (Definition 2, item 2). ---
            let mut pending: Vec<IdTriple> = Vec::new();
            for gi in 0..self.gmas.len() {
                // Q_J under the blank-dropping semantics: the `rt`
                // guard. After the first full evaluation, only the delta
                // window since this assertion's previous evaluation is
                // joined: any tuple whose derivations all predate the
                // window was already enumerated (and memoised) back then.
                let from = self.gma_marks[gi];
                self.gma_marks[gi] = self.graph.log_len();
                let plan = &self.premise_plans[gi];
                let premise_tuples = if from == 0 {
                    plan.evaluate_rows(&self.graph, Semantics::Certain)
                } else {
                    plan.evaluate_delta(&self.graph, Semantics::Certain, from)
                };
                // A blind pass writes its conclusions once, at its end
                // (module docs); any other writes after every firing.
                let blind = !self.per_firing
                    && self.prov.is_none()
                    && (self.config.firing == FiringMode::Skolem || self.independent[gi]);
                for tuple in premise_tuples.iter() {
                    if !self.processed[gi].insert(tuple.to_vec()) {
                        continue;
                    }
                    if self.config.firing == FiringMode::Restricted
                        && tuple_satisfied(
                            &self.graph,
                            &self.conclusion_pats[gi],
                            &self.gmas[gi].conclusion,
                            tuple,
                        )
                    {
                        continue;
                    }
                    if self.fire(gi, tuple, &mut pending) {
                        changed = true;
                    }
                    if !blind || self.graph.len() + pending.len() > self.config.max_triples {
                        self.graph.insert_batch(pending.drain(..));
                        if self.graph.len() > self.config.max_triples {
                            return false;
                        }
                    }
                }
                self.graph.insert_batch(pending.drain(..));
            }

            if !changed {
                return true;
            }
        }
    }

    /// Fires assertion `gi` on `tuple`, appending its conclusions to
    /// `out` unwritten; `true` iff the instantiation is valid RDF (an
    /// invalid one is counted and skipped).
    fn fire(&mut self, gi: usize, tuple: &[TermId], out: &mut Vec<IdTriple>) -> bool {
        // Witness extraction reads the graph before the conclusions go
        // in, so a firing can never be its own (cyclic) support.
        let witness = if self.prov.is_some() {
            let free = self.gmas[gi].premise.free_vars();
            self.premise_pats[gi].first_match_with(&self.graph, &|v: &Variable| {
                free.iter().position(|f| f == v).map(|i| tuple[i])
            })
        } else {
            None
        };
        let start = out.len();
        let Some(blanks) = self.instantiate(gi, tuple, out) else {
            self.stats.invalid_firings += 1;
            return false;
        };
        self.stats.gma_firings += 1;
        self.stats.blanks_created += blanks;
        if let Some(p) = &mut self.prov {
            let witness = witness.expect("an enumerated premise tuple has a witness");
            let fid = p.firings.len() as u32;
            for &w in &witness {
                p.dependents.entry(w).or_default().push(fid);
            }
            let conclusions = out[start..].to_vec();
            for &c in &conclusions {
                p.producers.entry(c).or_default().push(fid);
            }
            p.firings.push(FiringRecord {
                gma: gi,
                tuple: tuple.to_vec(),
                witness,
                conclusions,
                live: true,
            });
        }
        true
    }

    /// Mints the existential blanks of a firing of `gi` on `tuple` —
    /// counter-named under the restricted chase, skolem-named (so a
    /// refiring re-derives the identical triples) under the confluent
    /// one — and appends the instantiated conclusions to `out`. Returns
    /// how many blanks are new, or `None`, with `out` untouched, when
    /// the instantiation is invalid RDF.
    fn instantiate(&mut self, gi: usize, tuple: &[TermId], out: &mut Vec<IdTriple>) -> Option<u64> {
        let n = self.plans[gi].n_existentials;
        let (fresh, blanks) = match self.config.firing {
            FiringMode::Restricted => {
                let fresh: Vec<TermId> = (0..n)
                    .map(|_| {
                        let b = Term::Blank(rps_rdf::BlankNode::fresh(self.blank_counter));
                        self.blank_counter += 1;
                        self.graph.intern(&b)
                    })
                    .collect();
                (fresh, n as u64)
            }
            FiringMode::Skolem => {
                let labels = skolem_labels(&self.graph, gi, tuple, n);
                let dict_before = self.graph.dict().len();
                let fresh: Vec<TermId> = labels
                    .into_iter()
                    .map(|l| self.graph.intern(&Term::blank(l)))
                    .collect();
                let blanks = fresh.iter().filter(|id| id.index() >= dict_before).count();
                (fresh, blanks as u64)
            }
        };
        self.plans[gi]
            .resolve(&self.graph, tuple, &fresh, out)
            .then_some(blanks)
    }

    /// Writes the collected equivalence copies as one batch; `true` iff
    /// any was new. With provenance on, `sources[i]` is the triple
    /// `copies[i]` was copied from, and a copy's first occurrence — the
    /// one the batch logged — is recorded as its source's child.
    fn write_copies(&mut self, copies: &mut Vec<IdTriple>, sources: &mut Vec<IdTriple>) -> bool {
        let log_from = self.graph.log_len();
        let added = self.graph.insert_batch(copies.iter().copied());
        self.stats.eq_copies += added;
        if let Some(p) = &mut self.prov {
            // The batch logs its new copies in candidate order, so a
            // candidate equal to the next unclaimed log entry is the
            // occurrence that entry records.
            let mut next = log_from;
            for (&from, &copy) in sources.iter().zip(copies.iter()) {
                if self.graph.log_entry(next) == Some(copy) {
                    p.eq_children.entry(from).or_default().push(copy);
                    next += 1;
                }
            }
        }
        copies.clear();
        sources.clear();
        added > 0
    }

    /// The equivalence neighbours of a term id, as a span of `eq_flat`,
    /// resolved (and their ids interned) on the id's first visit.
    fn eq_neighbours(&mut self, id: TermId) -> std::ops::Range<usize> {
        let i = id.index();
        if i >= self.eq_span.len() {
            let len = self.graph.dict().len().max(i + 1);
            self.eq_span.resize(len, UNRESOLVED);
        }
        if self.eq_span[i] == UNRESOLVED {
            let start = self.eq_flat.len() as u32;
            if let Some(terms) = self.eq_adj.get(self.graph.term(id)) {
                for n in terms {
                    self.eq_flat.push(self.graph.intern(n));
                }
            }
            self.eq_span[i] = (start, self.eq_flat.len() as u32);
        }
        let (start, end) = self.eq_span[i];
        start as usize..end as usize
    }

    /// `true` iff `t` is one equivalence-repair step away from a triple
    /// currently in the graph — i.e. some position of `t` holds an
    /// equivalence constant whose neighbour, substituted back, names a
    /// present triple. The inverse direction of the eq drain, used by
    /// rederivation (adjacency is symmetric, so neighbours of `t`'s own
    /// terms are exactly the possible sources).
    fn eq_inverse_present(&mut self, t: IdTriple) -> bool {
        for pos in TriplePosition::ALL {
            let span = self.eq_neighbours(t.get(pos));
            for &from in &self.eq_flat[span] {
                if self.graph.contains_ids(t.with(pos, from)) {
                    return true;
                }
            }
        }
        false
    }

    /// Delete-and-rederive (requires provenance tracking and the skolem
    /// firing mode). `candidates` are triples whose *base* support has
    /// dropped to zero; `is_base` reports whether a triple still has any
    /// base support. Returns `false` if a chase budget was exhausted
    /// while re-deriving.
    ///
    /// Phase 1 over-deletes: starting from the candidates, every triple
    /// whose recorded derivation is broken is removed — equivalence
    /// copies of a deleted source, and the conclusions of any firing
    /// whose witness lost a triple (such firings are retracted). A
    /// triple with some still-live producer firing, or base support, is
    /// kept; if that producer is retracted later in the cascade its
    /// conclusions re-enter the worklist, so the phase is a sound
    /// overestimate. Phase 2 re-derives: retracted firings whose premise
    /// still holds are re-fired (skolem naming makes this exact),
    /// deleted triples still one eq-step from a present triple are
    /// restored, and the semi-naive chase closes over the re-insertions;
    /// the loop runs to a joint fixpoint.
    pub(crate) fn retract_base(
        &mut self,
        candidates: Vec<IdTriple>,
        is_base: &dyn Fn(IdTriple) -> bool,
    ) -> bool {
        debug_assert!(
            self.prov.is_some() && self.config.firing == FiringMode::Skolem,
            "delete-and-rederive needs provenance and the confluent chase"
        );
        // --- Phase 1: over-deleting cascade. ---
        let mut deleted: Vec<IdTriple> = Vec::new();
        let mut deleted_set: HashSet<IdTriple> = HashSet::new();
        let mut retracted: Vec<u32> = Vec::new();
        let mut work = candidates;
        while let Some(t) = work.pop() {
            if deleted_set.contains(&t) || !self.graph.contains_ids(t) || is_base(t) {
                continue;
            }
            let p = self.prov.as_mut().expect("checked above");
            if let Some(fids) = p.producers.get(&t) {
                if fids.iter().any(|&f| p.firings[f as usize].live) {
                    // Still concluded by a live firing; if that firing is
                    // retracted later, `t` re-enters the worklist.
                    continue;
                }
            }
            self.graph.remove_ids(t);
            self.stats.retractions += 1;
            deleted.push(t);
            deleted_set.insert(t);
            if let Some(children) = p.eq_children.get(&t) {
                work.extend(children.iter().copied());
            }
            let fids: Vec<u32> = p.dependents.get(&t).cloned().unwrap_or_default();
            for fid in fids {
                let f = &mut p.firings[fid as usize];
                if f.live && f.witness.contains(&t) {
                    f.live = false;
                    retracted.push(fid);
                    work.extend(f.conclusions.iter().copied());
                }
            }
        }

        // --- Phase 2: rederive to a joint fixpoint. ---
        loop {
            let mut progress = false;
            // Retracted firings whose premise still holds re-fire with
            // identical conclusions (deterministic skolem naming); the
            // rest forget their premise tuple so a future insertion can
            // re-enumerate it through the delta window.
            for &fid in &retracted {
                let fid = fid as usize;
                let p = self.prov.as_ref().expect("checked above");
                if p.firings[fid].live {
                    continue;
                }
                let gi = p.firings[fid].gma;
                let tuple = p.firings[fid].tuple.clone();
                let free = self.gmas[gi].premise.free_vars();
                let witness = self.premise_pats[gi].first_match_with(&self.graph, &|v| {
                    free.iter().position(|f| f == v).map(|i| tuple[i])
                });
                match witness {
                    Some(witness) => {
                        let mut conclusions = Vec::new();
                        let blanks = self
                            .instantiate(gi, &tuple, &mut conclusions)
                            .expect("a previously fired tuple instantiates validly");
                        self.graph.insert_batch(conclusions.iter().copied());
                        self.stats.gma_firings += 1;
                        self.stats.refirings += 1;
                        self.stats.blanks_created += blanks;
                        let p = self.prov.as_mut().expect("checked above");
                        for &w in &witness {
                            p.dependents.entry(w).or_default().push(fid as u32);
                        }
                        let f = &mut p.firings[fid];
                        f.witness = witness;
                        f.conclusions = conclusions;
                        f.live = true;
                        progress = true;
                    }
                    None => {
                        self.processed[gi].remove(&tuple);
                    }
                }
            }
            // Deleted triples still derivable by one inverse eq step.
            for &t in &deleted {
                if self.graph.contains_ids(t) {
                    continue;
                }
                if self.eq_inverse_present(t) {
                    self.graph.insert_ids(t);
                    self.stats.eq_copies += 1;
                    progress = true;
                }
            }
            if !progress {
                return true;
            }
            // Close over the re-insertions (they are in the log, so the
            // semi-naive machinery picks them up as a delta).
            if !self.run() {
                return false;
            }
        }
    }
}

/// Deterministic blank labels for a skolem firing: one per existential
/// variable, injectively encoding (assertion index, existential index,
/// premise tuple *terms*). Term-level encoding — not [`TermId`]s — keeps
/// the labels identical across engines with different interning orders,
/// which is what makes an incremental maintenance run byte-identical to
/// a from-scratch re-chase. The `sk` prefix cannot collide with peer
/// blanks (scoped `p{idx}_…`) or restricted-chase blanks (`chase{n}`,
/// [`rps_rdf::BlankNode::fresh`]).
fn skolem_labels(graph: &Graph, gi: usize, tuple: &[TermId], n: usize) -> Vec<String> {
    let mut suffix = String::new();
    for &id in tuple {
        suffix.push('|');
        for ch in format!("{:?}", graph.term(id)).chars() {
            match ch {
                '|' => suffix.push_str("\\p"),
                '\\' => suffix.push_str("\\\\"),
                c => suffix.push(c),
            }
        }
    }
    (0..n).map(|j| format!("sk{gi}.{j}{suffix}")).collect()
}

/// One position of a compiled conclusion pattern.
#[derive(Clone, Copy)]
enum ConcSlot {
    /// A constant, interned up front.
    Const(TermId),
    /// The i-th free (answer) variable — instantiated from the tuple.
    Free(usize),
    /// The j-th existential variable — instantiated with a fresh blank.
    Exist(usize),
}

/// A conclusion pattern compiled against the chase graph's dictionary:
/// firing assembles [`rps_rdf::IdTriple`]s from the premise tuple's ids
/// without pattern substitution or term re-interning (fresh blanks are
/// the only per-firing dictionary traffic).
struct ConclusionPlan {
    slots: Vec<[ConcSlot; 3]>,
    n_existentials: usize,
}

impl ConclusionPlan {
    fn new(conclusion: &rps_query::GraphPatternQuery, graph: &mut Graph) -> Self {
        let free = conclusion.free_vars().to_vec();
        let existentials: Vec<Variable> = conclusion.existential_vars().into_iter().collect();
        let compile_tv = |tv: &rps_query::TermOrVar, graph: &mut Graph| match tv {
            rps_query::TermOrVar::Term(t) => ConcSlot::Const(graph.intern(t)),
            rps_query::TermOrVar::Var(v) => match free.iter().position(|f| f == v) {
                Some(i) => ConcSlot::Free(i),
                None => ConcSlot::Exist(
                    existentials
                        .iter()
                        .position(|e| e == v)
                        .expect("non-free conclusion variable is existential"),
                ),
            },
        };
        let slots = conclusion
            .pattern()
            .patterns()
            .iter()
            .map(|tp| {
                [
                    compile_tv(&tp.s, graph),
                    compile_tv(&tp.p, graph),
                    compile_tv(&tp.o, graph),
                ]
            })
            .collect();
        ConclusionPlan {
            slots,
            n_existentials: existentials.len(),
        }
    }

    /// Appends the conclusion triples for one premise tuple and a
    /// pre-interned existential assignment to `out`, validating RDF
    /// positional constraints; `false`, with `out` as it was, when the
    /// instantiation violates them (a literal in subject position, a
    /// non-IRI predicate). Nothing is inserted.
    fn resolve(
        &self,
        graph: &Graph,
        tuple: &[TermId],
        fresh: &[TermId],
        out: &mut Vec<IdTriple>,
    ) -> bool {
        let resolve = |s: &ConcSlot| match s {
            ConcSlot::Const(id) => *id,
            ConcSlot::Free(i) => tuple[*i],
            ConcSlot::Exist(j) => fresh[*j],
        };
        let dict = graph.dict();
        let start = out.len();
        for slot in &self.slots {
            let t = IdTriple::new(resolve(&slot[0]), resolve(&slot[1]), resolve(&slot[2]));
            if dict.kind(t.s) == rps_rdf::TermKind::Literal
                || dict.kind(t.p) != rps_rdf::TermKind::Iri
            {
                out.truncate(start);
                return false;
            }
            out.push(t);
        }
        true
    }
}

/// `true` iff `conclusion` is firing-independent (module docs): safe,
/// and (i) every atom holds an existential variable, (ii) the atoms are
/// connected through shared existentials, (iii) any two atoms whose
/// constants do not clash have the same shape.
fn firing_independent(conclusion: &rps_query::GraphPatternQuery) -> bool {
    use rps_query::TermOrVar;
    let free = conclusion.free_vars();
    let existential = |tv: &TermOrVar| matches!(tv, TermOrVar::Var(v) if !free.contains(v));
    let atoms: Vec<[&TermOrVar; 3]> = conclusion
        .pattern()
        .patterns()
        .iter()
        .map(|tp| [&tp.s, &tp.p, &tp.o])
        .collect();
    // Safety, and (i).
    if !conclusion.is_safe() || atoms.iter().any(|a| !a.iter().any(|tv| existential(tv))) {
        return false;
    }
    // (iii): unless two different constants clash at some position,
    // every position holds two existentials or the same term or variable.
    let shape_ok = |a: &[&TermOrVar; 3], b: &[&TermOrVar; 3]| {
        let pairs = || a.iter().zip(b);
        pairs().any(|(x, y)| matches!((x, y), (TermOrVar::Term(c), TermOrVar::Term(d)) if c != d))
            || pairs().all(|(x, y)| {
                if existential(x) {
                    existential(y)
                } else {
                    x == y
                }
            })
    };
    if atoms.iter().any(|a| atoms.iter().any(|b| !shape_ok(a, b))) {
        return false;
    }
    // (ii): grow atom 0's component over shared existentials.
    let shares = |a: &[&TermOrVar; 3], b: &[&TermOrVar; 3]| {
        a.iter().any(|x| existential(x) && b.contains(x))
    };
    let mut reached = vec![false; atoms.len()];
    let mut stack: Vec<usize> = (0..atoms.len().min(1)).collect();
    while let Some(i) = stack.pop() {
        if std::mem::replace(&mut reached[i], true) {
            continue;
        }
        stack.extend((0..atoms.len()).filter(|&j| !reached[j] && shares(&atoms[i], &atoms[j])));
    }
    reached.into_iter().all(|r| r)
}

/// Checks `t ∈ Q'_J`: bind the conclusion's free variables to the tuple's
/// term ids and test for a match against the pre-compiled pattern — no
/// pattern copy, no per-check compilation, no re-interning.
fn tuple_satisfied(
    graph: &Graph,
    prepared: &PreparedPattern,
    conclusion: &rps_query::GraphPatternQuery,
    tuple: &[TermId],
) -> bool {
    let free = conclusion.free_vars();
    prepared.has_match_with(graph, &|v: &Variable| {
        free.iter().position(|f| f == v).map(|i| tuple[i])
    })
}

/// Checks Definition 2 directly: is `candidate` a solution for the system
/// based on its stored database? Used by tests and property checks.
pub fn is_solution(system: &RdfPeerSystem, candidate: &Graph) -> bool {
    // (1) D ⊆ I.
    if !system.stored_database().is_subgraph_of(candidate) {
        return false;
    }
    // (2) Q_I ⊆ Q'_I for every graph mapping assertion.
    for gma in system.assertions() {
        let lhs = evaluate_query(candidate, &gma.premise, Semantics::Certain);
        let rhs = evaluate_query(candidate, &gma.conclusion, Semantics::Certain);
        if !lhs.is_subset(&rhs) {
            return false;
        }
    }
    // (3) star-query equality for every equivalence mapping.
    for eq in system.equivalences() {
        let c = Term::Iri(eq.left.clone());
        let cp = Term::Iri(eq.right.clone());
        for (qc, qcp) in [
            (
                rps_query::GraphPatternQuery::subj_q(c.clone()),
                rps_query::GraphPatternQuery::subj_q(cp.clone()),
            ),
            (
                rps_query::GraphPatternQuery::pred_q(c.clone()),
                rps_query::GraphPatternQuery::pred_q(cp.clone()),
            ),
            (
                rps_query::GraphPatternQuery::obj_q(c.clone()),
                rps_query::GraphPatternQuery::obj_q(cp.clone()),
            ),
        ] {
            let a: BTreeSet<_> = evaluate_query(candidate, &qc, Semantics::Star);
            let b: BTreeSet<_> = evaluate_query(candidate, &qcp, Semantics::Star);
            if a != b {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peer::Peer;
    use crate::system::RpsBuilder;
    use crate::PeerId;
    use rps_query::{GraphPattern, GraphPatternQuery, TermOrVar};
    use rps_rdf::Triple;

    fn v(n: &str) -> Variable {
        Variable::new(n)
    }

    /// A Skolem label is `sk{gi}.{j}` and then, per tuple term, `|` and
    /// the term's `Debug` form with `\\` and `|` escaped (`\\\\`, `\\p`),
    /// so no two tuples share a label: pinned byte for byte on terms
    /// holding both.
    #[test]
    fn skolem_labels_escape_the_separator_and_the_escape() {
        let mut g = Graph::new();
        let tuple = [
            g.intern(&Term::iri("http://e/a|b\\c")),
            g.intern(&Term::Literal(rps_rdf::Literal::lang("x|y\\z", "en"))),
            g.intern(&Term::blank("n|1")),
        ];
        assert_eq!(
            skolem_labels(&g, 2, &tuple, 2),
            [
                r#"sk2.0|<http://e/a\pb\\c>|"x\py\\\\z"@en|_:n\p1"#,
                r#"sk2.1|<http://e/a\pb\\c>|"x\py\\\\z"@en|_:n\p1"#,
            ]
        );
        assert_eq!(skolem_labels(&g, 0, &[], 1), ["sk0.0"]);
    }

    /// Two peers: peer B has `actor` facts, peer A uses
    /// `starring`/`artist`; one GMA translates B into A's shape.
    fn two_peer_system() -> RdfPeerSystem {
        two_peer_system_with("<http://b/film2> <http://b/actor> <http://b/actor2> .")
    }

    /// [`two_peer_system`] with `b_turtle` as peer B's data.
    fn two_peer_system_with(b_turtle: &str) -> RdfPeerSystem {
        let mut a = PeerId(0);
        let mut b = PeerId(0);
        let premise = GraphPatternQuery::new(
            vec![v("x"), v("y")],
            GraphPattern::triple(
                TermOrVar::var("x"),
                TermOrVar::iri("http://b/actor"),
                TermOrVar::var("y"),
            ),
        );
        let conclusion = GraphPatternQuery::new(
            vec![v("x"), v("y")],
            GraphPattern::triple(
                TermOrVar::var("x"),
                TermOrVar::iri("http://a/starring"),
                TermOrVar::var("z"),
            )
            .and(GraphPattern::triple(
                TermOrVar::var("z"),
                TermOrVar::iri("http://a/artist"),
                TermOrVar::var("y"),
            )),
        );
        RpsBuilder::new()
            .peer_turtle(
                "A",
                "<http://a/film> <http://a/starring> _:c .\n\
                 _:c <http://a/artist> <http://a/actor1> .",
                &mut a,
            )
            .unwrap()
            .peer_turtle("B", b_turtle, &mut b)
            .unwrap()
            .assertion(b, a, premise, conclusion)
            .unwrap()
            .build()
    }

    #[test]
    fn gma_fires_with_fresh_blank() {
        let sys = two_peer_system();
        let sol = chase_system(&sys, &RpsChaseConfig::default());
        assert!(sol.complete);
        assert_eq!(sol.stats.gma_firings, 1);
        assert_eq!(sol.stats.blanks_created, 1);
        // film2 now has a starring/artist path through a fresh blank.
        let q = GraphPatternQuery::new(
            vec![v("y")],
            GraphPattern::triple(
                TermOrVar::iri("http://b/film2"),
                TermOrVar::iri("http://a/starring"),
                TermOrVar::var("z"),
            )
            .and(GraphPattern::triple(
                TermOrVar::var("z"),
                TermOrVar::iri("http://a/artist"),
                TermOrVar::var("y"),
            )),
        );
        let ans = evaluate_query(&sol.graph, &q, Semantics::Certain);
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&vec![Term::iri("http://b/actor2")]));
    }

    #[test]
    fn chase_is_idempotent_on_satisfied_systems() {
        let sys = two_peer_system();
        let sol1 = chase_system(&sys, &RpsChaseConfig::default());
        // Chasing a system whose mappings are satisfied adds nothing:
        // rebuild a system with the solution as a single peer.
        let mut sys2 = RdfPeerSystem::new();
        sys2.add_peer(Peer::from_database("all", sol1.graph.clone()));
        for gma in sys.assertions() {
            sys2.add_assertion(gma.clone());
        }
        for eq in sys.equivalences() {
            sys2.add_equivalence(eq.clone());
        }
        let sol2 = chase_system(&sys2, &RpsChaseConfig::default());
        assert_eq!(sol2.stats.gma_firings, 0);
        assert_eq!(sol1.graph.len(), sol2.graph.len());
    }

    /// Within one run, the restricted chase skips a premise tuple whose
    /// conclusion the stored data already satisfies and fires the other.
    #[test]
    fn restricted_chase_does_not_refire_satisfied_triggers() {
        // Peer A already holds the conclusion for (film, actor1), not for
        // (film2, actor2).
        let sys = two_peer_system_with(
            "<http://a/film> <http://b/actor> <http://a/actor1> .\n\
             <http://b/film2> <http://b/actor> <http://b/actor2> .",
        );
        let sol = chase_system(&sys, &RpsChaseConfig::default());
        assert!(sol.complete);
        assert_eq!(sol.stats.gma_firings, 1);
        assert_eq!(sol.stats.blanks_created, 1);
        assert!(is_solution(&sys, &sol.graph));
        // The Skolem chase has no such guard and fires both tuples.
        let skolem = RpsChaseConfig {
            firing: FiringMode::Skolem,
            ..RpsChaseConfig::default()
        };
        assert_eq!(chase_system(&sys, &skolem).stats.gma_firings, 2);
    }

    #[test]
    fn universal_solution_is_a_solution() {
        let sys = two_peer_system();
        let sol = chase_system(&sys, &RpsChaseConfig::default());
        assert!(is_solution(&sys, &sol.graph));
        // The bare stored database is not (the GMA is violated).
        assert!(!is_solution(&sys, &sys.stored_database()));
    }

    #[test]
    fn skolem_chase_is_a_solution_and_order_independent() {
        let sys = two_peer_system();
        let cfg = RpsChaseConfig {
            firing: FiringMode::Skolem,
            ..RpsChaseConfig::default()
        };
        let sol = chase_system(&sys, &cfg);
        assert!(sol.complete);
        assert!(is_solution(&sys, &sol.graph));
        // Confluence: a second run over the same system produces the
        // same term-level triple set (the least fixpoint).
        let sol2 = chase_system(&sys, &cfg);
        let a: BTreeSet<_> = sol.graph.iter().collect();
        let b: BTreeSet<_> = sol2.graph.iter().collect();
        assert_eq!(a, b);
        // The skolem chase fires the satisfied assertion too (no guard),
        // so it derives at least as much as the restricted chase.
        let restricted = chase_system(&sys, &RpsChaseConfig::default());
        assert!(sol.graph.len() >= restricted.graph.len());
    }

    #[test]
    fn equivalence_copies_all_three_positions() {
        let mut p = PeerId(0);
        let sys = RpsBuilder::new()
            .peer_turtle(
                "s",
                "<http://x/a> <http://x/p> <http://x/b> .\n\
                 <http://x/b> <http://x/a> <http://x/c> .\n\
                 <http://x/c> <http://x/p> <http://x/a> .",
                &mut p,
            )
            .unwrap()
            .equivalence("http://x/a", "http://y/a2")
            .build();
        let sol = chase_system(&sys, &RpsChaseConfig::default());
        assert!(sol.complete);
        let g = &sol.graph;
        let contains = |s: &str, p: &str, o: &str| {
            g.contains(&Triple::new(Term::iri(s), Term::iri(p), Term::iri(o)).unwrap())
        };
        // subject copy
        assert!(contains("http://y/a2", "http://x/p", "http://x/b"));
        // predicate copy
        assert!(contains("http://x/b", "http://y/a2", "http://x/c"));
        // object copy
        assert!(contains("http://x/c", "http://x/p", "http://y/a2"));
        assert!(is_solution(&sys, g));
    }

    #[test]
    fn equivalence_chains_propagate_transitively() {
        let mut p = PeerId(0);
        let sys = RpsBuilder::new()
            .peer_turtle("s", "<http://x/a> <http://x/p> <http://x/o> .", &mut p)
            .unwrap()
            .equivalence("http://x/a", "http://x/b")
            .equivalence("http://x/b", "http://x/c")
            .build();
        let sol = chase_system(&sys, &RpsChaseConfig::default());
        assert!(sol.graph.contains(
            &Triple::new(
                Term::iri("http://x/c"),
                Term::iri("http://x/p"),
                Term::iri("http://x/o")
            )
            .unwrap()
        ));
    }

    #[test]
    fn blank_tuples_do_not_fire_gmas() {
        // The premise matches only via a blank-containing tuple; the
        // certain semantics (the rt guard) suppresses the firing.
        let mut a = PeerId(0);
        let mut b = PeerId(0);
        let premise = GraphPatternQuery::new(
            vec![v("x"), v("y")],
            GraphPattern::triple(
                TermOrVar::var("x"),
                TermOrVar::iri("http://a/p"),
                TermOrVar::var("y"),
            ),
        );
        let conclusion = GraphPatternQuery::new(
            vec![v("x"), v("y")],
            GraphPattern::triple(
                TermOrVar::var("x"),
                TermOrVar::iri("http://b/q"),
                TermOrVar::var("y"),
            ),
        );
        let sys = RpsBuilder::new()
            .peer_turtle("A", "<http://a/s> <http://a/p> _:hidden .", &mut a)
            .unwrap()
            .peer_turtle("B", "<http://b/s> <http://b/q> <http://b/o> .", &mut b)
            .unwrap()
            .assertion(a, b, premise, conclusion)
            .unwrap()
            .build();
        let sol = chase_system(&sys, &RpsChaseConfig::default());
        assert!(sol.complete);
        assert_eq!(sol.stats.gma_firings, 0);
    }

    #[test]
    fn budget_exhaustion_reports_incomplete() {
        let sys = two_peer_system();
        let sol = chase_system(
            &sys,
            &RpsChaseConfig {
                max_rounds: 0,
                max_triples: 10,
                ..RpsChaseConfig::default()
            },
        );
        assert!(!sol.complete);
    }

    /// `q(x, y) ← atoms`, over `http://e/` constants.
    fn conclusion(atoms: &[[&str; 3]]) -> GraphPatternQuery {
        let tv = |s: &str| match s.strip_prefix('?') {
            Some(name) => TermOrVar::var(name),
            None => TermOrVar::iri(&format!("http://e/{s}")),
        };
        let patterns = atoms
            .iter()
            .map(|[s, p, o]| rps_query::TriplePattern::new(tv(s), tv(p), tv(o)))
            .collect();
        GraphPatternQuery::new(vec![v("x"), v("y")], GraphPattern::from_patterns(patterns))
    }

    #[test]
    fn firing_independence_accepts_existential_joins() {
        for atoms in [
            // The benchmark's `actor ⇝ starring·artist`, Figure 1's Q1.
            &[["?x", "starring", "?z"], ["?z", "artist", "?y"]][..],
            &[["?z", "p", "?x"], ["?z", "q", "?y"]],
            &[["?x", "p", "?z"], ["?y", "q", "?z"]],
            &[["?x", "p", "?z"], ["?z", "q", "?w"], ["?w", "r", "?y"]],
        ] {
            assert!(firing_independent(&conclusion(atoms)), "{atoms:?}");
        }
    }

    #[test]
    fn firing_independence_rejects_what_a_firing_can_satisfy() {
        for (atoms, clause) in [
            (&[["?x", "p", "?z"], ["?y", "p", "?z"]][..], "(iii)"),
            (&[["?x", "p", "?z"], ["?z", "p", "?y"]], "(iii)"),
            (&[["?x", "p", "c"], ["?y", "q", "?z"]], "(i)"),
            (&[["?x", "p", "?y"], ["?y", "p", "?x"]], "(i)"),
            // The two-hop closure's conclusion.
            (&[["?x", "A", "?y"]], "(i)"),
            (&[["?x", "p", "?z"], ["?y", "q", "?w"]], "(ii)"),
        ] {
            assert!(
                !firing_independent(&conclusion(atoms)),
                "{clause}: {atoms:?}"
            );
        }
        // Unsafe: `y` occurs in no atom.
        assert!(!firing_independent(&conclusion(&[["?x", "p", "?z"]])));
    }

    #[test]
    fn invalid_firings_are_counted_not_inserted() {
        // Premise binds y to a literal; conclusion puts y in subject
        // position — un-instantiable, must be skipped.
        let mut a = PeerId(0);
        let mut b = PeerId(0);
        let premise = GraphPatternQuery::new(
            vec![v("y")],
            GraphPattern::triple(
                TermOrVar::var("x"),
                TermOrVar::iri("http://a/p"),
                TermOrVar::var("y"),
            ),
        );
        let conclusion = GraphPatternQuery::new(
            vec![v("y")],
            GraphPattern::triple(
                TermOrVar::var("y"),
                TermOrVar::iri("http://b/q"),
                TermOrVar::var("z"),
            ),
        );
        let sys = RpsBuilder::new()
            .peer_turtle("A", "<http://a/s> <http://a/p> \"literal\" .", &mut a)
            .unwrap()
            .peer_turtle("B", "<http://b/s> <http://b/q> <http://b/o> .", &mut b)
            .unwrap()
            .assertion(a, b, premise, conclusion)
            .unwrap()
            .build();
        let sol = chase_system(&sys, &RpsChaseConfig::default());
        assert!(sol.complete);
        assert_eq!(sol.stats.gma_firings, 0);
        assert_eq!(sol.stats.invalid_firings, 1);
    }
}
