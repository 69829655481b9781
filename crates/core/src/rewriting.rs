//! Section 4: query rewriting for RPSs.
//!
//! The rewriter is a *compiler*, not a second database. The paper
//! evaluates the UCQ rewriting "directly over the sources", so the only
//! copy of the data here is the sealed canonical stored graph every
//! compiled branch plan scans; the Section 3 `ts/rs → tt/rt` encoding is
//! Theorem 1's proof device and is never loaded. What the rewriter owns
//! besides that graph is mapping-sized: the graph-mapping TGDs compiled
//! once for id-level expansion, their classification (Proposition 2:
//! linear / sticky / sticky-join sets admit a perfect UCQ rewriting; the
//! equivalence TGDs never change it, so they are not classified), the
//! equivalence index with its classes as ids of the canonical graph, and
//! a dictionary holding the TGDs' constants and nothing else. Every call
//! interns its query's constants into a scratch copy of that dictionary,
//! which the returned [`RpsRewriting`] carries.
//!
//! **The expansion is memoised, the plan is not.** Section 4 and
//! Example 3 rewrite one query shape again and again with only its
//! constants changed, so [`RpsRewriter::rewrite_canonical`] keeps the
//! id-level union of each interned query under the key `(IdCq,
//! max_depth, max_cqs)` and runs [`rps_tgd::rewrite_ids`] on a miss only.
//! The memo is exact, with no genericity argument: the base dictionary
//! holds `tt` and the canonical TGD constants only, so a query's other
//! constants intern as ids `base_len..` in order of first occurrence,
//! and two queries that differ only in such constants intern to the same
//! `IdCq`. The expansion reads nothing but that `IdCq`, the fixed
//! compiled TGDs and the two budgets, and is deterministic, so they get
//! the byte-identical union; each call's own scratch dictionary then
//! attaches its own constants to those ids. A constant a mapping mentions
//! keeps its own id, hence its own key, and the budgets are in the key,
//! so a complete union is never served to a budget that would have run
//! out. Compiling the branches — satisfiability, dead head constants,
//! the join order — stays per call and per constant. The memo is a FIFO
//! of [`crate::DEFAULT_PLAN_CACHE_CAPACITY`] entries whose unions are
//! `Arc`-shared with the rewritings it hands out; its mutex is held for
//! the probe and for the insert, never across an expansion.
//!
//! **The TGDs are rewritten without Section 3's `rt` guards, and that is
//! lossy.** A guard `rt(x)` keeps a premise tuple with a blank node from
//! firing; without it the rewriting also answers from such tuples. It
//! happens as soon as a premise's frontier can meet a blank: a source
//! blank (Figure 1's `db2:Pleasantville v:actor _:unknown`, which makes
//! the rewritten and federated routes answer Pleasantville for
//! "films with a cast" where the chase does not), or the existential of
//! one assertion's conclusion feeding another assertion's premise.
//! `tests/paper_example.rs` pins the difference; ROADMAP item 6(e) has
//! the shape of the fix.
//!
//! It also implements the Example 3 / Listing 2 procedure literally:
//! deciding whether a tuple is a certain answer by substituting it into
//! the query, rewriting the resulting Boolean query into a UNION of ASKs,
//! and evaluating that over the sources.

use crate::answers::AnswerSet;
use crate::encode::{equivalence_tgds, mapping_tgds_unguarded, query_to_cq, Encoder};
use crate::equivalence::{canonicalize_query, ClassTable, EquivalenceIndex};
use crate::error::RpsError;
use crate::mapping::EquivalenceMapping;
use crate::session::frozen::Fifo;
use crate::session::{Branch, ExecRoute, GraphHandle, Plan, DEFAULT_PLAN_CACHE_CAPACITY};
use crate::system::RdfPeerSystem;
use rps_query::{
    GraphPattern, GraphPatternQuery, PlanSlot, PreparedQueryIds, Semantics, TermOrVar,
    TriplePattern, UnionQuery, Variable,
};
use rps_rdf::{Graph, Term, TermId};
use rps_tgd::{
    Classification, IdArg, IdCq, IdRewriteResult, IdTgdSet, Instance, RewriteConfig, Sym, Tgd,
    ValId,
};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The interning state ids are minted against: a row-less [`Instance`]
/// (used purely as a predicate / value dictionary) and the blank ↔ null
/// encoder. The rewriter's holds the TGD constants; each rewriting
/// extends a private clone with its query's constants.
#[derive(Clone, Debug)]
struct Interner {
    dict: Instance,
    encoder: Encoder,
}

impl Interner {
    /// The RDF term behind an interned value.
    fn term(&self, v: ValId) -> Term {
        self.encoder.decode(self.dict.values().value(v))
    }
}

/// A rewriting of an RPS query: the id-level union the engine produced,
/// together with the scratch dictionary its ids live in. String-level
/// forms are decoded on request ([`Self::branches`] for federation,
/// [`Self::to_union_query`] for display); local execution never leaves
/// the id level.
#[derive(Clone, Debug)]
pub struct RpsRewriting {
    /// Shared with the rewriter's memo entry and with every rewriting of
    /// the same interned query.
    id_cqs: Arc<[IdCq]>,
    /// A private copy of the rewriter's dictionary plus this query's
    /// constants — per call, so rewritings of different queries never
    /// alias each other's ids.
    scratch: Interner,
    /// `true` iff the expansion reached a fixpoint — together with an
    /// FO-rewritable classification this makes the union perfect.
    pub complete: bool,
    /// Number of CQs explored during expansion.
    pub explored: usize,
}

impl RpsRewriting {
    /// Number of CQs in the union.
    pub fn len(&self) -> usize {
        self.id_cqs.len()
    }

    /// `true` iff the union is empty.
    pub fn is_empty(&self) -> bool {
        self.id_cqs.is_empty()
    }

    /// Decodes the union back to RDF-level graph patterns for display
    /// (the UNION query of Listing 2). CQs with non-`tt` atoms are
    /// skipped, and each branch's head variables are renamed back to the
    /// requested names. Branches whose head was specialised to a
    /// constant are skipped here (use [`Self::branches`] for evaluation).
    pub fn to_union_query(&self, head: &[Variable]) -> UnionQuery {
        let mut union = UnionQuery::new(head.to_vec(), Vec::new());
        for (gp, template) in self.branches() {
            // Rename the branch's head variables to the requested names,
            // avoiding collisions by prefixing every other variable.
            let head_names: Option<Vec<&Variable>> = template
                .iter()
                .map(|t| match t {
                    TermOrVar::Var(v) => Some(v),
                    TermOrVar::Term(_) => None,
                })
                .collect();
            let Some(head_names) = head_names else {
                continue;
            };
            let fix = |tv: &TermOrVar| -> TermOrVar {
                match tv {
                    TermOrVar::Var(v) => match head_names.iter().position(|h| *h == v) {
                        Some(i) => TermOrVar::Var(head[i].clone()),
                        None => TermOrVar::Var(Variable::new(format!("b_{}", v.name()))),
                    },
                    other => other.clone(),
                }
            };
            union.add_branch(GraphPattern::from_patterns(
                gp.patterns()
                    .iter()
                    .map(|tp| TriplePattern::new(fix(&tp.s), fix(&tp.p), fix(&tp.o)))
                    .collect(),
            ));
        }
        union
    }

    /// Decodes every CQ of the union into an RDF-level `(pattern, head
    /// template)` pair for evaluation elsewhere (the federated engine).
    /// Variables are named `v0`, `v1`, … by their numbers; head templates
    /// may contain constants when rewriting specialised an answer
    /// position.
    pub fn branches(&self) -> Vec<(GraphPattern, Vec<TermOrVar>)> {
        let tt = self.scratch.dict.pred_id("tt");
        let decode = |arg: &IdArg| match arg {
            IdArg::Var(v) => TermOrVar::Var(Variable::new(format!("v{v}"))),
            IdArg::Const(c) => TermOrVar::Term(self.scratch.term(*c)),
        };
        self.id_cqs
            .iter()
            .filter(|cq| {
                cq.body
                    .iter()
                    .all(|a| Some(a.pred) == tt && a.args.len() == 3)
            })
            .map(|cq| {
                let patterns = cq
                    .body
                    .iter()
                    .map(|a| {
                        TriplePattern::new(
                            decode(&a.args[0]),
                            decode(&a.args[1]),
                            decode(&a.args[2]),
                        )
                    })
                    .collect();
                (
                    GraphPattern::from_patterns(patterns),
                    cq.head.iter().map(decode).collect(),
                )
            })
            .collect()
    }
}

/// The Section 4 rewriter for one system.
///
/// Two rewritings are provided:
///
/// * the **pure** one ([`Self::rewrite`]) feeds every dependency — graph-
///   mapping TGDs *and* the six-per-mapping equivalence TGDs — to the
///   generic rewriting engine. This is the paper's construction verbatim
///   (Listing 2), but the perfect UCQ grows multiplicatively in the
///   number of equivalent constants per query position;
/// * the **combined** one ([`Self::rewrite_canonical`], behind
///   [`Self::answers`] and every session) realises the paper's
///   future-work item 1 ("queries are rewritten according to some of the
///   dependencies only"): equivalence mappings are handled by a
///   union-find *quotient* — query constants, mapping constants and the
///   stored database are canonicalised, only the graph-mapping TGDs are
///   rewritten, and answers are expanded back over the classes. Property
///   tests establish both agree with the chase.
///
/// `Send + Sync`, and immutable after construction but for the combined
/// rewriting's expansion memo: keyed on the interned query and the two
/// budgets, exact because the expansion reads nothing else, bounded to
/// [`crate::DEFAULT_PLAN_CACHE_CAPACITY`] entries (FIFO), and locked for
/// a hash probe or an insert only — see the [module docs](self).
pub struct RpsRewriter {
    /// The paper-verbatim dependency set of [`Self::rewrite`]: the raw
    /// graph-mapping TGDs, and the equivalence mappings whose six TGDs
    /// apiece are generated per call rather than held.
    gma_tgds: Vec<Tgd>,
    equivalences: Vec<EquivalenceMapping>,
    classification: Classification,
    /// Union-find over the system's equivalence mappings (shared with
    /// the session that built this rewriter).
    index: Arc<EquivalenceIndex>,
    /// The canonicalised graph-mapping TGDs compiled for id-level
    /// rewriting; ids live in `base.dict`.
    canon_tgds: IdTgdSet,
    /// `tt`, the TGD constants, and nothing else — independent of how
    /// many triples are stored.
    base: Interner,
    /// The canonicalised stored database — the one copy of the sources,
    /// and the evaluation substrate of [`Self::compile_branches`] plans.
    /// `Arc`-shared and sealed at build time so compiled plans (and the
    /// frozen sessions of `rps-core`/`rps-p2p`) can evaluate against it
    /// concurrently without holding the rewriter. Its dictionary also
    /// holds the canonical TGD constants and the members of every class
    /// it mentions, so a specialised head and an expanded answer are ids
    /// of it.
    canon_graph: Arc<Graph>,
    /// The equivalence classes as ids of `canon_graph`'s dictionary.
    classes: Arc<ClassTable>,
    /// [`Self::rewrite_canonical`]'s expansions by interned query and
    /// budgets; ids live in `base.dict` extended per call.
    memo: Mutex<Fifo<Arc<MemoKey>, Expansion>>,
}

/// What an expansion depends on: the interned (canonicalised) query, and
/// [`RewriteConfig`]'s `max_depth` and `max_cqs`.
type MemoKey = (IdCq, usize, usize);

/// One expansion as the memo holds it: an [`IdRewriteResult`] whose
/// union is shared.
#[derive(Clone)]
struct Expansion {
    cqs: Arc<[IdCq]>,
    complete: bool,
    explored: usize,
}

impl From<IdRewriteResult> for Expansion {
    fn from(r: IdRewriteResult) -> Self {
        Expansion {
            cqs: r.cqs.into(),
            complete: r.complete,
            explored: r.explored,
        }
    }
}

impl Expansion {
    /// The rewriting this expansion is for a query interned in `scratch`.
    fn into_rewriting(self, scratch: Interner) -> RpsRewriting {
        RpsRewriting {
            id_cqs: self.cqs,
            scratch,
            complete: self.complete,
            explored: self.explored,
        }
    }
}

impl RpsRewriter {
    /// Builds a rewriter from a system.
    pub fn new(system: &RdfPeerSystem) -> Self {
        let index = EquivalenceIndex::from_mappings(system.equivalences());
        Self::with_index(system, Arc::new(index))
    }

    /// [`Self::new`] over an equivalence index the caller already built
    /// from `system.equivalences()` (a session shares its own instead of
    /// running a second union-find).
    pub fn with_index(system: &RdfPeerSystem, index: Arc<EquivalenceIndex>) -> Self {
        let mut encoder = Encoder::new();
        let as_written = EquivalenceIndex::default();
        let gma_tgds = mapping_tgds_unguarded(system, &as_written, &mut encoder);
        // Proposition 2 is about the full set G ∪ E, but the equivalence
        // TGDs E cannot change its verdict, so they are never built here.
        // Every E TGD is `tt(…c…) → tt(…c′…)`, the same two variables at
        // the same two positions on both sides. Definition 4's initial
        // step marks neither (each is in the one head atom). Propagation
        // marks one only if its head position is marked, and that is its
        // body position too, so E adds no marked position and G's
        // marking is unchanged. No E body repeats a variable, so E adds
        // no sticky violation. E is linear, so it is also guarded. E's
        // weak-acyclicity edges are regular self-loops `tt[i] → tt[i]`,
        // with no special edge and no path between distinct positions.
        // Hence `Classification::of(G ∪ E) == Classification::of(G)`
        // field by field (`rps-tgd`'s proptests sweep it, and
        // `tests/strategies_agree.rs` checks it against Section 3's full
        // encoding).
        let classification = Classification::of(&gma_tgds);
        let mut dict = Instance::new();
        dict.intern_pred(&Sym::from("tt"));
        let canon_tgds = IdTgdSet::compile(
            &mapping_tgds_unguarded(system, &index, &mut encoder),
            &mut dict,
        );
        let mut canon_graph = system.canonical_database(&index);
        // A rewritten head can be specialised to a constant of a TGD head
        // no stored triple mentions: give each an id, then the classes.
        for gma in system.assertions() {
            for side in [&gma.premise, &gma.conclusion] {
                for constant in side.pattern().constants() {
                    canon_graph.intern(&index.canonical_term(&constant));
                }
            }
        }
        let classes = Arc::new(ClassTable::intern(&index, &mut canon_graph));
        // The canonical graph never changes after this point: seal it so
        // branch-plan scans merge immutable runs only.
        canon_graph.seal();
        RpsRewriter {
            gma_tgds,
            equivalences: system.equivalences().to_vec(),
            classification,
            index,
            canon_tgds,
            base: Interner { dict, encoder },
            canon_graph: Arc::new(canon_graph),
            classes,
            memo: Mutex::new(Fifo::new(DEFAULT_PLAN_CACHE_CAPACITY)),
        }
    }

    /// Locks the expansion memo, recovering it if the mutex is poisoned.
    /// That is sound because a guard only ever lives for a hash probe or
    /// a whole-entry insert (the oldest entry unlinked, then one added;
    /// the caller frees what was unlinked after the guard):
    /// `std` collection calls and `Arc` clones, which do not panic short
    /// of an allocation failure, and that aborts. The expansion itself
    /// runs unlocked. So the memo behind a poisoned lock is one such
    /// step's before or after, every entry in it whole.
    fn memo(&self) -> MutexGuard<'_, Fifo<Arc<MemoKey>, Expansion>> {
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The union-find equivalence index of the system.
    pub fn index(&self) -> &EquivalenceIndex {
        &self.index
    }

    /// The classification Proposition 2 reads. It is computed on the
    /// graph-mapping TGDs `G` alone and equals, field by field, that of
    /// `G ∪ E` with the equivalence TGDs `E`: `E` is linear and sticky,
    /// marks no position `G` leaves unmarked, repeats no body variable
    /// and adds only self-loops to the position graph (the lemma in
    /// [`Self::with_index`]'s body).
    pub fn classification(&self) -> Classification {
        self.classification
    }

    /// `true` iff Proposition 2 guarantees a perfect, terminating
    /// rewriting.
    pub fn fo_rewritable(&self) -> bool {
        self.classification.fo_rewritable()
    }

    /// The canonicalised stored database as an RDF graph — the substrate
    /// the compiled rewrite-route branch plans execute over.
    pub fn canon_graph(&self) -> &Graph {
        &self.canon_graph
    }

    /// The execution plan of a canonical rewriting: its compiled branches
    /// over the (shared, sealed) canonical stored graph, answers expanded
    /// over the classes — so execution needs no access to the rewriter.
    pub(crate) fn plan(&self, rewriting: &RpsRewriting) -> Plan {
        Plan {
            graph: GraphHandle::Quotient(self.canon_graph.clone()),
            branches: self.compile_branches(rewriting),
            classes: Some(self.classes.clone()),
        }
    }

    /// Interns `query` into `scratch` as a numbered-variable id-CQ — the
    /// first step of both rewritings, and the memo's key.
    fn intern(query: &GraphPatternQuery, scratch: &mut Interner) -> IdCq {
        let cq = query_to_cq(query, &mut scratch.encoder, false);
        rps_tgd::intern_cq(&cq, &mut scratch.dict)
    }

    /// Rewrites a query under the *canonicalised graph-mapping TGDs only*
    /// (the combined approach), entirely at the id level. The result runs
    /// over the canonical stored graph (what [`Self::answers`] and the
    /// sessions do, expanding the id rows over the classes) or is decoded
    /// with [`RpsRewriting::branches`] for federation, which expands with
    /// [`crate::equivalence::expand_answers`]. The expansion comes from
    /// the memo when this interned query ran under these budgets before
    /// (see the [module docs](self)).
    pub fn rewrite_canonical(
        &self,
        query: &GraphPatternQuery,
        cfg: &RewriteConfig,
    ) -> RpsRewriting {
        let canon_query = canonicalize_query(query, &self.index);
        let mut scratch = self.base.clone();
        let key = (
            Self::intern(&canon_query, &mut scratch),
            cfg.max_depth,
            cfg.max_cqs,
        );
        // Bound first: the guard must not live into the miss path.
        let hit = self.memo().get(&key);
        let expansion = match hit {
            Some(expansion) => expansion,
            None => {
                let fresh = Expansion::from(rps_tgd::rewrite_ids(&key.0, &self.canon_tgds, cfg));
                // Dropped after the guard, like the plan cache's evictions.
                let (expansion, _released) = self.memo().insert(Arc::new(key), fresh);
                expansion
            }
        };
        expansion.into_rewriting(scratch)
    }

    /// Rewrites a graph pattern query into a UCQ over the sources — the
    /// paper-verbatim rewriting, under the *full* dependency set (graph
    /// mappings + equivalence TGDs), for display (Listing 2's UNION). The
    /// dependency set is compiled into the call's scratch dictionary, so
    /// this costs time linear in the number of mappings per call, and the
    /// expansion is never memoised.
    pub fn rewrite(&self, query: &GraphPatternQuery, cfg: &RewriteConfig) -> RpsRewriting {
        let mut scratch = self.base.clone();
        let mut tgds = self.gma_tgds.clone();
        tgds.extend(equivalence_tgds(&self.equivalences, &mut scratch.encoder));
        let tgds = IdTgdSet::compile(&tgds, &mut scratch.dict);
        let id_query = Self::intern(query, &mut scratch);
        Expansion::from(rps_tgd::rewrite_ids(&id_query, &tgds, cfg)).into_rewriting(scratch)
    }

    /// Compiles a canonical rewriting's id-CQ branches into prepared
    /// [`rps_query::PreparedQueryIds`] plans over the canonical stored
    /// graph. Branch bodies are `tt/3` atoms by construction, so each
    /// maps positionally onto triple-pattern conjuncts; constants resolve
    /// through the graph's own dictionary. Branches whose head was
    /// specialised to a labelled null are dropped (no certain tuple can
    /// come from them); branches mentioning values absent from the
    /// graph's dictionary compile to unsatisfiable plans.
    ///
    /// A head constant is an id too, or the branch is dropped as dead: a
    /// head variable only ever becomes a constant `c` by a substitution
    /// applied to the whole CQ, which leaves `c` wherever the variable
    /// stood in the body (a safe query's head variables all occur there).
    /// A later step can resolve such an atom away only against a TGD head
    /// that has, at `c`'s position, either the constant `c` itself — then
    /// `c` is a canonical TGD constant, interned at construction — or a
    /// frontier variable, which carries `c` into the TGD's body (an
    /// existential variable does not unify with a constant). So a head
    /// constant without an id still occurs in the body, where a constant
    /// without an id matches no stored triple.
    pub(crate) fn compile_branches(&self, rewriting: &RpsRewriting) -> Vec<Branch> {
        let scratch = &rewriting.scratch;
        let tt = scratch.dict.pred_id("tt");
        // Each distinct constant is decoded and looked up once per call.
        let mut memo: Vec<Option<Option<TermId>>> = vec![None; scratch.dict.values().len()];
        let mut term_id = |v: ValId| {
            *memo[v.index()].get_or_insert_with(|| self.canon_graph.term_id(&scratch.term(v)))
        };
        let mut out = Vec::with_capacity(rewriting.id_cqs.len());
        'branches: for cq in rewriting.id_cqs.iter() {
            let nvars = (cq.nvars() as usize).max(1);
            let mut satisfiable = true;
            let mut conjuncts: Vec<[PlanSlot; 3]> = Vec::with_capacity(cq.body.len());
            for atom in &cq.body {
                if Some(atom.pred) != tt || atom.args.len() != 3 {
                    continue 'branches; // not a stored-triple atom
                }
                let mut slot = [PlanSlot::Var(0); 3];
                for (i, arg) in atom.args.iter().enumerate() {
                    slot[i] = match arg {
                        IdArg::Var(v) => PlanSlot::Var(*v as usize),
                        IdArg::Const(c) => match term_id(*c) {
                            Some(t) => PlanSlot::Const(t),
                            None => {
                                // Dead branch; the placeholder slot is
                                // never consulted.
                                satisfiable = false;
                                PlanSlot::Var(0)
                            }
                        },
                    };
                }
                conjuncts.push(slot);
            }
            let mut in_body = vec![false; nvars];
            for slot in &conjuncts {
                for s in slot {
                    if let PlanSlot::Var(v) = s {
                        in_body[*v] = true;
                    }
                }
            }
            let mut proj: Vec<usize> = Vec::new();
            let mut head: Vec<Option<TermId>> = Vec::with_capacity(cq.head.len());
            let mut head_bound = true;
            for arg in &cq.head {
                match arg {
                    IdArg::Var(v) => {
                        head_bound &= in_body[*v as usize];
                        proj.push(*v as usize);
                        head.push(None);
                    }
                    IdArg::Const(c) => {
                        if scratch.dict.values().is_null(*c) {
                            continue 'branches; // never a certain answer
                        }
                        let Some(id) = term_id(*c) else {
                            debug_assert!(!satisfiable, "a head constant without an id");
                            continue 'branches; // dead, see above
                        };
                        head.push(Some(id));
                    }
                }
            }
            let plan = PreparedQueryIds::from_id_slots(
                &self.canon_graph,
                &conjuncts,
                nvars,
                head_bound.then_some(proj),
                satisfiable,
            );
            out.push((plan, head));
        }
        out
    }

    /// Rewrites and evaluates a query over the stored database via the
    /// *combined* approach (quotient for equivalences, UCQ rewriting for
    /// graph mappings). Returns the answers and whether the rewriting
    /// was exhaustive.
    pub fn answers(&self, query: &GraphPatternQuery, cfg: &RewriteConfig) -> (AnswerSet, bool) {
        let rewriting = self.rewrite_canonical(query, cfg);
        let vars = crate::session::stream_vars(query);
        let stream = self
            .plan(&rewriting)
            .execute(vars, ExecRoute::Rewritten, Semantics::Certain);
        (stream.into_set(), rewriting.complete)
    }

    /// The Example 3 decision procedure: is `tuple` a certain answer of
    /// `query`? Substitutes the tuple into the free variables, rewrites
    /// the resulting Boolean query, and evaluates the UNION of ASKs over
    /// the stored database (Listing 2), stopping at the first branch
    /// with a witness. A tuple of the wrong arity is
    /// [`RpsError::Arity`].
    pub fn is_certain_answer(
        &self,
        query: &GraphPatternQuery,
        tuple: &[Term],
        cfg: &RewriteConfig,
    ) -> Result<bool, RpsError> {
        let free = query.free_vars();
        if tuple.len() != free.len() {
            return Err(RpsError::Arity {
                expected: free.len(),
                got: tuple.len(),
            });
        }
        let bound = query
            .pattern()
            .substitute(&|v| free.iter().position(|f| f == v).map(|i| tuple[i].clone()));
        let rewriting = self.rewrite_canonical(&GraphPatternQuery::boolean(bound), cfg);
        Ok(self.compile_branches(&rewriting).iter().any(|(plan, _)| {
            let witness = plan.evaluate_rows(&self.canon_graph, Semantics::Certain);
            !witness.is_empty()
        }))
    }

    /// The full Example 3 pipeline: enumerate all candidate tuples of
    /// names (polynomially many: `n^arity`) and decide each with the
    /// Boolean rewriting. Candidates are the names in the canonical
    /// stored graph's dictionary: the stored names, the mappings'
    /// constants and every member of their equivalence classes. Returns `None` if the candidate space exceeds
    /// `max_candidates` — callers should fall back to [`Self::answers`].
    pub fn certain_answers_via_boolean(
        &self,
        query: &GraphPatternQuery,
        cfg: &RewriteConfig,
        max_candidates: usize,
    ) -> Option<AnswerSet> {
        let names: Vec<Term> = self
            .canon_graph
            .dict()
            .iter()
            .filter(|(_, term)| !term.is_blank())
            .map(|(_, term)| term.clone())
            .collect::<BTreeSet<Term>>()
            .into_iter()
            .collect();
        let arity = query.arity();
        let total = names.len().checked_pow(arity as u32)?;
        if total > max_candidates {
            return None;
        }
        let mut tuples = BTreeSet::new();
        // Odometer over `names^arity` (one empty tuple at arity 0).
        let mut idx = vec![0usize; arity];
        for _ in 0..total {
            let tuple: Vec<Term> = idx.iter().map(|&i| names[i].clone()).collect();
            if self
                .is_certain_answer(query, &tuple, cfg)
                .expect("candidate tuples have the query's arity")
            {
                tuples.insert(tuple);
            }
            for slot in &mut idx {
                *slot += 1;
                if *slot < names.len() {
                    break;
                }
                *slot = 0;
            }
        }
        Some(AnswerSet {
            vars: crate::session::var_names(query.free_vars()),
            tuples,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::{chase_system, RpsChaseConfig};
    use crate::system::RpsBuilder;
    use crate::PeerId;

    fn v(n: &str) -> Variable {
        Variable::new(n)
    }

    /// Linear system: peer B's `actor` facts imply peer A's `cast` facts
    /// (single-triple premise and conclusion keep everything linear).
    fn linear_system() -> RdfPeerSystem {
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
                TermOrVar::iri("http://a/cast"),
                TermOrVar::var("y"),
            ),
        );
        RpsBuilder::new()
            .peer_turtle("A", "<http://a/f1> <http://a/cast> <http://a/p1> .", &mut a)
            .unwrap()
            .peer_turtle(
                "B",
                "<http://b/f2> <http://b/actor> <http://b/p2> .",
                &mut b,
            )
            .unwrap()
            .assertion(b, a, premise, conclusion)
            .unwrap()
            .equivalence("http://a/p1", "http://b/p2")
            .build()
    }

    fn cast_query() -> GraphPatternQuery {
        GraphPatternQuery::new(
            vec![v("x"), v("y")],
            GraphPattern::triple(
                TermOrVar::var("x"),
                TermOrVar::iri("http://a/cast"),
                TermOrVar::var("y"),
            ),
        )
    }

    #[test]
    fn linear_system_is_fo_rewritable() {
        let rw = RpsRewriter::new(&linear_system());
        assert!(rw.classification().linear);
        assert!(rw.fo_rewritable());
        let r = rw.rewrite(&cast_query(), &RewriteConfig::default());
        assert!(r.complete);
        assert!(r.len() >= 2);
    }

    #[test]
    fn rewriting_answers_equal_chase_answers() {
        let sys = linear_system();
        let rw = RpsRewriter::new(&sys);
        let (ans, complete) = rw.answers(&cast_query(), &RewriteConfig::default());
        assert!(complete);
        let sol = chase_system(&sys, &RpsChaseConfig::default());
        let chased = crate::answers::certain_answers(&sol, &cast_query());
        assert_eq!(ans.tuples, chased.tuples);
        // Both vocabularies' actors appear thanks to the equivalence.
        assert!(ans
            .tuples
            .contains(&vec![Term::iri("http://b/f2"), Term::iri("http://b/p2")]));
        assert!(ans
            .tuples
            .contains(&vec![Term::iri("http://b/f2"), Term::iri("http://a/p1")]));
    }

    #[test]
    fn boolean_certain_answer_listing2_shape() {
        let sys = linear_system();
        let rw = RpsRewriter::new(&sys);
        // (f2, p1) is a certain answer only via the equivalence mapping:
        // the stored data has (f2, actor, p2) and p1 ≡ p2.
        let cfg = RewriteConfig::default();
        let yes = [Term::iri("http://b/f2"), Term::iri("http://a/p1")];
        assert!(rw.is_certain_answer(&cast_query(), &yes, &cfg).unwrap());
        let no = [Term::iri("http://a/f1"), Term::iri("http://b/f2")];
        assert!(!rw.is_certain_answer(&cast_query(), &no, &cfg).unwrap());
        // A tuple of the wrong arity is a typed error, not a panic.
        assert!(matches!(
            rw.is_certain_answer(&cast_query(), &yes[..1], &cfg),
            Err(RpsError::Arity {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn boolean_enumeration_matches_direct_rewriting() {
        let sys = linear_system();
        let rw = RpsRewriter::new(&sys);
        let (direct, _) = rw.answers(&cast_query(), &RewriteConfig::default());
        let before = rw.memo().len();
        let enumerated = rw
            .certain_answers_via_boolean(&cast_query(), &RewriteConfig::default(), 10_000)
            .expect("candidate space is small");
        assert_eq!(direct.tuples, enumerated.tuples);

        // Example 3's `n^arity` Boolean rewritings cost one expansion per
        // key pattern: which positions hold a constant a mapping mentions
        // (and which one), and which of the other positions are equal.
        #[derive(PartialEq, Eq, PartialOrd, Ord)]
        enum Slot {
            Mentioned(Term),
            Fresh(usize),
        }
        let mentioned: BTreeSet<Term> = sys
            .assertions()
            .iter()
            .flat_map(|gma| [&gma.premise, &gma.conclusion])
            .flat_map(|side| side.pattern().constants())
            .map(|c| rw.index.canonical_term(&c))
            .collect();
        let names: Vec<Term> = rw
            .canon_graph
            .dict()
            .iter()
            .filter(|(_, term)| !term.is_blank())
            .map(|(_, term)| rw.index.canonical_term(term))
            .collect();
        let mut patterns: BTreeSet<[Slot; 2]> = BTreeSet::new();
        for first in &names {
            for second in &names {
                let mut fresh: Vec<&Term> = Vec::new();
                let pattern = [first, second].map(|t| {
                    if mentioned.contains(t) {
                        return Slot::Mentioned(t.clone());
                    }
                    let k = fresh.iter().position(|f| *f == t).unwrap_or(fresh.len());
                    if k == fresh.len() {
                        fresh.push(t);
                    }
                    Slot::Fresh(k)
                });
                patterns.insert(pattern);
            }
        }
        let expansions = rw.memo().len() - before;
        assert!(
            expansions <= patterns.len() && patterns.len() < names.len().pow(2),
            "{expansions} expansions, {} key patterns, {} candidates",
            patterns.len(),
            names.len().pow(2)
        );
    }

    #[test]
    fn candidate_budget_overflow_returns_none() {
        let sys = linear_system();
        let rw = RpsRewriter::new(&sys);
        assert!(rw
            .certain_answers_via_boolean(&cast_query(), &RewriteConfig::default(), 3)
            .is_none());
    }

    #[test]
    fn union_query_decoding() {
        let sys = linear_system();
        let rw = RpsRewriter::new(&sys);
        let q = cast_query();
        let r = rw.rewrite(&q, &RewriteConfig::default());
        let union = r.to_union_query(q.free_vars());
        assert!(union.len() >= 2);
        // Every branch is a valid RDF-level pattern over tt-decoded terms.
        for b in union.branches() {
            assert!(!b.is_empty());
        }
    }

    /// `linear_system`'s mappings over `films` stored `actor` triples.
    fn sized_system(films: usize) -> RdfPeerSystem {
        let mut sys = linear_system();
        let mut extra = Graph::new();
        for i in 0..films {
            extra
                .insert_terms(
                    Term::iri(format!("http://b/film{i}")),
                    Term::iri("http://b/actor"),
                    Term::iri(format!("http://b/person{i}")),
                )
                .unwrap();
        }
        sys.add_peer(crate::peer::Peer::from_database("bulk", extra));
        sys
    }

    #[test]
    fn dictionary_is_mapping_sized_not_data_sized() {
        // Compiler, not database: the same mappings over 10 and over
        // 1 000 stored triples intern exactly the same values.
        let small = RpsRewriter::new(&sized_system(10));
        let large = RpsRewriter::new(&sized_system(1_000));
        assert!(large.canon_graph().len() >= small.canon_graph().len() + 990);
        assert_eq!(
            small.base.dict.values().len(),
            large.base.dict.values().len()
        );
        assert_eq!(small.base.dict.len(), 0, "the dictionary holds no rows");
    }

    #[test]
    fn scratch_dictionaries_do_not_alias() {
        let sys = sized_system(10);
        let rw = RpsRewriter::new(&sys);
        let cfg = RewriteConfig::default();
        let films_of = |person: &str| {
            GraphPatternQuery::new(
                vec![v("x")],
                GraphPattern::triple(
                    TermOrVar::var("x"),
                    TermOrVar::iri("http://a/cast"),
                    TermOrVar::iri(person),
                ),
            )
        };
        let run = |r: &RpsRewriting| {
            let stream = rw.plan(r).execute(
                ["x".into()].into(),
                ExecRoute::Rewritten,
                Semantics::Certain,
            );
            stream.into_set().tuples
        };
        // Prepared first, compiled only after two other queries — one
        // with a constant absent from the data — interned their own
        // constants into their own scratch copies.
        let first = rw.rewrite_canonical(&films_of("http://b/person3"), &cfg);
        let second = rw.rewrite_canonical(&films_of("http://b/person7"), &cfg);
        let absent = rw.rewrite_canonical(&films_of("http://nowhere/nobody"), &cfg);
        assert_eq!(
            rw.base.dict.values().len(),
            RpsRewriter::new(&sys).base.dict.values().len(),
            "rewriting never grows the rewriter's own dictionary"
        );
        assert!(run(&absent).is_empty());
        assert_eq!(
            run(&second),
            BTreeSet::from([vec![Term::iri("http://b/film7")]])
        );
        assert_eq!(
            run(&first),
            BTreeSet::from([vec![Term::iri("http://b/film3")]])
        );
        let sol = chase_system(&sys, &RpsChaseConfig::default());
        let chased = crate::answers::certain_answers(&sol, &films_of("http://b/person3"));
        assert_eq!(run(&first), chased.tuples);
    }

    /// A query over `triples`, projecting `head`.
    fn query(head: &[&str], triples: &[[TermOrVar; 3]]) -> GraphPatternQuery {
        GraphPatternQuery::new(
            head.iter().map(|h| v(h)).collect(),
            GraphPattern::from_patterns(
                triples
                    .iter()
                    .map(|[s, p, o]| TriplePattern::new(s.clone(), p.clone(), o.clone()))
                    .collect(),
            ),
        )
    }

    fn cast() -> TermOrVar {
        TermOrVar::iri("http://a/cast")
    }

    /// `SELECT ?x { ?x a:cast c }`.
    fn films_of(c: &Term) -> GraphPatternQuery {
        query(&["x"], &[[TermOrVar::var("x"), cast(), c.clone().into()]])
    }

    /// [`RpsRewriter::rewrite_canonical`] past the memo: the same
    /// interning, then the expansion run directly.
    fn expand_directly(
        rw: &RpsRewriter,
        query: &GraphPatternQuery,
        cfg: &RewriteConfig,
    ) -> RpsRewriting {
        let mut scratch = rw.base.clone();
        let id_query = RpsRewriter::intern(&canonicalize_query(query, &rw.index), &mut scratch);
        Expansion::from(rps_tgd::rewrite_ids(&id_query, &rw.canon_tgds, cfg))
            .into_rewriting(scratch)
    }

    fn executed(
        rw: &RpsRewriter,
        query: &GraphPatternQuery,
        r: &RpsRewriting,
    ) -> BTreeSet<Vec<Term>> {
        let vars = crate::session::stream_vars(query);
        let stream = rw
            .plan(r)
            .execute(vars, ExecRoute::Rewritten, Semantics::Certain);
        stream.into_set().tuples
    }

    /// The memoised rewriting of `query`, checked byte for byte against
    /// the direct expansion: union, flags, decoded branches, answers.
    fn memoised(rw: &RpsRewriter, query: &GraphPatternQuery, cfg: &RewriteConfig) -> RpsRewriting {
        let memo = rw.rewrite_canonical(query, cfg);
        let direct = expand_directly(rw, query, cfg);
        assert_eq!(memo.id_cqs[..], direct.id_cqs[..], "{query:?}");
        assert_eq!(memo.complete, direct.complete, "{query:?}");
        assert_eq!(memo.explored, direct.explored, "{query:?}");
        assert_eq!(memo.branches(), direct.branches(), "{query:?}");
        assert_eq!(
            executed(rw, query, &memo),
            executed(rw, query, &direct),
            "{query:?}"
        );
        memo
    }

    #[test]
    fn memoised_expansion_equals_direct_expansion_on_a_seeded_sweep() {
        let sys = sized_system(44);
        let cfg = RewriteConfig::default();
        let person = |i: usize| Term::iri(format!("http://b/person{i}"));
        let mentioned = [Term::iri("http://a/cast"), Term::iri("http://b/actor")];
        let absent = Term::iri("http://nowhere/nobody");
        let lit_person = Term::literal("http://b/person3");
        let lit_actor = Term::literal("http://b/actor");
        let mut pool: Vec<Term> = (0..44).map(person).collect();
        pool.extend(mentioned.iter().cloned());
        pool.extend([
            absent.clone(),
            Term::iri("http://nowhere/else"),
            lit_person.clone(),
            lit_actor.clone(),
            // One equivalence class: both canonicalise to one constant.
            Term::iri("http://a/p1"),
            Term::iri("http://b/p2"),
        ]);
        assert!(pool.len() >= 50);
        for seed in crate::equivalence::tests::sweep_seeds() {
            let rw = RpsRewriter::new(&sys);
            // xorshift64; the state must not be zero.
            let mut state = seed | 1;
            let mut below = move |n: usize| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % n as u64) as usize
            };
            let mut order = pool.clone();
            for i in (1..order.len()).rev() {
                order.swap(i, below(i + 1));
            }

            // One shape under every constant of the pool, in a seeded
            // order: the ones no mapping mentions share one key and one
            // union, each mentioned one has its own.
            let mut shared: Option<Arc<[IdCq]>> = None;
            for c in &order {
                let r = memoised(&rw, &films_of(c), &cfg);
                if mentioned.contains(c) {
                    continue;
                }
                match &shared {
                    None => shared = Some(r.id_cqs.clone()),
                    Some(union) => assert!(Arc::ptr_eq(union, &r.id_cqs), "seed {seed}: {c}"),
                }
            }
            assert_eq!(rw.memo().len(), 1 + mentioned.len(), "seed {seed}");
            let films = |c: &Term| {
                let q = films_of(c);
                (rw.rewrite_canonical(&q, &cfg), q)
            };
            let ((live, live_q), (dead, dead_q)) = (films(&person(3)), films(&absent));
            assert!(Arc::ptr_eq(&live.id_cqs, &dead.id_cqs));
            assert_eq!(
                executed(&rw, &live_q, &live),
                BTreeSet::from([vec![Term::iri("http://b/film3")]])
            );
            assert!(executed(&rw, &dead_q, &dead).is_empty(), "a dead branch");
            // A literal and an IRI of one lexical form: the literal is a
            // fresh constant either way, the mentioned IRI is not.
            let (lit, lit_q) = films(&lit_person);
            assert!(Arc::ptr_eq(&live.id_cqs, &lit.id_cqs));
            assert!(executed(&rw, &lit_q, &lit).is_empty());
            let (as_literal, _) = films(&lit_actor);
            let (as_iri, _) = films(&mentioned[1]);
            assert!(Arc::ptr_eq(&live.id_cqs, &as_literal.id_cqs));
            assert!(!Arc::ptr_eq(&live.id_cqs, &as_iri.id_cqs));

            // The same constant twice is another key than two distinct
            // ones.
            let pair = |a: &Term, b: &Term| {
                let q = query(
                    &["p"],
                    &[[a.clone().into(), TermOrVar::var("p"), b.clone().into()]],
                );
                memoised(&rw, &q, &cfg).id_cqs
            };
            let before = rw.memo().len();
            let (same, same_again) = (pair(&person(3), &person(3)), pair(&person(5), &person(5)));
            let (two, two_again) = (pair(&person(3), &person(4)), pair(&person(6), &absent));
            assert!(Arc::ptr_eq(&same, &same_again) && Arc::ptr_eq(&two, &two_again));
            assert!(!Arc::ptr_eq(&same, &two));
            assert_eq!(rw.memo().len(), before + 2, "seed {seed}");

            // Seeded shapes over seeded constants, a repeat one time in
            // four: Example 3's Boolean shape, a variable predicate, a
            // join.
            for _ in 0..50 {
                let a = order[below(order.len())].clone();
                let b = match below(4) {
                    0 => a.clone(),
                    _ => order[below(order.len())].clone(),
                };
                let var = TermOrVar::var;
                let q = match below(3) {
                    0 => query(&[], &[[a.into(), cast(), b.into()]]),
                    1 => {
                        let join = [[a.into(), var("p"), var("x")], [var("x"), cast(), b.into()]];
                        query(&["p", "x"], &join)
                    }
                    _ => {
                        let join = [[var("x"), cast(), var("y")], [var("x"), cast(), a.into()]];
                        query(&["x", "y"], &join)
                    }
                };
                memoised(&rw, &q, &cfg);
            }
        }
    }

    #[test]
    fn the_memo_evicts_its_oldest_expansion_and_answers_stay() {
        let sys = sized_system(10);
        let cfg = RewriteConfig::default();
        let mut rw = RpsRewriter::new(&sys);
        rw.memo = Mutex::new(Fifo::new(4));
        let (p3, p4) = (Term::iri("http://b/person3"), Term::iri("http://b/person4"));
        let (x, p) = (TermOrVar::var("x"), TermOrVar::var("p"));
        let shapes = [
            films_of(&p3),
            films_of(&Term::iri("http://b/actor")),
            query(&["p"], &[[p3.clone().into(), p.clone(), p4.clone().into()]]),
            query(&["p"], &[[p3.clone().into(), p, p3.clone().into()]]),
            query(
                &[],
                &[[Term::iri("http://b/film3").into(), cast(), p3.into()]],
            ),
            query(
                &["x"],
                &[
                    [x.clone(), cast(), TermOrVar::var("y")],
                    [x, cast(), p4.into()],
                ],
            ),
        ];
        let first: Vec<RpsRewriting> = shapes.iter().map(|q| memoised(&rw, q, &cfg)).collect();
        assert_eq!(rw.memo().len(), 4);
        // Newest first, so no probe evicts what a later one looks for:
        // the four newest are hits, the two oldest expand afresh.
        for (i, q) in shapes.iter().enumerate().rev() {
            let again = memoised(&rw, q, &cfg);
            assert_eq!(
                Arc::ptr_eq(&again.id_cqs, &first[i].id_cqs),
                i >= 2,
                "{q:?}"
            );
            assert_eq!(again.id_cqs[..], first[i].id_cqs[..]);
            assert_eq!(executed(&rw, q, &again), executed(&rw, q, &first[i]));
        }
        assert_eq!(rw.memo().len(), 4);
    }

    /// One rewriter under tight, default, then tight budgets again: a
    /// complete union memoised under the default budgets must not be
    /// served to a budget that runs out.
    #[test]
    fn budgets_are_part_of_the_memo_key() {
        let sys = linear_system();
        let rw = RpsRewriter::new(&sys);
        // Too small for the expansion of the cast query to finish.
        let tight = RewriteConfig {
            max_cqs: 1,
            ..RewriteConfig::default()
        };
        assert!(!memoised(&rw, &cast_query(), &tight).complete);
        let complete = memoised(&rw, &cast_query(), &RewriteConfig::default());
        assert!(complete.complete);
        let sol = chase_system(&sys, &RpsChaseConfig::default());
        let chased = crate::answers::certain_answers(&sol, &cast_query());
        assert_eq!(executed(&rw, &cast_query(), &complete), chased.tuples);
        assert_eq!(chased.len(), 4);
        assert!(!memoised(&rw, &cast_query(), &tight).complete);
        assert_eq!(rw.memo().len(), 2, "one entry per budget");
    }
}
