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
//! a dictionary holding the TGDs' constants and nothing else. A rewriting
//! interns its query's constants into a scratch copy of that dictionary,
//! which the returned [`RpsRewriting`] carries; the plan of a query
//! whose shape was seen interns nothing.
//!
//! **A query shape is rewritten and compiled once.** Section 4 and
//! Example 3 rewrite one query shape again and again with only its
//! constants changed, so the rewriter keeps, per *shape key*, the
//! id-level union of the query and its branches compiled over the
//! canonical graph with *parameters* in place of the query's own
//! constants; a query of a seen shape looks up its parameters' ids in
//! that graph, writes them into the branches and plans each with
//! [`rps_query::PreparedQueryIds::from_id_slots`] — no interning, no
//! expansion, no decoding of the union. [`rps_tgd::rewrite_ids`] runs on
//! a miss only. The key is computed without interning: variables are numbered
//! by first occurrence (head first, then body), each constant is
//! canonicalised once through the [`EquivalenceIndex`], and a constant
//! stays *literal* (keyed by its term) if the canonical TGDs mention it,
//! if it occurs at predicate position anywhere in the query (so a shape
//! fixes its predicates) or if it is a blank node (which interns as a
//! labelled null, not a constant); every other
//! constant is a *parameter*, numbered by first occurrence, so `c ?p c`
//! and `c1 ?p c2` are two keys. The budgets `max_depth` and `max_cqs`
//! are part of the key, so a complete union is never served to a budget
//! that would have run out.
//!
//! The memo is exact, with no genericity argument. Interning the query
//! gives the constants the canonical TGDs mention their ids in the
//! rewriter's base dictionary and every other constant a fresh id
//! `base_len..` in order of first occurrence; the key refines that
//! partition, so two queries of one key intern to the same `IdCq`. The
//! expansion reads nothing but that `IdCq`, the fixed compiled TGDs and
//! the budgets, and is deterministic, so it is the byte-identical union.
//! In it, each fresh id stands for one of the query's constants: a
//! literal one has the same canonical-graph id for every query of the
//! key, a parameter's is looked up per query. Binding writes those ids
//! into the branches' conjuncts, kept in the rewriting's order, and
//! plans them as a compile of the query's own constants would. So a
//! bound branch equals a fresh compile field by field by construction:
//! its join order, scans, satisfiability (a parameter the graph lacks
//! makes its branch unsatisfiable) and head (a head parameter the graph
//! lacks drops its branch, as a compile drops a head constant without an
//! id).
//! The memo is a FIFO of [`crate::DEFAULT_PLAN_CACHE_CAPACITY`] entries
//! whose unions and branches are `Arc`-shared with the rewritings and
//! plans it hands out; its mutex is held for the probe and for the
//! insert, never across an expansion or a compile.
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
use crate::equivalence::{canonicalize_query, expand_rows, ClassTable, EquivalenceIndex};
use crate::error::RpsError;
use crate::mapping::EquivalenceMapping;
use crate::session::frozen::{Fifo, Slots};
use crate::session::{
    AnswerStream, Arg, BranchTemplate, ExecRoute, GraphHandle, Plan, DEFAULT_PLAN_CACHE_CAPACITY,
};
use crate::system::RdfPeerSystem;
use rps_query::{
    GraphPattern, GraphPatternQuery, RowSink, Semantics, TermOrVar, TriplePattern, UnionQuery,
    Variable,
};
use rps_rdf::{Graph, Term, TermId};
use rps_tgd::{
    Classification, IdArg, IdCq, IdRewriteResult, IdTgdSet, Instance, RewriteConfig, Sym, Tgd,
    ValId,
};
use std::collections::{BTreeSet, HashSet};
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
/// rewriting's memo: keyed on the query's shape and the two budgets,
/// exact because the expansion and the compiled branches read nothing
/// else, bounded to [`crate::DEFAULT_PLAN_CACHE_CAPACITY`] entries
/// (FIFO), and locked for a hash probe or an insert only — see the
/// [module docs](self).
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
    /// The canonical TGD constants as terms: the constants a shape key
    /// keeps literal because `base` interns them.
    mentioned: HashSet<Term>,
    /// The canonicalised stored database — the one copy of the sources,
    /// and the evaluation substrate of the branch plans [`Plan::bound`] builds.
    /// `Arc`-shared and sealed at build time so compiled plans (and the
    /// frozen sessions of `rps-core`/`rps-p2p`) can evaluate against it
    /// concurrently without holding the rewriter. Its dictionary also
    /// holds the canonical TGD constants and the members of every class
    /// it mentions, so a specialised head and an expanded answer are ids
    /// of it.
    canon_graph: Arc<Graph>,
    /// The equivalence classes as ids of `canon_graph`'s dictionary.
    classes: Arc<ClassTable>,
    /// Expansions and compiled branches by query shape and budgets.
    memo: Mutex<Fifo<Arc<ShapeKey>, Entry>>,
}

/// What an expansion and its compiled branches depend on: the query's
/// shape (see the [module docs](self)) and [`RewriteConfig`]'s
/// `max_depth` and `max_cqs`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct ShapeKey {
    arity: usize,
    /// The head's variables, then each conjunct's three positions.
    args: Vec<KeyArg>,
    max_depth: usize,
    max_cqs: usize,
}

/// One position of a [`ShapeKey`].
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum KeyArg {
    /// A variable, numbered by first occurrence.
    Var(usize),
    /// A literal constant, canonicalised.
    Term(Term),
    /// A parameter, numbered by first occurrence.
    Param(usize),
}

/// One memo entry: a shape's expansion and its branches compiled over
/// the canonical graph with parameters.
#[derive(Clone)]
struct Entry {
    expansion: Expansion,
    branches: Arc<[BranchTemplate]>,
}

/// A query shape's complete expansion, compiled, as the SPARQL front of a
/// frozen session keeps it for a lowered CQ of a text shape: its key, to
/// check a bound text against, and its branches.
pub(crate) struct RewriteTemplate {
    key: ShapeKey,
    branches: Arc<[BranchTemplate]>,
}

/// A query compiled on the rewritten route: its plan, and whether its
/// rewriting finished within the budgets.
pub(crate) struct RewrittenPlan {
    pub(crate) plan: Plan,
    pub(crate) complete: bool,
    pub(crate) explored: usize,
}

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
        let mut mentioned = HashSet::new();
        for gma in system.assertions() {
            for side in [&gma.premise, &gma.conclusion] {
                for constant in side.pattern().constants() {
                    let constant = index.canonical_term(&constant);
                    canon_graph.intern(&constant);
                    mentioned.insert(constant);
                }
            }
        }
        let classes = Arc::new(ClassTable::intern(&index, &mut canon_graph));
        // The canonical graph never changes after this point: seal it so
        // branch-plan scans merge immutable runs only, and rank its
        // dictionary, which the rewritten and federated routes' SPARQL
        // tail sorts answers by.
        canon_graph.seal();
        canon_graph.term_order();
        RpsRewriter {
            gma_tgds,
            equivalences: system.equivalences().to_vec(),
            classification,
            index,
            canon_tgds,
            base: Interner { dict, encoder },
            mentioned,
            canon_graph: Arc::new(canon_graph),
            classes,
            memo: Mutex::new(Fifo::new(DEFAULT_PLAN_CACHE_CAPACITY)),
        }
    }

    /// Locks the memo, recovering it if the mutex is poisoned.
    /// That is sound because a guard only ever lives for a hash probe or
    /// a whole-entry insert (the oldest entry unlinked, then one added;
    /// the caller frees what was unlinked after the guard):
    /// `std` collection calls and `Arc` clones, which do not panic short
    /// of an allocation failure, and that aborts. The expansion and the
    /// compile run unlocked. So the memo behind a poisoned lock is one such
    /// step's before or after, every entry in it whole.
    fn memo(&self) -> MutexGuard<'_, Fifo<Arc<ShapeKey>, Entry>> {
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

    /// The federated engine's answer rows — ids of [`Self::canon_graph`],
    /// whose dictionary the engine's clones — expanded over the classes,
    /// as the stream every route answers in.
    pub fn federated_stream(
        &self,
        vars: Arc<[Variable]>,
        rows: &BTreeSet<Vec<TermId>>,
    ) -> AnswerStream {
        let mut packed = RowSink::new(vars.len());
        rows.iter().for_each(|row| packed.push(row.iter().copied()));
        let rows = expand_rows(packed.finish(), &self.classes);
        let graph = GraphHandle::Quotient(self.canon_graph.clone());
        AnswerStream::new(vars, ExecRoute::Federated, graph, rows)
    }

    /// The plan of `query` on the rewritten route: its shape's branches,
    /// from the memo or expanded and compiled now, bound to its own
    /// constants, over the (shared, sealed) canonical stored graph, with
    /// answers expanded over the classes — so execution needs no access
    /// to the rewriter. A seen shape costs the key, one probe, a lookup
    /// per parameter and the bind (see the [module docs](self)).
    pub(crate) fn plan(&self, query: &GraphPatternQuery, cfg: &RewriteConfig) -> RewrittenPlan {
        let (key, params) = self.shape(query, cfg);
        let entry = self.entry(key, query, cfg);
        RewrittenPlan {
            plan: self.bound(&entry.branches, &params),
            complete: entry.expansion.complete,
            explored: entry.expansion.explored,
        }
    }

    /// The memo's entry for `query`, whose shape key is `key`: the one
    /// held, or expanded and compiled now.
    fn entry(&self, key: ShapeKey, query: &GraphPatternQuery, cfg: &RewriteConfig) -> Entry {
        // Bound first: the guard must not live into the miss path.
        let hit = self.memo().get(&key);
        hit.unwrap_or_else(|| {
            let mut scratch = self.base.clone();
            let id_query = Self::intern(&canonicalize_query(query, &self.index), &mut scratch);
            self.expand(key, &id_query, &scratch, cfg)
        })
    }

    /// `branches` bound to the canonical constants `params` stand for and
    /// planned over the canonical graph, answers expanded over the
    /// classes.
    fn bound(&self, branches: &[BranchTemplate], params: &[Term]) -> Plan {
        let values: Vec<Option<TermId>> =
            params.iter().map(|c| self.canon_graph.term_id(c)).collect();
        let graph = GraphHandle::Quotient(self.canon_graph.clone());
        let value = |k: usize| values.get(k).copied().flatten();
        Plan::bound(graph, branches, value, Some(self.classes.clone()))
    }

    /// The template of `query`'s shape under `cfg`'s budgets, for a
    /// frozen session's SPARQL front: its key and compiled branches, from
    /// the memo or expanded now. `None` when the expansion ran out of
    /// budget — a text of this shape then takes the plan cache's path,
    /// which falls back or fails as [`Self::plan`]'s caller decides.
    pub(crate) fn template(
        &self,
        query: &GraphPatternQuery,
        cfg: &RewriteConfig,
    ) -> Option<RewriteTemplate> {
        let (key, _) = self.shape(query, cfg);
        let entry = self.entry(key.clone(), query, cfg);
        entry.expansion.complete.then_some(RewriteTemplate {
            key,
            branches: entry.branches,
        })
    }

    /// The plan of `query` — a lowered CQ of a SPARQL template — with
    /// `value` giving each of its constants its term, from `template`:
    /// the shape's key is computed as for any query and must be the
    /// template's, then the branches are bound as [`Self::plan`] binds
    /// them, with no probe of the memo. `None` when the key differs (one
    /// of the text's constants is one the TGDs mention, or two of them
    /// are one canonical term where the template's were not).
    pub(crate) fn plan_from<'q>(
        &self,
        template: &RewriteTemplate,
        query: &'q GraphPatternQuery,
        cfg: &RewriteConfig,
        value: impl Fn(&'q Term) -> &'q Term,
    ) -> Option<Plan> {
        let (key, params) = self.shape_with(query, cfg, value);
        (key == template.key).then(|| self.bound(&template.branches, &params))
    }

    /// `query`'s shape key under `cfg`'s budgets, and the canonical
    /// constants its parameters stand for, in parameter order (see the
    /// [module docs](self)).
    fn shape(&self, query: &GraphPatternQuery, cfg: &RewriteConfig) -> (ShapeKey, Vec<Term>) {
        self.shape_with(query, cfg, |c| c)
    }

    /// [`Self::shape`] of `query` with each constant `c` read as
    /// `value(c)`.
    fn shape_with<'q>(
        &self,
        query: &'q GraphPatternQuery,
        cfg: &RewriteConfig,
        value: impl Fn(&'q Term) -> &'q Term,
    ) -> (ShapeKey, Vec<Term>) {
        let mut vars = Slots::default();
        let patterns = query.pattern().patterns();
        let mut args = Vec::with_capacity(query.arity() + 3 * patterns.len());
        for v in query.free_vars() {
            args.push(KeyArg::Var(vars.slot(v.name())));
        }
        // Each constant canonicalised once, and literal until shown not
        // to be.
        for tv in patterns.iter().flat_map(|tp| [&tp.s, &tp.p, &tp.o]) {
            args.push(match tv {
                TermOrVar::Var(v) => KeyArg::Var(vars.slot(v.name())),
                TermOrVar::Term(c) => KeyArg::Term(self.index.canonical_term(value(c))),
            });
        }
        let mut params: Vec<Term> = Vec::new();
        let body = query.arity();
        for at in (body..args.len()).filter(|at| (at - body) % 3 != 1) {
            let KeyArg::Term(c) = &args[at] else {
                continue;
            };
            let mut predicates = args[body + 1..].iter().step_by(3);
            if c.is_blank()
                || predicates.any(|p| matches!(p, KeyArg::Term(p) if p == c))
                || self.mentioned.contains(c)
            {
                continue;
            }
            // Numbered by first occurrence: a query holds a handful.
            let k = params.iter().position(|p| p == c).unwrap_or(params.len());
            if k == params.len() {
                params.push(c.clone());
            }
            args[at] = KeyArg::Param(k);
        }
        let key = ShapeKey {
            arity: query.arity(),
            args,
            max_depth: cfg.max_depth,
            max_cqs: cfg.max_cqs,
        };
        (key, params)
    }

    /// A memo miss: expands `id_query` — a query of shape `key`, interned
    /// into `scratch` — compiles its branches with the key's parameters
    /// left open, and inserts the entry. A concurrent miss on the same key
    /// that inserted first wins, and its entry is returned.
    fn expand(
        &self,
        key: ShapeKey,
        id_query: &IdCq,
        scratch: &Interner,
        cfg: &RewriteConfig,
    ) -> Entry {
        let expansion = Expansion::from(rps_tgd::rewrite_ids(id_query, &self.canon_tgds, cfg));
        // `intern_cq` keeps the conjuncts and their positions in order, so
        // the key and the interned query line up position by position.
        let mut params: Vec<(ValId, usize)> = Vec::new();
        let body = id_query.body.iter().flat_map(|atom| &atom.args);
        for (arg, id_arg) in key.args[key.arity..].iter().zip(body) {
            if let (KeyArg::Param(k), IdArg::Const(v)) = (arg, id_arg) {
                debug_assert!(
                    v.index() >= self.base.dict.values().len(),
                    "a literal parameter"
                );
                params.push((*v, *k));
            }
        }
        let branches = self.compile(&expansion.cqs, scratch, &params).into();
        let entry = Entry {
            expansion,
            branches,
        };
        // Dropped after the guard, like the plan cache's evictions.
        let (entry, _released) = self.memo().insert(Arc::new(key), entry);
        entry
    }

    /// Interns `query` into `scratch` as a numbered-variable id-CQ — the
    /// first step of both rewritings.
    fn intern(query: &GraphPatternQuery, scratch: &mut Interner) -> IdCq {
        let cq = query_to_cq(query, &mut scratch.encoder, false);
        rps_tgd::intern_cq(&cq, &mut scratch.dict)
    }

    /// Rewrites a query under the *canonicalised graph-mapping TGDs only*
    /// (the combined approach), entirely at the id level, for a caller
    /// that reads the union itself: [`RpsRewriting::branches`] decodes it
    /// for federation, whose answers come back through
    /// [`Self::federated_stream`]. The local routes compile
    /// through `plan` instead. The expansion comes from the memo when a
    /// query of this shape ran under these budgets before (see the
    /// [module docs](self)).
    pub fn rewrite_canonical(
        &self,
        query: &GraphPatternQuery,
        cfg: &RewriteConfig,
    ) -> RpsRewriting {
        let (key, _) = self.shape(query, cfg);
        let mut scratch = self.base.clone();
        let id_query = Self::intern(&canonicalize_query(query, &self.index), &mut scratch);
        let hit = self.memo().get(&key);
        let entry = match hit {
            Some(entry) => entry,
            None => self.expand(key, &id_query, &scratch, cfg),
        };
        entry.expansion.into_rewriting(scratch)
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

    /// Compiles a canonical union's id-CQ branches (ids of `scratch`)
    /// into [`BranchTemplate`]s over the canonical stored graph, the values
    /// `params` names as parameters. Branch bodies are `tt/3` atoms by
    /// construction, so each maps positionally onto triple-pattern
    /// conjuncts; other constants resolve through the graph's own
    /// dictionary. Branches whose head was specialised to a labelled null
    /// are dropped (no certain tuple can come from them); branches
    /// mentioning values absent from the graph's dictionary bind to
    /// unsatisfiable plans.
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
    /// without an id matches no stored triple. A head parameter follows
    /// the same argument at bind time.
    fn compile(
        &self,
        cqs: &[IdCq],
        scratch: &Interner,
        params: &[(ValId, usize)],
    ) -> Vec<BranchTemplate> {
        let tt = scratch.dict.pred_id("tt");
        // Each distinct constant is resolved once per call: its parameter,
        // or its id (`None` when the graph lacks it).
        let mut memo: Vec<Option<Option<Arg>>> = vec![None; scratch.dict.values().len()];
        let mut resolve = |v: ValId| {
            *memo[v.index()].get_or_insert_with(|| match params.iter().find(|(p, _)| *p == v) {
                Some(&(_, k)) => Some(Arg::Param(k)),
                None => self.canon_graph.term_id(&scratch.term(v)).map(Arg::Const),
            })
        };
        let mut out = Vec::with_capacity(cqs.len());
        'branches: for cq in cqs {
            let nvars = (cq.nvars() as usize).max(1);
            let mut satisfiable = true;
            let mut in_body = vec![false; nvars];
            let mut body: Vec<[Arg; 3]> = Vec::with_capacity(cq.body.len());
            for atom in &cq.body {
                if Some(atom.pred) != tt || atom.args.len() != 3 {
                    continue 'branches; // not a stored-triple atom
                }
                let mut slot = [Arg::Var(0); 3];
                for (i, arg) in atom.args.iter().enumerate() {
                    slot[i] = match arg {
                        IdArg::Var(v) => {
                            in_body[*v as usize] = true;
                            Arg::Var(*v as usize)
                        }
                        IdArg::Const(c) => resolve(*c).unwrap_or_else(|| {
                            // Dead branch; the placeholder slot is never
                            // consulted.
                            satisfiable = false;
                            Arg::Var(0)
                        }),
                    };
                }
                body.push(slot);
            }
            let mut proj: Vec<usize> = Vec::new();
            let mut head: Vec<Arg> = Vec::with_capacity(cq.head.len());
            let mut head_bound = true;
            for arg in &cq.head {
                head.push(match arg {
                    IdArg::Var(v) => {
                        head_bound &= in_body[*v as usize];
                        proj.push(*v as usize);
                        Arg::Var(*v as usize)
                    }
                    IdArg::Const(c) if scratch.dict.values().is_null(*c) => {
                        continue 'branches; // never a certain answer
                    }
                    IdArg::Const(c) => match resolve(*c) {
                        Some(arg) => arg,
                        None => {
                            debug_assert!(!satisfiable, "a head constant without an id");
                            continue 'branches; // dead, see above
                        }
                    },
                });
            }
            // A head of variables only is the row as it is.
            if head.iter().all(|arg| matches!(arg, Arg::Var(_))) {
                head = Vec::new();
            }
            out.push(BranchTemplate {
                body,
                nvars,
                proj: head_bound.then_some(proj),
                satisfiable,
                head,
            });
        }
        out
    }

    /// Rewrites and evaluates a query over the stored database via the
    /// *combined* approach (quotient for equivalences, UCQ rewriting for
    /// graph mappings). Returns the answers and whether the rewriting
    /// was exhaustive.
    pub fn answers(&self, query: &GraphPatternQuery, cfg: &RewriteConfig) -> (AnswerSet, bool) {
        let rewritten = self.plan(query, cfg);
        let vars = crate::session::stream_vars(query);
        let stream = (rewritten.plan).execute(vars, ExecRoute::Rewritten, Semantics::Certain);
        (stream.into_set(), rewritten.complete)
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
        let arity = query.arity();
        if tuple.len() != arity {
            return Err(RpsError::Arity {
                expected: arity,
                got: tuple.len(),
            });
        }
        Ok(self.certain(query, tuple, cfg))
    }

    /// [`Self::is_certain_answer`] of a tuple of the query's arity.
    fn certain(&self, query: &GraphPatternQuery, tuple: &[Term], cfg: &RewriteConfig) -> bool {
        let free = query.free_vars();
        let bound = query
            .pattern()
            .substitute(&|v| free.iter().position(|f| f == v).map(|i| tuple[i].clone()));
        let rewritten = self.plan(&GraphPatternQuery::boolean(bound), cfg);
        rewritten.plan.branches.iter().any(|(plan, _)| {
            let witness = plan.evaluate_rows(&self.canon_graph, Semantics::Certain);
            !witness.is_empty()
        })
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
            if self.certain(query, &tuple, cfg) {
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
            let stream = compiled(&rw, r).execute(
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

    /// A rewriting's branches compiled with its own constants, no
    /// parameter: what a bound plan must equal.
    fn compiled(rw: &RpsRewriter, r: &RpsRewriting) -> Plan {
        rw.bound(&rw.compile(&r.id_cqs, &r.scratch, &[]), &[])
    }

    fn run(query: &GraphPatternQuery, plan: &Plan) -> BTreeSet<Vec<Term>> {
        let vars = crate::session::stream_vars(query);
        let stream = plan.execute(vars, ExecRoute::Rewritten, Semantics::Certain);
        stream.into_set().tuples
    }

    fn executed(
        rw: &RpsRewriter,
        query: &GraphPatternQuery,
        r: &RpsRewriting,
    ) -> BTreeSet<Vec<Term>> {
        run(query, &compiled(rw, r))
    }

    /// The memoised rewriting of `query`, checked byte for byte against
    /// the direct expansion — union, flags, decoded branches, answers —
    /// and its plan, bound from the memo's branches, against the direct
    /// expansion's compiled with the query's own constants: equal field
    /// by field (join order, `planned_scans()`, satisfiability, head),
    /// with equal answers. `plan_first` takes the memo's miss through the
    /// serving path rather than [`RpsRewriter::rewrite_canonical`].
    fn memoised_with(
        rw: &RpsRewriter,
        query: &GraphPatternQuery,
        cfg: &RewriteConfig,
        plan_first: bool,
    ) -> RpsRewriting {
        let (bound, memo) = if plan_first {
            let bound = rw.plan(query, cfg);
            (bound, rw.rewrite_canonical(query, cfg))
        } else {
            let memo = rw.rewrite_canonical(query, cfg);
            (rw.plan(query, cfg), memo)
        };
        let direct = expand_directly(rw, query, cfg);
        assert_eq!(memo.id_cqs[..], direct.id_cqs[..], "{query:?}");
        assert_eq!(memo.complete, direct.complete, "{query:?}");
        assert_eq!(memo.explored, direct.explored, "{query:?}");
        assert_eq!(memo.branches(), direct.branches(), "{query:?}");
        let fresh = compiled(rw, &direct);
        assert_eq!(bound.plan.branches, fresh.branches, "{query:?}");
        for ((plan, _), (fresh_plan, _)) in bound.plan.branches.iter().zip(&fresh.branches) {
            assert_eq!(
                plan.planned_scans(),
                fresh_plan.planned_scans(),
                "{query:?}"
            );
        }
        assert_eq!(bound.complete, direct.complete, "{query:?}");
        assert_eq!(bound.explored, direct.explored, "{query:?}");
        assert_eq!(run(query, &bound.plan), run(query, &fresh), "{query:?}");
        memo
    }

    fn memoised(rw: &RpsRewriter, query: &GraphPatternQuery, cfg: &RewriteConfig) -> RpsRewriting {
        memoised_with(rw, query, cfg, false)
    }

    #[test]
    fn memoised_expansion_equals_direct_expansion_on_a_seeded_sweep() {
        let mut sys = sized_system(44);
        // A class member of a mapping constant: canonicalised, it is the
        // mapping's constant (or that is it), and stays literal.
        let member = Term::iri("http://c/performer");
        sys.add_equivalence(EquivalenceMapping::new(
            rps_rdf::Iri::new("http://b/actor"),
            rps_rdf::Iri::new("http://c/performer"),
        ));
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
        assert!(pool.len() >= 52);
        pool.push(member.clone());
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
            // union, each mentioned one has its own, and the class member
            // shares its mapping constant's.
            let mut shared: Option<Arc<[IdCq]>> = None;
            for c in &order {
                let r = memoised_with(&rw, &films_of(c), &cfg, below(2) == 0);
                if mentioned.contains(c) || *c == member {
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
            assert!(run(&dead_q, &rw.plan(&dead_q, &cfg).plan).is_empty());
            // A literal and an IRI of one lexical form: the literal is a
            // parameter either way, the mentioned IRI is not.
            let (lit, lit_q) = films(&lit_person);
            assert!(Arc::ptr_eq(&live.id_cqs, &lit.id_cqs));
            assert!(executed(&rw, &lit_q, &lit).is_empty());
            let (as_literal, _) = films(&lit_actor);
            let (as_iri, _) = films(&mentioned[1]);
            let (as_member, _) = films(&member);
            assert!(Arc::ptr_eq(&live.id_cqs, &as_literal.id_cqs));
            assert!(!Arc::ptr_eq(&live.id_cqs, &as_iri.id_cqs));
            assert!(Arc::ptr_eq(&as_iri.id_cqs, &as_member.id_cqs));

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

            // A constant at predicate position stays literal, so two
            // predicates no mapping mentions are two keys, of one union.
            let before = rw.memo().len();
            let (x, y) = (TermOrVar::var("x"), TermOrVar::var("y"));
            let by = |p: &Term| query(&["x"], &[[x.clone(), p.clone().into(), y.clone()]]);
            let one = memoised(&rw, &by(&person(3)), &cfg).id_cqs;
            let other = memoised(&rw, &by(&person(4)), &cfg).id_cqs;
            assert!(!Arc::ptr_eq(&one, &other) && one[..] == other[..]);
            assert_eq!(rw.memo().len(), before + 2, "seed {seed}");
            // ... and at every other position it holds, so `p p ?y` and
            // `s p ?y` are two keys.
            let before = rw.memo().len();
            let from = |s: &Term| query(&["y"], &[[s.clone().into(), person(3).into(), y.clone()]]);
            memoised(&rw, &from(&person(3)), &cfg);
            memoised(&rw, &from(&person(4)), &cfg);
            assert_eq!(rw.memo().len(), before + 2, "seed {seed}");

            // Seeded shapes over seeded constants, a repeat one time in
            // four: Example 3's Boolean shape, a variable predicate, a
            // join, a constant predicate.
            for _ in 0..50 {
                let a = order[below(order.len())].clone();
                let b = match below(4) {
                    0 => a.clone(),
                    _ => order[below(order.len())].clone(),
                };
                let var = TermOrVar::var;
                let q = match below(4) {
                    0 => query(&[], &[[a.into(), cast(), b.into()]]),
                    1 => {
                        let join = [[a.into(), var("p"), var("x")], [var("x"), cast(), b.into()]];
                        query(&["p", "x"], &join)
                    }
                    2 => {
                        let join = [[var("x"), cast(), var("y")], [var("x"), cast(), a.into()]];
                        query(&["x", "y"], &join)
                    }
                    _ => {
                        let join = [[var("x"), a.into(), var("y")], [var("y"), cast(), b.into()]];
                        query(&["x"], &join)
                    }
                };
                memoised_with(&rw, &q, &cfg, below(2) == 0);
            }
        }
    }

    /// The literal constants of a shape key are the canonical TGD
    /// constants: exactly the terms the rewriter's base dictionary
    /// interns, so a parameter never interns to a base id.
    #[test]
    fn the_mentioned_constants_are_the_base_dictionary() {
        let rw = RpsRewriter::new(&sized_system(4));
        let values = rw.base.dict.values();
        let base: HashSet<Term> = (0..values.len())
            .map(|i| rw.base.term(ValId(i as u32)))
            .collect();
        assert_eq!(base, rw.mentioned);
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
        let (first, bound): (Vec<RpsRewriting>, Vec<Plan>) = (shapes.iter())
            .map(|q| (memoised(&rw, q, &cfg), rw.plan(q, &cfg).plan))
            .unzip();
        assert_eq!(rw.memo().len(), 4);
        // Newest first, so no probe evicts what a later one looks for:
        // the four newest are hits, the two oldest expand and compile
        // afresh, and bind to the same plans.
        for (i, q) in shapes.iter().enumerate().rev() {
            let again = memoised(&rw, q, &cfg);
            assert_eq!(
                Arc::ptr_eq(&again.id_cqs, &first[i].id_cqs),
                i >= 2,
                "{q:?}"
            );
            assert_eq!(again.id_cqs[..], first[i].id_cqs[..]);
            assert_eq!(executed(&rw, q, &again), executed(&rw, q, &first[i]));
            assert_eq!(rw.plan(q, &cfg).plan.branches, bound[i].branches, "{q:?}");
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
