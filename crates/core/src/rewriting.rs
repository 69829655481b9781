//! Section 4: query rewriting for RPSs.
//!
//! The rewriter encodes the system's mappings as TGDs (dropping the `rt`
//! guards, which is lossless for blank-node-free sources — the paper's
//! own simplification), classifies them (Proposition 2: linear / sticky /
//! sticky-join sets admit a perfect UCQ rewriting), expands the query
//! with the `rps-tgd` rewriting engine, and evaluates the union directly
//! over the stored database.
//!
//! It also implements the Example 3 / Listing 2 procedure literally:
//! deciding whether a tuple is a certain answer by substituting it into
//! the query, rewriting the resulting Boolean query into a UNION of ASKs,
//! and evaluating that over the sources.

use crate::answers::AnswerSet;
use crate::encode::{
    encode_system, graph_as_tt, graph_as_tt_mapped, query_to_cq, DataExchange, Encoder,
};
use crate::system::RdfPeerSystem;
use rps_query::{
    GraphPattern, GraphPatternQuery, PlanSlot, PreparedQueryIds, TermOrVar, UnionQuery, Variable,
};
use rps_rdf::{Graph, Term, TermId};
use rps_tgd::{AtomArg, Classification, Cq, IdArg, IdCq, IdTgdSet, Instance, RewriteConfig, Tgd};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Which instance dictionary a rewriting's id-CQs were interned against
/// (ids are only meaningful relative to their dictionary).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum RewriteSpace {
    /// The canonical stored database (`rewrite_canonical`).
    Canon,
    /// The raw stored database (`rewrite`, the paper-verbatim route).
    Pure,
}

/// A rewriting of an RPS query.
#[derive(Clone, Debug)]
pub struct RpsRewriting {
    /// The union of relational CQs over `tt` (decoded, canonical — the
    /// display / federation form of `id_cqs`).
    pub cqs: Vec<Cq>,
    /// The id-level union the engine actually produced and evaluates
    /// (empty for the retained naive oracle path, which falls back to
    /// string-level evaluation).
    pub(crate) id_cqs: Vec<IdCq>,
    /// Which of the rewriter's instances minted `id_cqs`' ids.
    pub(crate) space: RewriteSpace,
    /// `true` iff the expansion reached a fixpoint — together with an
    /// FO-rewritable classification this makes the union perfect.
    pub complete: bool,
    /// Number of CQs explored during expansion.
    pub explored: usize,
}

impl RpsRewriting {
    /// Decodes the union back to RDF-level graph patterns for display
    /// (the UNION query of Listing 2). CQs with non-`tt` atoms are
    /// skipped, and each branch's head variables are renamed back to the
    /// requested names. Branches whose head was specialised to a
    /// constant are skipped here (use [`Self::branches`] for evaluation).
    pub fn to_union_query(&self, head: &[Variable], encoder: &Encoder) -> UnionQuery {
        let mut union = UnionQuery::new(head.to_vec(), Vec::new());
        for (gp, template) in self.branches(encoder) {
            if template.iter().any(|t| matches!(t, TermOrVar::Term(_))) {
                continue;
            }
            // Rename the branch's head variables to the requested names,
            // avoiding collisions by prefixing every other variable.
            let head_names: Vec<Variable> = template
                .iter()
                .map(|t| match t {
                    TermOrVar::Var(v) => v.clone(),
                    TermOrVar::Term(_) => unreachable!("filtered above"),
                })
                .collect();
            let mut out = rps_query::GraphPattern::new();
            for tp in gp.patterns() {
                let fix = |tv: &TermOrVar| -> TermOrVar {
                    match tv {
                        TermOrVar::Var(v) => {
                            if let Some(i) = head_names.iter().position(|h| h == v) {
                                TermOrVar::Var(head[i].clone())
                            } else {
                                TermOrVar::Var(Variable::new(format!("b_{}", v.name())))
                            }
                        }
                        other => other.clone(),
                    }
                };
                out.push(rps_query::TriplePattern::new(
                    fix(&tp.s),
                    fix(&tp.p),
                    fix(&tp.o),
                ));
            }
            union.add_branch(out);
        }
        union
    }

    /// Decodes every CQ of the union into an RDF-level `(pattern, head
    /// template)` pair for evaluation. Head templates may contain
    /// constants when rewriting specialised an answer position.
    pub fn branches(&self, encoder: &Encoder) -> Vec<(GraphPattern, Vec<TermOrVar>)> {
        let mut out = Vec::new();
        for cq in &self.cqs {
            let Some(gp) = cq_to_pattern(cq, encoder) else {
                continue;
            };
            let template: Vec<TermOrVar> = cq
                .head
                .iter()
                .map(|arg| match arg {
                    AtomArg::Var(v) => TermOrVar::Var(Variable::new(v.to_string())),
                    AtomArg::Const(c) => {
                        TermOrVar::Term(encoder.decode(&rps_tgd::GroundTerm::Const(c.clone())))
                    }
                    AtomArg::Null(n) => {
                        TermOrVar::Term(encoder.decode(&rps_tgd::GroundTerm::Null(*n)))
                    }
                })
                .collect();
            out.push((gp, template));
        }
        out
    }
}

/// One UCQ branch compiled for execution over the canonical stored
/// graph (see `RpsRewriter::compile_branches`): an id-level
/// `rps_query` plan plus the head template interleaving projected
/// variables with constants the rewriting specialised. Crate-internal:
/// the plans' term ids are only meaningful against the rewriter's
/// canonical graph, so `Session` is the one consumer.
pub(crate) struct RewrittenBranch {
    /// The prepared id-level plan (evaluated against
    /// [`RpsRewriter::canon_graph`]).
    pub(crate) plan: PreparedQueryIds,
    /// Head template, one entry per answer position: `None` consumes
    /// the next projected variable of a result tuple, `Some(term)`
    /// injects a constant.
    pub(crate) head: Vec<Option<Term>>,
}

/// Decodes a relational CQ over `tt` into an RDF graph pattern.
pub fn cq_to_pattern(cq: &Cq, encoder: &Encoder) -> Option<GraphPattern> {
    let mut gp = GraphPattern::new();
    for atom in &cq.body {
        if atom.pred.as_ref() != "tt" || atom.args.len() != 3 {
            return None;
        }
        let decode_arg = |arg: &AtomArg| -> TermOrVar {
            match arg {
                AtomArg::Var(v) => TermOrVar::Var(Variable::new(v.to_string())),
                AtomArg::Const(c) => {
                    TermOrVar::Term(encoder.decode(&rps_tgd::GroundTerm::Const(c.clone())))
                }
                AtomArg::Null(n) => TermOrVar::Term(encoder.decode(&rps_tgd::GroundTerm::Null(*n))),
            }
        };
        gp.push(rps_query::TriplePattern::new(
            decode_arg(&atom.args[0]),
            decode_arg(&atom.args[1]),
            decode_arg(&atom.args[2]),
        ));
    }
    Some(gp)
}

/// The Section 4 rewriter for one system.
///
/// Two routes are provided:
///
/// * the **pure** route feeds every dependency — graph-mapping TGDs *and*
///   the six-per-mapping equivalence TGDs — to the generic rewriting
///   engine. This is the paper's construction verbatim (Listing 2), but
///   the perfect UCQ grows multiplicatively in the number of equivalent
///   constants per query position;
/// * the **combined** route (the default for [`Self::answers`]) realises
///   the paper's future-work item 1 ("queries are rewritten according to
///   some of the dependencies only"): equivalence mappings are handled by
///   a union-find *quotient* — query constants, mapping constants and the
///   stored database are canonicalised, only the graph-mapping TGDs are
///   rewritten, and answers are expanded back over the classes. Property
///   tests establish both routes agree with the chase.
pub struct RpsRewriter {
    exchange: DataExchange,
    /// Full TGD set for the pure route (GMA + equivalence TGDs).
    tgds: Vec<Tgd>,
    /// The stored database loaded as `tt` facts.
    stored_tt: Instance,
    classification: Classification,
    /// Union-find over the system's equivalence mappings.
    index: crate::equivalence::EquivalenceIndex,
    /// Canonicalised graph-mapping TGDs (combined route).
    canon_gma_tgds: Vec<Tgd>,
    /// The canonicalised stored database as `tt` facts.
    canon_stored_tt: Instance,
    /// The canonicalised stored database as an RDF graph — the
    /// evaluation substrate for [`Self::compile_branches`] plans.
    /// `Arc`-shared and sealed at build time so compiled plans (and the
    /// frozen sessions of `rps-core`/`rps-p2p`) can evaluate against it
    /// concurrently without holding the rewriter.
    canon_graph: Arc<Graph>,
    /// `canon_stored_tt` value id → `canon_graph` term id, seeded from
    /// the encoding pass and extended lazily for query constants.
    val_to_term: Vec<Option<TermId>>,
    /// The canonical GMA TGDs compiled for id-level rewriting (built on
    /// first use; ids live in `canon_stored_tt`'s dictionaries).
    canon_tgds_id: Option<IdTgdSet>,
    /// The full TGD set compiled for the pure route (ids live in
    /// `stored_tt`'s dictionaries).
    pure_tgds_id: Option<IdTgdSet>,
}

impl RpsRewriter {
    /// Builds a rewriter from a system.
    pub fn new(system: &RdfPeerSystem) -> Self {
        let mut exchange = encode_system(system);
        let mut tgds = exchange.mapping_tgds_unguarded.clone();
        tgds.extend(exchange.equivalence_tgds.clone());
        let classification = Classification::of(&tgds);
        let stored = system.stored_database();
        let stored_tt = graph_as_tt(&stored, &mut exchange.encoder);

        let index = crate::equivalence::EquivalenceIndex::from_mappings(system.equivalences());
        let canon_gma_tgds: Vec<Tgd> = system
            .assertions()
            .iter()
            .map(|gma| {
                let premise = crate::equivalence::canonicalize_query(&gma.premise, &index);
                let conclusion = crate::equivalence::canonicalize_query(&gma.conclusion, &index);
                crate::encode::gma_tgd_unguarded(&premise, &conclusion, &mut exchange.encoder)
            })
            .collect();
        let mut canon_graph = crate::equivalence::canonicalize_graph(&stored, &index);
        // The canonical graph never changes after this point: seal it so
        // branch-plan scans merge immutable runs only.
        canon_graph.seal();
        let (canon_stored_tt, term_to_val) =
            graph_as_tt_mapped(&canon_graph, &mut exchange.encoder);
        // Invert the encoding map so id-CQ values translate to graph
        // term ids by array lookup.
        let mut val_to_term = vec![None; canon_stored_tt.values().len()];
        for (ti, val) in term_to_val.iter().enumerate() {
            if let Some(v) = val {
                val_to_term[v.index()] = Some(TermId(ti as u32));
            }
        }

        RpsRewriter {
            exchange,
            tgds,
            stored_tt,
            classification,
            index,
            canon_gma_tgds,
            canon_stored_tt,
            canon_graph: Arc::new(canon_graph),
            val_to_term,
            canon_tgds_id: None,
            pure_tgds_id: None,
        }
    }

    /// The union-find equivalence index of the system.
    pub fn index(&self) -> &crate::equivalence::EquivalenceIndex {
        &self.index
    }

    /// The shared id-level pipeline behind both routes: compile the TGD
    /// set into `cache` on first use, intern the query against `inst`,
    /// run the pruned id-level expansion, and decode the union once.
    /// An associated function (not a method) so callers can hand in
    /// disjoint field borrows.
    fn rewrite_in_space(
        cq: &Cq,
        cfg: &RewriteConfig,
        space: RewriteSpace,
        tgd_src: &[Tgd],
        inst: &mut Instance,
        cache: &mut Option<IdTgdSet>,
    ) -> RpsRewriting {
        if cache.is_none() {
            *cache = Some(IdTgdSet::compile(tgd_src, inst));
        }
        let id_query = rps_tgd::intern_cq(cq, inst);
        let r = rps_tgd::rewrite_ids(&id_query, cache.as_ref().expect("just compiled"), cfg);
        let cqs: Vec<Cq> = r.cqs.iter().map(|c| rps_tgd::decode_cq(c, inst)).collect();
        RpsRewriting {
            cqs,
            id_cqs: r.cqs,
            space,
            complete: r.complete,
            explored: r.explored,
        }
    }

    /// Rewrites a query under the *canonicalised graph-mapping TGDs only*
    /// (combined route), entirely at the id level: the TGD set is
    /// compiled once, the query is interned, the expansion runs on
    /// numbered-variable CQs, and the emitted union is
    /// subsumption-pruned. Evaluate over the canonical stored database
    /// with [`Self::evaluate_canonical`] (which hands the id-CQs
    /// straight to the id-level evaluator) and expand answers with
    /// [`crate::equivalence::expand_answers`].
    pub fn rewrite_canonical(
        &mut self,
        query: &GraphPatternQuery,
        cfg: &RewriteConfig,
    ) -> RpsRewriting {
        let canon_query = crate::equivalence::canonicalize_query(query, &self.index);
        let cq = query_to_cq(&canon_query, &mut self.exchange.encoder, false);
        Self::rewrite_in_space(
            &cq,
            cfg,
            RewriteSpace::Canon,
            &self.canon_gma_tgds,
            &mut self.canon_stored_tt,
            &mut self.canon_tgds_id,
        )
    }

    /// [`Self::rewrite_canonical`] through the retained naive rewriting
    /// engine (`rps_tgd::naive`) — string-keyed canonicalisation, CQ-set
    /// duplicate detection, no subsumption pruning. Used by benchmarks
    /// (experiment e14) and property tests as the oracle; its union has
    /// the same certain answers as the pruned id-level one.
    pub fn rewrite_canonical_naive(
        &mut self,
        query: &GraphPatternQuery,
        cfg: &RewriteConfig,
    ) -> RpsRewriting {
        let canon_query = crate::equivalence::canonicalize_query(query, &self.index);
        let cq = query_to_cq(&canon_query, &mut self.exchange.encoder, false);
        let r = rps_tgd::naive::rewrite(&cq, &self.canon_gma_tgds, cfg);
        RpsRewriting {
            cqs: r.cqs,
            id_cqs: Vec::new(),
            space: RewriteSpace::Canon,
            complete: r.complete,
            explored: r.explored,
        }
    }

    /// The classification of the mapping TGDs (drives Proposition 2).
    pub fn classification(&self) -> Classification {
        self.classification
    }

    /// `true` iff Proposition 2 guarantees a perfect, terminating
    /// rewriting.
    pub fn fo_rewritable(&self) -> bool {
        self.classification.fo_rewritable()
    }

    /// The encoder (for decoding rewritings and answers).
    pub fn encoder(&self) -> &Encoder {
        &self.exchange.encoder
    }

    /// Rewrites a graph pattern query into a UCQ over the sources — the
    /// paper-verbatim route, under the *full* dependency set (graph
    /// mappings + equivalence TGDs). Runs on the id-level engine like
    /// [`Self::rewrite_canonical`], with ids minted against the raw
    /// stored database.
    pub fn rewrite(&mut self, query: &GraphPatternQuery, cfg: &RewriteConfig) -> RpsRewriting {
        let cq = query_to_cq(query, &mut self.exchange.encoder, false);
        Self::rewrite_in_space(
            &cq,
            cfg,
            RewriteSpace::Pure,
            &self.tgds,
            &mut self.stored_tt,
            &mut self.pure_tgds_id,
        )
    }

    /// Evaluates a previously-computed *canonical* rewriting (see
    /// [`Self::rewrite_canonical`]) over the canonical stored database,
    /// decoding the relational tuples and expanding them back over the
    /// equivalence classes. Rewrite once, evaluate repeatedly. Id-level
    /// rewritings evaluate without any string round-trip — only the
    /// distinct answer ids are decoded; the naive-oracle path (no
    /// id-CQs) falls back to string-level evaluation.
    pub fn evaluate_canonical(&self, rewriting: &RpsRewriting) -> BTreeSet<Vec<Term>> {
        let enc = &self.exchange.encoder;
        let decoded: BTreeSet<Vec<Term>> =
            if rewriting.space == RewriteSpace::Canon && !rewriting.id_cqs.is_empty() {
                rps_tgd::evaluate_union_ids(&rewriting.id_cqs, &self.canon_stored_tt)
                    .iter()
                    .map(|row| {
                        row.iter()
                            .map(|&v| enc.decode(self.canon_stored_tt.values().value(v)))
                            .collect()
                    })
                    .collect()
            } else {
                rps_tgd::evaluate_union(&rewriting.cqs, &self.canon_stored_tt)
                    .iter()
                    .map(|row| row.iter().map(|g| enc.decode(g)).collect())
                    .collect()
            };
        crate::equivalence::expand_answers(&decoded, &self.index)
    }

    /// The canonicalised stored database as an RDF graph — the substrate
    /// the compiled rewrite-route branch plans execute over.
    pub fn canon_graph(&self) -> &Graph {
        &self.canon_graph
    }

    /// The shared handle to the canonical stored graph (sealed at
    /// construction). Compiled branch plans carry a clone of this so
    /// execution needs no access to the rewriter itself.
    pub(crate) fn canon_graph_arc(&self) -> Arc<Graph> {
        self.canon_graph.clone()
    }

    /// Compiles the canonical-route `IdTgdSet` eagerly (normally built
    /// on the first rewrite). Freezing a session — `Session::freeze`
    /// here, `FederatedSession::freeze` in `rps-p2p` — calls this so the
    /// first concurrent `prepare` does not pay the compilation inside
    /// the compile lock.
    pub fn precompile_canonical(&mut self) {
        if self.canon_tgds_id.is_none() {
            self.canon_tgds_id = Some(IdTgdSet::compile(
                &self.canon_gma_tgds,
                &mut self.canon_stored_tt,
            ));
        }
    }

    /// Translates a `canon_stored_tt` value id to the canonical graph's
    /// term id. Seeded by the encoding pass; values interned later
    /// (query constants) resolve lazily — `None` means the value does
    /// not occur in the stored data at all.
    fn term_of_val(&mut self, v: rps_tgd::ValId) -> Option<TermId> {
        if self.val_to_term.len() < self.canon_stored_tt.values().len() {
            self.val_to_term
                .resize(self.canon_stored_tt.values().len(), None);
        }
        if let Some(t) = self.val_to_term[v.index()] {
            return Some(t);
        }
        let term = self
            .exchange
            .encoder
            .decode(self.canon_stored_tt.values().value(v));
        let tid = self.canon_graph.term_id(&term);
        if let Some(t) = tid {
            self.val_to_term[v.index()] = Some(t);
        }
        tid
    }

    /// Compiles a canonical rewriting's id-CQ branches into prepared
    /// [`rps_query::PreparedQueryIds`] plans over the canonical stored
    /// graph. Branch bodies are `tt/3` atoms by construction, so each
    /// maps positionally onto triple-pattern conjuncts; values translate
    /// to term ids through the table built while encoding the graph —
    /// no CQ is decoded and no term re-interned on the way. Branches
    /// whose head was specialised to a labelled null are dropped (no
    /// certain tuple can come from them); branches mentioning values
    /// absent from the stored data compile to unsatisfiable plans.
    pub(crate) fn compile_branches(&mut self, rewriting: &RpsRewriting) -> Vec<RewrittenBranch> {
        debug_assert_eq!(rewriting.space, RewriteSpace::Canon);
        let tt = self.canon_stored_tt.pred_id("tt");
        let mut out = Vec::with_capacity(rewriting.id_cqs.len());
        'branches: for cq in &rewriting.id_cqs {
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
                        IdArg::Const(c) => match self.term_of_val(*c) {
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
            let mut head: Vec<Option<Term>> = Vec::with_capacity(cq.head.len());
            let mut head_bound = true;
            for arg in &cq.head {
                match arg {
                    IdArg::Var(v) => {
                        head_bound &= in_body[*v as usize];
                        proj.push(*v as usize);
                        head.push(None);
                    }
                    IdArg::Const(c) => {
                        let g = self.canon_stored_tt.values().value(*c);
                        if g.is_null() {
                            continue 'branches; // never a certain answer
                        }
                        head.push(Some(self.exchange.encoder.decode(g)));
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
            out.push(RewrittenBranch { plan, head });
        }
        out
    }

    /// Rewrites and evaluates a query over the stored database via the
    /// *combined* route (quotient for equivalences, UCQ rewriting for
    /// graph mappings). Returns the answers and whether the rewriting
    /// was exhaustive.
    pub fn answers(&mut self, query: &GraphPatternQuery, cfg: &RewriteConfig) -> (AnswerSet, bool) {
        let rewriting = self.rewrite_canonical(query, cfg);
        (
            AnswerSet {
                vars: query
                    .free_vars()
                    .iter()
                    .map(|v| v.name().to_string())
                    .collect(),
                tuples: self.evaluate_canonical(&rewriting),
            },
            rewriting.complete,
        )
    }

    /// The Example 3 decision procedure: is `tuple` a certain answer of
    /// `query`? Substitutes the tuple into the free variables, rewrites
    /// the resulting Boolean query, and evaluates the UNION of ASKs over
    /// the stored database (Listing 2).
    pub fn is_certain_answer(
        &mut self,
        query: &GraphPatternQuery,
        tuple: &[Term],
        cfg: &RewriteConfig,
    ) -> bool {
        assert_eq!(tuple.len(), query.arity(), "tuple arity mismatch");
        let free = query.free_vars().to_vec();
        let tuple: Vec<Term> = tuple.iter().map(|t| self.index.canonical_term(t)).collect();
        let subst = |v: &Variable| -> Option<Term> {
            free.iter().position(|f| f == v).map(|i| tuple[i].clone())
        };
        let canon_query = crate::equivalence::canonicalize_query(query, &self.index);
        let bound = canon_query.pattern().substitute(&subst);
        let boolean = GraphPatternQuery::boolean(bound);
        let cq = query_to_cq(&boolean, &mut self.exchange.encoder, false);
        let r = Self::rewrite_in_space(
            &cq,
            cfg,
            RewriteSpace::Canon,
            &self.canon_gma_tgds,
            &mut self.canon_stored_tt,
            &mut self.canon_tgds_id,
        );
        rps_tgd::union_has_answer(&r.id_cqs, &self.canon_stored_tt)
    }

    /// The full Example 3 pipeline: enumerate all candidate tuples of
    /// names from the stored database (polynomially many: `n^arity`) and
    /// decide each with the Boolean rewriting. Returns `None` if the
    /// candidate space exceeds `max_candidates` — callers should fall
    /// back to [`Self::answers`].
    pub fn certain_answers_via_boolean(
        &mut self,
        query: &GraphPatternQuery,
        cfg: &RewriteConfig,
        max_candidates: usize,
    ) -> Option<AnswerSet> {
        // Candidate constants: all names (IRIs and literals) in the
        // stored database, decoded from the tt instance.
        let names: Vec<Term> = {
            let enc = &self.exchange.encoder;
            self.stored_tt
                .constants()
                .iter()
                .map(|c| enc.decode(&rps_tgd::GroundTerm::Const(c.clone())))
                .collect()
        };
        let arity = query.arity();
        let total = names.len().checked_pow(arity as u32)?;
        if total > max_candidates {
            return None;
        }
        let mut tuples = BTreeSet::new();
        let mut idx = vec![0usize; arity];
        loop {
            let tuple: Vec<Term> = idx.iter().map(|&i| names[i].clone()).collect();
            if self.is_certain_answer(query, &tuple, cfg) {
                tuples.insert(tuple);
            }
            // Odometer increment.
            let mut k = 0;
            loop {
                if k == arity {
                    return Some(AnswerSet {
                        vars: query
                            .free_vars()
                            .iter()
                            .map(|v| v.name().to_string())
                            .collect(),
                        tuples,
                    });
                }
                idx[k] += 1;
                if idx[k] < names.len() {
                    break;
                }
                idx[k] = 0;
                k += 1;
            }
            if arity == 0 {
                return Some(AnswerSet {
                    vars: Vec::new(),
                    tuples,
                });
            }
        }
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
        let mut rw = RpsRewriter::new(&linear_system());
        assert!(rw.classification().linear);
        assert!(rw.fo_rewritable());
        let r = rw.rewrite(&cast_query(), &RewriteConfig::default());
        assert!(r.complete);
        assert!(r.cqs.len() >= 2);
    }

    #[test]
    fn rewriting_answers_equal_chase_answers() {
        let sys = linear_system();
        let mut rw = RpsRewriter::new(&sys);
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
        let mut rw = RpsRewriter::new(&sys);
        // (f2, p1) is a certain answer only via the equivalence mapping:
        // the stored data has (f2, actor, p2) and p1 ≡ p2.
        let yes = rw.is_certain_answer(
            &cast_query(),
            &[Term::iri("http://b/f2"), Term::iri("http://a/p1")],
            &RewriteConfig::default(),
        );
        assert!(yes);
        let no = rw.is_certain_answer(
            &cast_query(),
            &[Term::iri("http://a/f1"), Term::iri("http://b/f2")],
            &RewriteConfig::default(),
        );
        assert!(!no);
    }

    #[test]
    fn boolean_enumeration_matches_direct_rewriting() {
        let sys = linear_system();
        let mut rw = RpsRewriter::new(&sys);
        let (direct, _) = rw.answers(&cast_query(), &RewriteConfig::default());
        let enumerated = rw
            .certain_answers_via_boolean(&cast_query(), &RewriteConfig::default(), 10_000)
            .expect("candidate space is small");
        assert_eq!(direct.tuples, enumerated.tuples);
    }

    #[test]
    fn candidate_budget_overflow_returns_none() {
        let sys = linear_system();
        let mut rw = RpsRewriter::new(&sys);
        assert!(rw
            .certain_answers_via_boolean(&cast_query(), &RewriteConfig::default(), 3)
            .is_none());
    }

    #[test]
    fn union_query_decoding() {
        let sys = linear_system();
        let mut rw = RpsRewriter::new(&sys);
        let q = cast_query();
        let r = rw.rewrite(&q, &RewriteConfig::default());
        let union = r.to_union_query(q.free_vars(), rw.encoder());
        assert!(union.len() >= 2);
        // Every branch is a valid RDF-level pattern over tt-decoded terms.
        for b in union.branches() {
            assert!(!b.is_empty());
        }
    }
}
