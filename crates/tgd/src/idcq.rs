//! Id-level (numbered-variable) conjunctive queries and the interned
//! UCQ rewriting engine.
//!
//! The string-level rewriting in [`mod@crate::rewrite`] resolves CQs over
//! [`Atom`]s whose arguments are `Arc<str>` symbols: every resolution
//! step allocates renamed atoms, every unifier probe compares symbols,
//! and every canonicalisation formats variable names. At e6-style depths
//! that per-step allocation dominates the whole expansion. This module
//! is the compiled counterpart the engine actually runs on:
//!
//! * a CQ is an [`IdCq`]: predicates are [`PredId`]s, constants and
//!   labelled nulls are [`ValId`]s of one [`Instance`]'s dictionaries,
//!   and variables are dense `u16` numbers assigned by first occurrence
//!   (head first) — renaming a CQ apart is pointer arithmetic, not
//!   string formatting;
//! * the TGD set is compiled **once** into an [`IdTgdSet`]: single-head
//!   normalised, interned, each TGD's variables numbered, with a head
//!   index mapping a predicate to the TGDs that can resolve it;
//! * the MGU is an array-backed substitution (`Scratch`): one slot per
//!   query + TGD variable, a touched-trail for O(bindings) reset, and no
//!   hashing anywhere on the step path;
//! * canonicalisation is numbering + sort over `Copy` tokens, and the
//!   seen-set hashes canonical id-CQs directly;
//! * the emitted union is optionally **subsumption-pruned**: a CQ with a
//!   containment mapping from a retained CQ contributes no new answers
//!   on any database, so it is dropped — a backtracking search over
//!   numbered variables, with the frozen body of the candidate CQ
//!   standing in for an instance.
//!
//! The string-level [`crate::rewrite::rewrite`] is a thin wrapper
//! (intern → rewrite → decode); property tests assert the id engine's
//! unpruned union equals the reference [`crate::naive::rewrite`]'s up to
//! canonical renaming, and that pruning preserves certain answers under
//! [`crate::naive::evaluate_union`].

use crate::instance::{Instance, PredId, ValId};
use crate::rewrite::{normalize_single_head, Cq, RewriteConfig};
use crate::term::{Atom, AtomArg, GroundTerm, Sym};
use crate::tgd::Tgd;
use std::collections::{HashMap, HashSet, VecDeque};

/// One argument of an id-level atom.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum IdArg {
    /// A numbered variable. Canonical CQs number variables by first
    /// occurrence, head before body.
    Var(u16),
    /// An interned constant or labelled null (the owning instance's
    /// [`crate::instance::ValueDict`] knows which).
    Const(ValId),
}

/// An id-level atom: interned predicate, id-level arguments.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct IdAtom {
    /// The interned predicate.
    pub pred: PredId,
    /// The arguments.
    pub args: Vec<IdArg>,
}

/// An id-level conjunctive query. Ids are only meaningful relative to
/// the [`Instance`] whose dictionaries minted them (see [`intern_cq`]).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct IdCq {
    /// Answer tuple template: numbered variables (which must occur in
    /// the body for any tuple to qualify) or interned values.
    pub head: Vec<IdArg>,
    /// Body atoms.
    pub body: Vec<IdAtom>,
}

impl IdCq {
    /// The number of distinct variables (canonical CQs use `0..nvars`).
    pub fn nvars(&self) -> u16 {
        let max = self
            .head
            .iter()
            .chain(self.body.iter().flat_map(|a| a.args.iter()))
            .filter_map(|a| match a {
                IdArg::Var(v) => Some(*v),
                IdArg::Const(_) => None,
            })
            .max();
        max.map_or(0, |m| m + 1)
    }
}

/// Interns a string-level CQ against an instance's dictionaries,
/// numbering variables by first occurrence (head first, then body in
/// atom order). Missing predicates and values are interned, so the
/// result always round-trips through [`decode_cq`].
pub fn intern_cq(cq: &Cq, inst: &mut Instance) -> IdCq {
    let mut numbering: HashMap<Sym, u16> = HashMap::new();
    let intern_arg =
        |arg: &AtomArg, inst: &mut Instance, numbering: &mut HashMap<Sym, u16>| match arg {
            AtomArg::Var(v) => {
                let next = u16::try_from(numbering.len()).expect("CQ variable count overflow");
                IdArg::Var(*numbering.entry(v.clone()).or_insert(next))
            }
            AtomArg::Const(c) => IdArg::Const(inst.intern_value(&GroundTerm::Const(c.clone()))),
            AtomArg::Null(n) => IdArg::Const(inst.intern_value(&GroundTerm::Null(*n))),
        };
    let head: Vec<IdArg> = cq
        .head
        .iter()
        .map(|a| intern_arg(a, inst, &mut numbering))
        .collect();
    let body: Vec<IdAtom> = cq
        .body
        .iter()
        .map(|atom| IdAtom {
            pred: inst.intern_pred(&atom.pred),
            args: atom
                .args
                .iter()
                .map(|a| intern_arg(a, inst, &mut numbering))
                .collect(),
        })
        .collect();
    IdCq { head, body }
}

/// Decodes an id-level CQ back to the string level. Variables are named
/// `v0`, `v1`, … by their numbers; values decode through the instance's
/// dictionary.
pub fn decode_cq(cq: &IdCq, inst: &Instance) -> Cq {
    let mut names: Vec<Sym> = Vec::new();
    let name = |v: u16, names: &mut Vec<Sym>| -> Sym {
        while names.len() <= v as usize {
            names.push(format!("v{}", names.len()).into());
        }
        names[v as usize].clone()
    };
    let decode_arg = |arg: &IdArg, names: &mut Vec<Sym>| match arg {
        IdArg::Var(v) => AtomArg::Var(name(*v, names)),
        IdArg::Const(c) => match inst.values().value(*c) {
            GroundTerm::Const(s) => AtomArg::Const(s.clone()),
            GroundTerm::Null(n) => AtomArg::Null(*n),
        },
    };
    let head: Vec<AtomArg> = cq.head.iter().map(|a| decode_arg(a, &mut names)).collect();
    let body: Vec<Atom> = cq
        .body
        .iter()
        .map(|atom| {
            Atom::new(
                inst.pred_name(atom.pred).clone(),
                atom.args
                    .iter()
                    .map(|a| decode_arg(a, &mut names))
                    .collect(),
            )
        })
        .collect();
    Cq { head, body }
}

/// One single-head TGD compiled to the id level. Body and head share a
/// dense TGD-local variable numbering; `existentials` lists the numbers
/// that occur in the head only.
#[derive(Clone, Debug)]
struct IdTgd {
    body: Vec<IdAtom>,
    head: IdAtom,
    nvars: u16,
    existentials: Vec<u16>,
}

/// A TGD set compiled once for id-level rewriting: single-head
/// normalised (auxiliary predicates marked for the final filter),
/// interned against one instance's dictionaries, with a head index
/// mapping each predicate to the TGDs whose head can resolve it.
#[derive(Clone, Debug, Default)]
pub struct IdTgdSet {
    tgds: Vec<IdTgd>,
    /// `pred.index()` → indices into `tgds` of resolvable heads.
    by_head: Vec<Vec<u32>>,
    /// `pred.index()` → introduced by single-head normalisation.
    aux: Vec<bool>,
}

impl IdTgdSet {
    /// Compiles a TGD set (multi-atom heads allowed; they are normalised
    /// with auxiliary predicates first) against an instance's
    /// dictionaries.
    pub fn compile(tgds: &[Tgd], inst: &mut Instance) -> IdTgdSet {
        let norm = normalize_single_head(tgds);
        let mut out = IdTgdSet::default();
        for tgd in &norm {
            let mut numbering: HashMap<Sym, u16> = HashMap::new();
            let intern_atom =
                |atom: &Atom, inst: &mut Instance, numbering: &mut HashMap<Sym, u16>| IdAtom {
                    pred: inst.intern_pred(&atom.pred),
                    args: atom
                        .args
                        .iter()
                        .map(|a| match a {
                            AtomArg::Var(v) => {
                                let next = u16::try_from(numbering.len())
                                    .expect("TGD variable count overflow");
                                IdArg::Var(*numbering.entry(v.clone()).or_insert(next))
                            }
                            AtomArg::Const(c) => {
                                IdArg::Const(inst.intern_value(&GroundTerm::Const(c.clone())))
                            }
                            AtomArg::Null(n) => {
                                IdArg::Const(inst.intern_value(&GroundTerm::Null(*n)))
                            }
                        })
                        .collect(),
                };
            let body: Vec<IdAtom> = tgd
                .body()
                .iter()
                .map(|a| intern_atom(a, inst, &mut numbering))
                .collect();
            let body_vars = numbering.len() as u16;
            let head = intern_atom(&tgd.head()[0], inst, &mut numbering);
            let nvars = numbering.len() as u16;
            // Every number minted while interning the head is head-only.
            let existentials: Vec<u16> = (body_vars..nvars).collect();
            let idx = out.tgds.len() as u32;
            let hp = head.pred.index();
            if out.by_head.len() <= hp {
                out.by_head.resize_with(hp + 1, Vec::new);
            }
            out.by_head[hp].push(idx);
            out.tgds.push(IdTgd {
                body,
                head,
                nvars,
                existentials,
            });
        }
        // Mark the auxiliary predicates of the normalisation.
        out.aux = vec![false; inst.pred_count()];
        for tgd in &norm {
            for atom in tgd.body().iter().chain(tgd.head()) {
                if atom.pred.starts_with("_aux") {
                    if let Some(p) = inst.pred_id(&atom.pred) {
                        out.aux[p.index()] = true;
                    }
                }
            }
        }
        out
    }

    /// The TGDs whose (single) head atom has predicate `pred`.
    fn heads_for(&self, pred: PredId) -> &[u32] {
        self.by_head.get(pred.index()).map_or(&[], Vec::as_slice)
    }

    /// `true` iff `pred` was introduced by single-head normalisation.
    fn is_aux(&self, pred: PredId) -> bool {
        self.aux.get(pred.index()).copied().unwrap_or(false)
    }
}

/// The array-backed substitution shared across rewriting steps: slot `i`
/// holds the binding of variable `i` (self-binding means unbound) and
/// `touched` is the undo trail, so resetting between steps costs one
/// write per binding made, not one per slot.
#[derive(Default)]
struct Scratch {
    subst: Vec<IdArg>,
    touched: Vec<u16>,
}

impl Scratch {
    /// Clears all bindings and ensures capacity for `n` variables.
    fn reset(&mut self, n: usize) {
        for &t in &self.touched {
            self.subst[t as usize] = IdArg::Var(t);
        }
        self.touched.clear();
        let from = self.subst.len();
        if from < n {
            self.subst.extend((from..n).map(|i| IdArg::Var(i as u16)));
        }
    }

    /// Follows the binding chain to the representative of `a`.
    fn resolve(&self, mut a: IdArg) -> IdArg {
        while let IdArg::Var(v) = a {
            let next = self.subst[v as usize];
            if next == a {
                return a;
            }
            a = next;
        }
        a
    }

    /// Binds variable `v` (which must currently be unbound) to `to`.
    fn bind(&mut self, v: u16, to: IdArg) {
        self.subst[v as usize] = to;
        self.touched.push(v);
    }

    /// Most general unifier of two same-arity atoms under the current
    /// substitution; bindings accumulate into the scratch.
    fn unify(&mut self, a: &IdAtom, b: &IdAtom) -> bool {
        if a.pred != b.pred || a.args.len() != b.args.len() {
            return false;
        }
        for (&x, &y) in a.args.iter().zip(b.args.iter()) {
            let rx = self.resolve(x);
            let ry = self.resolve(y);
            if rx == ry {
                continue;
            }
            match (rx, ry) {
                (IdArg::Var(v), other) | (other, IdArg::Var(v)) => self.bind(v, other),
                _ => return false, // distinct values
            }
        }
        true
    }
}

/// Offsets a TGD-local argument into the shared variable space.
fn off_arg(a: IdArg, off: u16) -> IdArg {
    match a {
        IdArg::Var(v) => IdArg::Var(v + off),
        c => c,
    }
}

/// Applies the substitution to an atom whose variables live at `off`.
fn apply_atom(atom: &IdAtom, s: &Scratch, off: u16) -> IdAtom {
    IdAtom {
        pred: atom.pred,
        args: atom
            .args
            .iter()
            .map(|&a| s.resolve(off_arg(a, off)))
            .collect(),
    }
}

/// Per-CQ context precomputed once per expansion: which variables are
/// distinguished and how often each occurs in the body.
struct CqCx {
    nvars: u16,
    head_is_var: Vec<bool>,
    /// Total body occurrences per variable.
    occ: Vec<u32>,
}

impl CqCx {
    fn of(cq: &IdCq) -> CqCx {
        let nvars = cq.nvars();
        let mut head_is_var = vec![false; nvars as usize];
        for a in &cq.head {
            if let IdArg::Var(v) = a {
                head_is_var[*v as usize] = true;
            }
        }
        let mut occ = vec![0u32; nvars as usize];
        for atom in &cq.body {
            for a in &atom.args {
                if let IdArg::Var(v) = a {
                    occ[*v as usize] += 1;
                }
            }
        }
        CqCx {
            nvars,
            head_is_var,
            occ,
        }
    }
}

/// One rewriting step: resolve body atom `ai` of `cq` against `tgd`'s
/// head (TGD variables live at offset `cx.nvars`, which renames them
/// apart for free), subject to the applicability condition on
/// existential variables. Mirrors the string-level
/// [`crate::rewrite::resolve_step`] exactly; property tests pin the two
/// to equal UCQ sets.
fn resolve_step_ids(cq: &IdCq, cx: &CqCx, tgd: &IdTgd, ai: usize, s: &mut Scratch) -> Option<IdCq> {
    let off = cx.nvars;
    let total = off as usize + tgd.nvars as usize;
    assert!(
        total <= u16::MAX as usize,
        "rewriting variable space overflow"
    );
    s.reset(total);
    let atom = &cq.body[ai];
    // Unify against the offset head without materialising it.
    {
        if atom.pred != tgd.head.pred || atom.args.len() != tgd.head.args.len() {
            return None;
        }
        for (&x, &y) in atom.args.iter().zip(tgd.head.args.iter()) {
            let rx = s.resolve(x);
            let ry = s.resolve(off_arg(y, off));
            if rx == ry {
                continue;
            }
            match (rx, ry) {
                (IdArg::Var(v), other) | (other, IdArg::Var(v)) => s.bind(v, other),
                _ => return None,
            }
        }
    }
    // Applicability: each existential's unification class must contain
    // no value, no distinguished variable, and no query variable that
    // occurs outside the resolved atom — and distinct existentials must
    // not be merged.
    let mut reps: Vec<IdArg> = Vec::new();
    for &z in &tgd.existentials {
        let rep = s.resolve(IdArg::Var(z + off));
        if matches!(rep, IdArg::Const(_)) {
            return None; // unified with a constant/null
        }
        if reps.contains(&rep) {
            return None; // two existentials merged
        }
        reps.push(rep);
        for qv in 0..cx.nvars {
            if s.resolve(IdArg::Var(qv)) != rep {
                continue;
            }
            if cx.head_is_var[qv as usize] {
                return None; // distinguished variable in the class
            }
            let in_ai = atom
                .args
                .iter()
                .filter(|a| matches!(a, IdArg::Var(v) if *v == qv))
                .count() as u32;
            if cx.occ[qv as usize] > in_ai {
                return None; // occurs outside the resolved atom
            }
        }
    }
    let mut body: Vec<IdAtom> = Vec::with_capacity(cq.body.len() - 1 + tgd.body.len());
    for (bi, a) in cq.body.iter().enumerate() {
        if bi != ai {
            body.push(apply_atom(a, s, 0));
        }
    }
    for a in &tgd.body {
        body.push(apply_atom(a, s, off));
    }
    let head: Vec<IdArg> = cq.head.iter().map(|&a| s.resolve(a)).collect();
    Some(IdCq { head, body })
}

/// All factorisation steps of a CQ: unify pairs of same-predicate body
/// atoms. Always sound; needed for completeness when one chase-invented
/// atom must cover several query atoms.
fn factorisation_steps_ids(cq: &IdCq, cx: &CqCx, s: &mut Scratch, out: &mut Vec<IdCq>) {
    for i in 0..cq.body.len() {
        for j in (i + 1)..cq.body.len() {
            if cq.body[i].pred != cq.body[j].pred {
                continue;
            }
            s.reset(cx.nvars as usize);
            if !s.unify(&cq.body[i], &cq.body[j]) {
                continue;
            }
            if s.touched.is_empty() {
                continue; // identical atoms; dedup handles it
            }
            let body: Vec<IdAtom> = cq.body.iter().map(|a| apply_atom(a, s, 0)).collect();
            let head: Vec<IdArg> = cq.head.iter().map(|&a| s.resolve(a)).collect();
            out.push(IdCq { head, body });
        }
    }
}

/// Shape comparison for canonical sorting: predicate, arity, then
/// argument tokens with variables erased. Values compare by their dense
/// ids — stable within one instance, which is all the seen-set needs
/// (cross-engine comparisons go through [`Cq::canonical`] after
/// decoding).
fn shape_cmp(a: &IdAtom, b: &IdAtom) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    let ord = a
        .pred
        .cmp(&b.pred)
        .then_with(|| a.args.len().cmp(&b.args.len()));
    if ord != Ordering::Equal {
        return ord;
    }
    for (x, y) in a.args.iter().zip(b.args.iter()) {
        let ord = match (x, y) {
            (IdArg::Var(_), IdArg::Var(_)) => Ordering::Equal, // erased
            (IdArg::Var(_), IdArg::Const(_)) => Ordering::Less,
            (IdArg::Const(_), IdArg::Var(_)) => Ordering::Greater,
            (IdArg::Const(c), IdArg::Const(d)) => c.cmp(d),
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Canonicalises a CQ in place: sort body atoms by shape (variables
/// erased), renumber variables by first appearance (head first),
/// iterate to a cheap fixpoint, then sort and dedup the body. The
/// canonical value itself is the seen-set key — no separate key vector
/// is materialised.
fn canonicalize(cq: &mut IdCq) {
    for _ in 0..3 {
        cq.body.sort_by(shape_cmp);
        let nvars = cq.nvars() as usize;
        let mut renum: Vec<u16> = vec![u16::MAX; nvars];
        let mut next: u16 = 0;
        let rename = |a: IdArg, renum: &mut Vec<u16>, next: &mut u16| match a {
            IdArg::Var(v) => {
                let slot = &mut renum[v as usize];
                if *slot == u16::MAX {
                    *slot = *next;
                    *next += 1;
                }
                IdArg::Var(*slot)
            }
            c => c,
        };
        let head: Vec<IdArg> = cq
            .head
            .iter()
            .map(|&a| rename(a, &mut renum, &mut next))
            .collect();
        let body: Vec<IdAtom> = cq
            .body
            .iter()
            .map(|atom| IdAtom {
                pred: atom.pred,
                args: atom
                    .args
                    .iter()
                    .map(|&a| rename(a, &mut renum, &mut next))
                    .collect(),
            })
            .collect();
        let changed = head != cq.head || body != cq.body;
        cq.head = head;
        cq.body = body;
        if !changed {
            break;
        }
    }
    cq.body.sort();
    cq.body.dedup();
}

/// The result of an id-level rewriting run.
#[derive(Clone, Debug)]
pub struct IdRewriteResult {
    /// The union of id-CQs (auxiliary-predicate-free, canonically
    /// sorted; subsumption-pruned unless produced by
    /// [`rewrite_ids_unpruned`]).
    pub cqs: Vec<IdCq>,
    /// `true` iff the expansion reached a fixpoint within budget.
    pub complete: bool,
    /// Number of distinct CQs explored (including auxiliary
    /// intermediates).
    pub explored: usize,
}

/// Rewrites an id-level CQ under a compiled TGD set into a union of
/// id-CQs, with the emitted union subsumption-pruned (sound: the pruned
/// union has the same certain answers on every database; property
/// tests pin this). The query and TGD set must be interned against the
/// same instance.
pub fn rewrite_ids(query: &IdCq, tgds: &IdTgdSet, config: &RewriteConfig) -> IdRewriteResult {
    rewrite_ids_with(query, tgds, config, true)
}

/// [`rewrite_ids`] without the subsumption-pruning pass — the union
/// then equals the string-level oracle's up to canonical renaming
/// (the contract the agreement property tests assert).
pub fn rewrite_ids_unpruned(
    query: &IdCq,
    tgds: &IdTgdSet,
    config: &RewriteConfig,
) -> IdRewriteResult {
    rewrite_ids_with(query, tgds, config, false)
}

fn rewrite_ids_with(
    query: &IdCq,
    tgds: &IdTgdSet,
    config: &RewriteConfig,
    prune: bool,
) -> IdRewriteResult {
    let mut seen: HashSet<IdCq> = HashSet::new();
    let mut kept: Vec<IdCq> = Vec::new();
    let mut queue: VecDeque<(IdCq, usize)> = VecDeque::new();
    let mut start = query.clone();
    canonicalize(&mut start);
    seen.insert(start.clone());
    kept.push(start.clone());
    queue.push_back((start, 0));
    let mut complete = true;
    let mut scratch = Scratch::default();
    let mut succs: Vec<IdCq> = Vec::new();

    while let Some((cq, depth)) = queue.pop_front() {
        if depth >= config.max_depth {
            complete = false;
            continue;
        }
        let cx = CqCx::of(&cq);
        succs.clear();
        // Rewriting steps: the head index narrows each atom to the TGDs
        // that can actually resolve it.
        for (ai, atom) in cq.body.iter().enumerate() {
            for &ti in tgds.heads_for(atom.pred) {
                if let Some(succ) =
                    resolve_step_ids(&cq, &cx, &tgds.tgds[ti as usize], ai, &mut scratch)
                {
                    succs.push(succ);
                }
            }
        }
        factorisation_steps_ids(&cq, &cx, &mut scratch, &mut succs);

        for mut succ in succs.drain(..) {
            canonicalize(&mut succ);
            if seen.contains(&succ) {
                continue;
            }
            if seen.len() >= config.max_cqs {
                complete = false;
                break;
            }
            seen.insert(succ.clone());
            kept.push(succ.clone());
            queue.push_back((succ, depth + 1));
        }
    }

    let explored = seen.len();
    let mut cqs: Vec<IdCq> = kept
        .into_iter()
        .filter(|cq| !cq.body.iter().any(|a| tgds.is_aux(a.pred)))
        .collect();
    cqs.sort();
    if prune {
        cqs = prune_union(cqs);
    }
    IdRewriteResult {
        cqs,
        complete,
        explored,
    }
}

/// Drops every CQ of a union that is homomorphically subsumed by a
/// retained one — the pruning pass [`rewrite_ids`] applies to its
/// emitted union, exposed for callers that assemble unions themselves.
/// Always sound: the pruned union has the same certain answers as the
/// input on every database (property-tested).
///
/// Candidates are processed in ascending body length, so a CQ is only
/// ever checked against retained CQs no longer than itself — dropping
/// the longer (more constrained) member of each subsumed pair and never
/// both of an equivalent pair. Retained CQs are bucketed by their
/// *(body length, 64-bit predicate signature)* pair: a subsumer's
/// predicates must all occur in the candidate, so the subset pre-check
/// runs once per bucket instead of once per retained CQ, and whole
/// buckets of incompatible signatures are skipped without touching
/// their members. This replaces the earlier linear prefilter, which was
/// capped at 4096 branches — there is no cap any more.
pub fn prune_union(mut cqs: Vec<IdCq>) -> Vec<IdCq> {
    if cqs.len() <= 1 {
        return cqs;
    }
    cqs.sort_by_key(|cq| cq.body.len());
    let mut retained: Vec<IdCq> = Vec::with_capacity(cqs.len());
    // (body length, predicate signature) → indexes into `retained`,
    // in insertion order so bucket iteration stays deterministic.
    let mut buckets: Vec<((u32, u64), Vec<u32>)> = Vec::new();
    let mut bucket_of: HashMap<(u32, u64), u32> = HashMap::new();
    for cq in cqs {
        let mask = pred_mask(&cq);
        let len = cq.body.len() as u32;
        // Ascending processing makes every retained body no longer than
        // the candidate's, so only the signature filters buckets here.
        let subsumed = buckets.iter().any(|((_, bmask), members)| {
            bmask & !mask == 0
                && members
                    .iter()
                    .any(|&i| subsumes(&retained[i as usize], &cq))
        });
        if !subsumed {
            let key = (len, mask);
            let slot = *bucket_of.entry(key).or_insert_with(|| {
                buckets.push((key, Vec::new()));
                (buckets.len() - 1) as u32
            });
            buckets[slot as usize].1.push(retained.len() as u32);
            retained.push(cq);
        }
    }
    retained.sort();
    retained
}

/// A 64-bit predicate-presence filter for the subset pre-check.
fn pred_mask(cq: &IdCq) -> u64 {
    cq.body
        .iter()
        .fold(0u64, |m, a| m | (1 << (a.pred.index() % 64)))
}

/// `true` iff there is a containment mapping from `q1` into `q2`: a
/// variable assignment taking every body atom of `q1` to some body atom
/// of `q2` (whose variables are *frozen* — treated as distinct
/// constants) and `q1`'s head tuple exactly onto `q2`'s. Then every
/// answer of `q2` over any database is an answer of `q1`, so `q2` is
/// redundant in a union containing `q1` (the classical CQ-containment
/// criterion). `q2`'s atom list stands in for the instance.
fn subsumes(q1: &IdCq, q2: &IdCq) -> bool {
    if q1.head.len() != q2.head.len() {
        return false;
    }
    let n1 = q1.nvars() as usize;
    let mut env: Vec<Option<IdArg>> = vec![None; n1];
    // The head condition seeds the environment.
    for (a, b) in q1.head.iter().zip(q2.head.iter()) {
        match a {
            IdArg::Const(_) => {
                if a != b {
                    return false;
                }
            }
            IdArg::Var(v) => match &env[*v as usize] {
                None => env[*v as usize] = Some(*b),
                Some(x) if x != b => return false,
                _ => {}
            },
        }
    }
    match_atoms(&q1.body, 0, &q2.body, &mut env)
}

/// Backtracking matcher for [`subsumes`]: maps `atoms[depth..]` into
/// the frozen target body.
fn match_atoms(
    atoms: &[IdAtom],
    depth: usize,
    target: &[IdAtom],
    env: &mut [Option<IdArg>],
) -> bool {
    let Some(atom) = atoms.get(depth) else {
        return true;
    };
    'cands: for cand in target {
        if cand.pred != atom.pred || cand.args.len() != atom.args.len() {
            continue;
        }
        let mut trail: Vec<u16> = Vec::new();
        for (a, b) in atom.args.iter().zip(cand.args.iter()) {
            let ok = match a {
                IdArg::Const(_) => a == b,
                IdArg::Var(v) => match &env[*v as usize] {
                    Some(x) => x == b,
                    None => {
                        env[*v as usize] = Some(*b);
                        trail.push(*v);
                        true
                    }
                },
            };
            if !ok {
                for t in trail {
                    env[t as usize] = None;
                }
                continue 'cands;
            }
        }
        if match_atoms(atoms, depth + 1, target, env) {
            return true;
        }
        for t in trail {
            env[t as usize] = None;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::evaluate_union;
    use crate::rewrite::rewrite;
    use crate::term::dsl::*;

    fn id_pipeline(
        q: &Cq,
        tgds: &[Tgd],
        cfg: &RewriteConfig,
    ) -> (Vec<Cq>, Instance, IdRewriteResult) {
        let mut inst = Instance::new();
        let set = IdTgdSet::compile(tgds, &mut inst);
        let iq = intern_cq(q, &mut inst);
        let r = rewrite_ids(&iq, &set, cfg);
        let decoded = r.cqs.iter().map(|c| decode_cq(c, &inst)).collect();
        (decoded, inst, r)
    }

    #[test]
    fn intern_decode_roundtrip_is_canonical() {
        let q = Cq::new(
            &["x"],
            vec![atom("r", &[v("x"), c("k")]), atom("s", &[v("y"), v("x")])],
        );
        let mut inst = Instance::new();
        let iq = intern_cq(&q, &mut inst);
        assert_eq!(iq.nvars(), 2);
        let back = decode_cq(&iq, &inst);
        assert_eq!(back.canonical(), q.canonical());
    }

    #[test]
    fn id_engine_matches_string_engine_on_chain() {
        let tgds = vec![
            Tgd::new(vec![atom("a", &[v("x")])], vec![atom("b", &[v("x")])]),
            Tgd::new(vec![atom("b", &[v("x")])], vec![atom("c", &[v("x")])]),
        ];
        let q = Cq::new(&["x"], vec![atom("c", &[v("x")])]);
        let cfg = RewriteConfig::default();
        let (decoded, _, r) = id_pipeline(&q, &tgds, &cfg);
        assert!(r.complete);
        let s = rewrite(&q, &tgds, &cfg);
        let a: std::collections::BTreeSet<Cq> = decoded.iter().map(Cq::canonical).collect();
        let b: std::collections::BTreeSet<Cq> = s.cqs.iter().map(Cq::canonical).collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn subsumption_drops_factorisation_residue() {
        // p(x) → ∃z r(x,z); the two-atom query factorises to one atom,
        // which subsumes it — the pruned union keeps only the shorter
        // forms, with unchanged answers.
        let tgds = vec![Tgd::new(
            vec![atom("p", &[v("x")])],
            vec![atom("r", &[v("x"), v("z")])],
        )];
        let q = Cq::new(
            &["x"],
            vec![atom("r", &[v("x"), v("y1")]), atom("r", &[v("x"), v("y2")])],
        );
        let cfg = RewriteConfig::default();
        let mut inst = Instance::new();
        let set = IdTgdSet::compile(&tgds, &mut inst);
        let iq = intern_cq(&q, &mut inst);
        let pruned = rewrite_ids(&iq, &set, &cfg);
        let unpruned = rewrite_ids_unpruned(&iq, &set, &cfg);
        assert!(pruned.cqs.len() < unpruned.cqs.len());
        assert!(pruned.cqs.iter().all(|cq| cq.body.len() == 1));
        // Same certain answers over data.
        let data: Instance = [fact("p", &["a"]), fact("r", &["b", "c"])]
            .into_iter()
            .collect();
        let dec = |cqs: &[IdCq]| -> Vec<Cq> { cqs.iter().map(|c| decode_cq(c, &inst)).collect() };
        assert_eq!(
            evaluate_union(&dec(&pruned.cqs), &data),
            evaluate_union(&dec(&unpruned.cqs), &data)
        );
    }

    #[test]
    fn subsumption_respects_head_templates() {
        // Same body shape, different head constants: neither subsumes.
        let mk = |k: &str, inst: &mut Instance| {
            intern_cq(
                &Cq {
                    head: vec![AtomArg::constant(k)],
                    body: vec![atom("r", &[v("x")])],
                },
                inst,
            )
        };
        let mut inst = Instance::new();
        let q1 = mk("a", &mut inst);
        let q2 = mk("b", &mut inst);
        assert!(!subsumes(&q1, &q2));
        assert!(!subsumes(&q2, &q1));
        assert!(subsumes(&q1, &q1));
    }
}
