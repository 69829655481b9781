//! UCQ rewriting of conjunctive queries under TGDs (TGD-rewrite style).
//!
//! Section 4 of the paper invokes the rewriting algorithm of Gottlob, Orsi
//! and Pieris (\[13\]) which, given a CQ and a set of single-head-atom TGDs,
//! produces a union of CQs that is a *perfect rewriting*: evaluating it
//! over the stored database yields exactly the certain answers.
//! Termination is guaranteed for linear, sticky and sticky-join sets
//! (Proposition 2); for general RPS mappings no finite FO rewriting exists
//! (Proposition 3), so the engine is depth-bounded and reports whether the
//! expansion was exhaustive.
//!
//! The implementation uses the two classical steps:
//!
//! * **rewriting step** — resolve a query atom against a TGD head via a
//!   most-general unifier, subject to the applicability condition on
//!   existential variables (they may only unify with variables that are
//!   non-distinguished and occur nowhere else in the query);
//! * **factorisation step** — unify two query atoms with the same
//!   predicate, which is always sound (the factorised CQ maps
//!   homomorphically into the original) and is needed for completeness
//!   when one chase-invented atom must cover several query atoms.
//!
//! Multi-atom-head TGDs are normalised first with auxiliary predicates
//! (the standard logspace reduction the paper cites); CQs still containing
//! auxiliary atoms are dropped from the final union since auxiliary
//! relations are empty in any stored database.

use crate::term::{Atom, AtomArg, Sym};
use crate::tgd::Tgd;
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// A conjunctive query: head (answer) arguments over a body conjunction.
/// Head entries may be constants after rewriting specialises a variable.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cq {
    /// Answer tuple template: variables (which must occur in the body) or
    /// constants.
    pub head: Vec<AtomArg>,
    /// Body atoms.
    pub body: Vec<Atom>,
}

impl Cq {
    /// Creates a CQ with variable head arguments.
    pub fn new(head_vars: &[&str], body: Vec<Atom>) -> Self {
        Cq {
            head: head_vars.iter().map(|v| AtomArg::var(*v)).collect(),
            body,
        }
    }

    /// A Boolean CQ.
    pub fn boolean(body: Vec<Atom>) -> Self {
        Cq {
            head: Vec::new(),
            body,
        }
    }

    /// The set of variables appearing in the head.
    pub fn head_vars(&self) -> BTreeSet<Sym> {
        self.head
            .iter()
            .filter_map(AtomArg::as_var)
            .cloned()
            .collect()
    }

    /// Canonicalises variable names for duplicate detection: sorts atoms
    /// by a name-insensitive key, then renames variables in order of first
    /// appearance, iterating to a (cheap) fixpoint. Deterministic in the
    /// logical structure (variable names do not matter; the order of
    /// shape-identical atoms does), so it can compare CQs across engines.
    pub fn canonical(&self) -> Cq {
        canonicalize(self, &mut CanonCtx::default())
    }
}

/// Cache of canonical variable names `V0`, `V1`, … — renaming clones an
/// `Arc` instead of formatting a fresh string per occurrence.
#[derive(Default)]
struct CanonCtx {
    vnames: Vec<Sym>,
}

impl CanonCtx {
    fn vname(&mut self, i: usize) -> Sym {
        while self.vnames.len() <= i {
            self.vnames.push(format!("V{}", self.vnames.len()).into());
        }
        self.vnames[i].clone()
    }
}

/// Compares two atoms by *shape* — predicate and argument tokens with
/// variables erased. Depends only on symbol content (never on interning
/// or input order), so canonical forms are stable across calls and
/// engines; no strings are formatted.
fn shape_cmp(a: &Atom, b: &Atom) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    let ord = a
        .pred
        .cmp(&b.pred)
        .then_with(|| a.args.len().cmp(&b.args.len()));
    if ord != Ordering::Equal {
        return ord;
    }
    for (x, y) in a.args.iter().zip(b.args.iter()) {
        let rank = |arg: &AtomArg| match arg {
            AtomArg::Var(_) => 0u8,
            AtomArg::Const(_) => 1,
            AtomArg::Null(_) => 2,
        };
        let ord = rank(x).cmp(&rank(y)).then_with(|| match (x, y) {
            (AtomArg::Const(c), AtomArg::Const(d)) => c.cmp(d),
            (AtomArg::Null(n), AtomArg::Null(m)) => n.cmp(m),
            _ => Ordering::Equal, // variables erased
        });
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Canonicalises a CQ: [`Cq::canonical`].
fn canonicalize(cq: &Cq, cx: &mut CanonCtx) -> Cq {
    let mut cq = cq.clone();
    for _ in 0..3 {
        // Sort atoms by shape (variables erased).
        cq.body.sort_by(shape_cmp);
        // Rename in order of first appearance (head first, for
        // stability of distinguished positions).
        let mut renaming: HashMap<Sym, Sym> = HashMap::new();
        let rename = |v: &Sym, renaming: &mut HashMap<Sym, Sym>, cx: &mut CanonCtx| -> Sym {
            if let Some(n) = renaming.get(v) {
                return n.clone();
            }
            let name = cx.vname(renaming.len());
            renaming.insert(v.clone(), name.clone());
            name
        };
        let head: Vec<AtomArg> = cq
            .head
            .iter()
            .map(|arg| match arg {
                AtomArg::Var(v) => AtomArg::Var(rename(v, &mut renaming, cx)),
                other => other.clone(),
            })
            .collect();
        let body: Vec<Atom> = cq
            .body
            .iter()
            .map(|a| {
                Atom::new(
                    a.pred.clone(),
                    a.args
                        .iter()
                        .map(|arg| match arg {
                            AtomArg::Var(v) => AtomArg::Var(rename(v, &mut renaming, cx)),
                            other => other.clone(),
                        })
                        .collect(),
                )
            })
            .collect();
        let next = Cq { head, body };
        if next == cq {
            break;
        }
        cq = next;
    }
    cq.body.sort();
    cq.body.dedup();
    cq
}

impl fmt::Debug for Cq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let head: Vec<String> = self.head.iter().map(|a| a.to_string()).collect();
        let body: Vec<String> = self.body.iter().map(|a| a.to_string()).collect();
        write!(f, "q({}) :- {}", head.join(","), body.join(", "))
    }
}

impl fmt::Display for Cq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Budgets for the rewriting expansion.
#[derive(Clone, Debug)]
pub struct RewriteConfig {
    /// Maximum resolution depth (number of rewriting/factorisation steps
    /// applied on any derivation path).
    pub max_depth: usize,
    /// Maximum number of distinct CQs to keep.
    pub max_cqs: usize,
}

impl Default for RewriteConfig {
    fn default() -> Self {
        RewriteConfig {
            max_depth: 12,
            max_cqs: 20_000,
        }
    }
}

/// The result of a rewriting run.
#[derive(Clone, Debug)]
pub struct RewriteResult {
    /// The union of CQs (auxiliary-predicate-free).
    pub cqs: Vec<Cq>,
    /// `true` iff the expansion reached a fixpoint within budget — for
    /// linear/sticky sets this makes the union a perfect rewriting.
    pub complete: bool,
    /// Number of CQs explored (including auxiliary intermediates).
    pub explored: usize,
}

/// Normalises TGDs to single-atom heads using auxiliary predicates
/// (`_aux$i`). Certain answers over non-auxiliary predicates are
/// preserved.
pub fn normalize_single_head(tgds: &[Tgd]) -> Vec<Tgd> {
    let mut out = Vec::new();
    for (i, tgd) in tgds.iter().enumerate() {
        if tgd.head().len() == 1 {
            out.push(tgd.clone());
            continue;
        }
        // body → aux(frontier ∪ existentials); aux(...) → each head atom.
        let mut aux_vars: Vec<Sym> = tgd.frontier().into_iter().collect();
        aux_vars.extend(tgd.existentials());
        let aux_pred: Sym = format!("_aux{i}").into();
        let aux_atom = Atom::new(
            aux_pred,
            aux_vars.iter().map(|v| AtomArg::Var(v.clone())).collect(),
        );
        out.push(Tgd::new(tgd.body().to_vec(), vec![aux_atom.clone()]));
        for h in tgd.head() {
            out.push(Tgd::new(vec![aux_atom.clone()], vec![h.clone()]));
        }
    }
    out
}

/// A substitution produced by unification: variables map to arguments.
/// Unifiers are tiny (one entry per unified position), so a linear-probe
/// vector beats a hash map.
#[derive(Default)]
struct Unifier(Vec<(Sym, AtomArg)>);

impl Unifier {
    fn get(&self, v: &Sym) -> Option<&AtomArg> {
        self.0.iter().find(|(k, _)| k == v).map(|(_, a)| a)
    }

    fn insert(&mut self, v: Sym, a: AtomArg) {
        self.0.push((v, a));
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

fn resolve(arg: &AtomArg, u: &Unifier) -> AtomArg {
    let mut cur = arg.clone();
    let mut guard = 0;
    while let AtomArg::Var(v) = &cur {
        match u.get(v) {
            Some(next) if next != &cur => {
                cur = next.clone();
                guard += 1;
                if guard > 10_000 {
                    break;
                }
            }
            _ => break,
        }
    }
    cur
}

/// Most general unifier of two atoms (same predicate and arity required).
fn unify(a: &Atom, b: &Atom) -> Option<Unifier> {
    if a.pred != b.pred || a.args.len() != b.args.len() {
        return None;
    }
    let mut u = Unifier::default();
    for (x, y) in a.args.iter().zip(b.args.iter()) {
        let rx = resolve(x, &u);
        let ry = resolve(y, &u);
        if rx == ry {
            continue;
        }
        match (rx, ry) {
            (AtomArg::Var(v), other) | (other, AtomArg::Var(v)) => {
                u.insert(v, other);
            }
            _ => return None, // distinct constants/nulls
        }
    }
    Some(u)
}

fn apply_unifier(atom: &Atom, u: &Unifier) -> Atom {
    Atom::new(
        atom.pred.clone(),
        atom.args.iter().map(|arg| resolve(arg, u)).collect(),
    )
}

/// One *rewriting step*: resolve body atom `ai` of `cq` against the head
/// of `tgd` (renamed apart with suffix `fresh_rename`), subject to the
/// applicability condition on existential variables. The reference
/// [`crate::naive::rewrite`] runs it; the id-level engine mirrors it step
/// for step, so the two differ only in canonicalisation and duplicate
/// detection.
pub(crate) fn resolve_step(
    cq: &Cq,
    tgd: &Tgd,
    head_atom: &Atom,
    ai: usize,
    fresh_rename: usize,
) -> Option<Cq> {
    // Rename TGD variables apart. The head is renamed first and unified;
    // the body and existentials are only materialised when unification
    // succeeds (most attempts fail).
    let rename = |a: &Atom| {
        Atom::new(
            a.pred.clone(),
            a.args
                .iter()
                .map(|arg| match arg {
                    AtomArg::Var(v) => AtomArg::var(format!("R{fresh_rename}_{v}")),
                    other => other.clone(),
                })
                .collect(),
        )
    };
    let head_r = rename(head_atom);
    let atom = &cq.body[ai];
    let u = unify(atom, &head_r)?;
    let body_r: Vec<Atom> = tgd.body().iter().map(rename).collect();
    let existentials_r: BTreeSet<Sym> = tgd
        .existentials()
        .iter()
        .map(|z| Sym::from(format!("R{fresh_rename}_{z}")))
        .collect();
    // Applicability: each existential's unification class must contain no
    // constant, no distinguished variable, and no query variable shared
    // with the rest of the query — and distinct existentials must not be
    // merged.
    let head_vars = cq.head_vars();
    let query_vars: BTreeSet<Sym> = cq
        .body
        .iter()
        .flat_map(|a| a.vars().cloned())
        .chain(head_vars.iter().cloned())
        .collect();
    let mut reps: Vec<AtomArg> = Vec::new();
    let applicable = existentials_r.iter().all(|z| {
        let rep = resolve(&AtomArg::Var(z.clone()), &u);
        if !rep.is_var() {
            return false; // unified with a constant/null
        }
        if reps.contains(&rep) {
            return false; // two existentials merged
        }
        reps.push(rep.clone());
        // Every query variable in the same class must be
        // non-distinguished and local to the resolved atom.
        query_vars.iter().all(|qv| {
            if resolve(&AtomArg::Var(qv.clone()), &u) != rep {
                return true;
            }
            if head_vars.contains(qv) {
                return false;
            }
            let occ_elsewhere = cq
                .body
                .iter()
                .enumerate()
                .filter(|(bi, _)| *bi != ai)
                .flat_map(|(_, a)| a.args.iter())
                .filter(|arg| arg.as_var() == Some(qv))
                .count();
            occ_elsewhere == 0
        })
    });
    if !applicable {
        return None;
    }
    let mut new_body: Vec<Atom> = cq
        .body
        .iter()
        .enumerate()
        .filter(|(bi, _)| *bi != ai)
        .map(|(_, a)| apply_unifier(a, &u))
        .collect();
    new_body.extend(body_r.iter().map(|a| apply_unifier(a, &u)));
    let new_head: Vec<AtomArg> = cq.head.iter().map(|arg| resolve(arg, &u)).collect();
    Some(Cq {
        head: new_head,
        body: new_body,
    })
}

/// All *factorisation steps* of a CQ: unify pairs of same-predicate
/// atoms. Always sound; needed for completeness when one chase-invented
/// atom must cover several query atoms. Run by the reference
/// [`crate::naive::rewrite`].
pub(crate) fn factorisation_steps(cq: &Cq) -> Vec<Cq> {
    let mut out = Vec::new();
    for i in 0..cq.body.len() {
        for j in (i + 1)..cq.body.len() {
            if cq.body[i].pred != cq.body[j].pred {
                continue;
            }
            if let Some(u) = unify(&cq.body[i], &cq.body[j]) {
                if u.is_empty() {
                    continue; // identical atoms; dedup handles it
                }
                let body: Vec<Atom> = cq.body.iter().map(|a| apply_unifier(a, &u)).collect();
                let head: Vec<AtomArg> = cq.head.iter().map(|arg| resolve(arg, &u)).collect();
                out.push(Cq { head, body });
            }
        }
    }
    out
}

/// Rewrites a CQ under a TGD set into a union of CQs.
///
/// The input TGDs may have multi-atom heads (they are normalised
/// internally). The returned union always *contains* the original query,
/// is always sound, and is complete (a perfect rewriting) whenever the
/// expansion terminated (`complete == true`).
///
/// This is a string-boundary wrapper over the id-level engine in
/// [`crate::idcq`]: the TGDs are compiled to an
/// [`crate::idcq::IdTgdSet`] and the query interned against a scratch
/// dictionary, the expansion runs entirely on dense ids, and the union
/// is decoded once at the end. No subsumption pruning is applied here,
/// so the union equals the reference [`crate::naive::rewrite`]'s up to
/// canonical renaming; callers wanting the pruned union use
/// [`crate::idcq::rewrite_ids`] directly.
pub fn rewrite(query: &Cq, tgds: &[Tgd], config: &RewriteConfig) -> RewriteResult {
    let mut scratch = crate::instance::Instance::new();
    let compiled = crate::idcq::IdTgdSet::compile(tgds, &mut scratch);
    let start = crate::idcq::intern_cq(query, &mut scratch);
    let r = crate::idcq::rewrite_ids_unpruned(&start, &compiled, config);
    let mut cqs: Vec<Cq> = r
        .cqs
        .iter()
        .map(|cq| crate::idcq::decode_cq(cq, &scratch))
        .collect();
    cqs.sort();
    RewriteResult {
        cqs,
        complete: r.complete,
        explored: r.explored,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;
    use crate::naive::{chase, evaluate_union, ChaseConfig};
    use crate::term::dsl::*;

    /// Certain answers via the reference chase, for cross-checking
    /// rewritings.
    fn chase_answers(
        query: &Cq,
        tgds: &[Tgd],
        data: &Instance,
    ) -> BTreeSet<Vec<crate::term::GroundTerm>> {
        let r = chase(data.clone(), tgds, &ChaseConfig::default(), 1_000_000);
        assert!(r.is_complete(), "chase must terminate in tests");
        evaluate_union(std::slice::from_ref(query), &r.instance)
    }

    #[test]
    fn identity_rewriting_without_tgds() {
        let q = Cq::new(&["x"], vec![atom("r", &[v("x"), c("k")])]);
        let r = rewrite(&q, &[], &RewriteConfig::default());
        assert!(r.complete);
        assert_eq!(r.cqs.len(), 1);
    }

    #[test]
    fn linear_rewriting_matches_chase() {
        // s(x,y) → r(x,y); query over r picks up s facts.
        let tgds = vec![Tgd::new(
            vec![atom("s", &[v("x"), v("y")])],
            vec![atom("r", &[v("x"), v("y")])],
        )];
        let q = Cq::new(&["x", "y"], vec![atom("r", &[v("x"), v("y")])]);
        let data: Instance = [fact("s", &["a", "b"]), fact("r", &["c", "d"])]
            .into_iter()
            .collect();
        let r = rewrite(&q, &tgds, &RewriteConfig::default());
        assert!(r.complete);
        assert_eq!(r.cqs.len(), 2);
        let rewritten = evaluate_union(&r.cqs, &data);
        assert_eq!(rewritten, chase_answers(&q, &tgds, &data));
        assert_eq!(rewritten.len(), 2);
    }

    #[test]
    fn chain_of_linear_tgds() {
        // a → b → c: query on c sees a-facts after two steps.
        let tgds = vec![
            Tgd::new(vec![atom("a", &[v("x")])], vec![atom("b", &[v("x")])]),
            Tgd::new(vec![atom("b", &[v("x")])], vec![atom("c", &[v("x")])]),
        ];
        let q = Cq::new(&["x"], vec![atom("c", &[v("x")])]);
        let data: Instance = [fact("a", &["1"])].into_iter().collect();
        let r = rewrite(&q, &tgds, &RewriteConfig::default());
        assert!(r.complete);
        assert_eq!(r.cqs.len(), 3);
        assert_eq!(
            evaluate_union(&r.cqs, &data),
            chase_answers(&q, &tgds, &data)
        );
    }

    #[test]
    fn existential_applicability_blocks_distinguished_vars() {
        // p(x) → r(x, z): a query asking for the *second* position may not
        // resolve it into the existential.
        let tgds = vec![Tgd::new(
            vec![atom("p", &[v("x")])],
            vec![atom("r", &[v("x"), v("z")])],
        )];
        let q = Cq::new(&["y"], vec![atom("r", &[v("x"), v("y")])]);
        let data: Instance = [fact("p", &["a"])].into_iter().collect();
        let r = rewrite(&q, &tgds, &RewriteConfig::default());
        assert!(r.complete);
        // Only the original CQ: the rewriting step is inapplicable.
        assert_eq!(r.cqs.len(), 1);
        assert!(evaluate_union(&r.cqs, &data).is_empty());
        // And the chase agrees: the only r-fact has a null in position 2.
        assert!(chase_answers(&q, &tgds, &data).is_empty());
    }

    #[test]
    fn existential_ok_when_projected_away() {
        let tgds = vec![Tgd::new(
            vec![atom("p", &[v("x")])],
            vec![atom("r", &[v("x"), v("z")])],
        )];
        let q = Cq::new(&["x"], vec![atom("r", &[v("x"), v("y")])]);
        let data: Instance = [fact("p", &["a"])].into_iter().collect();
        let r = rewrite(&q, &tgds, &RewriteConfig::default());
        assert!(r.complete);
        assert_eq!(r.cqs.len(), 2);
        let ans = evaluate_union(&r.cqs, &data);
        assert_eq!(ans, chase_answers(&q, &tgds, &data));
        assert_eq!(ans.len(), 1);
    }

    #[test]
    fn shared_variable_blocks_existential() {
        // r(x,y) joined on y with s(y): resolving r against p(x)→r(x,z)
        // must be blocked because z would unify with the shared y.
        let tgds = vec![Tgd::new(
            vec![atom("p", &[v("x")])],
            vec![atom("r", &[v("x"), v("z")])],
        )];
        let q = Cq::new(
            &["x"],
            vec![atom("r", &[v("x"), v("y")]), atom("s", &[v("y")])],
        );
        let data: Instance = [fact("p", &["a"]), fact("s", &["b"])].into_iter().collect();
        let r = rewrite(&q, &tgds, &RewriteConfig::default());
        assert!(r.complete);
        let ans = evaluate_union(&r.cqs, &data);
        assert_eq!(ans, chase_answers(&q, &tgds, &data));
        assert!(ans.is_empty());
    }

    #[test]
    fn factorisation_enables_completeness() {
        // p(x) → ∃z r(x,z) ∧ ... classic case needing factorisation:
        // q(x) :- r(x,y1), r(x,y2) — the two atoms must be factorised to
        // resolve against the single head.
        let tgds = vec![Tgd::new(
            vec![atom("p", &[v("x")])],
            vec![atom("r", &[v("x"), v("z")])],
        )];
        let q = Cq::new(
            &["x"],
            vec![atom("r", &[v("x"), v("y1")]), atom("r", &[v("x"), v("y2")])],
        );
        let data: Instance = [fact("p", &["a"])].into_iter().collect();
        let r = rewrite(&q, &tgds, &RewriteConfig::default());
        assert!(r.complete);
        let ans = evaluate_union(&r.cqs, &data);
        assert_eq!(ans, chase_answers(&q, &tgds, &data));
        assert_eq!(ans.len(), 1);
    }

    #[test]
    fn multi_head_normalisation_preserves_answers() {
        // p(x) → q(x,z) ∧ r(z, x): multi-atom head.
        let tgds = vec![Tgd::new(
            vec![atom("p", &[v("x")])],
            vec![atom("q", &[v("x"), v("z")]), atom("r", &[v("z"), v("x")])],
        )];
        let norm = normalize_single_head(&tgds);
        assert_eq!(norm.len(), 3);
        let query = Cq::new(&["x"], vec![atom("q", &[v("x"), v("w")])]);
        let data: Instance = [fact("p", &["a"])].into_iter().collect();
        let r = rewrite(&query, &tgds, &RewriteConfig::default());
        assert!(r.complete);
        let ans = evaluate_union(&r.cqs, &data);
        // Chase over the *original* TGDs for the cross-check.
        assert_eq!(ans, chase_answers(&query, &tgds, &data));
        assert_eq!(ans.len(), 1);
        // Aux predicates never leak into the final union.
        assert!(r
            .cqs
            .iter()
            .all(|cq| cq.body.iter().all(|a| !a.pred.starts_with("_aux"))));
    }

    #[test]
    fn transitive_closure_is_depth_bounded_and_incomplete() {
        // Proposition 3's witness: A(x,z) ∧ A(z,y) → A(x,y) is not
        // FO-rewritable; the expansion keeps producing longer chains.
        let tgds = vec![Tgd::new(
            vec![atom("A", &[v("x"), v("z")]), atom("A", &[v("z"), v("y")])],
            vec![atom("A", &[v("x"), v("y")])],
        )];
        let q = Cq::new(&["x", "y"], vec![atom("A", &[v("x"), v("y")])]);
        let cfg = RewriteConfig {
            max_depth: 3,
            max_cqs: 10_000,
        };
        let r = rewrite(&q, &tgds, &cfg);
        assert!(!r.complete, "transitive closure must exhaust the budget");
        // Depth-3 rewriting covers chains up to some bounded length only.
        let chain = |n: usize| -> Instance {
            (0..n)
                .map(|i| fact("A", &[&i.to_string(), &(i + 1).to_string()]))
                .collect()
        };
        let short = chain(3);
        let ans_short = evaluate_union(&r.cqs, &short);
        assert!(ans_short.contains(&vec![
            crate::term::GroundTerm::constant("0"),
            crate::term::GroundTerm::constant("3")
        ]));
        // A long chain's endpoints are certain answers (chase finds them)
        // but the bounded rewriting misses them.
        let long = chain(40);
        let ans_long = evaluate_union(&r.cqs, &long);
        assert!(!ans_long.contains(&vec![
            crate::term::GroundTerm::constant("0"),
            crate::term::GroundTerm::constant("40")
        ]));
    }

    #[test]
    fn constants_in_tgd_heads_specialise_queries() {
        // s(x) → r(x, K): query q(y) :- r(a, y) should learn y = K when
        // s(a) holds.
        let tgds = vec![Tgd::new(
            vec![atom("s", &[v("x")])],
            vec![atom("r", &[v("x"), c("K")])],
        )];
        let q = Cq::new(&["y"], vec![atom("r", &[c("a"), v("y")])]);
        let data: Instance = [fact("s", &["a"])].into_iter().collect();
        let r = rewrite(&q, &tgds, &RewriteConfig::default());
        assert!(r.complete);
        let ans = evaluate_union(&r.cqs, &data);
        assert_eq!(ans, chase_answers(&q, &tgds, &data));
        assert_eq!(
            ans.into_iter().next().unwrap(),
            vec![crate::term::GroundTerm::constant("K")]
        );
    }

    #[test]
    fn boolean_query_rewriting() {
        let tgds = vec![Tgd::new(
            vec![atom("s", &[v("x"), v("y")])],
            vec![atom("r", &[v("x"), v("y")])],
        )];
        let q = Cq::boolean(vec![atom("r", &[c("a"), v("y")])]);
        let data: Instance = [fact("s", &["a", "b"])].into_iter().collect();
        let r = rewrite(&q, &tgds, &RewriteConfig::default());
        let ans = evaluate_union(&r.cqs, &data);
        assert_eq!(ans.len(), 1); // the empty tuple: true
        assert!(ans.contains(&vec![]));
    }

    #[test]
    fn canonicalisation_dedups_renamings() {
        let a = Cq::new(&["x"], vec![atom("r", &[v("x"), v("y")])]);
        let b = Cq::new(&["u"], vec![atom("r", &[v("u"), v("w")])]);
        assert_eq!(a.canonical(), b.canonical());
    }

    #[test]
    fn canonicalisation_is_input_order_independent() {
        // Same logical CQ presented with different atom orders and
        // variable names must canonicalise identically — the shape sort
        // depends on symbol content, not first-appearance interning.
        let a = Cq::boolean(vec![
            atom("q", &[v("y"), v("z")]),
            atom("p", &[v("z"), v("y")]),
        ]);
        let b = Cq::boolean(vec![
            atom("p", &[v("b"), v("a")]),
            atom("q", &[v("a"), v("b")]),
        ]);
        assert_eq!(a.canonical(), b.canonical());
        // And constants order by content, not by interning order.
        let q1 = Cq::boolean(vec![
            atom("r", &[c("zz"), v("x")]),
            atom("r", &[c("aa"), v("x")]),
        ]);
        let q2 = Cq::boolean(vec![
            atom("r", &[c("aa"), v("u")]),
            atom("r", &[c("zz"), v("u")]),
        ]);
        assert_eq!(q1.canonical(), q2.canonical());
    }
}
