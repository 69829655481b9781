//! The Section-3 reference: string-level homomorphism search, the
//! round-based restricted chase, certain-answer evaluation of a union of
//! CQs, and string-canonical UCQ rewriting — each written the plain way,
//! with no index beyond a first-argument probe and no delta windows.
//!
//! This is the one statement of those semantics the crate ships. Nothing
//! that serves a query calls it: its users are the property tests
//! (`tests/proptests.rs`, which hold the id-level rewriter of
//! [`crate::idcq`] to [`rewrite`] and every rewriting to [`chase`] +
//! [`evaluate_union`]), `rps_core`'s encoding tests, which hold the RDF
//! chase to this chase of the Section-3 encoding, and the workspace's
//! `tests/paper_example.rs`, which runs it on Figure 1.

use crate::instance::Instance;
use crate::rewrite::{Cq, RewriteConfig, RewriteResult};
use crate::term::{Atom, AtomArg, GroundTerm, Sym};
use crate::tgd::Tgd;
use std::collections::{BTreeSet, HashMap};

/// A substitution from variables to ground terms.
pub type Subst = HashMap<Sym, GroundTerm>;

/// Applies a substitution to an atom; unmapped variables remain.
pub fn apply(atom: &Atom, subst: &Subst) -> Atom {
    Atom::new(
        atom.pred.clone(),
        atom.args
            .iter()
            .map(|a| match a {
                AtomArg::Var(x) => match subst.get(x) {
                    Some(g) => AtomArg::from(g.clone()),
                    None => a.clone(),
                },
                other => other.clone(),
            })
            .collect(),
    )
}

/// Finds all homomorphisms from `atoms` into `instance` extending
/// `seed`, by unindexed backtracking over decoded rows.
pub fn all_homomorphisms(atoms: &[Atom], instance: &Instance, seed: &Subst) -> Vec<Subst> {
    let mut out = Vec::new();
    let order = plan(atoms, instance);
    let mut subst = seed.clone();
    search(&order, 0, instance, &mut subst, &mut |s| {
        out.push(s.clone());
        true
    });
    out
}

/// Returns `true` iff at least one homomorphism exists (early exit).
pub fn exists_homomorphism(atoms: &[Atom], instance: &Instance, seed: &Subst) -> bool {
    let order = plan(atoms, instance);
    let mut subst = seed.clone();
    let mut found = false;
    search(&order, 0, instance, &mut subst, &mut |_| {
        found = true;
        false
    });
    found
}

/// Orders atoms greedily: smaller relations first, preferring atoms that
/// share variables with already-placed atoms.
fn plan<'a>(atoms: &'a [Atom], instance: &Instance) -> Vec<&'a Atom> {
    let mut remaining: Vec<&Atom> = atoms.iter().collect();
    let mut order: Vec<&Atom> = Vec::with_capacity(atoms.len());
    let mut bound: std::collections::HashSet<&Sym> = std::collections::HashSet::new();
    while !remaining.is_empty() {
        let (idx, _) = remaining
            .iter()
            .enumerate()
            .min_by_key(|(_, a)| {
                let size = instance.relation_size(&a.pred);
                let connected = a.vars().any(|v| bound.contains(v));
                // Strongly prefer connected atoms; among ties, small ones.
                (if connected || bound.is_empty() { 0 } else { 1 }, size)
            })
            .expect("non-empty");
        let atom = remaining.remove(idx);
        for v in atom.vars() {
            bound.insert(v);
        }
        order.push(atom);
    }
    order
}

/// Backtracking matcher. `emit` returns `false` to stop the search.
fn search(
    order: &[&Atom],
    depth: usize,
    instance: &Instance,
    subst: &mut Subst,
    emit: &mut dyn FnMut(&Subst) -> bool,
) -> bool {
    if depth == order.len() {
        return emit(subst);
    }
    let atom = order[depth];
    // Candidate rows: a first-argument probe when the leading position is
    // already determined, otherwise the full relation.
    let first_bound = atom.args.first().and_then(|arg| match arg {
        AtomArg::Const(c) => Some(GroundTerm::Const(c.clone())),
        AtomArg::Null(n) => Some(GroundTerm::Null(*n)),
        AtomArg::Var(x) => subst.get(x).cloned(),
    });
    let rows: Vec<Vec<GroundTerm>> = match &first_bound {
        Some(first) => instance.rows_with_first(&atom.pred, first).collect(),
        None => instance.rows(&atom.pred).collect(),
    };
    'rows: for row in rows {
        if row.len() != atom.args.len() {
            continue;
        }
        let mut newly_bound: Vec<Sym> = Vec::new();
        for (arg, val) in atom.args.iter().zip(row.iter()) {
            let ok = match arg {
                AtomArg::Const(c) => matches!(val, GroundTerm::Const(v) if v == c),
                AtomArg::Null(n) => matches!(val, GroundTerm::Null(v) if v == n),
                AtomArg::Var(x) => match subst.get(x) {
                    Some(existing) => existing == val,
                    None => {
                        subst.insert(x.clone(), val.clone());
                        newly_bound.push(x.clone());
                        true
                    }
                },
            };
            if !ok {
                for x in newly_bound {
                    subst.remove(&x);
                }
                continue 'rows;
            }
        }
        let keep_going = search(order, depth + 1, instance, subst, emit);
        for x in newly_bound {
            subst.remove(&x);
        }
        if !keep_going {
            return false;
        }
    }
    true
}

/// The certain answers of a union of CQs over an instance: every
/// homomorphism of a body, projected onto its head, keeping only the
/// tuples that hold no labelled null. A head variable the body does not
/// bind contributes no tuple.
pub fn evaluate_union(cqs: &[Cq], instance: &Instance) -> BTreeSet<Vec<GroundTerm>> {
    let mut out = BTreeSet::new();
    for cq in cqs {
        for subst in all_homomorphisms(&cq.body, instance, &Subst::new()) {
            let tuple: Option<Vec<GroundTerm>> = cq
                .head
                .iter()
                .map(|arg| match arg {
                    AtomArg::Var(x) => subst.get(x).cloned(),
                    AtomArg::Const(c) => Some(GroundTerm::Const(c.clone())),
                    AtomArg::Null(n) => Some(GroundTerm::Null(*n)),
                })
                .collect();
            if let Some(tuple) = tuple.filter(|t| !t.iter().any(GroundTerm::is_null)) {
                out.insert(tuple);
            }
        }
    }
    out
}

/// Budgets for a chase run.
#[derive(Clone, Debug)]
pub struct ChaseConfig {
    /// Maximum number of chase *rounds* (full passes over all TGDs).
    pub max_rounds: usize,
    /// Maximum number of facts the chase may create in total.
    pub max_facts: usize,
}

impl Default for ChaseConfig {
    fn default() -> Self {
        ChaseConfig {
            max_rounds: 10_000,
            max_facts: 5_000_000,
        }
    }
}

/// Why the chase stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChaseOutcome {
    /// A fixpoint was reached: the instance satisfies all TGDs.
    Fixpoint,
    /// The round budget was exhausted before reaching a fixpoint.
    RoundBudgetExhausted,
    /// The fact budget was exhausted before reaching a fixpoint.
    FactBudgetExhausted,
}

/// The result of a chase run.
#[derive(Clone, Debug)]
pub struct ChaseResult {
    /// The (possibly partial) chased instance.
    pub instance: Instance,
    /// Why the run stopped.
    pub outcome: ChaseOutcome,
    /// Number of trigger firings.
    pub steps: usize,
    /// Number of rounds executed.
    pub rounds: usize,
    /// Number of fresh labelled nulls created.
    pub nulls_created: u64,
}

impl ChaseResult {
    /// `true` iff the chase reached a fixpoint (the instance is a
    /// universal solution).
    pub fn is_complete(&self) -> bool {
        self.outcome == ChaseOutcome::Fixpoint
    }
}

/// Runs the restricted chase of `instance` under `tgds`, re-scanning
/// every TGD body in full each round. Its result, when it terminates, is
/// a *universal solution*: the certain answers of a CQ are its answers
/// over it with null-holding tuples dropped ([`evaluate_union`];
/// Fagin–Kolaitis–Miller–Popa, cited as \[12\] in the paper).
///
/// `null_counter` is the first fresh null label; passing a value above
/// every null already in the instance keeps labels unique. The budgets
/// make a non-terminating input stop instead of hanging.
pub fn chase(
    mut instance: Instance,
    tgds: &[Tgd],
    config: &ChaseConfig,
    mut null_counter: u64,
) -> ChaseResult {
    let start_nulls = null_counter;
    let mut steps = 0usize;
    let mut rounds = 0usize;

    loop {
        if rounds >= config.max_rounds {
            return ChaseResult {
                instance,
                outcome: ChaseOutcome::RoundBudgetExhausted,
                steps,
                rounds,
                nulls_created: null_counter - start_nulls,
            };
        }
        rounds += 1;
        let mut changed = false;

        for tgd in tgds {
            // Triggers are computed against the instance as it stood at
            // the start of this TGD's turn; firing inserts immediately,
            // and the satisfaction check always consults the live
            // instance, making this a restricted (standard) chase.
            let triggers = all_homomorphisms(tgd.body(), &instance, &Subst::new());
            for trigger in triggers {
                // Restricted chase: fire only if the head is not already
                // satisfied by *some* extension of the trigger.
                if exists_homomorphism(tgd.head(), &instance, &trigger) {
                    continue;
                }
                // Extend the trigger with fresh nulls for existentials.
                let mut extended = trigger.clone();
                for z in tgd.existentials() {
                    extended.insert(z, GroundTerm::Null(null_counter));
                    null_counter += 1;
                }
                for head_atom in tgd.head() {
                    let fact = apply(head_atom, &extended)
                        .as_fact()
                        .expect("extended trigger grounds the head");
                    instance.insert(fact);
                }
                steps += 1;
                changed = true;
                if instance.len() > config.max_facts {
                    return ChaseResult {
                        instance,
                        outcome: ChaseOutcome::FactBudgetExhausted,
                        steps,
                        rounds,
                        nulls_created: null_counter - start_nulls,
                    };
                }
            }
        }

        if !changed {
            return ChaseResult {
                instance,
                outcome: ChaseOutcome::Fixpoint,
                steps,
                rounds,
                nulls_created: null_counter - start_nulls,
            };
        }
    }
}

/// Checks whether an instance satisfies every TGD (every body
/// homomorphism extends to a head homomorphism).
pub fn satisfies(instance: &Instance, tgds: &[Tgd]) -> bool {
    tgds.iter().all(|tgd| {
        all_homomorphisms(tgd.body(), instance, &Subst::new())
            .iter()
            .all(|trigger| exists_homomorphism(tgd.head(), instance, trigger))
    })
}

/// The string-keyed UCQ rewriting: canonicalisation sorts atoms by
/// formatted string keys and the seen-set stores whole CQs in a
/// `BTreeSet`. Same rewriting/factorisation steps as the id-level engine
/// behind [`crate::rewrite::rewrite`]; property tests assert the produced
/// UCQ sets are equal.
pub fn rewrite(query: &Cq, tgds: &[Tgd], config: &RewriteConfig) -> RewriteResult {
    use crate::rewrite::normalize_single_head;
    use std::collections::VecDeque;

    /// String-keyed canonicalisation (the original implementation).
    fn canonical(cq: &Cq) -> Cq {
        let mut cq = cq.clone();
        for _ in 0..3 {
            let key = |a: &Atom| {
                let args: Vec<String> = a
                    .args
                    .iter()
                    .map(|x| match x {
                        AtomArg::Var(_) => "?".to_string(),
                        AtomArg::Const(c) => format!("c:{c}"),
                        AtomArg::Null(n) => format!("n:{n}"),
                    })
                    .collect();
                (a.pred.clone(), args.join(","))
            };
            cq.body.sort_by_key(key);
            let mut renaming: HashMap<Sym, Sym> = HashMap::new();
            let mut fresh = 0usize;
            let mut rename = |v: &Sym, renaming: &mut HashMap<Sym, Sym>| -> Sym {
                renaming
                    .entry(v.clone())
                    .or_insert_with(|| {
                        let name: Sym = format!("V{fresh}").into();
                        fresh += 1;
                        name
                    })
                    .clone()
            };
            let head: Vec<AtomArg> = cq
                .head
                .iter()
                .map(|arg| match arg {
                    AtomArg::Var(v) => AtomArg::Var(rename(v, &mut renaming)),
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
                                AtomArg::Var(v) => AtomArg::Var(rename(v, &mut renaming)),
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

    let tgds = normalize_single_head(tgds);
    let mut seen: BTreeSet<Cq> = BTreeSet::new();
    let mut queue: VecDeque<(Cq, usize)> = VecDeque::new();
    let start = canonical(query);
    seen.insert(start.clone());
    queue.push_back((start, 0));
    let mut complete = true;
    let mut fresh_rename = 0usize;

    while let Some((cq, depth)) = queue.pop_front() {
        if depth >= config.max_depth {
            complete = false;
            continue;
        }
        let mut successors: Vec<Cq> = Vec::new();
        for tgd in &tgds {
            let head_atom = &tgd.head()[0];
            for (ai, atom) in cq.body.iter().enumerate() {
                if atom.pred != head_atom.pred {
                    continue;
                }
                fresh_rename += 1;
                if let Some(succ) =
                    crate::rewrite::resolve_step(&cq, tgd, head_atom, ai, fresh_rename)
                {
                    successors.push(succ);
                }
            }
        }
        successors.extend(crate::rewrite::factorisation_steps(&cq));

        for succ in successors {
            let canon = canonical(&succ);
            if seen.contains(&canon) {
                continue;
            }
            if seen.len() >= config.max_cqs {
                complete = false;
                break;
            }
            seen.insert(canon.clone());
            queue.push_back((canon, depth + 1));
        }
    }

    let explored = seen.len();
    let cqs: Vec<Cq> = seen
        .into_iter()
        .filter(|cq| !cq.body.iter().any(|a| a.pred.starts_with("_aux")))
        .collect();
    RewriteResult {
        cqs,
        complete,
        explored,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::dsl::*;
    use crate::term::Fact;

    fn inst() -> Instance {
        [
            fact("e", &["a", "b"]),
            fact("e", &["b", "c"]),
            fact("e", &["c", "d"]),
            fact("lbl", &["a", "start"]),
        ]
        .into_iter()
        .collect()
    }

    fn copy_tgd() -> Tgd {
        Tgd::new(
            vec![atom("src", &[v("x"), v("y")])],
            vec![atom("dst", &[v("x"), v("y")])],
        )
    }

    // ------------------------------------------------ homomorphisms

    #[test]
    fn single_atom_all_matches() {
        let homs = all_homomorphisms(&[atom("e", &[v("x"), v("y")])], &inst(), &Subst::new());
        assert_eq!(homs.len(), 3);
    }

    #[test]
    fn path_join() {
        let body = [atom("e", &[v("x"), v("y")]), atom("e", &[v("y"), v("z")])];
        let homs = all_homomorphisms(&body, &inst(), &Subst::new());
        assert_eq!(homs.len(), 2); // a-b-c and b-c-d
    }

    #[test]
    fn constant_filters() {
        let body = [atom("e", &[c("a"), v("y")])];
        let homs = all_homomorphisms(&body, &inst(), &Subst::new());
        assert_eq!(homs.len(), 1);
        assert_eq!(homs[0][&Sym::from("y")], GroundTerm::constant("b"));
    }

    #[test]
    fn seed_constrains_search() {
        let mut seed = Subst::new();
        seed.insert(Sym::from("x"), GroundTerm::constant("b"));
        let homs = all_homomorphisms(&[atom("e", &[v("x"), v("y")])], &inst(), &seed);
        assert_eq!(homs.len(), 1);
    }

    #[test]
    fn seed_value_missing_from_instance_yields_nothing() {
        let mut seed = Subst::new();
        seed.insert(Sym::from("x"), GroundTerm::constant("no-such"));
        assert!(all_homomorphisms(&[atom("e", &[v("x"), v("y")])], &inst(), &seed).is_empty());
        assert!(!exists_homomorphism(
            &[atom("e", &[v("x"), v("y")])],
            &inst(),
            &seed
        ));
    }

    #[test]
    fn seed_vars_outside_conjunction_are_carried() {
        let mut seed = Subst::new();
        seed.insert(Sym::from("unused"), GroundTerm::constant("no-such"));
        let homs = all_homomorphisms(&[atom("e", &[v("x"), v("y")])], &inst(), &seed);
        assert_eq!(homs.len(), 3);
        assert_eq!(
            homs[0][&Sym::from("unused")],
            GroundTerm::constant("no-such")
        );
    }

    #[test]
    fn repeated_variable_in_atom() {
        let mut i = inst();
        i.insert(fact("e", &["z", "z"]));
        let homs = all_homomorphisms(&[atom("e", &[v("x"), v("x")])], &i, &Subst::new());
        assert_eq!(homs.len(), 1);
    }

    #[test]
    fn exists_short_circuits() {
        assert!(exists_homomorphism(
            &[atom("e", &[v("x"), v("y")])],
            &inst(),
            &Subst::new()
        ));
        assert!(!exists_homomorphism(
            &[atom("e", &[c("d"), v("y")])],
            &inst(),
            &Subst::new()
        ));
    }

    #[test]
    fn unknown_constant_or_predicate_is_unsatisfiable() {
        assert!(!exists_homomorphism(
            &[atom("e", &[c("nope"), v("y")])],
            &inst(),
            &Subst::new()
        ));
        assert!(all_homomorphisms(&[atom("nopred", &[v("x")])], &inst(), &Subst::new()).is_empty());
    }

    #[test]
    fn null_matching() {
        let mut i = Instance::new();
        i.insert(Fact::new(
            "t",
            vec![GroundTerm::constant("a"), GroundTerm::Null(7)],
        ));
        // Variables can bind nulls.
        let homs = all_homomorphisms(&[atom("t", &[v("x"), v("y")])], &i, &Subst::new());
        assert_eq!(homs.len(), 1);
        assert_eq!(homs[0][&Sym::from("y")], GroundTerm::Null(7));
        // Null literals in atoms match only the same null.
        assert!(exists_homomorphism(
            &[atom("t", &[v("x"), AtomArg::Null(7)])],
            &i,
            &Subst::new()
        ));
        assert!(!exists_homomorphism(
            &[atom("t", &[v("x"), AtomArg::Null(8)])],
            &i,
            &Subst::new()
        ));
    }

    #[test]
    fn cq_evaluation_certain() {
        let mut i = Instance::new();
        i.insert(Fact::new(
            "t",
            vec![GroundTerm::constant("a"), GroundTerm::Null(1)],
        ));
        i.insert(Fact::new(
            "t",
            vec![GroundTerm::constant("a"), GroundTerm::constant("b")],
        ));
        let cq = Cq::new(&["y"], vec![atom("t", &[v("x"), v("y")])]);
        let certain = evaluate_union(&[cq], &i);
        assert_eq!(certain, BTreeSet::from([vec![GroundTerm::constant("b")]]));
    }

    #[test]
    fn apply_substitution() {
        let mut s = Subst::new();
        s.insert(Sym::from("x"), GroundTerm::Null(3));
        let a = apply(&atom("t", &[v("x"), v("y"), c("k")]), &s);
        assert_eq!(a.to_string(), "t(⊥3,?y,k)");
    }

    // ------------------------------------------------------- chase

    #[test]
    fn naive_chase_reaches_fixpoint() {
        let inst: Instance = [fact("src", &["a", "b"])].into_iter().collect();
        let r = chase(inst, &[copy_tgd()], &ChaseConfig::default(), 0);
        assert!(r.is_complete());
        assert!(r.instance.contains(&fact("dst", &["a", "b"])));
    }

    #[test]
    fn copy_dependency_reaches_fixpoint() {
        let inst: Instance = [fact("src", &["a", "b"]), fact("src", &["c", "d"])]
            .into_iter()
            .collect();
        let r = chase(inst, &[copy_tgd()], &ChaseConfig::default(), 0);
        assert!(r.is_complete());
        assert!(r.instance.contains(&fact("dst", &["a", "b"])));
        assert_eq!(r.instance.relation_size("dst"), 2);
        assert_eq!(r.nulls_created, 0);
        assert!(satisfies(&r.instance, &[copy_tgd()]));
    }

    #[test]
    fn existentials_create_nulls() {
        // person(x) -> hasParent(x, z)
        let tgd = Tgd::new(
            vec![atom("person", &[v("x")])],
            vec![atom("hasParent", &[v("x"), v("z")])],
        );
        let inst: Instance = [fact("person", &["alice"])].into_iter().collect();
        let r = chase(
            inst,
            std::slice::from_ref(&tgd),
            &ChaseConfig::default(),
            100,
        );
        assert!(r.is_complete());
        assert_eq!(r.nulls_created, 1);
        assert_eq!(r.instance.relation_size("hasParent"), 1);
        // Restricted chase: the null parent does NOT need its own parent
        // unless a rule requires persons only.
        assert!(satisfies(&r.instance, &[tgd]));
    }

    #[test]
    fn restricted_chase_does_not_refire_satisfied_triggers() {
        // r(x,y) -> exists z: r(y,z). With a cycle already present the
        // restricted chase terminates without inventing nulls.
        let tgd = Tgd::new(
            vec![atom("r", &[v("x"), v("y")])],
            vec![atom("r", &[v("y"), v("z")])],
        );
        let inst: Instance = [fact("r", &["a", "b"]), fact("r", &["b", "a"])]
            .into_iter()
            .collect();
        let r = chase(inst, &[tgd], &ChaseConfig::default(), 0);
        assert!(r.is_complete());
        assert_eq!(r.steps, 0);
    }

    #[test]
    fn transitive_closure_chase() {
        // e(x,z) ∧ e(z,y) -> e(x,y) over a chain of 5.
        let tgd = Tgd::new(
            vec![atom("e", &[v("x"), v("z")]), atom("e", &[v("z"), v("y")])],
            vec![atom("e", &[v("x"), v("y")])],
        );
        let inst: Instance = (0..5)
            .map(|i| fact("e", &[&i.to_string(), &(i + 1).to_string()]))
            .collect();
        let r = chase(inst, &[tgd], &ChaseConfig::default(), 0);
        assert!(r.is_complete());
        // Transitive closure of a 6-node chain: 6*5/2 = 15 pairs.
        assert_eq!(r.instance.relation_size("e"), 15);
        assert!(r.instance.contains(&fact("e", &["0", "5"])));
    }

    #[test]
    fn non_terminating_chase_hits_budget() {
        // r(x,y) -> exists z: r(y,z) on an acyclic seed never terminates:
        // each new null's fact creates a fresh unsatisfied trigger.
        let tgd = Tgd::new(
            vec![atom("r", &[v("x"), v("y")])],
            vec![atom("r", &[v("y"), v("z")])],
        );
        let inst: Instance = [fact("r", &["a", "b"])].into_iter().collect();
        let cfg = ChaseConfig {
            max_rounds: 20,
            max_facts: 1_000,
        };
        let r = chase(inst, &[tgd], &cfg, 0);
        assert!(!r.is_complete());
        assert_eq!(r.outcome, ChaseOutcome::RoundBudgetExhausted);
        assert!(r.nulls_created >= 19);
    }

    #[test]
    fn fact_budget_stops_explosion() {
        // Cartesian-product generator: a(x) ∧ a(y) -> exists z: b(x,y,z)
        let tgd = Tgd::new(
            vec![atom("a", &[v("x")]), atom("a", &[v("y")])],
            vec![atom("b", &[v("x"), v("y"), v("z")])],
        );
        let inst: Instance = (0..40).map(|i| fact("a", &[&i.to_string()])).collect();
        let cfg = ChaseConfig {
            max_rounds: 100,
            max_facts: 500,
        };
        let r = chase(inst, &[tgd], &cfg, 0);
        assert_eq!(r.outcome, ChaseOutcome::FactBudgetExhausted);
        assert!(r.instance.len() > 500);
    }

    #[test]
    fn multi_atom_heads() {
        let tgd = Tgd::new(
            vec![atom("p", &[v("x")])],
            vec![atom("q", &[v("x"), v("z")]), atom("r", &[v("z"), v("x")])],
        );
        let inst: Instance = [fact("p", &["a"])].into_iter().collect();
        let r = chase(inst, &[tgd], &ChaseConfig::default(), 0);
        assert!(r.is_complete());
        assert_eq!(r.instance.relation_size("q"), 1);
        assert_eq!(r.instance.relation_size("r"), 1);
        // The same null links q and r.
        let qrows: Vec<_> = r.instance.rows("q").collect();
        let rrows: Vec<_> = r.instance.rows("r").collect();
        assert_eq!(qrows[0][1], rrows[0][0]);
    }

    #[test]
    fn satisfies_detects_violation() {
        let inst: Instance = [fact("src", &["a", "b"])].into_iter().collect();
        assert!(!satisfies(&inst, &[copy_tgd()]));
    }

    #[test]
    fn head_constants_unknown_to_instance_are_interned() {
        // The head writes a constant that occurs nowhere in the source:
        // it must become insertable and matchable.
        let tgd = Tgd::new(
            vec![atom("p", &[v("x")])],
            vec![atom("tagged", &[v("x"), c("LABEL")])],
        );
        let inst: Instance = [fact("p", &["a"])].into_iter().collect();
        let r = chase(inst, std::slice::from_ref(&tgd), &ChaseConfig::default(), 0);
        assert!(r.is_complete());
        assert!(r.instance.contains(&fact("tagged", &["a", "LABEL"])));
        assert!(satisfies(&r.instance, &[tgd]));
    }
}
