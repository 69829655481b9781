//! Syntactic classification of TGD sets: linearity, stickiness
//! (Definition 4 of the paper — the Calì–Gottlob–Pieris variable-marking
//! procedure), guardedness and weak acyclicity.
//!
//! Section 4 of the paper observes that the TGDs of an RPS are neither
//! sticky, nor linear, nor weakly acyclic, nor (weakly) guarded in
//! general, but that the equivalence-mapping TGDs are linear *and* sticky;
//! Proposition 2 then guarantees FO-rewritability whenever the
//! graph-mapping TGDs are linear, sticky or sticky-join. The classifiers
//! here drive that decision (`examples/classify_mappings` prints them;
//! `tests/transitive_closure.rs` holds the negative case).
//!
//! An RPS's verdict is computed on its graph-mapping TGDs `G` alone
//! (`rps_core::RpsRewriter`), and it is the verdict on `G ∪ E` with the
//! equivalence TGDs `E`, field by field. Every `E` TGD is
//! `tt(…c…) → tt(…c′…)`: one atom a side, the same two variables at the
//! same two positions on both, none repeated. So Definition 4 marks one
//! only at a position its body already holds marked, and `E` adds no
//! marked position and no sticky violation; `E` is linear, hence
//! guarded; and its only weak-acyclicity edges are self-loops
//! `tt[i] → tt[i]`, which close no cycle through a special edge.
//! `tests/proptests.rs` sweeps it.

use crate::term::{Atom, Sym};
use crate::tgd::Tgd;
use std::collections::{BTreeMap, BTreeSet};

/// A position `r[i]`: predicate symbol plus argument index.
pub type Position = (Sym, usize);

/// The result of the Definition-4 marking procedure.
#[derive(Clone, Debug)]
pub struct Marking {
    /// Marked `(tgd_index, variable)` pairs — marking applies to *all*
    /// occurrences of the variable in that TGD's body.
    pub marked: BTreeSet<(usize, Sym)>,
    /// Positions at which some marked body occurrence appears.
    pub marked_positions: BTreeSet<Position>,
}

/// Runs the variable-marking procedure of Definition 4.
pub fn marking(tgds: &[Tgd]) -> Marking {
    let mut marked: BTreeSet<(usize, Sym)> = BTreeSet::new();

    // Initial step: for each TGD σ and variable V of body(σ), if some head
    // atom does not contain V, mark V in σ.
    for (i, tgd) in tgds.iter().enumerate() {
        for var in tgd.body_vars() {
            let in_every_head_atom = tgd.head().iter().all(|a| a.vars().any(|v| v == &var));
            if !in_every_head_atom {
                marked.insert((i, var));
            }
        }
    }

    // Propagation: if a marked variable of body(σ) occurs at position π,
    // then for every σ' and every variable V' of body(σ') that occurs in
    // head(σ') at π, mark V' in σ'.
    loop {
        let marked_positions = positions_of_marked(tgds, &marked);
        let mut changed = false;
        for (i, tgd) in tgds.iter().enumerate() {
            for var in tgd.body_vars() {
                if marked.contains(&(i, var.clone())) {
                    continue;
                }
                let occurs_at_marked_head_pos = tgd.head().iter().any(|a| {
                    a.args.iter().enumerate().any(|(k, arg)| {
                        arg.as_var() == Some(&var)
                            && marked_positions.contains(&(a.pred.clone(), k))
                    })
                });
                if occurs_at_marked_head_pos {
                    marked.insert((i, var.clone()));
                    changed = true;
                }
            }
        }
        if !changed {
            return Marking {
                marked_positions,
                marked,
            };
        }
    }
}

fn positions_of_marked(tgds: &[Tgd], marked: &BTreeSet<(usize, Sym)>) -> BTreeSet<Position> {
    let mut out = BTreeSet::new();
    for (i, tgd) in tgds.iter().enumerate() {
        for atom in tgd.body() {
            for (k, arg) in atom.args.iter().enumerate() {
                if let Some(v) = arg.as_var() {
                    if marked.contains(&(i, v.clone())) {
                        out.insert((atom.pred.clone(), k));
                    }
                }
            }
        }
    }
    out
}

/// Counts occurrences of each variable across the body atoms of a TGD.
fn body_occurrences(tgd: &Tgd) -> BTreeMap<Sym, usize> {
    let mut counts = BTreeMap::new();
    for atom in tgd.body() {
        for v in atom.vars() {
            *counts.entry(v.clone()).or_insert(0) += 1;
        }
    }
    counts
}

/// `true` iff the set is *sticky* (Definition 4): after marking, no TGD
/// has a marked variable occurring more than once in its body.
pub fn is_sticky(tgds: &[Tgd]) -> bool {
    sticky_violations(tgds).is_empty()
}

/// The `(tgd_index, variable)` pairs violating stickiness — marked
/// variables with more than one body occurrence.
pub fn sticky_violations(tgds: &[Tgd]) -> Vec<(usize, Sym)> {
    let m = marking(tgds);
    let mut out = Vec::new();
    for (i, tgd) in tgds.iter().enumerate() {
        for (var, count) in body_occurrences(tgd) {
            if count > 1 && m.marked.contains(&(i, var.clone())) {
                out.push((i, var));
            }
        }
    }
    out
}

/// `true` iff every TGD has a single body atom.
pub fn is_linear(tgds: &[Tgd]) -> bool {
    tgds.iter().all(Tgd::is_linear)
}

/// `true` iff every TGD is guarded (some body atom covers all body
/// variables). Linear sets are trivially guarded.
pub fn is_guarded(tgds: &[Tgd]) -> bool {
    tgds.iter().all(Tgd::is_guarded)
}

/// Weak acyclicity (Fagin et al., \[12\] in the paper): builds the position
/// dependency graph with regular and *special* (existential-creating)
/// edges and checks that no cycle traverses a special edge.
pub fn is_weakly_acyclic(tgds: &[Tgd]) -> bool {
    // Collect positions and edges.
    let mut nodes: BTreeSet<Position> = BTreeSet::new();
    // edge: (from, to, special)
    let mut edges: Vec<(Position, Position, bool)> = Vec::new();

    let positions_of = |atoms: &[Atom], var: &Sym| -> Vec<Position> {
        let mut out = Vec::new();
        for a in atoms {
            for (k, arg) in a.args.iter().enumerate() {
                if arg.as_var() == Some(var) {
                    out.push((a.pred.clone(), k));
                }
            }
        }
        out
    };

    for tgd in tgds {
        for a in tgd.body().iter().chain(tgd.head()) {
            for k in 0..a.arity() {
                nodes.insert((a.pred.clone(), k));
            }
        }
        let existentials = tgd.existentials();
        for var in tgd.frontier() {
            let from = positions_of(tgd.body(), &var);
            // Regular edges to the same variable's head positions.
            for f in &from {
                for t in positions_of(tgd.head(), &var) {
                    edges.push((f.clone(), t, false));
                }
                // Special edges to every existential position.
                for z in &existentials {
                    for t in positions_of(tgd.head(), z) {
                        edges.push((f.clone(), t, true));
                    }
                }
            }
        }
    }

    // A set is weakly acyclic iff no cycle contains a special edge.
    // Check: for each special edge (u, v), v must not reach u.
    let adj: BTreeMap<&Position, Vec<&Position>> = {
        let mut m: BTreeMap<&Position, Vec<&Position>> = BTreeMap::new();
        for (f, t, _) in &edges {
            m.entry(f).or_default().push(t);
        }
        m
    };
    let reaches = |start: &Position, goal: &Position| -> bool {
        let mut stack = vec![start];
        let mut seen: BTreeSet<&Position> = BTreeSet::new();
        while let Some(n) = stack.pop() {
            if n == goal {
                return true;
            }
            if !seen.insert(n) {
                continue;
            }
            if let Some(next) = adj.get(n) {
                stack.extend(next.iter().copied());
            }
        }
        false
    };
    for (f, t, special) in &edges {
        if *special && reaches(t, f) {
            return false;
        }
    }
    true
}

/// `true` iff the set is *sticky-join*.
///
/// We use the sound (but incomplete) test `sticky ∨ linear`: both classes
/// are contained in sticky-join (Calì–Gottlob–Pieris), and Proposition 2
/// of the paper only ever requires rewritability for linear or sticky `G`.
/// The full syntactic sticky-join test of \[9\] is not implemented; inputs
/// in the gap are reported as not sticky-join, which errs on the side of
/// falling back to the chase.
pub fn is_sticky_join(tgds: &[Tgd]) -> bool {
    is_sticky(tgds) || is_linear(tgds)
}

/// A summary of all classifications for a TGD set.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Classification {
    /// Single-body-atom TGDs only.
    pub linear: bool,
    /// Sticky per Definition 4.
    pub sticky: bool,
    /// Sticky-join (conservative test).
    pub sticky_join: bool,
    /// Guarded.
    pub guarded: bool,
    /// Weakly acyclic.
    pub weakly_acyclic: bool,
}

impl Classification {
    /// Classifies a TGD set. Definition 4's marking runs once: the
    /// sticky-join field is [`is_sticky_join`]'s `sticky ∨ linear`, read
    /// off the two verdicts already computed.
    pub fn of(tgds: &[Tgd]) -> Self {
        let linear = is_linear(tgds);
        let sticky = is_sticky(tgds);
        Classification {
            linear,
            sticky,
            sticky_join: sticky || linear,
            guarded: is_guarded(tgds),
            weakly_acyclic: is_weakly_acyclic(tgds),
        }
    }

    /// `true` iff Proposition 2 applies: a perfect FO (UCQ) rewriting is
    /// guaranteed to exist and the rewriting engine will terminate.
    pub fn fo_rewritable(&self) -> bool {
        self.linear || self.sticky || self.sticky_join
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::dsl::*;

    /// The paper's Section 4 non-sticky example:
    /// `tt(x,A,z) ∧ tt(z,B,y) → tt(x,C,y)`.
    fn section4_tgd() -> Tgd {
        Tgd::new(
            vec![
                atom("tt", &[v("x"), c("A"), v("z")]),
                atom("tt", &[v("z"), c("B"), v("y")]),
            ],
            vec![atom("tt", &[v("x"), c("C"), v("y")])],
        )
    }

    /// Equivalence-mapping TGDs (Section 3): e.g.
    /// `tt(c,y,z) → tt(c',y,z)` — linear and sticky.
    fn equivalence_tgds() -> Vec<Tgd> {
        let mk = |from: &str, to: &str, pos: usize| {
            let mut body_args = vec![v("a"), v("b"), v("g")];
            let mut head_args = vec![v("a"), v("b"), v("g")];
            body_args[pos] = c(from);
            head_args[pos] = c(to);
            Tgd::new(vec![atom("tt", &body_args)], vec![atom("tt", &head_args)])
        };
        let mut out = Vec::new();
        for pos in 0..3 {
            out.push(mk("c", "cp", pos));
            out.push(mk("cp", "c", pos));
        }
        out
    }

    #[test]
    fn section4_tgd_is_not_sticky() {
        // The paper: "applying the variable marking results in the
        // variable z appearing more than once in the body ... violating
        // stickiness".
        let tgds = vec![section4_tgd()];
        let violations = sticky_violations(&tgds);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].1.as_ref(), "z");
        assert!(!is_sticky(&tgds));
        assert!(!is_linear(&tgds));
        assert!(!is_sticky_join(&tgds));
    }

    #[test]
    fn equivalence_tgds_are_linear_and_sticky() {
        // The paper: "the set E of TGDs for equivalence mappings enjoys
        // the sticky property of the chase, as well as linearity."
        let tgds = equivalence_tgds();
        assert!(is_linear(&tgds));
        assert!(is_sticky(&tgds));
        assert!(is_sticky_join(&tgds));
        let c = Classification::of(&tgds);
        assert!(c.fo_rewritable());
    }

    #[test]
    fn transitive_closure_is_not_sticky_but_weakly_acyclic() {
        // A(x,z) ∧ A(z,y) → A(x,y): z marked (absent from head), occurs
        // twice. Full TGDs (no existentials) are always weakly acyclic.
        let tc = Tgd::new(
            vec![atom("A", &[v("x"), v("z")]), atom("A", &[v("z"), v("y")])],
            vec![atom("A", &[v("x"), v("y")])],
        );
        let tgds = vec![tc];
        assert!(!is_sticky(&tgds));
        assert!(is_weakly_acyclic(&tgds));
        assert!(!is_guarded(&tgds));
    }

    #[test]
    fn marking_propagates_through_heads() {
        // σ1: r(x,y) → s(x)   -- y marked in σ1; y occurs at r[1].
        // σ2: s(x) → r(x, x') -- existential x' at r[1], so any body var of
        //     a TGD whose head writes to r[1]... specifically σ3 below.
        // σ3: p(u) → r(u,u): u occurs in head at r[0] and r[1]; r[1] is a
        //     marked position, so u becomes marked in σ3's body.
        let s1 = Tgd::new(
            vec![atom("r", &[v("x"), v("y")])],
            vec![atom("s", &[v("x")])],
        );
        let s3 = Tgd::new(
            vec![atom("p", &[v("u")])],
            vec![atom("r", &[v("u"), v("u")])],
        );
        let tgds = vec![s1, s3];
        let m = marking(&tgds);
        assert!(m.marked.contains(&(0, Sym::from("y"))));
        assert!(m.marked.contains(&(1, Sym::from("u"))));
        // u occurs only once in body(σ3), so the set is still sticky.
        assert!(is_sticky(&tgds));
    }

    #[test]
    fn marking_violation_via_propagation() {
        // σ1: r(x,y) → s(y): x marked; x occurs at r[0].
        // σ2: t(a,b) ∧ u(b) → r(b, a): b occurs in head at r[0] (marked
        //     position) → b marked in σ2; b occurs twice in body(σ2) →
        //     violation.
        let s1 = Tgd::new(
            vec![atom("r", &[v("x"), v("y")])],
            vec![atom("s", &[v("y")])],
        );
        let s2 = Tgd::new(
            vec![atom("t", &[v("a"), v("b")]), atom("u", &[v("b")])],
            vec![atom("r", &[v("b"), v("a")])],
        );
        let tgds = vec![s1, s2];
        assert!(!is_sticky(&tgds));
        let viols = sticky_violations(&tgds);
        assert_eq!(viols, vec![(1, Sym::from("b"))]);
    }

    #[test]
    fn weak_acyclicity_detects_null_cycles() {
        // r(x,y) → r(y,z): frontier y at r[1] feeds existential z at r[1]
        // and y itself moves r[1]→r[0]; special edge r[1]→r[1] participates
        // in a cycle (self-loop), so not weakly acyclic.
        let t = Tgd::new(
            vec![atom("r", &[v("x"), v("y")])],
            vec![atom("r", &[v("y"), v("z")])],
        );
        assert!(!is_weakly_acyclic(&[t]));
    }

    #[test]
    fn copy_rules_are_everything() {
        let t = Tgd::new(
            vec![atom("ts", &[v("x"), v("y"), v("z")])],
            vec![atom("tt", &[v("x"), v("y"), v("z")])],
        );
        let c = Classification::of(&[t]);
        assert!(c.linear && c.sticky && c.sticky_join && c.guarded && c.weakly_acyclic);
    }

    #[test]
    fn classification_of_mixed_set() {
        // Mixing the section-4 TGD with equivalence TGDs stays
        // non-sticky: the marking is global.
        let mut tgds = equivalence_tgds();
        tgds.push(section4_tgd());
        let cl = Classification::of(&tgds);
        assert!(!cl.sticky);
        assert!(!cl.linear);
        assert!(!cl.fo_rewritable());
    }
}
