//! Randomised property tests for the rewriting compiler, against the
//! Section-3 reference `rps_tgd::naive`.
//!
//! Two families:
//!
//! * **laws** — the reference chase reaches a satisfying fixpoint, and
//!   the rewriting is sound and perfect on linear sets: its union, under
//!   `naive::evaluate_union`, answers what the chase answers; and
//!   Section 4's classification of `G ∪ E` is that of `G`;
//! * **rewriter agreement** — the id-level rewriter (`rps_tgd::rewrite`,
//!   `rps_tgd::rewrite_ids`) against `naive::rewrite` on random TGD sets
//!   and instances: UCQ sets equal up to canonical renaming, and every
//!   union evaluated with `naive::evaluate_union`, pruned or not.
//!
//! Seeded SplitMix64 case generation stands in for `proptest` (the
//! workspace takes no crates.io dependency).

use rps_tgd::naive::{self, evaluate_union, ChaseConfig};
use rps_tgd::{
    rewrite, Atom, AtomArg, Classification, Cq, Fact, GroundTerm, Instance, RewriteConfig, Tgd,
};
use std::collections::BTreeSet;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn c(i: usize) -> GroundTerm {
    GroundTerm::constant(format!("k{i}"))
}

fn arb_instance(rng: &mut Rng, max_rows: usize) -> Instance {
    let mut inst = Instance::new();
    for _ in 0..rng.below(max_rows) {
        inst.insert(Fact::new("r", vec![c(rng.below(6)), c(rng.below(6))]));
    }
    // A sprinkle of unary facts and pre-existing nulls exercises
    // mixed-arity relations and null handling.
    for _ in 0..rng.below(4) {
        inst.insert(Fact::new("p", vec![c(rng.below(6))]));
    }
    if rng.below(3) == 0 {
        inst.insert(Fact::new(
            "r",
            vec![c(rng.below(6)), GroundTerm::Null(900 + rng.below(3) as u64)],
        ));
    }
    inst
}

/// A pool of terminating TGD shapes over r/2, s/2, t/2, p/1: linear
/// copies and swaps, an existential projection, a transitive-closure
/// rule, and a multi-atom-head existential.
fn tgd_pool() -> Vec<Tgd> {
    use rps_tgd::term::dsl::{atom, v};
    vec![
        // copy r -> s
        Tgd::new(
            vec![atom("r", &[v("x"), v("y")])],
            vec![atom("s", &[v("x"), v("y")])],
        ),
        // swap r -> s
        Tgd::new(
            vec![atom("r", &[v("x"), v("y")])],
            vec![atom("s", &[v("y"), v("x")])],
        ),
        // project + existential: r -> t(x, z)
        Tgd::new(
            vec![atom("r", &[v("x"), v("y")])],
            vec![atom("t", &[v("x"), v("z")])],
        ),
        // s -> t
        Tgd::new(
            vec![atom("s", &[v("x"), v("y")])],
            vec![atom("t", &[v("x"), v("y")])],
        ),
        // transitive closure of r (full, multi-atom body)
        Tgd::new(
            vec![atom("r", &[v("x"), v("z")]), atom("r", &[v("z"), v("y")])],
            vec![atom("r", &[v("x"), v("y")])],
        ),
        // multi-atom head with a shared existential
        Tgd::new(
            vec![atom("p", &[v("x")])],
            vec![atom("q", &[v("x"), v("z")]), atom("t", &[v("z"), v("x")])],
        ),
    ]
}

fn arb_tgds(rng: &mut Rng) -> Vec<Tgd> {
    let pool = tgd_pool();
    (0..rng.below(5))
        .map(|_| pool[rng.below(pool.len())].clone())
        .collect()
}

/// Only the single-head linear shapes — the family for which the
/// rewriting is guaranteed perfect (Proposition 2).
fn arb_linear_tgds(rng: &mut Rng) -> Vec<Tgd> {
    let pool = tgd_pool();
    (0..rng.below(4))
        .map(|_| pool[rng.below(4)].clone())
        .collect()
}

const CASES: u64 = 64;

// ---------------------------------------------------------------- laws

#[test]
fn chase_reaches_satisfying_fixpoint() {
    for seed in 0..CASES {
        let rng = &mut Rng(seed);
        let inst = arb_instance(rng, 20);
        let tgds = arb_tgds(rng);
        let r = naive::chase(inst.clone(), &tgds, &ChaseConfig::default(), 1_000);
        assert!(r.is_complete(), "seed {seed}");
        assert!(naive::satisfies(&r.instance, &tgds), "seed {seed}");
        // The chase only adds facts.
        for f in inst.iter() {
            assert!(r.instance.contains(&f), "seed {seed}");
        }
        // Chasing again is a no-op.
        let r2 = naive::chase(r.instance.clone(), &tgds, &ChaseConfig::default(), 2_000);
        assert_eq!(r.instance.len(), r2.instance.len(), "seed {seed}");
    }
}

#[test]
fn rewriting_is_sound_and_perfect_for_linear_tgds() {
    for seed in 0..CASES {
        let rng = &mut Rng(seed);
        let inst = arb_instance(rng, 20);
        let tgds = arb_linear_tgds(rng);
        // Query over the "end" predicate t so that rewriting has to walk
        // through the TGD chain.
        let q = Cq::new(
            &["x"],
            vec![Atom::new("t", vec![AtomArg::var("x"), AtomArg::var("y")])],
        );
        let r = rewrite(
            &q,
            &tgds,
            &RewriteConfig {
                max_depth: 20,
                max_cqs: 50_000,
            },
        );
        assert!(r.complete, "seed {seed}");
        let rewritten = evaluate_union(&r.cqs, &inst);

        let chased = naive::chase(inst.clone(), &tgds, &ChaseConfig::default(), 10_000);
        assert!(chased.is_complete(), "seed {seed}");
        let reference = evaluate_union(&[q], &chased.instance);
        assert_eq!(rewritten, reference, "seed {seed}");
    }
}

#[test]
fn marking_is_deterministic() {
    for seed in 0..CASES {
        let rng = &mut Rng(seed);
        let tgds = arb_tgds(rng);
        let m1 = rps_tgd::marking(&tgds);
        let m2 = rps_tgd::marking(&tgds);
        assert_eq!(m1.marked, m2.marked);
        assert_eq!(m1.marked_positions, m2.marked_positions);
    }
}

#[test]
fn classification_is_monotone_under_union_for_violations() {
    for seed in 0..CASES {
        let rng = &mut Rng(seed);
        let tgds = arb_linear_tgds(rng);
        // Adding the known non-sticky witness makes any set non-sticky.
        use rps_tgd::term::dsl::{atom, v};
        let witness = Tgd::new(
            vec![atom("w", &[v("x"), v("z")]), atom("w", &[v("z"), v("y")])],
            vec![atom("w2", &[v("x"), v("y")])],
        );
        let mut with = tgds.clone();
        with.push(witness);
        assert!(!rps_tgd::is_sticky(&with), "seed {seed}");
    }
}

/// Graph-mapping shapes over `tt/3`, as Section 3 encodes an RPS's
/// assertions: linear copies, a multi-atom head with an existential
/// (Figure 1's), Section 4's non-sticky join, a join that stays sticky
/// only while neither of its positions is marked, a head repeating a
/// variable at a marked position, and a null cycle (not weakly acyclic).
fn graph_mapping_pool() -> Vec<Tgd> {
    use rps_tgd::term::dsl::{atom, c, v};
    vec![
        Tgd::new(
            vec![atom("tt", &[v("x"), c("A"), v("y")])],
            vec![atom("tt", &[v("x"), c("B"), v("y")])],
        ),
        Tgd::new(
            vec![atom("tt", &[v("x"), c("B"), v("y")])],
            vec![atom("tt", &[v("y"), c("C"), v("x")])],
        ),
        Tgd::new(
            vec![atom("tt", &[v("x"), c("A"), v("y")])],
            vec![
                atom("tt", &[v("x"), c("B"), v("z")]),
                atom("tt", &[v("z"), c("C"), v("y")]),
            ],
        ),
        Tgd::new(
            vec![
                atom("tt", &[v("x"), c("A"), v("z")]),
                atom("tt", &[v("z"), c("B"), v("y")]),
            ],
            vec![atom("tt", &[v("x"), c("C"), v("y")])],
        ),
        Tgd::new(
            vec![
                atom("tt", &[v("x"), c("A"), v("y")]),
                atom("tt", &[v("y"), c("B"), v("x")]),
            ],
            vec![atom("tt", &[v("x"), c("C"), v("y")])],
        ),
        Tgd::new(
            vec![atom("tt", &[v("u"), c("A"), v("w")])],
            vec![atom("tt", &[v("w"), c("B"), v("w")])],
        ),
        Tgd::new(
            vec![atom("tt", &[v("x"), c("C"), v("y")])],
            vec![atom("tt", &[v("y"), c("C"), v("z")])],
        ),
    ]
}

/// The six `tt` TGDs of an equivalence mapping `left ≡ right`, shaped as
/// `rps_core::encode::equivalence_tgds` shapes them: per triple position,
/// both directions.
fn equivalence_tgds(left: &str, right: &str) -> Vec<Tgd> {
    use rps_tgd::term::dsl::{atom, c, v};
    let mut out = Vec::with_capacity(6);
    for pos in 0..3 {
        for (from, to) in [(left, right), (right, left)] {
            let mut body = [v("u"), v("v"), v("w")];
            let mut head = body.clone();
            body[pos] = c(from);
            head[pos] = c(to);
            out.push(Tgd::new(vec![atom("tt", &body)], vec![atom("tt", &head)]));
        }
    }
    out
}

/// Section 4's classification of an RPS is read off its graph-mapping
/// TGDs `G` (`rps_core::RpsRewriter`): the equivalence TGDs `E` of any
/// mappings, over constants `G` mentions or not, change no field of it
/// and no marked position.
#[test]
fn equivalence_tgds_never_change_the_classification() {
    let pool = graph_mapping_pool();
    // `A`, `B`, `C` are `G`'s constants; `D` and `K` are not.
    let constants = ["A", "B", "C", "D", "K"];
    let mut verdicts = BTreeSet::new();
    let mut e_marked = 0;
    for seed in 0..4 * CASES {
        let rng = &mut Rng(0x5EC4 + seed);
        let g: Vec<Tgd> = (0..1 + rng.below(4))
            .map(|_| pool[rng.below(pool.len())].clone())
            .collect();
        let mut all = g.clone();
        for _ in 0..1 + rng.below(3) {
            let (left, right) = (rng.below(constants.len()), rng.below(constants.len()));
            all.extend(equivalence_tgds(constants[left], constants[right]));
        }
        let of_g = Classification::of(&g);
        assert_eq!(Classification::of(&all), of_g, "seed {seed}: {g:?}");
        let (marked_g, marked_all) = (rps_tgd::marking(&g), rps_tgd::marking(&all));
        assert_eq!(
            marked_all.marked_positions, marked_g.marked_positions,
            "seed {seed}: {g:?}"
        );
        // `E`'s TGDs follow `G`'s in `all`.
        e_marked += usize::from(marked_all.marked.iter().any(|(i, _)| *i >= g.len()));
        verdicts.insert((of_g.linear, of_g.sticky, of_g.weakly_acyclic));
    }
    // The sweep reaches every flag both ways, and propagation into `E`.
    for flag in 0..3 {
        let value = |v: &(bool, bool, bool)| [v.0, v.1, v.2][flag];
        assert!(verdicts.iter().any(value), "flag {flag} never true");
        assert!(!verdicts.iter().all(value), "flag {flag} never false");
    }
    assert!(
        e_marked > CASES as usize / 4,
        "E marked in {e_marked} cases"
    );
}

// ------------------------------------------- rewriter vs reference

#[test]
fn rewriting_agrees_with_naive() {
    for seed in 0..CASES {
        let rng = &mut Rng(seed);
        let inst = arb_instance(rng, 20);
        let tgds = arb_linear_tgds(rng);
        let q = Cq::new(
            &["x"],
            vec![Atom::new("t", vec![AtomArg::var("x"), AtomArg::var("y")])],
        );
        let cfg = RewriteConfig {
            max_depth: 20,
            max_cqs: 50_000,
        };
        let fast = rewrite(&q, &tgds, &cfg);
        let slow = naive::rewrite(&q, &tgds, &cfg);
        assert_eq!(fast.complete, slow.complete, "seed {seed}");
        // Equal UCQ sets up to canonical renaming.
        let fa: BTreeSet<Cq> = fast.cqs.iter().map(Cq::canonical).collect();
        let sa: BTreeSet<Cq> = slow.cqs.iter().map(Cq::canonical).collect();
        assert_eq!(fa, sa, "seed {seed}: UCQ sets differ");
        // And extensionally equivalent on the random instance.
        assert_eq!(
            evaluate_union(&fast.cqs, &inst),
            evaluate_union(&slow.cqs, &inst),
            "seed {seed}"
        );
    }
}

/// Linear constant-specialising shapes (the equivalence-mapping idiom):
/// sticky as well as linear, with terminating rewritings.
fn arb_sticky_tgds(rng: &mut Rng) -> Vec<Tgd> {
    use rps_tgd::term::dsl::{atom, c, v};
    let pool = [
        // constant swaps in each position of r/2 (both directions)
        Tgd::new(
            vec![atom("r", &[v("x"), c("k0")])],
            vec![atom("r", &[v("x"), c("k1")])],
        ),
        Tgd::new(
            vec![atom("r", &[v("x"), c("k1")])],
            vec![atom("r", &[v("x"), c("k0")])],
        ),
        Tgd::new(
            vec![atom("r", &[c("k2"), v("y")])],
            vec![atom("r", &[c("k3"), v("y")])],
        ),
        // linear copies into the queried predicate
        Tgd::new(
            vec![atom("r", &[v("x"), v("y")])],
            vec![atom("t", &[v("x"), v("y")])],
        ),
        Tgd::new(
            vec![atom("s", &[v("x"), v("y")])],
            vec![atom("t", &[v("y"), v("x")])],
        ),
    ];
    let tgds: Vec<Tgd> = (0..rng.below(5))
        .map(|_| pool[rng.below(pool.len())].clone())
        .collect();
    assert!(rps_tgd::is_linear(&tgds) && rps_tgd::is_sticky(&tgds));
    tgds
}

/// The id-level engine against the string-level oracle on random
/// linear *and* sticky TGD sets: equal canonical UCQ sets, equal
/// completeness, equal certain answers (the satellite contract of the
/// id-level rewriting pipeline). `rps_tgd::rewrite` is the id engine
/// behind the string boundary, so this pins the whole pipeline.
#[test]
fn id_rewriting_matches_naive_on_linear_and_sticky_sets() {
    for seed in 0..CASES {
        let rng = &mut Rng(seed);
        let inst = arb_instance(rng, 16);
        let tgds = if rng.below(2) == 0 {
            arb_linear_tgds(rng)
        } else {
            arb_sticky_tgds(rng)
        };
        let q = Cq::new(
            &["x"],
            vec![Atom::new("t", vec![AtomArg::var("x"), AtomArg::var("y")])],
        );
        let cfg = RewriteConfig {
            max_depth: 12,
            max_cqs: 50_000,
        };
        let fast = rewrite(&q, &tgds, &cfg);
        let slow = naive::rewrite(&q, &tgds, &cfg);
        assert_eq!(fast.complete, slow.complete, "seed {seed}");
        let fa: BTreeSet<Cq> = fast.cqs.iter().map(Cq::canonical).collect();
        let sa: BTreeSet<Cq> = slow.cqs.iter().map(Cq::canonical).collect();
        assert_eq!(fa, sa, "seed {seed}: UCQ sets differ");
        assert_eq!(
            evaluate_union(&fast.cqs, &inst),
            evaluate_union(&slow.cqs, &inst),
            "seed {seed}"
        );
    }
}

/// Outside the FO-rewritable classes (Proposition 3's transitive closure)
/// the expansion never closes: a deeper budget explores strictly more CQs,
/// neither engine reports completeness, and both answer alike at each depth.
#[test]
fn deeper_expansion_explores_strictly_more_cqs_on_transitive_closure() {
    let tgds = vec![tgd_pool()[4].clone()]; // r(x,z), r(z,y) → r(x,y)
    let mut inst = Instance::new();
    for i in 0..12 {
        inst.insert(Fact::new("r", vec![c(i), c(i + 1)]));
    }
    let q = Cq::new(
        &["x", "y"],
        vec![Atom::new("r", vec![AtomArg::var("x"), AtomArg::var("y")])],
    );
    let mut explored = 0;
    for depth in [2, 4] {
        let cfg = RewriteConfig {
            max_depth: depth,
            max_cqs: 50_000,
        };
        let fast = rewrite(&q, &tgds, &cfg);
        let slow = naive::rewrite(&q, &tgds, &cfg);
        assert!(!fast.complete && !slow.complete, "depth {depth}");
        assert!(fast.explored > explored, "depth {depth}");
        explored = fast.explored;
        assert_eq!(
            evaluate_union(&fast.cqs, &inst),
            evaluate_union(&slow.cqs, &inst),
            "depth {depth}"
        );
    }
}

/// Subsumption pruning is sound: the pruned union is a subset of the
/// unpruned one (up to canonical renaming) with identical certain
/// answers on random instances.
#[test]
fn subsumption_pruning_preserves_answers() {
    for seed in 0..CASES {
        let rng = &mut Rng(seed);
        let inst = arb_instance(rng, 16);
        let tgds = arb_tgds(rng);
        // A join query gives factorisation (and hence pruning) a chance
        // to fire.
        let q = Cq::new(
            &["x"],
            vec![
                Atom::new("t", vec![AtomArg::var("x"), AtomArg::var("y")]),
                Atom::new("t", vec![AtomArg::var("x"), AtomArg::var("z")]),
            ],
        );
        let cfg = RewriteConfig {
            max_depth: 4,
            max_cqs: 20_000,
        };
        let mut scratch = Instance::new();
        let set = rps_tgd::IdTgdSet::compile(&tgds, &mut scratch);
        let id_q = rps_tgd::intern_cq(&q, &mut scratch);
        let pruned = rps_tgd::rewrite_ids(&id_q, &set, &cfg);
        let unpruned = rps_tgd::rewrite_ids_unpruned(&id_q, &set, &cfg);
        assert!(pruned.cqs.len() <= unpruned.cqs.len(), "seed {seed}");
        assert_eq!(pruned.complete, unpruned.complete, "seed {seed}");
        let dec = |cqs: &[rps_tgd::IdCq]| -> Vec<Cq> {
            cqs.iter()
                .map(|c| rps_tgd::decode_cq(c, &scratch))
                .collect()
        };
        let (pruned_cqs, unpruned_cqs) = (dec(&pruned.cqs), dec(&unpruned.cqs));
        let pa: BTreeSet<Cq> = pruned_cqs.iter().map(Cq::canonical).collect();
        let ua: BTreeSet<Cq> = unpruned_cqs.iter().map(Cq::canonical).collect();
        assert!(pa.is_subset(&ua), "seed {seed}: pruning invented CQs");
        assert_eq!(
            evaluate_union(&pruned_cqs, &inst),
            evaluate_union(&unpruned_cqs, &inst),
            "seed {seed}: pruning changed answers"
        );
    }
}

#[test]
fn subsumption_pruning_is_sound_above_the_old_cap() {
    // The bucketed prefilter lifted the 4096-branch cap on
    // `prune_union`; this drives unions well past it with synthetic
    // random CQs (a rewriting producing that many branches would
    // dominate the suite's runtime) and asserts the pruned union keeps
    // exactly the unpruned certain answers on random instances.
    for seed in 0..2u64 {
        let rng = &mut Rng(0xCA90 + seed);
        let mut inst = Instance::new();
        for _ in 0..40 {
            inst.insert(Fact::new("r", vec![c(rng.below(8)), c(rng.below(8))]));
            inst.insert(Fact::new("s", vec![c(rng.below(8)), c(rng.below(8))]));
        }
        inst.insert(Fact::new("p", vec![c(rng.below(8))]));
        let vars = ["x", "y", "z"];
        let mut cqs = Vec::new();
        for _ in 0..5_000 {
            let mut body = Vec::new();
            for _ in 0..(1 + rng.below(3)) {
                let pred = ["r", "s", "p"][rng.below(3)];
                let arity = if pred == "p" { 1 } else { 2 };
                let args: Vec<AtomArg> = (0..arity)
                    .map(|_| {
                        if rng.below(4) == 0 {
                            AtomArg::Const(format!("k{}", rng.below(8)).into())
                        } else {
                            AtomArg::var(vars[rng.below(3)])
                        }
                    })
                    .collect();
                body.push(Atom::new(pred, args));
            }
            // Keep the head bound by the body so every branch is live.
            let head_var = match body[0].args.first().expect("non-empty atom") {
                AtomArg::Var(v) => v.to_string(),
                _ => "x".to_string(),
            };
            cqs.push(Cq::new(&[head_var.as_str()], body));
        }
        let id_cqs: Vec<rps_tgd::IdCq> = cqs
            .iter()
            .map(|q| rps_tgd::intern_cq(q, &mut inst))
            .collect();
        assert!(id_cqs.len() > 4_096, "must exceed the old pruning cap");
        let pruned = rps_tgd::prune_union(id_cqs.clone());
        assert!(
            pruned.len() < id_cqs.len(),
            "seed {seed}: random redundant unions should shrink"
        );
        let dec = |cqs: &[rps_tgd::IdCq]| -> Vec<Cq> {
            cqs.iter().map(|c| rps_tgd::decode_cq(c, &inst)).collect()
        };
        assert_eq!(
            evaluate_union(&dec(&pruned), &inst),
            evaluate_union(&dec(&id_cqs), &inst),
            "seed {seed}: pruning changed answers"
        );
    }
}
