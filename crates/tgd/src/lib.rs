//! # rps-tgd — relational data-exchange substrate
//!
//! Section 3 of *Peer-to-Peer Semantic Integration of Linked Data* reduces
//! RPS query answering to conjunctive-query answering in relational data
//! exchange (Fagin–Kolaitis–Miller–Popa). This crate provides that
//! substrate, built from scratch:
//!
//! * [`term`] — constants, labelled nulls, variables, atoms, facts;
//! * [`instance`] — relational instances with dictionary-interned values
//!   ([`ValId`]/[`PredId`] dense `u32` ids), per-position hash indexes,
//!   and insertion-ordered rows whose [`InstanceMark`] snapshots define
//!   the delta windows of semi-naive evaluation;
//! * [`hom`] — homomorphism search and CQ evaluation: conjunctions are
//!   compiled once to id slots and matched with a dense
//!   `Vec<Option<ValId>>` environment over index probes;
//! * [`tgd`] — tuple-generating dependencies, frontier/existential
//!   analysis, per-TGD linearity/guardedness;
//! * [`mod@chase`] — the restricted chase, **semi-naive**: each round only
//!   considers triggers touching facts added since the previous round
//!   (see the module docs for the invariant), with explicit budgets,
//!   producing universal solutions;
//! * [`classify`] — the Definition-4 variable-marking stickiness test,
//!   linearity, guardedness and weak-acyclicity classifiers;
//! * [`mod@rewrite`] — depth-bounded UCQ rewriting (TGD-rewrite style) with
//!   rewriting and factorisation steps, as a string boundary over:
//! * [`idcq`] — the id-level (numbered-variable) rewriting engine:
//!   interned CQs ([`IdCq`]), a compiled TGD head index, an array-backed
//!   MGU with no per-step hashing, canonicalisation as numbering + sort,
//!   homomorphic subsumption pruning of the emitted union, and direct
//!   id-level union evaluation;
//! * [`naive`] — the original string-level engine (unindexed search,
//!   re-scanning chase, string-canonical rewriting), retained as the
//!   correctness oracle: `tests/proptests.rs` asserts both engines agree
//!   on random TGD sets and instances.

#![warn(missing_docs)]

pub mod chase;
pub mod classify;
pub mod hom;
pub mod idcq;
pub mod instance;
pub mod naive;
pub mod rewrite;
pub mod term;
pub mod tgd;

pub use chase::{chase, satisfies, ChaseConfig, ChaseOutcome, ChaseResult};
pub use classify::{
    is_guarded, is_linear, is_sticky, is_sticky_join, is_weakly_acyclic, marking,
    sticky_violations, Classification, Marking,
};
pub use hom::{all_homomorphisms, evaluate_cq, exists_homomorphism, Subst};
pub use idcq::{
    decode_cq, evaluate_union_ids, intern_cq, prune_union, rewrite_ids, rewrite_ids_unpruned,
    union_has_answer, IdArg, IdAtom, IdCq, IdRewriteResult, IdTgdSet,
};
pub use instance::{Instance, InstanceMark, PredId, ValId, ValueDict};
pub use rewrite::{
    evaluate_union, normalize_single_head, rewrite, Cq, RewriteConfig, RewriteResult,
};
pub use term::{Atom, AtomArg, Fact, GroundTerm, Sym};
pub use tgd::Tgd;
