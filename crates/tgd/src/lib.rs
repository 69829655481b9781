//! # rps-tgd — the Section-4 rewriting compiler and its Section-3 reference
//!
//! Section 3 of *Peer-to-Peer Semantic Integration of Linked Data* reduces
//! RPS query answering to conjunctive-query answering in relational data
//! exchange (Fagin–Kolaitis–Miller–Popa); Section 4 answers queries by
//! rewriting them into unions of CQs under the mapping TGDs. This crate is
//! the rewriting compiler the serving routes call, plus one plain
//! statement of the relational semantics to check it against:
//!
//! * [`term`] — constants, labelled nulls, variables, atoms, facts;
//! * [`instance`] — relational instances with dictionary-interned values
//!   ([`ValId`] dense `u32` ids); the rewriter uses one as its
//!   predicate / value dictionary;
//! * [`tgd`] — tuple-generating dependencies, frontier/existential
//!   analysis, per-TGD linearity/guardedness;
//! * [`classify`] — the Definition-4 variable-marking stickiness test,
//!   linearity, guardedness and weak-acyclicity classifiers;
//! * [`idcq`] — the id-level (numbered-variable) rewriting engine:
//!   interned CQs ([`IdCq`]), a compiled TGD head index, an array-backed
//!   MGU with no per-step hashing, canonicalisation as numbering + sort,
//!   and homomorphic subsumption pruning of the emitted union;
//! * [`mod@rewrite`] — CQs, rewriting budgets, single-head normalisation
//!   and the string boundary over [`idcq`];
//! * [`naive`] — the reference: string-level homomorphisms, the restricted
//!   chase, certain-answer evaluation of a union of CQs and a
//!   string-canonical rewriting. No serving path calls it; it is reached
//!   as `rps_tgd::naive::…` only, by the tests that hold the rewriter and
//!   the RDF chase to it.

#![warn(missing_docs)]

pub mod classify;
pub mod idcq;
pub mod instance;
pub mod naive;
pub mod rewrite;
pub mod term;
pub mod tgd;

pub use classify::{is_linear, is_sticky, marking, sticky_violations, Classification};
pub use idcq::{
    decode_cq, intern_cq, prune_union, rewrite_ids, rewrite_ids_unpruned, IdArg, IdCq,
    IdRewriteResult, IdTgdSet,
};
pub use instance::{Instance, ValId};
pub use rewrite::{rewrite, Cq, RewriteConfig};
pub use term::{Atom, AtomArg, Fact, GroundTerm, Sym};
pub use tgd::Tgd;
