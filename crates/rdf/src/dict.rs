//! Term dictionary: bidirectional interning of [`Term`]s to dense `u32` ids.
//!
//! All hot-path operations in the triple store and the query evaluator work
//! on [`TermId`]s; the dictionary is consulted only at the boundaries
//! (parsing, serialisation, answer rendering). Ids are dense, so parallel
//! `Vec`s can be used for per-term metadata such as [`TermKind`].
//!
//! **Sharing.** A dictionary is an `Arc`-shared *base* (ids `0..b`) plus
//! an owned *tail* (ids `b..len`). Cloning bumps the base's count and
//! copies the tail, so a live epoch's published graph shares every term
//! its writer had interned when the tail was last folded and copies only
//! the few interned since. While nobody shares the base and the tail is
//! empty — the bulk chase, a frozen session, any dictionary never cloned
//! — `intern` writes into the base in place and the split costs nothing.
//! Once the base is shared, new terms go to the tail; a tail grown past
//! `max(1024, b / 8)` terms folds into the base (copying it first if a
//! clone still holds it), so a fold is amortised O(1) per term. Ids never
//! move: a fold only changes which part holds them.

use crate::term::{Term, TermKind};
use std::collections::HashMap;
use std::sync::Arc;

/// A dense identifier for an interned [`Term`].
///
/// Ids are only meaningful relative to the [`TermDict`] that minted them.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TermId(pub u32);

impl TermId {
    /// The raw index value.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The fewest tail terms a fold waits for (see the module docs).
const FOLD_MIN: usize = 1024;

/// A bidirectional interner from [`Term`] to [`TermId`].
#[derive(Clone, Default)]
pub struct TermDict {
    /// Ids `0..base.terms.len()`.
    base: Arc<Part>,
    /// Ids from `base.terms.len()` on, interned while the base was shared.
    tail: Part,
}

/// A run of consecutive ids: their terms and kinds, and the reverse map.
#[derive(Clone, Default)]
struct Part {
    terms: Vec<Term>,
    kinds: Vec<TermKind>,
    lookup: HashMap<Term, TermId>,
}

impl Part {
    fn push(&mut self, term: &Term, id: TermId) {
        self.terms.push(term.clone());
        self.kinds.push(term.kind());
        self.lookup.insert(term.clone(), id);
    }
}

impl TermDict {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a term, returning its id. Idempotent.
    pub fn intern(&mut self, term: &Term) -> TermId {
        if let Some(id) = self.id(term) {
            return id;
        }
        let id = TermId(u32::try_from(self.len()).expect("term dictionary overflow"));
        if self.tail.terms.is_empty() {
            if let Some(base) = Arc::get_mut(&mut self.base) {
                base.push(term, id);
                return id;
            }
        }
        self.tail.push(term, id);
        if self.tail.terms.len() > FOLD_MIN.max(self.base.terms.len() / 8) {
            let tail = std::mem::take(&mut self.tail);
            let base = Arc::make_mut(&mut self.base);
            base.terms.extend(tail.terms);
            base.kinds.extend(tail.kinds);
            base.lookup.extend(tail.lookup);
        }
        id
    }

    /// Looks up the id of a term without interning it.
    pub fn id(&self, term: &Term) -> Option<TermId> {
        // An empty map answers without hashing, so an empty tail is free.
        let found = self.base.lookup.get(term);
        found.or_else(|| self.tail.lookup.get(term)).copied()
    }

    /// The part holding `id` and the id's index within it.
    fn locate(&self, id: TermId) -> (&Part, usize) {
        let split = self.base.terms.len();
        match id.index().checked_sub(split) {
            None => (&self.base, id.index()),
            Some(at) => (&self.tail, at),
        }
    }

    /// Returns the term for an id.
    ///
    /// # Panics
    /// Panics if the id was not minted by this dictionary.
    pub fn term(&self, id: TermId) -> &Term {
        let (part, at) = self.locate(id);
        &part.terms[at]
    }

    /// Returns the kind of the term for an id without touching its payload.
    pub fn kind(&self, id: TermId) -> TermKind {
        let (part, at) = self.locate(id);
        part.kinds[at]
    }

    /// Returns `true` iff the id denotes an IRI or literal (certain-answer
    /// eligible, element of `I ∪ L`).
    pub fn is_name(&self, id: TermId) -> bool {
        self.kind(id) != TermKind::Blank
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        self.base.terms.len() + self.tail.terms.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Interns every term of `other` into `self` and returns the
    /// translation table from `other`'s ids to `self`'s: entry `i` is the
    /// id in `self` of `other`'s term `i`.
    ///
    /// This is the cross-dictionary bridge federated evaluation builds
    /// on: each peer keeps its own dictionary, the originator absorbs
    /// them once, and per-tuple id translation is then a dense array
    /// lookup instead of a term re-interning.
    pub fn absorb(&mut self, other: &TermDict) -> Vec<TermId> {
        other.iter().map(|(_, t)| self.intern(t)).collect()
    }

    /// Iterates over all `(id, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &Term)> {
        self.base
            .terms
            .iter()
            .chain(&self.tail.terms)
            .enumerate()
            .map(|(i, t)| (TermId(i as u32), t))
    }
}

impl std::fmt::Debug for TermDict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TermDict")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = TermDict::new();
        let a1 = d.intern(&Term::iri("http://e/a"));
        let a2 = d.intern(&Term::iri("http://e/a"));
        assert_eq!(a1, a2);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn distinct_terms_get_distinct_ids() {
        let mut d = TermDict::new();
        let a = d.intern(&Term::iri("http://e/a"));
        let b = d.intern(&Term::literal("http://e/a"));
        let c = d.intern(&Term::blank("http://e/a"));
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn roundtrip_term() {
        let mut d = TermDict::new();
        let t = Term::literal("39");
        let id = d.intern(&t);
        assert_eq!(d.term(id), &t);
        assert_eq!(d.id(&t), Some(id));
        assert_eq!(d.id(&Term::literal("40")), None);
    }

    #[test]
    fn kinds_tracked() {
        let mut d = TermDict::new();
        let i = d.intern(&Term::iri("x"));
        let b = d.intern(&Term::blank("y"));
        let l = d.intern(&Term::literal("z"));
        assert_eq!(d.kind(i), TermKind::Iri);
        assert_eq!(d.kind(b), TermKind::Blank);
        assert_eq!(d.kind(l), TermKind::Literal);
        assert!(d.is_name(i));
        assert!(!d.is_name(b));
        assert!(d.is_name(l));
    }

    #[test]
    fn absorb_builds_translation_table() {
        let mut a = TermDict::new();
        a.intern(&Term::iri("shared"));
        let mut b = TermDict::new();
        b.intern(&Term::iri("b-only"));
        b.intern(&Term::iri("shared"));
        let table = a.absorb(&b);
        assert_eq!(table.len(), 2);
        for (id, term) in b.iter() {
            assert_eq!(a.term(table[id.index()]), term);
        }
        // Shared terms map onto the existing id, not a duplicate.
        assert_eq!(table[1], TermId(0));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn iter_in_id_order() {
        let mut d = TermDict::new();
        d.intern(&Term::iri("a"));
        d.intern(&Term::iri("b"));
        let ids: Vec<u32> = d.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    /// `dict` against a plain vector of its first `model.len()` terms:
    /// ids, terms, kinds, reverse lookups, iteration — and nothing past.
    fn assert_models(dict: &TermDict, model: &[Term], what: &str) {
        assert_eq!(dict.len(), model.len(), "{what}: len");
        for (i, t) in model.iter().enumerate() {
            let id = TermId(i as u32);
            assert_eq!(dict.term(id), t, "{what}: term({i})");
            assert_eq!(dict.kind(id), t.kind(), "{what}: kind({i})");
            assert_eq!(dict.is_name(id), t.kind() != TermKind::Blank, "{what}");
            assert_eq!(dict.id(t), Some(id), "{what}: id({t:?})");
        }
        assert!(dict.iter().map(|(_, t)| t).eq(model.iter()), "{what}: iter");
    }

    /// Random interleavings of intern / clone / drop a clone / intern
    /// again, against a `Vec` + `HashMap` model: every clone keeps what
    /// it had at clone time, the writer's ids stay dense and never move
    /// across folds, and the path where the last clone goes and the base
    /// is unshared again under a non-empty tail is taken.
    #[test]
    fn clones_keep_their_prefix_across_folds() {
        for seed in [7u64, 2501, 90_913] {
            let mut next = crate::store::tests::splitmix(seed);
            let mut dict = TermDict::new();
            let mut model: Vec<Term> = Vec::new();
            let mut index: HashMap<Term, TermId> = HashMap::new();
            let mut clones: Vec<(TermDict, usize)> = Vec::new();
            let (mut folds, mut unshared_with_tail) = (0, 0);
            for step in 0..12_000 {
                match next() % 100 {
                    0 if clones.len() < 4 => clones.push((dict.clone(), model.len())),
                    1 if !clones.is_empty() => {
                        let at = next() as usize % clones.len();
                        let (clone, len) = clones.swap_remove(at);
                        assert_models(&clone, &model[..len], &format!("seed {seed} step {step}"));
                        drop(clone);
                        if clones.is_empty() && !dict.tail.terms.is_empty() {
                            assert_eq!(Arc::strong_count(&dict.base), 1);
                            unshared_with_tail += 1;
                        }
                    }
                    // A term seen before: the same id, whatever part holds it.
                    2..=9 if !model.is_empty() => {
                        let t = &model[next() as usize % model.len()];
                        assert_eq!(dict.intern(t), index[t], "seed {seed} step {step}");
                    }
                    _ => {
                        let n = model.len();
                        let t = match next() % 3 {
                            0 => Term::iri(format!("http://e/{n}")),
                            1 => Term::blank(format!("b{n}")),
                            _ => Term::literal(format!("{n}")),
                        };
                        let had_tail = !dict.tail.terms.is_empty();
                        let id = dict.intern(&t);
                        assert_eq!(id.index(), model.len(), "seed {seed}: ids dense");
                        folds += usize::from(had_tail && dict.tail.terms.is_empty());
                        index.insert(t.clone(), id);
                        model.push(t);
                    }
                }
            }
            assert_models(&dict, &model, &format!("seed {seed}: writer"));
            for (clone, len) in &clones {
                assert_models(clone, &model[..*len], &format!("seed {seed}: held clone"));
                assert!(model[*len..].iter().all(|t| clone.id(t).is_none()));
            }
            assert!(folds >= 2, "seed {seed}: {folds} folds");
            assert!(unshared_with_tail >= 1, "seed {seed}: base never unshared");
        }
    }
}
