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
//!
//! **The id index.** A part holds each term once, in its `terms`, and
//! finds it again through an open-addressing table of `u64` slots: a
//! slot is the term's 32-bit keyed hash above its index in `terms` plus
//! one, and 0 is an empty slot. A table is a power of two in size, at
//! most 7/8 full, and probed linearly; a probe compares the stored hash,
//! then the term. Parts never delete. `intern` hashes a term once, for
//! the probe and the insert alike, and growth and a fold re-place slots
//! from their stored hashes, so no term is hashed again. The index is
//! 8 bytes a slot, 9–18 bytes a term. The hash is std's SipHash under a
//! key drawn per dictionary and shared by its clones, so the terms a
//! peer or a query brings cannot pick their collisions.

use crate::term::{Term, TermKind};
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
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

/// The fewest slots a part's id index allocates.
const SLOTS_MIN: usize = 16;

/// A bidirectional interner from [`Term`] to [`TermId`].
#[derive(Clone, Default)]
pub struct TermDict {
    /// Ids `0..base.terms.len()`.
    base: Arc<Part>,
    /// Ids from `base.terms.len()` on, interned while the base was shared.
    tail: Part,
    /// The hash both parts' indexes are built with.
    hasher: TermHasher,
}

/// The keyed hash of a dictionary's terms (see the module docs).
#[derive(Clone, Default)]
struct TermHasher {
    keys: RandomState,
    /// Keeps only these bits of every hash, so that probe chains collide.
    #[cfg(test)]
    mask: Option<u32>,
}

impl TermHasher {
    fn hash(&self, term: &Term) -> u32 {
        let hash = self.keys.hash_one(term) as u32;
        #[cfg(test)]
        let hash = self.mask.map_or(hash, |mask| hash & mask);
        hash
    }
}

/// A run of consecutive ids: their terms and kinds, and the id index.
#[derive(Clone, Default)]
struct Part {
    terms: Vec<Term>,
    kinds: Vec<TermKind>,
    /// `hash << 32 | (index in terms + 1)`, or 0 (see the module docs).
    slots: Box<[u64]>,
}

impl Part {
    /// The index in `terms` of `term`, whose hash is `hash`, if held.
    fn find(&self, hash: u32, term: &Term) -> Option<usize> {
        let mask = self.slots.len().checked_sub(1)?;
        let mut i = hash as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                return None;
            }
            if (slot >> 32) as u32 == hash {
                let at = (slot as u32 - 1) as usize;
                if self.terms[at] == *term {
                    return Some(at);
                }
            }
            i = (i + 1) & mask;
        }
    }

    fn push(&mut self, term: &Term, hash: u32) {
        let at = self.terms.len();
        self.terms.push(term.clone());
        self.kinds.push(term.kind());
        self.reserve();
        place(&mut self.slots, (u64::from(hash) << 32) | (at as u64 + 1));
    }

    /// Grows the index, if `terms` would fill it past 7/8, re-placing
    /// every slot from its stored hash.
    fn reserve(&mut self) {
        let fits = |slots: usize| self.terms.len() * 8 <= slots * 7;
        if fits(self.slots.len()) {
            return;
        }
        let mut size = self.slots.len().max(SLOTS_MIN);
        while !fits(size) {
            size *= 2;
        }
        let old = std::mem::replace(&mut self.slots, vec![0; size].into_boxed_slice());
        for &slot in old.iter().filter(|&&slot| slot != 0) {
            place(&mut self.slots, slot);
        }
    }

    /// Moves `tail`'s terms behind this part's, re-placing its slots.
    fn append(&mut self, tail: Part) {
        let offset = self.terms.len() as u64;
        self.terms.extend(tail.terms);
        self.kinds.extend(tail.kinds);
        self.reserve();
        // The index sits in the low half, and the sum still fits there.
        for &slot in tail.slots.iter().filter(|&&slot| slot != 0) {
            place(&mut self.slots, slot + offset);
        }
    }
}

/// Writes `slot` into the first free slot of its probe chain.
fn place(slots: &mut [u64], slot: u64) {
    let mask = slots.len() - 1;
    let mut i = (slot >> 32) as usize & mask;
    while slots[i] != 0 {
        i = (i + 1) & mask;
    }
    slots[i] = slot;
}

/// The id of a dictionary's `len`-th term. The top id is never minted:
/// the SPARQL tail marks an unbound cell with it, and a slot could not
/// hold its index plus one.
fn mint(len: usize) -> TermId {
    let id = u32::try_from(len).ok().filter(|&id| id != u32::MAX);
    TermId(id.expect("term dictionary overflow"))
}

impl TermDict {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a term, returning its id. Idempotent.
    pub fn intern(&mut self, term: &Term) -> TermId {
        let hash = self.hasher.hash(term);
        if let Some(id) = self.find(hash, term) {
            return id;
        }
        let id = mint(self.len());
        if self.tail.terms.is_empty() {
            if let Some(base) = Arc::get_mut(&mut self.base) {
                base.push(term, hash);
                return id;
            }
        }
        self.tail.push(term, hash);
        if self.tail.terms.len() > FOLD_MIN.max(self.base.terms.len() / 8) {
            let tail = std::mem::take(&mut self.tail);
            Arc::make_mut(&mut self.base).append(tail);
        }
        id
    }

    /// Looks up the id of a term without interning it.
    pub fn id(&self, term: &Term) -> Option<TermId> {
        self.find(self.hasher.hash(term), term)
    }

    /// The id of `term`, whose hash is `hash`, in whichever part holds it.
    fn find(&self, hash: u32, term: &Term) -> Option<TermId> {
        let split = self.base.terms.len();
        let at = self.base.find(hash, term);
        let at = at.or_else(|| Some(split + self.tail.find(hash, term)?));
        at.map(|at| TermId(at as u32))
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
    use crate::term::{Iri, Literal};
    use std::collections::HashMap;

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
        clones_keep_their_prefix(TermDict::new, &[7, 2501, 90_913], 12_000);
    }

    /// The same when every probe chain collides: a constant hash and a
    /// 2-bit one.
    #[test]
    fn clones_keep_their_prefix_across_folds_when_hashes_collide() {
        for mask in [0, 0b11] {
            clones_keep_their_prefix(|| colliding(mask), &[2501], 4_000);
        }
    }

    /// An empty dictionary whose hash keeps only the bits of `mask`.
    fn colliding(mask: u32) -> TermDict {
        let mut dict = TermDict::new();
        dict.hasher.mask = Some(mask);
        dict
    }

    /// Bytes held by both parts' id indexes.
    fn index_bytes(dict: &TermDict) -> usize {
        (dict.base.slots.len() + dict.tail.slots.len()) * std::mem::size_of::<u64>()
    }

    fn clones_keep_their_prefix(new: impl Fn() -> TermDict, seeds: &[u64], steps: usize) {
        for &seed in seeds {
            let mut next = crate::store::tests::splitmix(seed);
            let mut dict = new();
            let mut model: Vec<Term> = Vec::new();
            let mut index = HashMap::new();
            let mut clones: Vec<(TermDict, usize)> = Vec::new();
            let (mut folds, mut unshared_with_tail) = (0, 0);
            for step in 0..steps {
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

    /// The `n`-th term of a sweep over every kind of term.
    fn nth_term(n: usize) -> Term {
        match n % 5 {
            0 => Term::iri(format!("http://e/{n}")),
            1 => Term::blank(format!("b{n}")),
            2 => Term::literal(format!("{n}")),
            3 => Term::Literal(Literal::lang(format!("{n}"), "en")),
            _ => Term::Literal(Literal::typed(format!("{n}"), Iri::new("http://e/int"))),
        }
    }

    /// An empty dictionary through several doublings of both parts'
    /// indexes and two folds (a clone is held from term 600 on and taken
    /// again after each fold), under a constant, a 2-bit and the keyed
    /// hash: after every doubling and fold each term has its id, and
    /// absent terms of every kind — fresh ones, and present texts under
    /// another kind — have none.
    #[test]
    fn the_index_grows_and_folds_when_every_chain_collides() {
        for mask in [Some(0), Some(0b11), None] {
            let mut dict = mask.map_or_else(TermDict::new, colliding);
            let mut model = Vec::new();
            let mut held = None;
            let (mut doublings, mut folds) = (0, 0);
            for n in 0..3_000 {
                if n == 600 {
                    held = Some(dict.clone());
                }
                let slots = (dict.base.slots.len(), dict.tail.slots.len());
                let had_tail = !dict.tail.terms.is_empty();
                let term = nth_term(n);
                assert_eq!(dict.intern(&term), TermId(n as u32), "{mask:?}: ids dense");
                model.push(term);
                let folded = had_tail && dict.tail.terms.is_empty();
                let doubled = dict.base.slots.len() > slots.0 || dict.tail.slots.len() > slots.1;
                if folded {
                    held = Some(dict.clone());
                }
                if folded || doubled {
                    assert_models(&dict, &model, &format!("{mask:?}: after term {n}"));
                }
                folds += usize::from(folded);
                doublings += usize::from(doubled && !folded);
            }
            assert!(folds >= 2, "{mask:?}: {folds} folds");
            assert!(doublings >= 8, "{mask:?}: {doublings} doublings");
            let held = held.unwrap_or_default();
            assert!(
                held.len() > 2_000,
                "{mask:?}: the clone after the second fold"
            );
            assert_models(
                &held,
                &model[..held.len()],
                &format!("{mask:?}: held clone"),
            );
            let absent = (3_000..3_005).map(nth_term).chain([
                Term::iri("0"),
                Term::iri("b1"),
                Term::blank("http://e/0"),
                Term::literal("http://e/0"),
                Term::literal("b1"),
                Term::Literal(Literal::lang("2", "en")),
                Term::Literal(Literal::typed("3", Iri::new("http://e/int"))),
                Term::Literal(Literal::lang("4", "de")),
            ]);
            for term in absent {
                assert_eq!(dict.id(&term), None, "{mask:?}: {term:?} is absent");
            }
        }
    }

    /// A dictionary keeps one copy of a term: interning one clones its
    /// payload's `Arc` once, into the base and into the tail alike, and a
    /// lookup or a second intern clones nothing.
    #[test]
    fn a_term_is_held_once() {
        let mut dict = TermDict::new();
        let base: Arc<str> = Arc::from("http://e/base");
        let callers = Arc::strong_count(&base);
        let id = dict.intern(&Term::iri(Arc::clone(&base)));
        assert_eq!(Arc::strong_count(&base), callers + 1, "in the base");
        // The base is shared from here on, so the next term goes to the tail.
        let _held = dict.clone();
        let tail: Arc<str> = Arc::from("http://e/tail");
        dict.intern(&Term::iri(Arc::clone(&tail)));
        assert_eq!(dict.tail.terms.len(), 1);
        assert_eq!(Arc::strong_count(&tail), callers + 1, "in the tail");
        assert_eq!(dict.intern(&Term::iri(Arc::clone(&base))), id);
        assert_eq!(dict.id(&Term::iri(Arc::clone(&tail))), Some(TermId(1)));
        assert_eq!(
            Arc::strong_count(&base),
            callers + 1,
            "shared with the clone"
        );
        assert_eq!(Arc::strong_count(&tail), callers + 1);
    }

    /// The id index of a 100 000-term dictionary is at most 16 bytes a
    /// term.
    #[test]
    fn the_index_costs_at_most_16_bytes_a_term() {
        let mut dict = TermDict::new();
        for n in 0..100_000 {
            dict.intern(&nth_term(n));
        }
        let bytes = index_bytes(&dict);
        assert!(
            bytes <= 16 * dict.len(),
            "{bytes} B for {} terms",
            dict.len()
        );
    }

    /// The overflow check refuses the top id, which the SPARQL tail
    /// reserves for an unbound cell.
    #[test]
    fn the_top_id_is_never_minted() {
        assert_eq!(mint(u32::MAX as usize - 1), TermId(u32::MAX - 1));
        for len in [u32::MAX as usize, usize::MAX] {
            assert!(std::panic::catch_unwind(|| mint(len)).is_err(), "{len}");
        }
    }
}
