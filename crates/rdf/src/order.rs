//! The term order of a dictionary, ranked once per serving graph.
//!
//! SPARQL results leave the engine sorted column-wise by [`Term`] order
//! (IRIs, then blanks, then literals; each by its string, a literal's
//! annotation breaking a tie of lexical forms). A [`TermOrder`] ranks
//! every id of a [`TermDict`] by that order, so a row of ids becomes a
//! row of ranks and sorts as integers: `rank(a) < rank(b)` iff
//! `term(a) < term(b)`. A [`Graph`](crate::Graph) holds one beside its
//! planner statistics and with the same lifecycle
//! ([`Graph::term_order`](crate::Graph::term_order)):
//!
//! * **The sweep** ([`TermOrder::sweep`]) — on the first call against a
//!   graph that holds none: one sort of the whole dictionary, by
//!   borrowed `(kind, string)` keys, with the few ties (literals sharing
//!   a lexical form) sorted again by the full term.
//! * **The patch** ([`TermOrder::patched`]) — on the first call after a
//!   graph that held an order interned new terms. The first new term
//!   takes the order out as a *base* (ids never move, so it still ranks
//!   every term it covered); the next call sorts the `k` terms interned
//!   since, finds each one's place among the base's by galloping on from
//!   the last one's, merges them in and ranks the merged ids again:
//!   `O(n + k · log n)` against the sweep's `O(n · log n)`, and only
//!   `O(k · log n)` of it comparisons of terms. It runs when
//!   `k · 2 · ilog2(n) < n`, the rule the statistics patch uses;
//!   otherwise the call sweeps.
//!
//! Either way the order covers the whole dictionary: it is taken away
//! before a term it does not rank can be looked up.

use crate::dict::{TermDict, TermId};
use crate::store::gallop_point;
use crate::term::Term;

/// Every id of a dictionary ranked by [`Term`] order: a rank per id and
/// the ids in that order. Immutable once built; a graph shares it by
/// `Arc` with its read-only copies.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TermOrder {
    /// `rank[id]`: how many of the dictionary's terms sort before `id`'s.
    rank: Vec<u32>,
    /// The ids in term order: `ids[rank[id]] == id`.
    ids: Vec<TermId>,
}

/// The part of a term's order that a `&str` comparison decides: its
/// kind (in `Term`'s variant order) and its one string. Two terms with
/// equal keys are two literals with one lexical form.
fn primary(term: &Term) -> (u8, &str) {
    match term {
        Term::Iri(iri) => (0, iri.as_str()),
        Term::Blank(b) => (1, b.label()),
        Term::Literal(lit) => (2, lit.lexical()),
    }
}

impl TermOrder {
    /// Ranks every term of `dict`.
    pub fn sweep(dict: &TermDict) -> TermOrder {
        let mut keyed: Vec<((u8, &str), TermId)> =
            dict.iter().map(|(id, term)| (primary(term), id)).collect();
        keyed.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        for tied in keyed.chunk_by_mut(|a, b| a.0 == b.0) {
            if tied.len() > 1 {
                tied.sort_unstable_by(|a, b| dict.term(a.1).cmp(dict.term(b.1)));
            }
        }
        TermOrder::from_ids(keyed.into_iter().map(|(_, id)| id).collect())
    }

    /// This order extended to the terms `dict` interned after the ones
    /// it ranks. `dict` must be the dictionary this order was built over,
    /// grown since: ids never move, so the ranked ones keep their
    /// relative order and the new ones are merged in between.
    pub fn patched(&self, dict: &TermDict) -> TermOrder {
        debug_assert!(self.len() <= dict.len());
        let mut fresh: Vec<TermId> = (self.len()..dict.len()).map(|i| TermId(i as u32)).collect();
        fresh.sort_unstable_by(|&a, &b| dict.term(a).cmp(dict.term(b)));
        // Each new term goes after the ranked terms that sort before it,
        // found by galloping on from the last one's place — new terms
        // often land together (a chase's fresh blanks share a label
        // prefix).
        let mut ids = Vec::with_capacity(dict.len());
        let mut from = 0;
        for id in fresh {
            let term = dict.term(id);
            let at = from + gallop_point(&self.ids[from..], |&old| dict.term(old) < term);
            ids.extend_from_slice(&self.ids[from..at]);
            ids.push(id);
            from = at;
        }
        ids.extend_from_slice(&self.ids[from..]);
        TermOrder::from_ids(ids)
    }

    fn from_ids(ids: Vec<TermId>) -> TermOrder {
        let mut rank = vec![0; ids.len()];
        for (at, id) in ids.iter().enumerate() {
            rank[id.index()] = at as u32;
        }
        TermOrder { rank, ids }
    }

    /// How many terms of the dictionary sort before `id`'s.
    ///
    /// # Panics
    /// Panics if `id` is past the terms this order ranks.
    #[inline]
    pub fn rank(&self, id: TermId) -> u32 {
        self.rank[id.index()]
    }

    /// The ranked ids, in term order.
    pub fn ids(&self) -> &[TermId] {
        &self.ids
    }

    /// How many terms this order ranks: ids `0..len()`.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` iff it ranks no term.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}
