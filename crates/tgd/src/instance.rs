//! Relational instances: sets of ground facts with dictionary-interned
//! values and a first-argument index.
//!
//! Values ([`GroundTerm`]) and predicate symbols are interned to dense
//! `u32` ids ([`ValId`], [`PredId`]) on first contact — the same idiom as
//! `rps_rdf::TermDict`. The rewriter of [`crate::idcq`] uses a row-less
//! instance as exactly that dictionary. The string-level [`Fact`] API is
//! the boundary the reference of [`crate::naive`] reads through:
//! `insert`/`contains`/`rows`/`rows_with_first`/`iter` translate through
//! the dictionaries. Rows are stored in insertion order and never removed.

use crate::term::{Fact, GroundTerm, Sym};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// A dense identifier for an interned [`GroundTerm`].
///
/// Ids are only meaningful relative to the [`Instance`] that minted them.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ValId(pub u32);

impl ValId {
    /// The raw index value.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A dense identifier for an interned predicate symbol.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PredId(pub u32);

impl PredId {
    /// The raw index value.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A bidirectional interner from [`GroundTerm`] to [`ValId`].
#[derive(Clone, Default, Debug)]
pub struct ValueDict {
    vals: Vec<GroundTerm>,
    nulls: Vec<bool>,
    lookup: HashMap<GroundTerm, ValId>,
}

impl ValueDict {
    /// Interns a value, returning its id. Idempotent.
    pub fn intern(&mut self, v: &GroundTerm) -> ValId {
        if let Some(&id) = self.lookup.get(v) {
            return id;
        }
        let id = ValId(u32::try_from(self.vals.len()).expect("value dictionary overflow"));
        self.vals.push(v.clone());
        self.nulls.push(v.is_null());
        self.lookup.insert(v.clone(), id);
        id
    }

    /// Looks up the id of a value without interning it.
    pub fn id(&self, v: &GroundTerm) -> Option<ValId> {
        self.lookup.get(v).copied()
    }

    /// Returns the value for an id minted by this dictionary.
    pub fn value(&self, id: ValId) -> &GroundTerm {
        &self.vals[id.index()]
    }

    /// `true` iff the id denotes a labelled null (checked without
    /// touching the value payload).
    pub fn is_null(&self, id: ValId) -> bool {
        self.nulls[id.index()]
    }

    /// Number of interned values.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }
}

/// An open-addressing membership set over the *indexes* of a relation's
/// row store. Rows are hashed and compared through the backing `rows`
/// vector, so each row is stored exactly once — replacing the former
/// `HashSet<Box<[ValId]>>` that duplicated every row as its own key and
/// doubled resident row memory at large chase sizes.
#[derive(Clone, Default, Debug)]
struct RowSet {
    /// Power-of-two slot table; `0` is empty, otherwise `row index + 1`.
    slots: Vec<u32>,
    len: usize,
}

impl RowSet {
    /// SplitMix64-style avalanche over the row's value ids.
    fn hash_row(row: &[ValId]) -> u64 {
        let mut h: u64 = 0x9e37_79b9_7f4a_7c15 ^ (row.len() as u64);
        for &v in row {
            h ^= u64::from(v.0).wrapping_add(0x9e37_79b9_7f4a_7c15);
            h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            h ^= h >> 31;
        }
        h
    }

    fn contains(&self, rows: &[Box<[ValId]>], row: &[ValId]) -> bool {
        if self.slots.is_empty() {
            return false;
        }
        let mask = self.slots.len() - 1;
        let mut i = Self::hash_row(row) as usize & mask;
        loop {
            match self.slots[i] {
                0 => return false,
                slot => {
                    if rows[(slot - 1) as usize].as_ref() == row {
                        return true;
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Records `row_idx` (the about-to-be-pushed position in `rows`) for
    /// a row known to be absent. `rows` must not yet contain the row —
    /// the caller pushes it right after.
    fn insert_new(&mut self, rows: &[Box<[ValId]>], row: &[ValId], row_idx: u32) {
        if self.len * 8 >= self.slots.len() * 7 {
            self.grow(rows);
        }
        let mask = self.slots.len() - 1;
        let mut i = Self::hash_row(row) as usize & mask;
        while self.slots[i] != 0 {
            i = (i + 1) & mask;
        }
        self.slots[i] = row_idx + 1;
        self.len += 1;
    }

    fn grow(&mut self, rows: &[Box<[ValId]>]) {
        let cap = (self.slots.len() * 2).max(16);
        let mask = cap - 1;
        let mut next = vec![0u32; cap];
        for &slot in &self.slots {
            if slot == 0 {
                continue;
            }
            let mut i = Self::hash_row(&rows[(slot - 1) as usize]) as usize & mask;
            while next[i] != 0 {
                i = (i + 1) & mask;
            }
            next[i] = slot;
        }
        self.slots = next;
    }
}

/// One predicate's rows: insertion-ordered storage, an index-based
/// membership set ([`RowSet`]) and a hash index mapping a first-argument
/// value id to the (ascending) row indices where it occurs.
#[derive(Clone, Default, Debug)]
struct Relation {
    rows: Vec<Box<[ValId]>>,
    seen: RowSet,
    by_first: HashMap<ValId, Vec<u32>>,
}

impl Relation {
    fn insert(&mut self, row: Box<[ValId]>) -> bool {
        if self.seen.contains(&self.rows, &row) {
            return false;
        }
        let row_idx = u32::try_from(self.rows.len()).expect("relation overflow");
        if let Some(&first) = row.first() {
            self.by_first.entry(first).or_default().push(row_idx);
        }
        self.seen.insert_new(&self.rows, &row, row_idx);
        self.rows.push(row);
        true
    }

    fn contains(&self, row: &[ValId]) -> bool {
        self.seen.contains(&self.rows, row)
    }

    /// The positions of rows whose first argument is `v`, ascending.
    fn with_first(&self, v: ValId) -> &[u32] {
        self.by_first.get(&v).map_or(&[], Vec::as_slice)
    }
}

/// A relational instance — a set of ground facts over some alphabet,
/// interned and indexed.
#[derive(Clone, Default)]
pub struct Instance {
    vals: ValueDict,
    pred_names: Vec<Sym>,
    pred_lookup: HashMap<Sym, PredId>,
    relations: Vec<Relation>,
    len: usize,
}

impl Instance {
    /// Creates an empty instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read access to the value dictionary.
    pub fn values(&self) -> &ValueDict {
        &self.vals
    }

    /// Interns a ground value (without asserting any fact).
    pub fn intern_value(&mut self, v: &GroundTerm) -> ValId {
        self.vals.intern(v)
    }

    /// Interns a predicate symbol (without asserting any fact).
    pub fn intern_pred(&mut self, pred: &Sym) -> PredId {
        match self.pred_lookup.entry(pred.clone()) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let id = PredId(
                    u32::try_from(self.pred_names.len()).expect("predicate dictionary overflow"),
                );
                self.pred_names.push(pred.clone());
                self.relations.push(Relation::default());
                e.insert(id);
                id
            }
        }
    }

    /// Looks up a predicate id without interning.
    pub fn pred_id(&self, pred: &str) -> Option<PredId> {
        self.pred_lookup.get(pred).copied()
    }

    /// The symbol of an interned predicate.
    pub fn pred_name(&self, pred: PredId) -> &Sym {
        &self.pred_names[pred.index()]
    }

    /// Number of distinct predicates seen so far.
    pub fn pred_count(&self) -> usize {
        self.pred_names.len()
    }

    /// Inserts a fact; returns `true` if it was new.
    pub fn insert(&mut self, fact: Fact) -> bool {
        let pred = self.intern_pred(&fact.pred);
        let row: Box<[ValId]> = fact.args.iter().map(|v| self.vals.intern(v)).collect();
        self.insert_row(pred, row)
    }

    /// Inserts an id-level row (ids must come from this instance's
    /// dictionaries); returns `true` if it was new.
    pub fn insert_row(&mut self, pred: PredId, row: Box<[ValId]>) -> bool {
        let added = self.relations[pred.index()].insert(row);
        if added {
            self.len += 1;
        }
        added
    }

    /// Membership test.
    pub fn contains(&self, fact: &Fact) -> bool {
        let Some(pred) = self.pred_id(&fact.pred) else {
            return false;
        };
        let row: Option<Box<[ValId]>> = fact.args.iter().map(|v| self.vals.id(v)).collect();
        match row {
            Some(row) => self.relations[pred.index()].contains(&row),
            None => false,
        }
    }

    /// Total number of facts.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the instance has no facts.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of facts for one predicate.
    pub fn relation_size(&self, pred: &str) -> usize {
        self.pred_id(pred)
            .map_or(0, |p| self.relations[p.index()].rows.len())
    }

    /// The id-level rows of one predicate, in insertion order.
    fn rows_ids(&self, pred: PredId) -> &[Box<[ValId]>] {
        &self.relations[pred.index()].rows
    }

    /// Iterates over the (decoded) rows of one predicate in insertion
    /// order.
    pub fn rows(&self, pred: &str) -> impl Iterator<Item = Vec<GroundTerm>> + '_ {
        self.pred_id(pred)
            .into_iter()
            .flat_map(move |p| self.rows_ids(p).iter().map(|row| self.decode_row(row)))
    }

    /// Iterates over the rows of one predicate whose *first* argument is
    /// `first` — an index probe on position 0, no per-probe allocation.
    pub fn rows_with_first<'a>(
        &'a self,
        pred: &str,
        first: &GroundTerm,
    ) -> impl Iterator<Item = Vec<GroundTerm>> + 'a {
        let probe = self
            .pred_id(pred)
            .zip(self.vals.id(first))
            .map(|(p, v)| (p, self.relations[p.index()].with_first(v)));
        probe.into_iter().flat_map(move |(p, rows)| {
            rows.iter()
                .map(move |&i| self.decode_row(&self.rows_ids(p)[i as usize]))
        })
    }

    fn decode_row(&self, row: &[ValId]) -> Vec<GroundTerm> {
        row.iter().map(|&v| self.vals.value(v).clone()).collect()
    }

    /// Iterates over all facts in deterministic (sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = Fact> + '_ {
        let mut facts: Vec<Fact> = self
            .relations
            .iter()
            .enumerate()
            .flat_map(|(pi, rel)| {
                let pred = &self.pred_names[pi];
                rel.rows
                    .iter()
                    .map(move |row| Fact::new(pred.clone(), self.decode_row(row)))
            })
            .collect();
        facts.sort();
        facts.into_iter()
    }
}

impl std::fmt::Debug for Instance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Instance")
            .field("facts", &self.len)
            .finish()
    }
}

impl FromIterator<Fact> for Instance {
    fn from_iter<T: IntoIterator<Item = Fact>>(iter: T) -> Self {
        let mut i = Instance::new();
        for f in iter {
            i.insert(f);
        }
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::dsl::fact;

    #[test]
    fn insert_and_contains() {
        let mut i = Instance::new();
        assert!(i.insert(fact("r", &["a", "b"])));
        assert!(!i.insert(fact("r", &["a", "b"])));
        assert!(i.contains(&fact("r", &["a", "b"])));
        assert!(!i.contains(&fact("r", &["b", "a"])));
        assert_eq!(i.len(), 1);
        assert_eq!(i.relation_size("r"), 1);
        assert_eq!(i.relation_size("s"), 0);
    }

    #[test]
    fn deterministic_iteration() {
        let i: Instance = [fact("z", &["1"]), fact("a", &["2"]), fact("a", &["1"])]
            .into_iter()
            .collect();
        let order: Vec<String> = i.iter().map(|f| f.to_string()).collect();
        assert_eq!(order, vec!["a(1)", "a(2)", "z(1)"]);
    }

    #[test]
    fn first_argument_probe() {
        let i: Instance = [
            fact("e", &["a", "b"]),
            fact("e", &["a", "c"]),
            fact("e", &["b", "c"]),
        ]
        .into_iter()
        .collect();
        let hits: Vec<_> = i.rows_with_first("e", &GroundTerm::constant("a")).collect();
        assert_eq!(hits.len(), 2);
        assert!(i
            .rows_with_first("e", &GroundTerm::constant("zz"))
            .next()
            .is_none());
        assert!(i
            .rows_with_first("nope", &GroundTerm::constant("a"))
            .next()
            .is_none());
    }

    #[test]
    fn row_set_dedups_across_growth() {
        // Push enough distinct rows through one relation to force several
        // RowSet grow/rehash cycles, then re-insert everything.
        let mut i = Instance::new();
        let n = 1000;
        for k in 0..n {
            assert!(i.insert(fact("r", &[&format!("a{k}"), &format!("b{}", k % 7)])));
        }
        assert_eq!(i.len(), n);
        for k in 0..n {
            assert!(!i.insert(fact("r", &[&format!("a{k}"), &format!("b{}", k % 7)])));
            assert!(i.contains(&fact("r", &[&format!("a{k}"), &format!("b{}", k % 7)])));
        }
        assert_eq!(i.len(), n);
    }
}
