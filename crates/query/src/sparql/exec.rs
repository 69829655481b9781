//! The id-level tail of SPARQL evaluation.
//!
//! Everything the conjunctive engine cannot express happens here:
//! OPTIONAL left joins (compatible-mapping semantics), FILTER
//! evaluation, projection with unbound columns, DISTINCT, ORDER BY with
//! a numeric-aware comparator, and LIMIT/OFFSET. It runs on **term
//! ids**: the per-CQ answers arrive as [`IdRows`] over one
//! [`TermDict`], rows are slot-indexed id tuples in one flat buffer per
//! UNION branch, and a [`Term`] is looked at only where its value
//! matters:
//!
//! * **OPTIONAL** is a sort-and-probe left join on the variables both
//!   sides bind. Within one dictionary two ids are equal iff their
//!   terms are, so comparing ids *is* the compatible-mapping test — a
//!   variable an earlier OPTIONAL left unbound matches anything and is
//!   filled in by the extension.
//! * **FILTER** operands resolve `&Term` through the dictionary (no
//!   clone); the numeric value of an id is parsed once per query.
//! * **Canonical order.** The dictionary comes with its [`TermOrder`],
//!   ranked once per serving graph ([`rps_rdf::Graph::term_order`]), not
//!   per query: a cell becomes its rank with one lookup, and a projected
//!   row becomes its rank tuple followed by its ids. Rows of one or two
//!   columns sort and dedup as one machine word
//!   ([`sort_dedup_rows`]), which is the column-wise term order
//!   (unbound first) the result contract promises.
//! * **ORDER BY** computes one integer key per row and ORDER BY column,
//!   once: unbound; then IRIs and blanks, by term; then numeric
//!   literals, by value and then term; then every other literal, by
//!   term — a total order, which is what lets `OFFSET + LIMIT` pick its
//!   rows with a selection before only those are sorted.
//! * **Decode.** Terms are cloned for the rows left after DISTINCT,
//!   OFFSET and LIMIT, from the ids each row carried through the sort,
//!   into one [`Rows`] table of `rows × width` cells — nothing else is
//!   ever materialised, and a result is one allocation, not one per row.
//!
//! The routines are route-agnostic — they see only id rows and a
//! dictionary — so a query assembled over the materialised, rewritten,
//! live or federated route produces byte-identical output. Routes whose
//! answers are terms (or ids of several dictionaries) enter through
//! [`assemble`], which interns them into a scratch dictionary, ranks it
//! with the same sweep a graph's first [`TermOrder`] takes and runs this
//! same tail — unless the statement's tail is the identity (one
//! branch, no OPTIONAL / FILTER / ORDER BY / OFFSET, the projection the
//! CQ's head in order). Then the answer *set* is already the result: a
//! `BTreeSet` of term tuples is distinct and in the canonical column-wise
//! term order, so interning it only to rank it back is skipped, and
//! LIMIT and ASK are a prefix and a non-emptiness test on it. That is
//! not a second tail: it is what this one computes on such a statement,
//! and `exec::tests` holds the two paths equal on the same sets.

use super::lower::{LoweredBranch, LoweredOptional, LoweredSparql, Rows, SparqlResult, SparqlRows};
use super::parse::{CmpOp, FilterExpr, Operand};
use crate::eval::{sort_dedup_rows, IdRows, RowSink};
use crate::pattern::Variable;
use rps_rdf::{LiteralAnnotation, Term, TermDict, TermId, TermKind, TermOrder};
use std::borrow::Cow;
use std::cell::OnceCell;
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};

#[cfg(test)]
mod reference;
#[cfg(test)]
mod tests;

/// The cell of a variable a row does not bind. Dictionary ids are
/// dense from 0, so the top id is never minted.
const UNBOUND: TermId = TermId(u32::MAX);

/// The numeric value of a term for filter comparison and ORDER BY:
/// any non-language-tagged literal whose lexical form parses as a
/// finite float counts (covering the engine's `xsd:integer` literals
/// and plain digit strings alike).
fn numeric(term: &Term) -> Option<f64> {
    let Term::Literal(lit) = term else {
        return None;
    };
    if matches!(lit.annotation(), LiteralAnnotation::Lang(_)) {
        return None;
    }
    let v: f64 = lit.lexical().parse().ok()?;
    v.is_finite().then_some(v)
}

/// A FILTER compiled against a row layout: variables are column
/// indexes (`None` when the rows do not carry the variable — it is
/// unbound in every one of them) and constants bring their numeric
/// value along.
enum Cond<'q> {
    Or(Box<Cond<'q>>, Box<Cond<'q>>),
    And(Box<Cond<'q>>, Box<Cond<'q>>),
    Not(Box<Cond<'q>>),
    Bound(Option<usize>),
    Compare(Arg<'q>, CmpOp, Arg<'q>),
}

enum Arg<'q> {
    Col(Option<usize>),
    Const(&'q Term, Option<f64>),
}

fn compile<'q>(expr: &'q FilterExpr, cols: &[&Variable]) -> Cond<'q> {
    let col = |v: &Variable| cols.iter().position(|c| *c == v);
    let arg = |op: &'q Operand| match op {
        Operand::Var(v) => Arg::Col(col(v)),
        Operand::Term(t) => Arg::Const(t, numeric(t)),
    };
    match expr {
        FilterExpr::Or(a, b) => Cond::Or(compile(a, cols).into(), compile(b, cols).into()),
        FilterExpr::And(a, b) => Cond::And(compile(a, cols).into(), compile(b, cols).into()),
        FilterExpr::Not(a) => Cond::Not(compile(a, cols).into()),
        FilterExpr::Bound(v) => Cond::Bound(col(v)),
        FilterExpr::Compare(l, op, r) => Cond::Compare(arg(l), *op, arg(r)),
    }
}

fn compile_all<'q>(filters: &'q [FilterExpr], cols: &[&Variable]) -> Vec<Cond<'q>> {
    filters.iter().map(|f| compile(f, cols)).collect()
}

/// `l OP r` on two bound terms with their numeric values: numerically
/// when both are numeric; otherwise `=`/`!=` are term identity (kept
/// total — distinct terms compare unequal rather than erroring, a
/// deliberate simplification of RDFterm-equal for this subset) and the
/// ordering operators are defined on literals only, by lexical form —
/// on IRIs or blanks they are type errors (`None`).
fn compare(l: (&Term, Option<f64>), op: CmpOp, r: (&Term, Option<f64>)) -> Option<bool> {
    let holds = |ord: Ordering| match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    };
    match (l, r) {
        // Finite floats: always comparable.
        ((_, Some(a)), (_, Some(b))) => a.partial_cmp(&b).map(holds),
        ((l, _), (r, _)) => match (op, l, r) {
            (CmpOp::Eq, ..) => Some(l == r),
            (CmpOp::Ne, ..) => Some(l != r),
            (_, Term::Literal(a), Term::Literal(b)) => Some(holds(a.lexical().cmp(b.lexical()))),
            _ => None,
        },
    }
}

/// The per-query state of the tail: the dictionary the ids belong to,
/// the numeric values already parsed, and the term order that ranks the
/// ids — asked of `order` at the first row that needs it.
struct Tail<'d, O> {
    dict: &'d TermDict,
    numeric: HashMap<TermId, Option<f64>>,
    order: O,
    ranks: Option<&'d TermOrder>,
}

impl<'d, O: Fn() -> &'d TermOrder> Tail<'d, O> {
    fn value(&mut self, id: TermId) -> (&'d Term, Option<f64>) {
        let term = self.dict.term(id);
        (
            term,
            *self.numeric.entry(id).or_insert_with(|| numeric(term)),
        )
    }

    /// Evaluates a filter to SPARQL's three-valued logic: `Some(bool)`
    /// is a defined result, `None` a type error — a comparison over an
    /// unbound variable, or an ordering comparison on a non-literal.
    /// Errors propagate exactly as the SPARQL evaluation tables
    /// prescribe: the negation of an error is an error, `true || error`
    /// is `true`, `false && error` is `false`, and every other
    /// combination involving an error is an error.
    fn eval(&mut self, cond: &Cond<'d>, row: &[TermId]) -> Option<bool> {
        let cell = |col: Option<usize>| col.map(|c| row[c]).filter(|&id| id != UNBOUND);
        match cond {
            Cond::Or(a, b) => match (self.eval(a, row), self.eval(b, row)) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
            Cond::And(a, b) => match (self.eval(a, row), self.eval(b, row)) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            Cond::Not(a) => self.eval(a, row).map(|v| !v),
            Cond::Bound(col) => Some(cell(*col).is_some()),
            Cond::Compare(l, op, r) => {
                let mut operand = |arg: &Arg<'d>| match arg {
                    Arg::Col(col) => cell(*col).map(|id| self.value(id)),
                    Arg::Const(term, n) => Some((*term, *n)),
                };
                compare(operand(l)?, *op, operand(r)?)
            }
        }
    }

    /// The FILTER boundary: a row is kept only when every expression
    /// evaluates to `true` — both `false` and a type error remove it.
    fn keeps(&mut self, conds: &[Cond<'d>], row: &[TermId]) -> bool {
        conds.iter().all(|c| self.eval(c, row) == Some(true))
    }

    /// SPARQL LeftJoin of `rows` with one OPTIONAL block's extension
    /// rows: a row with at least one compatible extension is replaced
    /// by all its extensions, a row with none passes through with the
    /// block's new variables unbound. `slots` names the columns of
    /// `rows` (the first `always_bound` are bound in every row; later
    /// ones may be [`UNBOUND`]) and gains the variables the block adds.
    fn left_join(
        &mut self,
        rows: &Table<'_>,
        slots: &mut Vec<&'d Variable>,
        always_bound: usize,
        opt: &'d LoweredOptional,
        ext: &IdRows,
    ) -> Table<'static> {
        let ext_vars: Vec<&Variable> = opt.query.free_vars().iter().collect();
        let conds = compile_all(&opt.filters, &ext_vars);
        let mut kept: Vec<u32> = (0..ext.len() as u32)
            .filter(|&i| self.keeps(&conds, ext.row(i as usize)))
            .collect();
        // Where each extension column lands in the row, and how it
        // takes part in the join: a column of an always-bound slot is
        // part of the probe key, a column of a slot an earlier OPTIONAL
        // may have left unbound is checked per candidate, and a column
        // no row has yet gets a new slot.
        let mut key: Vec<(usize, usize)> = Vec::new();
        let mut maybe: Vec<(usize, usize)> = Vec::new();
        let mut fresh: Vec<(usize, usize)> = Vec::new();
        for (col, var) in ext_vars.into_iter().enumerate() {
            match slots.iter().position(|s| *s == var) {
                Some(slot) if slot < always_bound => key.push((col, slot)),
                Some(slot) => maybe.push((col, slot)),
                None => {
                    fresh.push((col, slots.len()));
                    slots.push(var);
                }
            }
        }
        let ext_key = |i: u32| key.iter().map(move |&(col, _)| ext.row(i as usize)[col]);
        kept.sort_unstable_by(|&a, &b| ext_key(a).cmp(ext_key(b)));

        let mut joined = Table {
            width: slots.len(),
            len: 0,
            cells: Cow::Owned(Vec::with_capacity(rows.len * slots.len())),
        };
        for row in rows.iter() {
            let row_key = || key.iter().map(|&(_, slot)| row[slot]);
            let from = kept.partition_point(|&i| ext_key(i).cmp(row_key()) == Ordering::Less);
            let before = joined.len;
            for e in kept[from..]
                .iter()
                .take_while(|&&i| ext_key(i).eq(row_key()))
                .map(|&i| ext.row(i as usize))
            {
                let compatible = maybe
                    .iter()
                    .all(|&(col, slot)| row[slot] == UNBOUND || row[slot] == e[col]);
                if compatible {
                    let cells = joined.push_padded(row);
                    for &(col, slot) in maybe.iter().chain(&fresh) {
                        cells[slot] = e[col];
                    }
                }
            }
            if joined.len == before {
                joined.push_padded(row);
            }
        }
        joined
    }

    /// The solutions of one UNION branch, projected: appends one row to
    /// `keyed` per surviving solution — the `projection.len()` cells'
    /// ranks in the term order, plus one so that 0 is "unbound", then
    /// their ids — and returns how many there were. For ASK (`keyed`
    /// `None`) it returns 1 at the first survivor and writes nothing.
    fn branch(
        &mut self,
        branch: &'d LoweredBranch,
        answers: &[IdRows],
        projection: &[Variable],
        keyed: Option<&mut Vec<u32>>,
    ) -> usize {
        let (base, extensions) = answers.split_first().expect("one answer per lowered CQ");
        // The slot table: the base head, then whatever each OPTIONAL adds.
        let mut slots: Vec<&Variable> = branch.base.free_vars().iter().collect();
        let always_bound = slots.len();
        // The base CQ's rows are read where they are; an OPTIONAL's
        // left join makes the first table of the branch's own.
        let mut rows = Table {
            width: base.arity(),
            len: base.len(),
            cells: Cow::Borrowed(base.cells()),
        };
        for (opt, ext) in branch.optionals.iter().zip(extensions) {
            rows = self.left_join(&rows, &mut slots, always_bound, opt, ext);
        }

        let conds = compile_all(&branch.filters, &slots);
        let Some(keyed) = keyed else {
            return usize::from(rows.iter().any(|row| self.keeps(&conds, row)));
        };
        let cols: Vec<Option<usize>> = projection
            .iter()
            .map(|v| slots.iter().position(|s| *s == v))
            .collect();
        keyed.reserve(rows.len * 2 * cols.len());
        let mut survivors = 0;
        for row in rows.iter() {
            if !self.keeps(&conds, row) {
                continue;
            }
            let order = *self.ranks.get_or_insert_with(&self.order);
            let cell = |c: &Option<usize>| c.map_or(UNBOUND, |c| row[c]);
            keyed.extend(cols.iter().map(|c| match cell(c) {
                UNBOUND => 0,
                id => order.rank(id) + 1,
            }));
            keyed.extend(cols.iter().map(|c| cell(c).0));
            survivors += 1;
        }
        survivors
    }
}

/// The solutions of a branch under construction: `len` rows of `width`
/// cells, row-major, each cell a term id or [`UNBOUND`] — borrowed from
/// the base CQ's answer until a left join builds a table of its own.
struct Table<'a> {
    width: usize,
    len: usize,
    cells: Cow<'a, [TermId]>,
}

impl Table<'_> {
    fn iter(&self) -> impl Iterator<Item = &[TermId]> + '_ {
        (0..self.len).map(|r| &self.cells[r * self.width..(r + 1) * self.width])
    }

    /// Appends `row` padded with [`UNBOUND`] to the table's width and
    /// returns the new row's cells.
    fn push_padded(&mut self, row: &[TermId]) -> &mut [TermId] {
        let cells = self.cells.to_mut();
        let at = cells.len();
        cells.extend_from_slice(row);
        cells.resize(at + self.width, UNBOUND);
        self.len += 1;
        &mut cells[at..]
    }
}

/// The ORDER BY key of one cell, as one integer that orders as the key
/// does: unbound first; then IRIs and blanks, by term; then numeric
/// literals, by value and then term; then every other literal, by term.
/// That is a total order — a numeric never ties with a non-numeric, so
/// comparing by value stays transitive. `rank` is the cell's place in
/// the term order plus one, 0 for unbound.
fn order_key(dict: &TermDict, id: TermId, rank: u32) -> u128 {
    if rank == 0 {
        return 0;
    }
    let (class, value) = match dict.kind(id) {
        TermKind::Literal => match numeric(dict.term(id)) {
            Some(v) => (2, ordered_bits(v)),
            None => (3, 0),
        },
        _ => (1, 0),
    };
    (class << 96) | (u128::from(value) << 32) | u128::from(rank)
}

/// A finite float's bits, flipped so that they order as the values do
/// (both zeros as one).
fn ordered_bits(v: f64) -> u64 {
    let bits = if v == 0.0 { 0 } else { v.to_bits() };
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The first `wanted` of `len` rows in ORDER BY order, by their keys —
/// `nk` per row in `keys` — and ties by row index, the rows being in
/// canonical order: a total order, so the rows past `wanted` are set
/// aside by a selection and only the ones kept are sorted.
fn sort_by_keys(keys: &[u128], nk: usize, len: usize, wanted: usize) -> Vec<u32> {
    let key = |i: u32| &keys[i as usize * nk..(i as usize + 1) * nk];
    let cmp = |a: &u32, b: &u32| key(*a).cmp(key(*b)).then(a.cmp(b));
    let mut rows: Vec<u32> = (0..len as u32).collect();
    if wanted < len {
        rows.select_nth_unstable_by(wanted, cmp);
        rows.truncate(wanted);
    }
    rows.sort_unstable_by(cmp);
    rows
}

/// Assembles the final result from the per-CQ id rows (in
/// [`LoweredSparql::queries`] order), all over `dict`, whose ids `order`
/// ranks — asked for only when there are rows to sort.
pub(crate) fn assemble_ids<'d>(
    lowered: &'d LoweredSparql,
    answers: &[IdRows],
    dict: &'d TermDict,
    order: impl Fn() -> &'d TermOrder,
) -> SparqlResult {
    let expected: usize = lowered.branches.iter().map(|b| 1 + b.optionals.len()).sum();
    assert_eq!(
        answers.len(),
        expected,
        "assemble needs one answer set per lowered CQ"
    );
    let mut tail = Tail {
        dict,
        numeric: HashMap::new(),
        order,
        ranks: None,
    };
    let width = lowered.projection.len();
    // Each row is its cells' ranks in the term order, plus one so that 0
    // is "unbound", followed by its ids: the ranks compare exactly like
    // the decoded rows would (column-wise, unbound first), and the ids
    // ride along for the decode.
    let wide = 2 * width;
    let mut keyed: Vec<u32> = Vec::new();
    let mut len = 0;
    let mut cursor = 0;
    for branch in &lowered.branches {
        let cqs = 1 + branch.optionals.len();
        len += tail.branch(
            branch,
            &answers[cursor..cursor + cqs],
            &lowered.projection,
            (!lowered.ask).then_some(&mut keyed),
        );
        cursor += cqs;
        if lowered.ask && len > 0 {
            return SparqlResult::Boolean(true);
        }
    }
    if lowered.ask {
        return SparqlResult::Boolean(false);
    }

    // The engine computes set semantics throughout, so the projected
    // rows dedup unconditionally (DISTINCT and REDUCED are thereby
    // satisfied; they are accepted syntax, not extra work).
    let len = sort_dedup_rows(&mut keyed, wide, len);
    let ranks = |i: usize| &keyed[i * wide..i * wide + width];
    let ids = |i: usize| &keyed[i * wide + width..(i + 1) * wide];
    let skip = lowered.offset.unwrap_or(0);
    let take = lowered.limit.unwrap_or(usize::MAX);

    let ordered = (!lowered.order_by.is_empty()).then(|| {
        let key_cols: Vec<(usize, bool)> = lowered
            .order_by
            .iter()
            .filter_map(|k| {
                lowered
                    .projection
                    .iter()
                    .position(|v| *v == k.var)
                    .map(|i| (i, k.descending))
            })
            .collect();
        // Every row's keys, computed once; a descending key inverted.
        let keys: Vec<u128> = (0..len)
            .flat_map(|i| {
                key_cols.iter().map(move |&(col, desc)| {
                    let key = order_key(dict, TermId(ids(i)[col]), ranks(i)[col]);
                    if desc {
                        !key
                    } else {
                        key
                    }
                })
            })
            .collect();
        sort_by_keys(&keys, key_cols.len(), len, skip.saturating_add(take))
    });

    let shown = ordered.as_ref().map_or(len, Vec::len);
    let mut rows = Rows::with_capacity(width, shown.saturating_sub(skip).min(take));
    for i in (0..shown)
        .map(|at| ordered.as_ref().map_or(at, |rows| rows[at] as usize))
        .skip(skip)
        .take(take)
    {
        rows.push(
            ids(i)
                .iter()
                .map(|&id| (id != UNBOUND.0).then(|| dict.term(TermId(id)).clone())),
        );
    }
    SparqlResult::Rows(SparqlRows {
        vars: lowered.columns(),
        rows,
    })
}

/// `true` iff the tail hands the base CQ's answers through as they are:
/// one branch, no OPTIONAL, no FILTER, no ORDER BY, no OFFSET, and a
/// projection that is the base CQ's head in order. LIMIT keeps a prefix
/// of the canonical order and ASK asks for a row, so both stay in.
fn is_identity(lowered: &LoweredSparql) -> bool {
    let [branch] = lowered.branches.as_slice() else {
        return false;
    };
    branch.optionals.is_empty()
        && branch.filters.is_empty()
        && lowered.order_by.is_empty()
        && lowered.offset.is_none()
        && branch.base.free_vars() == lowered.projection.as_slice()
}

/// [`assemble_ids`] for answers that are not ids of one dictionary.
///
/// A statement whose tail is the identity ([`is_identity`]) takes its one
/// set as the rows: a `BTreeSet<Vec<Term>>` is duplicate-free and sorted
/// column-wise by term order, which is exactly what DISTINCT and the
/// canonical order would make of it, so LIMIT takes a prefix and ASK
/// asks for non-emptiness. Every other statement interns its term tuples
/// into a scratch dictionary and runs the tail over it.
pub(crate) fn assemble(lowered: &LoweredSparql, answers: &[BTreeSet<Vec<Term>>]) -> SparqlResult {
    if !is_identity(lowered) {
        return assemble_interned(lowered, answers);
    }
    let [set] = answers else {
        panic!("assemble needs one answer set per lowered CQ");
    };
    if lowered.ask {
        return SparqlResult::Boolean(!set.is_empty());
    }
    let take = lowered.limit.unwrap_or(usize::MAX);
    let mut rows = Rows::with_capacity(lowered.projection.len(), set.len().min(take));
    for row in set.iter().take(take) {
        rows.push(row.iter().cloned().map(Some));
    }
    SparqlResult::Rows(SparqlRows {
        vars: lowered.columns(),
        rows,
    })
}

/// The interning half of [`assemble`]: the term tuples go into a scratch
/// dictionary, which is swept into its term order, and through
/// [`assemble_ids`].
fn assemble_interned(lowered: &LoweredSparql, answers: &[BTreeSet<Vec<Term>>]) -> SparqlResult {
    let mut dict = TermDict::new();
    let order = OnceCell::new();
    let rows: Vec<IdRows> = answers
        .iter()
        .zip(lowered.queries())
        .map(|(tuples, cq)| {
            let mut sink = RowSink::new(cq.arity());
            for tuple in tuples {
                sink.push(tuple.iter().map(|term| dict.intern(term)));
            }
            sink.finish()
        })
        .collect();
    assemble_ids(lowered, &rows, &dict, || {
        order.get_or_init(|| TermOrder::sweep(&dict))
    })
}
