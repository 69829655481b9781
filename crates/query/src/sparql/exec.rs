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
//! * **Canonical order.** The distinct ids of the surviving projected
//!   rows are ranked by term order once; rows become rank tuples and
//!   sort as integers, which is the column-wise term order (unbound
//!   first) the result contract promises. ORDER BY then sorts those
//!   rows with numeric values looked up by rank.
//! * **Decode.** Terms are cloned for the rows left after DISTINCT,
//!   OFFSET and LIMIT — nothing else is ever materialised.
//!
//! The routines are route-agnostic — they see only id rows and a
//! dictionary — so a query assembled over the materialised, rewritten,
//! live or federated route produces byte-identical output. Routes whose
//! answers are terms (or ids of several dictionaries) enter through
//! [`assemble`], which interns them into a scratch dictionary and runs
//! this same tail — unless the statement's tail is the identity (one
//! branch, no OPTIONAL / FILTER / ORDER BY / OFFSET, the projection the
//! CQ's head in order). Then the answer *set* is already the result: a
//! `BTreeSet` of term tuples is distinct and in the canonical column-wise
//! term order, so interning it only to rank it back is skipped, and
//! LIMIT and ASK are a prefix and a non-emptiness test on it. That is
//! not a second tail: it is what this one computes on such a statement,
//! and `exec::tests` holds the two paths equal on the same sets.

use super::lower::{LoweredBranch, LoweredOptional, LoweredSparql, SparqlResult, SparqlRows};
use super::parse::{CmpOp, FilterExpr, Operand};
use crate::eval::{sort_dedup_rows, IdRows, RowSink};
use crate::pattern::Variable;
use rps_rdf::{LiteralAnnotation, Term, TermDict, TermId};
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

/// The per-query state of the tail: the dictionary the ids belong to
/// and the numeric values already parsed.
struct Tail<'d> {
    dict: &'d TermDict,
    numeric: HashMap<TermId, Option<f64>>,
}

impl<'d> Tail<'d> {
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
        rows: &Table,
        slots: &mut Vec<&'d Variable>,
        always_bound: usize,
        opt: &'d LoweredOptional,
        ext: &IdRows,
    ) -> Table {
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
            cells: Vec::with_capacity(rows.len * slots.len()),
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
                    let at = joined.push_padded(row);
                    for &(col, slot) in maybe.iter().chain(&fresh) {
                        joined.cells[at + slot] = e[col];
                    }
                }
            }
            if joined.len == before {
                joined.push_padded(row);
            }
        }
        joined
    }

    /// The solutions of one UNION branch, projected: appends one
    /// `projection.len()`-wide row to `out` per surviving solution and
    /// returns how many there were.
    fn branch(
        &mut self,
        branch: &'d LoweredBranch,
        answers: &[IdRows],
        projection: &[Variable],
        out: &mut Vec<TermId>,
    ) -> usize {
        let (base, extensions) = answers.split_first().expect("one answer per lowered CQ");
        // The slot table: the base head, then whatever each OPTIONAL adds.
        let mut slots: Vec<&Variable> = branch.base.free_vars().iter().collect();
        let always_bound = slots.len();
        let mut rows = Table {
            width: base.arity(),
            len: base.len(),
            cells: base.iter().flatten().copied().collect(),
        };
        for (opt, ext) in branch.optionals.iter().zip(extensions) {
            rows = self.left_join(&rows, &mut slots, always_bound, opt, ext);
        }

        let conds = compile_all(&branch.filters, &slots);
        let cols: Vec<Option<usize>> = projection
            .iter()
            .map(|v| slots.iter().position(|s| *s == v))
            .collect();
        let mut survivors = 0;
        for row in rows.iter().filter(|row| self.keeps(&conds, row)) {
            out.extend(cols.iter().map(|c| c.map_or(UNBOUND, |c| row[c])));
            survivors += 1;
        }
        survivors
    }
}

/// The solutions of a branch under construction: `len` rows of `width`
/// cells, row-major, each cell a term id or [`UNBOUND`].
struct Table {
    width: usize,
    len: usize,
    cells: Vec<TermId>,
}

impl Table {
    fn iter(&self) -> impl Iterator<Item = &[TermId]> + '_ {
        (0..self.len).map(|r| &self.cells[r * self.width..(r + 1) * self.width])
    }

    /// Appends `row` padded with [`UNBOUND`] to the table's width and
    /// returns the offset of its first cell.
    fn push_padded(&mut self, row: &[TermId]) -> usize {
        let at = self.cells.len();
        self.cells.extend_from_slice(row);
        self.cells.resize(at + self.width, UNBOUND);
        self.len += 1;
        at
    }
}

/// The ORDER BY comparator for one key, on ranks: unbound (rank 0)
/// sorts before bound; two numerics compare numerically; anything else
/// — and a numeric tie — falls back to the total term order, which is
/// the rank order.
fn key_cmp(a: u32, b: u32, numeric_of_rank: &[Option<f64>]) -> Ordering {
    let by_number = match (numeric_of_rank[a as usize], numeric_of_rank[b as usize]) {
        (Some(na), Some(nb)) => na.partial_cmp(&nb).unwrap_or(Ordering::Equal),
        _ => Ordering::Equal,
    };
    by_number.then(a.cmp(&b))
}

/// Assembles the final result from the per-CQ id rows (in
/// [`LoweredSparql::queries`] order), all over `dict`.
pub(crate) fn assemble_ids(
    lowered: &LoweredSparql,
    answers: &[IdRows],
    dict: &TermDict,
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
    };
    let width = lowered.projection.len();
    let mut cells: Vec<TermId> = Vec::new();
    let mut len = 0;
    let mut cursor = 0;
    for branch in &lowered.branches {
        let cqs = 1 + branch.optionals.len();
        len += tail.branch(
            branch,
            &answers[cursor..cursor + cqs],
            &lowered.projection,
            &mut cells,
        );
        cursor += cqs;
        if lowered.ask && len > 0 {
            return SparqlResult::Boolean(true);
        }
    }
    if lowered.ask {
        return SparqlResult::Boolean(false);
    }

    // Rank the distinct ids that survived by term order. Rank 0 is
    // "unbound", so rank tuples compare exactly like the decoded rows
    // would: column-wise, unbound first.
    let mut by_id: Vec<TermId> = cells.iter().copied().filter(|&id| id != UNBOUND).collect();
    by_id.sort_unstable();
    by_id.dedup();
    let mut by_term: Vec<u32> = (0..by_id.len() as u32).collect();
    by_term.sort_unstable_by_key(|&at| dict.term(by_id[at as usize]));
    let mut rank_of = vec![0u32; by_id.len()];
    for (rank, &at) in by_term.iter().enumerate() {
        rank_of[at as usize] = rank as u32 + 1;
    }
    let id_of_rank = |rank: u32| by_id[by_term[rank as usize - 1] as usize];
    let mut ranks: Vec<u32> = cells
        .iter()
        .map(|id| by_id.binary_search(id).map_or(0, |at| rank_of[at]))
        .collect();
    // The engine computes set semantics throughout, so the projected
    // rows dedup unconditionally (DISTINCT and REDUCED are thereby
    // satisfied; they are accepted syntax, not extra work).
    let len = sort_dedup_rows(&mut ranks, width, len);
    let row = |i: u32| &ranks[i as usize * width..(i as usize + 1) * width];

    let mut order: Vec<u32> = (0..len as u32).collect();
    if !lowered.order_by.is_empty() {
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
        let numeric_of_rank: Vec<Option<f64>> = std::iter::once(None)
            .chain((1..=by_id.len() as u32).map(|rank| tail.value(id_of_rank(rank)).1))
            .collect();
        // Ties fall through to the next key, and finally to the whole
        // projected row, so the output order is always total and
        // deterministic.
        order.sort_by(|&a, &b| {
            for &(col, desc) in &key_cols {
                let ord = key_cmp(row(a)[col], row(b)[col], &numeric_of_rank);
                let ord = if desc { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            row(a).cmp(row(b))
        });
    }

    let rows = order
        .into_iter()
        .skip(lowered.offset.unwrap_or(0))
        .take(lowered.limit.unwrap_or(usize::MAX))
        .map(|i| {
            row(i)
                .iter()
                .map(|&rank| (rank > 0).then(|| dict.term(id_of_rank(rank)).clone()))
                .collect()
        })
        .collect();
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
    let rows = set
        .iter()
        .take(lowered.limit.unwrap_or(usize::MAX))
        .map(|row| row.iter().cloned().map(Some).collect())
        .collect();
    SparqlResult::Rows(SparqlRows {
        vars: lowered.columns(),
        rows,
    })
}

/// The interning half of [`assemble`]: the term tuples go into a scratch
/// dictionary and through [`assemble_ids`].
fn assemble_interned(lowered: &LoweredSparql, answers: &[BTreeSet<Vec<Term>>]) -> SparqlResult {
    let mut dict = TermDict::new();
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
    assemble_ids(lowered, &rows, &dict)
}
