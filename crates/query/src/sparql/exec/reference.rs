//! The term-level tail this module replaced, kept verbatim as the
//! oracle of the differential tests: rows are `BTreeMap<Variable,
//! Term>`, OPTIONAL is a nested-loop compatible-mapping scan, and every
//! ordering is a string comparison. Slow and obviously faithful to the
//! SPARQL definitions — which is the point.

use super::super::lower::{LoweredSparql, Rows, SparqlResult, SparqlRows};
use super::super::parse::{CmpOp, FilterExpr, Operand};
use crate::pattern::Variable;
use rps_rdf::{LiteralAnnotation, Term};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

/// A partial solution: the variables a row binds. `BTreeMap` keeps
/// rows `Ord`, which gives the sets below canonical iteration order.
type Row = BTreeMap<Variable, Term>;

fn rows_from(head: &[Variable], tuples: &BTreeSet<Vec<Term>>) -> BTreeSet<Row> {
    tuples
        .iter()
        .map(|tuple| {
            head.iter()
                .cloned()
                .zip(tuple.iter().cloned())
                .collect::<Row>()
        })
        .collect()
}

/// Two rows are compatible iff they agree on every variable both bind.
fn compatible(a: &Row, b: &Row) -> bool {
    a.iter()
        .all(|(v, t)| b.get(v).is_none_or(|other| other == t))
}

fn merge(a: &Row, b: &Row) -> Row {
    let mut out = a.clone();
    for (v, t) in b {
        out.entry(v.clone()).or_insert_with(|| t.clone());
    }
    out
}

/// SPARQL LeftJoin over term rows: rows with at least one compatible
/// extension are replaced by all their extensions; rows with none pass
/// through unextended.
fn left_join(rows: BTreeSet<Row>, extensions: &BTreeSet<Row>) -> BTreeSet<Row> {
    let mut out = BTreeSet::new();
    for row in rows {
        let mut extended = false;
        for ext in extensions {
            if compatible(&row, ext) {
                out.insert(merge(&row, ext));
                extended = true;
            }
        }
        if !extended {
            out.insert(row);
        }
    }
    out
}

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

fn operand<'a>(op: &'a Operand, row: &'a Row) -> Option<&'a Term> {
    match op {
        Operand::Term(t) => Some(t),
        Operand::Var(v) => row.get(v),
    }
}

/// Evaluates a filter to SPARQL's three-valued logic: `Some(bool)` is
/// a defined result, `None` a type error — a comparison over an
/// unbound variable, or an ordering comparison on a non-literal.
/// Errors propagate exactly as the SPARQL evaluation tables prescribe:
/// the negation of an error is an error, `true || error` is `true`,
/// `false && error` is `false`, and every other combination involving
/// an error is an error. (`=`/`!=` between two bound terms are kept
/// total — distinct terms compare unequal rather than erroring — a
/// deliberate simplification of RDFterm-equal for this subset.)
fn eval_filter_tri(expr: &FilterExpr, row: &Row) -> Option<bool> {
    match expr {
        FilterExpr::Or(a, b) => match (eval_filter_tri(a, row), eval_filter_tri(b, row)) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        FilterExpr::And(a, b) => match (eval_filter_tri(a, row), eval_filter_tri(b, row)) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        FilterExpr::Not(a) => eval_filter_tri(a, row).map(|v| !v),
        FilterExpr::Bound(v) => Some(row.contains_key(v)),
        FilterExpr::Compare(lhs, op, rhs) => {
            let (Some(l), Some(r)) = (operand(lhs, row), operand(rhs, row)) else {
                return None;
            };
            match (numeric(l), numeric(r)) {
                (Some(a), Some(b)) => Some(match op {
                    CmpOp::Eq => a == b,
                    CmpOp::Ne => a != b,
                    CmpOp::Lt => a < b,
                    CmpOp::Le => a <= b,
                    CmpOp::Gt => a > b,
                    CmpOp::Ge => a >= b,
                }),
                _ => match op {
                    CmpOp::Eq => Some(l == r),
                    CmpOp::Ne => Some(l != r),
                    // Ordering comparisons are defined on literals
                    // only (by lexical form); on IRIs or blanks they
                    // are type errors.
                    _ => match (l, r) {
                        (Term::Literal(a), Term::Literal(b)) => {
                            let ord = a.lexical().cmp(b.lexical());
                            Some(matches!(
                                (op, ord),
                                (CmpOp::Lt, Ordering::Less)
                                    | (CmpOp::Le, Ordering::Less | Ordering::Equal)
                                    | (CmpOp::Gt, Ordering::Greater)
                                    | (CmpOp::Ge, Ordering::Greater | Ordering::Equal)
                            ))
                        }
                        _ => None,
                    },
                },
            }
        }
    }
}

/// Evaluates a filter at the FILTER boundary: a row is kept only when
/// the expression evaluates to `true` — both `false` and a type error
/// remove it, per the SPARQL FILTER rule.
fn eval_filter(expr: &FilterExpr, row: &Row) -> bool {
    eval_filter_tri(expr, row) == Some(true)
}

/// The ORDER BY comparator for one key, a total order: unbound first;
/// then IRIs and blanks, by term; then numeric literals, by value and
/// then term; then every other literal, by term. Ties fall through to
/// the next key, and finally to the whole projected row, so the output
/// order is always total and deterministic.
fn key_cmp(a: Option<&Term>, b: Option<&Term>) -> Ordering {
    let class = |t: Option<&Term>| match t {
        None => (0, None),
        Some(Term::Literal(_)) => match t.and_then(numeric) {
            Some(v) => (2, Some(v)),
            None => (3, None),
        },
        Some(_) => (1, None),
    };
    let ((ca, va), (cb, vb)) = (class(a), class(b));
    let by_number = match (va, vb) {
        (Some(na), Some(nb)) => na.partial_cmp(&nb).unwrap_or(Ordering::Equal),
        _ => Ordering::Equal,
    };
    ca.cmp(&cb).then(by_number).then_with(|| a.cmp(&b))
}

pub(crate) fn assemble(lowered: &LoweredSparql, answers: &[BTreeSet<Vec<Term>>]) -> SparqlResult {
    let expected: usize = lowered.branches.iter().map(|b| 1 + b.optionals.len()).sum();
    assert_eq!(
        answers.len(),
        expected,
        "assemble needs one answer set per lowered CQ"
    );

    let mut merged: BTreeSet<Row> = BTreeSet::new();
    let mut cursor = 0usize;
    for branch in &lowered.branches {
        let mut rows = rows_from(branch.base.free_vars(), &answers[cursor]);
        cursor += 1;
        for opt in &branch.optionals {
            let mut exts = rows_from(opt.query.free_vars(), &answers[cursor]);
            cursor += 1;
            exts.retain(|row| opt.filters.iter().all(|f| eval_filter(f, row)));
            rows = left_join(rows, &exts);
        }
        rows.retain(|row| branch.filters.iter().all(|f| eval_filter(f, row)));
        merged.extend(rows);
    }

    if lowered.ask {
        return SparqlResult::Boolean(!merged.is_empty());
    }

    // Project. The engine computes set semantics throughout, so the
    // projected rows dedup unconditionally (DISTINCT and REDUCED are
    // thereby satisfied; they are accepted syntax, not extra work).
    let projected: BTreeSet<Vec<Option<Term>>> = merged
        .iter()
        .map(|row| {
            lowered
                .projection
                .iter()
                .map(|v| row.get(v).cloned())
                .collect()
        })
        .collect();
    let mut rows: Vec<Vec<Option<Term>>> = projected.into_iter().collect();

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
        rows.sort_by(|a, b| {
            for &(col, desc) in &key_cols {
                let ord = key_cmp(a[col].as_ref(), b[col].as_ref());
                let ord = if desc { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            a.cmp(b)
        });
    }

    let offset = lowered.offset.unwrap_or(0);
    if offset > 0 {
        rows.drain(..offset.min(rows.len()));
    }
    if let Some(limit) = lowered.limit {
        rows.truncate(limit);
    }

    let mut table = Rows::with_capacity(lowered.projection.len(), rows.len());
    for row in rows {
        table.push(row);
    }
    SparqlResult::Rows(SparqlRows {
        vars: lowered.columns(),
        rows: table,
    })
}
