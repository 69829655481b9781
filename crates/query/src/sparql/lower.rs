//! Lowering: the parsed SPARQL AST to id-level-executable conjunctive
//! plans plus an id-level assembly recipe.
//!
//! The engine underneath evaluates conjunctive queries (and unions of
//! them) — that is the whole contract of the prepare/execute pipeline,
//! the plan cache, the rewriter and the federated routes. Lowering
//! therefore reduces a SPARQL query to a list of plain
//! [`GraphPatternQuery`]s:
//!
//! * each UNION **branch** (one alternative picked from every UNION
//!   block, joined with the base BGP) contributes one **base CQ**;
//! * each OPTIONAL block contributes one **extended CQ** per branch —
//!   the branch BGP conjoined with the optional BGP, so its rows are
//!   exactly the successful extensions of base rows;
//! * FILTERs, the left-join merge, projection, DISTINCT, ORDER BY and
//!   LIMIT/OFFSET are applied afterwards, on term ids, by
//!   [`LoweredSparql::assemble_ids`], identically on every route.
//!
//! The head of each CQ is minimised to the variables actually needed
//! downstream (projection ∪ filters ∪ sort keys ∪ join vars), so the
//! underlying plans stay as narrow as hand-written ones.

use super::exec;
use super::parse::{FilterExpr, OrderKey, Projection, QueryForm, SparqlQuery};
use super::shape::bind_query;
use crate::eval::{IdRows, PreparedQueryIds, Semantics};
use crate::pattern::{GraphPattern, GraphPatternQuery, TriplePattern, Variable};
use rps_rdf::{Graph, Term};
use std::collections::BTreeSet;

/// A SPARQL query lowered to conjunctive plans plus the assembly
/// recipe. Obtain one with [`SparqlQuery::lower`]; feed the per-CQ
/// answers (in [`LoweredSparql::queries`] order) to
/// [`LoweredSparql::assemble_ids`], or to [`LoweredSparql::assemble`]
/// when they are terms rather than ids of one dictionary.
#[derive(Debug, Clone)]
pub struct LoweredSparql {
    /// `true` for ASK.
    pub(crate) ask: bool,
    /// The projection, in output-column order (empty for ASK).
    pub(crate) projection: Vec<Variable>,
    /// The lowered UNION branches.
    pub(crate) branches: Vec<LoweredBranch>,
    /// ORDER BY keys.
    pub(crate) order_by: Vec<OrderKey>,
    /// `LIMIT`.
    pub(crate) limit: Option<usize>,
    /// `OFFSET`.
    pub(crate) offset: Option<usize>,
}

/// One UNION branch: a base CQ, its optional extensions, and the
/// filters evaluated on merged rows.
#[derive(Debug, Clone)]
pub(crate) struct LoweredBranch {
    /// The base conjunctive query.
    pub base: GraphPatternQuery,
    /// One extended CQ per OPTIONAL block, in source order.
    pub optionals: Vec<LoweredOptional>,
    /// Branch-level filters (group filters plus the picked
    /// alternatives' filters), applied to merged rows.
    pub filters: Vec<FilterExpr>,
}

/// One OPTIONAL block of a branch.
#[derive(Debug, Clone)]
pub(crate) struct LoweredOptional {
    /// The branch BGP conjoined with the optional BGP.
    pub query: GraphPatternQuery,
    /// Filters scoped to the OPTIONAL block, applied to extension rows
    /// before the left join.
    pub filters: Vec<FilterExpr>,
}

impl SparqlQuery {
    /// Lowers the query to conjunctive plans. Infallible: every
    /// restriction of the subset is enforced by the parser, so a parsed
    /// query always lowers.
    pub fn lower(&self) -> LoweredSparql {
        let projection = match &self.form {
            QueryForm::Select {
                projection: Projection::Vars(vars),
                ..
            } => vars.clone(),
            _ => Vec::new(),
        };
        self.lower_projecting(projection)
    }

    /// [`Self::lower`], taking the projection list over instead of
    /// copying it: for a caller done with the parsed query.
    pub fn into_lowered(mut self) -> LoweredSparql {
        let projection = match &mut self.form {
            QueryForm::Select {
                projection: Projection::Vars(vars),
                ..
            } => std::mem::take(vars),
            _ => Vec::new(),
        };
        self.lower_projecting(projection)
    }

    /// Lowers the query, `vars` being its explicit SELECT list (empty
    /// for ASK and `SELECT *`).
    fn lower_projecting(&self, vars: Vec<Variable>) -> LoweredSparql {
        let pattern = &self.pattern;
        let (ask, projection) = match &self.form {
            QueryForm::Ask => (true, Vec::new()),
            QueryForm::Select { projection, .. } => match projection {
                Projection::Vars(_) => (false, vars),
                Projection::Star => (false, self.star_vars()),
            },
        };

        // Variables needed beyond each branch's own evaluation besides
        // the projection: sort keys and every filter mention
        // (group-level and optional-level — optional filters force the
        // base head to keep the base variables they constrain, so the
        // left join never collapses rows the filter distinguishes).
        let mut needed: Vec<Variable> = self.order_by.iter().map(|k| k.var.clone()).collect();
        let alternatives = || pattern.unions.iter().flatten();
        for f in pattern
            .filters
            .iter()
            .chain(pattern.optionals.iter().flat_map(|opt| &opt.filters))
            .chain(alternatives().flat_map(|alt| &alt.filters))
        {
            f.collect_vars(&mut needed);
        }

        // Left-join keys: a variable shared between an OPTIONAL block
        // and the pattern it extends (the base BGP, any UNION
        // alternative, or another OPTIONAL block) is the join variable
        // of that left join. It must survive head minimisation even
        // when nothing downstream mentions it — otherwise distinct
        // base solutions that differ only on the key collapse before
        // the join, and unmatched-OPTIONAL rows are silently lost.
        let mentions = |triples: &[TriplePattern], v: &Variable| {
            triples.iter().any(|t| t.vars().any(|w| w == v))
        };
        for (i, opt) in pattern.optionals.iter().enumerate() {
            for v in opt.triples.iter().flat_map(TriplePattern::vars) {
                let shared = mentions(&pattern.triples, v)
                    || alternatives().any(|alt| mentions(&alt.triples, v))
                    || (pattern.optionals.iter().enumerate())
                        .any(|(j, other)| j != i && mentions(&other.triples, v));
                if shared {
                    needed.push(v.clone());
                }
            }
        }
        let is_needed = |v: &Variable| projection.contains(v) || needed.contains(v);

        // A CQ's head: the needed variables of its body (and `keep`),
        // in variable order.
        let head_of = |triples: &[TriplePattern], keep: &[Variable]| -> Vec<Variable> {
            let mut head: Vec<Variable> = triples
                .iter()
                .flat_map(TriplePattern::vars)
                .filter(|v| is_needed(v) || keep.contains(v))
                .cloned()
                .collect();
            head.sort_unstable();
            head.dedup();
            head
        };

        // One branch per pick of one alternative from every UNION
        // block, the first block varying slowest.
        let branch_count: usize = pattern.unions.iter().map(Vec::len).product();
        let mut branches = Vec::with_capacity(branch_count);
        for branch in 0..branch_count {
            let mut stride = branch_count;
            let picks = pattern.unions.iter().map(|block| {
                stride /= block.len();
                &block[branch / stride % block.len()]
            });
            let mut triples = pattern.triples.clone();
            let mut filters = pattern.filters.clone();
            for alt in picks {
                triples.extend_from_slice(&alt.triples);
                filters.extend_from_slice(&alt.filters);
            }
            let base_head = head_of(&triples, &[]);
            let optionals = pattern
                .optionals
                .iter()
                .map(|opt| {
                    let mut ext = Vec::with_capacity(triples.len() + opt.triples.len());
                    ext.extend_from_slice(&triples);
                    ext.extend_from_slice(&opt.triples);
                    // The extension head carries the full base head (the
                    // left-join key) plus whatever optional variables are
                    // needed downstream.
                    let head = head_of(&ext, &base_head);
                    LoweredOptional {
                        query: GraphPatternQuery::new(head, GraphPattern::from_patterns(ext)),
                        filters: opt.filters.clone(),
                    }
                })
                .collect();
            branches.push(LoweredBranch {
                base: GraphPatternQuery::new(base_head, GraphPattern::from_patterns(triples)),
                optionals,
                filters,
            });
        }

        LoweredSparql {
            ask,
            projection,
            branches,
            order_by: self.order_by.clone(),
            limit: self.limit,
            offset: self.offset,
        }
    }

    /// What `SELECT *` projects: every pattern variable in
    /// first-occurrence order (scanning base, then unions, then
    /// optionals, matching the serialised query left to right).
    fn star_vars(&self) -> Vec<Variable> {
        let pattern = &self.pattern;
        let mut out: Vec<Variable> = Vec::new();
        let blocks = std::iter::once(&pattern.triples)
            .chain(pattern.unions.iter().flatten().map(|alt| &alt.triples))
            .chain(pattern.optionals.iter().map(|opt| &opt.triples));
        for v in blocks.flatten().flat_map(TriplePattern::vars) {
            if !out.contains(v) {
                out.push(v.clone());
            }
        }
        out
    }
}

impl LoweredSparql {
    /// The conjunctive queries to evaluate, in the fixed order
    /// [`LoweredSparql::assemble`] expects: for each branch, its base
    /// CQ followed by its optional-extension CQs.
    pub fn queries(&self) -> Vec<&GraphPatternQuery> {
        self.cqs().collect()
    }

    /// [`Self::queries`], one at a time.
    pub fn cqs(&self) -> impl Iterator<Item = &GraphPatternQuery> {
        (self.branches.iter())
            .flat_map(|b| std::iter::once(&b.base).chain(b.optionals.iter().map(|o| &o.query)))
    }

    /// The number of [`Self::queries`].
    pub fn query_count(&self) -> usize {
        self.branches.iter().map(|b| 1 + b.optionals.len()).sum()
    }

    /// Every FILTER of every branch and OPTIONAL block.
    fn filters_mut(&mut self) -> impl Iterator<Item = &mut FilterExpr> {
        self.branches.iter_mut().flat_map(|b| {
            let optionals = b.optionals.iter_mut().flat_map(|o| &mut o.filters);
            b.filters.iter_mut().chain(optionals)
        })
    }

    /// `true` iff `pred` holds for a constant some FILTER compares with.
    pub(crate) fn any_filter_term(&self, pred: &impl Fn(&Term) -> bool) -> bool {
        self.branches.iter().any(|b| {
            let optionals = b.optionals.iter().flat_map(|o| &o.filters);
            b.filters.iter().chain(optionals).any(|f| f.any_term(pred))
        })
    }

    /// Writes every placeholder, in the conjunctive queries and the
    /// FILTERs alike, as its value (see [`super::shape`]).
    pub(crate) fn bind_terms(&mut self, values: &[Term]) {
        for b in &mut self.branches {
            b.base = bind_query(&b.base, values);
            for o in &mut b.optionals {
                o.query = bind_query(&o.query, values);
            }
        }
        self.filters_mut().for_each(|f| f.bind_terms(values));
    }

    /// `true` for ASK queries.
    pub fn is_ask(&self) -> bool {
        self.ask
    }

    /// The output column names, in order (empty for ASK).
    pub fn columns(&self) -> Vec<String> {
        self.projection
            .iter()
            .map(|v| v.name().to_string())
            .collect()
    }

    /// Assembles the final result from the per-CQ answer rows, which
    /// must line up with [`LoweredSparql::queries`] and be ids of
    /// `graph`'s dictionary, ranked by its [`Graph::term_order`]. This
    /// is the entire non-conjunctive tail of SPARQL evaluation — left
    /// joins, filters, projection, DISTINCT, ORDER BY, LIMIT/OFFSET —
    /// run on term ids, and it is shared verbatim by
    /// every execution route, which is what makes the routes answer
    /// byte-identically. Terms are decoded only for the rows returned.
    ///
    /// # Panics
    ///
    /// Panics if `answers.len()` does not match the query count — the
    /// caller zips its own execution results and a mismatch is a bug,
    /// not an input error.
    pub fn assemble_ids(&self, answers: &[IdRows], graph: &Graph) -> SparqlResult {
        exec::assemble_ids(self, answers, graph.dict(), || graph.term_order())
    }

    /// [`LoweredSparql::assemble_ids`] for answers that are decoded
    /// terms (or come from several dictionaries): the tuples are
    /// interned into a scratch dictionary and go through the same tail.
    ///
    /// # Panics
    ///
    /// Panics if `answers.len()` does not match the query count.
    pub fn assemble(&self, answers: &[BTreeSet<Vec<Term>>]) -> SparqlResult {
        exec::assemble(self, answers)
    }

    /// Evaluates the query directly against a single graph, on its own
    /// ids — a convenience for callers below the session layer.
    pub fn evaluate(&self, graph: &Graph, semantics: Semantics) -> SparqlResult {
        let answers: Vec<IdRows> = self
            .queries()
            .into_iter()
            .map(|q| PreparedQueryIds::compile_only(graph, q).evaluate_rows(graph, semantics))
            .collect();
        self.assemble_ids(&answers, graph)
    }
}

/// The result of a SPARQL query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparqlResult {
    /// SELECT: a solution table.
    Rows(SparqlRows),
    /// ASK: a truth value.
    Boolean(bool),
}

impl SparqlResult {
    /// The solution table, if this is a SELECT result.
    pub fn rows(&self) -> Option<&SparqlRows> {
        match self {
            SparqlResult::Rows(r) => Some(r),
            SparqlResult::Boolean(_) => None,
        }
    }

    /// The truth value, if this is an ASK result.
    pub fn boolean(&self) -> Option<bool> {
        match self {
            SparqlResult::Boolean(b) => Some(*b),
            SparqlResult::Rows(_) => None,
        }
    }
}

/// A SELECT solution table. Row order is the ORDER BY order when one
/// was given, and the deterministic canonical order (ascending by
/// column-wise term comparison, unbound first) otherwise — never the
/// accidental order of execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparqlRows {
    /// Column names, without the `?` sigil.
    pub vars: Vec<String>,
    /// Rows; `None` is an unbound column (an OPTIONAL that did not
    /// match, or a projected variable absent from the matched branch).
    pub rows: Rows,
}

/// The rows of a [`SparqlRows`]: `len` rows of `width` cells each, held
/// row-major in one buffer — a result costs one allocation however many
/// rows it has. Row `i` is the slice `table[i]`; [`Rows::iter`] and
/// `&table` in a `for` loop walk them in order.
///
/// ```
/// use rps_query::{parse_sparql, Semantics};
/// use rps_rdf::{turtle, PrefixMap, Term};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = turtle::parse("<http://e/a> <http://e/p> <http://e/b> , <http://e/c> .")?;
/// let text = "SELECT ?o { <http://e/a> <http://e/p> ?o }";
/// let result = parse_sparql(text, &PrefixMap::new())?
///     .lower()
///     .evaluate(&g, Semantics::Certain);
/// let table = &result.rows().ok_or("a SELECT has rows")?.rows;
/// assert_eq!((table.len(), table.width()), (2, 1));
/// assert_eq!(table[1], [Some(Term::iri("http://e/c"))]);
/// for row in table {
///     assert!(row[0].is_some());
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rows {
    width: usize,
    len: usize,
    cells: Vec<Option<Term>>,
}

impl Rows {
    /// An empty table of `width` columns with room for `rows` rows.
    pub(crate) fn with_capacity(width: usize, rows: usize) -> Self {
        Rows {
            width,
            len: 0,
            cells: Vec::with_capacity(width * rows),
        }
    }

    /// Appends one row, which must yield exactly `width` cells.
    pub(crate) fn push(&mut self, row: impl IntoIterator<Item = Option<Term>>) {
        self.cells.extend(row);
        self.len += 1;
        debug_assert_eq!(self.cells.len(), self.len * self.width);
    }

    /// Cells per row: the number of projected variables.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows. A table of width 0 has one (empty) row when the
    /// pattern matched and none otherwise.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The rows in order.
    pub fn iter(&self) -> RowIter<'_> {
        RowIter {
            rows: self,
            at: 0..self.len,
        }
    }
}

impl std::ops::Index<usize> for Rows {
    type Output = [Option<Term>];

    /// Row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    fn index(&self, i: usize) -> &[Option<Term>] {
        assert!(i < self.len, "row {i} of {}", self.len);
        &self.cells[i * self.width..(i + 1) * self.width]
    }
}

impl<'a> IntoIterator for &'a Rows {
    type Item = &'a [Option<Term>];
    type IntoIter = RowIter<'a>;

    fn into_iter(self) -> RowIter<'a> {
        self.iter()
    }
}

/// The rows of a [`Rows`] table, in order, as slices.
#[derive(Debug, Clone)]
pub struct RowIter<'a> {
    rows: &'a Rows,
    at: std::ops::Range<usize>,
}

impl<'a> Iterator for RowIter<'a> {
    type Item = &'a [Option<Term>];

    fn next(&mut self) -> Option<Self::Item> {
        self.at.next().map(|i| &self.rows[i])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.at.size_hint()
    }
}

impl ExactSizeIterator for RowIter<'_> {}

#[cfg(test)]
impl Rows {
    /// The rows as owned vectors, for comparing with a literal table.
    pub(crate) fn to_vecs(&self) -> Vec<Vec<Option<Term>>> {
        self.iter().map(<[Option<Term>]>::to_vec).collect()
    }
}
