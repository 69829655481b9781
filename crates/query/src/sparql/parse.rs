//! The recursive-descent SPARQL parser: spanned tokens to a typed AST.
//!
//! The grammar is the SELECT/ASK subset described in [`super`]. Every
//! rejection — lexical, syntactic, or a structural restriction of the
//! subset (nested OPTIONAL, UNION inside OPTIONAL, empty group) — is a
//! [`SparqlError`] carrying the byte span and line/column of the
//! offending token; the parser never panics on malformed input.

use super::lex::{Kw, Lexer, Spanned, Tok};
use super::SparqlError;
use crate::pattern::{TermOrVar, TriplePattern, Variable};
use rps_rdf::namespace::vocab;
use rps_rdf::{Iri, Literal, PrefixMap, Term};

/// A parsed SPARQL query: form, pattern and solution modifiers.
#[derive(Debug, Clone, PartialEq)]
pub struct SparqlQuery {
    /// SELECT or ASK.
    pub form: QueryForm,
    /// The WHERE-clause group graph pattern.
    pub pattern: GroupPattern,
    /// ORDER BY keys, outermost first.
    pub order_by: Vec<OrderKey>,
    /// `LIMIT n`, if present.
    pub limit: Option<usize>,
    /// `OFFSET n`, if present.
    pub offset: Option<usize>,
}

/// The query form.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryForm {
    /// `SELECT [DISTINCT|REDUCED] (?v+ | *)`.
    Select {
        /// `true` for both DISTINCT and REDUCED (the engine computes
        /// set semantics throughout, so both are satisfied).
        distinct: bool,
        /// The projection.
        projection: Projection,
    },
    /// `ASK`.
    Ask,
}

/// A SELECT projection.
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    /// An explicit variable list, in projection order.
    Vars(Vec<Variable>),
    /// `SELECT *`: every variable of the pattern, in first-occurrence
    /// order.
    Star,
}

/// One ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// The sort variable.
    pub var: Variable,
    /// `true` for `DESC(?v)`.
    pub descending: bool,
}

/// A group graph pattern: the base basic graph pattern plus the
/// OPTIONAL, FILTER and UNION elements attached to it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GroupPattern {
    /// The base BGP triples.
    pub triples: Vec<TriplePattern>,
    /// Group-level FILTER constraints (evaluated on merged rows).
    pub filters: Vec<FilterExpr>,
    /// OPTIONAL blocks, in source order (left-joined left to right).
    pub optionals: Vec<SimpleGroup>,
    /// UNION blocks: each block is a list of alternatives, and the
    /// query denotes the cross product of one alternative per block
    /// joined with the base BGP.
    pub unions: Vec<Vec<SimpleGroup>>,
}

/// A restricted group — triples plus filters only — used for OPTIONAL
/// bodies and UNION alternatives. The subset forbids nesting OPTIONAL
/// or UNION inside these (a typed parse error, not silent dropping).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimpleGroup {
    /// The triples of the block.
    pub triples: Vec<TriplePattern>,
    /// FILTERs scoped to the block.
    pub filters: Vec<FilterExpr>,
}

/// A FILTER expression over one solution row.
#[derive(Debug, Clone, PartialEq)]
pub enum FilterExpr {
    /// `a || b`.
    Or(Box<FilterExpr>, Box<FilterExpr>),
    /// `a && b`.
    And(Box<FilterExpr>, Box<FilterExpr>),
    /// `!a`.
    Not(Box<FilterExpr>),
    /// `lhs OP rhs`.
    Compare(Operand, CmpOp, Operand),
    /// `bound(?v)`.
    Bound(Variable),
}

impl FilterExpr {
    /// Collects every variable the expression mentions into `out`.
    pub fn collect_vars(&self, out: &mut Vec<Variable>) {
        match self {
            FilterExpr::Or(a, b) | FilterExpr::And(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            FilterExpr::Not(a) => a.collect_vars(out),
            FilterExpr::Compare(l, _, r) => {
                for op in [l, r] {
                    if let Operand::Var(v) = op {
                        out.push(v.clone());
                    }
                }
            }
            FilterExpr::Bound(v) => out.push(v.clone()),
        }
    }

    /// `true` iff `pred` holds for a constant the expression compares
    /// with.
    pub(crate) fn any_term(&self, pred: &impl Fn(&Term) -> bool) -> bool {
        match self {
            FilterExpr::Or(a, b) | FilterExpr::And(a, b) => a.any_term(pred) || b.any_term(pred),
            FilterExpr::Not(a) => a.any_term(pred),
            FilterExpr::Compare(l, _, r) => [l, r]
                .into_iter()
                .any(|op| matches!(op, Operand::Term(t) if pred(t))),
            FilterExpr::Bound(_) => false,
        }
    }

    /// Writes every placeholder the expression compares with as its
    /// value (see [`super::shape::bound_term`]).
    pub(crate) fn bind_terms(&mut self, values: &[Term]) {
        match self {
            FilterExpr::Or(a, b) | FilterExpr::And(a, b) => {
                a.bind_terms(values);
                b.bind_terms(values);
            }
            FilterExpr::Not(a) => a.bind_terms(values),
            FilterExpr::Compare(l, _, r) => {
                for op in [l, r] {
                    if let Operand::Term(t) = op {
                        *t = super::shape::bound_term(t, values).clone();
                    }
                }
            }
            FilterExpr::Bound(_) => {}
        }
    }
}

/// A comparison operand: a variable or a constant term.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// A variable, resolved against the row under test.
    Var(Variable),
    /// A constant RDF term.
    Term(Term),
}

/// A comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Parses a SPARQL-subset query. Prefixed names resolve first against
/// `PREFIX` declarations in the query, then against `base`.
///
/// A lexical error anywhere in the text is the error reported, even
/// where the parser would reject an earlier token: the parser pulls
/// tokens on demand, and on failure lexes the rest of the text first.
pub fn parse_sparql(input: &str, base: &PrefixMap) -> Result<SparqlQuery, SparqlError> {
    parse_with_params(input, base, &[])
}

/// [`parse_sparql`], except that a constant token of the query body
/// whose text is `params[k]` becomes [`super::shape::placeholder`]`(k)`
/// rather than the term it denotes: the template of a text's shape (see
/// [`super::shape`]). Every constant token of the body must be listed;
/// one that is not parses as itself.
pub(crate) fn parse_with_params(
    input: &str,
    base: &PrefixMap,
    params: &[&str],
) -> Result<SparqlQuery, SparqlError> {
    let mut p = Parser::new(input, base, params);
    p.advance();
    let parsed = p.query();
    while p.lex_error.is_none() && p.next.is_some() {
        p.advance();
    }
    match p.lex_error {
        Some(e) => Err(e),
        None => parsed,
    }
}

/// The term the constant token `constant` (the whole text of one IRI,
/// prefixed name, literal or number token) denotes in a query that
/// begins with `head` — its `PREFIX` and `BASE` declarations are read up
/// to the first token that is neither — and `base`, as [`parse_sparql`]
/// would read it there. `None` when the declarations do not parse,
/// `constant` is not one constant token, or its prefix is declared
/// nowhere.
pub(crate) fn resolve_constant(head: &str, constant: &str, base: &PrefixMap) -> Option<Term> {
    let mut lexer = Lexer::new(constant);
    let token = lexer.next_token().ok()??;
    if !matches!(lexer.next_token(), Ok(None)) {
        return None;
    }
    let mut p = Parser::new(head, base, &[]);
    // Only a prefixed name and a relative IRI read the declarations.
    let relative = matches!(token.tok, Tok::Iri(iri) if !iri.contains(':'));
    if relative || matches!(token.tok, Tok::PName(_)) {
        p.advance();
        p.prologue().ok()?;
    }
    p.constant(&token.tok)
}

/// `(order_by, limit, offset)` — the trailing solution modifiers.
type Modifiers = (Vec<OrderKey>, Option<usize>, Option<usize>);

struct Parser<'a, 'b> {
    lexer: Lexer<'a>,
    /// The token after the ones consumed; `None` at the end of the text
    /// and from the first lexical error on.
    next: Option<Spanned<'a>>,
    /// The first lexical error, which ends the token stream.
    lex_error: Option<SparqlError>,
    /// Line and column of the last token lexed: where an error at the
    /// end of the input points.
    last: Option<(usize, usize)>,
    /// The caller's prefixes, borrowed: most queries declare none of
    /// their own, so nothing is copied per parse.
    base: &'b PrefixMap,
    /// The query's latest `PREFIX` declaration, borrowed from the text:
    /// it shadows `shadowed` (the earlier ones, in order) and `base`.
    /// Most queries declare one, which takes no list.
    declared: Option<(&'a str, &'a str)>,
    shadowed: Vec<(&'a str, &'a str)>,
    base_iri: Option<&'a str>,
    /// Every variable named so far: a repeated `?z` shares one name.
    vars: Vec<Variable>,
    /// Where an IRI is spelled before it is copied into its `Arc`.
    scratch: String,
    src: &'a str,
    /// The texts of the constant tokens that parse as placeholders (see
    /// [`parse_with_params`]); empty for a plain parse.
    params: &'b [&'b str],
}

impl<'a, 'b> Parser<'a, 'b> {
    fn new(src: &'a str, base: &'b PrefixMap, params: &'b [&'b str]) -> Self {
        Parser {
            lexer: Lexer::new(src),
            next: None,
            lex_error: None,
            last: None,
            base,
            declared: None,
            shadowed: Vec::new(),
            base_iri: None,
            vars: Vec::new(),
            scratch: String::new(),
            src,
            params,
        }
    }

    /// Lexes the token after the current one into `next`.
    fn advance(&mut self) {
        match self.lexer.next_token() {
            Ok(next) => {
                if let Some(sp) = &next {
                    self.last = Some((sp.line, sp.col));
                }
                self.next = next;
            }
            Err(e) => {
                self.next = None;
                self.lex_error = Some(e);
            }
        }
    }

    fn peek(&self) -> Option<&Tok<'a>> {
        self.next.as_ref().map(|s| &s.tok)
    }

    /// Consumes the current token, moving it out.
    fn bump(&mut self) -> Option<Spanned<'a>> {
        let t = self.next.take();
        if t.is_some() {
            self.advance();
        }
        t
    }

    fn err_here(&self, msg: impl Into<String>) -> SparqlError {
        match &self.next {
            Some(sp) => SparqlError {
                message: msg.into(),
                span: sp.span,
                line: sp.line,
                col: sp.col,
            },
            None => {
                let (line, col) = self.last.unwrap_or((1, 1));
                SparqlError {
                    message: format!("{} (found end of input)", msg.into()),
                    span: (self.src.len(), self.src.len()),
                    line,
                    col,
                }
            }
        }
    }

    fn expect(&mut self, tok: Tok<'_>, what: &str) -> Result<(), SparqlError> {
        if self.peek() == Some(&tok) {
            self.bump();
            Ok(())
        } else {
            Err(self.err_here(format!("expected {what}")))
        }
    }

    fn eat_kw(&mut self, kw: Kw) -> bool {
        if matches!(self.peek(), Some(Tok::Keyword(k)) if *k == kw) {
            self.bump();
            return true;
        }
        false
    }

    /// The variable called `name`, shared with its earlier mentions.
    fn var(&mut self, name: &str) -> Variable {
        if let Some(v) = self.vars.iter().find(|v| v.name() == name) {
            return v.clone();
        }
        let v = Variable::new(name);
        self.vars.push(v.clone());
        v
    }

    /// The IRI `head` followed by `tail`, copied once into its `Arc`.
    fn joined(&mut self, head: &str, tail: &str) -> Iri {
        self.scratch.clear();
        self.scratch.reserve(head.len() + tail.len());
        self.scratch.push_str(head);
        self.scratch.push_str(tail);
        Iri::new(self.scratch.as_str())
    }

    fn resolve_iri(&mut self, iri: &str) -> Term {
        // Relative IRIs (no scheme colon) resolve by concatenation
        // against a BASE declaration, if any.
        if !iri.contains(':') {
            if let Some(base) = self.base_iri {
                return Term::Iri(self.joined(base, iri));
            }
        }
        Term::Iri(Iri::new(iri))
    }

    /// Expands `prefix:local` against the query's own declarations,
    /// then the caller's base map.
    fn expand(&mut self, pname: &str) -> Option<Iri> {
        let (prefix, local) = pname.split_once(':')?;
        let mut declared = self.declared.iter().chain(self.shadowed.iter().rev());
        let base = self.base;
        let ns = match declared.find(|(p, _)| *p == prefix) {
            Some(&(_, ns)) => ns,
            None => base.get(prefix)?,
        };
        Some(self.joined(ns, local))
    }

    fn query(&mut self) -> Result<SparqlQuery, SparqlError> {
        self.prologue()?;
        let form = if self.eat_kw(Kw::Select) {
            let distinct = self.eat_kw(Kw::Distinct) || self.eat_kw(Kw::Reduced);
            let projection = if matches!(self.peek(), Some(Tok::Star)) {
                self.bump();
                Projection::Star
            } else {
                let mut vars = Vec::new();
                while let Some(&Tok::Var(name)) = self.peek() {
                    self.bump();
                    vars.push(self.var(name));
                }
                if vars.is_empty() {
                    return Err(self.err_here("SELECT needs a variable list or '*'"));
                }
                Projection::Vars(vars)
            };
            self.eat_kw(Kw::Where);
            QueryForm::Select {
                distinct,
                projection,
            }
        } else if self.eat_kw(Kw::Ask) {
            self.eat_kw(Kw::Where);
            QueryForm::Ask
        } else {
            return Err(self.err_here("expected SELECT or ASK"));
        };
        let pattern = self.group_graph_pattern()?;
        let (order_by, limit, offset) = self.solution_modifiers()?;
        if self.next.is_some() {
            return Err(self.err_here("trailing tokens after query"));
        }
        if matches!(form, QueryForm::Ask) && !order_by.is_empty() {
            return Err(self.err_here("ASK queries take no ORDER BY"));
        }
        // Sorting happens on projected columns (projection precedes
        // ORDER BY in this engine because projection dedups), so an
        // explicit SELECT list must cover every sort key. `SELECT *`
        // projects all pattern variables and always qualifies.
        if let QueryForm::Select {
            projection: Projection::Vars(vars),
            ..
        } = &form
        {
            for key in &order_by {
                if !vars.contains(&key.var) {
                    return Err(self.err_here(format!(
                        "ORDER BY variable ?{} must appear in the SELECT list",
                        key.var.name()
                    )));
                }
            }
        }
        Ok(SparqlQuery {
            form,
            pattern,
            order_by,
            limit,
            offset,
        })
    }

    fn prologue(&mut self) -> Result<(), SparqlError> {
        loop {
            if self.eat_kw(Kw::Prefix) {
                let Some(Spanned {
                    tok: Tok::PName(pname),
                    ..
                }) = self.bump()
                else {
                    return Err(self.err_here("expected a prefix name after PREFIX"));
                };
                let Some(prefix) = pname.strip_suffix(':') else {
                    return Err(self.err_here("prefix declarations must end with ':'"));
                };
                let Some(Spanned {
                    tok: Tok::Iri(ns), ..
                }) = self.bump()
                else {
                    return Err(self.err_here("expected a namespace IRI after the prefix"));
                };
                if let Some(earlier) = self.declared.replace((prefix, ns)) {
                    self.shadowed.push(earlier);
                }
            } else if self.eat_kw(Kw::Base) {
                let Some(Spanned {
                    tok: Tok::Iri(iri), ..
                }) = self.bump()
                else {
                    return Err(self.err_here("expected an IRI after BASE"));
                };
                self.base_iri = Some(iri);
            } else {
                return Ok(());
            }
        }
    }

    fn solution_modifiers(&mut self) -> Result<Modifiers, SparqlError> {
        let mut order_by = Vec::new();
        if self.eat_kw(Kw::Order) {
            if !self.eat_kw(Kw::By) {
                return Err(self.err_here("expected BY after ORDER"));
            }
            loop {
                match self.peek() {
                    Some(&Tok::Var(name)) => {
                        self.bump();
                        order_by.push(OrderKey {
                            var: self.var(name),
                            descending: false,
                        });
                    }
                    Some(Tok::Keyword(Kw::Asc)) | Some(Tok::Keyword(Kw::Desc)) => {
                        let descending = matches!(self.peek(), Some(Tok::Keyword(Kw::Desc)));
                        self.bump();
                        self.expect(Tok::LParen, "'(' after ASC/DESC")?;
                        let Some(Spanned {
                            tok: Tok::Var(name),
                            ..
                        }) = self.bump()
                        else {
                            return Err(self.err_here("expected a variable inside ASC/DESC"));
                        };
                        self.expect(Tok::RParen, "')' after the sort variable")?;
                        order_by.push(OrderKey {
                            var: self.var(name),
                            descending,
                        });
                    }
                    _ => break,
                }
            }
            if order_by.is_empty() {
                return Err(self.err_here("ORDER BY needs at least one sort key"));
            }
        }
        let mut limit = None;
        let mut offset = None;
        // LIMIT and OFFSET may appear in either order.
        for _ in 0..2 {
            if self.eat_kw(Kw::Limit) {
                if limit.is_some() {
                    return Err(self.err_here("duplicate LIMIT"));
                }
                limit = Some(self.integer("LIMIT")?);
            } else if self.eat_kw(Kw::Offset) {
                if offset.is_some() {
                    return Err(self.err_here("duplicate OFFSET"));
                }
                offset = Some(self.integer("OFFSET")?);
            }
        }
        Ok((order_by, limit, offset))
    }

    fn integer(&mut self, what: &str) -> Result<usize, SparqlError> {
        match self.peek() {
            Some(&Tok::Integer(n)) => {
                self.bump();
                n.parse()
                    .map_err(|_| self.err_here(format!("{what} count out of range")))
            }
            _ => Err(self.err_here(format!("expected a non-negative integer after {what}"))),
        }
    }

    /// `'{' (triples | FILTER | OPTIONAL group | union-block)* '}'`.
    fn group_graph_pattern(&mut self) -> Result<GroupPattern, SparqlError> {
        self.expect(Tok::LBrace, "'{' to open the graph pattern")?;
        let mut group = GroupPattern::default();
        loop {
            match self.peek() {
                Some(Tok::RBrace) => {
                    self.bump();
                    break;
                }
                None => return Err(self.err_here("expected '}' to close the graph pattern")),
                Some(Tok::Dot) => {
                    // Stray separators between elements are permitted.
                    self.bump();
                }
                Some(Tok::Keyword(Kw::Filter)) => {
                    self.bump();
                    group.filters.push(self.filter_constraint()?);
                }
                Some(Tok::Keyword(Kw::Optional)) => {
                    self.bump();
                    let inner = self.simple_group("OPTIONAL")?;
                    group.optionals.push(inner);
                }
                Some(Tok::LBrace) => {
                    // A braced group at element position is a UNION
                    // block; a lone group is a one-alternative block.
                    let mut alternatives = vec![self.simple_group("UNION alternative")?];
                    while self.eat_kw(Kw::Union) {
                        alternatives.push(self.simple_group("UNION alternative")?);
                    }
                    group.unions.push(alternatives);
                }
                Some(Tok::Keyword(Kw::Union)) => {
                    return Err(self.err_here("UNION must join two braced groups"));
                }
                _ => self.triples_into(&mut group.triples)?,
            }
        }
        if group.triples.is_empty() && group.unions.is_empty() {
            return Err(self.err_here(
                "the graph pattern needs at least one triple (OPTIONAL and FILTER cannot stand alone)",
            ));
        }
        Ok(group)
    }

    /// `'{' (triples | FILTER)* '}'` — the restricted body of OPTIONAL
    /// blocks and UNION alternatives. Structural nesting is a typed
    /// error here, keeping the lowering to conjunctive plans exact.
    fn simple_group(&mut self, what: &str) -> Result<SimpleGroup, SparqlError> {
        self.expect(Tok::LBrace, "'{'")?;
        let mut out = SimpleGroup::default();
        loop {
            match self.peek() {
                Some(Tok::RBrace) => {
                    self.bump();
                    break;
                }
                None => return Err(self.err_here("expected '}'")),
                Some(Tok::Dot) => {
                    self.bump();
                }
                Some(Tok::Keyword(Kw::Filter)) => {
                    self.bump();
                    out.filters.push(self.filter_constraint()?);
                }
                Some(Tok::Keyword(Kw::Optional)) => {
                    return Err(
                        self.err_here(format!("OPTIONAL cannot nest inside an {what} block"))
                    );
                }
                Some(Tok::LBrace) | Some(Tok::Keyword(Kw::Union)) => {
                    return Err(self.err_here(format!("UNION cannot nest inside an {what} block")));
                }
                _ => self.triples_into(&mut out.triples)?,
            }
        }
        if out.triples.is_empty() {
            return Err(self.err_here(format!("an {what} block needs at least one triple")));
        }
        Ok(out)
    }

    /// `FILTER '(' expr ')'` or `FILTER bound(?v)`.
    fn filter_constraint(&mut self) -> Result<FilterExpr, SparqlError> {
        match self.peek() {
            Some(Tok::LParen) => {
                self.bump();
                let e = self.expr()?;
                self.expect(Tok::RParen, "')' to close the FILTER")?;
                Ok(e)
            }
            Some(Tok::Keyword(Kw::Bound)) => self.expr_primary(),
            _ => Err(self.err_here("expected '(' or bound(...) after FILTER")),
        }
    }

    fn expr(&mut self) -> Result<FilterExpr, SparqlError> {
        let mut lhs = self.expr_and()?;
        while matches!(self.peek(), Some(Tok::OrOr)) {
            self.bump();
            let rhs = self.expr_and()?;
            lhs = FilterExpr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn expr_and(&mut self) -> Result<FilterExpr, SparqlError> {
        let mut lhs = self.expr_unary()?;
        while matches!(self.peek(), Some(Tok::AndAnd)) {
            self.bump();
            let rhs = self.expr_unary()?;
            lhs = FilterExpr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn expr_unary(&mut self) -> Result<FilterExpr, SparqlError> {
        if matches!(self.peek(), Some(Tok::Bang)) {
            self.bump();
            let inner = self.expr_unary()?;
            return Ok(FilterExpr::Not(Box::new(inner)));
        }
        self.expr_primary()
    }

    fn expr_primary(&mut self) -> Result<FilterExpr, SparqlError> {
        match self.peek() {
            Some(Tok::LParen) => {
                self.bump();
                let e = self.expr()?;
                self.expect(Tok::RParen, "')'")?;
                Ok(e)
            }
            Some(Tok::Keyword(Kw::Bound)) => {
                self.bump();
                self.expect(Tok::LParen, "'(' after bound")?;
                let Some(Spanned {
                    tok: Tok::Var(name),
                    ..
                }) = self.bump()
                else {
                    return Err(self.err_here("bound() takes a variable"));
                };
                self.expect(Tok::RParen, "')' after the bound variable")?;
                Ok(FilterExpr::Bound(self.var(name)))
            }
            _ => {
                let lhs = self.operand()?;
                let op = match self.peek() {
                    Some(Tok::Eq) => CmpOp::Eq,
                    Some(Tok::Ne) => CmpOp::Ne,
                    Some(Tok::Lt) => CmpOp::Lt,
                    Some(Tok::Le) => CmpOp::Le,
                    Some(Tok::Gt) => CmpOp::Gt,
                    Some(Tok::Ge) => CmpOp::Ge,
                    _ => {
                        return Err(
                            self.err_here("expected a comparison operator (=, !=, <, <=, >, >=)")
                        )
                    }
                };
                self.bump();
                let rhs = self.operand()?;
                Ok(FilterExpr::Compare(lhs, op, rhs))
            }
        }
    }

    fn operand(&mut self) -> Result<Operand, SparqlError> {
        Ok(match self.term_or_var("a comparison operand")? {
            TermOrVar::Term(t) => Operand::Term(t),
            TermOrVar::Var(v) => Operand::Var(v),
        })
    }

    /// Parses triple blocks (with `;` and `,` abbreviations) into `out`
    /// until the next structural token.
    fn triples_into(&mut self, out: &mut Vec<TriplePattern>) -> Result<(), SparqlError> {
        let subject = self.term_or_var("a subject")?;
        'predicates: loop {
            let predicate = self.term_or_var("a predicate")?;
            loop {
                let object = self.term_or_var("an object")?;
                out.push(TriplePattern::new(
                    subject.clone(),
                    predicate.clone(),
                    object,
                ));
                if matches!(self.peek(), Some(Tok::Comma)) {
                    self.bump();
                    continue;
                }
                break;
            }
            match self.peek() {
                Some(Tok::Semi) => {
                    self.bump();
                    // A dangling ';' before a structural token ends the
                    // subject block (Turtle permits the trailing ';').
                    if !matches!(
                        self.peek(),
                        Some(Tok::Var(_)) | Some(Tok::Iri(_)) | Some(Tok::PName(_)) | Some(Tok::A)
                    ) {
                        break 'predicates;
                    }
                    continue 'predicates;
                }
                Some(Tok::Dot) => {
                    self.bump();
                    break 'predicates;
                }
                // Another term here would silently start the next triple.
                Some(
                    Tok::Var(_)
                    | Tok::Iri(_)
                    | Tok::PName(_)
                    | Tok::A
                    | Tok::Literal { .. }
                    | Tok::Integer(_),
                ) => return Err(self.err_here("expected '.', ';' or ',' between triples")),
                _ => break 'predicates,
            }
        }
        Ok(())
    }

    /// The term a constant token denotes: an IRI (resolved against
    /// `BASE` when relative), a prefixed name, a literal or a number.
    /// `None` for a prefixed name whose prefix is declared nowhere, and
    /// for a token that is no constant.
    fn constant(&mut self, tok: &Tok<'_>) -> Option<Term> {
        Some(match tok {
            Tok::Iri(iri) => self.resolve_iri(iri),
            Tok::PName(name) => Term::Iri(self.expand(name)?),
            Tok::Integer(num) => {
                let datatype = self.joined(vocab::XSD_NS, "integer");
                Term::Literal(Literal::typed(*num, datatype))
            }
            Tok::Literal {
                lexical,
                lang,
                datatype,
            } => {
                let lexical: &str = lexical;
                Term::Literal(match (lang, datatype) {
                    (Some(tag), _) => Literal::lang(lexical, *tag),
                    (None, Some(dt)) => Literal::typed(lexical, Iri::new(*dt)),
                    (None, None) => Literal::plain(lexical),
                })
            }
            _ => return None,
        })
    }

    fn term_or_var(&mut self, what: &str) -> Result<TermOrVar, SparqlError> {
        let Some(Spanned {
            tok,
            span,
            line,
            col,
        }) = self.next.take()
        else {
            return Err(self.err_here(format!("expected {what}")));
        };
        let term = match tok {
            Tok::Var(name) => Ok(TermOrVar::Var(self.var(name))),
            Tok::A => Ok(TermOrVar::iri(vocab::RDF_TYPE)),
            Tok::Keyword(kw @ (Kw::True | Kw::False)) => {
                let value = if kw == Kw::True { "true" } else { "false" };
                let datatype = self.joined(vocab::XSD_NS, "boolean");
                Ok(TermOrVar::Term(Term::Literal(Literal::typed(
                    value, datatype,
                ))))
            }
            tok @ (Tok::Iri(_) | Tok::PName(_) | Tok::Literal { .. } | Tok::Integer(_)) => {
                let text = &self.src[span.0..span.1];
                let param = self.params.iter().position(|p| *p == text);
                match param.map(super::shape::placeholder) {
                    Some(placeholder) => Ok(TermOrVar::Term(placeholder)),
                    None => match self.constant(&tok) {
                        Some(term) => Ok(TermOrVar::Term(term)),
                        None => Err(SparqlError {
                            message: format!("unknown prefix in {text:?}"),
                            span,
                            line,
                            col,
                        }),
                    },
                }
            }
            // Not a term: put it back and report it. (The error message
            // is only spelled out on this path.)
            tok => {
                self.next = Some(Spanned {
                    tok,
                    span,
                    line,
                    col,
                });
                return Err(self.err_here(format!("expected {what}")));
            }
        };
        self.advance();
        term
    }
}
