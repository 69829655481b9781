//! The SPARQL lexer: UTF-8 text to spanned tokens, one at a time.
//!
//! Every token carries its byte span and line/column so the parser can
//! attach precise positions to [`super::SparqlError`]s. The lexer is
//! hand-written over the source text — no external lexer generator —
//! and covers exactly the token inventory of the SELECT/ASK subset:
//! keywords, variables, IRIs, prefixed names, literals (plain,
//! language-tagged, datatyped), integers, punctuation and the FILTER
//! operator set.
//!
//! Tokens borrow their text from the source: lexing a query allocates
//! nothing but the unescaped form of a literal that holds a `\`. The
//! parser pulls tokens on demand ([`Lexer::next_token`]), so no token
//! list is built either.

use super::SparqlError;
use std::borrow::Cow;

/// A token kind, borrowing its text from the source.
#[derive(Debug, PartialEq)]
pub(crate) enum Tok<'a> {
    /// A reserved word (`select`, `ask`, `optional`, …), matched
    /// case-insensitively.
    Keyword(Kw),
    /// `?name` or `$name` (the name, without the sigil).
    Var(&'a str),
    /// `<absolute-or-relative-iri>` (angle brackets stripped).
    Iri(&'a str),
    /// `prefix:local` — resolved against the prefix map by the parser.
    PName(&'a str),
    /// A quoted literal with optional `@lang` or `^^<datatype>`.
    Literal {
        /// The unescaped lexical form: the source text itself unless it
        /// holds an escape.
        lexical: Cow<'a, str>,
        /// `@tag`, if present.
        lang: Option<&'a str>,
        /// `^^<iri>`, if present.
        datatype: Option<&'a str>,
    },
    /// A bare unsigned integer.
    Integer(&'a str),
    /// The Turtle `a` shorthand for `rdf:type`.
    A,
    /// `*` (SELECT projection).
    Star,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `.`
    Dot,
    /// `;`
    Semi,
    /// `,`
    Comma,
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
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Bang,
}

/// The reserved words of the subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kw {
    Select,
    Ask,
    Where,
    Union,
    Optional,
    Filter,
    Bound,
    Distinct,
    Reduced,
    Order,
    By,
    Asc,
    Desc,
    Limit,
    Offset,
    Prefix,
    Base,
    True,
    False,
}

const KEYWORDS: [(&str, Kw); 19] = [
    ("select", Kw::Select),
    ("ask", Kw::Ask),
    ("where", Kw::Where),
    ("union", Kw::Union),
    ("optional", Kw::Optional),
    ("filter", Kw::Filter),
    ("bound", Kw::Bound),
    ("distinct", Kw::Distinct),
    ("reduced", Kw::Reduced),
    ("order", Kw::Order),
    ("by", Kw::By),
    ("asc", Kw::Asc),
    ("desc", Kw::Desc),
    ("limit", Kw::Limit),
    ("offset", Kw::Offset),
    ("prefix", Kw::Prefix),
    ("base", Kw::Base),
    ("true", Kw::True),
    ("false", Kw::False),
];

fn keyword(word: &str) -> Option<Kw> {
    KEYWORDS
        .iter()
        .find(|(name, _)| word.eq_ignore_ascii_case(name))
        .map(|&(_, kw)| kw)
}

/// The bytes that end an IRI: `>` and what SPARQL's `IRIREF` production
/// excludes (`<"{}|^`, the backtick, `\` and 0x00–0x20).
const IRI_STOP: [bool; 256] = {
    let mut stop = [false; 256];
    let mut b = 0;
    while b <= 0x20 {
        stop[b] = true;
        b += 1;
    }
    let mut i = 0;
    let others = *b">\"{}|^`\\<";
    while i < others.len() {
        stop[others[i] as usize] = true;
        i += 1;
    }
    stop
};

/// A token plus its source position.
#[derive(Debug)]
pub(crate) struct Spanned<'a> {
    pub tok: Tok<'a>,
    /// Half-open byte range in the source text.
    pub span: (usize, usize),
    /// 1-based source line of the first byte.
    pub line: usize,
    /// 1-based source column (in characters) of the first byte.
    pub col: usize,
}

/// The lexer over one source text.
pub(crate) struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Lexer<'a> {
    pub(crate) fn new(src: &'a str) -> Self {
        Lexer {
            src,
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self) -> Option<char> {
        // Queries are nearly all ASCII: decode only what is not.
        match self.src.as_bytes().get(self.pos) {
            Some(&b) if b.is_ascii() => Some(char::from(b)),
            Some(_) => self.src[self.pos..].chars().next(),
            None => None,
        }
    }

    /// Moves past one ASCII character that is no newline.
    fn step(&mut self) {
        self.pos += 1;
        self.col += 1;
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn err(&self, start: usize, line: usize, col: usize, msg: impl Into<String>) -> SparqlError {
        SparqlError {
            message: msg.into(),
            span: (start, self.pos.max(start + 1).min(self.src.len().max(1))),
            line,
            col,
        }
    }

    /// Moves past `text`, the source at the current position, which
    /// holds no newline.
    fn skip(&mut self, text: &str) {
        self.pos += text.len();
        self.col += text.chars().count();
    }

    /// The IRI the `<` at the current position opens, angle brackets
    /// stripped: the text up to a `>` that comes before any character
    /// SPARQL's `IRIREF` production excludes (`<>"{}|^`, the backtick,
    /// `\` and 0x00–0x20). `None` when the `<` is the less-than operator
    /// of a FILTER expression.
    fn iri(&self) -> Option<&'a str> {
        let body = &self.src[self.pos + 1..];
        let end = body.bytes().position(|b| IRI_STOP[usize::from(b)])?;
        (body.as_bytes()[end] == b'>').then(|| &body[..end])
    }

    fn name(&mut self) -> &'a str {
        let rest = &self.src[self.pos..];
        let bytes = rest.as_bytes();
        let mut end = 0;
        let mut ascii = true;
        while let Some(&b) = bytes.get(end) {
            let width = match b {
                // A trailing '.' is a triple terminator, not part of a
                // name (`e:s.` means `e:s .`).
                b'.' => {
                    let next = rest[end + 1..].chars().next();
                    usize::from(next.is_some_and(|a| a.is_alphanumeric() || a == '_'))
                }
                b'_' | b'-' | b':' => 1,
                b if b.is_ascii() => usize::from(b.is_ascii_alphanumeric()),
                _ => match rest[end..].chars().next() {
                    Some(c) if c.is_alphanumeric() => {
                        ascii = false;
                        c.len_utf8()
                    }
                    _ => 0,
                },
            };
            if width == 0 {
                break;
            }
            end += width;
        }
        let name = &rest[..end];
        // A name holds no newline; an ASCII one is a character a byte.
        self.pos += end;
        self.col += if ascii { end } else { name.chars().count() };
        name
    }

    /// The next token, `Ok(None)` at the end of the text, or the
    /// lexical error at the current position.
    pub(crate) fn next_token(&mut self) -> Result<Option<Spanned<'a>>, SparqlError> {
        // Skip whitespace and comments.
        loop {
            match self.peek() {
                Some(' ' | '\t' | '\r') => {
                    self.pos += 1;
                    self.col += 1;
                }
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('#') => {
                    while let Some(c) = self.bump() {
                        if c == '\n' {
                            break;
                        }
                    }
                }
                _ => break,
            }
        }
        let (start, line, col) = (self.pos, self.line, self.col);
        let Some(c) = self.peek() else {
            return Ok(None);
        };
        let src = self.src;
        let tok = match c {
            '{' => {
                self.step();
                Tok::LBrace
            }
            '}' => {
                self.step();
                Tok::RBrace
            }
            '(' => {
                self.step();
                Tok::LParen
            }
            ')' => {
                self.step();
                Tok::RParen
            }
            '.' => {
                self.step();
                Tok::Dot
            }
            ';' => {
                self.step();
                Tok::Semi
            }
            ',' => {
                self.step();
                Tok::Comma
            }
            '*' => {
                self.step();
                Tok::Star
            }
            '=' => {
                self.step();
                Tok::Eq
            }
            '!' => {
                self.bump();
                if self.peek() == Some('=') {
                    self.bump();
                    Tok::Ne
                } else {
                    Tok::Bang
                }
            }
            '&' => {
                self.bump();
                if self.peek() == Some('&') {
                    self.bump();
                    Tok::AndAnd
                } else {
                    return Err(self.err(start, line, col, "expected '&&'"));
                }
            }
            '|' => {
                self.bump();
                if self.peek() == Some('|') {
                    self.bump();
                    Tok::OrOr
                } else {
                    return Err(self.err(start, line, col, "expected '||'"));
                }
            }
            '>' => {
                self.bump();
                if self.peek() == Some('=') {
                    self.bump();
                    Tok::Ge
                } else {
                    Tok::Gt
                }
            }
            '<' => {
                if let Some(iri) = self.iri() {
                    self.skip(&src[start..start + iri.len() + 2]);
                    Tok::Iri(iri)
                } else {
                    self.bump();
                    if self.peek() == Some('=') {
                        self.bump();
                        Tok::Le
                    } else {
                        Tok::Lt
                    }
                }
            }
            '?' | '$' => {
                self.bump();
                let name = self.name();
                if name.is_empty() {
                    return Err(self.err(start, line, col, "empty variable name"));
                }
                Tok::Var(name)
            }
            '"' => {
                self.bump();
                let body = self.pos;
                let mut escaped = false;
                let end = loop {
                    let at = self.pos;
                    match self.bump() {
                        Some('"') => break at,
                        Some('\\') => match self.bump() {
                            Some('"' | '\\' | 'n' | 't') => escaped = true,
                            other => {
                                return Err(self.err(
                                    start,
                                    line,
                                    col,
                                    format!("unsupported escape \\{}", other.unwrap_or(' ')),
                                ))
                            }
                        },
                        Some('\n') | None => {
                            return Err(self.err(start, line, col, "unterminated string literal"))
                        }
                        Some(_) => {}
                    }
                };
                let raw = &src[body..end];
                let lexical = if escaped {
                    Cow::Owned(unescape(raw))
                } else {
                    Cow::Borrowed(raw)
                };
                let mut lang = None;
                let mut datatype = None;
                if self.peek() == Some('@') {
                    self.bump();
                    let tag = self.name();
                    if tag.is_empty() {
                        return Err(self.err(start, line, col, "empty language tag"));
                    }
                    lang = Some(tag);
                } else if self.peek() == Some('^') {
                    self.bump();
                    if self.bump() != Some('^') {
                        return Err(self.err(start, line, col, "expected '^^' before datatype"));
                    }
                    if self.peek() != Some('<') {
                        return Err(self.err(
                            start,
                            line,
                            col,
                            "datatype must be a full IRI in angle brackets",
                        ));
                    }
                    self.bump();
                    let dt_start = self.pos;
                    loop {
                        match self.peek() {
                            Some('>') => break,
                            Some('\n') | None => {
                                return Err(self.err(start, line, col, "unterminated datatype IRI"))
                            }
                            _ => {
                                self.bump();
                            }
                        }
                    }
                    datatype = Some(&src[dt_start..self.pos]);
                    self.bump();
                }
                Tok::Literal {
                    lexical,
                    lang,
                    datatype,
                }
            }
            d if d.is_ascii_digit() => {
                let num_start = self.pos;
                while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    self.bump();
                }
                Tok::Integer(&src[num_start..self.pos])
            }
            c if c.is_alphanumeric() || c == '_' || c == ':' => {
                let word = self.name();
                // No keyword holds a ':'.
                if word.contains(':') {
                    Tok::PName(word)
                } else if word == "a" {
                    Tok::A
                } else if let Some(kw) = keyword(word) {
                    Tok::Keyword(kw)
                } else {
                    return Err(self.err(
                        start,
                        line,
                        col,
                        format!("unknown keyword or bare name {word:?}"),
                    ));
                }
            }
            other => {
                self.bump();
                return Err(self.err(start, line, col, format!("unexpected character {other:?}")));
            }
        };
        Ok(Some(Spanned {
            tok,
            span: (start, self.pos),
            line,
            col,
        }))
    }
}

/// The lexical form of a literal body whose escapes the lexer has
/// already checked (`\"`, `\\`, `\n`, `\t`).
fn unescape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        out.push(match c {
            '\\' => match chars.next() {
                Some('n') => '\n',
                Some('t') => '\t',
                Some(other) => other,
                None => break,
            },
            other => other,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first(src: &str) -> Option<Tok<'_>> {
        Lexer::new(src).next_token().ok().flatten().map(|sp| sp.tok)
    }

    #[test]
    fn lt_opens_an_iri_only_up_to_an_iriref_exclusion() {
        assert_eq!(first("<http://c/p>"), Some(Tok::Iri("http://c/p")));
        assert_eq!(first("<http://c/é>"), Some(Tok::Iri("http://c/é")));
        for c in [
            '<', '"', '{', '}', '|', '^', '`', '\\', ' ', '\t', '\n', '\u{1}',
        ] {
            let src = format!("<http://c/p{c}x>");
            assert_eq!(first(&src), Some(Tok::Lt), "{src:?}");
        }
        assert_eq!(first("<=?x"), Some(Tok::Le));
    }

    /// A literal borrows its text unless it holds an escape.
    #[test]
    fn literals_copy_only_when_escaped() {
        let lexical = |src| match first(src) {
            Some(Tok::Literal { lexical, .. }) => Some(lexical),
            _ => None,
        };
        assert!(matches!(lexical("\"plain\""), Some(Cow::Borrowed("plain"))));
        assert!(matches!(
            lexical(r#""a\"b\\c\nd\te""#),
            Some(Cow::Owned(s)) if s == "a\"b\\c\nd\te"
        ));
    }

    #[test]
    fn keywords_match_in_any_case_and_nothing_else() {
        assert_eq!(first("SeLeCt"), Some(Tok::Keyword(Kw::Select)));
        assert_eq!(first("select:x"), Some(Tok::PName("select:x")));
        assert_eq!(first("a"), Some(Tok::A));
        assert_eq!(first("A"), None);
    }
}
