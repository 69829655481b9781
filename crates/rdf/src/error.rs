//! Error types for the RDF substrate.

use std::fmt;

/// Errors produced by the RDF layer (validation, parsing, durability).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RdfError {
    /// A triple violated the RDF positional constraints.
    InvalidTriple(String),
    /// A syntax error while parsing N-Triples / Turtle-lite input.
    Parse {
        /// 1-based line of the error.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// An undeclared prefix was used in a prefixed name.
    UnknownPrefix(String),
    /// An I/O failure while persisting or opening durable state. The
    /// original `std::io::Error` is flattened into its kind and message
    /// so the error type stays `Clone + Eq`.
    Io {
        /// What the failing operation was doing (e.g. `"write run file"`).
        context: String,
        /// The `std::io::ErrorKind` of the underlying failure.
        kind: std::io::ErrorKind,
        /// The underlying error's message.
        message: String,
    },
    /// Committed on-disk state failed validation: a bad magic number or
    /// checksum, a torn page, a manifest of an unsupported format
    /// version or one that references missing or inconsistent files.
    /// Recovery refuses to serve from such state rather than answering
    /// over silently wrong data.
    Corrupt {
        /// The offending file (or directory) as a display path.
        file: String,
        /// What failed to validate.
        detail: String,
    },
}

impl RdfError {
    /// Convenience constructor for parse errors.
    pub fn parse(line: usize, message: impl Into<String>) -> Self {
        RdfError::Parse {
            line,
            message: message.into(),
        }
    }

    /// Wraps an `std::io::Error`, recording what the operation was doing.
    pub fn io(context: impl Into<String>, err: &std::io::Error) -> Self {
        RdfError::Io {
            context: context.into(),
            kind: err.kind(),
            message: err.to_string(),
        }
    }

    /// Convenience constructor for corruption reports.
    pub fn corrupt(file: impl Into<String>, detail: impl Into<String>) -> Self {
        RdfError::Corrupt {
            file: file.into(),
            detail: detail.into(),
        }
    }
}

impl fmt::Display for RdfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RdfError::InvalidTriple(msg) => write!(f, "invalid triple: {msg}"),
            RdfError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            RdfError::UnknownPrefix(p) => write!(f, "unknown prefix: {p}"),
            RdfError::Io {
                context,
                kind,
                message,
            } => write!(
                f,
                "I/O error while trying to {context} ({kind:?}): {message}"
            ),
            RdfError::Corrupt { file, detail } => {
                write!(f, "corrupt durable state in {file}: {detail}")
            }
        }
    }
}

impl std::error::Error for RdfError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(
            RdfError::InvalidTriple("x".into()).to_string(),
            "invalid triple: x"
        );
        assert_eq!(
            RdfError::parse(3, "bad token").to_string(),
            "parse error at line 3: bad token"
        );
        assert_eq!(
            RdfError::UnknownPrefix("foaf".into()).to_string(),
            "unknown prefix: foaf"
        );
    }
}
