//! Error types for lexing and parsing.

use crate::token::Span;
use std::error::Error;
use std::fmt;

/// The category of a [`ParseError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// An unexpected character in the input stream.
    UnexpectedChar(char),
    /// A malformed numeric literal, e.g. `8'q12`.
    BadNumber(String),
    /// The parser expected something else at this point.
    Unexpected {
        /// What the parser was looking for.
        expected: String,
        /// What it actually found (formatted token).
        found: String,
    },
    /// A construct outside the supported synthesizable subset.
    Unsupported(String),
    /// Expressions, statements or concatenations nested deeper than
    /// [`crate::parser::MAX_NESTING`] levels. The parser refuses them
    /// rather than overflow the stack on hostile input.
    RecursionLimit,
}

/// An error produced while lexing or parsing Verilog source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// The kind of failure.
    pub kind: ParseErrorKind,
    /// The source location of the failure.
    pub span: Span,
}

impl ParseError {
    /// Creates a new error at `span`.
    pub fn new(kind: ParseErrorKind, span: Span) -> Self {
        ParseError { kind, span }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ParseErrorKind::UnexpectedChar(c) => {
                write!(f, "unexpected character `{c}` at {}", self.span)
            }
            ParseErrorKind::BadNumber(s) => {
                write!(f, "malformed number `{s}` at {}", self.span)
            }
            ParseErrorKind::Unexpected { expected, found } => {
                write!(f, "expected {expected}, found {found} at {}", self.span)
            }
            ParseErrorKind::Unsupported(what) => {
                write!(f, "unsupported construct ({what}) at {}", self.span)
            }
            ParseErrorKind::RecursionLimit => write!(
                f,
                "nesting deeper than {} levels at {}",
                crate::parser::MAX_NESTING,
                self.span
            ),
        }
    }
}

impl Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ParseError::new(
            ParseErrorKind::Unexpected {
                expected: "`;`".into(),
                found: "`)`".into(),
            },
            Span { line: 2, col: 7 },
        );
        let msg = e.to_string();
        assert!(msg.contains("expected `;`"));
        assert!(msg.contains("2:7"));
    }
}
