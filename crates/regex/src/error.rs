//! Error type for pattern parsing and spanner union.

use thiserror::Error;

/// Errors raised while parsing a pattern or uniting spanners.
#[derive(Debug, Error, Clone, PartialEq, Eq)]
pub enum RegexError {
    /// Syntax error in the pattern, with byte position and explanation.
    #[error("pattern syntax error at byte {pos}: {msg}")]
    Syntax {
        /// Byte offset of the offending character in the pattern.
        pos: usize,
        /// Human-readable explanation.
        msg: String,
    },

    /// A repetition like `{3,1}` whose bounds are inverted.
    #[error("invalid repetition range {{{min},{max}}}: min exceeds max")]
    BadRepetition {
        /// Lower bound of the repetition.
        min: u32,
        /// Upper bound of the repetition.
        max: u32,
    },

    /// A capture-variable name used more than once in one formula.
    #[error("duplicate capture variable {0:?}")]
    DuplicateVariable(String),

    /// A union of spanners or span relations whose variable sets differ.
    #[error("incompatible variable sets for {op}: {left:?} vs {right:?}")]
    VariableMismatch {
        /// Name of the algebra operation.
        op: &'static str,
        /// Variables of the left operand.
        left: Vec<String>,
        /// Variables of the right operand.
        right: Vec<String>,
    },
}

impl RegexError {
    /// Convenience constructor for syntax errors.
    pub fn syntax(pos: usize, msg: impl Into<String>) -> Self {
        RegexError::Syntax {
            pos,
            msg: msg.into(),
        }
    }
}
