//! Engine error type.

use spannerlib_core::{CoreError, ValueType};
use spannerlog_parser::{caret_snippet, ParseError};
use std::fmt;
use thiserror::Error;

/// The rule an evaluation limit — or an IE panic — is attributed to.
/// For the row limit this is the rule whose insert crossed the bound;
/// for the round limit — which only trips *between* rounds — it is the
/// last rule that derived new tuples, i.e. the one still driving the
/// fixpoint; for a panic, the rule whose firing made the call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LimitCulprit {
    /// Head predicate of the rule.
    pub head: String,
    /// The rule's source text (as reconstructed by the parser).
    pub source: String,
    /// 1-based source line of the rule; `0` when unknown.
    pub line: usize,
}

impl LimitCulprit {
    /// A placeholder culprit for runs where no rule can be blamed
    /// (e.g. an empty stratum still counts a round).
    pub fn unknown() -> LimitCulprit {
        LimitCulprit {
            head: String::new(),
            source: String::new(),
            line: 0,
        }
    }

    /// Whether a rule was actually attributed.
    pub fn is_known(&self) -> bool {
        !self.head.is_empty()
    }

    /// Renders a caret diagnostic pointing at the culprit rule's line in
    /// `program_source` (the text the rules were parsed from), reusing
    /// the parser's snippet machinery:
    ///
    /// ```text
    ///   | Path(x, z) <- Path(x, y), Edge(y, z).
    ///   | ^
    /// ```
    ///
    /// Returns the bare culprit description when the rule is unknown or
    /// the line is out of range of `program_source`.
    pub fn snippet(&self, program_source: &str) -> String {
        if !self.is_known() || self.line == 0 {
            return self.to_string();
        }
        format!("{self}\n{}", caret_snippet(program_source, self.line, 1))
    }
}

impl fmt::Display for LimitCulprit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_known() {
            write!(
                f,
                "while evaluating rule for {:?} (line {}): {}",
                self.head, self.line, self.source
            )
        } else {
            f.write_str("no single rule attributable")
        }
    }
}

/// Errors raised while loading or evaluating Spannerlog programs.
#[derive(Debug, Error)]
pub enum EngineError {
    /// Source text failed to parse.
    #[error(transparent)]
    Parse(#[from] ParseError),

    /// Core value-model error (span bounds, schema mismatch, …).
    #[error(transparent)]
    Core(#[from] CoreError),

    /// Reference to a relation that was never declared, imported, or
    /// derived by a rule.
    #[error("unknown relation {0:?}")]
    UnknownRelation(String),

    /// A body atom's predicate is neither a relation nor a registered IE
    /// function.
    #[error("unknown predicate {0:?}: not a relation and not a registered IE function")]
    UnknownPredicate(String),

    /// Reference to an IE function that is not registered.
    #[error("unknown IE function {0:?}")]
    UnknownIeFunction(String),

    /// Reference to an aggregation function that is not registered.
    #[error("unknown aggregation function {0:?}")]
    UnknownAggregate(String),

    /// Reference to a conversion function (inside an aggregation term)
    /// that is not registered.
    #[error("unknown conversion function {0:?}")]
    UnknownConversion(String),

    /// A declaration or import names a relation `#` reserves for the
    /// engine's relations of shared IE calls.
    #[error("relation name {0:?} is reserved: `#` marks the engine's own relations")]
    ReservedName(String),

    /// A declaration or import collides with an existing relation.
    #[error("relation {0:?} already exists")]
    DuplicateRelation(String),

    /// An import tried to replace a relation with one of a different
    /// schema.
    #[error(
        "import into {relation:?} would change its schema from {expected} to {actual} \
         (remove_relation first to retype it, once no loaded rule reads it)"
    )]
    SchemaMismatch {
        /// Relation name.
        relation: String,
        /// Existing schema, rendered as `(str, int, …)`.
        expected: String,
        /// Schema of the incoming data.
        actual: String,
    },

    /// A resource limit configured via `SessionBuilder` was exceeded
    /// during evaluation. `culprit` names the rule the overrun is
    /// attributed to (see [`LimitCulprit`]); a traced run additionally
    /// keeps the partial per-stratum progress in its `EvalProfile`.
    #[error("evaluation exceeded the configured limit of {limit} {resource} ({culprit})")]
    LimitExceeded {
        /// Which limit (e.g. "fixpoint rounds", "materialized rows").
        resource: &'static str,
        /// The configured bound.
        limit: usize,
        /// The rule the overrun is attributed to.
        culprit: Box<LimitCulprit>,
    },

    /// An atom used a relation with the wrong number of arguments.
    #[error(
        "arity mismatch for {relation:?}: declared {expected}, used with {actual} (line {line})"
    )]
    Arity {
        /// Relation name.
        relation: String,
        /// Declared arity (or that of the relation's first rule head).
        expected: usize,
        /// Arity at the use site.
        actual: usize,
        /// Source line of the rule that used it; `0` outside a rule.
        line: usize,
    },

    /// An IE function was called with the wrong number of inputs.
    #[error("IE function {function:?} takes {expected} inputs, called with {actual}")]
    IeArity {
        /// Function name.
        function: String,
        /// Declared input arity.
        expected: usize,
        /// Arity at the call site.
        actual: usize,
    },

    /// A fact's constant does not match the declared column type.
    #[error("fact for {relation:?}, column {column}: expected {expected}, got {actual}")]
    FactType {
        /// Relation name.
        relation: String,
        /// Zero-based column index.
        column: usize,
        /// Declared type.
        expected: ValueType,
        /// Supplied type.
        actual: ValueType,
    },

    /// Rule safety violation (paper §3.1: the semantic safety checker).
    #[error("unsafe rule (line {line}): {msg}")]
    Unsafe {
        /// 1-based source line of the rule head.
        line: usize,
        /// Explanation of the violation.
        msg: String,
    },

    /// Negation (or aggregation) through recursion — no stratification
    /// exists.
    #[error("program is not stratifiable: {0}")]
    NotStratifiable(String),

    /// An IE callback reported a failure.
    #[error("IE function {function:?} failed: {msg}")]
    IeRuntime {
        /// Function name.
        function: String,
        /// Explanation from the callback.
        msg: String,
    },

    /// An IE function panicked. The panic stops at the call, on the
    /// calling thread or a shard's; the run fails, and the session's next
    /// evaluation runs in full.
    #[error("IE function {function:?} panicked: {msg} ({rule})")]
    IePanicked {
        /// Function name.
        function: String,
        /// The panic's message.
        msg: String,
        /// The rule whose firing called it.
        rule: Box<LimitCulprit>,
    },

    /// An IE function wrote (or `rgx` would write) a row of another arity.
    #[error("IE function {function:?} wrote a row of arity {actual}, atom expects {expected}")]
    IeOutputArity {
        /// Function name.
        function: String,
        /// Arity expected by the IE atom.
        expected: usize,
        /// Arity of the offending row.
        actual: usize,
    },

    /// A comparison guard applied to incomparable values.
    #[error("cannot compare {left} with {right}")]
    Incomparable {
        /// Type of the left operand.
        left: ValueType,
        /// Type of the right operand.
        right: ValueType,
    },

    /// An aggregation function failed.
    #[error("aggregation {function:?} failed: {msg}")]
    AggRuntime {
        /// Aggregation function name.
        function: String,
        /// Explanation.
        msg: String,
    },

    /// DataFrame bridge failure.
    #[error("dataframe error: {0}")]
    Frame(#[from] spannerlib_dataframe::FrameError),

    /// A query used in `export` must be a single query statement.
    #[error("expected a single query statement (e.g. ?R(x, \"c\")), got {0}")]
    NotAQuery(String),
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, EngineError>;
