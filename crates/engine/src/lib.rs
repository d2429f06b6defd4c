//! # spannerlog-engine
//!
//! The Spannerlog evaluation engine — pillar 1 of the paper, plus the
//! [`Session`] embedding API of pillars 2 and 3.
//!
//! ## Architecture
//!
//! ```text
//!  source cell ──parse──▶ AST ──safety──▶ RulePlan ──stratify──▶ components
//!                                            │                    │
//!            IE registry (builtins + host closures)         eval (fire once /
//!                                            │               semi-naive rounds)
//!                                            ▼                    │
//!                             binding-row pipeline ◀──────────────┘
//!                     (scan-join · IE call · anti-join · compare)
//!                                            │
//!                              head projection / aggregation
//! ```
//!
//! * [`safety`] implements the paper's semantic safety checker, which
//!   also derives the IE execution order inside each rule body (§3.1).
//!   Its plans are the only ones the crate's executor runs; a rule it
//!   cannot order safely is an [`EngineError::Unsafe`] before any run.
//! * `share` rewrites each IE call two atoms ask alike — or one asks in
//!   a recursion — into ordinary rules over a demand relation and a call
//!   relation (`f#k?`, `f#k`), which the steps below treat like any other.
//! * [`strata`] splits the program into the components of its predicate
//!   dependency graph, in dependency order, rejecting negation or
//!   aggregation inside one (extensions beyond the paper's core; see
//!   the README's *Evaluation* section).
//! * [`eval`] fires the rules of a non-recursive component once and runs
//!   semi-naive rounds inside recursive ones. Naive bottom-up evaluation
//!   — the algorithm the paper's implementation uses — lives in the
//!   tests, as the reference evaluator every configuration of the engine
//!   is property-tested against.
//! * [`maintain`] updates the derived relations after a write from the
//!   input rows that changed (delete-and-rederive, the delta loop)
//!   instead of evaluating again from scratch.
//! * [`builtins`] registers the `rgx` family and the string/span/number
//!   helper functions the paper's examples assume.
//! * [`Session`] is the host-facing object: import/export DataFrames,
//!   run cells, register IE callbacks; its evaluation driver decides
//!   whether a run is skipped, maintained or full ([`FullReason`]).
//! * [`prepared`] layers a prepare-once/execute-many lifecycle on top:
//!   [`SessionBuilder`] → [`PreparedProgram`] / [`PreparedQuery`] →
//!   [`Snapshot`] for lock-free concurrent reads.

pub mod aggregate;
pub mod builtins;
pub mod database;
pub mod error;
pub mod eval;
pub mod ie;
mod ie_join;
pub mod maintain;
pub mod optimizer;
pub mod plan;
pub mod prepared;
pub mod query;
pub mod registry;
pub mod safety;
pub mod session;
mod shard;
mod share;
pub mod strata;

pub use database::Database;
pub use error::{EngineError, LimitCulprit, Result};
pub use eval::{EvalLimits, EvalStats};
pub use ie::{IeContext, IeFunction, IeRows, SharedDocs, TextArg};
pub use prepared::{CompiledProgram, PreparedProgram, PreparedQuery, Snapshot};
pub use query::{QueryPlan, Selection};
pub use registry::Registry;
pub use session::driver::{EvalMode, FullReason};
pub use session::{Session, SessionBuilder};
// The cache subsystem's user-facing vocabulary, re-exported so hosts
// configure sessions without depending on spannerlib-cache directly.
pub use spannerlib_cache::{CacheStats, DocGc, DOC_GC_WATERMARK_BYTES};
pub use spannerlib_core::CompactionReport;
// Observability vocabulary from the trace crate, re-exported so hosts
// configure tracing and consume profiles without a direct dependency.
pub use spannerlib_trace::{
    EvalProfile, IeFunctionProfile, RuleProfile, StratumProfile, TraceLevel,
};
