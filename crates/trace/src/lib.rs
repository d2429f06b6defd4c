//! # spannerlib_trace
//!
//! Structured tracing, metrics, and per-rule profiling for the
//! Spannerlog engine — the measurement substrate behind
//! `Session::profile()` and `spannerd`'s `/metrics`.
//!
//! The crate is deliberately **zero-dependency** (std only) and splits
//! into four layers:
//!
//! - **Level** ([`TraceLevel`]): whether a run records anything —
//!   `Off`, or its `Summary` profile.
//! - **Collection** ([`RunTrace`]): a single-threaded collector the
//!   engine threads through one fixpoint evaluation. Every `RunTrace`
//!   method is a no-op at `Off`, so the untraced hot path pays only a
//!   branch.
//! - **Reporting** ([`EvalProfile`] with [`EvalProfile::render`] and
//!   [`EvalProfile::to_json_lines`]): the per-run report — per-rule
//!   wall time, firings, tuple and join-row counts, per-IE-function
//!   body-call / latency statistics.
//! - **Metrics** ([`MetricsRegistry`], [`encode_prometheus`]): a
//!   long-lived, thread-safe registry of counters, gauges, and
//!   fixed-bucket latency [`Histogram`]s under constant names and label
//!   pairs — `spannerd`'s request and evaluation numbers — and its
//!   Prometheus text exposition.
//!
//! ```
//! use spannerlib_trace::{RunTrace, TraceLevel};
//!
//! // The engine drives a RunTrace through one evaluation…
//! let mut trace = RunTrace::new(TraceLevel::Summary);
//! let rule = trace.register_rule(0, "Out", "Out(x) <- In(x).", 1);
//! trace.round(0);
//! let t0 = trace.now_ns();
//! trace.rule_fired(rule, 12, 9, t0, true);
//!
//! // …and finishing it yields the run's EvalProfile.
//! let profile = trace.finish(None).expect("tracing was on");
//! assert_eq!(profile.tuples_new, 9);
//! assert!(profile.render().contains("Out(x) <- In(x)."));
//! ```

mod expo;
mod metrics;
mod profile;
mod run;
mod span;

pub use expo::{check_exposition, encode_prometheus, ExpositionStats};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, Label, MetricsRegistry, HISTOGRAM_BUCKETS,
};
pub use profile::{fmt_ns, EvalProfile, IeFunctionProfile, RuleProfile, StratumProfile};
pub use run::RunTrace;
pub use span::TraceLevel;
