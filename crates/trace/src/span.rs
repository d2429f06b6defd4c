//! The span vocabulary: trace levels, span kinds, and the event record.

use std::fmt;

/// How much detail an evaluation run records.
///
/// Levels are totally ordered — each level includes everything below it:
///
/// ```
/// use spannerlib_trace::TraceLevel;
/// assert!(TraceLevel::Off < TraceLevel::Summary);
/// assert!(TraceLevel::Summary < TraceLevel::Spans);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceLevel {
    /// No profiling: the evaluation hot path pays only the engine's
    /// pre-existing counters (a few integer increments per rule firing).
    #[default]
    Off,
    /// Per-rule and per-IE-function counters and wall times — the
    /// `EvalProfile` — but no individual span events.
    Summary,
    /// Everything in `Summary` plus hierarchical timed span events
    /// (execute → stratum → round → rule firing → join step → IE
    /// batch), collected into a byte-bounded ring buffer.
    Spans,
}

impl TraceLevel {
    /// Whether profiling counters are collected at this level.
    pub fn summarizes(self) -> bool {
        self >= TraceLevel::Summary
    }

    /// Whether individual span events are recorded at this level.
    pub fn records_spans(self) -> bool {
        self >= TraceLevel::Spans
    }

    /// Stable lowercase name (used by exporters).
    pub fn name(self) -> &'static str {
        match self {
            TraceLevel::Off => "off",
            TraceLevel::Summary => "summary",
            TraceLevel::Spans => "spans",
        }
    }
}

impl fmt::Display for TraceLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Position of a span in the evaluation hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// One whole fixpoint evaluation (the root span).
    Execute,
    /// One stratum run to fixpoint.
    Stratum,
    /// One fixpoint round within a stratum.
    Round,
    /// One rule-plan execution (a "rule firing").
    Rule,
    /// One scan-join step inside a rule firing.
    Join,
    /// One batched IE-function step inside a rule firing (all distinct
    /// argument tuples of one `f(…) -> (…)` atom).
    IeBatch,
    /// One shard of a rule firing on more than one lane — a row range of
    /// one scan — executed on one lane and merged back in shard order.
    Shard,
}

impl SpanKind {
    /// Stable lowercase name (used by exporters and renderers).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Execute => "execute",
            SpanKind::Stratum => "stratum",
            SpanKind::Round => "round",
            SpanKind::Rule => "rule",
            SpanKind::Join => "join",
            SpanKind::IeBatch => "ie_batch",
            SpanKind::Shard => "shard",
        }
    }
}

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Identifier of an open span within one evaluation run. `NO_SPAN` (0)
/// means "no parent" / "spans disabled"; real ids start at 1.
pub type SpanId = u64;

/// The id used for "no span": the root's parent, and the id handed out
/// when span recording is off.
pub const NO_SPAN: SpanId = 0;

/// One closed span: a timed node of the evaluation tree.
///
/// Timestamps are nanoseconds relative to the start of the evaluation
/// run that produced the event, so events serialize without any wall
/// clock and replay deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Id unique within the run (dense, starting at 1).
    pub id: SpanId,
    /// Parent span id ([`NO_SPAN`] for the root).
    pub parent: SpanId,
    /// Hierarchy position.
    pub kind: SpanKind,
    /// Human-readable label (rule source, stratum index, IE function).
    pub label: String,
    /// Start offset from the run epoch, in nanoseconds.
    pub start_ns: u64,
    /// Wall-clock duration, in nanoseconds.
    pub duration_ns: u64,
}

impl SpanEvent {
    /// Approximate resident size, charged against ring-buffer budgets.
    pub fn bytes(&self) -> usize {
        std::mem::size_of::<SpanEvent>() + self.label.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered_and_named() {
        assert!(TraceLevel::Off < TraceLevel::Summary);
        assert!(TraceLevel::Summary.summarizes());
        assert!(!TraceLevel::Summary.records_spans());
        assert!(TraceLevel::Spans.records_spans());
        assert_eq!(TraceLevel::Spans.to_string(), "spans");
        assert_eq!(SpanKind::IeBatch.to_string(), "ie_batch");
    }

    #[test]
    fn span_bytes_charge_the_label() {
        let a = SpanEvent {
            id: 1,
            parent: NO_SPAN,
            kind: SpanKind::Execute,
            label: String::new(),
            start_ns: 0,
            duration_ns: 0,
        };
        let mut b = a.clone();
        b.label = "x".repeat(100);
        assert_eq!(b.bytes(), a.bytes() + 100);
    }
}
