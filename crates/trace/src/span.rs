//! The trace level: whether an evaluation run records its profile.

use std::fmt;

/// How much detail an evaluation run records.
///
/// ```
/// use spannerlib_trace::TraceLevel;
/// assert!(TraceLevel::Off < TraceLevel::Summary);
/// assert!(TraceLevel::Summary.summarizes());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceLevel {
    /// No profiling: the evaluation hot path pays only the engine's
    /// pre-existing counters (a few integer increments per rule firing).
    #[default]
    Off,
    /// Per-rule and per-IE-function counters and wall times — the
    /// `EvalProfile`.
    Summary,
}

impl TraceLevel {
    /// Whether profiling counters are collected at this level.
    pub fn summarizes(self) -> bool {
        self == TraceLevel::Summary
    }

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            TraceLevel::Off => "off",
            TraceLevel::Summary => "summary",
        }
    }
}

impl fmt::Display for TraceLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered_and_named() {
        assert!(TraceLevel::Off < TraceLevel::Summary);
        assert!(!TraceLevel::Off.summarizes());
        assert!(TraceLevel::Summary.summarizes());
        assert_eq!(TraceLevel::Off.to_string(), "off");
        assert_eq!(TraceLevel::Summary.to_string(), "summary");
    }
}
