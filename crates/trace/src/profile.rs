//! `EvalProfile`: the per-evaluation report — Spannerlog's
//! "EXPLAIN ANALYZE" — with a human-readable table renderer and a
//! JSON-lines exporter for offline analysis.

use crate::metrics::HistogramSnapshot;
use std::fmt::Write as _;

/// The profile of one fixpoint evaluation: totals, per-stratum and
/// per-rule breakdowns, and per-IE-function call statistics.
///
/// Obtain one from `Session::profile()` / `Snapshot::profile()` after
/// evaluating with tracing at [`TraceLevel::Summary`].
///
/// [`TraceLevel::Summary`]: crate::TraceLevel::Summary
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EvalProfile {
    /// Monotonic per-session evaluation sequence number (0 when the
    /// run was not attributed — e.g. constructed by hand).
    pub eval_seq: u64,
    /// Serving request ids attributed to this evaluation: `spannerd`
    /// attaches the one request that evaluated. Requests coalesced onto
    /// its result are not listed; `spannerd` counts them in its
    /// `execute_coalesced` metric. Empty outside serving.
    pub request_ids: Vec<String>,
    /// Total evaluation wall time, in nanoseconds.
    pub total_ns: u64,
    /// Rounds across all strata (a stratum without recursion takes one),
    /// but none of a stratum of the engine's own rules alone.
    pub rounds: u64,
    /// Rule-plan executions across all strata and rounds, but those of
    /// the engine's own rules (see `RunTrace::rule_fired`).
    pub rule_firings: u64,
    /// Tuples produced by rule heads (before deduplication).
    pub tuples_derived: u64,
    /// Tuples actually new to their relation.
    pub tuples_new: u64,
    /// Set when the run aborted (e.g. a limit was exceeded): the
    /// profile then reflects the *partial* progress up to the abort.
    pub error: Option<String>,
    /// Whether the run updated the previous result from the input rows
    /// that changed (maintained) instead of deriving everything again
    /// from the inputs (full).
    pub maintained: bool,
    /// Why a full run could not maintain the previous result (`None` for
    /// a maintained run, and for a profile built by hand).
    pub full_reason: Option<String>,
    /// Input rows a maintained run started from: added since the
    /// previous evaluation.
    pub seed_rows_added: u64,
    /// Input rows a maintained run started from: removed since the
    /// previous evaluation.
    pub seed_rows_removed: u64,
    /// Per-stratum breakdown, in execution order. The engine evaluates
    /// the finest stratification: one stratum per strongly connected
    /// component of the predicate dependency graph.
    pub strata: Vec<StratumProfile>,
    /// Per-IE-function call statistics, sorted by name.
    pub ie_functions: Vec<IeFunctionProfile>,
    /// Scan-join and anti-join index lookups answered by the run's
    /// index cache.
    pub index_hits: u64,
    /// Scan-join indexes the run actually built (cache misses).
    pub index_builds: u64,
    /// Regex searches that consulted a literal prefilter.
    pub prefilter_searches: u64,
    /// Prefiltered searches resolved to "no match" without running the
    /// regex VM at all.
    pub prefilter_pruned: u64,
    /// `rgx` / `rgx_string` matches that yielded no row because they
    /// left a capture group undefined (an optional group, one branch of
    /// an alternation).
    pub unassigned_matches: u64,
    /// Lanes rule firings ran their shards on, the calling thread
    /// included (zero = the run was fully serial and the `par:` line is
    /// omitted).
    pub par_workers: u64,
    /// Shard tasks executed by rule firings on more than one lane.
    pub par_shards: u64,
    /// IE-call batches executed across the run's rule firings.
    pub par_ie_batches: u64,
    /// Always 0. Shards are claimed from one counter, so no task ever
    /// migrates between queues; the field and its `par_stolen` JSON key
    /// stay only because `perfbench` (which a change may not edit
    /// without re-baselining) reads them. ROADMAP item 1(h) removes them.
    pub par_stolen: u64,
    /// Always 0: every rule firing may shard. Kept, with its
    /// `par_serial_rules` JSON key, only because `perfbench` reads them;
    /// ROADMAP item 1(h) removes them.
    pub par_serial_rules: u64,
}

/// One stratum's share of an [`EvalProfile`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StratumProfile {
    /// Position in the stratification (0-based).
    pub index: usize,
    /// Fixpoint rounds this stratum ran.
    pub rounds: u64,
    /// Wall time spent in this stratum, in nanoseconds.
    pub total_ns: u64,
    /// Per-rule breakdown, in plan order.
    pub rules: Vec<RuleProfile>,
}

/// One rule's share of an [`EvalProfile`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuleProfile {
    /// Head predicate name.
    pub head: String,
    /// The rule's source text (as reconstructed by the parser).
    pub source: String,
    /// 1-based source line of the rule.
    pub line: u32,
    /// Times the rule plan executed (once per round it participated in).
    pub firings: u64,
    /// Tuples its head produced (before deduplication).
    pub tuples_derived: u64,
    /// Tuples actually new to the head relation.
    pub tuples_new: u64,
    /// Candidate rows this rule's join steps examined: per binding row,
    /// a plain scan's whole range and the rows a keyed scan's probe
    /// found in it. However a firing is cut into shards, the sum is the
    /// same.
    pub join_rows_scanned: u64,
    /// Wall time across all firings, in nanoseconds.
    pub total_ns: u64,
    /// The step order the planner chose for the rule's first firing,
    /// with estimated input cardinalities (empty when the run was
    /// untraced, or for a hand-built plan without planner metadata).
    /// Steps that moved relative to the textual body are starred.
    pub plan: String,
}

/// One IE function's call statistics within an [`EvalProfile`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IeFunctionProfile {
    /// Registered function name.
    pub name: String,
    /// Executions of the function's body.
    pub calls: u64,
    /// Latency distribution of the calls, in nanoseconds.
    pub latency: HistogramSnapshot,
}

/// Version of the [`EvalProfile::to_json_lines`] record format,
/// stamped as `"schema"` on every emitted line. Bump when a field is
/// renamed or removed (additions are backward-compatible and don't
/// require a bump).
pub const PROFILE_JSON_SCHEMA: u32 = 3;

/// Formats nanoseconds compactly: `17ns`, `3.4µs`, `1.2ms`, `5.0s`.
pub fn fmt_ns(ns: u64) -> String {
    // A unit ends where its printed value would round up to 1000.0, so
    // 999 950 ns reads `1.0ms`, never `1000.0µs`.
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_949 => format!("{:.1}µs", ns as f64 / 1e3),
        999_950..=999_949_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

/// Escapes `s` as the contents of a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `s` as a JSON string literal, or `null`.
fn json_opt(s: &Option<String>) -> String {
    s.as_deref().map_or_else(|| "null".to_string(), json_str)
}

/// Pads `s` to `w` columns, left-aligned.
fn pad(s: &str, w: usize) -> String {
    format!("{s:<w$}")
}

/// Pads `s` to `w` columns, right-aligned.
fn rpad(s: &str, w: usize) -> String {
    format!("{s:>w$}")
}

impl EvalProfile {
    /// How the run reached its result, as the summary line prints it:
    /// `maintained (+24 −24 seed rows)` or `full (program changed)`.
    pub fn mode(&self) -> String {
        match (self.maintained, &self.full_reason) {
            (true, _) => format!(
                "maintained (+{} −{} seed rows)",
                self.seed_rows_added, self.seed_rows_removed
            ),
            (false, Some(reason)) => format!("full ({reason})"),
            (false, None) => "full".to_string(),
        }
    }

    /// Renders the profile as a fixed-width table — per-rule rows
    /// grouped by stratum, followed by per-IE-function rows.
    ///
    /// ```
    /// use spannerlib_trace::{EvalProfile, RuleProfile, StratumProfile};
    /// let profile = EvalProfile {
    ///     rounds: 2,
    ///     rule_firings: 2,
    ///     strata: vec![StratumProfile {
    ///         index: 0,
    ///         rounds: 2,
    ///         total_ns: 1_500,
    ///         rules: vec![RuleProfile {
    ///             head: "A".into(),
    ///             source: "A(x) <- B(x).".into(),
    ///             line: 1,
    ///             firings: 2,
    ///             tuples_derived: 10,
    ///             tuples_new: 7,
    ///             join_rows_scanned: 10,
    ///             total_ns: 1_000,
    ///             ..RuleProfile::default()
    ///         }],
    ///     }],
    ///     ..EvalProfile::default()
    /// };
    /// let table = profile.render();
    /// assert!(table.contains("A(x) <- B(x)."));
    /// assert!(table.contains("firings"));
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "evaluation: {} | {} | {} strata, {} rounds, {} firings, {} derived ({} new)",
            fmt_ns(self.total_ns),
            self.mode(),
            self.strata.len(),
            self.rounds,
            self.rule_firings,
            self.tuples_derived,
            self.tuples_new,
        );
        if let Some(err) = &self.error {
            let _ = writeln!(out, "aborted: {err} (profile shows partial progress)");
        }
        if !self.strata.is_empty() {
            let rule_w = self
                .strata
                .iter()
                .flat_map(|s| s.rules.iter())
                .map(|r| r.source.len().min(60))
                .chain(["rule".len()])
                .max()
                .unwrap_or(4);
            let _ = writeln!(
                out,
                "{} {} {} {} {} {} {}",
                pad("stratum", 8),
                pad("rule", rule_w),
                rpad("firings", 8),
                rpad("derived", 8),
                rpad("new", 8),
                rpad("scanned", 9),
                rpad("time", 9),
            );
            for stratum in &self.strata {
                for (i, rule) in stratum.rules.iter().enumerate() {
                    let tag = if i == 0 {
                        format!("{} ({}r)", stratum.index, stratum.rounds)
                    } else {
                        String::new()
                    };
                    let mut src = rule.source.clone();
                    if src.len() > 60 {
                        src.truncate(59);
                        src.push('…');
                    }
                    let _ = writeln!(
                        out,
                        "{} {} {} {} {} {} {}",
                        pad(&tag, 8),
                        pad(&src, rule_w),
                        rpad(&rule.firings.to_string(), 8),
                        rpad(&rule.tuples_derived.to_string(), 8),
                        rpad(&rule.tuples_new.to_string(), 8),
                        rpad(&rule.join_rows_scanned.to_string(), 9),
                        rpad(&fmt_ns(rule.total_ns), 9),
                    );
                    if !rule.plan.is_empty() {
                        let _ = writeln!(out, "{} plan: {}", pad("", 8), rule.plan);
                    }
                }
            }
        }
        if self.index_hits + self.index_builds > 0 || self.prefilter_searches > 0 {
            let rate = match (self.prefilter_pruned * 100).checked_div(self.prefilter_searches) {
                Some(pct) => format!(" ({pct}%)"),
                None => String::new(),
            };
            let _ = writeln!(
                out,
                "planner: {} indexes built, {} reused | prefilter: {} searches, {} pruned{}",
                self.index_builds,
                self.index_hits,
                self.prefilter_searches,
                self.prefilter_pruned,
                rate,
            );
        }
        if self.par_workers > 0 {
            let _ = writeln!(
                out,
                "par: {} workers | {} shard tasks, {} ie batches",
                self.par_workers, self.par_shards, self.par_ie_batches,
            );
        }
        if !self.ie_functions.is_empty() {
            let name_w = self
                .ie_functions
                .iter()
                .map(|f| f.name.len())
                .chain(["ie function".len()])
                .max()
                .unwrap_or(11);
            let _ = writeln!(
                out,
                "{} {} {} {} {}",
                pad("ie function", name_w),
                rpad("calls", 8),
                rpad("p50", 9),
                rpad("p99", 9),
                rpad("total", 9),
            );
            for f in &self.ie_functions {
                // Latency cells of an empty histogram are undefined, not
                // 0ns: quantiles have no samples and the sum timed
                // nothing. Render all of them as `-`.
                let cell = |ns: u64| -> String {
                    if f.latency.count == 0 {
                        "-".to_string()
                    } else {
                        fmt_ns(ns)
                    }
                };
                let _ = writeln!(
                    out,
                    "{} {} {} {} {}",
                    pad(&f.name, name_w),
                    rpad(&f.calls.to_string(), 8),
                    rpad(&cell(f.latency.p50()), 9),
                    rpad(&cell(f.latency.p99()), 9),
                    rpad(&cell(f.latency.sum), 9),
                );
            }
        }
        out
    }

    /// Exports the profile as JSON lines: one `profile` record, then
    /// one record per rule and IE function. Each line is a
    /// self-contained JSON object with a `"type"` discriminator and a
    /// `"schema"` version (`PROFILE_JSON_SCHEMA`), so the output
    /// streams into `jq`/pandas without a wrapping array and consumers
    /// of the slow-query log can detect format changes.
    ///
    /// ```
    /// use spannerlib_trace::EvalProfile;
    /// let lines = EvalProfile::default().to_json_lines();
    /// assert!(lines.starts_with("{\"type\":\"profile\",\"schema\":3"));
    /// assert_eq!(lines.trim_end().lines().count(), 1);
    /// ```
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        let request_ids = {
            let ids: Vec<String> = self.request_ids.iter().map(|id| json_str(id)).collect();
            format!("[{}]", ids.join(","))
        };
        let _ = writeln!(
            out,
            "{{\"type\":\"profile\",\"schema\":{PROFILE_JSON_SCHEMA},\
             \"eval_seq\":{},\"request_ids\":{},\
             \"total_ns\":{},\"rounds\":{},\
             \"rule_firings\":{},\"tuples_derived\":{},\"tuples_new\":{},\
             \"strata\":{},\"index_hits\":{},\
             \"index_builds\":{},\"prefilter_searches\":{},\
             \"prefilter_pruned\":{},\"unassigned_matches\":{},\
             \"par_workers\":{},\"par_shards\":{},\
             \"par_ie_batches\":{},\"par_stolen\":{},\
             \"par_serial_rules\":{},\"mode\":{},\"full_reason\":{},\
             \"seed_rows_added\":{},\"seed_rows_removed\":{},\"error\":{}}}",
            self.eval_seq,
            request_ids,
            self.total_ns,
            self.rounds,
            self.rule_firings,
            self.tuples_derived,
            self.tuples_new,
            self.strata.len(),
            self.index_hits,
            self.index_builds,
            self.prefilter_searches,
            self.prefilter_pruned,
            self.unassigned_matches,
            self.par_workers,
            self.par_shards,
            self.par_ie_batches,
            self.par_stolen,
            self.par_serial_rules,
            json_str(if self.maintained {
                "maintained"
            } else {
                "full"
            }),
            json_opt(&self.full_reason),
            self.seed_rows_added,
            self.seed_rows_removed,
            json_opt(&self.error),
        );
        for stratum in &self.strata {
            for rule in &stratum.rules {
                let _ = writeln!(
                    out,
                    "{{\"type\":\"rule\",\"schema\":{PROFILE_JSON_SCHEMA},\
                     \"stratum\":{},\"stratum_rounds\":{},\
                     \"head\":{},\"source\":{},\"line\":{},\"firings\":{},\
                     \"tuples_derived\":{},\"tuples_new\":{},\
                     \"join_rows_scanned\":{},\"total_ns\":{},\"plan\":{}}}",
                    stratum.index,
                    stratum.rounds,
                    json_str(&rule.head),
                    json_str(&rule.source),
                    rule.line,
                    rule.firings,
                    rule.tuples_derived,
                    rule.tuples_new,
                    rule.join_rows_scanned,
                    rule.total_ns,
                    json_str(&rule.plan),
                );
            }
        }
        for f in &self.ie_functions {
            let _ = writeln!(
                out,
                "{{\"type\":\"ie\",\"schema\":{PROFILE_JSON_SCHEMA},\
                 \"name\":{},\"calls\":{},\"p50_ns\":{},\"p90_ns\":{},\
                 \"p99_ns\":{},\"max_ns\":{},\"total_ns\":{}}}",
                json_str(&f.name),
                f.calls,
                f.latency.p50(),
                f.latency.p90(),
                f.latency.p99(),
                f.latency.max,
                f.latency.sum,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EvalProfile {
        let mut latency = HistogramSnapshot::default();
        latency.record(500);
        latency.record(2_000);
        EvalProfile {
            eval_seq: 42,
            request_ids: vec!["req-\"quoted\"".into()],
            total_ns: 5_000,
            rounds: 3,
            rule_firings: 4,
            tuples_derived: 20,
            tuples_new: 12,
            error: None,
            maintained: true,
            full_reason: None,
            seed_rows_added: 24,
            seed_rows_removed: 23,
            strata: vec![StratumProfile {
                index: 0,
                rounds: 3,
                total_ns: 4_000,
                rules: vec![RuleProfile {
                    head: "Out".into(),
                    source: "Out(x) <- In(x), f(x) -> (y).".into(),
                    line: 3,
                    firings: 4,
                    tuples_derived: 20,
                    tuples_new: 12,
                    join_rows_scanned: 40,
                    total_ns: 3_500,
                    plan: "In[10] ⋈ f()".into(),
                }],
            }],
            ie_functions: vec![IeFunctionProfile {
                name: "f".into(),
                calls: 2,
                latency,
            }],
            index_hits: 6,
            index_builds: 2,
            prefilter_searches: 10,
            prefilter_pruned: 4,
            unassigned_matches: 5,
            par_workers: 4,
            par_shards: 8,
            par_ie_batches: 3,
            par_stolen: 0,
            par_serial_rules: 0,
        }
    }

    #[test]
    fn render_mentions_every_section() {
        let table = sample().render();
        assert!(table.contains("Out(x) <- In(x), f(x) -> (y)."));
        assert!(table.contains("ie function"));
        assert!(table.contains("plan: In[10] ⋈ f()"));
        assert!(table.contains("planner: 2 indexes built, 6 reused"));
        assert!(table.contains("prefilter: 10 searches, 4 pruned (40%)"));
        assert!(table.contains("par: 4 workers | 8 shard tasks, 3 ie batches\n"));
    }

    #[test]
    fn summary_line_and_json_say_which_path_ran() {
        let maintained = sample();
        assert!(maintained
            .render()
            .lines()
            .next()
            .unwrap()
            .contains("| maintained (+24 −23 seed rows) |"));
        let line = maintained.to_json_lines();
        assert!(line.contains(
            "\"mode\":\"maintained\",\"full_reason\":null,\"seed_rows_added\":24,\"seed_rows_removed\":23"
        ));
        let full = EvalProfile {
            maintained: false,
            full_reason: Some("program changed".into()),
            ..sample()
        };
        assert!(full.render().contains("| full (program changed) |"));
        assert!(full
            .to_json_lines()
            .contains("\"mode\":\"full\",\"full_reason\":\"program changed\""));
    }

    #[test]
    fn render_skips_par_line_for_serial_runs() {
        let mut p = sample();
        p.par_workers = 0;
        assert!(!p.render().contains("par:"));
        // But the JSON keeps the fields for uniform downstream parsing.
        assert!(p.to_json_lines().contains("\"par_workers\":0"));
    }

    #[test]
    fn render_dashes_empty_latency_quantiles() {
        // An IE function registered but never timed (e.g. an aborted
        // run) has an empty histogram: its quantiles are undefined and
        // must render as `-`, not `0ns`.
        let mut p = sample();
        p.ie_functions[0].latency = HistogramSnapshot::default();
        let table = p.render();
        let ie_row = table.lines().find(|l| l.starts_with('f')).unwrap();
        assert!(ie_row.contains('-'), "expected dashes in: {ie_row}");
        assert!(!ie_row.contains("0ns"), "expected no 0ns in: {ie_row}");
        // Non-empty histograms keep real quantiles.
        assert!(sample().render().contains("µs"));
    }

    #[test]
    fn render_skips_planner_line_when_planner_off() {
        let mut p = sample();
        p.index_hits = 0;
        p.index_builds = 0;
        p.prefilter_searches = 0;
        p.prefilter_pruned = 0;
        assert!(!p.render().contains("planner:"));
    }

    #[test]
    fn render_reports_aborts() {
        let mut p = sample();
        p.error = Some("limit exceeded".into());
        assert!(p.render().contains("aborted: limit exceeded"));
    }

    #[test]
    fn json_lines_are_one_record_per_entity() {
        let lines: Vec<String> = sample()
            .to_json_lines()
            .trim_end()
            .lines()
            .map(String::from)
            .collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"type\":\"profile\""));
        assert!(lines[0].contains("\"schema\":3"));
        assert!(lines[0].contains("\"eval_seq\":42"));
        assert!(lines[0].contains("\"unassigned_matches\":5,"));
        assert!(lines[0].contains("\"request_ids\":[\"req-\\\"quoted\\\"\"]"));
        assert!(lines.iter().all(|l| l.contains("\"schema\":3")));
        assert!(lines[1].contains("\"type\":\"rule\""));
        assert!(lines[2].contains("\"type\":\"ie\""));
    }

    #[test]
    fn fmt_ns_picks_sane_units() {
        assert_eq!(fmt_ns(17), "17ns");
        assert_eq!(fmt_ns(3_400), "3.4µs");
        assert_eq!(fmt_ns(1_200_000), "1.2ms");
        assert_eq!(fmt_ns(5_000_000_000), "5.00s");
        // The unit is chosen from the rounded value at both boundaries.
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_000), "1.0µs");
        assert_eq!(fmt_ns(999_949), "999.9µs");
        assert_eq!(fmt_ns(999_950), "1.0ms");
        assert_eq!(fmt_ns(1_000_000), "1.0ms");
        assert_eq!(fmt_ns(999_949_999), "999.9ms");
        assert_eq!(fmt_ns(999_950_000), "1.00s");
        assert_eq!(fmt_ns(999_999_999), "1.00s");
        assert_eq!(fmt_ns(1_000_000_000), "1.00s");
    }
}
