//! `RunTrace`: the single-threaded collector the engine threads through
//! one fixpoint evaluation. It accumulates per-rule / per-stratum /
//! per-IE counters and (at [`TraceLevel::Spans`]) timed span events,
//! and is folded into an [`EvalProfile`] when the run finishes.

use crate::profile::{EvalProfile, IeFunctionProfile, RuleProfile, StratumProfile};
use crate::ring::SpanRing;
use crate::span::{SpanEvent, SpanId, SpanKind, TraceLevel, NO_SPAN};
use std::collections::BTreeMap;
use std::time::Instant;

/// Default byte budget for the per-run span ring buffer (256 KiB —
/// roughly a few thousand spans).
pub const DEFAULT_SPAN_BUFFER_BYTES: usize = 256 * 1024;

/// A span opened but not yet closed.
#[derive(Debug)]
struct OpenSpan {
    id: SpanId,
    parent: SpanId,
    kind: SpanKind,
    label: String,
    start_ns: u64,
}

/// Per-stratum accumulator.
#[derive(Debug, Default)]
struct StratumAcc {
    rounds: u64,
    total_ns: u64,
    /// Indices into `RunTrace::rules` for the rules of this stratum.
    rules: Vec<usize>,
}

/// The mutable trace state of one evaluation run.
///
/// All methods are no-ops when the level is [`TraceLevel::Off`], so the
/// engine can call them unconditionally; the off-path cost is a branch.
/// Durations are measured by taking a timestamp with [`RunTrace::now_ns`]
/// before the work and passing it back to the recording call, which
/// computes the elapsed time itself:
///
/// ```
/// use spannerlib_trace::{RunTrace, TraceLevel};
/// let mut trace = RunTrace::new(TraceLevel::Summary, 0);
/// let rule = trace.register_rule(0, "Out", "Out(x) <- In(x).", 1);
/// trace.round(0);
/// let t0 = trace.now_ns();
/// // ... execute the rule plan ...
/// trace.rule_fired(rule, 10, 7, t0);
/// let profile = trace.finish(None).unwrap();
/// assert_eq!(profile.rule_firings, 1);
/// assert_eq!(profile.strata[0].rules[0].tuples_new, 7);
/// ```
#[derive(Debug)]
pub struct RunTrace {
    level: TraceLevel,
    epoch: Instant,
    next_span: SpanId,
    open: Vec<OpenSpan>,
    ring: SpanRing,
    strata: Vec<StratumAcc>,
    rules: Vec<RuleProfile>,
    ie: BTreeMap<String, IeFunctionProfile>,
    totals: EvalTotals,
    eval_seq: u64,
    request_ids: Vec<String>,
}

#[derive(Debug, Default)]
struct EvalTotals {
    rounds: u64,
    rule_firings: u64,
    tuples_derived: u64,
    tuples_new: u64,
    index_hits: u64,
    index_builds: u64,
    par_workers: u64,
    par_shards: u64,
    par_ie_batches: u64,
}

impl RunTrace {
    /// A collector for one run at `level`. `span_budget_bytes` bounds
    /// the span ring buffer; `0` selects [`DEFAULT_SPAN_BUFFER_BYTES`].
    /// Below [`TraceLevel::Spans`] no ring memory is reserved.
    pub fn new(level: TraceLevel, span_budget_bytes: usize) -> RunTrace {
        let budget = if !level.records_spans() {
            0
        } else if span_budget_bytes == 0 {
            DEFAULT_SPAN_BUFFER_BYTES
        } else {
            span_budget_bytes
        };
        RunTrace {
            level,
            epoch: Instant::now(),
            next_span: NO_SPAN,
            open: Vec::new(),
            ring: SpanRing::new(budget),
            strata: Vec::new(),
            rules: Vec::new(),
            ie: BTreeMap::new(),
            totals: EvalTotals::default(),
            eval_seq: 0,
            request_ids: Vec::new(),
        }
    }

    /// A collector that records nothing ([`TraceLevel::Off`]).
    pub fn disabled() -> RunTrace {
        RunTrace::new(TraceLevel::Off, 0)
    }

    /// Attributes this run to its serving context: the session's eval
    /// sequence number and the request ids whose work the (possibly
    /// coalesced) evaluation performs. Both land verbatim on the
    /// resulting [`EvalProfile`]. No-op at [`TraceLevel::Off`].
    pub fn serving_context(&mut self, eval_seq: u64, request_ids: Vec<String>) {
        if !self.enabled() {
            return;
        }
        self.eval_seq = eval_seq;
        self.request_ids = request_ids;
    }

    /// The level this run records at.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// Whether any profiling is happening (level ≥ `Summary`).
    pub fn enabled(&self) -> bool {
        self.level.summarizes()
    }

    /// Nanoseconds since this run's epoch; `0` when disabled, so the
    /// off-path never touches the clock.
    pub fn now_ns(&self) -> u64 {
        if self.enabled() {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Registers one rule of `stratum` for profiling and returns its
    /// handle for [`RunTrace::rule_fired`] / [`RunTrace::join_scanned`].
    /// Returns `0` when disabled (all recording calls then no-op).
    pub fn register_rule(&mut self, stratum: usize, head: &str, source: &str, line: u32) -> usize {
        if !self.enabled() {
            return 0;
        }
        while self.strata.len() <= stratum {
            let index = self.strata.len();
            self.strata.push(StratumAcc::default());
            self.strata[index].rules = Vec::new();
        }
        let id = self.rules.len();
        self.rules.push(RuleProfile {
            head: head.to_string(),
            source: source.to_string(),
            line,
            ..RuleProfile::default()
        });
        self.strata[stratum].rules.push(id);
        id
    }

    /// Counts one fixpoint round of `stratum`.
    pub fn round(&mut self, stratum: usize) {
        if !self.enabled() {
            return;
        }
        self.totals.rounds += 1;
        if let Some(acc) = self.strata.get_mut(stratum) {
            acc.rounds += 1;
        }
    }

    /// Records one firing of rule `rule` (a handle from
    /// [`RunTrace::register_rule`]): `derived` head tuples produced,
    /// `new` of them actually new, timed from `t0` (a
    /// [`RunTrace::now_ns`] timestamp taken before the firing).
    pub fn rule_fired(&mut self, rule: usize, derived: u64, new: u64, t0: u64) {
        if !self.enabled() {
            return;
        }
        let dur = self.now_ns().saturating_sub(t0);
        self.totals.rule_firings += 1;
        self.totals.tuples_derived += derived;
        self.totals.tuples_new += new;
        if let Some(r) = self.rules.get_mut(rule) {
            r.firings += 1;
            r.tuples_derived += derived;
            r.tuples_new += new;
            r.total_ns += dur;
        }
    }

    /// Charges `rows` scanned by a join step to rule `rule`.
    pub fn join_scanned(&mut self, rule: usize, rows: u64) {
        if !self.enabled() {
            return;
        }
        if let Some(r) = self.rules.get_mut(rule) {
            r.join_rows_scanned += rows;
        }
    }

    /// Records the step order the planner chose for rule `rule`. Only
    /// the *first* firing's plan is kept — it is the one computed with
    /// full relation cardinalities; later semi-naive delta variants
    /// re-plan against near-empty deltas and would overwrite it with a
    /// degenerate picture. The label closure only runs when the plan is
    /// actually recorded.
    pub fn plan_chosen(&mut self, rule: usize, label: impl FnOnce() -> String) {
        if !self.enabled() {
            return;
        }
        if let Some(r) = self.rules.get_mut(rule) {
            if r.plan.is_empty() {
                r.plan = label();
            }
        }
    }

    /// Accumulates the run's scan-index cache totals (hits = lookups
    /// answered from cache, builds = indexes constructed).
    pub fn index_cache(&mut self, hits: u64, builds: u64) {
        if !self.enabled() {
            return;
        }
        self.totals.index_hits += hits;
        self.totals.index_builds += builds;
    }

    /// Records one IE-function invocation: `memo_hit` is `Some(true)`
    /// for a cache hit, `Some(false)` for a miss, `None` when the call
    /// bypassed the memo (uncacheable or no cache configured); timed
    /// from `t0`.
    pub fn ie_call(&mut self, function: &str, memo_hit: Option<bool>, t0: u64) {
        if !self.enabled() {
            return;
        }
        let dur = self.now_ns().saturating_sub(t0);
        self.ie_call_ns(function, memo_hit, dur);
    }

    /// Like [`RunTrace::ie_call`] but with a pre-measured duration — for
    /// calls timed on a worker thread and recorded serially afterwards.
    pub fn ie_call_ns(&mut self, function: &str, memo_hit: Option<bool>, dur_ns: u64) {
        if !self.enabled() {
            return;
        }
        let entry = self
            .ie
            .entry(function.to_string())
            .or_insert_with(|| IeFunctionProfile {
                name: function.to_string(),
                ..IeFunctionProfile::default()
            });
        entry.calls += 1;
        match memo_hit {
            Some(true) => entry.memo_hits += 1,
            Some(false) | None => entry.memo_misses += 1,
        }
        entry.latency.record(dur_ns);
    }

    /// Accumulates one parallel-evaluation summary: lanes the shards
    /// ran on (`workers`, the calling thread included; kept as a max),
    /// shard tasks executed, and IE batches.
    pub fn parallel_summary(&mut self, workers: u64, shards: u64, ie_batches: u64) {
        if !self.enabled() {
            return;
        }
        self.totals.par_workers = self.totals.par_workers.max(workers);
        self.totals.par_shards += shards;
        self.totals.par_ie_batches += ie_batches;
    }

    /// A detached collector for one worker-thread shard of a parallel
    /// rule firing. The fork shares this run's level and epoch (so its
    /// timestamps land on the same axis) but owns all of its state;
    /// slot `0` is its single anonymous rule accumulator, which
    /// [`RunTrace::merge_fork`] folds back into a real rule. Forks get a
    /// small private span ring — shards are short-lived and merged
    /// eagerly, so they never need the full run budget.
    pub fn fork(&self) -> RunTrace {
        let budget = if self.level.records_spans() {
            64 * 1024
        } else {
            0
        };
        RunTrace {
            level: self.level,
            epoch: self.epoch,
            next_span: NO_SPAN,
            open: Vec::new(),
            ring: SpanRing::new(budget),
            strata: Vec::new(),
            rules: vec![RuleProfile::default()],
            ie: BTreeMap::new(),
            totals: EvalTotals::default(),
            eval_seq: 0,
            request_ids: Vec::new(),
        }
    }

    /// Folds a shard fork back into this run: the fork's anonymous rule
    /// counters are charged to rule `rule`, its IE profiles merge into
    /// this run's, and its span events are renumbered into this run's id
    /// space with their roots re-parented under `parent`. Call serially
    /// (after the parallel scope), in a deterministic shard order.
    pub fn merge_fork(&mut self, rule: usize, parent: SpanId, mut fork: RunTrace) {
        if !self.enabled() {
            return;
        }
        // Close anything the shard left open (e.g. its error path).
        let end = fork.now_ns();
        while let Some(span) = fork.open.pop() {
            fork.ring.push(SpanEvent {
                id: span.id,
                parent: span.parent,
                kind: span.kind,
                label: span.label,
                start_ns: span.start_ns,
                duration_ns: end.saturating_sub(span.start_ns),
            });
        }
        let shard_rule = &fork.rules[0];
        self.totals.rule_firings += fork.totals.rule_firings;
        self.totals.tuples_derived += fork.totals.tuples_derived;
        self.totals.tuples_new += fork.totals.tuples_new;
        if let Some(r) = self.rules.get_mut(rule) {
            r.firings += shard_rule.firings;
            r.tuples_derived += shard_rule.tuples_derived;
            r.tuples_new += shard_rule.tuples_new;
            r.join_rows_scanned += shard_rule.join_rows_scanned;
            r.total_ns += shard_rule.total_ns;
        }
        for (name, profile) in std::mem::take(&mut fork.ie) {
            let entry = self.ie.entry(name).or_insert_with(|| IeFunctionProfile {
                name: profile.name.clone(),
                ..IeFunctionProfile::default()
            });
            entry.calls += profile.calls;
            entry.memo_hits += profile.memo_hits;
            entry.memo_misses += profile.memo_misses;
            entry.latency.merge(&profile.latency);
        }
        let offset = self.next_span;
        for mut event in fork.ring.drain() {
            event.id += offset;
            event.parent = if event.parent == NO_SPAN {
                parent
            } else {
                event.parent + offset
            };
            self.ring.push(event);
        }
        self.ring.add_dropped(fork.ring.dropped());
        self.next_span += fork.next_span;
    }

    /// Charges wall time from `t0` to `stratum` (call when the stratum
    /// reaches fixpoint or the run aborts inside it).
    pub fn stratum_done(&mut self, stratum: usize, t0: u64) {
        if !self.enabled() {
            return;
        }
        let dur = self.now_ns().saturating_sub(t0);
        if let Some(acc) = self.strata.get_mut(stratum) {
            acc.total_ns += dur;
        }
    }

    /// Opens a span under `parent` ([`NO_SPAN`] for the root). The
    /// label closure only runs when spans are recorded, so the off- and
    /// summary-paths never format strings. Returns [`NO_SPAN`] when
    /// spans are off — safe to pass to [`RunTrace::close`] and as a
    /// `parent`.
    pub fn open(
        &mut self,
        parent: SpanId,
        kind: SpanKind,
        label: impl FnOnce() -> String,
    ) -> SpanId {
        if !self.level.records_spans() {
            return NO_SPAN;
        }
        self.next_span += 1;
        let id = self.next_span;
        let start_ns = self.now_ns();
        self.open.push(OpenSpan {
            id,
            parent,
            kind,
            label: label(),
            start_ns,
        });
        id
    }

    /// Closes span `id`, recording its event in the ring buffer.
    /// Closing [`NO_SPAN`] or an unknown id is a no-op.
    pub fn close(&mut self, id: SpanId) {
        if id == NO_SPAN {
            return;
        }
        // Spans close in stack order in practice, so scan from the end.
        let Some(pos) = self.open.iter().rposition(|s| s.id == id) else {
            return;
        };
        let span = self.open.swap_remove(pos);
        let end = self.now_ns();
        self.ring.push(SpanEvent {
            id: span.id,
            parent: span.parent,
            kind: span.kind,
            label: span.label,
            start_ns: span.start_ns,
            duration_ns: end.saturating_sub(span.start_ns),
        });
    }

    /// Ends the run and assembles the [`EvalProfile`] — `None` when
    /// disabled. `error` marks an aborted run (the profile then shows
    /// the partial progress); any spans still open (unwound by the
    /// abort) are closed at the finish timestamp.
    pub fn finish(mut self, error: Option<String>) -> Option<EvalProfile> {
        if !self.enabled() {
            return None;
        }
        let total_ns = self.now_ns();
        // Close leaked spans innermost-first so parents outlive children.
        while let Some(span) = self.open.pop() {
            self.ring.push(SpanEvent {
                id: span.id,
                parent: span.parent,
                kind: span.kind,
                label: span.label,
                start_ns: span.start_ns,
                duration_ns: total_ns.saturating_sub(span.start_ns),
            });
        }
        let spans_dropped = self.ring.dropped();
        let mut spans = self.ring.drain();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let rules = self.rules;
        let strata = self
            .strata
            .into_iter()
            .enumerate()
            .map(|(index, acc)| StratumProfile {
                index,
                rounds: acc.rounds,
                total_ns: acc.total_ns,
                rules: acc.rules.iter().map(|&i| rules[i].clone()).collect(),
            })
            .collect();
        Some(EvalProfile {
            level: self.level,
            eval_seq: self.eval_seq,
            request_ids: self.request_ids,
            total_ns,
            rounds: self.totals.rounds,
            rule_firings: self.totals.rule_firings,
            tuples_derived: self.totals.tuples_derived,
            tuples_new: self.totals.tuples_new,
            error,
            // Filled by the session, which knows which path it took.
            maintained: false,
            full_reason: None,
            seed_rows_added: 0,
            seed_rows_removed: 0,
            strata,
            ie_functions: self.ie.into_values().collect(),
            spans,
            spans_dropped,
            index_hits: self.totals.index_hits,
            index_builds: self.totals.index_builds,
            // Filled by the session from the regex crate's process-wide
            // prefilter counters (the trace crate never sees regexes).
            prefilter_searches: 0,
            prefilter_pruned: 0,
            par_workers: self.totals.par_workers,
            par_shards: self.totals.par_shards,
            par_ie_batches: self.totals.par_ie_batches,
            par_stolen: 0,
            par_serial_rules: 0,
        })
    }
}

impl Default for RunTrace {
    fn default() -> Self {
        RunTrace::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_run_is_free_and_yields_no_profile() {
        let mut trace = RunTrace::disabled();
        assert!(!trace.enabled());
        assert_eq!(trace.now_ns(), 0);
        let rule = trace.register_rule(0, "A", "A(x) <- B(x).", 1);
        trace.round(0);
        trace.rule_fired(rule, 5, 5, 0);
        trace.ie_call("f", Some(true), 0);
        trace.plan_chosen(rule, || unreachable!());
        trace.index_cache(3, 1);
        let id = trace.open(NO_SPAN, SpanKind::Execute, || unreachable!());
        assert_eq!(id, NO_SPAN);
        trace.close(id);
        assert!(trace.finish(None).is_none());
    }

    #[test]
    fn summary_run_accumulates_per_rule_and_per_ie() {
        let mut trace = RunTrace::new(TraceLevel::Summary, 0);
        let r0 = trace.register_rule(0, "A", "A(x) <- B(x).", 1);
        let r1 = trace.register_rule(1, "C", "C(x) <- A(x).", 2);
        trace.round(0);
        trace.round(0);
        trace.round(1);
        trace.rule_fired(r0, 10, 6, trace.now_ns());
        trace.rule_fired(r0, 4, 0, trace.now_ns());
        trace.rule_fired(r1, 6, 6, trace.now_ns());
        trace.join_scanned(r0, 14);
        trace.ie_call("f", Some(false), trace.now_ns());
        trace.ie_call("f", Some(true), trace.now_ns());
        trace.ie_call("g", None, trace.now_ns());
        let p = trace.finish(None).unwrap();
        assert_eq!(p.rounds, 3);
        assert_eq!(p.rule_firings, 3);
        assert_eq!(p.tuples_derived, 20);
        assert_eq!(p.tuples_new, 12);
        assert_eq!(p.strata.len(), 2);
        assert_eq!(p.strata[0].rounds, 2);
        assert_eq!(p.strata[0].rules[0].firings, 2);
        assert_eq!(p.strata[0].rules[0].join_rows_scanned, 14);
        assert_eq!(p.strata[1].rules[0].head, "C");
        assert_eq!(p.ie_functions.len(), 2);
        let f = &p.ie_functions[0];
        assert_eq!(
            (f.name.as_str(), f.calls, f.memo_hits, f.memo_misses),
            ("f", 2, 1, 1)
        );
        // Summary level records no span events.
        assert!(p.spans.is_empty());
    }

    #[test]
    fn plan_chosen_keeps_first_and_index_totals_accumulate() {
        let mut trace = RunTrace::new(TraceLevel::Summary, 0);
        let r = trace.register_rule(0, "A", "A(x) <- B(x).", 1);
        trace.plan_chosen(r, || "B[5]".into());
        // A semi-naive delta re-plan must not overwrite the full plan.
        trace.plan_chosen(r, || "B[0]".into());
        trace.index_cache(3, 1);
        trace.index_cache(2, 0);
        let p = trace.finish(None).unwrap();
        assert_eq!(p.strata[0].rules[0].plan, "B[5]");
        assert_eq!((p.index_hits, p.index_builds), (5, 1));
    }

    #[test]
    fn spans_nest_and_leaked_spans_close_on_finish() {
        let mut trace = RunTrace::new(TraceLevel::Spans, 0);
        let root = trace.open(NO_SPAN, SpanKind::Execute, || "eval".into());
        let stratum = trace.open(root, SpanKind::Stratum, || "stratum 0".into());
        let round = trace.open(stratum, SpanKind::Round, || "round 1".into());
        trace.close(round);
        // `stratum` and `root` leak (as on an abort path).
        let p = trace.finish(Some("boom".into())).unwrap();
        assert_eq!(p.spans.len(), 3);
        assert_eq!(p.error.as_deref(), Some("boom"));
        let root_ev = p
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::Execute)
            .unwrap();
        let stratum_ev = p
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::Stratum)
            .unwrap();
        let round_ev = p.spans.iter().find(|s| s.kind == SpanKind::Round).unwrap();
        assert_eq!(stratum_ev.parent, root_ev.id);
        assert_eq!(round_ev.parent, stratum_ev.id);
        assert!(root_ev.duration_ns >= stratum_ev.duration_ns);
    }

    #[test]
    fn fork_merges_counters_ie_and_spans_back() {
        let mut trace = RunTrace::new(TraceLevel::Spans, 0);
        let r = trace.register_rule(0, "A", "A(x) <- B(x).", 1);
        let root = trace.open(NO_SPAN, SpanKind::Rule, || "A".into());
        trace.join_scanned(r, 5);
        trace.ie_call("f", Some(true), trace.now_ns());

        let mut fork = trace.fork();
        let shard = fork.open(NO_SPAN, SpanKind::Shard, || "shard 0".into());
        let batch = fork.open(shard, SpanKind::IeBatch, || "f".into());
        fork.close(batch);
        fork.close(shard);
        fork.join_scanned(0, 7);
        fork.ie_call_ns("f", Some(false), 123);
        fork.ie_call_ns("g", None, 456);

        trace.merge_fork(r, root, fork);
        trace.close(root);
        let p = trace.finish(None).unwrap();
        assert_eq!(p.strata[0].rules[0].join_rows_scanned, 12);
        let f = p.ie_functions.iter().find(|i| i.name == "f").unwrap();
        assert_eq!((f.calls, f.memo_hits, f.memo_misses), (2, 1, 1));
        assert!(p.ie_functions.iter().any(|i| i.name == "g"));
        // Fork spans are renumbered into the parent id space and the
        // shard root hangs off the rule span.
        assert_eq!(p.spans.len(), 3);
        let rule_ev = p.spans.iter().find(|s| s.kind == SpanKind::Rule).unwrap();
        let shard_ev = p.spans.iter().find(|s| s.kind == SpanKind::Shard).unwrap();
        let batch_ev = p
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::IeBatch)
            .unwrap();
        assert_eq!(shard_ev.parent, rule_ev.id);
        assert_eq!(batch_ev.parent, shard_ev.id);
        let mut ids: Vec<_> = p.spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 3, "merged span ids must stay unique");
    }

    #[test]
    fn parallel_summary_accumulates_and_reaches_the_profile() {
        let mut trace = RunTrace::new(TraceLevel::Summary, 0);
        trace.parallel_summary(4, 6, 2);
        trace.parallel_summary(4, 2, 1);
        let p = trace.finish(None).unwrap();
        assert_eq!(p.par_workers, 4);
        assert_eq!(p.par_shards, 8);
        assert_eq!(p.par_ie_batches, 3);
        assert_eq!(p.par_stolen, 0);
        assert_eq!(p.par_serial_rules, 0);
    }

    #[test]
    fn span_budget_bounds_memory() {
        let mut trace = RunTrace::new(TraceLevel::Spans, 2_048);
        for i in 0..1_000 {
            let id = trace.open(NO_SPAN, SpanKind::Round, || format!("round {i}"));
            trace.close(id);
        }
        let p = trace.finish(None).unwrap();
        assert!(p.spans_dropped > 0);
        let resident: usize = p.spans.iter().map(|s| s.bytes()).sum();
        assert!(resident <= 2_048);
    }
}
