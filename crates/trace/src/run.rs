//! `RunTrace`: the single-threaded collector the engine threads through
//! one fixpoint evaluation. It accumulates per-rule / per-stratum /
//! per-IE counters and wall times, and is folded into an
//! [`EvalProfile`] when the run finishes.

use crate::profile::{EvalProfile, IeFunctionProfile, RuleProfile, StratumProfile};
use crate::span::TraceLevel;
use std::collections::BTreeMap;
use std::time::Instant;

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
/// let mut trace = RunTrace::new(TraceLevel::Summary);
/// let rule = trace.register_rule(0, "Out", "Out(x) <- In(x).", 1);
/// trace.round(0);
/// let t0 = trace.now_ns();
/// // ... execute the rule plan ...
/// trace.rule_fired(rule, 10, 7, t0, true);
/// let profile = trace.finish(None).unwrap();
/// assert_eq!(profile.rule_firings, 1);
/// assert_eq!(profile.strata[0].rules[0].tuples_new, 7);
/// ```
#[derive(Debug)]
pub struct RunTrace {
    level: TraceLevel,
    epoch: Instant,
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
    prefilter_searches: u64,
    prefilter_pruned: u64,
    unassigned_matches: u64,
    par_workers: u64,
    par_shards: u64,
    par_ie_batches: u64,
}

impl RunTrace {
    /// A collector for one run at `level`.
    pub fn new(level: TraceLevel) -> RunTrace {
        RunTrace {
            level,
            epoch: Instant::now(),
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
        RunTrace::new(TraceLevel::Off)
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
    /// [`RunTrace::now_ns`] timestamp taken before the firing). Only a
    /// `counted` firing adds to the run's `rule_firings`.
    pub fn rule_fired(&mut self, rule: usize, derived: u64, new: u64, t0: u64, counted: bool) {
        if !self.enabled() {
            return;
        }
        let dur = self.now_ns().saturating_sub(t0);
        self.totals.rule_firings += u64::from(counted);
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

    /// Accumulates the run's regex prefilter totals: searches that
    /// consulted a literal prefilter, and those it pruned.
    pub fn prefilter(&mut self, searches: u64, pruned: u64) {
        if !self.enabled() {
            return;
        }
        self.totals.prefilter_searches += searches;
        self.totals.prefilter_pruned += pruned;
    }

    /// Accumulates the run's regex matches that yielded no row because
    /// they left a capture group undefined.
    pub fn unassigned_matches(&mut self, matches: u64) {
        if !self.enabled() {
            return;
        }
        self.totals.unassigned_matches += matches;
    }

    /// Records one execution of an IE function's body, timed from `t0`.
    pub fn ie_call(&mut self, function: &str, t0: u64) {
        if !self.enabled() {
            return;
        }
        let dur_ns = self.now_ns().saturating_sub(t0);
        let entry = self
            .ie
            .entry(function.to_string())
            .or_insert_with(|| IeFunctionProfile {
                name: function.to_string(),
                ..IeFunctionProfile::default()
            });
        entry.calls += 1;
        entry.latency.record(dur_ns);
    }

    /// Accumulates one parallel-evaluation summary: lanes the shards
    /// ran on (`workers`, the calling thread included; kept as a max),
    /// shard tasks executed, and IE batches. The engine reports each
    /// where it happens — a firing its shards, an IE step its batch —
    /// and the run its lanes. Work on fewer than two lanes is serial
    /// and records nothing.
    pub fn parallel_summary(&mut self, workers: u64, shards: u64, ie_batches: u64) {
        if !self.enabled() || workers < 2 {
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
    /// [`RunTrace::merge_fork`] folds back into a real rule.
    pub fn fork(&self) -> RunTrace {
        RunTrace {
            level: self.level,
            epoch: self.epoch,
            strata: Vec::new(),
            rules: vec![RuleProfile::default()],
            ie: BTreeMap::new(),
            totals: EvalTotals::default(),
            eval_seq: 0,
            request_ids: Vec::new(),
        }
    }

    /// Folds a shard fork back into this run: the fork's anonymous rule
    /// counters are charged to rule `rule`, its run totals (IE batches
    /// included) add to this run's, and its IE profiles merge into
    /// this run's. Call serially (after the parallel scope), in a
    /// deterministic shard order.
    pub fn merge_fork(&mut self, rule: usize, fork: RunTrace) {
        if !self.enabled() {
            return;
        }
        let shard_rule = &fork.rules[0];
        self.totals.rule_firings += fork.totals.rule_firings;
        self.totals.tuples_derived += fork.totals.tuples_derived;
        self.totals.tuples_new += fork.totals.tuples_new;
        self.prefilter(fork.totals.prefilter_searches, fork.totals.prefilter_pruned);
        self.unassigned_matches(fork.totals.unassigned_matches);
        let par = &fork.totals;
        self.parallel_summary(par.par_workers, par.par_shards, par.par_ie_batches);
        if let Some(r) = self.rules.get_mut(rule) {
            r.firings += shard_rule.firings;
            r.tuples_derived += shard_rule.tuples_derived;
            r.tuples_new += shard_rule.tuples_new;
            r.join_rows_scanned += shard_rule.join_rows_scanned;
            r.total_ns += shard_rule.total_ns;
        }
        for (name, profile) in fork.ie {
            let entry = self.ie.entry(name).or_insert_with(|| IeFunctionProfile {
                name: profile.name.clone(),
                ..IeFunctionProfile::default()
            });
            entry.calls += profile.calls;
            entry.latency.merge(&profile.latency);
        }
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

    /// Ends the run and assembles the [`EvalProfile`] — `None` when
    /// disabled. `error` marks an aborted run (the profile then shows
    /// the partial progress).
    pub fn finish(self, error: Option<String>) -> Option<EvalProfile> {
        if !self.enabled() {
            return None;
        }
        let total_ns = self.now_ns();
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
            index_hits: self.totals.index_hits,
            index_builds: self.totals.index_builds,
            prefilter_searches: self.totals.prefilter_searches,
            prefilter_pruned: self.totals.prefilter_pruned,
            unassigned_matches: self.totals.unassigned_matches,
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
        trace.rule_fired(rule, 5, 5, 0, true);
        trace.ie_call("f", 0);
        trace.plan_chosen(rule, || unreachable!());
        trace.index_cache(3, 1);
        assert!(trace.finish(None).is_none());
    }

    #[test]
    fn summary_run_accumulates_per_rule_and_per_ie() {
        let mut trace = RunTrace::new(TraceLevel::Summary);
        let r0 = trace.register_rule(0, "A", "A(x) <- B(x).", 1);
        let r1 = trace.register_rule(1, "C", "C(x) <- A(x).", 2);
        trace.round(0);
        trace.round(0);
        trace.round(1);
        trace.rule_fired(r0, 10, 6, trace.now_ns(), true);
        trace.rule_fired(r0, 4, 0, trace.now_ns(), true);
        trace.rule_fired(r1, 6, 6, trace.now_ns(), true);
        trace.join_scanned(r0, 14);
        trace.ie_call("f", trace.now_ns());
        trace.ie_call("f", trace.now_ns());
        trace.ie_call("g", trace.now_ns());
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
        assert_eq!((f.name.as_str(), f.calls), ("f", 2));
    }

    #[test]
    fn plan_chosen_keeps_first_and_index_totals_accumulate() {
        let mut trace = RunTrace::new(TraceLevel::Summary);
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
    fn fork_merges_counters_ie_and_spans_back() {
        let mut trace = RunTrace::new(TraceLevel::Summary);
        let r = trace.register_rule(0, "A", "A(x) <- B(x).", 1);
        trace.join_scanned(r, 5);
        trace.ie_call("f", trace.now_ns());

        let mut fork = trace.fork();
        fork.join_scanned(0, 7);
        fork.prefilter(3, 2);
        fork.ie_call("f", fork.now_ns());
        fork.ie_call("g", fork.now_ns());

        trace.merge_fork(r, fork);
        let p = trace.finish(None).unwrap();
        assert_eq!(p.strata[0].rules[0].join_rows_scanned, 12);
        assert_eq!((p.prefilter_searches, p.prefilter_pruned), (3, 2));
        let f = p.ie_functions.iter().find(|i| i.name == "f").unwrap();
        assert_eq!(f.calls, 2);
        assert!(p.ie_functions.iter().any(|i| i.name == "g"));
    }

    #[test]
    fn parallel_summary_accumulates_and_reaches_the_profile() {
        let mut trace = RunTrace::new(TraceLevel::Summary);
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
    fn serial_summaries_record_nothing_and_forks_fold_theirs() {
        let mut trace = RunTrace::new(TraceLevel::Summary);
        trace.parallel_summary(1, 3, 1);
        trace.parallel_summary(0, 0, 1);
        let mut fork = trace.fork();
        fork.parallel_summary(2, 0, 1);
        fork.parallel_summary(2, 0, 1);
        trace.merge_fork(0, fork);
        trace.parallel_summary(2, 4, 0);
        let p = trace.finish(None).unwrap();
        assert_eq!((p.par_workers, p.par_shards, p.par_ie_batches), (2, 4, 2));
    }
}
