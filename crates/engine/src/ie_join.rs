//! The IE step of a rule body: a batch of binding rows joined with an
//! IE atom, one call per distinct argument vector — through the run's
//! memo of shared calls when the planner marked the step as one.

use crate::builtins;
use crate::error::{EngineError, Result};
use crate::ie::IeContext;
use crate::optimizer::{SharedCall, TupleIndex};
use crate::plan::{cell, operand, Batch, Columns, ExecCtx, PTerm, RulePlan, TraceCtx};
use spannerlib_core::{RowTable, Rows, Value};
use spannerlib_regex::prefilter;
use spannerlib_trace::SpanKind;
use std::ops::Range;
use std::sync::atomic::Ordering;

/// Joins a batch with an IE atom `function(inputs) -> (outputs)`: every
/// binding row extended by the rows the function returns for its
/// argument vector (new output variables bind; bound ones and constants
/// filter). A *cacheable* function's results may be reused, so rows are
/// grouped by argument vector and each group is answered once; an
/// uncached one is called once per row.
///
/// The run's memo is the table of *shared calls*: only a step the
/// planner marked (`shared`, see `optimizer::share_calls`) of a
/// cacheable function reaches it. Such a step takes the memo lock once
/// to look every group up — by the borrowed cells of the group's first
/// row: a probe builds no key — and copy the rows of the hits into the
/// batch's own store, calls the misses with no lock held, and takes the
/// lock once more to store what they returned, narrowed to the rows
/// that hold the constants every site of the call reads. Any other step
/// calls every group and takes no lock. A row of the wrong arity fails
/// the step before its call is stored. IE calls are where evaluation
/// sinks open-ended time (user code, regex scans): the wall-clock budget
/// is checked before each.
pub(crate) fn ie_join(
    plan: &RulePlan,
    (function, inputs, outputs): (&str, &[PTerm], &[PTerm]),
    shared: Option<&SharedCall>,
    batch: &Batch,
    ctx: &ExecCtx<'_>,
    tr: &mut TraceCtx<'_>,
) -> Result<Rows> {
    let f = ctx.registry.ie(function)?;
    for t in inputs {
        let role = format_args!("input of IE function {function:?}");
        operand(plan, t, &batch.bound, role)?;
    }
    let var = |t: &PTerm| match t {
        PTerm::Var(v) => Some(*v),
        _ => None,
    };
    let arg_vars: Vec<usize> = inputs.iter().filter_map(var).collect();
    let (rows, n) = (&batch.rows, outputs.len());
    let by_args = (f.cacheable()).then(|| TupleIndex::build(rows, 0..rows.len(), &arg_vars));
    let groups = by_args.as_ref().map_or(rows.len(), |ix| ix.groups().len());
    let args = |g: usize| {
        let first = rows.row(by_args.as_ref().map_or(g, |ix| ix.groups()[g][0]));
        inputs.iter().map(move |t| cell(t, first))
    };
    ctx.tally.ie_batches.fetch_add(1, Ordering::Relaxed);
    // Error paths may leak `span`; RunTrace::finish (and, on shard
    // forks, merge_fork) closes leaked spans at the abort timestamp.
    let span = tr.trace.open(tr.parent, SpanKind::IeBatch, || {
        format!("{function} ×{groups}")
    });

    // The output rows of every group, and which of them are whose.
    let mut returned = Rows::new(n);
    let mut rows_of: Vec<Range<usize>> = vec![0..0; groups];
    let mut misses: Vec<usize> = Vec::new();
    let memo = shared
        .filter(|_| f.cacheable())
        .map(|call| (call, ctx.cache));
    let t0 = tr.trace.now_ns();
    let mut probe = memo.map(|(call, memo)| (call.id, memo.lock()));
    for (g, rows_of) in rows_of.iter_mut().enumerate() {
        let hit = probe
            .as_mut()
            .and_then(|(id, memo)| memo.lookup(*id, args(g), &mut returned));
        match hit {
            Some(hit) => *rows_of = hit,
            None => misses.push(g),
        }
    }
    drop(probe);
    let each = tr.trace.now_ns().saturating_sub(t0) / groups.max(1) as u64;
    (misses.len()..groups).for_each(|_| tr.trace.ie_call_ns(function, Some(true), each));

    let mut call_args: Vec<Value> = Vec::with_capacity(inputs.len());
    let mut called = 0;
    let outcome = misses.iter().try_for_each(|&g| {
        if let Some(d) = ctx.deadline {
            d.check(Some(plan))?;
        }
        call_args.clear();
        call_args.extend(args(g).cloned());
        let t0 = tr.trace.now_ns();
        // The call's regex searches run on this thread: they are its own.
        let call = || f.call(&call_args, n, &mut IeContext::new(ctx.docs));
        let unassigned = builtins::unassigned_matches();
        let (out, searched) = prefilter::counted(call);
        tr.trace.prefilter(searched.searches, searched.pruned);
        (tr.trace).unassigned_matches(builtins::unassigned_matches() - unassigned);
        let out = out?;
        tr.trace.ie_call(function, memo.map(|_| false), t0);
        if let Some(row) = out.iter().find(|row| row.len() != n) {
            return Err(EngineError::IeOutputArity {
                function: function.to_string(),
                expected: n,
                actual: row.len(),
            });
        }
        rows_of[g].start = returned.len();
        out.iter().for_each(|row| returned.push(row));
        rows_of[g].end = returned.len();
        called += 1;
        Ok(())
    });
    // What was paid for before a call failed is kept.
    if let Some((call, memo)) = memo {
        let mut memo = memo.lock();
        for &g in &misses[..called] {
            let read = returned
                .range(rows_of[g].clone())
                .filter(|row| call.keeps(row));
            memo.store(call.id, args(g), n, read);
        }
    }
    outcome?;

    let cols = Columns::of(outputs, &batch.bound);
    let mut next = Rows::new(rows.width());
    // Output rows can repeat and a `_` can fold distinct ones: always
    // dedupe.
    let mut seen = Some(RowTable::default());
    for (g, rows_of) in rows_of.into_iter().enumerate() {
        let solo = [g];
        let members = by_args.as_ref().map_or(&solo[..], |ix| &ix.groups()[g]);
        for input in members.iter().map(|&r| rows.row(r)) {
            let out_rows = returned.range(rows_of.clone());
            for out in out_rows.filter(|out| cols.key_holds(input, out)) {
                cols.emit(input, out, &mut next, &mut seen);
            }
        }
    }
    tr.trace.close(span);
    Ok(next)
}
