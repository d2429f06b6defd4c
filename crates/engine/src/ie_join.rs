//! The IE step of a rule body: a batch of binding rows joined with an
//! IE atom, one call per distinct argument vector. A call two sites share
//! is no concern of this step: the program reads it from a relation
//! (`crate::share`), and this step runs inside its one rule.

use crate::builtins;
use crate::error::{EngineError, Result};
use crate::eval::culprit_of;
use crate::ie::{IeContext, IeRows};
use crate::optimizer::TupleIndex;
use crate::plan::{cell, Batch, Columns, ExecCtx, PTerm, RulePlan, TraceCtx};
use spannerlib_core::{RowTable, Rows, Value};
use spannerlib_regex::prefilter;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Joins a batch with an IE atom `function(inputs) -> (outputs)`: every
/// binding row extended by the rows the function writes for its
/// argument vector (new output variables bind; bound ones and constants
/// filter). Rows are grouped by argument vector and each group is
/// answered once — but a constant-time builtin
/// ([`Registry::per_row`](crate::registry::Registry::per_row)) is called
/// once per row, which costs less than the grouping. Each call writes
/// its rows into one arena of the step ([`IeRows`]), which its binding
/// rows join before the next call reuses it; a row of the wrong arity
/// fails the step, and so does a call that panics: the panic stops at
/// the call ([`EngineError::IePanicked`]), on whichever lane it ran. IE
/// calls are where evaluation sinks open-ended time (user code, regex
/// scans): the wall-clock budget is checked before each, and a call may
/// ask it too ([`IeContext::deadline_passed`]).
pub(crate) fn ie_join(
    plan: &RulePlan,
    (function, inputs, outputs): (&str, &[PTerm], &[PTerm]),
    batch: &Batch,
    ctx: &ExecCtx<'_>,
    tr: &mut TraceCtx<'_>,
) -> Result<Rows> {
    let f = ctx.registry.ie(function)?;
    let var = |t: &PTerm| match t {
        PTerm::Var(v) => Some(*v),
        _ => None,
    };
    let arg_vars: Vec<usize> = inputs.iter().filter_map(var).collect();
    let (rows, n) = (&batch.rows, outputs.len());
    let grouped = !ctx.registry.per_row(function);
    let by_args = grouped.then(|| TupleIndex::build(rows, 0..rows.len(), &arg_vars));
    let groups = by_args.as_ref().map_or(rows.len(), TupleIndex::len);
    (tr.trace).parallel_summary(ctx.workers as u64, 0, 1);

    let cols = Columns::of(outputs, &batch.bound);
    let mut next = Rows::new(rows.width());
    // Output rows can repeat and a `_` can fold distinct ones: always
    // dedupe.
    let mut seen = Some(RowTable::default());
    // One group's output rows, as its call writes them.
    let mut returned = Rows::new(n);
    let mut call_args: Vec<Value> = Vec::with_capacity(inputs.len());
    for g in 0..groups {
        if let Some(d) = ctx.deadline {
            d.check(Some(plan))?;
        }
        let solo = [g];
        let members = by_args.as_ref().map_or(&solo[..], |ix| ix.group(g));
        let first = rows.row(members[0]);
        call_args.clear();
        call_args.extend(inputs.iter().map(|t| cell(t, first)).cloned());
        returned.clear();
        let t0 = tr.trace.now_ns();
        let mut call_ctx = IeContext::new(function, ctx.docs);
        call_ctx.deadline = ctx.deadline;
        let mut out = IeRows::new(function, &mut returned);
        // The call's regex searches run on this thread: they are its own.
        let call = || f.call(&call_args, &mut out, &mut call_ctx);
        let unassigned = builtins::unassigned_matches();
        let (called, searched) = prefilter::counted(|| catch_unwind(AssertUnwindSafe(call)));
        tr.trace.prefilter(searched.searches, searched.pruned);
        (tr.trace).unassigned_matches(builtins::unassigned_matches() - unassigned);
        let called = called.map_err(|panic| panicked(function, plan, panic))?;
        // A call failing past the deadline (`rgx_all` stops there) fails on it.
        if let (Err(_), Some(d)) = (&called, ctx.deadline) {
            d.check(Some(plan))?;
        }
        out.finish(called)?;
        tr.trace.ie_call(function, t0);
        for input in members.iter().map(|&r| rows.row(r)) {
            for out in returned.iter().filter(|out| cols.key_holds(input, out)) {
                cols.emit(input, out, &mut next, &mut seen);
            }
        }
    }
    Ok(next)
}

/// The error a panic of `function`'s body, firing `plan`, becomes.
fn panicked(function: &str, plan: &RulePlan, panic: Box<dyn std::any::Any + Send>) -> EngineError {
    let msg = (panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "a panic without a message".to_string());
    let (function, rule) = (function.to_string(), culprit_of(Some(plan)));
    EngineError::IePanicked {
        function,
        msg,
        rule,
    }
}
