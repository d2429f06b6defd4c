//! A firing cut into shards: which scan is cut, the per-shard run of
//! that scan, the steps after it and the head projection, and the fold
//! of an aggregate head over every shard's rows.

use crate::error::Result;
use crate::ie::{IeContext, SharedDocs};
use crate::plan::{
    run_steps, scan_source, scan_step, Batch, Columns, ExecCtx, HeadOut, RulePlan, Source, Step,
    TraceCtx,
};
use crate::registry::Registry;
use rustc_hash::FxHashMap;
use spannerlib_core::{sort_order, Relation, Rows, Value};
use std::ops::Range;

/// The position in `order` of the scan a firing shards: the first that
/// `scan_join` reads as a plain pass over a row range — no constant
/// among its terms, no variable an earlier step binds. `None` when no
/// scan qualifies.
pub(crate) fn shard_scan(plan: &RulePlan, order: &[usize]) -> Option<usize> {
    let n_vars = plan.var_names.len();
    let mut prefix = Batch {
        rows: Rows::new(n_vars),
        bound: vec![false; n_vars],
    };
    order.iter().position(|&i| {
        let step = &plan.steps[i];
        let plain = matches!(step, Step::Scan { terms, .. }
            if Columns::of(terms, &prefix.bound).key.is_empty());
        prefix.bind(step);
        plain
    })
}

/// Runs the sharded part of a firing — `order[0]`, the scan it shards,
/// the steps after it and the head projection — once per shard,
/// returning the head rows of each, in shard order. A shard is a
/// contiguous range of the row ids that scan reads: of its source when
/// the firing restricts that scan, else of the whole relation (sources
/// of other scans hold alongside). A rule body maps a binding row to rows
/// against relations that are complete while the rule fires, so the
/// shards' rows together are the firing's, however the range is cut.
/// Shards borrow `batch`, what the steps before left. One shard — fewer
/// than two lanes, a single row to scan — runs on the calling thread;
/// more fork a trace each, run on `spannerlib_par::map_ranges` lanes,
/// and merge traces back in shard order, the first error in that stable
/// order winning.
pub(crate) fn run_sharded(
    plan: &RulePlan,
    order: &[usize],
    batch: &Batch,
    relations: &FxHashMap<String, Relation>,
    ctx: &ExecCtx<'_>,
    tr: &mut TraceCtx<'_>,
) -> Result<Vec<Rows>> {
    let scan = &plan.steps[order[0]];
    let Step::Scan { relation, terms } = scan else {
        unreachable!("a firing shards at a scan (`shard_scan`)");
    };
    let Some((rel, source)) = scan_source(order[0], relation, relations, ctx) else {
        return Ok(Vec::new());
    };
    let scanned = source.rows_of(rel);
    if batch.rows.is_empty() || scanned.is_empty() {
        return Ok(Vec::new());
    }
    let shard = |range: Range<usize>, tr: &mut TraceCtx<'_>| -> Result<Rows> {
        let source = Source {
            range,
            ..source.clone()
        };
        let mut shard = Batch {
            rows: scan_step(plan, (relation, terms), batch, Some((rel, source)), ctx, tr)?,
            bound: batch.bound.clone(),
        };
        shard.bind(scan);
        let shard = run_steps(plan, &order[1..], shard, relations, ctx, tr)?;
        Ok(project_head(plan, &shard))
    };
    if ctx.workers < 2 || scanned.len() < 2 {
        return shard(scanned, tr).map(|rows| vec![rows]);
    }
    let trace = &*tr.trace;
    let shards = spannerlib_par::map_ranges(ctx.workers, scanned, |range| {
        let mut fork = trace.fork();
        let mut shard_tr = TraceCtx {
            trace: &mut fork,
            rule: 0,
        };
        let rows = shard(range, &mut shard_tr);
        (rows, fork)
    });
    (tr.trace).parallel_summary(ctx.workers as u64, shards.len() as u64, 0);
    let mut results = Vec::new();
    for (rows, fork) in shards {
        tr.trace.merge_fork(tr.rule, fork);
        results.push(rows);
    }
    results.into_iter().collect()
}

/// Projects a batch through the head, a row per binding row: one cell
/// per head column, where an aggregate column takes its variable's.
/// Runs once per shard; [`fold_aggregates`] groups what every shard
/// projected.
pub(crate) fn project_head(plan: &RulePlan, batch: &Batch) -> Rows {
    let mut out = Rows::new(plan.head.len());
    for row in batch.rows.iter() {
        out.push(plan.head.iter().map(|h| match h {
            HeadOut::Const(c) => c,
            HeadOut::Var(v) | HeadOut::Aggregate { var: v, .. } => &row[*v],
        }));
    }
    out
}

/// The head rows of a firing from what its shards projected: the pieces
/// themselves, or — when the head aggregates — one row per group. It
/// runs once, on the caller, over the pieces where they lie: one
/// [`sort_order`] pass orders every shard's rows by the key columns (the
/// non-aggregate head columns), then the aggregate columns, so a group
/// is a run of rows and a repeated (key, agg-vars) projection follows
/// its twin, both told apart by the packed keys where those decide.
/// Each aggregate folds the distinct projections of its group — set
/// semantics (README, *Evaluation*) — as values sorted after their
/// conversions, in an order the cut does not decide.
pub(crate) fn fold_aggregates(
    plan: &RulePlan,
    pieces: Vec<Rows>,
    docs: &SharedDocs,
    registry: &Registry,
) -> Result<Vec<Rows>> {
    if !plan.has_aggregation() {
        return Ok(pieces);
    }
    let mut rows: Vec<&[Value]> = Vec::with_capacity(pieces.iter().map(Rows::len).sum());
    rows.extend(pieces.iter().flat_map(Rows::iter));
    let is_key = |c: &usize| !matches!(plan.head[*c], HeadOut::Aggregate { .. });
    let (key_cols, agg_cols): (Vec<usize>, Vec<usize>) = (0..plan.head.len()).partition(is_key);
    let cols = [key_cols.as_slice(), &agg_cols].concat();
    let order = sort_order(&rows, &cols);
    // Head column `c` is the order's column `at_of[c]`.
    let mut at_of = vec![0; cols.len()];
    cols.iter().enumerate().for_each(|(at, &c)| at_of[c] = at);
    let cell = |pos: usize, c: usize| order.value(&rows, pos, at_of[c]);
    let mut out = Rows::new(plan.head.len());
    // Where in the order the distinct projections of the group being
    // read sit.
    let mut group: Vec<usize> = Vec::new();
    for (pos, (_, shared)) in order.iter_shared(&rows).enumerate() {
        if shared < key_cols.len() && !group.is_empty() {
            out.push(&fold_group(plan, &group, &cell, docs, registry)?);
            group.clear();
        }
        if shared < cols.len() {
            group.push(pos);
        }
    }
    if !group.is_empty() {
        out.push(&fold_group(plan, &group, &cell, docs, registry)?);
    }
    Ok(vec![out])
}

/// The head row of one group from its distinct (key, agg-vars)
/// projections: `cell(pos, c)` is head column `c` of the one at `pos`.
fn fold_group(
    plan: &RulePlan,
    group: &[usize],
    cell: &dyn Fn(usize, usize) -> Value,
    docs: &SharedDocs,
    registry: &Registry,
) -> Result<Vec<Value>> {
    let mut tuple = Vec::with_capacity(plan.head.len());
    for (c, h) in plan.head.iter().enumerate() {
        let HeadOut::Aggregate {
            func, conversions, ..
        } = h
        else {
            tuple.push(cell(group[0], c));
            continue;
        };
        let mut values: Vec<Value> = group.iter().map(|&pos| cell(pos, c)).collect();
        // Conversions apply innermost-first; they are stored
        // outermost-first as written.
        for conv_name in conversions.iter().rev() {
            let conv = registry.conversion(conv_name)?;
            let ctx = IeContext::new(conv_name, docs);
            values = values
                .iter()
                .map(|v| conv.convert(v, &ctx))
                .collect::<Result<_>>()?;
        }
        // A fold that is not associative (a float sum) sees its values
        // in one order however the firing was cut: sorted.
        values.sort_unstable();
        tuple.push(registry.aggregate(func)?.apply(&values)?);
    }
    Ok(tuple)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PTerm;

    /// Where [`shard_scan`] cuts a firing: `order` over a plan of
    /// `steps` on variables `0..4`.
    fn shard_at(steps: Vec<Step>, order: &[usize]) -> Option<usize> {
        let plan = RulePlan {
            head_predicate: "H".into(),
            steps,
            head: Vec::new(),
            var_names: ["a", "b", "c", "d"].map(String::from).to_vec(),
            line: 1,
            source: String::new(),
            dependencies: Vec::new(),
        };
        shard_scan(&plan, order)
    }

    fn scan(relation: &str, terms: &[PTerm]) -> Step {
        let (relation, terms) = (relation.to_string(), terms.to_vec());
        Step::Scan { relation, terms }
    }

    /// A firing shards its first scan in plan order that reads a plain
    /// row range, and nothing when every scan is keyed.
    #[test]
    fn shard_scan_takes_the_first_plain_scan() {
        let (v, ignore) = (PTerm::Var, PTerm::Const(Value::str("ignore")));
        // `IgnoredSection(d, x) <- Notes(d, t), note_sections(t) -> (x, c),
        // SectionPolicy(c, "ignore")` with the constant-keyed lookup
        // ordered first: the lookup is keyed, so `Notes` is cut.
        let notes = scan("Notes", &[v(0), v(1)]);
        let sections = Step::Ie {
            function: "note_sections".into(),
            inputs: vec![v(1)],
            outputs: vec![v(2), v(3)],
        };
        let policy = scan("SectionPolicy", &[v(3), ignore]);
        let steps = vec![notes, sections, policy];
        assert_eq!(shard_at(steps, &[2, 0, 1]), Some(1));
        // The delta variant of `Path(x, z) <- Edge(x, y), Path(y, z)`:
        // the planner puts the delta first, and `Edge` is then keyed on
        // `y`.
        let steps = vec![scan("Edge", &[v(0), v(1)]), scan("Path", &[v(1), v(2)])];
        assert_eq!(shard_at(steps, &[1, 0]), Some(0));
        // Every scan keyed: by a constant, then by a bound variable.
        let one = PTerm::Const(Value::Int(1));
        let steps = vec![scan("R", &[one, v(0)]), scan("S", &[v(0), v(1)])];
        assert_eq!(shard_at(steps, &[0, 1]), None);
    }
}
