//! Parallel extraction: split-correct shard-parallel evaluation.
//!
//! Spanner programs whose rules extract from one document at a time
//! admit *split-correctness* (Doleschal, Kimelfeld, Martens, Nahshon,
//! Neven — "Split-Correctness in Information Extraction"): running the
//! extractor per document shard and unioning the outputs equals running
//! it over the whole corpus. The engine proves that property per rule
//! at compile time and cuts each firing of a cleared rule into row
//! ranges that the calling thread and threads scoped to the firing
//! claim one at a time; everything else silently falls back to the
//! serial path with identical results.
//!
//! Run with: `cargo run --example parallel_extraction`

use spannerlib::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A corpus large enough for sharding to matter: one synthetic
    // incident report per document.
    let corpus: Vec<(String, String)> = (0..64)
        .map(|i| {
            (
                format!("report-{i:03}"),
                format!(
                    "unit{u} reported error E{code} at node{n}; \
                     retry {r} succeeded for unit{u}",
                    u = i % 7,
                    code = 100 + (i * 13) % 40,
                    n = i % 5,
                    r = i % 3,
                ),
            )
        })
        .collect();

    // `parallelism` counts threads, the calling one included, and
    // defaults to one per core; 0 or 1 pins the session serial. Results
    // are identical either way — parallelism is property-tested to be
    // semantically invisible.
    let mut session = Session::builder()
        .parallelism(4)
        .tracing(TraceLevel::Summary)
        .build();
    session.import_typed("Texts", corpus)?;
    session.run(
        r#"
        Error(d, code) <- Texts(d, t), rgx_string("E([0-9]+)", t) -> (code)
        Unit(d, u) <- Texts(d, t), rgx_string("(unit[0-9]+)", t) -> (u)
        Blame(u, code) <- Unit(d, u), Error(d, code)
        Load(u, count(code)) <- Blame(u, code)
    "#,
    )?;

    // The compile-time verdicts: which rules shard, which run serial
    // (and why). The two `rgx_string` rules split the scan that binds
    // their text variable into row ranges; the join has no IE call to
    // parallelize, and the aggregation folds across documents.
    let program = session.prepare_program()?;
    println!("shard plan:");
    for rule in &program.program().shard_plan().rules {
        match (&rule.doc_var, rule.reason) {
            (Some(var), _) if rule.parallel => {
                println!("  parallel  {:<6} splits the scan of `{var}`", rule.head)
            }
            (_, Some(reason)) => println!("  serial    {:<6} {reason}", rule.head),
            _ => println!("  serial    {:<6}", rule.head),
        }
    }

    let busiest = session.export("?Load(u, n)")?;
    println!("\nper-unit error load:\n{busiest}");

    // The evaluation profile's `par:` line reports threads, shard
    // tasks, IE batches, and serial-fallback rule count.
    if let Some(profile) = session.profile() {
        for line in profile.render().lines() {
            if line.trim_start().starts_with("par:") {
                println!("{line}");
            }
        }
    }
    Ok(())
}
