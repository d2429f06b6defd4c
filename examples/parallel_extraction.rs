//! Parallel extraction: shard-parallel rule firings.
//!
//! Every step of a rule body maps one binding row to rows, so a firing
//! can be cut into row ranges of one of its scans and the ranges'
//! results unioned. The engine cuts each firing — extractions, joins,
//! recursion, the body of an aggregate alike — into ranges that the
//! calling thread and threads scoped to the firing claim one at a time;
//! an aggregate folds the ranges' rows on the calling thread. The
//! results are identical to a serial run.
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

    let busiest = session.export("?Load(u, n)")?;
    println!("per-unit error load:\n{busiest}");

    // The evaluation profile's `par:` line reports threads, shard
    // tasks and IE batches.
    if let Some(profile) = session.profile() {
        for line in profile.render().lines() {
            if line.trim_start().starts_with("par:") {
                println!("{line}");
            }
        }
    }
    Ok(())
}
