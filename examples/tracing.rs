//! Observability with `spannerlib_trace`: per-rule profiling.
//!
//! Datalog hides the execution plan on purpose — which is exactly why a
//! slow program is hard to reason about from the rules alone. The trace
//! subsystem answers "where did the time go" without changing results:
//!
//! * `SessionBuilder::tracing(TraceLevel)` — `Off` (default, a few
//!   dormant probes) or `Summary` (per-rule counters and wall times);
//! * `Session::profile()` — the `EvalProfile` of the latest fixpoint,
//!   renderable as a table or exportable as JSON lines.
//!
//! Run with: `cargo run --example tracing`

use spannerlib::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build: profile every evaluation.
    let mut session = Session::builder().tracing(TraceLevel::Summary).build();

    // 2. A program with something to measure: recursive reachability
    //    plus a regex extraction, so the profile shows joins, rounds,
    //    and IE calls.
    session.import_typed(
        "Texts",
        vec![
            ("d1", "ann@gmail.com wrote to bob@work.org"),
            ("d2", "eve@mail.net cc ann@gmail.com"),
        ],
    )?;
    session.run(
        r#"
        new Edge(int, int)
        Edge(1, 2) Edge(2, 3) Edge(3, 4) Edge(4, 5)
        Path(x, y) <- Edge(x, y)
        Path(x, z) <- Path(x, y), Edge(y, z)
        Email(d, usr, dom) <- Texts(d, t), rgx_string("(\w+)@(\w+)\.\w+", t) -> (usr, dom).
    "#,
    )?;
    session.export("?Path(x, y)")?;

    // 3. The profile: per-stratum, per-rule wall times, firings, tuple
    //    and join-row counts, per-IE-function body calls and latency.
    let profile = session.profile().expect("tracing is on");
    let table = profile.render();
    println!("{table}");
    for rule in ["Path(x, z) <- Path(x, y), Edge(y, z)", "Email(d, usr, dom)"] {
        assert!(table.contains(rule), "the table lists {rule}:\n{table}");
    }
    let rgx = profile.ie_functions.iter().find(|f| f.name == "rgx_string");
    assert!(rgx.is_some_and(|f| f.calls >= 1), "rgx_string was called");

    // 4. The same data as JSON lines, for offline analysis.
    let json = profile.to_json_lines();
    println!("-- first two JSON records --");
    for line in json.lines().take(2) {
        println!("{line}");
    }
    let first = json.lines().next().unwrap_or_default();
    assert!(
        first.starts_with(r#"{"type":"profile","schema":3,"#),
        "{first}"
    );
    Ok(())
}
