//! Cost-based planner integration tests, through a session: index
//! reuse across fixpoint rounds, trace surfacing of plan choices, and
//! the regex prefilter counters in the profile. The step ordering and
//! the scan routes are tested on plans inside the crate
//! (`src/plan/tests.rs`): only the engine builds the plans that run.

use spannerlib_trace::TraceLevel;
use spannerlog_engine::Session;

#[test]
fn planner_session_reuses_indexes_and_reports_plans() {
    let program = "new Edge(int, int)
Edge(1, 2) Edge(2, 3) Edge(3, 4) Edge(4, 5) Edge(5, 6)
Path(x, y) <- Edge(x, y)
Path(x, z) <- Path(x, y), Edge(y, z)";
    let mut on = Session::builder().tracing(TraceLevel::Summary).build();
    on.run(program).unwrap();
    assert_eq!(on.relation("Path").unwrap().len(), 15);
    let profile = on.profile().expect("summary tracing yields a profile");
    assert!(profile.index_builds > 0, "planner builds scan indexes");
    assert!(
        profile.index_hits > 0,
        "fixpoint rounds must reuse the Edge index (builds={}, hits={})",
        profile.index_builds,
        profile.index_hits
    );
    let table = profile.render();
    assert!(table.contains("plan:"), "per-rule plan lines:\n{table}");
    assert!(table.contains("indexes built"), "planner summary:\n{table}");
}

#[test]
fn prefilter_counters_reach_the_profile() {
    // A literal-prefixed pattern over non-matching documents: every
    // search is prefilter-pruned, and the deltas land in the profile.
    let program = r#"new Texts(str)
Texts("nothing to see") Texts("still nothing")
Hit(s) <- Texts(t), rgx("zebra+", t) -> (s)"#;
    let mut session = Session::builder().tracing(TraceLevel::Summary).build();
    session.run(program).unwrap();
    session.export("?Hit(s)").unwrap();
    let profile = session.profile().unwrap();
    assert!(
        profile.prefilter_searches > 0,
        "rgx must route through the prefilter"
    );
    assert!(profile.prefilter_pruned > 0);
    assert!(profile.render().contains("prefilter:"));
}

/// Two sessions evaluating at once, on two threads: the regex searches
/// one runs while the other sits inside an IE call never land in the
/// other's profile.
#[test]
fn prefilter_counters_stay_with_the_session_that_searched() {
    use std::sync::{Arc, Barrier};
    let traced = || {
        let builder = Session::builder().tracing(TraceLevel::Summary);
        builder.parallelism(0).build()
    };
    let (inside, done) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
    let mut quiet = traced();
    let (held, released) = (Arc::clone(&inside), Arc::clone(&done));
    quiet.register("hold", Some(1), move |args, out, _| {
        held.wait();
        released.wait();
        out.push(args)
    });
    quiet
        .run("new S(int)\nS(1)\nH(y) <- S(x), hold(x) -> (y)")
        .unwrap();
    let busy = std::thread::spawn(move || {
        let mut busy = traced();
        let program = r#"new Docs(str)
Docs("id 42 and id 7") Docs("no ids here")
N(n) <- Docs(t), rgx_string("id ([0-9]+)", t) -> (n)"#;
        busy.run(program).unwrap();
        inside.wait();
        let evaluated = busy.ensure_evaluated();
        done.wait();
        evaluated.unwrap();
        busy.profile().unwrap().prefilter_searches
    });
    quiet.ensure_evaluated().unwrap();
    assert!(busy.join().unwrap() > 0, "rgx_string searched");
    assert_eq!(quiet.profile().unwrap().prefilter_searches, 0);
}
