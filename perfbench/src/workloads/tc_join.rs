//! `tc_join` — IE-free Datalog.
//!
//! `TC_PROGRAM` plus `Reach(x, count(y)) <- Path(x, y)` over a random
//! graph of 600 nodes and 1 200 edges (~220 k `Path` tuples), and
//! `JOIN_PROGRAM` over `load_join_workload(20 000)`; fresh `Session`
//! per unit. op = derived tuple exported.
//!
//! Why: only `engine` (semi-naive rounds, `plan.rs::run_steps`, index
//! cache, dedupe, aggregate) and `core::Relation` work; `regex`, `nlp`
//! and `cache` are bypassed. Batch-at-a-time execution shows here, and
//! an IE-side change must leave it flat. Recursion stresses the
//! fixpoint far harder than the covid program does.
//!
//! Oracle: `Path` equals reachability computed by a plain BFS in the
//! harness; `Reach` equals its per-source counts; `Q` has the row
//! count a nested loop in the harness finds.

use super::{
    cache_layers, engine_layers, layer_from_span, time_ms, trace_level, Layers, SpanMs, Workload,
};
use crate::corpus;
use crate::oracle;
use crate::spans::Recorder;
use spannerlib_bench::{load_edges, load_join_workload, JOIN_PROGRAM, TC_PROGRAM};
use spannerlog_engine::{CacheStats, EvalProfile, Session};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Graph nodes.
pub const NODES: usize = 600;
/// Graph edges.
pub const EDGES: usize = 1_200;
/// Rows of each big relation of the join workload.
pub const JOIN_ROWS: usize = 20_000;

const REACH_RULE: &str = "Reach(x, count(y)) <- Path(x, y)";

fn program() -> String {
    format!("{TC_PROGRAM}\n{REACH_RULE}\n{JOIN_PROGRAM}")
}

/// What one unit exported.
struct Exported {
    paths: Vec<(i64, i64)>,
    reach: Vec<(i64, i64)>,
    q: Vec<(i64, i64)>,
}

/// State of one run.
pub struct TcJoin {
    edges: Vec<(i64, i64)>,
    paths: Vec<(i64, i64)>,
    reach: BTreeMap<i64, i64>,
    q_rows: usize,
    traced: bool,
    last: Option<Exported>,
    profile: Option<Arc<EvalProfile>>,
    cache: CacheStats,
}

impl TcJoin {
    fn evaluate(&mut self, rec: &mut Recorder) -> Option<Exported> {
        let mut session = Session::builder().tracing(trace_level(self.traced)).build();
        rec.span("core.load_facts", || {
            load_edges(&mut session, &self.edges);
            load_join_workload(&mut session, JOIN_ROWS);
        });
        rec.span("engine.load_rules", || session.run(&program()))
            .ok()?;
        rec.span("engine.eval", || session.ensure_evaluated())
            .ok()?;
        let mut export = |query: &str| -> Option<Vec<(i64, i64)>> {
            let frame = rec.span("engine.export", || session.export(query)).ok()?;
            rec.span("dataframe.decode", || frame.to_typed::<(i64, i64)>())
                .ok()
        };
        let out = Exported {
            paths: export("?Path(x, y)")?,
            reach: export("?Reach(x, n)")?,
            q: export("?Q(x, z)")?,
        };
        if self.traced {
            self.profile = session.profile();
            self.cache = session.cache_stats();
        }
        Some(out)
    }

    fn tuples(&self) -> u64 {
        (self.paths.len() + self.reach.len() + self.q_rows) as u64
    }
}

impl Workload for TcJoin {
    const UNITS: usize = 14;

    fn setup(seed: u64, _units: usize) -> TcJoin {
        let edges = corpus::graph(NODES, EDGES, seed);
        let paths = oracle::reachability(&edges);
        let reach = oracle::reach_counts(&paths);
        let mut w = TcJoin {
            edges,
            paths,
            reach,
            q_rows: oracle::join_count(JOIN_ROWS),
            traced: false,
            last: None,
            profile: None,
            cache: CacheStats::default(),
        };
        w.last = w.evaluate(&mut Recorder::new(false));
        w
    }

    fn set_traced(&mut self, traced: bool) {
        self.traced = traced;
    }

    fn unit(&mut self, _index: usize, rec: &mut Recorder) {
        self.last = self.evaluate(rec);
    }

    fn verify(&mut self, _index: usize) -> (u64, u64) {
        let ops = self.tuples();
        let ok = self.last.take().is_some_and(|mut got| {
            got.paths.sort_unstable();
            let reach: BTreeMap<i64, i64> = got.reach.iter().copied().collect();
            let q: BTreeSet<(i64, i64)> = got.q.iter().copied().collect();
            got.paths == self.paths
                && reach == self.reach
                && got.reach.len() == reach.len()
                && q.len() == self.q_rows
                && got.q.len() == self.q_rows
                && q.iter().all(|&(x, z)| (0..5).contains(&z) && x % 50 == z)
        });
        (ops, if ok { 0 } else { ops })
    }

    fn layers(&mut self, spans: &SpanMs, _scale: f64) -> Layers {
        let mut layers = Layers::new();
        if let Some(profile) = &self.profile {
            engine_layers(&mut layers, profile);
        }
        cache_layers(&mut layers, &self.cache);
        layer_from_span(&mut layers, spans, "dataframe.import_ms", "core.load_facts");
        layer_from_span(
            &mut layers,
            spans,
            "dataframe.decode_ms",
            "dataframe.decode",
        );
        layer_from_span(&mut layers, spans, "engine.export_ms", "engine.export");
        let source = program();
        layers.insert(
            "parser.parse_ms",
            time_ms(5, || spannerlog_parser::parse_program(&source)),
        );
        let mut session = Session::new();
        let declared = session
            .run("new Edge(int, int) new A(int, int) new B(int, int) new C(int)")
            .is_ok();
        if declared && session.run(&source).is_ok() {
            layers.insert(
                "engine.prepare_ms",
                time_ms(1, || session.prepare_program().is_ok()),
            );
        }
        layers
    }

    fn sizes(&self) -> String {
        format!(
            "nodes={NODES} edges={EDGES} join_rows={JOIN_ROWS} tuples={}",
            self.tuples()
        )
    }
}
