//! `serve_churn` — the `spannerd` write path: the same layers as
//! `serve_read`, used the other way.
//!
//! 240 unique notes are served. Each unit (cycle) replaces 24 of them
//! with fresh ones, `POST /import`s the whole `Notes` relation (~95 KB
//! body — `/import` replaces the relation, so the write cannot be
//! chunked) and `POST /execute`s `?Status(d, s)`, which forces the
//! coalesced re-evaluation (90 % IE-memo hits) and returns the fresh
//! result. op = cycle; latency = import sent → fresh result received
//! (write-to-visible).
//!
//! Why: it makes the `serve` JSON parser, the writer queue, the
//! `engine`'s re-evaluation and `cache::IeMemo` carry the run where
//! `serve_read` uses none of them, so a read-path gain that taxes
//! writes — or a memo change that helps churn and costs cold
//! `covid_batch` — shows.
//!
//! Oracle (outside the timed window): the returned `Status` equals the
//! native classification of the *current* 240 notes, every cycle.

use super::daemon::{Daemon, Scrape};
use super::{layer_from_span, time_ms, Layers, SpanMs, Workload};
use crate::corpus;
use crate::oracle::{self, Json, ServeTruth};
use crate::spans::Recorder;
use spannerlib_covid::corpus::CorpusDoc;
use spannerlib_covid::native::NativePipeline;
use spannerlib_covid::spanner::SpannerPipeline;

/// Notes served at any time.
pub const NOTES: usize = 240;
/// Notes replaced per cycle.
pub const REPLACED: usize = 24;

const STATUS_BODY: &str = r#"{"prepared":"status"}"#;

/// One cycle, prepared during set-up so that the timed window holds
/// only the two round trips.
struct Cycle {
    import_body: String,
    expected: Vec<(String, String)>,
}

/// State of one run.
pub struct ServeChurn {
    daemon: Daemon,
    /// `cycles[0]` is the warm-up; timed unit `i` is `cycles[i + 1]`.
    cycles: Vec<Cycle>,
    last: (u16, String, u16),
    metrics_at_start: Scrape,
}

/// The `/import` body for `notes`, rendered by the serve crate's own
/// encoder (so strings are escaped the way its parser expects).
fn import_body(notes: &[CorpusDoc]) -> String {
    use spannerlib_serve::Json as Wire;
    Wire::Obj(vec![
        ("relation".into(), Wire::str("Notes")),
        (
            "rows".into(),
            Wire::Arr(
                notes
                    .iter()
                    .map(|d| Wire::Arr(vec![Wire::str(d.id.as_str()), Wire::str(d.text.as_str())]))
                    .collect(),
            ),
        ),
    ])
    .render()
}

impl ServeChurn {
    fn cycle(&mut self, index: usize, rec: &mut Recorder) -> (u16, String, u16) {
        let Cycle { import_body, .. } = &self.cycles[index];
        let open = rec.enter("serve.import_rtt");
        let (imported, _) = self.daemon.post("/import", import_body);
        rec.exit(open);
        let open = rec.enter("serve.execute_after_write");
        let (status, body) = self.daemon.post("/execute", STATUS_BODY);
        rec.exit(open);
        (status, body, imported)
    }

    fn fresh(&self, index: usize, (status, body, imported): &(u16, String, u16)) -> bool {
        *imported == 200
            && *status == 200
            && oracle::status_rows(body).as_ref() == Some(&self.cycles[index].expected)
    }
}

impl Workload for ServeChurn {
    const UNITS: usize = 100;

    fn setup(seed: u64, units: usize) -> ServeChurn {
        // One cycle more than is timed: the first is the warm-up.
        let pool = corpus::covid_notes(NOTES + REPLACED * (units + 1), 0, seed);
        let native = NativePipeline::new();
        let mut current: Vec<CorpusDoc> = pool[..NOTES].to_vec();

        let mut pipeline = SpannerPipeline::new().expect("pipeline builds");
        pipeline
            .classify_corpus(&current)
            .expect("corpus classifies in-process");
        let mut daemon = Daemon::start(pipeline.into_session(), 4 * 1024 * 1024);
        let (status, reply) =
            daemon.post("/prepare", r#"{"name":"status","query":"?Status(d, s)"}"#);
        assert_eq!(status, 200, "prepare status: {reply}");

        let mut cycles = Vec::with_capacity(units + 1);
        for (c, fresh) in pool[NOTES..].chunks(REPLACED).enumerate() {
            let at = (c * REPLACED) % NOTES;
            current[at..at + REPLACED].clone_from_slice(fresh);
            cycles.push(Cycle {
                import_body: import_body(&current),
                expected: ServeTruth::of(&native.classify_corpus(&current)).status,
            });
        }
        let mut w = ServeChurn {
            daemon,
            cycles,
            last: (0, String::new(), 0),
            metrics_at_start: Scrape::default(),
        };
        let warm = w.cycle(0, &mut Recorder::new(false));
        assert!(
            w.fresh(0, &warm),
            "warm-up cycle answered {} / {}",
            warm.2,
            warm.0
        );
        w.metrics_at_start = w.daemon.scrape();
        w
    }

    fn unit(&mut self, index: usize, rec: &mut Recorder) {
        self.last = self.cycle(index + 1, rec);
    }

    fn verify(&mut self, index: usize) -> (u64, u64) {
        let last = std::mem::take(&mut self.last);
        (1, u64::from(!self.fresh(index + 1, &last)))
    }

    fn layers(&mut self, spans: &SpanMs, _scale: f64) -> Layers {
        let mut layers = Layers::new();
        layer_from_span(
            &mut layers,
            spans,
            "serve.import_rtt_ms",
            "serve.import_rtt",
        );
        layer_from_span(
            &mut layers,
            spans,
            "serve.execute_after_write_ms",
            "serve.execute_after_write",
        );
        let after = self.daemon.scrape();
        let since = |name: &str| after.sum(name, "") - self.metrics_at_start.sum(name, "");
        let evals = since("evals_total");
        layers.insert("serve.evals", evals);
        layers.insert("serve.coalesced", since("execute_coalesced"));
        if evals > 0.0 {
            layers.insert(
                "engine.eval_ms",
                since("eval_duration_ns_sum") / evals / 1e6,
            );
        }
        layers.insert(
            "serve.server.request_p50_ms",
            after.quantile_since(
                &self.metrics_at_start,
                "http_request_duration_ns",
                "route=\"/import\"",
                0.5,
            ) / 1e6,
        );

        // The memo's counters, as the server reports them.
        if let Some(cache) = Json::parse(&self.daemon.get("/profile").1)
            .as_ref()
            .and_then(|p| p.get("cache"))
        {
            let number = |key: &str| match cache.get(key) {
                Some(Json::Num(n)) => *n,
                _ => 0.0,
            };
            layers.insert("cache.memo.hits", number("hits"));
            layers.insert("cache.memo.misses", number("misses"));
            layers.insert("cache.memo.hit_ratio", number("hit_rate"));
            layers.insert(
                "cache.memo.resident_mb",
                number("bytes") / (1024.0 * 1024.0),
            );
        }

        // The parser that carries the cycle, called directly.
        let body = &self.cycles[0].import_body;
        let parse_ms = time_ms(3, || spannerlib_serve::Json::parse(body).is_ok());
        layers.insert("serve.json.parse_ms", parse_ms);
        layers.insert(
            "serve.json.parse_mb_per_s",
            body.len() as f64 / (1024.0 * 1024.0) / (parse_ms / 1e3),
        );
        layers
    }

    fn sizes(&self) -> String {
        format!(
            "notes={NOTES} replaced={REPLACED} import_bytes={} clients=1",
            self.cycles.first().map_or(0, |c| c.import_body.len())
        )
    }

    fn teardown(self) {
        self.daemon.stop();
    }
}
