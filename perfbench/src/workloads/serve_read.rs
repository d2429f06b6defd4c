//! `serve_read` — the `spannerd` read path.
//!
//! The session is seeded **in-process** with 2 000 unique notes and
//! evaluated before `Server::bind` (importing them over the wire would
//! spend 14 s in the quadratic JSON parser); the queries are prepared
//! over the wire. One keep-alive client, closed loop, then issues a
//! fixed seeded sequence of 30 000 `/execute` requests: 60 % ad-hoc
//! point lookups `?Evidence("<zipf-chosen id>", m, e)`, 25 % prepared
//! `?Status(d, "positive")`, 15 % prepared full `?Status(d, s)`
//! (52 KB). The split puts p50 inside the point-lookup mode and p90
//! inside the full-scan mode, not on a boundary. op = unit = request.
//!
//! Why: only `serve` (HTTP read, JSON, snapshot read, encode, write)
//! and the `engine`'s query-over-snapshot work; no evaluation happens.
//!
//! Oracle: every response is 200 and its row count matches the native
//! classification; 1 in 50 bodies is compared row for row.

use super::daemon::{Daemon, Scrape};
use super::{time_ms, Layers, SpanMs, Workload};
use crate::corpus::{self, ReadKind};
use crate::oracle::{self, ServeTruth};
use crate::report;
use crate::spans::Recorder;
use spannerlib_covid::native::NativePipeline;
use spannerlib_covid::spanner::SpannerPipeline;
use spannerlib_serve::http;
use std::io::BufReader;
use std::time::{Duration, Instant};

/// Notes served.
pub const NOTES: usize = 2_000;
/// Every this-many-th response is compared row for row.
const FULL_CHECK_EVERY: usize = 50;
/// Open-loop diagnostic: arrival rate and length at `RUN_SECONDS`.
const OPEN_LOOP_RATE: f64 = 300.0;
const OPEN_LOOP_SECONDS: f64 = 8.0;

const STATUS_BODY: &str = r#"{"prepared":"status"}"#;
const POSITIVE_BODY: &str = r#"{"prepared":"positive"}"#;

/// State of one run.
pub struct ServeRead {
    daemon: Daemon,
    ids: Vec<String>,
    point_bodies: Vec<String>,
    truth: ServeTruth,
    positives: Vec<String>,
    mix: Vec<ReadKind>,
    last: (u16, String),
    /// Client-side latency of every timed request, by kind.
    latencies_ms: Vec<(ReadKind, f64)>,
    metrics_at_start: Scrape,
}

impl ServeRead {
    fn request(&mut self, kind: ReadKind) -> (u16, String) {
        let body = match kind {
            ReadKind::Point(doc) => self.point_bodies[doc].as_str(),
            ReadKind::Filtered => POSITIVE_BODY,
            ReadKind::Full => STATUS_BODY,
        };
        self.daemon.post("/execute", body)
    }

    /// Whether `(status, body)` answers `kind` correctly; `thorough`
    /// compares every row instead of only the row count.
    fn answers(&self, kind: ReadKind, status: u16, body: &str, thorough: bool) -> bool {
        if status != 200 {
            return false;
        }
        let no_rows = Vec::new();
        let expected_rows = match kind {
            ReadKind::Point(doc) => self
                .truth
                .evidence
                .get(&self.ids[doc])
                .unwrap_or(&no_rows)
                .len(),
            ReadKind::Filtered => self.positives.len(),
            ReadKind::Full => self.truth.status.len(),
        };
        if oracle::row_count(body) != Some(expected_rows) {
            return false;
        }
        if !thorough {
            return true;
        }
        match kind {
            ReadKind::Point(doc) => {
                oracle::evidence_rows(body).as_ref()
                    == Some(self.truth.evidence.get(&self.ids[doc]).unwrap_or(&no_rows))
            }
            ReadKind::Filtered => oracle::first_column(body).as_ref() == Some(&self.positives),
            ReadKind::Full => oracle::status_rows(body).as_ref() == Some(&self.truth.status),
        }
    }

    /// Replays the mix on a fixed schedule, timing each request from
    /// when it was *due*, so a stall counts against every request it
    /// delays. Diagnostic only, not gated, until shown to repeat.
    fn open_loop(&mut self, scale: f64) -> (f64, f64, f64) {
        let count = (OPEN_LOOP_RATE * OPEN_LOOP_SECONDS * scale) as usize;
        let gap = Duration::from_secs_f64(1.0 / OPEN_LOOP_RATE);
        let mut latencies = Vec::with_capacity(count);
        let mut max_late = Duration::ZERO;
        let start = Instant::now();
        for i in 0..count {
            let due = start + gap * i as u32;
            loop {
                let now = Instant::now();
                if now >= due {
                    max_late = max_late.max(now - due);
                    break;
                }
                // Sleep through most of the gap, spin the rest.
                if due - now > Duration::from_micros(300) {
                    std::thread::sleep(due - now - Duration::from_micros(200));
                }
            }
            let kind = self.mix[i % self.mix.len()];
            let (status, _) = self.request(kind);
            if status == 200 {
                latencies.push((Instant::now() - due).as_secs_f64() * 1e3);
            }
        }
        latencies.sort_by(f64::total_cmp);
        (
            report::percentile(&latencies, 0.5),
            report::percentile(&latencies, 0.99),
            max_late.as_secs_f64() * 1e3,
        )
    }
}

impl Workload for ServeRead {
    const UNITS: usize = 12_000;

    fn setup(seed: u64, units: usize) -> ServeRead {
        let notes = corpus::covid_notes(NOTES, 0, seed);
        let truth = ServeTruth::of(&NativePipeline::new().classify_corpus(&notes));
        let mut pipeline = SpannerPipeline::new().expect("pipeline builds");
        pipeline
            .classify_corpus(&notes)
            .expect("corpus classifies in-process");
        let mut daemon = Daemon::start(pipeline.into_session(), 4 * 1024 * 1024);
        for (name, query) in [
            ("status", "?Status(d, s)"),
            ("positive", r#"?Status(d, \"positive\")"#),
        ] {
            let body = format!(r#"{{"name":"{name}","query":"{query}"}}"#);
            let (status, reply) = daemon.post("/prepare", &body);
            assert_eq!(status, 200, "prepare {name}: {reply}");
        }
        let ids: Vec<String> = notes.into_iter().map(|d| d.id).collect();
        let point_bodies = ids
            .iter()
            .map(|id| format!(r#"{{"query":"?Evidence(\"{id}\", m, e)"}}"#))
            .collect();
        let mut w = ServeRead {
            daemon,
            ids,
            point_bodies,
            positives: truth.positives(),
            truth,
            mix: corpus::read_mix(units, NOTES, seed),
            last: (0, String::new()),
            latencies_ms: Vec::with_capacity(units),
            metrics_at_start: Scrape::default(),
        };
        // Warm-up: one request of each kind, checked thoroughly.
        for kind in [ReadKind::Point(0), ReadKind::Filtered, ReadKind::Full] {
            let (status, body) = w.request(kind);
            assert!(
                w.answers(kind, status, &body, true),
                "warm-up {kind:?} answered {status}: {}",
                &body[..body.len().min(200)]
            );
        }
        w.metrics_at_start = w.daemon.scrape();
        w
    }

    fn unit(&mut self, index: usize, rec: &mut Recorder) {
        let kind = self.mix[index];
        let open = rec.enter(match kind {
            ReadKind::Point(_) => "serve.execute_point",
            ReadKind::Filtered => "serve.execute_filtered",
            ReadKind::Full => "serve.execute_full",
        });
        let start = Instant::now();
        self.last = self.request(kind);
        self.latencies_ms
            .push((kind, start.elapsed().as_secs_f64() * 1e3));
        rec.exit(open);
    }

    fn verify(&mut self, index: usize) -> (u64, u64) {
        let (status, body) = std::mem::take(&mut self.last);
        let ok = self.answers(
            self.mix[index],
            status,
            &body,
            index.is_multiple_of(FULL_CHECK_EVERY),
        );
        (1, u64::from(!ok))
    }

    fn layers(&mut self, _spans: &SpanMs, scale: f64) -> Layers {
        let mut layers = Layers::new();
        let after = self.daemon.scrape();
        let of_kind = |want: fn(&ReadKind) -> bool| -> f64 {
            let mut ms: Vec<f64> = self
                .latencies_ms
                .iter()
                .filter(|(k, _)| want(k))
                .map(|(_, ms)| *ms)
                .collect();
            report::median(&mut ms)
        };
        layers.insert(
            "serve.read.point_p50_ms",
            of_kind(|k| matches!(k, ReadKind::Point(_))),
        );
        layers.insert(
            "serve.read.filtered_p50_ms",
            of_kind(|k| matches!(k, ReadKind::Filtered)),
        );
        layers.insert(
            "serve.read.full_p50_ms",
            of_kind(|k| matches!(k, ReadKind::Full)),
        );
        let mut all: Vec<f64> = self.latencies_ms.iter().map(|(_, ms)| *ms).collect();
        all.sort_by(f64::total_cmp);
        layers.insert("serve.read.p99_ms", report::percentile(&all, 0.99));
        layers.insert("serve.read.p999_ms", report::percentile(&all, 0.999));
        let server_p50 = after.quantile_since(
            &self.metrics_at_start,
            "http_request_duration_ns",
            "route=\"/execute\"",
            0.5,
        ) / 1e6;
        layers.insert("serve.server.request_p50_ms", server_p50);
        layers.insert(
            "serve.client_overhead_ms",
            report::percentile(&all, 0.5) - server_p50,
        );
        layers.insert(
            "serve.evals",
            after.sum("evals_total", "") - self.metrics_at_start.sum("evals_total", ""),
        );
        layers.insert(
            "serve.coalesced",
            after.sum("execute_coalesced", "") - self.metrics_at_start.sum("execute_coalesced", ""),
        );

        // The serve layer's pieces, called directly on canned bytes.
        let (_, full_body) = self.request(ReadKind::Full);
        layers.insert(
            "serve.json.render_ms",
            match spannerlib_serve::Json::parse(&full_body) {
                Ok(json) => time_ms(9, || json.render().len()),
                Err(_) => 0.0,
            },
        );
        let point = &self.point_bodies[0];
        let request = format!(
            "POST /execute HTTP/1.1\r\nHost: spannerd\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{point}",
            point.len(),
        );
        layers.insert(
            "serve.http.read_ms",
            time_ms(99, || {
                matches!(
                    http::read_request(&mut BufReader::new(request.as_bytes()), 4 << 20),
                    http::ReadOutcome::Request(_)
                )
            }),
        );
        let response = http::Response::json(200, full_body);
        layers.insert(
            "serve.http.write_ms",
            time_ms(99, || {
                let mut sink = Vec::with_capacity(response.body.len() + 256);
                http::write_response(&mut sink, &response, false).is_ok()
            }),
        );

        let (p50, p99, max_late) = self.open_loop(scale);
        layers.insert("serve.openloop.p50_ms", p50);
        layers.insert("serve.openloop.p99_ms", p99);
        layers.insert("serve.openloop.max_late_ms", max_late);
        layers
    }

    fn sizes(&self) -> String {
        format!("notes={NOTES} requests={} clients=1", self.mix.len())
    }

    fn teardown(self) {
        self.daemon.stop();
    }
}
