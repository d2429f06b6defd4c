//! What the two `spannerd` workloads share: an in-process server on
//! its own threads, exactly one keep-alive client connection, and a
//! reader for the `/metrics` exposition.
//!
//! `nproc` is 2 on the reference box: one core for the client, one for
//! the connection handler; the writer thread is idle during reads.

use spannerlib_serve::{Client, ServeConfig, Server, ServerHandle};
use spannerlog_engine::Session;
use std::thread::JoinHandle;

/// A running server and the one client connection to it.
pub struct Daemon {
    handle: ServerHandle,
    thread: JoinHandle<()>,
    client: Client,
}

impl Daemon {
    /// Binds an ephemeral port over `session` with product defaults —
    /// except two handler threads and a body cap of `max_body_bytes` —
    /// and connects at once: `Server::bind` returns a bound listener,
    /// so there is nothing to poll for.
    pub fn start(session: Session, max_body_bytes: usize) -> Daemon {
        let server = Server::bind(
            session,
            ServeConfig {
                workers: 2,
                max_body_bytes,
                ..ServeConfig::default()
            },
        )
        .expect("bind an ephemeral port");
        let handle = server.handle();
        let client = Client::new(server.local_addr());
        let thread = std::thread::spawn(move || server.serve().expect("accept loop"));
        Daemon {
            handle,
            thread,
            client,
        }
    }

    /// `POST path` with a pre-rendered JSON body. A transport error
    /// reads as status 0, which no oracle accepts.
    pub fn post(&mut self, path: &str, body: &str) -> (u16, String) {
        match self.client.request("POST", path, &[], Some(body)) {
            Ok(resp) => (resp.status, resp.body),
            Err(e) => (0, e.to_string()),
        }
    }

    /// `GET path`.
    pub fn get(&mut self, path: &str) -> (u16, String) {
        match self.client.get(path) {
            Ok(resp) => (resp.status, resp.body),
            Err(e) => (0, e.to_string()),
        }
    }

    /// Scrapes `/metrics`.
    pub fn scrape(&mut self) -> Scrape {
        Scrape::parse(&self.get("/metrics").1)
    }

    /// Drains the server and waits for its threads to end.
    pub fn stop(self) {
        let Daemon {
            handle,
            thread,
            client,
        } = self;
        // Closing the connection first lets its handler return without
        // waiting for the idle tick.
        drop(client);
        handle.shutdown();
        thread.join().expect("server thread");
    }
}

/// One `/metrics` body: `(series with labels, value)` per sample line.
#[derive(Debug, Clone, Default)]
pub struct Scrape(Vec<(String, f64)>);

impl Scrape {
    /// Reads the Prometheus text format (comments skipped).
    pub fn parse(body: &str) -> Scrape {
        Scrape(
            body.lines()
                .filter(|line| !line.starts_with('#'))
                .filter_map(|line| {
                    let (series, value) = line.rsplit_once(' ')?;
                    Some((series.to_string(), value.parse().ok()?))
                })
                .collect(),
        )
    }

    /// Sum of every series of family `name` whose label set contains
    /// `labels` (empty matches all).
    pub fn sum(&self, name: &str, labels: &str) -> f64 {
        self.0
            .iter()
            .filter(|(series, _)| {
                let (family, rest) = series.split_once('{').unwrap_or((series.as_str(), ""));
                family == name && rest.contains(labels)
            })
            .map(|(_, v)| v)
            .sum()
    }

    /// Cumulative buckets `(le, count)` of histogram `name` over the
    /// series whose labels contain `labels`, `+Inf` last.
    fn buckets(&self, name: &str, labels: &str) -> Vec<(f64, f64)> {
        let family = format!("{name}_bucket");
        let mut buckets: Vec<(f64, f64)> = Vec::new();
        for (series, count) in &self.0 {
            let Some(rest) = series.strip_prefix(&family) else {
                continue;
            };
            if !rest.contains(labels) {
                continue;
            }
            let Some(le) = rest.split("le=\"").nth(1).and_then(|s| s.split('"').next()) else {
                continue;
            };
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().unwrap_or(f64::INFINITY)
            };
            match buckets.iter_mut().find(|(l, _)| *l == le) {
                Some(slot) => slot.1 += count,
                None => buckets.push((le, *count)),
            }
        }
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        buckets
    }

    /// Quantile `q` of the observations histogram `name` gained since
    /// `earlier`, interpolated inside its power-of-two bucket.
    /// Trailing empty buckets are elided by the encoder, so a bound
    /// missing from `earlier` reads as that scrape's total.
    pub fn quantile_since(&self, earlier: &Scrape, name: &str, labels: &str, q: f64) -> f64 {
        let before = earlier.buckets(name, labels);
        let before_total = before.last().map_or(0.0, |b| b.1);
        let delta: Vec<(f64, f64)> = self
            .buckets(name, labels)
            .into_iter()
            .map(|(le, count)| {
                let was = before
                    .iter()
                    .find(|(l, _)| *l == le)
                    .map_or(before_total, |b| b.1);
                (le, count - was)
            })
            .collect();
        let total = delta.last().map_or(0.0, |b| b.1);
        if total <= 0.0 {
            return 0.0;
        }
        let target = q * total;
        let (mut lower, mut below) = (0.0, 0.0);
        for (le, count) in delta {
            if count >= target {
                if le.is_infinite() {
                    return lower;
                }
                return lower + (le - lower) * (target - below) / (count - below).max(1.0);
            }
            lower = le;
            below = count;
        }
        lower
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "\
# TYPE evals_total counter
evals_total 2
http_request_duration_ns_bucket{route=\"/execute\",status=\"2xx\",le=\"1023\"} 4
http_request_duration_ns_bucket{route=\"/execute\",status=\"2xx\",le=\"+Inf\"} 4
http_request_duration_ns_count{route=\"/execute\",status=\"2xx\"} 4
";
    const AFTER: &str = "\
evals_total 5
http_requests_total{route=\"/execute\",status=\"2xx\"} 9
http_requests_total{route=\"/import\",status=\"2xx\"} 3
http_request_duration_ns_bucket{route=\"/execute\",status=\"2xx\",le=\"1023\"} 4
http_request_duration_ns_bucket{route=\"/execute\",status=\"2xx\",le=\"2047\"} 14
http_request_duration_ns_bucket{route=\"/execute\",status=\"2xx\",le=\"+Inf\"} 14
http_request_duration_ns_bucket{route=\"/import\",status=\"2xx\",le=\"+Inf\"} 3
";

    #[test]
    fn counters_sum_over_matching_label_sets() {
        let after = Scrape::parse(AFTER);
        assert_eq!(after.sum("evals_total", ""), 5.0);
        assert_eq!(after.sum("http_requests_total", ""), 12.0);
        assert_eq!(after.sum("http_requests_total", "route=\"/import\""), 3.0);
        assert_eq!(after.sum("evals", ""), 0.0);
    }

    #[test]
    fn quantiles_come_from_the_delta_between_scrapes() {
        let (before, after) = (Scrape::parse(BEFORE), Scrape::parse(AFTER));
        // All ten new observations fell in (1023, 2047]; the four old
        // ones in the first bucket are subtracted away.
        let p50 = after.quantile_since(
            &before,
            "http_request_duration_ns",
            "route=\"/execute\"",
            0.5,
        );
        assert!((1023.0..=2047.0).contains(&p50), "p50 {p50}");
        assert_eq!(p50, 1023.0 + 1024.0 * 0.5);
        assert_eq!(
            after.quantile_since(&after, "http_request_duration_ns", "", 0.5),
            0.0
        );
    }
}
