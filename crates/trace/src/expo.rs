//! Prometheus text-format exposition of a [`MetricsRegistry`].
//!
//! [`encode_prometheus`] renders every series of a registry in the
//! [text exposition format] scrapers understand: `# TYPE` comments,
//! one `name{labels} value` line per series, and power-of-two latency
//! histograms expanded into cumulative `_bucket{le=...}` / `_sum` /
//! `_count` families. Names and label pairs are written as registered:
//! the registry takes them as constants already in the grammar.
//!
//! [`check_exposition`] is the matching validator: a tiny line-level
//! parser with which `spannerlib-serve`'s end-to-end tests check a live
//! `/metrics` body, and this crate's proptests the encoder.
//!
//! [text exposition format]:
//!     https://prometheus.io/docs/instrumenting/exposition_formats/

use crate::metrics::{
    lock, Families, HistogramSnapshot, Label, MetricsRegistry, HISTOGRAM_BUCKETS,
};
use std::fmt::{Display, Write as _};

/// Writes one sample line: `name{k="v",…,le="…"} value`, without braces
/// when there is no pair.
fn sample(
    out: &mut String,
    name: &str,
    labels: &[Label],
    le: Option<&dyn Display>,
    value: impl Display,
) {
    out.push_str(name);
    let mut sep = '{';
    for (k, v) in labels {
        let _ = write!(out, "{sep}{k}=\"{v}\"");
        sep = ',';
    }
    if let Some(le) = le {
        let _ = write!(out, "{sep}le=\"{le}\"");
        sep = ',';
    }
    if sep == ',' {
        out.push('}');
    }
    let _ = writeln!(out, " {value}");
}

fn encode_histogram(out: &mut String, name: &str, labels: &[Label], h: &HistogramSnapshot) {
    // Cumulative buckets. Bucket `i` covers [2^i, 2^(i+1)) ns, so its
    // inclusive upper bound is 2^(i+1)-1 — except the last bucket,
    // which is a catch-all and only surfaces via +Inf. Trailing empty
    // buckets are elided (cumulative values make them redundant), but
    // at least one finite bucket is always emitted.
    let finite = &h.buckets[..HISTOGRAM_BUCKETS - 1];
    let highest = finite.iter().rposition(|&b| b > 0).unwrap_or(0);
    let bucket = format!("{name}_bucket");
    let mut cumulative = 0u64;
    for (i, &b) in finite.iter().enumerate().take(highest + 1) {
        cumulative += b;
        let le = (1u64 << (i + 1)) - 1;
        sample(out, &bucket, labels, Some(&le), cumulative);
    }
    sample(out, &bucket, labels, Some(&"+Inf"), h.count);
    sample(out, &format!("{name}_sum"), labels, None, h.sum);
    sample(out, &format!("{name}_count"), labels, None, h.count);
}

/// Writes each family of `families` — a `# TYPE name kind` line, then
/// its series through `series`.
fn encode_families<T>(
    out: &mut String,
    kind: &str,
    families: &Families<T>,
    mut series: impl FnMut(&mut String, &str, &[Label], &T),
) {
    for (name, family) in lock(families).iter() {
        let _ = writeln!(out, "# TYPE {name} {kind}");
        for (labels, instrument) in family {
            series(out, name, labels, instrument);
        }
    }
}

/// Encodes `reg` as a Prometheus text-format exposition body.
///
/// Families are emitted counters first, then gauges, then histograms,
/// each by name and preceded by its `# TYPE` line; series within a
/// family are ordered by their label pairs. The output always ends with
/// `\n` (or is empty for an empty registry).
///
/// ```
/// use spannerlib_trace::{encode_prometheus, MetricsRegistry};
/// let reg = MetricsRegistry::new();
/// reg.counter_with("http_requests_total", &[("route", "/execute")]).inc();
/// let body = encode_prometheus(&reg);
/// assert!(body.contains("# TYPE http_requests_total counter"));
/// assert!(body.contains("http_requests_total{route=\"/execute\"} 1"));
/// ```
pub fn encode_prometheus(reg: &MetricsRegistry) -> String {
    let mut out = String::new();
    encode_families(
        &mut out,
        "counter",
        &reg.counters,
        |out, name, labels, c| sample(out, name, labels, None, c.get()),
    );
    encode_families(&mut out, "gauge", &reg.gauges, |out, name, labels, g| {
        sample(out, name, labels, None, g.get())
    });
    encode_families(
        &mut out,
        "histogram",
        &reg.histograms,
        |out, name, labels, h| encode_histogram(out, name, labels, &h.snapshot()),
    );
    out
}

/// Summary statistics from a successful [`check_exposition`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExpositionStats {
    /// Sample lines (non-comment, non-blank).
    pub samples: usize,
    /// `# TYPE` comment lines.
    pub families: usize,
}

fn is_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn is_label_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Validates one `{k="v",...}` block; `s` starts at `{`. Returns the
/// rest after the closing `}`.
fn check_labels(s: &str, line_no: usize) -> Result<&str, String> {
    let mut rest = &s[1..];
    loop {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("line {line_no}: label without '='"))?;
        let name = &rest[..eq];
        if !is_label_name(name) {
            return Err(format!("line {line_no}: bad label name {name:?}"));
        }
        rest = &rest[eq + 1..];
        if !rest.starts_with('"') {
            return Err(format!("line {line_no}: label value not quoted"));
        }
        // Scan the escaped value.
        let bytes = rest.as_bytes();
        let mut i = 1;
        loop {
            match bytes.get(i) {
                None => return Err(format!("line {line_no}: unterminated label value")),
                Some(b'\\') => match bytes.get(i + 1) {
                    Some(b'\\') | Some(b'"') | Some(b'n') => i += 2,
                    _ => return Err(format!("line {line_no}: bad escape in label value")),
                },
                Some(b'"') => break,
                Some(b'\n') => return Err(format!("line {line_no}: raw newline in label value")),
                Some(_) => i += 1,
            }
        }
        rest = &rest[i + 1..];
        if let Some(r) = rest.strip_prefix(',') {
            rest = r;
        } else if let Some(r) = rest.strip_prefix('}') {
            return Ok(r);
        } else {
            return Err(format!("line {line_no}: expected ',' or '}}' after label"));
        }
    }
}

/// Validates a Prometheus text-format body line by line: `# TYPE`
/// comments declare known types, sample lines have a well-formed
/// metric name, optional label block, and a numeric value (integer,
/// float, or `+Inf`/`-Inf`/`NaN`). Returns counts on success and the
/// first offending line on failure. Used by `spannerlib-serve`'s
/// end-to-end test to check a live `/metrics` body, and by proptests to
/// close the loop on [`encode_prometheus`].
pub fn check_exposition(body: &str) -> Result<ExpositionStats, String> {
    let mut stats = ExpositionStats::default();
    for (idx, line) in body.lines().enumerate() {
        let line_no = idx + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(typed) = comment.strip_prefix("TYPE ") {
                let mut parts = typed.split_whitespace();
                let name = parts
                    .next()
                    .ok_or_else(|| format!("line {line_no}: TYPE without metric name"))?;
                if !is_metric_name(name) {
                    return Err(format!("line {line_no}: bad metric name in TYPE: {name:?}"));
                }
                match parts.next() {
                    Some("counter" | "gauge" | "histogram" | "summary" | "untyped") => {}
                    other => {
                        return Err(format!("line {line_no}: bad TYPE kind: {other:?}"));
                    }
                }
                stats.families += 1;
            }
            // Other comments (# HELP, freeform) pass through.
            continue;
        }
        // Sample line: name [labels] value [timestamp]
        let name_end = line
            .find(['{', ' ', '\t'])
            .ok_or_else(|| format!("line {line_no}: sample without value"))?;
        let name = &line[..name_end];
        if !is_metric_name(name) {
            return Err(format!("line {line_no}: bad metric name {name:?}"));
        }
        let mut rest = &line[name_end..];
        if rest.starts_with('{') {
            rest = check_labels(rest, line_no)?;
        }
        let mut parts = rest.split_whitespace();
        let value = parts
            .next()
            .ok_or_else(|| format!("line {line_no}: sample without value"))?;
        let numeric =
            matches!(value, "+Inf" | "-Inf" | "Inf" | "NaN") || value.parse::<f64>().is_ok();
        if !numeric {
            return Err(format!("line {line_no}: bad sample value {value:?}"));
        }
        if let Some(ts) = parts.next() {
            if ts.parse::<i64>().is_err() {
                return Err(format!("line {line_no}: bad timestamp {ts:?}"));
            }
        }
        if parts.next().is_some() {
            return Err(format!("line {line_no}: trailing tokens after sample"));
        }
        stats.samples += 1;
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    #[test]
    fn encodes_counters_gauges_histograms() {
        let reg = MetricsRegistry::new();
        reg.counter("evals").add(3);
        reg.counter_with(
            "http_requests_total",
            &[("route", "/execute"), ("status", "2xx")],
        )
        .add(7);
        reg.gauge("connections_active").set(2);
        reg.histogram("eval_ns").record(5);
        reg.histogram("eval_ns").record(1_000);
        let body = encode_prometheus(&reg);

        assert!(body.contains("# TYPE evals counter\nevals 3\n"));
        assert!(body.contains("http_requests_total{route=\"/execute\",status=\"2xx\"} 7\n"));
        assert!(body.contains("# TYPE connections_active gauge\nconnections_active 2\n"));
        assert!(body.contains("# TYPE eval_ns histogram\n"));
        // 5 ns lands in bucket 2 ([4,8)) → le=7; 1000 ns in bucket 9
        // ([512,1024)) → le=1023.
        assert!(body.contains("eval_ns_bucket{le=\"7\"} 1\n"));
        assert!(body.contains("eval_ns_bucket{le=\"1023\"} 2\n"));
        assert!(body.contains("eval_ns_bucket{le=\"+Inf\"} 2\n"));
        assert!(body.contains("eval_ns_sum 1005\n"));
        assert!(body.contains("eval_ns_count 2\n"));

        let stats = check_exposition(&body).expect("self-encoded body parses");
        assert!(stats.samples >= 8);
        assert_eq!(stats.families, 4);
    }

    #[test]
    fn labeled_histogram_buckets_carry_le_last() {
        let reg = MetricsRegistry::new();
        let labels = [("route", "/execute"), ("status", "2xx")];
        reg.histogram_with("lat_ns", &labels).record(3);
        let body = encode_prometheus(&reg);
        assert_eq!(
            body,
            "# TYPE lat_ns histogram\n\
             lat_ns_bucket{route=\"/execute\",status=\"2xx\",le=\"1\"} 0\n\
             lat_ns_bucket{route=\"/execute\",status=\"2xx\",le=\"3\"} 1\n\
             lat_ns_bucket{route=\"/execute\",status=\"2xx\",le=\"+Inf\"} 1\n\
             lat_ns_sum{route=\"/execute\",status=\"2xx\"} 3\n\
             lat_ns_count{route=\"/execute\",status=\"2xx\"} 1\n"
        );
    }

    #[test]
    fn checker_rejects_malformed_lines() {
        assert!(check_exposition("1bad_name 3\n").is_err());
        assert!(check_exposition("name{k=\"unterminated} 3\n").is_err());
        assert!(check_exposition("name{k=\"v\"} notanumber\n").is_err());
        assert!(check_exposition("# TYPE name nonsense\n").is_err());
        assert!(check_exposition("name 3 12345 extra\n").is_err());
        assert!(check_exposition("").is_ok());
        assert!(check_exposition("name{k=\"v\"} +Inf\n").is_ok());
        assert!(check_exposition("name 3 12345\n").is_ok());
    }
}
