//! Prometheus text-format exposition for [`MetricsSnapshot`].
//!
//! [`encode_prometheus`] renders every series of a snapshot in the
//! [text exposition format] scrapers understand: `# TYPE` comments,
//! one `name{labels} value` line per series, and power-of-two latency
//! histograms expanded into cumulative `_bucket{le=...}` / `_sum` /
//! `_count` families. Metric and label *names* outside the exposition
//! grammar are sanitized to `_`; label *values* are escaped
//! (`\\`, `\"`, `\n`) so arbitrary route strings survive.
//!
//! [`check_exposition`] is the matching validator: a tiny line-level
//! parser used by proptests, the serving smoke bench, and CI's boot
//! check to gate that a live `/metrics` body actually parses.
//!
//! [text exposition format]:
//!     https://prometheus.io/docs/instrumenting/exposition_formats/

use crate::metrics::{HistogramSnapshot, Labels, MetricsSnapshot, HISTOGRAM_BUCKETS};

/// Rewrites `name` into the exposition metric-name grammar
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`: out-of-grammar bytes become `_`, and an
/// empty or digit-leading name gains a `_` prefix. Internal dotted
/// names like `ie.ticket.calls` come out as `ie_ticket_calls`.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if ok {
            out.push(c);
        } else if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Rewrites `name` into the label-name grammar `[a-zA-Z_][a-zA-Z0-9_]*`
/// (no colons, unlike metric names).
fn sanitize_label_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || (i > 0 && c.is_ascii_digit());
        if ok {
            out.push(c);
        } else if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Renders `{k="v",...}` (or nothing for the empty set), with an
/// optional extra pair appended — used for histogram `le`.
fn render_labels(labels: &Labels, extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", sanitize_label_name(k), escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{v}\""));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

fn encode_histogram(out: &mut String, name: &str, labels: &Labels, h: &HistogramSnapshot) {
    // Cumulative buckets. Bucket `i` covers [2^i, 2^(i+1)) ns, so its
    // inclusive upper bound is 2^(i+1)-1 — except the last bucket,
    // which is a catch-all and only surfaces via +Inf. Trailing empty
    // buckets are elided (cumulative values make them redundant), but
    // at least one finite bucket is always emitted.
    let mut highest = 0usize;
    for (i, &b) in h.buckets.iter().enumerate().take(HISTOGRAM_BUCKETS - 1) {
        if b > 0 {
            highest = i;
        }
    }
    let mut cumulative = 0u64;
    for (i, &b) in h.buckets.iter().enumerate().take(highest + 1) {
        cumulative += b;
        let le = (1u64 << (i + 1)) - 1;
        out.push_str(&format!(
            "{name}_bucket{} {cumulative}\n",
            render_labels(labels, Some(("le", &le.to_string())))
        ));
    }
    out.push_str(&format!(
        "{name}_bucket{} {}\n",
        render_labels(labels, Some(("le", "+Inf"))),
        h.count
    ));
    out.push_str(&format!(
        "{name}_sum{} {}\n",
        render_labels(labels, None),
        h.sum
    ));
    out.push_str(&format!(
        "{name}_count{} {}\n",
        render_labels(labels, None),
        h.count
    ));
}

/// Encodes `snap` as a Prometheus text-format exposition body.
///
/// Families are emitted counters first, then gauges, then histograms,
/// each preceded by a `# TYPE` line on its first series. Series within
/// a family keep snapshot order. The output always ends with `\n` (or
/// is empty for an empty snapshot).
///
/// ```
/// use spannerlib_trace::{encode_prometheus, MetricsRegistry};
/// let reg = MetricsRegistry::new();
/// reg.counter_with("http_requests_total", &[("route", "/execute")]).inc();
/// let body = encode_prometheus(&reg.snapshot());
/// assert!(body.contains("# TYPE http_requests_total counter"));
/// assert!(body.contains("http_requests_total{route=\"/execute\"} 1"));
/// ```
pub fn encode_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut last_family = String::new();
    for s in &snap.counters {
        let name = sanitize_metric_name(&s.name);
        if name != last_family {
            out.push_str(&format!("# TYPE {name} counter\n"));
            last_family = name.clone();
        }
        out.push_str(&format!(
            "{name}{} {}\n",
            render_labels(&s.labels, None),
            s.value
        ));
    }
    last_family.clear();
    for s in &snap.gauges {
        let name = sanitize_metric_name(&s.name);
        if name != last_family {
            out.push_str(&format!("# TYPE {name} gauge\n"));
            last_family = name.clone();
        }
        out.push_str(&format!(
            "{name}{} {}\n",
            render_labels(&s.labels, None),
            s.value
        ));
    }
    last_family.clear();
    for s in &snap.histograms {
        let name = sanitize_metric_name(&s.name);
        if name != last_family {
            out.push_str(&format!("# TYPE {name} histogram\n"));
            last_family = name.clone();
        }
        encode_histogram(&mut out, &name, &s.labels, &s.value);
    }
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
        let body = encode_prometheus(&reg.snapshot());

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
    fn sanitizes_dotted_names_and_escapes_values() {
        let reg = MetricsRegistry::new();
        reg.counter("ie.ticket.calls").inc();
        reg.counter_with("weird", &[("q", "a\"b\\c\nd")]).inc();
        let body = encode_prometheus(&reg.snapshot());
        assert!(body.contains("ie_ticket_calls 1\n"));
        assert!(body.contains(r#"weird{q="a\"b\\c\nd"} 1"#));
        check_exposition(&body).expect("escaped body parses");
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
