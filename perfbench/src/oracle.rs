//! Oracles: what each workload's output must equal, computed without
//! the engine. Every check returns the number of operations that
//! failed; a benchmark that cannot fail cannot vouch for a
//! fast-but-wrong change, so each oracle has a self-test that a
//! deliberately corrupted result is reported as failed.

use crate::corpus::ExtractDoc;
use spannerlib_covid::classify::{DocumentResult, MentionEvidence};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// `covid_batch`: the declarative pipeline's results must equal the
/// imperative implementation's on every note. Returns how many notes
/// differ (a length mismatch fails every note).
pub fn covid_mismatches(got: &[DocumentResult], expected: &[DocumentResult]) -> usize {
    if got.len() != expected.len() {
        return expected.len().max(got.len());
    }
    got.iter().zip(expected).filter(|(g, e)| g != e).count()
}

/// Ground truth of the extraction program, flattened out of the
/// generator's planted positions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExtractTruth {
    /// `Email(d, s)`: `(doc id, start, end)`.
    pub emails: BTreeSet<(String, usize, usize)>,
    /// `Date(d, s)` and `Due(d, s)`: the same date spans, found by a
    /// class-led and a literal-prefixed pattern.
    pub dates: BTreeSet<(String, usize, usize)>,
    /// `Err(d, w)`: distinct words per document (relations are sets).
    pub errors: BTreeSet<(String, String)>,
    /// `ErrCount(d, count(w))`.
    pub error_counts: BTreeMap<String, i64>,
}

impl ExtractTruth {
    /// Flattens the planted ground truth of `docs`.
    pub fn of(docs: &[ExtractDoc]) -> ExtractTruth {
        let mut truth = ExtractTruth::default();
        for doc in docs {
            for &(s, e) in &doc.planted.emails {
                truth.emails.insert((doc.id.clone(), s, e));
            }
            for &(s, e) in &doc.planted.dates {
                truth.dates.insert((doc.id.clone(), s, e));
            }
            let words: BTreeSet<&String> = doc.planted.errors.iter().collect();
            if !words.is_empty() {
                truth
                    .error_counts
                    .insert(doc.id.clone(), words.len() as i64);
            }
            for w in words {
                truth.errors.insert((doc.id.clone(), w.clone()));
            }
        }
        truth
    }
}

/// What one unit of `rgx_extract` exported, decoded to plain values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExtractOutput {
    /// `Email(d, s)`.
    pub emails: BTreeSet<(String, usize, usize)>,
    /// `Date(d, s)`.
    pub dates: BTreeSet<(String, usize, usize)>,
    /// `Due(d, s)`.
    pub due: BTreeSet<(String, usize, usize)>,
    /// `Err(d, w)`.
    pub errors: BTreeSet<(String, String)>,
    /// `ErrCount(d, n)`.
    pub error_counts: BTreeMap<String, i64>,
    /// Rows of `Fatal(d, s)`, the pattern that must never match.
    pub fatal_rows: usize,
}

/// `rgx_extract`: exported span sets must equal the planted positions.
/// Returns whether the output is exactly right.
pub fn extract_ok(got: &ExtractOutput, truth: &ExtractTruth) -> bool {
    got.emails == truth.emails
        && got.dates == truth.dates
        && got.due == truth.dates
        && got.errors == truth.errors
        && got.error_counts == truth.error_counts
        && got.fatal_rows == 0
}

/// `tc_join`: every `(x, y)` with a path of at least one edge from `x`
/// to `y`, by breadth-first search from each node. Sorted.
pub fn reachability(edges: &[(i64, i64)]) -> Vec<(i64, i64)> {
    let mut adjacency: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
    for &(a, b) in edges {
        adjacency.entry(a).or_default().push(b);
    }
    let mut paths = Vec::new();
    for &source in adjacency.keys() {
        let mut seen: BTreeSet<i64> = BTreeSet::new();
        let mut queue: VecDeque<i64> = adjacency[&source].iter().copied().collect();
        while let Some(node) = queue.pop_front() {
            if !seen.insert(node) {
                continue;
            }
            if let Some(next) = adjacency.get(&node) {
                queue.extend(next.iter().copied().filter(|n| !seen.contains(n)));
            }
        }
        paths.extend(seen.into_iter().map(|target| (source, target)));
    }
    paths
}

/// `Reach(x, count(y))` from sorted reachability pairs.
pub fn reach_counts(paths: &[(i64, i64)]) -> BTreeMap<i64, i64> {
    let mut counts = BTreeMap::new();
    for &(x, _) in paths {
        *counts.entry(x).or_insert(0) += 1;
    }
    counts
}

/// Row count of `Q(x, z) <- A(x, y), B(y, z), C(z)` over the relations
/// `load_join_workload(rows)` builds (`A(i, i % 50)`, `B(i % 50, i)`,
/// `C = 0..5`), by nested loops from the small relation outwards.
pub fn join_count(rows: usize) -> usize {
    let rows = rows as i64;
    let mut distinct: BTreeSet<(i64, i64)> = BTreeSet::new();
    for z in 0..5i64 {
        for b in (0..rows).filter(|&i| i == z) {
            let y = b % 50;
            for x in (0..rows).filter(|&x| x % 50 == y) {
                distinct.insert((x, z));
            }
        }
    }
    distinct.len()
}

/// What the native classification says a serving query must return.
#[derive(Debug, Clone, Default)]
pub struct ServeTruth {
    /// `Status(d, s)`: `(doc id, status name)`, sorted.
    pub status: Vec<(String, String)>,
    /// Surviving mentions per document: `(start, end, evidence name)`,
    /// sorted. Documents without mentions are absent.
    pub evidence: BTreeMap<String, Vec<(usize, usize, String)>>,
}

impl ServeTruth {
    /// Derives the expected relations from native results.
    pub fn of(native: &[DocumentResult]) -> ServeTruth {
        let mut truth = ServeTruth::default();
        for r in native {
            truth
                .status
                .push((r.doc_id.clone(), r.status.name().to_string()));
            if !r.mentions.is_empty() {
                let mut rows: Vec<(usize, usize, String)> = r
                    .mentions
                    .iter()
                    .map(|&(s, e, ev)| (s, e, evidence_name(ev).to_string()))
                    .collect();
                rows.sort();
                truth.evidence.insert(r.doc_id.clone(), rows);
            }
        }
        truth.status.sort();
        truth
    }

    /// Documents of `?Status(d, "positive")`, sorted.
    pub fn positives(&self) -> Vec<String> {
        self.status
            .iter()
            .filter(|(_, s)| s == "positive")
            .map(|(d, _)| d.clone())
            .collect()
    }
}

fn evidence_name(e: MentionEvidence) -> &'static str {
    match e {
        MentionEvidence::Positive => "positive",
        MentionEvidence::Negated => "negated",
        MentionEvidence::Uncertain => "uncertain",
        MentionEvidence::Ignored => "ignored",
    }
}

/// A parsed JSON value — the harness's own reader for `spannerd`
/// responses, so checking a 52 KB body costs microseconds and does not
/// lean on the parser under test.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one document; `None` on any malformation.
    pub fn parse(text: &str) -> Option<Json> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        (pos == bytes.len()).then_some(value)
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array.
    pub fn items(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string payload.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as a non-negative integer.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as usize),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while matches!(b.get(*pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Option<Json> {
    skip_ws(b, pos);
    match *b.get(*pos)? {
        b'{' => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Some(Json::Obj(members));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if *b.get(*pos)? != b':' {
                    return None;
                }
                *pos += 1;
                members.push((key, parse_value(b, pos)?));
                skip_ws(b, pos);
                match *b.get(*pos)? {
                    b',' => *pos += 1,
                    b'}' => {
                        *pos += 1;
                        return Some(Json::Obj(members));
                    }
                    _ => return None,
                }
            }
        }
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Some(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match *b.get(*pos)? {
                    b',' => *pos += 1,
                    b']' => {
                        *pos += 1;
                        return Some(Json::Arr(items));
                    }
                    _ => return None,
                }
            }
        }
        b'"' => parse_string(b, pos).map(Json::Str),
        b't' => literal(b, pos, b"true", Json::Bool(true)),
        b'f' => literal(b, pos, b"false", Json::Bool(false)),
        b'n' => literal(b, pos, b"null", Json::Null),
        _ => {
            let start = *pos;
            while matches!(
                b.get(*pos),
                Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            ) {
                *pos += 1;
            }
            std::str::from_utf8(&b[start..*pos])
                .ok()?
                .parse()
                .ok()
                .map(Json::Num)
        }
    }
}

fn literal(b: &[u8], pos: &mut usize, word: &[u8], value: Json) -> Option<Json> {
    b[*pos..].starts_with(word).then(|| {
        *pos += word.len();
        value
    })
}

fn parse_string(b: &[u8], pos: &mut usize) -> Option<String> {
    if *b.get(*pos)? != b'"' {
        return None;
    }
    *pos += 1;
    let mut out = Vec::new();
    loop {
        match *b.get(*pos)? {
            b'"' => {
                *pos += 1;
                return String::from_utf8(out).ok();
            }
            b'\\' => {
                *pos += 1;
                match *b.get(*pos)? {
                    b'n' => out.push(b'\n'),
                    b'r' => out.push(b'\r'),
                    b't' => out.push(b'\t'),
                    b'b' => out.push(8),
                    b'f' => out.push(12),
                    b'u' => {
                        let hex = std::str::from_utf8(b.get(*pos + 1..*pos + 5)?).ok()?;
                        let c = char::from_u32(u32::from_str_radix(hex, 16).ok()?)?;
                        out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        *pos += 4;
                    }
                    other => out.push(other),
                }
                *pos += 1;
            }
            byte => {
                out.push(byte);
                *pos += 1;
            }
        }
    }
}

/// The `row_count` member of a response body, read without parsing the
/// rows (the cheap check made on every response).
pub fn row_count(body: &str) -> Option<usize> {
    let at = body.rfind("\"row_count\":")? + "\"row_count\":".len();
    let digits: String = body[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Decodes a `Status` response body into sorted `(doc, status)` rows.
pub fn status_rows(body: &str) -> Option<Vec<(String, String)>> {
    let json = Json::parse(body)?;
    let mut rows = Vec::new();
    for row in json.get("rows")?.items()? {
        let cells = row.items()?;
        rows.push((
            cells.first()?.as_str()?.to_string(),
            cells.get(1)?.as_str()?.to_string(),
        ));
    }
    rows.sort();
    Some(rows)
}

/// Decodes the first column of a response body (the documents of
/// `?Status(d, "positive")`, whose bound column is projected away),
/// sorted.
pub fn first_column(body: &str) -> Option<Vec<String>> {
    let json = Json::parse(body)?;
    let mut column = Vec::new();
    for row in json.get("rows")?.items()? {
        column.push(row.items()?.first()?.as_str()?.to_string());
    }
    column.sort();
    Some(column)
}

/// Decodes an `Evidence("<id>", m, e)` response body into sorted
/// `(start, end, evidence)` rows. The bound first column is projected
/// away by the engine, so the span is column 0.
pub fn evidence_rows(body: &str) -> Option<Vec<(usize, usize, String)>> {
    let json = Json::parse(body)?;
    let mut rows = Vec::new();
    for row in json.get("rows")?.items()? {
        let cells = row.items()?;
        let span = cells.iter().find(|c| matches!(c, Json::Obj(_)))?;
        let evidence = cells.iter().rev().find_map(Json::as_str)?;
        rows.push((
            span.get("start")?.as_usize()?,
            span.get("end")?.as_usize()?,
            evidence.to_string(),
        ));
    }
    rows.sort();
    Some(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus;
    use spannerlib_covid::classify::CovidStatus;

    #[test]
    fn a_flipped_status_fails_the_covid_oracle() {
        let notes = corpus::covid_notes(40, 0, 5);
        let native = spannerlib_covid::native::classify_corpus(&notes);
        assert_eq!(covid_mismatches(&native, &native), 0);
        let mut corrupted = native.clone();
        corrupted[7].status = match corrupted[7].status {
            CovidStatus::Positive => CovidStatus::Negative,
            _ => CovidStatus::Positive,
        };
        assert_eq!(covid_mismatches(&corrupted, &native), 1);
        assert_eq!(covid_mismatches(&native[1..], &native), native.len());
    }

    #[test]
    fn a_shifted_span_fails_the_extract_oracle() {
        let docs = corpus::extract_docs(25, 60, 600, 5);
        let truth = ExtractTruth::of(&docs);
        let exact = ExtractOutput {
            emails: truth.emails.clone(),
            dates: truth.dates.clone(),
            due: truth.dates.clone(),
            errors: truth.errors.clone(),
            error_counts: truth.error_counts.clone(),
            fatal_rows: 0,
        };
        assert!(extract_ok(&exact, &truth));

        let mut shifted = exact.clone();
        let first = shifted.emails.pop_first().expect("emails were planted");
        shifted.emails.insert((first.0, first.1 + 1, first.2));
        assert!(!extract_ok(&shifted, &truth));

        let mut spurious = exact.clone();
        spurious.fatal_rows = 1;
        assert!(!extract_ok(&spurious, &truth));

        let mut miscounted = exact;
        *miscounted
            .error_counts
            .values_mut()
            .next()
            .expect("errors were planted") += 1;
        assert!(!extract_ok(&miscounted, &truth));
    }

    #[test]
    fn reachability_follows_paths_and_a_dropped_edge_shows() {
        let edges = [(1, 2), (2, 3), (3, 1), (3, 4)];
        let paths = reachability(&edges);
        // The cycle 1→2→3→1 reaches itself and 4; 4 reaches nothing.
        assert_eq!(paths.len(), 12);
        assert!(paths.contains(&(1, 1)) && paths.contains(&(2, 4)));
        assert!(!paths.iter().any(|&(x, _)| x == 4));
        assert_eq!(reach_counts(&paths)[&2], 4);

        // One `Path` tuple dropped from an engine-like result, or one
        // edge dropped from the input, must not compare equal.
        let graph = corpus::graph(60, 120, 5);
        let full = reachability(&graph);
        let mut engine_like = full.clone();
        engine_like.remove(engine_like.len() / 2);
        assert_ne!(engine_like, full);
        assert_ne!(reachability(&edges[..3]), paths);
    }

    #[test]
    fn join_count_matches_the_closed_form() {
        // Each z in 0..5 joins B(z, z) to the rows/50 tuples A(x, z).
        assert_eq!(join_count(20_000), 5 * 400);
        assert_eq!(join_count(100), 5 * 2);
    }

    #[test]
    fn response_readers_decode_spannerd_bodies() {
        let body = r#"{"columns":["d","s"],"rows":[["n2","negative"],["n1","po\"s"]],"row_count":2,"version":3,"fingerprint":"00"}"#;
        assert_eq!(row_count(body), Some(2));
        assert_eq!(
            status_rows(body).unwrap(),
            vec![
                ("n1".to_string(), "po\"s".to_string()),
                ("n2".to_string(), "negative".to_string())
            ]
        );
        let body = r#"{"columns":["m","e"],"rows":[[{"start":9,"end":17,"text":"covid-19"},"negated"]],"row_count":1}"#;
        assert_eq!(
            evidence_rows(body).unwrap(),
            vec![(9, 17, "negated".to_string())]
        );
        assert_eq!(
            first_column(r#"{"rows":[["n9"],["n3"]],"row_count":2}"#).unwrap(),
            vec!["n3".to_string(), "n9".to_string()]
        );
        assert_eq!(Json::parse("{\"a\": [1, 2.5, null, true]} x"), None);
        assert_eq!(status_rows("{\"rows\": 3}"), None);
    }

    #[test]
    fn a_wrong_status_row_fails_the_serve_oracle() {
        let notes = corpus::covid_notes(30, 0, 5);
        let truth = ServeTruth::of(&spannerlib_covid::native::classify_corpus(&notes));
        let mut rows = truth.status.clone();
        assert_eq!(rows, truth.status);
        rows[3].1 = "bogus".into();
        assert_ne!(rows, truth.status);
        assert!(!truth.positives().is_empty());
    }
}
