//! `rgx_extract` — regex-bound extraction.
//!
//! 1 200 documents with zipfian lengths (114–8 000 words, ~2.5 MB in
//! all) carry generator-planted e-mails, `error: <word>` cues and
//! `due <ISO date>` cues. One program with five `rgx`/`rgx_string`
//! rules — two literal-prefixed (prefilterable), two class-led (not),
//! one that never matches — plus a `count` aggregate runs over them in
//! a fresh `Session` per unit. op = document.
//!
//! Why: `regex` (PikeVM, prefilter) and `core` span/doc-store creation
//! dominate and the joins are trivial, so a regex-set or lazy-DFA
//! change must show here and nowhere else; long documents expose the
//! per-document scan cost that the covid workload's 365-byte notes
//! hide.
//!
//! Oracle: the exported span sets equal the positions the generator
//! planted — ground truth from the generator, never from an earlier
//! engine run.

use super::{
    cache_layers, engine_layers, import_texts, layer_from_span, time_ms, trace_level, Layers,
    SpanMs, Workload,
};
use crate::corpus::{self, ExtractDoc};
use crate::oracle::{self, ExtractOutput, ExtractTruth};
use crate::spans::Recorder;
use spannerlib_core::DocumentStore;
use spannerlib_regex::Regex;
use spannerlog_engine::{CacheStats, EvalProfile, Session};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Documents per unit.
pub const DOCS: usize = 1_200;
/// Longest document, in words (rank 1 of the zipfian lengths).
pub const MAX_WORDS: usize = 8_000;
/// Floor of the document length, in words.
pub const MIN_WORDS: usize = 100;

const LITERAL_PATTERNS: &[&str] = &[
    "error: ([a-z]+)",
    r"due (\d{4}-\d{2}-\d{2})",
    "fatal: [a-z]+",
];
const CLASS_PATTERNS: &[&str] = &[r"\w+@\w+\.com", r"\d{4}-\d{2}-\d{2}"];

/// The extraction program. `Fatal` never matches: its literal prefix
/// occurs nowhere, so a prefilter prunes every search.
pub const PROGRAM: &str = r#"
    Err(d, w) <- Docs(d, t), rgx_string("error: ([a-z]+)", t) -> (w)
    Due(d, s) <- Docs(d, t), rgx("due (\d{4}-\d{2}-\d{2})", t) -> (s)
    Email(d, s) <- Docs(d, t), rgx("\w+@\w+\.com", t) -> (s)
    Date(d, s) <- Docs(d, t), rgx("\d{4}-\d{2}-\d{2}", t) -> (s)
    Fatal(d, s) <- Docs(d, t), rgx("fatal: [a-z]+", t) -> (s)
    ErrCount(d, count(w)) <- Err(d, w)
"#;

/// State of one run.
pub struct RgxExtract {
    docs: Vec<ExtractDoc>,
    truth: ExtractTruth,
    traced: bool,
    last: Option<ExtractOutput>,
    profile: Option<Arc<EvalProfile>>,
    cache: CacheStats,
    docstore_bytes: usize,
}

/// Exports `?{relation}(d, s)` and decodes `(doc id, start, end)`.
fn export_spans(
    session: &mut Session,
    rec: &mut Recorder,
    relation: &str,
) -> Option<BTreeSet<(String, usize, usize)>> {
    let frame = rec
        .span("engine.export", || {
            session.export(&format!("?{relation}(d, s)"))
        })
        .ok()?;
    rec.span("dataframe.decode", || {
        frame
            .iter_rows()
            .map(|row| {
                let span = row[1].as_span()?;
                Some((
                    row[0].as_str()?.to_string(),
                    span.start_usize(),
                    span.end_usize(),
                ))
            })
            .collect()
    })
}

impl RgxExtract {
    fn extract(&mut self, rec: &mut Recorder) -> Option<ExtractOutput> {
        let mut session = Session::builder().tracing(trace_level(self.traced)).build();
        rec.span("dataframe.import", || {
            let rows = self.docs.iter().map(|d| (d.id.as_str(), d.text.as_str()));
            import_texts(&mut session, "Docs", rows)
        })?;
        rec.span("engine.load_rules", || session.run(PROGRAM))
            .ok()?;
        rec.span("engine.eval", || session.ensure_evaluated())
            .ok()?;

        let mut out = ExtractOutput {
            emails: export_spans(&mut session, rec, "Email")?,
            dates: export_spans(&mut session, rec, "Date")?,
            due: export_spans(&mut session, rec, "Due")?,
            fatal_rows: export_spans(&mut session, rec, "Fatal")?.len(),
            ..ExtractOutput::default()
        };
        let errors = rec
            .span("engine.export", || session.export("?Err(d, w)"))
            .ok()?;
        let counts = rec
            .span("engine.export", || session.export("?ErrCount(d, n)"))
            .ok()?;
        rec.span("dataframe.decode", || {
            out.errors = errors
                .to_typed::<(String, String)>()
                .ok()?
                .into_iter()
                .collect();
            out.error_counts = counts
                .to_typed::<(String, i64)>()
                .ok()?
                .into_iter()
                .collect();
            Some(())
        })?;
        if self.traced {
            self.profile = session.profile();
            self.cache = session.cache_stats();
            self.docstore_bytes = session.docs().bytes();
        }
        Some(out)
    }
}

impl Workload for RgxExtract {
    const UNITS: usize = 40;

    fn setup(seed: u64, _units: usize) -> RgxExtract {
        let docs = corpus::extract_docs(DOCS, MIN_WORDS, MAX_WORDS, seed);
        let truth = ExtractTruth::of(&docs);
        let mut w = RgxExtract {
            docs,
            truth,
            traced: false,
            last: None,
            profile: None,
            cache: CacheStats::default(),
            docstore_bytes: 0,
        };
        w.last = w.extract(&mut Recorder::new(false));
        w
    }

    fn set_traced(&mut self, traced: bool) {
        self.traced = traced;
    }

    fn unit(&mut self, _index: usize, rec: &mut Recorder) {
        self.last = self.extract(rec);
    }

    fn verify(&mut self, _index: usize) -> (u64, u64) {
        let ops = self.docs.len() as u64;
        let ok = self
            .last
            .take()
            .is_some_and(|got| oracle::extract_ok(&got, &self.truth));
        (ops, if ok { 0 } else { ops })
    }

    fn layers(&mut self, spans: &SpanMs, _scale: f64) -> Layers {
        let mut layers = Layers::new();
        if let Some(profile) = &self.profile {
            engine_layers(&mut layers, profile);
        }
        cache_layers(&mut layers, &self.cache);
        layers.insert(
            "core.docstore_mb",
            self.docstore_bytes as f64 / (1024.0 * 1024.0),
        );
        layer_from_span(
            &mut layers,
            spans,
            "dataframe.import_ms",
            "dataframe.import",
        );
        layer_from_span(
            &mut layers,
            spans,
            "dataframe.decode_ms",
            "dataframe.decode",
        );
        layer_from_span(&mut layers, spans, "engine.export_ms", "engine.export");

        layers.insert(
            "parser.parse_ms",
            time_ms(5, || spannerlog_parser::parse_program(PROGRAM)),
        );
        let mut session = Session::new();
        if session.run("new Docs(str, str)").is_ok() && session.run(PROGRAM).is_ok() {
            layers.insert(
                "engine.prepare_ms",
                time_ms(1, || session.prepare_program().is_ok()),
            );
        }

        let texts: Vec<&str> = self.docs.iter().map(|d| d.text.as_str()).collect();
        let megabytes = texts.iter().map(|t| t.len()).sum::<usize>() as f64 / (1024.0 * 1024.0);
        layers.insert(
            "core.intern_ms",
            time_ms(3, || {
                let mut docs = DocumentStore::new();
                texts.iter().map(|t| docs.intern(t).index()).sum::<u32>()
            }),
        );
        layers.insert(
            "regex.compile_ms",
            time_ms(5, || {
                LITERAL_PATTERNS
                    .iter()
                    .chain(CLASS_PATTERNS)
                    .filter_map(|p| Regex::new(p).ok())
                    .count()
            }),
        );
        // One pass of each pattern family over the whole corpus, the
        // way the `rgx` builtins drive the matcher.
        let mut matches = 0usize;
        let mut scan = |patterns: &[&str]| -> f64 {
            let compiled: Vec<Regex> = patterns.iter().filter_map(|p| Regex::new(p).ok()).collect();
            let ms = time_ms(1, || {
                matches += compiled
                    .iter()
                    .map(|re| {
                        texts
                            .iter()
                            .map(|t| re.captures_iter(t).count())
                            .sum::<usize>()
                    })
                    .sum::<usize>();
            });
            megabytes * compiled.len() as f64 / (ms / 1e3)
        };
        let literal = scan(LITERAL_PATTERNS);
        let class = scan(CLASS_PATTERNS);
        layers.insert("regex.scan_literal_mb_per_s", literal);
        layers.insert("regex.scan_class_mb_per_s", class);
        layers.insert("regex.matches", matches as f64);
        layers
    }

    fn sizes(&self) -> String {
        let bytes: usize = self.docs.iter().map(|d| d.text.len()).sum();
        format!("docs={} bytes={bytes}", self.docs.len())
    }
}
