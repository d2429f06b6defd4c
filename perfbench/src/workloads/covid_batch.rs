//! `covid_batch` — the paper's §4.2 clinical pipeline, cold.
//!
//! Each unit builds a fresh `SpannerPipeline` and runs
//! `classify_corpus` on the same 4 000 unique notes. It is the
//! workload ROADMAP's "≥2× covid" item names: the memo never hits
//! across units, so the `nlp` IE functions and the `engine`'s joins,
//! negation and dedupe do all the work while `regex` and `serve` do
//! none. op = note.
//!
//! Oracle: the `DocumentResult`s equal `native::classify_corpus` — the
//! independent imperative implementation — on every note, every unit.

use super::{
    cache_layers, engine_layers, import_texts, layer_from_span, time_ms, Layers, SpanMs, Workload,
};
use crate::corpus;
use crate::oracle;
use crate::spans::Recorder;
use spannerlib_core::{DocumentStore, Schema, ValueType};
use spannerlib_covid::classify::{CovidStatus, DocumentResult, MentionEvidence};
use spannerlib_covid::corpus::CorpusDoc;
use spannerlib_covid::native::{context_rules, target_rules, NativePipeline};
use spannerlib_covid::spanner::ie_funcs::register_ie_functions;
use spannerlib_covid::spanner::{
    SpannerPipeline, MODIFIER_POLICIES_CSV, RULES, SECTION_POLICIES_CSV,
};
use spannerlib_dataframe::DataFrame;
use spannerlib_nlp::sections::detect_sections;
use spannerlib_nlp::sentences::split_sentences;
use spannerlib_nlp::tokenizer::tokenize;
use spannerlog_engine::{CacheStats, EvalProfile, Session, TraceLevel};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Notes per unit.
pub const NOTES: usize = 4_000;

/// State of one run.
pub struct CovidBatch {
    notes: Vec<CorpusDoc>,
    expected: Vec<DocumentResult>,
    traced: bool,
    last: Option<Vec<DocumentResult>>,
    profile: Option<Arc<EvalProfile>>,
    cache: CacheStats,
    docstore_bytes: usize,
    /// Latencies of the untraced units, for the overhead over native.
    cold_ms: Vec<f64>,
}

impl CovidBatch {
    /// The product path: what a user of the library calls.
    fn classify(&mut self) -> Option<Vec<DocumentResult>> {
        SpannerPipeline::new()
            .and_then(|mut p| p.classify_corpus(&self.notes))
            .ok()
    }

    /// The same steps as `SpannerPipeline::classify_corpus`, taken one
    /// public call at a time with a span around each, and with the
    /// engine's summary profile on.
    fn classify_traced(&mut self, rec: &mut Recorder) -> Option<Vec<DocumentResult>> {
        let mut pipeline = rec
            .span("covid.pipeline_build", || {
                SpannerPipeline::with_tracing(TraceLevel::Summary)
            })
            .ok()?;
        let session = pipeline.session_mut();
        rec.span("dataframe.import", || {
            let rows = self.notes.iter().map(|d| (d.id.as_str(), d.text.as_str()));
            import_texts(session, "Notes", rows)
        })?;
        rec.span("engine.eval", || session.ensure_evaluated())
            .ok()?;

        let mut by_doc: BTreeMap<String, CovidStatus> = BTreeMap::new();
        let mut mentions: BTreeMap<String, Vec<(usize, usize, MentionEvidence)>> = BTreeMap::new();
        let status_query = rec
            .span("engine.prepare", || session.prepare("?Status(d, s)"))
            .ok()?;
        let status = rec
            .span("engine.export", || status_query.execute(session))
            .ok()?;
        rec.span("dataframe.decode", || {
            for row in status.iter_rows() {
                let status = CovidStatus::from_name(row[1].as_str()?)?;
                by_doc.insert(row[0].as_str()?.to_string(), status);
            }
            Some(())
        })?;
        let evidence_query = rec
            .span("engine.prepare", || session.prepare("?Evidence(d, m, e)"))
            .ok()?;
        let evidence = rec
            .span("engine.export", || evidence_query.execute(session))
            .ok()?;
        rec.span("dataframe.decode", || {
            for row in evidence.iter_rows() {
                let span = row[1].as_span()?;
                let kind = match row[2].as_str()? {
                    "positive" => MentionEvidence::Positive,
                    "negated" => MentionEvidence::Negated,
                    _ => MentionEvidence::Uncertain,
                };
                mentions
                    .entry(row[0].as_str()?.to_string())
                    .or_default()
                    .push((span.start_usize(), span.end_usize(), kind));
            }
            Some(())
        })?;
        let results = rec.span("covid.assemble", || {
            self.notes
                .iter()
                .map(|d| {
                    let mut ms = mentions.remove(&d.id).unwrap_or_default();
                    ms.sort_by_key(|&(s, e, _)| (s, e));
                    DocumentResult {
                        doc_id: d.id.clone(),
                        status: by_doc.get(&d.id).copied().unwrap_or(CovidStatus::Unknown),
                        mentions: ms,
                    }
                })
                .collect()
        });
        self.profile = session.profile();
        self.cache = session.cache_stats();
        self.docstore_bytes = session.docs().bytes();
        // Freeing the session (relations, memo, documents) is part of
        // a cold unit's wall.
        rec.span("covid.pipeline_drop", || drop(pipeline));
        Some(results)
    }
}

/// The pipeline's session just before compilation: IE functions
/// registered, policy tables imported, rules loaded, `Notes` declared.
fn uncompiled_session() -> Option<Session> {
    let mut session = Session::new();
    register_ie_functions(
        &mut session,
        Arc::new(target_rules::build_target_matcher()),
        Arc::new(context_rules::build_context_engine()),
    );
    for (csv, name) in [
        (SECTION_POLICIES_CSV, "SectionPolicy"),
        (MODIFIER_POLICIES_CSV, "ModifierPolicy"),
    ] {
        session
            .import_dataframe(&DataFrame::from_csv(csv).ok()?, name)
            .ok()?;
    }
    session
        .declare("Notes", Schema::new(vec![ValueType::Str, ValueType::Str]))
        .ok()?;
    session.run(RULES).ok()?;
    Some(session)
}

impl Workload for CovidBatch {
    const UNITS: usize = 13;

    fn setup(seed: u64, _units: usize) -> CovidBatch {
        let notes = corpus::covid_notes(NOTES, 0, seed);
        let expected = NativePipeline::new().classify_corpus(&notes);
        let mut w = CovidBatch {
            notes,
            expected,
            traced: false,
            last: None,
            profile: None,
            cache: CacheStats::default(),
            docstore_bytes: 0,
            cold_ms: Vec::new(),
        };
        w.last = w.classify();
        w
    }

    fn set_traced(&mut self, traced: bool) {
        self.traced = traced;
    }

    fn unit(&mut self, _index: usize, rec: &mut Recorder) {
        if self.traced {
            self.last = self.classify_traced(rec);
        } else {
            let start = Instant::now();
            self.last = self.classify();
            self.cold_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }

    fn verify(&mut self, _index: usize) -> (u64, u64) {
        let ops = self.notes.len() as u64;
        let ok = self
            .last
            .take()
            .is_some_and(|got| oracle::covid_mismatches(&got, &self.expected) == 0);
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

        // Parse and compile of the program, paid once per cold unit.
        layers.insert(
            "parser.parse_ms",
            time_ms(5, || spannerlog_parser::parse_program(RULES)),
        );
        if let Some(mut session) = uncompiled_session() {
            // Safety analysis, stratification and planning.
            layers.insert(
                "engine.prepare_ms",
                time_ms(1, || session.prepare_program().is_ok()),
            );
        }
        if let Ok(mut pipeline) = SpannerPipeline::new() {
            if pipeline.classify_corpus(&self.notes).is_ok() {
                let session = pipeline.session_mut();
                layers.insert(
                    "engine.snapshot_ms",
                    time_ms(5, || session.snapshot().is_ok()),
                );
            }
        }

        // The four IE bodies, called directly on the corpus.
        let texts: Vec<&str> = self.notes.iter().map(|d| d.text.as_str()).collect();
        layers.insert(
            "core.intern_ms",
            time_ms(3, || {
                let mut docs = DocumentStore::new();
                texts.iter().map(|t| docs.intern(t).index()).sum::<u32>()
            }),
        );
        layers.insert(
            "nlp.sentences_ms",
            time_ms(3, || {
                texts
                    .iter()
                    .map(|t| split_sentences(t).len())
                    .sum::<usize>()
            }),
        );
        layers.insert(
            "nlp.sections_ms",
            time_ms(3, || {
                texts
                    .iter()
                    .map(|t| detect_sections(t).len())
                    .sum::<usize>()
            }),
        );
        let sentences: Vec<&str> = texts
            .iter()
            .flat_map(|t| split_sentences(t).into_iter().map(|s| &t[s.start..s.end]))
            .collect();
        let matcher = target_rules::build_target_matcher();
        layers.insert(
            "nlp.matcher_ms",
            time_ms(3, || {
                sentences
                    .iter()
                    .map(|s| matcher.find(&tokenize(s), s).len())
                    .sum::<usize>()
            }),
        );
        let context = context_rules::build_context_engine();
        let targets: Vec<Vec<(usize, usize)>> = sentences
            .iter()
            .map(|s| {
                matcher
                    .find(&tokenize(s), s)
                    .into_iter()
                    .map(|m| (m.start, m.end))
                    .collect()
            })
            .collect();
        layers.insert(
            "nlp.context_ms",
            time_ms(3, || {
                sentences
                    .iter()
                    .zip(&targets)
                    .map(|(s, t)| context.assert_targets(s, (0, s.len()), t).len())
                    .sum::<usize>()
            }),
        );
        let native = NativePipeline::new();
        let native_ms = time_ms(3, || native.classify_corpus(&self.notes).len());
        layers.insert("covid.native_ms", native_ms);
        layers.insert(
            "covid.declarative_overhead",
            crate::report::median(&mut self.cold_ms) / native_ms,
        );
        layers
    }

    fn sizes(&self) -> String {
        let bytes: usize = self.notes.iter().map(|d| d.text.len()).sum();
        format!("notes={} bytes={bytes}", self.notes.len())
    }
}
