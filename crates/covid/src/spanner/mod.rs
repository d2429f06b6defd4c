//! The **SpannerLib rewrite** of the pipeline — the right-hand column of
//! Table 1.
//!
//! What remains imperative is exactly what the paper's rewrite kept in
//! Python: this thin driver (build a session, load data, import/export)
//! and the IE-function adapters in [`ie_funcs`]. Everything else moved
//! to declarative artifacts:
//!
//! * `rules/covid.slog` — the orchestration, as Spannerlog rules;
//! * `data/covid_targets.csv` — the target lexicon;
//! * `data/modifier_rules.csv` — the complete ConText cue table;
//! * `data/section_policies.csv`, `data/modifier_policies.csv` — policy
//!   tables.

pub mod ie_funcs;

use crate::classify::{CovidStatus, DocumentResult, MentionEvidence};
use crate::corpus::CorpusDoc;
use spannerlib_core::{Schema, Value, ValueType};
use spannerlib_dataframe::DataFrame;
use spannerlib_nlp::{
    ContextEngine, ModifierCategory, ModifierDirection, ModifierRule, PhraseMatcher,
};
use spannerlog_engine::{EngineError, EvalProfile, PreparedQuery, Result, Session, TraceLevel};
use std::sync::Arc;

/// The Spannerlog program (declarative orchestration).
pub const RULES: &str = include_str!("../../rules/covid.slog");

/// The target lexicon ("code as data").
pub const TARGETS_CSV: &str = include_str!("../../data/covid_targets.csv");

/// The complete ConText modifier table ("code as data").
pub const MODIFIER_RULES_CSV: &str = include_str!("../../data/modifier_rules.csv");

/// Section policy table ("code as data").
pub const SECTION_POLICIES_CSV: &str = include_str!("../../data/section_policies.csv");

/// Modifier policy table ("code as data").
pub const MODIFIER_POLICIES_CSV: &str = include_str!("../../data/modifier_policies.csv");

/// The assembled declarative pipeline.
///
/// The program is compiled **once** at construction: `new()` loads the
/// rules, declares the corpus relation, and prepares the `Status` and
/// `Evidence` queries. Each [`SpannerPipeline::classify_corpus`] call
/// then only imports fresh `Notes` and executes the prepared queries —
/// the serving-path shape of the prepare/execute lifecycle.
pub struct SpannerPipeline {
    session: Session,
    status_query: PreparedQuery,
    evidence_query: PreparedQuery,
}

impl SpannerPipeline {
    /// Builds the pipeline: parses the CSV artifacts, registers the IE
    /// functions, imports the policy relations, loads the rules, and
    /// prepares the export queries.
    pub fn new() -> Result<SpannerPipeline> {
        SpannerPipeline::with_tracing(TraceLevel::Off)
    }

    /// Like [`SpannerPipeline::new`], with evaluations traced at
    /// `level` — after a [`SpannerPipeline::classify_corpus`] call,
    /// [`SpannerPipeline::profile`] then holds the per-rule breakdown
    /// of the fixpoint that classified the batch.
    pub fn with_tracing(level: TraceLevel) -> Result<SpannerPipeline> {
        // Notebook-style use replaces the corpus batch after batch: let
        // doc-store GC reclaim the texts of replaced corpora once they
        // outgrow the watermark.
        let mut session = Session::builder()
            .doc_gc(spannerlog_engine::DocGc::Threshold {
                bytes: spannerlog_engine::DOC_GC_WATERMARK_BYTES,
            })
            .tracing(level)
            .build();

        // Target matcher from CSV.
        let targets_df = DataFrame::from_csv(TARGETS_CSV)?;
        let mut matcher = PhraseMatcher::new();
        for row in targets_df.iter_rows() {
            let phrase = row[0].as_str().expect("phrase column is str");
            let label = row[1].as_str().expect("label column is str");
            matcher.add(label, phrase);
        }

        // ConText engine: the complete modifier table from CSV.
        let rules_df = DataFrame::from_csv(MODIFIER_RULES_CSV)?;
        let rules = rules_df
            .iter_rows()
            .map(|row| parse_modifier_rule(&row))
            .collect::<Result<Vec<_>>>()?;
        let context = ContextEngine::new(rules);

        ie_funcs::register_ie_functions(&mut session, Arc::new(matcher), Arc::new(context));

        // Policy relations.
        let sections_df = DataFrame::from_csv(SECTION_POLICIES_CSV)?;
        session.import_dataframe(&sections_df, "SectionPolicy")?;
        let modifiers_df = DataFrame::from_csv(MODIFIER_POLICIES_CSV)?;
        session.import_dataframe(&modifiers_df, "ModifierPolicy")?;

        // The corpus relation is declared ahead of the program: `run`
        // compiles the rules as they arrive, so every relation they read
        // must be known by then. The export queries are prepared once,
        // over the program that `run` compiled.
        session.declare("Notes", Schema::new(vec![ValueType::Str, ValueType::Str]))?;
        session.run(RULES)?;
        let program = session.prepare_program()?;
        let status_query = program.query("?Status(d, s)")?;
        let evidence_query = program.query("?Evidence(d, m, e)")?;
        Ok(SpannerPipeline {
            session,
            status_query,
            evidence_query,
        })
    }

    /// Classifies a corpus: imports `Notes`, evaluates, exports `Status`
    /// and `Evidence`.
    pub fn classify_corpus(&mut self, docs: &[CorpusDoc]) -> Result<Vec<DocumentResult>> {
        let notes = DataFrame::from_rows(
            vec!["doc".into(), "text".into()],
            docs.iter()
                .map(|d| vec![Value::str(d.id.as_str()), Value::str(d.text.as_str())])
                .collect(),
        )?;
        self.session.import_dataframe(&notes, "Notes")?;

        let status_df = self.status_query.execute(&mut self.session)?;
        let mut by_doc: std::collections::BTreeMap<String, CovidStatus> =
            std::collections::BTreeMap::new();
        for row in status_df.iter_rows() {
            let doc = row[0].as_str().expect("doc is str").to_string();
            let status = CovidStatus::from_name(row[1].as_str().expect("status is str"))
                .expect("status names are stable");
            by_doc.insert(doc, status);
        }

        let evidence_df = self.evidence_query.execute(&mut self.session)?;
        let mut mentions: std::collections::BTreeMap<String, Vec<(usize, usize, MentionEvidence)>> =
            std::collections::BTreeMap::new();
        for row in evidence_df.iter_rows() {
            let doc = row[0].as_str().expect("doc is str").to_string();
            let span = row[1].as_span().expect("mention is a span");
            let evidence = match row[2].as_str().expect("evidence is str") {
                "positive" => MentionEvidence::Positive,
                "negated" => MentionEvidence::Negated,
                _ => MentionEvidence::Uncertain,
            };
            mentions
                .entry(doc)
                .or_default()
                .push((span.start_usize(), span.end_usize(), evidence));
        }

        Ok(docs
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
            .collect())
    }

    /// Accuracy against gold labels.
    pub fn accuracy(&mut self, docs: &[CorpusDoc]) -> Result<f64> {
        if docs.is_empty() {
            return Ok(1.0);
        }
        let results = self.classify_corpus(docs)?;
        let correct = results
            .iter()
            .zip(docs)
            .filter(|(r, d)| r.status == d.gold)
            .count();
        Ok(correct as f64 / docs.len() as f64)
    }

    /// Profile of the most recent evaluation (`None` unless the
    /// pipeline was built with [`SpannerPipeline::with_tracing`] at
    /// `Summary` or above and a corpus has been classified).
    pub fn profile(&self) -> Option<Arc<EvalProfile>> {
        self.session.profile()
    }

    /// Access to the underlying session (for ad-hoc queries in examples).
    pub fn session_mut(&mut self) -> &mut Session {
        &mut self.session
    }

    /// Consumes the pipeline, yielding its fully configured session —
    /// IE functions registered, policy tables imported, rules loaded.
    /// This is the seed for serving front ends (`spannerd`) that take
    /// ownership of the session and drive it over the wire; the
    /// pipeline's prepared queries are dropped, re-prepare by name
    /// (e.g. `?Status(d, s)`) on the serving side.
    pub fn into_session(self) -> Session {
        self.session
    }
}

fn parse_modifier_rule(row: &[Value]) -> Result<ModifierRule> {
    let get = |i: usize| -> Result<&str> {
        row.get(i)
            .and_then(Value::as_str)
            .ok_or_else(|| EngineError::IeRuntime {
                function: "modifier_rules".into(),
                msg: format!("column {i} must be a string"),
            })
    };
    let phrase = get(0)?;
    let category = ModifierCategory::from_name(get(1)?).ok_or_else(|| EngineError::IeRuntime {
        function: "modifier_rules".into(),
        msg: format!("unknown category {:?}", get(1).unwrap_or_default()),
    })?;
    let direction = match get(2)? {
        "forward" => ModifierDirection::Forward,
        "backward" => ModifierDirection::Backward,
        "bidirectional" => ModifierDirection::Bidirectional,
        "terminate" => ModifierDirection::Terminate,
        "pseudo" => ModifierDirection::Pseudo,
        other => {
            return Err(EngineError::IeRuntime {
                function: "modifier_rules".into(),
                msg: format!("unknown direction {other:?}"),
            })
        }
    };
    // Scope 0 encodes "unbounded" in the CSV.
    let max_scope = row
        .get(3)
        .and_then(Value::as_int)
        .filter(|&n| n > 0)
        .map(|n| n as usize);
    Ok(ModifierRule::new(phrase, category, direction, max_scope))
}

/// Convenience: classify a corpus with a fresh pipeline.
pub fn classify_corpus(docs: &[CorpusDoc]) -> Result<Vec<DocumentResult>> {
    SpannerPipeline::new()?.classify_corpus(docs)
}
