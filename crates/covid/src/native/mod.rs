//! The **imperative** implementation of the COVID-19 classification
//! pipeline — the "Original Code" column of Table 1.
//!
//! Everything the pipeline needs is expressed as Rust code: the target
//! lexicon ([`target_rules`]), the ConText modifier configuration
//! ([`context_rules`]), section handling and policies
//! ([`section_rules`]), mention post-processing ([`postprocess`]), and
//! the document classifier ([`document_classifier`]) — orchestrated
//! imperatively below. This mirrors how the original 4335-line Python
//! system was organized (components configured by constants in code,
//! glued by explicit control flow), which is precisely the style the
//! SpannerLib rewrite replaces with rules and data files.

pub mod context_rules;
pub mod document_classifier;
pub mod postprocess;
pub mod report;
pub mod section_rules;
pub mod target_rules;

use crate::classify::{CovidStatus, DocumentResult};
use crate::corpus::CorpusDoc;
use document_classifier::{classify_mentions, AnalyzedMention};
use spannerlib_nlp::sections::detect_sections;
use spannerlib_nlp::sentences::split_sentences;
use spannerlib_nlp::tokenizer::tokenize;
use spannerlib_nlp::{ContextEngine, PhraseMatcher};

/// The assembled imperative pipeline.
pub struct NativePipeline {
    targets: PhraseMatcher,
    context: ContextEngine,
}

impl Default for NativePipeline {
    fn default() -> Self {
        Self::new()
    }
}

impl NativePipeline {
    /// Builds the pipeline from the inline configuration modules.
    pub fn new() -> Self {
        NativePipeline {
            targets: target_rules::build_target_matcher(),
            context: context_rules::build_context_engine(),
        }
    }

    /// Classifies one note.
    pub fn classify_document(&self, doc_id: &str, text: &str) -> DocumentResult {
        // 1. Structure: sections and sentences.
        let sections = detect_sections(text);
        let sentences = split_sentences(text);

        // 2. Per sentence: find target mentions, run ConText over them.
        let mut analyzed: Vec<AnalyzedMention> = Vec::new();
        for sentence in &sentences {
            let slice = &text[sentence.start..sentence.end];
            let tokens = tokenize(slice);
            let matches = self.targets.find(&tokens, slice);
            if matches.is_empty() {
                continue;
            }
            let target_spans: Vec<(usize, usize)> = matches
                .iter()
                .map(|m| (sentence.start + m.start, sentence.start + m.end))
                .collect();
            let assertions =
                self.context
                    .assert_targets(text, (sentence.start, sentence.end), &target_spans);
            for (m, assertion) in matches.iter().zip(assertions) {
                analyzed.push(AnalyzedMention {
                    start: sentence.start + m.start,
                    end: sentence.start + m.end,
                    label: m.label.to_string(),
                    categories: assertion.categories,
                });
            }
        }

        // 3. Post-process: dedupe and order mentions.
        let analyzed = postprocess::normalize_mentions(analyzed);

        // 4. Classify.
        let (status, mentions) = classify_mentions(&analyzed, &sections);
        DocumentResult {
            doc_id: doc_id.to_string(),
            status,
            mentions,
        }
    }

    /// Classifies a whole corpus.
    pub fn classify_corpus(&self, docs: &[CorpusDoc]) -> Vec<DocumentResult> {
        docs.iter()
            .map(|d| self.classify_document(&d.id, &d.text))
            .collect()
    }

    /// Accuracy against gold labels.
    pub fn accuracy(&self, docs: &[CorpusDoc]) -> f64 {
        if docs.is_empty() {
            return 1.0;
        }
        let correct = docs
            .iter()
            .filter(|d| self.classify_document(&d.id, &d.text).status == d.gold)
            .count();
        correct as f64 / docs.len() as f64
    }
}

/// Convenience: classify with a fresh pipeline.
pub fn classify_corpus(docs: &[CorpusDoc]) -> Vec<DocumentResult> {
    NativePipeline::new().classify_corpus(docs)
}

/// Convenience: status of one text.
pub fn classify_text(text: &str) -> CovidStatus {
    NativePipeline::new()
        .classify_document("adhoc", text)
        .status
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::generate_corpus;

    #[test]
    fn positive_note() {
        let status =
            classify_text("Assessment/Plan: Patient tested positive for covid-19 this morning.\n");
        assert_eq!(status, CovidStatus::Positive);
    }

    #[test]
    fn negated_note() {
        let status =
            classify_text("History of Present Illness: Patient denies covid-19 exposure.\n");
        assert_eq!(status, CovidStatus::Negative);
    }

    #[test]
    fn family_mention_is_ignored() {
        let status = classify_text("Family History: Mother tested positive for covid-19.\n");
        assert_eq!(status, CovidStatus::Unknown);
    }

    #[test]
    fn hypothetical_is_ignored() {
        let status = classify_text("Assessment/Plan: Return if covid-19 symptoms develop.\n");
        assert_eq!(status, CovidStatus::Unknown);
    }

    #[test]
    fn uncertain_note() {
        let status = classify_text("Assessment/Plan: Possible covid-19 infection.\n");
        assert_eq!(status, CovidStatus::Uncertain);
    }

    #[test]
    fn unmodified_mention_is_uncertain() {
        let status = classify_text("Assessment/Plan: Counseling regarding covid-19 provided.\n");
        assert_eq!(status, CovidStatus::Uncertain);
    }

    #[test]
    fn positive_beats_negated_across_mentions() {
        let status = classify_text(
            "History of Present Illness: Patient denies covid-19 exposure.\n\
             Assessment/Plan: Covid-19 test came back positive.\n",
        );
        assert_eq!(status, CovidStatus::Positive);
    }

    #[test]
    fn no_mention_is_unknown() {
        let status = classify_text(
            "Chief Complaint: Routine follow up visit.\n\
             Assessment/Plan: Continue current medications.\n",
        );
        assert_eq!(status, CovidStatus::Unknown);
    }

    #[test]
    fn gold_accuracy_is_high_on_synthetic_corpus() {
        let docs = generate_corpus(200, 11);
        let pipeline = NativePipeline::new();
        let acc = pipeline.accuracy(&docs);
        assert!(acc >= 0.95, "accuracy {acc} below threshold");
    }

    #[test]
    fn results_carry_mention_spans() {
        let pipeline = NativePipeline::new();
        let text = "Assessment/Plan: Confirmed covid-19 infection on admission.\n";
        let result = pipeline.classify_document("d", text);
        assert_eq!(result.mentions.len(), 1);
        let (s, e, _) = result.mentions[0];
        // Longest lexicon phrase wins: "covid-19 infection".
        assert_eq!(&text[s..e], "covid-19 infection");
    }
}
