//! # spannerlib-nlp
//!
//! A deterministic, rule-based NLP substrate — the stand-in for
//! spaCy/medSpaCy in the paper's §4.2 case study.
//!
//! The COVID-19 surveillance pipeline the paper rewrites (Chapman et al.
//! 2020) is built from rule-based components: a tokenizer, a sentence
//! splitter, a phrase matcher for *target* concepts, the **ConText**
//! algorithm for assertion modifiers (negation, hypothetical, family
//! history, …), a clinical *section* detector, and a document classifier.
//! This crate implements each of those from scratch but the classifier,
//! which is the case study's own (`spannerlib-covid`):
//!
//! | module | role | spaCy analogue |
//! |---|---|---|
//! | [`tokenizer`] | span-carrying word/number/punct tokens | `Tokenizer` |
//! | [`sentences`] | abbreviation-aware sentence splitting | `Sentencizer` |
//! | [`matcher`] | case-insensitive multi-token phrase matching | `PhraseMatcher` |
//! | [`context`] | the ConText assertion algorithm | `medspacy_context` |
//! | [`sections`] | clinical note section detection | `medspacy_sections` |
//!
//! Everything operates on **byte-offset spans** compatible with
//! [`spannerlib_core::Span`], so outputs flow directly into Spannerlog
//! relations.

pub mod context;
pub mod matcher;
pub mod sections;
pub mod sentences;
pub mod tokenizer;

pub use context::{
    ContextEngine, ContextModifier, ModifierCategory, ModifierDirection, ModifierRule,
};
pub use matcher::{PhraseMatch, PhraseMatcher};
pub use sections::{detect_sections, Section};
pub use sentences::split_sentences;
pub use tokenizer::{tokenize, Token, TokenKind};
