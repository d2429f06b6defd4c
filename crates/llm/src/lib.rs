//! # spannerlib-llm
//!
//! A deterministic LLM substrate — the stand-in for the chat-model API in
//! the paper's §4.1 code-documentation task and the §5 "Extending
//! SpannerLib Code" scenario (RAG + few-shot prompting).
//!
//! The paper treats the LLM as an opaque IE function `LLM(prompt) ↦
//! (answer)` wrapped in "a very thin wrapper around established
//! libraries". Reproducing that code path does not require a neural
//! model — it requires a `str → str` oracle with believable behaviour.
//! [`TemplateLlm`] provides one: it parses the structured prompts the
//! examples build (code context, questions, retrieved passages, few-shot
//! examples) and produces deterministic completions, so tests can assert
//! exact outputs. As in the paper, the §4.1 prompt is assembled inside a
//! rule, with `format`.
//!
//! The retrieval half of the scenario is real, built from scratch:
//! [`tfidf::TfIdfIndex`] implements TF-IDF vectors with cosine
//! similarity, [`rag::RagRetriever`] composes it into a
//! retrieve-then-prompt step, and [`fewshot::FewShotStore`] records
//! past (input, feedback) pairs and selects the most similar ones for
//! prompt augmentation.

pub mod fewshot;
pub mod model;
pub mod rag;
pub mod tfidf;

pub use fewshot::FewShotStore;
pub use model::{LlmModel, TemplateLlm};
pub use rag::RagRetriever;
pub use tfidf::TfIdfIndex;
