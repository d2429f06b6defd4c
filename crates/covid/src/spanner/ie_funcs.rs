//! The Python-IE-function analogue: thin wrappers around the NLP library
//! registered as Spannerlog IE functions.
//!
//! Table 1 counts 93 lines of "Python IE Functions" in the rewrite —
//! this module is their Rust counterpart: each function is a few lines
//! of adapter code around a library call, with no pipeline logic.

use spannerlib_core::{Span, Value};
use spannerlib_nlp::sections::detect_sections;
use spannerlib_nlp::sentences::split_sentences;
use spannerlib_nlp::tokenizer::tokenize;
use spannerlib_nlp::{ContextEngine, PhraseMatcher};
use spannerlog_engine::Session;
use std::sync::Arc;

/// Registers the four IE functions the rule file uses:
/// `sents`, `note_sections`, `mentions`, `assertions`.
pub fn register_ie_functions(
    session: &mut Session,
    targets: Arc<PhraseMatcher>,
    context: Arc<ContextEngine>,
) {
    // sents(text) -> (sentence_span)
    //
    // All four adapters resolve their text argument lazily: the document
    // is only interned once a result span actually needs one, so texts
    // with no sentences/sections/mentions never enter the doc store.
    session.register("sents", Some(1), |args, out, ctx| {
        let mut arg = ctx.text_arg(&args[0])?;
        let text = arg.shared_text();
        for s in split_sentences(&text) {
            let (doc, base) = arg.doc_base(ctx);
            out.push(&[Value::Span(Span::new(doc, base + s.start, base + s.end))])?;
        }
        Ok(())
    });

    // note_sections(text) -> (section_span, category)
    session.register("note_sections", Some(1), |args, out, ctx| {
        let mut arg = ctx.text_arg(&args[0])?;
        let text = arg.shared_text();
        for s in detect_sections(&text) {
            let (doc, base) = arg.doc_base(ctx);
            out.push(&[
                Value::Span(Span::new(doc, base + s.header_start, base + s.body_end)),
                Value::str(s.category),
            ])?;
        }
        Ok(())
    });

    // mentions(sentence_span) -> (mention_span, label)
    let matcher = targets.clone();
    session.register("mentions", Some(1), move |args, out, ctx| {
        let mut arg = ctx.text_arg(&args[0])?;
        let text = arg.shared_text();
        let tokens = tokenize(&text);
        for m in matcher.find(&tokens, &text) {
            let (doc, base) = arg.doc_base(ctx);
            out.push(&[
                Value::Span(Span::new(doc, base + m.start, base + m.end)),
                Value::str(m.label),
            ])?;
        }
        Ok(())
    });

    // assertions(sentence_span) -> (mention_span, category)
    let matcher = targets;
    let engine = context;
    session.register("assertions", Some(1), move |args, out, ctx| {
        let mut arg = ctx.text_arg(&args[0])?;
        let text = arg.shared_text();
        let tokens = tokenize(&text);
        let spans: Vec<(usize, usize)> = matcher
            .find(&tokens, &text)
            .into_iter()
            .map(|m| (m.start, m.end))
            .collect();
        for assertion in engine.assert_targets(&text, (0, text.len()), &spans) {
            for category in &assertion.categories {
                let (doc, base) = arg.doc_base(ctx);
                let (start, end) = assertion.target;
                out.push(&[
                    Value::Span(Span::new(doc, base + start, base + end)),
                    Value::str(category.name()),
                ])?;
            }
        }
        Ok(())
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::context_rules::build_context_engine;
    use crate::native::target_rules::build_target_matcher;

    fn session() -> Session {
        let mut s = Session::new();
        register_ie_functions(
            &mut s,
            Arc::new(build_target_matcher()),
            Arc::new(build_context_engine()),
        );
        s.run("new T(str)").unwrap();
        s
    }

    #[test]
    fn sents_splits() {
        let mut s = session();
        s.add_fact("T", [Value::str("One here. Two here.")])
            .unwrap();
        s.run("S(x) <- T(t), sents(t) -> (x)").unwrap();
        assert_eq!(s.relation("S").unwrap().len(), 2);
    }

    #[test]
    fn mentions_find_targets_with_labels() {
        let mut s = session();
        s.add_fact("T", [Value::str("patient has covid-19 and fever")])
            .unwrap();
        s.run(r#"M(m) <- T(t), sents(t) -> (x), mentions(x) -> (m, "COVID")"#)
            .unwrap();
        assert_eq!(s.relation("M").unwrap().len(), 1);
    }

    #[test]
    fn assertions_emit_category_rows() {
        let mut s = session();
        s.add_fact("T", [Value::str("Patient denies covid-19 exposure.")])
            .unwrap();
        s.run(r#"A(m, c) <- T(t), sents(t) -> (x), assertions(x) -> (m, c)"#)
            .unwrap();
        let rel = s.relation("A").unwrap();
        let cats: Vec<String> = rel
            .sorted_tuples()
            .iter()
            .map(|t| t[1].as_str().unwrap().to_string())
            .collect();
        assert!(cats.contains(&"negated".to_string()));
    }

    #[test]
    fn note_sections_categorize() {
        let mut s = session();
        s.add_fact(
            "T",
            [Value::str("Family History: none\nAssessment/Plan: rest\n")],
        )
        .unwrap();
        s.run("Sec(c) <- T(t), note_sections(t) -> (x, c)").unwrap();
        let rel = s.relation("Sec").unwrap();
        assert_eq!(rel.len(), 2);
    }
}
