//! Smoke tests for the four §5 demo scenarios (the examples exercise
//! them interactively; these keep them under `cargo test`).

use spannerlib::covid::corpus::generate_corpus;
use spannerlib::covid::native::NativePipeline;
use spannerlib::covid::spanner::SpannerPipeline;
use spannerlib::llm::{FewShotStore, LlmModel, RagRetriever, TemplateLlm};
use spannerlib::prelude::*;

#[test]
fn scenario_basic_task_identical_sentences() {
    let mut session = Session::new();
    session.register("sents", Some(1), |args, out, ctx| {
        let mut text = ctx.text_arg(&args[0])?;
        let (doc, base) = text.doc_base(ctx);
        let mut sentences = spannerlib::nlp::split_sentences(text.text()).into_iter();
        sentences.try_for_each(|s| {
            let span = spannerlib::Span::new(doc, base + s.start, base + s.end);
            out.push(&[Value::Span(span)])
        })
    });
    session
        .run(
            r#"
            new Corpus(str, str)
            Corpus("a", "Shared line. Unique a.")
            Corpus("b", "Shared line. Unique b.")
            S(d, txt) <- Corpus(d, t), sents(t) -> (x), as_str(x) -> (txt)
            Same(d1, d2, txt) <- S(d1, txt), S(d2, txt), d1 < d2
            "#,
        )
        .unwrap();
    let out = session.export("?Same(d1, d2, txt)").unwrap();
    assert_eq!(out.num_rows(), 1);
    assert_eq!(out.get(0, 2), Some(Value::str("Shared line.")));
}

#[test]
fn scenario_end_to_end_documentation() {
    let mut session = Session::new();
    spannerlib::codeast::ie::register_ast_functions(&mut session);
    let llm = TemplateLlm::new();
    session.register("llm", Some(1), move |args, out, _ctx| {
        out.push(&[Value::str(
            llm.complete(args[0].as_str().unwrap_or_default()),
        )])
    });
    session.run("new Files(str, str)").unwrap();
    session
        .add_fact(
            "Files",
            [
                Value::str("m.ml"),
                Value::str("fn parse_header(line) { return split(line); }"),
            ],
        )
        .unwrap();
    session
        .run(
            r#"
            Decl(s) <- Files(f, c), ast(".*.FuncDecl", c) -> (s)
            Doc(a) <- Decl(s),
                      format("Write documentation for the function:\n{}", s) -> (q),
                      llm(q) -> (a)
            "#,
        )
        .unwrap();
    let out = session.export("?Doc(a)").unwrap();
    assert!(out
        .get(0, 0)
        .unwrap()
        .as_str()
        .unwrap()
        .starts_with("/// Parse header."));
}

#[test]
fn scenario_extending_with_rag_and_fewshot() {
    // RAG: retrieval feeds the QA-shaped prompt.
    let retriever = RagRetriever::new(
        [(
            "spec".to_string(),
            "The engine evaluates Spannerlog rules bottom-up".to_string(),
        )],
        1,
    );
    let prompt = retriever.augment("how are rules evaluated");
    let answer = TemplateLlm::new().complete(&prompt);
    assert!(answer.contains("bottom-up"));

    // Few-shot: recorded feedback shapes later completions.
    let mut store = FewShotStore::new();
    store.record("label the note", "LABEL: A");
    store.record("label the chart", "LABEL: B");
    let styled = TemplateLlm::new().complete(&store.prompt("label the scan", 2));
    assert_eq!(styled, "LABEL THE SCAN");
}

#[test]
fn scenario_real_code_base_side_by_side() {
    let docs = generate_corpus(40, 123);
    let native = NativePipeline::new().classify_corpus(&docs);
    let rewritten = SpannerPipeline::new()
        .unwrap()
        .classify_corpus(&docs)
        .unwrap();
    assert_eq!(native.len(), rewritten.len());
    for (n, s) in native.iter().zip(&rewritten) {
        assert_eq!(n.status, s.status, "disagreement on {}", n.doc_id);
    }
    // Table 1 artifacts are available and consistent.
    let summary = spannerlib::covid::loc::summary();
    assert!(summary.original_total > summary.rewrite_imperative);
    let rendered = spannerlib::covid::loc::render_table1();
    assert!(rendered.contains("Table 1"));
}
