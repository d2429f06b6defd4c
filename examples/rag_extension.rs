//! Demo scenario 3 ("Extending SpannerLib Code", paper §5): extending the
//! code-documentation pipeline with the two prompt-augmentation
//! techniques the paper names — Retrieval-Augmented Generation and
//! few-shot prompting from user feedback.
//!
//! The point of the scenario is how *little* changes: each extension is
//! one new IE function registration plus one or two added rules; the
//! existing pipeline is untouched.
//!
//! Run with: `cargo run --example rag_extension`

use spannerlib::llm::{FewShotStore, LlmModel, RagRetriever, TemplateLlm};
use spannerlib::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let llm = TemplateLlm::new();
    let mut session = Session::builder()
        .register("llm", Some(1), move |args, out, _ctx| {
            let prompt = args[0].as_str().unwrap_or_default();
            out.push(&[Value::str(llm.complete(prompt))])
        })
        .build();

    // --- Extension 1: RAG over documentation not seen in training ------
    let retriever = RagRetriever::new(
        [
            (
                "style-guide".to_string(),
                "Docstrings start with a capitalized verb phrase".to_string(),
            ),
            (
                "triage-spec".to_string(),
                "The triage module computes patient risk scores from history".to_string(),
            ),
            (
                "deploy-notes".to_string(),
                "Deployment runs every Tuesday evening".to_string(),
            ),
        ],
        2,
    );
    session.register("retrieve", Some(1), move |args, out, _ctx| {
        let question = args[0].as_str().unwrap_or_default();
        out.push(&[Value::str(retriever.augment(question))])
    });

    session.run(
        r#"
        new Questions(str)
        Questions("what does the triage module compute")
        RagAnswer(q, a) <- Questions(q), retrieve(q) -> (p), llm(p) -> (a)
        "#,
    )?;
    let rag = session.export("?RagAnswer(q, a)")?;
    println!("RAG-augmented answer:\n{rag}\n");
    let answer = rag.get(0, 1).unwrap();
    assert!(answer.as_str().unwrap().contains("risk scores"));

    // --- Extension 2: few-shot prompting from recorded feedback --------
    let mut store = FewShotStore::new();
    store.record("summarize the admission note", "SUMMARY: ADMITTED STABLE");
    store.record("summarize the discharge note", "SUMMARY: DISCHARGED WELL");
    store.record("translate to german", "guten tag");
    session.register("fewshot", Some(1), move |args, out, _ctx| {
        let input = args[0].as_str().unwrap_or_default();
        out.push(&[Value::str(store.prompt(input, 2))])
    });

    session.run(
        r#"
        new Tasks(str)
        Tasks("summarize the radiology note")
        StyledAnswer(t, a) <- Tasks(t), fewshot(t) -> (p), llm(p) -> (a)
        "#,
    )?;
    let styled = session.export("?StyledAnswer(t, a)")?;
    println!("Few-shot styled answer:\n{styled}");
    let answer = styled.get(0, 1).unwrap();
    // The model follows the uppercase style of the similar examples.
    assert_eq!(answer.as_str().unwrap(), "SUMMARIZE THE RADIOLOGY NOTE");
    Ok(())
}
