//! Demo scenario 1 ("Basic Task", paper §5): defining and composing IE
//! functions — finding identical sentences in a corpus, then a small
//! LLM-backed question-answering pipeline.
//!
//! Run with: `cargo run --example basic_task`

use spannerlib::llm::{LlmModel, TemplateLlm};
use spannerlib::nlp::split_sentences;
use spannerlib::prelude::*;
use spannerlib::Span;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Part 1: identical sentences across documents -----------------
    // Sentence splitting is seeded into the registry at build time (a
    // thin wrapper over host code, as the paper prescribes).
    let mut session = Session::builder()
        .register("sents", Some(1), |args, out, ctx| {
            let mut text = ctx.text_arg(&args[0])?;
            let (doc, base) = text.doc_base(ctx);
            let mut sentences = split_sentences(text.text()).into_iter();
            sentences.try_for_each(|s| {
                out.push(&[Value::Span(Span::new(doc, base + s.start, base + s.end))])
            })
        })
        .build();

    session.run(
        r#"
        new Corpus(str, str)
        Corpus("a.txt", "The lab is closed. Results are pending.")
        Corpus("b.txt", "Results are pending. Call tomorrow.")
        Corpus("c.txt", "Nothing matches here.")

        Sentence(d, s, txt) <- Corpus(d, t), sents(t) -> (s), as_str(s) -> (txt)
        # identical sentence text in two different documents
        Identical(d1, d2, txt) <- Sentence(d1, s1, txt), Sentence(d2, s2, txt), d1 < d2
        "#,
    )?;
    let out = session.export("?Identical(d1, d2, txt)")?;
    println!("Identical sentences across documents:\n{out}\n");
    assert_eq!(out.num_rows(), 1);

    // The same rows as typed host tuples instead of a stringly frame.
    let pairs: Vec<(String, String, String)> = session.export_typed("?Identical(d1, d2, txt)")?;
    assert_eq!(pairs.len(), 1);
    assert_eq!(pairs[0].0, "a.txt");

    // --- Part 2: LLM question answering over extracted context ---------
    // The LLM is an opaque str -> str IE function (here the deterministic
    // TemplateLlm standing in for a chat-model API).
    let llm = TemplateLlm::new();
    session.register("llm", Some(1), move |args, out, _ctx| {
        let prompt = args[0].as_str().unwrap_or_default();
        out.push(&[Value::str(llm.complete(prompt))])
    });

    session.run(
        r#"
        new Questions(str)
        Questions("when is the lab closed")

        # Build a prompt from every corpus document and ask the LLM.
        Context(lex_concat(str(t))) <- Corpus(d, t)
        Prompt(q, p) <- Questions(q), Context(c),
                        format("Context: {}\nQuestion: {}", c, q) -> (p)
        Answer(q, a) <- Prompt(q, p), llm(p) -> (a)
        "#,
    )?;
    let answers = session.export("?Answer(q, a)")?;
    println!("LLM answers:\n{answers}");
    assert_eq!(answers.num_rows(), 1);
    let answer = answers.get(0, 1).unwrap();
    assert!(answer.as_str().unwrap().contains("lab is closed"));
    Ok(())
}
