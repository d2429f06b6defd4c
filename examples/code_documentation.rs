//! Demo scenario 2 ("End-to-End Task", paper §4.1/§5): the
//! code-documentation pipeline.
//!
//! Given a code base (`Files`) and a cursor position (`Cursor`), build an
//! LLM context consisting of (1) the function containing the cursor and
//! (2) every function that calls it — the paper's improvement over the
//! "last k files" heuristic — then ask the LLM for documentation.
//!
//! The rules below are the paper's `scope_of` / `document` rules, spelled
//! out against this library's IE functions (`ast`, `ast_name`,
//! `ast_calls`, `llm`, `format`, `contained_in`).
//!
//! Run with: `cargo run --example code_documentation`

use spannerlib::codeast::ie::register_ast_functions;
use spannerlib::llm::{LlmModel, TemplateLlm};
use spannerlib::prelude::*;

const CODE: &str = "\
class Triage {
  fn compute_risk_score(patient, history) {
    let base = risk_baseline(patient);
    return base + adjust_for_history(history);
  }
}
fn risk_baseline(p) { return 1; }
fn adjust_for_history(h) { return 2; }
fn admit_patient(p, h) {
  let score = Triage.compute_risk_score(p, h);
  if score > 3 { escalate(p); }
}
fn weekly_report(ward) {
  let totals = Triage.compute_risk_score(ward, 0);
  publish(totals);
}
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut session = Session::new();
    register_ast_functions(&mut session);

    let llm = TemplateLlm::new();
    session.register("llm", Some(1), move |args, out, _ctx| {
        let prompt = args[0].as_str().unwrap_or_default();
        out.push(&[Value::str(llm.complete(prompt))])
    });

    // Files(name, content) and Cursor(pos): the cursor sits inside
    // compute_risk_score.
    session.run("new Files(str, str)")?;
    session.add_fact("Files", [Value::str("triage.ml"), Value::str(CODE)])?;
    let doc = session.intern(CODE);
    let at = CODE.find("risk_baseline(patient)").unwrap();
    let cursor = session.make_span(doc, at, at + 1)?;
    session.declare(
        "Cursor",
        spannerlib::Schema::new(vec![spannerlib::ValueType::Span]),
    )?;
    session.add_fact("Cursor", [Value::Span(cursor)])?;

    // The paper's pipeline, as Spannerlog rules.
    session.run(
        r#"
        # scope_of(pos, s): the declaration containing the cursor (§4.1).
        ScopeOf(pos, s) <- Files(f, c), Cursor(pos),
                           ast(".*.FuncDecl", c) -> (s), contained_in(pos, s)

        # The current function's name, and everyone who mentions it.
        CurrentName(name) <- ScopeOf(pos, s), ast_name(s) -> (name)
        Mentions(m, name) <- Files(f, c), ast_calls(c) -> (m, name)
        CallerCode(m) <- CurrentName(name), Mentions(m, name)
        CallerNames(collect(str(n))) <- CallerCode(m), ast_name(m) -> (n)

        # document(pos, a): prompt the LLM with scope + callers (§4.1).
        Prompt(q) <- ScopeOf(pos, s), CallerNames(callers),
                     format("Write documentation for the function:\n{}\nCallers:\n  {}", s, callers) -> (q)
        Document(pos, a) <- Cursor(pos), Prompt(q), llm(q) -> (a)
        "#,
    )?;

    // One compilation serves both export queries (an IDE would execute
    // them on every cursor move, against a re-imported Cursor relation).
    let program = session.prepare_program()?;
    let document_query = program.query("?Document(pos, a)")?;
    let callers_query = program.query("?CallerNames(c)")?;

    let out = document_query.execute(&mut session)?;
    let answer = out.get(0, 1).unwrap();
    let answer = answer.as_str().unwrap();
    println!("Cursor is inside `compute_risk_score`; generated documentation:\n");
    println!("{answer}\n");

    // The context retrieval found the right scope and both callers.
    assert!(answer.contains("Compute risk score"));
    assert!(answer.contains("admit_patient"));
    assert!(answer.contains("weekly_report"));

    let callers: Vec<(String,)> = callers_query.execute_typed(&mut session)?;
    println!("Callers found: {}", callers[0].0);
    Ok(())
}
