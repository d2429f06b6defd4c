//! IE-function wrappers — "wrap Python's AST library into an IE function
//! AST" (paper §5, End-to-End Task).
//!
//! [`register_ast_functions`] installs on a [`Session`]:
//!
//! * `ast(pattern, doc) -> (span)` — spans of AST nodes matching the
//!   XPath-like pattern (the paper's `AST('.*.(FuncDecl|ClassDecl)', c)`);
//! * `ast_name(decl) -> (name)` — the declared name of a
//!   function/class whose source is the given span or string;
//! * `ast_calls(doc) -> (caller_span, callee_name)` — one row per call
//!   site, attributing each call to its enclosing function declaration
//!   (the paper's `mentions` relation).
//!
//! Inputs accept strings or spans; span inputs keep outputs anchored in
//! the original document (file), which is what lets `contains(pos, s)`
//! joins work across rules.

use crate::ast::NodeKind;
use crate::parser::parse_source;
use crate::pattern::AstPattern;
use spannerlib_core::{Span, Value};
use spannerlog_engine::Session;

/// Registers the AST IE functions on a session.
pub fn register_ast_functions(session: &mut Session) {
    // ast(pattern, doc) -> (span)
    session.register("ast", Some(2), |args, out, ctx| {
        let pattern_src = args[0]
            .as_str()
            .ok_or_else(|| ctx.error("pattern must be a string"))?;
        let pattern = AstPattern::new(pattern_src).map_err(|e| ctx.error(e.to_string()))?;
        let mut arg = ctx.text_arg(&args[1])?;
        let source = arg.shared_text();
        let root = parse_source(&source).map_err(|e| ctx.error(e.to_string()))?;
        for n in pattern.find(&root) {
            // Lazy: interning happens only once a node span is minted.
            let (doc, base) = arg.doc_base(ctx);
            out.push(&[Value::Span(Span::new(doc, base + n.start, base + n.end))])?;
        }
        Ok(())
    });

    // ast_name(decl) -> (name)
    session.register("ast_name", Some(1), |args, out, ctx| {
        // Scalar output: the text is read but never interned.
        let arg = ctx.text_arg(&args[0])?;
        let source = arg.shared_text();
        let root = parse_source(&source).map_err(|e| ctx.error(e.to_string()))?;
        // The span is expected to cover exactly one declaration; take the
        // first declaration found (depth-first).
        let name = root
            .walk()
            .into_iter()
            .find(|n| matches!(n.kind, NodeKind::FuncDecl | NodeKind::ClassDecl))
            .and_then(|n| n.name.clone());
        name.map_or(Ok(()), |n| out.push(&[Value::str(n)]))
    });

    // ast_calls(doc) -> (caller_span, callee_name)
    session.register("ast_calls", Some(1), |args, out, ctx| {
        let mut arg = ctx.text_arg(&args[0])?;
        let source = arg.shared_text();
        let root = parse_source(&source).map_err(|e| ctx.error(e.to_string()))?;
        for func in root.find_kind(NodeKind::FuncDecl) {
            for call in func.find_kind(NodeKind::Call) {
                let callee = call.name.clone().unwrap_or_default();
                // Method-style callee `X.y` attributes to `y` as well.
                let short = callee.rsplit('.').next().unwrap_or(&callee).to_string();
                let (doc, base) = arg.doc_base(ctx);
                out.push(&[
                    Value::Span(Span::new(doc, base + func.start, base + func.end)),
                    Value::str(short),
                ])?;
            }
        }
        Ok(())
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    const CODE: &str = "\
class Triage {
  fn score(patient) { return base(patient); }
}
fn base(p) { return 1; }
fn report(x) { let s = Triage.score(x); print(s); }
";

    fn session_with_files() -> Session {
        let mut session = Session::new();
        register_ast_functions(&mut session);
        session.run("new Files(str, str)").unwrap();
        session
            .add_fact("Files", [Value::str("triage.ml"), Value::str(CODE)])
            .unwrap();
        session
    }

    #[test]
    fn ast_pattern_rule_extracts_declarations() {
        let mut session = session_with_files();
        session
            .run(r#"Scope(s) <- Files(f, c), ast(".*.(FuncDecl|ClassDecl)", c) -> (s)"#)
            .unwrap();
        let rel = session.relation("Scope").unwrap();
        assert_eq!(rel.len(), 4); // Triage, score, base, report
    }

    #[test]
    fn ast_name_resolves_declaration_names() {
        let mut session = session_with_files();
        session
            .run(
                r#"
                Decl(s) <- Files(f, c), ast(".*.FuncDecl", c) -> (s)
                Named(n) <- Decl(s), ast_name(s) -> (n)
            "#,
            )
            .unwrap();
        let out = session.export("?Named(n)").unwrap();
        let names: Vec<String> = out
            .iter_rows()
            .map(|r| r[0].as_str().unwrap().to_string())
            .collect();
        assert_eq!(names, vec!["base", "report", "score"]);
    }

    #[test]
    fn ast_calls_attributes_callers() {
        let mut session = session_with_files();
        session
            .run(
                r#"
                Mention(m, name) <- Files(f, c), ast_calls(c) -> (m, name)
                CallerOfScore(n) <- Mention(m, "score"), ast_name(m) -> (n)
            "#,
            )
            .unwrap();
        let out = session.export("?CallerOfScore(n)").unwrap();
        let names: Vec<String> = out
            .iter_rows()
            .map(|r| r[0].as_str().unwrap().to_string())
            .collect();
        assert_eq!(names, vec!["report"]);
    }

    #[test]
    fn paper_scope_of_rule_with_cursor() {
        // scope_of(pos, s): the declaration containing the cursor.
        let mut session = session_with_files();
        let doc = session.intern(CODE);
        let cursor_at = CODE.find("return base").unwrap();
        let pos = session.make_span(doc, cursor_at, cursor_at + 1).unwrap();
        session
            .declare(
                "Cursor",
                spannerlib_core::Schema::new(vec![spannerlib_core::ValueType::Span]),
            )
            .unwrap();
        session.add_fact("Cursor", [Value::Span(pos)]).unwrap();
        session
            .run(
                r#"
                ScopeOf(pos, s) <- Files(f, c), Cursor(pos),
                                   ast(".*.FuncDecl", c) -> (s),
                                   contained_in(pos, s)
                TightScope(n) <- ScopeOf(pos, s), ast_name(s) -> (n)
            "#,
            )
            .unwrap();
        let out = session.export("?TightScope(n)").unwrap();
        let names: Vec<String> = out
            .iter_rows()
            .map(|r| r[0].as_str().unwrap().to_string())
            .collect();
        // The cursor is inside `score` (nested in class Triage).
        assert_eq!(names, vec!["score"]);
    }

    #[test]
    fn bad_pattern_surfaces_as_ie_error() {
        let mut session = session_with_files();
        session
            .run(r#"S(s) <- Files(f, c), ast(".*.Bogus", c) -> (s)"#)
            .unwrap();
        assert!(session.export("?S(s)").is_err());
    }
}
