//! Cross-crate integration tests: every code fragment and worked example
//! the paper shows, executed through the umbrella crate's public API.

use spannerlib::prelude::*;

/// §2, the running example: α = x{a+}c+y{b+} over d = "acb aacccbbb"
/// returns exactly (⟨0,1⟩, ⟨2,3⟩) and (⟨4,6⟩, ⟨9,12⟩), mapping to
/// (a, b) and (aa, bbb).
#[test]
fn section_2_worked_example() {
    let re = spannerlib::regex::Regex::new("x{a+}c+y{b+}").unwrap();
    let d = "acb aacccbbb";
    let rows: Vec<Vec<Option<(usize, usize)>>> = re
        .captures_iter(d)
        .map(|c| c.explicit_groups().collect())
        .collect();
    assert_eq!(
        rows,
        vec![
            vec![Some((0, 1)), Some((2, 3))],
            vec![Some((4, 6)), Some((9, 12))],
        ]
    );
    assert_eq!(&d[0..1], "a");
    assert_eq!(&d[2..3], "b");
    assert_eq!(&d[4..6], "aa");
    assert_eq!(&d[9..12], "bbb");
}

/// §3.2, the embedding example: import → rule → filtered export.
#[test]
fn section_3_2_embedding() {
    let mut session = Session::new();
    let df = DataFrame::from_rows(
        vec!["Date".into(), "Text".into()],
        vec![
            vec![Value::str("d1"), Value::str("ann@gmail.com")],
            vec![Value::str("d2"), Value::str("bob@work.org")],
        ],
    )
    .unwrap();
    session.import_dataframe(&df, "Texts").unwrap();
    session
        .run(r#"R(usr, dom) <- Texts(d, t), rgx_string("(\w+)@(\w+)\.\w+", t) -> (usr, dom)"#)
        .unwrap();
    let out = session.export(r#"?R(usr, "gmail")"#).unwrap();
    assert_eq!(out.num_rows(), 1);
    assert_eq!(out.get(0, 0), Some(Value::str("ann")));
}

/// §3.1, the aggregation example: lex_concat(str(y)) groups by t.
#[test]
fn section_3_1_aggregation() {
    let mut session = Session::new();
    session
        .run(
            r#"
            new Texts(str, str)
            Texts("d1", "c b a")
            R(t, lex_concat(str(y))) <- Texts(d, t), rgx("\w+", t) -> (y)
            "#,
        )
        .unwrap();
    let out = session.export("?R(t, s)").unwrap();
    assert_eq!(out.get(0, 1), Some(Value::str("abc")));
}

/// §3.3, registering a callback and composing it with rgx in one rule
/// (the `T(z, v, w) <- R(x, y), S("bob", x), foo(x, y) -> (z), …` shape).
#[test]
fn section_3_3_callbacks() {
    let mut session = Session::new();
    session.register("foo", Some(2), |args, out, _ctx| {
        let joined = format!(
            "{} {}",
            args[0].as_str().unwrap_or(""),
            args[1].as_str().unwrap_or("")
        );
        out.push(&[Value::str(joined)])
    });
    session
        .run(
            r#"
            new R(str, str)
            new S(str, str)
            R("left", "right")
            S("bob", "left")
            T(z, v, w) <- R(x, y), S("bob", x), foo(x, y) -> (z),
                          rgx("w{le}v{ft}", z) -> (w, v)
            "#,
        )
        .unwrap();
    let rel = {
        let mut s = session;
        s.relation("T").unwrap()
    };
    assert_eq!(rel.len(), 1);
}

/// §4.1's scope_of rule shape: AST pattern + containment over a cursor.
#[test]
fn section_4_1_scope_of() {
    let mut session = Session::new();
    spannerlib::codeast::ie::register_ast_functions(&mut session);
    let code = "fn outer() { inner(); }\nfn inner() { work(); }\n";
    session.run("new Files(str, str)").unwrap();
    session
        .add_fact("Files", [Value::str("f.ml"), Value::str(code)])
        .unwrap();
    let doc = session.intern(code);
    let at = code.find("work").unwrap();
    let pos = session.make_span(doc, at, at + 1).unwrap();
    session
        .declare("Cursor", Schema::new(vec![ValueType::Span]))
        .unwrap();
    session.add_fact("Cursor", [Value::Span(pos)]).unwrap();
    session
        .run(
            r#"
            ScopeOf(pos, s) <- Files(f, c), Cursor(pos),
                               ast(".*.(FuncDecl|ClassDecl)", c) -> (s),
                               contained_in(pos, s)
            ScopeName(n) <- ScopeOf(pos, s), ast_name(s) -> (n)
            "#,
        )
        .unwrap();
    let out = session.export("?ScopeName(n)").unwrap();
    assert_eq!(out.num_rows(), 1);
    assert_eq!(out.get(0, 0), Some(Value::str("inner")));
}

/// The spanner algebra is consistent between automaton-level and
/// relation-level composition (core-spanner closure, Fagin et al.).
#[test]
fn spanner_algebra_consistency() {
    use spannerlib::regex::Spanner;
    let a = Spanner::new("x{a+}").unwrap();
    let b = Spanner::new("x{ab}").unwrap();
    let text = "aabab";
    let via_automaton = a.union(&b).unwrap().evaluate(text);
    let via_relation = a.evaluate(text).union(&b.evaluate(text)).unwrap();
    assert_eq!(via_automaton, via_relation);
}

/// DataFrames round-trip through the engine and CSV unchanged.
#[test]
fn dataframe_bridges_round_trip() {
    let df = DataFrame::from_rows(
        vec!["k".into(), "v".into()],
        vec![
            vec![Value::str("a"), Value::Int(1)],
            vec![Value::str("b"), Value::Int(2)],
        ],
    )
    .unwrap();
    // Host → engine → host.
    let mut session = Session::new();
    session.import_dataframe(&df, "KV").unwrap();
    let back = session.export("?KV(k, v)").unwrap();
    assert_eq!(back.num_rows(), 2);
    // Host → CSV → host.
    let csv = df.to_csv();
    let reparsed = DataFrame::from_csv(&csv).unwrap();
    assert_eq!(df, reparsed);
}

/// The two pillars of embedding cooperate: a Rust closure consumes spans
/// produced by a Spannerlog rule, and its output flows back into rules.
#[test]
fn bidirectional_embedding() {
    let mut session = Session::new();
    session.register("shout", Some(1), |args, out, ctx| {
        let text = match &args[0] {
            Value::Span(s) => ctx.span_text(s)?,
            Value::Str(s) => s.to_string(),
            _ => String::new(),
        };
        out.push(&[Value::str(text.to_uppercase())])
    });
    session
        .run(
            r#"
            new Docs(str)
            Docs("hello world")
            Word(w) <- Docs(d), rgx("\w+", d) -> (w)
            Loud(u) <- Word(w), shout(w) -> (u)
            "#,
        )
        .unwrap();
    let out = session.export("?Loud(u)").unwrap();
    let words: Vec<String> = out
        .iter_rows()
        .map(|r| r[0].as_str().unwrap().to_string())
        .collect();
    assert_eq!(words, vec!["HELLO", "WORLD"]);
}
