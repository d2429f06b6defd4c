//! End-to-end session tests: every code snippet from the paper, plus
//! recursion, negation, aggregation, and failure-injection suites.

mod support;

use spannerlib_core::{Schema, Value, ValueType};
use spannerlib_dataframe::DataFrame;
use spannerlog_engine::{EngineError, Registry, Session};

fn strings(df: &DataFrame, col: usize) -> Vec<String> {
    df.iter_rows()
        .map(|r| r[col].as_str().unwrap().to_string())
        .collect()
}

/// The complete §3.2 embedding example: DataFrame import → rule with
/// rgx → export with a constant filter.
#[test]
fn paper_section_3_2_email_pipeline() {
    let mut session = Session::new();
    let df = DataFrame::from_rows(
        vec!["date".into(), "text".into()],
        vec![
            vec![
                Value::str("2024-01-01"),
                Value::str("write to ann@gmail.com and bob@work.org"),
            ],
            vec![Value::str("2024-01-02"), Value::str("or eve@gmail.com")],
        ],
    )
    .unwrap();
    session.import_dataframe(&df, "Texts").unwrap();

    session
        .run(r#"R(usr, dom) <- Texts(d, t), rgx_string("(\w+)@(\w+)\.\w+", t) -> (usr, dom)."#)
        .unwrap();

    let out = session.export(r#"?R(usr, "gmail")"#).unwrap();
    assert_eq!(out.column_names(), &["usr"]);
    assert_eq!(strings(&out, 0), vec!["ann", "eve"]);
}

/// §2's worked example driven through the full engine with span outputs.
#[test]
fn paper_section_2_rgx_example_via_rules() {
    let mut session = Session::new();
    session
        .run(
            r#"
            new Texts(str)
            Texts("acb aacccbbb")
            R(x, y) <- Texts(t), rgx("x{a+}c+y{b+}", t) -> (x, y)
        "#,
        )
        .unwrap();
    let rel = session.relation("R").unwrap();
    let rows = rel.sorted_tuples();
    assert_eq!(rows.len(), 2);
    // (⟨0,1⟩, ⟨2,3⟩) and (⟨4,6⟩, ⟨9,12⟩)
    let spans: Vec<(u32, u32, u32, u32)> = rows
        .iter()
        .map(|t| {
            let a = t[0].as_span().unwrap();
            let b = t[1].as_span().unwrap();
            (a.start, a.end, b.start, b.end)
        })
        .collect();
    assert_eq!(spans, vec![(0, 1, 2, 3), (4, 6, 9, 12)]);
}

/// §3.1's aggregation example: lex_concat of str(y) grouped by document.
#[test]
fn paper_aggregation_lex_concat() {
    let mut session = Session::new();
    session
        .run(
            r#"
            new Texts(str, str)
            Texts("d1", "b a c")
            Texts("d2", "z y")
            R(t, lex_concat(str(y))) <- Texts(d, t), rgx("\w+", t) -> (y)
        "#,
        )
        .unwrap();
    let out = session.export("?R(t, s)").unwrap();
    let pairs: Vec<(String, String)> = out
        .iter_rows()
        .map(|r| {
            (
                r[0].as_str().unwrap().to_string(),
                r[1].as_str().unwrap().to_string(),
            )
        })
        .collect();
    assert!(pairs.contains(&("b a c".to_string(), "abc".to_string())));
    assert!(pairs.contains(&("z y".to_string(), "yz".to_string())));
}

/// §3.3: registering a host closure and composing it with rgx in one
/// rule, exactly like the paper's `foo` example.
#[test]
fn paper_section_3_3_callback_composition() {
    let mut session = Session::new();
    // foo(x, y) -> (z): returns the concatenation reversed (arbitrary
    // host logic standing in for the paper's `foo`).
    session.register("foo", Some(2), |args, out, _ctx| {
        let x = args[0].as_str().unwrap_or_default();
        let y = args[1].as_str().unwrap_or_default();
        let z: String = format!("{x}{y}").chars().rev().collect();
        out.push(&[Value::str(z)])
    });
    session
        .run(
            r#"
            new R(str, str)
            new S(str, str)
            R("ka", "yb")
            S("bob", "ka")
            T(z, w) <- R(x, y), S("bob", x), foo(x, y) -> (z), rgx_string("b\w+", z) -> (w)
        "#,
        )
        .unwrap();
    let out = session.export("?T(z, w)").unwrap();
    assert_eq!(out.num_rows(), 1);
    assert_eq!(strings(&out, 0), vec!["byak"]);
    assert_eq!(strings(&out, 1), vec!["byak"]);
}

#[test]
fn recursion_transitive_closure() {
    let mut session = Session::new();
    session
        .run(
            r#"
            new Edge(str, str)
            Edge("a", "b") Edge("b", "c") Edge("c", "d")
            Path(x, y) <- Edge(x, y)
            Path(x, z) <- Path(x, y), Edge(y, z)
        "#,
        )
        .unwrap();
    let out = session.export("?Path(\"a\", y)").unwrap();
    assert_eq!(strings(&out, 0), vec!["b", "c", "d"]);
}

#[test]
fn recursion_agrees_with_the_reference() {
    let program = r#"
        new Edge(int, int)
        Edge(1, 2) Edge(2, 3) Edge(3, 4) Edge(4, 1) Edge(3, 5)
        Path(x, y) <- Edge(x, y)
        Path(x, z) <- Path(x, y), Edge(y, z)
    "#;
    let mut session = Session::new();
    session.run(program).unwrap();
    let path = session.relation("Path").unwrap();
    let reference = support::evaluate(program, &[], &Registry::new()).unwrap();
    assert_eq!(
        support::canonical(path.iter(), session.docs()),
        reference.canonical("Path")
    );
    assert_eq!(path.len(), 20); // 4×4 pairs within the cycle + 4 nodes reaching 5
}

#[test]
fn stratified_negation() {
    let mut session = Session::new();
    session
        .run(
            r#"
            new Node(str)
            new Edge(str, str)
            Node("a") Node("b") Node("c") Node("d")
            Edge("a", "b") Edge("b", "c")
            Reach(x) <- Edge("a", x)
            Reach(y) <- Reach(x), Edge(x, y)
            Unreach(x) <- Node(x), not Reach(x), x != "a"
        "#,
        )
        .unwrap();
    let out = session.export("?Unreach(x)").unwrap();
    assert_eq!(strings(&out, 0), vec!["d"]);
}

#[test]
fn negation_through_recursion_rejected() {
    let mut session = Session::new();
    session.run("new S(str)\nS(\"a\")").unwrap();
    let err = session
        .run("P(x) <- S(x), not Q(x)\nQ(x) <- S(x), not P(x)")
        .unwrap_err();
    assert!(matches!(err, EngineError::NotStratifiable(_)));
    assert_eq!(session.rule_count(), 0);
    assert_eq!(session.export("?P(x)").unwrap().num_rows(), 0);
}

#[test]
fn unsafe_rule_rejected_at_run() {
    let mut session = Session::new();
    session.run("new S(str)").unwrap();
    let err = session.run("R(x, y) <- S(x)").unwrap_err();
    assert!(matches!(err, EngineError::Unsafe { .. }));
    assert_eq!(session.rule_count(), 0);
    assert_eq!(session.export("?R(x, y)").unwrap().num_rows(), 0);
}

/// A wrong rule fails its own cell: every error the compiler finds
/// without data — `x < _` among them, which once compiled and then failed
/// every later query — is the answer of `run`, which leaves the rules
/// as they were, so the next evaluation succeeds.
#[test]
fn data_free_errors_fail_at_run() {
    let mut session = Session::new();
    session
        .run("new S(str)\nS(\"a\")\nGood(x) <- S(x)")
        .unwrap();
    for (rules, kind) in [
        ("R(x, y) <- S(x)", "Unsafe"),
        ("R(x) <- S(x), x < _", "Unsafe"),
        ("R(x) <- S(x), not Nope(x)", "UnknownRelation"),
        (
            "R(x) <- S(x), not rgx_is_match(\"a\", x)",
            "UnknownRelation",
        ),
        ("P(x) <- S(x), not P(x)", "NotStratifiable"),
        (
            "P(x) <- S(x), not Q(x)\nQ(x) <- S(x), not P(x)",
            "NotStratifiable",
        ),
        ("C(x, count(y)) <- S(x), C(y, n)", "NotStratifiable"),
        ("R(x) <- S(x), Nope(x)", "UnknownPredicate"),
        ("R(y) <- S(x), nope(x) -> (y)", "UnknownIeFunction"),
        ("R(y) <- S(x), rgx(x) -> (y)", "IeArity"),
        ("R(x) <- S(x, y)", "Arity"),
        ("R(x) <- S(x)\nR(x, y) <- S(x), S(y)", "Arity"),
        ("new Good(int, int)", "Arity"),
    ] {
        let err = session.run(rules).unwrap_err();
        assert!(format!("{err:?}").starts_with(kind), "{rules}: {err:?}");
        assert_eq!(session.rule_count(), 1, "{rules}");
        session.ensure_evaluated().unwrap();
        assert_eq!(session.export("?Good(x)").unwrap().num_rows(), 1);
    }
}

/// `new R(…)` over a name only rules derive is a declaration, whether or
/// not an evaluation has left rows under the name; the rule then derives
/// into the declared relation. Declaring it twice is a duplicate.
#[test]
fn declaring_a_derived_name_does_not_depend_on_evaluation() {
    for evaluated in [false, true] {
        let mut session = Session::new();
        session.run("new S(int)\nS(1)\nR(x) <- S(x)").unwrap();
        if evaluated {
            session.ensure_evaluated().unwrap();
        }
        session.run("new R(int)").unwrap();
        let again = session.declare("R", Schema::new(vec![ValueType::Int]));
        assert!(matches!(again, Err(EngineError::DuplicateRelation(_))));
        let rows = session.export_typed::<(i64,)>("?R(x)").unwrap();
        assert_eq!(rows, [(1,)], "evaluated first: {evaluated}");
    }
}

/// An import or a declaration that gives a rule head another arity is
/// refused as a cell's `new` is, and takes the name back out: the rule
/// goes on deriving into it.
#[test]
fn a_write_that_gives_a_rule_head_another_arity_is_refused() {
    let mut session = Session::new();
    session.run("new S(int)\nS(1)\nGood(x) <- S(x)").unwrap();
    assert_eq!(session.export_typed::<(i64,)>("?Good(x)").unwrap(), [(1,)]);
    let imported = session.import_typed("Good", vec![(1i64, 2i64)]);
    let declared = session.declare("Good", Schema::new(vec![ValueType::Int; 2]));
    for err in [imported, declared] {
        assert!(
            matches!(&err, Err(EngineError::Arity { relation, .. }) if relation == "Good"),
            "{err:?}"
        );
        assert_eq!(session.export_typed::<(i64,)>("?Good(x)").unwrap(), [(1,)]);
    }
}

/// A relation a rule reads is not removed: the removal is refused, names
/// the relation and leaves the rules answering. Once the rules are
/// cleared it goes through, and writes of names no rule uses go through
/// all along.
#[test]
fn a_relation_the_rules_read_is_not_removed() {
    let mut session = Session::new();
    session.run("new S(int)\nS(1)\nGood(x) <- S(x)").unwrap();
    let err = session.remove_relation("S").unwrap_err();
    assert!(
        matches!(&err, EngineError::UnknownPredicate(name) if name == "S"),
        "{err:?}"
    );
    assert_eq!(session.export_typed::<(i64,)>("?Good(x)").unwrap(), [(1,)]);
    session.import_typed("T", vec![(1i64,)]).unwrap();
    session
        .declare("U", Schema::new(vec![ValueType::Str]))
        .unwrap();
    session.run("new V(int)").unwrap();
    session.remove_relation("T").unwrap();
    session.clear_rules();
    session.remove_relation("S").unwrap();
    assert!(session.export("?S(x)").unwrap().num_rows() == 0);
    assert_eq!(session.export_typed::<(i64,)>("?Good(x)").unwrap(), []);
}

/// A refused write changes nothing, and a write of a name no rule uses
/// changes nothing the rules read: after either, the next evaluation
/// has nothing to do and the last run's answers stand.
#[test]
fn a_refused_or_unrelated_write_keeps_the_last_run() {
    let mut session = Session::new();
    session.run("new S(int)\nS(1)\nGood(x) <- S(x)").unwrap();
    session.ensure_evaluated().unwrap();
    type Write = fn(&mut Session) -> bool;
    let writes: [(&str, Write); 5] = [
        ("import Good", |s| {
            s.import_typed("Good", vec![(1i64, 2i64)]).is_err()
        }),
        ("declare Good", |s| {
            let schema = Schema::new(vec![ValueType::Int; 2]);
            s.declare("Good", schema).is_err()
        }),
        ("unsafe rule", |s| s.run("Bad(x, y) <- S(x)").is_err()),
        ("fact cell", |s| s.run("S(2)\nS(\"x\")").is_err()),
        ("import T", |s| s.import_typed("T", vec![(1i64,)]).is_ok()),
    ];
    for (write, expected) in writes {
        let seq = session.eval_seq();
        assert!(expected(&mut session), "{write}");
        session.ensure_evaluated().unwrap();
        assert_eq!(
            session.eval_seq(),
            seq,
            "{write}: {:?}",
            session.stats().mode
        );
        let good = session.export_typed::<(i64,)>("?Good(x)").unwrap();
        assert_eq!(good, [(1,)], "{write}");
    }
}

/// The names a rule can read are the extensional relations and the rule
/// heads, not whatever relations an earlier evaluation left behind.
#[test]
fn a_derived_name_no_rule_derives_is_unknown() {
    for evaluated in [false, true] {
        let mut session = Session::new();
        session.run("new S(int)\nS(1)\nD(x) <- S(x)").unwrap();
        if evaluated {
            session.ensure_evaluated().unwrap();
        }
        session.clear_rules();
        let err = session.run("E(x) <- D(x)").unwrap_err();
        assert!(
            matches!(&err, EngineError::UnknownPredicate(name) if name == "D"),
            "evaluated first: {evaluated}: {err:?}"
        );
    }
}

#[test]
fn ie_error_propagates() {
    let mut session = Session::new();
    session.register("boom", Some(1), |_args, _out, _ctx| {
        Err(EngineError::IeRuntime {
            function: "boom".into(),
            msg: "injected failure".into(),
        })
    });
    session
        .run("new S(str)\nS(\"a\")\nR(y) <- S(x), boom(x) -> (y)")
        .unwrap();
    let err = session.export("?R(y)").unwrap_err();
    assert!(matches!(err, EngineError::IeRuntime { .. }));
}

#[test]
fn filter_predicate_written_as_plain_atom() {
    // The paper's §4.1 style: `contains(pos, s)` with no arrow.
    let mut session = Session::new();
    let doc = session.intern("hello world");
    let outer = Value::Span(session.make_span(doc, 0, 11).unwrap());
    let inner = Value::Span(session.make_span(doc, 2, 5).unwrap());
    let disjoint = Value::Span(session.make_span(doc, 6, 11).unwrap());
    session
        .declare("Pairs", Schema::new(vec![ValueType::Span, ValueType::Span]))
        .unwrap();
    session
        .add_fact("Pairs", [outer.clone(), inner.clone()])
        .unwrap();
    session.add_fact("Pairs", [inner, disjoint]).unwrap();
    session
        .run("Nested(a, b) <- Pairs(a, b), contains(a, b)")
        .unwrap();
    let rel = session.relation("Nested").unwrap();
    assert_eq!(rel.len(), 1);
}

#[test]
fn comparison_guards() {
    let mut session = Session::new();
    session
        .run(
            r#"
            new N(int)
            N(1) N(5) N(10)
            Big(x) <- N(x), x >= 5
            Pairs(x, y) <- N(x), N(y), x < y
        "#,
        )
        .unwrap();
    assert_eq!(session.relation("Big").unwrap().len(), 2);
    assert_eq!(session.relation("Pairs").unwrap().len(), 3);
}

#[test]
fn queries_inside_run_return_frames() {
    let mut session = Session::new();
    let results = session
        .run(
            r#"
            new S(str)
            S("x") S("y")
            ?S(v)
        "#,
        )
        .unwrap();
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].1.num_rows(), 2);
}

#[test]
fn incremental_cells_compose() {
    // The notebook workflow: separate cells accumulate state.
    let mut session = Session::new();
    session.run("new S(str)").unwrap();
    session.run("S(\"a\")").unwrap();
    session.run("R(x) <- S(x)").unwrap();
    assert_eq!(session.export("?R(x)").unwrap().num_rows(), 1);
    // New fact invalidates the fixpoint cache.
    session.run("S(\"b\")").unwrap();
    assert_eq!(session.export("?R(x)").unwrap().num_rows(), 2);
}

#[test]
fn fact_type_errors_are_reported() {
    let mut session = Session::new();
    session.run("new S(int)").unwrap();
    let err = session.run("S(\"oops\")").unwrap_err();
    assert!(matches!(err, EngineError::FactType { .. }));
    let err = session.run("S(1, 2)").unwrap_err();
    assert!(matches!(err, EngineError::Arity { .. }));
}

/// A fact, a query and a rule's atom report an arity mismatch alike:
/// `expected` is the declared arity, `actual` the arity used.
#[test]
fn arity_errors_name_the_declared_arity_first() {
    let mut session = Session::new();
    session.run("new R(int, int)\nR(1, 2)").unwrap();
    let declared_2_used_3 = |err: EngineError, route: &str| {
        let same = matches!(
            &err,
            EngineError::Arity { relation, expected: 2, actual: 3, .. } if relation == "R"
        );
        assert!(same, "{route}: {err:?}");
        assert!(
            err.to_string().contains("declared 2, used with 3"),
            "{route}: {err}"
        );
    };
    declared_2_used_3(session.run("R(1, 2, 3)").unwrap_err(), "fact");
    declared_2_used_3(session.export("?R(x, y, z)").unwrap_err(), "query");
    declared_2_used_3(session.run("S(x) <- R(x, y, z)").unwrap_err(), "rule");
}

/// A head whose arity is not its relation's — set by a declaration, or
/// by the head of the relation's first rule — fails to compile at `run`,
/// naming the relation and the line of the rule, and leaves no rule.
#[test]
fn a_head_of_another_arity_fails_to_compile() {
    let cell = "new S(int)\nS(1) S(2)";
    for (rules, relation, expected) in [
        ("R(x) <- S(x)\nR(x, y) <- S(x), S(y)", "R", 1),
        ("S(x, y) <- S(x), S(y)", "S", 1),
    ] {
        let mut session = Session::new();
        session.run(cell).unwrap();
        let err = session.run(rules).unwrap_err();
        let line = rules.lines().count();
        let named = matches!(
            &err,
            EngineError::Arity { relation: r, expected: e, actual: 2, line: l }
                if r == relation && *e == expected && *l == line
        );
        assert!(named, "{rules}: {err:?}");
        assert_eq!(session.rule_count(), 0);
        session.ensure_evaluated().unwrap();
    }
}

#[test]
fn fact_for_undeclared_relation_rejected() {
    let mut session = Session::new();
    let err = session.run("S(1)").unwrap_err();
    assert!(matches!(err, EngineError::UnknownRelation(_)));
}

#[test]
fn export_requires_a_query() {
    let mut session = Session::new();
    assert!(matches!(
        session.export("new S(str)").unwrap_err(),
        EngineError::NotAQuery(_)
    ));
}

#[test]
fn head_constants_and_boolean_queries() {
    let mut session = Session::new();
    session
        .run(
            r#"
            new S(str)
            S("a")
            Tagged(x, "seen") <- S(x)
        "#,
        )
        .unwrap();
    let out = session.export("?Tagged(\"a\", \"seen\")").unwrap();
    assert_eq!(out.get(0, 0), Some(Value::Bool(true)));
}

/// Integer arithmetic fails on overflow, in release builds too, rather
/// than wrap; `expand` saturates a margin past the document instead.
#[test]
fn integer_builtins_neither_wrap_nor_overflow() {
    for (function, x, y) in [
        ("add", i64::MAX, 1),
        ("sub", i64::MIN, 1),
        ("mul", i64::MAX, 2),
    ] {
        let mut session = Session::new();
        session.import_typed("N", vec![(x, y)]).unwrap();
        session
            .run(&format!("A(z) <- N(x, y), {function}(x, y) -> (z)"))
            .unwrap();
        let err = session.export("?A(z)").unwrap_err();
        assert!(
            matches!(&err, EngineError::IeRuntime { function: f, .. } if f == function),
            "{function}: {err:?}"
        );
    }

    let mut session = Session::new();
    session
        .run(
            r#"new T(str)
T("hello world")
W(w) <- T(t), rgx("world", t) -> (w)
Wide(s) <- W(w), expand(w, 0, 9223372036854775807) -> (s)
Left(s) <- W(w), expand(w, 9223372036854775807, 0) -> (s)"#,
        )
        .unwrap();
    let mut offsets = |name: &str| -> Vec<(usize, usize)> {
        let rows = session.relation(name).unwrap().sorted_tuples();
        let span = |t: &spannerlib_core::Tuple| *t[0].as_span().unwrap();
        let range = |s: spannerlib_core::Span| (s.start_usize(), s.end_usize());
        rows.iter().map(span).map(range).collect()
    };
    assert_eq!(offsets("Wide"), [(6, 11)]);
    assert_eq!(offsets("Left"), [(0, 11)]);
}

/// An IE function's error names the function the rule called, also
/// when it comes from a helper the `rgx` family shares.
#[test]
fn ie_errors_name_the_function_called() {
    for (function, call) in [
        ("rgx_string", r#"rgx_string("a", t) -> (x)"#),
        ("rgx_all", r#"rgx_all("a(", "text") -> (x)"#),
        ("rgx_is_match", r#"rgx_is_match(t, "text")"#),
    ] {
        let mut session = Session::new();
        let rule = format!("R(t) <- N(t), {call}");
        session.run(&format!("new N(int)\nN(3)\n{rule}")).unwrap();
        let err = session.export("?R(x)").unwrap_err().to_string();
        assert!(err.contains(&format!("{function:?}")), "{err}");
    }
}

#[test]
fn zero_output_registered_filter() {
    let mut session = Session::new();
    session.register("is_long", Some(1), |args, out, _ctx| {
        out.keep(args[0].as_str().is_some_and(|s| s.len() > 3))
    });
    session
        .run(
            r#"
            new Words(str)
            Words("hi") Words("hello")
            Long(w) <- Words(w), is_long(w)
        "#,
        )
        .unwrap();
    let out = session.export("?Long(w)").unwrap();
    assert_eq!(strings(&out, 0), vec!["hello"]);
}

#[test]
fn multi_aggregate_heads() {
    let mut session = Session::new();
    session
        .run(
            r#"
            new M(str, int)
            M("a", 1) M("a", 3) M("b", 10)
            Stats(g, count(x), sum(x), min(x), max(x)) <- M(g, x)
        "#,
        )
        .unwrap();
    let out = session.export("?Stats(g, c, s, lo, hi)").unwrap();
    let rows: Vec<Vec<Value>> = out.iter_rows().collect();
    assert_eq!(
        rows[0],
        vec![
            Value::str("a"),
            Value::Int(2),
            Value::Int(4),
            Value::Int(1),
            Value::Int(3)
        ]
    );
    assert_eq!(
        rows[1],
        vec![
            Value::str("b"),
            Value::Int(1),
            Value::Int(10),
            Value::Int(10),
            Value::Int(10)
        ]
    );
}

#[test]
fn spans_compose_through_rules() {
    // rgx over a span found by a previous rgx stays anchored in the
    // original document — the property §4.1's pipeline depends on.
    let mut session = Session::new();
    session
        .run(
            r#"
            new Docs(str)
            Docs("num=42; num=7;")
            Stmt(s) <- Docs(d), rgx("num=\d+", d) -> (s)
            Num(n) <- Stmt(s), rgx("\d+", s) -> (n)
        "#,
        )
        .unwrap();
    let rel = session.relation("Num").unwrap();
    let spans: Vec<(u32, u32)> = rel
        .sorted_tuples()
        .iter()
        .map(|t| {
            let s = t[0].as_span().unwrap();
            (s.start, s.end)
        })
        .collect();
    assert_eq!(spans, vec![(4, 6), (12, 13)]);
}

#[test]
fn eval_stats_populated() {
    let mut session = Session::new();
    session
        .run(
            r#"
            new Edge(int, int)
            Edge(1, 2) Edge(2, 3)
            Path(x, y) <- Edge(x, y)
            Path(x, z) <- Path(x, y), Edge(y, z)
        "#,
        )
        .unwrap();
    session.ensure_evaluated().unwrap();
    // Round 1 fires both rules in full and derives all three paths (the
    // second rule already sees the first one's inserts); round 2 fires
    // the second rule's delta variant, finds nothing new, and stops.
    let eval = session.stats();
    assert_eq!((eval.rounds, eval.rule_firings, eval.tuples_new), (2, 3, 3));
}

/// A program without recursion needs no fixpoint: every rule fires
/// exactly once, one round per component, whatever mix of joins,
/// negation, multi-rule heads and aggregation connects them.
#[test]
fn non_recursive_program_fires_every_rule_once() {
    let program = r#"
        new Edge(int, int)
        Edge(1, 2) Edge(2, 3) Edge(3, 1) Edge(3, 4)
        Node(x) <- Edge(x, _)
        Node(y) <- Edge(_, y)
        Leaf(x) <- Node(x), not Edge(x, _)
        Inner(x) <- Node(x), not Leaf(x)
        TwoHop(x, z) <- Edge(x, y), Edge(y, z), not Edge(x, z)
        Busy(x) <- Inner(x), TwoHop(x, _)
        Busy(x) <- Inner(x), TwoHop(_, x)
        Stats(count(x)) <- Busy(x)
    "#;
    let mut session = Session::new();
    session.run(program).unwrap();
    let compiled = session.prepare_program().unwrap();
    let (rules, components) = (
        compiled.program().rule_count(),
        compiled.program().component_count(),
    );
    assert_eq!((rules, components), (8, 6));
    session.ensure_evaluated().unwrap();
    let eval = session.stats();
    assert_eq!((eval.rule_firings, eval.rounds), (rules, components));
    let busy: Vec<(i64,)> = session.export_typed("?Stats(n)").unwrap();
    assert_eq!(busy, vec![(3,)]);
}

/// An answer with no rows keeps the relation's column types — whether
/// the relation is declared or derived, whole or filtered — so it can
/// go back in where it came from; only a relation the session has never
/// seen has nothing but the string fallback to offer.
#[test]
fn an_empty_export_is_typed_from_the_schema() {
    let mut session = Session::new();
    session
        .run(
            r#"
            new Reading(str, int, float)
            Reading("a", 1, 0.5)
            High(k, n) <- Reading(k, n, x), x > 10.0
            Tok(k, s) <- Reading(k, _, _), rgx("z+", k) -> (s)
            "#,
        )
        .unwrap();

    let filtered = session.export(r#"?Reading("nobody", n, x)"#).unwrap();
    assert_eq!(filtered.num_rows(), 0);
    assert_eq!(
        filtered.schema().types(),
        &[ValueType::Int, ValueType::Float]
    );
    let rows: Vec<(i64, f64)> = session.export_typed(r#"?Reading("nobody", n, x)"#).unwrap();
    assert!(rows.is_empty());

    // The empty frame imports into a relation of the same shape; with
    // all-string columns this was a schema error.
    session.run("new Archive(int, float)").unwrap();
    session.import_dataframe(&filtered, "Archive").unwrap();
    assert_eq!(
        session
            .export_typed::<(i64, f64)>("?Archive(n, x)")
            .unwrap(),
        vec![]
    );

    // Derived relations that produced no tuple do not exist: fallback.
    for query in ["?High(k, n)", "?Tok(k, s)", "?Unseen(a, b)"] {
        let df = session.export(query).unwrap();
        assert_eq!(df.num_rows(), 0, "{query}");
        assert_eq!(
            df.schema().types(),
            &[ValueType::Str, ValueType::Str],
            "{query}"
        );
    }
}
