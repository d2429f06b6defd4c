//! # spannerlib-bench
//!
//! Shared workload generators for the benchmark harness.
//!
//! The paper is a demonstration with one quantitative artifact (Table 1,
//! regenerated by the `table1` binary) and explicitly defers performance
//! work (§6: "SpannerLib does not yet put an emphasis on processing
//! performance"). The Criterion benches therefore measure the things
//! DESIGN.md lists as ablations: naive vs semi-naive evaluation, findall
//! vs all-matches regex semantics, declarative-vs-imperative pipeline
//! overhead, and IE-call plumbing cost. The `experiments` binary runs
//! every reproduced artifact and prints paper-vs-measured output for
//! EXPERIMENTS.md.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic synthetic document: lowercase words with emails
/// sprinkled in at a fixed rate (for extraction workloads).
pub fn email_document(words: usize, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let vocab = [
        "lorem",
        "ipsum",
        "dolor",
        "sit",
        "amet",
        "consectetur",
        "adipiscing",
        "elit",
        "sed",
        "tempor",
    ];
    let users = ["ann", "bob", "carol", "dave", "eve"];
    let domains = ["gmail", "work", "mail", "example"];
    let mut out = String::new();
    for i in 0..words {
        if i > 0 {
            out.push(' ');
        }
        if rng.gen_ratio(1, 12) {
            out.push_str(&format!(
                "{}@{}.com",
                users[rng.gen_range(0..users.len())],
                domains[rng.gen_range(0..domains.len())]
            ));
        } else {
            out.push_str(vocab[rng.gen_range(0..vocab.len())]);
        }
    }
    out
}

/// A document of `n` copies of character `c` (worst case for all-matches
/// enumeration of `a+`-style patterns).
pub fn uniform_document(c: char, n: usize) -> String {
    std::iter::repeat_n(c, n).collect()
}

/// Edge list of a chain graph `0 → 1 → … → n` (deep recursion).
pub fn chain_graph(n: usize) -> Vec<(i64, i64)> {
    (0..n as i64).map(|i| (i, i + 1)).collect()
}

/// Edge list of a random graph over `nodes` nodes with `edges` edges.
pub fn random_graph(nodes: usize, edges: usize, seed: u64) -> Vec<(i64, i64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..edges)
        .map(|_| {
            (
                rng.gen_range(0..nodes) as i64,
                rng.gen_range(0..nodes) as i64,
            )
        })
        .collect()
}

/// Loads a graph into a session as relation `Edge(int, int)`.
pub fn load_edges(session: &mut spannerlog_engine::Session, edges: &[(i64, i64)]) {
    session.run("new Edge(int, int)").unwrap();
    for &(a, b) in edges {
        session
            .add_fact(
                "Edge",
                [
                    spannerlib_core::Value::Int(a),
                    spannerlib_core::Value::Int(b),
                ],
            )
            .unwrap();
    }
}

/// The transitive-closure program used by the engine benches.
pub const TC_PROGRAM: &str = "
    Path(x, y) <- Edge(x, y)
    Path(x, z) <- Path(x, y), Edge(y, z)
";

/// The email-extraction query used by the prepared-vs-export bench.
pub const EMAIL_QUERY: &str = r#"?Gmail(d, usr)"#;

/// A session loaded with `docs` synthetic email documents and a small
/// multi-rule extraction program — the serving workload of the
/// prepared-vs-export bench (`bench_prepared` / `prepared_smoke`).
pub fn email_session(docs: usize, words_per_doc: usize) -> spannerlog_engine::Session {
    let mut session = spannerlog_engine::Session::new();
    session
        .import_typed(
            "Texts",
            (0..docs)
                .map(|i| (format!("doc-{i}"), email_document(words_per_doc, i as u64)))
                .collect::<Vec<_>>(),
        )
        .unwrap();
    session
        .run(
            r#"
            Email(d, usr, dom) <- Texts(d, t),
                                  rgx_string("(\w+)@(\w+)\.\w+", t) -> (usr, dom)
            Gmail(d, usr) <- Email(d, usr, "gmail")
            Senders(d, count(u)) <- Email(d, u, dom)
        "#,
        )
        .unwrap();
    session
}

/// The repeated-document serving workload of the IE-cache bench
/// (`cache_smoke` / `bench_cache`): a fixed corpus of documents, an
/// rgx-extraction program, and a `Tick` relation the program reads so
/// each [`tick`](cache_tick) forces a full fixpoint rerun over the
/// *same* documents — cold sessions re-pay extraction every round, warm
/// ones serve it from the memo.
pub fn cache_churn_session(
    docs: usize,
    words_per_doc: usize,
    ie_cache_bytes: usize,
) -> (spannerlog_engine::Session, spannerlog_engine::PreparedQuery) {
    let mut session = spannerlog_engine::Session::builder()
        .ie_cache_capacity(ie_cache_bytes)
        .build();
    session
        .import_typed(
            "Texts",
            (0..docs)
                .map(|i| (format!("doc-{i}"), email_document(words_per_doc, i as u64)))
                .collect::<Vec<_>>(),
        )
        .unwrap();
    session.run("new Tick(int)").unwrap();
    session
        .run(
            r#"
            Ticked(x) <- Tick(x)
            Email(d, usr, dom) <- Texts(d, t),
                                  rgx_string("(\w+)@(\w+)\.\w+", t) -> (usr, dom)
            Mention(d, s) <- Texts(d, t), rgx("@(\w+)", t) -> (s)
            Senders(d, count(u)) <- Email(d, u, dom)
        "#,
        )
        .unwrap();
    let query = session.prepare("?Email(d, usr, dom)").unwrap();
    (session, query)
}

/// Invalidates the evaluation fingerprint of a [`cache_churn_session`]
/// without touching its documents: the next execution reruns the whole
/// fixpoint, re-issuing every IE call.
pub fn cache_tick(session: &mut spannerlog_engine::Session, round: i64) {
    session
        .add_fact("Tick", [spannerlib_core::Value::Int(round)])
        .unwrap();
}

/// The join-ordering workload (`perfbench`'s `tc_join` runs it): textual
/// order joins the two big relations first
/// (quadratic intermediate, `rows²/50` bindings); cost order starts
/// from the 5-row `C`, keeping every intermediate at a few hundred
/// rows.
pub const JOIN_PROGRAM: &str = "Q(x, z) <- A(x, y), B(y, z), C(z)";

/// Loads the `A`/`B`/`C` relations of [`JOIN_PROGRAM`]: `A(x, x % 50)`
/// and `B(i % 50, i)` with `rows` tuples each, and `C = {0..5}`.
pub fn load_join_workload(session: &mut spannerlog_engine::Session, rows: usize) {
    use spannerlib_core::Value;
    session
        .run("new A(int, int) new B(int, int) new C(int)")
        .unwrap();
    for i in 0..rows as i64 {
        session
            .add_fact("A", [Value::Int(i), Value::Int(i % 50)])
            .unwrap();
        session
            .add_fact("B", [Value::Int(i % 50), Value::Int(i)])
            .unwrap();
    }
    for z in 0..5 {
        session.add_fact("C", [Value::Int(z)]).unwrap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(email_document(50, 1), email_document(50, 1));
        assert_ne!(email_document(50, 1), email_document(50, 2));
        assert_eq!(chain_graph(3), vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(uniform_document('a', 4), "aaaa");
        assert_eq!(random_graph(5, 9, 3), random_graph(5, 9, 3));
    }

    #[test]
    fn email_documents_contain_emails() {
        let doc = email_document(600, 7);
        assert!(doc.contains("@"));
    }
}
