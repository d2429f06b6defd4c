//! Bounded for ever: a served session under long replace-some-notes
//! churn holds its document store under its bound on every scrape, and
//! still answers what a fresh session answers. The call two rules share
//! is a relation the session maintains: a full evaluation (the first,
//! and one after a compaction pass) asks it once per note, and a
//! maintained one once per note the write added.

use spannerlib_core::Value;
use spannerlib_serve::{Client, Json, ServeConfig, Server, ServerHandle};
use spannerlog_engine::{DocGc, Registry, Session};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const NOTES: usize = 240;
const REPLACED: usize = 24;
const CYCLES: usize = 200;
/// Far under what the churn streams through (≈ 1.5 MB of text), so
/// passes run many times over.
const WATERMARK: usize = 64 * 1024;

const RULES: &str = r#"new Notes(str, str)
Code(d, s) <- Notes(d, t), code(t) -> (s)
Coded(d) <- Notes(d, t), code(t) -> (_)
Word(d, w) <- Notes(d, t), rgx_string("w[0-9]+x", t) -> (w)"#;

fn boot(session: Session) -> (SocketAddr, ServerHandle, std::thread::JoinHandle<()>) {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServeConfig::default()
    };
    let server = Server::bind(session, cfg).expect("bind ephemeral port");
    let (addr, handle) = (server.local_addr(), server.handle());
    let thread = std::thread::spawn(move || server.serve().expect("serve"));
    (addr, handle, thread)
}

fn ok(client: &mut Client, path: &str, body: &Json) -> Json {
    let resp = client.post(path, body).expect("request");
    assert_eq!(resp.status, 200, "{path}: {}", resp.body);
    resp.json().expect("JSON body")
}

fn setup(client: &mut Client) {
    let rules = Json::Obj(vec![("rules".into(), Json::str(RULES))]);
    ok(client, "/register", &rules);
    let prepare = r#"{"name": "codes", "query": "?Code(d, s)"}"#;
    ok(client, "/prepare", &Json::parse(prepare).unwrap());
}

/// Note `n`: unique id, unique text of about 300 bytes.
fn note(n: usize) -> Json {
    let words: String = (0..40).map(|w| format!("w{}x ", n * 40 + w)).collect();
    let text = format!("note {n}: {words}code-{n} and code-{}", n + 1_000_000);
    Json::Arr(vec![Json::str(format!("n{n}")), Json::str(text)])
}

/// Replaces the served `Notes` by `notes` and reads `Code` back fresh.
fn serve(client: &mut Client, notes: &[Json]) -> Vec<String> {
    let import = Json::Obj(vec![
        ("relation".into(), Json::str("Notes")),
        ("rows".into(), Json::Arr(notes.to_vec())),
    ]);
    ok(client, "/import", &import);
    let answer = ok(
        client,
        "/execute",
        &Json::parse(r#"{"prepared": "codes"}"#).unwrap(),
    );
    let rows = answer.get("rows").and_then(Json::as_array).expect("rows");
    let mut rows: Vec<String> = rows.iter().map(Json::render).collect();
    rows.sort();
    rows
}

/// The unlabeled series `name` on `/metrics`.
fn metric(scrape: &str, name: &str) -> usize {
    let value = scrape
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("{name} missing:\n{scrape}"));
    value.parse().expect("gauges are integers")
}

/// `code(t) -> (s)`: the `code-[0-9]+` spans of `t`, its body calls
/// counted in `calls`.
fn with_code(session: Session, calls: &Arc<AtomicUsize>) -> Session {
    let (rgx, seen) = (Registry::new().ie("rgx").unwrap().clone(), calls.clone());
    let mut session = session;
    session.register("code", Some(1), move |args, out, ctx| {
        seen.fetch_add(1, Ordering::SeqCst);
        rgx.call(&[Value::str("code-[0-9]+"), args[0].clone()], out, ctx)
    });
    session
}

#[test]
fn long_churn_keeps_the_store_and_the_memo_under_their_bounds() {
    let calls = Arc::new(AtomicUsize::new(0));
    let session = Session::builder()
        .doc_gc(DocGc::Threshold { bytes: WATERMARK })
        .build();
    let session = with_code(session, &calls);
    let (addr, handle, thread) = boot(session);
    let mut client = Client::new(addr);
    setup(&mut client);

    let mut notes: Vec<Json> = (0..NOTES).map(note).collect();
    let rendered = |notes: &[Json]| notes.iter().map(|n| n.render().len()).sum::<usize>();
    let mut last = Vec::new();
    let mut maintained = 0;
    for cycle in 0..CYCLES {
        let at = cycle * REPLACED % NOTES;
        for (i, slot) in notes[at..at + REPLACED].iter_mut().enumerate() {
            *slot = note(NOTES + cycle * REPLACED + i);
        }
        // A pass keeps what relations root — at most the notes before
        // the write, none longer than today's — and the next one arms a
        // watermark later; one cycle's new notes may land before it runs.
        let bound = WATERMARK + rendered(&notes) + rendered(&notes[at..at + REPLACED]);
        let before = calls.load(Ordering::SeqCst);
        last = serve(&mut client, &notes);
        assert_eq!(last.len(), 2 * NOTES, "cycle {cycle}");
        let asked = calls.load(Ordering::SeqCst) - before;

        let scrape = client.get("/metrics").expect("metrics").body;
        let was = std::mem::replace(&mut maintained, metric(&scrape, "evals_maintained_total"));
        let added = if maintained > was { REPLACED } else { NOTES };
        assert_eq!(asked, added, "cycle {cycle}: once per note added");
        let store = metric(&scrape, "docstore_bytes");
        assert!(store < bound, "cycle {cycle}: {store} doc bytes >= {bound}");
        assert!(metric(&scrape, "docstore_docs") >= NOTES, "cycle {cycle}");
    }

    let scrape = client.get("/metrics").expect("metrics").body;
    assert!(metric(&scrape, "docstore_epoch") > 0, "no pass ever ran");
    assert!(
        maintained > CYCLES / 2,
        "{maintained} maintained evaluations"
    );

    // A fresh daemon over the final notes answers the same.
    let fresh_session = with_code(Session::new(), &Arc::default());
    let (fresh_addr, fresh_handle, fresh_thread) = boot(fresh_session);
    let mut fresh = Client::new(fresh_addr);
    setup(&mut fresh);
    assert_eq!(serve(&mut fresh, &notes), last);

    for (handle, thread) in [(handle, thread), (fresh_handle, fresh_thread)] {
        handle.shutdown();
        thread.join().unwrap();
    }
}
