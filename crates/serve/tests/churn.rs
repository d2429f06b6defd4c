//! Bounded for ever: a served session under long replace-some-notes
//! churn holds its document store and its IE memo under their bounds on
//! every scrape, and still answers what a fresh session answers. The
//! memo is one evaluation's, and keeps the one call two rules share: no
//! table reaches twice the first, full evaluation's.

use spannerlib_serve::{Client, Json, ServeConfig, Server, ServerHandle};
use spannerlog_engine::{DocGc, Session};
use std::net::SocketAddr;

const NOTES: usize = 240;
const REPLACED: usize = 24;
const CYCLES: usize = 200;
/// Far under what the churn streams through (≈ 1.5 MB of text), so
/// passes run many times over.
const WATERMARK: usize = 64 * 1024;

const RULES: &str = r#"new Notes(str, str)
Code(d, s) <- Notes(d, t), rgx("code-[0-9]+", t) -> (s)
Coded(d) <- Notes(d, t), rgx("code-[0-9]+", t) -> (_)
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

#[test]
fn long_churn_keeps_the_store_and_the_memo_under_their_bounds() {
    let session = Session::builder()
        .doc_gc(DocGc::Threshold { bytes: WATERMARK })
        .build();
    let (addr, handle, thread) = boot(session);
    let mut client = Client::new(addr);
    setup(&mut client);

    let mut notes: Vec<Json> = (0..NOTES).map(note).collect();
    let rendered = |notes: &[Json]| notes.iter().map(|n| n.render().len()).sum::<usize>();
    let mut last = Vec::new();
    let mut first_table = None;
    for cycle in 0..CYCLES {
        let at = cycle * REPLACED % NOTES;
        for (i, slot) in notes[at..at + REPLACED].iter_mut().enumerate() {
            *slot = note(NOTES + cycle * REPLACED + i);
        }
        // A pass keeps what relations root — at most the notes before
        // the write, none longer than today's — and the next one arms a
        // watermark later; one cycle's new notes may land before it runs.
        let bound = WATERMARK + rendered(&notes) + rendered(&notes[at..at + REPLACED]);
        last = serve(&mut client, &notes);
        assert_eq!(last.len(), 2 * NOTES, "cycle {cycle}");

        let scrape = client.get("/metrics").expect("metrics").body;
        let (store, memo) = (
            metric(&scrape, "docstore_bytes"),
            metric(&scrape, "ie_cache_bytes"),
        );
        assert!(store < bound, "cycle {cycle}: {store} doc bytes >= {bound}");
        let first = *first_table.get_or_insert(memo);
        assert!(
            memo < 2 * first,
            "cycle {cycle}: {memo} memo bytes, {first} at first"
        );
        assert!(metric(&scrape, "docstore_docs") >= NOTES, "cycle {cycle}");
    }

    let scrape = client.get("/metrics").expect("metrics").body;
    assert!(metric(&scrape, "docstore_epoch") > 0, "no pass ever ran");

    // A fresh daemon over the final notes answers the same.
    let (fresh_addr, fresh_handle, fresh_thread) = boot(Session::new());
    let mut fresh = Client::new(fresh_addr);
    setup(&mut fresh);
    assert_eq!(serve(&mut fresh, &notes), last);

    for (handle, thread) in [(handle, thread), (fresh_handle, fresh_thread)] {
        handle.shutdown();
        thread.join().unwrap();
    }
}
