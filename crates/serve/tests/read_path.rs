//! The `/execute` read path over a real socket: what a request costs
//! before it is refused or answered `304`, what one publish builds for
//! its readers (one index per bound-column set, one body per prepared
//! query) and that none of it outlives the publish.

use spannerlib_serve::{Client, ClientResponse, Json, ServeConfig, Server, ServerHandle};
use spannerlog_engine::Session;
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};

const READERS: usize = 8;

fn boot() -> (SocketAddr, ServerHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind(
        Session::new(),
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            // A keep-alive connection holds a handler thread for its
            // lifetime: one per reader plus the test's own.
            workers: READERS + 4,
            ..ServeConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.serve().expect("serve"));
    (addr, handle, thread)
}

fn post(client: &mut Client, path: &str, body: &str) -> ClientResponse {
    client
        .request("POST", path, &[], Some(body))
        .expect("request")
}

fn ok(client: &mut Client, path: &str, body: &str) -> ClientResponse {
    let resp = post(client, path, body);
    assert_eq!(resp.status, 200, "{path} {body}: {}", resp.body);
    resp
}

fn conditional(client: &mut Client, etag: &str, body: &str) -> ClientResponse {
    client
        .request("POST", "/execute", &[("If-None-Match", etag)], Some(body))
        .expect("request")
}

/// The value of the unlabeled series `name` on `/metrics` (0 before its
/// first use).
fn metric(client: &mut Client, name: &str) -> f64 {
    let body = client.get("/metrics").expect("metrics").body;
    body.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or(0.0)
}

/// `E(k, v)`: keys `k0..k9`, three values each.
fn load_pairs(client: &mut Client, offset: usize) {
    ok(client, "/register", r#"{"rules": "new E(str, int)"}"#);
    import_pairs(client, offset);
}

fn import_pairs(client: &mut Client, offset: usize) {
    let rows: Vec<String> = (0..30)
        .map(|i| format!(r#"["k{}", {}]"#, i % 10, i + offset))
        .collect();
    let body = format!(r#"{{"relation": "E", "rows": [{}]}}"#, rows.join(","));
    ok(client, "/import", &body);
}

#[test]
fn a_refusal_outranks_304_and_304_reads_no_row() {
    let (addr, handle, thread) = boot();
    let mut client = Client::new(addr);
    load_pairs(&mut client, 0);
    ok(
        &mut client,
        "/prepare",
        r#"{"name": "all", "query": "?E(k, v)"}"#,
    );
    let etag = ok(&mut client, "/execute", r#"{"query": "?E(_, _)"}"#)
        .header("etag")
        .expect("ETag on 200")
        .to_string();

    // Everything that is refused without the validator is refused with it.
    for (body, status) in [
        (r#"{"query": "#, 400),
        (r#"{"neither": 1}"#, 400),
        (r#"{"query": "?E(k, "}"#, 400),
        (r#"{"query": "?E(k)"}"#, 400),
        (r#"{"query": "?E(k, v)", "max_rows": -1}"#, 400),
        (r#"{"prepared": "nope"}"#, 404),
        (r#"{"query": "?E(k, v)", "max_rows": 29}"#, 429),
        (r#"{"query": "?E(\"k3\", v)", "max_rows": 2}"#, 429),
        (r#"{"prepared": "all", "max_rows": 29}"#, 429),
    ] {
        let resp = conditional(&mut client, &etag, body);
        assert_eq!(resp.status, status, "{body}: {}", resp.body);
    }
    let resp = conditional(&mut client, &etag, r#"{"prepared": "all", "max_rows": 29}"#);
    assert!(
        resp.body.contains("result has 30 rows"),
        "the refusal names the count: {}",
        resp.body
    );

    // The refusals cost a count at most — the capped point lookup
    // probed (and so built) the (E, [0]) index, nothing was rendered —
    // and a request that passes validation is answered 304.
    assert_eq!(metric(&mut client, "snapshot_index_builds"), 1.0);
    for body in [
        r#"{"query": "?E(k, v)"}"#,
        r#"{"query": "?E(k, 7)"}"#,
        r#"{"prepared": "all"}"#,
        r#"{"prepared": "all", "max_rows": 30}"#,
    ] {
        let resp = conditional(&mut client, &etag, body);
        assert_eq!(resp.status, 304, "{body}: {}", resp.body);
        assert!(resp.body.is_empty());
        assert_eq!(resp.header("etag"), Some(etag.as_str()));
    }
    // `?E(k, 7)` binds column 1: answered 304 before its index existed.
    assert_eq!(metric(&mut client, "snapshot_index_builds"), 1.0);
    assert_eq!(metric(&mut client, "execute_body_cache_entries"), 0.0);

    // Once the body is cached its stored row count decides `max_rows`.
    ok(&mut client, "/execute", r#"{"prepared": "all"}"#);
    assert_eq!(metric(&mut client, "execute_body_cache_entries"), 1.0);
    let resp = conditional(&mut client, &etag, r#"{"prepared": "all", "max_rows": 29}"#);
    assert_eq!(resp.status, 429, "{}", resp.body);
    assert!(resp.body.contains("result has 30 rows"), "{}", resp.body);
    let resp = conditional(&mut client, &etag, r#"{"prepared": "all"}"#);
    assert_eq!(resp.status, 304);

    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn readers_of_one_publish_share_one_index_and_one_body() {
    let (addr, handle, thread) = boot();
    let mut client = Client::new(addr);
    load_pairs(&mut client, 0);
    ok(
        &mut client,
        "/prepare",
        r#"{"name": "all", "query": "?E(k, v)"}"#,
    );
    // Publish before the readers start, so that all of them read it.
    ok(&mut client, "/execute", r#"{"query": "?E(_, _)"}"#);

    const ROUNDS: usize = 20;
    let start = Arc::new(Barrier::new(READERS));
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let start = start.clone();
            std::thread::spawn(move || {
                let mut client = Client::new(addr);
                // Connected and waiting: every reader's first request —
                // the one that finds no index and no body — is in flight
                // with the others'.
                ok(&mut client, "/execute", r#"{"query": "?E(_, _)"}"#);
                start.wait();
                let mut seen = Vec::new();
                for _ in 0..ROUNDS {
                    let point = ok(&mut client, "/execute", r#"{"query": "?E(\"k3\", v)"}"#);
                    let full = ok(&mut client, "/execute", r#"{"prepared": "all"}"#);
                    let etag = full.header("etag").map(String::from);
                    seen.push((point.body, full.body, etag));
                }
                seen
            })
        })
        .collect();
    let seen: Vec<_> = readers
        .into_iter()
        .flat_map(|reader| reader.join().expect("reader thread"))
        .collect();
    assert_eq!(seen.len(), READERS * ROUNDS);
    let (point, full, etag) = seen[0].clone();
    assert!(seen
        .iter()
        .all(|s| *s == (point.clone(), full.clone(), etag.clone())));
    let rows = |body: &str| {
        Json::parse(body)
            .unwrap()
            .get("row_count")
            .unwrap()
            .as_i64()
    };
    assert_eq!((rows(&point), rows(&full)), (Some(3), Some(30)));

    // 160 point lookups probed one index; 160 full reads rendered one
    // body (readers racing on the very first may each have rendered it,
    // but they all stored the same bytes under the one name).
    assert_eq!(metric(&mut client, "snapshot_index_builds"), 1.0);
    assert_eq!(metric(&mut client, "execute_body_cache_entries"), 1.0);
    let hits = metric(&mut client, "execute_body_cache_hits");
    assert!(
        hits >= (READERS * (ROUNDS - 1)) as f64,
        "{hits} body-cache hits"
    );

    // The next publish starts from nothing: neither the body nor the
    // ETag of the previous one can come back.
    import_pairs(&mut client, 100);
    let fresh = ok(&mut client, "/execute", r#"{"prepared": "all"}"#);
    assert_ne!(fresh.header("etag").map(String::from), etag);
    assert_ne!(fresh.body, full);
    let body = fresh.json().unwrap();
    assert_eq!(body.get("row_count").unwrap().as_i64(), Some(30));
    let first = &body.get("rows").unwrap().as_array().unwrap()[0];
    assert_eq!(first.as_array().unwrap()[1], Json::Int(100), "{first:?}");
    let fresh_point = ok(&mut client, "/execute", r#"{"query": "?E(\"k3\", v)"}"#);
    assert_ne!(fresh_point.body, point);
    assert!(
        fresh_point.body.contains("[[103],[113],[123]]"),
        "{}",
        fresh_point.body
    );
    assert_eq!(metric(&mut client, "snapshot_index_builds"), 1.0);
    assert_eq!(metric(&mut client, "execute_body_cache_entries"), 1.0);

    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn only_prepared_names_enter_the_body_cache() {
    let (addr, handle, thread) = boot();
    let mut client = Client::new(addr);
    load_pairs(&mut client, 0);

    // Distinct ad-hoc strings — including the very text that is
    // prepared below — leave nothing behind.
    for i in 0..50 {
        let body = format!(r#"{{"query": "?E(\"k{}\", v{i})"}}"#, i % 10);
        ok(&mut client, "/execute", &body);
    }
    ok(&mut client, "/execute", r#"{"query": "?E(k, v)"}"#);
    assert_eq!(metric(&mut client, "execute_body_cache_entries"), 0.0);
    assert_eq!(metric(&mut client, "execute_body_cache_hits"), 0.0);

    ok(
        &mut client,
        "/prepare",
        r#"{"name": "q", "query": "?E(k, v)"}"#,
    );
    let first = ok(&mut client, "/execute", r#"{"prepared": "q"}"#);
    let again = ok(&mut client, "/execute", r#"{"prepared": "q"}"#);
    assert_eq!(first.body, again.body);
    assert_eq!(metric(&mut client, "execute_body_cache_entries"), 1.0);
    assert_eq!(metric(&mut client, "execute_body_cache_hits"), 1.0);

    // The entry answers the query it was rendered for, not the name:
    // preparing `q` again (which publishes nothing) must not serve the
    // old query's body.
    ok(
        &mut client,
        "/prepare",
        r#"{"name": "q", "query": "?E(\"k3\", v)"}"#,
    );
    let narrowed = ok(&mut client, "/execute", r#"{"prepared": "q"}"#);
    assert_eq!(narrowed.header("etag"), first.header("etag"));
    assert_eq!(
        narrowed.json().unwrap().get("row_count").unwrap().as_i64(),
        Some(3),
        "{}",
        narrowed.body
    );
    assert_eq!(metric(&mut client, "execute_body_cache_entries"), 1.0);

    handle.shutdown();
    thread.join().unwrap();
}

/// A string's hash is a function of its bytes: a query constant, parsed
/// from the query text, finds the rows of a snapshot index whose equal
/// strings were parsed from a JSON `/import`.
#[test]
fn a_query_constant_finds_strings_a_json_import_brought() {
    let (addr, handle, thread) = boot();
    let mut client = Client::new(addr);
    ok(&mut client, "/register", r#"{"rules": "new R(int, str)"}"#);
    ok(
        &mut client,
        "/import",
        r#"{"relation": "R", "rows": [[1, "a"], [2, "b"], [3, "a"], [4, "ab"]]}"#,
    );
    let resp = ok(&mut client, "/execute", r#"{"query": "?R(x, \"a\")"}"#);
    assert!(resp.body.contains(r#""rows":[[1],[3]]"#), "{}", resp.body);
    assert_eq!(metric(&mut client, "snapshot_index_builds"), 1.0);
    handle.shutdown();
    thread.join().unwrap();
}

/// A mutation the session refused changed nothing, so it publishes
/// nothing. (Every command used to bump the write version: the `400`s
/// below made the next `/execute` evaluate, mint a new ETag and start
/// from an empty index set and body cache.)
#[test]
fn a_refused_mutation_publishes_nothing() {
    let (addr, handle, thread) = boot();
    let mut client = Client::new(addr);
    load_pairs(&mut client, 0);
    ok(
        &mut client,
        "/prepare",
        r#"{"name": "all", "query": "?E(k, v)"}"#,
    );
    let first = ok(&mut client, "/execute", r#"{"prepared": "all"}"#);
    ok(&mut client, "/execute", r#"{"query": "?E(\"k3\", v)"}"#);
    let version = |resp: &ClientResponse| resp.json().unwrap().get("version").unwrap().as_i64();
    assert_eq!(metric(&mut client, "snapshot_index_builds"), 1.0);
    let hits = metric(&mut client, "execute_body_cache_hits");
    let evals = metric(&mut client, "evals_total");

    for (path, body, needle) in [
        // Schema mismatch: E is (str, int).
        (
            "/import",
            r#"{"relation": "E", "rows": [[1, "k"]]}"#,
            "schema",
        ),
        // Ragged and mixed-type rows are refused before the session is
        // taken, naming row and column.
        (
            "/import",
            r#"{"relation": "E", "rows": [["k", 1], ["k"]]}"#,
            "row 1",
        ),
        (
            "/import",
            r#"{"relation": "E", "rows": [["k", 1], ["k", 2], ["k", "x"]]}"#,
            "row 2: type mismatch in column 1",
        ),
        (
            "/register",
            r#"{"ie": {"name": "broken", "pattern": "(oops"}}"#,
            "bad pattern",
        ),
    ] {
        let resp = post(&mut client, path, body);
        assert_eq!(resp.status, 400, "{path} {body}: {}", resp.body);
        assert!(resp.body.contains(needle), "{needle:?} in {}", resp.body);
    }

    let again = ok(&mut client, "/execute", r#"{"prepared": "all"}"#);
    assert_eq!(again.header("etag"), first.header("etag"));
    assert_eq!(version(&again), version(&first));
    assert_eq!(again.body, first.body);
    assert_eq!(metric(&mut client, "execute_body_cache_hits"), hits + 1.0);
    assert_eq!(metric(&mut client, "snapshot_index_builds"), 1.0);
    assert_eq!(metric(&mut client, "evals_total"), evals);

    handle.shutdown();
    thread.join().unwrap();
}
