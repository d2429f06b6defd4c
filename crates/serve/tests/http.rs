//! End-to-end tests: a real spannerd over a real socket, driven by the
//! crate's own client.

use spannerlib_core::Value;
use spannerlib_serve::{Client, Json, ServeConfig, Server, ServerHandle};
use spannerlog_engine::Session;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

/// Boots a server on an ephemeral port; returns its address, handle,
/// and the thread running the accept loop.
fn boot(
    session: Session,
    cfg: ServeConfig,
) -> (SocketAddr, ServerHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind(
        session,
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            // A keep-alive connection occupies a handler thread for its
            // lifetime; spawn more handlers than any test opens
            // connections so the tests cannot starve on small CI hosts.
            workers: cfg.workers.max(12),
            ..cfg
        },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.serve().expect("serve"));
    (addr, handle, thread)
}

fn post(client: &mut Client, path: &str, body: &str) -> (u16, Json) {
    let resp = client
        .post(path, &Json::parse(body).expect("test body is valid JSON"))
        .expect("request");
    let json = resp.json().unwrap_or(Json::Null);
    (resp.status, json)
}

fn error_kind(json: &Json) -> Option<&str> {
    json.get("error")?.get("kind")?.as_str()
}

/// The value of the unlabeled series `name` on `/metrics` (0 before its
/// first use).
fn metric(client: &mut Client, name: &str) -> f64 {
    let body = client.get("/metrics").expect("metrics").body;
    body.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or(0.0)
}

#[test]
fn full_lifecycle_register_import_prepare_execute() {
    let (addr, handle, thread) = boot(Session::new(), ServeConfig::default());
    let mut client = Client::new(addr);

    let resp = client.get("/healthz").expect("healthz");
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.json().unwrap().get("status").unwrap().as_str(),
        Some("ok")
    );

    let (status, _) = post(
        &mut client,
        "/register",
        r#"{"rules": "new Doc(str)\nMention(d, s) <- Doc(d), rgx(\"[A-Z][a-z]+\", d) -> (s)"}"#,
    );
    assert_eq!(status, 200);

    let (status, body) = post(
        &mut client,
        "/import",
        r#"{"relation": "Doc", "rows": [["Alice met Bob"], ["Carol slept"]]}"#,
    );
    assert_eq!(status, 200, "{body:?}");
    assert_eq!(body.get("rows").unwrap(), &Json::Int(2));

    let (status, _) = post(
        &mut client,
        "/prepare",
        r#"{"name": "mentions", "query": "?Mention(d, s)"}"#,
    );
    assert_eq!(status, 200);

    // Prepared execution: spans come back resolved against the
    // snapshot's document store.
    let (status, body) = post(&mut client, "/execute", r#"{"prepared": "mentions"}"#);
    assert_eq!(status, 200, "{body:?}");
    assert_eq!(body.get("row_count").unwrap(), &Json::Int(3));
    let rows = body.get("rows").unwrap().as_array().unwrap();
    let texts: Vec<&str> = rows
        .iter()
        .filter_map(|r| r.as_array()?.get(1)?.get("text")?.as_str())
        .collect();
    assert!(texts.contains(&"Alice") && texts.contains(&"Bob") && texts.contains(&"Carol"));
    let span = rows[0].as_array().unwrap()[1].clone();
    assert!(span.get("start").is_some() && span.get("end").is_some());

    // Ad-hoc queries work too, against the same snapshot.
    let (status, body) = post(&mut client, "/execute", r#"{"query": "?Doc(d)"}"#);
    assert_eq!(status, 200);
    assert_eq!(body.get("row_count").unwrap(), &Json::Int(2));

    // Unknown prepared name: 404, structured.
    let (status, body) = post(&mut client, "/execute", r#"{"prepared": "nope"}"#);
    assert_eq!(status, 404);
    assert_eq!(error_kind(&body), Some("not_found"));

    // /profile reports the publish version and the evaluation profile,
    // and nothing else.
    let resp = client.get("/profile").expect("profile");
    assert_eq!(resp.status, 200);
    let profile = resp.json().unwrap();
    assert!(profile.get("version").unwrap().as_i64().unwrap() >= 2);
    let Json::Obj(members) = &profile else {
        panic!("/profile must be an object");
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["version", "fingerprint", "eval_seq", "eval_profile"]);

    // /metrics after real traffic is a well-formed Prometheus body that
    // carries the request, evaluation and read-path families.
    let metrics = client.get("/metrics").expect("metrics").body;
    let expo = spannerlib_trace::check_exposition(&metrics)
        .unwrap_or_else(|e| panic!("/metrics does not parse: {e}\n{metrics}"));
    assert!(expo.samples > 0, "{metrics}");
    for family in [
        "# TYPE http_requests_total counter",
        "# TYPE evals_total counter",
        "# TYPE snapshot_index_builds gauge",
    ] {
        assert!(metrics.contains(family), "{family} missing:\n{metrics}");
    }
    // The execute histogram is labeled per route and status class.
    let execute_count: f64 = metrics
        .lines()
        .filter(|line| line.starts_with("http_request_duration_ns_count{route=\"/execute\""))
        .filter_map(|line| line.rsplit_once(' ')?.1.parse::<f64>().ok())
        .sum();
    assert!(execute_count >= 3.0, "{metrics}");

    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn etag_flows_and_304_on_if_none_match() {
    let (addr, handle, thread) = boot(Session::new(), ServeConfig::default());
    let mut client = Client::new(addr);
    post(&mut client, "/register", r#"{"rules": "new R(int)"}"#);
    post(
        &mut client,
        "/import",
        r#"{"relation": "R", "rows": [[1], [2]]}"#,
    );

    let resp = client
        .post("/execute", &Json::parse(r#"{"query": "?R(x)"}"#).unwrap())
        .unwrap();
    assert_eq!(resp.status, 200);
    let etag = resp.header("etag").expect("ETag on 200").to_string();

    // Same version: conditional request short-circuits to 304.
    let resp = client
        .request(
            "POST",
            "/execute",
            &[("If-None-Match", &etag)],
            Some(r#"{"query": "?R(x)"}"#),
        )
        .unwrap();
    assert_eq!(resp.status, 304);
    assert!(resp.body.is_empty());

    // Churn an input relation: the fingerprint (and ETag) must move.
    post(
        &mut client,
        "/import",
        r#"{"relation": "R", "rows": [[3]]}"#,
    );
    let resp = client
        .request(
            "POST",
            "/execute",
            &[("If-None-Match", &etag)],
            Some(r#"{"query": "?R(x)"}"#),
        )
        .unwrap();
    assert_eq!(resp.status, 200, "stale validator must revalidate");
    let new_etag = resp.header("etag").unwrap();
    assert_ne!(new_etag, etag);

    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn wire_registered_ie_extracts_spans() {
    let (addr, handle, thread) = boot(Session::new(), ServeConfig::default());
    let mut client = Client::new(addr);
    let (status, _) = post(
        &mut client,
        "/register",
        r#"{"ie": {"name": "ticket", "pattern": "([A-Z]+)-([0-9]+)", "output": "strings"}}"#,
    );
    assert_eq!(status, 200);
    post(
        &mut client,
        "/register",
        r#"{"rules": "new Log(str)\nTicket(p, n) <- Log(l), ticket(l) -> (p, n)"}"#,
    );
    post(
        &mut client,
        "/import",
        r#"{"relation": "Log", "rows": [["fixed JIRA-123 and JIRA-7"]]}"#,
    );
    let (status, body) = post(&mut client, "/execute", r#"{"query": "?Ticket(p, n)"}"#);
    assert_eq!(status, 200, "{body:?}");
    assert_eq!(body.get("row_count").unwrap(), &Json::Int(2));

    // Bad pattern: structured 400 at registration time.
    let (status, body) = post(
        &mut client,
        "/register",
        r#"{"ie": {"name": "broken", "pattern": "(oops"}}"#,
    );
    assert_eq!(status, 400);
    assert_eq!(error_kind(&body), Some("bad_request"));

    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn row_budget_overrun_is_429_naming_the_culprit_rule() {
    let cfg = ServeConfig {
        max_materialized_rows: Some(10),
        ..ServeConfig::default()
    };
    let (addr, handle, thread) = boot(Session::new(), cfg);
    let mut client = Client::new(addr);
    post(
        &mut client,
        "/register",
        r#"{"rules": "new Seed(int)\nWide(x, y) <- Seed(x), Seed(y)"}"#,
    );
    let rows: Vec<String> = (0..20).map(|i| format!("[{i}]")).collect();
    post(
        &mut client,
        "/import",
        &format!(r#"{{"relation": "Seed", "rows": [{}]}}"#, rows.join(",")),
    );
    let (status, body) = post(&mut client, "/execute", r#"{"query": "?Wide(x, y)"}"#);
    assert_eq!(status, 429, "{body:?}");
    let err = body.get("error").unwrap();
    assert_eq!(err.get("kind").unwrap().as_str(), Some("limit"));
    assert_eq!(err.get("rule").unwrap().as_str(), Some("Wide"));
    assert!(err
        .get("source")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("Wide(x, y)"));

    handle.shutdown();
    thread.join().unwrap();
}

/// A session with an IE function that sleeps per call.
fn sleepy_session(millis: u64) -> Session {
    Session::builder()
        .register("sleepy", Some(1), move |args, out, _ctx| {
            std::thread::sleep(Duration::from_millis(millis));
            out.push(&[args[0].clone()])
        })
        .build()
}

#[test]
fn deadline_overrun_is_503_naming_the_culprit_rule() {
    let (addr, handle, thread) = boot(sleepy_session(400), ServeConfig::default());
    let mut client = Client::new(addr);
    post(
        &mut client,
        "/register",
        r#"{"rules": "new In(int)\nSlow(y) <- In(x), sleepy(x) -> (y)"}"#,
    );
    post(
        &mut client,
        "/import",
        r#"{"relation": "In", "rows": [[1]]}"#,
    );
    let start = Instant::now();
    let (status, body) = post(
        &mut client,
        "/execute",
        r#"{"query": "?Slow(y)", "deadline_ms": 100}"#,
    );
    assert_eq!(status, 503, "{body:?}");
    let err = body.get("error").unwrap();
    assert_eq!(err.get("kind").unwrap().as_str(), Some("deadline"));
    // The request's own evaluation hit the engine wall-clock limit, so
    // the handler has the culprit rule first-hand.
    assert_eq!(err.get("rule").unwrap().as_str(), Some("Slow"), "{body:?}");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "the request must not run to completion"
    );

    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn concurrent_executes_share_snapshots_and_never_block_the_writer() {
    let (addr, handle, thread) = boot(Session::new(), ServeConfig::default());
    let mut client = Client::new(addr);
    post(
        &mut client,
        "/register",
        r#"{"rules": "new V(int)\nDouble(x, y) <- V(x), V(y)"}"#,
    );
    post(
        &mut client,
        "/import",
        r#"{"relation": "V", "rows": [[1], [2], [3]]}"#,
    );

    let readers: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::new(addr);
                let mut versions = Vec::new();
                for _ in 0..10 {
                    let resp = c
                        .post(
                            "/execute",
                            &Json::parse(r#"{"query": "?Double(x, y)"}"#).unwrap(),
                        )
                        .expect("execute");
                    assert_eq!(resp.status, 200);
                    let body = resp.json().unwrap();
                    // A snapshot is internally consistent: row_count
                    // matches the rows actually serialized.
                    let n = body.get("row_count").unwrap().as_i64().unwrap();
                    assert_eq!(
                        body.get("rows").unwrap().as_array().unwrap().len() as i64,
                        n
                    );
                    versions.push(body.get("version").unwrap().as_i64().unwrap());
                }
                versions
            })
        })
        .collect();
    // Writer churn while the readers hammer /execute.
    for i in 0..10 {
        let (status, _) = post(
            &mut client,
            "/import",
            &format!(r#"{{"relation": "V", "rows": [[{i}], [{}]]}}"#, i + 100),
        );
        assert_eq!(status, 200);
    }
    for reader in readers {
        let versions = reader.join().expect("reader thread");
        // Versions observed by one reader never go backwards.
        assert!(versions.windows(2).all(|w| w[0] <= w[1]), "{versions:?}");
    }

    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn protocol_errors_are_structured() {
    let (addr, handle, thread) = boot(Session::new(), ServeConfig::default());
    let mut client = Client::new(addr);

    // 404 / 405.
    let resp = client.get("/nope").unwrap();
    assert_eq!(resp.status, 404);
    let resp = client.get("/execute").unwrap();
    assert_eq!(resp.status, 405);

    // Malformed JSON: 400.
    let resp = client
        .request("POST", "/execute", &[], Some("{not json"))
        .unwrap();
    assert_eq!(resp.status, 400);
    assert_eq!(error_kind(&resp.json().unwrap()), Some("bad_request"));

    // Chunked transfer: 411, raw socket (the client never sends it).
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(b"POST /execute HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
        .unwrap();
    let mut text = String::new();
    raw.read_to_string(&mut text).unwrap();
    assert!(text.starts_with("HTTP/1.1 411 "), "{text}");

    // Oversized body: 413.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(b"POST /execute HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n")
        .unwrap();
    let mut text = String::new();
    raw.read_to_string(&mut text).unwrap();
    assert!(text.starts_with("HTTP/1.1 413 "), "{text}");

    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn request_id_flows_to_header_access_log_and_slow_query_profile() {
    use spannerlog_engine::TraceLevel;
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let access_path = dir.join(format!("spannerd_test_access_{pid}.jsonl"));
    let slow_path = dir.join(format!("spannerd_test_slow_{pid}.jsonl"));
    let _ = std::fs::remove_file(&access_path);
    let _ = std::fs::remove_file(&slow_path);

    // Summary tracing gives the slow-query log a profile to attach;
    // threshold 0 logs every evaluation.
    let session = Session::builder().tracing(TraceLevel::Summary).build();
    let cfg = ServeConfig {
        access_log: Some(access_path.display().to_string()),
        slow_eval_ms: Some(0),
        slow_log: Some(slow_path.display().to_string()),
        ..ServeConfig::default()
    };
    let (addr, handle, thread) = boot(session, cfg);
    let mut client = Client::new(addr);
    post(
        &mut client,
        "/register",
        r#"{"rules": "new Doc(str)\nWord(d, s) <- Doc(d), rgx(\"[a-z]+\", d) -> (s)"}"#,
    );
    post(
        &mut client,
        "/import",
        r#"{"relation": "Doc", "rows": [["hello world"]]}"#,
    );

    // First /execute after a mutation forces an evaluation, so the
    // caller-chosen id must attach to that evaluation.
    let resp = client
        .request(
            "POST",
            "/execute",
            &[("X-Request-Id", "e2e-trace-me-7")],
            Some(r#"{"query": "?Word(d, s)"}"#),
        )
        .unwrap();
    assert_eq!(resp.status, 200);
    // 1. Echoed in the response header.
    assert_eq!(resp.header("x-request-id"), Some("e2e-trace-me-7"));

    // A request without the header gets a minted id.
    let resp = client.get("/healthz").unwrap();
    let minted = resp.header("x-request-id").expect("minted id").to_string();
    assert!(!minted.is_empty() && minted != "e2e-trace-me-7");

    handle.shutdown();
    thread.join().unwrap();

    // 2. In the access log, on the /execute line, with the snapshot
    // validator the request observed.
    let access = std::fs::read_to_string(&access_path).expect("access log written");
    let line = access
        .lines()
        .find(|l| l.contains("\"request_id\":\"e2e-trace-me-7\""))
        .unwrap_or_else(|| panic!("id missing from access log:\n{access}"));
    let record = Json::parse(line).expect("access line is valid JSON");
    assert_eq!(record.get("type").unwrap().as_str(), Some("access"));
    assert_eq!(record.get("path").unwrap().as_str(), Some("/execute"));
    assert_eq!(record.get("status").unwrap(), &Json::Int(200));
    assert!(record.get("etag").unwrap().as_str().is_some(), "{record:?}");
    assert!(record.get("eval_seq").unwrap().as_i64().unwrap() >= 1);

    // 3. In the slow-query record, which embeds the per-rule profile of
    // the evaluation that served this request.
    let slow = std::fs::read_to_string(&slow_path).expect("slow log written");
    let record = slow
        .lines()
        .map(|l| Json::parse(l).expect("slow line is valid JSON"))
        .find(|r| {
            r.get("request_ids")
                .and_then(|ids| ids.as_array())
                .is_some_and(|ids| ids.iter().any(|id| id.as_str() == Some("e2e-trace-me-7")))
        })
        .unwrap_or_else(|| panic!("id missing from slow-query log:\n{slow}"));
    assert_eq!(record.get("type").unwrap().as_str(), Some("slow_eval"));
    assert!(record.get("eval_wall_micros").unwrap().as_i64().is_some());
    let profile = record.get("profile").unwrap().as_array().unwrap();
    assert!(!profile.is_empty(), "{record:?}");
    assert_eq!(profile[0].get("type").unwrap().as_str(), Some("profile"));
    assert_eq!(profile[0].get("schema").unwrap(), &Json::Int(3));
    assert!(
        profile[0]
            .get("request_ids")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .any(|id| id.as_str() == Some("e2e-trace-me-7")),
        "{record:?}"
    );

    let _ = std::fs::remove_file(&access_path);
    let _ = std::fs::remove_file(&slow_path);
}

#[test]
fn graceful_shutdown_drains_in_flight_requests_and_healthz_turns_503() {
    let (addr, handle, thread) = boot(sleepy_session(500), ServeConfig::default());
    let mut client = Client::new(addr);
    post(
        &mut client,
        "/register",
        r#"{"rules": "new In(int)\nSlow(y) <- In(x), sleepy(x) -> (y)"}"#,
    );
    post(
        &mut client,
        "/import",
        r#"{"relation": "In", "rows": [[1]]}"#,
    );

    // Pipeline a slow execute and a healthz on one raw connection: the
    // handler answers them in order, so the healthz is deterministically
    // processed *after* shutdown begins (while the execute drains).
    let mut raw = TcpStream::connect(addr).unwrap();
    let execute_body = r#"{"query": "?Slow(y)"}"#;
    raw.write_all(
        format!(
            "POST /execute HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}GET /healthz HTTP/1.1\r\n\r\n",
            execute_body.len(),
            execute_body
        )
        .as_bytes(),
    )
    .unwrap();
    std::thread::sleep(Duration::from_millis(150)); // execute is now mid-eval
    assert!(handle.is_accepting());
    handle.shutdown();
    assert!(!handle.is_accepting());

    let mut text = String::new();
    raw.read_to_string(&mut text).unwrap();
    // The in-flight execute drained to a real 200 with its rows…
    assert!(text.starts_with("HTTP/1.1 200 "), "{text}");
    assert!(text.contains("\"row_count\":1"), "{text}");
    // …and the pipelined healthz saw the draining server.
    assert!(text.contains("HTTP/1.1 503 "), "{text}");
    assert!(text.contains("draining"), "{text}");
    // The connection was closed after the drain.
    assert!(text.contains("Connection: close"), "{text}");

    // The accept loop has exited; serve() returns and new connections
    // are refused once the listener drops.
    thread.join().unwrap();
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener must be gone after drain"
    );
}

/// Before the session was checked out by the request that needs it, it
/// lived on a writer thread that the panic below killed: the second
/// `/import` of this test read `500 writer thread is gone` or `503
/// server is shutting down`, as did every mutation and stale `/execute`
/// after it, while `/healthz` kept answering 200.
#[test]
fn a_panicking_ie_function_fails_its_own_request_and_no_other() {
    let session = Session::builder()
        .register("fragile", Some(1), |args, out, _ctx| {
            assert!(args[0] != Value::Int(13), "fragile(13)");
            out.push(&[args[0].clone()])
        })
        .build();
    let (addr, handle, thread) = boot(session, ServeConfig::default());
    let mut client = Client::new(addr);
    let (status, _) = post(
        &mut client,
        "/register",
        r#"{"rules": "new In(int)\nOut(y) <- In(x), fragile(x) -> (y)"}"#,
    );
    assert_eq!(status, 200);
    post(
        &mut client,
        "/import",
        r#"{"relation": "In", "rows": [[13]]}"#,
    );

    let resp = client
        .request(
            "POST",
            "/execute",
            &[("X-Request-Id", "doomed-13")],
            Some(r#"{"query": "?Out(y)"}"#),
        )
        .unwrap();
    assert_eq!(resp.status, 500, "{}", resp.body);
    let body = resp.json().unwrap();
    assert_eq!(error_kind(&body), Some("ie_panic"), "{body:?}");
    let error = body.get("error").unwrap();
    assert_eq!(error.get("rule").unwrap().as_str(), Some("Out"));
    let message = error.get("message").unwrap().as_str().unwrap();
    assert!(
        message.contains("\"fragile\" panicked: fragile(13)"),
        "{message}"
    );
    assert_eq!(resp.header("x-request-id"), Some("doomed-13"));
    let echoed = body.get("error").unwrap().get("request_id").unwrap();
    assert_eq!(echoed.as_str(), Some("doomed-13"));

    // The session is back in its slot and evaluates again.
    let (status, body) = post(
        &mut client,
        "/import",
        r#"{"relation": "In", "rows": [[2]]}"#,
    );
    assert_eq!(status, 200, "{body:?}");
    let (status, body) = post(&mut client, "/execute", r#"{"query": "?Out(y)"}"#);
    assert_eq!(status, 200, "{body:?}");
    assert_eq!(body.get("rows").unwrap().render(), "[[2]]");
    assert_eq!(client.get("/healthz").unwrap().status, 200);
    // The engine answered the panic: no handler unwound.
    assert_eq!(metric(&mut client, "handler_panics_total"), 0.0);

    // `boot`'s thread expects `serve()` to return `Ok`: no handler
    // thread died of the panic, so the scope joins them all cleanly.
    handle.shutdown();
    thread.join().unwrap();
}

/// With the writer queue, B below was answered `503 deadline expired
/// while queued for evaluation` only when A's evaluation ended — 400 ms
/// after it was sent, eight times its deadline: its refresh sat in the
/// queue behind A's.
#[test]
fn a_deadline_is_a_deadline_while_another_request_evaluates() {
    // `sleepy` says when A's evaluation is inside it, so B is sent
    // while the session is checked out, not merely "a bit later".
    let (entered_tx, entered_rx) = mpsc::channel();
    let session = Session::builder()
        .register("sleepy", Some(1), move |args, out, _ctx| {
            let _ = entered_tx.send(());
            std::thread::sleep(Duration::from_millis(400));
            out.push(&[args[0].clone()])
        })
        .build();
    let (addr, handle, thread) = boot(session, ServeConfig::default());
    let mut client = Client::new(addr);
    post(
        &mut client,
        "/register",
        r#"{"rules": "new In(int)\nSlow(y) <- In(x), sleepy(x) -> (y)"}"#,
    );
    post(
        &mut client,
        "/import",
        r#"{"relation": "In", "rows": [[1]]}"#,
    );

    let a = std::thread::spawn(move || {
        post(
            &mut Client::new(addr),
            "/execute",
            r#"{"query": "?Slow(y)"}"#,
        )
    });
    entered_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("A's evaluation reaches sleepy");
    let sent = Instant::now();
    let (status, body) = post(
        &mut client,
        "/execute",
        r#"{"query": "?Slow(y)", "deadline_ms": 50}"#,
    );
    let answered = sent.elapsed();
    assert_eq!(status, 503, "{body:?}");
    assert_eq!(error_kind(&body), Some("deadline"), "{body:?}");
    assert!(
        answered < Duration::from_millis(250),
        "a 50 ms deadline answered after {answered:?}"
    );

    let (status, body) = a.join().expect("A's thread");
    assert_eq!(status, 200, "{body:?}");
    assert_eq!(body.get("row_count").unwrap(), &Json::Int(1));

    handle.shutdown();
    thread.join().unwrap();
}

/// What the writer queue was for — N stale readers, one evaluation —
/// holds without it (this test passes before and after): the readers
/// take turns on the session and all but the first find the publish
/// current.
#[test]
fn stale_readers_of_one_import_share_one_evaluation() {
    const READERS: usize = 6;
    let (addr, handle, thread) = boot(sleepy_session(200), ServeConfig::default());
    let mut client = Client::new(addr);
    post(
        &mut client,
        "/register",
        r#"{"rules": "new In(int)\nSlow(y) <- In(x), sleepy(x) -> (y)"}"#,
    );
    post(&mut client, "/execute", r#"{"query": "?Slow(y)"}"#);
    let evals = metric(&mut client, "evals_total");
    let coalesced = metric(&mut client, "execute_coalesced");
    post(
        &mut client,
        "/import",
        r#"{"relation": "In", "rows": [[1]]}"#,
    );

    let start = Arc::new(Barrier::new(READERS));
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let start = start.clone();
            std::thread::spawn(move || {
                let mut client = Client::new(addr);
                // Connected before the barrier: the six executes below
                // are sent within the 200 ms the first one evaluates.
                client.get("/healthz").expect("healthz");
                start.wait();
                post(&mut client, "/execute", r#"{"query": "?Slow(y)"}"#)
            })
        })
        .collect();
    let mut versions = Vec::new();
    for reader in readers {
        let (status, body) = reader.join().expect("reader thread");
        assert_eq!(status, 200, "{body:?}");
        assert_eq!(body.get("row_count").unwrap(), &Json::Int(1));
        versions.push(body.get("version").unwrap().as_i64().unwrap());
    }
    assert!(versions.iter().all(|v| *v == versions[0]), "{versions:?}");
    assert_eq!(metric(&mut client, "evals_total") - evals, 1.0);
    let coalesced = metric(&mut client, "execute_coalesced") - coalesced;
    assert!(
        coalesced >= 4.0,
        "{coalesced} of 5 waiting readers coalesced"
    );

    handle.shutdown();
    thread.join().unwrap();
}

/// A churn cycle — `/import` a changed relation, `/execute` — updates
/// the derived state from the rows that changed instead of evaluating
/// again: over N cycles after the set-up, `evals_maintained_total`
/// grows by exactly N, as `evals_total` does.
#[test]
fn churn_cycles_are_maintained_evaluations() {
    const CYCLES: usize = 5;
    let (addr, handle, thread) = boot(Session::new(), ServeConfig::default());
    let mut client = Client::new(addr);
    let import = |client: &mut Client, first: usize| {
        let rows: Vec<String> = (first..first + 4)
            .map(|n| format!(r#"["d{n}", "note {n} and more"]"#))
            .collect();
        let body = format!(r#"{{"relation": "Doc", "rows": [{}]}}"#, rows.join(", "));
        assert_eq!(post(client, "/import", &body).0, 200);
    };
    let words = r#"{"query": "?Word(d, w)"}"#;
    let (status, _) = post(
        &mut client,
        "/register",
        r#"{"rules": "new Doc(str, str)\nWord(d, w) <- Doc(d, t), rgx_string(\"[a-z]+\", t) -> (w)"}"#,
    );
    assert_eq!(status, 200);
    import(&mut client, 0);
    assert_eq!(post(&mut client, "/execute", words).0, 200);
    let evals = metric(&mut client, "evals_total");
    let maintained = metric(&mut client, "evals_maintained_total");

    for cycle in 1..=CYCLES {
        import(&mut client, cycle);
        let (status, body) = post(&mut client, "/execute", words);
        assert_eq!(status, 200, "{body:?}");
        assert_eq!(body.get("row_count").unwrap(), &Json::Int(12));
    }
    assert_eq!(metric(&mut client, "evals_total") - evals, CYCLES as f64);
    let maintained = metric(&mut client, "evals_maintained_total") - maintained;
    assert_eq!(maintained, CYCLES as f64);

    handle.shutdown();
    thread.join().unwrap();
}

/// `/register` once answered `200` to the unsafe rule below — `run`
/// only stored rules — and from then on every `/execute`, `?Good(x)`
/// included, and every later valid rule read `400 unsafe rule (line 1):
/// head variable "y" is not bound by the body`, with nothing on the wire
/// to take the rule back out. `run` compiles the cell now.
#[test]
fn a_rule_that_does_not_compile_is_refused_at_register_and_leaves_no_trace() {
    let (addr, handle, thread) = boot(Session::new(), ServeConfig::default());
    let mut client = Client::new(addr);
    let (status, _) = post(
        &mut client,
        "/register",
        r#"{"rules": "new S(str)\nS(\"a\")\nGood(x) <- S(x)"}"#,
    );
    assert_eq!(status, 200);
    let (status, body) = post(&mut client, "/execute", r#"{"query": "?Good(x)"}"#);
    assert_eq!(status, 200, "{body:?}");

    let (status, body) = post(
        &mut client,
        "/register",
        r#"{"rules": "Bad(x, y) <- S(x)"}"#,
    );
    assert_eq!(status, 400, "{body:?}");
    assert_eq!(error_kind(&body), Some("bad_request"));
    let message = body.get("error").unwrap().get("message").unwrap();
    assert!(
        message.as_str().unwrap().contains("head variable \"y\""),
        "{message:?}"
    );

    let (status, body) = post(&mut client, "/execute", r#"{"query": "?Good(x)"}"#);
    assert_eq!(status, 200, "{body:?}");
    assert_eq!(body.get("row_count").unwrap(), &Json::Int(1));
    let (status, body) = post(&mut client, "/register", r#"{"rules": "Fine(x) <- S(x)"}"#);
    assert_eq!(status, 200, "{body:?}");
    let (status, body) = post(&mut client, "/execute", r#"{"query": "?Fine(x)"}"#);
    assert_eq!(status, 200, "{body:?}");
    assert_eq!(body.get("row_count").unwrap(), &Json::Int(1));
    // The refused rule derives nothing: it is not in the program.
    let (status, body) = post(&mut client, "/execute", r#"{"query": "?Bad(x, y)"}"#);
    assert_eq!(status, 200, "{body:?}");
    assert_eq!(body.get("row_count").unwrap(), &Json::Int(0));

    handle.shutdown();
    thread.join().unwrap();
}

/// A `_` comparison operand has no value to compare: the rule is
/// unsafe, refused at `/register`, and the program keeps answering.
#[test]
fn a_wildcard_comparison_operand_is_refused_at_register() {
    let (addr, handle, thread) = boot(Session::new(), ServeConfig::default());
    let mut client = Client::new(addr);
    let rules = r#"{"rules": "new S(int)\nS(1)\nGood(x) <- S(x)"}"#;
    assert_eq!(post(&mut client, "/register", rules).0, 200);

    let bad = r#"{"rules": "Bad(x) <- S(x), x < _"}"#;
    let (status, body) = post(&mut client, "/register", bad);
    assert_eq!(status, 400, "{body:?}");
    assert_eq!(error_kind(&body), Some("bad_request"));
    let message = body.get("error").unwrap().get("message").unwrap();
    assert!(
        message.as_str().unwrap().contains("wildcard operand"),
        "{message:?}"
    );

    let (status, body) = post(&mut client, "/execute", r#"{"query": "?Good(x)"}"#);
    assert_eq!(status, 200, "{body:?}");
    assert_eq!(body.get("row_count").unwrap(), &Json::Int(1));

    handle.shutdown();
    thread.join().unwrap();
}

/// A refused cell is refused whole: the declaration and the fact ahead
/// of its unsafe rule do not stay, the name is free to declare again,
/// and the publish version does not move. `?T(x)` over the name no
/// relation holds reads empty, as any query over an unknown name does.
#[test]
fn a_refused_register_cell_leaves_nothing_behind() {
    let (addr, handle, thread) = boot(Session::new(), ServeConfig::default());
    let mut client = Client::new(addr);
    let version = |client: &mut Client| {
        let health = client.get("/healthz").expect("healthz").json().unwrap();
        health.get("version").cloned().unwrap()
    };
    let before = version(&mut client);
    let cell = r#"{"rules": "new T(int)\nT(1)\nBad(x, y) <- T(x)"}"#;
    let (status, body) = post(&mut client, "/register", cell);
    assert_eq!(status, 400, "{body:?}");
    assert_eq!(version(&mut client), before);
    let (status, body) = post(&mut client, "/execute", r#"{"query": "?T(x)"}"#);
    assert_eq!(status, 200, "{body:?}");
    assert_eq!(body.get("row_count").unwrap(), &Json::Int(0), "T(1) went");
    let (status, body) = post(&mut client, "/register", r#"{"rules": "new T(int)"}"#);
    assert_eq!(status, 200, "{body:?}");

    // A declaration that gives a rule head another arity is refused, and
    // the queries go on answering.
    assert_eq!(
        post(&mut client, "/register", r#"{"rules": "Good(x) <- T(x)"}"#).0,
        200
    );
    let import = r#"{"relation": "T", "rows": [[1]]}"#;
    assert_eq!(post(&mut client, "/import", import).0, 200);
    let good = r#"{"query": "?Good(x)"}"#;
    assert_eq!(
        post(&mut client, "/execute", good)
            .1
            .get("row_count")
            .unwrap(),
        &Json::Int(1)
    );
    let (status, body) = post(
        &mut client,
        "/register",
        r#"{"rules": "new Good(int, int)"}"#,
    );
    assert_eq!(status, 400, "{body:?}");
    let (status, body) = post(&mut client, "/execute", good);
    assert_eq!(status, 200, "{body:?}");
    assert_eq!(body.get("row_count").unwrap(), &Json::Int(1));

    handle.shutdown();
    thread.join().unwrap();
}

/// An `/import` that gives a rule head another arity is refused `400`,
/// leaves the publish version where it was, and the rule's relation
/// goes on answering.
#[test]
fn an_import_that_gives_a_rule_head_another_arity_is_refused() {
    let (addr, handle, thread) = boot(Session::new(), ServeConfig::default());
    let mut client = Client::new(addr);
    let rules = r#"{"rules": "new S(int)\nS(1)\nGood(x) <- S(x)"}"#;
    assert_eq!(post(&mut client, "/register", rules).0, 200);
    let good = r#"{"query": "?Good(x)"}"#;
    assert_eq!(post(&mut client, "/execute", good).0, 200);
    let version = |client: &mut Client| {
        let health = client.get("/healthz").expect("healthz").json().unwrap();
        health.get("version").cloned().unwrap()
    };
    let before = version(&mut client);

    let import = r#"{"relation": "Good", "rows": [[1, 2]]}"#;
    let (status, body) = post(&mut client, "/import", import);
    assert_eq!(status, 400, "{body:?}");
    assert_eq!(version(&mut client), before);
    let (status, body) = post(&mut client, "/execute", good);
    assert_eq!(status, 200, "{body:?}");
    assert_eq!(body.get("row_count").unwrap(), &Json::Int(1));

    handle.shutdown();
    thread.join().unwrap();
}

/// Two registered rules share an `rgx` call, which the program plans as
/// the relations `rgx#0?` and `rgx#0`: the daemon answers the rules, and
/// neither an import nor a query can name those relations.
#[test]
fn the_relations_of_a_shared_call_are_not_served() {
    let (addr, handle, thread) = boot(Session::new(), ServeConfig::default());
    let mut client = Client::new(addr);
    let rules = r#"{"rules": "new T(str)\nA(s) <- T(t), rgx(\"a+\", t) -> (s)\nB(s) <- T(t), rgx(\"a+\", t) -> (s)"}"#;
    assert_eq!(post(&mut client, "/register", rules).0, 200);
    let import = r#"{"relation": "T", "rows": [["aa b a"]]}"#;
    assert_eq!(post(&mut client, "/import", import).0, 200);
    let (status, body) = post(&mut client, "/execute", r#"{"query": "?B(s)"}"#);
    assert_eq!(status, 200, "{body:?}");
    assert_eq!(
        body.get("rows").and_then(Json::as_array).map(<[Json]>::len),
        Some(2)
    );

    let (status, body) = post(
        &mut client,
        "/import",
        r#"{"relation": "rgx#0", "rows": [["x", 1]]}"#,
    );
    assert_eq!(
        (status, error_kind(&body)),
        (400, Some("bad_request")),
        "{body:?}"
    );
    for query in ["?rgx#0(t, s)", "?rgx#0?(t)"] {
        let body = Json::Obj(vec![("query".into(), Json::str(query))]).render();
        let (status, body) = post(&mut client, "/execute", &body);
        assert_eq!(status, 400, "{query}: {body:?}");
    }
    handle.shutdown();
    thread.join().unwrap();
}

/// The families and series `/metrics` serves after a fixed request
/// script: one of each endpoint, a body-cache hit, a 404, a 405 and a
/// malformed body. Pins the exposition's content — which `# TYPE`
/// lines, which series with which label pairs — apart from sample
/// values, bucket bounds and line order.
#[test]
fn metrics_serve_a_fixed_set_of_families_and_series() {
    let (addr, handle, thread) = boot(Session::new(), ServeConfig::default());
    let mut client = Client::new(addr);
    let script = [
        (
            "/register",
            r#"{"rules": "new Doc(str)\nLen(d) <- Doc(d)"}"#,
        ),
        ("/import", r#"{"relation": "Doc", "rows": [["a"], ["b"]]}"#),
        ("/prepare", r#"{"name": "docs", "query": "?Len(d)"}"#),
        ("/execute", r#"{"prepared": "docs"}"#),
        ("/execute", r#"{"prepared": "docs"}"#),
        ("/execute", r#"{"query": "?Doc(d)"}"#),
    ];
    for (path, body) in script {
        assert_eq!(post(&mut client, path, body).0, 200, "{path} {body}");
    }
    assert_eq!(metric(&mut client, "execute_body_cache_hits"), 1.0);
    assert_eq!(client.get("/nowhere").unwrap().status, 404);
    assert_eq!(client.get("/execute").unwrap().status, 405);
    let malformed = client
        .request("POST", "/execute", &[], Some("{not json"))
        .unwrap();
    assert_eq!(malformed.status, 400);
    assert_eq!(client.get("/healthz").unwrap().status, 200);
    assert_eq!(client.get("/profile").unwrap().status, 200);

    let body = client.get("/metrics").expect("metrics").body;
    spannerlib_trace::check_exposition(&body)
        .unwrap_or_else(|e| panic!("/metrics does not parse: {e}\n{body}"));
    let mut types = Vec::new();
    let mut series = std::collections::BTreeSet::new();
    for line in body.lines() {
        if line.starts_with("# TYPE ") {
            types.push(line);
            continue;
        }
        let key = line.rsplit_once(' ').expect("a sample has a value").0;
        // `le` is the last pair of a bucket's labels.
        let key = match key.split_once(",le=\"") {
            Some((series, _)) => format!("{series}}}"),
            None if key.contains("{le=\"") => key.split_once('{').unwrap().0.to_string(),
            None => key.to_string(),
        };
        series.insert(key);
    }
    types.sort_unstable();
    let expected_types = [
        "# TYPE connections_active gauge",
        "# TYPE docstore_bytes gauge",
        "# TYPE docstore_docs gauge",
        "# TYPE docstore_epoch gauge",
        "# TYPE eval_duration_ns histogram",
        "# TYPE evals_maintained_total counter",
        "# TYPE evals_total counter",
        "# TYPE execute_body_cache_entries gauge",
        "# TYPE execute_body_cache_hits counter",
        "# TYPE http_connections_total counter",
        "# TYPE http_errors_total counter",
        "# TYPE http_request_duration_ns histogram",
        "# TYPE http_requests_total counter",
        "# TYPE pool_workers gauge",
        "# TYPE published_eval_seq gauge",
        "# TYPE snapshot_index_builds gauge",
    ];
    assert_eq!(types, expected_types, "{body}");
    let mut expected_series: Vec<String> = [
        "connections_active",
        "docstore_bytes",
        "docstore_docs",
        "docstore_epoch",
        "eval_duration_ns_bucket",
        "eval_duration_ns_count",
        "eval_duration_ns_sum",
        "evals_maintained_total",
        "evals_total",
        "execute_body_cache_entries",
        "execute_body_cache_hits",
        "http_connections_total",
        "http_errors_total",
        "pool_workers",
        "published_eval_seq",
        "snapshot_index_builds",
    ]
    .map(String::from)
    .into();
    let routes = [
        ("/execute", "2xx"),
        ("/execute", "4xx"),
        ("/healthz", "2xx"),
        ("/import", "2xx"),
        ("/metrics", "2xx"),
        ("/prepare", "2xx"),
        ("/profile", "2xx"),
        ("/register", "2xx"),
        ("other", "4xx"),
    ];
    for (route, status) in routes {
        let labels = format!("{{route=\"{route}\",status=\"{status}\"}}");
        expected_series.push(format!("http_requests_total{labels}"));
        for part in ["bucket", "count", "sum"] {
            expected_series.push(format!("http_request_duration_ns_{part}{labels}"));
        }
    }
    let expected_series: std::collections::BTreeSet<String> = expected_series.into_iter().collect();
    assert_eq!(series, expected_series, "{body}");

    handle.shutdown();
    thread.join().unwrap();
}
