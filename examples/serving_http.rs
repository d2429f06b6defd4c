//! Serving Spannerlog over HTTP with `spannerd`.
//!
//! Boots the serving front end in-process on an ephemeral port, then
//! drives the whole lifecycle over the wire with the bundled client:
//! register rules and an IE function, import documents, prepare a
//! query, and execute it — including a conditional re-execute (ETag /
//! If-None-Match) and a per-request deadline.
//!
//! The same server is what `cargo run --bin spannerd` starts as a
//! stand-alone daemon.
//!
//! Run with: `cargo run --example serving_http`

use spannerlib::serve::{Client, Json, ServeConfig, Server};
use spannerlib::Session;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Boot. The server takes ownership of the session; from here
    //    on one request at a time checks it out to mutate or evaluate.
    let server = Server::bind(Session::new(), ServeConfig::default())?;
    let addr = server.local_addr();
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.serve());
    println!("spannerd listening on http://{addr}");

    let mut client = Client::new(addr);

    // 2. Register an IE function (a regex catalog entry) and rules
    //    that call it.
    let resp = client.post(
        "/register",
        &Json::parse(
            r#"{"ie": {"name": "ticket", "pattern": "([A-Z]+)-([0-9]+)", "output": "strings"}}"#,
        )?,
    )?;
    assert_eq!(resp.status, 200);
    let resp = client.post(
        "/register",
        &Json::parse(r#"{"rules": "new Log(str)\nTicket(p, n) <- Log(l), ticket(l) -> (p, n)"}"#)?,
    )?;
    assert_eq!(resp.status, 200);

    // 3. Import documents. Mutations apply immediately but evaluation
    //    is lazy: it runs once, when the first execute needs it, shared
    //    by every concurrent request waiting on the same churn.
    let resp = client.post(
        "/import",
        &Json::parse(
            r#"{"relation": "Log", "rows": [["deploy fixed JIRA-123"], ["rollback of OPS-7 pending"]]}"#,
        )?,
    )?;
    assert_eq!(resp.status, 200);

    // 4. Prepare once, execute many — with a per-request deadline.
    let resp = client.post(
        "/prepare",
        &Json::parse(r#"{"name": "tickets", "query": "?Ticket(p, n)"}"#)?,
    )?;
    assert_eq!(resp.status, 200);
    let resp = client.post(
        "/execute",
        &Json::parse(r#"{"prepared": "tickets", "deadline_ms": 2000}"#)?,
    )?;
    assert_eq!(resp.status, 200);
    let body = resp.json().map_err(std::io::Error::other)?;
    println!(
        "tickets: {} rows, fingerprint {}",
        body.get("row_count").and_then(Json::as_i64).unwrap_or(0),
        body.get("fingerprint")
            .and_then(Json::as_str)
            .unwrap_or("?"),
    );
    let etag = resp.header("etag").expect("200s carry an ETag").to_string();

    // 5. Conditional re-execute: nothing changed, so the validator
    //    short-circuits to 304 and no rows travel.
    let resp = client.request(
        "POST",
        "/execute",
        &[("If-None-Match", &etag)],
        Some(r#"{"prepared": "tickets"}"#),
    )?;
    println!("re-execute with If-None-Match: {}", resp.status);
    assert_eq!(resp.status, 304);

    // 6. Scrape /metrics: every request above is already on the
    //    counters, and the latency histograms expose cumulative
    //    Prometheus buckets a scraper can ingest as-is.
    let resp = client.get("/metrics")?;
    assert_eq!(resp.status, 200);
    let requests: u64 = resp
        .body
        .lines()
        .filter(|l| l.starts_with("http_requests_total"))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum();
    println!(
        "metrics: {} exposition lines, {requests} requests served",
        resp.body.lines().count()
    );

    // 7. Graceful shutdown: stop accepting, drain, join.
    handle.shutdown();
    server_thread.join().expect("server thread")?;
    println!("drained cleanly");
    Ok(())
}
