//! The spannerd daemon: a Spannerlog engine behind an HTTP/1.1 API.
//!
//! ```text
//! spannerd [--addr HOST:PORT] [--workers N] [--parallelism N]
//!          [--deadline-ms N] [--max-eval-millis N] [--max-rows N]
//!          [--max-body-bytes N] [--idle-timeout-ms N] [--trace]
//!          [--access-log PATH|stderr] [--slow-eval-ms N]
//!          [--slow-log PATH|stderr]
//! ```
//!
//! Starts empty; clients build state over the wire (`/register`,
//! `/import`, `/prepare`) and read it back (`/execute`, `/profile`,
//! `/metrics`). `--access-log` appends one JSONL record per request;
//! `--slow-eval-ms` logs any evaluation at or over the threshold with
//! its per-rule profile attached (and enables `Summary` tracing so the
//! profile exists). SIGINT/SIGTERM begin a graceful drain: the
//! listener closes, `/healthz` turns 503, in-flight requests finish.

use spannerlib_serve::{signal, ServeConfig, Server};
use spannerlog_engine::{DocGc, Session, TraceLevel, DOC_GC_WATERMARK_BYTES};
use std::time::Duration;

const USAGE: &str = "usage: spannerd [--addr HOST:PORT] [--workers N] [--parallelism N]\n\
     \u{20}               [--deadline-ms N] [--max-eval-millis N] [--max-rows N]\n\
     \u{20}               [--max-body-bytes N] [--idle-timeout-ms N] [--trace]\n\
     \u{20}               [--access-log PATH|stderr] [--slow-eval-ms N]\n\
     \u{20}               [--slow-log PATH|stderr]";

/// A bad flag or value: the error and the usage on stderr, exit 2.
fn usage(error: &str) -> ! {
    eprintln!("spannerd: {error}");
    eprintln!("{USAGE}");
    std::process::exit(2)
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let Some(value) = value else {
        usage(&format!("{flag} needs a value"));
    };
    value
        .parse()
        .unwrap_or_else(|_| usage(&format!("invalid value {value:?} for {flag}")))
}

/// A millisecond budget: zero would fail every request it applies to.
fn parse_millis(flag: &str, value: Option<String>) -> u64 {
    match parse(flag, value) {
        0 => usage(&format!("{flag} must be at least 1")),
        millis => millis,
    }
}

fn main() {
    let mut cfg = ServeConfig {
        addr: "127.0.0.1:7171".into(),
        ..ServeConfig::default()
    };
    let mut parallelism: Option<usize> = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => cfg.addr = parse("--addr", args.next()),
            "--workers" => cfg.workers = parse("--workers", args.next()),
            "--parallelism" => parallelism = Some(parse("--parallelism", args.next())),
            "--deadline-ms" => {
                cfg.default_deadline_ms = Some(parse_millis("--deadline-ms", args.next()))
            }
            "--max-eval-millis" => {
                cfg.max_eval_millis = Some(parse_millis("--max-eval-millis", args.next()))
            }
            "--max-rows" => cfg.max_materialized_rows = Some(parse("--max-rows", args.next())),
            "--max-body-bytes" => cfg.max_body_bytes = parse("--max-body-bytes", args.next()),
            "--idle-timeout-ms" => {
                cfg.idle_timeout_ms = Some(parse("--idle-timeout-ms", args.next()))
            }
            "--access-log" => cfg.access_log = Some(parse("--access-log", args.next())),
            "--slow-eval-ms" => cfg.slow_eval_ms = Some(parse("--slow-eval-ms", args.next())),
            "--slow-log" => cfg.slow_log = Some(parse("--slow-log", args.next())),
            "--trace" => trace = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => usage(&format!("unknown flag {other:?}")),
        }
    }

    // Clients import for as long as the daemon lives: texts no relation
    // names any more go.
    let mut builder = Session::builder().doc_gc(DocGc::Threshold {
        bytes: DOC_GC_WATERMARK_BYTES,
    });
    if let Some(n) = parallelism {
        builder = builder.parallelism(n);
    }
    // The slow-query log embeds the per-rule EvalProfile, which only
    // exists when evaluations are traced — turn Summary tracing on
    // whenever a threshold is configured.
    if trace || cfg.slow_eval_ms.is_some() {
        builder = builder.tracing(TraceLevel::Summary);
    }
    let session = builder.build();

    signal::install();
    let server = match Server::bind(session, cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("spannerd: bind failed: {e}");
            std::process::exit(1)
        }
    };
    let handle = server.handle();
    // Announce readiness on stdout so scripts (CI boots spannerd on an
    // ephemeral port) can scrape the address.
    println!("spannerd listening on http://{}", server.local_addr());

    let watcher = handle.clone();
    std::thread::Builder::new()
        .name("spannerd-signals".into())
        .spawn(move || loop {
            if signal::triggered() {
                eprintln!("spannerd: termination signal received, draining");
                watcher.shutdown();
                return;
            }
            std::thread::sleep(Duration::from_millis(100));
        })
        .expect("spawn signal watcher");

    if let Err(e) = server.serve() {
        eprintln!("spannerd: serve failed: {e}");
        std::process::exit(1)
    }
    eprintln!("spannerd: drained, bye");
}
