//! The spannerd serving path, measured per request:
//!
//! * `serving_execute/*` — one `/execute` of the prepared clinical
//!   status query over a warm keep-alive connection, at 1 and 4
//!   concurrent client threads (each iteration issues one request per
//!   thread).
//! * `serving_http_overhead` — `/healthz` round-trips: the floor the
//!   hand-rolled HTTP/JSON layer adds on top of snapshot execution.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spannerlib_covid::corpus::generate_corpus;
use spannerlib_covid::spanner::SpannerPipeline;
use spannerlib_serve::{Client, Json, ServeConfig, Server, ServerHandle};
use spannerlog_engine::TraceLevel;
use std::hint::black_box;
use std::net::SocketAddr;

/// Boots a server seeded with the clinical pipeline, imports the corpus
/// and prepares `?Status(d, s)` over the wire, and runs one warm-up
/// execute so the benched requests read a published snapshot.
fn boot() -> (SocketAddr, ServerHandle, std::thread::JoinHandle<()>) {
    let session = SpannerPipeline::with_config(TraceLevel::Off, None)
        .expect("pipeline builds")
        .into_session();
    let server = Server::bind(
        session,
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 8,
            ..ServeConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.serve().expect("serve"));

    let mut setup = Client::new(addr);
    let corpus = generate_corpus(60, 42);
    let rows: Vec<Json> = corpus
        .iter()
        .map(|d| Json::Arr(vec![Json::str(d.id.as_str()), Json::str(d.text.as_str())]))
        .collect();
    let import = Json::Obj(vec![
        ("relation".into(), Json::str("Notes")),
        ("rows".into(), Json::Arr(rows)),
    ]);
    assert_eq!(setup.post("/import", &import).expect("import").status, 200);
    let prepare = Json::parse(r#"{"name": "status", "query": "?Status(d, s)"}"#).unwrap();
    assert_eq!(
        setup.post("/prepare", &prepare).expect("prepare").status,
        200
    );
    let execute = Json::parse(r#"{"prepared": "status"}"#).unwrap();
    assert_eq!(
        setup.post("/execute", &execute).expect("warm-up").status,
        200
    );
    (addr, handle, thread)
}

fn bench_execute(c: &mut Criterion) {
    let (addr, handle, thread) = boot();
    let mut group = c.benchmark_group("serving_execute");
    group.sample_size(20);
    for threads in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                // Persistent keep-alive clients; each iteration issues
                // one concurrent request per client.
                let mut clients: Vec<Client> = (0..threads).map(|_| Client::new(addr)).collect();
                let body = Json::parse(r#"{"prepared": "status"}"#).expect("static body");
                b.iter(|| {
                    std::thread::scope(|scope| {
                        for client in clients.iter_mut() {
                            let body = &body;
                            scope.spawn(move || {
                                let resp = client.post("/execute", body).expect("execute");
                                assert_eq!(resp.status, 200);
                                black_box(resp.body.len());
                            });
                        }
                    });
                })
            },
        );
    }
    group.finish();
    handle.shutdown();
    thread.join().expect("server thread");
}

fn bench_http_overhead(c: &mut Criterion) {
    let (addr, handle, thread) = boot();
    let mut client = Client::new(addr);
    c.bench_function("serving_http_overhead", |b| {
        b.iter(|| {
            let resp = client.get("/healthz").expect("healthz");
            assert_eq!(resp.status, 200);
            black_box(resp.body.len());
        })
    });
    drop(client);
    handle.shutdown();
    thread.join().expect("server thread");
}

criterion_group!(benches, bench_execute, bench_http_overhead);
criterion_main!(benches);
