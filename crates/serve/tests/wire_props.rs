//! Byte-level properties of the two parsers every request goes through:
//! `http::read_request` and `Json::parse`.
//!
//! On arbitrary bytes, and on valid requests and bodies with a few
//! bytes mutated, each parser
//!
//! - never panics (a panic fails the case);
//! - never allocates past its caps: a request at most its body cap plus
//!   four times the 8 KiB head cap, a JSON document at most 64 bytes per
//!   byte of input (one 32-byte value per two input bytes, at most
//!   doubled by a vector's growth) plus 1 KiB;
//! - fails only with an error that names the byte it stopped at, as
//!   `(at byte N)` with `N` inside the input.
//!
//! Allocation is counted per thread by the global allocator below, so
//! tests running side by side do not see each other's.

use proptest::prelude::*;
use spannerlib_serve::http::{read_request, ReadOutcome, MAX_HEAD_BYTES};
use spannerlib_serve::Json;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::BufReader;

/// Counts the bytes each thread holds, and their peak.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            track(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        track(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            track(new_size as isize - layout.size() as isize);
        }
        q
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Runs `f` and returns its result with the most bytes this thread held
/// at once beyond what it held before — the result's own included.
fn peak_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let out = f();
    let peak = PEAK.with(Cell::get) - base;
    (out, peak.max(0) as usize)
}

/// The position an error message ends with.
fn position(message: &str) -> Option<usize> {
    let rest = message.strip_suffix(')')?;
    let (_, at) = rest.rsplit_once("(at byte ")?;
    at.parse().ok()
}

const CASES: u32 = if cfg!(debug_assertions) { 256 } else { 2048 };

/// The body cap the request properties read under.
const MAX_BODY: usize = 4096;

/// A mutation of a valid input: `(kind, where, byte)`.
type Edit = (u8, usize, u8);

/// Applies each edit: flip a byte, insert one, delete one, cut the
/// input short, or repeat a stretch of it.
fn mutate(mut bytes: Vec<u8>, edits: &[Edit]) -> Vec<u8> {
    for &(kind, at, byte) in edits {
        let at = at % (bytes.len() + 1);
        match kind % 5 {
            0 if at < bytes.len() => bytes[at] ^= byte | 1,
            1 => bytes.insert(at, byte),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            3 => bytes.truncate(at),
            _ => {
                let end = (at + usize::from(byte)).min(bytes.len());
                let stretch = bytes[at..end].to_vec();
                bytes.splice(at..at, stretch);
            }
        }
    }
    bytes
}

fn edits() -> impl Strategy<Value = Vec<Edit>> {
    prop::collection::vec((any::<u8>(), any::<usize>(), any::<u8>()), 0..4)
}

/// A well-formed request: method, path, `headers` fields of short
/// names and values, and a body framed by `Content-Length`.
fn request() -> impl Strategy<Value = Vec<u8>> {
    const METHODS: &[&str] = &["GET", "POST", "post", "DELETE"];
    const PATHS: &[&str] = &["/execute", "/import?x=1", "/", "/healthz", "/register"];
    const NAMES: &[&str] = &["Host", "Connection", "X-A", "content-type", "a"];
    let field = (0..NAMES.len(), prop::collection::vec(b' '..b'~', 0..12));
    (
        0..METHODS.len(),
        0..PATHS.len(),
        prop::collection::vec(field, 0..8),
        prop::collection::vec(any::<u8>(), 0..64),
    )
        .prop_map(|(m, p, fields, body)| {
            let mut raw = format!("{} {} HTTP/1.1\r\n", METHODS[m], PATHS[p]).into_bytes();
            for (n, value) in fields {
                raw.extend_from_slice(NAMES[n].as_bytes());
                raw.extend_from_slice(b": ");
                raw.extend(value);
                raw.extend_from_slice(b"\r\n");
            }
            raw.extend_from_slice(format!("Content-Length: {}\r\n\r\n", body.len()).as_bytes());
            raw.extend(body);
            raw
        })
}

/// A head of up to ~2 100 one-byte fields — the shape that makes the
/// header table, not the head, the big allocation.
fn many_fields() -> impl Strategy<Value = Vec<u8>> {
    (0..2_100usize).prop_map(|n| {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for _ in 0..n {
            raw.extend_from_slice(b"a:\r\n");
        }
        raw.extend_from_slice(b"\r\n");
        raw
    })
}

/// One line of up to 8 KiB, as a request line or as a header: a run of
/// one byte (a control character, a quote, a space …) and a mixed tail,
/// then the end of the head.
fn long_lines() -> impl Strategy<Value = Vec<u8>> {
    const BYTES: &[u8] = b"\x01\x7f\"\\ :a\xff";
    let tail = prop::collection::vec(0..BYTES.len(), 0..64);
    (any::<bool>(), 0..BYTES.len(), 0..8_200usize, tail).prop_map(|(header, run, n, tail)| {
        let mut raw = if header {
            b"GET / HTTP/1.1\r\n".to_vec()
        } else {
            Vec::new()
        };
        raw.extend(std::iter::repeat_n(BYTES[run], n));
        raw.extend(tail.into_iter().map(|i| BYTES[i]));
        raw.extend_from_slice(b"\r\n\r\n");
        raw
    })
}

/// Reads one request from `raw` through a buffer of `capacity` bytes
/// and checks the three properties.
fn check_request(raw: &[u8], capacity: usize) {
    let mut reader = BufReader::with_capacity(capacity, raw);
    let (outcome, peak) = peak_during(|| read_request(&mut reader, MAX_BODY));
    let cap = MAX_BODY + 4 * MAX_HEAD_BYTES;
    assert!(peak <= cap, "allocated {peak} bytes, cap {cap}");
    match outcome {
        ReadOutcome::Request(req) => assert!(req.body.len() <= MAX_BODY),
        ReadOutcome::Closed => assert!(raw.is_empty()),
        ReadOutcome::IdleTick => panic!("a byte slice never times out"),
        ReadOutcome::Bad { status, message } => {
            assert!([400, 408, 411, 413, 431].contains(&status), "{status}");
            let at = position(&message).unwrap_or_else(|| panic!("no position: {message}"));
            assert!(at <= raw.len(), "{message} past {} bytes", raw.len());
        }
    }
}

/// Parses `text` and checks the three properties.
fn check_json(text: &str) {
    let (parsed, peak) = peak_during(|| Json::parse(text));
    let cap = 64 * text.len() + 1024;
    assert!(
        peak <= cap,
        "allocated {peak} bytes for {} of input",
        text.len()
    );
    match parsed {
        Ok(value) => assert!(Json::parse(&value.render()).is_ok()),
        Err(message) => {
            let at = position(&message).unwrap_or_else(|| panic!("no position: {message}"));
            assert!(at <= text.len(), "{message} past {} bytes", text.len());
        }
    }
}

/// A JSON value of bounded depth.
fn json() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        any::<i64>().prop_map(Json::Int),
        (any::<i32>(), 1..1000i32).prop_map(|(a, b)| Json::Float(f64::from(a) / f64::from(b))),
        prop::collection::vec(any::<u16>(), 0..6)
            .prop_map(|units| { Json::Str(String::from_utf16_lossy(&units)) }),
    ];
    leaf.prop_recursive(4, 32, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(Json::Arr),
            prop::collection::vec((0..4u8, inner), 0..6).prop_map(|members| {
                Json::Obj(
                    members
                        .into_iter()
                        .map(|(k, v)| (format!("k{k}"), v))
                        .collect(),
                )
            }),
        ]
    })
}

/// Text over JSON's own punctuation, so that parses go deep before
/// they fail.
fn json_ish() -> impl Strategy<Value = String> {
    const PIECES: &[&str] = &[
        "[", "]", "{", "}", "\"", ",", ":", "0", "7", "-", "+", ".", "e", "E", "true", "null",
        "fals", " ", "\n", "\\", "\\u", "d83d", "\\ude00", "é", "\u{1}", "1e400",
    ];
    prop::collection::vec(0..PIECES.len(), 0..96)
        .prop_map(|ix| ix.into_iter().map(|i| PIECES[i]).collect())
}

/// Repeated small values: the shapes that allocate most per byte.
fn dense_json() -> impl Strategy<Value = String> {
    const UNITS: &[&str] = &[
        "0",
        "[0]",
        "[[0]]",
        "{\"\":0}",
        "\"a\"",
        "[]",
        "[{\"\":[0]}]",
    ];
    (0..UNITS.len(), 0..600usize, 0..64usize).prop_map(|(u, n, depth)| {
        let items = vec![UNITS[u]; n].join(",");
        format!("{}[{items}]{}", "[".repeat(depth), "]".repeat(depth))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn arbitrary_bytes_are_a_request_or_a_positioned_error(
        raw in prop::collection::vec(any::<u8>(), 0..512),
        capacity in 1..64usize,
    ) {
        check_request(&raw, capacity);
    }

    #[test]
    fn mutated_requests_are_a_request_or_a_positioned_error(
        raw in request(),
        edits in edits(),
        capacity in prop_oneof![1..16usize, Just(8192usize)],
    ) {
        check_request(&mutate(raw, &edits), capacity);
    }

    #[test]
    fn heads_of_many_fields_stay_within_the_caps(raw in many_fields(), edits in edits()) {
        check_request(&mutate(raw, &edits), 8192);
    }

    #[test]
    fn long_lines_stay_within_the_caps(raw in long_lines()) {
        check_request(&raw, 8192);
    }

    #[test]
    fn arbitrary_text_is_json_or_a_positioned_error(
        raw in prop::collection::vec(any::<u8>(), 0..256),
        text in json_ish(),
    ) {
        check_json(&String::from_utf8_lossy(&raw));
        check_json(&text);
    }

    #[test]
    fn mutated_json_is_json_or_a_positioned_error(value in json(), edits in edits()) {
        let bytes = mutate(value.render().into_bytes(), &edits);
        check_json(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn dense_json_stays_within_its_cap(text in dense_json(), edits in edits()) {
        check_json(&text);
        check_json(&String::from_utf8_lossy(&mutate(text.into_bytes(), &edits)));
    }
}
