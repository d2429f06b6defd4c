//! A vendored HTTP/1.1 subset: request parsing and response writing
//! over any `BufRead`/`Write` pair.
//!
//! Scope is exactly what spannerd's JSON API needs — no TLS, no
//! multipart, no trailers. Bodies require `Content-Length`; chunked
//! transfer coding is rejected with 411 (`Length Required`), matching
//! the admission-control stance that a request's cost must be knowable
//! before it is read. Connections are keep-alive by default (HTTP/1.1
//! semantics); [`Request::wants_close`] reports the client's choice.
//!
//! Reading a request allocates at most its body cap plus a small
//! multiple of [`MAX_HEAD_BYTES`]: a head holds at most 100 fields, and
//! an error quotes at most 64 characters of the line it refuses. Every
//! refusal ends with `(at byte N)`, the offset into the request of the
//! line, or the byte, at which reading stopped
//! (`tests/wire_props.rs` holds both to arbitrary and mutated input).

use std::io::{self, BufRead, Read, Write};
use std::ops::Deref;
use std::sync::Arc;

/// Total bytes allowed for the request line plus all headers.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Most header fields a request may carry. Without it an 8 KiB head of
/// one-byte fields built a table of over 100 KiB.
const MAX_HEADERS: usize = 100;

/// Most characters of a request line or header an error quotes.
const QUOTED_CHARS: usize = 64;

/// How many consecutive socket-timeout ticks a *partially received*
/// request may survive before the connection is dropped. With spannerd's
/// 250 ms read timeout this bounds a stalled client to ~10 s, which also
/// bounds how long a draining server waits on it.
const MAX_STALL_TICKS: usize = 40;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method, e.g. `POST`.
    pub method: String,
    /// Path component of the request target (query string stripped).
    pub path: String,
    /// Header name/value pairs in arrival order; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked for the connection to close after this
    /// exchange.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// The body as UTF-8 text.
    pub fn body_str(&self) -> Result<&str, std::str::Utf8Error> {
        std::str::from_utf8(&self.body)
    }
}

/// Outcome of one [`read_request`] attempt on a keep-alive connection.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request.
    Request(Request),
    /// The peer closed (or broke) the connection between requests.
    Closed,
    /// The socket read timed out with no bytes of a next request seen —
    /// an idle keep-alive tick; the caller decides whether to keep
    /// waiting (still accepting) or to close (draining).
    IdleTick,
    /// A malformed or over-limit request. The connection must be closed
    /// after writing the error response (framing may be corrupt).
    Bad {
        /// Suggested HTTP status (400 / 408 / 411 / 413 / 431).
        status: u16,
        /// Human-readable reason, for the JSON error body. It ends with
        /// `(at byte N)`: the offset into the request of the line, or
        /// the byte, at which reading stopped.
        message: String,
    },
}

fn bad(status: u16, at: usize, message: impl std::fmt::Display) -> ReadOutcome {
    ReadOutcome::Bad {
        status,
        message: format!("{message} (at byte {at})"),
    }
}

/// `text` for an error message: debug-quoted, cut to its first
/// `QUOTED_CHARS` characters.
fn quoted(text: &str) -> String {
    let cut = text
        .char_indices()
        .nth(QUOTED_CHARS)
        .map_or(text, |(i, _)| &text[..i]);
    let more = if cut.len() < text.len() { "…" } else { "" };
    format!("{cut:?}{more}")
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads one request. `max_body` bounds `Content-Length` (413 beyond).
///
/// Timeout semantics (sockets with a read timeout): before any byte of
/// the request arrives a timeout yields [`ReadOutcome::IdleTick`]; once
/// partially received, the parser keeps waiting for up to
/// `MAX_STALL_TICKS` timeouts, then fails with 408.
pub fn read_request<R: BufRead>(reader: &mut R, max_body: usize) -> ReadOutcome {
    // Accumulate the head (request line + headers) up to CRLFCRLF.
    let mut head: Vec<u8> = Vec::new();
    let mut stalls = 0usize;
    let head_end = loop {
        if let Some(pos) = find_head_end(&head) {
            break pos;
        }
        if head.len() >= MAX_HEAD_BYTES {
            return bad(431, head.len(), "request head exceeds 8 KiB");
        }
        let chunk = match reader.fill_buf() {
            Ok([]) => {
                return if head.is_empty() {
                    ReadOutcome::Closed
                } else {
                    bad(400, head.len(), "connection closed mid-request")
                };
            }
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(&e) => {
                if head.is_empty() {
                    return ReadOutcome::IdleTick;
                }
                stalls += 1;
                if stalls > MAX_STALL_TICKS {
                    return bad(408, head.len(), "timed out reading request head");
                }
                continue;
            }
            Err(_) => return ReadOutcome::Closed,
        };
        stalls = 0;
        // Consume only up to the head terminator; anything after it is
        // body bytes that stay buffered for the read below.
        let take = chunk.len().min(MAX_HEAD_BYTES + 4 - head.len());
        head.extend_from_slice(&chunk[..take]);
        let consumed = match find_head_end(&head) {
            Some(pos) => take - (head.len() - (pos + 4)),
            None => take,
        };
        reader.consume(consumed);
    };

    let head_text = match std::str::from_utf8(&head[..head_end]) {
        Ok(t) => t,
        Err(e) => return bad(400, e.valid_up_to(), "request head is not UTF-8"),
    };
    let mut lines = head_text.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return bad(
            400,
            0,
            format!("malformed request line {}", quoted(request_line)),
        );
    };
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return bad(
            400,
            0,
            format!("malformed request line {}", quoted(request_line)),
        );
    }
    let path = target.split('?').next().unwrap_or(target).to_string();

    // Each header with the offset of its line in the head.
    let mut headers = Vec::new();
    let mut offsets = Vec::new();
    let mut at = request_line.len() + 2;
    for line in lines {
        let line_at = at;
        at += line.len() + 2;
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return bad(
                400,
                line_at,
                format!("malformed header line {}", quoted(line)),
            );
        };
        if headers.len() == MAX_HEADERS {
            return bad(
                431,
                line_at,
                format!("more than {MAX_HEADERS} header fields"),
            );
        }
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        offsets.push(line_at);
    }
    let fields = || {
        headers
            .iter()
            .zip(&offsets)
            .map(|((k, v), &at)| (k, v.as_str(), at))
    };

    if let Some((_, value, at)) = fields().find(|(k, _, _)| *k == "transfer-encoding") {
        if !value.eq_ignore_ascii_case("identity") {
            return bad(
                411,
                at,
                "chunked bodies are not accepted; send Content-Length",
            );
        }
    }
    // The body is framed by *the* Content-Length: two that disagree
    // would let the surplus bytes pass for the next request.
    let mut lengths = fields().filter(|(k, _, _)| *k == "content-length");
    let (content_length, length_at) = match lengths.next() {
        None => (0, 0),
        Some((_, v, at)) => {
            if let Some((_, _, other_at)) = lengths.find(|(_, other, _)| *other != v) {
                return bad(400, other_at, "conflicting Content-Length headers");
            }
            // 1*DIGIT: `usize::from_str` by itself takes a sign.
            match v.parse::<usize>() {
                Ok(n) if v.bytes().all(|b| b.is_ascii_digit()) => (n, at),
                _ => return bad(400, at, format!("invalid Content-Length {}", quoted(v))),
            }
        }
    };
    if content_length > max_body {
        return bad(
            413,
            length_at,
            format!("body of {content_length} bytes exceeds the {max_body}-byte limit"),
        );
    }
    let mut body = vec![0u8; content_length];
    if let Err(outcome) = read_exact_patient(reader, &mut body, head_end + 4) {
        return outcome;
    }
    ReadOutcome::Request(Request {
        method: method.to_ascii_uppercase(),
        path,
        headers,
        body,
    })
}

/// Locates the end of the head: byte offset of `\r\n\r\n`, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// `read_exact` that rides out socket read timeouts (bounded, as in the
/// head loop) and maps failures to protocol outcomes; `offset` is where
/// `buf` starts in the request.
fn read_exact_patient<R: Read>(
    reader: &mut R,
    buf: &mut [u8],
    offset: usize,
) -> Result<(), ReadOutcome> {
    let mut filled = 0usize;
    let mut stalls = 0usize;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => return Err(bad(400, offset + filled, "connection closed mid-body")),
            Ok(n) => {
                filled += n;
                stalls = 0;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(&e) => {
                stalls += 1;
                if stalls > MAX_STALL_TICKS {
                    return Err(bad(408, offset + filled, "timed out reading request body"));
                }
            }
            Err(_) => return Err(ReadOutcome::Closed),
        }
    }
    Ok(())
}

/// Reason phrase for the status codes spannerd emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        304 => "Not Modified",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// A response body: bytes of its own, or bytes a cache also holds —
/// sent from where they are, not copied per response.
#[derive(Debug, Clone)]
pub enum Body {
    /// Rendered for this response.
    Owned(Vec<u8>),
    /// Rendered once, shared by every response that carries it.
    Shared(Arc<[u8]>),
}

impl Deref for Body {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            Body::Owned(bytes) => bytes,
            Body::Shared(bytes) => bytes,
        }
    }
}

/// A response under construction.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers (`Content-Type`, `ETag`, …).
    pub headers: Vec<(String, String)>,
    /// The body.
    pub body: Body,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response::json_body(status, Body::Owned(body.into_bytes()))
    }

    /// A JSON response over an already rendered body.
    pub fn json_body(status: u16, body: Body) -> Response {
        Response {
            status,
            headers: vec![("Content-Type".into(), "application/json".into())],
            body,
        }
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: String) -> Response {
        self.headers.push((name.into(), value));
        self
    }
}

/// Serializes `resp`; `close` controls the `Connection` header (the
/// caller closes the stream afterwards when it is `true`).
pub fn write_response<W: Write>(w: &mut W, resp: &Response, close: bool) -> io::Result<()> {
    let mut head = format!("HTTP/1.1 {} {}\r\n", resp.status, reason(resp.status));
    for (name, value) in &resp.headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str(&format!("Content-Length: {}\r\n", resp.body.len()));
    head.push_str(if close {
        "Connection: close\r\n\r\n"
    } else {
        "Connection: keep-alive\r\n\r\n"
    });
    w.write_all(head.as_bytes())?;
    w.write_all(&resp.body)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &[u8]) -> ReadOutcome {
        read_request(&mut BufReader::new(raw), 1024)
    }

    #[test]
    fn parses_a_post_with_body_and_keeps_the_rest_buffered() {
        let raw = b"POST /execute?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nbodyGET /healthz HTTP/1.1\r\n\r\n";
        let mut reader = BufReader::new(&raw[..]);
        let ReadOutcome::Request(req) = read_request(&mut reader, 1024) else {
            panic!("first request must parse");
        };
        assert_eq!(
            (req.method.as_str(), req.path.as_str()),
            ("POST", "/execute")
        );
        assert_eq!(req.header("host"), Some("h"));
        assert_eq!(req.body, b"body");
        assert!(!req.wants_close());
        // The pipelined second request is still readable.
        let ReadOutcome::Request(req2) = read_request(&mut reader, 1024) else {
            panic!("second request must parse");
        };
        assert_eq!(req2.path, "/healthz");
        assert!(req2.body.is_empty());
        assert!(matches!(
            read_request(&mut reader, 1024),
            ReadOutcome::Closed
        ));
    }

    #[test]
    fn rejects_chunked_with_411() {
        let out = parse(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
        assert!(
            matches!(out, ReadOutcome::Bad { status: 411, .. }),
            "{out:?}"
        );
    }

    #[test]
    fn rejects_oversized_bodies_with_413() {
        let out = parse(b"POST /x HTTP/1.1\r\nContent-Length: 9999\r\n\r\n");
        assert!(
            matches!(out, ReadOutcome::Bad { status: 413, .. }),
            "{out:?}"
        );
    }

    #[test]
    fn rejects_oversized_heads_with_431() {
        let mut raw = b"GET /x HTTP/1.1\r\n".to_vec();
        raw.extend(vec![b'a'; 10_000]);
        assert!(matches!(parse(&raw), ReadOutcome::Bad { status: 431, .. }));
    }

    #[test]
    fn rejects_malformed_lines_with_400() {
        for raw in [
            &b"GARBAGE\r\n\r\n"[..],
            b"GET /x SPDY/9\r\n\r\n",
            b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
        ] {
            let out = parse(raw);
            assert!(
                matches!(out, ReadOutcome::Bad { status: 400, .. }),
                "{out:?}"
            );
        }
    }

    #[test]
    fn content_length_must_be_one_unsigned_number() {
        let post = |lengths: &[&str]| {
            let headers = lengths.iter().map(|v| format!("Content-Length:{v}\r\n"));
            let head = format!("POST /x HTTP/1.1\r\n{}\r\n", headers.collect::<String>());
            let raw = format!("{head}helloGET /smuggled HTTP/1.1\r\n\r\n");
            read_request(&mut BufReader::new(raw.as_bytes()), 1024)
        };
        for accepted in [&["5"][..], &["5", "5"], &[" 5 "]] {
            let out = post(accepted);
            assert!(
                matches!(&out, ReadOutcome::Request(req) if req.body == b"hello"),
                "{accepted:?}: {out:?}"
            );
        }
        for rejected in [&["5", "50"][..], &["50", "5"], &["+5"], &["5, 5"], &[""]] {
            let out = post(rejected);
            assert!(
                matches!(out, ReadOutcome::Bad { status: 400, .. }),
                "{rejected:?}: {out:?}"
            );
        }
    }

    /// Each field costs a table entry of two `String`s, so 2 000 one-byte
    /// fields in an 8 KiB head built a ~100 KiB table; past
    /// `MAX_HEADERS` the head is refused.
    #[test]
    fn a_head_of_too_many_fields_is_refused_with_431() {
        let head = |fields: usize| {
            let raw = format!("GET / HTTP/1.1\r\n{}\r\n", "a:\r\n".repeat(fields));
            parse(raw.as_bytes())
        };
        assert!(matches!(head(MAX_HEADERS), ReadOutcome::Request(_)));
        let at = "GET / HTTP/1.1\r\n".len() + 4 * MAX_HEADERS;
        let ReadOutcome::Bad { status, message } = head(MAX_HEADERS + 1) else {
            panic!("too many fields must fail");
        };
        assert_eq!(status, 431);
        assert!(message.ends_with(&format!("(at byte {at})")), "{message}");
    }

    /// An error used to quote the whole offending line, debug-escaped:
    /// an 8 KiB line of control bytes made a ~50 KiB message.
    #[test]
    fn errors_quote_a_short_prefix_of_a_long_line() {
        let mut raw = vec![1u8; MAX_HEAD_BYTES - 8];
        raw.extend_from_slice(b"\r\n\r\n");
        let ReadOutcome::Bad { status, message } = parse(&raw) else {
            panic!("a line of control bytes is malformed");
        };
        assert_eq!(status, 400);
        assert!(message.len() < 8 * QUOTED_CHARS, "{} bytes", message.len());
        assert!(message.contains('…'), "{message}");
    }

    /// Every refusal ends with the offset into the request of the line,
    /// or the byte, at which reading stopped.
    #[test]
    fn errors_name_the_byte_they_stopped_at() {
        for (raw, at) in [
            (&b"GARBAGE\r\n\r\n"[..], 0),
            (b"GET /x HTTP/1.1\r\nok: 1\r\nno-colon\r\n\r\n", 24),
            (
                b"GET /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n",
                36,
            ),
            (b"POST /x HTTP/1.1\r\nContent-Length: 9999\r\n\r\n", 18),
            (
                b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                18,
            ),
            (b"GET /x HTTP/1.1\r\n\xff: 1\r\n\r\n", 17),
            (b"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nab", 41),
            (b"GET /x HTTP/1.1\r\nHost", 21),
        ] {
            let ReadOutcome::Bad { message, .. } = parse(raw) else {
                panic!("{raw:?} must fail");
            };
            assert!(
                message.ends_with(&format!("(at byte {at})")),
                "{raw:?}: {message}"
            );
        }
    }

    #[test]
    fn connection_close_is_honored() {
        let raw = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
        let ReadOutcome::Request(req) = parse(raw) else {
            panic!("must parse");
        };
        assert!(req.wants_close());
    }

    #[test]
    fn responses_carry_length_and_connection_headers() {
        let mut out = Vec::new();
        let resp = Response::json(429, "{\"error\":1}".into()).with_header("ETag", "\"v1\"".into());
        write_response(&mut out, &resp, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{text}"
        );
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("ETag: \"v1\"\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: close\r\n\r\n{\"error\":1}"));
    }
}
