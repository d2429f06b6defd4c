//! A small, dependency-free JSON value, parser, and writer.
//!
//! The serving layer needs exactly one wire format and the workspace
//! vendors no serde, so this module hand-rolls the subset spannerd
//! speaks: RFC 8259 values with a recursion-depth cap, integer-first
//! number parsing (`i64` when exact, `f64` otherwise), and a writer
//! that escapes control characters. [`Json::Raw`] lets callers splice
//! pre-rendered JSON (e.g. histogram summaries from the trace crate)
//! into a tree without re-parsing it.
//!
//! Every parse error ends with `(at byte N)`. A parse allocates at most
//! 64 bytes per input byte: a 32-byte [`Json`] per two bytes of input,
//! doubled at worst by a vector's growth (`tests/wire_props.rs` checks
//! both on arbitrary, mutated and dense input).

use std::fmt::Write as _;

/// Maximum nesting depth the parser accepts — far beyond any request
/// body spannerd defines, and a bound on stack use for hostile input.
const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number that fits an `i64` exactly.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved by the writer.
    Obj(Vec<(String, Json)>),
    /// Pre-rendered JSON, emitted verbatim by [`Json::render`]. Never
    /// produced by the parser; the caller owns its well-formedness.
    Raw(String),
}

impl Json {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Member of an object, if this is an object with that key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer content, if this is an integral number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean content, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses one JSON document (rejecting trailing content).
    ///
    /// ```
    /// use spannerlib_serve::Json;
    /// let v = Json::parse(r#"{"a": [1, 2.5, "x\n"], "b": null}"#).unwrap();
    /// assert_eq!(v.get("a").unwrap().as_array().unwrap()[0], Json::Int(1));
    /// assert!(Json::parse("{").is_err());
    /// ```
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing content after JSON value"));
        }
        Ok(value)
    }

    /// Renders to compact JSON text.
    ///
    /// ```
    /// use spannerlib_serve::Json;
    /// let v = Json::Obj(vec![("k".into(), Json::Arr(vec![Json::Bool(true)]))]);
    /// assert_eq!(v.render(), r#"{"k":[true]}"#);
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Appends the compact rendering to `out`.
    pub(crate) fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(x) => {
                // JSON has no NaN/Infinity; degrade to null.
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
            Json::Raw(s) => out.push_str(s),
        }
    }
}

/// Writes `s` as a JSON string literal. Runs that need no escaping are
/// copied whole; every byte that does need it is ASCII, so a run always
/// ends on a character boundary.
pub(crate) fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut clean = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let short = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0x20.. => continue,
            _ => None,
        };
        out.push_str(&s[clean..i]);
        match short {
            Some(escape) => out.push_str(escape),
            None => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        clean = i + 1;
    }
    out.push_str(&s[clean..]);
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    /// `text.as_bytes()`.
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} (at byte {})", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value(depth + 1)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    (0xDC00..0xE000)
                                        .contains(&lo)
                                        .then(|| 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00))
                                        .and_then(char::from_u32)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                            continue; // hex4 advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy the whole run up to the next quote, escape
                    // or control character in one slice. All three are
                    // ASCII, so the run ends on a char boundary.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(self.bytes.len() - self.pos);
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    /// The four hex digits of a `\u` escape — exactly four, no sign.
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let mut v = 0;
        for &b in digits {
            let digit = char::from(b).to_digit(16);
            v = v * 16 + digit.ok_or_else(|| self.err("invalid \\u escape"))?;
        }
        self.pos += 4;
        Ok(v)
    }

    /// Skips a run of ASCII digits and returns its length.
    fn digits(&mut self) -> usize {
        let run = self.bytes[self.pos..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
        self.pos += run;
        run
    }

    /// A number as RFC 8259 spells it:
    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') if self.bytes.get(self.pos + 1).is_some_and(u8::is_ascii_digit) => {
                return Err(self.err("leading zero in number"));
            }
            Some(b'0'..=b'9') => {
                self.digits();
            }
            _ => return Err(self.err("invalid number")),
        }
        let int_end = self.pos;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("expected a digit after '.'"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("expected a digit in the exponent"));
            }
        }
        let is_float = self.pos != int_end;
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if !is_float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_structures() {
        for src in [
            "null",
            "true",
            "-42",
            r#""he said \"hi\"""#,
            r#"[1,[2,{"k":3}]]"#,
            r#"{"a":null,"b":[true,false]}"#,
        ] {
            let v = Json::parse(src).unwrap();
            assert_eq!(Json::parse(&v.render()).unwrap(), v, "{src}");
        }
    }

    #[test]
    fn numbers_parse_integer_first() {
        assert_eq!(Json::parse("7").unwrap(), Json::Int(7));
        assert_eq!(Json::parse("7.5").unwrap(), Json::Float(7.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        // Exceeds i64: falls back to float rather than erroring.
        assert!(matches!(
            Json::parse("99999999999999999999").unwrap(),
            Json::Float(_)
        ));
    }

    #[test]
    fn escapes_and_unicode() {
        let v = Json::parse(r#""tab\tnl\nu\u0041 pair\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "tab\tnl\nuA pair😀");
        let rendered = Json::str("ctrl\u{1}\"\\").render();
        assert_eq!(rendered, r#""ctrl\u0001\"\\""#);
        assert_eq!(Json::parse(&rendered).unwrap(), Json::str("ctrl\u{1}\"\\"));
    }

    #[test]
    fn rejects_malformed_input() {
        for src in [
            "",
            "{",
            "[1,]",
            "{\"a\"}",
            "tru",
            "\"unterminated",
            "1 2",
            "\"bad \\q\"",
            "\u{1}",
            // A high surrogate must be followed by a low one.
            r#""\ud83d\u0041""#,
            r#""\ud83d""#,
        ] {
            assert!(Json::parse(src).is_err(), "{src:?} should fail");
        }
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err(), "depth cap");
    }

    /// RFC 8259's number grammar and four-hex-digit escapes, not what
    /// `str::parse` and `u32::from_str_radix` accept: each of these is
    /// an error that names the byte it stopped at.
    #[test]
    fn rejects_what_rfc_8259_does_not_spell() {
        for (src, at) in [
            (r#""\u+041""#, 3),
            (r#""\u-041""#, 3),
            ("01", 0),
            ("-01", 1),
            ("[1.]", 3),
            ("-.5", 1),
            ("1.e5", 2),
            ("1e", 2),
            ("1e+", 3),
            ("+1", 0),
        ] {
            let err = Json::parse(src).expect_err(src);
            assert!(err.ends_with(&format!("(at byte {at})")), "{src}: {err}");
        }
        for (src, value) in [
            ("0", Json::Int(0)),
            ("-0", Json::Int(0)),
            ("10", Json::Int(10)),
            ("0.5", Json::Float(0.5)),
            ("-1.25e-2", Json::Float(-0.0125)),
            ("2E+2", Json::Float(200.0)),
        ] {
            assert_eq!(Json::parse(src).unwrap(), value, "{src}");
        }
    }

    /// String bodies are copied run by run, never re-validated from the
    /// cursor to the end of the input: a megabyte of text must parse in
    /// time linear in its size, not quadratic (which takes many seconds).
    #[test]
    fn a_megabyte_of_strings_parses_in_linear_time() {
        let note = "Patient é tested positive; \\\"quoted\\\" — 😀\\n".repeat(12);
        let rows: Vec<String> = (0..2_000)
            .map(|i| format!(r#"["d{i}","{note}"]"#))
            .collect();
        let body = format!(r#"{{"relation":"Notes","rows":[{}]}}"#, rows.join(","));
        assert!(body.len() > 1_000_000, "{} bytes", body.len());

        let start = std::time::Instant::now();
        let v = Json::parse(&body).unwrap();
        let elapsed = start.elapsed();
        assert!(elapsed.as_millis() < 500, "took {elapsed:?}");

        let parsed_rows = v.get("rows").unwrap().as_array().unwrap();
        assert_eq!(parsed_rows.len(), 2_000);
        let text = parsed_rows[7].as_array().unwrap()[1].as_str().unwrap();
        assert!(text.starts_with("Patient é tested positive; \"quoted\" — 😀\nPatient"));
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn raw_splices_verbatim() {
        let v = Json::Obj(vec![("h".into(), Json::Raw("{\"p50\":1}".into()))]);
        assert_eq!(v.render(), r#"{"h":{"p50":1}}"#);
    }

    #[test]
    fn nonfinite_floats_render_as_null() {
        assert_eq!(Json::Float(f64::NAN).render(), "null");
        assert_eq!(Json::Float(f64::INFINITY).render(), "null");
    }
}
