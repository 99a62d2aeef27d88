//! Hand-rolled JSON writing and a small reader.
//!
//! The build environment is offline, so no serde: [`JsonWriter`] emits
//! one object with correctly escaped strings, and [`parse`] reads a
//! value back — enough for round-trip tests and for consumers that want
//! to recompute the paper's per-instruction averages from a trace.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes `s` per RFC 8259 into `out`. A string with nothing to
/// escape is copied with one push; otherwise the runs between escapes
/// are.
pub fn escape_into(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escaped = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Every byte escaped is ASCII, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        if escaped.is_empty() {
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        } else {
            out.push_str(escaped);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Appends the decimal digits of `v` to `out`.
fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Appends the decimal form of `v` to `out`.
fn push_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    push_u64(out, v.unsigned_abs());
}

/// An incremental writer for one JSON object, nested objects and arrays
/// included, written in place into one buffer.
///
/// ```
/// let mut w = pgvn_telemetry::json::JsonWriter::object();
/// w.field_str("kind", "pass");
/// w.field_u64("n", 3);
/// w.begin_object("inner").field_bool("ok", true).end_object();
/// w.begin_array("xs").item_u64(1).item_null().end_array();
/// assert_eq!(w.finish(), r#"{"kind":"pass","n":3,"inner":{"ok":true},"xs":[1,null]}"#);
/// ```
#[derive(Debug)]
pub struct JsonWriter {
    buf: String,
    needs_comma: bool,
}

impl JsonWriter {
    /// Starts an object.
    pub fn object() -> Self {
        JsonWriter::object_in(String::new())
    }

    /// Starts an object in `buf`, which is cleared first: a caller that
    /// renders many objects can hand the same buffer back each time
    /// (see [`JsonWriter::finish`]) and allocate only when it grows.
    pub fn object_in(mut buf: String) -> Self {
        buf.clear();
        buf.push('{');
        JsonWriter { buf, needs_comma: false }
    }

    fn comma(&mut self) {
        if self.needs_comma {
            self.buf.push(',');
        }
        self.needs_comma = true;
    }

    fn key(&mut self, name: &str) {
        self.comma();
        self.buf.push('"');
        escape_into(name, &mut self.buf);
        self.buf.push_str("\":");
    }

    /// Writes a string field.
    pub fn field_str(&mut self, name: &str, value: &str) -> &mut Self {
        self.key(name);
        self.buf.push('"');
        escape_into(value, &mut self.buf);
        self.buf.push('"');
        self
    }

    /// Writes an unsigned integer field.
    pub fn field_u64(&mut self, name: &str, value: u64) -> &mut Self {
        self.key(name);
        push_u64(&mut self.buf, value);
        self
    }

    /// Writes a signed integer field.
    pub fn field_i64(&mut self, name: &str, value: i64) -> &mut Self {
        self.key(name);
        push_i64(&mut self.buf, value);
        self
    }

    /// Writes a float field (JSON has no NaN/Inf; they become null).
    pub fn field_f64(&mut self, name: &str, value: f64) -> &mut Self {
        self.key(name);
        if value.is_finite() {
            let _ = write!(self.buf, "{value}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Writes a boolean field.
    pub fn field_bool(&mut self, name: &str, value: bool) -> &mut Self {
        self.key(name);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Writes a field whose value is pre-rendered JSON.
    pub fn field_raw(&mut self, name: &str, json: &str) -> &mut Self {
        self.key(name);
        self.buf.push_str(json);
        self
    }

    /// Opens an object-valued field; its fields follow, then
    /// [`JsonWriter::end_object`].
    pub fn begin_object(&mut self, name: &str) -> &mut Self {
        self.key(name);
        self.buf.push('{');
        self.needs_comma = false;
        self
    }

    /// Closes the innermost open object.
    pub fn end_object(&mut self) -> &mut Self {
        self.buf.push('}');
        self.needs_comma = true;
        self
    }

    /// Opens an array-valued field; its items follow, then
    /// [`JsonWriter::end_array`].
    pub fn begin_array(&mut self, name: &str) -> &mut Self {
        self.key(name);
        self.buf.push('[');
        self.needs_comma = false;
        self
    }

    /// Closes the innermost open array.
    pub fn end_array(&mut self) -> &mut Self {
        self.buf.push(']');
        self.needs_comma = true;
        self
    }

    /// Opens an object as the next item of the open array; close it
    /// with [`JsonWriter::end_object`].
    pub fn item_object(&mut self) -> &mut Self {
        self.comma();
        self.buf.push('{');
        self.needs_comma = false;
        self
    }

    /// Opens an array as the next item of the open array; close it with
    /// [`JsonWriter::end_array`].
    pub fn item_array(&mut self) -> &mut Self {
        self.comma();
        self.buf.push('[');
        self.needs_comma = false;
        self
    }

    /// Writes an unsigned integer as the next item of the open array.
    pub fn item_u64(&mut self, value: u64) -> &mut Self {
        self.comma();
        push_u64(&mut self.buf, value);
        self
    }

    /// Writes `null` as the next item of the open array.
    pub fn item_null(&mut self) -> &mut Self {
        self.comma();
        self.buf.push_str("null");
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// A parsed JSON value (reader side; used by tests and consumers).
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number, kept as f64 (integers round-trip exactly to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object.
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The value at `key`, when this is an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// This value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// This value as an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().filter(|n| *n >= 0.0 && n.fract() == 0.0).map(|n| n as u64)
    }

    /// This value as a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// The deepest nesting of arrays and objects [`parse`] accepts. Requests
/// and stats documents nest a few levels; the bound keeps the recursive
/// descent's stack use small whatever a peer sends.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON value from `input`. Nesting deeper than
/// [`MAX_DEPTH`] is an error.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser { text: input, bytes: input.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
                }
                self.depth += 1;
                let v = if open == b'[' { self.array() } else { self.object() };
                self.depth -= 1;
                v
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or("unterminated string")? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek().ok_or("unterminated escape")? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("short \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            // Surrogate pairs are not emitted by the
                            // writer; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                    self.pos += 1;
                }
                _ => {
                    // Copy the run of unescaped characters up to the next
                    // quote or backslash as one slice. Both are ASCII, so
                    // the run ends on a character boundary and the input,
                    // already a `&str`, needs no re-validation.
                    let len = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .ok_or("unterminated string")?;
                    out.push_str(&self.text[self.pos..self.pos + len]);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'-' | b'+' | b'.' | b'e' | b'E') | Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| e.to_string())?
            .parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(out));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut out = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            out.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(out));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_escapes() {
        let mut w = JsonWriter::object();
        w.field_str("k", "a\"b\\c\nd\te\u{1}");
        let s = w.finish();
        assert_eq!(s, "{\"k\":\"a\\\"b\\\\c\\nd\\te\\u0001\"}");
        let v = parse(&s).unwrap();
        assert_eq!(v.get("k").unwrap().as_str().unwrap(), "a\"b\\c\nd\te\u{1}");
    }

    #[test]
    fn integers_match_the_formatter() {
        for v in [0, 1, 9, 10, 99, 100, 4_096, 12_345_678, u64::MAX] {
            let mut s = String::from("x");
            push_u64(&mut s, v);
            assert_eq!(s, format!("x{v}"));
        }
        for v in [0, -1, 7, -120, i64::MIN, i64::MAX] {
            let mut s = String::new();
            push_i64(&mut s, v);
            assert_eq!(s, v.to_string());
        }
    }

    #[test]
    fn escape_keeps_unescaped_runs_and_multibyte_text() {
        let cases = ["", "plain", "héllo ✓ φ", "\u{1f}lead", "trail\n", "a\"b\\c\u{7f}", "\u{0}"];
        for text in cases {
            let mut fast = String::new();
            escape_into(text, &mut fast);
            // The char-at-a-time reference.
            let mut slow = String::new();
            for c in text.chars() {
                match c {
                    '"' => slow.push_str("\\\""),
                    '\\' => slow.push_str("\\\\"),
                    '\n' => slow.push_str("\\n"),
                    '\r' => slow.push_str("\\r"),
                    '\t' => slow.push_str("\\t"),
                    c if (c as u32) < 0x20 => slow.push_str(&format!("\\u{:04x}", c as u32)),
                    c => slow.push(c),
                }
            }
            assert_eq!(fast, slow, "{text:?}");
        }
    }

    #[test]
    fn nested_objects_and_arrays_render_in_place() {
        let mut w = JsonWriter::object_in(String::from("stale"));
        w.field_u64("a", 1).begin_object("o").end_object();
        w.begin_array("rows");
        w.item_array().item_null().item_u64(2).end_array();
        w.item_object().field_str("k", "v").end_object();
        w.end_array().field_bool("z", false);
        let s = w.finish();
        assert_eq!(s, r#"{"a":1,"o":{},"rows":[[null,2],{"k":"v"}],"z":false}"#);
        parse(&s).expect("valid JSON");
    }

    #[test]
    fn writer_types_round_trip() {
        let mut w = JsonWriter::object();
        w.field_u64("u", u64::MAX >> 12)
            .field_i64("i", -42)
            .field_f64("f", 0.25)
            .field_bool("b", true)
            .field_raw("arr", "[1,2,3]");
        let v = parse(&w.finish()).unwrap();
        assert_eq!(v.get("u").unwrap().as_u64(), Some(u64::MAX >> 12));
        assert_eq!(v.get("i").unwrap().as_f64(), Some(-42.0));
        assert_eq!(v.get("f").unwrap().as_f64(), Some(0.25));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(
            v.get("arr").unwrap(),
            &JsonValue::Arr(vec![JsonValue::Num(1.0), JsonValue::Num(2.0), JsonValue::Num(3.0)])
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} extra").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |open: &str, close: &str, depth: usize| {
            format!("{}{}", open.repeat(depth), close.repeat(depth))
        };
        assert!(parse(&nested("[", "]", MAX_DEPTH)).is_ok());
        let err = parse(&nested("[", "]", MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let obj = |depth: usize| format!("{}1{}", "{\"a\":".repeat(depth), "}".repeat(depth));
        assert!(parse(&obj(MAX_DEPTH)).is_ok());
        assert!(parse(&obj(MAX_DEPTH + 1)).is_err());
        // Far past the bound, the parse fails fast instead of
        // overflowing the stack of a small thread.
        let deep = "[".repeat(200_000);
        let handle = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || parse(&deep).is_err())
            .unwrap();
        assert!(handle.join().unwrap());
    }

    #[test]
    fn nested_structures_parse() {
        let v = parse(r#"{"a":[{"b":null},2.5],"c":{"d":false}}"#).unwrap();
        assert_eq!(v.get("a").map(|a| matches!(a, JsonValue::Arr(x) if x.len() == 2)), Some(true));
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_bool(), Some(false));
    }
}
