//! The workspace's one hand-rolled JSON layer.
//!
//! The repo builds fully offline, so there is no serde; every crate that
//! emits machine-readable output (metrics snapshots, lint reports, bench
//! tables, Chrome traces) writes JSON by hand. Before `splice-obs` each of
//! them carried its own private escape routine — this module is the single
//! shared implementation: [`escape`]/[`push_escaped`] plus [`quote`] for
//! writers, a comma-tracking [`JsonWriter`] for structured emitters, and a
//! small recursive-descent [`JsonValue`] parser so tools (the daemon's
//! wire protocol, trace validators, the benchmark) can *read* the
//! documents the workspace writes without external dependencies.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Append `s` to `out` with JSON string escaping (no surrounding quotes).
pub fn push_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// JSON-escape `s` (no surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped(&mut out, s);
    out
}

/// JSON-escape `s` and wrap it in double quotes.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    push_escaped(&mut out, s);
    out.push('"');
    out
}

/// A minimal streaming JSON writer: tracks whether a comma is due at each
/// nesting level so emitters never juggle `if i > 0` themselves. Produces
/// compact output (no whitespace), deterministically in call order.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// One entry per open container: `true` once it has a first element.
    stack: Vec<bool>,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    fn comma(&mut self) {
        if let Some(has) = self.stack.last_mut() {
            if *has {
                self.out.push(',');
            }
            *has = true;
        }
    }

    /// Open an object as the next value.
    pub fn begin_object(&mut self) -> &mut Self {
        self.value_prefix();
        self.out.push('{');
        self.stack.push(false);
        self
    }

    /// Close the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.stack.pop();
        self.out.push('}');
        self
    }

    /// Open an array as the next value.
    pub fn begin_array(&mut self) -> &mut Self {
        self.value_prefix();
        self.out.push('[');
        self.stack.push(false);
        self
    }

    /// Close the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.stack.pop();
        self.out.push(']');
        self
    }

    /// Emit an object key; the next emitted value becomes its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.comma();
        self.out.push('"');
        push_escaped(&mut self.out, k);
        self.out.push_str("\":");
        self
    }

    /// Emit a string value.
    pub fn string(&mut self, v: &str) -> &mut Self {
        self.value_prefix();
        self.out.push('"');
        push_escaped(&mut self.out, v);
        self.out.push('"');
        self
    }

    /// Emit an unsigned integer value.
    pub fn number_u64(&mut self, v: u64) -> &mut Self {
        self.value_prefix();
        let _ = write!(self.out, "{v}");
        self
    }

    /// Emit a float value with `prec` decimal places (deterministic form).
    pub fn number_f64(&mut self, v: f64, prec: usize) -> &mut Self {
        self.value_prefix();
        let _ = write!(self.out, "{v:.prec$}");
        self
    }

    /// Emit a boolean value.
    pub fn boolean(&mut self, v: bool) -> &mut Self {
        self.value_prefix();
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// Emit pre-rendered JSON verbatim as the next value.
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.value_prefix();
        self.out.push_str(json);
        self
    }

    /// `"k":"v"` shorthand.
    pub fn field_str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k).string(v)
    }

    /// `"k":n` shorthand.
    pub fn field_u64(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k).number_u64(v)
    }

    /// Value position after `key()` must not emit a comma; bare values in an
    /// array must. `key()` already marked the level, so only comma when the
    /// last char is not `:`.
    fn value_prefix(&mut self) {
        if self.out.ends_with(':') {
            return;
        }
        self.comma();
    }

    /// Finish and take the rendered document.
    pub fn finish(self) -> String {
        debug_assert!(self.stack.is_empty(), "unclosed JSON container");
        self.out
    }

    /// The document rendered so far.
    pub fn as_str(&self) -> &str {
        &self.out
    }
}

/// A parsed JSON document (numbers are kept as `f64`, which is exact for
/// the integer ranges the workspace's own writers emit).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; key order is normalized (sorted) by the map.
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Parse a complete JSON document. Trailing non-whitespace is an error.
    pub fn parse(src: &str) -> Result<JsonValue, String> {
        let bytes = src.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }

    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Array element lookup.
    pub fn idx(&self, i: usize) -> Option<&JsonValue> {
        match self {
            JsonValue::Arr(v) => v.get(i),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as u64 (rounded), if this is a non-negative number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", c as char, pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut m = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(m));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let val = parse_value(b, pos)?;
                m.insert(key, val);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(m));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut v = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(v));
            }
            loop {
                v.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(v));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'"') => Ok(JsonValue::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", JsonValue::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>().map(JsonValue::Num).map_err(|e| format!("bad number `{text}`: {e}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|e| format!("bad \\u: {e}"))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy one UTF-8 scalar (multi-byte sequences pass through).
                let s = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let c = s.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_controls_and_quotes() {
        assert_eq!(escape("a\"b\\c\nd\te\r"), "a\\\"b\\\\c\\nd\\te\\r");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(quote("x\"y"), "\"x\\\"y\"");
    }

    #[test]
    fn writer_tracks_commas() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("name", "a\"b").field_u64("n", 7);
        w.key("xs").begin_array().number_u64(1).number_u64(2).string("three").end_array();
        w.key("nested").begin_object().field_u64("k", 1).end_object();
        w.key("ratio").number_f64(6.54321, 2);
        w.key("ok").boolean(true);
        w.end_object();
        let s = w.finish();
        assert_eq!(
            s,
            "{\"name\":\"a\\\"b\",\"n\":7,\"xs\":[1,2,\"three\"],\
             \"nested\":{\"k\":1},\"ratio\":6.54,\"ok\":true}"
        );
        // What the writer writes, the parser reads.
        let v = JsonValue::parse(&s).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("a\"b"));
        assert_eq!(v.get("xs").unwrap().idx(1).unwrap().as_u64(), Some(2));
        assert_eq!(v.get("nested").unwrap().get("k").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn parser_roundtrips_basic_documents() {
        let v =
            JsonValue::parse(r#" {"a": [1, -2.5, "x\n", true, false, null], "b": {}} "#).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(-2.5));
        assert_eq!(a[2].as_str(), Some("x\n"));
        assert_eq!(a[3], JsonValue::Bool(true));
        assert_eq!(a[5], JsonValue::Null);
        assert_eq!(v.get("b"), Some(&JsonValue::Obj(BTreeMap::new())));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("{\"a\":1} extra").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
        assert!(JsonValue::parse("tru").is_err());
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = JsonValue::parse("\"\\u0041\\u00e9\"").unwrap();
        assert_eq!(v.as_str(), Some("Aé"));
    }
}
