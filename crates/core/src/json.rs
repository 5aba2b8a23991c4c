//! A minimal, dependency-free JSON value: renderer and parser.
//!
//! The telemetry layer ([`crate::Telemetry`]) needs machine-readable
//! output (`rcfit --log-json`) without pulling external crates — the
//! workspace builds fully offline (PR 1's rule). This module implements
//! just enough of RFC 8259 for that: objects (with *preserved key
//! order*, so emitted documents are deterministic), arrays, strings with
//! escape handling, `f64` numbers, booleans and `null`.
//!
//! Numbers round-trip exactly: rendering uses Rust's shortest-repr
//! `Display` for `f64`, which `str::parse::<f64>` inverts.

use std::fmt::Write as _;

/// A JSON document node.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; key order is preserved so rendering is deterministic.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Convenience constructor for an object.
    pub fn obj(fields: Vec<(String, Value)>) -> Value {
        Value::Obj(fields)
    }

    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Convenience constructor for a number value.
    pub fn num(v: f64) -> Value {
        Value::Num(v)
    }

    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number carried by a `Num`, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string carried by a `Str`, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements of an `Arr`, if this is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(v) => render_number(*v, out),
            Value::Str(s) => render_string(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// [`JsonError`] with a byte offset on malformed input (including
    /// trailing garbage after the document).
    pub fn parse(text: &str) -> Result<Value, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(text, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError {
                offset: pos,
                message: "trailing characters after document".into(),
            });
        }
        Ok(v)
    }
}

/// Error from [`Value::parse`].
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    /// Byte offset of the problem.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

fn render_number(v: f64, out: &mut String) {
    if v.is_finite() {
        // Shortest round-trip representation; integers print without a
        // fraction, which keeps counter fields bit-stable.
        let _ = write!(out, "{v}");
    } else {
        // JSON has no Inf/NaN; encode as null (documented in DESIGN.md).
        out.push_str("null");
    }
}

/// Appends `s` to `out` as a quoted JSON string literal, escaping
/// quotes, backslashes, and control characters per RFC 8259.
///
/// This is the single escaping routine for the whole workspace — the
/// [`Value`] renderer and every hand-rolled JSON emitter (bench bins,
/// telemetry snapshots) route through it, so quoting behaviour cannot
/// drift between them. Non-ASCII text passes through verbatim: JSON is
/// UTF-8, so `é` or `Ω` needs no `\u` escape.
pub fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    // Copy each run of bytes that need no escape with one `push_str`;
    // every byte that does is ASCII, so runs end on char boundaries.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let named = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        out.push_str(&s[run..i]);
        run = i + 1;
        match named {
            Some(escaped) => out.push_str(escaped),
            None => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Returns `s` as a quoted, escaped JSON string literal.
///
/// Convenience wrapper over [`escape_into`] for `format!`-style callers.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(s, &mut out);
    out
}

fn render_string(s: &str, out: &mut String) {
    escape_into(s, out);
}

fn err(offset: usize, message: impl Into<String>) -> JsonError {
    JsonError {
        offset,
        message: message.into(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), JsonError> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, format!("expected `{}`", b as char)))
    }
}

fn parse_value(text: &str, pos: &mut usize) -> Result<Value, JsonError> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(text, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let val = parse_value(text, pos)?;
                fields.push((key, val));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    _ => return Err(err(*pos, "expected `,` or `}` in object")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(err(*pos, "expected `,` or `]` in array")),
                }
            }
        }
        Some(b'"') => Ok(Value::Str(parse_string(text, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    lit: &str,
    value: Value,
) -> Result<Value, JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(err(*pos, format!("expected `{lit}`")))
    }
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, JsonError> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote or backslash in one piece:
        // both are ASCII, so the run ends on a char boundary.
        let run = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .ok_or_else(|| err(bytes.len(), "unterminated string"))?;
        out.push_str(&text[*pos..*pos + run]);
        *pos += run;
        if bytes[*pos] == b'"' {
            *pos += 1;
            return Ok(out);
        }
        *pos += 1;
        match bytes.get(*pos) {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'b') => out.push('\u{8}'),
            Some(b'f') => out.push('\u{c}'),
            Some(b'u') => {
                let hex = bytes
                    .get(*pos + 1..*pos + 5)
                    .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                let code = std::str::from_utf8(hex)
                    .ok()
                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                    .ok_or_else(|| err(*pos, "invalid \\u escape"))?;
                // Surrogates are not recombined; telemetry output
                // never emits them.
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                *pos += 4;
            }
            _ => return Err(err(*pos, "invalid escape")),
        }
        *pos += 1;
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, JsonError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| err(start, "invalid utf-8"))?;
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| err(start, format!("invalid number `{text}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_parses_nested_document() {
        let doc = Value::obj(vec![
            ("name".into(), Value::str("rc \"line\"\n")),
            ("count".into(), Value::num(42.0)),
            ("ratio".into(), Value::num(0.1)),
            (
                "items".into(),
                Value::Arr(vec![Value::Bool(true), Value::Null, Value::num(-3.5e-12)]),
            ),
            ("empty_obj".into(), Value::Obj(vec![])),
            ("empty_arr".into(), Value::Arr(vec![])),
        ]);
        let text = doc.render();
        let back = Value::parse(&text).unwrap();
        assert_eq!(doc, back);
    }

    #[test]
    fn numbers_roundtrip_exactly() {
        for v in [
            0.0,
            1.0,
            -1.0,
            1e-300,
            123456789.0,
            0.1 + 0.2,
            f64::MIN_POSITIVE,
            f64::MAX,
        ] {
            let text = Value::num(v).render();
            let back = Value::parse(&text).unwrap();
            assert_eq!(back.as_f64().unwrap(), v, "text = {text}");
        }
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Value::num(17.0).render(), "17");
        assert_eq!(Value::num(0.0).render(), "0");
    }

    #[test]
    fn object_key_order_is_preserved() {
        let doc = Value::obj(vec![
            ("z".into(), Value::num(1.0)),
            ("a".into(), Value::num(2.0)),
        ]);
        assert_eq!(doc.render(), "{\"z\":1,\"a\":2}");
    }

    #[test]
    fn get_and_accessors() {
        let doc = Value::parse("{\"a\": [1, 2], \"b\": \"x\"}").unwrap();
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(doc.get("b").unwrap().as_str().unwrap(), "x");
        assert!(doc.get("c").is_none());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1.2.3", "{} trailing"] {
            assert!(Value::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn parses_escapes_and_whitespace() {
        let doc = Value::parse(" { \"k\\u0041\" : \"a\\nb\\\"c\" } ").unwrap();
        assert_eq!(doc.get("kA").unwrap().as_str().unwrap(), "a\nb\"c");
        // Escapes right next to multi-byte characters, at both ends of the
        // copied runs.
        for (text, want) in [
            (r#""é\n漢\"Ωé𝄞\\""#, "é\n漢\"Ωé𝄞\\"),
            (r#""\tñ""#, "\tñ"),
            (r#""日本\/""#, "日本/"),
            (r#""€""#, "€"),
            (r#""""#, ""),
        ] {
            assert_eq!(Value::parse(text).unwrap().as_str(), Some(want), "{text}");
        }
        // Errors keep their byte offsets around multi-byte characters.
        let e = Value::parse(r#""é\n漢"#).unwrap_err();
        assert_eq!((e.offset, e.message.as_str()), (8, "unterminated string"));
        let e = Value::parse(r#""a\é""#).unwrap_err();
        assert_eq!((e.offset, e.message.as_str()), (3, "invalid escape"));
        let e = Value::parse(r#""\u00é""#).unwrap_err();
        assert_eq!((e.offset, e.message.as_str()), (2, "invalid \\u escape"));
    }

    #[test]
    fn escape_handles_control_chars_and_non_ascii() {
        // Named escapes for the common control characters.
        assert_eq!(escape("a\"b"), "\"a\\\"b\"");
        assert_eq!(escape("back\\slash"), "\"back\\\\slash\"");
        assert_eq!(escape("line1\nline2\r\ttab"), "\"line1\\nline2\\r\\ttab\"");
        // Other control characters get \u00xx form.
        assert_eq!(escape("\u{0}\u{1f}"), "\"\\u0000\\u001f\"");
        // Non-ASCII passes through verbatim (JSON is UTF-8).
        assert_eq!(escape("nœud-Ω-日本"), "\"nœud-Ω-日本\"");
        // Escapes right next to multi-byte characters.
        assert_eq!(escape("é\"漢\n𝄞\u{1}Ω\\"), r#""é\"漢\n𝄞\u0001Ω\\""#);
        // Round-trip through the parser.
        for original in ["mixed \"x\"\\\n\u{7}é漢", "\"é\"", "ñ\t", "\u{1f}日"] {
            let back = Value::parse(&escape(original)).unwrap();
            assert_eq!(back.as_str().unwrap(), original);
        }
        // escape_into appends without clobbering existing content.
        let mut out = String::from("prefix:");
        escape_into("v", &mut out);
        assert_eq!(out, "prefix:\"v\"");
    }

    #[test]
    fn nonfinite_numbers_render_as_null() {
        assert_eq!(Value::num(f64::NAN).render(), "null");
        assert_eq!(Value::num(f64::INFINITY).render(), "null");
    }
}
