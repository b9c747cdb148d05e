//! A minimal, self-contained JSON implementation: a value tree ([`Json`]),
//! one deterministic writer — pretty-printed ([`Json::render`]) or on a
//! single line ([`render_compact`]) — and a strict parser with error
//! positions.
//!
//! The build environment has no crates.io access, so `serde_json` is not an
//! option; this module is vendored-quality replacement code covering
//! exactly what the persistent store and the benchmark reports need.  The
//! writer half started life in `atlas-bench` (which now re-exports it from
//! here); the parser half pairs with it:
//!
//! * every document the writer produces parses back to an equal value
//!   (`parse(render(x)) == x`, property-tested in `tests/store_roundtrip.rs`
//!   — non-finite floats, which serialize as `null`, are the one documented
//!   exception);
//! * parse errors carry 1-based line/column positions and a description,
//!   so a hand-edited store file that went wrong is diagnosable;
//! * the parser is strict where the grammar is: lone surrogates, control
//!   characters in strings, duplicate object keys, trailing garbage, and
//!   runaway nesting are all rejected.
//!
//! Object keys keep their insertion order, so documents diff cleanly
//! across runs and re-serialization is byte-stable.

use std::fmt;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (serialized without a decimal point).
    Int(i64),
    /// A float; non-finite values serialize as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, to be filled with [`Json::set`].
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Inserts (or replaces) a key in an object and returns `self` for
    /// chaining.  Panics when called on a non-object.
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(entries) => {
                let value = value.into();
                match entries.iter_mut().find(|(k, _)| k == key) {
                    Some(slot) => slot.1 = value,
                    None => entries.push((key.to_string(), value)),
                }
            }
            other => panic!("Json::set on non-object {other:?}"),
        }
        self
    }

    /// Looks a key up in an object (for tests and report consumers).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an integer, if it is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as a float; integers are widened, so consumers of numeric
    /// report fields need not care which variant the writer chose.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(f) => Some(*f),
            Json::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes the value as pretty-printed JSON (2-space indent).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Parses a JSON document.  Exactly one value is allowed; anything but
    /// whitespace after it is an error.
    ///
    /// # Errors
    /// Returns a [`JsonError`] with the 1-based line/column of the first
    /// offending byte.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        Parser::new(text).parse_document()
    }

    /// Writes the value pretty-printed at `indent` levels, or on a single
    /// line when `indent` is `None` (see [`render_compact`]).  Both forms
    /// share every scalar, escape and number convention.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(f) => {
                if f.is_finite() {
                    // Shortest round-trip form, with a decimal point forced
                    // when Display omits it (whole values) so the reader
                    // always sees a float, never an integer.
                    let start = out.len();
                    let _ = write!(out, "{f}");
                    if !out[start..].contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                let inner = indent.map(|i| i + 1);
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_line(out, inner);
                    item.write(out, inner);
                }
                push_line(out, indent);
                out.push(']');
            }
            Json::Obj(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                let inner = indent.map(|i| i + 1);
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_line(out, inner);
                    write_escaped(out, key);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    value.write(out, inner);
                }
                push_line(out, indent);
                out.push('}');
            }
        }
    }
}

/// Serializes a value as *single-line* JSON: the conventions of
/// [`Json::render`] (so [`Json::parse`] of the output yields an equal
/// value) without newlines or indentation, for line-framed protocols.
pub fn render_compact(json: &Json) -> String {
    let mut out = String::new();
    json.write(&mut out, None);
    out
}

/// Starts a new line at `indent` levels; nothing in compact form.
fn push_line(out: &mut String, indent: Option<usize>) {
    if let Some(indent) = indent {
        out.push('\n');
        for _ in 0..indent {
            out.push_str("  ");
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(v as i64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

/// A parse error: what went wrong, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// 1-based line of the offending byte.
    pub line: usize,
    /// 1-based column (in bytes) of the offending byte.
    pub col: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {}, column {}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for JsonError {}

/// Deepest permitted array/object nesting.  Recursive-descent parsing uses
/// the call stack, so unbounded depth would let a hostile document overflow
/// it; no legitimate store artifact comes anywhere near this.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    line_start: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
            line: 1,
            line_start: 0,
        }
    }

    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            line: self.line,
            col: self.pos - self.line_start + 1,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.line_start = self.pos;
        }
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.bump();
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        match self.peek() {
            Some(found) if found == b => {
                self.bump();
                Ok(())
            }
            Some(found) => Err(self.error(format!(
                "expected '{}', found '{}'",
                b as char, found as char
            ))),
            None => Err(self.error(format!("expected '{}', found end of input", b as char))),
        }
    }

    fn parse_document(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        let value = self.parse_value(0)?;
        self.skip_ws();
        match self.peek() {
            None => Ok(value),
            Some(b) => Err(self.error(format!(
                "trailing content after document (starts with '{}')",
                b as char
            ))),
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        match self.peek() {
            Some(b'{') => self.parse_object(depth),
            Some(b'[') => self.parse_array(depth),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Json::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Json::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(b) => Err(self.error(format!("unexpected character '{}'", b as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        for expected in word.bytes() {
            match self.peek() {
                Some(found) if found == expected => {
                    self.bump();
                }
                _ => return Err(self.error(format!("invalid literal (expected '{word}')"))),
            }
        }
        Ok(value)
    }

    fn parse_object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut entries: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.bump();
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.error("expected a string key"));
            }
            let key = self.parse_string()?;
            if entries.iter().any(|(k, _)| *k == key) {
                return Err(self.error(format!("duplicate key \"{key}\"")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value(depth + 1)?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.bump();
                }
                Some(b'}') => {
                    self.bump();
                    return Ok(Json::Obj(entries));
                }
                Some(b) => {
                    return Err(self.error(format!(
                        "expected ',' or '}}' in object, found '{}'",
                        b as char
                    )))
                }
                None => return Err(self.error("unterminated object")),
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.bump();
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.bump();
                }
                Some(b']') => {
                    self.bump();
                    return Ok(Json::Arr(items));
                }
                Some(b) => {
                    return Err(self.error(format!(
                        "expected ',' or ']' in array, found '{}'",
                        b as char
                    )))
                }
                None => return Err(self.error("unterminated array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.bump();
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.bump();
                    match self.bump() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => out.push(self.parse_unicode_escape()?),
                        Some(b) => {
                            return Err(self.error(format!("invalid escape '\\{}'", b as char)))
                        }
                        None => return Err(self.error("unterminated escape")),
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(self.error(format!(
                        "raw control character 0x{b:02x} in string (must be escaped)"
                    )))
                }
                Some(b) if b < 0x80 => {
                    self.bump();
                    out.push(b as char);
                }
                Some(_) => {
                    // Multi-byte UTF-8: the input is a &str, so the sequence
                    // is valid by construction — copy it through.
                    let start = self.pos;
                    self.bump();
                    while matches!(self.peek(), Some(b) if (b & 0xc0) == 0x80) {
                        self.bump();
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .expect("input is valid UTF-8");
                    out.push_str(s);
                }
            }
        }
    }

    fn parse_unicode_escape(&mut self) -> Result<char, JsonError> {
        let first = self.parse_hex4()?;
        if (0xd800..0xdc00).contains(&first) {
            // High surrogate: a \uXXXX low surrogate must follow.
            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                return Err(self.error("high surrogate not followed by \\u escape"));
            }
            let second = self.parse_hex4()?;
            if !(0xdc00..0xe000).contains(&second) {
                return Err(self.error("high surrogate not followed by a low surrogate"));
            }
            let c = 0x10000 + ((first - 0xd800) << 10) + (second - 0xdc00);
            char::from_u32(c).ok_or_else(|| self.error("invalid surrogate pair"))
        } else if (0xdc00..0xe000).contains(&first) {
            Err(self.error("lone low surrogate"))
        } else {
            char::from_u32(first).ok_or_else(|| self.error("invalid \\u escape"))
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let digit = match self.bump() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.error("expected four hex digits after \\u")),
            };
            value = (value << 4) | digit;
        }
        Ok(value)
    }

    fn parse_number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.bump();
        }
        // Integer part: a single 0, or a nonzero digit followed by digits.
        match self.peek() {
            Some(b'0') => {
                self.bump();
            }
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.bump();
                }
            }
            _ => return Err(self.error("expected a digit")),
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.bump();
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("expected a digit after the decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.bump();
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.bump();
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("expected a digit in the exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.bump();
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        if !is_float {
            // Integers that fit i64 stay integers; anything larger degrades
            // to the nearest float, like every mainstream JSON parser.
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.error(format!("invalid number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_documents_with_escaping() {
        let doc = Json::obj()
            .set("schema", "atlas-batch/1")
            .set("count", 3usize)
            .set("ratio", 0.5)
            .set("whole", 2.0)
            .set("ok", true)
            .set("name", "line\nbreak \"quoted\"")
            .set("items", vec![Json::Int(1), Json::Null, Json::str("x")])
            .set("empty_arr", Vec::<Json>::new())
            .set("nested", Json::obj().set("inner", 7usize));
        let text = doc.render();
        assert!(text.contains("\"schema\": \"atlas-batch/1\""));
        assert!(text.contains("\"count\": 3"));
        assert!(text.contains("\"ratio\": 0.5"));
        assert!(text.contains("\"whole\": 2.0"));
        assert!(text.contains("\"line\\nbreak \\\"quoted\\\""));
        assert!(text.contains("\"empty_arr\": []"));
        assert!(text.contains("\"inner\": 7"));
        assert!(text.ends_with("}\n"));
        // set() replaces, get() finds.
        let doc = doc.set("count", 4usize);
        assert_eq!(doc.get("count"), Some(&Json::Int(4)));
        assert_eq!(doc.get("missing"), None);
        // Non-finite floats degrade to null.
        assert_eq!(Json::Float(f64::NAN).render().trim(), "null");
    }

    #[test]
    fn parses_what_the_writer_writes() {
        let doc = Json::obj()
            .set("schema", "atlas-cache/2")
            .set("count", -42i64)
            .set("big", i64::MIN)
            .set("ratio", 0.25)
            .set("huge", 1.5e300)
            // Whole floats beyond Display's decimal-point range must still
            // come back as floats, not integers.
            .set("big_whole", 1.0e16)
            .set("neg_zero", -0.0)
            .set(
                "text",
                "uni \u{00e9}\u{4e16} ctrl \u{0001} quote \" slash \\",
            )
            .set(
                "flags",
                vec![Json::Bool(true), Json::Bool(false), Json::Null],
            )
            .set("empty_obj", Json::obj())
            .set("empty_arr", Vec::<Json>::new());
        let parsed = Json::parse(&doc.render()).expect("round trip");
        assert_eq!(parsed, doc);
        assert!(
            matches!(parsed.get("big_whole"), Some(Json::Float(_))),
            "whole floats must not degrade to integers: {:?}",
            parsed.get("big_whole")
        );
        assert!(doc.render().contains("\"big_whole\": 10000000000000000.0"));
    }

    #[test]
    fn parses_foreign_documents() {
        let parsed = Json::parse(
            "\r\n {\"a\"\t: [1, 2.5e-3, -0.5],\n \"b\": \"\\u0041\\u00e9\\ud83d\\ude00\\/\\b\\f\", \"c\": {}}",
        )
        .expect("valid document");
        assert_eq!(
            parsed.get("a"),
            Some(&Json::Arr(vec![
                Json::Int(1),
                Json::Float(2.5e-3),
                Json::Float(-0.5)
            ]))
        );
        assert_eq!(
            parsed.get("b").and_then(Json::as_str),
            Some("A\u{00e9}\u{1f600}/\u{0008}\u{000c}")
        );
        // Oversized integers degrade to floats instead of erroring.
        assert_eq!(
            Json::parse("99999999999999999999").unwrap(),
            Json::Float(1e20)
        );
        // Scalar documents are fine too.
        assert_eq!(Json::parse(" null ").unwrap(), Json::Null);
        assert_eq!(Json::parse("\"x\"").unwrap(), Json::str("x"));
    }

    #[test]
    fn rejects_malformed_documents_with_positions() {
        let cases: &[(&str, usize, usize, &str)] = &[
            ("", 1, 1, "unexpected end of input"),
            ("{", 1, 2, "expected a string key"),
            ("{\"a\": 1,}", 1, 9, "expected a string key"),
            ("[1, 2", 1, 6, "unterminated array"),
            ("[1 2]", 1, 4, "expected ','"),
            ("{\"a\": 1 \"b\": 2}", 1, 9, "expected ','"),
            ("nul", 1, 4, "invalid literal"),
            ("01", 1, 2, "trailing content"),
            ("1.", 1, 3, "expected a digit after the decimal point"),
            ("1e", 1, 3, "expected a digit in the exponent"),
            ("-", 1, 2, "expected a digit"),
            ("\"ab", 1, 4, "unterminated string"),
            ("\"\\x\"", 1, 4, "invalid escape"),
            ("\"\\u12\"", 1, 7, "expected four hex digits"),
            ("\"\\udc00\"", 1, 8, "lone low surrogate"),
            ("\"\\ud800x\"", 1, 9, "high surrogate not followed by \\u"),
            (
                "\"\\ud800\\u0041\"",
                1,
                14,
                "not followed by a low surrogate",
            ),
            ("\u{0041}\u{0042}", 1, 1, "unexpected character"),
            ("{\"k\": 1, \"k\": 2}", 1, 13, "duplicate key"),
            ("[1] []", 1, 5, "trailing content"),
            ("\n\n  [1,\n x]", 4, 2, "unexpected character"),
        ];
        for (text, line, col, needle) in cases {
            let err = Json::parse(text).expect_err(text);
            assert!(
                err.message.contains(needle),
                "{text:?}: {err} (wanted {needle:?})"
            );
            assert_eq!((err.line, err.col), (*line, *col), "{text:?}: {err}");
            assert!(err.to_string().contains("line"));
        }
        // Raw control characters must be escaped.
        assert!(Json::parse("\"a\u{0001}b\"")
            .expect_err("control char")
            .message
            .contains("control character"));
    }

    #[test]
    fn nesting_depth_is_bounded() {
        let deep = "[".repeat(500) + &"]".repeat(500);
        let err = Json::parse(&deep).expect_err("too deep");
        assert!(err.message.contains("nesting deeper"), "{err}");
        // ... but legitimate depth parses fine.
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn accessors_extract_typed_values() {
        let doc = Json::obj().set("n", 3usize).set("f", 0.5).set("s", "x");
        assert_eq!(doc.get("n").and_then(Json::as_int), Some(3));
        assert_eq!(doc.get("n").and_then(Json::as_f64), Some(3.0));
        assert_eq!(doc.get("f").and_then(Json::as_f64), Some(0.5));
        assert_eq!(doc.get("f").and_then(Json::as_int), None);
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(Json::Bool(true).as_bool(), Some(true));
        assert_eq!(
            Json::Arr(vec![Json::Null]).as_arr().map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(Json::Null.as_bool(), None);
        assert_eq!(Json::Null.as_arr(), None);
        assert_eq!(Json::Null.as_str(), None);
    }
}
