//! A minimal JSON parser — the read half of [`crate::json`].
//!
//! The workspace is dependency-free by policy (DESIGN.md §6), so the
//! benchmark pipeline's machine-readable reports (`BENCH_thinlock.json`)
//! are read back by this small recursive-descent parser instead of a
//! serialization crate. It accepts exactly the JSON the
//! [`JsonWriter`](crate::json::JsonWriter) emits (plus insignificant
//! whitespace), which is all the repo ever needs to parse.
//!
//! Numbers round-trip exactly: Rust's `f64` `Display` prints the shortest
//! representation that parses back to the same bits, and `str::parse`
//! is correctly rounded, so `write → parse → write` is the identity on
//! every document the writer can produce.

use std::fmt;

/// A parsed JSON document.
///
/// Object member order is preserved (members are a `Vec`, not a map):
/// the repo's documents are written with a fixed field order and
/// compared structurally in tests.
///
/// # Example
///
/// ```
/// use thinlock_obs::parse::{parse, JsonValue};
///
/// let doc = parse(r#"{"id":"fig4/Sync","value":32.9,"tags":[1,2]}"#)?;
/// assert_eq!(doc.get("id").and_then(JsonValue::as_str), Some("fig4/Sync"));
/// assert_eq!(doc.get("value").and_then(JsonValue::as_f64), Some(32.9));
/// assert_eq!(doc.get("tags").and_then(JsonValue::as_array).map(|a| a.len()), Some(2));
/// # Ok::<(), thinlock_obs::parse::JsonParseError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (the writer only emits finite values).
    Number(f64),
    /// A string, with escapes decoded.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member of an object by key (first match), `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(members) => Some(members),
            _ => None,
        }
    }

    /// True if this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }
}

/// Why a document failed to parse, with a byte offset for context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// What the parser expected or found.
    pub message: String,
    /// Byte offset into the input where the error was detected.
    pub offset: usize,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonParseError {}

/// Parses a complete JSON document; trailing content is an error.
///
/// # Errors
///
/// [`JsonParseError`] naming the byte offset of the first problem.
pub fn parse(input: &str) -> Result<JsonValue, JsonParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing content after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> JsonParseError {
        JsonParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            // The writer only emits \u for control chars
                            // (never surrogate pairs), so a lone surrogate
                            // is a malformed document.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.error("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.error("raw control char in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| JsonParseError {
                message: format!("invalid number `{text}`"),
                offset: start,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonWriter;

    #[test]
    fn parses_writer_output_exactly() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("name", "fig4/Sync \"quoted\"\n");
        w.field_u64("n", 18);
        w.field_f64("value", 32.9);
        w.field_f64("nan", f64::NAN); // writer emits null
        w.field_bool("ok", true);
        w.begin_named_array("xs");
        w.elem_u64(1);
        w.elem_str("two");
        w.end_array();
        w.end_object();
        let text = w.finish();
        let doc = parse(&text).unwrap();
        assert_eq!(
            doc.get("name").and_then(JsonValue::as_str),
            Some("fig4/Sync \"quoted\"\n")
        );
        assert_eq!(doc.get("n").and_then(JsonValue::as_u64), Some(18));
        assert_eq!(doc.get("value").and_then(JsonValue::as_f64), Some(32.9));
        assert!(doc.get("nan").unwrap().is_null());
        assert_eq!(doc.get("ok").and_then(JsonValue::as_bool), Some(true));
        let xs = doc.get("xs").and_then(JsonValue::as_array).unwrap();
        assert_eq!(xs[0].as_u64(), Some(1));
        assert_eq!(xs[1].as_str(), Some("two"));
    }

    #[test]
    fn float_round_trip_is_exact() {
        for &v in &[
            32.9f64,
            0.1 + 0.2,
            1.0 / 3.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            -0.0,
            1e-308,
        ] {
            let text = format!("{v}");
            let parsed = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(parsed.to_bits(), v.to_bits(), "{v}");
        }
    }

    #[test]
    fn whitespace_and_nesting() {
        let doc = parse(" { \"a\" : [ 1 , { \"b\" : null } ] , \"c\" : -2.5e1 } ").unwrap();
        let a = doc.get("a").and_then(JsonValue::as_array).unwrap();
        assert_eq!(a.len(), 2);
        assert!(a[1].get("b").unwrap().is_null());
        assert_eq!(doc.get("c").and_then(JsonValue::as_f64), Some(-25.0));
    }

    #[test]
    fn unicode_escapes_decode() {
        let doc = parse("\"a\\u0001b\\u00e9\"").unwrap();
        assert_eq!(doc.as_str(), Some("a\u{1}b\u{e9}"));
    }

    #[test]
    fn errors_carry_offsets() {
        let err = parse("{\"a\": }").unwrap_err();
        assert_eq!(err.offset, 6);
        assert!(parse("").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} extra").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("01a").is_err());
        assert!(err.to_string().contains("byte 6"));
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("{}").unwrap(), JsonValue::Object(vec![]));
        assert_eq!(parse("[]").unwrap(), JsonValue::Array(vec![]));
    }

    #[test]
    fn object_get_preserves_order_and_misses() {
        let doc = parse(r#"{"x":1,"y":2}"#).unwrap();
        assert!(doc.get("z").is_none());
        let members = doc.as_object().unwrap();
        assert_eq!(members[0].0, "x");
        assert_eq!(members[1].0, "y");
        assert!(JsonValue::Null.get("x").is_none());
    }
}
