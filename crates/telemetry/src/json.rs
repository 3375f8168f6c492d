//! Hand-rolled JSON writing and parsing.
//!
//! The build environment is offline, so nothing here leans on `serde`.
//! The writer covers flat telemetry events and records: a few dozen
//! lines of escaping. The parser reads every serve request body
//! (`/decide`, `/tick`), every audit-chain line the auditor and
//! `AuditChain::recover` check, and every certificate, report and
//! manifest, so untrusted input reaches it. Its contract:
//!
//! - **Linear in input length.** Each byte is looked at a bounded number
//!   of times; string contents are copied run by run, up to the next
//!   `"` or `\`, never re-validated from the current position onward.
//! - **Bounded depth.** Arrays and objects nest at most 128 levels, so
//!   a hostile `[[[[…` body is a typed error instead of a stack overflow
//!   on a server worker's thread.
//! - **Typed errors.** Every malformed document is a [`JsonError`]
//!   naming what went wrong and its byte offset; nothing panics.

use std::fmt::Write as _;

/// Appends `s` to `out` as a JSON string literal (with quotes).
///
/// Escapes `"` and `\`, the common control shorthands (`\n`, `\r`,
/// `\t`), and every remaining control character below `U+0020` as
/// `\u00XX`. All other characters (including non-ASCII) pass through
/// verbatim — JSON strings are UTF-8.
pub fn escape_into(out: &mut String, s: &str) {
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

/// Returns `s` as a quoted, escaped JSON string literal.
pub fn escaped(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// Incremental writer for a single flat JSON object.
///
/// # Example
///
/// ```
/// use hvac_telemetry::json::ObjectWriter;
///
/// let mut o = ObjectWriter::new();
/// o.str_field("event", "span_open");
/// o.u64_field("depth", 1);
/// assert_eq!(o.finish(), r#"{"event":"span_open","depth":1}"#);
/// ```
#[derive(Debug, Default)]
pub struct ObjectWriter {
    buf: String,
    any: bool,
}

impl ObjectWriter {
    /// Starts an empty object.
    pub fn new() -> Self {
        Self {
            buf: String::from("{"),
            any: false,
        }
    }

    fn key(&mut self, name: &str) {
        if self.any {
            self.buf.push(',');
        }
        self.any = true;
        escape_into(&mut self.buf, name);
        self.buf.push(':');
    }

    /// Adds a string field.
    pub fn str_field(&mut self, name: &str, value: &str) {
        self.key(name);
        escape_into(&mut self.buf, value);
    }

    /// Adds an unsigned integer field.
    pub fn u64_field(&mut self, name: &str, value: u64) {
        self.key(name);
        let _ = write!(self.buf, "{value}");
    }

    /// Adds a float field. Non-finite values are emitted as `null`
    /// (JSON has no NaN/Inf).
    pub fn f64_field(&mut self, name: &str, value: f64) {
        self.key(name);
        if value.is_finite() {
            // {:?} prints with round-trip precision.
            let _ = write!(self.buf, "{value:?}");
        } else {
            self.buf.push_str("null");
        }
    }

    /// Adds a boolean field.
    pub fn bool_field(&mut self, name: &str, value: bool) {
        self.key(name);
        self.buf.push_str(if value { "true" } else { "false" });
    }

    /// Adds an array of floats. Values round-trip bitwise through
    /// [`parse`] (written with `{:?}` precision); non-finite entries
    /// become `null`.
    pub fn f64_array_field(&mut self, name: &str, values: &[f64]) {
        self.key(name);
        self.buf.push('[');
        for (i, value) in values.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            if value.is_finite() {
                let _ = write!(self.buf, "{value:?}");
            } else {
                self.buf.push_str("null");
            }
        }
        self.buf.push(']');
    }

    /// Adds an array of strings.
    pub fn str_array_field(&mut self, name: &str, values: &[String]) {
        self.key(name);
        self.buf.push('[');
        for (i, value) in values.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            escape_into(&mut self.buf, value);
        }
        self.buf.push(']');
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// A JSON parse error with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: &'static str,
    /// Byte offset of the error.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document (trailing whitespace allowed).
///
/// # Errors
///
/// Returns a [`JsonError`] locating the first malformed byte.
///
/// # Example
///
/// ```
/// use hvac_telemetry::json::parse;
///
/// let v = parse(r#"{"event":"counter","delta":3}"#).unwrap();
/// assert_eq!(v.get("delta").and_then(|d| d.as_u64()), Some(3));
/// ```
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(value)
}

/// Deepest array/object nesting [`parse`] accepts. The deepest document
/// the workspace writes nests a few levels; the limit keeps the
/// recursive descent far inside a 2 MiB thread stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            message,
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

    fn eat(&mut self, b: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Parses one array or object with `parse_container`, one level deeper.
    fn nested(
        &mut self,
        parse_container: fn(&mut Self) -> Result<JsonValue, JsonError>,
    ) -> Result<JsonValue, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let value = parse_container(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':'")?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.eat(b'[', "expected '['")?;
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            // Copy everything up to the next `"` or `\` as one slice.
            // Both are ASCII, so they always sit on a char boundary of
            // the `&str` input, and the slice needs no UTF-8 check.
            let Some(run) = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                self.pos = self.bytes.len();
                return Err(self.err("unterminated string"));
            };
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            if self.bytes[self.pos] == b'"' {
                self.pos += 1;
                return Ok(out);
            }
            self.pos += 1;
            let c = match self.peek() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{0008}',
                Some(b'f') => '\u{000c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => self.unicode_escape()?,
                _ => return Err(self.err("invalid escape")),
            };
            out.push(c);
            self.pos += 1;
        }
    }

    /// Decodes the `\u` escape whose `u` is at `pos`, leaving `pos` on
    /// its last hex digit. A high surrogate directly followed by a `\u`
    /// low surrogate decodes as one pair; any other surrogate decodes to
    /// the replacement character rather than failing the document.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        self.pos += 1;
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let code = hex4(digits).ok_or_else(|| self.err("invalid \\u escape"))?;
        self.pos += 3;
        if (0xd800..0xdc00).contains(&code) && self.bytes[self.pos + 1..].starts_with(b"\\u") {
            let low = self.bytes.get(self.pos + 3..self.pos + 7).and_then(hex4);
            if let Some(low @ 0xdc00..=0xdfff) = low {
                self.pos += 6;
                let code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                return Ok(char::from_u32(code).expect("a surrogate pair is a scalar value"));
            }
        }
        Ok(char::from_u32(code).unwrap_or('\u{fffd}'))
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
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
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits are UTF-8");
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.err("invalid number"))
    }
}

/// The value of exactly four hex digits (no sign, unlike
/// `u32::from_str_radix`).
fn hex4(digits: &[u8]) -> Option<u32> {
    digits
        .iter()
        .try_fold(0, |acc, &b| Some(acc << 4 | char::from(b).to_digit(16)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(escaped(r#"a"b"#), r#""a\"b""#);
        assert_eq!(escaped(r"a\b"), r#""a\\b""#);
        assert_eq!(escaped("a\nb\tc\r"), r#""a\nb\tc\r""#);
        assert_eq!(escaped("\u{0001}\u{001f}"), r#""\u0001\u001f""#);
        assert_eq!(escaped("héllo °C"), "\"héllo °C\"");
    }

    #[test]
    fn object_writer_builds_valid_json() {
        let mut o = ObjectWriter::new();
        o.str_field("name", "pipe\"line");
        o.u64_field("count", 42);
        o.f64_field("secs", 1.5);
        o.f64_field("bad", f64::NAN);
        let text = o.finish();
        let v = parse(&text).unwrap();
        assert_eq!(
            v.get("name").and_then(JsonValue::as_str),
            Some("pipe\"line")
        );
        assert_eq!(v.get("count").and_then(JsonValue::as_u64), Some(42));
        assert_eq!(v.get("secs").and_then(JsonValue::as_f64), Some(1.5));
        assert_eq!(v.get("bad"), Some(&JsonValue::Null));
    }

    #[test]
    fn f64_arrays_round_trip_bitwise() {
        let values = [18.5, -0.0, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300, f64::NAN];
        let mut o = ObjectWriter::new();
        o.f64_array_field("obs", &values);
        let v = parse(&o.finish()).unwrap();
        let items = v.get("obs").and_then(JsonValue::as_array).unwrap();
        assert_eq!(items.len(), values.len());
        for (item, original) in items.iter().zip(&values) {
            match item.as_f64() {
                Some(parsed) => assert_eq!(parsed.to_bits(), original.to_bits()),
                None => assert!(!original.is_finite()),
            }
        }
    }

    #[test]
    fn escape_round_trips_through_parser() {
        let nasty = "quote\" back\\slash \ncontrol\u{0007} unicode°∆ tab\t";
        let v = parse(&escaped(nasty)).unwrap();
        assert_eq!(v.as_str(), Some(nasty));
    }

    #[test]
    fn parses_nested_values() {
        let v = parse(r#"{"a":[1,2.5,-3e2],"b":{"c":null,"d":true},"e":false}"#).unwrap();
        let a = v.get("a").unwrap();
        assert_eq!(
            a,
            &JsonValue::Array(vec![
                JsonValue::Number(1.0),
                JsonValue::Number(2.5),
                JsonValue::Number(-300.0),
            ])
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&JsonValue::Null));
        assert_eq!(v.get("e"), Some(&JsonValue::Bool(false)));
    }

    #[test]
    fn rejects_malformed_documents() {
        let too_deep = "[".repeat(100_000);
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "tru",
            "\"open",
            "{}x",
            "nan",
            &too_deep,
            r#""\u+041""#,
            r#""\u00g0""#,
            r#""\u00""#,
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.message, "nesting too deep");
        assert_eq!(err.offset, MAX_DEPTH);
        let objects = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert_eq!(parse(&objects).unwrap_err().message, "nesting too deep");
        // Depth is nesting, not the count of containers: siblings reset it.
        let wide = format!("[{}]", vec![nest(MAX_DEPTH - 1); 3].join(","));
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = parse(r#""\u00b0C \u2206 \ud83d\ude00 \u00B0""#).unwrap();
        assert_eq!(v.as_str(), Some("°C ∆ \u{1f600} °"));
        // Lone surrogates, and a high one followed by a non-surrogate
        // escape, decode to the replacement character.
        let v = parse(r#""\ud83d \ude00 \ud83d\u0041 \ud83d""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{fffd} \u{fffd} \u{fffd}A \u{fffd}"));
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // One string field the size of the largest body a fleet accepts.
        let field = "x".repeat(256 * 1024);
        let doc = format!(r#"{{"note":"{field}","t":"°\"{field}"}}"#);
        let started = std::time::Instant::now();
        let v = parse(&doc).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(
            v.get("note").and_then(JsonValue::as_str),
            Some(field.as_str())
        );
        assert_eq!(
            v.get("t").and_then(JsonValue::as_str),
            Some(format!("°\"{field}").as_str())
        );
        assert!(
            elapsed < std::time::Duration::from_millis(100),
            "512 KiB of string fields took {elapsed:?}"
        );
    }
}
