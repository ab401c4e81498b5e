//! Minimal JSON support for the workspace: a [`Value`] model, a strict
//! parser, a pretty printer, and [`ToJson`] / [`FromJson`] conversion
//! traits.
//!
//! This crate exists because the build environment has no network access
//! and therefore no `serde`/`serde_json`. It intentionally mirrors the
//! `serde_json` conventions the repo's on-disk artifacts already use:
//!
//! - structs serialize as objects keyed by field name, in declaration
//!   order;
//! - unit enum variants serialize as bare strings, data-carrying
//!   variants as externally tagged single-key objects;
//! - non-finite floats (`NaN`, `±inf`) serialize as `null`;
//! - tuples serialize as fixed-length arrays.
//!
//! Conversion impls for domain types live next to the types themselves
//! (e.g. `gncg_geometry::PointSet`), keeping this crate dependency-free.

use std::collections::BTreeSet;
use std::fmt;

pub mod canon;
pub mod frame;

/// A parsed JSON document.
///
/// Objects preserve insertion order (they are association lists, not
/// maps) so printed output matches the struct field order, like
/// `serde_json` derive output does.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Look up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(x) if x.fract() == 0.0 && *x >= 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Error from parsing or from [`FromJson`] conversion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    message: String,
}

impl JsonError {
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for JsonError {}

// ---------------------------------------------------------------------------
// Conversion traits
// ---------------------------------------------------------------------------

/// Types that can render themselves as a [`Value`].
pub trait ToJson {
    fn to_json(&self) -> Value;
}

/// Types that can be reconstructed from a [`Value`].
pub trait FromJson: Sized {
    fn from_json(value: &Value) -> Result<Self, JsonError>;
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        if self.is_finite() {
            Value::Number(*self)
        } else {
            // serde_json serializes non-finite floats as null.
            Value::Null
        }
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Value {
        Value::Number(*self as f64)
    }
}

impl ToJson for u64 {
    fn to_json(&self) -> Value {
        Value::Number(*self as f64)
    }
}

impl ToJson for u32 {
    fn to_json(&self) -> Value {
        Value::Number(*self as f64)
    }
}

impl ToJson for i64 {
    fn to_json(&self) -> Value {
        Value::Number(*self as f64)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::String(self.clone())
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        match self {
            Some(inner) => inner.to_json(),
            None => Value::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for BTreeSet<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Value {
        Value::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

impl FromJson for Value {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        Ok(value.clone())
    }
}

impl FromJson for bool {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        value
            .as_bool()
            .ok_or_else(|| JsonError::new(format!("expected bool, got {value:?}")))
    }
}

impl FromJson for f64 {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        match value {
            Value::Number(x) => Ok(*x),
            // Round-trip of non-finite floats (serialized as null).
            Value::Null => Ok(f64::NAN),
            other => Err(JsonError::new(format!("expected number, got {other:?}"))),
        }
    }
}

impl FromJson for usize {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        value
            .as_u64()
            .map(|x| x as usize)
            .ok_or_else(|| JsonError::new(format!("expected unsigned integer, got {value:?}")))
    }
}

impl FromJson for u64 {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        value
            .as_u64()
            .ok_or_else(|| JsonError::new(format!("expected unsigned integer, got {value:?}")))
    }
}

impl FromJson for String {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        value
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::new(format!("expected string, got {value:?}")))
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        match value {
            Value::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        value
            .as_array()
            .ok_or_else(|| JsonError::new(format!("expected array, got {value:?}")))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: FromJson + Ord> FromJson for BTreeSet<T> {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        value
            .as_array()
            .ok_or_else(|| JsonError::new(format!("expected array, got {value:?}")))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        match value.as_array() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err(JsonError::new(format!(
                "expected 2-element array, got {value:?}"
            ))),
        }
    }
}

/// Build an object value from `(key, value)` pairs; the workhorse for
/// struct serialization at call sites.
pub fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Fetch a required field from an object, with a descriptive error.
pub fn field<'a>(value: &'a Value, key: &str) -> Result<&'a Value, JsonError> {
    value
        .get(key)
        .ok_or_else(|| JsonError::new(format!("missing field `{key}`")))
}

// ---------------------------------------------------------------------------
// Printing
// ---------------------------------------------------------------------------

/// Compact single-line rendering.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    write_value(&mut out, &value.to_json(), None, 0);
    out
}

/// Pretty rendering with two-space indentation (matches
/// `serde_json::to_string_pretty`).
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    write_value(&mut out, &value.to_json(), Some(2), 0);
    out
}

fn write_value(out: &mut String, value: &Value, indent: Option<usize>, depth: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(x) => write_number(out, *x),
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            if !items.is_empty() {
                newline_indent(out, indent, depth);
            }
            out.push(']');
        }
        Value::Object(entries) => {
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1);
            }
            if !entries.is_empty() {
                newline_indent(out, indent, depth);
            }
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
}

fn write_number(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x.fract() == 0.0 && x.abs() < 1e15 {
        // Integral values print without a decimal point, like serde_json
        // prints integers.
        out.push_str(&format!("{}", x as i64));
    } else {
        // Shortest round-trip representation (Rust's float Display).
        out.push_str(&format!("{x}"));
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Parse a JSON document into a typed value.
pub fn from_str<T: FromJson>(input: &str) -> Result<T, JsonError> {
    T::from_json(&parse(input)?)
}

/// Parse a JSON document into a [`Value`]. Strict: rejects trailing
/// garbage, trailing commas, and unquoted keys.
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut parser = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    parser.skip_whitespace();
    let value = parser.parse_value()?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    /// The input; valid UTF-8, so any run of bytes between ASCII
    /// delimiters is a valid `str` slice.
    text: &'a str,
    /// `text` as bytes, for byte-wise scanning.
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError::new(format!("{message} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{word}`")))
        }
    }

    fn parse_number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid utf-8 in number"))?;
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.error("invalid number"))
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
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
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| self.error("invalid \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.error("invalid \\u escape"))?;
                            // Surrogate pairs are not needed by our artifacts;
                            // map unpaired surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run of unescaped bytes up to the next `"`
                    // or backslash in one slice. Both delimiters are ASCII, so
                    // they never fall inside a multi-byte code point and
                    // the run ends on a char boundary.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - self.pos);
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("-2.5e3").unwrap(), Value::Number(-2500.0));
        assert_eq!(
            parse("\"a\\nb\"").unwrap(),
            Value::String("a\nb".to_string())
        );
    }

    #[test]
    fn roundtrip_nested() {
        let text = r#"{"n": 3, "adj": [[0, 1.5], [2, 0.25]], "tag": null}"#;
        let value = parse(text).unwrap();
        assert_eq!(value.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(
            value.get("adj").unwrap().as_array().unwrap()[1]
                .as_array()
                .unwrap()[1]
                .as_f64(),
            Some(0.25)
        );
        let printed = to_string(&value);
        assert_eq!(parse(&printed).unwrap(), value);
    }

    #[test]
    fn pretty_matches_serde_json_shape() {
        let value = object(vec![
            ("n", 2usize.to_json()),
            ("items", vec![1.0f64, 2.5].to_json()),
        ]);
        let pretty = to_string_pretty(&value);
        assert_eq!(
            pretty,
            "{\n  \"n\": 2,\n  \"items\": [\n    1,\n    2.5\n  ]\n}"
        );
    }

    #[test]
    fn non_finite_serializes_as_null() {
        assert_eq!(to_string(&f64::INFINITY), "null");
        assert_eq!(to_string(&f64::NAN), "null");
        let back: f64 = from_str("null").unwrap();
        assert!(back.is_nan());
    }

    #[test]
    fn typed_roundtrip() {
        let data: Vec<(usize, f64)> = vec![(0, 1.5), (3, 0.125)];
        let text = to_string(&data);
        let back: Vec<(usize, f64)> = from_str(&text).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn btreeset_roundtrip() {
        let set: BTreeSet<usize> = [3, 1, 4].into_iter().collect();
        let text = to_string(&set);
        assert_eq!(text, "[1,3,4]");
        let back: BTreeSet<usize> = from_str(&text).unwrap();
        assert_eq!(back, set);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{\"a\": 1,}").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("12 34").is_err());
        assert!(from_str::<usize>("-3").is_err());
    }

    #[test]
    fn option_roundtrip() {
        let some: Option<f64> = from_str("4.5").unwrap();
        assert_eq!(some, Some(4.5));
        let none: Option<bool> = from_str("null").unwrap();
        assert_eq!(none, None);
    }
}
