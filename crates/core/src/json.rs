//! The workspace's only JSON reader/writer: the signature record codec in
//! [`history`](crate::History), the antibody pack codec in
//! `dimmunix-exchange`, and the `BENCH_*.json` reports of `dimmunix-bench`
//! all go through it.
//!
//! The container this reproduction builds in has no registry access, so the
//! crate cannot depend on `serde_json`; the JSON surface of those three is
//! small (objects, arrays, strings, numbers) and is served by this
//! self-contained module instead. The parser is a plain
//! recursive-descent over a generic [`JsonValue`], the writer a pair of
//! escape helpers.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string literal.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; key order is irrelevant to the codec.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a number that is one
    /// (counts and epochs in the codecs; `f64` holds integers exactly up to
    /// 2^53, far beyond any record count).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n)
                if *n >= 0.0 && n.fract() == 0.0 && *n <= 9_007_199_254_740_992.0 =>
            {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// A member of the value, if it is an object containing `key`.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(m) => m.get(key),
            _ => None,
        }
    }
}

/// Escapes `s` into a double-quoted JSON string literal appended to `out`.
pub fn write_escaped(out: &mut String, s: &str) {
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

/// Parses a complete JSON document; trailing non-whitespace is an error.
///
/// # Errors
/// Returns a human-readable message for malformed input.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut pos = 0;
    let value = parse_value(text, &mut pos)?;
    skip_ws(text.as_bytes(), &mut pos);
    if pos != text.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

// The readers of composite values and strings take the document as `&str`
// (so a string's unescaped runs are slices of it); the rest read its bytes.
fn parse_value(text: &str, pos: &mut usize) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(text, pos),
        Some(b'[') => parse_array(text, pos),
        Some(b'"') => Ok(JsonValue::String(parse_string(text, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(JsonValue::Number)
        .map_err(|_| format!("invalid number `{text}` at byte {start}"))
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = text.as_bytes();
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote or backslash in one go: both are
        // ASCII, so the run ends on a character boundary of `text`.
        let run = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .ok_or("unterminated string")?;
        out.push_str(&text[*pos..*pos + run]);
        *pos += run + 1;
        if bytes[*pos - 1] == b'"' {
            return Ok(out);
        }
        let Some(&esc) = bytes.get(*pos) else {
            return Err("unterminated escape".into());
        };
        *pos += 1;
        match esc {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let code = parse_hex4(bytes, pos)?;
                // Surrogate pairs: JSON encodes astral characters as two
                // consecutive \uXXXX escapes.
                let c = if (0xD800..0xDC00).contains(&code) {
                    if bytes.get(*pos) == Some(&b'\\') && bytes.get(*pos + 1) == Some(&b'u') {
                        *pos += 2;
                        let low = parse_hex4(bytes, pos)?;
                        if (0xDC00..0xE000).contains(&low) {
                            char::from_u32(0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00))
                        } else {
                            // High surrogate not followed by a low one.
                            None
                        }
                    } else {
                        None
                    }
                } else {
                    char::from_u32(code)
                };
                out.push(c.ok_or_else(|| "invalid \\u escape".to_string())?);
            }
            other => return Err(format!("invalid escape `\\{}`", other as char)),
        }
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    if *pos + 4 > bytes.len() {
        return Err("truncated \\u escape".into());
    }
    let text = std::str::from_utf8(&bytes[*pos..*pos + 4]).map_err(|e| e.to_string())?;
    *pos += 4;
    u32::from_str_radix(text, 16).map_err(|_| format!("invalid \\u digits `{text}`"))
}

fn parse_array(text: &str, pos: &mut usize) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        items.push(parse_value(text, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_object(text: &str, pos: &mut usize) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    *pos += 1; // '{'
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(map));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(text, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {pos}", pos = *pos));
        }
        *pos += 1;
        map.insert(key, parse_value(text, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(map));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, "two", true, null], "b": {"c": "d"}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 4);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("d"));
    }

    #[test]
    fn escape_roundtrip() {
        let original = "line\nquote\"slash\\tab\tünïcode €";
        let mut doc = String::new();
        write_escaped(&mut doc, original);
        let parsed = parse(&doc).unwrap();
        assert_eq!(parsed.as_str(), Some(original));
    }

    #[test]
    fn surrogate_pair_decodes() {
        let parsed = parse(r#""😀""#).unwrap();
        assert_eq!(parsed.as_str(), Some("😀"));
    }

    #[test]
    fn rejects_invalid_surrogates() {
        // Lone high surrogate, high+high pair, and lone low surrogate must
        // all be parse errors, never a panic or a wrong character.
        assert!(parse(r#""\uD800""#).is_err());
        assert!(parse(r#""\uD800\uD800""#).is_err());
        assert!(parse(r#""\uDC00""#).is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{} trailing").is_err());
    }
}
