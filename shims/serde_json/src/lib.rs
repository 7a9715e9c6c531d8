//! Offline stand-in for the `serde_json` crate: a compact JSON printer
//! and a recursive-descent parser over the shim `serde` data model.
//!
//! Output mirrors real `serde_json` compact form: no whitespace,
//! object keys in `BTreeMap` (sorted) order, floats printed with Rust's
//! shortest round-trip formatting, non-finite floats as `null`.
//!
//! Beyond the real crate's API, the printer's string escaper
//! ([`write_string`]) and number writer ([`write_number`]) are public,
//! so code that renders a fixed-shape document straight into a buffer
//! prints exactly the bytes [`to_string`] would.

pub use serde::{Error, Map, Number, Value};

use serde::{Deserialize, Serialize};

/// Converts any serialisable value into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

/// Reads a typed value back out of a [`Value`] tree.
///
/// # Errors
///
/// Returns [`Error`] when the tree does not match the expected shape.
pub fn from_value<T: Deserialize>(value: &Value) -> Result<T, Error> {
    T::from_value(value)
}

/// Serialises `value` to a compact JSON string.
///
/// The string comes back sized to its length. The escaper copies whole
/// runs, so the buffer's growth depends on where long strings fall and
/// could otherwise leave a kept document, such as a model file, holding
/// nearly its own size again in spare capacity.
///
/// # Errors
///
/// Never fails for tree-shaped data; the `Result` mirrors the real
/// `serde_json` signature so call sites propagate errors identically.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.borrow_value());
    out.shrink_to_fit();
    Ok(out)
}

/// Parses a JSON document into a typed value.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or a shape mismatch.
pub fn from_str<T: Deserialize>(json: &str) -> Result<T, Error> {
    let mut parser = Parser {
        text: json,
        pos: 0,
        depth: 0,
    };
    parser.skip_ws();
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.text.len() {
        return Err(parser.error("trailing characters"));
    }
    T::from_owned(value)
}

/// Builds a [`Value`] with JSON-like syntax: `json!({"k": v, ...})`,
/// `json!([a, b])`, `json!(null)` or `json!(expr)` for any
/// `Serialize` expression.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($elem:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![$($crate::to_value(&$elem)),*])
    };
    ({ $($key:literal : $val:expr),* $(,)? }) => {{
        let mut map = $crate::Map::new();
        $(map.insert(($key).to_string(), $crate::to_value(&$val));)*
        $crate::Value::Object(map)
    }};
    ($other:expr) => { $crate::to_value(&$other) };
}

fn write_value(out: &mut String, value: &Value) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => write_number(out, *n),
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Object(map) => {
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(out, k);
                out.push(':');
                write_value(out, v);
            }
            out.push('}');
        }
    }
}

/// Appends `n` as [`to_string`] prints it: integers in decimal, finite
/// floats in Rust's shortest round-trip form, non-finite floats as
/// `null`.
pub fn write_number(out: &mut String, n: Number) {
    use std::fmt::Write;
    match n {
        Number::PosInt(v) => {
            let _ = write!(out, "{v}");
        }
        Number::NegInt(v) => {
            let _ = write!(out, "{v}");
        }
        Number::Float(v) if v.is_finite() => {
            // Rust's `{}` prints the shortest string that parses back to
            // the same f64, so the value round-trips exactly.
            let _ = write!(out, "{v}");
        }
        Number::Float(_) => out.push_str("null"),
    }
}

/// Appends `s` as a quoted JSON string, escaped as [`to_string`] does:
/// `"` and `\\`, the short escapes for `\n`, `\t`, `\r`, backspace and
/// form feed, `\u00XX` for other control characters, and everything
/// else verbatim.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    // Every character that needs an escape is ASCII, so the plain runs
    // between them end on character boundaries and copy as slices.
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\t' => "\\t",
            b'\r' => "\\r",
            0x08 => "\\b",
            0x0C => "\\f",
            0x00..=0x1F => "",
            _ => continue,
        };
        out.push_str(&s[plain..i]);
        plain = i + 1;
        if escape.is_empty() {
            use std::fmt::Write;
            let _ = write!(out, "\\u{:04x}", b);
        } else {
            out.push_str(escape);
        }
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

/// How deep arrays and objects may nest, as in real `serde_json`: the
/// parser recurses once per level, so the bound keeps a hostile document
/// from overflowing the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> Error {
        Error::custom(format!("{message} at offset {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.text.as_bytes().get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str, value: Value) -> Result<Value, Error> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.error("invalid literal"))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.eat_literal("null", Value::Null),
            Some(b't') => self.eat_literal("true", Value::Bool(true)),
            Some(b'f') => self.eat_literal("false", Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::String),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// Runs `parse` for a container one level deeper, failing past
    /// [`MAX_DEPTH`] levels.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.error("recursion limit exceeded"));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.eat(b'{')?;
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let b = self
                .peek()
                .ok_or_else(|| self.error("unterminated string"))?;
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'u' => {
                            let hi = self.parse_hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect `\uXXXX` low half.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.error("lone surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.error("lone surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.error("invalid surrogate pair"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid code point"))?,
                            );
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                }
                0x00..=0x1F => return Err(self.error("control character in string")),
                _ => {
                    // Copy the run of plain characters up to the next
                    // quote, escape or control byte. Those are all ASCII,
                    // so the run ends on a character boundary of the
                    // `&str` input and needs no re-validation.
                    let start = self.pos;
                    while self
                        .peek()
                        .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
                    {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        if end > self.text.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let hex = self
            .text
            .get(self.pos..end)
            .ok_or_else(|| self.error("invalid \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::Number(Number::PosInt(n)));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::Number(Number::NegInt(n)));
            }
        }
        text.parse::<f64>()
            .map(|f| Value::Number(Number::Float(f)))
            .map_err(|_| self.error("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for json in ["null", "true", "false", "0", "42", "-7", "1.5", "\"hi\""] {
            let v: Value = from_str(json).unwrap();
            assert_eq!(to_string(&v).unwrap(), json);
        }
    }

    #[test]
    fn nested_structures_round_trip() {
        let json = r#"{"a":[1,2,3],"b":{"c":"x","d":false},"e":null}"#;
        let v: Value = from_str(json).unwrap();
        assert_eq!(to_string(&v).unwrap(), json);
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line\nwith \"quotes\" \\ tabs\t and unicode \u{263A}";
        let json = to_string(&original).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn unicode_escape_parses() {
        let v: String = from_str(r#""A😀""#).unwrap();
        assert_eq!(v, "A\u{1F600}");
    }

    #[test]
    fn floats_round_trip_exactly() {
        for f in [0.1f64, 1.0 / 3.0, 1e-300, 123456.789, -0.25] {
            let json = to_string(&f).unwrap();
            let back: f64 = from_str(&json).unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "{json}");
        }
        for f in [0.1f32, 2.0 / 3.0, 1.5e-30] {
            let json = to_string(&f).unwrap();
            let back: f32 = from_str(&json).unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "{json}");
        }
    }

    #[test]
    fn tuples_serialise_as_arrays() {
        let entry = (1u32, 2u32, 3u32, 0.5f32);
        let json = to_string(&vec![entry]).unwrap();
        assert_eq!(json, "[[1,2,3,0.5]]");
        let back: Vec<(u32, u32, u32, f32)> = from_str(&json).unwrap();
        assert_eq!(back, vec![entry]);
    }

    #[test]
    fn malformed_input_errors() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"open",
            "{\"a\" 1}",
            "nul",
            "01x",
            "[1] junk",
        ] {
            assert!(from_str::<Value>(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_is_bounded_at_128_levels() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(from_str::<Value>(&nested(MAX_DEPTH)).is_ok());
        let err = from_str::<Value>(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(
            err.to_string().contains("recursion limit exceeded"),
            "{err}"
        );
        let deep_object = format!("{}1{}", "{\"a\":".repeat(10_000), "}".repeat(10_000));
        assert!(from_str::<Value>(&deep_object).is_err());
        assert!(from_str::<Value>(&nested(10_000)).is_err());
    }

    #[test]
    fn a_megabyte_string_parses_in_linear_time() {
        // A decoder quadratic in the string's length takes minutes here in
        // a debug build; a linear one takes milliseconds.
        let text = "é".repeat(1 << 19);
        let json = to_string(&text).unwrap();
        let started = std::time::Instant::now();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, text);
        assert!(started.elapsed() < std::time::Duration::from_secs(2));
    }

    #[test]
    fn control_characters_in_strings_are_rejected() {
        let err = from_str::<String>("\"a\u{1}b\"").unwrap_err();
        assert!(err.to_string().contains("control character"), "{err}");
    }

    #[test]
    fn printing_borrows_the_value_it_prints() {
        let v: Value = from_str(r#"{"a":[1,"x\u0001\"y"],"b":{"c":-2.5}}"#).unwrap();
        let r = &v;
        for borrowed in [v.borrow_value(), r.borrow_value(), (&r).borrow_value()] {
            assert!(
                matches!(borrowed, std::borrow::Cow::Borrowed(b) if std::ptr::eq(b, &v)),
                "a Value prints through a borrow, not a copy"
            );
        }
        assert!(matches!(
            "text".borrow_value(),
            std::borrow::Cow::Owned(Value::String(_))
        ));
        let expected = r#"{"a":[1,"x\u0001\"y"],"b":{"c":-2.5}}"#;
        assert_eq!(to_string(&v).unwrap(), expected);
        assert_eq!(to_string(&r).unwrap(), expected);
    }

    #[test]
    fn printed_documents_carry_no_spare_capacity() {
        // A long run early grows the buffer to an odd size, which later
        // doublings would carry to nearly twice the document.
        let mut items = vec![Value::String("p".repeat(300))];
        items.extend((0..5_000).map(|i| Value::String(format!("\"{i}\""))));
        let printed = to_string(&Value::Array(items)).unwrap();
        assert_eq!(printed.capacity(), printed.len());
        assert!(printed.starts_with(&format!("[\"{}\",\"\\\"0\\\"\"", "p".repeat(300))));
    }

    #[test]
    fn string_escapes_match_a_character_by_character_escaper() {
        let reference = |s: &str| {
            let mut out = String::from('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '\r' => out.push_str("\\r"),
                    '\u{08}' => out.push_str("\\b"),
                    '\u{0C}' => out.push_str("\\f"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        };
        for s in [
            "",
            "plain",
            "\"",
            "a\\b",
            "\u{0}\u{1f}\u{7f}",
            "é😀\n\t\r\u{8}\u{c}x",
            "\u{2028}\"é\"",
        ] {
            let mut out = String::new();
            write_string(&mut out, s);
            assert_eq!(out, reference(s), "{s:?}");
        }
    }

    #[test]
    fn json_macro_builds_objects() {
        let v = json!({
            "name": "pigeon",
            "count": 3usize,
            "ok": true,
            "items": vec!["a".to_string(), "b".to_string()],
        });
        assert_eq!(
            to_string(&v).unwrap(),
            r#"{"count":3,"items":["a","b"],"name":"pigeon","ok":true}"#
        );
    }
}
