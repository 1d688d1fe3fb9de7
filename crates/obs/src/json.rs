//! Minimal JSON support: a string escaper for emitters and a small
//! recursive-descent parser for validators and schema tests.
//!
//! The workspace builds offline with no serde; every JSON document we
//! emit is hand-rolled, and this module is what lets tests and the
//! Chrome-trace validator read those documents back structurally
//! instead of by substring matching.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escape `s` as a JSON string literal, including the surrounding
/// quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. `BTreeMap` keeps key iteration deterministic.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup on an object; `None` for other kinds.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean if this is `true` or `false`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as `u64` if this is a non-negative integer of at most
    /// [`MAX_SAFE_INTEGER`]. Numbers parse to doubles, which round larger
    /// integers to a neighbour (`9007199254740993` reads as `…992`), so
    /// those are rejected rather than silently changed.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= MAX_SAFE_INTEGER as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }
}

/// Largest integer no other integer rounds onto when parsed as a double
/// (2^53 - 1): the upper end of [`Value::as_u64`].
pub const MAX_SAFE_INTEGER: u64 = (1 << 53) - 1;

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so the cap bounds its stack use on any input; no
/// document this project writes nests deeper than ten.
const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document. Trailing non-whitespace is an
/// error, as is nesting deeper than 128 arrays and objects; the error
/// string carries a byte offset for debugging.
pub fn parse(s: &str) -> Result<Value, String> {
    let b = s.as_bytes();
    let mut p = Parser { s, b, i: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.i != b.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a str,
    b: &'a [u8],
    i: usize,
    /// Arrays and objects open at `i`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {:?} at byte {}", other.map(|c| c as char), self.i)),
        }
    }

    /// Parses an array or object one nesting level down.
    fn nested(&mut self, body: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {}", self.i));
        }
        self.depth += 1;
        let v = body(self)?;
        self.depth -= 1;
        Ok(v)
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
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
                            if self.i + 4 >= self.b.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex = std::str::from_utf8(&self.b[self.i + 1..self.i + 5])
                                .map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.i))?;
                            // Surrogate pairs are not emitted by our
                            // writers; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        other => {
                            return Err(format!("bad escape {other:?} at byte {}", self.i));
                        }
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or
                    // backslash (or the end, which reports unterminated).
                    // Both are ASCII, so the run ends on a char boundary
                    // and `i` stays on one.
                    let run = self.b[self.i..].iter().position(|&c| c == b'"' || c == b'\\');
                    let end = run.map_or(self.b.len(), |n| self.i + n);
                    out.push_str(&self.s[self.i..end]);
                    self.i = end;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, 2.5, -3], "b": {"c": "x\ny", "d": true, "e": null}}"#)
            .expect("parses");
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Value::Bool(true)));
    }

    #[test]
    fn nesting_is_capped() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = parse(&deep).unwrap_err();
        assert!(err.contains("nesting") && err.contains(&format!("byte {MAX_DEPTH}")), "{err}");
    }

    #[test]
    fn hostile_nesting_fails_on_a_default_stack() {
        // 100,000 levels would overflow a spawned thread's default stack
        // if the parser recursed without a cap.
        for open in ["[", "{\"a\":"] {
            let doc = open.repeat(100_000);
            let res = std::thread::spawn(move || parse(&doc).map(|_| ())).join().unwrap();
            let err = res.unwrap_err();
            assert!(err.contains("nesting"), "{open}: {err}");
        }
    }

    #[test]
    fn escape_round_trips() {
        let raw = "he said \"hi\"\n\tback\\slash \u{1} é";
        let v = parse(&escape(raw)).expect("escaped string parses");
        assert_eq!(v.as_str(), Some(raw));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} x").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\"}").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn as_u64_guards() {
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("-2").unwrap().as_u64(), None);
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
    }

    #[test]
    fn as_u64_rejects_integers_doubles_cannot_hold() {
        assert_eq!(parse("9007199254740991").unwrap().as_u64(), Some(MAX_SAFE_INTEGER));
        // 2^53 + 1 parses to the double 2^53, so 2^53 itself is ambiguous.
        assert_eq!(parse("9007199254740992").unwrap().as_u64(), None);
        assert_eq!(parse("9007199254740993").unwrap().as_u64(), None);
        assert_eq!(parse("18446744073709551615").unwrap().as_u64(), None);
        assert_eq!(parse("1e300").unwrap().as_u64(), None);
    }

    /// A reference decoder for one string literal that steps one UTF-8
    /// scalar at a time (the oracle for the tests below).
    fn parse_string_per_char(doc: &str) -> Result<String, String> {
        let b = doc.as_bytes();
        let mut i = 1;
        let mut out = String::new();
        loop {
            match b.get(i) {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => {
                    let c = match b.get(i + 1) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            let hex = &doc[i + 2..i + 6];
                            i += 4;
                            char::from_u32(u32::from_str_radix(hex, 16).unwrap())
                                .unwrap_or('\u{fffd}')
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    };
                    out.push(c);
                    i += 2;
                }
                Some(_) => {
                    let c = doc[i..].chars().next().unwrap();
                    out.push(c);
                    i += c.len_utf8();
                }
            }
        }
    }

    #[test]
    fn string_runs_keep_multibyte_characters_next_to_escapes() {
        for raw in [
            r#""é\"ß""#,
            r#""日本\n語""#,
            r#""\u00e9é\u65e5日""#,
            r#""𝄞\\𝄞\/""#,
            r#""a\tb\u0041\ud800z""#,
            r#""""#,
            r#""ünïcödé only""#,
        ] {
            let parsed = parse(raw).expect("parses");
            assert_eq!(
                parsed.as_str(),
                Some(parse_string_per_char(raw).unwrap().as_str()),
                "{raw}"
            );
        }
        assert_eq!(parse(r#""é\"x""#).unwrap().as_str(), Some("é\"x"));
        assert_eq!(parse(r#""\u00e9""#).unwrap().as_str(), Some("é"));
    }

    #[test]
    fn unterminated_and_bad_strings_still_fail() {
        assert!(parse(r#""abc"#).is_err());
        assert!(parse(r#""é\"#).is_err());
        assert!(parse(r#""\q""#).is_err());
        assert!(parse(r#""\u12""#).is_err());
    }

    #[test]
    fn megabyte_of_long_strings_parses_like_per_char() {
        // ~1 MB: long strings of mixed-width characters with escapes
        // scattered through them.
        let unit = r#"plain ascii run, é and 日本 and 𝄞, \"quoted\" and \\ and \u00ff; "#;
        let mut doc = String::from("[");
        let mut expected = Vec::new();
        for k in 0..400 {
            let body = unit.repeat(36 + k % 7);
            let lit = format!("\"{body}\"");
            expected.push(parse_string_per_char(&lit).unwrap());
            if k > 0 {
                doc.push(',');
            }
            doc.push_str(&lit);
        }
        doc.push(']');
        assert!(doc.len() > 1_000_000, "{} bytes", doc.len());
        let v = parse(&doc).expect("parses");
        let got: Vec<&str> = v.as_arr().unwrap().iter().map(|s| s.as_str().unwrap()).collect();
        assert_eq!(got, expected);
    }
}
