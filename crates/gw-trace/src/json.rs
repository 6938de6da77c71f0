//! The one JSON codec: every JSON document this workspace writes goes
//! through [`Writer`], and every one it reads or checks through [`parse`].
//!
//! **Writing.** The caller opens and closes objects and arrays, so key
//! order is the caller's and output is byte-stable, with no whitespace.
//! There is one string escape ([`string`]) and one number rule
//! ([`number`]); integers print exactly.
//!
//! **Parsing.** A strict recursive-descent parser (RFC 8259 grammar, no
//! trailing garbage, nesting capped at 512) that builds a [`Value`]. It
//! is stricter than the RFC where no writer here could be the cause: an
//! exponent may not carry a `+`, an object may not repeat a key, and a
//! `\u` escape may not leave a surrogate unpaired.

use std::fmt::Write as _;

/// A parsed JSON document. Objects keep their keys in document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in document order (keys are unique).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The number, if this is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value under `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Append `s` as a JSON string literal: `"` and `\` backslashed, control
/// characters as `\u00XX`, everything else raw.
pub fn string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append `v` under the one number rule, which Prometheus text uses too:
/// integral values below 1e15 bare, other finite values fixed-point with
/// at most 6 decimals and trailing zeros trimmed (never an exponent), and
/// non-finite values as `0`.
pub fn number(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push('0');
        return;
    }
    if v == v.trunc() && v.abs() < 1e15 {
        let _ = write!(out, "{}", v as i64);
        return;
    }
    let s = format!("{v:.6}");
    let s = s.trim_end_matches('0').trim_end_matches('.');
    // `-0` would read back as -0.0 and then print `0`.
    out.push_str(if s == "-0" { "0" } else { s });
}

/// A value the [`Writer`] can place: strings go through [`string`],
/// floats through [`number`], integers and booleans print exactly, and
/// `None` is `null`.
pub trait Scalar {
    /// Append the JSON text of `self`.
    fn put(&self, out: &mut String);
}

impl Scalar for &str {
    fn put(&self, out: &mut String) {
        string(out, self);
    }
}

impl Scalar for String {
    fn put(&self, out: &mut String) {
        string(out, self);
    }
}

impl Scalar for f64 {
    fn put(&self, out: &mut String) {
        number(out, *self);
    }
}

macro_rules! exact_scalar {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            fn put(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
exact_scalar!(bool, u32, u64, usize);

impl<T: Scalar> Scalar for Option<T> {
    fn put(&self, out: &mut String) {
        match self {
            Some(v) => v.put(out),
            None => out.push_str("null"),
        }
    }
}

/// A streaming writer: the caller opens and closes objects and arrays
/// and names each object member; the writer places the commas. Every
/// method returns `&mut Self`, so calls chain.
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    /// Whether the next member or element follows a sibling.
    comma: bool,
}

impl Writer {
    /// The finished document.
    pub fn finish(self) -> String {
        self.out
    }

    /// Start the next member or element: a comma if it has a sibling.
    fn next(&mut self) -> &mut String {
        if std::mem::replace(&mut self.comma, true) {
            self.out.push(',');
        }
        &mut self.out
    }

    /// Open an object (`'{'`) or an array (`'['`).
    pub fn open(&mut self, bracket: char) -> &mut Self {
        self.next().push(bracket);
        self.comma = false;
        self
    }

    /// Close the innermost object (`'}'`) or array (`']'`).
    pub fn close(&mut self, bracket: char) -> &mut Self {
        self.out.push(bracket);
        self.comma = true;
        self
    }

    /// Name the next member of the current object.
    pub fn key(&mut self, k: &str) -> &mut Self {
        string(self.next(), k);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// A scalar element (or member value, after [`Writer::key`]).
    pub fn value(&mut self, v: impl Scalar) -> &mut Self {
        v.put(self.next());
        self
    }

    /// A member with a scalar value.
    pub fn field(&mut self, k: &str, v: impl Scalar) -> &mut Self {
        self.key(k).value(v)
    }

    /// The exact decimal `v / 10^decimals` with exactly `decimals`
    /// fraction digits: `fixed_point(1500, 3)` is `1.500`.
    pub fn fixed_point(&mut self, v: u64, decimals: u32) -> &mut Self {
        let (scale, width) = (10u64.pow(decimals), decimals as usize);
        let _ = write!(self.next(), "{}.{:0width$}", v / scale, v % scale);
        self
    }

    fn tree(&mut self, v: &Value) -> &mut Self {
        match v {
            Value::Null => self.value(None::<bool>),
            Value::Bool(b) => self.value(*b),
            Value::Num(n) => self.value(*n),
            Value::Str(s) => self.value(s.as_str()),
            Value::Arr(items) => {
                self.open('[');
                for item in items {
                    self.tree(item);
                }
                self.close(']')
            }
            Value::Obj(fields) => {
                self.open('{');
                for (k, v) in fields {
                    self.key(k).tree(v);
                }
                self.close('}')
            }
        }
    }
}

/// Render `v` as one compact document.
pub fn write(v: &Value) -> String {
    let mut w = Writer::default();
    w.tree(v);
    w.finish()
}

/// Check that `s` is one complete, well-formed JSON document; see
/// [`parse`].
pub fn validate_json(s: &str) -> Result<(), String> {
    parse(s).map(|_| ())
}

/// Parse `s` as one complete JSON document. An error names the byte
/// offset of the first violation.
pub fn parse(s: &str) -> Result<Value, String> {
    let mut p = Parser { s, i: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.i != s.len() {
        return Err(p.err("trailing characters after the top-level value"));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a str,
    i: usize,
}

const MAX_DEPTH: usize = 512;

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("invalid JSON at byte {}: {msg}", self.i)
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn skip_digits(&mut self) -> bool {
        let start = self.i;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.i += 1;
        }
        self.i > start
    }

    /// Consume `c` if it is next.
    fn eat(&mut self, c: u8) -> bool {
        let next = self.peek() == Some(c);
        self.i += usize::from(next);
        next
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if !self.eat(c) {
            return Err(self.err(&format!("expected '{}'", c as char)));
        }
        Ok(())
    }

    /// The value next in the input, nested `depth` containers deep.
    fn value(&mut self, depth: usize) -> Result<Value, String> {
        self.skip_ws();
        if depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'[') => {
                let mut items = Vec::new();
                self.list(b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::Arr(items))
            }
            Some(b'{') => {
                let mut fields: Vec<(String, Value)> = Vec::new();
                self.list(b'}', |p| {
                    p.skip_ws();
                    let at = p.i;
                    let key = p.string()?;
                    if fields.iter().any(|(k, _)| *k == key) {
                        p.i = at;
                        return Err(p.err("duplicate key"));
                    }
                    p.skip_ws();
                    p.expect(b':')?;
                    fields.push((key, p.value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Value::Obj(fields))
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("expected a value")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// The comma-separated items of the array or object whose opening
    /// bracket is next, each read by `item`, up to the `close` bracket.
    fn list(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.i += 1;
        self.skip_ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(b',') {
                let kind = if close == b']' { "array" } else { "object" };
                return Err(self.err(&format!("expected ',' or '{}' in {kind}", close as char)));
            }
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if !self.s[self.i..].starts_with(word) {
            return Err(self.err("malformed literal"));
        }
        self.i += word.len();
        Ok(v)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        // Start of the current run of unescaped bytes. A run ends only at
        // an ASCII byte, so slicing `self.s` there is on a char boundary.
        let mut run = self.i;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    out.push_str(&self.s[run..self.i]);
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.s[run..self.i]);
                    self.i += 1;
                    if self.eat(b'u') {
                        out.push(self.unicode_escape()?);
                    } else {
                        // The one-letter escapes, in the order of the
                        // characters they stand for below.
                        let letters = b"\"\\/bfnrt";
                        let k = self
                            .peek()
                            .and_then(|e| letters.iter().position(|&l| l == e));
                        let k = k.ok_or_else(|| self.err("bad escape"))?;
                        out.push(['"', '\\', '/', '\u{8}', '\u{c}', '\n', '\r', '\t'][k]);
                        self.i += 1;
                    }
                    run = self.i;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => self.i += 1,
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self.s.get(self.i..self.i + 4);
        let code = digits
            .filter(|d| d.bytes().all(|c| c.is_ascii_hexdigit()))
            .and_then(|d| u32::from_str_radix(d, 16).ok())
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.i += 4;
        Ok(code)
    }

    /// The character of a `\u` escape whose `\u` is consumed; a high
    /// surrogate must be followed by an escaped low one.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) && self.s[self.i..].starts_with("\\u") {
            self.i += 2;
            let low = self.hex4()?;
            if (0xDC00..0xE000).contains(&low) {
                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            }
        }
        // A surrogate left in `code` was unpaired.
        char::from_u32(code).ok_or_else(|| self.err("unpaired surrogate in \\u escape"))
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        self.eat(b'-');
        if !self.eat(b'0') && !self.skip_digits() {
            return Err(self.err("malformed number"));
        }
        if self.eat(b'.') && !self.skip_digits() {
            return Err(self.err("digits must follow the decimal point"));
        }
        if self.eat(b'e') || self.eat(b'E') {
            // No `+`, though RFC 8259 allows one; see the module docs.
            self.eat(b'-');
            if !self.skip_digits() {
                return Err(self.err("malformed exponent"));
            }
        }
        self.s[start..self.i]
            .parse()
            .map(Value::Num)
            .map_err(|_| self.err("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_well_formed_documents() {
        for ok in [
            "{}",
            "[]",
            "null",
            "-12.5e3",
            "1e-3",
            "2E17",
            "\"a\\u00e9\\n\"",
            "  {\"a\":[1,2,{\"b\":true}],\"c\":null}  ",
            "{\"ts\":1.500}",
        ] {
            validate_json(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "{'a':1}",
            "01",
            "1.",
            "1e",
            "1e+3",
            "-12.5e+3",
            "2E+0",
            "\"unterminated",
            "\"bad\\q\"",
            "\"raw\ncontrol\"",
            "{} extra",
            "nul",
            "{\"a\":1,\"a\":2}",
            "\"\\ud83d\"",
            "\"\\ude00\"",
            "\"\\ud83d\\u0041\"",
        ] {
            assert!(validate_json(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn depth_limit_stops_stack_abuse() {
        let deep = "[".repeat(600) + &"]".repeat(600);
        assert!(validate_json(&deep).is_err());
        let fine = "[".repeat(100) + &"]".repeat(100);
        validate_json(&fine).unwrap();
    }

    #[test]
    fn duplicate_keys_are_rejected_per_object() {
        let err = parse("{\"a\":{\"k\":1},\"b\":{\"k\":2,\"k\":3}}").unwrap_err();
        assert!(err.contains("duplicate key"), "{err}");
        // The same key in sibling objects is fine.
        parse("[{\"k\":1},{\"k\":2}]").unwrap();
    }

    #[test]
    fn parse_builds_the_tree_in_document_order() {
        let v = parse(" {\"z\":[1,-2.5,true,null],\"a\":\"x\\u00e9\\ud83d\\ude00\\/\"} ").unwrap();
        assert_eq!(
            v,
            Value::Obj(vec![
                (
                    "z".into(),
                    Value::Arr(vec![
                        Value::Num(1.0),
                        Value::Num(-2.5),
                        Value::Bool(true),
                        Value::Null
                    ])
                ),
                ("a".into(), Value::Str("xé😀/".into())),
            ])
        );
        assert_eq!(v.get("a").and_then(Value::as_str), Some("xé😀/"));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn escaping_handles_quotes_and_control_chars() {
        let mut s = String::new();
        string(&mut s, "a\"b\\c\nd");
        assert_eq!(s, "\"a\\\"b\\\\c\\u000ad\"");
    }

    #[test]
    fn numbers_never_use_exponents() {
        for v in [0.0, 1e-9, 123456789.125, -0.5, f64::NAN, f64::INFINITY] {
            let mut s = String::new();
            number(&mut s, v);
            assert!(!s.contains('e') && !s.contains('E'), "{v} -> {s}");
        }
    }

    #[test]
    fn number_rule_spellings() {
        for (v, want) in [
            (1.0, "1"),
            (-3.0, "-3"),
            (0.125, "0.125"),
            (1.0 / 3.0, "0.333333"),
            (-1e-9, "0"),
            (1e15, "1000000000000000"),
            (f64::NEG_INFINITY, "0"),
        ] {
            let mut s = String::new();
            number(&mut s, v);
            assert_eq!(s, want, "{v}");
        }
    }

    #[test]
    fn writer_places_commas_and_keeps_caller_order() {
        let mut w = Writer::default();
        w.open('{')
            .key("b")
            .value(1u64)
            .key("a")
            .open('[')
            .open('{')
            .close('}')
            .open('[')
            .close(']')
            .value(None::<bool>)
            .value(false)
            .close(']')
            .key("ts")
            .fixed_point(1_500, 3)
            .key("s")
            .value("t")
            .key("x")
            .value(2.5)
            .close('}');
        assert_eq!(
            w.finish(),
            "{\"b\":1,\"a\":[{},[],null,false],\"ts\":1.500,\"s\":\"t\",\"x\":2.5}"
        );
    }
}
