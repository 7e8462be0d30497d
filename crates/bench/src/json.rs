//! The one JSON codec of the bench crate: a [`Json`] value, a strict
//! parser and a writer that escapes every string. The perf gate reads
//! BENCH baselines with it, the scenario service reads job documents and
//! builds every response body with it, and `perf_baseline` and the
//! scenario battery write their artifacts with it. The workspace builds
//! offline, so there is no serde; object keys keep their order.
//!
//! The parser accepts exactly one RFC 8259 value with optional
//! surrounding whitespace. Trailing data, bad escapes, unpaired
//! surrogates, raw control characters inside strings, malformed numbers
//! and more than 32 nested containers are all errors, so hostile input
//! (say, a megabyte of `[`) returns `Err` instead of overflowing the
//! stack.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (every JSON number is read as an `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; fields keep their document order.
    Obj(Vec<(String, Json)>),
}

/// Most containers the parser nests (BENCH files are three deep).
const MAX_DEPTH: usize = 32;

/// Largest integer an `f64` holds exactly: the bound of [`Json::as_u64`].
const MAX_EXACT_INT: f64 = 9_007_199_254_740_992.0;

impl Json {
    /// Parse one complete document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value(0)?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing data at byte {}", p.i));
        }
        Ok(v)
    }

    /// An object with the given fields, in order.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// `x` rounded to `places` decimals, for display-only figures whose
    /// full binary expansion would only add noise to a file.
    pub fn fixed(x: f64, places: i32) -> Json {
        let scale = 10f64.powi(places);
        Json::Num((x * scale).round() / scale)
    }

    /// Field `key` of an object (the first, if the key repeats).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The fields of an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The items of an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The text of a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value of a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value of a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// A number that is a non-negative integer an `f64` holds exactly;
    /// `None` for anything else (fractions, negatives, other types).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        (n.fract() == 0.0 && (0.0..=MAX_EXACT_INT).contains(&n)).then_some(n as u64)
    }

    /// Multi-line text for files: the top-level container and the
    /// containers directly inside it list one entry per line; anything
    /// deeper is written compactly on its entry's line.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        write_json(&mut out, self, 0, 2).expect("writing to a String");
        out.push('\n');
        out
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

/// Numbers convert through `f64`, as JSON carries them; integers above
/// 2^53 would round, and no count written here comes near that.
macro_rules! from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Num(n as f64)
            }
        }
    )*};
}
from_number!(f64, u64, u32, usize);

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.i)
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.peek() != Some(c) {
            return Err(self.err(&format!("expected `{}`", c as char)));
        }
        self.i += 1;
        Ok(())
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.ws();
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if depth >= MAX_DEPTH {
                    return Err(self.err("document nested too deeply"));
                }
                self.i += 1;
                let close = if open == b'{' { b'}' } else { b']' };
                let mut fields = Vec::new();
                let mut items = Vec::new();
                self.ws();
                if self.peek() == Some(close) {
                    self.i += 1;
                } else {
                    loop {
                        if open == b'{' {
                            self.ws();
                            let key = self.string()?;
                            self.eat(b':')?;
                            fields.push((key, self.value(depth + 1)?));
                        } else {
                            items.push(self.value(depth + 1)?);
                        }
                        self.ws();
                        match self.peek() {
                            Some(b',') => self.i += 1,
                            Some(c) if c == close => {
                                self.i += 1;
                                break;
                            }
                            _ => {
                                return Err(
                                    self.err(&format!("expected `,` or `{}`", close as char))
                                )
                            }
                        }
                    }
                }
                Ok(if open == b'{' {
                    Json::Obj(fields)
                } else {
                    Json::Arr(items)
                })
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.word("true", Json::Bool(true)),
            Some(b'f') => self.word("false", Json::Bool(false)),
            Some(b'n') => self.word("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected input")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Result<Json, String> {
        if !self.s[self.i..].starts_with(w.as_bytes()) {
            return Err(self.err("bad literal"));
        }
        self.i += w.len();
        Ok(v)
    }

    /// Skip a run of digits; whether there was at least one.
    fn digits(&mut self) -> bool {
        let start = self.i;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.i += 1;
        }
        self.i > start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        let int_ok = if self.peek() == Some(b'0') {
            self.i += 1;
            true
        } else {
            self.digits()
        };
        let frac_ok = self.peek() != Some(b'.') || {
            self.i += 1;
            self.digits()
        };
        let exp_ok = !matches!(self.peek(), Some(b'e' | b'E')) || {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            self.digits()
        };
        let text = std::str::from_utf8(&self.s[start..self.i]).expect("ASCII number");
        match text.parse::<f64>() {
            Ok(n) if int_ok && frac_ok && exp_ok && n.is_finite() => Ok(Json::Num(n)),
            _ => Err(format!("bad number `{text}` at byte {start}")),
        }
    }

    /// Four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .s
            .get(self.i..self.i + 4)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.i += 4;
        Ok(u32::from_str_radix(std::str::from_utf8(hex).expect("hex"), 16).expect("hex"))
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected a string"));
        }
        self.i += 1;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte in one go; it is valid UTF-8, as the input is.
            let start = self.i;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.i += 1;
            }
            out.push_str(std::str::from_utf8(&self.s[start..self.i]).expect("UTF-8 input"));
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = self.peek();
                    self.i += 1;
                    out.push(match esc {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return Err(format!("bad escape at byte {}", self.i - 2)),
                    });
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    /// The character of a `\u` escape whose `\u` is consumed, joining a
    /// surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        let code = match hi {
            0xD800..=0xDBFF => {
                if self.s.get(self.i..self.i + 2) != Some(b"\\u") {
                    return Err(self.err("unpaired surrogate"));
                }
                self.i += 2;
                let lo = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&lo) {
                    return Err(self.err("unpaired surrogate"));
                }
                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
            }
            code => code,
        };
        char::from_u32(code).ok_or_else(|| self.err("unpaired surrogate"))
    }
}

/// Write `s` as a quoted JSON string, escaping quotes, backslashes and
/// every control character.
fn write_str(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// Write `v`, nested `depth` containers deep. Containers shallower than
/// `expand` list one entry per line (two-space indent); the rest are
/// compact, `", "` and `": "` separated. Numbers print in Rust's shortest
/// round-trip form; a non-finite number prints as `null`.
fn write_json(out: &mut impl fmt::Write, v: &Json, depth: usize, expand: usize) -> fmt::Result {
    let (open, close, entries): (char, char, Vec<(Option<&str>, &Json)>) = match v {
        Json::Null => return out.write_str("null"),
        Json::Bool(b) => return write!(out, "{b}"),
        Json::Num(n) if n.is_finite() => return write!(out, "{n}"),
        Json::Num(_) => return out.write_str("null"),
        Json::Str(s) => return write_str(out, s),
        Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
        Json::Obj(fields) => {
            let entries = fields.iter().map(|(k, v)| (Some(k.as_str()), v));
            ('{', '}', entries.collect())
        }
    };
    let multiline = depth < expand && !entries.is_empty();
    out.write_char(open)?;
    for (i, (key, item)) in entries.into_iter().enumerate() {
        if multiline {
            let sep = if i == 0 { "" } else { "," };
            write!(out, "{sep}\n{}", "  ".repeat(depth + 1))?;
        } else if i > 0 {
            out.write_str(", ")?;
        }
        if let Some(key) = key {
            write_str(out, key)?;
            out.write_str(": ")?;
        }
        write_json(out, item, depth + 1, expand)?;
    }
    if multiline {
        write!(out, "\n{}", "  ".repeat(depth))?;
    }
    out.write_char(close)
}

/// Compact JSON on one line, `", "` and `": "` separated. Numbers
/// print in Rust's shortest round-trip form; a non-finite number prints
/// as `null`.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_json(f, self, 0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::strategy::BoxedStrategy;

    /// Strings over all of Unicode, weighted towards ASCII so quotes,
    /// backslashes and control characters turn up often.
    fn any_string() -> impl Strategy<Value = String> {
        prop::collection::vec(prop_oneof![0u32..0x80, 0u32..0x11_0000], 0..8)
            .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
    }

    /// Values up to `depth` containers deep. Numbers are finite (the
    /// writer prints a non-finite one as `null`, by design).
    fn any_json(depth: u32) -> BoxedStrategy<Json> {
        let num = prop_oneof![
            any::<i32>().prop_map(f64::from),
            any::<u64>().prop_map(|bits| {
                let x = f64::from_bits(bits);
                if x.is_finite() {
                    x
                } else {
                    0.5
                }
            }),
        ];
        let leaf = prop_oneof![
            Just(Json::Null),
            any::<bool>().prop_map(Json::Bool),
            num.prop_map(Json::Num),
            any_string().prop_map(Json::Str),
        ];
        if depth == 0 {
            return leaf.boxed();
        }
        let inner = any_json(depth - 1);
        prop_oneof![
            leaf,
            prop::collection::vec(inner.clone(), 0..4).prop_map(Json::Arr),
            prop::collection::vec((any_string(), inner), 0..4).prop_map(Json::Obj),
        ]
        .boxed()
    }

    proptest! {
        #[test]
        fn writer_output_parses_back_to_the_same_value(v in any_json(3)) {
            prop_assert_eq!(Json::parse(&v.to_string()).unwrap(), v.clone());
            prop_assert_eq!(Json::parse(&v.pretty()).unwrap(), v);
        }
    }

    #[test]
    fn parses_every_value_kind() {
        let v = Json::parse(
            r#" {"a": [1, 2.5, -3e2, 0, -0.5E+1], "b": {"c": "x\"y\\z\n\u00e9\ud83d\ude00"},
                "d": true, "e": null, "f": false} "#,
        )
        .unwrap();
        assert_eq!(v.get("d"), Some(&Json::Bool(true)));
        assert_eq!(v.get("e"), Some(&Json::Null));
        let a = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(a[2], Json::Num(-300.0));
        assert_eq!(a[4], Json::Num(-5.0));
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Json::as_str),
            Some("x\"y\\z\né😀")
        );
        assert_eq!(Json::parse(r#""é""#).unwrap(), Json::Str("é".into()));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            // Truncation.
            "",
            "{",
            "[1, 2",
            "{\"a\": ",
            "\"open",
            "tru",
            // Trailing data.
            "1 2",
            "{} x",
            "{\"scenario\": \"net8020\"} trailing garbage",
            // Structure.
            "{\"a\" 1}",
            "[1,]",
            "{\"a\": 1,}",
            "{a: 1}",
            "'a'",
            // Bad escapes and raw control characters.
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\u+123\"",
            "\"\\ud800\"",
            "\"\\ud800\\u0041\"",
            "\"\\udc00\"",
            "\"a\nb\"",
            "\"\\",
            // Numbers outside the grammar.
            "01",
            "+1",
            "1.",
            ".5",
            "1e",
            "-",
            "--1",
            "1e999",
            "NaN",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn depth_is_limited_without_overflowing_the_stack() {
        let nested = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nested too deeply"), "{err}");
        assert!(Json::parse(&"{\"a\": ".repeat(MAX_DEPTH + 1)).is_err());
        // A 1 MiB request body of `[` fails fast with an error.
        let err = Json::parse(&"[".repeat(1 << 20)).unwrap_err();
        assert!(err.contains("nested too deeply"), "{err}");
    }

    #[test]
    fn writer_escapes_strings_and_keeps_numbers_exact() {
        let v = Json::obj([("k\"ey", "a\"b\\c\nd\u{1}".into())]);
        assert_eq!(v.to_string(), r#"{"k\"ey": "a\"b\\c\nd\u0001"}"#);
        let x = 0.1 + 0.2;
        assert_eq!(Json::Num(x).to_string(), "0.30000000000000004");
        assert_eq!(Json::Num(5.0).to_string(), "5");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::fixed(0.032_909_4, 6), Json::Num(0.032909));
    }

    #[test]
    fn integers_are_read_strictly() {
        assert_eq!(Json::Num(7.0).as_u64(), Some(7));
        assert_eq!(Json::Num(2.7).as_u64(), None);
        assert_eq!(Json::Num(-5.0).as_u64(), None);
        assert_eq!(Json::Num(1e300).as_u64(), None);
        assert_eq!(Json::Str("7".into()).as_u64(), None);
    }

    #[test]
    fn pretty_lists_top_level_entries_one_per_line() {
        let v = Json::obj([
            ("rows", Json::Arr(vec![Json::obj([("a", 1u32.into())])])),
            ("ratios", Json::obj([("x", 0.5.into()), ("y", 2.0.into())])),
            ("empty", Json::Arr(Vec::new())),
        ]);
        assert_eq!(
            v.pretty(),
            "{\n  \"rows\": [\n    {\"a\": 1}\n  ],\n  \"ratios\": {\n    \"x\": 0.5,\n    \
             \"y\": 2\n  },\n  \"empty\": []\n}\n"
        );
    }
}
