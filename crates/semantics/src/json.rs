//! The workspace's one JSON value type. Every JSON artifact (reports,
//! `/health`, `RuntimeConfig`, codegen tables, Chrome traces, BENCH
//! snapshots) is built as a [`Json`] and written by its `Display`, the
//! only JSON writer and string escaper; every reader goes through
//! [`Json::parse`], which takes bytes from network peers too, so it
//! never panics and caps nesting at [`MAX_DEPTH`]. No serde: the build
//! environment has no crates.io mirror.
//!
//! Object members keep insertion order. Integer literals read back
//! exactly: [`Json::U64`] when non-negative, [`Json::I64`] when negative
//! (seeds and trace ids are full 64-bit). Floats are written in Rust's
//! shortest round-trip form, always with a `.` or exponent so they read
//! back as [`Json::F64`]; a non-finite float is written as `null`. The
//! alternate form `{:#}` puts each element of the arrays held by the
//! top-level object on its own line (BENCH entries, trace events).

use std::fmt::{self, Write as _};

/// A JSON value; see the module docs for the number rules.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// Build a [`Json::Obj`] from `key => value` pairs, in order; each value
/// goes through `Json::from`.
#[macro_export]
macro_rules! json_obj {
    ($($key:expr => $value:expr),* $(,)?) => {
        $crate::json::Json::Obj(vec![$(($key.to_string(), $crate::json::Json::from($value))),*])
    };
}

/// Deepest array/object nesting [`Json::parse`] accepts.
pub const MAX_DEPTH: usize = 128;

static NULL: Json = Json::Null;

impl Json {
    /// Parse one JSON document; `Err` names the first problem and its
    /// byte offset.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, pos: 0 };
        let v = p.value(0)?;
        p.ws();
        match p.pos < text.len() {
            true => Err(p.err("trailing characters")),
            false => Ok(v),
        }
    }

    /// The first member named `key`; `None` if absent or not an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// Any number, as a float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(n) => Some(*n as f64),
            Json::I64(n) => Some(*n as f64),
            Json::F64(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The compact writer; `lines` puts the elements of this array, or of
    /// the arrays this object holds, one per line.
    fn write(&self, f: &mut fmt::Formatter<'_>, lines: bool) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::U64(n) => write!(f, "{n}"),
            Json::I64(n) => write!(f, "{n}"),
            Json::F64(x) if x.is_finite() => write!(f, "{x:?}"),
            Json::F64(_) => f.write_str("null"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                let (open, sep, close) = match lines && !items.is_empty() {
                    true => ("[\n", ",\n", "\n]"),
                    false => ("[", ",", "]"),
                };
                f.write_str(open)?;
                for (i, v) in items.iter().enumerate() {
                    f.write_str(if i > 0 { sep } else { "" })?;
                    v.write(f, false)?;
                }
                f.write_str(close)
            }
            Json::Obj(members) => {
                f.write_char('{')?;
                for (i, (k, v)) in members.iter().enumerate() {
                    f.write_str(if i > 0 { "," } else { "" })?;
                    write_str(f, k)?;
                    f.write_char(':')?;
                    v.write(f, lines && matches!(v, Json::Arr(_)))?;
                }
                f.write_char('}')
            }
        }
    }
}

/// Write `s` as a JSON string literal: quotes, backslashes and control
/// characters escaped, everything else verbatim.
fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\""),
            '\\' => f.write_str("\\\\"),
            '\n' => f.write_str("\\n"),
            '\r' => f.write_str("\\r"),
            '\t' => f.write_str("\\t"),
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32),
            c => f.write_char(c),
        }?;
    }
    f.write_char('"')
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, f.alternate())
    }
}

/// `json["key"]`: the first member named `key`, or `Null`.
impl std::ops::Index<&str> for Json {
    type Output = Json;
    fn index(&self, key: &str) -> &Json {
        self.get(key).unwrap_or(&NULL)
    }
}

/// `json[i]`: the `i`-th array element, or `Null`.
impl std::ops::Index<usize> for Json {
    type Output = Json;
    fn index(&self, i: usize) -> &Json {
        self.as_array().and_then(|a| a.get(i)).unwrap_or(&NULL)
    }
}

macro_rules! from {
    ($($t:ty => |$x:ident| $v:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($x: $t) -> Json {
                $v
            }
        }
    )*};
}

from! {
    bool => |b| Json::Bool(b),
    u8 => |n| Json::U64(n.into()),
    u32 => |n| Json::U64(n.into()),
    u64 => |n| Json::U64(n),
    usize => |n| Json::U64(n as u64),
    i64 => |n| u64::try_from(n).map_or(Json::I64(n), Json::U64),
    f64 => |x| Json::F64(x),
    &str => |s| Json::Str(s.to_string()),
    String => |s| Json::Str(s),
    &String => |s| Json::Str(s.clone()),
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Json {
        Json::Arr(iter.into_iter().map(Into::into).collect())
    }
}

/// `(key, value)` pairs collect into an object, in iteration order.
impl<K: Into<String>> FromIterator<(K, Json)> for Json {
    fn from_iter<I: IntoIterator<Item = (K, Json)>>(iter: I) -> Json {
        Json::Obj(iter.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += hit as usize;
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.eat(b) {
            true => Ok(()),
            false => Err(self.err(&format!("expected '{}'", b as char))),
        }
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.ws();
        let word = |w: &str, v| (self.text[self.pos..].starts_with(w), w.len(), v);
        let (hit, len, v) = match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if depth >= MAX_DEPTH {
                    return Err(self.err("nesting too deep"));
                }
                self.pos += 1;
                return self.container(open == b'{', depth + 1);
            }
            Some(b'"') => return self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => return self.number(),
            Some(b't') => word("true", Json::Bool(true)),
            Some(b'f') => word("false", Json::Bool(false)),
            Some(b'n') => word("null", Json::Null),
            _ => (false, 0, Json::Null),
        };
        if !hit {
            return Err(self.err("expected a value"));
        }
        self.pos += len;
        Ok(v)
    }

    /// An object or array body, just past its opening bracket.
    fn container(&mut self, object: bool, depth: usize) -> Result<Json, String> {
        let close = if object { b'}' } else { b']' };
        let (mut members, mut items) = (Vec::new(), Vec::new());
        self.ws();
        if !self.eat(close) {
            loop {
                if object {
                    self.ws();
                    let key = self.string()?;
                    self.ws();
                    self.expect(b':')?;
                    members.push((key, self.value(depth)?));
                } else {
                    items.push(self.value(depth)?);
                }
                self.ws();
                if self.eat(close) {
                    break;
                }
                self.expect(b',')?;
            }
        }
        Ok(if object {
            Json::Obj(members)
        } else {
            Json::Arr(items)
        })
    }

    /// Count the ASCII digits at the cursor, consuming them.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.eat(b'-');
        if !self.eat(b'0') && self.digits() == 0 {
            return Err(self.err("expected digits"));
        }
        let fraction = self.eat(b'.');
        if fraction && self.digits() == 0 {
            return Err(self.err("expected digits after '.'"));
        }
        let exponent = self.eat(b'e') || self.eat(b'E');
        if exponent {
            let _sign = self.eat(b'+') || self.eat(b'-');
            if self.digits() == 0 {
                return Err(self.err("expected exponent digits"));
            }
        }
        let lit = &self.text[start..self.pos];
        if !fraction && !exponent {
            if let Ok(n) = lit.parse::<u64>() {
                return Ok(Json::U64(n));
            }
            if let Ok(n @ i64::MIN..=-1) = lit.parse::<i64>() {
                return Ok(Json::I64(n));
            }
        }
        lit.parse()
            .map(Json::F64)
            .map_err(|_| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            // Stops only at ASCII bytes, so the slice ends on a char boundary.
            out.push_str(&self.text[start..self.pos]);
            let c = match (self.peek(), self.text.as_bytes().get(self.pos + 1)) {
                (Some(b'"'), _) => {
                    self.pos += 1;
                    return Ok(out);
                }
                (Some(b'\\'), Some(b'u')) => {
                    self.pos += 2;
                    out.push(self.unicode_escape()?);
                    continue;
                }
                (Some(b'\\'), Some(&e)) => match e {
                    b'"' | b'\\' | b'/' => e as char,
                    b'b' => '\u{8}',
                    b'f' => '\u{c}',
                    b'n' => '\n',
                    b'r' => '\r',
                    b't' => '\t',
                    _ => return Err(self.err("bad escape")),
                },
                (None, _) | (Some(b'\\'), None) => return Err(self.err("unterminated string")),
                _ => return Err(self.err("control character in string")),
            };
            self.pos += 2;
            out.push(c);
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self.text.get(self.pos..self.pos + 4).unwrap_or("");
        if hex.len() != 4 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(self.err("expected four hex digits"));
        }
        self.pos += 4;
        Ok(u32::from_str_radix(hex, 16).expect("four hex digits"))
    }

    /// The character of a `\uXXXX` escape (cursor past the `u`), joining
    /// a surrogate pair; a lone surrogate is an error.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) && self.eat(b'\\') && self.eat(b'u') {
            let lo = self.hex4()?;
            if (0xDC00..0xE000).contains(&lo) {
                code = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
            }
        }
        char::from_u32(code).ok_or_else(|| self.err("unpaired surrogate"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn extracts_each_type() {
        let v = Json::parse(
            r#" {"states": 600, "rate": 0.25, "deep": false, "mode": "broadcast",
                 "none": null, "neg": -3, "big": 18446744073709551615,
                 "list": [1, [2, {"x": "y"}]], "exp": 1E3} "#,
        )
        .unwrap();
        assert_eq!(v["states"].as_u64(), Some(600));
        assert_eq!(v["rate"].as_f64(), Some(0.25));
        assert_eq!(v["deep"], Json::Bool(false));
        assert_eq!(v["mode"].as_str(), Some("broadcast"));
        assert_eq!(v["none"], Json::Null);
        assert_eq!(v["neg"], Json::I64(-3));
        assert_eq!(v["neg"].as_f64(), Some(-3.0));
        assert_eq!(v["big"].as_u64(), Some(u64::MAX));
        assert_eq!(v["list"][1][1]["x"].as_str(), Some("y"));
        assert_eq!(v["exp"], Json::F64(1000.0));
    }

    /// Missing keys, wrong types and out-of-range indices read as absent.
    #[test]
    fn missing_and_malformed_fields_are_none() {
        let v = Json::parse(r#"{"states": 600, "mode": "broadcast", "list": [1]}"#).unwrap();
        assert_eq!(v["absent"], Json::Null);
        assert_eq!(v.get("absent"), None);
        assert_eq!(v["mode"].as_u64(), None);
        assert_eq!(v["mode"].as_f64(), None);
        assert_eq!(v["states"].as_str(), None);
        assert_eq!(v["list"][9], Json::Null);
        assert_eq!(v["states"]["x"], Json::Null);
        assert_eq!(v["states"][0], Json::Null);
    }

    #[test]
    fn keys_keep_order_and_first_duplicate_wins() {
        let v = Json::parse(r#"{"b":1,"a":2,"b":3}"#).unwrap();
        assert_eq!(v["b"].as_u64(), Some(1));
        assert_eq!(v.to_string(), r#"{"b":1,"a":2,"b":3}"#);
    }

    #[test]
    fn escapes_decode_including_surrogate_pairs() {
        let v = Json::parse(r#""q\" b\\ s\/ \b\f\n\r\t é 😀""#).unwrap();
        assert_eq!(v.as_str(), Some("q\" b\\ s/ \u{8}\u{c}\n\r\t é 😀"));
        for bad in [
            r#""\ud83d""#,
            r#""\ude00""#,
            r#""\ud83dx""#,
            r#""\u12g4""#,
            r#""\x""#,
        ] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn writer_is_compact_and_escapes_once() {
        let v = json_obj! {
            "s" => "a\"b\\c\n\u{1}é",
            "n" => -2i64,
            "u" => 7u32,
            "f" => 14.0,
            "g" => 0.1,
            "nan" => f64::NAN,
            "none" => Option::<u64>::None,
            "arr" => [1u64, 2].into_iter().collect::<Json>(),
        };
        assert_eq!(
            v.to_string(),
            r#"{"s":"a\"b\\c\n\u0001é","n":-2,"u":7,"f":14.0,"g":0.1,"nan":null,"none":null,"arr":[1,2]}"#
        );
    }

    #[test]
    fn alternate_form_puts_top_level_array_elements_on_lines() {
        let v = json_obj! {
            "config" => json_obj! { "list" => [1u64].into_iter().collect::<Json>() },
            "entries" => [json_obj! { "a" => 1u64 }, json_obj! { "a" => 2u64 }]
                .into_iter()
                .collect::<Json>(),
            "empty" => Json::Arr(Vec::new()),
        };
        assert_eq!(
            format!("{v:#}"),
            "{\"config\":{\"list\":[1]},\"entries\":[\n{\"a\":1},\n{\"a\":2}\n],\"empty\":[]}"
        );
        assert_eq!(Json::parse(&format!("{v:#}")).unwrap(), v);
    }

    #[test]
    fn malformed_documents_are_errors() {
        for bad in [
            "",
            " ",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "01",
            "1.",
            "-",
            "1e",
            "tru",
            "nul",
            "[1] x",
            "\"abc",
            "\"a\u{1}b\"",
            "{1:2}",
            "+1",
            ".5",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        assert!(Json::parse(&deep).is_err());
        let deep_obj = "{\"a\":".repeat(100_000);
        assert!(Json::parse(&deep_obj).is_err());
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&over).is_err());
    }

    /// Characters that stress the escaper: quotes, backslashes, control
    /// characters, non-ASCII and non-BMP.
    const PALETTE: [char; 12] = [
        '"',
        '\\',
        '\n',
        '\u{0}',
        '\u{1f}',
        '\u{7f}',
        'é',
        '😀',
        '\u{10ffff}',
        '/',
        'a',
        ' ',
    ];

    /// Decode a value from random words — the generator for the
    /// round-trip property.
    fn arb(words: &mut impl Iterator<Item = u64>, depth: u32) -> Json {
        let x = words.next().unwrap_or(0);
        let n = (x >> 8) as usize % 5;
        match x % 10 {
            1 => Json::Bool(x & 16 != 0),
            2 if x & 16 != 0 => Json::U64(u64::MAX),
            2 => Json::U64(x >> 8),
            3 if x & 16 != 0 => Json::I64(i64::MIN),
            3 => Json::I64(-1 - (x >> 2) as i64),
            4 => Some(f64::from_bits(x))
                .filter(|f| f.is_finite())
                .map_or(Json::F64(0.5), Json::F64),
            5 | 6 => Json::Str(arb_string(x >> 8)),
            7 | 8 if depth < 4 => Json::Arr((0..n).map(|_| arb(words, depth + 1)).collect()),
            9 if depth < 4 => Json::Obj(
                (0..n)
                    .map(|i| (arb_string(x >> (8 + i)), arb(words, depth + 1)))
                    .collect(),
            ),
            _ => Json::Null,
        }
    }

    fn arb_string(x: u64) -> String {
        (0..x % 8)
            .map(|i| PALETTE[(x >> (4 + 4 * i)) as usize % PALETTE.len()])
            .collect()
    }

    proptest! {
        #[test]
        fn written_values_parse_back_equal(words in prop::collection::vec(any::<u64>(), 1..40)) {
            let v = arb(&mut words.into_iter(), 0);
            prop_assert_eq!(Json::parse(&v.to_string()).unwrap(), v.clone());
            prop_assert_eq!(Json::parse(&format!("{v:#}")).unwrap(), v);
        }

        #[test]
        fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
            let _ = Json::parse(&String::from_utf8_lossy(&bytes));
        }

        #[test]
        fn mutated_documents_never_panic(
            words in prop::collection::vec(any::<u64>(), 1..40),
            cut in any::<usize>(),
            at in any::<usize>(),
            byte in any::<u8>(),
        ) {
            let text = arb(&mut words.into_iter(), 0).to_string().into_bytes();
            let cut = cut % (text.len() + 1);
            let _ = Json::parse(&String::from_utf8_lossy(&text[..cut]));
            let mut mutated = text.clone();
            let at = at % mutated.len();
            mutated[at] = byte;
            let _ = Json::parse(&String::from_utf8_lossy(&mutated));
        }
    }
}
