//! The one JSON reader and string writer.
//!
//! Each artifact is written by a `write!` template next to the type it
//! describes: the templates are the schemas, and the golden corpus pins
//! their bytes. They share [`write_str`], the one string escaper, and
//! [`join`], the comma separator. Every reader of JSON goes through
//! [`parse`]: trace lines, postmortems and `bench_guard`'s records.
//!
//! A number keeps its source text; [`Value::as_u64`] and [`Value::as_u32`]
//! accept exactly the unsigned integers that fit, so a fraction or a
//! negative number parses but is never rounded, wrapped or truncated.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// Deeper documents are rejected instead of recursed into: traces come
/// from outside the program, and no artifact nests more than six levels.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value, borrowing from the document text.
#[derive(Debug, Clone, PartialEq)]
pub enum Value<'a> {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number's source text, checked against the JSON grammar.
    Num(&'a str),
    /// A string; borrowed unless it contained escapes.
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<Value<'a>>),
    /// An object.
    Obj(Object<'a>),
}

/// A parsed JSON object.
#[derive(Debug, Clone, PartialEq)]
pub struct Object<'a> {
    /// The fields in document order.
    pub fields: Vec<(Cow<'a, str>, Value<'a>)>,
}

impl<'a> Value<'a> {
    /// The number, if it is an unsigned integer that fits in a `u64`.
    pub fn as_u64(&self) -> Result<u64, String> {
        match self {
            Value::Num(text) => text
                .parse()
                .map_err(|_| format!("{text} is not an unsigned 64-bit integer")),
            _ => Err("not a number".into()),
        }
    }

    /// The number, if it is an unsigned integer that fits in a `u32`.
    pub fn as_u32(&self) -> Result<u32, String> {
        let n = self.as_u64()?;
        u32::try_from(n).map_err(|_| format!("{n} exceeds the u32 range"))
    }

    /// The string.
    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            Value::Str(s) => Ok(s),
            _ => Err("not a string".into()),
        }
    }

    /// The boolean.
    pub fn as_bool(&self) -> Result<bool, String> {
        match self {
            Value::Bool(b) => Ok(*b),
            _ => Err("not a boolean".into()),
        }
    }

    /// The array's items.
    pub fn as_array(&self) -> Result<&[Value<'a>], String> {
        match self {
            Value::Arr(items) => Ok(items),
            _ => Err("not an array".into()),
        }
    }

    /// The object.
    pub fn as_object(&self) -> Result<&Object<'a>, String> {
        match self {
            Value::Obj(obj) => Ok(obj),
            _ => Err("not an object".into()),
        }
    }
}

impl<'a> Object<'a> {
    /// The value of field `key` (the first, if repeated), if present.
    pub fn opt(&self, key: &str) -> Option<&Value<'a>> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The value of field `key`, or an error naming the missing field.
    pub fn get(&self, key: &str) -> Result<&Value<'a>, String> {
        self.opt(key)
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    /// Field `key` read by `read`, with errors naming the field.
    pub fn field<'s, T>(
        &'s self,
        key: &str,
        read: impl FnOnce(&'s Value<'a>) -> Result<T, String>,
    ) -> Result<T, String> {
        read(self.get(key)?).map_err(|e| format!("field {key:?}: {e}"))
    }

    /// Field `key` through [`Value::as_u64`].
    pub fn u64(&self, key: &str) -> Result<u64, String> {
        self.field(key, Value::as_u64)
    }

    /// Field `key` through [`Value::as_u32`].
    pub fn u32(&self, key: &str) -> Result<u32, String> {
        self.field(key, Value::as_u32)
    }

    /// Field `key` through [`Value::as_str`].
    pub fn str(&self, key: &str) -> Result<&str, String> {
        self.field(key, Value::as_str)
    }
}

/// Parses one complete JSON document; the error names the first syntax
/// error's byte offset.
pub fn parse(text: &str) -> Result<Value<'_>, String> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    if p.peek().is_some() {
        return Err(p.unexpected("the end of the document"));
    }
    Ok(value)
}

/// Appends `s` to `out` as a quoted JSON string: `"`, `\` and the control
/// characters are escaped (`\n`, `\r`, `\t`, otherwise `\u00XX`).
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Writes each of `items` into `out` through `item`, separated by commas;
/// the caller writes the enclosing brackets.
pub fn join<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut String, T) -> fmt::Result,
) {
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Writing into a `String` cannot fail.
        let _ = item(out, x);
    }
}

/// Recursive descent over the document's bytes. Slices are only cut at
/// ASCII bytes (token starts, quotes, backslashes), so each is valid UTF-8.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    /// Skips whitespace; the next byte, if any.
    fn peek(&mut self) -> Option<u8> {
        let bytes = self.text.as_bytes();
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = bytes.get(self.pos) {
            self.pos += 1;
        }
        bytes.get(self.pos).copied()
    }

    /// Consumes the next byte if it is one of `set`.
    fn eat(&mut self, set: &[u8]) -> bool {
        let hit = (self.text.as_bytes().get(self.pos)).is_some_and(|b| set.contains(b));
        self.pos += usize::from(hit);
        hit
    }

    fn unexpected(&self, wanted: &str) -> String {
        match self.text.get(self.pos..).and_then(|s| s.chars().next()) {
            Some(c) => format!("expected {wanted} at byte {}, found {c:?}", self.pos),
            None => format!("expected {wanted}, found the end of the input"),
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.unexpected(&format!("{:?}", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value<'a>, String> {
        if depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        match self.peek() {
            Some(b'{') => {
                let mut fields = Vec::new();
                self.items(b'}', |p| {
                    if p.peek() != Some(b'"') {
                        return Err(p.unexpected("a field name"));
                    }
                    let key = p.string()?;
                    p.expect(b':')?;
                    fields.push((key, p.value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Value::Obj(Object { fields }))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.items(b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::Arr(items))
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number().map(Value::Num),
            _ => Err(self.unexpected("a value")),
        }
    }

    fn literal(&mut self, word: &str, value: Value<'a>) -> Result<Value<'a>, String> {
        if !self.text[self.pos..].starts_with(word) {
            return Err(self.unexpected("a value"));
        }
        self.pos += word.len();
        Ok(value)
    }

    /// The comma-separated items of an array or object body, from its
    /// opening bracket through `close`.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.pos += 1;
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.unexpected(&format!("',' or {:?}", close as char))),
            }
        }
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`
    fn number(&mut self) -> Result<&'a str, String> {
        let start = self.pos;
        let digits = |p: &mut Self| {
            let from = p.pos;
            while p.text.as_bytes().get(p.pos).is_some_and(u8::is_ascii_digit) {
                p.pos += 1;
            }
            p.pos > from
        };
        self.eat(b"-");
        let ok = (self.eat(b"0") || digits(self))
            && (!self.eat(b".") || digits(self))
            && (!self.eat(b"eE") || {
                self.eat(b"+-");
                digits(self)
            });
        if !ok {
            return Err(self.unexpected("a digit"));
        }
        Ok(&self.text[start..self.pos])
    }

    /// A string from its opening quote. Runs without escapes are copied
    /// whole, or borrowed when the string has no escape at all.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        let bytes = self.text.as_bytes();
        self.pos += 1;
        let mut run = self.pos;
        let mut owned: Option<String> = None;
        loop {
            match bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    let tail = &self.text[run..self.pos];
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(tail),
                        Some(s) => Cow::Owned(s + tail),
                    });
                }
                Some(b'\\') => {
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(&self.text[run..self.pos]);
                    self.pos += 2;
                    s.push(match bytes.get(self.pos - 1) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return Err(format!("bad escape at byte {}", self.pos - 2)),
                    });
                    run = self.pos;
                }
                Some(&b) if b < 0x20 => {
                    return Err(format!("control character in string at byte {}", self.pos))
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    /// The character of a `\uXXXX` escape whose digits start at `pos`,
    /// joining a UTF-16 surrogate pair written as two escapes.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let bad = format!("bad \\u escape at byte {}", self.pos - 2);
        let high = self.hex4().ok_or_else(|| bad.clone())?;
        let code = if (0xD800..0xDC00).contains(&high) && self.text[self.pos..].starts_with("\\u") {
            self.pos += 2;
            match self.hex4() {
                Some(low @ 0xDC00..=0xDFFF) => 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00),
                _ => return Err(bad),
            }
        } else {
            high
        };
        // A lone surrogate is no character.
        char::from_u32(code).ok_or(bad)
    }

    /// The four hex digits at `pos`.
    fn hex4(&mut self) -> Option<u32> {
        let digits = self.text.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        let hex = digits.bytes().all(|b| b.is_ascii_hexdigit());
        u32::from_str_radix(digits, 16).ok().filter(|_| hex)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_kind_of_value() {
        let v = parse(
            " {\"a\":[1,-2,3.5e-1,true,false,null],\"b\":{\"c\":\"x\\\"\\u00e9\\ud83d\\ude00\"},\
             \"d\":\"plain\"} ",
        )
        .unwrap();
        let obj = v.as_object().unwrap();
        let a = obj.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_u64(), Ok(1));
        assert_eq!(a[1], Value::Num("-2"));
        assert_eq!(a[2], Value::Num("3.5e-1"));
        assert_eq!(a[3..], [Value::Bool(true), Value::Bool(false), Value::Null]);
        let c = obj.get("b").unwrap().as_object().unwrap().str("c");
        assert_eq!(c, Ok("x\"é😀"));
        assert!(matches!(
            obj.get("d"),
            Ok(Value::Str(Cow::Borrowed("plain")))
        ));
    }

    #[test]
    fn integer_accessors_never_round_or_wrap() {
        for (text, u64_ok, u32_ok) in [
            ("0", true, true),
            ("4294967295", true, true),
            ("4294967296", true, false),
            ("18446744073709551615", true, false),
            ("18446744073709551616", false, false),
            ("-1", false, false),
            ("1.5", false, false),
            ("1e3", false, false),
        ] {
            let v = parse(text).unwrap();
            assert_eq!(v.as_u64().is_ok(), u64_ok, "{text}");
            assert_eq!(v.as_u32().is_ok(), u32_ok, "{text}");
        }
    }

    #[test]
    fn field_errors_name_the_key() {
        let v = parse("{\"n\":-1,\"s\":1}").unwrap();
        let obj = v.as_object().unwrap();
        assert!(obj.u64("n").unwrap_err().contains("\"n\""));
        assert!(obj.str("s").unwrap_err().contains("\"s\""));
        assert!(obj.u64("gone").unwrap_err().contains("\"gone\""));
        assert_eq!(obj.opt("gone"), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        let deep = "[".repeat(MAX_DEPTH + 2);
        for bad in [
            "",
            "{",
            "{\"a\"}",
            "{\"a\":1,}",
            "[1 2]",
            "01",
            "1.",
            "-",
            "1e",
            "\"\\x\"",
            "\"\\ud800\"",
            "\"\\u12\"",
            "\"tab\there\"",
            "\"open",
            "tru",
            "{} {}",
            deep.as_str(),
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn write_str_escapes_quotes_backslashes_and_controls() {
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c\nd\re\tf\u{1}g→");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g→\"");
    }

    #[test]
    fn join_separates_with_commas() {
        let mut out = String::from("[");
        join(&mut out, [1, 2, 3], |out, x| write!(out, "{x}"));
        out.push(']');
        assert_eq!(out, "[1,2,3]");
    }
}
