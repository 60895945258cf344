//! Vendored deterministic serialization subset.
//!
//! The workspace must build with no network and no registry cache (the
//! same constraint that produced the vendored `proptest` subset), so
//! this crate provides the small slice of `serde`'s surface the
//! workspace needs: a [`Serialize`] trait mapping values into a JSON
//! [`Value`] model, byte-deterministic emitters ([`to_string`],
//! [`to_string_pretty`]), a strict parser ([`from_str`]), and a
//! [`Deserialize`] trait decoding a [`Value`] back into a typed value.
//! Decoding is strict: a mistyped or out-of-range value is a
//! [`DecodeError`] naming the path of the offending field, never a
//! silent default or a truncating cast.
//!
//! Determinism notes: objects preserve insertion order (no hash-map
//! reordering), floats emit via Rust's shortest-roundtrip `Display`,
//! and non-finite floats serialize as `null` (JSON has no NaN/Inf).
//!
//! # Example
//!
//! ```
//! use serde::{from_str, to_string, Serialize, Value};
//!
//! struct Point { x: u32, y: u32 }
//! impl Serialize for Point {
//!     fn to_value(&self) -> Value {
//!         Value::object().field("x", &self.x).field("y", &self.y).build()
//!     }
//! }
//!
//! let json = to_string(&Point { x: 3, y: 4 });
//! assert_eq!(json, r#"{"x":3,"y":4}"#);
//! assert_eq!(from_str(&json).unwrap().get("y").and_then(Value::as_u64), Some(4));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A finite float.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Starts an object builder.
    pub fn object() -> ObjectBuilder {
        ObjectBuilder(Vec::new())
    }

    /// Looks up a key in an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array (`None` for other variants).
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Integer view: `U64` directly, or an exactly-representable `I64`.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::U64(n) => Some(n),
            Value::I64(n) => u64::try_from(n).ok(),
            _ => None,
        }
    }

    /// Float view of any numeric variant.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::U64(n) => Some(n as f64),
            Value::I64(n) => Some(n as f64),
            Value::F64(n) => Some(n),
            _ => None,
        }
    }

    /// String view (`None` for other variants).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Incremental object construction preserving field order.
#[derive(Default)]
pub struct ObjectBuilder(Vec<(String, Value)>);

impl ObjectBuilder {
    /// Appends a serialized field.
    #[must_use]
    pub fn field(mut self, name: &str, value: &dyn Serialize) -> ObjectBuilder {
        self.0.push((name.to_string(), value.to_value()));
        self
    }

    /// Appends a pre-built [`Value`] field.
    #[must_use]
    pub fn raw(mut self, name: &str, value: Value) -> ObjectBuilder {
        self.0.push((name.to_string(), value));
        self
    }

    /// Finishes the object.
    pub fn build(self) -> Value {
        Value::Object(self.0)
    }
}

/// Conversion into the JSON [`Value`] model.
pub trait Serialize {
    /// Serializes `self` into a [`Value`].
    fn to_value(&self) -> Value;
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

macro_rules! ser_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(u64::from(*self))
            }
        }
    )*};
}
ser_uint!(u8, u16, u32, u64);

macro_rules! ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let v = i64::from(*self);
                if v >= 0 { Value::U64(v as u64) } else { Value::I64(v) }
            }
        }
    )*};
}
ser_int!(i8, i16, i32, i64);

impl Serialize for usize {
    fn to_value(&self) -> Value {
        Value::U64(*self as u64)
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(f64::from(*self))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

/// A value that does not decode: the path from the decoded root to the
/// offending value (`core.regs[3]`, empty for the root itself) and what
/// is wrong with it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeError {
    /// Object keys and array indices leading to the offending value.
    pub path: String,
    /// What went wrong.
    pub message: String,
}

impl DecodeError {
    /// An error about the value being decoded itself (empty path).
    pub fn new(message: impl Into<String>) -> DecodeError {
        DecodeError { path: String::new(), message: message.into() }
    }

    /// Places the error under object key `key`.
    #[must_use]
    pub fn in_field(self, key: &str) -> DecodeError {
        self.under(key)
    }

    /// Places the error under array index `index`.
    #[must_use]
    pub fn at_index(self, index: usize) -> DecodeError {
        self.under(&format!("[{index}]"))
    }

    fn under(mut self, step: &str) -> DecodeError {
        let sep = if self.path.is_empty() || self.path.starts_with('[') { "" } else { "." };
        self.path = format!("{step}{sep}{}", self.path);
        self
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.path.is_empty() {
            f.write_str(&self.message)
        } else {
            write!(f, "{}: {}", self.path, self.message)
        }
    }
}

impl std::error::Error for DecodeError {}

/// The mismatch error: what was expected, and the value found instead
/// (scalars verbatim, containers by kind).
fn expected(what: &str, found: &Value) -> DecodeError {
    let found = match found {
        Value::Array(_) => "an array".to_string(),
        Value::Object(_) => "an object".to_string(),
        scalar => to_string(scalar),
    };
    DecodeError::new(format!("expected {what}, found {found}"))
}

/// Conversion from the JSON [`Value`] model; the inverse of
/// [`Serialize`] for the shape `Serialize` writes.
pub trait Deserialize: Sized {
    /// Decodes a [`Value`].
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] when `v` has the wrong shape or a value
    /// out of range for its field.
    fn from_value(v: &Value) -> Result<Self, DecodeError>;
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<bool, DecodeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(expected("a boolean", other)),
        }
    }
}

macro_rules! de_uint {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<$t, DecodeError> {
                let n = v.as_u64().ok_or_else(|| expected("an unsigned integer", v))?;
                <$t>::try_from(n).map_err(|_| {
                    DecodeError::new(format!("{n} does not fit in {}", stringify!($t)))
                })
            }
        }
    )*};
}
de_uint!(u8, u16, u32, u64, usize);

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<String, DecodeError> {
        v.as_str().map(str::to_string).ok_or_else(|| expected("a string", v))
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Option<T>, DecodeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

fn decode_items<T: Deserialize>(items: &[Value]) -> Result<Vec<T>, DecodeError> {
    items
        .iter()
        .enumerate()
        .map(|(i, item)| T::from_value(item).map_err(|e| e.at_index(i)))
        .collect()
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Vec<T>, DecodeError> {
        decode_items(v.as_array().ok_or_else(|| expected("an array", v))?)
    }
}

/// The elements of `v`, which must be an array of exactly `n`.
fn elements(v: &Value, n: usize) -> Result<&[Value], DecodeError> {
    let items = v.as_array().ok_or_else(|| expected("an array", v))?;
    if items.len() != n {
        return Err(DecodeError::new(format!("expected {n} elements, found {}", items.len())));
    }
    Ok(items)
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<[T; N], DecodeError> {
        let items: Vec<T> = decode_items(elements(v, N)?)?;
        Ok(items.try_into().unwrap_or_else(|_| unreachable!("`elements` checked the length")))
    }
}

/// Tuples serialize as fixed-length heterogeneous arrays.
macro_rules! tuple_codec {
    ($n:literal: $($t:ident $i:tt),+) => {
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$i.to_value()),+])
            }
        }

        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, DecodeError> {
                let items = elements(v, $n)?;
                Ok(($($t::from_value(&items[$i]).map_err(|e| e.at_index($i))?,)+))
            }
        }
    };
}
tuple_codec!(2: A 0, B 1);
tuple_codec!(4: A 0, B 1, C 2, D 3);

/// Implements [`Serialize`] and [`Deserialize`] for a struct whose JSON
/// shape is an object with one key per listed field, named and ordered
/// as listed; every key is required on decode.
///
/// ```
/// struct Point { x: u32, y: u8 }
/// serde::object_codec!(Point { x, y });
///
/// let v = serde::from_str(r#"{"x":3,"y":300}"#).unwrap();
/// let e = <Point as serde::Deserialize>::from_value(&v).err().unwrap();
/// assert_eq!(e.to_string(), "y: 300 does not fit in u8");
/// ```
#[macro_export]
macro_rules! object_codec {
    ($ty:ty { $($f:ident),+ $(,)? }) => {
        impl $crate::Serialize for $ty {
            fn to_value(&self) -> $crate::Value {
                $crate::Value::object()$(.field(stringify!($f), &self.$f))+.build()
            }
        }

        impl $crate::Deserialize for $ty {
            fn from_value(v: &$crate::Value) -> Result<Self, $crate::DecodeError> {
                Ok(Self { $($f: $crate::field(v, stringify!($f))?),+ })
            }
        }
    };
}

/// Decodes a `"0x0000abcd"` hex string (the shape PCs and instruction
/// words serialize as) into a `u32`.
///
/// # Errors
///
/// Returns [`DecodeError`] for anything but a `0x`-prefixed hex string
/// that fits in 32 bits.
pub fn hex_u32(v: &Value) -> Result<u32, DecodeError> {
    let s = String::from_value(v)?;
    s.strip_prefix("0x")
        .and_then(|digits| u32::from_str_radix(digits, 16).ok())
        .ok_or_else(|| expected("a 32-bit 0x-prefixed hex string", v))
}

/// Decodes the required field `key` of object `v` with `decode`; an
/// error inside the field carries `key` in its path.
///
/// # Errors
///
/// Returns [`DecodeError`] when `v` is not an object, lacks `key`, or
/// `decode` fails.
pub fn field_with<T>(
    v: &Value,
    key: &str,
    decode: impl FnOnce(&Value) -> Result<T, DecodeError>,
) -> Result<T, DecodeError> {
    let Value::Object(fields) = v else {
        return Err(expected("an object", v));
    };
    match fields.iter().find(|(k, _)| k == key) {
        Some((_, item)) => decode(item).map_err(|e| e.in_field(key)),
        None => Err(DecodeError::new("missing field").in_field(key)),
    }
}

/// Decodes the required field `key` of object `v` (see
/// [`field_with`]).
///
/// # Errors
///
/// Returns [`DecodeError`] when `v` is not an object, lacks `key`, or
/// the field does not decode as a `T`.
pub fn field<T: Deserialize>(v: &Value, key: &str) -> Result<T, DecodeError> {
    field_with(v, key, T::from_value)
}

/// Decodes the optional field `key` of object `v`: `default` when it is
/// absent, an error when it is present but does not decode.
///
/// # Errors
///
/// Returns [`DecodeError`] when `v` is not an object or the field is
/// present and does not decode as a `T`.
pub fn field_or<T: Deserialize>(v: &Value, key: &str, default: T) -> Result<T, DecodeError> {
    match v {
        Value::Object(_) if v.get(key).is_none() => Ok(default),
        _ => field(v, key),
    }
}

/// Rejects any key of object `v` outside `known`, so a misspelt field
/// is an error rather than a silently ignored one.
///
/// # Errors
///
/// Returns [`DecodeError`] naming the first unknown key, or when `v` is
/// not an object.
pub fn deny_unknown_fields(v: &Value, known: &[&str]) -> Result<(), DecodeError> {
    let Value::Object(fields) = v else {
        return Err(expected("an object", v));
    };
    match fields.iter().find(|(k, _)| !known.contains(&k.as_str())) {
        Some((k, _)) => {
            Err(DecodeError::new(format!("unknown field (known: {})", known.join(", ")))
                .in_field(k))
        }
        None => Ok(()),
    }
}

fn escape_into(s: &str, out: &mut String) {
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

fn emit(v: &Value, out: &mut String, indent: Option<usize>, level: usize) {
    let (nl, pad, pad_in) = match indent {
        Some(w) => ("\n", " ".repeat(w * level), " ".repeat(w * (level + 1))),
        None => ("", String::new(), String::new()),
    };
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::I64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::F64(n) => {
            if n.is_finite() {
                // Shortest-roundtrip Display; force a fractional part so
                // the value parses back as a float.
                let s = format!("{n}");
                out.push_str(&s);
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => escape_into(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(nl);
                out.push_str(&pad_in);
                emit(item, out, indent, level + 1);
            }
            out.push_str(nl);
            out.push_str(&pad);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(nl);
                out.push_str(&pad_in);
                escape_into(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                emit(item, out, indent, level + 1);
            }
            out.push_str(nl);
            out.push_str(&pad);
            out.push('}');
        }
    }
}

/// Serializes to compact single-line JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    emit(&value.to_value(), &mut out, None, 0);
    out
}

/// Serializes to 2-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    emit(&value.to_value(), &mut out, Some(2), 0);
    out
}

/// A parse failure: byte offset and description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

const MAX_DEPTH: usize = 128;

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError { offset: self.pos, message: message.into() })
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected `{}`", b as char))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            self.err(format!("expected `{word}`"))
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let Some(b) = self.peek() else {
                return self.err("unterminated string");
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(s),
                b'\\' => {
                    let Some(e) = self.peek() else {
                        return self.err("unterminated escape");
                    };
                    self.pos += 1;
                    match e {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair.
                                if self.peek() != Some(b'\\') {
                                    return self.err("lone high surrogate");
                                }
                                self.pos += 1;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return self.err("invalid low surrogate");
                                }
                                0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                            } else {
                                hi
                            };
                            match char::from_u32(code) {
                                Some(c) => s.push(c),
                                None => return self.err("invalid unicode escape"),
                            }
                        }
                        _ => return self.err("invalid escape"),
                    }
                }
                b if b < 0x20 => return self.err("control character in string"),
                _ => {
                    // Re-decode the UTF-8 sequence starting here.
                    let start = self.pos - 1;
                    let len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        0xf0..=0xf7 => 4,
                        _ => return self.err("invalid UTF-8"),
                    };
                    if start + len > self.bytes.len() {
                        return self.err("truncated UTF-8");
                    }
                    match std::str::from_utf8(&self.bytes[start..start + len]) {
                        Ok(frag) => s.push_str(frag),
                        Err(_) => return self.err("invalid UTF-8"),
                    }
                    self.pos = start + len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return self.err("truncated \\u escape");
            };
            let d = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return self.err("invalid hex digit"),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ASCII by construction");
        if !float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::I64(n));
            }
        }
        match text.parse::<f64>() {
            Ok(n) => Ok(Value::F64(n)),
            Err(_) => self.err(format!("invalid number `{text}`")),
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return self.err("nesting too deep");
        }
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return self.err("expected `,` or `]`"),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let v = self.value(depth + 1)?;
                    fields.push((key, v));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(fields));
                        }
                        _ => return self.err("expected `,` or `}`"),
                    }
                }
            }
            _ => self.err("expected a JSON value"),
        }
    }
}

/// Parses one JSON document (trailing whitespace allowed, nothing
/// else).
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input.
pub fn from_str(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing characters");
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for case in ["null", "true", "false", "0", "42", "-7", "1.5", "\"hi\""] {
            let v = from_str(case).unwrap();
            assert_eq!(to_string(&v), case, "round-trip of {case}");
        }
    }

    #[test]
    fn object_order_is_preserved() {
        let v = Value::object().field("z", &1u32).field("a", &2u32).build();
        assert_eq!(to_string(&v), r#"{"z":1,"a":2}"#);
        assert_eq!(from_str(&to_string(&v)).unwrap(), v);
    }

    #[test]
    fn strings_escape_and_parse_back() {
        let s = "line1\nline2\t\"quoted\" \\slash \u{1}";
        let json = to_string(&s);
        assert_eq!(from_str(&json).unwrap(), Value::Str(s.to_string()));
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(from_str(r#""\u0041""#).unwrap(), Value::Str("A".into()));
        // Surrogate pair for U+1F600.
        assert_eq!(from_str(r#""\ud83d\ude00""#).unwrap(), Value::Str("\u{1f600}".into()));
        assert!(from_str(r#""\ud83d""#).is_err(), "lone surrogate rejected");
    }

    #[test]
    fn floats_always_reparse_as_floats() {
        let json = to_string(&2.0f64);
        assert_eq!(json, "2.0");
        assert!(matches!(from_str(&json).unwrap(), Value::F64(_)));
        assert_eq!(to_string(&f64::NAN), "null", "non-finite floats become null");
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Value::object()
            .raw("xs", Value::Array(vec![Value::U64(1), Value::Null, Value::Bool(true)]))
            .raw("o", Value::object().field("s", &"x").build())
            .build();
        assert_eq!(from_str(&to_string(&v)).unwrap(), v);
        let pretty = to_string_pretty(&v);
        assert!(pretty.contains("\n  \"xs\": ["));
        assert_eq!(from_str(&pretty).unwrap(), v);
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "{\"a\" 1}", "\"\\q\""] {
            assert!(from_str(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(1000) + &"]".repeat(1000);
        assert!(from_str(&deep).is_err());
    }

    #[test]
    fn integer_widths() {
        assert_eq!(from_str("18446744073709551615").unwrap(), Value::U64(u64::MAX));
        assert_eq!(from_str("-9223372036854775808").unwrap(), Value::I64(i64::MIN));
        assert_eq!(to_string(&u64::MAX), "18446744073709551615");
    }

    #[test]
    fn option_and_collections_serialize() {
        assert_eq!(to_string(&Option::<u32>::None), "null");
        assert_eq!(to_string(&Some(3u32)), "3");
        assert_eq!(to_string(&vec![1u32, 2, 3]), "[1,2,3]");
        assert_eq!(to_string(&[1u64; 2]), "[1,1]");
        assert_eq!(to_string(&(1u8, true)), "[1,true]");
    }

    fn decode<T: Deserialize>(json: &str) -> Result<T, String> {
        T::from_value(&from_str(json).unwrap()).map_err(|e| e.to_string())
    }

    #[test]
    fn integers_are_range_checked_not_wrapped() {
        assert_eq!(decode::<u8>("255"), Ok(255));
        assert_eq!(decode::<u8>("256"), Err("256 does not fit in u8".into()));
        assert_eq!(decode::<u32>("4294967296"), Err("4294967296 does not fit in u32".into()));
        assert_eq!(decode::<u64>("-1"), Err("expected an unsigned integer, found -1".into()));
        assert_eq!(decode::<usize>("1.5"), Err("expected an unsigned integer, found 1.5".into()));
        assert_eq!(decode::<u16>("\"7\""), Err("expected an unsigned integer, found \"7\"".into()));
    }

    #[test]
    fn scalars_and_options_decode_strictly() {
        assert_eq!(decode::<bool>("true"), Ok(true));
        assert_eq!(decode::<bool>("1"), Err("expected a boolean, found 1".into()));
        assert_eq!(decode::<String>("\"hi\""), Ok("hi".to_string()));
        assert_eq!(decode::<String>("[]"), Err("expected a string, found an array".into()));
        assert_eq!(decode::<Option<u8>>("null"), Ok(None));
        assert_eq!(decode::<Option<u8>>("7"), Ok(Some(7)));
        assert_eq!(hex_u32(&from_str("\"0x00000040\"").unwrap()), Ok(0x40));
        assert!(hex_u32(&from_str("\"0x100000000\"").unwrap()).is_err());
        assert!(hex_u32(&from_str("64").unwrap()).is_err());
    }

    #[test]
    fn errors_name_the_path_to_the_bad_value() {
        struct Core {
            regs: [u32; 2],
        }
        impl Deserialize for Core {
            fn from_value(v: &Value) -> Result<Core, DecodeError> {
                Ok(Core { regs: field(v, "regs")? })
            }
        }
        struct Snap {
            core: Core,
        }
        impl Deserialize for Snap {
            fn from_value(v: &Value) -> Result<Snap, DecodeError> {
                Ok(Snap { core: field(v, "core")? })
            }
        }
        let ok: Snap = decode(r#"{"core":{"regs":[1,2]}}"#).unwrap();
        assert_eq!(ok.core.regs, [1, 2]);
        let err = |json| decode::<Snap>(json).err().unwrap();
        assert_eq!(
            err(r#"{"core":{"regs":[1,4294967296]}}"#),
            "core.regs[1]: 4294967296 does not fit in u32"
        );
        assert_eq!(err(r#"{"core":{"regs":[1]}}"#), "core.regs: expected 2 elements, found 1");
        assert_eq!(err(r#"{"core":{}}"#), "core.regs: missing field");
        assert_eq!(err(r#"{"core":[]}"#), "core: expected an object, found an array");
        let pairs = decode::<Vec<(u16, bool)>>("[[1,true],[2,0]]").err().unwrap();
        assert_eq!(pairs, "[1][1]: expected a boolean, found 0");
    }

    #[test]
    fn optional_fields_default_only_when_absent() {
        let v = from_str(r#"{"a":3,"b":"x"}"#).unwrap();
        assert_eq!(field_or(&v, "a", 9u8), Ok(3));
        assert_eq!(field_or(&v, "c", 9u8), Ok(9));
        assert_eq!(
            field_or(&v, "b", 9u8).unwrap_err().to_string(),
            "b: expected an unsigned integer, found \"x\""
        );
        assert!(deny_unknown_fields(&v, &["a", "b"]).is_ok());
        let e = deny_unknown_fields(&v, &["a"]).unwrap_err();
        assert_eq!(e.to_string(), "b: unknown field (known: a)");
    }
}
