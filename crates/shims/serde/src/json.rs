//! A small, real JSON layer for the offline serde shim.
//!
//! It provides a JSON document model
//! ([`Value`]), a renderer and parser, and the [`ToJson`]/[`FromJson`]
//! traits that `#[derive(ToJson)]`/`#[derive(FromJson)]` (from the
//! sibling `serde_derive` shim) implement for named-field structs and
//! for enums with unit or named-field variants.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism** — rendering is byte-stable: object keys keep
//!    insertion order, floats use Rust's shortest round-trip formatting.
//!    The scenario runner's "same spec + seed ⇒ byte-identical report"
//!    guarantee rests on this.
//! 2. **Round-trips** — `u64` values (seeds!) never pass through `f64`,
//!    so they survive `render` → `parse` exactly.
//! 3. **No dependencies** — plain `std`, hand-rolled recursive-descent
//!    parser.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (kept exact; never coerced through `f64`).
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// A non-integer number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object (insertion-ordered).
    Object(Object),
}

/// An insertion-ordered JSON object.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Object {
    entries: Vec<(String, Value)>,
}

impl Object {
    /// Creates an empty object.
    pub fn new() -> Self {
        Object::default()
    }

    /// Appends a key (replacing an existing entry with the same key).
    pub fn insert(&mut self, key: impl Into<String>, value: Value) {
        let key = key.into();
        if let Some(slot) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.entries.push((key, value));
        }
    }

    /// Looks a key up.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the object is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The single entry of a one-entry object (how derived enums with
    /// data-carrying variants are encoded).
    pub fn single_entry(&self) -> Option<(&str, &Value)> {
        if self.entries.len() == 1 {
            self.entries.first().map(|(k, v)| (k.as_str(), v))
        } else {
            None
        }
    }
}

impl Value {
    /// The object inside, if this is one.
    pub fn as_object(&self) -> Option<&Object> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// The array inside, if this is one.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The string inside, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean inside, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Any numeric variant, widened to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::UInt(u) => Some(*u as f64),
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// A non-negative integer, exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(u) => Some(*u),
            Value::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// A signed integer, exactly.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::UInt(u) if *u <= i64::MAX as u64 => Some(*u as i64),
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Renders compact JSON (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::UInt(u) => {
                out.push_str(&u.to_string());
            }
            Value::Int(i) => {
                out.push_str(&i.to_string());
            }
            Value::Float(f) => {
                if f.is_finite() {
                    // Rust's shortest round-trip formatting; integral
                    // floats render without a fraction and re-parse as
                    // integers, which `FromJson for f64` accepts back.
                    out.push_str(&f.to_string());
                } else {
                    // JSON has no NaN/Inf; degrade to null.
                    out.push_str("null");
                }
            }
            Value::Str(s) => render_string(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Value::Object(o) => {
                out.push('{');
                for (i, (k, v)) in o.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (the whole input must be one value).
    pub fn parse(input: &str) -> Result<Value, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::at(p.pos, "trailing characters after value"));
        }
        Ok(v)
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A serialisation/deserialisation error with field-path context.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    msg: String,
    path: Vec<String>,
}

impl JsonError {
    /// A free-form error.
    pub fn msg(msg: impl Into<String>) -> Self {
        JsonError {
            msg: msg.into(),
            path: Vec::new(),
        }
    }

    fn at(pos: usize, msg: &str) -> Self {
        JsonError::msg(format!("{msg} (byte {pos})"))
    }

    /// "expected X while decoding Y".
    pub fn type_mismatch(expected: &str, decoding: &str) -> Self {
        JsonError::msg(format!("expected {expected} while decoding {decoding}"))
    }

    /// A required field was absent.
    pub fn missing_field(field: &str, decoding: &str) -> Self {
        JsonError::msg(format!("missing field `{field}` while decoding {decoding}"))
    }

    /// An enum tag was not recognised.
    pub fn unknown_variant(tag: &str, decoding: &str) -> Self {
        JsonError::msg(format!("unknown variant `{tag}` while decoding {decoding}"))
    }

    /// Wraps the error with the field it occurred under.
    pub fn in_field(mut self, field: &str) -> Self {
        self.path.insert(0, field.to_string());
        self
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            write!(f, "{}", self.msg)
        } else {
            write!(f, "at {}: {}", self.path.join("."), self.msg)
        }
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::at(
                self.pos,
                &format!("expected `{}`", b as char),
            ))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(JsonError::at(self.pos, &format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(JsonError::at(self.pos, "expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(JsonError::at(self.pos, "expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut o = Object::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(o));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            o.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(o));
                }
                _ => return Err(JsonError::at(self.pos, "expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| JsonError::at(start, "invalid UTF-8 in string"))?;
                s.push_str(chunk);
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{0008}'),
                        Some(b'f') => s.push('\u{000c}'),
                        Some(b'u') => {
                            let cp = self.hex4()?;
                            // Lone surrogates degrade to the replacement
                            // character; surrogate pairs combine.
                            if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 1; // past '\\'; hex4 skips the 'u'
                                    let lo = self.hex4()?;
                                    if (0xDC00..0xE000).contains(&lo) {
                                        let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                        s.push(char::from_u32(c).unwrap_or('\u{FFFD}'));
                                    } else {
                                        // Lone high surrogate; keep the
                                        // non-surrogate escape that followed.
                                        s.push('\u{FFFD}');
                                        s.push(char::from_u32(lo).unwrap_or('\u{FFFD}'));
                                    }
                                } else {
                                    s.push('\u{FFFD}');
                                }
                            } else {
                                s.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                            }
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(JsonError::at(self.pos, "bad escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(JsonError::at(self.pos, "unterminated string")),
            }
        }
    }

    /// Parses 4 hex digits after `\u`; leaves `pos` after the digits.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        self.pos += 1; // past 'u'
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| JsonError::at(self.pos, "truncated \\u escape"))?;
        let s = std::str::from_utf8(digits)
            .map_err(|_| JsonError::at(self.pos, "bad \\u escape"))?;
        let cp = u32::from_str_radix(s, 16)
            .map_err(|_| JsonError::at(self.pos, "bad \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::at(start, "bad number"))?;
        if !is_float {
            if let Some(stripped) = text.strip_prefix('-') {
                if let Ok(i) = stripped.parse::<u64>() {
                    if i == 0 {
                        return Ok(Value::UInt(0));
                    }
                    if i <= i64::MAX as u64 {
                        return Ok(Value::Int(-(i as i64)));
                    }
                    if i == i64::MAX as u64 + 1 {
                        return Ok(Value::Int(i64::MIN));
                    }
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| JsonError::at(start, "bad number"))
    }
}

/// Types that can render themselves as a JSON [`Value`].
///
/// Implemented for the std primitives/containers below and derivable with
/// `#[derive(ToJson)]` for named-field structs and unit/named-field
/// enums.
pub trait ToJson {
    /// Converts to a JSON value.
    fn to_json(&self) -> Value;
}

/// Types that can reconstruct themselves from a JSON [`Value`].
///
/// Derivable with `#[derive(FromJson)]` for the same shapes as
/// [`ToJson`].
pub trait FromJson: Sized {
    /// Decodes from a JSON value.
    fn from_json(v: &Value) -> Result<Self, JsonError>;

    /// Called when an object field is absent entirely; `Option` overrides
    /// this to yield `None`, everything else errors.
    fn from_missing(field: &str, decoding: &str) -> Result<Self, JsonError> {
        Err(JsonError::missing_field(field, decoding))
    }
}

/// Renders any [`ToJson`] type to a compact JSON string.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().render()
}

/// Parses a JSON string into any [`FromJson`] type.
pub fn from_str<T: FromJson>(input: &str) -> Result<T, JsonError> {
    let v = Value::parse(input)?;
    T::from_json(&v)
}

/// Decodes one object field (missing fields go through
/// [`FromJson::from_missing`], so `Option` fields may be omitted).
pub fn from_field<T: FromJson>(o: &Object, field: &str, decoding: &str) -> Result<T, JsonError> {
    match o.get(field) {
        Some(v) => T::from_json(v).map_err(|e| e.in_field(field)),
        None => T::from_missing(field, decoding),
    }
}

// --- ToJson / FromJson impls for primitives and containers ---

macro_rules! impl_json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::UInt(u64::from(*self))
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Value) -> Result<Self, JsonError> {
                v.as_u64()
                    .and_then(|u| <$t>::try_from(u).ok())
                    .ok_or_else(|| JsonError::type_mismatch("unsigned integer", stringify!($t)))
            }
        }
    )*};
}
impl_json_uint!(u8, u16, u32, u64);

impl ToJson for usize {
    fn to_json(&self) -> Value {
        Value::UInt(*self as u64)
    }
}
impl FromJson for usize {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_u64()
            .and_then(|u| usize::try_from(u).ok())
            .ok_or_else(|| JsonError::type_mismatch("unsigned integer", "usize"))
    }
}

macro_rules! impl_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                let i = i64::from(*self);
                if i >= 0 { Value::UInt(i as u64) } else { Value::Int(i) }
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Value) -> Result<Self, JsonError> {
                v.as_i64()
                    .and_then(|i| <$t>::try_from(i).ok())
                    .ok_or_else(|| JsonError::type_mismatch("integer", stringify!($t)))
            }
        }
    )*};
}
impl_json_int!(i8, i16, i32, i64);

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        if self.fract() == 0.0 && self.is_finite() && self.abs() < 9.0e15 {
            // Integral floats render as integers (and decode back).
            if *self >= 0.0 {
                Value::UInt(*self as u64)
            } else {
                Value::Int(*self as i64)
            }
        } else {
            Value::Float(*self)
        }
    }
}
impl FromJson for f64 {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        // `null` decodes to NaN, mirroring ToJson's rendering of
        // non-finite floats (JSON has no NaN/Inf literal) so reports
        // containing NaN metrics still round-trip.
        if matches!(v, Value::Null) {
            return Ok(f64::NAN);
        }
        v.as_f64()
            .ok_or_else(|| JsonError::type_mismatch("number", "f64"))
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Value {
        f64::from(*self).to_json()
    }
}
impl FromJson for f32 {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        f64::from_json(v).map(|f| f as f32)
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}
impl FromJson for bool {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_bool()
            .ok_or_else(|| JsonError::type_mismatch("boolean", "bool"))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::Str(self.clone())
    }
}
impl FromJson for String {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| JsonError::type_mismatch("string", "String"))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        match self {
            Some(t) => t.to_json(),
            None => Value::Null,
        }
    }
}
impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }

    fn from_missing(_field: &str, _decoding: &str) -> Result<Self, JsonError> {
        Ok(None)
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
impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_array()
            .ok_or_else(|| JsonError::type_mismatch("array", "Vec"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Value {
        Value::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}
impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v.as_array() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err(JsonError::type_mismatch("2-element array", "tuple")),
        }
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Value {
        Value::Array(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}
impl<A: FromJson, B: FromJson, C: FromJson> FromJson for (A, B, C) {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v.as_array() {
            Some([a, b, c]) => Ok((A::from_json(a)?, B::from_json(b)?, C::from_json(c)?)),
            _ => Err(JsonError::type_mismatch("3-element array", "tuple")),
        }
    }
}

impl<V: ToJson> ToJson for BTreeMap<String, V> {
    fn to_json(&self) -> Value {
        let mut o = Object::new();
        for (k, v) in self {
            o.insert(k.clone(), v.to_json());
        }
        Value::Object(o)
    }
}
impl<V: FromJson> FromJson for BTreeMap<String, V> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let o = v
            .as_object()
            .ok_or_else(|| JsonError::type_mismatch("object", "BTreeMap"))?;
        o.iter()
            .map(|(k, v)| Ok((k.to_owned(), V::from_json(v).map_err(|e| e.in_field(k))?)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for text in ["null", "true", "false", "0", "17", "-5", "0.5", "\"hi\"", "[1,2]"] {
            let v = Value::parse(text).unwrap();
            assert_eq!(v.render(), text, "round-trip of {text}");
        }
    }

    #[test]
    fn u64_seeds_survive_exactly() {
        let big = u64::MAX - 3;
        let v = big.to_json();
        let back: u64 = FromJson::from_json(&Value::parse(&v.render()).unwrap()).unwrap();
        assert_eq!(back, big);
    }

    #[test]
    fn object_keeps_insertion_order() {
        let mut o = Object::new();
        o.insert("zebra", Value::UInt(1));
        o.insert("alpha", Value::UInt(2));
        assert_eq!(Value::Object(o).render(), r#"{"zebra":1,"alpha":2}"#);
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "line1\nline2\t\"quoted\" \\slash\u{1} é";
        let rendered = Value::Str(s.to_owned()).render();
        let back = Value::parse(&rendered).unwrap();
        assert_eq!(back.as_str(), Some(s));
    }

    #[test]
    fn nested_parse() {
        let v = Value::parse(r#"{"a":[1,{"b":null},-2.5],"c":"x"}"#).unwrap();
        let o = v.as_object().unwrap();
        let arr = o.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].as_f64(), Some(-2.5));
        assert_eq!(o.get("c").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn floats_round_trip_through_text() {
        for f in [0.1, 2.5e-3, 1234.5678, -0.25] {
            let rendered = Value::Float(f).render();
            let back: f64 = from_str(&rendered).unwrap();
            assert_eq!(back, f);
        }
    }

    #[test]
    fn integral_float_normalises_to_integer() {
        assert_eq!(3.0f64.to_json(), Value::UInt(3));
        assert_eq!((-4.0f64).to_json(), Value::Int(-4));
        let back: f64 = from_str("3").unwrap();
        assert_eq!(back, 3.0);
    }

    #[test]
    fn option_and_missing_fields() {
        let mut o = Object::new();
        o.insert("present", Value::UInt(1));
        let some: Option<u64> = from_field(&o, "present", "t").unwrap();
        let none: Option<u64> = from_field(&o, "absent", "t").unwrap();
        assert_eq!(some, Some(1));
        assert_eq!(none, None);
        let missing: Result<u64, _> = from_field(&o, "absent", "t");
        assert!(missing.is_err());
    }

    #[test]
    fn nan_metrics_round_trip_as_null() {
        // Non-finite floats render as null and decode back as NaN, so
        // reports carrying NaN metrics stay parseable.
        assert_eq!(Value::Float(f64::NAN).render(), "null");
        let back: f64 = from_str("null").unwrap();
        assert!(back.is_nan());
        let pair: (String, f64) = from_str(r#"["lies",null]"#).unwrap();
        assert!(pair.1.is_nan());
    }

    #[test]
    fn i64_min_round_trips() {
        let rendered = to_string(&i64::MIN);
        assert_eq!(rendered, "-9223372036854775808");
        let back: i64 = from_str(&rendered).unwrap();
        assert_eq!(back, i64::MIN);
    }

    #[test]
    fn lone_high_surrogate_keeps_following_escape() {
        let v = Value::parse("\"\\uD800\\u0041\"").unwrap();
        assert_eq!(v.as_str(), Some("\u{FFFD}A"));
        // A real pair still combines.
        let v = Value::parse("\"\\uD83D\\uDE00\"").unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("12 34").is_err());
        assert!(Value::parse("\"unterminated").is_err());
    }
}
