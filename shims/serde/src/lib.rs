//! Offline stand-in for `serde`.
//!
//! The real serde separates data model and format; this workspace only
//! ever serializes into JSON for experiment records, so the shim
//! collapses both: [`Serialize`] converts a value straight into the
//! JSON tree [`Value`], and the `serde_json` shim renders that tree.
//! Types that the real code annotated with `#[derive(Serialize)]`
//! implement the trait by hand (they are few and small).

use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// A JSON number: integers are kept exact, everything else is `f64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// Signed integer.
    Int(i64),
    /// Unsigned integer too large for `i64`.
    UInt(u64),
    /// Floating point.
    Float(f64),
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Number::Int(v) => write!(f, "{v}"),
            Number::UInt(v) => write!(f, "{v}"),
            Number::Float(v) => {
                if v.is_finite() {
                    if v.fract() == 0.0 && v.abs() < 1e15 {
                        // Match serde_json: whole floats print as "1.0".
                        write!(f, "{v:.1}")
                    } else {
                        write!(f, "{v}")
                    }
                } else {
                    // JSON has no Inf/NaN; serde_json emits null.
                    write!(f, "null")
                }
            }
        }
    }
}

/// A JSON document tree. Object keys keep insertion order so repeated
/// runs serialize byte-identically.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// JSON `null`.
    #[default]
    Null,
    /// JSON boolean.
    Bool(bool),
    /// JSON number.
    Number(Number),
    /// JSON string.
    String(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object, in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on objects; `None` on anything else.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as f64 when it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(Number::Int(v)) => Some(*v as f64),
            Value::Number(Number::UInt(v)) => Some(*v as f64),
            Value::Number(Number::Float(v)) => Some(*v),
            _ => None,
        }
    }

    /// The value as u64 when it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(Number::Int(v)) if *v >= 0 => Some(*v as u64),
            Value::Number(Number::UInt(v)) => Some(*v),
            _ => None,
        }
    }

    /// The value as &str when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice when it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Compact JSON rendering — the same bytes `serde_json::to_string`
/// produces (the real `serde_json::Value` implements `Display` the
/// same way).
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Number(n) => write!(f, "{n}"),
            Value::String(s) => write_escaped(f, s),
            Value::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Value::Object(entries) => {
                f.write_str("{")?;
                for (i, (key, item)) in entries.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, key)?;
                    f.write_str(":")?;
                    write!(f, "{item}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// JSON string escaping — the one escaper behind both `Value`'s
/// `Display` and the `serde_json` shim's renderer, so the two cannot
/// drift apart. Runs that need no escaping are copied whole; every
/// escaped byte is ASCII, so the cuts fall on character boundaries.
#[doc(hidden)]
pub fn write_escaped<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut clean = 0;
    for (i, byte) in s.bytes().enumerate() {
        if byte >= 0x20 && byte != b'"' && byte != b'\\' {
            continue;
        }
        out.write_str(&s[clean..i])?;
        match byte {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            b'\r' => out.write_str("\\r")?,
            b'\t' => out.write_str("\\t")?,
            _ => write!(out, "\\u{byte:04x}")?,
        }
        clean = i + 1;
    }
    out.write_str(&s[clean..])?;
    out.write_char('"')
}

/// Conversion into the JSON tree (the shim's whole data model).
pub trait Serialize {
    /// Converts `self` into a JSON [`Value`].
    fn to_json_value(&self) -> Value;
}

impl Serialize for Value {
    fn to_json_value(&self) -> Value {
        self.clone()
    }
}

impl Serialize for bool {
    fn to_json_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for String {
    fn to_json_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Serialize for str {
    fn to_json_value(&self) -> Value {
        Value::String(self.to_owned())
    }
}

impl Serialize for f64 {
    fn to_json_value(&self) -> Value {
        Value::Number(Number::Float(*self))
    }
}

impl Serialize for f32 {
    fn to_json_value(&self) -> Value {
        Value::Number(Number::Float(f64::from(*self)))
    }
}

macro_rules! impl_serialize_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json_value(&self) -> Value {
                Value::Number(Number::Int(*self as i64))
            }
        }
    )*};
}
impl_serialize_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_serialize_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json_value(&self) -> Value {
                let v = *self as u64;
                if v <= i64::MAX as u64 {
                    Value::Number(Number::Int(v as i64))
                } else {
                    Value::Number(Number::UInt(v))
                }
            }
        }
    )*};
}
impl_serialize_unsigned!(u8, u16, u32, u64, usize);

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_json_value(&self) -> Value {
        (**self).to_json_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_json_value(&self) -> Value {
        match self {
            Some(v) => v.to_json_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json_value).collect())
    }
}

impl<K: fmt::Display, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_json_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.to_string(), v.to_json_value()))
                .collect(),
        )
    }
}

impl<K: fmt::Display, V: Serialize> Serialize for HashMap<K, V> {
    fn to_json_value(&self) -> Value {
        // Sort for output determinism, as BTreeMap-backed objects get.
        let mut entries: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_json_value()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_keep_integer_identity() {
        assert_eq!(3u64.to_json_value(), Value::Number(Number::Int(3)));
        assert_eq!(
            u64::MAX.to_json_value(),
            Value::Number(Number::UInt(u64::MAX))
        );
        assert_eq!((-3i32).to_json_value(), Value::Number(Number::Int(-3)));
        assert_eq!(Number::Float(2.0).to_string(), "2.0");
        assert_eq!(Number::Float(2.5).to_string(), "2.5");
        assert_eq!(Number::Int(2).to_string(), "2");
    }

    #[test]
    fn containers_serialize_structurally() {
        let v = vec![1i64, 2, 3].to_json_value();
        assert_eq!(v.as_array().unwrap().len(), 3);
        let mut m = BTreeMap::new();
        m.insert("a", 1u32);
        let obj = m.to_json_value();
        assert_eq!(obj.get("a").and_then(Value::as_u64), Some(1));
        assert_eq!(None::<u8>.to_json_value(), Value::Null);
        assert_eq!("x".to_json_value(), Value::String("x".into()));
    }

    #[test]
    fn accessors_reject_mismatched_kinds() {
        assert!(Value::Bool(true).as_f64().is_none());
        assert!(Value::Null.get("k").is_none());
        assert_eq!(Value::String("s".into()).as_str(), Some("s"));
        assert_eq!(Value::Number(Number::Float(1.5)).as_f64(), Some(1.5));
        assert!(Value::Number(Number::Int(-1)).as_u64().is_none());
    }
}
