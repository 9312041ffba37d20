//! Offline stand-in for `serde_json`.
//!
//! Renders the `serde` shim's [`Value`] tree as JSON text and provides
//! a `json!` literal macro covering the construction forms used in
//! this workspace (object/array literals with string keys, nested
//! literals, and arbitrary `Serialize` expressions).

use std::fmt::{self, Write as _};

pub use serde::{Number, Serialize, Value};

/// The string escaper behind every rendering of a [`Value`], for callers
/// that write a document's bytes themselves and must agree with it.
#[doc(hidden)]
pub use serde::write_escaped;

/// Serialization error. The shim's renderer is total over [`Value`],
/// so this is only ever constructed by future fallible paths; it
/// exists so call sites can keep using `?`.
#[derive(Debug)]
pub struct Error {
    message: String,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.message)
    }
}

impl std::error::Error for Error {}

/// Converts any `Serialize` value into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    value.to_json_value()
}

/// Serializes to compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_json_value(), None, 0);
    Ok(out)
}

/// Serializes to human-readable JSON text (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_json_value(), Some(2), 0);
    Ok(out)
}

fn write_value(out: &mut String, value: &Value, indent: Option<usize>, depth: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => write!(out, "{n}").expect(STRING_SINK),
        Value::String(s) => write_escaped(out, s).expect(STRING_SINK),
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
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_escaped(out, key).expect(STRING_SINK);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

/// `fmt::Write` for `String` has no failing path.
const STRING_SINK: &str = "writing to a String cannot fail";

/// Builds a [`Value`] from a JSON-shaped literal.
///
/// Supports `null`/`true`/`false`, nested `{...}`/`[...]` literals
/// with string-literal keys, and any Rust expression whose type
/// implements `Serialize`.
#[macro_export]
macro_rules! json {
    ($($tt:tt)+) => { $crate::json_value!($($tt)+) };
}

/// Recursive worker behind [`json!`]. Not part of the public API.
#[macro_export]
#[doc(hidden)]
macro_rules! json_value {
    (null) => { $crate::Value::Null };
    (true) => { $crate::Value::Bool(true) };
    (false) => { $crate::Value::Bool(false) };
    ([]) => { $crate::Value::Array(Vec::new()) };
    ([ $($tt:tt)+ ]) => { $crate::Value::Array($crate::json_items!([] $($tt)+)) };
    ({}) => { $crate::Value::Object(Vec::new()) };
    ({ $($tt:tt)+ }) => { $crate::Value::Object($crate::json_entries!([] $($tt)+)) };
    ($expr:expr) => { $crate::to_value(&$expr) };
}

/// Munches array elements for [`json!`]. Not part of the public API.
#[macro_export]
#[doc(hidden)]
macro_rules! json_items {
    // Terminal: emit accumulated elements.
    ([$($done:expr,)*]) => { vec![$($done,)*] };
    // Nested object / array literals (not valid Rust exprs, so they
    // need their own rules ahead of the generic expression one).
    ([$($done:expr,)*] { $($inner:tt)* } , $($rest:tt)*) => {
        $crate::json_items!([$($done,)* $crate::json_value!({ $($inner)* }),] $($rest)*)
    };
    ([$($done:expr,)*] { $($inner:tt)* }) => {
        $crate::json_items!([$($done,)* $crate::json_value!({ $($inner)* }),])
    };
    ([$($done:expr,)*] [ $($inner:tt)* ] , $($rest:tt)*) => {
        $crate::json_items!([$($done,)* $crate::json_value!([ $($inner)* ]),] $($rest)*)
    };
    ([$($done:expr,)*] [ $($inner:tt)* ]) => {
        $crate::json_items!([$($done,)* $crate::json_value!([ $($inner)* ]),])
    };
    ([$($done:expr,)*] null , $($rest:tt)*) => {
        $crate::json_items!([$($done,)* $crate::Value::Null,] $($rest)*)
    };
    ([$($done:expr,)*] null) => {
        $crate::json_items!([$($done,)* $crate::Value::Null,])
    };
    // Plain expressions.
    ([$($done:expr,)*] $value:expr , $($rest:tt)*) => {
        $crate::json_items!([$($done,)* $crate::to_value(&$value),] $($rest)*)
    };
    ([$($done:expr,)*] $value:expr) => {
        $crate::json_items!([$($done,)* $crate::to_value(&$value),])
    };
}

/// Munches `"key": value` pairs for [`json!`]. Not part of the public
/// API.
#[macro_export]
#[doc(hidden)]
macro_rules! json_entries {
    // Terminal: emit accumulated pairs.
    ([$($done:expr,)*]) => { vec![$($done,)*] };
    // Values that are nested literals.
    ([$($done:expr,)*] $key:literal : { $($inner:tt)* } , $($rest:tt)*) => {
        $crate::json_entries!(
            [$($done,)* (($key).to_string(), $crate::json_value!({ $($inner)* })),] $($rest)*)
    };
    ([$($done:expr,)*] $key:literal : { $($inner:tt)* }) => {
        $crate::json_entries!(
            [$($done,)* (($key).to_string(), $crate::json_value!({ $($inner)* })),])
    };
    ([$($done:expr,)*] $key:literal : [ $($inner:tt)* ] , $($rest:tt)*) => {
        $crate::json_entries!(
            [$($done,)* (($key).to_string(), $crate::json_value!([ $($inner)* ])),] $($rest)*)
    };
    ([$($done:expr,)*] $key:literal : [ $($inner:tt)* ]) => {
        $crate::json_entries!(
            [$($done,)* (($key).to_string(), $crate::json_value!([ $($inner)* ])),])
    };
    ([$($done:expr,)*] $key:literal : null , $($rest:tt)*) => {
        $crate::json_entries!(
            [$($done,)* (($key).to_string(), $crate::Value::Null),] $($rest)*)
    };
    ([$($done:expr,)*] $key:literal : null) => {
        $crate::json_entries!([$($done,)* (($key).to_string(), $crate::Value::Null),])
    };
    // Values that are plain expressions.
    ([$($done:expr,)*] $key:literal : $value:expr , $($rest:tt)*) => {
        $crate::json_entries!(
            [$($done,)* (($key).to_string(), $crate::to_value(&$value)),] $($rest)*)
    };
    ([$($done:expr,)*] $key:literal : $value:expr) => {
        $crate::json_entries!([$($done,)* (($key).to_string(), $crate::to_value(&$value)),])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_macro_builds_nested_trees() {
        let rows = vec![1u32, 2, 3];
        let v = json!({
            "name": "seco",
            "nested": { "k": 10, "list": rows, "flag": true },
            "inline": [1, null, "x"],
            "trailing": 4.5,
        });
        assert_eq!(v.get("name").and_then(Value::as_str), Some("seco"));
        let nested = v.get("nested").unwrap();
        assert_eq!(nested.get("k").and_then(Value::as_u64), Some(10));
        assert_eq!(
            nested.get("list").and_then(Value::as_array).unwrap().len(),
            3
        );
        assert_eq!(
            v.get("inline").and_then(Value::as_array).unwrap()[1],
            Value::Null
        );
        assert_eq!(v.get("trailing").and_then(Value::as_f64), Some(4.5));
    }

    #[test]
    fn compact_and_pretty_rendering() {
        let v = json!({ "a": 1, "b": [true, "q\"x"] });
        assert_eq!(to_string(&v).unwrap(), r#"{"a":1,"b":[true,"q\"x"]}"#);
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(
            pretty,
            "{\n  \"a\": 1,\n  \"b\": [\n    true,\n    \"q\\\"x\"\n  ]\n}"
        );
    }

    #[test]
    fn expression_form_serializes_collections() {
        let rows = vec![json!({ "n": 1 }), json!({ "n": 2 })];
        let v = json!(rows);
        assert_eq!(v.as_array().unwrap().len(), 2);
        assert_eq!(to_string(&json!([])).unwrap(), "[]");
        assert_eq!(to_string(&json!({})).unwrap(), "{}");
    }

    #[test]
    fn rendered_combination_row_is_copied_byte_for_byte() {
        // The multibyte brackets and separator of a rendered combination
        // sit between escapes, so run copying must cut on char boundaries.
        let combo = "⟨A#0(s=0.500) · B#12(s=0.250)⟩";
        let row = json!({ "score": 0.375, "combo": combo, "note": "q\"⟨\\·\n⟩" });
        let expect = format!(r#"{{"score":0.375,"combo":"{combo}","note":"q\"⟨\\·\n⟩"}}"#);
        assert_eq!(to_string(&row).unwrap(), expect);
        assert_eq!(row.to_string(), expect, "Value's Display agrees");
        assert_eq!(
            to_string(&json!([1, -2, 2.0, 0.125, u64::MAX])).unwrap(),
            "[1,-2,2.0,0.125,18446744073709551615]"
        );
    }

    #[test]
    fn control_characters_escape() {
        let v = json!("line\nbreak\tand \u{1} ctrl");
        assert_eq!(
            to_string(&v).unwrap(),
            "\"line\\nbreak\\tand \\u0001 ctrl\""
        );
    }
}
