//! The one JSON writer behind every `BENCH_<id>.json`.
//!
//! The workspace is offline and serde-free, so the exports build a small
//! [`Json`] tree and [`Json::render`] lays it out by a single rule: a
//! container whose children are all scalars (or arrays of scalars) prints
//! on one line; anything else prints one child per line at two-space
//! indent. That keeps a sweep cell one grep-able row while the file stays
//! diffable. There is also a single number rule: a float is finite or the
//! render fails with a [`JsonError`] naming its path — `NaN`, `inf` and
//! `null` never reach a written file.
//!
//! Exports describe their rows once: `json_fields!(Cell; ranks, makespan)`
//! makes the struct's field names its JSON keys, so a key cannot drift
//! from the field it prints.

use std::fmt;

/// A JSON value. Objects keep insertion order (the artifacts are diffed
/// byte for byte), and integers stay integers (`u64` fingerprints do not
/// survive a trip through `f64`).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(&'static str, Json)>),
    /// Already-rendered JSON (a `TraceReport::to_json()` block), embedded
    /// verbatim and re-indented to its position.
    Raw(String),
}

/// A non-finite number (or an embedded block carrying a `null` value) at
/// `path`.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    pub path: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "non-finite number at {}", self.path)
    }
}

/// `obj! { "key": value, ... }` — an ordered [`Json::Obj`]; values are
/// anything `Json::from` accepts (scalars, strings, `Vec`s, references).
#[macro_export]
macro_rules! obj {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::json::Json::Obj(vec![$(($key, $crate::json::Json::from($value))),*])
    };
}

/// `fields!(value; a, b)` — the object `{"a": value.a, "b": value.b}`.
#[macro_export]
macro_rules! fields {
    ($value:expr; $($field:ident),+ $(,)?) => {
        $crate::json::Json::Obj(vec![
            $((stringify!($field), $crate::json::Json::from(&$value.$field))),+
        ])
    };
}

/// `json_fields!(Type; a, b)` — `Type` converts to the object of those
/// fields (and so do `Vec<Type>` and `&Type`).
#[macro_export]
macro_rules! json_fields {
    ($ty:ty; $($field:ident),+ $(,)?) => {
        impl From<$ty> for $crate::json::Json {
            fn from(v: $ty) -> Self {
                $crate::fields!(v; $($field),+)
            }
        }
    };
}

impl Json {
    /// Render the document (with its trailing newline).
    pub fn render(&self) -> Result<String, JsonError> {
        let mut out = String::new();
        self.write(&mut out, 0)?;
        out.push('\n');
        Ok(out)
    }

    /// The sweep rows of the document — every one-line object that sits in
    /// an array — each rendered on its own: the echo of what was written.
    pub fn rows(&self) -> Vec<String> {
        let in_array = matches!(self, Json::Arr(_));
        let mut rows = Vec::new();
        for (_, child) in self.children() {
            if in_array && matches!(child, Json::Obj(_)) && child.is_inline() {
                rows.extend(child.render().map(|row| row.trim_end().to_string()));
            } else {
                rows.extend(child.rows());
            }
        }
        rows
    }

    /// A container's children, each under its object key (array items have none).
    fn children(&self) -> Vec<(Option<&'static str>, &Json)> {
        match self {
            Json::Arr(items) => items.iter().map(|v| (None, v)).collect(),
            Json::Obj(fields) => fields.iter().map(|(k, v)| (Some(*k), v)).collect(),
            _ => Vec::new(),
        }
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Arr(_) | Json::Obj(_) | Json::Raw(_))
    }

    /// May sit inside a one-line container: a scalar or an array of them.
    fn is_flat(&self) -> bool {
        match self {
            Json::Arr(items) => items.iter().all(Json::is_scalar),
            other => other.is_scalar(),
        }
    }

    /// Does this container print on one line (every child flat)?
    fn is_inline(&self) -> bool {
        self.children().iter().all(|(_, v)| v.is_flat())
    }

    fn write(&self, out: &mut String, indent: usize) -> Result<(), JsonError> {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Num(v) if v.is_finite() => out.push_str(&v.to_string()),
            Json::Str(s) => write_str(out, s),
            Json::Raw(text) if !text.contains(": null") => {
                out.push_str(&text.replace('\n', &format!("\n{:indent$}", "")))
            }
            Json::Num(_) | Json::Raw(_) => return Err(JsonError { path: String::new() }),
            Json::Arr(_) | Json::Obj(_) => {
                let (open, close) =
                    if matches!(self, Json::Arr(_)) { ('[', ']') } else { ('{', '}') };
                let inline = self.is_inline();
                let break_line = |out: &mut String, indent: usize| {
                    if !inline {
                        out.push_str(&format!("\n{:indent$}", ""));
                    }
                };
                out.push(open);
                for (i, (key, child)) in self.children().into_iter().enumerate() {
                    if i > 0 {
                        out.push_str(if inline { ", " } else { "," });
                    }
                    break_line(out, indent + 2);
                    if let Some(key) = key {
                        write_str(out, key);
                        out.push_str(": ");
                    }
                    let label = key.map_or(format!("[{i}]"), str::to_string);
                    child.write(out, indent + 2).map_err(|e| JsonError {
                        path: if e.path.is_empty() { label } else { format!("{label}.{}", e.path) },
                    })?;
                }
                break_line(out, indent);
                out.push(close);
            }
        }
        Ok(())
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

macro_rules! json_from {
    ($($ty:ty => |$v:ident| $json:expr;)+) => {$(
        impl From<$ty> for Json {
            fn from($v: $ty) -> Json {
                $json
            }
        }
    )+};
}

json_from! {
    bool => |v| Json::Bool(v);
    u64 => |v| Json::Int(v);
    u32 => |v| Json::Int(u64::from(v));
    usize => |v| Json::Int(v as u64);
    f64 => |v| Json::Num(v);
    &str => |v| Json::Str(v.to_string());
    String => |v| Json::Str(v);
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl<T: Clone + Into<Json>> From<&T> for Json {
    fn from(v: &T) -> Json {
        v.clone().into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_rule_on_a_nested_sample() {
        let doc = obj! {
            "bench": 0u64,
            "workload": obj! { "scale": 10.0, "frames": 25u64 },
            "ranks": vec![8usize, 32],
            "rows": vec![
                obj! { "label": "4*B / 4 P.", "ours": vec![1.5, 2.0], "fp": u64::MAX },
                obj! { "label": "nested", "inner": obj! { "x": 0.25 } },
            ],
            "empty": Json::Arr(Vec::new()),
        };
        let want = "\
{
  \"bench\": 0,
  \"workload\": {\"scale\": 10, \"frames\": 25},
  \"ranks\": [8, 32],
  \"rows\": [
    {\"label\": \"4*B / 4 P.\", \"ours\": [1.5, 2], \"fp\": 18446744073709551615},
    {
      \"label\": \"nested\",
      \"inner\": {\"x\": 0.25}
    }
  ],
  \"empty\": []
}
";
        assert_eq!(doc.render().expect("finite sample"), want);
        let row = "{\"label\": \"4*B / 4 P.\", \"ours\": [1.5, 2], \"fp\": 18446744073709551615}";
        assert_eq!(doc.rows(), [row]);
    }

    #[test]
    fn raw_blocks_are_reindented_in_place() {
        let doc = obj! { "phases": Json::Raw("{\n  \"ranks\": 18\n}".to_string()) };
        assert_eq!(
            doc.render().expect("finite sample"),
            "{\n  \"phases\": {\n    \"ranks\": 18\n  }\n}\n"
        );
        let hidden = obj! { "phases": Json::Raw("{\"compute\": null}".to_string()) };
        assert_eq!(hidden.render().expect_err("null must not pass").path, "phases");
    }

    #[test]
    fn strings_are_escaped() {
        let doc = Json::from("a \"quoted\" back\\slash\nline\ttab \u{1}");
        assert_eq!(
            doc.render().expect("a string"),
            "\"a \\\"quoted\\\" back\\\\slash\\nline\\ttab \\u0001\"\n"
        );
    }

    #[test]
    fn non_finite_numbers_are_an_error_with_their_path() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let doc = obj! { "cells": vec![obj! { "ok": 1.0 }, obj! { "makespan": bad }] };
            let err = doc.render().expect_err("non-finite must not render");
            assert_eq!(err.path, "cells.[1].makespan");
            assert!(err.to_string().contains("cells.[1].makespan"), "{err}");
        }
    }
}
