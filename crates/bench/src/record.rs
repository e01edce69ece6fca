//! The one writer of the `BENCH_*.json` records and the gate collector
//! every gating binary ends with.
//!
//! A record is built as a [`Json`] value — keys in insertion order,
//! numbers with the decimals the caller asks for — and written by
//! [`Json::save`].  Nothing reads a record back: every gate is an absolute
//! bound held by [`Gates`].

use std::fmt::{self, Write as _};

/// A JSON value as a record holds it.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `true` or `false`.
    Bool(bool),
    /// A count, written as an integer.
    Count(u64),
    /// A measurement and the decimals to write it with; a non-finite value
    /// is written as `null`.
    Num(f64, usize),
    /// A string, escaped on writing.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object whose keys keep the order they were added in.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, to be filled with [`Json::with`].
    pub fn object() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` to an object.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    #[must_use]
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("`with` on a non-object {other:?}"),
        }
        self
    }

    /// Writes the value to `path`, one top-level key per line and one
    /// array element per line where the elements are objects or arrays,
    /// and says so on stdout (or why not on stderr).
    pub fn save(&self, path: &str) {
        match std::fs::write(path, format!("{self}\n")) {
            Ok(()) => println!("wrote {path}"),
            Err(err) => eprintln!("could not write {path}: {err}"),
        }
    }

    fn write(&self, out: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        match self {
            Json::Bool(b) => write!(out, "{b}"),
            Json::Count(n) => write!(out, "{n}"),
            Json::Num(x, decimals) if x.is_finite() => write!(out, "{x:.decimals$}"),
            Json::Num(..) => out.write_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                let broken = items
                    .iter()
                    .any(|v| matches!(v, Json::Arr(_) | Json::Obj(_)));
                let items = items.iter().map(|v| (None, v));
                write_list(out, ('[', ']'), indent, broken, items)
            }
            Json::Obj(fields) => {
                let fields = fields.iter().map(|(k, v)| (Some(k.as_str()), v));
                write_list(out, ('{', '}'), indent, indent == 0, fields)
            }
        }
    }
}

fn write_list<'a>(
    out: &mut fmt::Formatter<'_>,
    (open, close): (char, char),
    indent: usize,
    broken: bool,
    items: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
) -> fmt::Result {
    out.write_char(open)?;
    let mut empty = true;
    for (key, value) in items {
        if !empty {
            out.write_char(',')?;
        }
        if broken {
            write!(out, "\n{:1$}", "", indent + 2)?;
        } else if !empty {
            out.write_char(' ')?;
        }
        empty = false;
        if let Some(key) = key {
            write_str(out, key)?;
            out.write_str(": ")?;
        }
        value.write(out, indent + 2)?;
    }
    if broken && !empty {
        write!(out, "\n{:1$}", "", indent)?;
    }
    out.write_char(close)
}

fn write_str(out: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            c if u32::from(c) < 0x20 => write!(out, "\\u{:04x}", u32::from(c))?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Count(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Count(n as u64)
    }
}

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

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// Collects a binary's gate verdicts.
#[derive(Debug, Default)]
pub struct Gates {
    failures: Vec<String>,
}

impl Gates {
    /// Records `failure()` unless `ok`, and returns `ok`.
    pub fn check(&mut self, ok: bool, failure: impl FnOnce() -> String) -> bool {
        if !ok {
            self.failures.push(failure());
        }
        ok
    }

    /// Records failures found elsewhere.
    pub fn extend(&mut self, failures: impl IntoIterator<Item = String>) {
        self.failures.extend(failures);
    }

    /// The failures recorded so far.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Prints every failure as a `FAIL:` line and exits 1, or prints
    /// `PASS: {pass}` when there is none.
    pub fn finish(self, pass: &str) {
        for failure in &self.failures {
            eprintln!("FAIL: {failure}");
        }
        if !self.failures.is_empty() {
            std::process::exit(1);
        }
        println!("PASS: {pass}");
    }
}

#[cfg(test)]
mod tests {
    use super::{Gates, Json};

    #[test]
    fn strings_are_escaped() {
        let s = Json::from("a \"q\" \\ b\nc\u{1}d");
        assert_eq!(s.to_string(), r#""a \"q\" \\ b\nc\u0001d""#);
    }

    #[test]
    fn numbers_keep_their_decimals_and_non_finite_ones_are_null() {
        assert_eq!(Json::Num(1.23456, 2).to_string(), "1.23");
        assert_eq!(Json::Num(2.0, 3).to_string(), "2.000");
        assert_eq!(Json::Num(7.6, 0).to_string(), "8");
        assert_eq!(Json::Num(f64::NAN, 1).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY, 1).to_string(), "null");
        assert_eq!(Json::from(42u64).to_string(), "42");
    }

    #[test]
    fn nesting_keeps_insertion_order_and_breaks_only_rows() {
        let row = |n: u64| Json::object().with("z", n).with("a", vec![n, n + 1]);
        let record = Json::object()
            .with("name", "x")
            .with("rows", vec![row(1), row(2)])
            .with("inner", Json::object().with("ok", true))
            .with("empty", Vec::<u64>::new());
        assert_eq!(
            record.to_string(),
            "{\n  \"name\": \"x\",\n  \"rows\": [\n    {\"z\": 1, \"a\": [1, 2]},\n    \
             {\"z\": 2, \"a\": [2, 3]}\n  ],\n  \"inner\": {\"ok\": true},\n  \"empty\": []\n}"
        );
    }

    #[test]
    fn gates_collect_failures_without_exiting() {
        let mut gates = Gates::default();
        assert!(gates.check(true, || unreachable!("a passing check builds no message")));
        assert!(!gates.check(false, || "first".to_string()));
        gates.extend(["second".to_string()]);
        assert_eq!(gates.failures(), ["first", "second"]);
    }
}
