//! A minimal TOML reader/writer over [`serde::Value`].
//!
//! The build environment is offline, so no external TOML crate is
//! available; this module implements the subset of TOML 1.0 the scenario
//! corpus needs, mapping documents onto the vendored [`serde::Value`]
//! tree so every `#[derive(Serialize, Deserialize)]` type works with
//! TOML for free:
//!
//! * `[table]` and `[[array-of-tables]]` headers with dotted keys;
//! * dotted keys in assignments;
//! * basic (`"…"` with escapes) and literal (`'…'`) strings;
//! * integers (with `_` separators), floats, booleans;
//! * arrays (possibly multi-line, heterogeneous) and inline tables;
//! * `#` comments.
//!
//! Numbers follow the same convention as the vendored `serde_json`:
//! non-negative integers parse to [`serde::Value::UInt`], negative to
//! `Int`, anything with `.`/`e` to `Float` — and the writer always gives
//! floats a decimal point so they re-parse as floats. Round-tripping a
//! value tree through [`to_toml`]/[`parse_toml`] is therefore lossless
//! for everything the derive macros emit, except that `Null` map entries
//! are *omitted* (TOML has no null), which matches how `Option` fields
//! deserialize: an absent key is `None`.

use serde::Value;
use std::fmt;

/// A TOML syntax error with a 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TomlError {
    /// Line the error was detected on.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TOML line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TomlError {}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Parses a TOML document into a [`Value::Map`] tree.
///
/// # Errors
///
/// Returns a [`TomlError`] with the offending line on any syntax error,
/// duplicate key, or unsupported construct.
pub(crate) fn parse_toml(src: &str) -> Result<Value, TomlError> {
    let mut p = Parser {
        chars: src.chars().collect(),
        i: 0,
        line: 1,
    };
    let mut root = Value::Map(Vec::new());
    // Path of the current table header; assignments land under it.
    let mut table: Vec<String> = Vec::new();
    loop {
        p.skip_trivia();
        if p.at_end() {
            break;
        }
        if p.peek() == Some('[') {
            p.bump();
            let array = p.peek() == Some('[');
            if array {
                p.bump();
            }
            let path = p.parse_key_path()?;
            p.expect(']')?;
            if array {
                p.expect(']')?;
            }
            p.expect_line_end()?;
            if array {
                let seq = navigate_seq(&mut root, &path, p.line)?;
                seq.push(Value::Map(Vec::new()));
            } else {
                navigate_map(&mut root, &path, p.line)?;
            }
            table = path;
        } else {
            let key_path = p.parse_key_path()?;
            p.expect('=')?;
            p.skip_spaces();
            let value = p.parse_value()?;
            p.expect_line_end()?;
            let full: Vec<String> = table.iter().chain(&key_path).cloned().collect();
            let (parent, last) = full.split_at(full.len() - 1);
            let map = navigate_map(&mut root, parent, p.line)?;
            let key = &last[0];
            if map.iter().any(|(k, _)| k == key) {
                return Err(TomlError {
                    line: p.line,
                    message: format!("duplicate key `{key}`"),
                });
            }
            map.push((key.clone(), value));
        }
    }
    Ok(root)
}

/// Walks `path` from `root`, creating maps as needed, and returns the map
/// at the end. Array-of-table nodes are entered through their last
/// element (TOML's "most recently defined table" rule).
fn navigate_map<'a>(
    root: &'a mut Value,
    path: &[String],
    line: usize,
) -> Result<&'a mut Vec<(String, Value)>, TomlError> {
    let mut node = root;
    for seg in path {
        // Two-phase borrow: find the entry index, then descend.
        let map = as_map_mut(node, seg, line)?;
        let idx = match map.iter().position(|(k, _)| k == seg) {
            Some(i) => i,
            None => {
                map.push((seg.clone(), Value::Map(Vec::new())));
                map.len() - 1
            }
        };
        node = &mut map[idx].1;
        if let Value::Seq(items) = node {
            node = items.last_mut().ok_or_else(|| TomlError {
                line,
                message: format!("array of tables `{seg}` has no element yet"),
            })?;
        }
    }
    match node {
        Value::Map(m) => Ok(m),
        _ => Err(TomlError {
            line,
            message: format!("`{}` is not a table", path.join(".")),
        }),
    }
}

/// Walks to the parent of `path`, then returns the `Seq` at its last
/// segment, creating it if missing.
fn navigate_seq<'a>(
    root: &'a mut Value,
    path: &[String],
    line: usize,
) -> Result<&'a mut Vec<Value>, TomlError> {
    let (parent, last) = path.split_at(path.len() - 1);
    let map = navigate_map(root, parent, line)?;
    let key = &last[0];
    let idx = match map.iter().position(|(k, _)| k == key) {
        Some(i) => i,
        None => {
            map.push((key.clone(), Value::Seq(Vec::new())));
            map.len() - 1
        }
    };
    match &mut map[idx].1 {
        Value::Seq(items) => Ok(items),
        _ => Err(TomlError {
            line,
            message: format!("`{key}` is not an array of tables"),
        }),
    }
}

fn as_map_mut<'a>(
    node: &'a mut Value,
    seg: &str,
    line: usize,
) -> Result<&'a mut Vec<(String, Value)>, TomlError> {
    match node {
        Value::Map(m) => Ok(m),
        _ => Err(TomlError {
            line,
            message: format!("`{seg}` addresses into a non-table value"),
        }),
    }
}

struct Parser {
    chars: Vec<char>,
    i: usize,
    line: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.i >= self.chars.len()
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.i).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c == Some('\n') {
            self.line += 1;
        }
        if c.is_some() {
            self.i += 1;
        }
        c
    }

    fn err(&self, message: impl Into<String>) -> TomlError {
        TomlError {
            line: self.line,
            message: message.into(),
        }
    }

    /// Skips spaces and tabs on the current line.
    fn skip_spaces(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t')) {
            self.bump();
        }
    }

    /// Skips whitespace, newlines, and comments.
    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(' ' | '\t' | '\r' | '\n') => {
                    self.bump();
                }
                Some('#') => {
                    while !matches!(self.peek(), None | Some('\n')) {
                        self.bump();
                    }
                }
                _ => break,
            }
        }
    }

    fn expect(&mut self, c: char) -> Result<(), TomlError> {
        self.skip_spaces();
        if self.peek() == Some(c) {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!(
                "expected `{c}`, found {}",
                self.peek()
                    .map_or_else(|| "end of input".into(), |f| format!("`{f}`"))
            )))
        }
    }

    /// Consumes trailing spaces/comment and the end of the line (or file).
    fn expect_line_end(&mut self) -> Result<(), TomlError> {
        self.skip_spaces();
        if self.peek() == Some('#') {
            while !matches!(self.peek(), None | Some('\n')) {
                self.bump();
            }
        }
        match self.peek() {
            None => Ok(()),
            Some('\n') => {
                self.bump();
                Ok(())
            }
            Some('\r') => {
                self.bump();
                if self.peek() == Some('\n') {
                    self.bump();
                }
                Ok(())
            }
            Some(c) => Err(self.err(format!("unexpected `{c}` after value"))),
        }
    }

    /// A dotted key path: `a.b."quoted c"`.
    fn parse_key_path(&mut self) -> Result<Vec<String>, TomlError> {
        let mut path = Vec::new();
        loop {
            self.skip_spaces();
            path.push(self.parse_key()?);
            self.skip_spaces();
            if self.peek() == Some('.') {
                self.bump();
            } else {
                return Ok(path);
            }
        }
    }

    fn parse_key(&mut self) -> Result<String, TomlError> {
        match self.peek() {
            Some('"') => self.parse_basic_string(),
            Some('\'') => self.parse_literal_string(),
            _ => {
                let mut key = String::new();
                while let Some(c) = self.peek() {
                    if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                        key.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
                if key.is_empty() {
                    Err(self.err("expected a key"))
                } else {
                    Ok(key)
                }
            }
        }
    }

    fn parse_value(&mut self) -> Result<Value, TomlError> {
        match self.peek() {
            Some('"') => Ok(Value::Str(self.parse_basic_string()?)),
            Some('\'') => Ok(Value::Str(self.parse_literal_string()?)),
            Some('[') => self.parse_array(),
            Some('{') => self.parse_inline_table(),
            Some('t' | 'f') => self.parse_bool(),
            Some(c) if c.is_ascii_digit() || c == '-' || c == '+' => self.parse_number(),
            Some(c) => Err(self.err(format!("unexpected `{c}` where a value was expected"))),
            None => Err(self.err("unexpected end of input where a value was expected")),
        }
    }

    fn parse_basic_string(&mut self) -> Result<String, TomlError> {
        self.bump(); // opening quote
        let mut s = String::new();
        loop {
            match self.bump() {
                None | Some('\n') => return Err(self.err("unterminated string")),
                Some('"') => return Ok(s),
                Some('\\') => match self.bump() {
                    Some('b') => s.push('\u{0008}'),
                    Some('t') => s.push('\t'),
                    Some('n') => s.push('\n'),
                    Some('f') => s.push('\u{000C}'),
                    Some('r') => s.push('\r'),
                    Some('"') => s.push('"'),
                    Some('\\') => s.push('\\'),
                    Some('u') => s.push(self.parse_unicode_escape(4)?),
                    Some('U') => s.push(self.parse_unicode_escape(8)?),
                    other => {
                        return Err(self.err(format!("unsupported escape `\\{:?}`", other)));
                    }
                },
                Some(c) => s.push(c),
            }
        }
    }

    fn parse_unicode_escape(&mut self, digits: usize) -> Result<char, TomlError> {
        let mut code = 0u32;
        for _ in 0..digits {
            let c = self
                .bump()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = c
                .to_digit(16)
                .ok_or_else(|| self.err(format!("bad hex digit `{c}` in \\u escape")))?;
            code = code * 16 + d;
        }
        char::from_u32(code).ok_or_else(|| self.err(format!("invalid scalar value U+{code:X}")))
    }

    fn parse_literal_string(&mut self) -> Result<String, TomlError> {
        self.bump(); // opening quote
        let mut s = String::new();
        loop {
            match self.bump() {
                None | Some('\n') => return Err(self.err("unterminated literal string")),
                Some('\'') => return Ok(s),
                Some(c) => s.push(c),
            }
        }
    }

    fn parse_bool(&mut self) -> Result<Value, TomlError> {
        let mut word = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_alphabetic() {
                word.push(c);
                self.bump();
            } else {
                break;
            }
        }
        match word.as_str() {
            "true" => Ok(Value::Bool(true)),
            "false" => Ok(Value::Bool(false)),
            other => Err(self.err(format!("expected a boolean, found `{other}`"))),
        }
    }

    fn parse_number(&mut self) -> Result<Value, TomlError> {
        let mut text = String::new();
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                '0'..='9' | '-' | '+' => text.push(c),
                '_' => {} // digit separator
                '.' => {
                    is_float = true;
                    text.push(c);
                }
                'e' | 'E' => {
                    is_float = true;
                    text.push(c);
                }
                _ => break,
            }
            self.bump();
        }
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err(format!("bad float `{text}`")))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| self.err(format!("bad integer `{text}`")))
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                .map_err(|_| self.err(format!("bad integer `{text}`")))
        }
    }

    fn parse_array(&mut self) -> Result<Value, TomlError> {
        self.bump(); // '['
        let mut items = Vec::new();
        loop {
            self.skip_trivia();
            if self.peek() == Some(']') {
                self.bump();
                return Ok(Value::Seq(items));
            }
            items.push(self.parse_value()?);
            self.skip_trivia();
            match self.peek() {
                Some(',') => {
                    self.bump();
                }
                Some(']') => {}
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_inline_table(&mut self) -> Result<Value, TomlError> {
        self.bump(); // '{'
        let mut map = Vec::new();
        self.skip_spaces();
        if self.peek() == Some('}') {
            self.bump();
            return Ok(Value::Map(map));
        }
        loop {
            self.skip_spaces();
            let key = self.parse_key()?;
            self.expect('=')?;
            self.skip_spaces();
            let value = self.parse_value()?;
            if map.iter().any(|(k, _): &(String, Value)| *k == key) {
                return Err(self.err(format!("duplicate key `{key}` in inline table")));
            }
            map.push((key, value));
            self.skip_spaces();
            match self.bump() {
                Some(',') => {}
                Some('}') => return Ok(Value::Map(map)),
                _ => return Err(self.err("expected `,` or `}` in inline table")),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Serialises a [`Value::Map`] tree as a TOML document.
///
/// `Null` map entries are omitted (how `Option::None` fields serialise);
/// sub-maps become `[section]` headers; arrays whose elements are all
/// maps become `[[section]]` headers; everything else renders inline.
///
/// # Errors
///
/// Returns an error when the root is not a map or a `Null` appears
/// inside an array (TOML cannot represent either).
pub(crate) fn to_toml(value: &Value) -> Result<String, TomlError> {
    let map = match value {
        Value::Map(m) => m,
        _ => {
            return Err(TomlError {
                line: 0,
                message: "top-level TOML value must be a table".into(),
            })
        }
    };
    let mut out = String::new();
    emit_table(&mut out, &mut Vec::new(), map)?;
    Ok(out)
}

fn emit_table(
    out: &mut String,
    path: &mut Vec<String>,
    map: &[(String, Value)],
) -> Result<(), TomlError> {
    // Scalars and inline arrays first: TOML assigns them to the current
    // table, so they must precede any sub-table header.
    for (key, value) in map {
        match value {
            Value::Null | Value::Map(_) => {}
            Value::Seq(items) if is_table_array(items) => {}
            _ => {
                out.push_str(&format!(
                    "{} = {}\n",
                    render_key(key),
                    render_inline(value)?
                ));
            }
        }
    }
    for (key, value) in map {
        match value {
            Value::Map(m) => {
                path.push(key.clone());
                push_header(out, path, false);
                emit_table(out, path, m)?;
                path.pop();
            }
            Value::Seq(items) if is_table_array(items) => {
                path.push(key.clone());
                for item in items {
                    let m = match item {
                        Value::Map(m) => m,
                        _ => unreachable!("is_table_array checked every element"),
                    };
                    push_header(out, path, true);
                    emit_table(out, path, m)?;
                }
                path.pop();
            }
            _ => {}
        }
    }
    Ok(())
}

fn push_header(out: &mut String, path: &[String], array: bool) {
    if !out.is_empty() {
        out.push('\n');
    }
    let dotted: Vec<String> = path.iter().map(|s| render_key(s)).collect();
    if array {
        out.push_str(&format!("[[{}]]\n", dotted.join(".")));
    } else {
        out.push_str(&format!("[{}]\n", dotted.join(".")));
    }
}

fn is_table_array(items: &[Value]) -> bool {
    !items.is_empty() && items.iter().all(|v| matches!(v, Value::Map(_)))
}

fn render_key(key: &str) -> String {
    let bare = !key.is_empty()
        && key
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
    if bare {
        key.to_string()
    } else {
        render_str(key)
    }
}

fn render_inline(value: &Value) -> Result<String, TomlError> {
    match value {
        Value::Null => Err(TomlError {
            line: 0,
            message: "TOML cannot represent null inside an array".into(),
        }),
        Value::Bool(b) => Ok(b.to_string()),
        Value::Int(n) => Ok(n.to_string()),
        Value::UInt(n) => Ok(n.to_string()),
        Value::Float(x) => Ok(render_float(*x)),
        Value::Str(s) => Ok(render_str(s)),
        Value::Seq(items) => {
            let rendered: Result<Vec<String>, TomlError> =
                items.iter().map(render_inline).collect();
            Ok(format!("[{}]", rendered?.join(", ")))
        }
        Value::Map(entries) => {
            let rendered: Result<Vec<String>, TomlError> = entries
                .iter()
                .filter(|(_, v)| !matches!(v, Value::Null))
                .map(|(k, v)| Ok(format!("{} = {}", render_key(k), render_inline(v)?)))
                .collect();
            Ok(format!("{{ {} }}", rendered?.join(", ")))
        }
    }
}

/// Floats always carry a decimal point (or exponent) so they re-parse as
/// [`Value::Float`] — the same rule the vendored `serde_json` uses, which
/// makes TOML and JSON round-trips agree bit-for-bit.
fn render_float(x: f64) -> String {
    let mut s = format!("{x}");
    if !s.contains('.') && !s.contains('e') && !s.contains("inf") && !s.contains("NaN") {
        s.push_str(".0");
    }
    s
}

fn render_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04X}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get<'a>(v: &'a Value, path: &str) -> &'a Value {
        let mut node = v;
        for seg in path.split('.') {
            node = node.get(seg).unwrap_or_else(|| panic!("missing {seg}"));
        }
        node
    }

    #[test]
    fn parses_scalars_tables_and_arrays() {
        let doc = r#"
# a comment
name = "fig4"          # trailing comment
count = 42
offset = -7
rate = 0.19
big = 1_000_000
flag = true

[experiment.Sweep]
x_label = "M (bytes)"
values = [50, 100, 1000]
nested = [[0, 16.0], [60000000, 32.0]]
inline = { min = 1.0, max = 10.0 }

[[experiment.Sweep.series]]
label = "at-most-once"

[[experiment.Sweep.series]]
label = "B=2, at-least-once"
"#;
        let v = parse_toml(doc).unwrap();
        assert_eq!(get(&v, "name").as_str(), Some("fig4"));
        assert_eq!(get(&v, "count").as_u64(), Some(42));
        assert_eq!(get(&v, "offset").as_i64(), Some(-7));
        assert_eq!(get(&v, "rate").as_f64(), Some(0.19));
        assert_eq!(get(&v, "big").as_u64(), Some(1_000_000));
        assert_eq!(get(&v, "flag").as_bool(), Some(true));
        assert_eq!(
            get(&v, "experiment.Sweep.x_label").as_str(),
            Some("M (bytes)")
        );
        assert_eq!(
            get(&v, "experiment.Sweep.values").as_seq().unwrap().len(),
            3
        );
        let nested = get(&v, "experiment.Sweep.nested").as_seq().unwrap();
        assert_eq!(nested[1].as_seq().unwrap()[1].as_f64(), Some(32.0));
        assert_eq!(get(&v, "experiment.Sweep.inline.max").as_f64(), Some(10.0));
        let series = get(&v, "experiment.Sweep.series").as_seq().unwrap();
        assert_eq!(series.len(), 2);
        assert_eq!(
            series[1].get("label").unwrap().as_str(),
            Some("B=2, at-least-once")
        );
    }

    #[test]
    fn rejects_duplicates_and_garbage() {
        assert!(parse_toml("a = 1\na = 2\n").is_err());
        assert!(parse_toml("a = \n").is_err());
        assert!(parse_toml("a = 1 extra\n").is_err());
        assert!(parse_toml("[table\n").is_err());
        let err = parse_toml("ok = 1\nbad = @\n").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn float_and_int_spaces_are_kept_apart() {
        let v = parse_toml("a = 2\nb = 2.0\nc = -2\n").unwrap();
        assert!(matches!(get(&v, "a"), Value::UInt(2)));
        assert!(matches!(get(&v, "b"), Value::Float(_)));
        assert!(matches!(get(&v, "c"), Value::Int(-2)));
    }

    #[test]
    fn writer_round_trips_a_tree() {
        let doc = r#"
title = "round trip"
rate = 0.3
n = 120

[inner]
flag = false
weights = [0.1, 0.2, 0.7]

[[inner.rows]]
label = "a \"quoted\" one"
x = 1.5

[[inner.rows]]
label = "plain"
x = 2.0

[inner.rows.extra]
deep = true
"#;
        let v = parse_toml(doc).unwrap();
        let text = to_toml(&v).unwrap();
        let reparsed = parse_toml(&text).unwrap();
        assert_eq!(v, reparsed, "written form:\n{text}");
    }

    #[test]
    fn writer_omits_null_map_entries() {
        let v = Value::Map(vec![
            ("present".into(), Value::UInt(1)),
            ("absent".into(), Value::Null),
        ]);
        let text = to_toml(&v).unwrap();
        assert!(!text.contains("absent"), "{text}");
        let back = parse_toml(&text).unwrap();
        assert!(back.get("absent").is_none() || back.get("absent").unwrap().is_null());
    }

    #[test]
    fn writer_floats_reparse_as_floats() {
        let v = Value::Map(vec![("x".into(), Value::Float(2.0))]);
        let text = to_toml(&v).unwrap();
        assert!(text.contains("2.0"), "{text}");
        let back = parse_toml(&text).unwrap();
        assert!(matches!(back.get("x"), Some(Value::Float(f)) if *f == 2.0));
    }

    #[test]
    fn empty_arrays_render_inline() {
        let v = Value::Map(vec![("faults".into(), Value::Seq(Vec::new()))]);
        let text = to_toml(&v).unwrap();
        assert!(text.contains("faults = []"), "{text}");
        assert_eq!(parse_toml(&text).unwrap(), v);
    }
}
