//! A deliberately tiny TOML-subset parser for campaign configs.
//!
//! The build environment has no registry access, so the campaign
//! config format sticks to the subset a few dozen lines can parse
//! exactly: `[section]` headers, `key = value` pairs where a value is
//! an integer, a boolean, a `"string"` (with `\"` and `\\` escapes),
//! or a flat array of those scalars, plus `#` comments (full-line or
//! trailing). Every error carries its 1-based line number.
//!
//! ```
//! use qgov_cli::minitoml::{Document, Value};
//!
//! let doc = Document::parse(
//!     "[campaign]\nname = \"demo\" # a comment\nseeds = [1, 2, 3]\n",
//! )
//! .unwrap();
//! assert_eq!(doc.get("campaign", "name"), Some(&Value::Str("demo".into())));
//! ```

use std::fmt;

/// A parsed scalar or flat array value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An integer literal.
    Integer(i64),
    /// A `true`/`false` literal.
    Bool(bool),
    /// A double-quoted string.
    Str(String),
    /// A flat array of scalars.
    Array(Vec<Value>),
}

impl Value {
    /// The value's type name for diagnostics.
    #[must_use]
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Integer(_) => "integer",
            Value::Bool(_) => "boolean",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
        }
    }

    /// The integer payload, if this is an integer.
    #[must_use]
    pub fn as_integer(&self) -> Option<i64> {
        match self {
            Value::Integer(n) => Some(*n),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element slice, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// A parse failure at a 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line the error was detected on.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TOML line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// One `key = value` entry with its section and source line.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// The `[section]` the entry appeared under (empty before any
    /// section header).
    pub section: String,
    /// The bare key.
    pub key: String,
    /// The parsed value.
    pub value: Value,
    /// 1-based source line of the entry.
    pub line: usize,
}

/// A parsed document: every entry in source order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Document {
    entries: Vec<Entry>,
}

impl Document {
    /// Parses `text`.
    ///
    /// # Errors
    ///
    /// Returns a line-numbered [`ParseError`] on the first malformed
    /// line, duplicate key within a section, or unterminated
    /// string/array.
    pub fn parse(text: &str) -> Result<Document, ParseError> {
        let mut entries: Vec<Entry> = Vec::new();
        let mut section = String::new();
        for (index, raw) in text.lines().enumerate() {
            let line = index + 1;
            let err = |message: String| ParseError { line, message };
            let stripped = strip_comment(raw).map_err(err)?;
            let stripped = stripped.trim();
            if stripped.is_empty() {
                continue;
            }
            if let Some(rest) = stripped.strip_prefix('[') {
                let Some(name) = rest.strip_suffix(']') else {
                    return Err(ParseError {
                        line,
                        message: format!("unterminated section header {stripped:?}"),
                    });
                };
                let name = name.trim();
                if name.is_empty() || !name.chars().all(is_bare_char) {
                    return Err(ParseError {
                        line,
                        message: format!("invalid section name {name:?}"),
                    });
                }
                section = name.to_owned();
                continue;
            }
            let Some((key, value)) = stripped.split_once('=') else {
                return Err(ParseError {
                    line,
                    message: format!("expected `key = value` or `[section]`, got {stripped:?}"),
                });
            };
            let key = key.trim();
            if key.is_empty() || !key.chars().all(is_bare_char) {
                return Err(ParseError {
                    line,
                    message: format!("invalid key {key:?}"),
                });
            }
            if entries.iter().any(|e| e.section == section && e.key == key) {
                return Err(ParseError {
                    line,
                    message: format!("duplicate key {key:?} in section [{section}]"),
                });
            }
            let value = parse_value(value.trim()).map_err(err)?;
            entries.push(Entry {
                section: section.clone(),
                key: key.to_owned(),
                value,
                line,
            });
        }
        Ok(Document { entries })
    }

    /// The value of `key` under `[section]`, if present.
    #[must_use]
    pub fn get(&self, section: &str, key: &str) -> Option<&Value> {
        self.entries
            .iter()
            .find(|e| e.section == section && e.key == key)
            .map(|e| &e.value)
    }

    /// Every entry, in source order.
    #[must_use]
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }
}

fn is_bare_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.'
}

/// Drops a trailing `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> Result<String, String> {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars();
    let mut in_string = false;
    while let Some(c) = chars.next() {
        match c {
            '#' if !in_string => break,
            '"' => {
                in_string = !in_string;
                out.push(c);
            }
            '\\' if in_string => {
                out.push(c);
                match chars.next() {
                    Some(escaped) => out.push(escaped),
                    None => return Err("unterminated escape in string".to_owned()),
                }
            }
            _ => out.push(c),
        }
    }
    if in_string {
        return Err("unterminated string".to_owned());
    }
    Ok(out)
}

fn parse_value(text: &str) -> Result<Value, String> {
    if text.is_empty() {
        return Err("missing value".to_owned());
    }
    if let Some(body) = text.strip_prefix('[') {
        let Some(body) = body.strip_suffix(']') else {
            return Err(format!("unterminated array {text:?}"));
        };
        let mut items = Vec::new();
        for element in split_elements(body)? {
            let element = element.trim();
            if element.is_empty() {
                continue; // trailing comma
            }
            let item = parse_value(element)?;
            if matches!(item, Value::Array(_)) {
                return Err("nested arrays are not supported".to_owned());
            }
            items.push(item);
        }
        return Ok(Value::Array(items));
    }
    parse_scalar(text)
}

fn parse_scalar(text: &str) -> Result<Value, String> {
    if let Some(body) = text.strip_prefix('"') {
        let Some(body) = body.strip_suffix('"') else {
            return Err(format!("unterminated string {text:?}"));
        };
        let mut out = String::with_capacity(body.len());
        let mut chars = body.chars();
        while let Some(c) = chars.next() {
            if c == '\\' {
                match chars.next() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    other => return Err(format!("unsupported escape \\{other:?}")),
                }
            } else if c == '"' {
                return Err(format!("stray quote inside string {text:?}"));
            } else {
                out.push(c);
            }
        }
        return Ok(Value::Str(out));
    }
    match text {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    text.parse::<i64>()
        .map(Value::Integer)
        .map_err(|_| format!("expected an integer, boolean, \"string\" or [array], got {text:?}"))
}

/// Splits array body text at top-level commas, respecting strings.
fn split_elements(body: &str) -> Result<Vec<String>, String> {
    let mut elements = Vec::new();
    let mut current = String::new();
    let mut chars = body.chars();
    let mut in_string = false;
    while let Some(c) = chars.next() {
        match c {
            ',' if !in_string => {
                elements.push(std::mem::take(&mut current));
            }
            '"' => {
                in_string = !in_string;
                current.push(c);
            }
            '\\' if in_string => {
                current.push(c);
                match chars.next() {
                    Some(escaped) => current.push(escaped),
                    None => return Err("unterminated escape in string".to_owned()),
                }
            }
            _ => current.push(c),
        }
    }
    if in_string {
        return Err("unterminated string in array".to_owned());
    }
    elements.push(current);
    Ok(elements)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_scalars_and_arrays() {
        let doc = Document::parse(
            "# leading comment\n\
             [campaign]\n\
             name = \"demo run\" # trailing\n\
             frames = 1200\n\
             dry = false\n\
             seeds = [1, 2, 3,]\n\
             tags = [\"a\", \"b#c\"]\n",
        )
        .unwrap();
        assert_eq!(
            doc.get("campaign", "name"),
            Some(&Value::Str("demo run".into()))
        );
        assert_eq!(doc.get("campaign", "frames"), Some(&Value::Integer(1200)));
        assert_eq!(doc.get("campaign", "dry"), Some(&Value::Bool(false)));
        assert_eq!(
            doc.get("campaign", "seeds"),
            Some(&Value::Array(vec![
                Value::Integer(1),
                Value::Integer(2),
                Value::Integer(3)
            ]))
        );
        assert_eq!(
            doc.get("campaign", "tags"),
            Some(&Value::Array(vec![
                Value::Str("a".into()),
                Value::Str("b#c".into())
            ]))
        );
        assert_eq!(doc.get("campaign", "missing"), None);
        assert_eq!(doc.get("other", "name"), None);
    }

    #[test]
    fn string_escapes_round_trip() {
        let doc = Document::parse("k = \"a\\\"b\\\\c\"\n").unwrap();
        assert_eq!(doc.get("", "k"), Some(&Value::Str("a\"b\\c".into())));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = Document::parse("[campaign]\nframes 1200\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("key = value"), "{}", err.message);

        let err = Document::parse("x = 1\nx = 2\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("duplicate"), "{}", err.message);

        let err = Document::parse("[oops\n").unwrap_err();
        assert_eq!(err.line, 1);

        let err = Document::parse("k = \"open\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("unterminated"), "{}", err.message);

        let err = Document::parse("k = 1.5\n").unwrap_err();
        assert!(
            err.message.contains("expected an integer"),
            "{}",
            err.message
        );
    }

    #[test]
    fn nested_arrays_are_rejected() {
        let err = Document::parse("k = [[1], 2]\n").unwrap_err();
        assert!(err.message.contains("nested"), "{}", err.message);
    }
}
