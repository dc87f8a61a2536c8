//! The pinned lint manifest (`lint.toml`), hand-parsed.
//!
//! The workspace vendors no crates.io code, so the manifest is read by a
//! small parser covering exactly the TOML subset the lint needs:
//! `[section]` / `[section."quoted key"]` headers, `key = <integer>`,
//! `key = "<string>"`, and `key = [ "a", "b", … ]` arrays (single- or
//! multi-line), with `#` comments.
//!
//! ## Sections
//!
//! * `[pins."<repo-relative file>"]` — append-only tag pins for that
//!   file. Bare keys pin `const NAME: <ty> = <int>;` declarations
//!   (e.g. `FORMAT_VERSION = 1`); quoted `"Enum::Variant"` keys pin
//!   match-arm encodings (`Enum::Variant => <int>`) and explicit enum
//!   discriminants (`Variant = <int>` inside `enum Enum`). The
//!   `tag-drift` rule fails if a pinned value changed, a pinned name
//!   disappeared, or an *unpinned* int-valued arm appeared for a pinned
//!   enum (appending a tag must update the manifest in the same PR).
//! * `[retired."<repo-relative file>"]` — tags that were pinned once and
//!   whose variant is gone, in the same `key = <int>` syntax. A retired
//!   value is reserved forever: the `tag-drift` rule fails if a retired
//!   name reappears in that file, or if any tag of the same enum takes a
//!   retired value (or a value another pinned name of that enum holds),
//!   so new tags can never alias the cache keys of old blobs.
//! * `[panic-path]` — `paths` lists the file prefixes the panic-path
//!   rule applies to; `allow-expect` lists the `expect("…")` invariant
//!   messages allowed there.
//! * `[unbounded-channel]` — `paths` lists the file prefixes where
//!   unbounded `channel()` constructors are forbidden.

use std::collections::BTreeMap;

/// One file's pinned tag values, in manifest order.
#[derive(Debug, Clone, Default)]
pub struct PinFile {
    /// Repo-relative path (forward slashes) the pins apply to.
    pub file: String,
    /// `(name, pinned value)` — a bare const name or `Enum::Variant`.
    pub pins: Vec<(String, i64)>,
}

/// Parsed manifest contents; see the module docs for the schema.
#[derive(Debug, Clone, Default)]
pub struct Manifest {
    /// Tag pins grouped by file.
    pub pins: Vec<PinFile>,
    /// Retired (reserved, never reused) tag values grouped by file.
    pub retired: Vec<PinFile>,
    /// File prefixes the panic-path rule applies to.
    pub panic_paths: Vec<String>,
    /// `expect` messages allowlisted as documented invariants.
    pub allow_expect: Vec<String>,
    /// File prefixes the unbounded-channel rule applies to.
    pub channel_paths: Vec<String>,
}

/// A manifest parse failure, with its line number.
#[derive(Debug)]
pub struct ManifestError {
    /// 1-based line the error was found on.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lint manifest line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ManifestError {}

#[derive(Debug, PartialEq)]
enum Value {
    Int(i64),
    Str(String),
    List(Vec<String>),
}

impl Manifest {
    /// Parses manifest text.
    ///
    /// # Errors
    ///
    /// Returns [`ManifestError`] on malformed headers, keys, or values.
    pub fn parse(text: &str) -> Result<Manifest, ManifestError> {
        let mut manifest = Manifest::default();
        // section name -> ordered key/value pairs
        let mut sections: BTreeMap<String, Vec<(String, Value, usize)>> = BTreeMap::new();
        let mut current = String::new();
        let mut lines = text.lines().enumerate().peekable();
        while let Some((idx, raw)) = lines.next() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let inner = rest.strip_suffix(']').ok_or_else(|| ManifestError {
                    line: lineno,
                    message: format!("unterminated section header `{line}`"),
                })?;
                current = parse_section_name(inner, lineno)?;
                sections.entry(current.clone()).or_default();
                continue;
            }
            let (key, mut rest) = split_key(&line, lineno)?;
            // multi-line array: keep consuming lines until the `]`
            if rest.starts_with('[') && !rest.contains(']') {
                let mut acc = rest.to_string();
                for (_, cont) in lines.by_ref() {
                    let cont = strip_comment(cont).trim().to_string();
                    acc.push(' ');
                    acc.push_str(&cont);
                    if cont.contains(']') {
                        break;
                    }
                }
                if !acc.contains(']') {
                    return Err(ManifestError {
                        line: lineno,
                        message: format!("unterminated array for key `{key}`"),
                    });
                }
                rest = Box::leak(acc.into_boxed_str());
            }
            let value = parse_value(rest, lineno)?;
            sections.entry(current.clone()).or_default().push((key, value, lineno));
        }
        for (section, entries) in sections {
            if let Some(file) = section.strip_prefix("pins.") {
                manifest.pins.push(pin_file(file, entries)?);
            } else if let Some(file) = section.strip_prefix("retired.") {
                manifest.retired.push(pin_file(file, entries)?);
            } else if section == "panic-path" {
                for (key, value, lineno) in entries {
                    match (key.as_str(), value) {
                        ("paths", Value::List(v)) => manifest.panic_paths = v,
                        ("allow-expect", Value::List(v)) => manifest.allow_expect = v,
                        (other, _) => {
                            return Err(ManifestError {
                                line: lineno,
                                message: format!("unknown [panic-path] key `{other}`"),
                            });
                        }
                    }
                }
            } else if section == "unbounded-channel" {
                for (key, value, lineno) in entries {
                    match (key.as_str(), value) {
                        ("paths", Value::List(v)) => manifest.channel_paths = v,
                        (other, _) => {
                            return Err(ManifestError {
                                line: lineno,
                                message: format!("unknown [unbounded-channel] key `{other}`"),
                            });
                        }
                    }
                }
            } else {
                let lineno = entries.first().map_or(0, |e| e.2);
                return Err(ManifestError {
                    line: lineno,
                    message: format!("unknown section `[{section}]`"),
                });
            }
        }
        Ok(manifest)
    }
}

/// A `[pins.…]` or `[retired.…]` section's entries, all integers.
fn pin_file(file: &str, entries: Vec<(String, Value, usize)>) -> Result<PinFile, ManifestError> {
    let mut pin = PinFile { file: file.to_string(), pins: Vec::new() };
    for (key, value, lineno) in entries {
        match value {
            Value::Int(v) => pin.pins.push((key, v)),
            _ => {
                return Err(ManifestError {
                    line: lineno,
                    message: format!("pin `{key}` must be an integer"),
                });
            }
        }
    }
    Ok(pin)
}

/// Strips a trailing `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses `pins."some/path.rs"` or a plain section name.
fn parse_section_name(inner: &str, lineno: usize) -> Result<String, ManifestError> {
    if let Some(dot) = inner.find('.') {
        let head = &inner[..dot];
        let tail = inner[dot + 1..].trim();
        let unquoted =
            tail.strip_prefix('"').and_then(|t| t.strip_suffix('"')).ok_or_else(|| {
                ManifestError {
                    line: lineno,
                    message: format!("dotted section `[{inner}]` needs a quoted tail"),
                }
            })?;
        Ok(format!("{head}.{unquoted}"))
    } else {
        Ok(inner.trim().to_string())
    }
}

/// Splits `key = value`, unquoting the key if quoted.
fn split_key(line: &str, lineno: usize) -> Result<(String, &str), ManifestError> {
    // a quoted key may contain `=`; find the separator outside quotes
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '=' if !in_str => {
                let key = line[..i].trim();
                let key = key.strip_prefix('"').and_then(|k| k.strip_suffix('"')).unwrap_or(key);
                if key.is_empty() {
                    return Err(ManifestError { line: lineno, message: "empty key".to_string() });
                }
                return Ok((key.to_string(), line[i + 1..].trim()));
            }
            _ => {}
        }
    }
    Err(ManifestError { line: lineno, message: format!("expected `key = value`, got `{line}`") })
}

fn parse_value(text: &str, lineno: usize) -> Result<Value, ManifestError> {
    let text = text.trim();
    if let Some(body) = text.strip_prefix('[') {
        let body = body.strip_suffix(']').ok_or_else(|| ManifestError {
            line: lineno,
            message: "unterminated array".to_string(),
        })?;
        let mut items = Vec::new();
        for item in split_array_items(body) {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            match parse_value(item, lineno)? {
                Value::Str(s) => items.push(s),
                _ => {
                    return Err(ManifestError {
                        line: lineno,
                        message: "arrays may only hold strings".to_string(),
                    });
                }
            }
        }
        return Ok(Value::List(items));
    }
    if let Some(s) = text.strip_prefix('"') {
        let s = s.strip_suffix('"').ok_or_else(|| ManifestError {
            line: lineno,
            message: format!("unterminated string `{text}`"),
        })?;
        return Ok(Value::Str(s.replace("\\\"", "\"")));
    }
    let digits = text.replace('_', "");
    digits.parse::<i64>().map(Value::Int).map_err(|_| ManifestError {
        line: lineno,
        message: format!("expected an integer, string, or array, got `{text}`"),
    })
}

/// Splits array items on commas outside quotes.
fn split_array_items(body: &str) -> Vec<String> {
    let mut items = Vec::new();
    let mut current = String::new();
    let mut in_str = false;
    let mut escaped = false;
    for c in body.chars() {
        if escaped {
            current.push(c);
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => {
                current.push(c);
                escaped = true;
            }
            '"' => {
                in_str = !in_str;
                current.push(c);
            }
            ',' if !in_str => items.push(std::mem::take(&mut current)),
            _ => current.push(c),
        }
    }
    items.push(current);
    items
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pins_and_rule_sections() {
        let text = r#"
# top comment
[pins."crates/mvq-core/src/store.rs"]
FORMAT_VERSION = 1
TAG_MASKED = 0
"BlobKind::Artifact" = 0

[retired."crates/mvq-core/src/store.rs"]
# variant deleted; its value stays reserved
"BlobKind::Legacy" = 1

[panic-path]
paths = ["crates/mvq-serve/src", "crates/mvq-core/src/store.rs"]
allow-expect = [
    "service lock",  # held only around queue ops
    "cache lock",
]

[unbounded-channel]
paths = ["crates/mvq-serve/src"]
"#;
        let m = Manifest::parse(text).unwrap();
        assert_eq!(m.pins.len(), 1);
        assert_eq!(m.pins[0].file, "crates/mvq-core/src/store.rs");
        assert_eq!(
            m.pins[0].pins,
            vec![
                ("FORMAT_VERSION".to_string(), 1),
                ("TAG_MASKED".to_string(), 0),
                ("BlobKind::Artifact".to_string(), 0),
            ]
        );
        assert_eq!(m.retired.len(), 1);
        assert_eq!(m.retired[0].file, "crates/mvq-core/src/store.rs");
        assert_eq!(m.retired[0].pins, vec![("BlobKind::Legacy".to_string(), 1)]);
        assert_eq!(m.panic_paths.len(), 2);
        assert_eq!(m.allow_expect, vec!["service lock", "cache lock"]);
        assert_eq!(m.channel_paths, vec!["crates/mvq-serve/src"]);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Manifest::parse("[pins.\"f.rs\"\nX = 1").is_err());
        assert!(Manifest::parse("[pins.\"f.rs\"]\nX = \"one\"").is_err());
        assert!(Manifest::parse("[retired.\"f.rs\"]\nX = [\"one\"]").is_err());
        assert!(Manifest::parse("[mystery]\nX = 1").is_err());
        assert!(Manifest::parse("[panic-path]\nbogus = [\"a\"]").is_err());
        assert!(Manifest::parse("no equals sign").is_err());
    }

    #[test]
    fn comments_respect_strings() {
        let m = Manifest::parse("[panic-path]\npaths = [\"a#b\"] # trailing\nallow-expect = []\n")
            .unwrap();
        assert_eq!(m.panic_paths, vec!["a#b"]);
    }
}
