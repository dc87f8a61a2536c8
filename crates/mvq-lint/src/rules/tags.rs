//! Append-only tag guard: serialization tag constants, enum
//! discriminants, and match-arm encodings are compared against the
//! pinned values in `lint.toml`.
//!
//! Five ways to fail, all of which would otherwise corrupt or orphan
//! existing on-disk caches silently:
//!
//! * a pinned name's value in the source differs from the manifest
//!   (a tag was renumbered);
//! * a pinned name no longer appears in the source (a tag was deleted
//!   or moved without updating the manifest — a deliberately removed
//!   variant moves to the file's `[retired]` section instead);
//! * an enum with pinned variants gained a new integer-valued variant
//!   or arm that is *not* pinned (appending a tag must land with its
//!   manifest entry in the same change, or the pin set rots);
//! * a retired name reappears as a tag;
//! * a tag of an enum (pinned or not) takes a retired value of that
//!   enum, or a value a name pinned before it in that enum holds —
//!   either would make new blobs alias the cache keys of old ones.

use crate::diag::Diagnostic;
use crate::engine::FileView;
use crate::lexer::find_word;
use crate::manifest::{Manifest, PinFile};
use crate::rules::TAGS;

/// A tag value as found in the source.
struct Found {
    /// Pin-style name: a bare const name or `Enum::Variant`.
    name: String,
    value: i64,
    /// 1-based line.
    line: usize,
}

/// The enum half of a pin-style name (`Kind` of `Kind::A`).
fn enum_of(name: &str) -> Option<&str> {
    name.split_once("::").map(|(e, _)| e)
}

/// Runs the guard over one file (no-op unless the manifest pins or
/// retires tags in it).
pub fn check(view: &FileView<'_>, manifest: &Manifest) -> Vec<Diagnostic> {
    let no_pins = PinFile::default();
    let pins = manifest.pins.iter().find(|p| p.file == view.path);
    let retired = manifest.retired.iter().find(|p| p.file == view.path);
    if pins.is_none() && retired.is_none() {
        return Vec::new();
    }
    let (pins, retired) = (pins.unwrap_or(&no_pins), retired.unwrap_or(&no_pins));
    let enums: Vec<&str> = {
        let mut names: Vec<&str> =
            pins.pins.iter().chain(&retired.pins).filter_map(|(name, _)| enum_of(name)).collect();
        names.sort_unstable();
        names.dedup();
        names
    };
    let mut found = Vec::new();
    extract_consts(view, pins.pins.iter().chain(&retired.pins), &mut found);
    extract_enum_values(view, &enums, &mut found);

    let mut diags = Vec::new();
    for (name, pinned) in &pins.pins {
        let hits: Vec<&Found> = found.iter().filter(|f| &f.name == name).collect();
        if hits.is_empty() {
            diags.push(Diagnostic::new(
                view.path,
                1,
                TAGS,
                format!(
                    "pinned tag `{name}` not found in this file — tags are append-only; \
                     deleting or moving one orphans every existing cache blob"
                ),
            ));
            continue;
        }
        for hit in hits {
            if hit.value != *pinned {
                diags.push(Diagnostic::new(
                    view.path,
                    hit.line,
                    TAGS,
                    format!(
                        "`{name}` is {} here but pinned at {pinned} in lint.toml — \
                         renumbering a serialized tag corrupts existing caches; append a \
                         new tag (and pin it) instead, bumping FORMAT_VERSION if the \
                         layout changed",
                        hit.value
                    ),
                ));
            }
        }
    }
    for f in &found {
        if let Some((_, value)) = retired.pins.iter().find(|(name, _)| name == &f.name) {
            diags.push(Diagnostic::new(
                view.path,
                f.line,
                TAGS,
                format!(
                    "`{}` was retired at tag {value} (lint.toml `[retired.\"{}\"]`) — a \
                     retired tag never comes back; append a new name with a fresh value",
                    f.name, view.path
                ),
            ));
            continue;
        }
        let Some(ename) = enum_of(&f.name) else { continue };
        let same_enum = |(name, _): &&(String, i64)| enum_of(name) == Some(ename);
        if let Some((old, _)) =
            retired.pins.iter().filter(same_enum).find(|(_, value)| *value == f.value)
        {
            diags.push(Diagnostic::new(
                view.path,
                f.line,
                TAGS,
                format!(
                    "`{}` = {} reuses the value of retired `{old}` — blobs written under \
                     the retired tag would decode as the new one; pick an unused value",
                    f.name, f.value
                ),
            ));
        }
        // a pinned tag collides only with names pinned before it, so the
        // name that took a value first is not blamed for the newcomer
        let own = pins.pins.iter().position(|(name, _)| name == &f.name);
        let earlier = &pins.pins[..own.unwrap_or(pins.pins.len())];
        if let Some((other, _)) =
            earlier.iter().filter(same_enum).find(|(_, value)| *value == f.value)
        {
            diags.push(Diagnostic::new(
                view.path,
                f.line,
                TAGS,
                format!(
                    "`{}` = {} collides with pinned `{other}` — two variants of one enum \
                     must never share a serialized tag",
                    f.name, f.value
                ),
            ));
        }
        if own.is_none() {
            diags.push(Diagnostic::new(
                view.path,
                f.line,
                TAGS,
                format!(
                    "`{}` = {} is a new tag of a pinned enum — append it to the \
                     `[pins.\"{}\"]` section of lint.toml in this same change",
                    f.name, f.value, view.path
                ),
            ));
        }
    }
    diags
}

/// Collects `const NAME: ty = <int>;` declarations for bare names.
fn extract_consts<'a>(
    view: &FileView<'_>,
    names: impl Iterator<Item = &'a (String, i64)>,
    out: &mut Vec<Found>,
) {
    for (name, _) in names {
        if name.contains("::") {
            continue;
        }
        for (i, line) in view.lines.iter().enumerate() {
            let code = &line.code;
            if find_word(code, "const").is_none() || find_word(code, name).is_none() {
                continue;
            }
            let Some(eq) = code.find('=') else { continue };
            if let Some(value) = parse_int(&code[eq + 1..]) {
                out.push(Found { name: name.clone(), value, line: i + 1 });
            }
        }
    }
}

/// Collects integer-valued appearances of each pinned enum's variants:
/// explicit discriminants (`Variant = 0,` inside `enum E`) and match
/// arms in either direction (`E::Variant => 0` / `0 => ...E::Variant...`).
fn extract_enum_values(view: &FileView<'_>, enums: &[&str], out: &mut Vec<Found>) {
    let mut depth: i32 = 0;
    // a just-seen `enum E` waiting for its opening brace
    let mut pending: Option<&str> = None;
    // (enum name, depth its body brace opened at)
    let mut body: Option<(&str, i32)> = None;

    for (i, line) in view.lines.iter().enumerate() {
        let code = &line.code;
        for ename in enums {
            if find_word(code, "enum").is_some() && find_word(code, ename).is_some() {
                pending = Some(ename);
            }
        }
        if let Some((ename, _)) = body {
            if let Some((variant, value)) = parse_discriminant(code) {
                out.push(Found { name: format!("{ename}::{variant}"), value, line: i + 1 });
            }
        }
        for ename in enums {
            if let Some((variant, value)) = parse_match_arm(code, ename) {
                out.push(Found { name: format!("{ename}::{variant}"), value, line: i + 1 });
            }
        }
        for c in code.chars() {
            match c {
                '{' => {
                    if let Some(ename) = pending.take() {
                        body = Some((ename, depth));
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if let Some((_, at)) = body {
                        if depth == at {
                            body = None;
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

/// `Variant = 3,` (an explicit enum discriminant line).
fn parse_discriminant(code: &str) -> Option<(String, i64)> {
    let trimmed = code.trim().trim_end_matches(',');
    let (left, right) = trimmed.split_once('=')?;
    let variant = left.trim();
    if variant.is_empty()
        || !variant.chars().all(|c| c.is_alphanumeric() || c == '_')
        || !variant.starts_with(|c: char| c.is_ascii_uppercase())
    {
        return None;
    }
    parse_int(right).map(|v| (variant.to_string(), v))
}

/// A match arm tying `Enum::Variant` to an integer on either side of
/// `=>`. Lines where neither side is a literal integer (e.g. dispatch
/// arms calling functions) are ignored.
fn parse_match_arm(code: &str, ename: &str) -> Option<(String, i64)> {
    let arrow = code.find("=>")?;
    let qual = format!("{ename}::");
    let at = code.find(&qual)?;
    let variant: String =
        code[at + qual.len()..].chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
    if variant.is_empty() {
        return None;
    }
    let left = code[..arrow].trim();
    if let Some(v) = parse_int(left) {
        return Some((variant, v));
    }
    let right = &code[arrow + 2..];
    let lead: String =
        right.trim_start().chars().take_while(|c| c.is_ascii_digit() || *c == '_').collect();
    if lead.is_empty() {
        return None;
    }
    parse_int(&lead).map(|v| (variant, v))
}

/// Parses a decimal integer, tolerating `_` separators, a trailing
/// `;`/`,`, and a type suffix (`1u8`).
fn parse_int(text: &str) -> Option<i64> {
    let text = text.trim().trim_end_matches([';', ',']).trim();
    let bytes = text.as_bytes();
    let mut idx = usize::from(bytes.first() == Some(&b'-'));
    let digits_start = idx;
    while idx < bytes.len() && (bytes[idx].is_ascii_digit() || bytes[idx] == b'_') {
        idx += 1;
    }
    if idx == digits_start {
        return None;
    }
    // reject e.g. `1.5` or an expression continuing after the digits,
    // except a bare type suffix like `u8`
    let rest = &text[idx..];
    let suffix_ok = matches!(
        rest,
        "" | "u8" | "u16" | "u32" | "u64" | "i8" | "i16" | "i32" | "i64" | "usize" | "isize"
    );
    if !suffix_ok {
        return None;
    }
    let digits: String = text[..idx].chars().filter(|c| *c != '_').collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use crate::engine::check_source;
    use crate::manifest::Manifest;

    fn manifest() -> Manifest {
        Manifest::parse(
            "[pins.\"src/codec.rs\"]\nFORMAT_VERSION = 1\n\"Kind::A\" = 0\n\"Kind::B\" = 1\n",
        )
        .unwrap()
    }

    const CLEAN: &str = "pub const FORMAT_VERSION: u16 = 1;\n\
        pub enum Kind {\n    A = 0,\n    B = 1,\n}\n\
        fn tag(k: Kind) -> u8 {\n    match k {\n        Kind::A => 0,\n        Kind::B => 1,\n    }\n}\n\
        fn from(t: u8) -> Option<Kind> {\n    match t {\n        0 => Some(Kind::A),\n        1 => Some(Kind::B),\n        _ => None,\n    }\n}\n";

    #[test]
    fn clean_pinned_file_passes() {
        assert!(check_source("src/codec.rs", CLEAN, &manifest()).is_empty());
    }

    #[test]
    fn renumbered_tag_fires() {
        let drifted = CLEAN.replace("Kind::B => 1,", "Kind::B => 2,");
        let diags = check_source("src/codec.rs", &drifted, &manifest());
        assert!(
            diags.iter().any(|d| d.rule == "tag-drift" && d.message.contains("Kind::B")),
            "{diags:?}"
        );
    }

    #[test]
    fn deleted_pin_fires() {
        let gone = CLEAN.replace("pub const FORMAT_VERSION: u16 = 1;\n", "");
        let diags = check_source("src/codec.rs", &gone, &manifest());
        assert!(diags.iter().any(|d| d.message.contains("FORMAT_VERSION")), "{diags:?}");
    }

    #[test]
    fn unpinned_new_variant_fires() {
        let appended = CLEAN.replace("    B = 1,\n", "    B = 1,\n    C = 2,\n");
        let diags = check_source("src/codec.rs", &appended, &manifest());
        assert!(diags.iter().any(|d| d.message.contains("Kind::C")), "{diags:?}");
    }

    fn retired_manifest() -> Manifest {
        Manifest::parse(
            "[pins.\"src/codec.rs\"]\nFORMAT_VERSION = 1\n\"Kind::A\" = 0\n\"Kind::B\" = 1\n\
             [retired.\"src/codec.rs\"]\n\"Kind::Old\" = 2\nOLD_VERSION = 0\n",
        )
        .unwrap()
    }

    #[test]
    fn retired_tags_that_stay_gone_pass() {
        assert!(check_source("src/codec.rs", CLEAN, &retired_manifest()).is_empty());
    }

    #[test]
    fn retired_name_reappearing_fires() {
        let back = CLEAN.replace("Kind::B => 1,\n", "Kind::B => 1,\n        Kind::Old => 7,\n");
        let diags = check_source("src/codec.rs", &back, &retired_manifest());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("`Kind::Old` was retired"), "{diags:?}");
        let konst = format!("{CLEAN}pub const OLD_VERSION: u16 = 0;\n");
        let diags = check_source("src/codec.rs", &konst, &retired_manifest());
        assert!(diags.iter().any(|d| d.message.contains("`OLD_VERSION` was retired")), "{diags:?}");
    }

    #[test]
    fn new_tag_on_a_retired_value_fires_even_when_pinned() {
        let text = "[pins.\"src/codec.rs\"]\nFORMAT_VERSION = 1\n\"Kind::A\" = 0\n\
                    \"Kind::B\" = 1\n\"Kind::C\" = 2\n[retired.\"src/codec.rs\"]\n\"Kind::Old\" = 2\n";
        let manifest = Manifest::parse(text).unwrap();
        let reused = CLEAN.replace("    B = 1,\n", "    B = 1,\n    C = 2,\n");
        let diags = check_source("src/codec.rs", &reused, &manifest);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("reuses the value of retired `Kind::Old`"), "{diags:?}");
    }

    #[test]
    fn tag_on_another_pinned_value_fires() {
        // unpinned: both the collision and the missing pin are reported
        let reused = CLEAN.replace("    B = 1,\n", "    B = 1,\n    C = 0,\n");
        let diags = check_source("src/codec.rs", &reused, &manifest());
        assert!(diags.iter().any(|d| d.message.contains("collides with pinned `Kind::A`")));
        assert!(diags.iter().any(|d| d.message.contains("append it")), "{diags:?}");
        // renumbered onto a sibling's value: drift and collision
        let drifted = CLEAN.replace("Kind::B => 1,", "Kind::B => 0,");
        let diags = check_source("src/codec.rs", &drifted, &manifest());
        assert!(diags.iter().any(|d| d.message.contains("pinned at 1")), "{diags:?}");
        assert!(diags.iter().any(|d| d.message.contains("collides with pinned `Kind::A`")));
    }

    #[test]
    fn unpinned_file_is_ignored() {
        assert!(check_source("src/other.rs", "const FORMAT_VERSION: u16 = 9;\n", &manifest())
            .is_empty());
    }
}
