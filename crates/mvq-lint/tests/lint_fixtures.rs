//! Fixture-driven tests: every rule must fire on its committed
//! violating snippet and stay silent on the clean one; the pinned
//! manifest must catch drift; and the binary must exit nonzero on each
//! violating fixture (the same contract CI relies on).

use std::path::{Path, PathBuf};
use std::process::Command;

use mvq_lint::{check_source, Manifest};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn fixture_manifest(name: &str) -> Manifest {
    let text = std::fs::read_to_string(fixtures_dir().join(name)).unwrap();
    Manifest::parse(&text).unwrap()
}

/// Lints one fixture file under the fixture manifest, using its
/// fixture-relative path (the paths the manifest's sections name).
fn lint_fixture(manifest: &Manifest, rel: &str) -> Vec<mvq_lint::Diagnostic> {
    let source = std::fs::read_to_string(fixtures_dir().join(rel)).unwrap();
    check_source(rel, &source, manifest)
}

#[test]
fn each_rule_fires_on_its_violating_fixture() {
    let manifest = fixture_manifest("lint.toml");
    for (rel, rule) in [
        ("safety/bad.rs", "safety-comment"),
        ("tags/bad_renumbered.rs", "tag-drift"),
        ("tags/bad_deleted.rs", "tag-drift"),
        ("tags/bad_unpinned.rs", "tag-drift"),
        ("tags/bad_reused.rs", "tag-drift"),
        ("panics/bad.rs", "panic-path"),
        ("locks/bad.rs", "lock-scope"),
        ("channels/bad.rs", "unbounded-channel"),
    ] {
        let diags = lint_fixture(&manifest, rel);
        assert!(
            diags.iter().any(|d| d.rule == rule),
            "{rel}: expected a {rule} finding, got {diags:?}"
        );
        assert!(
            diags.iter().all(|d| d.rule == rule),
            "{rel}: fixture should only trip {rule}, got {diags:?}"
        );
    }
}

#[test]
fn each_rule_is_silent_on_its_clean_fixture() {
    let manifest = fixture_manifest("lint.toml");
    for rel in [
        "safety/good.rs",
        "tags/code.rs",
        "panics/good.rs",
        "locks/good.rs",
        "channels/good.rs",
        "allows/good.rs",
    ] {
        let diags = lint_fixture(&manifest, rel);
        assert!(diags.is_empty(), "{rel}: expected silence, got {diags:?}");
    }
}

#[test]
fn panics_fixture_reports_all_three_violations() {
    let manifest = fixture_manifest("lint.toml");
    let diags = lint_fixture(&manifest, "panics/bad.rs");
    let messages: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
    assert_eq!(diags.len(), 3, "{diags:?}");
    assert!(messages.iter().any(|m| m.contains("unwrap()")));
    assert!(messages.iter().any(|m| m.contains("`panic!`")));
    assert!(messages.iter().any(|m| m.contains("allow-expect")));
}

#[test]
fn pinned_manifest_drift_fails_the_clean_fixture() {
    // under the matching manifest tags/code.rs is silent; under
    // drift.toml (FORMAT_VERSION pinned at 2) the same file must fail
    let matching = fixture_manifest("lint.toml");
    assert!(lint_fixture(&matching, "tags/code.rs").is_empty());

    let drifted = fixture_manifest("drift.toml");
    let diags = lint_fixture(&drifted, "tags/code.rs");
    assert!(
        diags.iter().any(|d| d.rule == "tag-drift" && d.message.contains("FORMAT_VERSION")),
        "{diags:?}"
    );
}

#[test]
fn reused_fixture_reports_the_retired_and_the_pinned_collision() {
    let manifest = fixture_manifest("lint.toml");
    let diags = lint_fixture(&manifest, "tags/bad_reused.rs");
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert!(diags.iter().any(|d| d.message.contains("`Kind::D` = 2 reuses the value of retired")));
    assert!(diags
        .iter()
        .any(|d| d.message.contains("`Kind::E` = 0 collides with pinned `Kind::A`")));
}

#[test]
fn reasonless_allow_is_reported_and_suppresses_nothing() {
    let manifest = fixture_manifest("lint.toml");
    let diags = lint_fixture(&manifest, "allows/bad.rs");
    assert!(diags.iter().any(|d| d.rule == "allow-syntax"), "{diags:?}");
    assert!(diags.iter().any(|d| d.rule == "safety-comment"), "{diags:?}");
}

/// Runs the built binary against one fixture file, returning its exit
/// code and stdout.
fn run_binary(rel: &str, manifest: &str) -> (i32, String) {
    let fixtures = fixtures_dir();
    let output = Command::new(env!("CARGO_BIN_EXE_mvq-lint"))
        .arg("--root")
        .arg(&fixtures)
        .arg("--manifest")
        .arg(fixtures.join(manifest))
        .arg(fixtures.join(rel))
        .output()
        .expect("spawn mvq-lint");
    (output.status.code().unwrap_or(-1), String::from_utf8_lossy(&output.stdout).into_owned())
}

#[test]
fn binary_exits_nonzero_on_each_violating_fixture_and_zero_on_clean() {
    for rel in [
        "safety/bad.rs",
        "tags/bad_renumbered.rs",
        "tags/bad_deleted.rs",
        "tags/bad_unpinned.rs",
        "tags/bad_reused.rs",
        "panics/bad.rs",
        "locks/bad.rs",
        "channels/bad.rs",
        "allows/bad.rs",
    ] {
        let (code, stdout) = run_binary(rel, "lint.toml");
        assert_eq!(code, 1, "{rel} should fail; stdout:\n{stdout}");
        assert!(stdout.contains(rel), "diagnostics name the file:\n{stdout}");
    }
    for rel in [
        "safety/good.rs",
        "tags/code.rs",
        "panics/good.rs",
        "locks/good.rs",
        "channels/good.rs",
        "allows/good.rs",
    ] {
        let (code, stdout) = run_binary(rel, "lint.toml");
        assert_eq!(code, 0, "{rel} should pass; stdout:\n{stdout}");
    }
}

#[test]
fn binary_workspace_run_is_clean() {
    // the repo root is two levels up from this crate; the real CI leg
    // (`cargo run -p mvq-lint -- --workspace`) must stay green
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let output = Command::new(env!("CARGO_BIN_EXE_mvq-lint"))
        .arg("--workspace")
        .arg("--root")
        .arg(&root)
        .output()
        .expect("spawn mvq-lint");
    assert!(
        output.status.success(),
        "workspace lint regressed:\n{}",
        String::from_utf8_lossy(&output.stdout)
    );
}
