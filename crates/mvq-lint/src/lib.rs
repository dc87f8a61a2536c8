//! `mvq-lint`: the workspace's static-analysis gate.
//!
//! The repo's correctness story includes invariants no compiler checks:
//! serialized tag values must never be renumbered, the serve layer must
//! not panic or queue unboundedly, cache locks must not be held across
//! disk I/O, and every `unsafe` block must say why it is sound. This
//! crate walks every `.rs` file under `crates/`, `src/`, and `tests/`
//! (skipping `target/`, `vendor/`, and fixture snippets) and enforces
//! those invariants mechanically, with `file:line` diagnostics. It is
//! dependency-free by design — built from a small line-oriented lexer
//! ([`lexer`]), a hand-parsed manifest ([`manifest`]), and five rules.
//!
//! Run it the way CI does:
//!
//! ```text
//! cargo run -p mvq-lint -- --workspace
//! ```
//!
//! # The rules
//!
//! | rule | what it enforces |
//! |------|------------------|
//! | `safety-comment` | every `unsafe` block/fn has an adjacent `// SAFETY:` comment (or doc `# Safety` section) stating the invariants it relies on |
//! | `tag-drift` | serialization tags (`FORMAT_VERSION`, `TAG_*`, `BlobKind` discriminants, `grouping_tag`/`kernel_tag` arms) match the values pinned in `lint.toml`; deletions and unpinned additions also fail |
//! | `panic-path` | no `unwrap()` / `panic!`-family macros / un-allowlisted `expect(...)` in non-test serve-layer and store code |
//! | `lock-scope` | no `.lock()` guard held across disk I/O or a second lock acquisition (brace-scope approximation) |
//! | `unbounded-channel` | no unbounded `channel()` constructors in the serve layer — backpressure requires capacities |
//!
//! A malformed escape hatch reports as `allow-syntax`.
//!
//! # The escape hatch
//!
//! A finding that is deliberate gets an inline allow, on the same line
//! or the line directly above, naming the rule and the reason:
//!
//! ```text
//! // lint:allow(unbounded-channel) -- carries exactly one message per job
//! let (tx, rx) = mpsc::channel();
//! ```
//!
//! The reason is mandatory; an allow without one (or naming an unknown
//! rule) is itself a finding. `expect` messages are allowlisted
//! centrally instead, in `lint.toml`'s `[panic-path] allow-expect`
//! list, so every accepted invariant message is visible in one place.
//!
//! # Bumping `FORMAT_VERSION` legitimately
//!
//! The `tag-drift` rule makes tag edits loud, not impossible. To change
//! the serialized layout for real, in **one** change:
//!
//! 1. bump `FORMAT_VERSION` in `crates/mvq-core/src/store/codec.rs`
//!    (append new tags; never renumber or reuse old values);
//! 2. update the pinned values in `lint.toml` to match;
//! 3. update the golden-blob decode tests in `tests/roundtrip.rs` (and
//!    the wire goldens in `tests/wire_codec.rs`) so the old format
//!    either still decodes (compatible read path) or fails with a typed
//!    error — the test documents which;
//! 4. run `cargo run -p mvq-lint -- --workspace` and the tier-1 tests.
//!
//! If the lint still complains, the manifest and source disagree —
//! which is exactly the drift it exists to catch.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod diag;
pub mod engine;
pub mod lexer;
pub mod manifest;
pub mod rules;

pub use diag::Diagnostic;
pub use engine::{check_source, check_workspace, ALLOW_SYNTAX, RULE_NAMES};
pub use manifest::{Manifest, ManifestError};
