//! Exercises every `wsm-lint` rule against the fixtures in
//! `tests/lint_fixtures/` (each must trip exactly its rule, and only at the
//! real code sites — not in comments, strings or annotated exemptions), and
//! then runs the whole rule set over the real repository tree, which must be
//! clean.  The clean-tree test is what makes the CI lint step meaningful:
//! if a rule regresses into false positives, this suite catches it before
//! the lint gate starts failing honest code.

use std::path::{Path, PathBuf};
use wsm_check::lint::{self, SourceFile, Violation};

/// Presents fixture text to the linter under a chosen repo-relative path
/// (rule applicability is path-keyed: crate, lib.rs, twothree, ...).
fn lint_as(path: &str, text: &str) -> Vec<Violation> {
    let files = vec![SourceFile {
        path: PathBuf::from(path),
        text: text.to_string(),
    }];
    lint::run(&files)
}

fn rules_of(violations: &[Violation]) -> Vec<&'static str> {
    violations.iter().map(|v| v.rule).collect()
}

#[test]
fn r1_unsafe_trips_outside_pool_only_at_code_sites() {
    let text = include_str!("lint_fixtures/r1_unsafe_outside_pool.rs");
    let v = lint_as("crates/core/src/bad.rs", text);
    assert_eq!(rules_of(&v), ["unsafe-outside-pool"], "got: {v:?}");
    // Exactly the one code site — the doc comment and string literal
    // occurrences of the keyword are masked out.
    assert_eq!(v[0].line, 9, "got: {v:?}");
    // The same file under crates/pool/ is legal.
    let v = lint_as("crates/pool/src/ok.rs", text);
    assert!(v.is_empty(), "pool may hold unsafe, got: {v:?}");
}

#[test]
fn r2_missing_forbid_header_trips_only_crate_roots() {
    let text = include_str!("lint_fixtures/r2_missing_forbid.rs");
    let v = lint_as("crates/demo/src/lib.rs", text);
    assert_eq!(rules_of(&v), ["missing-forbid-header"], "got: {v:?}");
    // Non-root modules carry no header duty.
    let v = lint_as("crates/demo/src/util.rs", text);
    assert!(v.is_empty(), "non-root module needs no header, got: {v:?}");
    // crates/pool is the sanctioned unsafe holder; no header duty either.
    let v = lint_as("crates/pool/src/lib.rs", text);
    assert!(v.is_empty(), "pool lib.rs needs no header, got: {v:?}");
    // A real attribute satisfies the rule.
    let fixed = format!("#![forbid(unsafe_code)]\n{text}");
    let v = lint_as("crates/demo/src/lib.rs", &fixed);
    assert!(v.is_empty(), "header should satisfy R2, got: {v:?}");
}

#[test]
fn r3_ordering_sites_need_ord_justification() {
    let text = include_str!("lint_fixtures/r3_unjustified_ordering.rs");
    let v = lint_as("crates/sync/src/bad.rs", text);
    // Only the bare site trips: the single-line justification, the
    // above-the-statement justification on a multi-line call, and the
    // SeqCst site are all fine.
    assert_eq!(rules_of(&v), ["unjustified-ordering"], "got: {v:?}");
    assert_eq!(v[0].line, 8, "got: {v:?}");
    // The concurrency law only binds the concurrent crates.
    let v = lint_as("crates/workloads/src/bad.rs", text);
    assert!(v.is_empty(), "R3 binds sync/pool/core only, got: {v:?}");
}

#[test]
fn r4_sleep_needs_allow_annotation() {
    let text = include_str!("lint_fixtures/r4_sleep_as_sync.rs");
    let v = lint_as("crates/core/src/bad.rs", text);
    assert_eq!(rules_of(&v), ["sleep-as-sync"], "got: {v:?}");
    // `bad_wait`'s sleep, not the annotated backoff, the `Sleep` type or
    // the `sleepers` method.
    assert_eq!(v[0].line, 12, "got: {v:?}");
}

#[test]
fn r5_unmetered_public_map_ops_trip() {
    let text = include_str!("lint_fixtures/r5_unmetered_op.rs");
    let v = lint_as("crates/twothree/src/bad.rs", text);
    assert_eq!(rules_of(&v), ["unmetered-op"], "got: {v:?}");
    assert!(
        v[0].message.contains("unmetered_search"),
        "the bare pub method is the one violation (direct touch, sibling \
         call, pass(), the annotation and the private helper are all \
         exempt), got: {v:?}"
    );
    // The metering law binds crates/twothree only.
    let v = lint_as("crates/core/src/bad.rs", text);
    assert!(v.is_empty(), "R5 binds crates/twothree only, got: {v:?}");
}

#[test]
fn r6_dependencies_must_be_named_in_the_crate_code() {
    let file = |path: &str, text: &str| SourceFile {
        path: PathBuf::from(path),
        text: text.to_string(),
    };
    let manifest = include_str!("lint_fixtures/r6_unused_dependency.toml");
    let code = include_str!("lint_fixtures/r6_unused_dependency.rs");
    let v = lint::run(&[
        file("crates/demo/Cargo.toml", manifest),
        file("crates/demo/src/util.rs", code),
    ]);
    assert_eq!(
        rules_of(&v),
        ["unused-dependency", "unused-dependency"],
        "got: {v:?}"
    );
    // The comment-only entry and the unnamed one, not the used entry or
    // the dev-dependency.
    assert_eq!((v[0].line, v[1].line), (9, 10), "got: {v:?}");
    // A use in another crate's code does not count.
    let v = lint::run(&[
        file("crates/demo/Cargo.toml", manifest),
        file("crates/other/src/util.rs", code),
    ]);
    assert_eq!(v.len(), 3, "got: {v:?}");
}

/// The real repository tree is lint-clean.  This is the library-level twin
/// of the CI `wsm-lint .` gate — running it under `cargo test` means a rule
/// change and a law violation both fail the suite, with the violation list
/// in the assertion message.
#[test]
fn real_repo_tree_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/check has a workspace root two levels up")
        .to_path_buf();
    let files = lint::collect_repo_files(&root).expect("walk workspace crates/");
    assert!(
        files.len() > 30,
        "expected the real tree (found {} files — wrong root?)",
        files.len()
    );
    let violations = lint::run(&files);
    assert!(
        violations.is_empty(),
        "repo tree must be lint-clean:\n{}",
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
