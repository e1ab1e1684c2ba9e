//! Self-enforcement: the repository this analyzer ships in must itself
//! be lint-clean. This is the same gate CI runs via
//! `cargo run -p ckpt-analyzer -- check --deny`, expressed as a test so
//! a plain `cargo test --workspace` catches regressions too.

use std::path::Path;

#[test]
fn repository_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = ckpt_analyzer::run(&root);
    for v in &report.violations {
        eprintln!("violation: {}:{} [{}] {}", v.path, v.line, v.rule, v.message);
    }
    for e in &report.errors {
        eprintln!("error: {e}");
    }
    assert!(
        report.clean(),
        "ckpt-lint found {} violation(s) and {} error(s); \
         fix them or add a justified entry to lint-allow.toml",
        report.violations.len(),
        report.errors.len()
    );
    assert!(report.files_scanned > 50, "scan looks truncated: {} files", report.files_scanned);
}

#[test]
fn findings_ride_on_justified_suppressions() {
    // The allowlist is the only way to ship a finding, so the tree's
    // justified ones (three audited casts) must show up as *suppressed*
    // — if they vanish, either their rule or the allowlist plumbing
    // broke.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = ckpt_analyzer::run(&root);
    assert_eq!(report.suppressed.len(), 3, "{:?}", report.suppressed);
    assert!(report.suppressed.iter().all(|(v, _)| v.rule == "unchecked-cast"));
    for (_, justification) in &report.suppressed {
        assert!(!justification.trim().is_empty(), "allow entries must carry a justification");
    }
}
