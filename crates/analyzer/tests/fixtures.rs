//! Fixture gate: every deliberately-broken source under
//! `tests/fixtures/` must be caught by exactly the rule it was written
//! to demonstrate — no more, no less — and the deliberately-clean ones
//! must produce nothing. This pins both directions of every rule
//! family against silent drift.
//!
//! The fixtures are data, not code: the directory is in the analyzer's
//! `SKIP_DIRS` (they would fail the repo-wide `--deny` gate by design)
//! and cargo never compiles `.rs` files in test subdirectories.

use ckpt_analyzer::callgraph::CallGraph;
use ckpt_analyzer::functions::extract;
use ckpt_analyzer::lexer::scan;
use ckpt_analyzer::rules::Violation;
use ckpt_analyzer::{concurrency, durability, rules};
use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// Runs every rule family that applies to a standalone source file.
/// The scan path drops the on-disk `tests/` prefix so the fixture is
/// judged as product code (the relaxed rule skips test paths).
fn lint_fixture(name: &str) -> Vec<Violation> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    let src = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()));
    let file = scan(&format!("fixtures/{name}"), &src);
    let ff = extract(&file);
    let files = vec![(&file, &ff)];
    let graph = CallGraph::build(&files);
    let mut v = Vec::new();
    v.extend(rules::check_unsafe(&file));
    v.extend(concurrency::check_send_sync(&file));
    v.extend(concurrency::check_relaxed(&files, &graph));
    v.extend(durability::check(&files));
    v
}

fn rule_set(v: &[Violation]) -> BTreeSet<&'static str> {
    v.iter().map(|v| v.rule).collect()
}

#[test]
fn send_sync_impl_caught_despite_safety_comment() {
    let v = lint_fixture("send_sync_impl.rs");
    assert_eq!(rule_set(&v), BTreeSet::from([concurrency::RULE_SEND_SYNC]), "{v:?}");
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].symbol.as_deref(), Some("RawHandle"));
}

#[test]
fn relaxed_flag_caught_in_fanout_reachable_fn() {
    let v = lint_fixture("relaxed_flag.rs");
    assert_eq!(rule_set(&v), BTreeSet::from([concurrency::RULE_RELAXED]), "{v:?}");
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].symbol.as_deref(), Some("worker_tick"));
}

#[test]
fn rename_before_fsync_caught_by_exactly_durability_order() {
    let v = lint_fixture("durability_rename_before_fsync.rs");
    assert_eq!(rule_set(&v), BTreeSet::from([durability::RULE_DURABILITY]), "{v:?}");
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(v[0].message.contains("rename before fsync"));
}

#[test]
fn full_protocol_is_clean() {
    let v = lint_fixture("durability_ok.rs");
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn raw_write_caught_by_exactly_failpoint_bypass() {
    let v = lint_fixture("failpoint_bypass.rs");
    assert_eq!(rule_set(&v), BTreeSet::from([durability::RULE_FAILPOINT]), "{v:?}");
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(v[0].message.contains("route through FailPoint::write_all"));
}

#[test]
fn every_fixture_on_disk_has_a_test() {
    // Adding a fixture without wiring it here would silently skip it.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let covered: BTreeSet<&str> = BTreeSet::from([
        "send_sync_impl.rs",
        "relaxed_flag.rs",
        "durability_rename_before_fsync.rs",
        "durability_ok.rs",
        "failpoint_bypass.rs",
    ]);
    let on_disk: BTreeSet<String> = fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    for f in &on_disk {
        assert!(covered.contains(f.as_str()), "fixture {f} has no test in fixtures.rs");
    }
    for f in &covered {
        assert!(on_disk.contains(*f), "fixtures.rs expects {f} but it is not on disk");
    }
}
