//! Seeded defects in the real tree: `fixtures.rs` proves each rule on
//! a synthetic file; these patch the source the rule exists to guard —
//! in memory, one defect at a time — run the whole lint over the
//! patched tree and demand exactly that finding. The unpatched tree is
//! clean (`repo_lint.rs`), so anything reported is the seeded defect. A
//! rule that cannot see its defect here guards nothing and is deleted:
//! `simd-unguarded-dispatch` went that way — `quant::min_max` calling
//! `avx2::min_max` with no tier check drew no finding, because every
//! kernel is a `scalar::foo` / `avx2::foo` twin and the rule skipped
//! twin names (EXPERIMENTS.md, earn-its-keep ledger, pass 4) — and
//! `sendptr-unpartitioned-index` went when its subject did: it found
//! its seeded defect here until the wavelet fan-out, the only user of
//! the pool's raw-pointer wrapper, was measured out (pass 7).

use ckpt_analyzer::rules::Violation;
use ckpt_analyzer::{durability, rules};
use std::path::Path;

/// Lints the workspace with the one occurrence of `from` in `path`
/// replaced by `to`.
fn lint_with(path: &str, from: &str, to: &str) -> Vec<Violation> {
    lint_with_all(&[(path, from, to)])
}

/// Lints the workspace with every `(path, from, to)` patch applied,
/// each `from` occurring exactly once in its file.
fn lint_with_all(patches: &[(&str, &str, &str)]) -> Vec<Violation> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (mut sources, errors) = ckpt_analyzer::read_sources(&root);
    assert!(errors.is_empty(), "{errors:?}");
    for &(path, from, to) in patches {
        let (_, src) =
            sources.iter_mut().find(|(p, _)| p == path).unwrap_or_else(|| panic!("{path}"));
        assert_eq!(src.matches(from).count(), 1, "{path}: `{from}` must occur exactly once");
        *src = src.replace(from, to);
    }
    ckpt_analyzer::run_sources(&root, &sources).violations
}

/// At least one finding, and every one of `rule`, in `path`, blamed on
/// `symbol`.
fn assert_all(v: &[Violation], rule: &str, path: &str, symbol: Option<&str>) {
    assert!(!v.is_empty(), "the seeded defect was not found");
    for f in v {
        assert_eq!((f.rule, f.path.as_str(), f.symbol.as_deref()), (rule, path, symbol), "{v:?}");
    }
}

#[test]
fn a_kernel_dispatch_without_its_safety_comment_is_found() {
    // The one `unsafe` call the transform's axis walk reaches.
    let path = "crates/simd/src/wavelet.rs";
    let v = lint_with(
        path,
        "// SAFETY: assert_available above verified AVX2 is present.",
        "// assert_available above verified AVX2 is present.",
    );
    assert_all(&v, rules::RULE_UNSAFE, path, None);
    assert_eq!(v.len(), 1, "{v:?}");
}

#[test]
fn a_rename_hoisted_above_the_fsync_is_found() {
    let path = "crates/store/src/layout.rs";
    let v = lint_with(
        path,
        "    staged.sync_all()?;\n    drop(staged);\n    fp.check()?;\n    fs::rename(tmp, dst)?;\n",
        "    fp.check()?;\n    fs::rename(tmp, dst)?;\n    staged.sync_all()?;\n    drop(staged);\n",
    );
    // Once per store root that publishes through `sync_then_rename`
    // (and `compact_manifest`'s log truncate, now ahead of any durable
    // write, as a consequence).
    assert!(v.iter().all(|f| f.rule == durability::RULE_DURABILITY), "{v:?}");
    let at_the_rename: Vec<_> =
        v.iter().filter(|f| f.path == path && f.message.contains("rename before fsync")).collect();
    assert!(at_the_rename.len() >= 4, "{v:?}");
}

#[test]
fn a_segment_append_that_bypasses_the_fail_point_is_found() {
    let path = "crates/store/src/segment.rs";
    let v = lint_with(
        path,
        "self.fp.write_all(&mut self.file, bytes)?;",
        "self.file.write_all(bytes)?;",
    );
    assert_all(&v, durability::RULE_FAILPOINT, path, Some("append"));
    assert_eq!(v.len(), 1, "{v:?}");
}

#[test]
fn an_unchecked_index_into_the_history_buffer_is_found() {
    // The workspace has one literal/match loop; a byte-wise match copy
    // that indexes the window instead of `extend_from_within` would
    // panic on a crafted distance, and the decode rules must see it.
    let path = "crates/deflate/src/resume.rs";
    let v = lint_with(
        path,
        "window.extend_from_within(start..start + take);",
        "for k in start..start + take { let byte = window[k]; window.push(byte); }",
    );
    assert_all(&v, rules::RULE_PANIC, path, Some("decode_symbols"));
    assert_eq!(v.len(), 1, "{v:?}");
}

const STORE: &str = "crates/store/src/store.rs";

#[test]
fn a_retire_that_lost_its_barrier_is_found_under_gc_and_under_compaction() {
    // `Store::retire` is the one place a committed segment file dies;
    // without the barrier between the durable `Retire` records and the
    // disposal loop the kill sweep can never land there. The rule
    // audits every function a root reaches, so the finding must
    // survive cutting either caller off: GC alone reaches it, and so
    // does chain compaction alone.
    let barrier = ("        self.log(&records)?;\n        self.failpoint.check()?;\n", "        self.log(&records)?;\n");
    let gc_call = ("crates/store/src/gc.rs", "s.retire(&retire)?", "0");
    let compact_call = ("crates/store/src/compact.rs", "s.retire(&retire)?", "0");
    for other_caller in [None, Some(gc_call), Some(compact_call)] {
        let mut patches = vec![(STORE, barrier.0, barrier.1)];
        patches.extend(other_caller);
        let v = lint_with_all(&patches);
        assert_all(&v, durability::RULE_FAILPOINT, STORE, Some("retire"));
        // The delete and the quarantine move.
        assert_eq!(v.len(), 2, "{other_caller:?}: {v:?}");
    }
    // With neither caller nothing reaches it: the rule is silent, which
    // is what shows the two callers above are how it was found.
    let v = lint_with_all(&[(STORE, barrier.0, barrier.1), gc_call, compact_call]);
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn an_apply_hoisted_above_the_manifest_fsync_is_found() {
    // `Store::log` is the one manifest append and the one place the
    // generation map changes; applying before the fsync would let
    // memory run ahead of what a reopen replays.
    let v = lint_with(
        STORE,
        "        f.sync_all()?;\n        for r in records {\n            manifest::apply(&mut self.view.gens, r);\n            self.next_gen = self.next_gen.max(r.gen() + 1);\n        }\n",
        "        for r in records {\n            manifest::apply(&mut self.view.gens, r);\n            self.next_gen = self.next_gen.max(r.gen() + 1);\n        }\n        f.sync_all()?;\n",
    );
    assert!(!v.is_empty(), "the seeded defect was not found");
    for f in &v {
        assert_eq!((f.rule, f.path.as_str()), (durability::RULE_DURABILITY, STORE), "{v:?}");
        assert!(f.message.contains("before the manifest fsync"), "{v:?}");
    }
    // Blamed on every root that logs, the plain save among them.
    for root in ["save_full", "save_full_streamed", "gc", "compact_chains"] {
        assert!(v.iter().any(|f| f.symbol.as_deref() == Some(root)), "{root}: {v:?}");
    }
}
