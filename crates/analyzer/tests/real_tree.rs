//! A seeded defect in the real tree: patch the source the decode rules
//! exist to guard — in memory — run the whole lint over the patched
//! tree and demand exactly that finding. The unpatched tree is clean
//! (`repo_lint.rs`), so anything reported is the seeded defect. A rule
//! that cannot see its defect here guards nothing and is deleted; the
//! rules the compiler and clippy now enforce went the same way, and
//! their seeded defects are compile-time checks (EXPERIMENTS.md, pass
//! 13).

use ckpt_analyzer::rules;
use std::path::Path;

#[test]
fn an_unchecked_index_into_the_history_buffer_is_found() {
    // The workspace has one literal/match loop; a byte-wise match copy
    // that indexes the window instead of `extend_from_within` would
    // panic on a crafted distance, and the decode rules must see it.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (mut sources, errors) = ckpt_analyzer::read_sources(&root);
    assert!(errors.is_empty(), "{errors:?}");
    let path = "crates/deflate/src/resume.rs";
    let from = "window.extend_from_within(start..start + take);";
    let (_, src) = sources.iter_mut().find(|(p, _)| p == path).expect(path);
    assert_eq!(src.matches(from).count(), 1, "{path}: `{from}` must occur exactly once");
    *src = src.replace(
        from,
        "for k in start..start + take { let byte = window[k]; window.push(byte); }",
    );
    let v = ckpt_analyzer::run_sources(&root, &sources).violations;
    assert_eq!(v.len(), 1, "{v:?}");
    let f = &v[0];
    assert_eq!((f.rule, f.path.as_str(), f.symbol.as_deref()), (rules::RULE_PANIC, path, Some("decode_symbols")));
}
