//! Concurrency rule family (the dynamic side is Miri/TSan in CI —
//! DESIGN.md §13).
//!
//! - `unsafe-send-sync-impl` — every `unsafe impl Send/Sync` is a
//!   finding by construction: the only way to ship one is a
//!   `lint-allow.toml` entry naming the invariant. Together with
//!   `unsafe-needs-safety-comment` (which fires on the same line
//!   unless a SAFETY comment is adjacent) this enforces the
//!   comment-AND-allowlist contract.
//! - `relaxed-cross-thread-flag` — `Ordering::Relaxed` inside any
//!   function the call graph shows reachable from a thread fan-out is
//!   flagged: a Relaxed atomic crossing the worker/consumer boundary
//!   synchronizes nothing, so each use must carry a justification for
//!   why that is sufficient (e.g. a pure counter with no guarded
//!   memory) or be strengthened.

use crate::callgraph::{CallGraph, FnId};
use crate::dataflow;
use crate::functions::{is_keyword, FileFunctions};
use crate::lexer::ScannedFile;
use crate::rules::Violation;
use std::collections::BTreeSet;

pub const RULE_SEND_SYNC: &str = "unsafe-send-sync-impl";
pub const RULE_RELAXED: &str = "relaxed-cross-thread-flag";

/// Atomic operations that take an `Ordering` argument.
const ATOMIC_OPS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Rule `unsafe-send-sync-impl`: every `unsafe impl Send/Sync` is
/// reported; shipping one requires a `lint-allow.toml` entry naming
/// the invariant (suppression is the approval mechanism).
pub fn check_send_sync(file: &ScannedFile) -> Vec<Violation> {
    let tokens = &file.tokens;
    let text = |i: usize| tokens.get(i).map(|t| t.text.as_str()).unwrap_or("");
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if text(i) != "unsafe" || text(i + 1) != "impl" {
            continue;
        }
        // Scan to `for` at angle depth 0; the trait is the last ident
        // before it (path segments collapse to their tail).
        let mut j = i + 2;
        let mut angle = 0isize;
        let mut trait_name = String::new();
        let limit = (i + 64).min(tokens.len());
        while j < limit {
            match text(j) {
                "<" => angle += 1,
                ">" if text(j.wrapping_sub(1)) != "-" => angle -= 1,
                "for" if angle == 0 => break,
                "{" | ";" => break,
                t if angle == 0
                    && !is_keyword(t)
                    && t != ":"
                    && t.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_') =>
                {
                    trait_name = t.to_string();
                }
                _ => {}
            }
            j += 1;
        }
        if text(j) != "for" || (trait_name != "Send" && trait_name != "Sync") {
            continue;
        }
        // Type name: last path ident before generics / body / where.
        let mut ty = String::new();
        let mut k = j + 1;
        while k < limit {
            match text(k) {
                "<" | "{" | "where" => break,
                t if t.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_')
                    && !is_keyword(t) =>
                {
                    ty = t.to_string();
                }
                _ => {}
            }
            k += 1;
        }
        out.push(Violation {
            rule: RULE_SEND_SYNC,
            path: file.path.clone(),
            line: tokens[i].line,
            symbol: Some(if ty.is_empty() { trait_name.clone() } else { ty }),
            message: format!(
                "`unsafe impl {trait_name}` asserts thread-safety the compiler cannot check; \
                 record the invariant in lint-allow.toml (a SAFETY comment alone is not \
                 machine-auditable)"
            ),
        });
    }
    out
}

/// Rule `relaxed-cross-thread-flag` over the whole file set.
pub fn check_relaxed(
    files: &[(&ScannedFile, &FileFunctions)],
    graph: &CallGraph,
) -> Vec<Violation> {
    // Seed: every function that starts threads; flag set: everything
    // those can reach (the atomics they touch cross threads by
    // construction — over-approximate by design).
    let mut spawners: BTreeSet<FnId> = BTreeSet::new();
    for (fi, (file, ff)) in files.iter().enumerate() {
        for gi in 0..ff.functions.len() {
            if dataflow::spawns_threads(file, ff, gi) {
                spawners.insert((fi, gi));
            }
        }
    }
    let concurrent = graph.reachable_from(&spawners);
    let mut out = Vec::new();
    for (fi, (file, ff)) in files.iter().enumerate() {
        // Integration tests / benches spawn freely and assert on the
        // results; the product contract is what the rule audits.
        if file.path.starts_with("tests/")
            || file.path.contains("/tests/")
            || file.path.contains("/benches/")
            || file.path.contains("/examples/")
        {
            continue;
        }
        let tokens = &file.tokens;
        let text = |i: usize| tokens.get(i).map(|t| t.text.as_str()).unwrap_or("");
        #[allow(clippy::needless_range_loop)] // `text` closes over `tokens` by index
        for i in 0..tokens.len() {
            if text(i) != "Ordering"
                || text(i + 1) != ":"
                || text(i + 2) != ":"
                || text(i + 3) != "Relaxed"
            {
                continue;
            }
            let Some(gi) = ff.owner.get(i).copied().flatten() else { continue };
            if !concurrent.contains(&(fi, gi)) {
                continue;
            }
            if !in_atomic_op(file, i) {
                continue;
            }
            out.push(Violation {
                rule: RULE_RELAXED,
                path: file.path.clone(),
                line: tokens[i].line,
                symbol: Some(ff.functions[gi].name.clone()),
                message: format!(
                    "`Ordering::Relaxed` in `{}`, reachable from a thread fan-out: Relaxed \
                     synchronizes no other memory — strengthen the ordering or allowlist with \
                     the invariant that makes it sufficient",
                    ff.functions[gi].name
                ),
            });
        }
    }
    out
}

/// Is token `i` (an `Ordering` path) an argument of an atomic op?
/// Walks back to the enclosing call's `(` and checks the callee name —
/// this skips `match ord { Ordering::Relaxed => … }` style uses.
fn in_atomic_op(file: &ScannedFile, i: usize) -> bool {
    let tokens = &file.tokens;
    let text = |k: usize| tokens.get(k).map(|t| t.text.as_str()).unwrap_or("");
    let mut depth = 0isize;
    let mut k = i;
    for _ in 0..64 {
        if k == 0 {
            return false;
        }
        k -= 1;
        match text(k) {
            ")" | "]" => depth += 1,
            "(" => {
                if depth == 0 {
                    return ATOMIC_OPS.contains(&text(k.wrapping_sub(1)));
                }
                depth -= 1;
            }
            "{" | ";" => return false,
            _ => {}
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::extract;
    use crate::lexer::scan;

    fn setup(src: &str) -> (ScannedFile, FileFunctions) {
        let f = scan("t.rs", src);
        let ff = extract(&f);
        (f, ff)
    }

    #[test]
    fn send_sync_impls_always_reported() {
        let src = r#"
// SAFETY: raw pointer with caller-enforced disjointness.
unsafe impl<T> Send for RawHandle<T> {}
// SAFETY: same.
unsafe impl<T: Sync> Sync for RawHandle<T> {}
impl<T> Clone for RawHandle<T> { fn clone(&self) -> Self { *self } }
"#;
        let f = scan("t.rs", src);
        let v = check_send_sync(&f);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|v| v.symbol.as_deref() == Some("RawHandle")));
        assert!(v[0].message.contains("Send"));
        assert!(v[1].message.contains("Sync"));
    }

    #[test]
    fn relaxed_flagged_only_when_fanout_reachable() {
        let src = r#"
fn spawner(n: usize) {
    std::thread::scope(|s| { s.spawn(|| shared_count()); });
}
fn shared_count() -> usize {
    COUNT.fetch_add(1, Ordering::Relaxed)
}
fn single_thread_count() -> usize {
    LOCAL.fetch_add(1, Ordering::Relaxed)
}
fn matcher(o: Ordering) -> bool {
    matches!(o, Ordering::Relaxed)
}
"#;
        let (f, ff) = setup(src);
        let files = vec![(&f, &ff)];
        let graph = CallGraph::build(&files);
        let v = check_relaxed(&files, &graph);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].symbol.as_deref(), Some("shared_count"));
    }
}
