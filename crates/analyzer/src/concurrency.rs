//! Concurrency rule family: the static side of the `SendPtr` fan-out
//! contract (the dynamic side is Miri/TSan in CI — DESIGN.md §13).
//!
//! - `sendptr-unpartitioned-index` — every `ptr.write(i, ..)` /
//!   `ptr.read(i)` on a `SendPtr` must derive `i` from a
//!   disjoint-partition source (see [`crate::dataflow`]); when the
//!   index is a function parameter, every call site is checked
//!   instead (interprocedural, via the name-based call graph).
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

pub const RULE_SENDPTR: &str = "sendptr-unpartitioned-index";
pub const RULE_SEND_SYNC: &str = "unsafe-send-sync-impl";
pub const RULE_RELAXED: &str = "relaxed-cross-thread-flag";

/// Method names never traced interprocedurally: they collide with
/// `SendPtr`'s own accessors and std raw-pointer methods, so the
/// name-based graph cannot resolve them to one definition.
const PTR_METHODS: &[&str] = &["write", "read", "add", "offset"];

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

/// Rule `sendptr-unpartitioned-index` over the whole file set.
pub fn check_sendptr(
    files: &[(&ScannedFile, &FileFunctions)],
    graph: &CallGraph,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for (file, ff) in files {
        for fi in 0..ff.functions.len() {
            for site in dataflow::sendptr_sites(file, ff, fi) {
                check_site(files, graph, file, ff, fi, &site, &mut out);
            }
        }
    }
    // Interprocedural checks can reach the same call site from several
    // obligations; report each location once.
    out.sort_by(|a, b| (&a.path, a.line, &a.message).cmp(&(&b.path, b.line, &b.message)));
    out.dedup_by(|a, b| a.path == b.path && a.line == b.line && a.message == b.message);
    out
}

fn check_site(
    files: &[(&ScannedFile, &FileFunctions)],
    graph: &CallGraph,
    file: &ScannedFile,
    ff: &FileFunctions,
    fi: usize,
    site: &dataflow::PtrSite,
    out: &mut Vec<Violation>,
) {
    let func = &ff.functions[fi];
    let idents = dataflow::expr_idents(file, site.idx.0, site.idx.1);
    // Any partition-derived identifier (or a direct partition call in
    // the index expression) clears the site.
    if dataflow::is_partition_expr(file, site.idx.0, site.idx.1) {
        return;
    }
    for name in &idents {
        let mut visited = BTreeSet::new();
        if dataflow::ident_derived(file, ff, fi, name, &mut visited, 0) {
            return;
        }
    }
    // Underived index naming a parameter: the obligation moves to the
    // call sites — unless the function's name cannot be resolved
    // uniquely, in which case flag here (restructure or allowlist).
    let params = dataflow::param_names(file, func);
    let param_positions: Vec<usize> = idents
        .iter()
        .filter_map(|name| params.iter().position(|seg| seg.iter().any(|p| p == name)))
        .collect();
    if !param_positions.is_empty() {
        if PTR_METHODS.contains(&func.name.as_str()) {
            // `SendPtr::write`'s own body: the rule fires at outer
            // call sites, which are themselves SendPtr sites.
            return;
        }
        if graph.by_name.get(&func.name).map(|v| v.len()) == Some(1) {
            let n = check_call_sites(files, file, ff, func, &param_positions, site, out);
            if n > 0 {
                return;
            }
            // No call site found: fall through and flag the site
            // itself — an entry point trusting an unproven index.
        }
    }
    out.push(Violation {
        rule: RULE_SENDPTR,
        path: file.path.clone(),
        line: site.line,
        symbol: Some(func.name.clone()),
        message: format!(
            "SendPtr `.{}({})` index is not derived from a disjoint-partition source \
             (partition_ranges / chunks / fan-out task id); prove disjointness or allowlist \
             with the invariant",
            site.method,
            idents.join(" "),
        ),
    });
}

/// Checks every `name(…)` call site for the obligated argument
/// positions; returns how many call sites were found.
fn check_call_sites(
    files: &[(&ScannedFile, &FileFunctions)],
    def_file: &ScannedFile,
    def_ff: &FileFunctions,
    func: &crate::functions::Function,
    positions: &[usize],
    site: &dataflow::PtrSite,
    out: &mut Vec<Violation>,
) -> usize {
    let _ = (def_file, def_ff, site);
    let mut found = 0usize;
    for (file, ff) in files {
        let tokens = &file.tokens;
        let text = |i: usize| tokens.get(i).map(|t| t.text.as_str()).unwrap_or("");
        for i in 0..tokens.len() {
            if text(i) != func.name || text(i + 1) != "(" || text(i.wrapping_sub(1)) == "fn" {
                continue;
            }
            let Some(caller) = ff.owner.get(i).copied().flatten() else { continue };
            // Method calls supply `self` positionally before the paren
            // args; free calls don't. The obligated positions were
            // computed against the declared parameter list, which for
            // methods includes the receiver — shift accordingly.
            let is_method_call = text(i.wrapping_sub(1)) == ".";
            let has_receiver_param =
                dataflow::param_names(file, func).first().is_some_and(|seg| seg.is_empty());
            let shift = usize::from(is_method_call && has_receiver_param);
            found += 1;
            // Split args at depth-1 commas.
            let mut args: Vec<(usize, usize)> = Vec::new();
            let mut depth = 1isize;
            let mut start = i + 2;
            let mut k = start;
            while k < tokens.len() {
                match text(k) {
                    "(" | "[" => depth += 1,
                    ")" | "]" => {
                        depth -= 1;
                        if depth == 0 {
                            if k > start {
                                args.push((start, k));
                            }
                            break;
                        }
                    }
                    "," if depth == 1 => {
                        args.push((start, k));
                        start = k + 1;
                    }
                    _ => {}
                }
                k += 1;
            }
            for &pos in positions {
                let Some(&(alo, ahi)) = args.get(pos.wrapping_sub(shift)) else { continue };
                let mut visited = BTreeSet::new();
                if dataflow::expr_derived(file, ff, caller, alo, ahi, &mut visited, 0) {
                    continue;
                }
                out.push(Violation {
                    rule: RULE_SENDPTR,
                    path: file.path.clone(),
                    line: tokens[i].line,
                    symbol: Some(ff.functions[caller].name.clone()),
                    message: format!(
                        "call passes a non-partition-derived index into `{}`, which writes it \
                         to a SendPtr; prove disjointness at this call site or allowlist",
                        func.name
                    ),
                });
            }
        }
    }
    found
}

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

    fn run_sendptr(src: &str) -> Vec<Violation> {
        let (f, ff) = setup(src);
        let files = vec![(&f, &ff)];
        let graph = CallGraph::build(&files);
        check_sendptr(&files, &graph)
    }

    #[test]
    fn partitioned_write_is_clean() {
        let src = r#"
fn fill(buf: &mut [f64], workers: usize) {
    let ptr = SendPtr::new(buf.as_mut_ptr(), buf.len());
    for range in partition_ranges(buf.len(), workers) {
        for i in range {
            // SAFETY: ranges are disjoint.
            unsafe { ptr.write(i, 0.0) };
        }
    }
}
"#;
        assert!(run_sendptr(src).is_empty());
    }

    #[test]
    fn fanout_task_index_is_clean() {
        let src = r#"
fn fill(slots: &mut [u8], workers: usize) {
    let ptr = SendPtr::new(slots.as_mut_ptr(), slots.len());
    map_shards(items, workers, |t, _| {
        // SAFETY: shard indexes are unique.
        unsafe { ptr.write(t, 1) };
    });
}
"#;
        assert!(run_sendptr(src).is_empty());
    }

    #[test]
    fn unpartitioned_index_is_flagged() {
        let src = r#"
fn fill(buf: &mut [f64]) {
    let ptr = SendPtr::new(buf.as_mut_ptr(), buf.len());
    let i = next_slot();
    // SAFETY: (bogus)
    unsafe { ptr.write(i, 0.0) };
}
"#;
        let v = run_sendptr(src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, RULE_SENDPTR);
        assert_eq!(v[0].symbol.as_deref(), Some("fill"));
    }

    #[test]
    fn param_index_checked_at_call_sites() {
        let src = r#"
fn write_slot(ptr: SendPtr<f64>, i: usize) {
    // SAFETY: caller proves disjointness.
    unsafe { ptr.write(i, 0.0) };
}
fn good(buf: &mut [f64], workers: usize) {
    let ptr = SendPtr::new(buf.as_mut_ptr(), buf.len());
    for range in partition_ranges(buf.len(), workers) {
        for i in range {
            write_slot(ptr, i);
        }
    }
}
fn bad(buf: &mut [f64]) {
    let ptr = SendPtr::new(buf.as_mut_ptr(), buf.len());
    write_slot(ptr, global_cursor());
}
"#;
        let v = run_sendptr(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].symbol.as_deref(), Some("bad"));
        assert!(v[0].message.contains("write_slot"));
    }

    #[test]
    fn send_sync_impls_always_reported() {
        let src = r#"
// SAFETY: raw pointer with caller-enforced disjointness.
unsafe impl<T> Send for SendPtr<T> {}
// SAFETY: same.
unsafe impl<T: Sync> Sync for SendPtr<T> {}
impl<T> Clone for SendPtr<T> { fn clone(&self) -> Self { *self } }
"#;
        let f = scan("t.rs", src);
        let v = check_send_sync(&f);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|v| v.symbol.as_deref() == Some("SendPtr")));
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
