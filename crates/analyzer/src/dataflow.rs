//! Per-function dataflow facts over the token stream.
//!
//! The concurrency rules need to answer one question about every
//! `unsafe { ptr.write(i, ..) }` site: *is `i` derived from a
//! disjoint-partition source?* This module computes the facts that
//! answer it without a real type system:
//!
//! - **parameter names** per function (positional, so call sites can
//!   be checked interprocedurally),
//! - **partition derivation**: an identifier is partition-derived if
//!   it is bound — through any chain of `let` / `for` bindings — from
//!   an expression that calls a partition source
//!   ([`PARTITION_SOURCES`]), or if it is a closure parameter of a
//!   fan-out primitive ([`FANOUT_FNS`]), whose contract is that each
//!   task index is handed out exactly once,
//! - **`SendPtr` sites**: which local names hold a `SendPtr`, and
//!   every `.write(i, ..)` / `.read(i)` / `.add(i)` on them,
//! - **spawn detection**: does a function start threads (directly via
//!   `spawn` or through a fan-out primitive)?
//!
//! Everything is deliberately over-approximate in the *flagging*
//! direction: an index whose derivation the analysis cannot trace is
//! reported, and the author either restructures the code or records a
//! justified `lint-allow.toml` entry. The one under-approximation —
//! "ANY identifier in the index expression being partition-derived
//! clears the site" — is accepted because a mixed expression like
//! `lane.start + k * lane.stride` is exactly the idiom the wavelet
//! kernels use, and demanding all idents be derived would force
//! allowlisting every hot loop.

use crate::functions::{is_keyword, FileFunctions, Function};
use crate::lexer::ScannedFile;
use std::collections::BTreeSet;

/// Calls that hand out disjoint index ranges or unique items: deriving
/// an index from one of these makes it safe to use as a `SendPtr`
/// offset (each worker sees a disjoint slice of the index space).
/// `enumerate` is not one: every worker's counter starts at 0, and with
/// it listed the rule could not see the wavelet fan-out lose its
/// partition (`tests/real_tree.rs`).
pub const PARTITION_SOURCES: &[&str] = &[
    "partition_ranges",
    "chunks",
    "chunks_mut",
    "chunks_exact",
    "chunks_exact_mut",
    "split_at_mut",
    "pop",
];

/// Fan-out primitives whose closure parameter is a unique task/worker
/// index (each index is dispatched to exactly one closure invocation).
pub const FANOUT_FNS: &[&str] = &["map_shards", "ordered_pipeline"];

/// Recursion cap for derivation chains (`let a = b; let b = c; …`).
const MAX_DEPTH: usize = 6;

fn is_ident(t: &str) -> bool {
    t.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_')
}

/// Parameter names per position. Destructured patterns yield several
/// names for one position (`(lo, hi): (usize, usize)`); receiver-only
/// positions (`&self`) yield an empty set.
pub fn param_names(file: &ScannedFile, func: &Function) -> Vec<Vec<String>> {
    let tokens = &file.tokens;
    let text = |i: usize| tokens.get(i).map(|t| t.text.as_str()).unwrap_or("");
    // Find the parameter-list `(` after the function name, skipping
    // generics (`fn f<T: Fn(usize)>(x: T)` has a `(` inside `<…>`).
    let mut i = func.sig_start + 2;
    let mut angle = 0isize;
    while i < func.body.0 {
        match text(i) {
            "<" => angle += 1,
            ">" if text(i.wrapping_sub(1)) != "-" => angle = (angle - 1).max(0),
            "(" if angle == 0 => break,
            _ => {}
        }
        i += 1;
    }
    if text(i) != "(" {
        return Vec::new();
    }
    // Split the parens into depth-1 comma segments.
    let mut out: Vec<Vec<String>> = Vec::new();
    let mut seg: Vec<usize> = Vec::new();
    let mut depth = 0isize;
    let mut segs: Vec<Vec<usize>> = Vec::new();
    while i < func.body.0 {
        match text(i) {
            "(" | "[" => {
                depth += 1;
                if depth > 1 {
                    seg.push(i);
                }
            }
            ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    if !seg.is_empty() {
                        segs.push(std::mem::take(&mut seg));
                    }
                    break;
                }
                seg.push(i);
            }
            "," if depth == 1 => segs.push(std::mem::take(&mut seg)),
            _ => {
                if depth >= 1 {
                    seg.push(i);
                }
            }
        }
        i += 1;
    }
    for seg in segs {
        // Names are the idents before the first `:` in the segment
        // (pattern side); everything after is the type.
        let mut names = Vec::new();
        for &k in &seg {
            if text(k) == ":" {
                break;
            }
            let t = text(k);
            if is_ident(t) && !is_keyword(t) {
                names.push(t.to_string());
            }
        }
        out.push(names);
    }
    out
}

/// Identifiers used as *values* in `tokens[lo..hi]`: field names after
/// `.` and keywords are excluded.
pub fn expr_idents(file: &ScannedFile, lo: usize, hi: usize) -> Vec<String> {
    let tokens = &file.tokens;
    let text = |i: usize| tokens.get(i).map(|t| t.text.as_str()).unwrap_or("");
    let mut out = Vec::new();
    for i in lo..hi.min(tokens.len()) {
        let t = text(i);
        if is_ident(t) && !is_keyword(t) && text(i.wrapping_sub(1)) != "." {
            out.push(t.to_string());
        }
    }
    out
}

/// Does `tokens[lo..hi]` contain a call to a partition source?
pub fn is_partition_expr(file: &ScannedFile, lo: usize, hi: usize) -> bool {
    let tokens = &file.tokens;
    let text = |i: usize| tokens.get(i).map(|t| t.text.as_str()).unwrap_or("");
    for i in lo..hi.min(tokens.len()) {
        if PARTITION_SOURCES.contains(&text(i)) && text(i + 1) == "(" {
            return true;
        }
    }
    false
}

/// Closure-parameter names of fan-out calls inside `tokens[lo..hi]`.
///
/// For `map_shards(items, w, |t, shard| …)` this yields `t` and `shard`. All closures
/// lexically inside the fan-out call's parens contribute (the nested
/// `.map(|x| …)` case over-approximates toward *not* flagging, which
/// matches the fan-out contract: those closures still run under a
/// unique task index).
pub fn fanout_closure_params(file: &ScannedFile, lo: usize, hi: usize) -> BTreeSet<String> {
    let tokens = &file.tokens;
    let text = |i: usize| tokens.get(i).map(|t| t.text.as_str()).unwrap_or("");
    let mut out = BTreeSet::new();
    let mut i = lo;
    while i < hi.min(tokens.len()) {
        if FANOUT_FNS.contains(&text(i)) && text(i + 1) == "(" {
            // Walk the call's argument parens.
            let mut depth = 0isize;
            let mut j = i + 1;
            while j < tokens.len() {
                match text(j) {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    "|" => {
                        // Closure open: previous token introduces an
                        // expression position (not a binary `a | b`).
                        let prev = text(j.wrapping_sub(1));
                        if matches!(prev, "(" | "," | "=" | "{" | "move" | "&") {
                            let mut k = j + 1;
                            while k < tokens.len() && text(k) != "|" {
                                let t = text(k);
                                if is_ident(t) && !is_keyword(t) && text(k.wrapping_sub(1)) != "."
                                {
                                    out.insert(t.to_string());
                                }
                                k += 1;
                            }
                            j = k;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            i = j;
        }
        i += 1;
    }
    out
}

/// Is `name`, inside function `fi` of `file`, derived from a partition
/// source? See the module docs for the exact semantics.
pub fn ident_derived(
    file: &ScannedFile,
    ff: &FileFunctions,
    fi: usize,
    name: &str,
    visited: &mut BTreeSet<String>,
    depth: usize,
) -> bool {
    if depth >= MAX_DEPTH || !visited.insert(name.to_string()) {
        return false;
    }
    let func = &ff.functions[fi];
    let (lo, hi) = (func.body.0 + 1, func.body.1);
    if fanout_closure_params(file, lo, hi).contains(name) {
        return true;
    }
    for (elo, ehi) in binding_exprs(file, ff, fi, name) {
        if expr_derived(file, ff, fi, elo, ehi, visited, depth + 1) {
            return true;
        }
    }
    false
}

/// Is the expression `tokens[lo..hi]` partition-derived: either it
/// calls a partition source directly, or any identifier it uses is
/// itself derived?
pub fn expr_derived(
    file: &ScannedFile,
    ff: &FileFunctions,
    fi: usize,
    lo: usize,
    hi: usize,
    visited: &mut BTreeSet<String>,
    depth: usize,
) -> bool {
    if is_partition_expr(file, lo, hi) {
        return true;
    }
    if depth >= MAX_DEPTH {
        return false;
    }
    expr_idents(file, lo, hi)
        .iter()
        .any(|name| ident_derived(file, ff, fi, name, visited, depth))
}

/// Initializer/iterated-expression token ranges for every binding of
/// `name` inside function `fi`: `let <pat> = <expr>;` and
/// `for <pat> in <expr> {`.
pub fn binding_exprs(
    file: &ScannedFile,
    ff: &FileFunctions,
    fi: usize,
    name: &str,
) -> Vec<(usize, usize)> {
    let tokens = &file.tokens;
    let text = |i: usize| tokens.get(i).map(|t| t.text.as_str()).unwrap_or("");
    let func = &ff.functions[fi];
    let (lo, hi) = (func.body.0 + 1, func.body.1);
    let mut out = Vec::new();
    for i in lo..hi.min(tokens.len()) {
        // Only bindings owned by this function (nested `fn` items have
        // their own owner index; closures share ours, which is right).
        if ff.owner.get(i) != Some(&Some(fi)) {
            continue;
        }
        match text(i) {
            "let" => {
                // Pattern runs to the `=` (depth 0); a `let` with no
                // initializer ends at `;`.
                let mut j = i + 1;
                let mut depth = 0isize;
                let mut bound = false;
                while j < hi {
                    match text(j) {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "=" if depth == 0 && text(j + 1) != "=" && text(j.wrapping_sub(1)) != "="
                            && !matches!(text(j.wrapping_sub(1)), "<" | ">" | "!" | "+" | "-") =>
                        {
                            break
                        }
                        ";" if depth == 0 => break,
                        t if t == name && is_ident(t) => bound = true,
                        _ => {}
                    }
                    j += 1;
                }
                if bound && text(j) == "=" {
                    // Initializer runs to the statement `;` at depth 0.
                    let start = j + 1;
                    let mut depth = 0isize;
                    let mut k = start;
                    while k < hi {
                        match text(k) {
                            "(" | "[" | "{" => depth += 1,
                            ")" | "]" | "}" => depth -= 1,
                            ";" if depth <= 0 => break,
                            _ => {}
                        }
                        k += 1;
                    }
                    out.push((start, k));
                }
            }
            "for" => {
                // `for <pat> in <expr> {` — the iterated expression is
                // what the loop variable is derived from.
                let mut j = i + 1;
                let mut bound = false;
                while j < hi && text(j) != "in" {
                    if text(j) == name {
                        bound = true;
                    }
                    // Guard against scanning past a non-loop `for`
                    // (e.g. `impl T for U` never owned by a fn body,
                    // but stay bounded anyway).
                    if text(j) == "{" || text(j) == ";" {
                        break;
                    }
                    j += 1;
                }
                if bound && text(j) == "in" {
                    let start = j + 1;
                    let mut depth = 0isize;
                    let mut k = start;
                    while k < hi {
                        match text(k) {
                            "(" | "[" => depth += 1,
                            ")" | "]" => depth -= 1,
                            "{" if depth == 0 => break,
                            _ => {}
                        }
                        k += 1;
                    }
                    out.push((start, k));
                }
            }
            _ => {}
        }
    }
    out
}

/// A `SendPtr` dereference site.
#[derive(Debug)]
pub struct PtrSite {
    /// Function index within the file.
    pub fn_index: usize,
    /// Line of the `.write`/`.read` token.
    pub line: usize,
    /// Method name (`write`, `read`, `add`, `offset`).
    pub method: String,
    /// Token range of the index expression (first argument).
    pub idx: (usize, usize),
}

/// Names bound to a `SendPtr` inside function `fi`: parameters typed
/// `SendPtr<…>` and `let` bindings whose initializer mentions
/// `SendPtr` or copies a known `SendPtr` name (one propagation pass —
/// `SendPtr` is `Copy`, so aliasing chains are short by construction).
pub fn sendptr_names(file: &ScannedFile, ff: &FileFunctions, fi: usize) -> BTreeSet<String> {
    let tokens = &file.tokens;
    let text = |i: usize| tokens.get(i).map(|t| t.text.as_str()).unwrap_or("");
    let func = &ff.functions[fi];
    let mut names = BTreeSet::new();
    // Parameters: a `SendPtr` in a segment's type names the segment.
    for (pos, pnames) in param_names(file, func).iter().enumerate() {
        let _ = pos;
        // Re-scan the signature: cheap and simple — if the signature
        // mentions SendPtr at all, check which segment.
        if pnames.is_empty() {
            continue;
        }
        // param_names gives pattern-side names only; find the segment
        // type by locating `name :` in the signature and scanning to
        // the next depth-1 `,`.
        for name in pnames {
            for i in func.sig_start..func.body.0 {
                if text(i) == name.as_str() && text(i + 1) == ":" {
                    let mut j = i + 2;
                    let mut depth = 0isize;
                    while j < func.body.0 {
                        match text(j) {
                            "(" | "[" | "<" => depth += 1,
                            ")" | "]" => depth -= 1,
                            ">" if text(j.wrapping_sub(1)) != "-" => depth -= 1,
                            "," if depth <= 0 => break,
                            "SendPtr" => {
                                names.insert(name.clone());
                                break;
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                }
            }
        }
    }
    // Two passes over `let` bindings: first SendPtr constructors, then
    // one copy-propagation pass.
    for _ in 0..2 {
        let (lo, hi) = (func.body.0 + 1, func.body.1);
        let mut i = lo;
        while i < hi.min(tokens.len()) {
            if text(i) == "let" && ff.owner.get(i) == Some(&Some(fi)) {
                // First ident of the pattern is the bound name.
                let mut j = i + 1;
                while j < hi && (text(j) == "mut" || text(j) == "ref") {
                    j += 1;
                }
                let bound = text(j).to_string();
                if is_ident(&bound) && !is_keyword(&bound) {
                    // Scan the initializer for SendPtr or a known name.
                    let mut k = j + 1;
                    let mut depth = 0isize;
                    let mut hit = false;
                    while k < hi {
                        match text(k) {
                            "(" | "[" | "{" => depth += 1,
                            ")" | "]" | "}" => depth -= 1,
                            ";" if depth <= 0 => break,
                            t if t == "SendPtr" || names.contains(t) => hit = true,
                            _ => {}
                        }
                        k += 1;
                    }
                    if hit {
                        names.insert(bound);
                    }
                }
            }
            i += 1;
        }
    }
    names
}

/// All `SendPtr` dereference sites in function `fi`:
/// `name.write(i, v)`, `name.read(i)`, `name.add(i)`, `name.offset(i)`
/// where `name` is a known `SendPtr` binding.
pub fn sendptr_sites(file: &ScannedFile, ff: &FileFunctions, fi: usize) -> Vec<PtrSite> {
    let tokens = &file.tokens;
    let text = |i: usize| tokens.get(i).map(|t| t.text.as_str()).unwrap_or("");
    let names = sendptr_names(file, ff, fi);
    if names.is_empty() {
        return Vec::new();
    }
    let func = &ff.functions[fi];
    let (lo, hi) = (func.body.0 + 1, func.body.1);
    let mut out = Vec::new();
    for i in lo..hi.min(tokens.len()) {
        let method = text(i);
        if !matches!(method, "write" | "read" | "add" | "offset") || text(i + 1) != "(" {
            continue;
        }
        if text(i.wrapping_sub(1)) != "." {
            continue;
        }
        let recv = text(i.wrapping_sub(2));
        if !names.contains(recv) {
            continue;
        }
        // Index expression: from after `(` to the depth-1 `,` (write's
        // value argument) or the matching `)`.
        let start = i + 2;
        let mut depth = 1isize;
        let mut k = start;
        while k < hi.min(tokens.len()) {
            match text(k) {
                "(" | "[" => depth += 1,
                ")" | "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "," if depth == 1 => break,
                _ => {}
            }
            k += 1;
        }
        out.push(PtrSite {
            fn_index: fi,
            line: tokens[i].line,
            method: method.to_string(),
            idx: (start, k),
        });
    }
    out
}

/// Parameter positions of function `fi` that flow into unsafe pointer
/// arithmetic (a `SendPtr` index or raw-pointer `.add`/`.offset`).
/// This is the fact call-site checks consume.
pub fn unsafe_index_params(file: &ScannedFile, ff: &FileFunctions, fi: usize) -> BTreeSet<usize> {
    let func = &ff.functions[fi];
    let params = param_names(file, func);
    if params.is_empty() {
        return BTreeSet::new();
    }
    let mut positions = BTreeSet::new();
    for site in sendptr_sites(file, ff, fi) {
        for name in expr_idents(file, site.idx.0, site.idx.1) {
            for (pos, pnames) in params.iter().enumerate() {
                if pnames.contains(&name) {
                    positions.insert(pos);
                }
            }
        }
    }
    positions
}

/// Does function `fi` start threads — directly (`spawn(…)`) or through
/// a fan-out primitive?
pub fn spawns_threads(file: &ScannedFile, ff: &FileFunctions, fi: usize) -> bool {
    let tokens = &file.tokens;
    let text = |i: usize| tokens.get(i).map(|t| t.text.as_str()).unwrap_or("");
    let func = &ff.functions[fi];
    for i in (func.body.0 + 1)..func.body.1.min(tokens.len()) {
        let t = text(i);
        if (t == "spawn" || t == "scope" || FANOUT_FNS.contains(&t)) && text(i + 1) == "(" {
            return true;
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

    fn fn_index(ff: &FileFunctions, name: &str) -> usize {
        ff.functions.iter().position(|f| f.name == name).unwrap()
    }

    #[test]
    fn params_positional_with_destructuring() {
        let src = "fn f(a: usize, (lo, hi): (usize, usize), buf: &mut [f64]) { }";
        let (f, ff) = setup(src);
        let p = param_names(&f, &ff.functions[0]);
        assert_eq!(p, vec![vec!["a"], vec!["lo", "hi"], vec!["buf"]]);
    }

    #[test]
    fn params_skip_generics_with_fn_bounds() {
        let src = "fn f<T: Fn(usize) -> usize>(g: T, n: usize) { }";
        let (f, ff) = setup(src);
        let p = param_names(&f, &ff.functions[0]);
        assert_eq!(p, vec![vec!["g"], vec!["n"]]);
    }

    #[test]
    fn for_loop_over_partition_ranges_derives() {
        let src = r#"
fn f(n: usize, w: usize) {
    let ranges = partition_ranges(n, w);
    for range in ranges {
        for i in range {
            use_index(i);
        }
    }
}
"#;
        let (f, ff) = setup(src);
        let fi = fn_index(&ff, "f");
        for name in ["ranges", "range", "i"] {
            let mut v = BTreeSet::new();
            assert!(ident_derived(&f, &ff, fi, name, &mut v, 0), "{name} should derive");
        }
        let mut v = BTreeSet::new();
        assert!(!ident_derived(&f, &ff, fi, "n", &mut v, 0), "param n is not derived");
    }

    #[test]
    fn fanout_closure_param_derives() {
        let src = r#"
fn f(workers: usize, tasks: usize) {
    map_shards(items, workers, |t, _| {
        use_index(t);
    });
}
"#;
        let (f, ff) = setup(src);
        let fi = fn_index(&ff, "f");
        let mut v = BTreeSet::new();
        assert!(ident_derived(&f, &ff, fi, "t", &mut v, 0));
        let mut v = BTreeSet::new();
        assert!(!ident_derived(&f, &ff, fi, "workers", &mut v, 0));
    }

    #[test]
    fn unrelated_binding_does_not_derive() {
        let src = r#"
fn f() {
    let i = next_slot();
    use_index(i);
}
"#;
        let (f, ff) = setup(src);
        let fi = fn_index(&ff, "f");
        let mut v = BTreeSet::new();
        assert!(!ident_derived(&f, &ff, fi, "i", &mut v, 0));
    }

    #[test]
    fn sendptr_sites_found_with_index_range() {
        let src = r#"
fn f(slots: &mut Vec<u8>) {
    let ptr = SendPtr::new(slots.as_mut_ptr(), slots.len());
    let alias = ptr;
    for (k, _) in work.iter().enumerate() {
        unsafe { alias.write(base + k, 1) };
        unsafe { ptr.read(k) };
    }
}
"#;
        let (f, ff) = setup(src);
        let fi = fn_index(&ff, "f");
        let names = sendptr_names(&f, &ff, fi);
        assert!(names.contains("ptr") && names.contains("alias"), "{names:?}");
        let sites = sendptr_sites(&f, &ff, fi);
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[0].method, "write");
        let idx_idents = expr_idents(&f, sites[0].idx.0, sites[0].idx.1);
        assert_eq!(idx_idents, vec!["base", "k"]);
        assert_eq!(sites[1].method, "read");
    }

    #[test]
    fn sendptr_param_and_index_param_fact() {
        let src = r#"
fn fill(ptr: SendPtr<f64>, i: usize, v: f64) {
    unsafe { ptr.write(i, v) };
}
"#;
        let (f, ff) = setup(src);
        let fi = fn_index(&ff, "fill");
        assert!(sendptr_names(&f, &ff, fi).contains("ptr"));
        let positions = unsafe_index_params(&f, &ff, fi);
        assert_eq!(positions.into_iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn spawn_detection() {
        let src = r#"
fn spawner() { std::thread::scope(|s| { s.spawn(|| {}); }); }
fn fanout(w: usize) { map_shards(items, w, |r, _| r); }
fn quiet() { helper(); }
"#;
        let (f, ff) = setup(src);
        assert!(spawns_threads(&f, &ff, fn_index(&ff, "spawner")));
        assert!(spawns_threads(&f, &ff, fn_index(&ff, "fanout")));
        assert!(!spawns_threads(&f, &ff, fn_index(&ff, "quiet")));
    }
}
