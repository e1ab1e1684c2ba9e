//! `simd-unguarded-dispatch`: every `#[target_feature]` kernel must be
//! reached through a feature-detect guard.
//!
//! Calling a `#[target_feature(enable = "…")]` function on a CPU that
//! lacks the feature is undefined behavior, so the workspace contract
//! (DESIGN.md §16) is that every such call goes through the dispatch
//! layer: a function that consults `is_x86_feature_detected!` /
//! `CKPT_FORCE_SCALAR` itself, or transitively calls one that does
//! (`Level::assert_available` sits two hops above the kernels).
//!
//! The check is a name-based approximation over the token stream:
//!
//! - *guards* are seeded from functions whose body text mentions a
//!   [`GUARD_MARKERS`] entry, then closed under "calls a guard" to a
//!   fixpoint across the whole scanned file set (the dispatch helpers
//!   live in a different file than the kernels);
//! - a call site is flagged when the callee name is defined **only**
//!   as a `#[target_feature]` function in the same file and the caller
//!   is neither guarded nor `#[target_feature]` itself.
//!
//! Same-file scoping is sound for this workspace: the tier modules are
//! `pub(super)`, so kernels cannot be named outside their defining
//! file. Names with both a scalar and a tier definition (the
//! `scalar::foo` / `avx2::foo` convention) are ambiguous to a
//! name-based check and are skipped — their call sites are the
//! dispatchers, which the guard closure covers anyway.

use crate::functions::{is_keyword, FileFunctions};
use crate::lexer::ScannedFile;
use crate::rules::Violation;
use std::collections::BTreeSet;

pub const RULE_SIMD: &str = "simd-unguarded-dispatch";

/// Raw-text markers (checked against source lines, not tokens, because
/// the lexer collapses string literals) that make a function a guard
/// by itself: CPU feature detection, or the scalar-forcing escape
/// hatch that pins dispatch below every feature gate.
const GUARD_MARKERS: &[&str] = &["is_x86_feature_detected", "CKPT_FORCE_SCALAR"];

/// Indices into `ff.functions` of fns carrying `#[target_feature]`.
fn target_feature_fns(file: &ScannedFile, ff: &FileFunctions) -> BTreeSet<usize> {
    let text = |i: usize| file.tokens.get(i).map(|t| t.text.as_str()).unwrap_or("");
    let mut out = BTreeSet::new();
    for i in 0..file.tokens.len() {
        if text(i) == "#" && text(i + 1) == "[" && text(i + 2) == "target_feature" {
            // The attribute can only decorate a fn; find it. Other
            // attributes / visibility / `unsafe` may sit in between.
            let mut j = i + 3;
            while !text(j).is_empty() && text(j) != "fn" {
                j += 1;
            }
            if let Some(fi) = ff.functions.iter().position(|f| f.sig_start == j) {
                out.insert(fi);
            }
        }
    }
    out
}

/// True when the raw text of `fi`'s line span mentions a guard marker.
fn is_guard_seed(file: &ScannedFile, ff: &FileFunctions, fi: usize) -> bool {
    let f = &ff.functions[fi];
    (f.sig_line..=f.end_line)
        .any(|n| GUARD_MARKERS.iter().any(|m| file.line(n).contains(m)))
}

/// Call sites inside `fi`: `(token index, callee name)` for every
/// `ident (` pair owned by the function. Macro invocations (`ident !`)
/// and fn definitions (`fn ident`) don't match the pattern.
fn call_sites<'a>(
    file: &'a ScannedFile,
    ff: &FileFunctions,
    fi: usize,
) -> Vec<(usize, &'a str)> {
    let text = |i: usize| file.tokens.get(i).map(|t| t.text.as_str()).unwrap_or("");
    let mut out = Vec::new();
    for i in 0..file.tokens.len() {
        if ff.owner.get(i).copied().flatten() != Some(fi) {
            continue;
        }
        let name = text(i);
        if name.is_empty()
            || is_keyword(name)
            || !name.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_')
        {
            continue;
        }
        if text(i + 1) == "(" && (i == 0 || text(i - 1) != "fn") {
            out.push((i, &file.tokens[i].text[..]));
        }
    }
    out
}

/// Runs the rule over the scanned file set.
pub fn check(files: &[(&ScannedFile, &FileFunctions)]) -> Vec<Violation> {
    // Guard closure across the whole file set: seeds, then fixpoint on
    // "calls a guarded name". Name-based propagation can over-approve
    // (a colliding name elsewhere), never over-flag.
    let mut guarded: Vec<Vec<bool>> = files
        .iter()
        .map(|(file, ff)| {
            (0..ff.functions.len()).map(|fi| is_guard_seed(file, ff, fi)).collect()
        })
        .collect();
    let mut guarded_names: BTreeSet<String> = files
        .iter()
        .zip(&guarded)
        .flat_map(|((_, ff), g)| {
            ff.functions
                .iter()
                .zip(g)
                .filter(|(_, &is_g)| is_g)
                .map(|(f, _)| f.name.clone())
                .collect::<Vec<_>>()
        })
        .collect();
    loop {
        let mut changed = false;
        for (k, (file, ff)) in files.iter().enumerate() {
            for (fi, f) in ff.functions.iter().enumerate() {
                if guarded[k][fi] {
                    continue;
                }
                let reaches_guard = call_sites(file, ff, fi)
                    .iter()
                    .any(|(_, name)| guarded_names.contains(*name));
                if reaches_guard {
                    guarded[k][fi] = true;
                    guarded_names.insert(f.name.clone());
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    let mut out = Vec::new();
    for (k, (file, ff)) in files.iter().enumerate() {
        let tf = target_feature_fns(file, ff);
        if tf.is_empty() {
            continue;
        }
        // Names defined *only* with the attribute in this file; shared
        // scalar/tier names are ambiguous and skipped (module doc).
        let tf_names: BTreeSet<&str> =
            tf.iter().map(|&fi| ff.functions[fi].name.as_str()).collect();
        let plain_names: BTreeSet<&str> = (0..ff.functions.len())
            .filter(|fi| !tf.contains(fi))
            .map(|fi| ff.functions[fi].name.as_str())
            .collect();
        let unique: BTreeSet<&str> = tf_names.difference(&plain_names).copied().collect();
        for (fi, f) in ff.functions.iter().enumerate() {
            if tf.contains(&fi) || guarded[k][fi] {
                continue;
            }
            for (tok, name) in call_sites(file, ff, fi) {
                if unique.contains(name) {
                    out.push(Violation {
                        rule: RULE_SIMD,
                        path: file.path.clone(),
                        line: file.tokens[tok].line,
                        symbol: Some(f.name.clone()),
                        message: format!(
                            "`{name}` is #[target_feature] but `{}` reaches it without a \
                             feature-detect guard; route the call through the dispatch layer \
                             (is_x86_feature_detected! / Level::assert_available)",
                            f.name
                        ),
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::extract;
    use crate::lexer::scan;

    fn run_on(src: &str) -> Vec<Violation> {
        let file = scan("t.rs", src);
        let ff = extract(&file);
        check(&[(&file, &ff)])
    }

    #[test]
    fn unguarded_call_is_flagged_at_the_call_site() {
        let v = run_on(
            r#"
#[target_feature(enable = "avx2")]
unsafe fn sum_avx2(xs: &[f64]) -> f64 { xs.iter().sum() }
pub fn sum(xs: &[f64]) -> f64 { unsafe { sum_avx2(xs) } }
"#,
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RULE_SIMD);
        assert_eq!(v[0].symbol.as_deref(), Some("sum"));
        assert!(v[0].message.contains("sum_avx2"));
    }

    #[test]
    fn direct_and_transitive_guards_are_clean() {
        let v = run_on(
            r#"
#[target_feature(enable = "avx2")]
unsafe fn sum_avx2(xs: &[f64]) -> f64 { xs.iter().sum() }
fn have_avx2() -> bool { is_x86_feature_detected!("avx2") }
pub fn direct(xs: &[f64]) -> f64 {
    if is_x86_feature_detected!("avx2") { unsafe { sum_avx2(xs) } } else { 0.0 }
}
pub fn transitive(xs: &[f64]) -> f64 {
    if have_avx2() { unsafe { sum_avx2(xs) } } else { 0.0 }
}
"#,
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn target_feature_callers_are_exempt() {
        let v = run_on(
            r#"
#[target_feature(enable = "avx2")]
unsafe fn inner(x: f64) -> f64 { x }
#[target_feature(enable = "avx2")]
unsafe fn outer(x: f64) -> f64 { inner(x) }
fn entry(x: f64) -> f64 {
    if is_x86_feature_detected!("avx2") { unsafe { outer(x) } } else { x }
}
"#,
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn shared_scalar_and_tier_names_are_skipped() {
        // `kernel` has both a plain and a #[target_feature] definition
        // (the scalar/tier module convention): name resolution is
        // ambiguous to a token scan, so the rule stays silent.
        let v = run_on(
            r#"
mod scalar { pub fn kernel(x: f64) -> f64 { x } }
mod avx2 {
    #[target_feature(enable = "avx2")]
    pub unsafe fn kernel(x: f64) -> f64 { x }
}
pub fn run(x: f64) -> f64 { scalar::kernel(x) }
"#,
        );
        assert!(v.is_empty(), "{v:?}");
    }
}
