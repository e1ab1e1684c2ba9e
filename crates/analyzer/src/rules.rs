//! The lint rules. Each rule walks pre-scanned tokens and yields
//! violations; suppression is handled by the caller against
//! `lint-allow.toml`.

use crate::functions::{is_keyword, FileFunctions};
use crate::lexer::ScannedFile;

/// Rule identifiers (also the `rule = "…"` keys in lint-allow.toml).
pub const RULE_CAST: &str = "unchecked-cast";
pub const RULE_PANIC: &str = "panic-in-decoder";
pub const RULE_SPEC: &str = "spec-drift";

/// One rule violation, pre-suppression.
#[derive(Debug, Clone)]
pub struct Violation {
    pub rule: &'static str,
    pub path: String,
    pub line: usize,
    /// Enclosing function, when the rule is function-scoped.
    pub symbol: Option<String>,
    pub message: String,
}

const NUMERIC_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
    "f32", "f64",
];

const PANIC_CALLS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];
const PANIC_MACROS: &[&str] =
    &["panic", "unreachable", "todo", "unimplemented", "assert", "assert_eq", "assert_ne"];

/// Rule `unchecked-cast`: no `as <numeric>` casts inside functions
/// reachable from the decode entry points. Lossless widenings must use
/// `From`; everything else `try_from` with a propagated error.
pub fn check_casts(
    file: &ScannedFile,
    ff: &FileFunctions,
    in_scope: &dyn Fn(usize) -> bool,
) -> Vec<Violation> {
    let text = |i: usize| file.tokens.get(i).map(|t| t.text.as_str()).unwrap_or("");
    let mut out = Vec::new();
    for (i, tok) in file.tokens.iter().enumerate() {
        if tok.text != "as" {
            continue;
        }
        let Some(fi) = ff.owner.get(i).copied().flatten() else { continue };
        if !in_scope(fi) {
            continue;
        }
        let target = text(i + 1);
        if NUMERIC_TYPES.contains(&target) {
            out.push(Violation {
                rule: RULE_CAST,
                path: file.path.clone(),
                line: tok.line,
                symbol: Some(ff.functions[fi].name.clone()),
                message: format!(
                    "`as {target}` cast in decoder-reachable fn `{}`; use `{target}::from` \
                     (lossless) or `{target}::try_from` with a propagated error",
                    ff.functions[fi].name
                ),
            });
        }
    }
    out
}

/// Rule `panic-in-decoder`: no unwrap/expect, panicking macros, or
/// unchecked indexing in functions reachable from the decode entry
/// points. `debug_assert!` is permitted (compiled out in release).
pub fn check_panics(
    file: &ScannedFile,
    ff: &FileFunctions,
    in_scope: &dyn Fn(usize) -> bool,
) -> Vec<Violation> {
    let text = |i: usize| file.tokens.get(i).map(|t| t.text.as_str()).unwrap_or("");
    let mut out = Vec::new();
    let mut push = |i: usize, fi: usize, what: String| {
        out.push(Violation {
            rule: RULE_PANIC,
            path: file.path.clone(),
            line: file.tokens[i].line,
            symbol: Some(ff.functions[fi].name.clone()),
            message: format!(
                "{what} in decoder-reachable fn `{}` can panic on untrusted input; \
                 return a typed error instead",
                ff.functions[fi].name
            ),
        });
    };
    for (i, tok) in file.tokens.iter().enumerate() {
        let Some(fi) = ff.owner.get(i).copied().flatten() else { continue };
        if !in_scope(fi) {
            continue;
        }
        let t = tok.text.as_str();
        if PANIC_CALLS.contains(&t) && text(i.wrapping_sub(1)) == "." && text(i + 1) == "(" {
            push(i, fi, format!("`.{t}()`"));
            continue;
        }
        if PANIC_MACROS.contains(&t) && text(i + 1) == "!" && text(i.wrapping_sub(1)) != "." {
            push(i, fi, format!("`{t}!`"));
            continue;
        }
        if t == "[" {
            let prev = text(i.wrapping_sub(1));
            let is_index_base = prev == ")"
                || prev == "]"
                || (prev.chars().next().is_some_and(|c| c.is_alphanumeric() || c == '_')
                    && !is_keyword(prev));
            if i > 0 && is_index_base {
                push(i, fi, "unchecked indexing `[…]`".to_string());
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

    fn all(_: usize) -> bool {
        true
    }

    #[test]
    fn flags_numeric_casts_only() {
        let src = "fn f(x: u64, p: *const u8) -> usize { let _ = p as *const u16; x as usize }";
        let f = scan("t.rs", src);
        let ff = extract(&f);
        let v = check_casts(&f, &ff, &all);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("as usize"));
    }

    #[test]
    fn flags_unwrap_macros_and_indexing() {
        let src = r#"
fn f(d: &[u8]) -> u8 {
    let x: [u8; 2] = [0, 1];
    let _ = x;
    assert!(d.len() > 1);
    debug_assert!(d.len() > 1);
    let v = d.first().unwrap();
    d[1] + *v
}
"#;
        let f = scan("t.rs", src);
        let ff = extract(&f);
        let v = check_panics(&f, &ff, &all);
        let msgs: Vec<&str> = v.iter().map(|v| v.message.as_str()).collect();
        assert_eq!(v.len(), 3, "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("assert!")));
        assert!(msgs.iter().any(|m| m.contains("unwrap")));
        assert!(msgs.iter().any(|m| m.contains("indexing")));
    }
}
