//! Per-function dataflow facts over the token stream.
//!
//! - **binding expressions**: the `let` / `for` initializers an
//!   identifier is bound from ([`binding_exprs`]), and the identifiers
//!   an expression uses as values ([`expr_idents`]) — what the
//!   crash-consistency family traces a renamed path back through,
//! - **spawn detection**: does a function start threads (directly via
//!   `spawn` or through a fan-out primitive)? — the seed of
//!   `relaxed-cross-thread-flag`'s reachability.

use crate::functions::{is_keyword, FileFunctions};
use crate::lexer::ScannedFile;

/// The pool's fan-out primitives: a function calling one starts
/// threads.
pub const FANOUT_FNS: &[&str] = &["map_shards", "ordered_pipeline"];

fn is_ident(t: &str) -> bool {
    t.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_')
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
    fn a_name_binds_from_its_let_and_for_initializers() {
        let src = r#"
fn f(n: usize, w: usize) {
    let ranges = split(n, w);
    for range in ranges {
        use_index(lane.start + range.len);
    }
}
"#;
        let (f, ff) = setup(src);
        let fi = fn_index(&ff, "f");
        let bound_from = |name: &str| -> Vec<Vec<String>> {
            binding_exprs(&f, &ff, fi, name)
                .into_iter()
                .map(|(lo, hi)| expr_idents(&f, lo, hi))
                .collect()
        };
        assert_eq!(bound_from("ranges"), [["split", "n", "w"]]);
        assert_eq!(bound_from("range"), [["ranges"]]);
        assert!(bound_from("n").is_empty(), "a parameter has no initializer");
        // Field names after `.` are not values.
        let call = f.tokens.iter().position(|t| t.text == "use_index").unwrap();
        assert_eq!(expr_idents(&f, call + 2, call + 9), ["lane", "range"]);
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
