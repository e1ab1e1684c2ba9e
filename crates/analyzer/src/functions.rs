//! Function-span extraction over the token stream: every `fn` item's
//! name and body token range, with `#[cfg(test)] mod`
//! ranges excluded (test code exercises panics on purpose).

use crate::lexer::{ScannedFile, Token};

/// One extracted function (or method; closures belong to their
/// enclosing function's span).
#[derive(Debug, Clone)]
pub struct Function {
    pub name: String,
    /// Token index of the body's opening `{` (exclusive start: the
    /// body tokens are `body.0 + 1 .. body.1`).
    pub body: (usize, usize),
}

/// Extraction result: functions plus, per token, the index of the
/// innermost function owning it (`None` for item-level tokens).
#[derive(Debug)]
pub struct FileFunctions {
    pub functions: Vec<Function>,
    pub owner: Vec<Option<usize>>,
}

const KEYWORDS: &[&str] = &[
    "if", "else", "while", "match", "for", "loop", "return", "as", "in", "move", "fn", "let",
    "unsafe", "ref", "mut", "pub", "const", "static", "use", "mod", "impl", "trait", "struct",
    "enum", "where", "dyn", "break", "continue", "await", "async", "self", "Self", "super",
    "crate", "true", "false",
];

pub fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// Marks token ranges inside `#[cfg(test)] mod … { … }` blocks.
fn cfg_test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let text = |i: usize| tokens.get(i).map(|t| t.text.as_str()).unwrap_or("");
    let mut i = 0usize;
    while i < tokens.len() {
        // Match `# [ cfg ( test ) ]`.
        if text(i) == "#"
            && text(i + 1) == "["
            && text(i + 2) == "cfg"
            && text(i + 3) == "("
            && text(i + 4) == "test"
            && text(i + 5) == ")"
            && text(i + 6) == "]"
        {
            // Skip any further attributes, then expect `mod name {`.
            let mut j = i + 7;
            while text(j) == "#" && text(j + 1) == "[" {
                let mut depth = 0usize;
                let mut k = j + 1;
                loop {
                    match text(k) {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        "" => break,
                        _ => {}
                    }
                    k += 1;
                }
                j = k + 1;
            }
            if text(j) == "mod" || text(j) == "pub" {
                // Find the opening brace and blank out to its match.
                let mut k = j;
                while !text(k).is_empty() && text(k) != "{" && text(k) != ";" {
                    k += 1;
                }
                if text(k) == "{" {
                    let mut depth = 0usize;
                    let mut m = k;
                    while !text(m).is_empty() {
                        match text(m) {
                            "{" => depth += 1,
                            "}" => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        m += 1;
                    }
                    for slot in mask.iter_mut().take(m + 1).skip(i) {
                        *slot = true;
                    }
                    i = m + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
    mask
}

/// Extracts all functions from a scanned file.
pub fn extract(file: &ScannedFile) -> FileFunctions {
    let tokens = &file.tokens;
    let mask = cfg_test_mask(tokens);
    let text = |i: usize| tokens.get(i).map(|t| t.text.as_str()).unwrap_or("");

    let mut functions: Vec<Function> = Vec::new();
    let mut owner = vec![None; tokens.len()];
    // Stack of (function index, brace depth at which its body opened).
    let mut stack: Vec<(usize, usize)> = Vec::new();
    let mut depth = 0usize;
    let mut i = 0usize;
    while i < tokens.len() {
        if mask[i] {
            i += 1;
            continue;
        }
        match text(i) {
            "fn" if !text(i + 1).is_empty() && !is_keyword(text(i + 1)) => {
                let name = text(i + 1).to_string();
                // Scan to the body `{` (or `;` for bodiless signatures),
                // ignoring braces inside default generic params etc. by
                // tracking (), [], <> nesting lightly: a `{` at nesting 0
                // starts the body.
                let mut j = i + 2;
                let mut paren = 0isize;
                let body_open = loop {
                    match text(j) {
                        "(" | "[" => paren += 1,
                        ")" | "]" => paren -= 1,
                        "{" if paren == 0 => break Some(j),
                        ";" if paren == 0 => break None,
                        "" => break None,
                        _ => {}
                    }
                    j += 1;
                };
                if let Some(open) = body_open {
                    let idx = functions.len();
                    // Signature tokens between `fn` and `{` stay ownerless
                    // (they are types, not executable code).
                    functions.push(Function { name, body: (open, open) }); // end patched on close
                    // Advance to the body open brace; the `{` itself is
                    // processed by the depth tracking below.
                    depth += 1;
                    stack.push((idx, depth));
                    i = open + 1;
                    continue;
                }
                i = j + 1;
                continue;
            }
            "{" => {
                depth += 1;
            }
            "}" => {
                if let Some(&(idx, open_depth)) = stack.last() {
                    if depth == open_depth {
                        functions[idx].body.1 = i;
                        stack.pop();
                    }
                }
                depth = depth.saturating_sub(1);
            }
            _ => {}
        }
        if let Some(&(idx, _)) = stack.last() {
            owner[i] = Some(idx);
        }
        i += 1;
    }
    FileFunctions { functions, owner }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    #[test]
    fn extracts_nested_and_methods() {
        let src = r#"
impl Foo {
    pub fn outer(&self) -> usize {
        fn inner(x: usize) -> usize { x + 1 }
        inner(2)
    }
}
fn free() {}
"#;
        let f = scan("t.rs", src);
        let ff = extract(&f);
        let names: Vec<&str> = ff.functions.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner", "free"]);
        // `inner(2)` call token owned by `outer`.
        let call = f.tokens.iter().position(|t| t.text == "inner" && t.line == 5).unwrap();
        assert_eq!(ff.owner[call], Some(0));
    }

    #[test]
    fn cfg_test_modules_are_skipped() {
        let src = r#"
fn real() { }
#[cfg(test)]
mod tests {
    #[test]
    fn fake() { panic!("x") }
}
"#;
        let f = scan("t.rs", src);
        let ff = extract(&f);
        let names: Vec<&str> = ff.functions.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["real"]);
    }

    #[test]
    fn bodiless_trait_fn_skipped() {
        let src = "trait T { fn sig(&self) -> usize; } fn real() { 1; }";
        let f = scan("t.rs", src);
        let ff = extract(&f);
        let names: Vec<&str> = ff.functions.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["real"]);
    }
}
