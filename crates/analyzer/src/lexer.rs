//! A line-aware Rust token scanner: just enough lexing to drive the
//! lint rules — identifiers, punctuation and brace structure, with
//! comments and string/char literals stripped from the token stream.
//! This is deliberately not a full parser: the rules are
//! token-pattern checks, and an over-approximation that errs toward
//! flagging is acceptable for a deny-by-default lint with a
//! justification-gated allowlist.

/// One lexical token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub text: String,
    pub line: usize,
}

/// A scanned source file.
#[derive(Debug)]
pub struct ScannedFile {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// Code tokens (comments and literal *contents* removed; string
    /// literals appear as a single `"…"` placeholder token so call
    /// detection is not confused by their contents).
    pub tokens: Vec<Token>,
    /// Raw source lines (1-based access via `line(n)`).
    pub lines: Vec<String>,
}

impl ScannedFile {
    /// The raw text of 1-based line `n` (empty if out of range).
    pub fn line(&self, n: usize) -> &str {
        n.checked_sub(1).and_then(|i| self.lines.get(i)).map(String::as_str).unwrap_or("")
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Scans `src` into tokens; `path` is recorded verbatim.
pub fn scan(path: &str, src: &str) -> ScannedFile {
    let lines: Vec<String> = src.lines().map(str::to_string).collect();
    let mut tokens = Vec::new();

    let chars: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    let mut line = 1usize;
    let n = chars.len();

    let mut push = |text: String, line: usize| tokens.push(Token { text, line });

    while i < n {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment (also doc comments `///`, `//!`).
        if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            while i < n && chars[i] != '\n' {
                i += 1;
            }
            continue;
        }
        // Block comment, possibly nested and multi-line.
        if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            let mut depth = 1;
            i += 2;
            while i < n && depth > 0 {
                if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    if chars[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            continue;
        }
        // String literals: "…", b"…", r"…", r#"…"#, br#"…"#.
        if c == '"' || (c == 'r' && matches!(chars.get(i + 1), Some('"') | Some('#')) && raw_string_ahead(&chars, i))
        {
            let (consumed, newlines) = skip_string(&chars, i);
            push("\"…\"".to_string(), line);
            line += newlines;
            i += consumed;
            continue;
        }
        if c == 'b' && i + 1 < n && (chars[i + 1] == '"' || (chars[i + 1] == 'r' && raw_string_ahead(&chars, i + 1))) {
            let (consumed, newlines) = skip_string(&chars, i + 1);
            push("\"…\"".to_string(), line);
            line += newlines;
            i += 1 + consumed;
            continue;
        }
        // Char literal vs lifetime: 'a' is a char, 'a (no closing quote
        // right after) is a lifetime.
        if c == '\'' || (c == 'b' && i + 1 < n && chars[i + 1] == '\'') {
            let at = if c == 'b' { i + 1 } else { i };
            if let Some(consumed) = char_literal_len(&chars, at) {
                push("'…'".to_string(), line);
                i = at + consumed;
                continue;
            }
            if c == '\'' {
                // Lifetime: consume the quote and the identifier.
                i += 1;
                let start = i;
                while i < n && is_ident_continue(chars[i]) {
                    i += 1;
                }
                let _ = start;
                push("'lt".to_string(), line);
                continue;
            }
        }
        // Identifier / keyword / number.
        if is_ident_start(c) || c.is_ascii_digit() {
            let start = i;
            while i < n && is_ident_continue(chars[i]) {
                i += 1;
            }
            push(chars[start..i].iter().collect(), line);
            continue;
        }
        // Punctuation: emit single chars; `::`, `->`, `=>` are not
        // needed as compound tokens by any rule.
        push(c.to_string(), line);
        i += 1;
    }

    ScannedFile { path: path.to_string(), tokens, lines }
}

/// True if `chars[i..]` begins a raw string (`r"`, `r#"`, `r##"` …).
fn raw_string_ahead(chars: &[char], i: usize) -> bool {
    if chars.get(i) != Some(&'r') {
        return false;
    }
    let mut j = i + 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

/// Length in chars of the string literal starting at `chars[i]`
/// (a `"` or the `r` of a raw string), plus the newline count inside.
fn skip_string(chars: &[char], i: usize) -> (usize, usize) {
    let n = chars.len();
    let mut newlines = 0usize;
    if chars[i] == 'r' {
        let mut hashes = 0usize;
        let mut j = i + 1;
        while chars.get(j) == Some(&'#') {
            hashes += 1;
            j += 1;
        }
        j += 1; // opening quote
        while j < n {
            if chars[j] == '\n' {
                newlines += 1;
            }
            if chars[j] == '"' {
                let mut k = 0usize;
                while k < hashes && chars.get(j + 1 + k) == Some(&'#') {
                    k += 1;
                }
                if k == hashes {
                    return (j + 1 + hashes - i, newlines);
                }
            }
            j += 1;
        }
        return (n - i, newlines);
    }
    let mut j = i + 1;
    while j < n {
        match chars[j] {
            '\\' => j += 2,
            '\n' => {
                newlines += 1;
                j += 1;
            }
            '"' => return (j + 1 - i, newlines),
            _ => j += 1,
        }
    }
    (n - i, newlines)
}

/// Length of a char literal starting at the `'` at `chars[i]`, or
/// `None` if this is a lifetime rather than a char.
fn char_literal_len(chars: &[char], i: usize) -> Option<usize> {
    // 'x' or '\n' or '\u{1F600}'.
    let next = *chars.get(i + 1)?;
    if next == '\\' {
        // Skip the escaped character first, then scan to the closing
        // quote: starting the scan at `i + 2` would stop on the quote
        // *inside* `'\''` and leak the real closing quote back into
        // the stream as a bogus lifetime token.
        let mut j = i + 3;
        while j < chars.len() && chars[j] != '\'' {
            j += 1;
        }
        if j >= chars.len() {
            return None;
        }
        return Some(j + 1 - i);
    }
    if chars.get(i + 2) == Some(&'\'') {
        return Some(3);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        scan("t.rs", src).tokens.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn strips_comments() {
        let f = scan("t.rs", "// SAFETY: fine\nlet x = 1; // trailing unwrap()\n");
        assert!(f.tokens.iter().all(|t| !t.text.contains("SAFETY") && t.text != "unwrap"));
        assert_eq!(f.tokens.last().map(|t| t.line), Some(2));
    }

    #[test]
    fn strings_become_placeholders() {
        let t = texts(r#"let s = "unwrap() as usize"; let b = b"WPK1";"#);
        assert!(t.iter().filter(|x| x.as_str() == "\"…\"").count() == 2);
        assert!(!t.iter().any(|x| x == "unwrap"));
        assert!(!t.iter().any(|x| x == "WPK1"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let t = texts("fn f<'a>(x: &'a [u8]) -> char { 'b' }");
        assert!(t.iter().any(|x| x == "'lt"));
        assert!(t.iter().any(|x| x == "'…'"));
    }

    #[test]
    fn raw_strings_and_multiline() {
        let f = scan("t.rs", "let x = r#\"a \" b\"#;\nlet y = \"two\nlines\";\nfn g() {}");
        let g = f.tokens.iter().find(|t| t.text == "g").unwrap();
        assert_eq!(g.line, 4);
    }

    #[test]
    fn block_comment_lines_tracked() {
        let f = scan("t.rs", "/* one\n SAFETY: two */\nfn f() {}");
        assert!(f.tokens.iter().all(|t| t.text != "SAFETY"));
        let tok = f.tokens.iter().find(|t| t.text == "fn").unwrap();
        assert_eq!(tok.line, 3);
    }

    #[test]
    fn escaped_quote_char_literals_do_not_desync() {
        // `'\''` and `b'\''` must consume the whole literal; the old
        // scanner stopped at the escaped quote and emitted the real
        // closing quote as a bogus lifetime, desyncing what follows.
        for src in ["let q = '\\''; q.unwrap();\nfn after() {}", "let b = b'\\''; b.unwrap();\nfn after() {}"] {
            let f = scan("t.rs", src);
            let texts: Vec<&str> = f.tokens.iter().map(|t| t.text.as_str()).collect();
            assert!(texts.contains(&"'…'"), "{texts:?}");
            assert!(!texts.contains(&"'lt"), "closing quote leaked as lifetime: {texts:?}");
            let after = f.tokens.iter().find(|t| t.text == "after").unwrap();
            assert_eq!(after.line, 2);
        }
        // Backslash and unicode escapes still measure correctly.
        let f = scan("t.rs", r"let a = '\\'; let u = '\u{1F600}'; fn g() {}");
        assert_eq!(f.tokens.iter().filter(|t| t.text == "'…'").count(), 2);
        assert!(f.tokens.iter().any(|t| t.text == "g"));
    }

    #[test]
    fn hashed_raw_strings_hide_contents_and_track_lines() {
        // r##"…"## spanning lines, with an interior `"#` that must not
        // terminate the literal, and lint-looking text that must not
        // leak into the token stream.
        let src = "let s = r##\"a \"# b\nc unwrap() as usize\"##;\nfn g() {}";
        let f = scan("t.rs", src);
        let texts: Vec<&str> = f.tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts.iter().filter(|t| **t == "\"…\"").count(), 1);
        assert!(!texts.contains(&"unwrap"), "raw-string contents leaked: {texts:?}");
        assert!(!texts.contains(&"as"));
        let g = f.tokens.iter().find(|t| t.text == "g").unwrap();
        assert_eq!(g.line, 3, "newlines inside the raw string miscounted");
        // Byte raw strings too.
        let f2 = scan("t.rs", "let b = br#\"WPK1 panic!()\"#; fn h() {}");
        assert!(!f2.tokens.iter().any(|t| t.text == "panic"));
        assert!(f2.tokens.iter().any(|t| t.text == "h"));
    }

    #[test]
    fn nested_block_comments_fully_skipped() {
        let src = "/* outer /* inner unwrap() */ tail as usize */ fn h() {}\n/* a /* b /* c */ */ */ fn k() {}";
        let f = scan("t.rs", src);
        let texts: Vec<&str> = f.tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, vec!["fn", "h", "(", ")", "{", "}", "fn", "k", "(", ")", "{", "}"]);
        let k = f.tokens.iter().find(|t| t.text == "k").unwrap();
        assert_eq!(k.line, 2);
    }

    #[test]
    fn lifetime_annotated_unsafe_fn_signature_scans_clean() {
        use crate::functions::extract;
        let src = "// caller upholds aliasing for 'a.\n\
                   pub unsafe fn raw_view<'a>(x: &'a mut [u8], n: usize) -> &'a [u8] { &x[..n] }\n\
                   fn plain() {}";
        let f = scan("t.rs", src);
        let ff = extract(&f);
        let names: Vec<&str> = ff.functions.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["raw_view", "plain"], "lifetime tokens broke fn extraction");
        // The signature's `[u8]` type tokens must not be owned by the
        // function body (they are types, not indexing expressions).
        let sig_bracket = f
            .tokens
            .iter()
            .position(|t| t.text == "[")
            .unwrap();
        assert_eq!(ff.owner[sig_bracket], None);
    }
}
