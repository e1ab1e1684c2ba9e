//! Name-based call graph over the decode-layer files.
//!
//! Edges are `caller → callee-name` for every `name(…)` or
//! `recv.name(…)` token pattern in a function body. Resolution is by
//! bare name within the analyzed file set — deliberately
//! over-approximate (two functions sharing a name both become
//! reachable), which errs toward auditing more code, never less.

use crate::functions::{is_keyword, FileFunctions};
use crate::lexer::ScannedFile;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A function identifier: (file index, function index within file).
pub type FnId = (usize, usize);

/// Call graph over a set of scanned files.
pub struct CallGraph {
    /// name → functions defined with that name.
    pub by_name: BTreeMap<String, Vec<FnId>>,
    /// Caller → set of callee names.
    pub calls: BTreeMap<FnId, BTreeSet<String>>,
}

/// Collects callee names appearing in `tokens[range]`.
pub fn callee_names(file: &ScannedFile, lo: usize, hi: usize) -> BTreeSet<String> {
    let tokens = &file.tokens;
    let text = |i: usize| tokens.get(i).map(|t| t.text.as_str()).unwrap_or("");
    let mut out = BTreeSet::new();
    let mut i = lo;
    while i < hi && i < tokens.len() {
        let t = text(i);
        if !t.is_empty()
            && t.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_')
            && !is_keyword(t)
            && text(i.wrapping_sub(1)) != "fn"
        {
            // Optional turbofish `::<…>` between the name and the call.
            let mut j = i + 1;
            if text(j) == ":" && text(j + 1) == ":" && text(j + 2) == "<" {
                let mut depth = 0isize;
                let mut k = j + 2;
                loop {
                    match text(k) {
                        "<" => depth += 1,
                        ">" => {
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
            if text(j) == "(" && text(i + 1) != "!" {
                out.insert(t.to_string());
            }
        }
        i += 1;
    }
    out
}

impl CallGraph {
    /// Builds the graph from extracted functions of the given files.
    pub fn build(files: &[(&ScannedFile, &FileFunctions)]) -> Self {
        let mut by_name: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        let mut calls: BTreeMap<FnId, BTreeSet<String>> = BTreeMap::new();
        for (fi, (file, ff)) in files.iter().enumerate() {
            for (gi, f) in ff.functions.iter().enumerate() {
                by_name.entry(f.name.clone()).or_default().push((fi, gi));
                let names = callee_names(file, f.body.0 + 1, f.body.1);
                calls.insert((fi, gi), names);
            }
        }
        CallGraph { by_name, calls }
    }

    /// Functions reachable from any entry-point *name* via BFS.
    pub fn reachable(&self, entry_names: &[&str]) -> BTreeSet<FnId> {
        let mut seen: BTreeSet<FnId> = BTreeSet::new();
        let mut queue: VecDeque<FnId> = VecDeque::new();
        for name in entry_names {
            for &id in self.by_name.get(*name).into_iter().flatten() {
                if seen.insert(id) {
                    queue.push_back(id);
                }
            }
        }
        while let Some(id) = queue.pop_front() {
            for callee in self.calls.get(&id).into_iter().flatten() {
                for &next in self.by_name.get(callee).into_iter().flatten() {
                    if seen.insert(next) {
                        queue.push_back(next);
                    }
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::extract;
    use crate::lexer::scan;

    #[test]
    fn reachability_follows_calls_and_methods() {
        let src = r#"
fn entry(r: &mut R) { helper(r); r.method_call(); }
fn helper(_r: &mut R) { leaf::<4>(); }
fn leaf() {}
fn method_call(&self) { }
fn unrelated() { other(); }
fn other() {}
"#;
        let f = scan("t.rs", src);
        let ff = extract(&f);
        let g = CallGraph::build(&[(&f, &ff)]);
        let reach = g.reachable(&["entry"]);
        let names: Vec<&str> =
            reach.iter().map(|&(_, gi)| ff.functions[gi].name.as_str()).collect();
        assert_eq!(names, vec!["entry", "helper", "leaf", "method_call"]);
    }

    #[test]
    fn macros_are_not_calls() {
        let src = "fn f() { println!(\"x\"); g(); }\nfn g() {}\nfn println() {}";
        let f = scan("t.rs", src);
        let ff = extract(&f);
        let g = CallGraph::build(&[(&f, &ff)]);
        let reach = g.reachable(&["f"]);
        let names: Vec<&str> =
            reach.iter().map(|&(_, gi)| ff.functions[gi].name.as_str()).collect();
        assert_eq!(names, vec!["f", "g"]);
    }
}
