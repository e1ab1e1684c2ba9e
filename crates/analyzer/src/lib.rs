//! ckpt-lint: repo-specific static analysis for the checkpoint
//! compression workspace.
//!
//! Three rules, all deny-by-default (DESIGN.md §9) — what neither the
//! compiler nor clippy can check here:
//!
//! - `unchecked-cast` — no `as` numeric casts in functions reachable
//!   from the untrusted-input decode entry points.
//! - `panic-in-decoder` — no unwrap/expect/panicking macros/unchecked
//!   indexing in those same functions.
//! - `spec-drift` — every format section of docs/FORMAT.md must match
//!   its row in `ckpt_deflate::frame::FORMATS`.
//!
//! `unsafe` is the compiler's (`[lints.rust] unsafe_code = "forbid"`,
//! and `clippy::undocumented_unsafe_blocks` in `ckpt-simd`), and the
//! store's crash-consistency protocol is the disk seam's types and
//! clippy's `disallowed-methods` lists (DESIGN.md §13).
//!
//! Suppression only via checked-in `lint-allow.toml` entries, each with
//! a non-empty justification; unused entries are errors, and so are
//! decode entry points no function defines.

pub mod allow;
pub mod callgraph;
pub mod functions;
pub mod lexer;
pub mod rules;
pub mod spec;

use callgraph::CallGraph;
use functions::{extract, FileFunctions};
use lexer::{scan, ScannedFile};
use rules::Violation;
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Files whose functions form the untrusted-input decode layer.
/// Reachability for `unchecked-cast` / `panic-in-decoder` is computed
/// over this set; crates above it (quant, wavelet, tensor) only see
/// counts the decoder has already validated.
pub const DECODE_FILES: &[&str] = &[
    "crates/core/src/codec.rs",
    "crates/core/src/checkpoint.rs",
    "crates/core/src/incremental.rs",
    "crates/deflate/src/lib.rs",
    "crates/deflate/src/chunked.rs",
    "crates/deflate/src/frame.rs",
    "crates/deflate/src/gzip.rs",
    "crates/deflate/src/inflate.rs",
    "crates/deflate/src/bitio.rs",
    "crates/deflate/src/huffman.rs",
    "crates/deflate/src/resume.rs",
    "crates/store/src/manifest.rs",
    "crates/store/src/replicate.rs",
    "crates/store/src/segment.rs",
    "crates/serve/src/proto.rs",
];

/// Functions that receive bytes from disk/network, beyond each
/// format's own decoder (`frame::FORMATS[..].decoder`).
pub const EXTRA_ENTRY_POINTS: &[&str] = &[
    "strip_container",
    "decompress",
    "decompress_with",
    "decompress_with_limit",
    "read_from",
    "restore",
    "decompress_chunked",
    "inspect",
    "decompress_member",
    "inflate",
    "decode_request",
    "decode_response",
    "verify_payload",
];

/// The BFS roots: one decoder per format in the table, plus the rest.
pub fn entry_points() -> Vec<&'static str> {
    let formats = ckpt_deflate::frame::FORMATS.iter().map(|f| f.decoder);
    formats.chain(EXTRA_ENTRY_POINTS.iter().copied()).collect()
}

/// Directories never scanned: build output and vendored shims (the
/// shims mirror external crates; their code style is not ours to lint).
const SKIP_DIRS: &[&str] = &["target", ".git", "crates/shims", "tests/corpus"];

/// Result of a full lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations not covered by an allowlist entry.
    pub violations: Vec<Violation>,
    /// (violation, justification) pairs that an allow entry covered.
    pub suppressed: Vec<(Violation, String)>,
    /// Configuration / allowlist errors (always fatal in deny mode).
    pub errors: Vec<String>,
    /// Files scanned (for `--json` and sanity output).
    pub files_scanned: usize,
}

impl Report {
    /// True when deny mode should exit 0.
    pub fn clean(&self) -> bool {
        self.violations.is_empty() && self.errors.is_empty()
    }
}

/// Root names that resolve to no function in `graph`. A root list that
/// outlives the functions it names silently audits less than it says,
/// so — like an allowlist entry that matches nothing — a stale root is
/// an error: deleting an entry point forces its list to shrink too.
fn stale_roots(list: &str, roots: &[&str], graph: &CallGraph) -> Vec<String> {
    roots
        .iter()
        .filter(|r| !graph.by_name.contains_key(**r))
        .map(|r| format!("{list} names `{r}`, which no function in scope defines — remove it"))
        .collect()
}

/// Recursively collects workspace-relative `.rs` paths under `root`.
fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<String>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        let rel = match path.strip_prefix(root) {
            Ok(r) => r.to_string_lossy().replace('\\', "/"),
            Err(_) => continue,
        };
        if SKIP_DIRS.iter().any(|s| rel == *s || rel.starts_with(&format!("{s}/"))) {
            continue;
        }
        if path.is_dir() {
            collect_rs(root, &path, out);
        } else if rel.ends_with(".rs") {
            out.push(rel);
        }
    }
}

/// Every `.rs` file under `root` the rules look at, as
/// (workspace-relative path, text), and the files that could not be
/// read.
pub fn read_sources(root: &Path) -> (Vec<(String, String)>, Vec<String>) {
    let mut rel_paths = Vec::new();
    collect_rs(root, root, &mut rel_paths);
    let mut sources = Vec::new();
    let mut errors = Vec::new();
    for rel in rel_paths {
        match fs::read_to_string(root.join(&rel)) {
            Ok(src) => sources.push((rel, src)),
            Err(e) => errors.push(format!("{rel}: {e}")),
        }
    }
    (sources, errors)
}

/// Runs all rules against the workspace at `root`.
pub fn run(root: &Path) -> Report {
    let (sources, errors) = read_sources(root);
    let mut report = run_sources(root, &sources);
    report.errors.extend(errors);
    report
}

/// [`run`] over source text already in memory (`tests/real_tree.rs`
/// seeds one defect into the real tree this way); `root` supplies
/// docs/FORMAT.md and lint-allow.toml.
pub fn run_sources(root: &Path, sources: &[(String, String)]) -> Report {
    let mut report = Report::default();
    if sources.is_empty() {
        report.errors.push(format!("no .rs files found under {}", root.display()));
        return report;
    }
    let scanned: Vec<ScannedFile> = sources.iter().map(|(rel, src)| scan(rel, src)).collect();
    report.files_scanned = scanned.len();

    // Decode-layer scope: compute the reachable set over its subgraph.
    let decode: Vec<usize> = scanned
        .iter()
        .enumerate()
        .filter(|(_, f)| DECODE_FILES.contains(&f.path.as_str()))
        .map(|(i, _)| i)
        .collect();
    for want in DECODE_FILES {
        if !scanned.iter().any(|f| f.path == *want) {
            report.errors.push(format!(
                "decode-scope file `{want}` not found — update ckpt-analyzer's DECODE_FILES \
                 if it moved"
            ));
        }
    }
    let decode_ff: Vec<FileFunctions> = decode.iter().map(|&i| extract(&scanned[i])).collect();
    let graph_input: Vec<(&ScannedFile, &FileFunctions)> =
        decode.iter().zip(&decode_ff).map(|(&i, ff)| (&scanned[i], ff)).collect();
    let graph = CallGraph::build(&graph_input);
    let roots = entry_points();
    report.errors.extend(stale_roots("ENTRY_POINTS", &roots, &graph));
    let reachable = graph.reachable(&roots);

    let mut violations: Vec<Violation> = Vec::new();
    for (di, &si) in decode.iter().enumerate() {
        let in_scope: BTreeSet<usize> = reachable
            .iter()
            .filter(|(fi, _)| *fi == di)
            .map(|&(_, gi)| gi)
            .collect();
        let scope_fn = |gi: usize| in_scope.contains(&gi);
        violations.extend(rules::check_casts(&scanned[si], &decode_ff[di], &scope_fn));
        violations.extend(rules::check_panics(&scanned[si], &decode_ff[di], &scope_fn));
    }

    match fs::read_to_string(root.join("docs/FORMAT.md")) {
        Ok(md) => violations.extend(spec::check(&md, &ckpt_deflate::frame::FORMATS)),
        Err(_) => report.errors.push("cannot read docs/FORMAT.md for spec-drift check".into()),
    }

    violations.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));

    // Apply the allowlist.
    let allow_path = root.join("lint-allow.toml");
    let entries = if allow_path.exists() {
        match fs::read_to_string(&allow_path) {
            Ok(src) => match allow::parse(&src) {
                Ok(entries) => entries,
                Err(e) => {
                    report.errors.push(e.to_string());
                    Vec::new()
                }
            },
            Err(e) => {
                report.errors.push(format!("lint-allow.toml: {e}"));
                Vec::new()
            }
        }
    } else {
        Vec::new()
    };
    let mut used = vec![false; entries.len()];
    'viol: for v in violations {
        let line_text = scanned
            .iter()
            .find(|f| f.path == v.path)
            .map(|f| f.line(v.line).to_string())
            .unwrap_or_default();
        for (k, e) in entries.iter().enumerate() {
            if allow::matches(e, v.rule, &v.path, v.symbol.as_deref(), &line_text) {
                used[k] = true;
                report.suppressed.push((v, e.justification.clone()));
                continue 'viol;
            }
        }
        report.violations.push(v);
    }
    for (k, e) in entries.iter().enumerate() {
        if !used[k] {
            report.errors.push(format!(
                "lint-allow.toml:{}: entry (rule `{}`, path `{}`) matches nothing — remove it",
                e.line, e.rule, e.path
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_root_naming_no_function_is_reported() {
        let f = scan("t.rs", "fn decompress() { helper(); }\nfn helper() {}");
        let ff = extract(&f);
        let graph = CallGraph::build(&[(&f, &ff)]);
        assert!(stale_roots("ROOTS", &["decompress", "helper"], &graph).is_empty());
        let errors = stale_roots("ROOTS", &["decompress", "decompress_gone"], &graph);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("ROOTS names `decompress_gone`"), "{errors:?}");
    }

    #[test]
    fn decode_scope_paths_exist_in_this_repo() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for f in DECODE_FILES {
            assert!(root.join(f).exists(), "missing decode-scope file {f}");
        }
    }
}
