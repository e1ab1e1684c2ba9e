//! Crash-consistency rule family: the durability protocol of
//! `crates/store` as a checkable state machine.
//!
//! The commit protocol (DESIGN.md §13) is a fixed order:
//!
//! ```text
//! tmp-write → fsync → rename → dir-fsync → manifest append → manifest fsync
//! ```
//!
//! `durability-order` extracts the ordered filesystem operations each
//! function performs (inlining calls resolvable through the name-based
//! graph), flattens every path reachable from the save/GC roots, and
//! replays the sequence through a small state machine:
//!
//! - a **commit rename** (into `segments/`) with unsynced bytes
//!   outstanding is a rename-before-fsync bug — the rename can become
//!   durable while the data does not;
//! - a **manifest write** after a commit rename but before the
//!   directory fsync publishes a record for an entry that can vanish;
//! - a **remove** before any durable manifest write deletes state the
//!   manifest still promises;
//! - a **truncate** (`set_len`) before any durable write discards
//!   state before its replacement is safe — the manifest-log truncate
//!   in `compact_manifest` is only sound once the snapshot that
//!   subsumes the log is durable;
//! - an **apply** (`manifest::apply`, the one place the in-memory
//!   generation map changes) with unsynced bytes outstanding lets
//!   memory hold a record a power cut discards — the map may only ever
//!   mirror what is already durable;
//! - a path **ending dirty** leaves manifest bytes that a power cut
//!   discards after the caller was told the save committed;
//! - a **file create outside staging** (`tmp_path` / `meta_tmp_path`)
//!   skips the staging contract.
//!
//! `failpoint-bypass` is the companion testability rule: every write
//! must route through `FailPoint::write_all*`, and every
//! rename/remove/truncate on a reachable path must have a
//! `FailPoint::check` barrier earlier in the same function — a
//! bypassed operation is one the kill-at-every-byte sweep silently
//! never tests.

use crate::dataflow;
use crate::functions::{is_keyword, FileFunctions};
use crate::lexer::ScannedFile;
use crate::rules::Violation;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

pub const RULE_DURABILITY: &str = "durability-order";
pub const RULE_FAILPOINT: &str = "failpoint-bypass";

/// The public entry points whose durable sequences differ: the two
/// phase-1 shapes of a save (slice-fed `save_full`, producer-fed
/// `save_full_streamed`; every other save, compaction's rewrites and
/// `import_generation` run `save_full`'s sequence), GC, the two
/// maintenance passes and the push side of replication. Every staged
/// file (segment, snapshot, cursor, resume token) is published by one
/// ordering, `layout::sync_then_rename`, inlined at each use; every
/// manifest append is `Store::log` and every file disposal
/// `Store::retire`. The poison gate (`Store::gated`) takes each body as
/// a closure, whose tokens sit in the root's own body, so the inliner
/// sees through it.
pub const STORE_ROOTS: &[&str] =
    &["save_full", "save_full_streamed", "gc", "compact_manifest", "compact_chains", "push_to"];

/// The shared replace-a-file helper. Its staging file is a parameter,
/// so the staging contract is checked on the path each call site
/// passes.
const DURABLE_REPLACE: &str = "durable_replace";

/// Call names never inlined: `open` collides between `Store::open`
/// (recovery, which legitimately rewrites the manifest) and
/// `OpenOptions::open` on every save path; the free function `drop`
/// would resolve to every `impl Drop` in scope (e.g. the serve
/// layer's socket cleanup), which no save path actually runs.
const NO_INLINE: &[&str] = &["open", "drop"];

/// Receiver names that mark a call as routed through the fail point.
const FP_RECEIVERS: &[&str] = &["fp", "failpoint"];

/// One filesystem-relevant operation, in program order.
#[derive(Debug, Clone, PartialEq, Eq)]
enum OpKind {
    /// `File::create` of a `tmp_path` / `meta_tmp_path` staging file.
    TmpCreate,
    /// `File::create` anywhere else.
    CreateOther,
    /// A write through `FailPoint::write_all` / `write_all_at`.
    FpWrite,
    /// A write NOT routed through the fail point.
    RawWrite,
    /// `.sync_all()`.
    Fsync,
    /// `fs::rename` into `segments/` (the commit point).
    CommitRename,
    /// `fs::rename` into `quarantine/` (post-retire cleanup).
    CleanupRename,
    /// `layout::fsync_dir`.
    DirFsync,
    /// `fs::remove_file`.
    Remove,
    /// `.set_len()` — truncation, the log-reclaim step of manifest
    /// compaction. Destructive like `Remove`: only sound after a
    /// durable write, and only testable behind a kill barrier.
    Truncate,
    /// `FailPoint::check` kill barrier.
    Barrier,
    /// `manifest::apply`: the in-memory map takes a record.
    Apply,
    /// A call to a store-internal function (inlined when resolvable).
    Call(String),
}

#[derive(Debug, Clone)]
struct Op {
    kind: OpKind,
    line: usize,
}

/// Identifiers before the `.` of a method call at token `i`:
/// `self.failpoint.check(` → `["failpoint", "self"]`.
fn receiver_chain(file: &ScannedFile, i: usize) -> Vec<String> {
    let text = |k: usize| file.tokens.get(k).map(|t| t.text.as_str()).unwrap_or("");
    let mut out = Vec::new();
    let mut k = i;
    while k >= 2 && text(k - 1) == "." {
        let t = text(k - 2);
        if !t.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_') {
            break;
        }
        out.push(t.to_string());
        k -= 2;
    }
    out
}

/// Does any identifier in `tokens[lo..hi]`, or a binding feeding one,
/// mention `needle`? Classifies `fs::rename(&src, &dst)` where `dst`
/// was bound from `quarantine_path(…)` a line earlier.
fn args_mention(
    file: &ScannedFile,
    ff: &FileFunctions,
    fi: usize,
    lo: usize,
    hi: usize,
    needle: &str,
) -> bool {
    let text = |k: usize| file.tokens.get(k).map(|t| t.text.as_str()).unwrap_or("");
    for k in lo..hi.min(file.tokens.len()) {
        if text(k) == needle {
            return true;
        }
    }
    for name in dataflow::expr_idents(file, lo, hi) {
        for (blo, bhi) in dataflow::binding_exprs(file, ff, fi, &name) {
            for k in blo..bhi.min(file.tokens.len()) {
                if text(k) == needle {
                    return true;
                }
            }
        }
    }
    false
}

/// Token range of a call's arguments: `i` is the callee name, `i + 1`
/// the `(`. Returns `(lo, hi)` exclusive of the parens.
fn arg_range(file: &ScannedFile, i: usize) -> (usize, usize) {
    let text = |k: usize| file.tokens.get(k).map(|t| t.text.as_str()).unwrap_or("");
    let lo = i + 2;
    let mut depth = 1isize;
    let mut k = lo;
    while k < file.tokens.len() {
        match text(k) {
            "(" | "[" => depth += 1,
            ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        k += 1;
    }
    (lo, k)
}

/// Extracts the ordered operations of function `fi`.
fn extract_ops(file: &ScannedFile, ff: &FileFunctions, fi: usize) -> Vec<Op> {
    let tokens = &file.tokens;
    let text = |k: usize| tokens.get(k).map(|t| t.text.as_str()).unwrap_or("");
    let func = &ff.functions[fi];
    let mut out = Vec::new();
    #[allow(clippy::needless_range_loop)] // `text` closes over `tokens` by index
    for i in (func.body.0 + 1)..func.body.1.min(tokens.len()) {
        if text(i + 1) != "(" {
            continue;
        }
        let t = text(i);
        let line = tokens[i].line;
        let fs_qualified =
            text(i.wrapping_sub(1)) == ":" && text(i.wrapping_sub(2)) == ":";
        let path_head = text(i.wrapping_sub(3));
        let chain = receiver_chain(file, i);
        let fp_recv = chain.iter().any(|c| FP_RECEIVERS.contains(&c.as_str()));
        let staged = || {
            let (lo, hi) = arg_range(file, i);
            args_mention(file, ff, fi, lo, hi, "tmp_path")
                || args_mention(file, ff, fi, lo, hi, "meta_tmp_path")
        };
        let kind = match t {
            "create" if fs_qualified && path_head == "File" => {
                Some(if staged() { OpKind::TmpCreate } else { OpKind::CreateOther })
            }
            DURABLE_REPLACE => {
                if !staged() {
                    out.push(Op { kind: OpKind::CreateOther, line });
                }
                Some(OpKind::Call(t.to_string()))
            }
            "rename" if fs_qualified && path_head == "fs" => {
                let (lo, hi) = arg_range(file, i);
                if args_mention(file, ff, fi, lo, hi, "quarantine_path") {
                    Some(OpKind::CleanupRename)
                } else {
                    Some(OpKind::CommitRename)
                }
            }
            "remove_file" if fs_qualified => Some(OpKind::Remove),
            "write" if fs_qualified && path_head == "fs" => Some(OpKind::RawWrite),
            "set_len" if text(i.wrapping_sub(1)) == "." => Some(OpKind::Truncate),
            "write_all" | "write_all_at" if text(i.wrapping_sub(1)) == "." => {
                Some(if fp_recv { OpKind::FpWrite } else { OpKind::RawWrite })
            }
            "sync_all" if text(i.wrapping_sub(1)) == "." => Some(OpKind::Fsync),
            "fsync_dir" => Some(OpKind::DirFsync),
            "apply" if fs_qualified && path_head == "manifest" => Some(OpKind::Apply),
            "check" if text(i.wrapping_sub(1)) == "." && fp_recv => Some(OpKind::Barrier),
            name if name.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_')
                && !is_keyword(name)
                && text(i.wrapping_sub(1)) != "fn"
                && !NO_INLINE.contains(&name) =>
            {
                Some(OpKind::Call(name.to_string()))
            }
            _ => None,
        };
        if let Some(kind) = kind {
            out.push(Op { kind, line });
        }
    }
    out
}

struct Scope<'a> {
    files: Vec<(&'a ScannedFile, &'a FileFunctions)>,
    /// Ordered ops per (file, function).
    ops: Vec<Vec<Vec<Op>>>,
    by_name: BTreeMap<String, Vec<(usize, usize)>>,
}

impl<'a> Scope<'a> {
    fn build(input: &[(&'a ScannedFile, &'a FileFunctions)]) -> Self {
        // The FailPoint implementation itself is the injection layer;
        // its internals (the real write inside `write_all`) are the
        // mechanism, not a bypass of it. The serve transport files
        // (`proto.rs` framing, `client.rs` request plumbing) write to
        // sockets, not to the durable medium: a torn socket write is a
        // failed RPC, and the durable half of a remote put is the
        // server's `import_generation`, audited as a store root. Left
        // in scope they would be pulled in through the `ReplicaSink`
        // trait's name-resolved `put` and flagged for stream writes no
        // fsync could ever order.
        let files: Vec<_> = input
            .iter()
            .copied()
            .filter(|(f, _)| {
                !f.path.ends_with("failpoint.rs")
                    && !f.path.ends_with("serve/src/proto.rs")
                    && !f.path.ends_with("serve/src/client.rs")
            })
            .collect();
        let mut by_name: BTreeMap<String, Vec<(usize, usize)>> = BTreeMap::new();
        let mut ops = Vec::new();
        for (fi, (file, ff)) in files.iter().enumerate() {
            let mut per_fn = Vec::new();
            for (gi, f) in ff.functions.iter().enumerate() {
                by_name.entry(f.name.clone()).or_default().push((fi, gi));
                per_fn.push(extract_ops(file, ff, gi));
            }
            ops.push(per_fn);
        }
        Scope { files, ops, by_name }
    }

    /// Functions reachable from the protocol roots.
    fn reachable(&self) -> BTreeSet<(usize, usize)> {
        let mut seen = BTreeSet::new();
        let mut queue: VecDeque<(usize, usize)> = VecDeque::new();
        for root in STORE_ROOTS {
            for &id in self.by_name.get(*root).into_iter().flatten() {
                if seen.insert(id) {
                    queue.push_back(id);
                }
            }
        }
        while let Some((fi, gi)) = queue.pop_front() {
            for op in &self.ops[fi][gi] {
                if let OpKind::Call(name) = &op.kind {
                    for &next in self.by_name.get(name).into_iter().flatten() {
                        if seen.insert(next) {
                            queue.push_back(next);
                        }
                    }
                }
            }
        }
        seen
    }

    /// Depth-first flattening of a root's transitive op sequence; each
    /// function inlines at most once per root (cycle guard — the
    /// protocol state it establishes persists anyway), except a leaf,
    /// which cannot recurse: the shared ordering helper inlines at
    /// every staged file.
    fn flatten(&self, root: (usize, usize)) -> Vec<(usize, Op)> {
        let mut out = Vec::new();
        let mut visited = BTreeSet::new();
        self.flatten_into(root, &mut visited, &mut out);
        out
    }

    fn flatten_into(
        &self,
        id: (usize, usize),
        visited: &mut BTreeSet<(usize, usize)>,
        out: &mut Vec<(usize, Op)>,
    ) {
        let leaf = !self.ops[id.0][id.1]
            .iter()
            .any(|op| matches!(&op.kind, OpKind::Call(n) if self.by_name.contains_key(n)));
        if !leaf && !visited.insert(id) {
            return;
        }
        for op in &self.ops[id.0][id.1] {
            match &op.kind {
                OpKind::Call(name) => {
                    for &next in self.by_name.get(name).into_iter().flatten() {
                        self.flatten_into(next, visited, out);
                    }
                }
                _ => out.push((id.0, op.clone())),
            }
        }
    }
}

/// Runs both crash-consistency rules over store-scope files.
pub fn check(files: &[(&ScannedFile, &FileFunctions)]) -> Vec<Violation> {
    let scope = Scope::build(files);
    let reachable = scope.reachable();
    let mut out: Vec<Violation> = Vec::new();
    let mut push = |rule: &'static str, fi: usize, line: usize, sym: &str, msg: String| {
        let v = Violation {
            rule,
            path: scope.files[fi].0.path.clone(),
            line,
            symbol: Some(sym.to_string()),
            message: msg,
        };
        if !out.iter().any(|o| {
            o.rule == v.rule && o.path == v.path && o.line == v.line && o.message == v.message
        }) {
            out.push(v);
        }
    };

    // durability-order: replay each root's flattened sequence.
    for root_name in STORE_ROOTS {
        for &root in scope.by_name.get(*root_name).into_iter().flatten() {
            let seq = scope.flatten(root);
            let mut dirty: Option<usize> = None; // line of last unsynced write
            let mut pending_dirfsync: Option<usize> = None; // line of commit rename
            let mut durable_write = false; // a write→fsync pair completed
            for (fi, op) in &seq {
                match op.kind {
                    OpKind::FpWrite | OpKind::RawWrite => {
                        if let Some(rline) = pending_dirfsync {
                            push(
                                RULE_DURABILITY,
                                *fi,
                                op.line,
                                root_name,
                                format!(
                                    "manifest written before the segments directory fsync \
                                     (commit rename at line {rline} is not yet durable) on the \
                                     `{root_name}` path"
                                ),
                            );
                            pending_dirfsync = None;
                        }
                        dirty = Some(op.line);
                    }
                    OpKind::Fsync => {
                        if dirty.is_some() {
                            durable_write = true;
                        }
                        dirty = None;
                    }
                    OpKind::CommitRename => {
                        if dirty.is_some() {
                            push(
                                RULE_DURABILITY,
                                *fi,
                                op.line,
                                root_name,
                                format!(
                                    "rename before fsync on the `{root_name}` path: the rename \
                                     can become durable while the data does not"
                                ),
                            );
                            dirty = None;
                        }
                        pending_dirfsync = Some(op.line);
                    }
                    OpKind::DirFsync => pending_dirfsync = None,
                    OpKind::Remove => {
                        if !durable_write {
                            push(
                                RULE_DURABILITY,
                                *fi,
                                op.line,
                                root_name,
                                format!(
                                    "file removed before any durable manifest record on the \
                                     `{root_name}` path: a crash here loses data the manifest \
                                     still promises"
                                ),
                            );
                        }
                    }
                    OpKind::CreateOther => {
                        push(
                            RULE_DURABILITY,
                            *fi,
                            op.line,
                            root_name,
                            format!(
                                "file created outside tmp/ staging on the `{root_name}` path: \
                                 commits must go tmp-write → fsync → rename"
                            ),
                        );
                    }
                    OpKind::Truncate => {
                        if !durable_write {
                            push(
                                RULE_DURABILITY,
                                *fi,
                                op.line,
                                root_name,
                                format!(
                                    "file truncated before any durable write on the \
                                     `{root_name}` path: a crash here discards state whose \
                                     replacement is not yet safe"
                                ),
                            );
                        }
                    }
                    OpKind::Apply => {
                        if let Some(wline) = dirty {
                            push(
                                RULE_DURABILITY,
                                *fi,
                                op.line,
                                root_name,
                                format!(
                                    "in-memory view updated before the manifest fsync (unsynced \
                                     write at line {wline}) on the `{root_name}` path: memory would \
                                     hold a record a power cut discards"
                                ),
                            );
                        }
                    }
                    OpKind::TmpCreate | OpKind::CleanupRename | OpKind::Barrier => {}
                    OpKind::Call(_) => {}
                }
            }
            if let Some(line) = dirty {
                push(
                    RULE_DURABILITY,
                    seq.iter().rev().find(|(_, o)| o.line == line).map(|(fi, _)| *fi).unwrap_or(0),
                    line,
                    root_name,
                    format!(
                        "the `{root_name}` path ends with unsynced bytes: the caller is told \
                         the operation committed while a power cut can still discard it"
                    ),
                );
            }
        }
    }

    // failpoint-bypass: per reachable function, not flattened.
    for &(fi, gi) in &reachable {
        let name = scope.files[fi].1.functions[gi].name.clone();
        let mut barrier_seen = false;
        for op in &scope.ops[fi][gi] {
            match op.kind {
                OpKind::Barrier => barrier_seen = true,
                OpKind::RawWrite => {
                    push(
                        RULE_FAILPOINT,
                        fi,
                        op.line,
                        &name,
                        "write bypasses the FailPoint layer: the kill-at-every-byte sweep \
                         never tears it — route through FailPoint::write_all"
                            .to_string(),
                    );
                }
                OpKind::CommitRename | OpKind::CleanupRename | OpKind::Remove
                | OpKind::Truncate
                    if !barrier_seen =>
                {
                    push(
                        RULE_FAILPOINT,
                        fi,
                        op.line,
                        &name,
                        "file operation without a prior FailPoint::check barrier in this \
                         function: the crash sweep can never land before it"
                            .to_string(),
                    );
                }
                _ => {}
            }
        }
    }

    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::extract;
    use crate::lexer::scan;

    fn run(src: &str) -> Vec<Violation> {
        let f = scan("crates/store/src/t.rs", src);
        let ff = extract(&f);
        check(&[(&f, &ff)])
    }

    const GOOD: &str = r#"
fn save_full(fp: &FailPoint) -> Result<()> {
    let f = File::create(layout.tmp_path(1, 0))?;
    fp.write_all(&mut f, payload)?;
    fp.check()?;
    f.sync_all()?;
    fp.check()?;
    fs::rename(layout.tmp_path(1, 0), layout.segment_path(1, 0))?;
    fp.check()?;
    fsync_dir(&layout.segments)?;
    fp.write_all(&mut manifest, records)?;
    fp.check()?;
    manifest.sync_all()?;
    Ok(())
}
"#;

    #[test]
    fn protocol_order_is_clean() {
        assert!(run(GOOD).is_empty(), "{:?}", run(GOOD));
    }

    #[test]
    fn memory_may_only_apply_what_is_already_durable() {
        let log = r#"
fn save_full(fp: &FailPoint) -> Result<()> {
    fp.write_all(&mut manifest, records)?;
    fp.check()?;
    manifest.sync_all()?;
    manifest::apply(&mut gens, record);
    Ok(())
}
"#;
        assert!(run(log).is_empty(), "{:?}", run(log));
        let hoisted = log.replace(
            "    manifest.sync_all()?;\n    manifest::apply(&mut gens, record);\n",
            "    manifest::apply(&mut gens, record);\n    manifest.sync_all()?;\n",
        );
        let v = run(&hoisted);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RULE_DURABILITY);
        assert!(v[0].message.contains("before the manifest fsync"));
        // A payload decoder that happens to share the name is not it.
        assert!(run(&hoisted.replace("manifest::apply", "incremental::apply")).is_empty());
    }

    #[test]
    fn rename_before_fsync_is_flagged() {
        let src = r#"
fn save_full(fp: &FailPoint) -> Result<()> {
    let f = File::create(layout.tmp_path(1, 0))?;
    fp.write_all(&mut f, payload)?;
    fp.check()?;
    fs::rename(layout.tmp_path(1, 0), layout.segment_path(1, 0))?;
    fp.check()?;
    fsync_dir(&layout.segments)?;
    fp.write_all(&mut manifest, records)?;
    fp.check()?;
    manifest.sync_all()?;
    Ok(())
}
"#;
        let v = run(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RULE_DURABILITY);
        assert!(v[0].message.contains("rename before fsync"));
    }

    #[test]
    fn manifest_write_before_dir_fsync_is_flagged() {
        let src = r#"
fn save_full(fp: &FailPoint) -> Result<()> {
    let f = File::create(layout.tmp_path(1, 0))?;
    fp.write_all(&mut f, payload)?;
    f.sync_all()?;
    fp.check()?;
    fs::rename(layout.tmp_path(1, 0), layout.segment_path(1, 0))?;
    fp.write_all(&mut manifest, records)?;
    manifest.sync_all()?;
    Ok(())
}
"#;
        let v = run(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("before the segments directory fsync"));
    }

    #[test]
    fn interprocedural_order_through_helpers() {
        // The rename hides in a helper; the missing fsync is still seen
        // on the flattened root path.
        let src = r#"
fn save_full(fp: &FailPoint) -> Result<()> {
    stage(fp)?;
    promote(fp)?;
    fsync_dir(&layout.segments)?;
    fp.write_all(&mut manifest, records)?;
    fp.check()?;
    manifest.sync_all()?;
    Ok(())
}
fn stage(fp: &FailPoint) -> Result<()> {
    let f = File::create(layout.tmp_path(1, 0))?;
    fp.write_all(&mut f, payload)?;
    Ok(())
}
fn promote(fp: &FailPoint) -> Result<()> {
    fp.check()?;
    fs::rename(layout.tmp_path(1, 0), layout.segment_path(1, 0))
}
"#;
        let v = run(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RULE_DURABILITY);
        assert!(v[0].message.contains("rename before fsync"));
        assert_eq!(v[0].symbol.as_deref(), Some("save_full"), "blamed on the root path");
    }

    #[test]
    fn quarantine_rename_via_bound_path_is_exempt_from_ordering() {
        // `dst` is bound from quarantine_path a line earlier: cleanup
        // renames carry no ordering obligation (but still need a
        // barrier).
        let src = r#"
fn gc(fp: &FailPoint) -> Result<()> {
    fp.write_all(&mut manifest, retires)?;
    fp.check()?;
    manifest.sync_all()?;
    fp.check()?;
    let dst = layout.quarantine_path(&name);
    fs::rename(&src_path, &dst)?;
    fp.check()?;
    fs::remove_file(layout.segment_path(1, 0))?;
    Ok(())
}
"#;
        let v = run(src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn remove_before_durable_retire_is_flagged() {
        let src = r#"
fn gc(fp: &FailPoint) -> Result<()> {
    fp.check()?;
    fs::remove_file(layout.segment_path(1, 0))?;
    fp.write_all(&mut manifest, retires)?;
    fp.check()?;
    manifest.sync_all()?;
    Ok(())
}
"#;
        let v = run(src);
        assert!(
            v.iter().any(|v| v.rule == RULE_DURABILITY && v.message.contains("removed before")),
            "{v:?}"
        );
    }

    #[test]
    fn raw_write_is_a_failpoint_bypass() {
        let src = r#"
fn save_full(fp: &FailPoint) -> Result<()> {
    let f = File::create(layout.tmp_path(1, 0))?;
    f.write_all(payload)?;
    f.sync_all()?;
    fp.check()?;
    fs::rename(layout.tmp_path(1, 0), layout.segment_path(1, 0))?;
    fsync_dir(&layout.segments)?;
    Ok(())
}
"#;
        let v = run(src);
        assert_eq!(v.iter().filter(|v| v.rule == RULE_FAILPOINT).count(), 1, "{v:?}");
        assert!(v.iter().any(|v| v.message.contains("route through FailPoint::write_all")));
    }

    #[test]
    fn rename_without_barrier_is_a_failpoint_bypass() {
        let src = r#"
fn save_full(fp: &FailPoint) -> Result<()> {
    let f = File::create(layout.tmp_path(1, 0))?;
    fp.write_all(&mut f, payload)?;
    f.sync_all()?;
    fs::rename(layout.tmp_path(1, 0), layout.segment_path(1, 0))?;
    fsync_dir(&layout.segments)?;
    fp.write_all(&mut manifest, records)?;
    fp.check()?;
    manifest.sync_all()?;
    Ok(())
}
"#;
        let v = run(src);
        assert_eq!(v.iter().filter(|v| v.rule == RULE_FAILPOINT).count(), 1, "{v:?}");
        assert!(v.iter().any(|v| v.message.contains("prior FailPoint::check barrier")));
    }

    #[test]
    fn snapshot_write_with_barriered_truncate_is_clean() {
        // The compact_manifest shape: meta_tmp staging, durable
        // snapshot install, then the log truncate behind a barrier.
        let src = r#"
fn compact_manifest(fp: &FailPoint) -> Result<()> {
    let tmp = layout.meta_tmp_path(SNAPSHOT_FILE);
    let f = File::create(&tmp)?;
    fp.write_all(&mut f, bytes)?;
    fp.check()?;
    f.sync_all()?;
    fs::rename(&tmp, &layout.snapshot)?;
    fsync_dir(&layout.root)?;
    fp.check()?;
    let log = OpenOptions::new().write(true).open(&layout.manifest)?;
    log.set_len(HEADER_LEN)?;
    log.sync_all()?;
    Ok(())
}
"#;
        let v = run(src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn truncate_before_durable_write_is_flagged() {
        let src = r#"
fn compact_manifest(fp: &FailPoint) -> Result<()> {
    fp.check()?;
    let log = OpenOptions::new().write(true).open(&layout.manifest)?;
    log.set_len(HEADER_LEN)?;
    let tmp = layout.meta_tmp_path(SNAPSHOT_FILE);
    let f = File::create(&tmp)?;
    fp.write_all(&mut f, bytes)?;
    fp.check()?;
    f.sync_all()?;
    fs::rename(&tmp, &layout.snapshot)?;
    fsync_dir(&layout.root)?;
    Ok(())
}
"#;
        let v = run(src);
        assert!(
            v.iter().any(|v| v.rule == RULE_DURABILITY && v.message.contains("truncated before")),
            "{v:?}"
        );
    }

    #[test]
    fn truncate_without_barrier_is_a_failpoint_bypass() {
        let src = r#"
fn compact_manifest(fp: &FailPoint) -> Result<()> {
    let tmp = layout.meta_tmp_path(SNAPSHOT_FILE);
    let f = File::create(&tmp)?;
    fp.write_all(&mut f, bytes)?;
    fp.check()?;
    f.sync_all()?;
    fs::rename(&tmp, &layout.snapshot)?;
    fsync_dir(&layout.root)?;
    truncate_log(fp)?;
    Ok(())
}
fn truncate_log(fp: &FailPoint) -> Result<()> {
    let log = OpenOptions::new().write(true).open(&layout.manifest)?;
    log.set_len(HEADER_LEN)?;
    log.sync_all()?;
    Ok(())
}
"#;
        let v = run(src);
        assert_eq!(v.iter().filter(|v| v.rule == RULE_FAILPOINT).count(), 1, "{v:?}");
        assert!(v.iter().any(|v| v.message.contains("prior FailPoint::check barrier")));
    }

    #[test]
    fn create_outside_staging_is_flagged_on_maintenance_roots() {
        // `meta_tmp_path` counts as staging; a bare path does not.
        let src = r#"
fn push_to(fp: &FailPoint) -> Result<()> {
    let f = File::create(&layout.cursor)?;
    fp.write_all(&mut f, &cursor_bytes)?;
    fp.check()?;
    f.sync_all()?;
    Ok(())
}
"#;
        let v = run(src);
        assert!(
            v.iter()
                .any(|v| v.rule == RULE_DURABILITY && v.message.contains("outside tmp/ staging")),
            "{v:?}"
        );
    }

    #[test]
    fn durable_replace_is_inlined_and_its_call_sites_must_stage() {
        // The helper's sequence is audited through the root that calls
        // it; the staging contract is checked on the argument.
        let helper = r#"
fn durable_replace(tmp_path: &Path, dst: &Path, bytes: &[u8], fp: &FailPoint) -> Result<()> {
    let f = File::create(tmp_path)?;
    fp.write_all(&mut f, bytes)?;
    fp.check()?;
    f.sync_all()?;
    fp.check()?;
    fs::rename(tmp_path, dst)?;
    fsync_dir(dir)?;
    fp.check()?;
    Ok(())
}
"#;
        let staged = r#"
fn push_to(fp: &FailPoint) -> Result<()> {
    let tmp = layout.meta_tmp_path(CURSOR_FILE);
    durable_replace(&tmp, &layout.cursor, &bytes, fp)
}
"#;
        let v = run(&format!("{staged}{helper}"));
        assert!(v.is_empty(), "{v:?}");

        let v = run(&format!("{staged}{}", helper.replace("    f.sync_all()?;\n", "")));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("rename before fsync"));
        assert_eq!(v[0].symbol.as_deref(), Some("push_to"));

        let unstaged = staged.replace("&tmp,", "&layout.cursor,");
        let v = run(&format!("{unstaged}{helper}"));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("outside tmp/ staging"));
    }

    #[test]
    fn unreachable_functions_are_not_audited() {
        // `open` / recovery legitimately rewrites the manifest in
        // place; it is not on a protocol root path.
        let src = r#"
fn open() -> Result<()> {
    let f = File::create(layout.manifest)?;
    f.write_all(&header)?;
    f.sync_all()?;
    Ok(())
}
"#;
        assert!(run(src).is_empty());
    }
}
