//! `ckpt-lint` CLI.
//!
//! ```text
//! ckpt-lint check [--deny] [--root PATH] [--json]
//! ckpt-lint rules
//! ```
//!
//! `check` prints every unsuppressed violation; with `--deny` (CI
//! mode) a non-empty report exits 1. Suppressions live in
//! `lint-allow.toml` at the workspace root — see DESIGN.md §9.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("check") => {
            let mut deny = false;
            let mut json = false;
            let mut root = PathBuf::from(".");
            let mut rest = it;
            while let Some(arg) = rest.next() {
                match arg.as_str() {
                    "--deny" => deny = true,
                    "--json" => json = true,
                    "--root" => match rest.next() {
                        Some(p) => root = PathBuf::from(p),
                        None => return usage("--root requires a path"),
                    },
                    other => return usage(&format!("unknown flag `{other}`")),
                }
            }
            check(&root, deny, json)
        }
        Some("rules") => {
            print_rules();
            ExitCode::SUCCESS
        }
        _ => usage("expected a subcommand"),
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("ckpt-lint: {msg}");
    eprintln!("usage: ckpt-lint check [--deny] [--root PATH] [--json]");
    eprintln!("       ckpt-lint rules");
    ExitCode::from(2)
}

fn check(root: &std::path::Path, deny: bool, json: bool) -> ExitCode {
    let report = ckpt_analyzer::run(root);
    if json {
        print_json(&report);
    } else {
        for v in &report.violations {
            let sym = v.symbol.as_deref().map(|s| format!(" in `{s}`")).unwrap_or_default();
            println!("{}:{}: [{}]{sym} {}", v.path, v.line, v.rule, v.message);
        }
        for e in &report.errors {
            println!("error: {e}");
        }
        println!(
            "ckpt-lint: {} file(s), {} violation(s), {} suppressed, {} error(s)",
            report.files_scanned,
            report.violations.len(),
            report.suppressed.len(),
            report.errors.len()
        );
    }
    if deny && !report.clean() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_violation(v: &ckpt_analyzer::rules::Violation) -> String {
    format!(
        r#"{{"rule":"{}","path":"{}","line":{},"symbol":{},"message":"{}"}}"#,
        v.rule,
        json_escape(&v.path),
        v.line,
        v.symbol
            .as_deref()
            .map(|s| format!(r#""{}""#, json_escape(s)))
            .unwrap_or_else(|| "null".to_string()),
        json_escape(&v.message)
    )
}

fn print_json(report: &ckpt_analyzer::Report) {
    let viol: Vec<String> = report.violations.iter().map(json_violation).collect();
    let supp: Vec<String> = report
        .suppressed
        .iter()
        .map(|(v, justification)| {
            format!(
                r#"{{"violation":{},"justification":"{}"}}"#,
                json_violation(v),
                json_escape(justification)
            )
        })
        .collect();
    let errs: Vec<String> =
        report.errors.iter().map(|e| format!(r#""{}""#, json_escape(e))).collect();
    println!(
        r#"{{"files_scanned":{},"violations":[{}],"suppressed":[{}],"errors":[{}]}}"#,
        report.files_scanned,
        viol.join(","),
        supp.join(","),
        errs.join(",")
    );
}

fn print_rules() {
    println!("unchecked-cast    no `as` numeric casts in decoder-reachable functions");
    println!("panic-in-decoder  no unwrap/expect/panics/unchecked indexing in decoder-reachable functions");
    println!("spec-drift        docs/FORMAT.md sections must match frame::FORMATS");
}
