//! `ckpt` — command-line front end for the lossy checkpoint compressor.
//!
//! ```text
//! ckpt compress   <in.f64> --dims 1156x82x2 [--method proposed|simple]
//!                 [--n 128] [--d 64] [--levels 1] [--kernel cdf53|haar|cdf97]
//!                 [--container gzip|none] [--threads N] [--chunk-bytes BYTES]
//!                 [--bound 0.001] [-o out.wck]
//! ckpt decompress <in.wck> [-o out.f64]
//! ckpt info       <in.wck>
//! ckpt gen        --dims 1156x82x2 [--kind temperature] [--seed 7] -o out.f64
//! ```
//!
//! Raw array files are little-endian f64, row-major — the layout a
//! Fortran/C application's checkpoint write produces for one variable.

#![forbid(unsafe_code)]

/// Prints one line of a verb's report on stdout: the CLI's one stdout
/// writer. A reader that closed the pipe early (`ckpt info x | head -1`)
/// ends the report quietly, and the verb's work and exit status stand;
/// any other failure to write is the verb's error.
macro_rules! say {
    ($($arg:tt)*) => {
        $crate::say_line(format_args!($($arg)*))?
    };
}

mod args;
mod commands;
mod serve_cmd;
mod store_cmd;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn say_line(line: std::fmt::Arguments<'_>) -> Result<(), String> {
    use std::io::{ErrorKind, Write};
    match writeln!(std::io::stdout(), "{line}") {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => Err(format!("writing to stdout: {e}")),
        _ => Ok(()),
    }
}

fn run(argv: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{}", commands::USAGE);
        return Err("missing subcommand".into());
    };
    match cmd.as_str() {
        "compress" => commands::compress(rest),
        "decompress" => commands::decompress(rest),
        "info" => commands::info(rest),
        "gen" => commands::gen(rest),
        "store" => store_cmd::dispatch(rest),
        "serve" => serve_cmd::serve(rest),
        "fetch" => serve_cmd::fetch(rest),
        "help" | "--help" | "-h" => {
            say!("{}", commands::USAGE);
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}; try `ckpt help`")),
    }
}
