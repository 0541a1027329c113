//! `cargo xtask` — workspace automation without external dependencies.
//!
//! One subcommand, `analyze`: the repo's static-analysis engine (see
//! [`analyze`] module docs) — the legacy lint rules on a comment/string-aware
//! lexer, plus the lock-rank, guard-escape, and obs-vocabulary workspace
//! passes. It takes no arguments and exits nonzero when any rule is violated.

mod analyze;

use std::process::ExitCode;

const USAGE: &str = "usage: cargo xtask analyze";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [cmd] if cmd == "analyze" => analyze::run(),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}
