//! `cargo xtask` — workspace automation without external dependencies.
//!
//! Two subcommands, neither taking arguments, each exiting nonzero on a
//! finding:
//! - `analyze`: the repo's static-analysis engine (see [`analyze`] module
//!   docs) — the legacy lint rules on a comment/string-aware lexer, plus the
//!   lock-rank, guard-escape, and obs-vocabulary workspace passes;
//! - `required-tests`: runs every test `ci/required-tests.txt` names and
//!   fails unless each one ran and passed (see [`required`]).

mod analyze;
mod required;

use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: cargo xtask analyze | cargo xtask required-tests";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [cmd] if cmd == "analyze" => analyze::run(),
        [cmd] if cmd == "required-tests" => {
            required::run(&Path::new(env!("CARGO_MANIFEST_DIR")).join(".."))
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}
