//! `cargo xtask required-tests`: runs every test `ci/required-tests.txt`
//! names and fails unless each one ran and passed.
//!
//! The manifest holds one test a line in four whitespace-separated columns —
//! crate, target (`lib` or a test target), the exact name the test harness
//! prints, and the profile: `debug`, `release`, or `model` (a debug build
//! with `--cfg payg_check`, in its own target directory, so the model
//! checker's scheduler drives the synchronization) — with `#` starting a
//! comment. Tests of one crate, target and profile run in one
//! `cargo test … -- --exact` call;
//! a name the harness does not report as `ok` — failed, or never run because
//! it was renamed or deleted — fails the command, so a required test cannot
//! drop out of CI silently.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode};

/// Where the manifest lives, relative to the workspace root.
const MANIFEST: &str = "ci/required-tests.txt";

/// How a group's tests are built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Profile {
    Debug,
    Release,
    /// Debug, with `--cfg payg_check`.
    Model,
}

impl Profile {
    fn name(self) -> &'static str {
        match self {
            Profile::Debug => "debug",
            Profile::Release => "release",
            Profile::Model => "model",
        }
    }
}

/// One crate, target and profile: the tests of one `cargo test` call.
type Group = (String, String, Profile);

/// Reads the manifest into groups of test names, in manifest order within
/// each group.
fn parse(text: &str) -> Result<BTreeMap<Group, Vec<String>>, String> {
    let mut groups: BTreeMap<Group, Vec<String>> = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or_default().trim();
        if line.is_empty() {
            continue;
        }
        let cols: Vec<&str> = line.split_whitespace().collect();
        let [krate, target, name, profile] = cols[..] else {
            return Err(format!("{MANIFEST}:{}: expected 4 columns, found {}", n + 1, cols.len()));
        };
        let profile = match profile {
            "debug" => Profile::Debug,
            "release" => Profile::Release,
            "model" => Profile::Model,
            other => {
                return Err(format!(
                    "{MANIFEST}:{}: profile `{other}` is not debug, release or model",
                    n + 1
                ))
            }
        };
        groups.entry((krate.into(), target.into(), profile)).or_default().push(name.into());
    }
    Ok(groups)
}

/// The names of `names` that `output` — a test harness's report — does not
/// show as passed.
fn not_passed<'a>(output: &str, names: &'a [String]) -> Vec<&'a str> {
    names
        .iter()
        .filter(|name| !output.lines().any(|l| l.trim() == format!("test {name} ... ok")))
        .map(String::as_str)
        .collect()
}

/// Runs the manifest's tests from the workspace root `root`.
pub fn run(root: &Path) -> ExitCode {
    let text = match std::fs::read_to_string(root.join(MANIFEST)) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("required-tests: reading {MANIFEST}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let groups = match parse(&text) {
        Ok(groups) => groups,
        Err(e) => {
            eprintln!("required-tests: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let (mut total, mut missing) = (0, Vec::new());
    for ((krate, target, profile), names) in &groups {
        let mut cmd = Command::new(&cargo);
        cmd.current_dir(root).args(["test", "-p", krate]);
        match profile {
            Profile::Debug => {}
            Profile::Release => {
                cmd.arg("--release");
            }
            Profile::Model => {
                cmd.env("RUSTFLAGS", "--cfg payg_check");
                cmd.env("CARGO_TARGET_DIR", root.join("target").join("payg_check"));
            }
        }
        match target.as_str() {
            "lib" => cmd.arg("--lib"),
            test => cmd.args(["--test", test]),
        };
        cmd.args(["--", "--exact"]).args(names);
        let profile = profile.name();
        eprintln!("required-tests: {krate} {target} ({profile}): {} test(s)", names.len());
        let output = match cmd.output() {
            Ok(output) => output,
            Err(e) => {
                eprintln!("required-tests: running cargo: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        total += names.len();
        let failed = not_passed(&stdout, names);
        if !output.status.success() || !failed.is_empty() {
            eprint!("{stdout}{}", String::from_utf8_lossy(&output.stderr));
        }
        missing.extend(failed.into_iter().map(|name| format!("{krate} {target} {name} ({profile})")));
    }
    if missing.is_empty() {
        eprintln!("required-tests: all {total} required tests ran and passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("required-tests: {} of {total} required tests did not run or did not pass:", missing.len());
        for m in &missing {
            eprintln!("  {m}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_manifest_groups_by_crate_target_and_profile() {
        let text = "# a comment\n\
                    payg-core lib a::b debug  # trailing\n\
                    \n\
                    payg-core lib a::c debug\n\
                    payg-core proptests p release\n\
                    payg-core proptests p model\n";
        let groups = parse(text).unwrap();
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[&("payg-core".into(), "lib".into(), Profile::Debug)], ["a::b", "a::c"]);
        assert_eq!(groups[&("payg-core".into(), "proptests".into(), Profile::Release)], ["p"]);
        assert_eq!(groups[&("payg-core".into(), "proptests".into(), Profile::Model)], ["p"]);
        assert!(parse("payg-core lib a::b").unwrap_err().contains("expected 4 columns"));
        assert!(parse("payg-core lib a::b fast").unwrap_err().contains("not debug, release or model"));
    }

    #[test]
    fn a_test_passes_only_when_the_harness_reports_it_ok() {
        let names: Vec<String> = ["ran", "failed", "renamed", "prefix"].map(String::from).into();
        let output = "running 3 tests\n\
                      test ran ... ok\n\
                      test failed ... FAILED\n\
                      test prefix_and_more ... ok\n";
        assert_eq!(not_passed(output, &names), ["failed", "renamed", "prefix"]);
    }

    /// The repo's own manifest parses and lists no test twice.
    #[test]
    fn the_repo_manifest_parses_without_duplicates() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let groups = parse(&std::fs::read_to_string(root.join(MANIFEST)).unwrap()).unwrap();
        for ((krate, target, _), names) in &groups {
            let mut sorted = names.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), names.len(), "{krate} {target} lists a test twice");
        }
        assert!(groups.values().map(Vec::len).sum::<usize>() >= 54);
    }
}
