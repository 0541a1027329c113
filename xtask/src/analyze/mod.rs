//! `payg-analyze`: the workspace's static-analysis engine.
//!
//! Replaces the old line-based linter with a comment/string-aware lexer
//! ([`lexer`]), a brace-scope and binding tracker ([`scopes`]), and
//! per-file token streams. On that base run:
//!
//! * the per-file rules ([`rules`]) — the eight legacy rules plus
//!   `span-discipline` — same names, same `lint: allow(<rule>) <reason>`
//!   suppressions;
//! * `lock-rank` / `rank-table` — static lock-order checking against
//!   `payg_check::RANK_TABLE` ([`lockrank`]);
//! * `guard-escape` — page-guard bindings live across blocking operations
//!   ([`guard_escape`]);
//! * `obs-undeclared` / `obs-dead` / `obs-label-arity` — metric-vocabulary
//!   conformance against `payg_obs::names::ALL` ([`obsvocab`]);
//! * `stale-suppression` — `lint: allow` tags that no longer suppress
//!   anything ([`report`]).
//!
//! `cargo xtask analyze` takes no arguments: it analyzes the workspace's
//! library trees, prints every finding and a summary line, and fails on
//! any finding — there is no baseline of accepted debt.

pub mod guard_escape;
pub mod lexer;
pub mod lockrank;
pub mod obsvocab;
pub mod report;
pub mod rules;
pub mod scopes;

use report::{Finding, Sink};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Every rule the engine can emit (used to distinguish a stale suppression
/// from one naming a rule that never existed).
pub const KNOWN_RULES: &[&str] = &[
    "unwrap",
    "raw-lock",
    "safety",
    "sleep",
    "pin-in-loop",
    "raw-counter",
    "stringly-error",
    "pool-read-page",
    "span-discipline",
    "snapshot-escape",
    "lock-rank",
    "rank-table",
    "guard-escape",
    "obs-undeclared",
    "obs-dead",
    "obs-label-arity",
    "stale-suppression",
];

/// One lexed + scope-analyzed file.
pub struct FileUnit {
    pub rel: PathBuf,
    pub lexed: lexer::Lexed,
    pub info: scopes::FileInfo,
}

/// Builds a [`FileUnit`] from source text.
pub fn build_unit(rel: PathBuf, src: &str) -> FileUnit {
    let lexed = lexer::lex(src);
    let info = scopes::analyze_scopes(&lexed.toks);
    FileUnit { rel, lexed, info }
}

/// Entry point for `cargo xtask analyze`.
pub fn run() -> ExitCode {
    let (checked, findings) = match analyze_tree(&workspace_root()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("analyze: {e}");
            return ExitCode::FAILURE;
        }
    };
    for f in &findings {
        println!("{f}");
    }
    println!("analyze: {} files checked, {} violation(s)", checked, findings.len());
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every pass over the workspace's library trees; returns (files
/// checked, sorted findings).
pub fn analyze_tree(workspace: &Path) -> Result<(usize, Vec<Finding>), String> {
    // Analysis set: library code under the default roots.
    let mut files = Vec::new();
    for root in default_roots(workspace) {
        collect_rs_files(&root, false, &mut files);
    }
    files.sort();

    let mut units = Vec::with_capacity(files.len());
    for file in &files {
        let text = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let rel = file.strip_prefix(workspace).unwrap_or(file).to_path_buf();
        units.push(build_unit(rel, &text));
    }

    // Usage set: every .rs in the workspace (tests, benches, examples,
    // xtask included) — consumed by dead-name detection only.
    let mut usage_files = Vec::new();
    collect_rs_files(workspace, true, &mut usage_files);
    usage_files.sort();
    let mut usage_units = Vec::with_capacity(usage_files.len());
    for file in &usage_files {
        let text = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let rel = file.strip_prefix(workspace).unwrap_or(file).to_path_buf();
        usage_units.push(build_unit(rel, &text));
    }

    let sinks: Vec<Sink<'_>> =
        units.iter().map(|u| Sink::new(&u.rel, &u.lexed.comments)).collect();

    for (i, u) in units.iter().enumerate() {
        rules::run(&u.rel, &u.lexed, &u.info, &sinks[i]);
        guard_escape::run(u, &sinks[i]);
    }

    let table: Vec<(&str, u8)> =
        payg_check::RANK_TABLE.iter().map(|s| (s.name, s.rank)).collect();
    lockrank::run(&units, &sinks, &table);

    let vocab: Vec<obsvocab::Vocab> = payg_obs::names::ALL
        .iter()
        .map(|s| obsvocab::Vocab {
            ident: s.ident.to_string(),
            name: s.name.to_string(),
            labels: s.labels.iter().map(|l| l.to_string()).collect(),
        })
        .collect();
    obsvocab::run(&units, &sinks, &usage_units, &vocab);

    let mut findings = Vec::new();
    for sink in sinks {
        sink.finish(KNOWN_RULES, &mut findings);
    }
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok((units.len(), findings))
}

fn workspace_root() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".to_string());
    let p = PathBuf::from(manifest);
    p.parent().map(Path::to_path_buf).unwrap_or(p)
}

fn default_roots(workspace: &Path) -> Vec<PathBuf> {
    let mut roots = vec![workspace.join("src")];
    if let Ok(entries) = std::fs::read_dir(workspace.join("crates")) {
        for e in entries.flatten() {
            roots.push(e.path());
        }
    }
    roots
}

/// Collects `.rs` files. With `include_test_trees` the `tests`/`benches`/
/// `examples` trees are walked too (for usage scanning); `fixtures` and
/// build/VCS internals are always skipped.
fn collect_rs_files(root: &Path, include_test_trees: bool, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(root) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        let name = e.file_name();
        let name = name.to_string_lossy();
        if p.is_dir() {
            let skip = match name.as_ref() {
                "target" | "fixtures" | ".git" => true,
                "tests" | "benches" | "examples" => !include_test_trees,
                _ => false,
            };
            if !skip {
                collect_rs_files(&p, include_test_trees, out);
            }
        } else if name.ends_with(".rs") {
            out.push(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the per-file passes (legacy rules + guard-escape + stale
    /// suppressions) over one source string, as the old `lint_file` did.
    fn analyze_str(rel: &str, text: &str) -> Vec<Finding> {
        let u = build_unit(PathBuf::from(rel), text);
        let sink = Sink::new(&u.rel, &u.lexed.comments);
        rules::run(&u.rel, &u.lexed, &u.info, &sink);
        guard_escape::run(&u, &sink);
        let mut out = Vec::new();
        sink.finish(KNOWN_RULES, &mut out);
        out
    }

    #[test]
    fn unwrap_flagged_in_core_crates_only() {
        let bad = "fn f() { x.unwrap(); }\n";
        assert_eq!(analyze_str("crates/storage/src/pool.rs", bad).len(), 1);
        assert_eq!(analyze_str("crates/resman/src/manager.rs", bad).len(), 1);
        assert_eq!(analyze_str("crates/encoding/src/lib.rs", bad).len(), 0);
    }

    #[test]
    fn unwrap_or_else_is_not_flagged() {
        let ok = "fn f() { x.unwrap_or_else(|| 3); y.unwrap_or(0); }\n";
        assert!(analyze_str("crates/storage/src/pool.rs", ok).is_empty());
    }

    #[test]
    fn suppression_with_reason_works() {
        let t = "// lint: allow(unwrap) invariant: set above\nfn f() { x.expect(\"set\"); }\n";
        assert!(analyze_str("crates/storage/src/pool.rs", t).is_empty());
        let same = "fn f() { x.expect(\"set\") } // lint: allow(unwrap) invariant\n";
        assert!(analyze_str("crates/storage/src/pool.rs", same).is_empty());
    }

    #[test]
    fn suppression_without_reason_is_rejected() {
        let t = "// lint: allow(unwrap)\nfn f() { x.expect(\"set\"); }\n";
        let v = analyze_str("crates/storage/src/pool.rs", t);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "unwrap");
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let t = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        assert!(analyze_str("crates/storage/src/pool.rs", t).is_empty());
    }

    #[test]
    fn cfg_test_items_are_exempt_past_their_first_line() {
        // The old line-based linter only skipped a gated item's first line;
        // the scope tracker exempts the whole item body.
        let t = "#[cfg(test)]\nfn helper() {\n    x.unwrap();\n    y.expect(\"set\");\n}\nfn lib() { z.unwrap(); }\n";
        let v = analyze_str("crates/storage/src/pool.rs", t);
        assert_eq!(v.len(), 1, "only the non-test unwrap: {v:?}");
        assert_eq!(v[0].line, 6);
    }

    #[test]
    fn raw_lock_flagged_outside_sync_module() {
        let t = "use std::sync::Mutex;\n";
        assert_eq!(analyze_str("crates/storage/src/pool.rs", t).len(), 1);
        assert!(analyze_str("crates/storage/src/sync.rs", t).is_empty());
        let pl = "use parking_lot::RwLock;\n";
        assert_eq!(analyze_str("crates/resman/src/manager.rs", pl).len(), 1);
    }

    #[test]
    fn atomics_are_not_raw_locks() {
        let t = "use std::sync::atomic::AtomicU64;\nuse std::sync::Arc;\n";
        assert!(analyze_str("crates/storage/src/pool.rs", t).is_empty());
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let bad = "fn f() { unsafe { g() } }\n";
        assert_eq!(analyze_str("crates/encoding/src/lib.rs", bad).len(), 1);
        let good = "// SAFETY: bounds checked above\nfn f() { unsafe { g() } }\n";
        assert!(analyze_str("crates/encoding/src/lib.rs", good).is_empty());
        // "unsafe" as a substring of an identifier is not the keyword.
        let ident = "fn not_unsafe_here() {}\n";
        assert!(analyze_str("crates/encoding/src/lib.rs", ident).is_empty());
    }

    #[test]
    fn multi_line_safety_comments_and_unsafe_fn_docs_count() {
        // A SAFETY justification may span several comment lines; the tag
        // only has to appear somewhere in the contiguous block above.
        let block = "fn f() {\n    // SAFETY: the caller checked bounds, and\n    // three more lines of explanation later\n    // the justification still counts\n    // for the block below\n    unsafe { g() }\n}\n";
        assert!(analyze_str("crates/encoding/src/lib.rs", block).is_empty());
        // An `unsafe fn` declaration is annotated by its rustdoc `# Safety`
        // section, even with attributes between the docs and the `fn`.
        let decl = "/// Reads raw.\n///\n/// # Safety\n///\n/// `off` must be in bounds.\n#[inline]\npub unsafe fn read(off: usize) -> u64 { 0 }\n";
        assert!(analyze_str("crates/encoding/src/lib.rs", decl).is_empty());
        // Docs without a safety section do not count.
        let undoc = "/// Reads raw.\npub unsafe fn read(off: usize) -> u64 { 0 }\n";
        let v = analyze_str("crates/encoding/src/lib.rs", undoc);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "safety");
    }

    #[test]
    fn unsafe_in_strings_and_comments_is_not_flagged() {
        // The line-based linter could not tell these apart; the lexer can.
        let t = "fn f() { let s = \"unsafe\"; } // an unsafe remark\n";
        assert!(analyze_str("crates/encoding/src/lib.rs", t).is_empty());
        let raw = "fn f() { let s = r#\"unsafe { }\"#; }\n";
        assert!(analyze_str("crates/encoding/src/lib.rs", raw).is_empty());
    }

    #[test]
    fn sleep_flagged_in_library_code() {
        let bad = "fn f() { std::thread::sleep(d); }\n";
        assert_eq!(analyze_str("crates/storage/src/store.rs", bad).len(), 1);
        assert_eq!(analyze_str("crates/table/src/lib.rs", bad).len(), 1);
    }

    #[test]
    fn comments_do_not_trigger_rules() {
        let t = "// calling x.unwrap() here would be wrong\nfn f() {}\n";
        assert!(analyze_str("crates/storage/src/pool.rs", t).is_empty());
    }

    #[test]
    fn stale_suppressions_are_reported() {
        let t = "// lint: allow(unwrap) was needed before the refactor\nfn f() { g(); }\n";
        let v = analyze_str("crates/storage/src/pool.rs", t);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "stale-suppression");
        assert_eq!(v[0].line, 1);
        // A tag naming an unknown rule is called out as such.
        let bad = "// lint: allow(no-such-rule) whatever\nfn f() { g(); }\n";
        let v = analyze_str("crates/storage/src/pool.rs", bad);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("unknown rule"), "{}", v[0].message);
    }

    #[test]
    fn seeded_violation_fixture_fails() {
        // The checked-in fixture must keep failing: it is the regression
        // test that the engine actually detects each rule.
        let fixture = include_str!("../../fixtures/violations.rs");
        let f = analyze_str("crates/storage/src/fixture.rs", fixture);
        let rules: Vec<&str> = f.iter().map(|x| x.rule).collect();
        assert!(rules.contains(&"unwrap"), "fixture must trip unwrap: {rules:?}");
        assert!(rules.contains(&"raw-lock"), "fixture must trip raw-lock: {rules:?}");
        assert!(rules.contains(&"safety"), "fixture must trip safety: {rules:?}");
        assert!(rules.contains(&"sleep"), "fixture must trip sleep: {rules:?}");
        assert!(rules.contains(&"raw-counter"), "fixture must trip raw-counter: {rules:?}");
        assert!(rules.contains(&"stringly-error"), "fixture must trip stringly-error: {rules:?}");
    }

    #[test]
    fn pin_in_loop_flagged_only_in_datavec_loops() {
        let bad = "fn f() {\n    for p in 0..n {\n        let g = pool.pin(key);\n    }\n    let h = pool.pin(other);\n}\n";
        let v = analyze_str("crates/core/src/datavec/paged.rs", bad);
        assert_eq!(v.len(), 1, "only the in-loop pin is flagged: {v:?}");
        assert_eq!(v[0].rule, "pin-in-loop");
        assert_eq!(v[0].line, 3);
        // Outside the datavec scan code the rule does not apply.
        assert!(analyze_str("crates/core/src/column/paged.rs", bad).is_empty());
        // A pin hoisted above the loop is the intended shape.
        let ok = "fn f() {\n    let g = pool.pin(key);\n    for c in g.chunks() {\n        use_chunk(c);\n    }\n}\n";
        assert!(analyze_str("crates/core/src/datavec/paged.rs", ok).is_empty());
        // A wave is not a per-page pool pin.
        let waved = "fn f() {\n    for wave in waves {\n        pool.pin_many_into(&keys, &mut guards);\n    }\n}\n";
        assert!(analyze_str("crates/core/src/datavec/paged.rs", waved).is_empty());
        // Suppression with a reason is honored.
        let sup = "fn f() {\n    for p in 0..n {\n        // lint: allow(pin-in-loop) boundary repin\n        let g = pool.pin(key);\n    }\n}\n";
        assert!(analyze_str("crates/core/src/datavec/paged.rs", sup).is_empty());
    }

    #[test]
    fn raw_counter_flagged_outside_obs_and_check() {
        let field = "pub struct S {\n    hits: AtomicU64,\n}\n";
        let v = analyze_str("crates/storage/src/pool.rs", field);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "raw-counter");
        assert_eq!(v[0].line, 2);
        let stat = "static HITS: AtomicU64 = AtomicU64::new(0);\n";
        assert_eq!(analyze_str("crates/bench/src/lib.rs", stat).len(), 1);
        // The obs and check crates implement the primitives themselves.
        assert!(analyze_str("crates/obs/src/hist.rs", field).is_empty());
        assert!(analyze_str("crates/check/src/sched.rs", stat).is_empty());
        // A struct-literal constructor is not a second declaration.
        let ctor = "fn f() { S { hits: AtomicU64::new(0) } }\n";
        assert!(analyze_str("crates/storage/src/pool.rs", ctor).is_empty());
        // Qualified declarations are caught; a `use` import alone is not.
        let qualified = "pub struct S {\n    hits: std::sync::atomic::AtomicU64,\n}\n";
        assert_eq!(analyze_str("crates/table/src/table.rs", qualified).len(), 1);
        let import = "use std::sync::atomic::AtomicU64;\n";
        assert!(analyze_str("crates/storage/src/pool.rs", import).is_empty());
        // Non-metric atomics are suppressible with a reason.
        let sup = "pub struct S {\n    // lint: allow(raw-counter) id allocator, not a metric\n    next_id: AtomicU64,\n}\n";
        assert!(analyze_str("crates/storage/src/pool.rs", sup).is_empty());
    }

    #[test]
    fn stringly_error_flagged_outside_the_taxonomy_module() {
        let bad = "fn f() -> StorageError { StorageError::Corrupt(format!(\"bad {x}\")) }\n";
        let v = analyze_str("crates/core/src/dict/paged.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "stringly-error");
        // The taxonomy module itself is the sanctioned construction site.
        assert!(analyze_str("crates/storage/src/error.rs", bad).is_empty());
        // The helper spelling is the approved one.
        let ok = "fn f() -> StorageError { StorageError::corrupt(\"bad page\") }\n";
        assert!(analyze_str("crates/core/src/dict/paged.rs", ok).is_empty());
        // A resurrected catch-all variant is flagged wherever it appears.
        let other = "fn f() -> StorageError { StorageError::Other(\"??\".into()) }\n";
        assert_eq!(analyze_str("crates/table/src/catalog.rs", other).len(), 1);
        // Test trees stay exempt (they assert on error shapes).
        assert!(analyze_str("crates/core/tests/proptests.rs", bad).is_empty());
    }

    #[test]
    fn pool_read_page_flagged_only_in_pool_shard_code() {
        let bad = "fn f() { let data = self.store.read_page(key); }\n";
        let v = analyze_str("crates/storage/src/pool.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "pool-read-page");
        // The I/O stage is the sanctioned call site; other modules (stores
        // themselves, decorators) are out of scope too.
        assert!(analyze_str("crates/storage/src/iostage.rs", bad).is_empty());
        assert!(analyze_str("crates/storage/src/store.rs", bad).is_empty());
        // The batched API is not a direct per-page read.
        let batched = "fn f() { let r = self.store.read_pages(chain, 0, n); }\n";
        assert!(analyze_str("crates/storage/src/pool.rs", batched).is_empty());
        // Suppression with a reason is honored.
        let sup = "// lint: allow(pool-read-page) recovery probe outside the stage\n\
                   fn f() { self.store.read_page(key); }\n";
        assert!(analyze_str("crates/storage/src/pool.rs", sup).is_empty());
    }

    #[test]
    fn span_discipline_flags_untagged_io_emits_in_pool_and_core() {
        let bad = "fn f() { t.emit(EventKind::IoSubmitted, c, p, 0); }\n";
        let v = analyze_str("crates/storage/src/iostage.rs", bad);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "span-discipline");
        assert_eq!(analyze_str("crates/core/src/datavec/parallel.rs", bad).len(), 1);
        // Outside the pool/core crates the rule does not apply.
        assert!(analyze_str("crates/obs/src/trace.rs", bad).is_empty());
        // The tagged emit is the approved spelling, and non-io kinds may
        // stay plain (no query to attribute them to).
        let tagged = "fn f() { t.emit_tagged(EventKind::IoSubmitted, c, p, 0, span, 0); }\n";
        assert!(analyze_str("crates/storage/src/iostage.rs", tagged).is_empty());
        let plainok = "fn f() { t.emit(EventKind::PageEvicted, c, p, 0); }\n";
        assert!(analyze_str("crates/storage/src/pool.rs", plainok).is_empty());
        // Path-qualified kinds are still caught; the kind must be in the
        // first argument (a later argument naming a kind is not a match).
        let qualified = "fn f() { t.emit(payg_obs::EventKind::IoCompleted, c, p, 0); }\n";
        assert_eq!(analyze_str("crates/storage/src/pool.rs", qualified).len(), 1);
        let later = "fn f() { t.emit(EventKind::PagePinned, c, IoCompleted as u64, 0); }\n";
        assert!(analyze_str("crates/storage/src/pool.rs", later).is_empty());
        // Suppression with a reason is honored.
        let sup = "fn f() {\n    // lint: allow(span-discipline) fault drill, no query\n    t.emit(EventKind::LoadRetried, c, p, 1);\n}\n";
        assert!(analyze_str("crates/storage/src/iostage.rs", sup).is_empty());
    }

    #[test]
    fn span_discipline_fixture_exact_findings() {
        let fixture = include_str!("../../fixtures/span_discipline.rs");
        let got = analyze_units(&[("crates/storage/src/fixture.rs", fixture)]);
        let f = "crates/storage/src/fixture.rs".to_string();
        assert_eq!(
            got,
            [
                ("span-discipline".to_string(), f.clone(), 9),
                ("span-discipline".to_string(), f.clone(), 10),
                ("span-discipline".to_string(), f, 15),
            ],
            "{got:?}"
        );
    }

    #[test]
    fn snapshot_escape_flagged_only_in_table_src() {
        let bad = "fn f(p: &Partition) { let m = p.main(); let d = p.delta(); }\n";
        let v = analyze_str("crates/table/src/query.rs", bad);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|x| x.rule == "snapshot-escape"), "{v:?}");
        // The version module owns the protocol; other crates (and the
        // table crate's test trees) read through the public accessors.
        assert!(analyze_str("crates/table/src/version.rs", bad).is_empty());
        assert!(analyze_str("crates/bench/src/series.rs", bad).is_empty());
        assert!(analyze_str("crates/table/tests/restart.rs", bad).is_empty());
        // The pinned spellings are the approved ones, and a field named
        // `main` is not a raw accessor call.
        let ok = "fn f(p: &Partition) { let m = p.main_frag(); let d = p.delta_view(); }\n";
        assert!(analyze_str("crates/table/src/query.rs", ok).is_empty());
        let field = "fn f(pv: &PartitionVersion) { pv.main.schedule_retire(&pool); }\n";
        assert!(analyze_str("crates/table/src/table.rs", field).is_empty());
        // Suppression with a reason is honored.
        let sup = "fn f(p: &Partition) {\n    // lint: allow(snapshot-escape) repair probe\n    let m = p.main();\n}\n";
        assert!(analyze_str("crates/table/src/catalog.rs", sup).is_empty());
    }

    #[test]
    fn snapshot_escape_fixture_exact_findings() {
        let fixture = include_str!("../../fixtures/snapshot_escape.rs");
        let got = analyze_units(&[("crates/table/src/fixture.rs", fixture)]);
        let f = "crates/table/src/fixture.rs".to_string();
        assert_eq!(
            got,
            [
                ("snapshot-escape".to_string(), f.clone(), 6),
                ("snapshot-escape".to_string(), f, 7),
            ],
            "{got:?}"
        );
    }

    #[test]
    fn seeded_pin_in_loop_fixture_fails() {
        let fixture = include_str!("../../fixtures/pin_in_loop.rs");
        let f = analyze_str("crates/core/src/datavec/fixture.rs", fixture);
        let rules: Vec<&str> = f.iter().map(|x| x.rule).collect();
        assert_eq!(
            f.len(),
            2,
            "fixture must trip exactly its two unsuppressed loops: {rules:?}"
        );
        assert!(f.iter().all(|x| x.rule == "pin-in-loop"), "{rules:?}");
    }

    /// Runs the FULL pass set — per-file rules, guard-escape, lock-rank
    /// against the real `payg_check::RANK_TABLE`, obs-vocabulary against
    /// the real `payg_obs::names::ALL` — over in-memory units, as
    /// [`analyze_tree`] does over the workspace.
    fn analyze_units(srcs: &[(&str, &str)]) -> Vec<(String, String, u32)> {
        let units: Vec<FileUnit> =
            srcs.iter().map(|(rel, src)| build_unit(PathBuf::from(rel), src)).collect();
        let sinks: Vec<Sink<'_>> =
            units.iter().map(|u| Sink::new(&u.rel, &u.lexed.comments)).collect();
        for (i, u) in units.iter().enumerate() {
            rules::run(&u.rel, &u.lexed, &u.info, &sinks[i]);
            guard_escape::run(u, &sinks[i]);
        }
        let table: Vec<(&str, u8)> =
            payg_check::RANK_TABLE.iter().map(|s| (s.name, s.rank)).collect();
        lockrank::run(&units, &sinks, &table);
        let vocab: Vec<obsvocab::Vocab> = payg_obs::names::ALL
            .iter()
            .map(|s| obsvocab::Vocab {
                ident: s.ident.to_string(),
                name: s.name.to_string(),
                labels: s.labels.iter().map(|l| l.to_string()).collect(),
            })
            .collect();
        obsvocab::run(&units, &sinks, &units, &vocab);
        let mut out = Vec::new();
        for s in sinks {
            s.finish(KNOWN_RULES, &mut out);
        }
        out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
        out.into_iter()
            .map(|f| (f.rule.to_string(), f.path.display().to_string(), f.line))
            .collect()
    }

    #[test]
    fn lexer_tricky_fixture_exact_findings() {
        let fixture = include_str!("../../fixtures/lexer_tricky.rs");
        let got = analyze_units(&[("crates/encoding/src/fixture.rs", fixture)]);
        assert_eq!(
            got,
            [("safety".to_string(), "crates/encoding/src/fixture.rs".to_string(), 35)],
            "only the REAL unsafe block may be flagged: {got:?}"
        );
    }

    #[test]
    fn lockrank_inversion_fixture_exact_findings() {
        // The fixture and the runtime checker share one rank declaration:
        // the inversion below is reported against payg_check::RANK_TABLE.
        let fixture = include_str!("../../fixtures/lockrank_inversion.rs");
        let got = analyze_units(&[("crates/resman/src/fixture.rs", fixture)]);
        assert_eq!(
            got,
            [("lock-rank".to_string(), "crates/resman/src/fixture.rs".to_string(), 16)],
            "{got:?}"
        );
    }

    #[test]
    fn guard_escape_fixture_exact_findings() {
        let fixture = include_str!("../../fixtures/guard_escape.rs");
        let got = analyze_units(&[("crates/storage/src/fixture.rs", fixture)]);
        let f = "crates/storage/src/fixture.rs".to_string();
        assert_eq!(
            got,
            [("guard-escape".to_string(), f.clone(), 8), ("guard-escape".to_string(), f, 9)],
            "{got:?}"
        );
    }

    #[test]
    fn obs_vocab_fixture_exact_findings() {
        let fixture = include_str!("../../fixtures/obs_vocab.rs");
        let got = analyze_units(&[("crates/storage/src/fixture.rs", fixture)]);
        let f = "crates/storage/src/fixture.rs".to_string();
        assert_eq!(
            got,
            [
                ("obs-undeclared".to_string(), f.clone(), 8),
                ("obs-label-arity".to_string(), f.clone(), 9),
                ("obs-label-arity".to_string(), f, 13),
            ],
            "{got:?}"
        );
    }

    #[test]
    fn stale_suppression_fixture_exact_findings() {
        let fixture = include_str!("../../fixtures/stale_suppression.rs");
        let got = analyze_units(&[("crates/storage/src/fixture.rs", fixture)]);
        assert_eq!(
            got,
            [(
                "stale-suppression".to_string(),
                "crates/storage/src/fixture.rs".to_string(),
                5
            )],
            "{got:?}"
        );
    }

    #[test]
    fn tree_is_clean() {
        // Run the full engine over the workspace: the repo must stay clean.
        let ws = workspace_root();
        let (checked, findings) = analyze_tree(&ws).unwrap();
        assert!(checked > 20, "expected to analyze the whole workspace, got {checked} files");
        let msgs: Vec<String> = findings.iter().map(|f| f.to_string()).collect();
        assert!(msgs.is_empty(), "analyze violations in tree:\n{}", msgs.join("\n"));
    }
}
