//! The per-file rules: the eight legacy rules ported from the line/regex
//! linter onto the token stream, plus `span-discipline` (io-path events
//! must be emitted via `emit_tagged`). Rule names and `lint: allow(<rule>)`
//! suppressions are unchanged; what changed is that string literals,
//! comments, and doc text can no longer trigger a rule or mask a real hit,
//! and `#[cfg(test)]` exemption now covers whole gated items (the
//! line-based linter only skipped a gated item's first line).

use super::lexer::{Lexed, Tok, TokKind};
use super::scopes::FileInfo;
use super::report::Sink;
use std::path::Path;

/// Which rules apply to a (workspace-relative) path.
pub struct Scope {
    pub unwrap: bool,
    pub raw_lock: bool,
    pub safety: bool,
    pub sleep: bool,
    pub pin_in_loop: bool,
    pub raw_counter: bool,
    pub stringly_error: bool,
    pub pool_read_page: bool,
    pub span_discipline: bool,
    pub snapshot_escape: bool,
}

/// Event kinds that carry page provenance: every emission must go through
/// `emit_tagged` so the originating span and batch id reach the flight
/// recorder. A plain `.emit(` of one of these drops the attribution that
/// EXPLAIN ANALYZE reconciles coalesced batches with.
const SPAN_TAGGED_KINDS: &[&str] =
    &["IoSubmitted", "IoBatchIssued", "IoCompleted", "LoadRetried"];

impl Scope {
    pub fn any(&self) -> bool {
        self.unwrap
            || self.raw_lock
            || self.safety
            || self.sleep
            || self.pin_in_loop
            || self.raw_counter
            || self.stringly_error
            || self.pool_read_page
            || self.span_discipline
            || self.snapshot_escape
    }
}

pub fn scope_for(rel: &Path) -> Scope {
    let s = rel.to_string_lossy().replace('\\', "/");
    let concurrency_core = s.starts_with("crates/storage/src")
        || s.starts_with("crates/resman/src")
        || s.starts_with("crates/core/src");
    let in_crates_src = (s.starts_with("crates/") && s.contains("/src/")) || s.starts_with("src/");
    let sync_alias_module = s.ends_with("/sync.rs");
    // payg-check implements the wrappers: raw std::sync use is its job.
    let is_check_crate = s.starts_with("crates/check/");
    // payg-obs implements Counter/Gauge/Histogram on top of raw atomics.
    let is_obs_crate = s.starts_with("crates/obs/");
    // The error module owns the taxonomy: it is the one sanctioned
    // construction site for the stringly variants.
    let is_error_taxonomy = s == "crates/storage/src/error.rs";
    Scope {
        unwrap: concurrency_core,
        raw_lock: concurrency_core && !sync_alias_module && !is_check_crate,
        safety: in_crates_src && !is_check_crate,
        sleep: in_crates_src && !is_check_crate,
        pin_in_loop: s.starts_with("crates/core/src/datavec/"),
        raw_counter: in_crates_src && !is_check_crate && !is_obs_crate,
        stringly_error: in_crates_src && !is_error_taxonomy,
        // The cold-path I/O stage owns every store read the pool makes.
        pool_read_page: s == "crates/storage/src/pool.rs",
        // The pool and core crates emit I/O-path events on behalf of
        // queries; plain emits there lose the span/batch provenance.
        span_discipline: s.starts_with("crates/storage/src")
            || s.starts_with("crates/core/src"),
        // The version module owns the snapshot protocol: everywhere else in
        // the table crate, fragment access must go through a pinned
        // Partition (main_frag()/delta_view()), never the raw accessors.
        snapshot_escape: s.starts_with("crates/table/src") && !s.ends_with("/version.rs"),
    }
}

/// True when tokens at `i` spell the path `a::b` for the given segments.
fn path2(toks: &[Tok], i: usize, a: &str, b: &str) -> bool {
    toks.len() > i + 3
        && toks[i].is_ident(a)
        && toks[i + 1].is_punct(':')
        && toks[i + 2].is_punct(':')
        && toks[i + 3].is_ident(b)
}

/// True when tokens at `i` spell `.name(` — a method call.
fn method_call(toks: &[Tok], i: usize, name: &str) -> bool {
    toks.len() > i + 2
        && toks[i].is_punct('.')
        && toks[i + 1].is_ident(name)
        && toks[i + 2].is_punct('(')
}

/// Runs the eight legacy rules over one file.
pub fn run(rel: &Path, lexed: &Lexed, info: &FileInfo, sink: &Sink<'_>) {
    let scope = scope_for(rel);
    if !scope.any() {
        return;
    }
    let toks = &lexed.toks;

    for i in 0..toks.len() {
        if info.in_test[i] {
            continue;
        }
        let line = toks[i].line;

        if scope.unwrap {
            let is_unwrap = method_call(toks, i, "unwrap")
                && toks.get(i + 3).is_some_and(|t| t.is_punct(')'));
            if is_unwrap || method_call(toks, i, "expect") {
                sink.emit(
                    "unwrap",
                    toks[i + 1].line,
                    "unwrap()/expect() in library code: return a typed error, \
                     or suppress with a reason if this is a real invariant",
                );
            }
        }

        if scope.safety && toks[i].is_ident("unsafe") {
            // An `unsafe {}` usage needs a `// SAFETY:` justification in the
            // contiguous comment block ending on its line or the line above.
            // An `unsafe fn` declaration states a caller contract, not a
            // local justification: its rustdoc `# Safety` section counts,
            // searched through the doc block above (attribute lines like
            // `#[inline]` may sit between it and the `fn`).
            let is_decl = toks.get(i + 1).is_some_and(|t| t.is_ident("fn"));
            let mut annotated = false;
            let mut l = line;
            let mut gap_allowance = if is_decl { 2u32 } else { 0 };
            loop {
                match lexed.comment_on(l) {
                    Some(c) if c.contains("SAFETY:") || (is_decl && c.contains("# Safety")) => {
                        annotated = true;
                        break;
                    }
                    Some(_) => {}
                    None if l == line => {} // the unsafe line itself need not comment
                    None if gap_allowance > 0 => gap_allowance -= 1,
                    None => break,
                }
                if l == 0 {
                    break;
                }
                l -= 1;
            }
            if !annotated {
                let hint = if is_decl {
                    "unsafe fn without a rustdoc `# Safety` section or a \
                     `// SAFETY:` comment above"
                } else {
                    "unsafe without a `// SAFETY:` comment in the comment \
                     block directly above"
                };
                sink.emit("safety", line, hint);
            }
        }

        if scope.sleep && path2(toks, i, "thread", "sleep") {
            sink.emit(
                "sleep",
                line,
                "thread::sleep in library code: inject a sleeper/clock \
                 or synchronize with condvars",
            );
        }

        if scope.raw_counter && toks[i].is_ident("AtomicU64") && is_raw_counter_decl(toks, i) {
            sink.emit(
                "raw-counter",
                line,
                "raw AtomicU64 declared outside payg-obs: register a \
                 payg_obs::Counter/Gauge so the metric is exported, or \
                 suppress with a reason if this is not a metric",
            );
        }

        if scope.stringly_error && toks[i].is_ident("StorageError") {
            let corrupt = path2(toks, i, "StorageError", "Corrupt")
                && toks.get(i + 4).is_some_and(|t| t.is_punct('('));
            let other = path2(toks, i, "StorageError", "Other");
            if corrupt || other {
                sink.emit(
                    "stringly-error",
                    line,
                    "stringly StorageError constructed outside storage::error: \
                     use StorageError::corrupt()/corrupt_file() or a structured \
                     variant so the fault taxonomy stays centralized",
                );
            }
        }

        if scope.pool_read_page && method_call(toks, i, "read_page") {
            sink.emit(
                "pool-read-page",
                toks[i + 1].line,
                "direct store read in pool shard code: route it through \
                 iostage (a staged fetch request) so retry, fault, and \
                 physical-read accounting stay unified",
            );
        }

        if scope.span_discipline && method_call(toks, i, "emit") {
            // The first argument names the event kind; scan it (up to the
            // first comma) for one of the provenance-carrying kinds. The
            // kind may be path-qualified (`payg_obs::EventKind::IoSubmitted`).
            let mut j = i + 3;
            while j < toks.len() && !toks[j].is_punct(',') && !toks[j].is_punct(')') {
                if SPAN_TAGGED_KINDS.iter().any(|k| toks[j].is_ident(k)) {
                    sink.emit(
                        "span-discipline",
                        toks[i + 1].line,
                        "io-path event emitted without provenance: use \
                         emit_tagged with the originating span and batch id \
                         so EXPLAIN ANALYZE can attribute coalesced I/O",
                    );
                    break;
                }
                j += 1;
            }
        }

        if scope.snapshot_escape
            && (method_call(toks, i, "main") || method_call(toks, i, "delta"))
        {
            sink.emit(
                "snapshot-escape",
                toks[i + 1].line,
                "raw fragment accessor outside the version module: read \
                 through a pinned Snapshot/Partition (main_frag()/\
                 delta_view()) so the query stays on one published table \
                 version across a concurrent merge",
            );
        }

        if scope.pin_in_loop && info.in_loop[i] && method_call(toks, i, "pin") {
            sink.emit(
                "pin-in-loop",
                toks[i + 1].line,
                "pool pin inside a per-chunk loop: scans must pin each \
                 page once per run — pin the pages as a wave, or suppress \
                 with a reason",
            );
        }
    }

    if scope.raw_lock {
        // Line-based like the original: a line naming `std::sync` together
        // with a lock type, or naming `parking_lot` at all, is a violation.
        let mut i = 0;
        while i < toks.len() {
            if info.in_test[i] {
                i += 1;
                continue;
            }
            let line = toks[i].line;
            let end = toks[i..].iter().position(|t| t.line != line).map_or(toks.len(), |p| i + p);
            let line_toks = &toks[i..end];
            let has_std_sync = (0..line_toks.len()).any(|j| path2(line_toks, j, "std", "sync"));
            let has_lock_type = line_toks.iter().any(|t| {
                t.is_ident("Mutex") || t.is_ident("RwLock") || t.is_ident("Condvar")
            });
            let has_pl = line_toks.iter().any(|t| t.is_ident("parking_lot"));
            if (has_std_sync && has_lock_type) || has_pl {
                sink.emit(
                    "raw-lock",
                    line,
                    "raw lock outside the sync alias module: use the \
                     crate::sync wrappers so payg_check models cover it",
                );
            }
            i = end;
        }
    }
}

/// Whether the `AtomicU64` ident at `i` is a *declaration* (`x: AtomicU64`,
/// `static X: AtomicU64`, optionally path-qualified). `AtomicU64::new(..)`
/// and `use` imports are not declarations.
fn is_raw_counter_decl(toks: &[Tok], i: usize) -> bool {
    // Constructor / associated path: `AtomicU64::...`.
    if toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
    {
        return false;
    }
    // Walk back over a qualifying module path (`std::sync::atomic::`).
    let mut j = i;
    while j >= 3
        && toks[j - 1].is_punct(':')
        && toks[j - 2].is_punct(':')
        && toks[j - 3].kind == TokKind::Ident
    {
        j -= 3;
    }
    // What remains before the path must be a single type-annotation colon
    // preceded by the field/static name.
    j >= 2
        && toks[j - 1].is_punct(':')
        && !toks.get(j.wrapping_sub(2)).is_some_and(|t| t.is_punct(':'))
        && toks[j - 2].kind == TokKind::Ident
}
