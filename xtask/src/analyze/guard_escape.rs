//! Guard-escape pass.
//!
//! A [`PageGuard`] pins a frame: while it lives, the page cannot be evicted
//! and its memory stays charged. Holding one across a blocking operation —
//! a lock acquisition, a `Sleeper` backoff, an I/O-stage submit-and-wait —
//! stretches pin lifetimes from "the microseconds a chunk is read" to "as
//! long as the lock/sleep/IO takes", which defeats piecewise residency and
//! can deadlock against eviction walking the same shard.
//!
//! The pass is deliberately direct-only (no call resolution): a `let`
//! binding produced by `.pin(..)`, `.pin_many(..)` (a wave: the binding
//! holds every guard of the batch), or the pool's
//! `.guard(..)` constructor in `crates/storage` / `crates/core` library code is
//! tracked to the end of its block (or `drop(name)`); any blocking event
//! inside that region is flagged — so a phase that parks, locks or pins its
//! *next* wave while the previous wave's guards are still bound is caught.
//! `.pin_many_into(keys, &mut out)` fills a caller-owned vector instead of
//! returning one: its `out` argument (a local or a field path, named by its
//! last segment) is tracked the same way, from the call's statement to the
//! end of the block the call sits in. Architectural guard-holding (the
//! scan iterator's one current page) lives in a struct field assigned from
//! such a binding, not by a pin call directly, and is not flagged.

use super::lexer::{Tok, TokKind};
use super::report::Sink;
use super::FileUnit;

/// Is this file in the pass's scope?
pub fn in_scope(u: &FileUnit) -> bool {
    let s = u.rel.to_string_lossy().replace('\\', "/");
    s.starts_with("crates/storage/src") || s.starts_with("crates/core/src")
}

/// Runs the pass over one file.
pub fn run(u: &FileUnit, sink: &Sink<'_>) {
    if !in_scope(u) {
        return;
    }
    let toks = &u.lexed.toks;

    // Guard bindings: (name, declared line, live-from index, scope-end
    // index). A binding only exists once its statement completes, so
    // blocking events inside the initializer itself (e.g. the shard lock
    // taken while computing what to pin) do not count.
    let mut live: Vec<(String, u32, usize, usize)> = Vec::new();

    for i in 0..toks.len() {
        if u.info.in_test[i] {
            continue;
        }
        live.retain(|&(_, _, _, end)| end > i);

        // `drop(name)` ends a binding early.
        if toks[i].is_ident("drop")
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 3).is_some_and(|t| t.is_punct(')'))
        {
            if let Some(name) = toks.get(i + 2).filter(|t| t.kind == TokKind::Ident) {
                live.retain(|(n, _, _, _)| *n != name.text);
            }
        }

        // New guard binding: `let [mut] name = <expr containing a pin>;`.
        if toks[i].is_ident("let") {
            if let Some((name, stmt_end)) = let_binding(toks, i) {
                if statement_pins(&toks[i..=stmt_end]) {
                    live.push((
                        name,
                        toks[i].line,
                        stmt_end,
                        enclosing_scope_end(toks, stmt_end),
                    ));
                    continue;
                }
            }
        }

        // `….pin_many_into(keys, &mut out);` binds the wave to `out`.
        if let Some((name, stmt_end)) = pin_many_into_out(toks, i) {
            live.push((
                name,
                toks[i].line,
                stmt_end,
                enclosing_scope_end(toks, stmt_end),
            ));
            continue;
        }

        let held: Vec<&(String, u32, usize, usize)> =
            live.iter().filter(|&&(_, _, from, _)| i > from).collect();
        let Some(&(name, line, _, _)) = held.last() else { continue };
        if let Some(event) = blocking_event(toks, i) {
            sink.emit(
                "guard-escape",
                toks[i].line,
                format!(
                    "page guard `{name}` (pinned line {line}) is still live across {event}: \
                     pins must not span blocking operations — drop the guard first, \
                     or suppress with a reason if the hold is the point"
                ),
            );
        }
    }
}

/// Parses `let [mut] name = … ;` starting at the `let` at `i`; returns the
/// binding name and the token index of the terminating `;`.
fn let_binding(toks: &[Tok], i: usize) -> Option<(String, usize)> {
    let mut j = i + 1;
    if toks.get(j)?.is_ident("mut") {
        j += 1;
    }
    let name = toks.get(j)?;
    if name.kind != TokKind::Ident {
        return None; // destructuring patterns: skip
    }
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().skip(j) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth < 0 {
                return None; // ran off the enclosing block
            }
        } else if t.is_punct(';') && depth == 0 {
            return Some((name.text.clone(), k));
        }
    }
    None
}

/// Parses `.pin_many_into(…, &mut path.to.out)` with its `.` at `i`; returns
/// the last segment of the out-argument and the token index where the
/// call's statement ends (its `;`, or the closing `)` of a tail expression).
fn pin_many_into_out(toks: &[Tok], i: usize) -> Option<(String, usize)> {
    if !(toks[i].is_punct('.')
        && toks.get(i + 1)?.is_ident("pin_many_into")
        && toks.get(i + 2)?.is_punct('('))
    {
        return None;
    }
    let mut depth = 0i64;
    let mut out = None;
    let mut close = None;
    for (k, t) in toks.iter().enumerate().skip(i + 2) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth < 0 {
                break; // tail expression: the block ends before any `;`
            }
            if depth == 0 && close.is_none() {
                close = Some(k);
            }
        } else if close.is_none() && t.kind == TokKind::Ident {
            out = Some(t.text.clone());
        } else if t.is_punct(';') && depth == 0 {
            return Some((out?, k));
        }
    }
    Some((out?, close?))
}

/// Does this statement's token span produce a page guard?
fn statement_pins(stmt: &[Tok]) -> bool {
    for (k, t) in stmt.iter().enumerate() {
        let dot_call = |name: &str| {
            t.is_punct('.')
                && stmt.get(k + 1).is_some_and(|x| x.is_ident(name))
                && stmt.get(k + 2).is_some_and(|x| x.is_punct('('))
        };
        if dot_call("pin") || dot_call("pin_many") {
            // Accounting pins are not guard producers: `resource.pin()`
            // bumps a resource handle's pin word and returns bool;
            // `pins.pin(..)` registers with the leak tracker. Only pool
            // pins yield guards.
            let receiver_is_accounting = k > 0
                && (stmt[k - 1].is_ident("resource") || stmt[k - 1].is_ident("pins"));
            if !receiver_is_accounting {
                return true;
            }
        }
        // The pool's one guard constructor (`PoolInner::guard`).
        if dot_call("guard") {
            return true;
        }
    }
    false
}

/// Is the token at `i` a blocking event? Returns its description.
fn blocking_event(toks: &[Tok], i: usize) -> Option<&'static str> {
    let dot_call = |name: &str| {
        toks[i].is_punct('.')
            && toks.get(i + 1).is_some_and(|x| x.is_ident(name))
            && toks.get(i + 2).is_some_and(|x| x.is_punct('('))
    };
    if dot_call("lock") || dot_call("try_lock") {
        return Some("a lock acquisition");
    }
    if dot_call("wait") {
        return Some("a blocking wait");
    }
    if dot_call("submit") {
        return Some("an I/O-stage submit");
    }
    if dot_call("sleep") {
        return Some("a sleeper call");
    }
    // The injected sleeper is a closure: `(self.sleeper)(d)` / `sleeper(d)`.
    if toks[i].is_ident("sleeper") {
        let next = toks.get(i + 1)?;
        if next.is_punct('(') {
            return Some("a sleeper call");
        }
        if next.is_punct(')') && toks.get(i + 2).is_some_and(|x| x.is_punct('(')) {
            return Some("a sleeper call");
        }
    }
    None
}

/// Token index of the `}` closing the block containing token `i`.
fn enclosing_scope_end(toks: &[Tok], i: usize) -> usize {
    let mut depth = 0i64;
    for (j, t) in toks.iter().enumerate().skip(i) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            if depth == 0 {
                return j;
            }
            depth -= 1;
        }
    }
    toks.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::super::build_unit;
    use super::*;
    use std::path::PathBuf;

    fn run_src(rel: &str, src: &str) -> Vec<(String, u32)> {
        let u = build_unit(PathBuf::from(rel), src);
        let sink = Sink::new(&u.rel, &u.lexed.comments);
        run(&u, &sink);
        let mut out = Vec::new();
        sink.finish(&["guard-escape"], &mut out);
        out.into_iter().map(|f| (f.rule.to_string(), f.line)).collect()
    }

    #[test]
    fn guard_across_lock_and_sleep_is_flagged() {
        let src = "fn f(&self) {\n    let g = self.pool.pin(key)?;\n    let st = self.state.lock();\n    (self.sleeper)(backoff);\n    touch(g, st);\n}\n";
        let got = run_src("crates/storage/src/pool.rs", src);
        assert_eq!(
            got,
            [("guard-escape".to_string(), 3), ("guard-escape".to_string(), 4)],
            "{got:?}"
        );
    }

    #[test]
    fn dropped_guard_is_not_flagged() {
        let src = "fn f(&self) {\n    let g = self.pool.pin(key)?;\n    use_page(&g);\n    drop(g);\n    let st = self.state.lock();\n    touch(st);\n}\n";
        assert!(run_src("crates/storage/src/pool.rs", src).is_empty());
    }

    #[test]
    fn scope_exit_releases_the_guard() {
        let src = "fn f(&self) {\n    {\n        let g = self.pool.pin(key)?;\n        use_page(&g);\n    }\n    self.queue.submit(req);\n}\n";
        assert!(run_src("crates/storage/src/pool.rs", src).is_empty());
    }

    #[test]
    fn wait_and_submit_are_events() {
        let src = "fn f(&self) {\n    let g = self.pool.pin(key)?;\n    let t = stage.submit(req);\n    ticket.wait();\n    touch(g, t);\n}\n";
        let got = run_src("crates/core/src/datavec/paged.rs", src);
        assert_eq!(got.len(), 2, "{got:?}");
    }

    #[test]
    fn a_wave_of_guards_is_tracked_like_one() {
        // Guards of one batched pin still bound while the next wave parks.
        let src = "fn f(&self) {\n    let wave = self.pool.pin_many(&keys);\n    ticket.wait();\n    touch(wave);\n}\n";
        let got = run_src("crates/core/src/column/materialize.rs", src);
        assert_eq!(got, [("guard-escape".to_string(), 3)], "{got:?}");
        // Released wave by wave (block scope): clean.
        let src = "fn f(&self) {\n    for keys in waves {\n        let wave = self.pool.pin_many(keys);\n        decode(&wave);\n    }\n    self.state.lock();\n}\n";
        assert!(run_src("crates/core/src/column/materialize.rs", src).is_empty());
    }

    #[test]
    fn a_wave_pinned_into_a_caller_owned_vector_is_tracked_by_its_out_argument() {
        // The wave sits in `self.guards` while the next one parks.
        let src = "fn f(&mut self) {\n    for wave in waves {\n        pool.pin_many_into(&self.keys, &mut self.guards);\n        ticket.wait();\n        step(self.guards.drain(..));\n    }\n}\n";
        let got = run_src("crates/core/src/column/materialize.rs", src);
        assert_eq!(got, [("guard-escape".to_string(), 4)], "{got:?}");
        // Drained within the block the call sits in, nothing blocking in between: clean,
        // and the binding ends with that block.
        let src = "fn f(&mut self) {\n    for wave in waves {\n        pool.pin_many_into(&self.keys, &mut self.guards);\n        step(self.guards.drain(..));\n    }\n    self.state.lock();\n}\n";
        assert!(run_src("crates/core/src/column/materialize.rs", src).is_empty());
        // A local out vector, dropped early.
        let src = "fn f(&self) {\n    let mut out = Vec::new();\n    self.pool.pin_many_into(&keys, &mut out);\n    drop(out);\n    self.state.lock();\n}\n";
        assert!(run_src("crates/storage/src/pool.rs", src).is_empty());
        let src = "fn f(&self) {\n    let mut out = Vec::new();\n    self.pool.pin_many_into(&keys, &mut out);\n    self.state.lock();\n    touch(out);\n}\n";
        let got = run_src("crates/storage/src/pool.rs", src);
        assert_eq!(got, [("guard-escape".to_string(), 4)], "{got:?}");
    }

    #[test]
    fn out_of_scope_crates_are_ignored() {
        let src = "fn f(&self) {\n    let g = self.pool.pin(key)?;\n    let st = self.state.lock();\n    touch(g, st);\n}\n";
        assert!(run_src("crates/table/src/lib.rs", src).is_empty());
        assert!(run_src("crates/storage/tests/chaos.rs", src).is_empty());
    }

    #[test]
    fn suppression_with_reason_applies() {
        let src = "fn f(&self) {\n    let g = self.pool.pin(key)?;\n    // lint: allow(guard-escape) helper pages stay pinned by design\n    self.pinned_helpers.lock().push(g);\n}\n";
        assert!(run_src("crates/core/src/dict/paged.rs", src).is_empty());
    }
}
