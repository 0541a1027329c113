//! Findings and suppressions.

use std::cell::RefCell;
use std::fmt;
use std::path::{Path, PathBuf};

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// File containing the violation (workspace-relative).
    pub path: PathBuf,
    /// 1-based line number.
    pub line: u32,
    /// Rule name (as used in `lint: allow(...)`).
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path.display(), self.line, self.rule, self.message)
    }
}

/// One `lint: allow(<rule>) <reason>` tag parsed from a comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    pub rule: String,
    pub line: u32,
    pub has_reason: bool,
    pub used: bool,
}

/// Parses every suppression tag out of a file's per-line comments.
pub fn parse_suppressions(comments: &[(u32, String)]) -> Vec<Suppression> {
    const TAG: &str = "lint: allow(";
    let mut out = Vec::new();
    for (line, text) in comments {
        let mut rest = text.as_str();
        while let Some(pos) = rest.find(TAG) {
            rest = &rest[pos + TAG.len()..];
            let Some(close) = rest.find(')') else { break };
            let rule = rest[..close].trim().to_string();
            let reason = rest[close + 1..]
                .split("lint: allow(")
                .next()
                .unwrap_or("")
                .trim();
            out.push(Suppression {
                rule,
                line: *line,
                has_reason: !reason.is_empty(),
                used: false,
            });
            rest = &rest[close + 1..];
        }
    }
    out
}

/// Collects findings for one file, consulting suppressions as they are
/// emitted and recording which suppressions fired.
pub struct Sink<'a> {
    pub rel: &'a Path,
    pub suppressions: RefCell<Vec<Suppression>>,
    pub findings: RefCell<Vec<Finding>>,
}

impl<'a> Sink<'a> {
    pub fn new(rel: &'a Path, comments: &[(u32, String)]) -> Self {
        Sink {
            rel,
            suppressions: RefCell::new(parse_suppressions(comments)),
            findings: RefCell::new(Vec::new()),
        }
    }

    /// Emits a finding at `line` unless a reasoned suppression for `rule`
    /// sits on the same line or the line above. A reasonless tag never
    /// suppresses (the reason is mandatory) but still counts as *used* so
    /// it surfaces as a rule violation rather than a stale tag.
    pub fn emit(&self, rule: &'static str, line: u32, message: impl Into<String>) {
        let mut sup = self.suppressions.borrow_mut();
        let mut suppressed = false;
        for s in sup.iter_mut() {
            if s.rule == rule && (s.line == line || s.line + 1 == line) {
                s.used = true;
                if s.has_reason {
                    suppressed = true;
                }
            }
        }
        drop(sup);
        if suppressed {
            return;
        }
        self.findings.borrow_mut().push(Finding {
            path: self.rel.to_path_buf(),
            line,
            rule,
            message: message.into(),
        });
    }

    /// Drains the findings and appends stale-suppression findings for
    /// tags that fired on nothing.
    pub fn finish(self, known_rules: &[&str], out: &mut Vec<Finding>) {
        out.extend(self.findings.into_inner());
        for s in self.suppressions.into_inner() {
            if s.used {
                continue;
            }
            let hint = if known_rules.contains(&s.rule.as_str()) {
                "the tag suppresses nothing — remove it"
            } else {
                "unknown rule name — fix or remove the tag"
            };
            out.push(Finding {
                path: self.rel.to_path_buf(),
                line: s.line,
                rule: "stale-suppression",
                message: format!("`lint: allow({})` {}", s.rule, hint),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_parsing_requires_reason_for_effect() {
        let comments = vec![
            (3, "lint: allow(unwrap) invariant: set above".to_string()),
            (9, "lint: allow(sleep)".to_string()),
        ];
        let sup = parse_suppressions(&comments);
        assert_eq!(sup.len(), 2);
        assert!(sup[0].has_reason);
        assert!(!sup[1].has_reason);
    }
}
