//! The audit baseline + ratchet: `audit-baseline.txt` grandfathers known
//! error-severity findings, new errors fail the build, and entries that
//! stop matching must be removed (`--update-baseline`) so the count only
//! ever ratchets down.
//!
//! Baseline keys deliberately omit line numbers — `SA006 path fn` — so
//! unrelated edits shifting a file do not invalidate the baseline, while
//! fixing the finding does.

use std::collections::BTreeSet;

use stacksim_lint::{Diagnostic, Severity};

/// The stable baseline key of a diagnostic: code + file + function. The
/// function name is extracted from the message's `fn \`name\`` fragment;
/// graph-level findings (SA004) key on the full span.
pub fn key(d: &Diagnostic) -> String {
    let path = d.span.split(':').next().unwrap_or(&d.span);
    let func = d
        .message
        .split("fn `")
        .nth(1)
        .and_then(|rest| rest.split('`').next())
        .unwrap_or("-");
    format!("{} {} {}", d.code, path, func)
}

/// Parses baseline text: one key per line, `#` comments and blanks
/// ignored.
pub fn parse(text: &str) -> BTreeSet<String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

/// Renders a baseline file for the given error-severity diagnostics.
pub fn render(diags: &[Diagnostic]) -> String {
    let mut out = String::from(
        "# stacksim audit baseline — grandfathered SA-pass errors.\n\
         # One `CODE path function` key per line; regenerate with\n\
         # `cargo xtask audit --update-baseline`. New errors must be fixed\n\
         # or waived in code, not added here by hand.\n",
    );
    let keys: BTreeSet<String> = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(key)
        .collect();
    for k in keys {
        out.push_str(&k);
        out.push('\n');
    }
    out
}

/// The ratchet verdict for one audit run against a baseline.
pub struct Verdict {
    /// Error diagnostics not covered by the baseline (fail).
    pub new_errors: Vec<Diagnostic>,
    /// Baseline entries that no longer match any error (fail: shrink).
    pub stale: Vec<String>,
}

impl Verdict {
    pub fn is_ok(&self) -> bool {
        self.new_errors.is_empty() && self.stale.is_empty()
    }
}

/// Compares a run's diagnostics against the baseline.
pub fn compare(diags: &[Diagnostic], baseline: &BTreeSet<String>) -> Verdict {
    let errors: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    let present: BTreeSet<String> = errors.iter().map(|d| key(d)).collect();
    Verdict {
        new_errors: errors
            .iter()
            .filter(|d| !baseline.contains(&key(d)))
            .map(|d| (*d).clone())
            .collect(),
        stale: baseline.difference(&present).cloned().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(code: &'static str, span: &str, message: &str) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Error,
            span: span.to_string(),
            message: message.to_string(),
        }
    }

    #[test]
    fn keys_are_line_stable() {
        let a = diag("SA001", "crates/x/src/lib.rs:10", "digest in fn `f` is bad");
        let b = diag("SA001", "crates/x/src/lib.rs:99", "digest in fn `f` is bad");
        assert_eq!(key(&a), key(&b));
        assert_eq!(key(&a), "SA001 crates/x/src/lib.rs f");
    }

    #[test]
    fn ratchet_flags_new_and_stale() {
        let d = diag("SA006", "a.rs:1", "`.unwrap()` in fn `g`; fix");
        let empty = parse("# nothing\n");
        let v = compare(std::slice::from_ref(&d), &empty);
        assert_eq!(v.new_errors.len(), 1);
        assert!(v.stale.is_empty());

        let grandfathered = parse(&render(std::slice::from_ref(&d)));
        let v = compare(&[d], &grandfathered);
        assert!(v.is_ok());

        let v = compare(&[], &grandfathered);
        assert_eq!(v.stale.len(), 1);
    }
}
