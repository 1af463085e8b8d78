#![cfg_attr(test, allow(clippy::unwrap_used))]
//! pdm-lint: workspace-wide protocol-invariant static analyzer.
//!
//! Where `pdm-analyze` audits the *SQL corpus* against the paper's
//! tuning rules, this crate audits the *Rust source* against the
//! simulator's own protocol invariants — the properties every other
//! test suite assumes but nothing enforced statically:
//!
//! - **determinism**: no hash iteration order reaching serialized output;
//! - **replay**: no `WalRecord` match arm is a catch-all (so rustc's
//!   exhaustiveness check covers every replay site); record-applying
//!   functions fence their epoch;
//! - **panic surface**: no unchecked indexing or bare counter
//!   arithmetic in protocol crates.
//!
//! The analyzer is token-level (a hand-rolled lexer plus structural
//! recovery — no external parser), which keeps it dependency-free and
//! fast, at the price of being a conservative approximation. Intended
//! deviations are annotated in-source with
//! `// lint:allow(<lint-id>): <reason>` markers (or, for framing-style
//! files where per-site markers would dominate,
//! `// lint:allow-file(<lint-id>): <reason>`), which the tool itself
//! audits: a marker with an unknown id, an empty reason, or nothing to
//! suppress is a finding.
//!
//! What the compiler can prove is left to it: span kinds and metric
//! families are values only `pdm-obs` can make, a timeout-shaped
//! `SessionError` does not compile without its `FlightDump`, and a
//! `WalRecord` match without a catch-all is exhaustive or does not compile.
//! Lock order is checked where a lock is taken: every lock is a
//! `pdm_obs::lock` type with a named, levelled class, and debug builds
//! assert the order at each acquisition and at each I/O crossing.
//! The wall clock, ambient entropy, bare condvar waits and stray recorders
//! are clippy bans by resolved path (the root `clippy.toml`); each real
//! exception carries an `#[expect(clippy::disallowed_methods, reason = ..)]`,
//! which `clippy -D warnings` rejects once it suppresses nothing.

pub mod fixtures;
pub mod lex;
pub mod lints;
pub mod registry;
pub mod source;

use std::io;
use std::path::Path;

use registry::{Finding, Lint, LintReport};
use source::LintFile;

/// How many lines below its comment line an allow marker covers. Two
/// lines of comment above the annotated expression is the common shape.
const ALLOW_WINDOW: u32 = 3;

/// Lint a set of already-loaded sources.
pub fn lint_sources(inputs: &[(String, String)]) -> LintReport {
    let files: Vec<LintFile> = inputs.iter().map(|(p, s)| LintFile::parse(p, s)).collect();
    run_passes(&files)
}

/// Lint a single source text — the fixture entry point.
pub fn lint_source(path: &str, text: &str) -> LintReport {
    lint_sources(&[(path.to_string(), text.to_string())])
}

/// Lint the workspace rooted at `root`: collect `crates/*/src`, run every
/// pass.
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    Ok(lint_sources(&source::collect_workspace(root)?))
}

fn run_passes(files: &[LintFile]) -> LintReport {
    let mut raw: Vec<Finding> = Vec::new();
    lints::determinism::run(files, &mut raw);
    lints::replay::run(files, &mut raw);
    lints::panics::run(files, &mut raw);
    apply_allows(files, raw)
}

/// Suppress raw findings covered by valid allow markers and emit the
/// hygiene findings for the markers themselves.
fn apply_allows(files: &[LintFile], raw: Vec<Finding>) -> LintReport {
    let mut report = LintReport {
        files: files.len(),
        ..LintReport::default()
    };
    // marker index parallel to files[i].allows: usage count.
    let mut used: Vec<Vec<usize>> = files.iter().map(|f| vec![0; f.allows.len()]).collect();

    'findings: for finding in raw {
        for (fi, f) in files.iter().enumerate() {
            if f.path != finding.file {
                continue;
            }
            for (mi, m) in f.allows.iter().enumerate() {
                let covers = m.file_scope
                    || (finding.line >= m.line && finding.line <= m.line + ALLOW_WINDOW);
                if covers && m.id == finding.lint.id() && !m.reason.trim().is_empty() {
                    used[fi][mi] += 1;
                    report.suppressed += 1;
                    continue 'findings;
                }
            }
        }
        report.findings.push(finding);
    }

    // Marker hygiene: unknown id, empty reason, or suppressed nothing.
    for (fi, f) in files.iter().enumerate() {
        let test_lines = f.test_lines();
        for (mi, m) in f.allows.iter().enumerate() {
            if test_lines.contains(&m.line) || test_lines.contains(&(m.line + 1)) {
                continue;
            }
            let message = if Lint::from_id(&m.id).is_none() {
                Some(format!("allow marker names unknown lint `{}`", m.id))
            } else if m.reason.trim().is_empty() {
                Some(format!(
                    "allow marker for `{}` has no reason — justify the deviation",
                    m.id
                ))
            } else if used[fi][mi] == 0 {
                Some(format!(
                    "allow marker for `{}` suppresses nothing — remove it",
                    m.id
                ))
            } else {
                None
            };
            if let Some(message) = message {
                report
                    .findings
                    .push(Finding::new(Lint::AllowHygiene, &f.path, m.line, message));
            }
        }
    }

    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.lint.id()).cmp(&(&b.file, b.line, b.lint.id())));
    report
}
