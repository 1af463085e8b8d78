//! pdm-lint: run the protocol-invariant lints over the workspace.
//!
//! ```text
//! pdm-lint [--json] [--list-lints] [ROOT]
//! ```
//!
//! Exits 0 when the tree is clean, 1 when any finding survives
//! suppression, 2 on usage or I/O errors — the same contract as
//! `pdm-analyze`.

#![allow(clippy::unwrap_used)]

use std::path::PathBuf;
use std::process::ExitCode;

use pdm_lint::lint_workspace;
use pdm_lint::registry::Lint;
use pdm_obs::json;

fn usage() -> ExitCode {
    eprintln!("usage: pdm-lint [--json] [--list-lints] [ROOT]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut json = false;
    let mut list = false;
    let mut root: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--list-lints" => list = true,
            "--help" | "-h" => return usage(),
            other if !other.starts_with('-') && root.is_none() => {
                root = Some(PathBuf::from(other));
            }
            _ => return usage(),
        }
    }

    if list {
        if json {
            println!("[");
            for (i, lint) in Lint::ALL.iter().enumerate() {
                println!(
                    "  {{\"id\": \"{}\", \"family\": \"{}\", \"severity\": \"{}\", \"description\": \"{}\"}}{}",
                    lint.id(),
                    lint.family().name(),
                    lint.severity(),
                    json::escape(lint.description()),
                    if i + 1 < Lint::ALL.len() { "," } else { "" }
                );
            }
            println!("]");
        } else {
            for lint in Lint::ALL {
                println!(
                    "{:26} {:15} {:7}  {}",
                    lint.id(),
                    lint.family().name(),
                    lint.severity().to_string(),
                    lint.description()
                );
            }
        }
        return ExitCode::SUCCESS;
    }

    // Default root: the current directory if it looks like the
    // workspace, else the workspace this binary was built from.
    let root = root.unwrap_or_else(|| {
        let cwd = PathBuf::from(".");
        if cwd.join("crates").is_dir() {
            cwd
        } else {
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
        }
    });

    let report = match lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pdm-lint: cannot walk {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if json {
        println!("{}", report.to_json());
    } else {
        for f in &report.findings {
            println!(
                "{}: {} [{}] {}",
                f.lint.severity(),
                f.location(),
                f.lint.id(),
                f.message
            );
        }
        println!(
            "pdm-lint: {} file(s), {} finding(s), {} suppressed by allow markers",
            report.files,
            report.findings.len(),
            report.suppressed
        );
    }

    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
