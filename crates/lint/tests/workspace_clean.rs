//! The tree must lint clean: every true positive has been fixed or
//! carries a reasoned `lint:allow` marker. This is the same gate CI
//! runs via the `pdm-lint` binary.

use std::path::{Path, PathBuf};

use pdm_lint::lint_workspace;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root resolves")
}

#[test]
fn workspace_lints_clean() {
    let report = lint_workspace(&repo_root()).expect("workspace walk succeeds");
    assert!(
        report.files > 30,
        "walker found too few files: {}",
        report.files
    );
    if !report.is_clean() {
        let mut msg = String::new();
        for f in &report.findings {
            msg.push_str(&format!(
                "  {} [{}] {}\n",
                f.location(),
                f.lint.id(),
                f.message
            ));
        }
        panic!(
            "workspace has {} lint finding(s):\n{msg}",
            report.findings.len()
        );
    }
    assert!(
        report.suppressed > 0,
        "the annotated unchecked-index sites should register as suppressions"
    );
}

/// The findings gates are only as good as their exemptions are few: a new
/// one needs an old one retired. Counts, in `.rs` files under `crates/` and
/// `src/` outside `crates/lint/` (whose own sources and fixtures name both
/// to parse or demonstrate them), the lines that mention a `lint:allow`
/// marker plus the `#[expect(clippy::disallowed_..)]` attributes that
/// exempt a site from a `clippy.toml` ban. Each such `expect` must carry a
/// `reason`, as a marker must. Test code's file-level
/// `allow(clippy::disallowed_methods)` is not counted, as with
/// `unwrap_used`; anywhere else such an `allow` fails the test.
#[test]
fn lint_allow_budget() {
    const BUDGET: usize = 13;
    const EXPECT: &str = "#[expect(";
    fn count(dir: &Path, root: &Path, n: &mut usize) {
        let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
        for entry in entries {
            let path = entry.expect("directory entry").path();
            if path == root.join("crates/lint") {
                continue;
            }
            if path.is_dir() {
                count(&path, root, n);
            } else if path.extension().is_some_and(|x| x == "rs") {
                let text = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                *n += text.lines().filter(|l| l.contains("lint:allow")).count();
                let test_file = path
                    .strip_prefix(root)
                    .expect("walked under the root")
                    .components()
                    .any(|c| c.as_os_str() == "tests" || c.as_os_str() == "bin");
                for line in text
                    .lines()
                    .filter(|l| l.contains("allow(clippy::disallowed_"))
                {
                    assert!(
                        line.starts_with("#![cfg_attr(test, allow(")
                            || (test_file && line.starts_with("#![allow(")),
                        "{}: `{line}` — outside test code, exempt a site with a \
                         reasoned `#[expect(..)]`",
                        path.display()
                    );
                }
                for (at, _) in text.match_indices(EXPECT) {
                    let rest = &text[at..];
                    let attr = &rest[..rest.find(")]").map_or(rest.len(), |end| end + 2)];
                    if attr.contains("clippy::disallowed_") {
                        assert!(
                            attr.contains("reason = \""),
                            "{}: `{attr}` carries no reason — justify the exemption",
                            path.display()
                        );
                        *n += 1;
                    }
                }
            }
        }
    }
    let root = repo_root();
    let mut n = 0;
    for dir in ["crates", "src"] {
        count(&root.join(dir), &root, &mut n);
    }
    assert!(n > 0, "the walk found no exemption at all");
    assert!(
        n <= BUDGET,
        "{n} lint:allow markers and disallowed-path expects, budget {BUDGET}"
    );
}

/// The dependency policy CI's `deps` job enforces: the build is
/// self-contained — no package in `Cargo.lock` comes from a registry or a
/// git `source` — and every workspace crate carries the shared license.
#[test]
fn dependency_policy() {
    let root = repo_root();
    let read = |path: PathBuf| {
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };

    let lock = read(root.join("Cargo.lock"));
    let packages: Vec<&str> = lock.split("[[package]]").skip(1).collect();
    assert!(packages.len() >= 10, "Cargo.lock lists too few packages");
    for package in packages {
        let field = |key: &str| package.lines().find(|l| l.starts_with(key));
        assert!(
            field("source = ").is_none(),
            "external dependency in Cargo.lock: {}",
            field("name = ").unwrap_or(package)
        );
    }

    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ lists") {
        manifests.push(entry.expect("crates/ entry").path().join("Cargo.toml"));
    }
    assert!(manifests.len() >= 10, "walker found too few crates");
    for manifest in manifests {
        assert!(
            read(manifest.clone())
                .lines()
                .any(|l| l.trim() == "license.workspace = true"),
            "{} does not carry the workspace license",
            manifest.display()
        );
    }
}
