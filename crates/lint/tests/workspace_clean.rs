//! The tree must lint clean: every true positive has been fixed or
//! carries a reasoned `lint:allow` marker. This is the same gate CI
//! runs via the `pdm-lint` binary.

use std::path::PathBuf;

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
        "the annotated advisory wall-clock sites should register as suppressions"
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
