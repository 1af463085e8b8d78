//! The lint registry and finding report, mirroring the diagnostics model
//! of `pdm_analyze::diag` (same severity scale, same JSON object shape)
//! so the output of the SQL-level and source-level analyzers reads the
//! same.

use pdm_analyze::diag::Severity;
use pdm_obs::json;

/// The three lint families. Every lint belongs to exactly one; the
/// `allow-hygiene` policy lint rides in `Policy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Determinism,
    Replay,
    PanicSurface,
    Policy,
}

impl Family {
    pub fn name(&self) -> &'static str {
        match self {
            Family::Determinism => "determinism",
            Family::Replay => "replay",
            Family::PanicSurface => "panic-surface",
            Family::Policy => "policy",
        }
    }
}

/// Every lint the analyzer can raise. Adding a variant here without a
/// fixture pair makes the meta-test fail — see `tests/meta.rs`. The wall
/// clock, ambient entropy, bare condvar waits and stray recorders are
/// clippy bans (`clippy.toml`), and lock order is checked at run time by
/// `pdm_obs::lock`, not lints here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lint {
    /// Iterating a `HashMap`/`HashSet` whose order can reach serialized
    /// output, WAL content, or metrics without an order-insensitive sink.
    UnorderedIter,
    /// An arm of a `match` over `WalRecord` that names no `WalRecord::`
    /// variant (`_`, a binding, or a nested `Some(_)`): new record types
    /// would silently skip replay.
    ReplayCatchall,
    /// A function that applies shipped records but never compares its
    /// `epoch` argument (directly or via a fenced callee).
    UnfencedApply,
    /// Indexing/slicing with a non-literal index in protocol crates.
    UncheckedIndex,
    /// Bare `+`/`-` arithmetic on sequence/epoch/version/token counters.
    UncheckedProtocolArith,
    /// An allow marker that is malformed, reasonless, or suppresses
    /// nothing.
    AllowHygiene,
}

impl Lint {
    pub const ALL: &'static [Lint] = &[
        Lint::UnorderedIter,
        Lint::ReplayCatchall,
        Lint::UnfencedApply,
        Lint::UncheckedIndex,
        Lint::UncheckedProtocolArith,
        Lint::AllowHygiene,
    ];

    pub fn id(&self) -> &'static str {
        match self {
            Lint::UnorderedIter => "unordered-iter",
            Lint::ReplayCatchall => "replay-catchall",
            Lint::UnfencedApply => "unfenced-apply",
            Lint::UncheckedIndex => "unchecked-index",
            Lint::UncheckedProtocolArith => "unchecked-protocol-arith",
            Lint::AllowHygiene => "allow-hygiene",
        }
    }

    pub fn family(&self) -> Family {
        match self {
            Lint::UnorderedIter => Family::Determinism,
            Lint::ReplayCatchall | Lint::UnfencedApply => Family::Replay,
            Lint::UncheckedIndex | Lint::UncheckedProtocolArith => Family::PanicSurface,
            Lint::AllowHygiene => Family::Policy,
        }
    }

    pub fn severity(&self) -> Severity {
        match self {
            Lint::UncheckedIndex => Severity::Warning,
            _ => Severity::Error,
        }
    }

    pub fn description(&self) -> &'static str {
        match self {
            Lint::UnorderedIter => {
                "HashMap/HashSet iteration whose order can reach serialized output"
            }
            Lint::ReplayCatchall => "WalRecord replay match arm that names no WalRecord variant",
            Lint::UnfencedApply => "record-applying function never compares its epoch argument",
            Lint::UncheckedIndex => "non-literal indexing/slicing in protocol crates",
            Lint::UncheckedProtocolArith => {
                "bare +/- arithmetic on seq/epoch/version/token counters"
            }
            Lint::AllowHygiene => "allow marker is malformed, reasonless, or suppresses nothing",
        }
    }

    pub fn from_id(id: &str) -> Option<Lint> {
        Lint::ALL.iter().copied().find(|l| l.id() == id)
    }
}

/// One finding at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    pub lint: Lint,
    pub message: String,
    /// Repo-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
}

impl Finding {
    pub fn new(lint: Lint, file: &str, line: u32, message: impl Into<String>) -> Finding {
        Finding {
            lint,
            message: message.into(),
            file: file.to_string(),
            line,
        }
    }

    pub fn location(&self) -> String {
        format!("{}:{}", self.file, self.line)
    }
}

/// The report produced by a lint run, after allow-marker suppression.
#[derive(Debug, Default)]
pub struct LintReport {
    pub findings: Vec<Finding>,
    /// Number of raw findings silenced by valid allow markers.
    pub suppressed: usize,
    /// Number of files analyzed.
    pub files: usize,
}

impl LintReport {
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    pub fn flags(&self, lint: Lint) -> bool {
        self.findings.iter().any(|f| f.lint == lint)
    }

    pub fn count(&self, lint: Lint) -> usize {
        self.findings.iter().filter(|f| f.lint == lint).count()
    }

    pub fn has_errors(&self) -> bool {
        self.findings
            .iter()
            .any(|f| f.lint.severity() == Severity::Error)
    }

    /// JSON rendering; each finding object matches pdm-analyze's shape
    /// (`check`/`severity`/`message`/`location`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"files\": {},\n", self.files));
        out.push_str(&format!("  \"suppressed\": {},\n", self.suppressed));
        out.push_str(&format!("  \"total\": {},\n", self.findings.len()));
        out.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"check\": \"{}\", \"severity\": \"{}\", \"message\": \"{}\", \"location\": \"{}\"}}{}\n",
                f.lint.id(),
                f.lint.severity(),
                json::escape(&f.message),
                json::escape(&f.location()),
                if i + 1 < self.findings.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_ids_are_unique_and_kebab_case() {
        let mut seen = std::collections::BTreeSet::new();
        for lint in Lint::ALL {
            let id = lint.id();
            assert!(seen.insert(id), "duplicate lint id {id}");
            assert!(
                id.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "id {id} is not kebab-case"
            );
            assert!(!lint.description().is_empty());
            assert_eq!(Lint::from_id(id), Some(*lint));
        }
    }

    #[test]
    fn every_family_has_at_least_one_lint() {
        for fam in [
            Family::Determinism,
            Family::Replay,
            Family::PanicSurface,
            Family::Policy,
        ] {
            assert!(
                Lint::ALL.iter().any(|l| l.family() == fam),
                "family {} has no lints",
                fam.name()
            );
        }
    }

    #[test]
    fn report_json_shape_matches_analyze() {
        let mut r = LintReport::default();
        r.findings.push(Finding::new(
            Lint::UnorderedIter,
            "a.rs",
            3,
            "msg \"quoted\"",
        ));
        let json = r.to_json();
        assert!(json.contains("\"check\": \"unordered-iter\""));
        assert!(json.contains("\"severity\": \"error\""));
        assert!(json.contains("\"location\": \"a.rs:3\""));
        assert!(json.contains("msg \\\"quoted\\\""));
    }
}
