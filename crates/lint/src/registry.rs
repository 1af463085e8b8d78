//! The lint registry and finding report, mirroring the diagnostics model
//! of `pdm_analyze::diag` (same severity scale, same JSON object shape)
//! so the combined `pdm-audit` output is uniform across the SQL-level
//! and source-level analyzers.

use pdm_analyze::diag::{json_escape, Severity};

/// The five lint families. Every lint belongs to exactly one; the
/// `allow-hygiene` policy lint rides in `Policy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Determinism,
    LockDiscipline,
    Replay,
    Observability,
    PanicSurface,
    Policy,
}

impl Family {
    pub fn name(&self) -> &'static str {
        match self {
            Family::Determinism => "determinism",
            Family::LockDiscipline => "lock-discipline",
            Family::Replay => "replay",
            Family::Observability => "observability",
            Family::PanicSurface => "panic-surface",
            Family::Policy => "policy",
        }
    }
}

/// Every lint the analyzer can raise. Adding a variant here without a
/// fixture pair makes the meta-test fail — see `tests/meta.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lint {
    /// `Instant::now()` / `SystemTime::now()` on a linted path without a
    /// `lint:allow(wall-clock)` justification. The virtual clock is the
    /// only measured-time authority (DESIGN.md §2).
    WallClock,
    /// Ambient randomness (`thread_rng`, `RandomState`, entropy seeding):
    /// all randomness must flow from a seeded `pdm_prng::Prng`.
    AmbientRandomness,
    /// Iterating a `HashMap`/`HashSet` whose order can reach serialized
    /// output, WAL content, or metrics without an order-insensitive sink.
    UnorderedIter,
    /// A cycle in the static lock-acquisition order graph.
    LockOrderCycle,
    /// A mutex guard held across a network/durability boundary call
    /// (`exchange`, ship, `sync`/fsync) — latency under a lock.
    LockAcrossBoundary,
    /// Re-acquiring a lock while a guard for the same lock is live in
    /// the same function — self-deadlock with `std::sync::Mutex`.
    NestedLockReacquire,
    /// A bare `Condvar::wait` on a condition variable: waits must be
    /// sliced with `wait_timeout` so deadlines and shutdown can
    /// interrupt them (the overload layer's no-unbounded-block rule).
    UnboundedWait,
    /// A `match` over `WalRecord` with a wildcard/binding catch-all arm:
    /// new record types would silently skip replay.
    ReplayCatchall,
    /// A `match` over `WalRecord` that names only a subset of variants
    /// (reachable today only via nested patterns; kept as a backstop).
    ReplayMissingVariant,
    /// A function that applies shipped records but never compares its
    /// `epoch` argument (directly or via a fenced callee).
    UnfencedApply,
    /// A metric registered under a family name absent from the closed
    /// registry `pdm_obs::metrics::families::ALL`.
    MetricFamilyUnknown,
    /// A `SpanKind` constructed outside the closed `kinds` registry.
    SpanKindUnregistered,
    /// A timeout-shaped `SessionError` built without `FlightDump`
    /// context.
    TimeoutWithoutFlight,
    /// An enabled `Recorder::new()` outside an action owner's
    /// `enable_profiling` (and tests): a recorder nothing hands down,
    /// assembles or reads (DESIGN.md §11).
    StrayRecorder,
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
        Lint::WallClock,
        Lint::AmbientRandomness,
        Lint::UnorderedIter,
        Lint::LockOrderCycle,
        Lint::LockAcrossBoundary,
        Lint::NestedLockReacquire,
        Lint::UnboundedWait,
        Lint::ReplayCatchall,
        Lint::ReplayMissingVariant,
        Lint::UnfencedApply,
        Lint::MetricFamilyUnknown,
        Lint::SpanKindUnregistered,
        Lint::TimeoutWithoutFlight,
        Lint::StrayRecorder,
        Lint::UncheckedIndex,
        Lint::UncheckedProtocolArith,
        Lint::AllowHygiene,
    ];

    pub fn id(&self) -> &'static str {
        match self {
            Lint::WallClock => "wall-clock",
            Lint::AmbientRandomness => "ambient-randomness",
            Lint::UnorderedIter => "unordered-iter",
            Lint::LockOrderCycle => "lock-order-cycle",
            Lint::LockAcrossBoundary => "lock-across-boundary",
            Lint::NestedLockReacquire => "nested-lock-reacquire",
            Lint::UnboundedWait => "unbounded-wait",
            Lint::ReplayCatchall => "replay-catchall",
            Lint::ReplayMissingVariant => "replay-missing-variant",
            Lint::UnfencedApply => "unfenced-apply",
            Lint::MetricFamilyUnknown => "metric-family-unknown",
            Lint::SpanKindUnregistered => "span-kind-unregistered",
            Lint::TimeoutWithoutFlight => "timeout-without-flight",
            Lint::StrayRecorder => "stray-recorder",
            Lint::UncheckedIndex => "unchecked-index",
            Lint::UncheckedProtocolArith => "unchecked-protocol-arith",
            Lint::AllowHygiene => "allow-hygiene",
        }
    }

    pub fn family(&self) -> Family {
        match self {
            Lint::WallClock | Lint::AmbientRandomness | Lint::UnorderedIter => Family::Determinism,
            Lint::LockOrderCycle
            | Lint::LockAcrossBoundary
            | Lint::NestedLockReacquire
            | Lint::UnboundedWait => Family::LockDiscipline,
            Lint::ReplayCatchall | Lint::ReplayMissingVariant | Lint::UnfencedApply => {
                Family::Replay
            }
            Lint::MetricFamilyUnknown
            | Lint::SpanKindUnregistered
            | Lint::TimeoutWithoutFlight
            | Lint::StrayRecorder => Family::Observability,
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
            Lint::WallClock => {
                "wall-clock reads (Instant/SystemTime::now) outside annotated advisory sites"
            }
            Lint::AmbientRandomness => {
                "ambient randomness; all randomness must flow from a seeded pdm_prng::Prng"
            }
            Lint::UnorderedIter => {
                "HashMap/HashSet iteration whose order can reach serialized output"
            }
            Lint::LockOrderCycle => "cycle in the static lock-acquisition order graph",
            Lint::LockAcrossBoundary => {
                "mutex guard held across a network or durability boundary call"
            }
            Lint::NestedLockReacquire => {
                "re-acquiring a std::sync::Mutex while its guard is live (self-deadlock)"
            }
            Lint::UnboundedWait => {
                "bare Condvar::wait; waits must be wait_timeout slices so deadlines can interrupt"
            }
            Lint::ReplayCatchall => "wildcard arm in a WalRecord replay match",
            Lint::ReplayMissingVariant => "WalRecord replay match does not name every variant",
            Lint::UnfencedApply => "record-applying function never compares its epoch argument",
            Lint::MetricFamilyUnknown => {
                "metric name not in the closed pdm_obs::metrics::families registry"
            }
            Lint::SpanKindUnregistered => "SpanKind constructed outside the closed kinds registry",
            Lint::TimeoutWithoutFlight => {
                "timeout-shaped SessionError built without FlightDump context"
            }
            Lint::StrayRecorder => {
                "enabled Recorder::new() outside an action owner's enable_profiling; recorders are handed down"
            }
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
                json_escape(&f.message),
                json_escape(&f.location()),
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
            Family::LockDiscipline,
            Family::Replay,
            Family::Observability,
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
        r.findings
            .push(Finding::new(Lint::WallClock, "a.rs", 3, "msg \"quoted\""));
        let json = r.to_json();
        assert!(json.contains("\"check\": \"wall-clock\""));
        assert!(json.contains("\"severity\": \"error\""));
        assert!(json.contains("\"location\": \"a.rs:3\""));
        assert!(json.contains("msg \\\"quoted\\\""));
    }
}
