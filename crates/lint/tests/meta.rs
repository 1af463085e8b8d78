//! Meta-tests over the lint registry itself: every lint must reject its
//! mutation fixture and accept the corrected twin, so the registry
//! cannot grow an undemonstrated (or vacuous) lint.

use pdm_lint::fixtures::{pair, FIXTURE_PATH};
use pdm_lint::lint_source;
use pdm_lint::registry::{Family, Lint};

#[test]
fn every_lint_rejects_its_fixture_and_accepts_the_twin() {
    for lint in Lint::ALL {
        let (bad, good) = pair(*lint);
        let rbad = lint_source(FIXTURE_PATH, bad);
        assert!(
            rbad.flags(*lint),
            "lint {} did not fire on its bad fixture; findings: {:?}",
            lint.id(),
            rbad.findings
        );
        let rgood = lint_source(FIXTURE_PATH, good);
        assert!(
            !rgood.flags(*lint),
            "lint {} fired on its good twin; findings: {:?}",
            lint.id(),
            rgood.findings
        );
    }
}

#[test]
fn fixtures_are_minimal_enough_to_differ() {
    for lint in Lint::ALL {
        let (bad, good) = pair(*lint);
        assert_ne!(bad, good, "fixture pair for {} is identical", lint.id());
        assert!(!bad.trim().is_empty() && !good.trim().is_empty());
    }
}

#[test]
fn every_family_carries_a_lint_and_the_count_is_pinned() {
    for fam in [
        Family::Determinism,
        Family::Replay,
        Family::PanicSurface,
        Family::Policy,
    ] {
        let n = Lint::ALL.iter().filter(|l| l.family() == fam).count();
        assert!(n >= 1, "family {} has no lint", fam.name());
    }
    assert_eq!(
        Lint::ALL.len(),
        6,
        "lint count drifted; update fixtures and docs together"
    );
}

/// A catch-all nested in the pattern is still a catch-all: `Some(_)` stands
/// in for every variant the match does not name, which rustc's
/// exhaustiveness check accepts. The full four-variant match (the
/// `replay-catchall` twin) stays accepted.
#[test]
fn a_nested_catch_all_in_a_wal_record_match_is_flagged() {
    let bad = "fn replay(&mut self, opt: Option<&WalRecord>) -> u8 {\n    match opt {\n        Some(WalRecord::DmlCommit { .. }) => a,\n        Some(_) => b,\n        None => c,\n    }\n}\n";
    let r = lint_source(FIXTURE_PATH, bad);
    assert!(
        r.findings
            .iter()
            .any(|f| f.lint == Lint::ReplayCatchall && f.message.contains("`Some(_)`")),
        "nested Some(_) not flagged: {:?}",
        r.findings
    );
    let (_, good) = pair(Lint::ReplayCatchall);
    assert!(lint_source(FIXTURE_PATH, good).is_clean());
}

#[test]
fn allow_marker_with_reason_suppresses_and_counts() {
    let src = "fn frame_seq(frame: &[u8], at: usize) -> u8 {\n    // lint:allow(unchecked-index): the caller checked at < frame.len()\n    frame[at]\n}\n";
    let r = lint_source(FIXTURE_PATH, src);
    assert_eq!(
        r.suppressed, 1,
        "the annotated unchecked-index site must count as suppressed"
    );
    assert!(
        r.is_clean(),
        "a used, reasoned marker is hygienic: {:?}",
        r.findings
    );
}

#[test]
fn markers_cannot_suppress_a_different_lint() {
    // An unordered-iter marker over an unchecked-index site: the finding
    // survives and the marker is flagged as suppressing nothing.
    let src = "fn frame_seq(frame: &[u8], at: usize) -> u8 {\n    // lint:allow(unordered-iter): wrong id on purpose\n    frame[at]\n}\n";
    let r = lint_source(FIXTURE_PATH, src);
    assert!(r.flags(Lint::UncheckedIndex));
    assert!(r.flags(Lint::AllowHygiene));
}

#[test]
fn file_scoped_marker_covers_distant_sites_of_its_lint_only() {
    // Two unchecked-index sites far below the marker: both suppressed.
    let src = "// lint:allow-file(unchecked-index): framing code; every read is length-guarded\n\
               fn a(buf: &[u8], i: usize) -> u8 { buf[i] }\n\n\n\n\n\n\n\n\n\
               fn b(buf: &[u8], i: usize) -> u8 { buf[i + 1] }\n";
    let r = lint_source("crates/wal/src/fixture.rs", src);
    assert!(
        !r.flags(Lint::UncheckedIndex),
        "file marker must cover the whole file: {:?}",
        r.findings
    );
    assert_eq!(r.suppressed, 2);
    assert!(!r.flags(Lint::AllowHygiene));
    // The file marker does not leak onto other lints.
    let src2 = "// lint:allow-file(unchecked-index): framing code\n\
                fn advance(&mut self) { self.next_seq = self.next_seq + 1; }\n";
    let r2 = lint_source(FIXTURE_PATH, src2);
    assert!(r2.flags(Lint::UncheckedProtocolArith));
    assert!(
        r2.flags(Lint::AllowHygiene),
        "an unused file marker is flagged"
    );
}

#[test]
fn unknown_lint_id_in_marker_is_flagged() {
    let src = "// lint:allow(made-up-lint): because\nfn f() {}\n";
    let r = lint_source(FIXTURE_PATH, src);
    assert!(r.flags(Lint::AllowHygiene));
}

#[test]
fn test_code_is_out_of_scope() {
    let site = "fn at(v: &[u8], i: usize) -> u8 { v[i] }\n";
    assert!(lint_source(FIXTURE_PATH, site).flags(Lint::UncheckedIndex));
    let src = format!("#[cfg(test)]\nmod tests {{\n    {site}}}\n");
    let r = lint_source(FIXTURE_PATH, &src);
    assert!(r.is_clean(), "findings in cfg(test) code: {:?}", r.findings);
}
