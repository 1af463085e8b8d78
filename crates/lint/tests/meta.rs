//! Meta-tests over the lint registry itself: every lint must reject its
//! mutation fixture and accept the corrected twin, so the registry
//! cannot grow an undemonstrated (or vacuous) lint.

use pdm_lint::fixtures::{pair, FIXTURE_PATH};
use pdm_lint::lint_source;
use pdm_lint::registry::{Family, Lint};
use pdm_lint::schema::Registries;

#[test]
fn every_lint_rejects_its_fixture_and_accepts_the_twin() {
    let reg = Registries::fixture();
    for lint in Lint::ALL {
        let (bad, good) = pair(*lint);
        let rbad = lint_source(FIXTURE_PATH, bad, &reg);
        assert!(
            rbad.flags(*lint),
            "lint {} did not fire on its bad fixture; findings: {:?}",
            lint.id(),
            rbad.findings
        );
        let rgood = lint_source(FIXTURE_PATH, good, &reg);
        assert!(
            !rgood.flags(*lint),
            "lint {} fired on its good twin; findings: {:?}",
            lint.id(),
            rgood.findings
        );
    }
}

/// `pdm-core`'s one exchange routine takes the server call as a closure.
/// A guard live across a call to it is still a lock held across the
/// network boundary — the closure does not hide the crossing.
#[test]
fn lock_across_the_closure_taking_exchange_routine_is_flagged() {
    let reg = Registries::fixture();
    let bad = "impl S {\n    fn relay(&mut self, sql: &str) {\n        let g = self.state.lock();\n                       exchange(&mut self.channel, &self.retry, None, sql.len(), |deadline| {\n                           self.server.query_cached_deadline_obs(sql, deadline, &g.obs)\n        });\n    }\n}\n";
    let good = "impl S {\n    fn relay(&mut self, sql: &str) {\n        let obs = {\n                            let g = self.state.lock();\n            g.obs.clone()\n        };\n                        exchange(&mut self.channel, &self.retry, None, sql.len(), |deadline| {\n                            self.server.query_cached_deadline_obs(sql, deadline, &obs)\n        });\n    }\n}\n";
    let rbad = lint_source(FIXTURE_PATH, bad, &reg);
    assert!(
        rbad.flags(Lint::LockAcrossBoundary),
        "guard across exchange(.., |..| ..) not flagged: {:?}",
        rbad.findings
    );
    let rgood = lint_source(FIXTURE_PATH, good, &reg);
    assert!(
        !rgood.flags(Lint::LockAcrossBoundary),
        "scoped guard flagged: {:?}",
        rgood.findings
    );
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
fn five_families_each_carry_multiple_lints() {
    for fam in [
        Family::Determinism,
        Family::LockDiscipline,
        Family::Replay,
        Family::Observability,
        Family::PanicSurface,
    ] {
        let n = Lint::ALL.iter().filter(|l| l.family() == fam).count();
        assert!(n >= 2, "family {} has only {n} lints", fam.name());
    }
    assert_eq!(
        Lint::ALL.len(),
        17,
        "lint count drifted; update fixtures and docs together"
    );
}

#[test]
fn allow_marker_with_reason_suppresses_and_counts() {
    let reg = Registries::fixture();
    let (_, good) = pair(Lint::WallClock);
    let r = lint_source(FIXTURE_PATH, good, &reg);
    assert_eq!(
        r.suppressed, 1,
        "the annotated wall-clock site must count as suppressed"
    );
    assert!(
        !r.flags(Lint::AllowHygiene),
        "a used, reasoned marker is hygienic"
    );
}

#[test]
fn markers_cannot_suppress_a_different_lint() {
    let reg = Registries::fixture();
    // A wall-clock marker over an ambient-randomness site: the finding
    // survives and the marker is flagged as suppressing nothing.
    let src = "fn f() -> u64 {\n    // lint:allow(wall-clock): wrong id on purpose\n    let mut rng = thread_rng();\n    rng.gen()\n}\n";
    let r = lint_source(FIXTURE_PATH, src, &reg);
    assert!(r.flags(Lint::AmbientRandomness));
    assert!(r.flags(Lint::AllowHygiene));
}

#[test]
fn file_scoped_marker_covers_distant_sites_of_its_lint_only() {
    let reg = Registries::fixture();
    // Two unchecked-index sites far below the marker: both suppressed.
    let src = "// lint:allow-file(unchecked-index): framing code; every read is length-guarded\n\
               fn a(buf: &[u8], i: usize) -> u8 { buf[i] }\n\n\n\n\n\n\n\n\n\
               fn b(buf: &[u8], i: usize) -> u8 { buf[i + 1] }\n";
    let r = lint_source("crates/wal/src/fixture.rs", src, &reg);
    assert!(
        !r.flags(Lint::UncheckedIndex),
        "file marker must cover the whole file: {:?}",
        r.findings
    );
    assert_eq!(r.suppressed, 2);
    assert!(!r.flags(Lint::AllowHygiene));
    // The file marker does not leak onto other lints.
    let src2 = "// lint:allow-file(unchecked-index): framing code\n\
                fn f() -> u64 { thread_rng().gen() }\n";
    let r2 = lint_source(FIXTURE_PATH, src2, &reg);
    assert!(r2.flags(Lint::AmbientRandomness));
    assert!(
        r2.flags(Lint::AllowHygiene),
        "an unused file marker is flagged"
    );
}

#[test]
fn unknown_lint_id_in_marker_is_flagged() {
    let reg = Registries::fixture();
    let src = "// lint:allow(made-up-lint): because\nfn f() {}\n";
    let r = lint_source(FIXTURE_PATH, src, &reg);
    assert!(r.flags(Lint::AllowHygiene));
}

#[test]
fn test_code_is_out_of_scope() {
    let reg = Registries::fixture();
    let src = "#[cfg(test)]\nmod tests {\n    fn clock() -> Instant { Instant::now() }\n}\n";
    let r = lint_source(FIXTURE_PATH, src, &reg);
    assert!(r.is_clean(), "findings in cfg(test) code: {:?}", r.findings);
}
