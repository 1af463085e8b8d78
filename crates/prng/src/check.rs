//! A minimal property-testing harness: run a closure over many seeded
//! generators and report the failing case seed so a failure reproduces with
//! a one-line unit test. Replaces the proptest macros the offline build
//! cannot fetch; properties stay explicit generator loops. A property over
//! a generated history of steps ([`shrinking`]) is reported with the
//! history shrunk to the steps its failure needs.

use crate::{splitmix64, Prng};

/// Run `property` for `cases` deterministic cases derived from `seed`.
///
/// Each case gets a fresh [`Prng`] seeded from `splitmix64(seed + case)`,
/// so any failure is reproducible in isolation:
///
/// ```
/// use pdm_prng::check::cases;
/// cases("sum_is_commutative", 64, 0xC0FFEE, |rng| {
///     let (a, b) = (rng.i64_inclusive(-100, 100), rng.i64_inclusive(-100, 100));
///     assert_eq!(a + b, b + a);
/// });
/// ```
pub fn cases(name: &str, cases: u64, seed: u64, mut property: impl FnMut(&mut Prng)) {
    for case in 0..cases {
        let case_seed = splitmix64(seed.wrapping_add(case));
        let mut rng = Prng::seed_from_u64(case_seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            property(&mut rng);
        }));
        if let Err(payload) = result {
            eprintln!(
                "property '{name}' failed on case {case}/{cases} \
                 (reproduce with case seed {case_seed:#x})"
            );
            std::panic::resume_unwind(payload);
        }
    }
}

/// Default case count for moderately expensive properties.
pub const DEFAULT_CASES: u64 = 64;

/// Most property runs one shrink may spend.
const SHRINK_BUDGET: usize = 4_096;

/// Run `property` over `cases` generated histories: each case draws a list
/// of steps with `generate` from a fresh generator seeded as [`cases`]
/// seeds it. A failing history is shrunk before it is reported — runs of
/// steps are dropped, halving the run length down to single steps, while
/// the property still fails — and the panic names the case seed, the
/// shrunk steps and their failure. The property returns its failure rather
/// than panicking, so shrinking runs it quietly.
///
/// ```
/// use pdm_prng::check::shrinking;
/// shrinking(
///     "sums_stay_small",
///     32,
///     7,
///     |rng| (0..rng.index(20)).map(|_| rng.index(10)).collect::<Vec<_>>(),
///     |steps| match steps.iter().sum::<usize>() {
///         sum if sum < 1_000 => Ok(()),
///         sum => Err(format!("sum {sum}")),
///     },
/// );
/// ```
pub fn shrinking<T: Clone + std::fmt::Debug>(
    name: &str,
    cases: u64,
    seed: u64,
    mut generate: impl FnMut(&mut Prng) -> Vec<T>,
    mut property: impl FnMut(&[T]) -> Result<(), String>,
) {
    for case in 0..cases {
        let case_seed = splitmix64(seed.wrapping_add(case));
        let steps = generate(&mut Prng::seed_from_u64(case_seed));
        if let Err(failure) = property(&steps) {
            let (steps, failure) = shrink(steps, failure, &mut property);
            panic!(
                "property '{name}' failed on case {case}/{cases} (case seed {case_seed:#x}); \
                 shrunk to {} steps: {steps:?}\n{failure}",
                steps.len()
            );
        }
    }
}

/// Shrink a failing history: drop every run of `chunk` steps whose removal
/// keeps the property failing, then halve `chunk`, down to single steps.
/// Returns the smallest failing history found and its failure.
fn shrink<T: Clone>(
    mut steps: Vec<T>,
    mut failure: String,
    property: &mut impl FnMut(&[T]) -> Result<(), String>,
) -> (Vec<T>, String) {
    let mut runs = 0;
    let mut chunk = steps.len().div_ceil(2);
    while chunk > 0 && runs < SHRINK_BUDGET {
        let mut at = 0;
        while at < steps.len() && runs < SHRINK_BUDGET {
            let end = (at + chunk).min(steps.len());
            let candidate: Vec<T> = (steps.iter().enumerate())
                .filter(|&(i, _)| i < at || i >= end)
                .map(|(_, step)| step.clone())
                .collect();
            runs += 1;
            match property(&candidate) {
                Err(smaller) => {
                    steps = candidate;
                    failure = smaller;
                }
                Ok(()) => at = end,
            }
        }
        chunk /= 2;
    }
    (steps, failure)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let counter = std::cell::Cell::new(0u64);
        cases("counter", 10, 1, |_| counter.set(counter.get() + 1));
        assert_eq!(counter.get(), 10);
    }

    #[test]
    fn failing_property_panics_and_names_the_case() {
        let result = std::panic::catch_unwind(|| {
            cases("always_fails", 3, 2, |_| panic!("boom"));
        });
        assert!(result.is_err());
    }

    #[test]
    fn shrinking_keeps_only_the_steps_the_failure_needs() {
        let fails = |steps: &[u64]| {
            let big = steps.iter().filter(|&&s| s >= 90).count();
            if big >= 2 {
                Err(format!("{big} big steps"))
            } else {
                Ok(())
            }
        };
        let steps: Vec<u64> = (0..200).map(|i| (i * 37) % 100).collect();
        let failure = fails(&steps).unwrap_err();
        let (shrunk, failure) = shrink(steps, failure, &mut { fails });
        assert_eq!(shrunk.len(), 2, "{shrunk:?}");
        assert!(shrunk.iter().all(|&s| s >= 90));
        assert_eq!(failure, "2 big steps");
    }

    #[test]
    fn a_failing_history_panics_with_its_shrunk_steps() {
        let result = std::panic::catch_unwind(|| {
            shrinking(
                "no_sevens",
                8,
                3,
                |rng| (0..50).map(|_| rng.index(10)).collect::<Vec<_>>(),
                |steps| match steps.contains(&7) {
                    true => Err("a seven".into()),
                    false => Ok(()),
                },
            );
        });
        let payload = result.unwrap_err();
        let message = payload.downcast_ref::<String>().unwrap();
        assert!(message.contains("shrunk to 1 steps: [7]"), "{message}");
    }

    #[test]
    fn cases_are_deterministic() {
        let mut first: Vec<u64> = Vec::new();
        cases("record", 5, 99, |rng| first.push(rng.next_u64()));
        let mut second: Vec<u64> = Vec::new();
        cases("record", 5, 99, |rng| second.push(rng.next_u64()));
        assert_eq!(first, second);
    }
}
