//! An exemption that suppresses nothing fails `clippy -D warnings`: once the
//! clock read below it moves away, the `#[expect]` must go too. This is the
//! clippy side of pdm-lint's `allow-hygiene` rule.

use std::time::Duration;

pub fn budget() -> Duration {
    #[expect(clippy::disallowed_methods, reason = "moved")] //~ unfulfilled_lint_expectations
    let slice = Duration::from_millis(5);
    slice * 2
}
