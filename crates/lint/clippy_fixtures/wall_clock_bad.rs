//! `wall-clock`, retired from pdm-lint: measured time comes from the virtual
//! clock (DESIGN.md §2), never the OS clock. `clippy.toml` bans the three
//! reads by resolved path, so an alias or a full path is caught too.

use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

pub fn deadline(budget: Duration) -> Instant {
    Instant::now() + budget //~ disallowed_methods
}

pub fn stamp() -> SystemTime {
    std::time::SystemTime::now() //~ disallowed_methods
}

pub fn epoch_secs() -> u64 {
    UNIX_EPOCH.elapsed().map_or(0, |d| d.as_secs()) //~ disallowed_methods
}

pub fn clock() -> fn() -> Instant {
    use std::time::Instant as Clock;
    Clock::now //~ disallowed_methods
}
