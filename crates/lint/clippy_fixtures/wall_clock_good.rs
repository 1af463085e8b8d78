//! Twin of `wall_clock_bad.rs`: time is the simulation's, and the one site
//! that must read the OS clock says why in an `#[expect]`.

use std::time::{Duration, Instant};

pub struct VirtualClock {
    now_s: f64,
}

impl VirtualClock {
    pub fn advance(&mut self, dt_s: f64) -> f64 {
        self.now_s += dt_s;
        self.now_s
    }
}

pub fn os_deadline(budget: Duration) -> Instant {
    #[expect(
        clippy::disallowed_methods,
        reason = "a condvar deadline blocks a real OS thread"
    )]
    let entered = Instant::now();
    entered + budget
}
