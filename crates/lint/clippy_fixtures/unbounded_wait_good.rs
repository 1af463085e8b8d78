//! Twin of `unbounded_wait_bad.rs`: every wait is a `wait_timeout` slice,
//! re-checked in a loop against the caller's deadline.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

const WAIT_SLICE: Duration = Duration::from_millis(5);

pub struct Gate {
    open: Mutex<bool>,
    signal: Condvar,
}

fn lock(m: &Mutex<bool>) -> MutexGuard<'_, bool> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Gate {
    /// Waits at most `slices` slices; reports whether the gate opened.
    pub fn pass(&self, slices: u32) -> bool {
        let mut open = lock(&self.open);
        for _ in 0..slices {
            if *open {
                return true;
            }
            open = self
                .signal
                .wait_timeout(open, WAIT_SLICE)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        *open
    }
}
