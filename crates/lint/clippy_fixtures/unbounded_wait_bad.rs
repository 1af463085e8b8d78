//! `unbounded-wait`, retired from pdm-lint: a bare condvar wait blocks with
//! no deadline, so neither a deadline nor shutdown can interrupt it
//! (DESIGN.md §14). The ban is on `Condvar`'s methods, so the receiver's
//! name no longer matters.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

pub struct Gate {
    open: Mutex<bool>,
    signal: Condvar,
}

fn lock(m: &Mutex<bool>) -> MutexGuard<'_, bool> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Gate {
    pub fn pass(&self) {
        let mut open = lock(&self.open);
        while !*open {
            open = self
                .signal
                .wait(open) //~ disallowed_methods
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    pub fn pass_while(&self) {
        let guard = lock(&self.open);
        let _open = self
            .signal
            .wait_while(guard, |open| !*open) //~ disallowed_methods
            .unwrap_or_else(PoisonError::into_inner);
    }
}
