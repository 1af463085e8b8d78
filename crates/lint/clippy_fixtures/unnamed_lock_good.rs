//! Twin of `unnamed_lock_bad.rs`: each lock is built with its class, a
//! `static LockId` naming it and giving its level.

use pdm_obs::lock::{Lock, LockId, RwLock};

static TABLE: LockId = LockId::new("fixture.table", 10);
static CURRENT: LockId = LockId::new("fixture.current", 20);

pub struct Cache {
    pub table: Lock<Vec<u64>>,
    pub current: RwLock<u64>,
}

pub fn cache() -> Cache {
    Cache {
        table: Lock::new(&TABLE, Vec::new()),
        current: RwLock::new(&CURRENT, 0),
    }
}
