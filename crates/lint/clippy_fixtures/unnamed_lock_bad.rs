//! A `std::sync` lock built directly has no class: no name to report, no
//! level to check its acquisition order against, and no say on whether it
//! may be held across I/O. The ban is on the constructors, so every lock
//! field is built through `pdm_obs::lock` (DESIGN.md §9).

use std::sync::{Mutex, RwLock};

pub struct Cache {
    pub table: Mutex<Vec<u64>>,
    pub current: RwLock<u64>,
}

pub fn cache() -> Cache {
    Cache {
        table: Mutex::new(Vec::new()), //~ disallowed_methods
        current: RwLock::new(0), //~ disallowed_methods
    }
}
