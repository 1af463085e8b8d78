//! `ambient-randomness`, retired from pdm-lint: all randomness flows from a
//! seeded `pdm_prng::Prng`. The old lint also named `thread_rng`, `OsRng`,
//! `getrandom` and `from_entropy`; they live in registry crates, which the
//! dependency policy (`workspace_clean::dependency_policy`) admits none of,
//! so no code here can name them. std's entropy source is `RandomState`,
//! banned as a type and as a constructor under either of its paths.

use std::collections::HashMap;
use std::hash::BuildHasher;

pub fn salted(x: u64) -> u64 {
    let state = std::hash::RandomState::new(); //~ disallowed_types
    state.hash_one(x)
}

pub type Table = HashMap<u64, u64, std::collections::hash_map::RandomState>; //~ disallowed_types
