//! Twin of `ambient_randomness_bad.rs`: the value comes from a seeded
//! generator, and a table's hasher is the fixed-key default.

use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};

use pdm_prng::Prng;

pub fn salted(x: u64, prng: &mut Prng) -> u64 {
    x ^ prng.next_u64()
}

pub fn hashed(x: u64) -> u64 {
    BuildHasherDefault::<DefaultHasher>::default().hash_one(x)
}

pub type Table = HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>;
