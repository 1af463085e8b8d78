#![cfg_attr(test, allow(clippy::unwrap_used))]

//! # pdm-prng — deterministic randomness without external dependencies
//!
//! The build environment is fully offline, so the workspace cannot pull
//! `rand` or `proptest` from a registry. Everything that needs randomness —
//! the workload generator, the fault-injection layer, and the property
//! tests — uses this crate instead: a [splitmix64] seeder feeding a
//! xoshiro256** generator ([`Prng`]), plus a tiny property-testing harness
//! ([`check`]) that replaces the proptest macros with explicit generator
//! loops.
//!
//! Determinism is a feature, not a workaround: the simulator's whole
//! methodology is bit-reproducible accounting, and every consumer seeds
//! its own generator so results never depend on draw interleaving.

pub mod check;

/// One step of the splitmix64 sequence: maps any 64-bit value to a
/// well-mixed successor. Used for seeding and for cheap stateless
/// "hash this tuple into a uniform u64" derivations (e.g. retry jitter).
#[inline]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256** — a small, fast, high-quality generator (Blackman/Vigna).
/// Not cryptographic; exactly what a simulator needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prng {
    s: [u64; 4],
}

impl Prng {
    /// Seed the full 256-bit state from one u64 via splitmix64 (the
    /// initialization the xoshiro authors recommend).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut x = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            *slot = splitmix64(x);
        }
        // All-zero state would be a fixed point; splitmix64 of distinct
        // inputs cannot produce four zeros, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Prng { s }
    }

    /// Next uniform u64.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform f64 in `[0, 1)` using the top 53 bits.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform f64 in `[lo, hi)`.
    pub fn f64_range(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.f64()
    }

    /// Uniform bool.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Uniform index in `0..n`. Panics if `n == 0`.
    /// Uses Lemire's multiply-shift with rejection for unbiased results.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        let n = n as u64;
        loop {
            let x = self.next_u64();
            let (hi, lo) = mul_u64(x, n);
            if lo >= n.wrapping_neg() % n {
                return hi as usize;
            }
            // Tiny rejection zone; loop again for unbiasedness.
        }
    }

    /// Uniform u64 in the inclusive range `lo..=hi`.
    pub fn u64_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi);
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.index((hi - lo + 1) as usize) as u64
    }

    /// Uniform u32 in the inclusive range `lo..=hi`.
    pub fn u32_inclusive(&mut self, lo: u32, hi: u32) -> u32 {
        self.u64_inclusive(lo as u64, hi as u64) as u32
    }

    /// Uniform usize in the inclusive range `lo..=hi`.
    pub fn usize_inclusive(&mut self, lo: usize, hi: usize) -> usize {
        self.u64_inclusive(lo as u64, hi as u64) as usize
    }

    /// Uniform i64 in the inclusive range `lo..=hi`.
    pub fn i64_inclusive(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi);
        lo.wrapping_add(self.index((hi.wrapping_sub(lo) as u64 + 1) as usize) as i64)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }

    /// A lowercase ASCII identifier-ish string of length in `len_lo..=len_hi`.
    pub fn ident(&mut self, len_lo: usize, len_hi: usize) -> String {
        let len = self.usize_inclusive(len_lo, len_hi);
        let mut s = String::with_capacity(len);
        for i in 0..len {
            let c = if i == 0 {
                b'a' + self.index(26) as u8
            } else {
                const TAIL: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
                let i = self.index(TAIL.len());
                TAIL.get(i).copied().expect("index(n) < n")
            };
            s.push(c as char);
        }
        s
    }
}

#[inline]
fn mul_u64(a: u64, b: u64) -> (u64, u64) {
    let wide = (a as u128) * (b as u128);
    ((wide >> 64) as u64, wide as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Prng::seed_from_u64(42);
        let mut b = Prng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Prng::seed_from_u64(43);
        assert_ne!(Prng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Prng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut r = Prng::seed_from_u64(1);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn index_covers_range_uniformly() {
        let mut r = Prng::seed_from_u64(3);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[r.index(10)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "skewed bucket {c}");
        }
    }

    #[test]
    fn inclusive_ranges_hit_bounds() {
        let mut r = Prng::seed_from_u64(9);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            match r.u32_inclusive(3, 5) {
                3 => saw_lo = true,
                5 => saw_hi = true,
                4 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Prng::seed_from_u64(11);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements virtually never shuffle to identity");
    }

    #[test]
    fn splitmix_is_pure() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(1), splitmix64(2));
    }

    #[test]
    fn ident_shape() {
        let mut r = Prng::seed_from_u64(5);
        for _ in 0..100 {
            let s = r.ident(1, 6);
            assert!((1..=6).contains(&s.len()));
            assert!(s.chars().next().unwrap().is_ascii_lowercase());
        }
    }
}
