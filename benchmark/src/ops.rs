//! Seeded op-stream generators. Nothing here names a program type: the
//! streams are built from plain object ids handed over by `sut`.
//!
//! Every stream is a sequence of *cycles*. A cycle is a fixed multiset of
//! operations (the workload's mix, every root exactly once) in a seeded
//! order that is balanced in every window: [`interleave`] spreads each group
//! evenly over the cycle. The seed therefore decides the order and which
//! object an operation touches, never how much work a stretch of the stream
//! holds, so equal-op segments of a run do equal work and the per-action
//! means do not depend on where the clock stopped the run.

use std::collections::VecDeque;

/// splitmix64: the benchmark's own generator, so that the op streams do not
/// move when the program's PRNG crate does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// An independent generator for sub-stream `salt`.
    pub fn fork(&self, salt: u64) -> Rng {
        let mut r = Rng(self.0 ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }
}

/// One user action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Multi-level expand of the subtree below `root`.
    Expand { root: i64 },
    /// The set-oriented Query action over the whole product.
    QueryAll,
    /// Function-shipping check-out of `root`'s subtree, then its check-in.
    CheckoutCycle { root: i64 },
    /// Rewrite one component's payload (same length, letter `fill`).
    Update { obid: i64, fill: u8 },
}

/// Action classes the report splits latencies by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Expand,
    QueryAll,
    Checkout,
    Update,
}

impl Op {
    pub fn kind(&self) -> Kind {
        match self {
            Op::Expand { .. } => Kind::Expand,
            Op::QueryAll => Kind::QueryAll,
            Op::CheckoutCycle { .. } => Kind::Checkout,
            Op::Update { .. } => Kind::Update,
        }
    }
}

impl Kind {
    pub fn is_write(self) -> bool {
        matches!(self, Kind::Checkout | Kind::Update)
    }
}

/// Merge `groups` into one sequence in which every window holds each
/// group's share: item `i` of a group of `n` gets the key `(i + u) / n`,
/// `u` uniform in `[0, 1)`, and the output is sorted by key. A group keeps
/// its own order.
pub fn interleave<T>(groups: Vec<Vec<T>>, rng: &mut Rng) -> Vec<T> {
    let mut keyed: Vec<(f64, T)> = Vec::new();
    for group in groups {
        let n = group.len() as f64;
        for (i, item) in group.into_iter().enumerate() {
            keyed.push(((i as f64 + rng.unit()) / n, item));
        }
    }
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
    keyed.into_iter().map(|(_, item)| item).collect()
}

/// Each level's ids in a seeded order, levels spread evenly over the result.
fn shuffled_levels(mut levels: Vec<Vec<i64>>, rng: &mut Rng) -> Vec<i64> {
    for level in &mut levels {
        rng.shuffle(level);
    }
    interleave(levels, rng)
}

/// A list handed out round-robin, `n` at a time, across cycles.
#[derive(Debug, Clone)]
struct Cyclic<T> {
    items: Vec<T>,
    pos: usize,
}

impl<T: Clone> Cyclic<T> {
    fn new(items: Vec<T>) -> Self {
        Cyclic { items, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Vec<T> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.items[self.pos % self.items.len()].clone());
            self.pos += 1;
        }
        out
    }
}

/// What a mixed stream draws from (ids only).
#[derive(Debug, Clone)]
pub struct MixedInputs {
    /// Assemblies a user can expand, one list per tree level.
    pub expand_roots: Vec<Vec<i64>>,
    /// Assemblies this client may check out, one list per tree level. Two
    /// clients get disjoint subtrees, so no check-out is ever refused.
    pub checkout_roots: Vec<Vec<i64>>,
    /// Components whose payload this client rewrites.
    pub update_targets: Vec<i64>,
}

enum Source {
    /// Navigational workloads: every cycle expands each root once.
    Expands { roots: Vec<i64> },
    /// 50 % expand, 25 % Query, 20 % check-out cycle, 5 % single-row update.
    Mixed {
        expand_roots: Vec<Vec<i64>>,
        checkouts: Cyclic<i64>,
        updates: Cyclic<i64>,
    },
}

/// An endless seeded stream for one driver thread.
pub struct OpStream {
    rng: Rng,
    source: Source,
    buffer: VecDeque<Op>,
}

impl OpStream {
    pub fn expands(roots: Vec<i64>, rng: Rng) -> Self {
        assert!(!roots.is_empty(), "an expand stream needs a root");
        OpStream {
            rng,
            source: Source::Expands { roots },
            buffer: VecDeque::new(),
        }
    }

    pub fn mixed(inputs: MixedInputs, mut rng: Rng) -> Self {
        let checkouts = shuffled_levels(inputs.checkout_roots, &mut rng);
        let mut updates = inputs.update_targets;
        rng.shuffle(&mut updates);
        assert!(!checkouts.is_empty() && !updates.is_empty());
        OpStream {
            rng,
            source: Source::Mixed {
                expand_roots: inputs.expand_roots,
                checkouts: Cyclic::new(checkouts),
                updates: Cyclic::new(updates),
            },
            buffer: VecDeque::new(),
        }
    }

    fn refill(&mut self) {
        let cycle = match &mut self.source {
            Source::Expands { roots } => {
                let mut roots = roots.clone();
                self.rng.shuffle(&mut roots);
                roots.into_iter().map(|root| Op::Expand { root }).collect()
            }
            Source::Mixed {
                expand_roots,
                checkouts,
                updates,
            } => {
                let expands: Vec<Op> = shuffled_levels(expand_roots.clone(), &mut self.rng)
                    .into_iter()
                    .map(|root| Op::Expand { root })
                    .collect();
                // 50 : 25 : 20 : 5 of the cycle, from the expand count.
                let e = expands.len();
                let queries = vec![Op::QueryAll; e.div_ceil(2)];
                let co: Vec<Op> = checkouts
                    .take((2 * e).div_ceil(5))
                    .into_iter()
                    .map(|root| Op::CheckoutCycle { root })
                    .collect();
                let fill = b'a' + (self.rng.below(26) as u8);
                let up: Vec<Op> = updates
                    .take(e.div_ceil(10))
                    .into_iter()
                    .map(|obid| Op::Update { obid, fill })
                    .collect();
                interleave(vec![expands, queries, co, up], &mut self.rng)
            }
        };
        self.buffer.extend(cycle);
    }
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.buffer.is_empty() {
            self.refill();
        }
        self.buffer.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs() -> MixedInputs {
        MixedInputs {
            expand_roots: vec![vec![1], (2..6).collect(), (6..22).collect()],
            checkout_roots: vec![(6..22).collect()],
            update_targets: (100..140).collect(),
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<Op> = OpStream::mixed(inputs(), Rng::new(7)).take(500).collect();
        let b: Vec<Op> = OpStream::mixed(inputs(), Rng::new(7)).take(500).collect();
        let c: Vec<Op> = OpStream::mixed(inputs(), Rng::new(8)).take(500).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let x: Vec<Op> = OpStream::expands((1..=10).collect(), Rng::new(3))
            .take(50)
            .collect();
        let y: Vec<Op> = OpStream::expands((1..=10).collect(), Rng::new(3))
            .take(50)
            .collect();
        assert_eq!(x, y);
    }

    #[test]
    fn a_cycle_holds_the_mix_and_every_root_once() {
        // 21 expand roots -> 21 + 11 + 9 + 3 = 44 ops per cycle.
        let cycle: Vec<Op> = OpStream::mixed(inputs(), Rng::new(1)).take(44).collect();
        let count = |k: Kind| cycle.iter().filter(|s| s.kind() == k).count();
        assert_eq!(count(Kind::Expand), 21);
        assert_eq!(count(Kind::QueryAll), 11);
        assert_eq!(count(Kind::Checkout), 9);
        assert_eq!(count(Kind::Update), 3);
        let mut roots: Vec<i64> = cycle
            .iter()
            .filter_map(|s| match *s {
                Op::Expand { root } => Some(root),
                _ => None,
            })
            .collect();
        roots.sort_unstable();
        assert_eq!(roots, (1..22).collect::<Vec<i64>>());
    }

    #[test]
    fn interleave_balances_every_window() {
        let groups = vec![vec![0u8; 300], vec![1u8; 100]];
        let out = interleave(groups, &mut Rng::new(5));
        for window in out.chunks(40) {
            let ones = window.iter().filter(|&&g| g == 1).count();
            assert!((8..=12).contains(&ones), "window holds {ones} of group 1");
        }
    }
}
