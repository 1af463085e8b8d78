//! The replacement rule of a bounded table.
//!
//! A table that serves repeated look-ups — the server's result cache, the
//! [`Templates`](crate::template::Templates) of a server — keeps at most a
//! fixed number of entries. [`Ring`] decides which: it holds the resident
//! keys in a ring with a clock hand, and counts the table's misses. Each
//! entry of the table records that count when it was last published or hit
//! (its *stamp*, [`Ring::now`]). A table below capacity keeps every new
//! entry. A full one looks at the one key under the hand, and advances the
//! hand: that key gives up its place only if it is stale, or if it was not
//! hit during the last `2 × capacity` misses; otherwise the newcomer is not
//! kept ([`Ring::admit`]).
//!
//! So an entry that is hit again within two table-fulls of misses stays,
//! however many keys pass through; a working set larger than the table
//! keeps a fixed part of itself instead of cycling through all of it (a
//! table emptied when full, or one run least-recently-used, serves a cyclic
//! scan of more keys than it holds almost nothing); and a working set that
//! moves on leaves entries that go idle and make room for the new one.

/// How many table-fulls of misses an entry may go without a hit before it
/// gives up its place to a newcomer.
const IDLE_TABLES: u64 = 2;

/// What a table knows of the key under the hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Standing {
    /// The table's miss count when the key's entry was last published or
    /// hit ([`Ring::now`] then).
    pub used: u64,
    /// The entry can no longer be served (it was computed on storage that
    /// is not current): it goes, whatever its stamp.
    pub stale: bool,
}

/// Where [`Ring::admit`] put a key new to the table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admit<K> {
    /// Below capacity: the key is kept, and nothing goes.
    Kept,
    /// The key is kept in place of this one, which the table must drop.
    Displaced(K),
    /// The key under the hand stays: the newcomer is not kept.
    Refused,
}

/// The resident keys of a bounded table in a ring, the clock hand over
/// them, and the table's miss count (see the module docs).
#[derive(Debug)]
pub struct Ring<K> {
    keys: Vec<K>,
    hand: usize,
    misses: u64,
    capacity: usize,
}

impl<K: Clone> Ring<K> {
    /// An empty ring for a table of at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a bounded table holds at least one entry");
        Ring {
            keys: Vec::new(),
            hand: 0,
            misses: 0,
            capacity,
        }
    }

    /// Count one miss of the table.
    pub fn miss(&mut self) {
        self.misses = self.misses.wrapping_add(1);
    }

    /// The stamp of an entry published or hit now.
    pub fn now(&self) -> u64 {
        self.misses
    }

    /// Whether an entry stamped `used` has gone `2 × capacity` misses
    /// without a hit.
    fn idle(&self, used: u64) -> bool {
        self.misses.wrapping_sub(used) >= IDLE_TABLES * self.capacity as u64
    }

    /// Make room for `key`, new to the table. Below capacity it is kept.
    /// A full table looks at the key under the hand, whose `standing` the
    /// table reports, and advances the hand: that key gives up its place if
    /// it is stale or idle, and the newcomer is refused if not.
    pub fn admit(&mut self, key: &K, standing: impl FnOnce(&K) -> Standing) -> Admit<K> {
        if self.keys.len() < self.capacity {
            self.keys.push(key.clone());
            return Admit::Kept;
        }
        let at = self.hand;
        self.hand = (at + 1) % self.keys.len();
        let victim = standing(&self.keys[at]);
        if victim.stale || self.idle(victim.used) {
            Admit::Displaced(std::mem::replace(&mut self.keys[at], key.clone()))
        } else {
            Admit::Refused
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A standing that checks it is asked about `expected`.
    fn under_hand(expected: char, stale: bool) -> impl FnOnce(&char) -> Standing {
        move |key| {
            assert_eq!(*key, expected, "the hand is over another key");
            Standing { used: 0, stale }
        }
    }

    #[test]
    fn below_capacity_every_key_is_kept() {
        let mut ring = Ring::new(3);
        for k in ['a', 'b', 'c'] {
            assert_eq!(ring.admit(&k, |_| unreachable!()), Admit::Kept);
        }
        assert_eq!(ring.keys.len(), 3);
    }

    #[test]
    fn a_full_ring_displaces_only_a_stale_or_idle_key_under_the_hand() {
        let mut ring = Ring::new(2);
        ring.admit(&'a', |_| unreachable!());
        ring.admit(&'b', |_| unreachable!());
        // Live keys refuse, and the hand moves on to the next.
        assert_eq!(ring.admit(&'c', under_hand('a', false)), Admit::Refused);
        assert_eq!(ring.admit(&'c', under_hand('b', false)), Admit::Refused);
        // A stale key goes at once.
        assert_eq!(
            ring.admit(&'c', under_hand('a', true)),
            Admit::Displaced('a')
        );
        // An idle one after 2 × capacity misses, and not one miss earlier.
        for _ in 0..3 {
            ring.miss();
        }
        assert!(!ring.idle(0));
        assert_eq!(ring.admit(&'d', under_hand('b', false)), Admit::Refused);
        ring.miss();
        assert!(ring.idle(0) && !ring.idle(ring.now()));
        assert_eq!(
            ring.admit(&'d', under_hand('c', false)),
            Admit::Displaced('c')
        );
        assert_eq!(ring.keys.len(), 2);
    }
}
