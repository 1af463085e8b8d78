#![allow(clippy::unwrap_used)]

//! The result cache's replacement rule, held to the cold path.
//!
//! The cache keeps at most `CACHE_CAPACITY` results; a result new to a full
//! table is kept only in place of the one under the clock hand, and only if
//! that one is stale or went `2 × CACHE_CAPACITY` misses without a hit.
//! These tests drive it with point queries on a small table, in the shape of
//! the benchmark's `nav_spill` workload: 40 groups of 232 statements, every
//! group once per cycle in a shuffled order — 9,280 keys, 2.3 × the cache.
//!
//! What the rule may change is which reads hit. It may not change a single
//! answer (every read is compared with `query_uncached`), nor make a run
//! depend on anything but its seed.

use pdm_core::{CacheStats, Recorder, SharedServer, CACHE_CAPACITY};
use pdm_prng::Prng;
use pdm_sql::Database;

/// Rows of the table the point queries read.
const ROWS: usize = 64;
/// Statements per group, and groups in a working set that spills.
const GROUP: usize = 232;
const SPILL: usize = 40;
/// Groups in a working set that fits the cache (2,320 keys).
const FIT: usize = 10;
const _: () = assert!(SPILL * GROUP > 2 * CACHE_CAPACITY && FIT * GROUP < CACHE_CAPACITY);

fn server() -> SharedServer {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (id INTEGER NOT NULL, v INTEGER NOT NULL)")
        .unwrap();
    db.execute("CREATE INDEX ON t (id)").unwrap();
    let rows: Vec<String> = (0..ROWS).map(|id| format!("({id}, {})", id % 13)).collect();
    db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
        .unwrap();
    SharedServer::new(db)
}

/// The `key`-th distinct point query: one row of the table, under a text of
/// its own.
fn point(key: usize) -> String {
    format!(
        "SELECT id, v FROM t WHERE id = {} AND v < {}",
        key % ROWS,
        key + 100
    )
}

/// Read `key` through the cache, and compare it with a cold read, byte for
/// byte.
fn read(s: &SharedServer, key: usize) {
    let sql = point(key);
    let warm = s.query_cached(&sql).unwrap();
    let cold = s.query_uncached(&sql).unwrap();
    assert_eq!(*warm, cold, "{sql}");
    assert_eq!(warm.to_string(), cold.to_string(), "{sql}");
}

/// The hits and misses of what `f` reads.
fn counting(s: &SharedServer, f: impl FnOnce()) -> CacheStats {
    let before = s.cache_stats();
    f();
    let after = s.cache_stats();
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
    }
}

/// One cycle over `groups` groups of keys, the first key at `base`: every
/// group once, in an order drawn from `prng`, its keys in order.
fn cycle(s: &SharedServer, prng: &mut Prng, base: usize, groups: usize) -> CacheStats {
    let mut order: Vec<usize> = (0..groups).collect();
    prng.shuffle(&mut order);
    counting(s, || {
        for group in order {
            for key in base + group * GROUP..base + (group + 1) * GROUP {
                read(s, key);
            }
        }
    })
}

/// 20,000 reads over 3 × `CACHE_CAPACITY` keys — half of them a repeat of
/// one of the last 64 keys read, half a key drawn from all of them — with an
/// UPDATE before one read in 2,000: every read is the cold read, and a seed
/// gives the same hits and misses every time.
#[test]
fn every_read_is_the_cold_read_and_a_seed_repeats() {
    let run = |seed: u64| {
        let s = server();
        let mut prng = Prng::seed_from_u64(seed);
        let mut recent = [0; 64];
        let stats = counting(&s, || {
            for step in 0..20_000 {
                if prng.index(2_000) == 0 {
                    let (v, id) = (prng.index(13), prng.index(ROWS));
                    s.execute_deadline_obs(
                        &format!("UPDATE t SET v = {v} WHERE id = {id}"),
                        None,
                        &Recorder::disabled(),
                    )
                    .unwrap();
                }
                let key = if step >= recent.len() && prng.bool() {
                    recent[prng.index(recent.len())]
                } else {
                    prng.index(3 * CACHE_CAPACITY)
                };
                recent[step % recent.len()] = key;
                read(&s, key);
            }
        });
        let snap = s.metrics().snapshot();
        let commits = snap.counter("server.dml_commits");
        assert!(commits >= 3, "{commits} UPDATEs");
        let gone = snap.counter("cache.invalidations");
        assert!(gone > 0 && stats.hits > 0, "{gone} displaced, {stats:?}");
        stats
    };
    assert_eq!(run(0x5EED), run(0x5EED), "the same seed, other counts");
}

/// A read-only working set of 2.3 × the cache, cycled: once the first
/// cycles — all misses, more than the idle window — have settled, the table
/// keeps a fixed part of the set, and the cycles hit ≥ 40 % of their reads
/// (the most any rule can is 4,096 of 9,280: 44 %). A table emptied when
/// full hits ≈ 5 %.
#[test]
fn a_spilling_working_set_keeps_a_part_of_itself() {
    let s = server();
    let mut prng = Prng::seed_from_u64(22);
    for _ in 0..8 {
        cycle(&s, &mut prng, 0, SPILL);
    }
    let stats = counting(&s, || {
        for _ in 0..8 {
            cycle(&s, &mut prng, 0, SPILL);
        }
    });
    assert!(stats.hit_rate() >= 0.40, "{stats:?}");
}

/// Cycles a spilling working set, then moves to a disjoint one that fits:
/// what the old set left behind goes idle and gives up its place, so within
/// `RECOVERY` cycles of the new set a cycle hits ≥ 70 % of its reads. An
/// old entry is idle at most 2 × 4,096 misses after the move, and the hand
/// reaches it within 4,096 more: 12,288 misses, 5.3 cycles of the new set's
/// 2,320 keys. A table that never displaced a live result would hit none
/// of them until the next commit.
#[test]
fn a_moved_working_set_recovers() {
    const RECOVERY: usize = 6;
    let s = server();
    let mut prng = Prng::seed_from_u64(1);
    for _ in 0..8 {
        cycle(&s, &mut prng, 0, SPILL);
    }
    let mut rates = Vec::new();
    while rates.len() < RECOVERY {
        let stats = cycle(&s, &mut prng, SPILL * GROUP, FIT);
        rates.push(stats.hit_rate());
        if stats.hit_rate() >= 0.7 {
            return;
        }
    }
    panic!("no cycle of the moved set hit 70 % of its reads: {rates:.3?}");
}

/// Below capacity every result is kept: n distinct statements, read twice,
/// are n misses and then n hits.
#[test]
fn below_capacity_n_misses_then_n_hits() {
    let s = server();
    let n = CACHE_CAPACITY as u64;
    for round in [
        CacheStats { hits: 0, misses: n },
        CacheStats { hits: n, misses: 0 },
    ] {
        let stats = counting(&s, || (0..CACHE_CAPACITY).for_each(|key| read(&s, key)));
        assert_eq!(stats, round);
    }
    assert_eq!(s.metrics().snapshot().counter("cache.invalidations"), 0);
}
