#![allow(clippy::unwrap_used)]

//! Cache-correctness differential tests.
//!
//! The cross-session result cache must be INVISIBLE except in the traffic
//! stats: every result served from cache must be byte-identical to a cold
//! re-execution against current storage, and a DML bump must invalidate
//! exactly the affected epoch — entries written before the bump never
//! serve again, entries written after it serve until the next bump.
//!
//! The session-local uncorrelated-subquery cache (§5.3.1) gets the same
//! treatment: it may change statistics, never results.

use std::collections::HashMap;

use pdm_core::query::recursive;
use pdm_core::{PdmServer, Recorder, SharedServer};
use pdm_prng::Prng;
use pdm_sql::{Database, ExecConfig};
use pdm_workload::{build_database, TreeSpec};

fn fresh_shared() -> PdmServer {
    let spec = TreeSpec::new(3, 2, 1.0).with_node_size(64);
    let (db, _) = build_database(&spec).unwrap();
    PdmServer::new(db)
}

/// A battery covering the query shapes the PDM workload actually issues:
/// scans, filters, aggregates, IN-subqueries, and the recursive MLE query.
fn battery() -> Vec<String> {
    vec![
        "SELECT * FROM assy ORDER BY obid".into(),
        "SELECT obid, name FROM comp WHERE checkedout = FALSE ORDER BY obid".into(),
        "SELECT COUNT(*) FROM link".into(),
        "SELECT obid FROM assy WHERE obid IN (SELECT left FROM link) ORDER BY obid".into(),
        recursive::mle_query(1).to_string(),
    ]
}

/// Every warm result equals a cold re-execution, byte for byte (both by
/// `PartialEq` and by rendered text).
#[test]
fn cached_results_are_byte_identical_to_cold_execution() {
    let server = fresh_shared();
    let shared: &SharedServer = server.shared();
    for sql in battery() {
        let cold = shared.query_uncached(&sql).unwrap();
        let warm_miss = shared.query_cached(&sql).unwrap();
        let warm_hit = shared.query_cached(&sql).unwrap();
        assert_eq!(*warm_miss, cold, "first (filling) read diverged: {sql}");
        assert_eq!(*warm_hit, cold, "cache hit diverged: {sql}");
        assert_eq!(warm_hit.to_string(), cold.to_string());
    }
    let stats = shared.cache_stats();
    assert_eq!(stats.hits, battery().len() as u64);
    assert_eq!(stats.misses, battery().len() as u64);
}

/// The cache key is the CANONICAL query text: lexically different spellings
/// of the same query share one entry.
#[test]
fn cache_key_is_canonical_sql() {
    let server = fresh_shared();
    let shared = server.shared();
    shared
        .query_cached("SELECT obid FROM assy WHERE obid = 1")
        .unwrap();
    let before = shared.cache_stats();
    let rs = shared
        .query_cached("select   obid\nfrom ASSY where obid=1")
        .unwrap();
    let after = shared.cache_stats();
    assert_eq!(after.hits, before.hits + 1, "reformatted query must hit");
    assert_eq!(after.misses, before.misses);
    assert_eq!(rs.len(), 1);
}

/// Property test: under a random interleaving of DML and queries, a repeat
/// query is a hit IFF the storage version is unchanged since its last
/// execution — and hit or miss, the result always equals cold execution.
#[test]
fn dml_invalidates_exactly_the_dependent_epoch() {
    let server = fresh_shared();
    let shared = server.shared();
    let queries = battery();
    let mut prng = Prng::seed_from_u64(0xCAC4E);
    // sql -> storage version at which it was last executed
    let mut last_run: HashMap<String, u64> = HashMap::new();

    for step in 0..400 {
        if prng.next_u64().is_multiple_of(4) {
            // DML: flip a random flag — bumps the version/epoch.
            let obid = 1 + (prng.next_u64() % 7) as i64;
            let flag = if prng.next_u64().is_multiple_of(2) {
                "TRUE"
            } else {
                "FALSE"
            };
            let before = shared.database().version();
            server
                .execute_deadline_obs(
                    &format!("UPDATE assy SET checkedout = {flag} WHERE obid = {obid}"),
                    None,
                    &Recorder::disabled(),
                )
                .unwrap();
            assert_eq!(
                shared.database().version(),
                before + 1,
                "DML must bump the epoch"
            );
        } else {
            let sql = &queries[(prng.next_u64() % queries.len() as u64) as usize];
            let version = shared.database().version();
            let before = shared.cache_stats();
            let warm = shared.query_cached(sql).unwrap();
            let after = shared.cache_stats();

            let expect_hit = last_run.get(sql) == Some(&version);
            if expect_hit {
                assert_eq!(
                    (after.hits, after.misses),
                    (before.hits + 1, before.misses),
                    "step {step}: same-epoch repeat must hit: {sql}"
                );
            } else {
                assert_eq!(
                    (after.hits, after.misses),
                    (before.hits, before.misses + 1),
                    "step {step}: first read after an epoch bump must miss: {sql}"
                );
            }
            // Hit or miss, the result equals cold execution NOW.
            let cold = shared.query_uncached(sql).unwrap();
            assert_eq!(*warm, cold, "step {step}: stale result served: {sql}");
            last_run.insert(sql.clone(), version);
        }
    }
    let stats = shared.cache_stats();
    assert!(stats.hits > 0, "interleaving never exercised a hit");
    assert!(stats.misses > 0, "interleaving never exercised a miss");
}

/// Queries do NOT bump the epoch: read-only traffic never invalidates.
#[test]
fn queries_do_not_invalidate() {
    let server = fresh_shared();
    let shared = server.shared();
    let v = shared.database().version();
    for sql in battery() {
        shared.query_cached(&sql).unwrap();
    }
    for sql in battery() {
        shared.query_cached(&sql).unwrap();
    }
    assert_eq!(shared.database().version(), v);
    assert_eq!(shared.cache_stats().hits, battery().len() as u64);
}

/// The session-local uncorrelated-subquery cache changes statistics only:
/// results with it on equal results with it off, before and after DML.
#[test]
fn subquery_cache_is_result_invisible() {
    let spec = TreeSpec::new(3, 2, 1.0).with_node_size(64);
    let (mut with_cache, _) = build_database(&spec).unwrap();
    let (mut without_cache, _) = build_database(&spec).unwrap();
    assert!(ExecConfig::default().subquery_cache);
    without_cache.config.subquery_cache = false;

    let sql = "SELECT obid FROM assy WHERE obid IN (SELECT left FROM link) ORDER BY obid";
    let check = |a: &Database, b: &Database| {
        let (rs_on, stats_on) = a.query_with_stats(sql).unwrap();
        let (rs_off, stats_off) = b.query_with_stats(sql).unwrap();
        assert_eq!(rs_on, rs_off, "subquery cache changed a result");
        assert!(stats_on.subquery_cache_hits > 0, "cache never engaged");
        assert_eq!(stats_off.subquery_cache_hits, 0);
        (stats_on.subquery_evals, stats_off.subquery_evals)
    };
    let (evals_on, evals_off) = check(&with_cache, &without_cache);
    assert!(
        evals_on < evals_off,
        "caching must reduce evaluations ({evals_on} >= {evals_off})"
    );

    // After DML the cached plan must re-evaluate — same differential holds.
    for db in [&mut with_cache, &mut without_cache] {
        db.execute("DELETE FROM link WHERE left = 1").unwrap();
    }
    check(&with_cache, &without_cache);
}
