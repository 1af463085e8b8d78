#![allow(clippy::unwrap_used, clippy::disallowed_methods)]

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
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use pdm_bench::harness::server;
use pdm_core::query::recursive;
use pdm_core::{
    CacheStats, InFlight, PdmServer, Recorder, RuleTable, Session, SessionConfig, SharedServer,
    SpanKind, Strategy,
};
use pdm_net::LinkProfile;
use pdm_obs::kinds;
use pdm_obs::metrics::families;
use pdm_prng::Prng;
use pdm_sql::{Database, ExecConfig};
use pdm_workload::{build_database, TreeSpec};

fn fresh_shared() -> PdmServer {
    server(&TreeSpec::new(3, 2, 1.0).with_node_size(64))
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
    let query = pdm_sql::parser::parse_query(sql).unwrap();
    let check = |a: &Database, b: &Database| {
        let disabled = pdm_obs::Recorder::disabled();
        let (rs_on, stats_on) = a.query_ast_profiled(&query, &disabled).unwrap();
        let (rs_off, stats_off) = b.query_ast_profiled(&query, &disabled).unwrap();
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

// ---------------------------------------------------------------------------
// The raw-text probe: a text that is already a key of the cache is found
// before it is parsed. It may change what a hit costs — never a count, and
// never an answer.
// ---------------------------------------------------------------------------

/// N distinct session-generated statements, issued twice: N misses, then N
/// hits — and the second round, all hits on texts the printer produced,
/// parses nothing and generates nothing.
#[test]
fn session_texts_hit_without_a_parse() {
    let server = fresh_shared();
    let mut s = Session::attach(
        server.clone(),
        SessionConfig::new("scott", Strategy::EarlyEval, LinkProfile::wan_256()),
        RuleTable::new(),
    );
    s.enable_profiling();
    let count = |s: &Session, kind: SpanKind| {
        let spans = &s.last_trace().unwrap().spans;
        spans.iter().filter(|sp| sp.kind == kind).count()
    };

    let first = s.multi_level_expand(1).unwrap();
    // One statement per node of the tree; the root's own fetch is unmetered
    // and unprofiled but goes through the same cache.
    let n = first.stats.queries as u64 + 1;
    assert_eq!(n, first.tree.len() as u64 + 1);
    let stats = server.cache_stats();
    assert_eq!((stats.hits, stats.misses), (0, n));
    assert_eq!(count(&s, kinds::PARSE) as u64, n - 1);
    assert_eq!(count(&s, kinds::QUERY_MODIFY), 1, "one shape was prepared");

    let second = s.multi_level_expand(1).unwrap();
    assert_eq!(
        second.tree.nodes().collect::<Vec<_>>(),
        first.tree.nodes().collect::<Vec<_>>()
    );
    assert_eq!(second.stats, first.stats, "a hit ships the same bytes");
    let stats = server.cache_stats();
    assert_eq!((stats.hits, stats.misses), (n, n));
    assert_eq!(count(&s, kinds::PARSE), 0, "a raw-text hit parses nothing");
    assert_eq!(count(&s, kinds::QUERY_MODIFY), 0, "nothing new to prepare");
    let probes: Vec<_> = s
        .last_trace()
        .unwrap()
        .spans
        .iter()
        .filter(|sp| sp.kind == kinds::CACHE_PROBE)
        .collect();
    assert_eq!(probes.len() as u64, n - 1, "one probe span per statement");
    assert!(probes.iter().all(|sp| sp.detail == "hit"));
    let snap = server.metrics().snapshot();
    assert_eq!(snap.counter(families::SERVER_QUERIES), 2 * n);
}

/// A cached statement sent in another spelling — case, whitespace,
/// redundant parentheses — misses the raw-text probe, parses, and lands on
/// the very same entry.
#[test]
fn respelt_text_hits_the_same_entry() {
    let server = fresh_shared();
    let shared = server.shared();
    let canonical = "SELECT obid FROM assy WHERE obid = 1 AND checkedout = FALSE";
    assert_eq!(
        pdm_sql::parser::parse_query(canonical).unwrap().to_string(),
        canonical
    );
    let filled = shared.query_cached(canonical).unwrap();
    let before = shared.cache_stats();
    for spelling in [
        "select obid from ASSY where obid = 1 and checkedout = false",
        "SELECT  obid\n\tFROM assy\n\tWHERE obid = 1   AND checkedout = FALSE  ",
        "SELECT obid FROM assy WHERE ((obid = 1) AND (checkedout = FALSE))",
        canonical,
    ] {
        let rs = shared.query_cached(spelling).unwrap();
        assert!(
            std::sync::Arc::ptr_eq(&rs, &filled),
            "a second entry for: {spelling}"
        );
    }
    let after = shared.cache_stats();
    assert_eq!(after.hits, before.hits + 4);
    assert_eq!(after.misses, before.misses, "a re-spelling is not a miss");
}

/// The interleaving of `dml_invalidates_exactly_the_dependent_epoch` with
/// every read sent at random in the spelling it was written in or in its
/// canonical one (the one the raw-text probe can find): a text that hit
/// before a DML misses after it, and never returns the old rows.
#[test]
fn a_raw_text_hit_never_outlives_a_dml() {
    let server = fresh_shared();
    let shared = server.shared();
    // (as written, canonical) — the written form must not be canonical, or
    // the two arms below are one.
    let queries: Vec<(String, String)> = battery()
        .into_iter()
        .map(|sql| {
            let canonical = pdm_sql::parser::parse_query(&sql).unwrap().to_string();
            let written = format!(" {}", canonical.replace(" FROM ", "\nfrom "));
            assert_ne!(written, canonical);
            (written, canonical)
        })
        .collect();
    let mut prng = Prng::seed_from_u64(0xF00D);
    let mut last_run: HashMap<usize, u64> = HashMap::new();
    let (mut raw_hits, mut raw_misses_after_dml) = (0, 0);

    for step in 0..600 {
        if prng.next_u64().is_multiple_of(4) {
            let obid = 1 + (prng.next_u64() % 7) as i64;
            let flag = prng.next_u64().is_multiple_of(2);
            server
                .execute_deadline_obs(
                    &format!("UPDATE assy SET checkedout = {flag} WHERE obid = {obid}"),
                    None,
                    &Recorder::disabled(),
                )
                .unwrap();
            continue;
        }
        let which = (prng.next_u64() % queries.len() as u64) as usize;
        let send_canonical = prng.next_u64().is_multiple_of(2);
        let (written, canonical) = &queries[which];
        let sql = if send_canonical { canonical } else { written };
        let version = shared.database().version();
        let before = shared.cache_stats();
        let warm = shared.query_cached(sql).unwrap();
        let after = shared.cache_stats();

        let expect_hit = last_run.get(&which) == Some(&version);
        let delta = (after.hits - before.hits, after.misses - before.misses);
        assert_eq!(
            delta,
            if expect_hit { (1, 0) } else { (0, 1) },
            "step {step}: wrong count for {sql}"
        );
        if send_canonical {
            raw_hits += u64::from(expect_hit);
            raw_misses_after_dml += u64::from(!expect_hit && last_run.contains_key(&which));
        }
        let cold = shared.query_uncached(sql).unwrap();
        assert_eq!(*warm, cold, "step {step}: stale result served: {sql}");
        last_run.insert(which, version);
    }
    assert!(raw_hits > 0, "no read ever took the raw-text probe");
    assert!(raw_misses_after_dml > 0, "no cached text was ever outdated");
}

/// Malformed text finds nothing to hit and still gets the parser's error,
/// uncounted as before.
#[test]
fn malformed_text_is_still_a_parse_error() {
    let server = fresh_shared();
    let shared = server.shared();
    for bad in ["SELEC obid FROM assy", "SELECT obid FROM", ""] {
        let expected = pdm_sql::parser::parse_query(bad).unwrap_err();
        let got = shared.query_cached(bad).unwrap_err();
        assert_eq!(got.to_string(), expected.to_string());
    }
    assert_eq!(shared.cache_stats(), CacheStats::default());
    assert_eq!(
        server
            .metrics()
            .snapshot()
            .counter(families::SERVER_QUERIES),
        0
    );
}

/// Eight threads miss one key at once: one computes, seven wait on its
/// single-flight mark and are served its result. The leader's stored
/// function holds it until all seven are registered as waiting, so the
/// count does not depend on the scheduler. Afterwards nothing is in flight:
/// no mark, no waiter, no token outlived its call.
#[test]
fn concurrent_misses_wait_for_one_leader_and_leave_nothing_in_flight() {
    const THREADS: usize = 8;
    let (mut db, _) = build_database(&TreeSpec::new(3, 2, 1.0).with_node_size(64)).unwrap();
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let opened = Arc::clone(&gate);
    db.register_function("gate", move |args| {
        let (open, cv) = &*opened;
        let mut open = open.lock().unwrap();
        while !*open {
            open = cv.wait(open).unwrap();
        }
        Ok(args[0].clone())
    });
    let server = PdmServer::new(db);
    let sql = "SELECT GATE(obid) AS obid FROM assy ORDER BY obid";
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let shared = Arc::clone(server.shared());
            std::thread::spawn(move || shared.query_cached(sql).unwrap())
        })
        .collect();
    // One leader is inside the engine; wait until the other seven wait on it.
    let start = Instant::now();
    while server.in_flight().waiters != THREADS - 1 {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "{:?}",
            server.in_flight()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    *gate.0.lock().unwrap() = true;
    gate.1.notify_all();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(results.iter().all(|r| Arc::ptr_eq(r, &results[0])));
    assert_eq!(*results[0], server.query_uncached(sql).unwrap());

    let m = server.metrics().snapshot();
    assert_eq!(m.counter(families::CACHE_SINGLEFLIGHT_LEADERS), 1);
    assert!(m.counter(families::CACHE_SINGLEFLIGHT_HITS) >= 1);
    assert_eq!(
        m.counter(families::CACHE_SINGLEFLIGHT_HITS),
        (THREADS - 1) as u64
    );
    assert_eq!(server.in_flight(), InFlight::default());
}
