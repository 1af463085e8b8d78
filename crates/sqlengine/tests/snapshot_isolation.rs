#![allow(clippy::unwrap_used)]

//! Regression tests pinning the storage-sharing hazards found while
//! migrating the executor from `Rc`/`RefCell` to `Arc` snapshots.
//!
//! The executor shares materialized relations (`Arc<RelRows>` for CTEs,
//! views, derived tables; `Arc<Table>` for base storage) freely *within*
//! one statement. The invariant these tests pin is that none of that
//! sharing escapes a statement boundary: every statement sees exactly the
//! catalog state published before it, and nothing a statement returned can
//! be mutated by a later one.

mod common;

use pdm_prng::check::cases;
use pdm_prng::Prng;
use pdm_sql::persist::{decode_snapshot, encode_snapshot, state_digest, state_fingerprint};
use pdm_sql::storage::row_hash;
use pdm_sql::{Database, DmlOutcome, ExecOutcome, Row, SharedDatabase, Snapshot, Value};

fn db() -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (a INTEGER NOT NULL, b VARCHAR)")
        .unwrap();
    db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')")
        .unwrap();
    db
}

/// Hazard 1: a returned `ResultSet` borrowing table storage would be
/// corrupted by later DML. Results must be value-independent of storage.
#[test]
fn returned_rows_survive_later_dml() {
    let mut d = db();
    let before = d.query("SELECT a, b FROM t ORDER BY a").unwrap();
    d.execute("UPDATE t SET b = 'clobbered'").unwrap();
    d.execute("DELETE FROM t WHERE a >= 2").unwrap();
    assert_eq!(before.len(), 3);
    assert_eq!(before.rows[1].get(1), &Value::Text("y".into()));
}

/// Hazard 2: `Database` clones share `Arc<Table>` storage; a write through
/// one clone must copy-on-write, never mutate the shared rows.
#[test]
fn cloned_database_is_isolated() {
    let mut original = db();
    let mut clone = original.clone();

    clone
        .execute("UPDATE t SET b = 'theirs' WHERE a = 1")
        .unwrap();
    original
        .execute("UPDATE t SET b = 'mine' WHERE a = 1")
        .unwrap();

    let theirs = clone.query("SELECT b FROM t WHERE a = 1").unwrap();
    let mine = original.query("SELECT b FROM t WHERE a = 1").unwrap();
    assert_eq!(theirs.rows[0].get(0), &Value::Text("theirs".into()));
    assert_eq!(mine.rows[0].get(0), &Value::Text("mine".into()));
}

/// Hazard 2b: index builds are writes too — `CREATE INDEX` through a clone
/// must not install the index into the shared table of the original.
#[test]
fn index_creation_copies_on_write() {
    let original = db();
    let mut clone = original.clone();
    clone.execute("CREATE INDEX ON t (a)").unwrap();

    let (_, stats) = common::query_with_stats(&clone, "SELECT * FROM t WHERE a = 2").unwrap();
    assert_eq!(stats.index_probes, 1, "clone uses its new index");
    let (_, stats) = common::query_with_stats(&original, "SELECT * FROM t WHERE a = 2").unwrap();
    assert_eq!(stats.index_probes, 0, "original must not see the index");
}

/// Hazard 3: a CTE binding (`Arc<RelRows>`) must not shadow catalog names
/// past its own statement.
#[test]
fn cte_binding_does_not_leak_across_statements() {
    let mut d = db();
    let rs = d
        .query("WITH shadow AS (SELECT a FROM t WHERE a = 1) SELECT * FROM shadow")
        .unwrap();
    assert_eq!(rs.len(), 1);
    // The binding is gone: 'shadow' is now resolvable as a fresh table.
    d.execute("CREATE TABLE shadow (a INTEGER)").unwrap();
    d.execute("INSERT INTO shadow VALUES (41), (42)").unwrap();
    let rs = d.query("SELECT * FROM shadow ORDER BY a").unwrap();
    assert_eq!(rs.len(), 2);
    assert_eq!(rs.rows[1].get(0), &Value::Int(42));
}

/// Hazard 4: the uncorrelated-subquery cache is per-execution. Re-running
/// a statement must re-evaluate its subqueries against current storage —
/// a cache entry surviving the statement would serve stale rows after DML.
#[test]
fn subquery_cache_does_not_survive_the_statement() {
    let mut d = db();
    d.execute("CREATE TABLE s (v INTEGER)").unwrap();
    d.execute("INSERT INTO s VALUES (1)").unwrap();

    let sql = "SELECT a FROM t WHERE a IN (SELECT v FROM s) ORDER BY a";
    let (rs, stats) = common::query_with_stats(&d, sql).unwrap();
    assert_eq!(rs.len(), 1);
    assert!(stats.subquery_evals >= 1);

    d.execute("INSERT INTO s VALUES (2), (3)").unwrap();
    let (rs, stats) = common::query_with_stats(&d, sql).unwrap();
    assert_eq!(rs.len(), 3, "second run must see the new subquery rows");
    assert!(
        stats.subquery_evals >= 1,
        "subquery re-evaluated, not reused"
    );
}

/// Hazard 5: a view materialization (`Arc<RelRows>`) captured during one
/// statement must not be reused by the next — views re-evaluate against
/// current storage every time.
#[test]
fn view_rows_reevaluate_per_statement() {
    let mut d = db();
    d.execute("CREATE VIEW big AS SELECT a FROM t WHERE a >= 2")
        .unwrap();
    assert_eq!(d.query("SELECT * FROM big").unwrap().len(), 2);
    d.execute("INSERT INTO t VALUES (9, 'new')").unwrap();
    assert_eq!(d.query("SELECT * FROM big").unwrap().len(), 3);
}

/// Hazard 6: an old snapshot's hash indexes must keep matching the old
/// rows after the current version rebuilt them (index + rows move
/// together under copy-on-write).
#[test]
fn snapshot_index_stays_consistent_with_its_rows() {
    let mut d = db();
    d.execute("CREATE INDEX ON t (b)").unwrap();
    let shared = SharedDatabase::new(d);

    let old = shared.snapshot();
    shared
        .execute("UPDATE t SET b = 'moved' WHERE a = 1")
        .unwrap();

    // Old snapshot: index probe for the old value still finds the row.
    let rs = old.query("SELECT a FROM t WHERE b = 'x'").unwrap();
    assert_eq!(rs.len(), 1);
    assert_eq!(rs.rows[0].get(0), &Value::Int(1));
    // Current snapshot: the row moved.
    let rs = shared
        .snapshot()
        .query("SELECT a FROM t WHERE b = 'x'")
        .unwrap();
    assert_eq!(rs.len(), 0);
    let rs = shared
        .snapshot()
        .query("SELECT a FROM t WHERE b = 'moved'")
        .unwrap();
    assert_eq!(rs.len(), 1);
}

/// Hazard 7: copy-on-write is per row. A one-row UPDATE on a large indexed
/// table must leave every other row of the new snapshot the very same
/// allocation as in the old one (a commit costs the rows it touches, not
/// the table), while the old snapshot keeps reading the old value.
#[test]
fn one_row_update_shares_every_untouched_row() {
    const ROWS: i64 = 10_000;
    const TARGET: usize = 4_321;
    let mut d = Database::new();
    d.execute("CREATE TABLE big (a INTEGER NOT NULL, b VARCHAR)")
        .unwrap();
    d.insert_rows(
        "big",
        (0..ROWS)
            .map(|i| Row::new(vec![Value::Int(i), Value::Text(format!("payload-{i}"))]))
            .collect(),
    )
    .unwrap();
    d.execute("CREATE INDEX ON big (a)").unwrap();
    let shared = SharedDatabase::new(d);

    let old = shared.snapshot();
    shared
        .execute(&format!(
            "UPDATE big SET b = 'rewritten' WHERE a = {TARGET}"
        ))
        .unwrap();
    let new = shared.snapshot();
    let (old_t, new_t) = (
        old.catalog.table("big").unwrap(),
        new.catalog.table("big").unwrap(),
    );
    for i in 0..ROWS as usize {
        assert_eq!(
            std::ptr::eq(old_t.row(i), new_t.row(i)),
            i != TARGET,
            "row {i}: only the updated row may be copied"
        );
    }
    assert_eq!(
        old_t.row(TARGET)[1],
        Value::Text(format!("payload-{TARGET}"))
    );
    assert_eq!(new_t.row(TARGET)[1], Value::Text("rewritten".into()));
    let probe = format!("SELECT b FROM big WHERE a = {TARGET}");
    assert_eq!(
        old.query(&probe).unwrap().rows[0].get(0),
        &Value::Text(format!("payload-{TARGET}"))
    );

    // An UPDATE that matches nothing copies no row.
    shared
        .execute("UPDATE big SET b = 'nobody' WHERE a = -1")
        .unwrap();
    let after = shared.snapshot();
    let after_t = after.catalog.table("big").unwrap();
    assert!(after.version > new.version);
    for i in 0..ROWS as usize {
        assert!(std::ptr::eq(new_t.row(i), after_t.row(i)), "row {i}");
    }
}

// ---------------------------------------------------------------------------
// Index-driven DML ≡ scanning DML
// ---------------------------------------------------------------------------

/// A literal for column `k` (INTEGER), `f` (DOUBLE) or `n` (INTEGER,
/// nullable): small domains so predicates hit, INT and FLOAT spellings of
/// the same number, halves that match no integer, both zeros, NULL.
fn arb_number(rng: &mut Prng) -> String {
    match rng.index(8) {
        0 => "NULL".into(),
        1 => format!("{}.0", rng.i64_inclusive(0, 9)),
        2 => format!("{}.5", rng.i64_inclusive(0, 9)),
        3 => "-0.0".into(),
        4 => "0".into(),
        _ => rng.i64_inclusive(-1, 9).to_string(),
    }
}

/// A value the INTEGER columns accept.
fn arb_int(rng: &mut Prng) -> String {
    match rng.index(6) {
        0 => "NULL".into(),
        _ => rng.i64_inclusive(0, 9).to_string(),
    }
}

fn arb_text(rng: &mut Prng) -> String {
    format!("'s{}'", rng.index(4))
}

fn arb_list(rng: &mut Prng, item: fn(&mut Prng) -> String) -> String {
    // Short lists from a small domain: duplicates are common.
    let n = rng.usize_inclusive(1, 4);
    (0..n).map(|_| item(rng)).collect::<Vec<_>>().join(", ")
}

/// A WHERE clause over `t (k, f, s, n)`; `k`, `f` and `s` are indexed.
fn arb_predicate(rng: &mut Prng) -> String {
    let indexed = |rng: &mut Prng| match rng.index(8) {
        0 => format!("k = {}", arb_number(rng)),
        1 => format!("{} = t.k", arb_number(rng)),
        2 => format!("k IN ({})", arb_list(rng, arb_number)),
        3 => format!("f = {}", arb_number(rng)),
        4 => format!("f IN ({})", arb_list(rng, arb_number)),
        5 => format!("s = {}", arb_text(rng)),
        6 => format!("s IN ({})", arb_list(rng, arb_text)),
        _ => format!("T.k IN ({})", arb_list(rng, arb_number)),
    };
    let residual = |rng: &mut Prng| match rng.index(5) {
        0 => format!("n = {}", arb_number(rng)),
        1 => format!("n > {}", rng.i64_inclusive(0, 9)),
        2 => "n IS NULL".to_string(),
        3 => format!("k < {}", rng.i64_inclusive(0, 9)),
        _ => format!("k NOT IN ({})", arb_list(rng, arb_number)),
    };
    match rng.index(7) {
        0 | 1 => indexed(rng),
        2 => residual(rng),
        3 => format!("{} AND {}", indexed(rng), residual(rng)),
        4 => format!("{} AND {}", residual(rng), indexed(rng)),
        5 => format!("{} OR {}", indexed(rng), indexed(rng)),
        _ => format!("{} AND {}", indexed(rng), indexed(rng)),
    }
}

fn arb_statement(rng: &mut Prng) -> String {
    match rng.index(6) {
        0 | 1 => {
            let rows = (0..rng.usize_inclusive(1, 3))
                .map(|_| {
                    format!(
                        "({}, {}, {}, {})",
                        arb_int(rng),
                        arb_number(rng),
                        if rng.index(5) == 0 {
                            "NULL".into()
                        } else {
                            arb_text(rng)
                        },
                        arb_int(rng)
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            format!("INSERT INTO t VALUES {rows}")
        }
        2 => format!("DELETE FROM t WHERE {}", arb_predicate(rng)),
        _ => {
            let set = match rng.index(5) {
                0 => "n = n + 1".to_string(),
                1 => format!("n = {}", arb_number(rng)),
                // Updates OF an indexed column: the index must follow.
                2 => format!("k = {}", rng.i64_inclusive(0, 9)),
                3 => format!("f = {}, n = 0", arb_number(rng)),
                _ => format!("s = {}", arb_text(rng)),
            };
            format!("UPDATE t SET {set} WHERE {}", arb_predicate(rng))
        }
    }
}

fn snapshot_of(d: &Database) -> Snapshot {
    Snapshot {
        db: d.clone(),
        version: 0,
    }
}

fn fingerprint(d: &Database) -> Vec<u8> {
    state_fingerprint(&snapshot_of(d))
}

/// UPDATE and DELETE visit only index candidates when a conjunct names
/// them; `index_pushdown = false` makes them scan. Over random statement
/// streams the two must be indistinguishable: same outcome (or the same
/// refusal — a FLOAT into the INTEGER column, say) and byte-identical state
/// after every statement, and the same rows in the same order for SELECTs
/// whose IN lists are now answered from the index.
#[test]
fn index_driven_dml_matches_the_scan() {
    cases(
        "index_driven_dml_matches_the_scan",
        40,
        0x1DE0_0015,
        |rng| {
            let mut probing = Database::new();
            for ddl in [
                "CREATE TABLE t (k INTEGER, f DOUBLE, s VARCHAR, n INTEGER)",
                "CREATE INDEX ON t (k)",
                "CREATE INDEX ON t (f)",
                "CREATE INDEX ON t (s)",
            ] {
                probing.execute(ddl).unwrap();
            }
            let mut scanning = probing.clone();
            scanning.config.index_pushdown = false;

            for _ in 0..60 {
                let sql = arb_statement(rng);
                let a = probing.execute(&sql).map_err(|e| e.to_string());
                let b = scanning.execute(&sql).map_err(|e| e.to_string());
                assert_eq!(a, b, "{sql}");
                assert!(fingerprint(&probing) == fingerprint(&scanning), "{sql}");

                let select = format!("SELECT * FROM t WHERE {}", arb_predicate(rng));
                assert_eq!(
                    probing.query(&select).map_err(|e| e.to_string()),
                    scanning.query(&select).map_err(|e| e.to_string()),
                    "{select}"
                );
            }
        },
    );
}

// ---------------------------------------------------------------------------
// Maintained table digest ≡ digest of the rows
// ---------------------------------------------------------------------------

/// The statement stream of `index_driven_dml_matches_the_scan`, plus what
/// stresses digest maintenance: UPDATEs that `apply_updates` refuses after
/// writing some rows and the first column of the refused row (a NULL into
/// the NOT NULL column `n`, a DOUBLE into the INTEGER column `k` — both
/// only for the rows whose source value is one), and indexes created in
/// mid-stream.
fn arb_digest_statement(rng: &mut Prng) -> String {
    match rng.index(10) {
        0 => format!(
            "UPDATE t SET s = 'half', n = k WHERE {}",
            arb_predicate(rng)
        ),
        1 => format!("UPDATE t SET n = n + 1, k = f WHERE {}", arb_predicate(rng)),
        2 => "UPDATE t SET s = 'all', n = n + 1".to_string(),
        3 => format!("CREATE INDEX ON t ({})", ["k", "f", "s", "n"][rng.index(4)]),
        _ => arb_statement(rng),
    }
}

/// `Table::digest` is maintained by the mutators, never recomputed on the
/// write path. After every statement of a random stream — failed ones
/// included: they leave the rows they wrote — it equals the sum of
/// `row_hash` over the rows as they are, the snapshot round trip (the
/// replica bootstrap path, which rebuilds the table by inserts) lands on
/// the same state digest, and two states of a stream share a state digest
/// exactly when they share a fingerprint.
///
/// The same stream through a [`SharedDatabase`] is an atomic in-place
/// apply: a statement that succeeds in place returns the same outcome on
/// the shared side, which publishes the in-place state at the next
/// version; one that fails in place fails there with the same error and
/// publishes nothing — not the rows the refused UPDATE wrote before it
/// stopped. A snapshot held from before the stream never changes.
#[test]
fn maintained_digest_matches_a_fresh_one() {
    cases(
        "maintained_digest_matches_a_fresh_one",
        40,
        0x1DE0_0016,
        |rng| {
            let mut db = Database::new();
            db.execute("CREATE TABLE t (k INTEGER, f DOUBLE, s VARCHAR, n INTEGER NOT NULL)")
                .unwrap();
            db.execute("CREATE INDEX ON t (k)").unwrap();
            let mut shared = SharedDatabase::new(db.clone());
            let held = shared.snapshot();
            let held_fingerprint = state_fingerprint(&held);
            let mut seen: Vec<(Vec<u8>, u64)> = Vec::new();
            let (mut refused, mut empty) = (0, 0);
            for _ in 0..60 {
                let sql = arb_digest_statement(rng);
                let version = shared.version();
                let published = state_fingerprint(&shared.snapshot());
                match db.execute(&sql) {
                    Ok(outcome) => {
                        let (on_shared, at) = shared
                            .execute(&sql)
                            .unwrap_or_else(|e| panic!("{sql}: {e}"));
                        assert_eq!(on_shared, outcome, "{sql}");
                        assert_eq!((at, shared.version()), (version + 1, version + 1));
                        assert!(
                            state_fingerprint(&shared.snapshot()) == fingerprint(&db),
                            "{sql}"
                        );
                        if outcome == ExecOutcome::Dml(DmlOutcome::Updated(0)) {
                            empty += 1;
                        }
                    }
                    Err(e) => {
                        refused += 1;
                        let on_shared = shared.execute(&sql).map(|_| ()).map_err(|e| e.to_string());
                        assert_eq!(on_shared, Err(e.to_string()), "{sql}");
                        assert_eq!(shared.version(), version, "{sql}");
                        assert!(state_fingerprint(&shared.snapshot()) == published, "{sql}");
                        shared = SharedDatabase::from_snapshot(Snapshot {
                            db: db.clone(),
                            version,
                        });
                    }
                }
                assert!(state_fingerprint(&held) == held_fingerprint, "{sql}");

                let t = db.catalog.table("t").unwrap();
                let fresh = t
                    .rows()
                    .iter()
                    .enumerate()
                    .fold(0u64, |sum, (i, row)| sum.wrapping_add(row_hash(i, row)));
                assert_eq!(t.digest(), fresh, "{sql}");

                let snapshot = snapshot_of(&db);
                let digest = state_digest(&snapshot);
                let reloaded = decode_snapshot(&encode_snapshot(&snapshot)).unwrap();
                assert_eq!(state_digest(&reloaded), digest, "{sql}");
                seen.push((state_fingerprint(&snapshot), digest));
            }
            assert!(refused > 0 && empty > 0, "stream too tame");
            for (i, (fp_a, digest_a)) in seen.iter().enumerate() {
                for (fp_b, digest_b) in &seen[..i] {
                    assert_eq!(fp_a == fp_b, digest_a == digest_b);
                }
            }
        },
    );
}
