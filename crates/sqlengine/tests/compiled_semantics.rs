#![allow(clippy::unwrap_used)]

//! What a compile step can silently change — and must not.
//!
//! The executor compiles a statement into a resolved plan before it runs it
//! (`pdm_sql::exec::plan`). These cases pin the places where deciding
//! something once, ahead of the rows, could differ from deciding it per row:
//! name binding and scoping, three-valued logic on borrowed operands, the
//! index-probe exactness rule, recursion's fixpoint. (Operator spans and the
//! profiling-on ≡ profiling-off identity are pinned in `exec_golden.rs`.)

use pdm_sql::{Database, Error, Value};

fn db() -> Database {
    let mut db = Database::new();
    for sql in [
        "CREATE TABLE t (a INTEGER, b VARCHAR, f DOUBLE)",
        "INSERT INTO t VALUES (1, 'x', 0.0), (2, 'y', -0.0), (3, NULL, 1.5), (NULL, 'z', NULL)",
        "CREATE TABLE u (a INTEGER, c INTEGER)",
        "INSERT INTO u VALUES (1, 10), (2, 20), (2, 21), (4, 40)",
        "CREATE TABLE empty_t (a INTEGER)",
        "CREATE INDEX ON t (f)",
        "CREATE INDEX ON t (a)",
    ] {
        db.execute(sql).unwrap();
    }
    db
}

fn ints(db: &Database, sql: &str) -> Vec<Option<i64>> {
    db.query(sql)
        .unwrap_or_else(|e| panic!("{sql}: {e}"))
        .rows
        .iter()
        .map(|r| match r.get(0) {
            Value::Int(i) => Some(*i),
            Value::Null => None,
            other => panic!("{sql}: not an integer: {other}"),
        })
        .collect()
}

/// The documented tightening: an unknown or ambiguous column is an error
/// when the statement is compiled — with the message it always had — also
/// where no row would ever have reached the expression.
#[test]
fn binding_errors_are_reported_at_compile_time() {
    let db = db();
    for (sql, message) in [
        ("SELECT nope FROM t", "bind error: unknown column 'nope'"),
        (
            "SELECT t.nope FROM t",
            "bind error: unknown column 't.nope'",
        ),
        ("SELECT x.a FROM t", "bind error: unknown column 'x.a'"),
        ("SELECT a FROM t, u", "bind error: ambiguous column 'a'"),
        // … over an empty table (no row reaches the filter) …
        (
            "SELECT a FROM empty_t WHERE nope = 1",
            "bind error: unknown column 'nope'",
        ),
        // … in a CASE branch never taken, a short-circuited operand …
        (
            "SELECT CASE WHEN 1 = 1 THEN a ELSE nope END FROM t",
            "bind error: unknown column 'nope'",
        ),
        (
            "SELECT a FROM t WHERE FALSE AND nope = 1",
            "bind error: unknown column 'nope'",
        ),
        // … in a subquery no outer row evaluates, in ORDER BY, in an ON clause
        // that may only see the tables joined so far.
        (
            "SELECT a FROM empty_t WHERE EXISTS (SELECT 1 FROM u WHERE u.nope = empty_t.a)",
            "bind error: unknown column 'u.nope'",
        ),
        (
            "SELECT a FROM t ORDER BY nope",
            "bind error: unknown column 'nope'",
        ),
        (
            "SELECT t.a FROM t JOIN u ON t.a = w.a JOIN u AS w ON w.a = u.a",
            "bind error: unknown column 'w.a'",
        ),
    ] {
        let err = db.query(sql).unwrap_err();
        assert!(matches!(err, Error::Bind(_)), "{sql}: {err:?}");
        assert_eq!(err.to_string(), message, "{sql}");
        assert_eq!(db.explain(sql).unwrap_err().to_string(), message, "{sql}");
    }
    // DML binds the same way.
    let mut db = db;
    let err = db.execute("UPDATE empty_t SET a = nope").unwrap_err();
    assert_eq!(err.to_string(), "bind error: unknown column 'nope'");
    let err = db
        .execute("DELETE FROM empty_t WHERE nope = 1")
        .unwrap_err();
    assert_eq!(err.to_string(), "bind error: unknown column 'nope'");
    // Run-time failures stay run-time failures: no row, no error.
    assert!(db
        .query("SELECT a FROM empty_t WHERE 'a' = 1")
        .unwrap()
        .is_empty());
    assert!(db.query("SELECT 1 / 0 FROM empty_t").unwrap().is_empty());
}

/// ORDER BY knows an unaliased expression as `col1` wherever it stands, the
/// output names it `col<position>`: past position 1 the key names no output
/// column. That is a bind error (lower-cased, as always), raised where it
/// always was — after the body ran, in ORDER BY order — and never a panic.
#[test]
fn order_by_col1_that_no_output_column_carries() {
    let mut db = db();
    db.execute("CREATE TABLE c (col1 INTEGER, x INTEGER)")
        .unwrap();
    db.execute("INSERT INTO c VALUES (2, 1), (1, 2)").unwrap();
    let unknown = "bind error: unknown column 'col1'";
    for (sql, message) in [
        ("SELECT b, a + 1 FROM t ORDER BY col1", unknown),
        ("SELECT *, 1 FROM t ORDER BY col1", unknown),
        ("SELECT a, a + 1 FROM t ORDER BY COL1", unknown),
        ("SELECT a, a + 1 FROM empty_t ORDER BY col1", unknown),
        // The expression hides the source column of that name.
        ("SELECT x, x + 1 FROM c ORDER BY col1", unknown),
        // The body's own failure comes first; then the keys, in order.
        (
            "SELECT a, 1 / 0 FROM t ORDER BY col1",
            "eval error: division by zero",
        ),
        ("SELECT a, a + 1 FROM t ORDER BY col1, 5", unknown),
        (
            "SELECT a, a + 1 FROM t ORDER BY 5, col1",
            "bind error: ORDER BY ordinal 5 out of range 1..=2",
        ),
    ] {
        assert_eq!(db.query(sql).unwrap_err().to_string(), message, "{sql}");
    }
    // Where an output column does carry the name, it is the key.
    assert_eq!(
        ints(&db, "SELECT a + 1 FROM t ORDER BY col1 DESC"),
        vec![Some(4), Some(3), Some(2), None]
    );
    assert_eq!(
        ints(&db, "SELECT *, 1 FROM c ORDER BY col1"),
        [Some(1), Some(2)]
    );
    assert_eq!(
        ints(&db, "SELECT x, 1 + 1, col1 FROM c ORDER BY col1"),
        [Some(2), Some(1)]
    );
}

/// An inner binding shadows an outer one of the same name; a name the inner
/// scopes do not have resolves one, two scopes out.
#[test]
fn scopes_shadow_and_nest() {
    let db = db();
    // `t` inside the subquery is the inner `u AS t`: `t.c` exists only there,
    // and `t.a` means the inner table's `a`.
    assert_eq!(
        ints(
            &db,
            "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u AS t WHERE t.c = 40 AND t.a = 4) ORDER BY 1"
        ),
        vec![None, Some(1), Some(2), Some(3)],
        "uncorrelated: the inner t shadows the outer one"
    );
    // `b` exists only in the outer `t`, so it resolves there although an
    // inner binding is also called `t`.
    assert_eq!(
        ints(
            &db,
            "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u AS t WHERE t.a = 2 AND t.b = 'y') ORDER BY 1"
        ),
        vec![Some(2)],
    );
    // Depth 2: the innermost subquery reads the outermost row.
    assert_eq!(
        ints(
            &db,
            "SELECT a FROM t AS o WHERE EXISTS (SELECT 1 FROM u WHERE u.a = o.a AND EXISTS \
             (SELECT 1 FROM u AS w WHERE w.c = u.c + 1 AND w.a = o.a)) ORDER BY 1"
        ),
        vec![Some(2)],
    );
    // The same through a scalar subquery in the projection.
    assert_eq!(
        ints(
            &db,
            "SELECT (SELECT COUNT(*) FROM u WHERE u.a = o.a AND u.c > \
             (SELECT MIN(w.c) FROM u AS w WHERE w.a = o.a)) FROM t AS o ORDER BY o.a"
        ),
        vec![Some(0), Some(0), Some(1), Some(0)],
    );
}

/// Three-valued logic on the borrowed comparison path.
#[test]
fn three_valued_logic_on_stored_values() {
    let db = db();
    assert_eq!(ints(&db, "SELECT a FROM t WHERE NULL = a"), vec![]);
    assert_eq!(
        ints(&db, "SELECT a FROM t WHERE a = NULL OR a = 1"),
        vec![Some(1)]
    );
    assert_eq!(
        ints(&db, "SELECT a FROM t WHERE b <> 'x' ORDER BY 1"),
        vec![None, Some(2)]
    );
    // NOT IN with a NULL in the list is never true …
    assert_eq!(
        ints(&db, "SELECT a FROM t WHERE a NOT IN (1, NULL)"),
        vec![]
    );
    // … and without one, NULL needles still drop out.
    assert_eq!(
        ints(&db, "SELECT a FROM t WHERE a NOT IN (1, 2)"),
        vec![Some(3)]
    );
    assert_eq!(
        ints(
            &db,
            "SELECT a FROM t WHERE a NOT IN (SELECT a FROM u) ORDER BY 1"
        ),
        vec![Some(3)]
    );
    // Text against integer is still the type-mismatch error, from a stored
    // value as from a literal.
    for sql in [
        "SELECT a FROM t WHERE b = 1",
        "SELECT a FROM u WHERE c = 'x'",
    ] {
        let err = db.query(sql).unwrap_err();
        assert!(matches!(err, Error::Eval(_)), "{sql}: {err:?}");
        assert!(err.to_string().contains("type mismatch"), "{sql}: {err}");
    }
    assert_eq!(
        db.query("SELECT a FROM t WHERE b = 1")
            .unwrap_err()
            .to_string(),
        "eval error: cannot compare 'x' with 1 (type mismatch)"
    );
}

/// Index keys tell `-0.0` from `0.0`, SQL `=` does not: a zero that may meet a
/// FLOAT column scans instead of probing — decided on the literal, at compile
/// time now.
#[test]
fn a_zero_against_a_float_column_scans() {
    let db = db();
    for (predicate, probes, rows) in [
        ("f = 0", 0, vec![Some(1), Some(2)]),
        ("f = -0.0", 0, vec![Some(1), Some(2)]),
        ("f = 0.0", 0, vec![Some(1), Some(2)]),
        ("f IN (1.5, 0)", 0, vec![Some(1), Some(2), Some(3)]),
        ("f = 1.5", 1, vec![Some(3)]),
        ("f IN (1.5, 7)", 2, vec![Some(3)]),
        // An INTEGER column has one zero: probed.
        ("a = 0", 1, vec![]),
    ] {
        let sql = format!("SELECT a FROM t WHERE {predicate} ORDER BY 1");
        let (rs, stats) = db.query_with_stats(&sql).unwrap();
        assert_eq!(stats.index_probes, probes, "{sql}");
        assert_eq!(ints(&db, &sql), rows, "{sql}");
        assert_eq!(rs.len(), rows.len());
        let plan = db.explain(&sql).unwrap();
        assert_eq!(plan.contains("IndexScan"), probes > 0, "{sql}: {plan}");
    }
}

/// UPDATE / DELETE take their index probe from the AND operands of the one
/// compiled predicate, however the ANDs nest: only the candidates are
/// visited, so a conjunct that would fail on any row fails on none. The
/// column `u.a` has no index: every row is visited and the first one fails.
#[test]
fn dml_probes_an_index_named_by_any_conjunct() {
    let mut db = db();
    let mismatch = "eval error: cannot compare 'a' with 1 (type mismatch)";
    for predicate in [
        "'a' = 1 AND a = 99",
        "('a' = 1 AND a > 100) AND a IN (98, 99)",
        "'a' = 1 AND (a > 100 AND (99 = a AND a < 0))",
    ] {
        for (indexed, scanned) in [
            ("UPDATE t SET b = 'q'", "UPDATE u SET c = 0"),
            ("DELETE FROM t", "DELETE FROM u"),
        ] {
            let sql = format!("{indexed} WHERE {predicate}");
            db.execute(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            let sql = format!("{scanned} WHERE {predicate}");
            assert_eq!(db.execute(&sql).unwrap_err().to_string(), mismatch, "{sql}");
        }
    }
    // An OR is no conjunct: scanned, and the mismatch is met.
    let err = db
        .execute("DELETE FROM t WHERE a = 99 OR 'a' = 1")
        .unwrap_err();
    assert_eq!(err.to_string(), mismatch);
    assert_eq!(db.query("SELECT * FROM t").unwrap().len(), 4);
}

#[test]
fn recursion_limit_and_union_mixing() {
    let mut db = db();
    db.execute("CREATE TABLE e (src INTEGER, dst INTEGER)")
        .unwrap();
    db.execute("INSERT INTO e VALUES (0, 1), (1, 0)").unwrap();
    db.config.recursion_limit = 9;
    let cycle = "WITH RECURSIVE r (n) AS (SELECT 0 UNION ALL \
                 SELECT e.dst FROM r JOIN e ON r.n = e.src) SELECT n FROM r";
    assert_eq!(db.query(cycle).unwrap_err(), Error::RecursionLimit(9));
    // UNION closes the cycle: two productive rounds and the empty one.
    let (rs, stats) = db
        .query_with_stats(&cycle.replace("UNION ALL", "UNION"))
        .unwrap();
    assert_eq!((rs.len(), stats.recursion_iterations), (2, 2));
    let mixed = "WITH RECURSIVE r (n) AS (SELECT 0 UNION SELECT 1 UNION ALL \
                 SELECT e.dst FROM r JOIN e ON r.n = e.src) SELECT n FROM r";
    assert_eq!(
        db.query(mixed).unwrap_err().to_string(),
        "bind error: recursive CTE mixes UNION and UNION ALL"
    );
}

/// A recursive term that yields only rows the CTE already holds adds nothing
/// to the delta: the iteration stops where it always did.
#[test]
fn duplicate_only_rounds_terminate() {
    let db = db();
    let (rs, stats) = db
        .query_with_stats(
            "WITH RECURSIVE r (n) AS (SELECT 2 UNION SELECT 3 UNION \
             SELECT 4 - (n - n) FROM r WHERE n < 4 UNION SELECT 2 FROM r) \
             SELECT n FROM r ORDER BY 1",
        )
        .unwrap();
    let got: Vec<_> = rs.rows.iter().map(|r| r.get(0).clone()).collect();
    assert_eq!(got, vec![Value::Int(2), Value::Int(3), Value::Int(4)]);
    // Round 1 turns {2, 3} into {4}; round 2 finds only duplicates.
    assert_eq!(stats.recursion_iterations, 2);
    // Only duplicates from the start: one round.
    let (rs, stats) = db
        .query_with_stats(
            "WITH RECURSIVE r (n) AS (SELECT 1 UNION SELECT n FROM r) SELECT n FROM r",
        )
        .unwrap();
    assert_eq!((rs.len(), stats.recursion_iterations), (1, 1));
}
