#![allow(clippy::unwrap_used)]

//! Broad SQL-surface coverage: every feature the engine exposes, exercised
//! through SQL text on small fixtures with hand-computed expectations.

mod common;

use pdm_sql::{Database, DmlOutcome, Error, ExecOutcome, Value};

fn fixture() -> Database {
    let mut db = Database::new();
    db.execute(
        "CREATE TABLE part (id INTEGER NOT NULL, name VARCHAR, kind VARCHAR, \
         weight DOUBLE, qty INTEGER)",
    )
    .unwrap();
    let rows = [
        (1, "bolt", "fastener", 0.05, 100),
        (2, "nut", "fastener", 0.03, 200),
        (3, "panel", "body", 12.5, 4),
        (4, "door", "body", 25.0, 2),
        (5, "engine", "power", 180.0, 1),
        (6, "washer", "fastener", 0.01, 500),
    ];
    for (id, name, kind, weight, qty) in rows {
        db.execute(&format!(
            "INSERT INTO part VALUES ({id}, '{name}', '{kind}', {weight}, {qty})"
        ))
        .unwrap();
    }
    db.execute("CREATE TABLE bin (part_id INTEGER, shelf VARCHAR)")
        .unwrap();
    for (pid, shelf) in [(1, "A"), (2, "A"), (3, "B"), (5, "C")] {
        db.execute(&format!("INSERT INTO bin VALUES ({pid}, '{shelf}')"))
            .unwrap();
    }
    db
}

fn int(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i,
        other => panic!("expected int, got {other}"),
    }
}

fn f64_of(v: &Value) -> f64 {
    match v {
        Value::Float(f) => *f,
        Value::Int(i) => *i as f64,
        other => panic!("expected number, got {other}"),
    }
}

#[test]
fn group_by_with_aggregates() {
    let db = fixture();
    let rs = db
        .query(
            "SELECT kind, COUNT(*) AS n, SUM(qty) AS total, MIN(weight) AS lightest \
             FROM part GROUP BY kind ORDER BY kind",
        )
        .unwrap();
    assert_eq!(rs.len(), 3);
    assert_eq!(rs.schema.names(), vec!["kind", "n", "total", "lightest"]);
    // body: 2 parts, qty 6, min weight 12.5
    assert_eq!(rs.rows[0].get(0), &Value::Text("body".into()));
    assert_eq!(int(rs.rows[0].get(1)), 2);
    assert_eq!(int(rs.rows[0].get(2)), 6);
    assert!((f64_of(rs.rows[0].get(3)) - 12.5).abs() < 1e-9);
    // fastener: 3 parts, qty 800
    assert_eq!(int(rs.rows[1].get(1)), 3);
    assert_eq!(int(rs.rows[1].get(2)), 800);
}

#[test]
fn having_filters_groups() {
    let db = fixture();
    let rs = db
        .query("SELECT kind FROM part GROUP BY kind HAVING COUNT(*) >= 2 ORDER BY kind")
        .unwrap();
    assert_eq!(rs.len(), 2); // body, fastener
}

#[test]
fn global_aggregates_and_empty_input() {
    let db = fixture();
    let rs = db
        .query("SELECT COUNT(*), AVG(weight), MAX(qty) FROM part")
        .unwrap();
    assert_eq!(int(rs.rows[0].get(0)), 6);
    assert!((f64_of(rs.rows[0].get(1)) - 36.265).abs() < 1e-3);
    assert_eq!(int(rs.rows[0].get(2)), 500);

    // empty input: COUNT = 0, others NULL
    let rs = db
        .query("SELECT COUNT(*), SUM(qty), AVG(weight) FROM part WHERE id > 99")
        .unwrap();
    assert_eq!(rs.len(), 1);
    assert_eq!(int(rs.rows[0].get(0)), 0);
    assert!(rs.rows[0].get(1).is_null());
    assert!(rs.rows[0].get(2).is_null());
}

#[test]
fn count_skips_nulls_but_count_star_does_not() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (x INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (NULL), (3), (NULL)")
        .unwrap();
    let rs = db
        .query("SELECT COUNT(*), COUNT(x), SUM(x) FROM t")
        .unwrap();
    assert_eq!(int(rs.rows[0].get(0)), 4);
    assert_eq!(int(rs.rows[0].get(1)), 2);
    assert_eq!(int(rs.rows[0].get(2)), 4);
}

#[test]
fn left_join_pads_unmatched() {
    let db = fixture();
    let rs = db
        .query(
            "SELECT part.name, bin.shelf FROM part LEFT JOIN bin \
             ON part.id = bin.part_id ORDER BY 1",
        )
        .unwrap();
    assert_eq!(rs.len(), 6);
    let shelves = rs.column_values("shelf").unwrap();
    let nulls = shelves.iter().filter(|v| v.is_null()).count();
    assert_eq!(nulls, 2); // door, washer unbinned
}

#[test]
fn inner_join_with_post_filter() {
    let db = fixture();
    let rs = db
        .query(
            "SELECT part.name FROM part JOIN bin ON part.id = bin.part_id \
             WHERE bin.shelf = 'A' ORDER BY 1",
        )
        .unwrap();
    assert_eq!(
        rs.column_values("name").unwrap(),
        vec![Value::Text("bolt".into()), Value::Text("nut".into())]
    );
}

#[test]
fn cross_join_via_comma() {
    let db = fixture();
    let rs = db.query("SELECT COUNT(*) FROM part, bin").unwrap();
    assert_eq!(int(rs.rows[0].get(0)), 24);
}

#[test]
fn derived_tables() {
    let db = fixture();
    let rs = db
        .query(
            "SELECT d.kind, d.n FROM \
             (SELECT kind, COUNT(*) AS n FROM part GROUP BY kind) AS d \
             WHERE d.n > 1 ORDER BY 1",
        )
        .unwrap();
    assert_eq!(rs.len(), 2);
}

#[test]
fn scalar_subquery_in_projection_and_where() {
    let db = fixture();
    let rs = db
        .query("SELECT name FROM part WHERE weight > (SELECT AVG(weight) FROM part)")
        .unwrap();
    assert_eq!(rs.len(), 1); // engine (180 > 36.265)
    let rs = db
        .query("SELECT name, (SELECT MAX(qty) FROM part) AS peak FROM part WHERE id = 1")
        .unwrap();
    assert_eq!(int(rs.rows[0].get(1)), 500);
}

#[test]
fn correlated_exists_and_not_exists() {
    let db = fixture();
    let rs = db
        .query(
            "SELECT name FROM part WHERE EXISTS \
             (SELECT * FROM bin WHERE bin.part_id = part.id) ORDER BY 1",
        )
        .unwrap();
    assert_eq!(rs.len(), 4);
    let rs = db
        .query(
            "SELECT name FROM part WHERE NOT EXISTS \
             (SELECT * FROM bin WHERE bin.part_id = part.id) ORDER BY 1",
        )
        .unwrap();
    assert_eq!(
        rs.column_values("name").unwrap(),
        vec![Value::Text("door".into()), Value::Text("washer".into())]
    );
}

#[test]
fn correlated_exists_decorrelates_to_semijoin() {
    let db = fixture();
    let (rs, stats) = common::query_with_stats(
        &db,
        "SELECT name FROM part WHERE EXISTS \
             (SELECT * FROM bin WHERE bin.part_id = part.id)",
    )
    .unwrap();
    assert_eq!(rs.len(), 4);
    assert_eq!(stats.decorrelated_semijoins, 1);
    // inner query ran at most twice (detection + set build), not once per row
    assert!(
        stats.subquery_evals <= 2,
        "evals = {}",
        stats.subquery_evals
    );
}

#[test]
fn in_subquery_and_not_in() {
    let db = fixture();
    let rs = db
        .query("SELECT name FROM part WHERE id IN (SELECT part_id FROM bin) ORDER BY 1")
        .unwrap();
    assert_eq!(rs.len(), 4);
    let rs = db
        .query("SELECT name FROM part WHERE id NOT IN (SELECT part_id FROM bin) ORDER BY 1")
        .unwrap();
    assert_eq!(rs.len(), 2);
}

#[test]
fn not_in_with_null_in_set_is_empty() {
    let mut db = fixture();
    db.execute("INSERT INTO bin VALUES (NULL, 'Z')").unwrap();
    // NOT IN against a set containing NULL is never true (three-valued logic)
    let rs = db
        .query("SELECT name FROM part WHERE id NOT IN (SELECT part_id FROM bin)")
        .unwrap();
    assert!(rs.is_empty());
}

#[test]
fn distinct_and_order_and_limit() {
    let db = fixture();
    let rs = db
        .query("SELECT DISTINCT kind FROM part ORDER BY 1")
        .unwrap();
    assert_eq!(rs.len(), 3);
    let rs = db
        .query("SELECT name FROM part ORDER BY weight DESC LIMIT 2")
        .unwrap();
    assert_eq!(
        rs.column_values("name").unwrap(),
        vec![Value::Text("engine".into()), Value::Text("door".into())]
    );
}

#[test]
fn order_by_output_column_name() {
    let db = fixture();
    let rs = db
        .query("SELECT name AS n, qty FROM part ORDER BY qty DESC LIMIT 1")
        .unwrap();
    assert_eq!(rs.rows[0].get(0), &Value::Text("washer".into()));
}

#[test]
fn case_expression_in_projection() {
    let db = fixture();
    let rs = db
        .query(
            "SELECT name, CASE WHEN weight > 100 THEN 'heavy' \
             WHEN weight > 1 THEN 'medium' ELSE 'light' END AS class \
             FROM part ORDER BY id",
        )
        .unwrap();
    let classes = rs.column_values("class").unwrap();
    assert_eq!(classes[0], Value::Text("light".into())); // bolt
    assert_eq!(classes[2], Value::Text("medium".into())); // panel
    assert_eq!(classes[4], Value::Text("heavy".into())); // engine
}

#[test]
fn views_compose_with_queries() {
    let mut db = fixture();
    db.execute("CREATE VIEW fasteners AS SELECT * FROM part WHERE kind = 'fastener'")
        .unwrap();
    let rs = db.query("SELECT COUNT(*) FROM fasteners").unwrap();
    assert_eq!(int(rs.rows[0].get(0)), 3);
    // view joined with a base table
    let rs = db
        .query(
            "SELECT fasteners.name FROM fasteners JOIN bin \
             ON fasteners.id = bin.part_id ORDER BY 1",
        )
        .unwrap();
    assert_eq!(rs.len(), 2);
    // view of a view
    db.execute("CREATE VIEW light_fasteners AS SELECT * FROM fasteners WHERE weight < 0.04")
        .unwrap();
    let rs = db.query("SELECT COUNT(*) FROM light_fasteners").unwrap();
    assert_eq!(int(rs.rows[0].get(0)), 2);
}

#[test]
fn union_of_different_tables_homogenized() {
    let db = fixture();
    let rs = db
        .query(
            "SELECT name AS label FROM part WHERE kind = 'power' \
             UNION SELECT shelf FROM bin ORDER BY 1",
        )
        .unwrap();
    // engine + shelves A, B, C (deduped)
    assert_eq!(rs.len(), 4);
}

#[test]
fn between_and_in_list_filters() {
    let db = fixture();
    let rs = db
        .query("SELECT name FROM part WHERE qty BETWEEN 2 AND 100 ORDER BY 1")
        .unwrap();
    assert_eq!(rs.len(), 3); // bolt 100, panel 4, door 2
    let rs = db
        .query("SELECT name FROM part WHERE kind IN ('body', 'power') ORDER BY 1")
        .unwrap();
    assert_eq!(rs.len(), 3);
}

#[test]
fn string_concat_and_functions() {
    let db = fixture();
    let rs = db
        .query("SELECT UPPER(name) || '-' || kind AS tag FROM part WHERE id = 1")
        .unwrap();
    assert_eq!(rs.rows[0].get(0), &Value::Text("BOLT-fastener".into()));
}

#[test]
fn arithmetic_in_projection_and_where() {
    let db = fixture();
    let rs = db
        .query(
            "SELECT name, weight * qty AS total_weight FROM part \
                WHERE weight * qty > 100 ORDER BY 2 DESC",
        )
        .unwrap();
    assert_eq!(rs.rows[0].get(0), &Value::Text("engine".into()));
}

#[test]
fn delete_and_drop() {
    let mut db = fixture();
    let out = db.execute("DELETE FROM bin WHERE shelf = 'A'").unwrap();
    assert_eq!(out, ExecOutcome::Dml(DmlOutcome::Deleted(2)));
    let rs = db.query("SELECT COUNT(*) FROM bin").unwrap();
    assert_eq!(int(rs.rows[0].get(0)), 2);
    db.execute("DROP TABLE bin").unwrap();
    assert!(matches!(db.query("SELECT * FROM bin"), Err(Error::Bind(_))));
}

#[test]
fn update_with_arithmetic_and_predicate() {
    let mut db = fixture();
    db.execute("UPDATE part SET qty = qty * 2 WHERE kind = 'fastener'")
        .unwrap();
    let rs = db
        .query("SELECT SUM(qty) FROM part WHERE kind = 'fastener'")
        .unwrap();
    assert_eq!(int(rs.rows[0].get(0)), 1600);
}

#[test]
fn multi_cte_with_clause() {
    let db = fixture();
    let rs = db
        .query(
            "WITH heavy AS (SELECT * FROM part WHERE weight > 10), \
                  binned AS (SELECT part_id FROM bin) \
             SELECT heavy.name FROM heavy \
             WHERE heavy.id IN (SELECT part_id FROM binned) ORDER BY 1",
        )
        .unwrap();
    assert_eq!(
        rs.column_values("name").unwrap(),
        vec![Value::Text("engine".into()), Value::Text("panel".into())]
    );
}

#[test]
fn cte_referencing_earlier_cte() {
    let db = fixture();
    let rs = db
        .query(
            "WITH f AS (SELECT * FROM part WHERE kind = 'fastener'), \
                  cheap AS (SELECT * FROM f WHERE weight < 0.04) \
             SELECT COUNT(*) FROM cheap",
        )
        .unwrap();
    assert_eq!(int(rs.rows[0].get(0)), 2);
}

#[test]
fn recursive_cte_union_all_counts_paths() {
    // A small DAG where node 3 is reachable via two paths: UNION ALL keeps
    // both derivations, UNION collapses them.
    let mut db = Database::new();
    db.execute("CREATE TABLE e (src INTEGER, dst INTEGER)")
        .unwrap();
    for (a, b) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
        db.execute(&format!("INSERT INTO e VALUES ({a}, {b})"))
            .unwrap();
    }
    let rs = db
        .query(
            "WITH RECURSIVE r (n) AS (SELECT 0 UNION ALL \
             SELECT e.dst FROM r JOIN e ON r.n = e.src) SELECT n FROM r",
        )
        .unwrap();
    assert_eq!(rs.len(), 5); // 0, 1, 2, 3, 3
    let rs = db
        .query(
            "WITH RECURSIVE r (n) AS (SELECT 0 UNION \
             SELECT e.dst FROM r JOIN e ON r.n = e.src) SELECT n FROM r",
        )
        .unwrap();
    assert_eq!(rs.len(), 4);
}

#[test]
fn recursive_cycle_terminates_with_union_and_errors_with_all() {
    let mut db = Database::new();
    db.execute("CREATE TABLE e (src INTEGER, dst INTEGER)")
        .unwrap();
    db.execute("INSERT INTO e VALUES (0, 1), (1, 0)").unwrap();
    // UNION dedup closes the cycle
    let rs = db
        .query(
            "WITH RECURSIVE r (n) AS (SELECT 0 UNION \
             SELECT e.dst FROM r JOIN e ON r.n = e.src) SELECT n FROM r ORDER BY 1",
        )
        .unwrap();
    assert_eq!(rs.len(), 2);
    // UNION ALL on a cycle hits the iteration guard
    let mut db2 = Database::new();
    db2.config.recursion_limit = 50;
    db2.execute("CREATE TABLE e (src INTEGER, dst INTEGER)")
        .unwrap();
    db2.execute("INSERT INTO e VALUES (0, 1), (1, 0)").unwrap();
    let err = db2
        .query(
            "WITH RECURSIVE r (n) AS (SELECT 0 UNION ALL \
             SELECT e.dst FROM r JOIN e ON r.n = e.src) SELECT n FROM r",
        )
        .unwrap_err();
    assert!(matches!(err, Error::RecursionLimit(50)));
}

#[test]
fn error_reporting_quality() {
    let db = fixture();
    // unknown column names the column
    let err = db.query("SELECT nope FROM part").unwrap_err();
    assert!(err.to_string().contains("nope"));
    // unknown table names the table
    let err = db.query("SELECT * FROM missing").unwrap_err();
    assert!(err.to_string().contains("missing"));
    // ambiguous column reported as such
    let err = db
        .query("SELECT id FROM part JOIN part AS p2 ON part.id = p2.id")
        .unwrap_err();
    assert!(err.to_string().contains("ambiguous"));
    // scalar subquery with two rows
    let err = db
        .query("SELECT (SELECT id FROM part WHERE kind = 'body') FROM part")
        .unwrap_err();
    assert!(err.to_string().contains("2 rows"));
    // union arity mismatch
    let err = db
        .query("SELECT id FROM part UNION SELECT id, name FROM part")
        .unwrap_err();
    assert!(err.to_string().contains("arity"));
}

#[test]
fn self_join_with_aliases() {
    let db = fixture();
    let rs = db
        .query(
            "SELECT a.name, b.name FROM part AS a JOIN part AS b \
             ON a.kind = b.kind WHERE a.id < b.id ORDER BY 1, 2",
        )
        .unwrap();
    // fastener pairs: (bolt,nut), (bolt,washer), (nut,washer); body: (panel,door)
    assert_eq!(rs.len(), 4);
}

#[test]
fn is_null_filters() {
    let db = fixture();
    let rs = db
        .query(
            "SELECT part.name FROM part LEFT JOIN bin ON part.id = bin.part_id \
             WHERE bin.shelf IS NULL ORDER BY 1",
        )
        .unwrap();
    assert_eq!(rs.len(), 2);
}

#[test]
fn insert_multi_row_and_select_star_shapes() {
    let mut db = fixture();
    let out = db
        .execute("INSERT INTO bin VALUES (4, 'D'), (6, 'D')")
        .unwrap();
    assert_eq!(out, ExecOutcome::Dml(DmlOutcome::Inserted(2)));
    let rs = db.query("SELECT * FROM bin WHERE shelf = 'D'").unwrap();
    assert_eq!(rs.schema.names(), vec!["part_id", "shelf"]);
    assert_eq!(rs.len(), 2);
}

#[test]
fn qualified_wildcard_projection() {
    let db = fixture();
    let rs = db
        .query(
            "SELECT bin.*, part.name FROM part JOIN bin ON part.id = bin.part_id \
             WHERE bin.shelf = 'C'",
        )
        .unwrap();
    assert_eq!(rs.schema.names(), vec!["part_id", "shelf", "name"]);
    assert_eq!(rs.rows[0].get(2), &Value::Text("engine".into()));
}

#[test]
fn aggregate_of_expression_and_group_by_expression() {
    let db = fixture();
    let rs = db
        .query("SELECT SUM(weight * qty) FROM part WHERE kind = 'fastener'")
        .unwrap();
    // 0.05*100 + 0.03*200 + 0.01*500 = 5 + 6 + 5 = 16
    assert!((f64_of(rs.rows[0].get(0)) - 16.0).abs() < 1e-9);
}

#[test]
fn like_pattern_matching() {
    let db = fixture();
    let rs = db
        .query("SELECT name FROM part WHERE name LIKE '%ol%' ORDER BY 1")
        .unwrap();
    assert_eq!(rs.len(), 1); // bolt
    let rs = db
        .query("SELECT name FROM part WHERE name LIKE '_ut' ORDER BY 1")
        .unwrap();
    assert_eq!(
        rs.column_values("name").unwrap(),
        vec![Value::Text("nut".into())]
    );
    let rs = db
        .query("SELECT COUNT(*) FROM part WHERE kind NOT LIKE 'fast%'")
        .unwrap();
    assert_eq!(int(rs.rows[0].get(0)), 3);
    // NULL propagates
    let mut db2 = pdm_sql::Database::new();
    db2.execute("CREATE TABLE t (s VARCHAR)").unwrap();
    db2.execute("INSERT INTO t VALUES (NULL)").unwrap();
    let rs = db2.query("SELECT * FROM t WHERE s LIKE '%'").unwrap();
    assert!(rs.is_empty());
}

#[test]
fn like_edge_patterns() {
    use pdm_sql::exec::expr::like_match;
    assert!(like_match("", ""));
    assert!(like_match("", "%"));
    assert!(!like_match("", "_"));
    assert!(like_match("abc", "abc"));
    assert!(like_match("abc", "a%"));
    assert!(like_match("abc", "%c"));
    assert!(like_match("abc", "a_c"));
    assert!(like_match("abc", "%%%"));
    assert!(!like_match("abc", "a_"));
    assert!(like_match("aXbXc", "a%b%c"));
    assert!(!like_match("abc", "abcd%e"));
    assert!(like_match("N00000012", "N0000001_"));
}

#[test]
fn results_invariant_under_executor_ablations() {
    // Flipping the optimizer switches must never change results — only how
    // they are computed (the ablation binaries rely on this).
    let queries = [
        "SELECT name FROM part WHERE EXISTS (SELECT * FROM bin WHERE bin.part_id = part.id) ORDER BY 1",
        "SELECT kind, COUNT(*) AS n FROM part GROUP BY kind ORDER BY 1",
        "SELECT part.name FROM part JOIN bin ON part.id = bin.part_id WHERE bin.shelf = 'A' ORDER BY 1",
        "SELECT name FROM part WHERE weight > (SELECT AVG(weight) FROM part) ORDER BY 1",
    ];
    let reference = fixture();
    for (cache, semijoin, pushdown) in [
        (false, true, true),
        (true, false, true),
        (true, true, false),
        (false, false, false),
    ] {
        let mut db = fixture();
        db.config.subquery_cache = cache;
        db.config.semijoin_decorrelation = semijoin;
        db.config.index_pushdown = pushdown;
        for q in queries {
            assert_eq!(
                reference.query(q).unwrap().rows,
                db.query(q).unwrap().rows,
                "ablation ({cache},{semijoin},{pushdown}) changed results of {q}"
            );
        }
    }
}
