#![allow(clippy::unwrap_used)]

//! End-to-end engine tests against the paper's worked example (Figures 2
//! and 3) and the §5.3 condition queries, using the exact SQL printed in the
//! paper (modulo whitespace).

mod common;

use pdm_sql::{Database, Value};

/// Build the tables of Figure 2: 8 assemblies, 7 components, 8 links, and
/// (for §5.3.2) specifications with a `specified_by` relation.
fn figure2_db() -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE assy (type VARCHAR NOT NULL, obid INTEGER NOT NULL, name VARCHAR, dec VARCHAR)")
        .unwrap();
    db.execute("CREATE TABLE comp (type VARCHAR NOT NULL, obid INTEGER NOT NULL, name VARCHAR)")
        .unwrap();
    db.execute(
        "CREATE TABLE link (type VARCHAR NOT NULL, obid INTEGER NOT NULL, left INTEGER, right INTEGER, \
         eff_from INTEGER, eff_to INTEGER)",
    )
    .unwrap();
    db.execute("CREATE TABLE spec (type VARCHAR NOT NULL, obid INTEGER NOT NULL, name VARCHAR)")
        .unwrap();
    db.execute("CREATE TABLE specified_by (obid INTEGER NOT NULL, left INTEGER, right INTEGER)")
        .unwrap();

    for i in 1..=8 {
        let dec = if i <= 4 { "+" } else { "-" };
        db.execute(&format!(
            "INSERT INTO assy VALUES ('assy', {i}, 'Assy{i}', '{dec}')"
        ))
        .unwrap();
    }
    for i in 1..=7 {
        db.execute(&format!(
            "INSERT INTO comp VALUES ('comp', {}, 'Comp{i}')",
            100 + i
        ))
        .unwrap();
    }
    let links = [
        (1001, 1, 2, 1, 3),
        (1002, 1, 3, 4, 10),
        (1003, 2, 4, 1, 10),
        (1004, 2, 5, 1, 10),
        (1005, 4, 101, 6, 10),
        (1006, 4, 102, 1, 5),
        (1007, 5, 103, 1, 10),
        (1008, 5, 104, 1, 10),
    ];
    for (obid, l, r, f, t) in links {
        db.execute(&format!(
            "INSERT INTO link VALUES ('link', {obid}, {l}, {r}, {f}, {t})"
        ))
        .unwrap();
    }
    // Specifications: components 101 and 103 are specified.
    db.execute("INSERT INTO spec VALUES ('spec', 9001, 'Spec-A'), ('spec', 9002, 'Spec-B')")
        .unwrap();
    db.execute("INSERT INTO specified_by VALUES (8001, 101, 9001), (8002, 103, 9002)")
        .unwrap();
    db
}

/// The §5.2 recursive query, verbatim.
const SECTION_5_2_QUERY: &str = r#"
WITH RECURSIVE rtbl (type, obid, name, dec) AS
(SELECT type, obid, name, dec
   FROM assy
  WHERE assy.obid = 1
 UNION
 SELECT assy.type, assy.obid, assy.name, assy.dec
   FROM rtbl JOIN link ON rtbl.obid=link.left
             JOIN assy ON link.right=assy.obid
 UNION
 SELECT comp.type, comp.obid, comp.name, ''
   FROM rtbl JOIN link ON rtbl.obid=link.left
             JOIN comp ON link.right=comp.obid
)
SELECT type, obid, name, dec AS "DEC",
       cast (NULL AS integer) AS "LEFT",
       cast (NULL AS integer) AS "RIGHT",
       cast (NULL AS integer) AS "EFF_FROM",
       cast (NULL AS integer) AS "EFF_TO"
  FROM rtbl
UNION
SELECT type, obid, '' AS "NAME", '' AS "DEC",
       left, right, eff_from, eff_to
  FROM link
 WHERE (left IN (SELECT obid FROM rtbl)
   AND right IN (SELECT obid FROM rtbl))
ORDER BY 1,2
"#;

#[test]
fn figure3_result_matches_paper() {
    let db = figure2_db();
    let rs = db.query(SECTION_5_2_QUERY).unwrap();

    // Figure 3: 5 assemblies (1,2,3,4,5), 4 components (101..104),
    // 8 links (1001..1008) — 17 rows total, ordered by (type, obid).
    assert_eq!(rs.len(), 17);

    let types = rs.column_values("type").unwrap();
    let obids = rs.column_values("obid").unwrap();
    let expected: Vec<(&str, i64)> = vec![
        ("assy", 1),
        ("assy", 2),
        ("assy", 3),
        ("assy", 4),
        ("assy", 5),
        ("comp", 101),
        ("comp", 102),
        ("comp", 103),
        ("comp", 104),
        ("link", 1001),
        ("link", 1002),
        ("link", 1003),
        ("link", 1004),
        ("link", 1005),
        ("link", 1006),
        ("link", 1007),
        ("link", 1008),
    ];
    for (i, (ty, id)) in expected.iter().enumerate() {
        assert_eq!(types[i], Value::Text(ty.to_string()), "row {i} type");
        assert_eq!(obids[i], Value::Int(*id), "row {i} obid");
    }

    // Spot-check the homogenized columns of Figure 3: assembly rows carry
    // NULL link fields, link rows carry NULL-ish name/dec and real
    // left/right/effectivity values.
    let schema_names = rs.schema.names();
    assert_eq!(
        schema_names,
        vec!["type", "obid", "name", "dec", "left", "right", "eff_from", "eff_to"]
    );
    let lefts = rs.column_values("left").unwrap();
    assert!(lefts[0].is_null()); // assy 1
    assert_eq!(lefts[9], Value::Int(1)); // link 1001
    let names = rs.column_values("name").unwrap();
    assert_eq!(names[0], Value::Text("Assy1".into()));
    assert_eq!(names[9], Value::Text("".into()));
}

#[test]
fn forall_rows_condition_empties_tree_when_violated() {
    // §5.3.1: all assemblies in the tree must be decomposable; Assy5 is not,
    // so the result is empty.
    let db = figure2_db();
    let sql = r#"
WITH RECURSIVE rtbl (type, obid, name, dec) AS
(SELECT type, obid, name, dec FROM assy WHERE assy.obid = 1
 UNION
 SELECT assy.type, assy.obid, assy.name, assy.dec
   FROM rtbl JOIN link ON rtbl.obid=link.left
             JOIN assy ON link.right=assy.obid
 UNION
 SELECT comp.type, comp.obid, comp.name, ''
   FROM rtbl JOIN link ON rtbl.obid=link.left
             JOIN comp ON link.right=comp.obid
)
SELECT type, obid, name, dec AS "DEC",
       cast (NULL AS integer) AS "LEFT",
       cast (NULL AS integer) AS "RIGHT",
       cast (NULL AS integer) AS "EFF_FROM",
       cast (NULL AS integer) AS "EFF_TO"
  FROM rtbl
 WHERE NOT EXISTS (SELECT * FROM rtbl
       WHERE (type='assy' AND dec!='+'))
UNION
SELECT type, obid, '' AS "NAME", '' AS "DEC",
       left, right, eff_from, eff_to
  FROM link
 WHERE (left IN (SELECT obid FROM rtbl)
   AND right IN (SELECT obid FROM rtbl))
   AND NOT EXISTS (SELECT * FROM rtbl
       WHERE (type='assy' AND dec!='+'))
ORDER BY 1,2
"#;
    let rs = db.query(sql).unwrap();
    assert!(rs.is_empty(), "Assy5 is not decomposable → empty result");
}

#[test]
fn forall_rows_condition_returns_all_when_satisfied() {
    // Same query over the subtree rooted at Assy4 (4 -> 101, 102): Assy4 is
    // decomposable, so the whole subtree comes back.
    let db = figure2_db();
    let sql = r#"
WITH RECURSIVE rtbl (type, obid, name, dec) AS
(SELECT type, obid, name, dec FROM assy WHERE assy.obid = 4
 UNION
 SELECT assy.type, assy.obid, assy.name, assy.dec
   FROM rtbl JOIN link ON rtbl.obid=link.left
             JOIN assy ON link.right=assy.obid
 UNION
 SELECT comp.type, comp.obid, comp.name, ''
   FROM rtbl JOIN link ON rtbl.obid=link.left
             JOIN comp ON link.right=comp.obid
)
SELECT type, obid FROM rtbl
 WHERE NOT EXISTS (SELECT * FROM rtbl WHERE (type='assy' AND dec!='+'))
ORDER BY 1,2
"#;
    let rs = db.query(sql).unwrap();
    assert_eq!(rs.len(), 3); // assy 4, comp 101, comp 102
}

#[test]
fn exists_structure_condition_filters_unspecified_components() {
    // §5.3.2: components are visible only if specified by a document.
    // In the Figure-2 tree only Comp1 (101) and Comp3 (103) are specified.
    let db = figure2_db();
    let sql = r#"
WITH RECURSIVE rtbl (type, obid, name, dec) AS
(SELECT type, obid, name, dec FROM assy WHERE assy.obid = 1
 UNION
 SELECT assy.type, assy.obid, assy.name, assy.dec
   FROM rtbl JOIN link ON rtbl.obid=link.left
             JOIN assy ON link.right=assy.obid
 UNION
 SELECT comp.type, comp.obid, comp.name, ''
   FROM rtbl JOIN link ON rtbl.obid=link.left
             JOIN comp ON link.right=comp.obid
  WHERE EXISTS (SELECT * FROM specified_by AS s JOIN spec
        ON s.right = spec.obid WHERE s.left = comp.obid)
)
SELECT type, obid FROM rtbl ORDER BY 1,2
"#;
    let rs = db.query(sql).unwrap();
    let obids = rs.column_values("obid").unwrap();
    assert_eq!(
        obids,
        vec![
            Value::Int(1),
            Value::Int(2),
            Value::Int(3),
            Value::Int(4),
            Value::Int(5),
            Value::Int(101),
            Value::Int(103),
        ]
    );
}

#[test]
fn tree_aggregate_condition_count_of_assemblies() {
    // §5.3.3: tree is returned only if it contains at most ten assemblies;
    // the example tree has five, so everything comes back.
    let db = figure2_db();
    let sql = r#"
WITH RECURSIVE rtbl (type, obid, name, dec) AS
(SELECT type, obid, name, dec FROM assy WHERE assy.obid = 1
 UNION
 SELECT assy.type, assy.obid, assy.name, assy.dec
   FROM rtbl JOIN link ON rtbl.obid=link.left
             JOIN assy ON link.right=assy.obid
 UNION
 SELECT comp.type, comp.obid, comp.name, ''
   FROM rtbl JOIN link ON rtbl.obid=link.left
             JOIN comp ON link.right=comp.obid
)
SELECT type, obid, name, dec AS "DEC",
       cast (NULL AS integer) AS "LEFT",
       cast (NULL AS integer) AS "RIGHT",
       cast (NULL AS integer) AS "EFF_FROM",
       cast (NULL AS integer) AS "EFF_TO"
  FROM rtbl
 WHERE (SELECT COUNT(*) FROM rtbl WHERE type='assy')<=10
UNION
SELECT type, obid, '' AS "NAME", '' AS "DEC",
       left, right, eff_from, eff_to
  FROM link
 WHERE (left IN (SELECT obid FROM rtbl)
   AND right IN (SELECT obid FROM rtbl))
   AND (SELECT COUNT(*) FROM rtbl WHERE type='assy')<=10
ORDER BY 1,2
"#;
    let rs = db.query(sql).unwrap();
    assert_eq!(rs.len(), 17);

    // Tightening the bound below five empties the result.
    let tightened = sql.replace("<=10", "<=4");
    let rs = db.query(&tightened).unwrap();
    assert!(rs.is_empty());
}

#[test]
fn uncorrelated_subqueries_evaluated_once() {
    // The §5.3.1 remark: rtbl appears in outer and inner clause, but the
    // inner clause is uncorrelated and must be evaluated only once.
    let db = figure2_db();
    let sql = r#"
WITH RECURSIVE rtbl (type, obid, name, dec) AS
(SELECT type, obid, name, dec FROM assy WHERE assy.obid = 1
 UNION
 SELECT assy.type, assy.obid, assy.name, assy.dec
   FROM rtbl JOIN link ON rtbl.obid=link.left
             JOIN assy ON link.right=assy.obid
)
SELECT type, obid FROM rtbl
 WHERE NOT EXISTS (SELECT * FROM rtbl WHERE dec!='+')
"#;
    let (_, stats) = common::query_with_stats(&db, sql).unwrap();
    // 5 outer rows would mean 5 evaluations without the cache; with it the
    // NOT EXISTS body runs once and hits the cache for the remaining rows.
    assert!(stats.subquery_evals <= 1 + stats.subquery_cache_hits);
    assert!(stats.subquery_cache_hits >= 1);
}

#[test]
fn navigational_single_level_expand_queries() {
    // The navigational access pattern: one query per node, children of one
    // assembly at a time (the paper's single-level expand building block).
    let mut db = figure2_db();
    db.execute("CREATE INDEX ON link (left)").unwrap();

    let rs = db
        .query(
            "SELECT assy.obid, assy.name FROM link JOIN assy ON link.right = assy.obid \
             WHERE link.left = 1 ORDER BY 1",
        )
        .unwrap();
    assert_eq!(
        rs.column_values("obid").unwrap(),
        vec![Value::Int(2), Value::Int(3)]
    );

    let rs = db
        .query(
            "SELECT comp.obid FROM link JOIN comp ON link.right = comp.obid \
             WHERE link.left = 4 ORDER BY 1",
        )
        .unwrap();
    assert_eq!(
        rs.column_values("obid").unwrap(),
        vec![Value::Int(101), Value::Int(102)]
    );
}

#[test]
fn effectivity_filter_on_links() {
    // Effectivities (§3.1 example 3): only links whose [eff_from, eff_to]
    // overlaps the user's selected effectivity are traversed.
    let db = figure2_db();
    // User effectivity: unit 4..5. Link 1001 (1..3) drops out, 1006 (1..5)
    // stays.
    let rs = db
        .query("SELECT obid FROM link WHERE eff_from <= 5 AND eff_to >= 4 ORDER BY 1")
        .unwrap();
    let obids = rs.column_values("obid").unwrap();
    assert!(!obids.contains(&Value::Int(1001)));
    assert!(obids.contains(&Value::Int(1002)));
    assert!(obids.contains(&Value::Int(1006)));
}

#[test]
fn checkout_flag_update_roundtrip() {
    // §6: check-out needs a separate UPDATE — exercise the flag flip.
    let mut db = figure2_db();
    db.execute("CREATE TABLE flags (obid INTEGER NOT NULL, checkedout BOOLEAN)")
        .unwrap();
    for i in 1..=8 {
        db.execute(&format!("INSERT INTO flags VALUES ({i}, FALSE)"))
            .unwrap();
    }
    let out = db
        .execute("UPDATE flags SET checkedout = TRUE WHERE obid IN (SELECT right FROM link WHERE left = 2)")
        .unwrap();
    assert_eq!(
        out,
        pdm_sql::ExecOutcome::Dml(pdm_sql::DmlOutcome::Updated(2))
    );
    let rs = db
        .query("SELECT obid FROM flags WHERE checkedout = TRUE ORDER BY 1")
        .unwrap();
    assert_eq!(
        rs.column_values("obid").unwrap(),
        vec![Value::Int(4), Value::Int(5)]
    );
}
