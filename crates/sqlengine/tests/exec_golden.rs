#![allow(clippy::unwrap_used, clippy::disallowed_methods)]

//! Differential execution corpus.
//!
//! `tests/golden/exec_corpus.txt` was recorded by the executor of the parent
//! commit (the AST walker) before `exec/` was split into compile and run: for
//! every statement below, over seeded databases and under each `ExecConfig`
//! combination the ablation benches use, the result schema, the rows **in
//! order**, the `ExecStats`, the EXPLAIN text — or the error text. The
//! executor must reproduce that file. `tests/golden/exec_corpus.changed.txt`
//! lists, entry by entry and each with its reason, the few places where the
//! compiled executor differs on purpose; an entry there replaces the parent's
//! entry of the same key, and every entry must still differ from the
//! parent's (no stale exceptions).
//!
//! A sixth and a seventh configuration are checked, not recorded: every
//! query with an integer literal is also run the way a server's cache miss
//! runs it — split into its template and integers, the template parsed, its
//! plan run with the integers bound ([`bound_runs_as_written`]) — and must
//! return exactly what the default configuration returns for the text as
//! written. The sixth compiles each statement's plan with its own integers;
//! the seventh keeps one plan per template of a database, compiled with the
//! integers of the first statement of that template, and runs it for every
//! later one.
//!
//! `tests/golden/exec_spans.txt`, recorded the same way, holds the operator
//! spans (kind, label, detail, rows in → out, nesting) a profiled run of the
//! navigational expand, the modified MLE, the Query and a few statements
//! more records; it has no exceptions.
//!
//! Re-record (only ever at a commit whose executor is the reference):
//! `cargo test -p pdm-sql --test exec_golden -- --ignored record_corpus`.

mod common;

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::path::PathBuf;

use pdm_core::query::modificator::Modificator;
use pdm_core::query::{navigational, recursive, T_LINK};
use pdm_core::rules::{visibility_rules, ActionKind};
use pdm_core::RuleTable;
use pdm_prng::Prng;
use pdm_sql::template::Templates;
use pdm_sql::{Database, ExecConfig, ExecOutcome, ExecStats, ResultSet};
use pdm_workload::{build_database, TreeSpec};

use common::paper_rules;

// ---------------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------------

/// The flag combinations of `sql_coverage::results_invariant_under_executor_
/// ablations` and the ablation benches: (label, cache, semijoin, pushdown).
const CONFIGS: [(&str, bool, bool, bool); 5] = [
    ("default", true, true, true),
    ("nocache", false, true, true),
    ("nosemi", true, false, true),
    ("nopush", true, true, false),
    ("bare", false, false, false),
];

fn configured(db: &Database, (_, cache, semijoin, pushdown): (&str, bool, bool, bool)) -> Database {
    let mut db = db.clone();
    db.config = ExecConfig {
        subquery_cache: cache,
        semijoin_decorrelation: semijoin,
        index_pushdown: pushdown,
        ..db.config
    };
    db
}

fn render_rows(rs: &ResultSet) -> String {
    let mut out = String::new();
    let cols: Vec<String> = rs
        .schema
        .columns()
        .iter()
        .map(|c| format!("{} {}", c.name, c.dtype))
        .collect();
    let _ = writeln!(out, "  schema ({})", cols.join(", "));
    // Large results are pinned by count and an order-sensitive digest of the
    // rendered rows, plus their first rows.
    const FULL: usize = 16;
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for (i, row) in rs.rows.iter().enumerate() {
        let text = row.to_string();
        for b in text.bytes().chain([b'\n']) {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        if rs.len() <= FULL || i < 3 {
            let _ = writeln!(out, "  {text}");
        }
    }
    let _ = writeln!(out, "  ({} rows, digest {digest:016x})", rs.len());
    out
}

fn render_stats(s: &ExecStats) -> String {
    format!(
        "evals={} hits={} semijoins={} rounds={} probes={} scanned={}",
        s.subquery_evals,
        s.subquery_cache_hits,
        s.decorrelated_semijoins,
        s.recursion_iterations,
        s.index_probes,
        s.rows_scanned
    )
}

fn indent(text: &str) -> String {
    text.lines().map(|l| format!("  {l}\n")).collect()
}

/// The sixth and seventh configurations, checked rather than recorded: a
/// statement with an integer hole (or one the template path refuses),
/// resolved through `templates` — split into its template and integers, the
/// template parsed once — and its template's plan run with the integers
/// bound — what a result-cache miss runs — returns the rows (in order),
/// schema, `ExecStats` or error the statement as written returns under
/// `db`'s configuration, and its key is the statement's canonical print.
/// Returns whether `templates` knew the template already (its plan, unless
/// bound to its first values, was compiled for another statement).
fn bound_runs_as_written(db: &Database, templates: &Templates, sql: &str) -> bool {
    let render = |run: pdm_sql::Result<(ResultSet, ExecStats)>| match run {
        Ok((rs, st)) => format!("{}  {}\n", render_rows(&rs), render_stats(&st)),
        Err(e) => format!("error: {e}"),
    };
    let known = templates.len();
    let resolved = templates.resolve(sql);
    let reused = templates.len() == known;
    if resolved.as_ref().is_ok_and(|r| r.values.is_empty()) {
        return false;
    }
    let bound = resolved.as_ref().map_err(Clone::clone).and_then(|r| {
        let disabled = pdm_obs::Recorder::disabled();
        r.template
            .run(&db.catalog, &db.config, &r.values, &disabled)
    });
    assert_eq!(
        render(bound),
        render(common::query_with_stats(db, sql)),
        "{sql}"
    );
    if let Ok(r) = resolved {
        let canonical = pdm_sql::parser::parse_query(sql).unwrap().to_string();
        assert_eq!(*r.key, canonical, "{sql}");
    }
    reused
}

/// The corpus as keyed entries, in recording order. A key is
/// `"<db> #<n> <field>"`; the statement text itself is the `sql` field.
#[derive(Default)]
struct Corpus {
    entries: Vec<(String, String)>,
    counters: BTreeMap<String, usize>,
    /// The seventh configuration's template table of each database.
    kept: BTreeMap<String, Templates>,
    /// Statements the seventh configuration ran through a template another
    /// statement had made.
    reused: usize,
}

impl Corpus {
    fn block(&mut self, db: &str, sql: &str) -> String {
        let n = self.counters.entry(db.to_string()).or_insert(0);
        *n += 1;
        let id = format!("{db} #{n}");
        self.entries
            .push((format!("{id} sql"), format!("  {}\n", sql.trim())));
        id
    }

    /// Record one query under every configuration: its rows (once when every
    /// configuration returns what the default does — the invariant the
    /// ablations rest on — per configuration otherwise), the `ExecStats` or
    /// the error of each configuration, and the EXPLAIN text with every
    /// optimisation on and (`explain_bare`) with every one off.
    fn query(&mut self, db_name: &str, db: &Database, sql: &str, explain_bare: bool) {
        let id = self.block(db_name, sql);
        let mut default_rows: Option<String> = None;
        // Configurations that report the same counters share a line.
        let mut stats: Vec<(String, String)> = Vec::new();
        for cfg in CONFIGS {
            let label = cfg.0;
            let line = match common::query_with_stats(&configured(db, cfg), sql) {
                Ok((rs, st)) => {
                    let rows = render_rows(&rs);
                    if default_rows.as_ref() != Some(&rows) {
                        let field = if default_rows.is_none() {
                            "rows".to_string()
                        } else {
                            format!("rows {label}")
                        };
                        self.entries.push((format!("{id} {field}"), rows.clone()));
                    }
                    default_rows.get_or_insert(rows);
                    render_stats(&st)
                }
                Err(e) => format!("error: {e}"),
            };
            match stats.iter_mut().find(|(_, l)| *l == line) {
                Some((labels, _)) => {
                    let _ = write!(labels, ",{label}");
                }
                None => stats.push((label.to_string(), line)),
            }
        }
        let stats = stats.iter().map(|(l, s)| format!("  {l}: {s}\n")).collect();
        self.entries.push((format!("{id} stats"), stats));
        let default = configured(db, CONFIGS[0]);
        bound_runs_as_written(&default, &Templates::default(), sql);
        let kept = self.kept.entry(db_name.to_string()).or_default();
        self.reused += usize::from(bound_runs_as_written(&default, kept, sql));
        for cfg in [CONFIGS[0], CONFIGS[4]] {
            if cfg.0 == "bare" && !explain_bare {
                continue;
            }
            let text = match configured(db, cfg).explain(sql) {
                Ok(plan) => indent(&plan),
                Err(e) => format!("  error: {e}\n"),
            };
            self.entries.push((format!("{id} explain {}", cfg.0), text));
        }
    }

    /// Record a DML statement's outcome and the table it leaves behind, on a
    /// scratch copy of `db`, with and without index pushdown.
    fn dml(&mut self, db_name: &str, db: &Database, sql: &str, table: &str) {
        let id = self.block(db_name, sql);
        for cfg in [CONFIGS[0], CONFIGS[3]] {
            let mut db = configured(db, cfg);
            let text = match db.execute(sql) {
                Ok(ExecOutcome::Dml(outcome)) => {
                    let after = db.query(&format!("SELECT * FROM {table}")).unwrap();
                    format!("  {outcome:?}\n{}", render_rows(&after))
                }
                Ok(ExecOutcome::Rows(_)) => panic!("not DML: {sql}"),
                Err(e) => format!("  error: {e}\n"),
            };
            self.entries.push((format!("{id} outcome {}", cfg.0), text));
        }
    }

    fn render(&self) -> String {
        let mut out = String::new();
        for (key, text) in &self.entries {
            let _ = write!(out, "## {key}\n{text}");
        }
        out
    }
}

/// Parse a rendered corpus (or the changed-entries file, whose `#` comment
/// lines give the reasons) back into keyed entries.
fn parse(text: &str) -> Vec<(String, String)> {
    let mut entries: Vec<(String, String)> = Vec::new();
    for line in text.lines() {
        if let Some(key) = line.strip_prefix("## ") {
            entries.push((key.to_string(), String::new()));
        } else if line.starts_with('#') || entries.is_empty() {
            continue;
        } else if let Some((_, body)) = entries.last_mut() {
            body.push_str(line);
            body.push('\n');
        }
    }
    entries
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

// ---------------------------------------------------------------------------
// Databases
// ---------------------------------------------------------------------------

fn run_all(db: &mut Database, statements: &[&str]) {
    for s in statements {
        db.execute(s).unwrap_or_else(|e| panic!("{s}: {e}"));
    }
}

/// The fixture of `sql_coverage.rs`, plus its views; `indexed` adds the hash
/// indexes that turn its scans and joins into probes.
fn parts_db(indexed: bool) -> Database {
    let mut db = Database::new();
    run_all(
        &mut db,
        &[
            "CREATE TABLE part (id INTEGER NOT NULL, name VARCHAR, kind VARCHAR, \
             weight DOUBLE, qty INTEGER)",
            "INSERT INTO part VALUES (1, 'bolt', 'fastener', 0.05, 100), \
             (2, 'nut', 'fastener', 0.03, 200), (3, 'panel', 'body', 12.5, 4), \
             (4, 'door', 'body', 25.0, 2), (5, 'engine', 'power', 180.0, 1), \
             (6, 'washer', 'fastener', 0.01, 500)",
            "CREATE TABLE bin (part_id INTEGER, shelf VARCHAR)",
            "INSERT INTO bin VALUES (1, 'A'), (2, 'A'), (3, 'B'), (5, 'C')",
            "CREATE VIEW fasteners AS SELECT * FROM part WHERE kind = 'fastener'",
            "CREATE VIEW light_fasteners AS SELECT * FROM fasteners WHERE weight < 0.04",
        ],
    );
    if indexed {
        run_all(
            &mut db,
            &[
                "CREATE INDEX ON part (id)",
                "CREATE INDEX ON part (kind)",
                "CREATE INDEX ON bin (part_id)",
            ],
        );
    }
    db
}

/// Figure 2 of the paper, as `paper_queries.rs` builds it.
fn figure2_db(indexed: bool) -> Database {
    let mut db = Database::new();
    run_all(
        &mut db,
        &[
            "CREATE TABLE assy (type VARCHAR NOT NULL, obid INTEGER NOT NULL, name VARCHAR, dec VARCHAR)",
            "CREATE TABLE comp (type VARCHAR NOT NULL, obid INTEGER NOT NULL, name VARCHAR)",
            "CREATE TABLE link (type VARCHAR NOT NULL, obid INTEGER NOT NULL, left INTEGER, \
             right INTEGER, eff_from INTEGER, eff_to INTEGER)",
            "CREATE TABLE spec (type VARCHAR NOT NULL, obid INTEGER NOT NULL, name VARCHAR)",
            "CREATE TABLE specified_by (obid INTEGER NOT NULL, left INTEGER, right INTEGER)",
            "CREATE TABLE flags (obid INTEGER NOT NULL, checkedout BOOLEAN)",
        ],
    );
    for i in 1..=8 {
        let dec = if i <= 4 { "+" } else { "-" };
        db.execute(&format!(
            "INSERT INTO assy VALUES ('assy', {i}, 'Assy{i}', '{dec}')"
        ))
        .unwrap();
        db.execute(&format!("INSERT INTO flags VALUES ({i}, FALSE)"))
            .unwrap();
    }
    for i in 1..=7 {
        db.execute(&format!(
            "INSERT INTO comp VALUES ('comp', {}, 'Comp{i}')",
            100 + i
        ))
        .unwrap();
    }
    for (obid, l, r, f, t) in [
        (1001, 1, 2, 1, 3),
        (1002, 1, 3, 4, 10),
        (1003, 2, 4, 1, 10),
        (1004, 2, 5, 1, 10),
        (1005, 4, 101, 6, 10),
        (1006, 4, 102, 1, 5),
        (1007, 5, 103, 1, 10),
        (1008, 5, 104, 1, 10),
    ] {
        db.execute(&format!(
            "INSERT INTO link VALUES ('link', {obid}, {l}, {r}, {f}, {t})"
        ))
        .unwrap();
    }
    run_all(
        &mut db,
        &[
            "INSERT INTO spec VALUES ('spec', 9001, 'Spec-A'), ('spec', 9002, 'Spec-B')",
            "INSERT INTO specified_by VALUES (8001, 101, 9001), (8002, 103, 9002)",
        ],
    );
    if indexed {
        run_all(
            &mut db,
            &[
                "CREATE INDEX ON link (left)",
                "CREATE INDEX ON assy (obid)",
                "CREATE INDEX ON comp (obid)",
                "CREATE INDEX ON specified_by (left)",
            ],
        );
    }
    db
}

/// Small ad-hoc schemas: NULLs, floats (both zeros), duplicate rows, a
/// FLOAT index, an empty table, views over them.
fn adhoc_db() -> Database {
    let mut db = Database::new();
    run_all(
        &mut db,
        &[
            "CREATE TABLE t1 (a INTEGER, b INTEGER, c VARCHAR, f DOUBLE)",
            "INSERT INTO t1 VALUES (1, 10, 'x', 1.5), (2, 20, 'y', 0.0), (2, 20, 'y', 0.0), \
             (3, NULL, 'z', -0.0), (4, 40, NULL, 2.5), (NULL, 50, 'x', NULL), (5, 10, 'xy', 3.0), \
             (6, 60, 'y', 1.5), (7, 10, 'zz', -4.25), (1, 10, 'x', 1.5), (8, NULL, NULL, NULL), \
             (9, 90, 'w', 100.0)",
            "CREATE TABLE t2 (a INTEGER, d INTEGER, e VARCHAR)",
            "INSERT INTO t2 VALUES (1, 100, 'p'), (1, 101, 'q'), (2, 200, 'p'), (3, NULL, 'r'), \
             (NULL, 400, 'p'), (5, 500, NULL), (5, 500, NULL), (7, 700, 'q'), (10, 1000, 's'), \
             (11, 10, 'x')",
            "CREATE TABLE t3 (k INTEGER, nxt INTEGER, v VARCHAR)",
            "INSERT INTO t3 VALUES (1, 2, 'one'), (2, 3, 'two'), (3, 4, 'three'), (4, 2, 'four'), \
             (5, NULL, 'five')",
            "CREATE TABLE empty_t (a INTEGER, b VARCHAR)",
            "CREATE INDEX ON t1 (a)",
            "CREATE INDEX ON t1 (f)",
            "CREATE INDEX ON t2 (a)",
            "CREATE INDEX ON t3 (k)",
            "CREATE VIEW v1 AS SELECT a, b, c FROM t1 WHERE b IS NOT NULL",
            "CREATE VIEW v2 AS SELECT a, COUNT(*) AS n, MAX(d) AS top FROM t2 GROUP BY a",
        ],
    );
    db
}

/// A generator tree; `specified` populates `spec` / `specified_by` or leaves
/// them empty.
fn tree_db(specified: bool) -> Database {
    let spec = TreeSpec::new(3, 3, 0.8)
        .with_node_size(64)
        .with_specified_fraction(if specified { 0.6 } else { 0.0 });
    build_database(&spec).unwrap().0
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

/// Every statement of `sql_coverage.rs` over its fixture (the DML and the
/// two-fixture cases are recorded separately below).
const COVERAGE: &[&str] = &[
    "SELECT kind, COUNT(*) AS n, SUM(qty) AS total, MIN(weight) AS lightest FROM part GROUP BY kind ORDER BY kind",
    "SELECT kind FROM part GROUP BY kind HAVING COUNT(*) >= 2 ORDER BY kind",
    "SELECT COUNT(*), AVG(weight), MAX(qty) FROM part",
    "SELECT COUNT(*), SUM(qty), AVG(weight) FROM part WHERE id > 99",
    "SELECT part.name, bin.shelf FROM part LEFT JOIN bin ON part.id = bin.part_id ORDER BY 1",
    "SELECT part.name FROM part JOIN bin ON part.id = bin.part_id WHERE bin.shelf = 'A' ORDER BY 1",
    "SELECT COUNT(*) FROM part, bin",
    "SELECT d.kind, d.n FROM (SELECT kind, COUNT(*) AS n FROM part GROUP BY kind) AS d WHERE d.n > 1 ORDER BY 1",
    "SELECT name FROM part WHERE weight > (SELECT AVG(weight) FROM part)",
    "SELECT name, (SELECT MAX(qty) FROM part) AS peak FROM part WHERE id = 1",
    "SELECT name FROM part WHERE EXISTS (SELECT * FROM bin WHERE bin.part_id = part.id) ORDER BY 1",
    "SELECT name FROM part WHERE NOT EXISTS (SELECT * FROM bin WHERE bin.part_id = part.id) ORDER BY 1",
    "SELECT name FROM part WHERE EXISTS (SELECT * FROM bin WHERE bin.part_id = part.id)",
    "SELECT name FROM part WHERE id IN (SELECT part_id FROM bin) ORDER BY 1",
    "SELECT name FROM part WHERE id NOT IN (SELECT part_id FROM bin) ORDER BY 1",
    "SELECT DISTINCT kind FROM part ORDER BY 1",
    "SELECT name FROM part ORDER BY weight DESC LIMIT 2",
    "SELECT name AS n, qty FROM part ORDER BY qty DESC LIMIT 1",
    "SELECT name, CASE WHEN weight > 100 THEN 'heavy' WHEN weight > 1 THEN 'medium' ELSE 'light' END AS class FROM part ORDER BY id",
    "SELECT COUNT(*) FROM fasteners",
    "SELECT fasteners.name FROM fasteners JOIN bin ON fasteners.id = bin.part_id ORDER BY 1",
    "SELECT COUNT(*) FROM light_fasteners",
    "SELECT name AS label FROM part WHERE kind = 'power' UNION SELECT shelf FROM bin ORDER BY 1",
    "SELECT name FROM part WHERE qty BETWEEN 2 AND 100 ORDER BY 1",
    "SELECT name FROM part WHERE kind IN ('body', 'power') ORDER BY 1",
    "SELECT UPPER(name) || '-' || kind AS tag FROM part WHERE id = 1",
    "SELECT name, weight * qty AS total_weight FROM part WHERE weight * qty > 100 ORDER BY 2 DESC",
    "SELECT SUM(qty) FROM part WHERE kind = 'fastener'",
    "WITH heavy AS (SELECT * FROM part WHERE weight > 10), binned AS (SELECT part_id FROM bin) \
     SELECT heavy.name FROM heavy WHERE heavy.id IN (SELECT part_id FROM binned) ORDER BY 1",
    "WITH f AS (SELECT * FROM part WHERE kind = 'fastener'), cheap AS (SELECT * FROM f WHERE weight < 0.04) \
     SELECT COUNT(*) FROM cheap",
    "SELECT nope FROM part",
    "SELECT * FROM missing",
    "SELECT id FROM part JOIN part AS p2 ON part.id = p2.id",
    "SELECT (SELECT id FROM part WHERE kind = 'body') FROM part",
    "SELECT id FROM part UNION SELECT id, name FROM part",
    "SELECT a.name, b.name FROM part AS a JOIN part AS b ON a.kind = b.kind WHERE a.id < b.id ORDER BY 1, 2",
    "SELECT part.name FROM part LEFT JOIN bin ON part.id = bin.part_id WHERE bin.shelf IS NULL ORDER BY 1",
    "SELECT * FROM bin WHERE shelf = 'D'",
    "SELECT bin.*, part.name FROM part JOIN bin ON part.id = bin.part_id WHERE bin.shelf = 'C'",
    "SELECT SUM(weight * qty) FROM part WHERE kind = 'fastener'",
    "SELECT name FROM part WHERE name LIKE '%ol%' ORDER BY 1",
    "SELECT name FROM part WHERE name LIKE '_ut' ORDER BY 1",
    "SELECT COUNT(*) FROM part WHERE kind NOT LIKE 'fast%'",
    "SELECT kind, COUNT(*) AS n FROM part GROUP BY kind ORDER BY 1",
    "SELECT name FROM part WHERE weight > (SELECT AVG(weight) FROM part) ORDER BY 1",
    // ---- beyond sql_coverage: edges a compile step could move ----
    "SELECT * FROM part, bin WHERE part.id = bin.part_id AND shelf = 'A'",
    "SELECT p.name, b.shelf FROM part p LEFT JOIN bin b ON p.id = b.part_id AND b.shelf <> 'A' ORDER BY 1",
    "SELECT p.name FROM part p JOIN bin b ON p.id < b.part_id WHERE b.shelf = 'C' ORDER BY 1",
    "SELECT p.name, (SELECT COUNT(*) FROM bin b WHERE b.part_id = p.id) AS bins FROM part p ORDER BY 1",
    "SELECT p.name FROM part p WHERE p.qty > (SELECT AVG(q.qty) FROM part q WHERE q.kind = p.kind) ORDER BY 1",
    "SELECT p.name FROM part p WHERE p.id IN (SELECT b.part_id FROM bin b WHERE b.shelf = p.kind) ORDER BY 1",
    "SELECT p.name FROM part p WHERE EXISTS (SELECT 1 FROM bin b WHERE b.part_id = p.id AND EXISTS \
     (SELECT 1 FROM part q WHERE q.kind = p.kind AND q.id <> p.id AND q.id = b.part_id + 1)) ORDER BY 1",
    "SELECT kind, COUNT(*) FROM part GROUP BY kind HAVING SUM(qty) > (SELECT MIN(qty) FROM part) ORDER BY 1",
    "SELECT kind, MAX(weight) - MIN(weight) AS spread, COUNT(name) FROM part GROUP BY kind ORDER BY 2 DESC, 1",
    "SELECT 1 + 1 AS two, 'x' || 'y'",
    "SELECT 1 WHERE 1 = 2",
    "SELECT name FROM part ORDER BY kind, qty DESC",
    "SELECT name, qty FROM part ORDER BY 3",
    "SELECT kind FROM part GROUP BY kind ORDER BY qty",
    "SELECT name FROM part WHERE id = 1 INTERSECT SELECT name FROM part WHERE kind = 'fastener'",
    "SELECT kind FROM part EXCEPT SELECT kind FROM part WHERE qty > 100",
    "SELECT kind FROM part UNION ALL SELECT shelf FROM bin ORDER BY 1 DESC LIMIT 4",
    "SELECT name FROM part WHERE 'a' = 1",
    "SELECT name FROM part WHERE id = 1 AND 'a' = 1",
    "SELECT name FROM part WHERE id = 99 AND 'a' = 1",
    "SELECT COUNT(*) FROM part WHERE COUNT(*) > 1",
    "SELECT name FROM part WHERE qty / (id - 1) > 1",
    "SELECT x.* FROM part",
    "SELECT NOSUCH(name) FROM part",
    "SELECT SUM(name) FROM part",
    "SELECT COUNT(id, qty) FROM part",
    "SELECT name FROM part WHERE id IN (SELECT part_id, shelf FROM bin)",
];

/// Every statement of `paper_queries.rs` over the Figure-2 tables.
fn paper_statements() -> Vec<String> {
    let rtbl = |root: i64, comp_where: &str| {
        format!(
            "WITH RECURSIVE rtbl (type, obid, name, dec) AS \
             (SELECT type, obid, name, dec FROM assy WHERE assy.obid = {root} \
             UNION SELECT assy.type, assy.obid, assy.name, assy.dec \
             FROM rtbl JOIN link ON rtbl.obid=link.left JOIN assy ON link.right=assy.obid \
             UNION SELECT comp.type, comp.obid, comp.name, '' \
             FROM rtbl JOIN link ON rtbl.obid=link.left JOIN comp ON link.right=comp.obid{comp_where}) "
        )
    };
    let homogenized = |node_cond: &str, link_cond: &str| {
        format!(
            "SELECT type, obid, name, dec AS \"DEC\", cast (NULL AS integer) AS \"LEFT\", \
             cast (NULL AS integer) AS \"RIGHT\", cast (NULL AS integer) AS \"EFF_FROM\", \
             cast (NULL AS integer) AS \"EFF_TO\" FROM rtbl{node_cond} \
             UNION SELECT type, obid, '' AS \"NAME\", '' AS \"DEC\", left, right, eff_from, eff_to \
             FROM link WHERE (left IN (SELECT obid FROM rtbl) AND right IN (SELECT obid FROM rtbl)){link_cond} \
             ORDER BY 1,2"
        )
    };
    let forall = "NOT EXISTS (SELECT * FROM rtbl WHERE (type='assy' AND dec!='+'))";
    let agg = |bound: u32| format!("(SELECT COUNT(*) FROM rtbl WHERE type='assy')<={bound}");
    vec![
        rtbl(1, "") + &homogenized("", ""),
        rtbl(1, "") + &homogenized(&format!(" WHERE {forall}"), &format!(" AND {forall}")),
        rtbl(4, "") + &format!("SELECT type, obid FROM rtbl WHERE {forall} ORDER BY 1,2"),
        rtbl(
            1,
            " WHERE EXISTS (SELECT * FROM specified_by AS s JOIN spec ON s.right = spec.obid \
             WHERE s.left = comp.obid)",
        ) + "SELECT type, obid FROM rtbl ORDER BY 1,2",
        rtbl(1, "") + &homogenized(&format!(" WHERE {}", agg(10)), &format!(" AND {}", agg(10))),
        rtbl(1, "") + &homogenized(&format!(" WHERE {}", agg(4)), &format!(" AND {}", agg(4))),
        "WITH RECURSIVE rtbl (type, obid, name, dec) AS \
         (SELECT type, obid, name, dec FROM assy WHERE assy.obid = 1 \
         UNION SELECT assy.type, assy.obid, assy.name, assy.dec \
         FROM rtbl JOIN link ON rtbl.obid=link.left JOIN assy ON link.right=assy.obid) \
         SELECT type, obid FROM rtbl WHERE NOT EXISTS (SELECT * FROM rtbl WHERE dec!='+')"
            .to_string(),
        "SELECT assy.obid, assy.name FROM link JOIN assy ON link.right = assy.obid \
         WHERE link.left = 1 ORDER BY 1"
            .to_string(),
        "SELECT comp.obid FROM link JOIN comp ON link.right = comp.obid WHERE link.left = 4 ORDER BY 1"
            .to_string(),
        "SELECT obid FROM link WHERE eff_from <= 5 AND eff_to >= 4 ORDER BY 1".to_string(),
        "SELECT obid FROM flags WHERE checkedout = TRUE ORDER BY 1".to_string(),
    ]
}

/// Recursion edges: limit, UNION / UNION ALL mixing, duplicate-only rounds.
const RECURSION: &[&str] = &[
    "WITH RECURSIVE r (n) AS (SELECT 1 UNION ALL SELECT nxt FROM r JOIN t3 ON r.n = t3.k) SELECT n FROM r",
    "WITH RECURSIVE r (n) AS (SELECT 1 UNION SELECT nxt FROM r JOIN t3 ON r.n = t3.k) SELECT n FROM r",
    "WITH RECURSIVE r (n) AS (SELECT 1 UNION SELECT 2 UNION ALL SELECT nxt FROM r JOIN t3 ON r.n = t3.k) SELECT n FROM r",
    "WITH RECURSIVE r (n) AS (SELECT 2 UNION SELECT 3 UNION SELECT 4 - (n - n) FROM r WHERE n < 4 \
     UNION SELECT 2 FROM r) SELECT n FROM r ORDER BY 1",
    "WITH RECURSIVE r (n) AS (SELECT 1 UNION SELECT n + 1 FROM r WHERE n < 6) \
     SELECT n, (SELECT COUNT(*) FROM r AS q WHERE q.n <= r.n) FROM r WHERE n IN (SELECT k FROM t3)",
    "WITH RECURSIVE r (n, v) AS (SELECT k, v FROM t3 WHERE k = 1 UNION \
     SELECT t3.k, t3.v FROM r JOIN t3 ON r.n + 1 = t3.k WHERE EXISTS (SELECT 1 FROM t2 WHERE t2.a = t3.k)) \
     SELECT * FROM r",
    "WITH RECURSIVE r (n) AS (SELECT nxt FROM r JOIN t3 ON r.n = t3.k) SELECT n FROM r",
    "WITH RECURSIVE r (n) AS (SELECT 1 UNION SELECT nxt, k FROM r JOIN t3 ON r.n = t3.k) SELECT n FROM r",
    "WITH RECURSIVE r (n, m) AS (SELECT 1 UNION SELECT nxt FROM r JOIN t3 ON r.n = t3.k) SELECT n FROM r",
    "WITH RECURSIVE r (n) AS (SELECT 1 UNION SELECT nxt FROM r JOIN t3 ON r.n = t3.k ORDER BY 1) SELECT n FROM r",
    "WITH RECURSIVE r (n) AS (SELECT 9 UNION SELECT nxt, k FROM r JOIN t3 ON r.n = t3.k) SELECT n FROM r",
    "WITH r AS (SELECT k FROM t3), s AS (SELECT k FROM r WHERE k > 2) SELECT * FROM s, r WHERE r.k = s.k",
    "WITH RECURSIVE a (x) AS (SELECT 1 UNION SELECT x + 1 FROM a WHERE x < 3), \
     b (y) AS (SELECT x FROM a UNION SELECT y * 10 FROM b WHERE y < 50) SELECT y FROM b ORDER BY 1",
    // Both recursive terms produce rows in the same round, and nothing sorts
    // them: the result's order is the terms' order.
    "WITH RECURSIVE r (n, via) AS (SELECT 1, 'seed' UNION \
     SELECT t3.nxt, 'next' FROM r JOIN t3 ON r.n = t3.k WHERE r.n < 4 UNION \
     SELECT t3.k + 10, 'plus' FROM r JOIN t3 ON r.n = t3.k WHERE r.n < 3) SELECT n, via FROM r",
];

const DML: &[(&str, &str)] = &[
    (
        "UPDATE part SET qty = qty * 2 WHERE kind = 'fastener'",
        "part",
    ),
    (
        "UPDATE part SET qty = 0, name = UPPER(name) WHERE id IN (2, 4, 9)",
        "part",
    ),
    (
        "UPDATE part SET weight = weight + 1 WHERE qty > 50 AND id = 1",
        "part",
    ),
    ("UPDATE part SET qty = qty + 1", "part"),
    ("UPDATE part SET qty = NULL WHERE id = 0", "part"),
    ("UPDATE part SET id = NULL WHERE id = 3", "part"),
    ("UPDATE part SET nope = 1", "part"),
    ("UPDATE part SET qty = nope WHERE id = 1", "part"),
    (
        "UPDATE part SET qty = 1 WHERE part.id = 5 AND nope = 2",
        "part",
    ),
    (
        "UPDATE part SET qty = (SELECT COUNT(*) FROM bin WHERE bin.part_id = part.id) \
         WHERE id IN (SELECT part_id FROM bin WHERE shelf <> 'B')",
        "part",
    ),
    ("DELETE FROM bin WHERE shelf = 'A'", "bin"),
    ("DELETE FROM bin WHERE part_id = 3", "bin"),
    ("DELETE FROM bin WHERE part_id IN (1, 5, 5, 7)", "bin"),
    (
        "DELETE FROM bin WHERE part_id + 0 = 2 OR shelf = 'C'",
        "bin",
    ),
    ("DELETE FROM part WHERE weight = 0.05", "part"),
    ("DELETE FROM bin", "bin"),
    ("INSERT INTO bin VALUES (4, 'D'), (6, 'D')", "bin"),
    ("INSERT INTO bin (shelf) VALUES ('only-shelf')", "bin"),
    (
        "INSERT INTO bin VALUES (1 + 1, 'E' || 'F'), ((SELECT MAX(id) FROM part), 'G')",
        "bin",
    ),
    ("INSERT INTO bin VALUES (part_id, 'H')", "bin"),
    ("INSERT INTO part (name) VALUES ('no-id')", "part"),
];

/// Index-probe exactness on a FLOAT column and a few adhoc DML statements.
const ADHOC: &[&str] = &[
    "SELECT a, f FROM t1 WHERE f = 0",
    "SELECT a, f FROM t1 WHERE f = -0.0",
    "SELECT a, f FROM t1 WHERE f = 0.0",
    "SELECT a, f FROM t1 WHERE f = 1.5",
    "SELECT a, f FROM t1 WHERE f IN (1.5, 0)",
    "SELECT a, f FROM t1 WHERE f IN (1.5, 3)",
    "SELECT a FROM t1 WHERE a = 2.0",
    "SELECT a FROM t1 WHERE 2 = a AND c = 'y'",
    "SELECT a FROM t1 WHERE a IN (1, 2, 2, NULL)",
    "SELECT a FROM t1 WHERE a NOT IN (1, 2, NULL)",
    "SELECT a FROM t1 WHERE a NOT IN (1, 2)",
    "SELECT a FROM t1 WHERE NULL = a",
    "SELECT a, b FROM t1 WHERE b = NULL OR a = 1",
    "SELECT a FROM t1 WHERE c = 1",
    "SELECT a FROM t1 WHERE a = 'x'",
    "SELECT a FROM empty_t WHERE nope = 1",
    "SELECT CASE WHEN 1 = 1 THEN a ELSE nope END FROM t1",
    "SELECT x.a FROM t1 x WHERE EXISTS (SELECT 1 FROM t2 a WHERE a.a = x.a AND EXISTS \
     (SELECT 1 FROM t3 x WHERE x.k = a.a))",
    "SELECT x.a, (SELECT MAX(y.d) FROM t2 y WHERE y.a = x.a AND y.d > (SELECT MIN(z.k) FROM t3 z WHERE z.k >= x.a)) FROM t1 x",
    "SELECT DISTINCT a, b, c, f FROM t1",
    "SELECT a, b FROM t1 UNION SELECT a, d FROM t2",
    "SELECT f FROM t1 UNION SELECT a FROM t2",
    "SELECT * FROM v1 JOIN v2 ON v1.a = v2.a",
    "SELECT * FROM t1 x LEFT JOIN empty_t e ON x.a = e.a WHERE x.a < 3",
    "SELECT * FROM empty_t e LEFT JOIN t1 x ON x.a = e.a",
    "SELECT x.a, y.d FROM t1 x JOIN t2 y ON x.a = y.a AND y.d > 100 WHERE y.e = 'p' OR x.c = 'x'",
    "SELECT x.a, y.d FROM t1 x, t2 y WHERE x.a = y.a AND x.a = 5",
    "SELECT a FROM t1, t2",
    "SELECT t1.a FROM t1 JOIN t2 ON a = d",
    "SELECT x.a FROM t1 x JOIN t2 y ON x.a = y.a JOIN t3 z ON z.k = y.a AND z.k = x.a ORDER BY z.v, 1",
];

/// Every statement shape a session ships (`pdm_core::query::prepared::Shape`)
/// × rules evaluated early or late × rule table, for a few ids of the tree:
/// generator → §5.5 modificator → printer, as `prepared_sql.rs` pins it.
fn pipeline_statements(ids: &[i64]) -> Vec<String> {
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    let views = HashSet::new();
    for rules in [RuleTable::new(), visibility_rules(), paper_rules()] {
        for early in [false, true] {
            for &id in ids {
                let nav = |action, mut q: pdm_sql::Query| {
                    if early {
                        Modificator::new(&rules, "scott", action, &views)
                            .modify_navigational(&mut q)
                            .unwrap();
                    }
                    q.to_string()
                };
                let rec = |action, mut q: pdm_sql::Query| {
                    Modificator::new(&rules, "scott", action, &views)
                        .modify_recursive(&mut q)
                        .unwrap();
                    q.to_string()
                };
                for sql in [
                    nav(
                        ActionKind::Expand,
                        navigational::expand_query_in(id, T_LINK),
                    ),
                    nav(
                        ActionKind::Expand,
                        navigational::expand_many_query(&[id, id + 1, 1], "link"),
                    ),
                    nav(ActionKind::Query, navigational::query_all_query(id)),
                    navigational::fetch_node_query(id).to_string(),
                    rec(
                        ActionKind::MultiLevelExpand,
                        recursive::mle_query_in(id, "link", false),
                    ),
                    rec(
                        ActionKind::MultiLevelExpand,
                        recursive::mle_query_in(id, "link", true),
                    ),
                    rec(
                        ActionKind::CheckOut,
                        recursive::mle_query_in(id, "link", true),
                    ),
                    rec(ActionKind::Access, recursive::mle_query(id)),
                ] {
                    if seen.insert(sql.clone()) {
                        out.push(sql);
                    }
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Seeded random SELECTs over the ad-hoc schema
// ---------------------------------------------------------------------------

struct Source {
    sql: &'static str,
    ints: &'static [&'static str],
    texts: &'static [&'static str],
}

const SOURCES: &[Source] = &[
    Source {
        sql: "t1",
        ints: &["a", "b"],
        texts: &["c"],
    },
    Source {
        sql: "t2",
        ints: &["a", "d"],
        texts: &["e"],
    },
    Source {
        sql: "t3",
        ints: &["k", "nxt"],
        texts: &["v"],
    },
    Source {
        sql: "v1",
        ints: &["a", "b"],
        texts: &["c"],
    },
    Source {
        sql: "v2",
        ints: &["a", "n", "top"],
        texts: &[],
    },
    Source {
        sql: "c1",
        ints: &["a", "s"],
        texts: &[],
    },
    Source {
        sql: "(SELECT a, MIN(b) AS lo, COUNT(*) AS n FROM t1 GROUP BY a)",
        ints: &["a", "lo", "n"],
        texts: &[],
    },
    Source {
        sql: "(SELECT DISTINCT e, a FROM t2 WHERE a IS NOT NULL)",
        ints: &["a"],
        texts: &["e"],
    },
];

/// The CTE prefix every random statement may reference as `c1` (a CTE over a
/// CTE, so nested WITH scopes are exercised).
const WITH_C1: &str = "WITH c0 AS (SELECT a, d FROM t2 WHERE d IS NOT NULL), \
     c1 AS (SELECT a, SUM(d) AS s FROM c0 GROUP BY a) ";

struct Gen<'r> {
    rng: &'r mut Prng,
    /// (alias, source) of the FROM clause being built.
    bound: Vec<(String, &'static Source)>,
}

impl Gen<'_> {
    fn pick<'x, T: ?Sized>(&mut self, xs: &[&'x T]) -> &'x T {
        xs[self.rng.index(xs.len())]
    }

    fn int_col(&mut self) -> String {
        let (alias, src) = self.bound[self.rng.index(self.bound.len())].clone();
        format!("{alias}.{}", self.pick(src.ints))
    }

    fn text_col(&mut self) -> Option<String> {
        let with_text: Vec<_> = self
            .bound
            .iter()
            .filter(|(_, s)| !s.texts.is_empty())
            .cloned()
            .collect();
        if with_text.is_empty() {
            return None;
        }
        let (alias, src) = with_text[self.rng.index(with_text.len())].clone();
        Some(format!("{alias}.{}", self.pick(src.texts)))
    }

    fn int_lit(&mut self) -> String {
        self.pick(&["0", "1", "2", "3", "5", "7", "10", "20", "100"])
            .to_string()
    }

    fn cmp(&mut self) -> &'static str {
        self.pick(&["=", "<>", "<", "<=", ">", ">="])
    }

    /// One boolean conjunct over the bound aliases. `depth` bounds subquery
    /// nesting.
    fn predicate(&mut self, depth: u32) -> String {
        let choices = if depth == 0 { 8 } else { 13 };
        match self.rng.index(choices) {
            0 => format!("{} {} {}", self.int_col(), self.cmp(), self.int_lit()),
            1 => format!("{} = {}", self.int_col(), self.int_lit()),
            2 => format!(
                "{} IN ({}, {}, {})",
                self.int_col(),
                self.int_lit(),
                self.int_lit(),
                self.int_lit()
            ),
            3 => format!(
                "{} IS {}NULL",
                self.int_col(),
                if self.rng.bool() { "NOT " } else { "" }
            ),
            4 => format!(
                "{} BETWEEN {} AND {}",
                self.int_col(),
                self.pick(&["0", "1", "2", "3"]),
                self.pick(&["5", "10", "100", "500", "1"])
            ),
            5 => match self.text_col() {
                Some(c) => format!("{c} LIKE '{}'", self.pick(&["%", "x%", "_", "%y", "p%"])),
                None => format!("{} + 1 > {}", self.int_col(), self.int_lit()),
            },
            6 => format!(
                "({} OR {})",
                self.predicate(0),
                self.predicate(depth.saturating_sub(1))
            ),
            7 => match self.text_col() {
                Some(c) => format!("{c} {} '{}'", self.cmp(), self.pick(&["x", "p", "q", "y"])),
                None => format!("NOT ({})", self.predicate(0)),
            },
            // ---- subqueries ----
            8 => {
                // Correlated EXISTS in the decorrelatable shape, sometimes
                // with an extra local or non-equality conjunct.
                let outer = self.int_col();
                let extra = match self.rng.index(4) {
                    0 => " AND q.d IS NOT NULL",
                    1 => " AND q.e = 'p'",
                    2 => " AND q.d > 150",
                    _ => "",
                };
                format!(
                    "{}EXISTS (SELECT * FROM t2 q WHERE q.a = {outer}{extra})",
                    if self.rng.bool() { "NOT " } else { "" }
                )
            }
            9 => {
                let outer = self.int_col();
                format!(
                    "EXISTS (SELECT 1 FROM t3 q JOIN t1 w ON w.a = q.k WHERE q.nxt {} {outer})",
                    self.cmp()
                )
            }
            10 => format!(
                "{} {}IN (SELECT {} FROM {})",
                self.int_col(),
                if self.rng.bool() { "NOT " } else { "" },
                self.pick(&["a", "a + 1", "d"]),
                self.pick(&["t2", "t2 WHERE d > 100", "t2 WHERE a IS NOT NULL"])
            ),
            11 => {
                let outer = self.int_col();
                format!(
                    "{} {} (SELECT {}(q.d) FROM t2 q WHERE q.a = {outer})",
                    self.int_col(),
                    self.cmp(),
                    self.pick(&["MAX", "MIN", "COUNT", "SUM"])
                )
            }
            _ => format!(
                "{} {} (SELECT {} FROM t3)",
                self.int_col(),
                self.cmp(),
                self.pick(&["MAX(k)", "MIN(nxt)", "COUNT(*)", "AVG(k)"])
            ),
        }
    }

    fn join_clause(&mut self) -> String {
        self.bound.clear();
        let n = 1 + self.rng.index(3);
        let mut sql = String::new();
        for i in 0..n {
            let src = &SOURCES[self.rng.index(SOURCES.len())];
            let alias = format!("x{i}");
            if i == 0 {
                let _ = write!(sql, "{} {alias}", src.sql);
            } else {
                let new_col = format!("{alias}.{}", self.pick(src.ints));
                let old_col = self.int_col();
                let on = match self.rng.index(5) {
                    0 => format!("{old_col} = {new_col}"),
                    1 => format!("{new_col} = {old_col} AND {new_col} > {}", self.int_lit()),
                    2 => format!("{new_col} < {old_col}"),
                    3 => format!("{new_col} = {old_col} + 1"),
                    _ => format!("{new_col} = {old_col}"),
                };
                match self.rng.index(4) {
                    0 => {
                        let _ = write!(sql, ", {} {alias}", src.sql);
                    }
                    1 => {
                        let _ = write!(sql, " LEFT JOIN {} {alias} ON {on}", src.sql);
                    }
                    _ => {
                        let _ = write!(sql, " JOIN {} {alias} ON {on}", src.sql);
                    }
                }
            }
            self.bound.push((alias, src));
        }
        sql
    }

    fn where_clause(&mut self) -> String {
        let n = self.rng.index(3);
        let conjuncts: Vec<String> = (0..n).map(|_| self.predicate(2)).collect();
        if conjuncts.is_empty() {
            String::new()
        } else {
            format!(" WHERE {}", conjuncts.join(" AND "))
        }
    }

    fn select(&mut self) -> String {
        let from = self.join_clause();
        let filter = self.where_clause();
        match self.rng.index(6) {
            // grouped
            0 => {
                let key = self.int_col();
                let agg = format!(
                    "{}({})",
                    self.pick(&["COUNT", "SUM", "MIN", "MAX", "AVG"]),
                    self.int_col()
                );
                let having = match self.rng.index(3) {
                    0 => format!(" HAVING COUNT(*) > {}", self.rng.index(3)),
                    1 => format!(" HAVING {agg} IS NOT NULL"),
                    _ => String::new(),
                };
                format!(
                    "SELECT {key} AS g, {agg} AS m, COUNT(*) FROM {from}{filter} GROUP BY {key}{having} ORDER BY 1, 2"
                )
            }
            // global aggregate
            1 => format!(
                "SELECT COUNT(*), MAX({}), SUM({}) FROM {from}{filter}",
                self.int_col(),
                self.int_col()
            ),
            // distinct
            2 => format!(
                "SELECT DISTINCT {}, {} FROM {from}{filter} ORDER BY 2, 1",
                self.int_col(),
                self.int_col()
            ),
            // wildcard, natural order
            3 => format!("SELECT * FROM {from}{filter}"),
            // expressions, hidden sort column, limit
            4 => {
                let hidden = self.int_col();
                let shown = self.int_col();
                format!(
                    "SELECT {shown} AS s, {} + 1, CASE WHEN {} THEN 'y' ELSE 'n' END FROM {from}{filter} \
                     ORDER BY {hidden}{}, 1 LIMIT {}",
                    self.int_col(),
                    self.predicate(0),
                    if self.rng.bool() { " DESC" } else { "" },
                    3 + self.rng.index(10)
                )
            }
            // scalar subquery and qualified wildcard in the projection
            _ => {
                let outer = self.int_col();
                format!(
                    "SELECT x0.*, (SELECT COUNT(*) FROM t2 q WHERE q.a = {outer}), \
                     (SELECT MAX(k) FROM t3) FROM {from}{filter}"
                )
            }
        }
    }

    fn statement(&mut self) -> String {
        let body = match self.rng.index(5) {
            0 => {
                let op = self.pick(&["UNION", "UNION ALL", "INTERSECT", "EXCEPT"]);
                let l = format!("SELECT {}, {} FROM {}", "x0.a", "x0.a + 0", "t1 x0");
                let from = self.join_clause();
                let filter = self.where_clause();
                let r = format!(
                    "SELECT {}, {} FROM {from}{filter}",
                    self.int_col(),
                    self.int_col()
                );
                if self.rng.bool() {
                    format!("{l} {op} {r} ORDER BY 1, 2")
                } else {
                    format!("{r} {op} {l}")
                }
            }
            _ => self.select(),
        };
        if body.contains("c1") {
            format!("{WITH_C1}{body}")
        } else {
            body
        }
    }
}

fn random_selects(n: usize, seed: u64) -> Vec<String> {
    let mut rng = Prng::seed_from_u64(seed);
    let mut gen = Gen {
        rng: &mut rng,
        bound: Vec::new(),
    };
    (0..n).map(|_| gen.statement()).collect()
}

// ---------------------------------------------------------------------------
// The corpus
// ---------------------------------------------------------------------------

fn record() -> Corpus {
    let mut c = Corpus::default();

    for (name, db) in [("parts", parts_db(false)), ("parts_ix", parts_db(true))] {
        for sql in COVERAGE {
            c.query(name, &db, sql, true);
        }
        for (sql, table) in DML {
            c.dml(name, &db, sql, table);
        }
    }
    let mut with_null = parts_db(false);
    with_null
        .execute("INSERT INTO bin VALUES (NULL, 'Z')")
        .unwrap();
    c.query(
        "parts_null",
        &with_null,
        "SELECT name FROM part WHERE id NOT IN (SELECT part_id FROM bin)",
        true,
    );

    for (name, db) in [("fig2", figure2_db(false)), ("fig2_ix", figure2_db(true))] {
        for sql in paper_statements() {
            c.query(name, &db, &sql, true);
        }
        c.dml(
            name,
            &db,
            "UPDATE flags SET checkedout = TRUE WHERE obid IN (SELECT right FROM link WHERE left = 2)",
            "flags",
        );
    }

    let adhoc = adhoc_db();
    for sql in ADHOC.iter().chain(RECURSION) {
        c.query("adhoc", &adhoc, sql, true);
    }
    let mut limited = adhoc.clone();
    limited.config.recursion_limit = 7;
    c.query("adhoc_limit7", &limited, RECURSION[0], false);
    c.query("adhoc_limit7", &limited, RECURSION[1], false);
    for (sql, table) in [
        ("UPDATE t1 SET b = b + 1 WHERE f = 0", "t1"),
        ("UPDATE t1 SET c = 'hit' WHERE f = 1.5", "t1"),
        ("DELETE FROM t1 WHERE a IN (2, 1, 2)", "t1"),
        ("DELETE FROM t1 WHERE t1.a = 2 AND c = 'y'", "t1"),
        ("DELETE FROM t1 WHERE other.a = 2", "t1"),
        ("DELETE FROM t2 WHERE a = 5 OR a IS NULL", "t2"),
    ] {
        c.dml("adhoc", &adhoc, sql, table);
    }
    for sql in random_selects(320, 0x00C0_FFEE) {
        c.query("adhoc_random", &adhoc, &sql, false);
    }

    for (name, db) in [("tree", tree_db(true)), ("tree_nospec", tree_db(false))] {
        // The root, a mid-level and a leaf-level assembly, and no object.
        let assemblies = db.query("SELECT obid FROM assy ORDER BY 1").unwrap();
        let obid = |i: usize| match assemblies.rows[i].get(0) {
            pdm_sql::Value::Int(v) => *v,
            other => panic!("obid {other}"),
        };
        let ids = [obid(0), obid(2), obid(assemblies.len() - 1), 424_242];
        for sql in pipeline_statements(&ids) {
            // Without specifications only the statements that read them can
            // run differently.
            if name == "tree" || sql.contains("specified_by") {
                c.query(name, &db, &sql, true);
            }
        }
        c.dml(
            name,
            &db,
            &format!("UPDATE assy SET checkedout = TRUE WHERE obid = {}", ids[1]),
            "assy",
        );
        c.dml(
            name,
            &db,
            &format!(
                "UPDATE comp SET checkedout = TRUE WHERE obid IN (SELECT right FROM link WHERE left = {})",
                ids[2]
            ),
            "comp",
        );
    }
    c
}

/// Entries of `got` that differ from `recorded`, in the changed-file format;
/// an entry only one side has reads `(absent)` on the other.
fn differing(recorded: &[(String, String)], got: &[(String, String)]) -> Vec<(String, String)> {
    const ABSENT: &str = "  (absent)\n";
    let recorded_by_key: BTreeMap<&str, &str> = recorded
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    let got_keys: HashSet<&str> = got.iter().map(|(k, _)| k.as_str()).collect();
    let vanished = recorded
        .iter()
        .filter(|(k, _)| !got_keys.contains(k.as_str()))
        .map(|(k, _)| (k.clone(), ABSENT.to_string()));
    got.iter()
        .filter(|(k, v)| recorded_by_key.get(k.as_str()) != Some(&v.as_str()))
        .cloned()
        .chain(vanished)
        .collect()
}

#[test]
fn executor_reproduces_the_recorded_corpus() {
    let parent = parse(&std::fs::read_to_string(golden_path("exec_corpus.txt")).unwrap());
    let changed = parse(&std::fs::read_to_string(golden_path("exec_corpus.changed.txt")).unwrap());
    let corpus = record();
    // The seventh configuration ran most of the corpus through kept plans.
    assert!(
        corpus.reused >= 50,
        "{} statements reused a template",
        corpus.reused
    );
    let actual = corpus.entries;

    // What differs from the parent's recording must be exactly what the
    // changed-entries file lists — no more, and nothing stale.
    let differs = differing(&parent, &actual);
    let unexplained = differing(&changed, &differs);
    assert!(
        unexplained.is_empty(),
        "{} of {} entries differ from the recorded corpus beyond the listed exceptions \
         (`(absent)`: a listed exception that no longer applies):\n{}",
        unexplained.len(),
        actual.len(),
        unexplained[..unexplained.len().min(12)]
            .iter()
            .map(|(k, v)| format!("## {k}\n{v}"))
            .collect::<String>()
    );
}

// ---------------------------------------------------------------------------
// Operator spans of a profiled run
// ---------------------------------------------------------------------------

/// Run `sql` on a snapshot of `db` with a recorder attached and render the
/// span tree: kind, label, detail, rows in → out, indented by parent. Also
/// checks that profiling changes neither the rows nor the `ExecStats`.
fn profiled(db: &Database, sql: &str) -> String {
    let query = pdm_sql::parser::parse_query(sql).unwrap();
    let snapshot = pdm_sql::SharedDatabase::new(db.clone()).snapshot();
    let obs = pdm_obs::Recorder::new();
    let (rows, stats) = snapshot.query_ast_profiled(&query, &obs).unwrap();
    let (plain_rows, plain_stats) = common::query_with_stats(db, sql).unwrap();
    assert_eq!(rows, plain_rows, "profiling changed the rows of {sql}");
    assert_eq!(
        render_stats(&stats),
        render_stats(&plain_stats),
        "profiling changed the counters of {sql}"
    );

    let spans = obs.spans();
    let mut out = format!("## {}\n", sql.trim());
    for span in &spans {
        let mut depth = 0;
        let mut at = span.parent;
        while let Some(parent) = at {
            depth += 1;
            at = spans[parent].parent;
        }
        let _ = writeln!(
            out,
            "{:indent$}{} {} [{}] {} -> {}",
            "",
            span.kind.full_name(),
            span.label,
            span.detail,
            span.rows_in,
            span.rows_out,
            indent = 2 + 2 * depth
        );
    }
    out
}

/// The navigational expand, the fully modified MLE (∀rows, ∃structure and
/// tree-aggregate subqueries in it) and the Query over the generator's tree,
/// plus one statement per remaining operator kind.
fn record_spans() -> String {
    let tree = tree_db(true);
    let views = HashSet::new();
    let rules = paper_rules();
    let modify = |action| Modificator::new(&rules, "scott", action, &views);
    let mut expand = navigational::expand_query_in(1, T_LINK);
    modify(ActionKind::Expand)
        .modify_navigational(&mut expand)
        .unwrap();
    let mut mle = recursive::mle_query_in(1, "link", false);
    modify(ActionKind::MultiLevelExpand)
        .modify_recursive(&mut mle)
        .unwrap();
    let mut query_all = navigational::query_all_query(1);
    modify(ActionKind::Query)
        .modify_navigational(&mut query_all)
        .unwrap();
    let mut out = String::new();
    for q in [expand, mle, query_all] {
        out += &profiled(&tree, &q.to_string());
    }
    let parts = parts_db(true);
    for sql in [
        COVERAGE[4],  // LEFT hash join
        COVERAGE[6],  // cross product
        COVERAGE[7],  // derived table, pushed filter
        COVERAGE[20], // view joined with a table
        COVERAGE[48], // correlated scalar subquery in the projection
        COVERAGE[51], // nested EXISTS
    ] {
        out += &profiled(&parts, sql);
    }
    out
}

#[test]
fn profiled_runs_record_the_recorded_spans() {
    let recorded = std::fs::read_to_string(golden_path("exec_spans.txt")).unwrap();
    let got = record_spans();
    assert!(
        recorded == got,
        "operator spans differ from the parent's:\n--- recorded\n{recorded}--- got\n{got}"
    );
}

/// Writes `exec_corpus.txt` and `exec_spans.txt` from the executor in the tree. Run only where
/// that executor is the reference (see the module docs).
#[test]
#[ignore = "re-records the golden file"]
fn record_corpus() {
    std::fs::create_dir_all(golden_path("")).unwrap();
    std::fs::write(golden_path("exec_corpus.txt"), record().render()).unwrap();
    std::fs::write(golden_path("exec_spans.txt"), record_spans()).unwrap();
}

/// Prints, in the changed-file format, every entry on which the executor in
/// the tree differs from the recorded corpus — the raw material for
/// `exec_corpus.changed.txt`, to which the reasons are then added by hand.
#[test]
#[ignore = "diagnostic: lists entries that differ from the golden file"]
fn list_changed_entries() {
    let parent = parse(&std::fs::read_to_string(golden_path("exec_corpus.txt")).unwrap());
    for (key, got) in differing(&parent, &record().entries) {
        print!("## {key}\n{got}");
    }
}
