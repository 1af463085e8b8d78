#![allow(clippy::unwrap_used)]

//! Property-based tests on the engine's core invariants: value ordering
//! laws, parser round-trips, set-operation algebra, and recursive-CTE
//! reachability against an independent Rust-side traversal.
//!
//! Uses the in-repo `pdm_prng::check` harness (explicit generator loops)
//! instead of proptest, which the offline build cannot fetch.

use pdm_prng::check::cases;
use pdm_prng::Prng;

use pdm_obs::Recorder;
use pdm_sql::ast::{BinOp, Expr};
use pdm_sql::parser::{parse_expr, parse_query};
use pdm_sql::{Database, Value};

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

fn arb_value(rng: &mut Prng) -> Value {
    match rng.index(7) {
        0 => Value::Null,
        1 => Value::Bool(rng.bool()),
        2 => Value::Int(rng.i64_inclusive(i32::MIN as i64, i32::MAX as i64)),
        3 => Value::Float(rng.f64_range(-1e9, 1e9)),
        4 => edge_number(rng),
        5 => Value::Float(if rng.bool() { 0.0 } else { -0.0 }),
        _ => {
            const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ";
            let len = rng.usize_inclusive(0, 12);
            let s: String = (0..len)
                .map(|_| CHARS[rng.index(CHARS.len())] as char)
                .collect();
            Value::Text(s)
        }
    }
}

/// A number where INT and FLOAT part ways: around 2^53 (the last INT every
/// FLOAT neighbour of which is exact) and the ends of the INT range, as an
/// INT or as the nearest FLOAT.
fn edge_number(rng: &mut Prng) -> Value {
    let base = [1i64 << 53, -(1i64 << 53), i64::MAX, i64::MIN][rng.index(4)];
    let i = base.saturating_add(rng.i64_inclusive(-2, 2));
    if rng.bool() {
        Value::Int(i)
    } else {
        Value::Float(i as f64)
    }
}

/// SQL keywords a generated column name must avoid to keep rendered SQL
/// re-parsable.
const KEYWORDS: &[&str] = &[
    "select",
    "from",
    "where",
    "and",
    "or",
    "not",
    "in",
    "is",
    "null",
    "true",
    "false",
    "as",
    "on",
    "join",
    "union",
    "all",
    "except",
    "intersect",
    "group",
    "by",
    "order",
    "having",
    "with",
    "recursive",
    "case",
    "when",
    "then",
    "else",
    "end",
    "like",
    "between",
    "exists",
    "distinct",
    "limit",
    "asc",
    "desc",
];

fn arb_ident(rng: &mut Prng) -> String {
    loop {
        let s = rng.ident(1, 6);
        if !KEYWORDS.contains(&s.as_str()) {
            return s;
        }
    }
}

fn arb_literal(rng: &mut Prng) -> Expr {
    match rng.index(4) {
        0 => Expr::Literal(Value::Int(
            rng.i64_inclusive(i32::MIN as i64, i32::MAX as i64),
        )),
        1 => {
            let len = rng.usize_inclusive(0, 6);
            let s: String = (0..len)
                .map(|_| (b'a' + rng.index(26) as u8) as char)
                .collect();
            Expr::Literal(Value::Text(s))
        }
        2 => Expr::Literal(Value::Bool(rng.bool())),
        _ => Expr::Literal(Value::Null),
    }
}

fn arb_column(rng: &mut Prng) -> Expr {
    let qualifier = if rng.bool() {
        Some(arb_ident(rng))
    } else {
        None
    };
    Expr::Column {
        qualifier,
        name: arb_ident(rng),
    }
}

fn arb_binop(rng: &mut Prng) -> BinOp {
    const OPS: &[BinOp] = &[
        BinOp::Eq,
        BinOp::NotEq,
        BinOp::Lt,
        BinOp::LtEq,
        BinOp::Gt,
        BinOp::GtEq,
        BinOp::And,
        BinOp::Or,
        BinOp::Plus,
        BinOp::Minus,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Concat,
    ];
    OPS[rng.index(OPS.len())]
}

fn arb_expr(rng: &mut Prng, depth: u32) -> Expr {
    if depth == 0 || rng.index(4) == 0 {
        return if rng.bool() {
            arb_literal(rng)
        } else {
            arb_column(rng)
        };
    }
    match rng.index(4) {
        0 => Expr::BinaryOp {
            left: Box::new(arb_expr(rng, depth - 1)),
            op: arb_binop(rng),
            right: Box::new(arb_expr(rng, depth - 1)),
        },
        1 => Expr::Not(Box::new(arb_expr(rng, depth - 1))),
        2 => Expr::IsNull {
            expr: Box::new(arb_expr(rng, depth - 1)),
            negated: rng.bool(),
        },
        _ => {
            let n = rng.usize_inclusive(1, 2);
            Expr::InList {
                expr: Box::new(arb_expr(rng, depth - 1)),
                list: (0..n).map(|_| arb_expr(rng, depth - 1)).collect(),
                negated: rng.bool(),
            }
        }
    }
}

fn int_vec(rng: &mut Prng, lo: i64, hi: i64, max_len: usize) -> Vec<i64> {
    let len = rng.usize_inclusive(0, max_len);
    (0..len).map(|_| rng.i64_inclusive(lo, hi)).collect()
}

// ---------------------------------------------------------------------------
// Value ordering laws
// ---------------------------------------------------------------------------

#[test]
fn total_cmp_is_reflexive_and_antisymmetric() {
    cases("total_cmp_reflexive_antisymmetric", 512, 0x01, |rng| {
        use std::cmp::Ordering;
        let a = arb_value(rng);
        let b = arb_value(rng);
        assert_eq!(a.total_cmp(&a), Ordering::Equal);
        assert_eq!(a.total_cmp(&b), b.total_cmp(&a).reverse());
    });
}

#[test]
fn total_cmp_is_transitive() {
    cases("total_cmp_transitive", 512, 0x02, |rng| {
        use std::cmp::Ordering::Greater;
        let mut v = [arb_value(rng), arb_value(rng), arb_value(rng)];
        v.sort_by(|x, y| x.total_cmp(y));
        assert_ne!(v[0].total_cmp(&v[1]), Greater);
        assert_ne!(v[1].total_cmp(&v[2]), Greater);
        assert_ne!(v[0].total_cmp(&v[2]), Greater);
    });
}

/// Every triple of the numbers where INT and FLOAT part ways: `total_cmp`
/// is a total order (equal to equal is equal, below below is below), and
/// it is SQL's order on them.
#[test]
fn total_cmp_orders_the_edge_numbers() {
    use std::cmp::Ordering::{Equal, Less};
    let mut pool = vec![Value::Float(0.0), Value::Float(-0.0), Value::Int(0)];
    for base in [1i64 << 53, -(1i64 << 53), i64::MAX, i64::MIN] {
        for d in -2..=2 {
            let i = base.saturating_add(d);
            pool.extend([Value::Int(i), Value::Float(i as f64)]);
        }
    }
    for a in &pool {
        for b in &pool {
            assert_eq!(a.sql_cmp(b), Some(a.total_cmp(b)), "{a:?} vs {b:?}");
            for c in &pool {
                let (ab, bc, ac) = (a.total_cmp(b), b.total_cmp(c), a.total_cmp(c));
                if ab == Equal && bc == Equal {
                    assert_eq!(ac, Equal, "{a:?} = {b:?} = {c:?}");
                }
                if ab != Equal && ab == bc {
                    assert_eq!(ac, ab, "{a:?}, {b:?}, {c:?}");
                }
                if ab == Less && bc == Equal || ab == Equal && bc == Less {
                    assert_eq!(ac, Less, "{a:?}, {b:?}, {c:?}");
                }
            }
        }
    }
}

#[test]
fn dedup_eq_implies_equal_hash() {
    cases("dedup_eq_equal_hash", 512, 0x03, |rng| {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let a = arb_value(rng);
        let b = arb_value(rng);
        if a.dedup_eq(&b) {
            let mut ha = DefaultHasher::new();
            a.hash(&mut ha);
            let mut hb = DefaultHasher::new();
            b.hash(&mut hb);
            assert_eq!(ha.finish(), hb.finish());
        }
    });
}

#[test]
fn sql_eq_agrees_with_dedup_eq_for_non_null() {
    cases("sql_eq_vs_dedup_eq", 512, 0x04, |rng| {
        let a = arb_value(rng);
        let b = arb_value(rng);
        if let Some(eq) = a.sql_eq(&b) {
            assert_eq!(eq, a.dedup_eq(&b));
        }
    });
}

/// Dedup equality is SQL `=`: the two statements that disagreed before,
/// the second one in every order of its three operands.
#[test]
fn union_dedups_what_equality_equates() {
    let db = Database::new();
    let count = |sql: &str| db.query(sql).unwrap().len();
    assert_eq!(count("SELECT 1 WHERE 0.0 = -0.0"), 1);
    assert_eq!(count("SELECT 0.0 UNION SELECT -0.0"), 1);
    let (odd, float, even) = ("9007199254740993", "9007199254740992.0", "9007199254740992");
    assert_eq!(count(&format!("SELECT 1 WHERE {odd} = {float}")), 0);
    assert_eq!(count(&format!("SELECT 1 WHERE {even} = {float}")), 1);
    for [a, b, c] in [
        [odd, float, even],
        [float, odd, even],
        [even, odd, float],
        [float, even, odd],
    ] {
        let sql = format!("SELECT {a} UNION SELECT {b} UNION SELECT {c}");
        assert_eq!(count(&sql), 2, "{sql}");
    }
}

// ---------------------------------------------------------------------------
// Operand path ≡ interpreter
// ---------------------------------------------------------------------------

/// The columns of both tables of the differential: name and type.
const COLUMNS: [(&str, &str); 4] = [
    ("i", "INTEGER"),
    ("f", "DOUBLE"),
    ("s", "VARCHAR"),
    ("b", "BOOLEAN"),
];

/// A stored value of column `col`: NULLs, both zeros, INT/FLOAT neighbours
/// of 2^53, and (for `f`) the twin of the row's INT half the time.
fn stored(rng: &mut Prng, col: usize, twin: &Value) -> Value {
    const BIG: i64 = 1 << 53;
    if rng.index(5) == 0 {
        return Value::Null;
    }
    match col {
        0 => Value::Int([0, 1, 2, -3, BIG, BIG + 1][rng.index(6)]),
        1 => match twin {
            Value::Int(i) if rng.bool() => Value::Float(*i as f64),
            _ => Value::Float([0.0, -0.0, 1.5, 2.0, -3.0, BIG as f64][rng.index(6)]),
        },
        2 => Value::Text(["", "a", "b"][rng.index(3)].into()),
        _ => Value::Bool(rng.bool()),
    }
}

/// A literal as written in SQL: INTs (a template lifts them into `$n`),
/// FLOATs, texts, booleans, NULL. No sign: `-1` is an operator.
fn literal(rng: &mut Prng, col: usize) -> String {
    match col {
        0 => ["0", "2", "9007199254740992", "9007199254740993"][rng.index(4)].into(),
        1 => ["0.0", "1.5", "2.0", "9007199254740992.0"][rng.index(4)].into(),
        2 => ["''", "'a'", "'b'"][rng.index(3)].into(),
        _ if rng.index(3) == 0 => "NULL".into(),
        _ => ["TRUE", "FALSE"][rng.index(2)].into(),
    }
}

/// A leaf of type `col` (or, one time in four, of any type): a column of
/// one of `tables`, or a literal.
fn operand(rng: &mut Prng, col: usize, tables: &[&str]) -> String {
    let col = if rng.index(4) == 0 { rng.index(4) } else { col };
    if rng.bool() {
        format!("{}.{}", tables[rng.index(tables.len())], COLUMNS[col].0)
    } else {
        literal(rng, col)
    }
}

/// Rows (as `Debug`, which tells `-0.0` from `0.0`) or the error message.
fn outcome(db: &Database, sql: &str) -> Result<Vec<String>, String> {
    let rows = |rs: pdm_sql::ResultSet| rs.rows.iter().map(|r| format!("{r:?}")).collect();
    db.query(sql).map(rows).map_err(|e| e.to_string())
}

/// The same through a template: every INT literal of `sql` is a `$n`.
fn templated(db: &Database, sql: &str) -> Result<Vec<String>, String> {
    let rows = |rs: pdm_sql::ResultSet| rs.rows.iter().map(|r| format!("{r:?}")).collect();
    let resolved = pdm_sql::template::Templates::default()
        .resolve(sql)
        .map_err(|e| e.to_string())?;
    db.query_template_profiled(&resolved.template, &resolved.values, &Recorder::disabled())
        .map(|(rs, _)| rows(rs))
        .map_err(|e| e.to_string())
}

/// A comparison of two operands is decided in place (`holds`), and a
/// projected operand is cloned from the row; wrapped so that only the
/// interpreter can evaluate them (`NOT (NOT (p))`, `CASE WHEN TRUE THEN c
/// END`), each must give the same rows — and, where a type mismatch stops
/// the statement, the same message. Columns, literals and `$n` on either
/// side, at depth 0 and (inside `EXISTS`) depth 1. Semi-join decorrelation
/// is off: it would take the `EXISTS` equalities away from `holds`.
#[test]
fn operands_read_in_place_as_the_interpreter_reads_them() {
    let (mut rows_seen, mut errors_seen) = (0, 0);
    cases("operand_path_vs_interpreter", 512, 0x0B, |rng| {
        let mut db = Database::new();
        db.config.semijoin_decorrelation = false;
        for table in ["t", "u"] {
            let cols: Vec<String> = COLUMNS.iter().map(|(n, ty)| format!("{n} {ty}")).collect();
            db.execute(&format!("CREATE TABLE {table} ({})", cols.join(", ")))
                .unwrap();
            let rows = (0..rng.usize_inclusive(0, 6))
                .map(|_| {
                    let i = stored(rng, 0, &Value::Null);
                    let rest = (1..4).map(|c| stored(rng, c, &i));
                    pdm_sql::Row::new(std::iter::once(i.clone()).chain(rest).collect())
                })
                .collect();
            db.insert_rows(table, rows).unwrap();
        }
        let op = ["=", "<>", "<", "<=", ">", ">="][rng.index(6)];
        let ty = rng.index(4);
        let mut pairs = Vec::new();
        // Depth 0: a filter of `t`.
        let (l, r) = (operand(rng, ty, &["t"]), operand(rng, ty, &["t"]));
        pairs.push((
            format!("SELECT t.i, t.s FROM t WHERE {l} {op} {r}"),
            format!("SELECT t.i, t.s FROM t WHERE NOT (NOT ({l} {op} {r}))"),
        ));
        // Depth 1: `t`'s column inside a subquery over `u`.
        let (l, r) = (operand(rng, ty, &["u"]), operand(rng, ty, &["t"]));
        let (l, r) = if rng.bool() { (l, r) } else { (r, l) };
        pairs.push((
            format!("SELECT t.i FROM t WHERE EXISTS (SELECT 1 FROM u WHERE {l} {op} {r})"),
            format!(
                "SELECT t.i FROM t WHERE EXISTS (SELECT 1 FROM u WHERE NOT (NOT ({l} {op} {r})))"
            ),
        ));
        // Projection over two bindings.
        let items: Vec<String> = (0..rng.usize_inclusive(1, 4))
            .map(|_| {
                let ty = rng.index(4);
                operand(rng, ty, &["t", "u"])
            })
            .collect();
        let wrapped: Vec<String> = items
            .iter()
            .map(|c| format!("CASE WHEN TRUE THEN {c} END"))
            .collect();
        pairs.push((
            format!("SELECT {} FROM t, u", items.join(", ")),
            format!("SELECT {} FROM t, u", wrapped.join(", ")),
        ));
        for (fast, interpreted) in pairs {
            for run in [outcome, templated] {
                let got = run(&db, &fast);
                assert_eq!(got, run(&db, &interpreted), "{fast}");
                match got {
                    Ok(rows) => rows_seen += usize::from(!rows.is_empty()),
                    Err(_) => errors_seen += 1,
                }
            }
        }
    });
    // Both outcomes are well represented (of 512 × 6 runs).
    assert!(
        rows_seen > 1000 && errors_seen > 200,
        "{rows_seen} {errors_seen}"
    );
}

// ---------------------------------------------------------------------------
// Shared rows ≡ owned rows
// ---------------------------------------------------------------------------

/// Every call a `Hash` impl makes, in order. Two rows that make the same
/// calls hash equal under any hasher — the dedup set's included.
#[derive(Default)]
struct HashCalls(Vec<u8>);

impl std::hash::Hasher for HashCalls {
    fn write(&mut self, bytes: &[u8]) {
        self.0.push(b'w');
        self.0.extend_from_slice(bytes);
    }
    fn write_u8(&mut self, n: u8) {
        self.0.extend_from_slice(&[b'1', n]);
    }
    fn write_u64(&mut self, n: u64) {
        self.0.push(b'8');
        self.0.extend_from_slice(&n.to_le_bytes());
    }
    fn write_usize(&mut self, n: usize) {
        self.0.push(b'z');
        self.0.extend_from_slice(&n.to_le_bytes());
    }
    fn finish(&self) -> u64 {
        0
    }
}

/// Everything a reader can see of a result's rows: each row's `Debug`
/// (which tells `-0.0` from `0.0` and INT from FLOAT), `Display`, wire size
/// and hash calls, and the rows' `put_result_set` bytes under `schema` —
/// the caller's, so two statements whose items are named or typed
/// differently encode the same rows the same way. Or the error message.
fn seen_as(
    result: &Result<pdm_sql::ResultSet, String>,
    schema: &std::sync::Arc<pdm_sql::Schema>,
) -> Result<(Vec<String>, Vec<u8>), String> {
    use std::hash::Hash;
    let rs = result.as_ref().map_err(Clone::clone)?;
    let rows = rs.rows.iter().map(|row| {
        let mut calls = HashCalls::default();
        row.hash(&mut calls);
        format!("{row:?} {row} {} {:?}", row.wire_size(), calls.0)
    });
    let mut bytes = Vec::new();
    let rebased = pdm_sql::ResultSet::new(std::sync::Arc::clone(schema), rs.rows.clone());
    pdm_sql::persist::put_result_set(&mut bytes, &rebased);
    Ok((rows.collect(), bytes))
}

/// The sharing differential's table: the operand differential's columns
/// and a payload of PDM size.
const SHARE_COLUMNS: &str = "i INTEGER, f DOUBLE, s VARCHAR, b BOOLEAN, p VARCHAR";

/// A stored payload: NULL, empty, short or 256 bytes (a PDM node's).
fn payload(rng: &mut Prng) -> Value {
    match rng.index(4) {
        0 => Value::Null,
        1 => Value::Text(String::new()),
        2 => Value::Text("p".into()),
        _ => Value::Text(["p", "q"][rng.index(2)].repeat(256)),
    }
}

/// A projected item of the sharing block: a column (any of the five), a
/// literal or a folded cast.
fn share_item(rng: &mut Prng) -> String {
    match rng.index(8) {
        0..=3 => ["i", "f", "s", "b", "p"][rng.index(5)].into(),
        4 | 5 => {
            let ty = rng.index(4);
            literal(rng, ty)
        }
        6 => "CAST (NULL AS integer)".into(),
        _ => [
            "CAST (NULL AS varchar)",
            "CAST (2 AS double)",
            "CAST ('' AS varchar)",
        ][rng.index(3)]
        .into(),
    }
}

/// A SELECT block of one base table that projects columns and constants
/// hands on the stored rows it admits instead of copies. Wrapped in `CASE
/// WHEN TRUE THEN c END`, the same items are computed and copied; each
/// statement must read the same in both forms — rows by `==`, `Debug`,
/// `Display`, wire size, the calls their `Hash` makes and their
/// `put_result_set` bytes — plain and through a template (where an INT
/// literal item is a `$n`, which does not share). Set operations and
/// DISTINCT over a shared and an owned operand keep exactly one copy of
/// each equal row, the copy the all-owned statement keeps.
#[test]
fn shared_rows_read_as_the_owned_rows_they_replace() {
    let (mut shared_seen, mut rows_seen, mut errors_seen) = (0, 0, 0);
    cases("shared_rows_vs_owned_rows", 256, 0x0C, |rng| {
        let mut db = Database::new();
        for table in ["t", "u"] {
            db.execute(&format!("CREATE TABLE {table} ({SHARE_COLUMNS})"))
                .unwrap();
            let rows = (0..rng.usize_inclusive(0, 8))
                .map(|_| {
                    let i = stored(rng, 0, &Value::Null);
                    let mut values = vec![i.clone()];
                    values.extend((1..4).map(|c| stored(rng, c, &i)));
                    values.push(payload(rng));
                    pdm_sql::Row::new(values)
                })
                .collect();
            db.insert_rows(table, rows).unwrap();
        }
        let items: Vec<String> = (0..rng.usize_inclusive(1, 6))
            .map(|_| share_item(rng))
            .collect();
        let wrapped: Vec<String> = items
            .iter()
            .map(|c| format!("CASE WHEN TRUE THEN {c} END"))
            .collect();
        let (items, wrapped) = (items.join(", "), wrapped.join(", "));
        let mut filter = |table: &str| match rng.index(3) {
            0 => String::new(),
            _ => {
                let op = ["=", "<>", "<", ">="][rng.index(4)];
                let ty = rng.index(4);
                let (l, r) = (operand(rng, ty, &[table]), operand(rng, ty, &[table]));
                format!(" WHERE {l} {op} {r}")
            }
        };
        let (wt, wu) = (filter("t"), filter("u"));
        let block =
            |items: &str, table: &str, filter: &str| format!("SELECT {items} FROM {table}{filter}");
        let (plain, owned) = (block(&items, "t", &wt), block(&wrapped, "t", &wt));

        // The plain block shares (a column read twice is one value in
        // memory); the wrapped one copies.
        let column = (items.split(", ")).position(|c| ["i", "f", "s", "b", "p"].contains(&c));
        let twice = |sql: &str| [db.query(sql).unwrap(), db.query(sql).unwrap()];
        if let (Some(c), Ok(rs)) = (column, db.query(&plain)) {
            if !rs.is_empty() {
                let [a, b] = twice(&plain);
                assert!(std::ptr::eq(a.rows[0].get(c), b.rows[0].get(c)), "{plain}");
                let [a, b] = twice(&owned);
                assert!(!std::ptr::eq(a.rows[0].get(c), b.rows[0].get(c)), "{owned}");
                shared_seen += 1;
            }
        }

        let mut pairs = vec![
            (plain.clone(), owned.clone()),
            (
                format!("SELECT DISTINCT {items} FROM t{wt}"),
                format!("SELECT DISTINCT {wrapped} FROM t{wt}"),
            ),
        ];
        for op in ["UNION", "INTERSECT", "EXCEPT"] {
            let all_owned = format!("{owned} {op} {}", block(&wrapped, "u", &wu));
            for (left, right) in [(&items, &wrapped), (&wrapped, &items), (&items, &items)] {
                let mixed = format!("{} {op} {}", block(left, "t", &wt), block(right, "u", &wu));
                pairs.push((mixed, all_owned.clone()));
            }
        }
        for (sharing, copying) in pairs {
            for run in [
                |db: &Database, sql: &str| db.query(sql).map_err(|e| e.to_string()),
                |db: &Database, sql: &str| {
                    let resolved = pdm_sql::template::Templates::default()
                        .resolve(sql)
                        .map_err(|e| e.to_string())?;
                    let disabled = Recorder::disabled();
                    db.query_template_profiled(&resolved.template, &resolved.values, &disabled)
                        .map(|(rs, _)| rs)
                        .map_err(|e| e.to_string())
                },
            ] {
                let (got, want) = (run(&db, &sharing), run(&db, &copying));
                let schema = match (&got, &want) {
                    (Ok(rs), _) | (_, Ok(rs)) => std::sync::Arc::clone(&rs.schema),
                    _ => std::sync::Arc::new(pdm_sql::Schema::new(Vec::new())),
                };
                assert_eq!(seen_as(&got, &schema), seen_as(&want, &schema), "{sharing}");
                match (got, want) {
                    (Ok(got), Ok(want)) => {
                        assert_eq!(got.rows, want.rows, "{sharing}");
                        let set_op = ["UNION", "INTERSECT", "EXCEPT", "DISTINCT"];
                        if set_op.iter().any(|op| sharing.contains(op)) {
                            for (k, row) in got.rows.iter().enumerate() {
                                let copies = got.rows[k..].iter().filter(|r| *r == row);
                                assert_eq!(copies.count(), 1, "{sharing}: {row}");
                            }
                        }
                        rows_seen += usize::from(!got.is_empty());
                    }
                    _ => errors_seen += 1,
                }
            }
        }
    });
    // Of 256 cases (the plain block returned a row in 108 at the time of
    // writing), and of their 22 runs of each form: both outcomes are well
    // represented.
    assert!(
        shared_seen > 80 && rows_seen > 1500 && errors_seen > 200,
        "{shared_seen} {rows_seen} {errors_seen}"
    );
}

// ---------------------------------------------------------------------------
// Keyed UNION dedup ≡ full-row dedup ≡ first occurrences
// ---------------------------------------------------------------------------

/// One step of a keyed-dedup history: the statement's shape, an index, or
/// a stored row. Shrinking drops steps; a history without a shape step
/// runs the default shape.
#[derive(Clone, Debug)]
enum UnionStep {
    /// Each block projects its key column (`i` or `f`) at ordinal `at` of
    /// its other items; `filters` narrow the blocks (`""`: none).
    Shape {
        keys: [&'static str; 2],
        at: usize,
        items: [Vec<&'static str>; 2],
        filters: [&'static str; 2],
    },
    /// `CREATE INDEX` on this column of `t` (0) or `u` (1).
    Index(usize, &'static str),
    /// A row `(i, f, s, p)` of `t` (0) or `u` (1).
    Row(usize, [Value; 4]),
}

/// A key of column `col` (`i`: 0, `f`: 1): NULL, both zeros, an INT and the
/// FLOAT of its value. `fresh` draws from a pool no other row of the table
/// drew from (a unique column), else from a small pool (duplicates).
fn union_key(rng: &mut Prng, col: usize, fresh: &mut Vec<Value>, unique: bool) -> Value {
    if unique && !fresh.is_empty() {
        return fresh.swap_remove(rng.index(fresh.len()));
    }
    match (col, rng.index(5)) {
        (_, 0) => Value::Null,
        (0, k) => Value::Int(k as i64 % 3),
        (_, 1) => Value::Float(0.0),
        (_, 2) => Value::Float(-0.0),
        (_, k) => Value::Float((k - 2) as f64),
    }
}

/// A history: a shape, indexes on the key columns most of the time, and up
/// to 7 rows per table, whose keys are drawn unique in three tables of
/// four. A row of `u` copies a row of `t` one time in eight, or its key
/// alone one time in eight.
fn union_history(rng: &mut Prng) -> Vec<UnionStep> {
    const ITEMS: [&str; 6] = ["s", "p", "i", "f", "'c'", "CAST (NULL AS integer)"];
    let keys = [["i", "f"][rng.index(2)], ["i", "f"][rng.index(2)]];
    let width = rng.usize_inclusive(0, 3);
    let mut items = || (0..width).map(|_| ITEMS[rng.index(ITEMS.len())]).collect();
    let items = [items(), items()];
    let filters = ["", "", "WHERE s <> 'b'", "WHERE i IS NOT NULL"];
    let shape = UnionStep::Shape {
        keys,
        at: rng.usize_inclusive(0, width),
        items,
        filters: [filters[rng.index(4)], filters[rng.index(4)]],
    };
    let mut steps = vec![shape];
    for (table, key) in keys.iter().enumerate() {
        if rng.index(8) != 0 {
            steps.push(UnionStep::Index(table, key));
        }
    }
    let mut t_rows: Vec<[Value; 4]> = Vec::new();
    for (table, key) in keys.iter().enumerate() {
        let col = usize::from(*key == "f");
        let unique = rng.index(4) != 0;
        let mut fresh: Vec<Value> = match col {
            0 => [0, 1, 2, 3, 4, 5, 7].map(Value::Int).to_vec(),
            _ => [[0.0, -0.0][rng.index(2)], 1.0, 2.0, 2.5, 3.0, 4.5, 8.0]
                .map(Value::Float)
                .to_vec(),
        };
        fresh.push(Value::Null);
        for _ in 0..rng.usize_inclusive(0, 7) {
            let mut row = [
                Value::Int(rng.index(3) as i64),
                Value::Float(rng.index(3) as f64),
                Value::Text(["a", "b"][rng.index(2)].into()),
                Value::Text(["p", "q"][rng.index(2)].repeat(1 + 40 * rng.index(2))),
            ];
            row[col] = union_key(rng, col, &mut fresh, unique);
            if table == 1 && !t_rows.is_empty() && rng.index(4) == 0 {
                let twin = t_rows[rng.index(t_rows.len())].clone();
                if rng.bool() {
                    row = twin;
                } else {
                    row[col] = twin[col].clone();
                }
            }
            if table == 0 {
                t_rows.push(row.clone());
            }
            steps.push(UnionStep::Row(table, row));
        }
    }
    steps
}

/// The first occurrence of each row, in order, by `==`, pairwise.
fn first_occurrences(rows: &[pdm_sql::Row]) -> Vec<&pdm_sql::Row> {
    (rows.iter().enumerate())
        .filter(|&(k, row)| !rows[..k].contains(row))
        .map(|(_, row)| row)
        .collect()
}

/// A UNION of two sharing blocks hashes one column when both tables hold
/// it unique (`ExecStats::keyed_dedups`); either way it keeps what the
/// full-row dedup keeps (the same statement over the same rows with no
/// index, so no key) and what a pairwise first-occurrence pass over its
/// `UNION ALL` keeps: rows and order, by `Debug` (which tells `-0.0` from
/// `0.0` and INT from FLOAT). Keys unique or not, indexed or not, NULL,
/// `0.0` beside `-0.0`, an INT key against a FLOAT key, rows equal across
/// the branches and rows equal in the key alone.
#[test]
fn keyed_union_dedup_keeps_what_the_full_row_dedup_keeps() {
    let (mut keyed, mut runs) = (0, 0);
    pdm_prng::check::shrinking(
        "keyed_union_dedup_vs_full_row",
        256,
        0x0D,
        union_history,
        |steps| {
            let (mut indexed, mut plain) = (Database::new(), Database::new());
            for db in [&mut indexed, &mut plain] {
                for table in ["t", "u"] {
                    let ddl =
                        format!("CREATE TABLE {table} (i INTEGER, f DOUBLE, s VARCHAR, p VARCHAR)");
                    db.execute(&ddl).map_err(|e| e.to_string())?;
                }
            }
            let mut shape = ("SELECT i FROM t".to_string(), "SELECT i FROM u".to_string());
            for step in steps {
                match step {
                    UnionStep::Shape {
                        keys,
                        at,
                        items,
                        filters,
                    } => {
                        let block = |b: usize, table: &str| {
                            let mut items = items[b].clone();
                            items.insert(*at, keys[b]);
                            format!("SELECT {} FROM {table} {}", items.join(", "), filters[b])
                        };
                        shape = (block(0, "t"), block(1, "u"));
                    }
                    UnionStep::Index(table, col) => {
                        let ddl = format!("CREATE INDEX ON {} ({col})", ["t", "u"][*table]);
                        indexed.execute(&ddl).map_err(|e| e.to_string())?;
                    }
                    UnionStep::Row(table, values) => {
                        for db in [&mut indexed, &mut plain] {
                            let row = pdm_sql::Row::new(values.to_vec());
                            db.insert_rows(["t", "u"][*table], vec![row])
                                .map_err(|e| e.to_string())?;
                        }
                    }
                }
            }
            let union = format!("{} UNION {}", shape.0, shape.1);
            let run = |db: &Database, sql: &str| {
                let query = parse_query(sql).map_err(|e| e.to_string())?;
                (db.query_ast_profiled(&query, &Recorder::disabled())).map_err(|e| e.to_string())
            };
            let (got, stats) = run(&indexed, &union)?;
            let (full_row, plain_stats) = run(&plain, &union)?;
            let (all, _) = run(&indexed, &format!("{} UNION ALL {}", shape.0, shape.1))?;
            let debug = |rows: &[&pdm_sql::Row]| format!("{rows:?}");
            let got_rows: Vec<_> = got.rows.iter().collect();
            let want = debug(&first_occurrences(&all.rows));
            if debug(&got_rows) != want || debug(&full_row.rows.iter().collect::<Vec<_>>()) != want
            {
                return Err(format!(
                    "{union}\nkeyed ({} keyed): {got_rows:?}\nfull row: {:?}\nfirst occurrences: {want}",
                    stats.keyed_dedups, full_row.rows
                ));
            }
            if plain_stats.keyed_dedups != 0 || stats.keyed_dedups > 1 {
                return Err(format!("{union}: {stats:?} / {plain_stats:?}"));
            }
            keyed += stats.keyed_dedups;
            runs += 1;
            Ok(())
        },
    );
    // At least a quarter of the cases took the keyed path.
    assert!(runs == 256 && keyed * 4 >= runs, "{keyed} keyed of {runs}");
}

// ---------------------------------------------------------------------------
// Parser round-trips over generated expressions
// ---------------------------------------------------------------------------

/// Rendering an AST to SQL and re-parsing must reproduce the AST — the
/// property the query modificator's whole workflow relies on.
#[test]
fn expr_round_trips_through_parser() {
    cases("expr_round_trip", 256, 0x05, |rng| {
        let e = arb_expr(rng, 4);
        let sql = e.to_string();
        let reparsed =
            parse_expr(&sql).unwrap_or_else(|err| panic!("'{sql}' failed to parse: {err}"));
        assert_eq!(e, reparsed, "round-trip mismatch for {sql}");
    });
}

// ---------------------------------------------------------------------------
// Set-operation algebra on materialized tables
// ---------------------------------------------------------------------------

fn db_with_sets(a: &[i64], b: &[i64]) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE a (x INTEGER)").unwrap();
    db.execute("CREATE TABLE b (x INTEGER)").unwrap();
    for v in a {
        db.execute(&format!("INSERT INTO a VALUES ({v})")).unwrap();
    }
    for v in b {
        db.execute(&format!("INSERT INTO b VALUES ({v})")).unwrap();
    }
    db
}

fn ints(db: &Database, sql: &str) -> Vec<i64> {
    let mut out: Vec<i64> = db
        .query(sql)
        .unwrap()
        .rows
        .iter()
        .map(|r| match r.get(0) {
            Value::Int(i) => *i,
            other => panic!("unexpected {other}"),
        })
        .collect();
    out.sort_unstable();
    out
}

#[test]
fn union_is_commutative_and_dedups() {
    cases("union_commutative", 64, 0x06, |rng| {
        let a = int_vec(rng, -20, 19, 11);
        let b = int_vec(rng, -20, 19, 11);
        let db = db_with_sets(&a, &b);
        let ab = ints(&db, "SELECT x FROM a UNION SELECT x FROM b");
        let ba = ints(&db, "SELECT x FROM b UNION SELECT x FROM a");
        assert_eq!(ab, ba);
        // dedup: no adjacent duplicates after sort
        assert!(ab.windows(2).all(|w| w[0] != w[1]));
        // reference semantics
        let mut expected: Vec<i64> = a.iter().chain(&b).copied().collect();
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(ab, expected);
    });
}

#[test]
fn intersect_and_except_reference_semantics() {
    cases("intersect_except_reference", 64, 0x07, |rng| {
        use std::collections::BTreeSet;
        let a = int_vec(rng, -10, 9, 11);
        let b = int_vec(rng, -10, 9, 11);
        let db = db_with_sets(&a, &b);
        let sa: BTreeSet<i64> = a.iter().copied().collect();
        let sb: BTreeSet<i64> = b.iter().copied().collect();

        let inter = ints(&db, "SELECT x FROM a INTERSECT SELECT x FROM b");
        assert_eq!(inter, sa.intersection(&sb).copied().collect::<Vec<_>>());

        let diff = ints(&db, "SELECT x FROM a EXCEPT SELECT x FROM b");
        assert_eq!(diff, sa.difference(&sb).copied().collect::<Vec<_>>());
    });
}

#[test]
fn union_all_preserves_cardinality() {
    cases("union_all_cardinality", 64, 0x08, |rng| {
        let a = int_vec(rng, -5, 4, 9);
        let b = int_vec(rng, -5, 4, 9);
        let db = db_with_sets(&a, &b);
        let rs = db
            .query("SELECT x FROM a UNION ALL SELECT x FROM b")
            .unwrap();
        assert_eq!(rs.len(), a.len() + b.len());
    });
}

// ---------------------------------------------------------------------------
// Recursive CTE reachability vs independent traversal
// ---------------------------------------------------------------------------

/// Build a random directed graph of `n` nodes, compute reachability from
/// node 0 with WITH RECURSIVE, and compare against a Rust BFS.
#[test]
fn recursive_cte_computes_reachability() {
    cases("recursive_cte_reachability", 48, 0x09, |rng| {
        let n = rng.usize_inclusive(2, 13);
        let edge_count = rng.usize_inclusive(0, 39);
        let edges: Vec<(usize, usize)> = (0..edge_count)
            .map(|_| (rng.index(14), rng.index(14)))
            .filter(|(a, b)| *a < n && *b < n)
            .collect();

        let mut db = Database::new();
        db.execute("CREATE TABLE e (src INTEGER, dst INTEGER)")
            .unwrap();
        for (a, b) in &edges {
            db.execute(&format!("INSERT INTO e VALUES ({a}, {b})"))
                .unwrap();
        }

        let rs = db
            .query(
                "WITH RECURSIVE r (node) AS (\
                   SELECT 0 \
                   UNION SELECT e.dst FROM r JOIN e ON r.node = e.src) \
                 SELECT node FROM r ORDER BY 1",
            )
            .unwrap();
        let via_sql: Vec<i64> = rs
            .rows
            .iter()
            .map(|row| match row.get(0) {
                Value::Int(i) => *i,
                other => panic!("unexpected {other}"),
            })
            .collect();

        // Independent BFS.
        let mut adj = vec![Vec::new(); n];
        for (a, b) in &edges {
            adj[*a].push(*b);
        }
        let mut seen = vec![false; n];
        seen[0] = true;
        let mut stack = vec![0usize];
        while let Some(u) = stack.pop() {
            for &v in &adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
        let expected: Vec<i64> = (0..n).filter(|&i| seen[i]).map(|i| i as i64).collect();

        assert_eq!(via_sql, expected);
    });
}

// ---------------------------------------------------------------------------
// Query-level sanity on arbitrary predicates
// ---------------------------------------------------------------------------

/// WHERE filtering never invents rows: |σ(T)| ≤ |T|, and appending the
/// same predicate twice (AND p AND p) changes nothing.
#[test]
fn where_is_contractive_and_idempotent() {
    cases("where_contractive_idempotent", 64, 0x0A, |rng| {
        let vals = int_vec(rng, -50, 49, 19);
        let bound = rng.i64_inclusive(-50, 49);
        let mut db = Database::new();
        db.execute("CREATE TABLE t (x INTEGER)").unwrap();
        for v in &vals {
            db.execute(&format!("INSERT INTO t VALUES ({v})")).unwrap();
        }
        let once = db
            .query(&format!("SELECT x FROM t WHERE x < {bound}"))
            .unwrap();
        let twice = db
            .query(&format!(
                "SELECT x FROM t WHERE x < {bound} AND x < {bound}"
            ))
            .unwrap();
        assert!(once.len() <= vals.len());
        assert_eq!(once.rows, twice.rows);
    });
}

// Sanity that the generated-query test above also accepts a handcrafted
// query (guards against the generator hiding a broken parser).
#[test]
fn parse_query_smoke() {
    parse_query("SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 1 ORDER BY 2 DESC")
        .unwrap();
}
