//! Binary serialization of storage state for the durability layer.
//!
//! The WAL crate checkpoints a [`Snapshot`] (the immutable published image
//! of [`crate::SharedDatabase`]) to a simulated device and reloads it on
//! recovery. The format here is a deliberately simple length-prefixed
//! little-endian encoding — no self-description, no varint compression —
//! because the property the crash harness needs is *byte-determinism*: the
//! same logical state must always encode to the same bytes, so "recovered
//! state is byte-identical to a serial replay" is checkable by comparing
//! two byte strings. Tables and views are therefore emitted in sorted name
//! order, and rows in their storage order (which DML replay reproduces
//! exactly: INSERT appends, UPDATE mutates in place, DELETE compacts
//! preserving order).
//!
//! [`state_fingerprint`] is that byte image and the equality witness of
//! every harness. [`state_digest`] is its 64-bit stand-in for comparisons
//! made on a hot path (replication acks): the same image with each table's
//! rows replaced by the digest the table maintains, hashed.
//!
//! What is NOT serialized:
//! * **functions** — a [`FunctionRegistry`](crate::functions::FunctionRegistry)
//!   holds code, not data. Decoding rebuilds the builtin registry; the PDM
//!   layer re-registers its stored functions on recovery.
//! * **hash indexes** — only the indexed column *names* are stored; the
//!   index payload is rebuilt from the rows on load.

use std::hash::Hasher;
use std::sync::Arc;

use crate::catalog::Catalog;
use crate::error::{Error, Result};
use crate::exec::ExecConfig;
use crate::row::{ResultSet, Row};
use crate::schema::{Column, Schema};
use crate::shared::Snapshot;
use crate::storage::Table;
use crate::value::{DataType, Value};

/// Format version stamped at the front of every snapshot blob.
const SNAPSHOT_FORMAT: u32 = 1;

// ---------------------------------------------------------------------------
// Primitive writers
// ---------------------------------------------------------------------------

pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------------
// Primitive readers — a cursor that reports the offset of any malformation
// ---------------------------------------------------------------------------

/// A bounds-checked read cursor. Every failure carries the byte offset so
/// recovery diagnostics can point at the damage.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    pub fn offset(&self) -> usize {
        self.pos
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn short(&self, what: &str, need: usize) -> Error {
        Error::Persist(format!(
            "truncated {what} at offset {}: need {need} bytes, {} remain",
            self.pos,
            self.remaining()
        ))
    }

    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(self.short(what, n));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    pub fn u32(&mut self, what: &str) -> Result<u32> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn u64(&mut self, what: &str) -> Result<u64> {
        let b = self.take(8, what)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    pub fn i64(&mut self, what: &str) -> Result<i64> {
        Ok(self.u64(what)? as i64)
    }

    pub fn f64(&mut self, what: &str) -> Result<f64> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    pub fn str(&mut self, what: &str) -> Result<String> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| Error::Persist(format!("non-UTF-8 {what} at offset {}", self.pos - len)))
    }
}

// ---------------------------------------------------------------------------
// Values, rows, schemas, result sets
// ---------------------------------------------------------------------------

fn dtype_tag(d: DataType) -> u8 {
    match d {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Text => 2,
        DataType::Bool => 3,
    }
}

fn dtype_from_tag(tag: u8, at: usize) -> Result<DataType> {
    Ok(match tag {
        0 => DataType::Int,
        1 => DataType::Float,
        2 => DataType::Text,
        3 => DataType::Bool,
        other => {
            return Err(Error::Persist(format!(
                "invalid data-type tag {other} at offset {at}"
            )))
        }
    })
}

pub fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => put_u8(out, 0),
        Value::Int(i) => {
            put_u8(out, 1);
            put_i64(out, *i);
        }
        Value::Float(f) => {
            put_u8(out, 2);
            put_f64(out, *f);
        }
        Value::Text(s) => {
            put_u8(out, 3);
            put_str(out, s);
        }
        Value::Bool(b) => {
            put_u8(out, 4);
            put_u8(out, *b as u8);
        }
    }
}

pub fn read_value(cur: &mut Cursor<'_>) -> Result<Value> {
    let at = cur.offset();
    Ok(match cur.u8("value tag")? {
        0 => Value::Null,
        1 => Value::Int(cur.i64("int value")?),
        2 => Value::Float(cur.f64("float value")?),
        3 => Value::Text(cur.str("text value")?),
        4 => Value::Bool(cur.u8("bool value")? != 0),
        other => {
            return Err(Error::Persist(format!(
                "invalid value tag {other} at offset {at}"
            )))
        }
    })
}

pub fn put_row<'v, R>(out: &mut Vec<u8>, row: R)
where
    R: IntoIterator<Item = &'v Value>,
    R::IntoIter: ExactSizeIterator,
{
    let row = row.into_iter();
    put_u32(out, row.len() as u32);
    for v in row {
        put_value(out, v);
    }
}

pub fn read_row(cur: &mut Cursor<'_>) -> Result<Row> {
    let n = cur.u32("row arity")? as usize;
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(read_value(cur)?);
    }
    Ok(Row::new(values))
}

pub fn put_schema(out: &mut Vec<u8>, schema: &Schema) {
    put_u32(out, schema.len() as u32);
    for col in schema.columns() {
        put_str(out, &col.name);
        put_u8(out, dtype_tag(col.dtype));
        put_u8(out, col.nullable as u8);
    }
}

pub fn read_schema(cur: &mut Cursor<'_>) -> Result<Schema> {
    let n = cur.u32("schema arity")? as usize;
    let mut cols = Vec::with_capacity(n);
    for _ in 0..n {
        let name = cur.str("column name")?;
        let at = cur.offset();
        let dtype = dtype_from_tag(cur.u8("column type")?, at)?;
        let nullable = cur.u8("column nullability")? != 0;
        let mut col = Column::new(name, dtype);
        if !nullable {
            col = col.not_null();
        }
        cols.push(col);
    }
    Ok(Schema::new(cols))
}

/// Read a result set [`put_result_set`] wrote. The WAL records
/// idempotency-token outcomes this way, so a replayed token returns its
/// rows without re-executing.
pub fn read_result_set(cur: &mut Cursor<'_>) -> Result<ResultSet> {
    let schema = read_schema(cur)?;
    let n = cur.u32("row count")? as usize;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        rows.push(read_row(cur)?);
    }
    Ok(ResultSet::new(schema, rows))
}

pub fn put_result_set(out: &mut Vec<u8>, rs: &ResultSet) {
    put_schema(out, &rs.schema);
    put_u32(out, rs.rows.len() as u32);
    for row in &rs.rows {
        put_row(out, row);
    }
}

// ---------------------------------------------------------------------------
// Tables, catalogs, snapshots
// ---------------------------------------------------------------------------

/// Everything [`put_table`] writes ahead of the rows: name, schema,
/// indexed column names, row count.
fn put_table_header(out: &mut Vec<u8>, table: &Table) {
    put_str(out, &table.name);
    put_schema(out, &table.schema);
    let indexed = table.indexed_columns();
    put_u32(out, indexed.len() as u32);
    for col in indexed {
        put_str(out, &col);
    }
    put_u32(out, table.len() as u32);
}

fn put_table(out: &mut Vec<u8>, table: &Table) {
    put_table_header(out, table);
    for row in table.rows() {
        put_row(out, &**row);
    }
}

fn read_table(cur: &mut Cursor<'_>) -> Result<Table> {
    let name = cur.str("table name")?;
    let schema = read_schema(cur)?;
    let n_indexed = cur.u32("index count")? as usize;
    let mut indexed = Vec::with_capacity(n_indexed);
    for _ in 0..n_indexed {
        indexed.push(cur.str("indexed column")?);
    }
    let n_rows = cur.u32("table row count")? as usize;
    let mut table = Table::new(name, schema);
    for _ in 0..n_rows {
        table.insert(read_row(cur)?)?;
    }
    // Indexes are rebuilt from the rows, not stored.
    for col in indexed {
        table.create_index(&col)?;
    }
    Ok(table)
}

/// Serialize the data-bearing parts of a catalog: tables (schema + rows +
/// indexed column names) and view definitions (SQL text). Deterministic:
/// names are sorted.
pub fn put_catalog(out: &mut Vec<u8>, catalog: &Catalog) {
    put_catalog_with(out, catalog, put_table);
}

/// The catalog image with each table written by `put_one_table`.
fn put_catalog_with(
    out: &mut Vec<u8>,
    catalog: &Catalog,
    put_one_table: impl Fn(&mut Vec<u8>, &Table),
) {
    let names = catalog.table_names();
    put_u32(out, names.len() as u32);
    for name in names {
        if let Ok(t) = catalog.table(name) {
            put_one_table(out, t);
        }
    }
    let views = catalog.view_names();
    put_u32(out, views.len() as u32);
    for name in views {
        if let Some(v) = catalog.view(name) {
            put_str(out, &v.name);
            put_str(out, &v.sql);
        }
    }
}

/// [`put_catalog`] into a fresh buffer.
pub fn encode_catalog(catalog: &Catalog) -> Vec<u8> {
    let mut out = Vec::new();
    put_catalog(&mut out, catalog);
    out
}

pub fn read_catalog(cur: &mut Cursor<'_>) -> Result<Catalog> {
    let mut catalog = Catalog::new();
    let n_tables = cur.u32("table count")? as usize;
    for _ in 0..n_tables {
        let table = read_table(cur)?;
        let name = table.name.clone();
        catalog.create_table(&name, table.schema.clone())?;
        let dst = catalog.table_mut(&name)?;
        *dst = table;
    }
    let n_views = cur.u32("view count")? as usize;
    for _ in 0..n_views {
        let name = cur.str("view name")?;
        let sql = cur.str("view sql")?;
        let query = crate::parser::parse_query(&sql)?;
        catalog.create_view(&name, query)?;
    }
    Ok(catalog)
}

/// Serialize a published snapshot: format version, storage version,
/// executor configuration, catalog.
pub fn put_snapshot(out: &mut Vec<u8>, snapshot: &Snapshot) {
    put_snapshot_header(out, snapshot);
    put_catalog(out, &snapshot.catalog);
}

/// Everything [`put_snapshot`] writes ahead of the catalog.
fn put_snapshot_header(out: &mut Vec<u8>, snapshot: &Snapshot) {
    put_u32(out, SNAPSHOT_FORMAT);
    put_u64(out, snapshot.version);
    put_u8(out, snapshot.config.subquery_cache as u8);
    put_u8(out, snapshot.config.semijoin_decorrelation as u8);
    put_u8(out, snapshot.config.index_pushdown as u8);
    put_u64(out, snapshot.config.recursion_limit as u64);
}

/// Read what [`put_snapshot_header`] wrote: the version and the executor
/// configuration.
fn read_snapshot_header(cur: &mut Cursor<'_>) -> Result<(u64, ExecConfig)> {
    let format = cur.u32("snapshot format")?;
    if format != SNAPSHOT_FORMAT {
        return Err(Error::Persist(format!(
            "unsupported snapshot format {format} (expected {SNAPSHOT_FORMAT})"
        )));
    }
    let version = cur.u64("snapshot version")?;
    let config = ExecConfig {
        subquery_cache: cur.u8("config.subquery_cache")? != 0,
        semijoin_decorrelation: cur.u8("config.semijoin_decorrelation")? != 0,
        index_pushdown: cur.u8("config.index_pushdown")? != 0,
        recursion_limit: cur.u64("config.recursion_limit")? as usize,
    };
    Ok((version, config))
}

/// [`put_snapshot`] into a fresh buffer.
pub fn encode_snapshot(snapshot: &Snapshot) -> Vec<u8> {
    let mut out = Vec::new();
    put_snapshot(&mut out, snapshot);
    out
}

/// Reload a snapshot. The function registry comes back as builtins only —
/// callers that registered custom functions must re-register them.
pub fn decode_snapshot(bytes: &[u8]) -> Result<Snapshot> {
    let mut cur = Cursor::new(bytes);
    let (version, config) = read_snapshot_header(&mut cur)?;
    let catalog = read_catalog(&mut cur)?;
    expect_end(&cur, "snapshot")?;
    Ok(Snapshot {
        db: crate::Database { catalog, config },
        version,
    })
}

fn expect_end(cur: &Cursor<'_>, what: &str) -> Result<()> {
    if cur.is_empty() {
        return Ok(());
    }
    Err(Error::Persist(format!(
        "{} trailing bytes after {what}",
        cur.remaining()
    )))
}

// ---------------------------------------------------------------------------
// Row-level snapshot deltas
// ---------------------------------------------------------------------------

/// A delta entry: some rows of a table, at their positions.
const DELTA_ROWS: u8 = 0;
/// A delta entry: a whole table, as [`put_snapshot`] writes it.
const DELTA_TABLE: u8 = 1;

/// Append the delta that turns `base` into `cut`, two snapshots of one
/// database: the snapshot header, then, per table in name order, the rows
/// whose `Arc` differs from `base`'s row at the same position, each with
/// its position. A table whose row count changed is written whole. A
/// row's `Arc` is shared until a mutator rewrites it (`crate::storage`),
/// and `base` keeps its rows alive, so an equal pointer is an unchanged
/// row; a row rewritten to equal values is written, which costs bytes, not
/// exactness. A chunk of rows is likewise shared until a mutator writes
/// into it, so a chunk that is `base`'s own is skipped without comparing
/// its rows. Views are not written: equal shapes have equal views.
///
/// Returns the rows written, or `None` when no delta can express the
/// change — the catalogs differ in [`Catalog::shape`] (DDL) — or when it
/// would append more than `budget` bytes. On `None`, `out` holds a partial
/// delta the caller discards.
pub fn put_snapshot_delta(
    out: &mut Vec<u8>,
    base: &Snapshot,
    cut: &Snapshot,
    budget: usize,
) -> Option<usize> {
    if base.catalog.shape() != cut.catalog.shape() {
        return None;
    }
    let start = out.len();
    put_snapshot_header(out, cut);
    let count_at = out.len();
    put_u32(out, 0);
    let (mut entries, mut rows) = (0u32, 0);
    for name in cut.catalog.table_names() {
        let (now, then) = (
            cut.catalog.table(name).ok()?,
            base.catalog.table(name).ok()?,
        );
        if std::ptr::eq(now, then) {
            continue;
        }
        if now.len() != then.len() {
            put_u8(out, DELTA_TABLE);
            put_table(out, now);
            rows += now.len();
        } else {
            let changed = now.rows().changed_since(then.rows());
            if changed.is_empty() {
                continue;
            }
            put_u8(out, DELTA_ROWS);
            put_str(out, name);
            put_u32(out, changed.len() as u32);
            rows += changed.len();
            for (i, row) in changed {
                put_u32(out, i as u32);
                put_row(out, &**row);
            }
        }
        entries += 1;
        if out.len() - start > budget {
            return None;
        }
    }
    out.get_mut(count_at..count_at + 4)
        .expect("the count slot was pushed above")
        .copy_from_slice(&entries.to_le_bytes());
    Some(rows)
}

/// Apply a delta [`put_snapshot_delta`] wrote to `snapshot`, which must be
/// the state of that delta's base. Rows are written through
/// [`Table::apply_updates`] and whole tables rebuilt as [`decode_snapshot`]
/// builds them, so each table's digest and indexes stay exact. Returns the
/// rows rewritten.
pub fn apply_snapshot_delta(snapshot: &mut Snapshot, bytes: &[u8]) -> Result<usize> {
    let mut cur = Cursor::new(bytes);
    let (version, config) = read_snapshot_header(&mut cur)?;
    let entries = cur.u32("delta entry count")?;
    let mut rows = 0;
    for _ in 0..entries {
        let at = cur.offset();
        match cur.u8("delta entry kind")? {
            DELTA_ROWS => {
                let name = cur.str("delta table name")?;
                let table = snapshot.db.catalog.table_mut(&name)?;
                let n = cur.u32("delta row count")? as usize;
                let mut updates = Vec::with_capacity(n);
                for _ in 0..n {
                    let at = cur.offset();
                    let pos = cur.u32("delta row position")? as usize;
                    let row = read_row(&mut cur)?;
                    if pos >= table.len() || row.len() != table.schema.len() {
                        return Err(Error::Persist(format!(
                            "delta row {pos} of arity {} does not fit table '{name}' at offset {at}",
                            row.len()
                        )));
                    }
                    updates.push((pos, row.into_values().into_iter().enumerate().collect()));
                }
                table.apply_updates(&updates)?;
                rows += n;
            }
            DELTA_TABLE => {
                let table = read_table(&mut cur)?;
                rows += table.len();
                let name = table.name.clone();
                *snapshot.db.catalog.table_mut(&name)? = table;
            }
            other => {
                return Err(Error::Persist(format!(
                    "invalid delta entry kind {other} at offset {at}"
                )))
            }
        }
    }
    expect_end(&cur, "snapshot delta")?;
    snapshot.version = version;
    snapshot.db.config = config;
    Ok(rows)
}

/// Canonical byte image of the *data* in a snapshot (tables only, sorted) —
/// the equality witness the crash harness compares. Two states are "byte-
/// identical" exactly when their fingerprints are equal.
pub fn state_fingerprint(snapshot: &Snapshot) -> Vec<u8> {
    encode_catalog(&snapshot.catalog)
}

/// Convenience: fingerprint of a shared database's current state.
pub fn database_fingerprint(db: &crate::SharedDatabase) -> Vec<u8> {
    state_fingerprint(Arc::as_ref(&db.snapshot()))
}

/// 64-bit hash of `bytes` under `seed` ([`WordHasher`]). Equal inputs hash
/// equal on every site and in every run (no per-process key): replicas
/// compare these across the ship link. Guards against corruption, not
/// against an adversary choosing the bytes.
pub(crate) fn hash_bytes(seed: u64, bytes: &[u8]) -> u64 {
    let mut hasher = WordHasher::new(seed);
    hasher.write(bytes);
    hasher.finish()
}

/// The crate's one fixed hash, eight bytes at a time: one multiply per word
/// — each step a bijection of the state and of the word — and the
/// splitmix64 finalizer once, to spread the last words' high bits over the
/// result (set de-duplication indexes its slots by the low bits). Not keyed,
/// so runs repeat exactly; it serves [`hash_bytes`] and, as a [`Hasher`],
/// row de-duplication.
pub(crate) struct WordHasher(u64);

impl WordHasher {
    const ODD: u64 = 0x9e37_79b9_7f4a_7c15;

    pub(crate) fn new(seed: u64) -> Self {
        WordHasher(seed.wrapping_mul(Self::ODD))
    }

    fn step(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(29) ^ word).wrapping_mul(Self::ODD);
    }
}

/// The last 1–7 bytes of a [`WordHasher::write`] as one little-endian word,
/// zero above them: two overlapping `u32` reads from 4 bytes on (the bytes
/// both read land on the same bits), a byte loop below.
fn tail_word(rest: &[u8]) -> u64 {
    let n = rest.len();
    debug_assert!((1..8).contains(&n));
    if n >= 4 {
        let u32_at = |at: usize| {
            u64::from(u32::from_le_bytes(
                rest[at..at + 4].try_into().expect("4 bytes"),
            ))
        };
        u32_at(0) | u32_at(n - 4) << ((n - 4) * 8)
    } else {
        (rest.iter().rev()).fold(0, |word, &byte| word << 8 | u64::from(byte))
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.0 ^= bytes.len() as u64;
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.step(u64::from_le_bytes(
                word.try_into().expect("chunks_exact(8) yields 8 bytes"),
            ));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            self.step(tail_word(rest));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.step(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.step(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.step(n as u64);
    }

    fn finish(&self) -> u64 {
        let h = self.0;
        let h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^ (h >> 31)
    }
}

/// Compact 64-bit digest of the data in a snapshot: a hash of the
/// [`state_fingerprint`] image with each table's rows replaced by its
/// maintained [`Table::digest`]. Costs the table headers, not the rows —
/// cheap enough to ride in every replication ship ack for cross-site state
/// comparison. Equal fingerprints give equal digests; unequal ones collide
/// with probability about 2^-64.
pub fn state_digest(snapshot: &Snapshot) -> u64 {
    let mut image = Vec::new();
    put_catalog_with(&mut image, &snapshot.catalog, |out, table| {
        put_table_header(out, table);
        put_u64(out, table.digest());
    });
    hash_bytes(0, &image)
}

/// Digest of a shared database's current state, for watermark acks.
pub fn database_digest(db: &crate::SharedDatabase) -> u64 {
    state_digest(Arc::as_ref(&db.snapshot()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{SharedRow, CHUNK};
    use crate::Database;

    fn sample_db() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (a INTEGER NOT NULL, b VARCHAR, c DOUBLE, d BOOLEAN)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, 'x', 1.5, TRUE), (2, NULL, -0.25, FALSE)")
            .unwrap();
        db.execute("CREATE INDEX ON t (a)").unwrap();
        db.execute("CREATE VIEW v AS SELECT a, b FROM t WHERE a > 1")
            .unwrap();
        db
    }

    #[test]
    fn snapshot_round_trip_preserves_state_and_queries() {
        let db = sample_db();
        let snap = Snapshot { db, version: 7 };
        let bytes = encode_snapshot(&snap);
        let back = decode_snapshot(&bytes).unwrap();
        assert_eq!(back.version, 7);
        assert_eq!(state_fingerprint(&snap), state_fingerprint(&back));
        // The reloaded snapshot answers queries identically, views included.
        assert_eq!(
            snap.query("SELECT * FROM v ORDER BY a").unwrap(),
            back.query("SELECT * FROM v ORDER BY a").unwrap()
        );
        // Indexes were rebuilt.
        let t = back.catalog.table("t").unwrap();
        let a_idx = t.schema.index_of("a").unwrap();
        assert!(t.has_index(a_idx));
    }

    #[test]
    fn encoding_is_deterministic() {
        let db = sample_db();
        let snap = Snapshot { db, version: 0 };
        assert_eq!(encode_snapshot(&snap), encode_snapshot(&snap));
    }

    #[test]
    fn result_set_round_trip() {
        let db = sample_db();
        let rs = db.query("SELECT * FROM t ORDER BY a").unwrap();
        let mut bytes = Vec::new();
        put_result_set(&mut bytes, &rs);
        let mut cur = Cursor::new(&bytes);
        assert_eq!(read_result_set(&mut cur).unwrap(), rs);
        assert!(cur.is_empty());
    }

    #[test]
    fn truncation_is_reported_with_offset() {
        let db = sample_db();
        let snap = Snapshot { db, version: 0 };
        let bytes = encode_snapshot(&snap);
        let err = decode_snapshot(&bytes[..bytes.len() / 2]).unwrap_err();
        match err {
            Error::Persist(m) => assert!(m.contains("offset"), "{m}"),
            other => panic!("expected Persist error, got {other:?}"),
        }
    }

    /// `base` with `statements` committed on top, as a server publishes
    /// them: each on a copy of the one before, rows shared until written.
    fn committed(base: &Snapshot, statements: &[&str]) -> Snapshot {
        let mut db = base.db.clone();
        for sql in statements {
            db.execute(sql).unwrap();
        }
        Snapshot {
            db,
            version: base.version + statements.len() as u64,
        }
    }

    /// Decode `base`, apply the delta to `cut`, and hold the result to a
    /// fresh decode of `cut`: bytes, digest, indexes.
    fn assert_delta_rebuilds(base: &Snapshot, cut: &Snapshot, rows: usize) {
        let mut delta = Vec::new();
        assert_eq!(
            put_snapshot_delta(&mut delta, base, cut, usize::MAX),
            Some(rows)
        );
        let mut applied = decode_snapshot(&encode_snapshot(base)).unwrap();
        assert_eq!(apply_snapshot_delta(&mut applied, &delta).unwrap(), rows);
        let fresh = decode_snapshot(&encode_snapshot(cut)).unwrap();
        assert_eq!(encode_snapshot(&applied), encode_snapshot(&fresh));
        assert_eq!(state_digest(&applied), state_digest(&fresh));
        let probe = "SELECT b FROM t WHERE a = 2";
        assert_eq!(applied.query(probe).unwrap(), fresh.query(probe).unwrap());
        let t = applied.catalog.table("t").unwrap();
        assert!(t.has_index(t.schema.index_of("a").unwrap()));
    }

    #[test]
    fn a_delta_holds_the_rewritten_rows_and_rebuilds_the_cut() {
        let base = Snapshot {
            db: sample_db(),
            version: 4,
        };
        let cut = committed(&base, &["UPDATE t SET b = 'y', a = 9 WHERE a = 2"]);
        assert_delta_rebuilds(&base, &cut, 1);
        let again = committed(&cut, &["UPDATE t SET a = 2 WHERE a = 9"]);
        assert_delta_rebuilds(&cut, &again, 1);
        // A changed row count writes the table whole.
        let grown = committed(&base, &["INSERT INTO t VALUES (3, 'z', 0.0, NULL)"]);
        assert_delta_rebuilds(&base, &grown, 3);
        let shrunk = committed(&base, &["DELETE FROM t WHERE a = 1"]);
        assert_delta_rebuilds(&base, &shrunk, 1);
        // Nothing written, nothing changed: an empty delta.
        assert_delta_rebuilds(&base, &committed(&base, &[]), 0);
    }

    #[test]
    fn ddl_and_an_exhausted_budget_refuse_the_delta() {
        let base = Snapshot {
            db: sample_db(),
            version: 0,
        };
        let indexed = committed(&base, &["CREATE INDEX ON t (b)"]);
        assert_eq!(
            put_snapshot_delta(&mut Vec::new(), &base, &indexed, usize::MAX),
            None
        );
        let cut = committed(&base, &["UPDATE t SET b = 'long enough to matter'"]);
        let mut delta = Vec::new();
        let rows = put_snapshot_delta(&mut delta, &base, &cut, usize::MAX);
        assert_eq!(rows, Some(2));
        assert_eq!(
            put_snapshot_delta(&mut Vec::new(), &base, &cut, delta.len() - 1),
            None
        );
        assert_eq!(
            put_snapshot_delta(&mut Vec::new(), &base, &cut, delta.len()),
            rows
        );
    }

    #[test]
    fn a_delta_that_does_not_fit_its_base_is_refused() {
        let base = Snapshot {
            db: sample_db(),
            version: 0,
        };
        let cut = committed(&base, &["UPDATE t SET b = 'y' WHERE a = 2"]);
        let mut delta = Vec::new();
        put_snapshot_delta(&mut delta, &base, &cut, usize::MAX).unwrap();
        let mut empty = committed(&base, &["DELETE FROM t"]);
        assert!(apply_snapshot_delta(&mut empty, &delta).is_err());
        let mut applied = base.clone();
        assert!(apply_snapshot_delta(&mut applied, &delta[..delta.len() - 1]).is_err());
    }

    /// [`put_snapshot_delta`] as it was before chunks were skipped: every
    /// row of an equal-length table compared by pointer.
    fn row_by_row_delta(base: &Snapshot, cut: &Snapshot) -> Vec<u8> {
        let mut out = Vec::new();
        put_snapshot_header(&mut out, cut);
        let mut entries = Vec::new();
        for name in cut.catalog.table_names() {
            let (now, then) = (
                cut.catalog.table(name).unwrap(),
                base.catalog.table(name).unwrap(),
            );
            let mut entry = Vec::new();
            if now.len() != then.len() {
                put_u8(&mut entry, DELTA_TABLE);
                put_table(&mut entry, now);
            } else {
                let changed: Vec<(usize, &SharedRow)> = (now.rows().iter().zip(then.rows()))
                    .enumerate()
                    .filter(|(_, (row, was))| !Arc::ptr_eq(row, was))
                    .map(|(i, (row, _))| (i, row))
                    .collect();
                if changed.is_empty() {
                    continue;
                }
                put_u8(&mut entry, DELTA_ROWS);
                put_str(&mut entry, name);
                put_u32(&mut entry, changed.len() as u32);
                for (i, row) in changed {
                    put_u32(&mut entry, i as u32);
                    put_row(&mut entry, &**row);
                }
            }
            entries.push(entry);
        }
        put_u32(&mut out, entries.len() as u32);
        out.extend(entries.concat());
        out
    }

    #[test]
    fn skipping_shared_chunks_writes_the_row_by_row_delta() {
        // `w` spans four chunks, the last holding one row.
        let mut db = sample_db();
        db.execute("CREATE TABLE w (k INTEGER NOT NULL, s VARCHAR)")
            .unwrap();
        let rows = (0..3 * CHUNK as i64 + 1)
            .map(|k| Row::new(vec![Value::Int(k), Value::Text(format!("w{k}"))]))
            .collect();
        db.insert_rows("w", rows).unwrap();
        let base = Snapshot { db, version: 3 };
        let (edge, last) = (CHUNK as i64, 3 * CHUNK as i64);
        let cuts: Vec<Vec<String>> = vec![
            vec![],
            vec![format!("UPDATE w SET s = 'x' WHERE k = {}", edge - 1)],
            vec![format!("UPDATE w SET s = 'x' WHERE k = {edge}")],
            vec![format!(
                "UPDATE w SET s = 'x' WHERE k IN ({}, {edge}, {}, {last})",
                edge - 1,
                edge + 1
            )],
            // A row rewritten to its own values is written all the same.
            vec![format!("UPDATE w SET s = s WHERE k = {}", 2 * edge)],
            vec![
                "UPDATE t SET b = 'y' WHERE a = 2".into(),
                format!("UPDATE w SET s = 'x' WHERE k = {}", 2 * edge + 5),
            ],
            vec!["UPDATE w SET s = 'all'".into()],
            vec![format!("INSERT INTO w VALUES ({}, 'grown')", last + 1)],
            vec![format!("DELETE FROM w WHERE k = {edge}")],
        ];
        for statements in cuts {
            let statements: Vec<&str> = statements.iter().map(String::as_str).collect();
            let cut = committed(&base, &statements);
            let mut delta = Vec::new();
            put_snapshot_delta(&mut delta, &base, &cut, usize::MAX).unwrap();
            assert!(
                delta == row_by_row_delta(&base, &cut),
                "{statements:?}: the chunk-skipping delta differs"
            );
        }
    }

    /// Every column of `u` in `snapshot`: `holds_unique` against a fresh
    /// count of distinct values (`dedup_eq`, pairwise) on the indexed ones,
    /// and `false` on the others.
    fn assert_unique_readings(snapshot: &Snapshot, after: &str) {
        let t = snapshot.catalog.table("u").unwrap();
        let rows: Vec<&[Value]> = t.rows().iter().map(|row| &**row).collect();
        for col in 0..t.schema.len() {
            let distinct = (0..rows.len())
                .filter(|&i| !rows[..i].iter().any(|r| r[col].dedup_eq(&rows[i][col])))
                .count();
            let unique = t.has_index(col) && distinct == rows.len();
            assert_eq!(t.holds_unique(col), unique, "column {col} after {after}");
        }
    }

    #[test]
    fn the_unique_reading_follows_every_write_decode_and_delta() {
        let mut db = Database::new();
        for ddl in [
            "CREATE TABLE u (k INTEGER, f DOUBLE, s VARCHAR)",
            "CREATE INDEX ON u (k)",
            "CREATE INDEX ON u (f)",
        ] {
            db.execute(ddl).unwrap();
        }
        let mut state = Snapshot { db, version: 0 };
        let (mut unique_seen, mut duplicate_seen) = (0, 0);
        for sql in [
            "INSERT INTO u VALUES (1, 0.0, 'a'), (2, 1.0, 'b')",
            // `-0.0` equals `0.0`: `f` holds a duplicate, `k` none.
            "INSERT INTO u VALUES (3, -0.0, 'c')",
            // A duplicate made on the indexed column, then removed.
            "UPDATE u SET k = 1 WHERE s = 'b'",
            "UPDATE u SET k = 2 WHERE s = 'b'",
            // Another column written.
            "UPDATE u SET s = 'z' WHERE k = 3",
            // NULL equals NULL; an INT key equals the FLOAT of its value.
            "INSERT INTO u VALUES (NULL, 5.0, 'n')",
            "INSERT INTO u VALUES (NULL, 5, 'm')",
            "DELETE FROM u WHERE s = 'm'",
            "DELETE FROM u WHERE s = 'z'",
        ] {
            let next = committed(&state, &[sql]);
            assert_unique_readings(&next, sql);
            let decoded = decode_snapshot(&encode_snapshot(&next)).unwrap();
            assert_unique_readings(&decoded, &format!("{sql}, decoded"));
            let mut delta = Vec::new();
            put_snapshot_delta(&mut delta, &state, &next, usize::MAX).unwrap();
            let mut applied = decode_snapshot(&encode_snapshot(&state)).unwrap();
            apply_snapshot_delta(&mut applied, &delta).unwrap();
            assert_unique_readings(&applied, &format!("{sql}, delta applied"));
            let t = next.catalog.table("u").unwrap();
            match (t.holds_unique(0), t.holds_unique(1)) {
                (true, true) => unique_seen += 1,
                (false, false) => duplicate_seen += 1,
                _ => {}
            }
            state = next;
        }
        assert!(unique_seen >= 2 && duplicate_seen >= 1);
    }

    /// `WordHasher::write` as it was written first: the tail copied into a
    /// zeroed word. The oracle of the overlapping reads (`tail_word`):
    /// replicas compare `hash_bytes` values, so none may move.
    fn copied_tail_hash(seed: u64, bytes: &[u8]) -> u64 {
        let mut hasher = WordHasher::new(seed);
        hasher.0 ^= bytes.len() as u64;
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            hasher.step(u64::from_le_bytes(word.try_into().unwrap()));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            hasher.step(u64::from_le_bytes(word));
        }
        hasher.finish()
    }

    #[test]
    fn the_tail_word_hashes_as_the_copied_tail() {
        let mut rng = pdm_prng::Prng::seed_from_u64(0x7A11);
        for len in 0..=72 {
            for _ in 0..200 {
                let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                let seed = rng.next_u64();
                assert_eq!(
                    hash_bytes(seed, &bytes),
                    copied_tail_hash(seed, &bytes),
                    "{bytes:?}"
                );
            }
        }
        // Each tail byte lands on its own bits: a flip anywhere moves it.
        for len in 1..8 {
            let zeros = [0u8; 7];
            for at in 0..len {
                let mut one = zeros;
                one[at] = 0x80;
                assert_eq!(tail_word(&one[..len]), 0x80 << (8 * at));
            }
        }
    }

    #[test]
    fn bad_tag_is_rejected() {
        let mut bytes = Vec::new();
        put_u8(&mut bytes, 9);
        let mut cur = Cursor::new(&bytes);
        assert!(read_value(&mut cur).is_err());
    }
}
