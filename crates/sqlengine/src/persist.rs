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

pub fn put_row(out: &mut Vec<u8>, row: &[Value]) {
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

/// Encode a result set (used by the WAL to record idempotency-token
/// outcomes so a replayed token returns its rows without re-executing).
pub fn encode_result_set(rs: &ResultSet) -> Vec<u8> {
    let mut out = Vec::new();
    put_result_set(&mut out, rs);
    out
}

pub fn decode_result_set(bytes: &[u8]) -> Result<ResultSet> {
    let mut cur = Cursor::new(bytes);
    let rs = read_result_set(&mut cur)?;
    if !cur.is_empty() {
        return Err(Error::Persist(format!(
            "{} trailing bytes after result set",
            cur.remaining()
        )));
    }
    Ok(rs)
}

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
        put_row(out, row.values());
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
        put_row(out, row);
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
    put_u32(out, SNAPSHOT_FORMAT);
    put_u64(out, snapshot.version);
    put_u8(out, snapshot.config.subquery_cache as u8);
    put_u8(out, snapshot.config.semijoin_decorrelation as u8);
    put_u8(out, snapshot.config.index_pushdown as u8);
    put_u64(out, snapshot.config.recursion_limit as u64);
    put_catalog(out, &snapshot.catalog);
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
    let catalog = read_catalog(&mut cur)?;
    if !cur.is_empty() {
        return Err(Error::Persist(format!(
            "{} trailing bytes after snapshot",
            cur.remaining()
        )));
    }
    Ok(Snapshot {
        db: crate::Database { catalog, config },
        version,
    })
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

/// 64-bit hash of `bytes` under `seed`, eight bytes at a time. Equal inputs
/// hash equal on every site and in every run (no per-process key): replicas
/// compare these across the ship link. Guards against corruption, not
/// against an adversary choosing the bytes.
pub(crate) fn hash_bytes(seed: u64, bytes: &[u8]) -> u64 {
    const ODD: u64 = 0x9e37_79b9_7f4a_7c15;
    // One multiply per word — each step a bijection of the state and of the
    // word — and the splitmix64 finalizer once, to spread the last words'
    // high bits over the result.
    let step =
        |h: u64, word: [u8; 8]| (h.rotate_left(29) ^ u64::from_le_bytes(word)).wrapping_mul(ODD);
    let mut h = seed.wrapping_mul(ODD) ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        h = step(h, word.try_into().expect("chunks_exact(8) yields 8 bytes"));
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut word = [0u8; 8];
        word[..rest.len()].copy_from_slice(rest);
        h = step(h, word);
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
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
        let bytes = encode_result_set(&rs);
        assert_eq!(decode_result_set(&bytes).unwrap(), rs);
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

    #[test]
    fn bad_tag_is_rejected() {
        let mut bytes = Vec::new();
        put_u8(&mut bytes, 9);
        let mut cur = Cursor::new(&bytes);
        assert!(read_value(&mut cur).is_err());
    }
}
