//! In-memory table storage with optional hash indexes.
//!
//! Navigational PDM access issues one `WHERE link.left = <id>` query per tree
//! node; without an index each would scan the whole link table, turning a
//! 100k-node expand into O(n²) work. Hash indexes keep the *local* cost
//! negligible, which matches the paper's premise that transmission — not
//! server execution — dominates response time.
//!
//! Rows are stored in chunks of [`CHUNK`] rows, and rows, chunks and
//! indexes are each shared (`Arc`). Cloning a table — what
//! [`crate::Catalog::table_mut`] does when an older snapshot still reads
//! it — copies one pointer per chunk. A mutator then copies only the
//! chunks it writes and the rows it changes in them: a one-row UPDATE
//! copies one chunk of [`CHUNK`] pointers and one row. An index is copied
//! or rebuilt only when a column it covers is written. A commit therefore
//! costs in proportion to the rows it touches, plus one pointer per
//! [`CHUNK`] rows of the table they live in. Every chunk but the last
//! holds exactly [`CHUNK`] rows, so row `i` is slot `i % CHUNK` of chunk
//! `i / CHUNK`; [`Table::rows`] reads them through a [`Rows`] view. A
//! chunk holds its row pointers in its own allocation, so a read follows
//! one pointer more than a flat spine of rows would.
//!
//! Each table also carries a 64-bit [`Table::digest`] of its rows — the
//! wrapping sum of [`row_hash`] over `(row id, row)` — which the same three
//! mutators that write the rows keep current: [`Table::insert`] adds a term,
//! [`Table::apply_updates`] swaps the terms of the rows it writes,
//! [`Table::delete_rows`] recomputes (row ids shift). Comparing two states
//! ([`crate::persist::state_digest`]) therefore never re-reads the rows.

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::persist::{hash_bytes, put_row};
use crate::row::Row;
use crate::schema::Schema;
use crate::value::Value;

/// One stored tuple, shared between every snapshot that has not rewritten it.
pub type SharedRow = Arc<[Value]>;

/// Rows per chunk of a table's spine (module docs).
pub const CHUNK: usize = 64;

/// [`CHUNK`] consecutive rows, shared between every snapshot that has
/// not written one of them. A table's last chunk may end in empty slots;
/// no other chunk has one.
type Chunk = Arc<[Option<SharedRow>; CHUNK]>;

/// Value → ascending row ids of one indexed column.
type Index = HashMap<Value, Vec<usize>>;

/// One row's term of its table's digest: a hash of the row's snapshot bytes
/// ([`put_row`]) seeded with its position, so the same rows in another
/// order sum to a different digest.
pub fn row_hash(row_id: usize, row: &[Value]) -> u64 {
    row_hash_in(&mut Vec::new(), row_id, row)
}

/// [`row_hash`] encoding into `scratch`, for a mutator hashing many rows.
fn row_hash_in(scratch: &mut Vec<u8>, row_id: usize, row: &[Value]) -> u64 {
    scratch.clear();
    put_row(scratch, row);
    hash_bytes(row_id as u64, scratch)
}

/// One base table: schema, rows, and hash indexes (column position →
/// value → row ids).
#[derive(Debug, Clone)]
pub struct Table {
    pub name: String,
    pub schema: Schema,
    /// The rows in storage order, [`CHUNK`] to a chunk; see the module docs.
    chunks: Vec<Chunk>,
    len: usize,
    indexes: HashMap<usize, Arc<Index>>,
    /// Wrapping sum of [`row_hash`] over the rows; see the module docs.
    digest: u64,
}

impl Table {
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table {
            name: name.into().to_ascii_lowercase(),
            schema,
            chunks: Vec::new(),
            len: 0,
            indexes: HashMap::new(),
            digest: 0,
        }
    }

    /// The stored rows, in storage order.
    pub fn rows(&self) -> Rows<'_> {
        Rows {
            chunks: &self.chunks,
            len: self.len,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Digest of the stored rows in storage order, maintained by the
    /// mutators (module docs). Equal to summing [`row_hash`] afresh.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Validate a row against the schema (arity, types with implicit INT→
    /// FLOAT widening, NOT NULL) and append it.
    pub fn insert(&mut self, row: Row) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(Error::Schema(format!(
                "table '{}' expects {} values, got {}",
                self.name,
                self.schema.len(),
                row.len()
            )));
        }
        let mut coerced = Vec::with_capacity(row.len());
        for (value, col) in row.into_values().into_iter().zip(self.schema.columns()) {
            if value.is_null() && !col.nullable {
                return Err(Error::Schema(format!(
                    "column '{}.{}' is NOT NULL",
                    self.name, col.name
                )));
            }
            coerced.push(value.coerce_for_column(col.dtype).map_err(|_| {
                Error::Schema(format!(
                    "value {value} does not fit column '{}.{}' ({})",
                    self.name, col.name, col.dtype
                ))
            })?);
        }
        let row_id = self.len;
        // lint:allow(unordered-iter): each index is keyed by a distinct
        // column and updated independently; visit order cannot change the
        // resulting postings.
        for (&col_idx, index) in self.indexes.iter_mut() {
            Arc::make_mut(index)
                .entry(coerced[col_idx].clone())
                .or_default()
                .push(row_id);
        }
        self.digest = self.digest.wrapping_add(row_hash(row_id, &coerced));
        self.push(coerced.into());
        Ok(())
    }

    /// Append `row` to the last chunk — copied first if an older snapshot
    /// shares it — or to a new one when the last is full.
    fn push(&mut self, row: SharedRow) {
        let slot = self.len % CHUNK;
        if slot == 0 {
            self.chunks.push(Arc::new(std::array::from_fn(|_| None)));
        }
        let last = self.chunks.last_mut().expect("a chunk holds every slot");
        Arc::make_mut(last)[slot] = Some(row);
        self.len += 1;
    }

    /// Build (or rebuild) a hash index on the named column.
    pub fn create_index(&mut self, column: &str) -> Result<()> {
        let idx = self.schema.require(column)?;
        self.rebuild_index(idx);
        Ok(())
    }

    fn rebuild_index(&mut self, col_idx: usize) {
        let mut map = Index::new();
        for (row_id, row) in self.rows().iter().enumerate() {
            map.entry(row[col_idx].clone()).or_default().push(row_id);
        }
        self.indexes.insert(col_idx, Arc::new(map));
    }

    /// True if the column (by position) has a hash index.
    pub fn has_index(&self, col_idx: usize) -> bool {
        self.indexes.contains_key(&col_idx)
    }

    /// True if the column (by position) is indexed and no two rows hold
    /// equal values in it (`NULL` equal to `NULL`, an INT to the FLOAT of
    /// its value): its index has one key per row. A reading of the rows as
    /// they are now, not a constraint — the next write may change it.
    pub fn holds_unique(&self, col_idx: usize) -> bool {
        self.indexes
            .get(&col_idx)
            .is_some_and(|index| index.len() == self.len)
    }

    /// Names of the indexed columns, sorted so the list is stable across
    /// runs. The persistence layer stores these so indexes can be rebuilt
    /// on snapshot reload.
    pub fn indexed_columns(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .indexes
            .keys()
            .map(|&idx| self.schema.column(idx).name.clone())
            .collect();
        names.sort_unstable();
        names
    }

    /// Row ids matching `value` via the index on `col_idx`, ascending, if
    /// indexed.
    pub fn index_lookup(&self, col_idx: usize, value: &Value) -> Option<&[usize]> {
        self.indexes
            .get(&col_idx)
            .map(|m| m.get(value).map(Vec::as_slice).unwrap_or(&[]))
    }

    pub fn row(&self, id: usize) -> &[Value] {
        match self.rows().get(id) {
            Some(row) => row,
            None => panic!("row {id} of a table of {} rows", self.len),
        }
    }

    /// Apply per-row updates (`row id` → list of `(column, value)`), then
    /// rebuild the affected indexes once. Used by UPDATE, whose assignment
    /// expressions may evaluate differently per row (`SET x = x + 1`).
    /// Only the listed rows and the chunks they live in are copied; every
    /// other row and chunk stays shared with older snapshots. A refused
    /// assignment (NOT NULL, type) stops the statement with the earlier
    /// assignments written; the digest and the indexes describe the rows
    /// as they then are.
    pub fn apply_updates(&mut self, updates: &[(usize, Vec<(usize, Value)>)]) -> Result<usize> {
        let mut touched: std::collections::HashSet<usize> = std::collections::HashSet::new();
        let mut outcome = Ok(updates.len());
        let mut scratch = Vec::new();
        for (rid, cols) in updates {
            let before = row_hash_in(&mut scratch, *rid, self.row(*rid));
            let written = self.write_row(*rid, cols, &mut touched);
            let after = row_hash_in(&mut scratch, *rid, self.row(*rid));
            self.digest = self.digest.wrapping_sub(before).wrapping_add(after);
            if let Err(refused) = written {
                outcome = Err(refused);
                break;
            }
        }
        let mut indexed: Vec<usize> = touched
            .into_iter()
            .filter(|c| self.indexes.contains_key(c))
            .collect();
        indexed.sort_unstable();
        for col_idx in indexed {
            self.rebuild_index(col_idx);
        }
        outcome
    }

    /// Assign `cols` to row `rid`, recording the columns written. The row
    /// and its chunk are copied first if an older snapshot shares them.
    fn write_row(
        &mut self,
        rid: usize,
        cols: &[(usize, Value)],
        touched: &mut std::collections::HashSet<usize>,
    ) -> Result<()> {
        for (col_idx, value) in cols {
            let col = self.schema.column(*col_idx);
            if value.is_null() && !col.nullable {
                return Err(Error::Schema(format!(
                    "column '{}.{}' is NOT NULL",
                    self.name, col.name
                )));
            }
            let value = value.coerce_for_column(col.dtype)?;
            let chunk = Arc::make_mut(&mut self.chunks[rid / CHUNK]);
            let row = chunk[rid % CHUNK]
                .as_mut()
                .expect("an update names a stored row");
            Arc::make_mut(row)[*col_idx] = value;
            touched.insert(*col_idx);
        }
        Ok(())
    }

    /// Remove the given rows (ids into the current ordering); rebuilds the
    /// spine, all indexes and the digest (the surviving rows change
    /// position).
    pub fn delete_rows(&mut self, row_ids: &[usize]) -> usize {
        if row_ids.is_empty() {
            return 0;
        }
        let doomed: std::collections::HashSet<usize> = row_ids.iter().copied().collect();
        let before = self.len;
        let kept: Vec<SharedRow> = (self.rows().iter().enumerate())
            .filter(|(i, _)| !doomed.contains(i))
            .map(|(_, row)| Arc::clone(row))
            .collect();
        (self.chunks, self.len) = (Vec::new(), 0);
        for row in kept {
            self.push(row);
        }
        let mut scratch = Vec::new();
        self.digest = self.rows().iter().enumerate().fold(0, |sum, (i, row)| {
            sum.wrapping_add(row_hash_in(&mut scratch, i, row))
        });
        let mut indexed: Vec<usize> = self.indexes.keys().copied().collect();
        indexed.sort_unstable();
        for col_idx in indexed {
            self.rebuild_index(col_idx);
        }
        before - self.len
    }
}

/// A table's rows in storage order ([`Table::rows`]): a view of its
/// chunks, cheap to copy.
#[derive(Debug, Clone, Copy)]
pub struct Rows<'t> {
    chunks: &'t [Chunk],
    len: usize,
}

impl<'t> Rows<'t> {
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `id`, if the table has that many.
    pub fn get(&self, id: usize) -> Option<&'t SharedRow> {
        self.chunks.get(id / CHUNK)?[id % CHUNK].as_ref()
    }

    pub fn iter(&self) -> RowIter<'t> {
        RowIter {
            chunks: self.chunks.iter(),
            rows: [].iter(),
        }
    }

    /// The rows, by position, that are not `base`'s row at the same
    /// position (the same `Arc`), `base` being as long. A chunk that is
    /// `base`'s own allocation is skipped without comparing its rows: a
    /// mutator copies a chunk before it writes into it.
    pub fn changed_since(&self, base: Rows<'_>) -> Vec<(usize, &'t SharedRow)> {
        let mut changed = Vec::new();
        for (c, (chunk, was)) in self.chunks.iter().zip(base.chunks).enumerate() {
            if Arc::ptr_eq(chunk, was) {
                continue;
            }
            for (i, (row, was)) in chunk.iter().zip(was.iter()).enumerate() {
                match (row, was) {
                    (Some(row), Some(was)) if Arc::ptr_eq(row, was) => {}
                    (Some(row), _) => changed.push((c * CHUNK + i, row)),
                    (None, _) => break,
                }
            }
        }
        changed
    }
}

impl<'t> IntoIterator for Rows<'t> {
    type Item = &'t SharedRow;
    type IntoIter = RowIter<'t>;

    fn into_iter(self) -> RowIter<'t> {
        self.iter()
    }
}

/// The iterator of [`Rows`].
#[derive(Debug, Clone)]
pub struct RowIter<'t> {
    chunks: std::slice::Iter<'t, Chunk>,
    rows: std::slice::Iter<'t, Option<SharedRow>>,
}

impl<'t> Iterator for RowIter<'t> {
    type Item = &'t SharedRow;

    fn next(&mut self) -> Option<&'t SharedRow> {
        loop {
            match self.rows.next() {
                // An empty slot is the end of the last chunk.
                Some(slot) => return slot.as_ref(),
                None => self.rows = self.chunks.next()?.iter(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

    fn table() -> Table {
        let mut t = Table::new(
            "Link",
            Schema::new(vec![
                Column::new("obid", DataType::Int).not_null(),
                Column::new("left", DataType::Int),
                Column::new("right", DataType::Int),
            ]),
        );
        for (obid, l, r) in [(1001, 1, 2), (1002, 1, 3), (1003, 2, 4), (1004, 2, 5)] {
            t.insert(Row::new(vec![
                Value::Int(obid),
                Value::Int(l),
                Value::Int(r),
            ]))
            .unwrap();
        }
        t
    }

    #[test]
    fn name_is_lowercased() {
        assert_eq!(table().name, "link");
    }

    #[test]
    fn insert_checks_arity() {
        let mut t = table();
        let err = t.insert(Row::new(vec![Value::Int(1)])).unwrap_err();
        assert!(matches!(err, Error::Schema(_)));
    }

    #[test]
    fn insert_checks_not_null() {
        let mut t = table();
        let err = t
            .insert(Row::new(vec![Value::Null, Value::Int(1), Value::Int(2)]))
            .unwrap_err();
        assert!(err.to_string().contains("NOT NULL"));
    }

    #[test]
    fn insert_rejects_type_mismatch() {
        let mut t = table();
        let err = t
            .insert(Row::new(vec![
                Value::Text("x".into()),
                Value::Int(1),
                Value::Int(2),
            ]))
            .unwrap_err();
        assert!(matches!(err, Error::Schema(_)));
    }

    #[test]
    fn index_lookup_finds_matching_rows() {
        let mut t = table();
        t.create_index("left").unwrap();
        let left_idx = t.schema.index_of("left").unwrap();
        assert!(t.has_index(left_idx));
        let hits = t.index_lookup(left_idx, &Value::Int(1)).unwrap();
        assert_eq!(hits.len(), 2);
        let hits = t.index_lookup(left_idx, &Value::Int(99)).unwrap();
        assert!(hits.is_empty());
    }

    #[test]
    fn index_maintained_on_insert() {
        let mut t = table();
        t.create_index("left").unwrap();
        t.insert(Row::new(vec![
            Value::Int(1005),
            Value::Int(1),
            Value::Int(6),
        ]))
        .unwrap();
        let left_idx = t.schema.index_of("left").unwrap();
        assert_eq!(t.index_lookup(left_idx, &Value::Int(1)).unwrap().len(), 3);
    }

    #[test]
    fn update_rebuilds_index() {
        let mut t = table();
        t.create_index("left").unwrap();
        let left_idx = t.schema.index_of("left").unwrap();
        t.apply_updates(&[(0, vec![(left_idx, Value::Int(7))])])
            .unwrap();
        assert_eq!(t.index_lookup(left_idx, &Value::Int(1)).unwrap().len(), 1);
        assert_eq!(t.index_lookup(left_idx, &Value::Int(7)).unwrap().len(), 1);
    }

    #[test]
    fn delete_compacts_and_reindexes() {
        let mut t = table();
        t.create_index("left").unwrap();
        let removed = t.delete_rows(&[0, 2]);
        assert_eq!(removed, 2);
        assert_eq!(t.len(), 2);
        let left_idx = t.schema.index_of("left").unwrap();
        assert_eq!(t.index_lookup(left_idx, &Value::Int(2)).unwrap().len(), 1);
    }
}
