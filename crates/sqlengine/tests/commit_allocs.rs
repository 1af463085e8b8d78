#![allow(clippy::unwrap_used)]
#![allow(unsafe_code)]

//! Work pin of a commit: the bytes a one-row UPDATE allocates through a
//! [`SharedDatabase`] follow the row it writes, not the table it lives
//! in. A table shared with the published snapshot is copied before the
//! write (`Catalog::table_mut`), and the copy is one pointer per chunk of
//! [`CHUNK`] rows; a spine of one pointer per row would cost 16 bytes per
//! row here.
//!
//! The counts repeat exactly (nothing here depends on time, hashing or
//! threads), so this is a test, not a benchmark. One `#[test]` only: the
//! allocator is process-wide and counts the thread that asked. `--
//! --nocapture` prints the two counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pdm_sql::storage::CHUNK;
use pdm_sql::{Database, Row, SharedDatabase, Value};

thread_local! {
    /// `Some(bytes)` while the calling thread is counting.
    static BYTES: Cell<Option<u64>> = const { Cell::new(None) };
}

struct Counting;

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down.
    let _ = BYTES.try_with(|c| c.set(c.get().map(|n| n + bytes as u64)));
}

// SAFETY: every method forwards to `System` with the arguments it was
// given; the only addition is a thread-local counter, which does not
// allocate (a `const`-initialised `Cell` of a `Copy` value).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract for `alloc` is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes the calling thread allocates in `f` (a reallocation counts its
/// new size).
fn bytes<T>(f: impl FnOnce() -> T) -> (T, u64) {
    BYTES.with(|c| c.set(Some(0)));
    let out = f();
    let n = BYTES.with(|c| c.replace(None)).unwrap();
    (out, n)
}

/// A server over `big (a, b)` with `rows` rows and an index on `a`.
fn server(rows: i64) -> SharedDatabase {
    let mut d = Database::new();
    d.execute("CREATE TABLE big (a INTEGER NOT NULL, b VARCHAR)")
        .unwrap();
    d.insert_rows(
        "big",
        (0..rows)
            .map(|i| Row::new(vec![Value::Int(i), Value::Text(format!("payload-{i}"))]))
            .collect(),
    )
    .unwrap();
    d.execute("CREATE INDEX ON big (a)").unwrap();
    SharedDatabase::new(d)
}

/// Bytes one committed one-row UPDATE of the unindexed column allocates,
/// the published snapshot sharing the table it writes (the second of two
/// alike, so nothing made once per process is counted).
fn one_row_update(rows: i64) -> u64 {
    let shared = server(rows);
    let update = |a: i64| format!("UPDATE big SET b = 'rewritten' WHERE a = {a}");
    let (first, second) = (update(rows / 3), update(rows / 2));
    shared.execute(&first).unwrap();
    let (outcome, n) = bytes(|| shared.execute(&second));
    outcome.unwrap();
    n
}

/// Each commit stays under half a byte per stored row, and the larger
/// table's costs the smaller's plus at most 1.25× the chunk pointers its
/// spine holds beyond the smaller's: the commit's only term that grows
/// with the table. (A spine of one pointer per row spends 16 bytes per
/// row; so does one that copies every chunk.)
#[test]
fn a_one_row_update_allocates_for_its_row_not_its_table() {
    const SIZES: [u64; 2] = [10_000, 40_000];
    let [small, large] = SIZES.map(|rows| one_row_update(rows as i64));
    eprintln!(
        "one-row UPDATE: {small} bytes on {} rows, {large} on {}",
        SIZES[0], SIZES[1]
    );
    for (rows, spent) in SIZES.into_iter().zip([small, large]) {
        assert!(
            16 * spent < 8 * rows,
            "a one-row UPDATE on {rows} rows allocated {spent} bytes"
        );
    }
    let spine = |rows: u64| rows.div_ceil(CHUNK as u64) * std::mem::size_of::<usize>() as u64;
    let grown = spine(SIZES[1]) - spine(SIZES[0]);
    assert!(
        4 * large.saturating_sub(small) <= 5 * grown,
        "{small} bytes on {} rows, {large} on {}: more than 1.25x the {grown} bytes \
         of chunk pointers between them",
        SIZES[0],
        SIZES[1]
    );
}
