//! Concurrently shareable database: immutable snapshots + atomic swap.
//!
//! The paper's deployment model is many worldwide clients against ONE
//! central PDM database server (§1, Fig. 1). [`crate::Database`] alone
//! cannot express that — it is a single-owner value. [`SharedDatabase`]
//! turns it into a shared service with the classic copy-on-write snapshot
//! design:
//!
//! * **Reads are lock-free.** A reader grabs the current [`Snapshot`]
//!   (an `Arc` clone under a briefly-held read lock) and then executes
//!   entirely on that immutable image — no lock is held during query
//!   evaluation, and a snapshot stays valid however long the reader keeps
//!   it.
//! * **Writes copy-on-write and swap.** A writer serializes on the writer
//!   mutex, clones the published [`crate::Database`] (cheap: tables are
//!   `Arc`ed, see [`crate::Catalog`]), applies the DML — copying the
//!   touched table's row-pointer spine and the rows it actually changes,
//!   nothing else (see [`crate::storage`]) — and atomically publishes the
//!   copy as the new snapshot with a bumped version.
//! * **The version doubles as a cache epoch.** Every published snapshot
//!   carries a monotonically increasing `version`; any result computed
//!   against version *v* is valid exactly while the current version is
//!   still *v*. The PDM layer keys its cross-session result cache on this.

use std::ops::Deref;
use std::sync::Arc;

use pdm_obs::lock::{Lock, LockId, RwLock};

use crate::ast::Statement;
use crate::error::Result;
use crate::{parser, Database, ExecOutcome};

/// One immutable published state of the database: a [`Database`] — catalog
/// (tables, views, functions) and executor configuration — at the version it
/// was published at. It reads as a `Database` through `Deref`; there is no
/// `DerefMut`, so a published state cannot be changed through it.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub db: Database,
    /// Storage version this snapshot was published at (0 = initial load).
    pub version: u64,
}

impl Deref for Snapshot {
    type Target = Database;

    fn deref(&self) -> &Database {
        &self.db
    }
}

/// A database shared between concurrent sessions.
#[derive(Debug)]
pub struct SharedDatabase {
    /// The currently published snapshot. Readers clone the `Arc` out and
    /// drop the lock before executing.
    current: RwLock<Arc<Snapshot>>,
    /// Serializes writers: DML is read-copy-update, so two writers must
    /// not both start from the same base snapshot.
    writer: Lock<()>,
}

static WRITER: LockId = LockId::new("sql.writer", 20).across_io(
    "the one commit serializer: a commit's gate (the WAL append and fsync) \
     runs under the writer, after the copy is changed and before it is published",
);
static CURRENT: LockId = LockId::new("sql.current", 110);

impl SharedDatabase {
    /// Publish an owned database as version 0.
    pub fn new(db: Database) -> Self {
        SharedDatabase::from_snapshot(Snapshot { db, version: 0 })
    }

    /// Publish a previously serialized snapshot (recovery path): the
    /// version chain continues from `snapshot.version` instead of 0.
    pub fn from_snapshot(snapshot: Snapshot) -> Self {
        SharedDatabase {
            current: RwLock::new(&CURRENT, Arc::new(snapshot)),
            writer: Lock::new(&WRITER, ()),
        }
    }

    /// The currently published snapshot.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.current.read())
    }

    /// Current storage version (the cache epoch): the published snapshot's.
    /// Bumped by every DML/DDL statement that goes through
    /// [`SharedDatabase::execute`].
    pub fn version(&self) -> u64 {
        self.snapshot().version
    }

    /// Execute any statement. Queries run on the current snapshot without
    /// bumping the version; DML/DDL copies-on-write, applies, and publishes
    /// a new snapshot. Returns the outcome and the version it is visible
    /// at.
    pub fn execute(&self, sql: &str) -> Result<(ExecOutcome, u64)> {
        let stmt = parser::parse_statement(sql)?;
        self.execute_ast(&stmt)
    }

    /// Like [`SharedDatabase::execute`] for an already-parsed statement.
    pub fn execute_ast(&self, stmt: &Statement) -> Result<(ExecOutcome, u64)> {
        self.execute_ast_gated(stmt, |_| Ok(()))
    }

    /// Execute a statement with a **commit gate**: for a write, `gate` runs
    /// after the DML has been applied to the copied database but *before*
    /// the new snapshot is published. This is the write-ahead-log hook —
    /// the durability layer appends and fsyncs the commit record in the
    /// gate, so a state change is only ever visible if it is already
    /// durable. A statement or gate error abandons the copy: nothing is
    /// published and the version does not advance.
    ///
    /// The gate receives the snapshot the commit will publish, version and
    /// all. Read queries never invoke the gate.
    ///
    /// The write protocol, in its one place: serialize on the writer mutex,
    /// clone the current snapshot's database (cheap: `Arc`ed tables),
    /// [`Database::execute_ast`] on the copy, run the gate, swap the copy
    /// in. The swap is the only step after the gate, so whatever the gates
    /// do happens in commit order.
    pub fn execute_ast_gated<E: From<crate::Error>>(
        &self,
        stmt: &Statement,
        gate: impl FnOnce(&Arc<Snapshot>) -> std::result::Result<(), E>,
    ) -> std::result::Result<(ExecOutcome, u64), E> {
        if let Statement::Query(q) = stmt {
            let snap = self.snapshot();
            let rows = snap
                .query_ast_profiled(q, &pdm_obs::Recorder::disabled())?
                .0;
            return Ok((ExecOutcome::Rows(rows), snap.version));
        }
        let _writers = self.writer.lock();
        let base = self.snapshot();
        let mut db = base.db.clone();
        let version = base.version.saturating_add(1);
        let outcome = db.execute_ast(stmt)?;
        let next = Arc::new(Snapshot { db, version });
        gate(&next)?;
        *self.current.write() = next;
        Ok((outcome, version))
    }
}

// The whole point: a `SharedDatabase` must be shareable across threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SharedDatabase>();
    assert_send_sync::<Snapshot>();
    assert_send_sync::<Database>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DmlOutcome, Value};

    fn shared() -> SharedDatabase {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (a INTEGER NOT NULL, b VARCHAR)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
            .unwrap();
        SharedDatabase::new(db)
    }

    #[test]
    fn reads_never_bump_the_version() {
        let s = shared();
        assert_eq!(s.version(), 0);
        s.snapshot().query("SELECT * FROM t").unwrap();
        let (out, v) = s.execute("SELECT a FROM t WHERE a = 1").unwrap();
        assert_eq!(v, 0);
        assert!(matches!(out, ExecOutcome::Rows(_)));
        assert_eq!(s.version(), 0);
    }

    #[test]
    fn dml_bumps_version_and_publishes() {
        let s = shared();
        let (out, v) = s.execute("INSERT INTO t VALUES (3, 'z')").unwrap();
        assert_eq!(out, ExecOutcome::Dml(DmlOutcome::Inserted(1)));
        assert_eq!(v, 1);
        assert_eq!(s.version(), 1);
        assert_eq!(s.snapshot().query("SELECT * FROM t").unwrap().len(), 3);
    }

    #[test]
    fn held_snapshot_is_isolated_from_later_dml() {
        let s = shared();
        let old = s.snapshot();
        s.execute("UPDATE t SET b = 'mut' WHERE a = 1").unwrap();
        s.execute("DELETE FROM t WHERE a = 2").unwrap();

        // The old snapshot still sees the original two rows untouched.
        let rs = old.query("SELECT b FROM t ORDER BY a").unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.rows[0].get(0), &Value::Text("x".into()));

        // The current snapshot sees the new state.
        let rs = s.snapshot().query("SELECT b FROM t ORDER BY a").unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0].get(0), &Value::Text("mut".into()));
    }

    #[test]
    fn concurrent_readers_and_writer() {
        let s = std::sync::Arc::new(shared());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s = std::sync::Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    let rs = s.snapshot().query("SELECT COUNT(*) AS n FROM t").unwrap();
                    // count only ever grows from 2
                    match rs.rows[0].get(0) {
                        Value::Int(n) => assert!(*n >= 2),
                        other => panic!("unexpected {other}"),
                    }
                }
            }));
        }
        for i in 0..50 {
            s.execute(&format!("INSERT INTO t VALUES ({}, 'w')", 100 + i))
                .unwrap();
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.version(), 50);
        assert_eq!(s.snapshot().query("SELECT * FROM t").unwrap().len(), 52);
    }
}
