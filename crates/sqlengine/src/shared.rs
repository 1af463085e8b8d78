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
//!   mutex, clones the catalog (cheap: tables are `Arc`ed, see
//!   [`crate::Catalog`]), applies the DML — copying the touched table's
//!   row-pointer spine and the rows it actually changes, nothing else (see
//!   [`crate::storage`]) — and atomically publishes the new snapshot with
//!   a bumped version.
//! * **The version doubles as a cache epoch.** Every published snapshot
//!   carries a monotonically increasing `version`; any result computed
//!   against version *v* is valid exactly while the current version is
//!   still *v*. The PDM layer keys its cross-session result cache on this.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use crate::ast::Statement;
use crate::catalog::Catalog;
use crate::error::{Error, Result};
use crate::exec::ExecConfig;
use crate::row::ResultSet;
use crate::template::Template;
use crate::update::execute_statement;
use crate::{parser, Database, DmlOutcome, ExecOutcome};

/// One immutable published state of the database. Everything a query needs
/// — catalog (tables, views, functions) and executor configuration — plus
/// the version it was published at.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub catalog: Catalog,
    pub config: ExecConfig,
    /// Storage version this snapshot was published at (0 = initial load).
    pub version: u64,
}

impl Snapshot {
    /// Run a query against this snapshot. Lock-free: touches only the
    /// snapshot's own immutable data.
    pub fn query(&self, sql: &str) -> Result<ResultSet> {
        let q = parser::parse_query(sql)?;
        self.query_ast(&q)
    }

    /// Run an already-parsed query against this snapshot.
    pub fn query_ast(&self, query: &crate::ast::Query) -> Result<ResultSet> {
        self.query_ast_profiled(query, &pdm_obs::Recorder::disabled())
            .map(|(rs, _)| rs)
    }

    /// Run an already-parsed query with per-operator span recording, and
    /// return the execution counters alongside the rows. With a disabled
    /// recorder this is exactly [`Snapshot::query_ast`] — same context,
    /// same evaluation — so results are byte-identical either way.
    pub fn query_ast_profiled(
        &self,
        query: &crate::ast::Query,
        obs: &pdm_obs::Recorder,
    ) -> Result<(ResultSet, crate::exec::ExecStats)> {
        crate::evaluate(obs, || {
            crate::exec::execute(&self.catalog, &self.config, query, &[], obs)
        })
    }

    /// [`Snapshot::query_ast_profiled`] of a template's query with its `$n`
    /// bound to `values`, through the plan the template keeps
    /// ([`Template::run`]).
    pub fn query_template_profiled(
        &self,
        template: &Template,
        values: &[crate::Value],
        obs: &pdm_obs::Recorder,
    ) -> Result<(ResultSet, crate::exec::ExecStats)> {
        crate::evaluate(obs, || {
            template.run(&self.catalog, &self.config, values, obs)
        })
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
    writer: Mutex<()>,
    /// Published version, readable without taking any lock.
    version: AtomicU64,
}

impl SharedDatabase {
    /// Publish an owned database as version 0.
    pub fn new(db: Database) -> Self {
        SharedDatabase {
            current: RwLock::new(Arc::new(Snapshot {
                catalog: db.catalog,
                config: db.config,
                version: 0,
            })),
            writer: Mutex::new(()),
            version: AtomicU64::new(0),
        }
    }

    /// Publish a previously serialized snapshot (recovery path): the
    /// version chain continues from `snapshot.version` instead of 0.
    pub fn from_snapshot(snapshot: Snapshot) -> Self {
        let version = snapshot.version;
        SharedDatabase {
            current: RwLock::new(Arc::new(snapshot)),
            writer: Mutex::new(()),
            version: AtomicU64::new(version),
        }
    }

    /// The currently published snapshot.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        match self.current.read() {
            Ok(guard) => Arc::clone(&guard),
            Err(poisoned) => Arc::clone(&poisoned.into_inner()),
        }
    }

    /// Current storage version (the cache epoch). Bumped by every DML/DDL
    /// statement that goes through [`SharedDatabase::execute`].
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Execute a read query on the current snapshot (lock-free after the
    /// snapshot handout).
    pub fn query(&self, sql: &str) -> Result<ResultSet> {
        self.snapshot().query(sql)
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
    /// after the DML has been applied to the copied catalog but *before*
    /// the new snapshot is published. This is the write-ahead-log hook —
    /// the durability layer appends and fsyncs the commit record in the
    /// gate, so a state change is only ever visible if it is already
    /// durable. A gate error abandons the prepared snapshot: nothing is
    /// published and the version does not advance.
    ///
    /// The gate receives the version the commit would publish as. Read
    /// queries never invoke the gate.
    pub fn execute_ast_gated(
        &self,
        stmt: &Statement,
        gate: impl FnOnce(u64) -> Result<()>,
    ) -> Result<(ExecOutcome, u64)> {
        if let Statement::Query(q) = stmt {
            let snap = self.snapshot();
            return Ok((ExecOutcome::Rows(snap.query_ast(q)?), snap.version));
        }
        self.publish(|catalog, config, version| {
            let outcome = execute_statement(catalog, config, stmt)?;
            gate(version)?;
            Ok(ExecOutcome::Dml(outcome))
        })
    }

    /// The write protocol, in its one place: serialize on the writer mutex,
    /// copy the current snapshot's catalog (cheap: `Arc`ed tables), let
    /// `mutate` change the copy — it is told the version the copy would
    /// publish as — then swap the copy in and store the version. An error
    /// from `mutate` abandons the copy: nothing is published.
    fn publish<T>(
        &self,
        mutate: impl FnOnce(&mut Catalog, &ExecConfig, u64) -> Result<T>,
    ) -> Result<(T, u64)> {
        let _writers = match self.writer.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let base = self.snapshot();
        let mut catalog = base.catalog.clone();
        let version = base.version.saturating_add(1);
        let out = mutate(&mut catalog, &base.config, version)?;
        let next = Arc::new(Snapshot {
            catalog,
            config: base.config.clone(),
            version,
        });
        match self.current.write() {
            Ok(mut guard) => *guard = next,
            Err(poisoned) => *poisoned.into_inner() = next,
        }
        self.version.store(version, Ordering::Release);
        Ok((out, version))
    }

    /// DML convenience: execute and unwrap the DML outcome.
    pub fn execute_dml(&self, sql: &str) -> Result<(DmlOutcome, u64)> {
        match self.execute(sql)? {
            (ExecOutcome::Dml(d), v) => Ok((d, v)),
            (ExecOutcome::Rows(_), _) => {
                Err(Error::Eval("expected a DML statement, got a query".into()))
            }
        }
    }

    /// Programmatic bulk load, mirroring [`Database::insert_rows`]: one
    /// version bump for the whole batch.
    pub fn insert_rows(&self, table: &str, rows: Vec<crate::row::Row>) -> Result<(usize, u64)> {
        self.publish(|catalog, _, _| {
            let t = catalog.table_mut(table)?;
            let n = rows.len();
            for row in rows {
                t.insert(row)?;
            }
            Ok(n)
        })
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
    use crate::Value;

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
        s.query("SELECT * FROM t").unwrap();
        let (out, v) = s.execute("SELECT a FROM t WHERE a = 1").unwrap();
        assert_eq!(v, 0);
        assert!(matches!(out, ExecOutcome::Rows(_)));
        assert_eq!(s.version(), 0);
    }

    #[test]
    fn dml_bumps_version_and_publishes() {
        let s = shared();
        let (d, v) = s.execute_dml("INSERT INTO t VALUES (3, 'z')").unwrap();
        assert_eq!(d, DmlOutcome::Inserted(1));
        assert_eq!(v, 1);
        assert_eq!(s.version(), 1);
        assert_eq!(s.query("SELECT * FROM t").unwrap().len(), 3);
    }

    #[test]
    fn held_snapshot_is_isolated_from_later_dml() {
        let s = shared();
        let old = s.snapshot();
        s.execute_dml("UPDATE t SET b = 'mut' WHERE a = 1").unwrap();
        s.execute_dml("DELETE FROM t WHERE a = 2").unwrap();

        // The old snapshot still sees the original two rows untouched.
        let rs = old.query("SELECT b FROM t ORDER BY a").unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.rows[0].get(0), &Value::Text("x".into()));

        // The current snapshot sees the new state.
        let rs = s.query("SELECT b FROM t ORDER BY a").unwrap();
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
                    let rs = s.query("SELECT COUNT(*) AS n FROM t").unwrap();
                    // count only ever grows from 2
                    match rs.rows[0].get(0) {
                        Value::Int(n) => assert!(*n >= 2),
                        other => panic!("unexpected {other}"),
                    }
                }
            }));
        }
        for i in 0..50 {
            s.execute_dml(&format!("INSERT INTO t VALUES ({}, 'w')", 100 + i))
                .unwrap();
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.version(), 50);
        assert_eq!(s.query("SELECT * FROM t").unwrap().len(), 52);
    }
}
