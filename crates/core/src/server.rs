//! The database-server side: a handle to the shared PDM server.
//!
//! The paper's deployment is one central server and many worldwide clients
//! (§1 Fig. 1). [`PdmServer`] is the cheap cloneable handle sessions hold
//! on that server: cloning it (or [`crate::Session::attach`]-ing more
//! sessions) shares ONE [`SharedServer`] — one storage, one check-out lock
//! table, one cross-session result cache — across any number of threads.
//! It dereferences to the shared server, which owns every request entry
//! point (including the server-resident check-out procedure the paper
//! proposes for function shipping, §6); each of those takes its deadline
//! and recorder explicitly, so a caller cannot drop context by picking a
//! shorter name.

use std::fmt::Write as _;
use std::ops::Deref;
use std::sync::Arc;

use pdm_sql::{Database, Result, ResultSet, Value};

use crate::product::ObjectId;
use crate::shared::SharedServer;

/// A handle to the PDM database server. Clones share the same server.
#[derive(Debug, Clone)]
pub struct PdmServer {
    shared: Arc<SharedServer>,
}

impl PdmServer {
    /// Publish a populated database as a fresh shared server (PDM stored
    /// functions installed).
    pub fn new(db: Database) -> Self {
        PdmServer::from_shared(Arc::new(SharedServer::new(db)))
    }

    /// Handle to an existing shared server.
    pub fn from_shared(shared: Arc<SharedServer>) -> Self {
        PdmServer { shared }
    }

    /// The shared server behind this handle.
    pub fn shared(&self) -> &Arc<SharedServer> {
        &self.shared
    }

    /// An owned copy of a read query's result, through the cross-session
    /// result cache — the unmetered convenience read of tests, loaders and
    /// the client-cached root fetch (paper footnote 4).
    pub fn query(&self, sql: &str) -> Result<ResultSet> {
        Ok((*self.shared.query_cached(sql)?).clone())
    }
}

impl Deref for PdmServer {
    type Target = SharedServer;

    fn deref(&self) -> &SharedServer {
        &self.shared
    }
}

/// Result of the server-side check-out: `None` rows means the ∀rows
/// condition failed (something was already checked out). The rows are the
/// retrieval's own shared result — the one the idempotency logs retain and
/// a replay of the token hands out again.
#[derive(Debug, Clone)]
pub struct CheckoutProcedureResult {
    pub rows: Option<Arc<ResultSet>>,
}

/// Split a homogenized result into assembly and component object ids.
pub(crate) fn split_ids(rows: &ResultSet) -> Result<(Vec<ObjectId>, Vec<ObjectId>)> {
    let type_idx = rows.schema.require("type")?;
    let obid_idx = rows.schema.require("obid")?;
    let mut assy = Vec::new();
    let mut comp = Vec::new();
    for row in &rows.rows {
        let id = match row.get(obid_idx) {
            Value::Int(i) => *i,
            other => {
                return Err(pdm_sql::Error::Eval(format!(
                    "non-integer obid in result: {other}"
                )))
            }
        };
        match row.get(type_idx) {
            Value::Text(t) if t == "assy" => assy.push(id),
            Value::Text(t) if t == "comp" => comp.push(id),
            _ => {}
        }
    }
    Ok((assy, comp))
}

/// Render an IN-list of ids.
pub(crate) fn id_list(ids: &[ObjectId]) -> String {
    let mut s = String::with_capacity(ids.len() * 8);
    push_id_list(&mut s, ids);
    s
}

/// Append the IN-list of `ids` to `out`: the ids in decimal, joined with
/// `", "` as the printer joins list items. Allocates only if `out` has no
/// room for them.
pub(crate) fn push_id_list(out: &mut String, ids: &[ObjectId]) {
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{id}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::recursive;
    use pdm_obs::Recorder;
    use pdm_workload::{build_database, TreeSpec};

    fn server() -> PdmServer {
        let (db, _) = build_database(&TreeSpec::new(2, 2, 1.0).with_node_size(128)).unwrap();
        PdmServer::new(db)
    }

    fn execute(s: &PdmServer, sql: &str) {
        s.execute_deadline_obs(sql, None, &Recorder::disabled())
            .unwrap();
    }

    fn checkout(s: &PdmServer, token: u64) -> CheckoutProcedureResult {
        let sql = recursive::mle_query(1).to_string();
        s.checkout_procedure_with_deadline_obs(1, &sql, token, None, &Recorder::disabled())
            .unwrap()
    }

    #[test]
    fn query_and_views() {
        let s = server();
        assert!(s.view_names().is_empty());
        execute(&s, "CREATE VIEW v AS SELECT obid FROM assy");
        assert!(s.view_names().contains("v"));
        let rs = s.query("SELECT COUNT(*) AS n FROM assy").unwrap();
        assert_eq!(rs.rows[0].get(0), &Value::Int(3));
    }

    #[test]
    fn pdm_functions_installed() {
        let s = server();
        let rs = s
            .query("SELECT SET_OVERLAPS('OPTA', 'OPTA,OPTB') AS o FROM assy WHERE obid = 1")
            .unwrap();
        assert_eq!(rs.rows[0].get(0), &Value::Bool(true));
    }

    #[test]
    fn checkout_procedure_flips_flags_once() {
        let s = server();
        let rows = checkout(&s, s.next_token())
            .rows
            .expect("first check-out succeeds");
        assert_eq!(rows.len(), 2 + 4); // 2 child assys + 4 comps (root excluded)

        // everything below (and including) the root is now flagged
        let rs = s
            .query("SELECT COUNT(*) AS n FROM assy WHERE checkedout = TRUE")
            .unwrap();
        assert_eq!(rs.rows[0].get(0), &Value::Int(3));

        // a second check-out must fail the ∀rows condition
        assert!(checkout(&s, s.next_token()).rows.is_none());
    }

    #[test]
    fn checkin_procedure_clears_flags() {
        let s = server();
        checkout(&s, s.next_token());
        let n = s
            .checkin_procedure(&[1, 2, 3], &[4, 5, 6, 7], &Recorder::disabled())
            .unwrap();
        assert_eq!(n, 7);
        let rs = s
            .query("SELECT COUNT(*) AS n FROM comp WHERE checkedout = TRUE")
            .unwrap();
        assert_eq!(rs.rows[0].get(0), &Value::Int(0));
        assert!(s.lock_table().is_empty());
    }

    #[test]
    fn idempotent_checkout_replays_original_outcome() {
        let s = server();
        assert!(checkout(&s, 42).rows.is_some());
        assert!(s.checkout_recorded(42));
        // replaying the same token returns the original success instead of
        // refusing its own check-out
        assert!(checkout(&s, 42).rows.is_some());
        // a genuinely new check-out still fails the ∀rows condition
        assert!(checkout(&s, 43).rows.is_none());
    }

    #[test]
    fn cloned_handles_share_one_server() {
        let s = server();
        let s2 = s.clone();
        execute(&s, "CREATE VIEW shared_v AS SELECT obid FROM assy");
        assert!(s2.view_names().contains("shared_v"));
        // Result cache is shared too: same query from the other handle hits.
        s.query("SELECT obid FROM comp WHERE obid = 4").unwrap();
        let before = s2.cache_stats();
        s2.query("SELECT obid FROM comp WHERE obid = 4").unwrap();
        let after = s2.cache_stats();
        assert_eq!(after.hits, before.hits + 1);
    }

    #[test]
    fn id_list_rendering() {
        assert_eq!(id_list(&[1, 2, 3]), "1, 2, 3");
        assert_eq!(id_list(&[]), "");
    }
}
