//! The one WAL-record state machine (DESIGN.md §10).
//!
//! A server's replicated state is its SQL snapshot plus the two trackers
//! the snapshot does not hold ([`ReplayState`]). [`ReplayState::apply`] is
//! the only place that says what a [`WalRecord`] does to that state: live
//! logging, crash recovery and replica apply all run it, and promotion
//! takes the promoted replica's state as is. Recovery and promotion both
//! end in [`become_primary`]. The serial-replay oracles
//! ([`crate::replay_prefix`], the harnesses under `tests/`) share none of
//! this on purpose: they are what it is compared against.

use std::collections::BTreeMap;
use std::sync::Arc;

use pdm_sql::persist::decode_snapshot;
use pdm_sql::{ResultSet, SharedDatabase, Snapshot};
use pdm_wal::WalRecord;

use pdm_obs::Recorder;

use crate::durability::{Durability, GrantIds, RecoveryError};
use crate::product::ObjectId;
use crate::shared::{SharedServer, RETAINED_TOKENS};

/// What the idempotency log knows about a token.
#[derive(Debug)]
pub(crate) enum TokenStatus<'a> {
    /// Completed, outcome retained (`None` = recorded refusal).
    Done(&'a Option<Arc<ResultSet>>),
    /// Below every retained token while the log is full: it may have
    /// completed and been trimmed, so it must never execute (again).
    Expired,
    /// Never completed here.
    Unknown,
}

/// The idempotency log: outcomes of the [`RETAINED_TOKENS`] highest
/// completed tokens. Tokens are drawn from one increasing counter, so the
/// highest are the most recent, and the retained set is the same whatever
/// order completions were recorded in — live logging, recovery, a replica
/// and the server's in-memory copy all agree on it. An outcome's rows are
/// shared: every log that retains a check-out holds the result its caller
/// was handed, not a copy.
#[derive(Debug, Clone, Default)]
pub(crate) struct TokenLog {
    done: BTreeMap<u64, Option<Arc<ResultSet>>>,
}

impl TokenLog {
    /// Record a completion and trim to the retention bound.
    pub(crate) fn record(&mut self, token: u64, rows: Option<Arc<ResultSet>>) {
        self.done.insert(token, rows);
        while self.done.len() > RETAINED_TOKENS {
            self.done.pop_first();
        }
    }

    /// The retained outcome of `token`, if it is retained.
    pub(crate) fn outcome(&self, token: u64) -> Option<&Option<Arc<ResultSet>>> {
        self.done.get(&token)
    }

    pub(crate) fn status(&self, token: u64) -> TokenStatus<'_> {
        if let Some(rows) = self.done.get(&token) {
            return TokenStatus::Done(rows);
        }
        match self.done.first_key_value() {
            Some((lowest, _)) if self.done.len() >= RETAINED_TOKENS && token < *lowest => {
                TokenStatus::Expired
            }
            _ => TokenStatus::Unknown,
        }
    }

    /// Retained `(token, outcome)` pairs, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &Option<Arc<ResultSet>>)> {
        self.done.iter().map(|(t, rows)| (*t, rows))
    }

    pub(crate) fn len(&self) -> usize {
        self.done.len()
    }

    /// The retained tokens, ascending.
    pub(crate) fn tokens(&self) -> Vec<u64> {
        self.done.keys().copied().collect()
    }
}

/// The replicated server state that is not in the SQL snapshot.
#[derive(Debug, Clone, Default)]
pub(crate) struct ReplayState {
    /// Outstanding grants (token → ids): logged before the flag UPDATEs,
    /// trimmed by release records, swept when a site becomes primary.
    pub(crate) grants: BTreeMap<u64, GrantIds>,
    /// Completed token outcomes, bounded (see [`TokenLog`]).
    pub(crate) tokens: TokenLog,
}

/// The stale grants a new primary resets: their tokens and the sorted,
/// deduplicated id unions (deterministic, so harnesses can reproduce the
/// exact swept bytes).
#[derive(Debug, Default)]
pub(crate) struct Sweep {
    pub(crate) tokens: Vec<u64>,
    pub(crate) assy: Vec<ObjectId>,
    pub(crate) comp: Vec<ObjectId>,
}

/// Re-execute the DML commit logged at `seq` on `db`: parse, execute, and
/// check that it publishes the version it logged (the version chain). The
/// one way a logged statement is replayed — crash recovery, replica apply
/// and the serial-replay oracle.
pub(crate) fn replay_commit(
    db: &SharedDatabase,
    seq: u64,
    version: u64,
    sql: &str,
) -> Result<(), RecoveryError> {
    let failed = |error| RecoveryError::Replay {
        seq,
        sql: sql.to_string(),
        error,
    };
    let stmt = pdm_sql::parser::parse_statement(sql).map_err(failed)?;
    let (_, produced) = db.execute_ast(&stmt).map_err(failed)?;
    if produced != version {
        return Err(RecoveryError::VersionChain {
            seq,
            logged: version,
            produced,
            sql: sql.to_string(),
        });
    }
    Ok(())
}

impl ReplayState {
    /// Apply the record at `seq`. DML commits re-execute on `db` and must
    /// publish the version they logged; with no `db` the caller has
    /// already applied the statement (live logging inside the commit gate).
    /// Grant, release and token records maintain the trackers; their row
    /// effects ride in the surrounding DML commits.
    pub(crate) fn apply(
        &mut self,
        db: Option<&SharedDatabase>,
        seq: u64,
        record: &WalRecord,
    ) -> Result<(), RecoveryError> {
        match record {
            WalRecord::DmlCommit { version, sql } => {
                if let Some(db) = db {
                    replay_commit(db, seq, *version, sql)?;
                }
            }
            WalRecord::CheckoutGrant {
                token,
                assy_ids,
                comp_ids,
            } => {
                self.grants.insert(
                    *token,
                    GrantIds {
                        assy: assy_ids.clone(),
                        comp: comp_ids.clone(),
                    },
                );
            }
            WalRecord::CheckoutRelease { ids } => {
                self.grants.retain(|_, g| {
                    g.assy.retain(|id| !ids.contains(id));
                    g.comp.retain(|id| !ids.contains(id));
                    !(g.assy.is_empty() && g.comp.is_empty())
                });
            }
            WalRecord::TokenComplete { token, rows } => {
                self.tokens.record(*token, rows.as_ref().map(Arc::clone));
            }
        }
        Ok(())
    }

    /// The first idempotency token a server carrying this state may hand
    /// out: above every token it has seen.
    pub(crate) fn next_token(&self) -> u64 {
        self.tokens
            .iter()
            .map(|(t, _)| t)
            .chain(self.grants.keys().copied())
            .max()
            .map_or(1, |t| t.saturating_add(1))
    }

    fn sweep(&self) -> Sweep {
        let mut sweep = Sweep::default();
        for (token, g) in &self.grants {
            sweep.tokens.push(*token);
            sweep.assy.extend(&g.assy);
            sweep.comp.extend(&g.comp);
        }
        sweep.assy.sort_unstable();
        sweep.assy.dedup();
        sweep.comp.sort_unstable();
        sweep.comp.dedup();
        sweep
    }
}

/// Decode a snapshot image into a live database. Decoded snapshots carry
/// builtin functions only; the PDM stored functions are restored before
/// any replayed SQL can call them.
pub(crate) fn database_from_snapshot(bytes: &[u8]) -> pdm_sql::Result<SharedDatabase> {
    Ok(database_from(decode_snapshot(bytes)?))
}

/// A live database over a decoded snapshot, the PDM stored functions
/// restored (see [`database_from_snapshot`]).
pub(crate) fn database_from(mut snapshot: Snapshot) -> SharedDatabase {
    crate::functions::register_into(snapshot.db.catalog.functions_mut());
    SharedDatabase::from_snapshot(snapshot)
}

/// The last step of crash recovery and of failover promotion alike: turn
/// replayed state into a serving durable primary. Every session of the
/// previous primary died with it, so no grant survives — the outstanding
/// ones are checked in through the new server's own durable path (the
/// reset UPDATEs and the closing release are themselves logged, so a
/// re-crash replays them and an attached feed ships them).
pub(crate) fn become_primary(
    db: SharedDatabase,
    durability: Durability,
) -> pdm_sql::Result<(SharedServer, Sweep)> {
    let state = durability.replay_state();
    let sweep = state.sweep();
    let server = SharedServer::assemble(db, Some(durability), &state);
    if !sweep.tokens.is_empty() {
        server.checkin_procedure(&sweep.assy, &sweep.comp, &Recorder::disabled())?;
    }
    Ok((server, sweep))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_sql::persist::encode_snapshot;
    use pdm_sql::Database;

    fn base() -> SharedDatabase {
        let mut db = Database::new();
        db.execute("CREATE TABLE assy (obid INTEGER NOT NULL, checkedout BOOLEAN)")
            .unwrap();
        db.execute("INSERT INTO assy VALUES (1, FALSE), (2, FALSE)")
            .unwrap();
        database_from_snapshot(&encode_snapshot(&SharedDatabase::new(db).snapshot())).unwrap()
    }

    fn grant(token: u64, assy: &[ObjectId], comp: &[ObjectId]) -> WalRecord {
        WalRecord::CheckoutGrant {
            token,
            assy_ids: assy.to_vec(),
            comp_ids: comp.to_vec(),
        }
    }

    fn update(version: u64) -> WalRecord {
        WalRecord::DmlCommit {
            version,
            sql: "UPDATE assy SET checkedout = TRUE WHERE obid = 1".into(),
        }
    }

    #[test]
    fn each_variant_drives_the_trackers() {
        let complete = WalRecord::TokenComplete {
            token: 7,
            rows: None,
        };
        let release = |ids: &[ObjectId]| WalRecord::CheckoutRelease { ids: ids.to_vec() };
        type Grants<'a> = &'a [(u64, &'a [ObjectId], &'a [ObjectId])];
        // (record, grants after it, completed tokens after it, version after it)
        let steps: [(WalRecord, Grants, &[u64], u64); 6] = [
            (grant(7, &[2, 1], &[9, 8]), &[(7, &[2, 1], &[9, 8])], &[], 0),
            (update(1), &[(7, &[2, 1], &[9, 8])], &[], 1),
            (complete, &[(7, &[2, 1], &[9, 8])], &[7], 1),
            (
                grant(9, &[3, 1], &[]),
                &[(7, &[2, 1], &[9, 8]), (9, &[3, 1], &[])],
                &[7],
                1,
            ),
            // A release trims every grant it touches and retires emptied ones.
            (release(&[1, 3, 9]), &[(7, &[2], &[8])], &[7], 1),
            (release(&[2, 8]), &[], &[7], 1),
        ];
        let db = base();
        let mut state = ReplayState::default();
        assert_eq!(state.next_token(), 1);
        for (i, (record, grants, tokens, version)) in steps.into_iter().enumerate() {
            state.apply(Some(&db), i as u64 + 1, &record).unwrap();
            let tracked: Vec<_> = state
                .grants
                .iter()
                .map(|(t, g)| (*t, &g.assy[..], &g.comp[..]))
                .collect();
            assert_eq!(tracked, grants, "after {record:?}");
            assert_eq!(state.tokens.tokens(), tokens, "after {record:?}");
            assert_eq!(db.version(), version, "after {record:?}");
            if i == 3 {
                // Both grants outstanding: sorted, deduplicated unions.
                let sweep = state.sweep();
                assert_eq!(sweep.tokens, [7, 9]);
                assert_eq!(sweep.assy, [1, 2, 3]);
                assert_eq!(sweep.comp, [8, 9]);
                assert_eq!(state.next_token(), 10, "above every token seen");
            }
        }
    }

    #[test]
    fn token_log_keeps_the_highest_tokens_in_any_order() {
        let n = RETAINED_TOKENS as u64;
        let mut ascending = TokenLog::default();
        let mut descending = TokenLog::default();
        for t in 1..=n + 10 {
            assert!(matches!(ascending.status(t), TokenStatus::Unknown));
            ascending.record(t, None);
            descending.record(n + 11 - t, None);
        }
        let kept: Vec<u64> = (11..=n + 10).collect();
        assert_eq!(ascending.tokens(), kept);
        assert_eq!(descending.tokens(), kept);
        assert!(matches!(ascending.status(10), TokenStatus::Expired));
        assert!(matches!(ascending.status(11), TokenStatus::Done(None)));
        assert!(matches!(ascending.status(n + 11), TokenStatus::Unknown));
        // Not full: a low unseen token is merely unknown.
        let mut sparse = TokenLog::default();
        sparse.record(50, None);
        assert!(matches!(sparse.status(7), TokenStatus::Unknown));
    }

    #[test]
    fn version_chain_mismatch_names_its_seq() {
        match ReplayState::default().apply(Some(&base()), 42, &update(5)) {
            Err(RecoveryError::VersionChain {
                seq: 42,
                logged: 5,
                produced: 1,
                ..
            }) => {}
            other => panic!("expected a version-chain error at seq 42, got {other:?}"),
        }
    }
}
