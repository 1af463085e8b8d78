//! Durability policy for the shared PDM server: what gets logged when, how
//! checkpoints are cut, and how a crashed server is rebuilt.
//!
//! The mechanism (simulated device, framing, checksums, checkpoint cell)
//! lives in `pdm-wal`; this module decides the protocol:
//!
//! * **DML commits** are logged through the commit gate of
//!   [`pdm_sql::SharedDatabase::execute_ast_gated`]: the record is appended
//!   and fsynced *after* the statement has been applied to the copied
//!   catalog but *before* the new snapshot is published. The WAL sync is
//!   the commit point — a state change is visible only if durable, and a
//!   crash between sync and publish costs nothing because replay
//!   re-executes the logged statement.
//! * **Check-out grants** are logged *before* the `checkedout` flag
//!   UPDATEs. A crash anywhere inside the procedure therefore leaves a
//!   durable grant record whose ids recovery sweeps back to `FALSE`; the
//!   sweep is idempotent (it forces flags that may never have been set), so
//!   every crash position inside the procedure converges to the same
//!   recovered state: the check-out never happened.
//! * **Token completions** are logged after the grant is promoted. On
//!   recovery a completed token's outcome is restored into the idempotency
//!   log without re-executing the procedure — a client replaying the token
//!   gets its recorded rows (or recorded refusal) exactly once.
//! * **Checkpoints** serialize a published snapshot plus the durability
//!   aux state (outstanding grants, the retained completed-token outcomes
//!   — at most `RETAINED_TOKENS`, so a checkpoint does not grow with
//!   history) and drop the log prefix they cover. A checkpoint is a cut
//!   and an install, in the manner of ARIES's fuzzy checkpoint (Mohan et
//!   al., TODS 1992):
//!   - The **cut** is taken inside the write gate, right after the commit
//!     that crosses the interval publishes, and under the store lock. It
//!     holds the log position, the published `Arc<Snapshot>` and a clone of
//!     the trackers (whose outcomes are `Arc`-shared, so no rows are
//!     copied). No DML commit can publish between that commit and the cut,
//!     and the trackers are updated atomically with their log appends under
//!     the store lock, so snapshot, trackers and log position agree.
//!   - The gate is released and the same thread encodes the cell with no
//!     lock held; other threads keep committing and logging meanwhile.
//!   - The **install** retakes the store lock, swaps the cell in and drops
//!     only the covered log prefix: every record logged after the cut
//!     stays and is replayed on top of the checkpoint. An install is
//!     refused on a crashed device, which leaves the old cell and the whole
//!     log, and they still recover.
//!
//!   At most one cut is in flight. A due commit that finds one leaves the
//!   count running, so a checkpoint is delayed, never skipped; a cut
//!   dropped uninstalled clears its mark, so the next due commit cuts.
//!
//! The recovery invariant the crash harness asserts: for any crash point,
//! `recover` produces a state byte-identical to replaying the durable
//! commit-log prefix serially and sweeping the outstanding grants.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use pdm_sql::persist::{put_snapshot, put_u32, put_u64, Cursor};
use pdm_sql::shared::Snapshot;
use pdm_sql::{ResultSet, SharedDatabase};
use pdm_wal::record::{put_ids, put_outcome, read_ids, read_outcome};
use pdm_wal::{
    CrashPlan, DeviceStats, DurableImage, DurableStore, LogCut, LogDamage, WalError, WalRecord,
};

use crate::product::ObjectId;
use crate::repl::ReplicationFeed;
use crate::replay::{become_primary, database_from_snapshot, ReplayState};
use crate::shared::lock_unpoisoned;

/// Tuning knobs for the durability layer.
#[derive(Debug, Clone, Copy)]
pub struct DurabilityConfig {
    /// Cut a checkpoint after this many logged DML commits. Small values
    /// bound recovery replay at the cost of frequent snapshot writes.
    pub checkpoint_interval: u64,
    /// Crash schedule for the simulated log device.
    pub crash_plan: CrashPlan,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            checkpoint_interval: 64,
            crash_plan: CrashPlan::none(),
        }
    }
}

impl DurabilityConfig {
    pub fn with_interval(mut self, n: u64) -> Self {
        assert!(n > 0, "checkpoint interval must be positive");
        self.checkpoint_interval = n;
        self
    }

    pub fn with_crash_plan(mut self, plan: CrashPlan) -> Self {
        self.crash_plan = plan;
        self
    }
}

/// The ids covered by one outstanding check-out grant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GrantIds {
    pub assy: Vec<ObjectId>,
    pub comp: Vec<ObjectId>,
}

#[derive(Debug)]
struct DurState {
    store: DurableStore,
    /// The grant and token trackers, mirrored into checkpoints so a
    /// truncated record is never forgotten. Updated atomically with the
    /// corresponding log append.
    replay: ReplayState,
    /// DML commits logged since the last cut.
    commits_since_checkpoint: u64,
    /// Replication tap: every durably committed record is republished here
    /// (same seq the store assigned) for shipping to replica sites. The
    /// feed keeps its own retention, apart from checkpoint truncation —
    /// replicas replay the logical history, not the physical log.
    feed: Option<Arc<ReplicationFeed>>,
}

/// The durability attachment of a [`crate::SharedServer`].
#[derive(Debug)]
pub struct Durability {
    state: Mutex<DurState>,
    interval: u64,
    /// Set while a [`CheckpointCut`] exists: taken and not yet installed,
    /// refused or dropped. Set (`Acquire`) under the store lock when a cut
    /// is taken and cleared (`Release`) when the cut is dropped, so one
    /// cut's install happens before the next cut.
    cut_in_flight: AtomicBool,
}

/// A checkpoint cut: the published snapshot, the trackers and the log
/// position they all stand at (module docs). [`CheckpointCut::install`]
/// encodes and installs it; dropping it uninstalled abandons the
/// checkpoint, and the next due commit cuts again.
#[derive(Debug)]
#[must_use = "an uninstalled cut abandons its checkpoint"]
pub(crate) struct CheckpointCut<'a> {
    durability: &'a Durability,
    at: LogCut,
    snapshot: Arc<Snapshot>,
    replay: ReplayState,
}

impl CheckpointCut<'_> {
    /// Encode the cut into its checkpoint cell with no lock held, then
    /// install it under the store lock: the cell is swapped in and only the
    /// covered log prefix is dropped. Refused if the device crashed since
    /// the cut; the old cell and the whole log stay.
    pub(crate) fn install(self) -> pdm_sql::Result<()> {
        let frame = self
            .at
            .frame(|out| put_checkpoint(out, &self.snapshot, &self.replay));
        let installed = lock_unpoisoned(&self.durability.state)
            .store
            .install_at_cut(frame);
        // The replaced cell (megabytes) is freed here, outside the lock.
        installed.map(drop).map_err(wal_to_sql)
    }
}

impl Drop for CheckpointCut<'_> {
    fn drop(&mut self) {
        self.durability
            .cut_in_flight
            .store(false, Ordering::Release);
    }
}

fn wal_to_sql(e: WalError) -> pdm_sql::Error {
    pdm_sql::Error::Eval(format!("durability: {e}"))
}

impl Durability {
    /// Fresh durability state over an empty store.
    pub fn new(cfg: &DurabilityConfig) -> Self {
        Durability::resume(
            DurableStore::new(cfg.crash_plan),
            ReplayState::default(),
            cfg.checkpoint_interval,
        )
    }

    /// Durability over `store`, carrying already-replayed trackers.
    pub(crate) fn resume(store: DurableStore, replay: ReplayState, interval: u64) -> Self {
        Durability {
            state: Mutex::new(DurState {
                store,
                replay,
                commits_since_checkpoint: 0,
                feed: None,
            }),
            interval,
            cut_in_flight: AtomicBool::new(false),
        }
    }

    /// Attach a replication feed: every subsequent durable append is
    /// republished to it under the store-assigned sequence number, in
    /// commit order (the publish happens under the store lock).
    pub fn attach_feed(&self, feed: Arc<ReplicationFeed>) {
        lock_unpoisoned(&self.state).feed = Some(feed);
    }

    /// The one logging step: append + fsync the record, apply it to the
    /// trackers, republish it to the feed — all under the store lock, so a
    /// checkpoint can never see the record without its tracker effect (or
    /// vice versa) and feed order is commit order. Returns the guard so a
    /// caller can finish its own bookkeeping in the same critical section.
    fn log(&self, record: WalRecord) -> pdm_sql::Result<MutexGuard<'_, DurState>> {
        // lint:allow(lock-across-boundary): append+fsync under the store
        // lock IS the commit point; seq and in-memory state must advance
        // atomically (DESIGN.md §10).
        let mut st = lock_unpoisoned(&self.state);
        let (seq, payload_bytes) = st.store.commit(&record).map_err(wal_to_sql)?;
        st.replay
            .apply(None, seq, &record)
            .map_err(|e| pdm_sql::Error::Eval(e.to_string()))?;
        if let Some(feed) = &st.feed {
            feed.publish(seq, record, payload_bytes);
        }
        Ok(st)
    }

    /// The commit gate body: append + fsync one DML commit record. Called
    /// with the version the statement will publish as.
    pub fn log_commit(&self, version: u64, sql: &str) -> pdm_sql::Result<()> {
        let record = WalRecord::DmlCommit {
            version,
            sql: sql.to_string(),
        };
        self.log(record)?.commits_since_checkpoint += 1;
        Ok(())
    }

    /// Log a check-out grant and track it for sweeping.
    pub fn log_grant(
        &self,
        token: u64,
        assy: &[ObjectId],
        comp: &[ObjectId],
    ) -> pdm_sql::Result<()> {
        let record = WalRecord::CheckoutGrant {
            token,
            assy_ids: assy.to_vec(),
            comp_ids: comp.to_vec(),
        };
        self.log(record).map(drop)
    }

    /// Log a release covering `ids` and drop them from outstanding grants.
    pub fn log_release(&self, ids: &[ObjectId]) -> pdm_sql::Result<()> {
        self.log(WalRecord::CheckoutRelease { ids: ids.to_vec() })
            .map(drop)
    }

    /// Log a token completion and track its outcome for checkpointing. The
    /// record, the tracker and the feed share `rows` with the caller.
    pub fn log_token(&self, token: u64, rows: Option<Arc<ResultSet>>) -> pdm_sql::Result<()> {
        self.log(WalRecord::TokenComplete { token, rows }).map(drop)
    }

    /// Take a checkpoint cut if the interval's DML commits have been logged
    /// since the last cut and no cut is in flight. Called inside the write
    /// gate right after a commit publishes, with the published snapshot: no
    /// other commit can publish in between (module docs).
    pub(crate) fn cut_if_due(
        &self,
        published: impl FnOnce() -> Arc<Snapshot>,
    ) -> Option<CheckpointCut<'_>> {
        let mut st = lock_unpoisoned(&self.state);
        if st.commits_since_checkpoint < self.interval {
            return None;
        }
        self.cut(&mut st, published)
    }

    /// Cut `snapshot` and the trackers at the log's end, unless a cut is in
    /// flight. The caller holds the store lock.
    fn cut(
        &self,
        st: &mut DurState,
        snapshot: impl FnOnce() -> Arc<Snapshot>,
    ) -> Option<CheckpointCut<'_>> {
        if self.cut_in_flight.swap(true, Ordering::Acquire) {
            return None;
        }
        st.commits_since_checkpoint = 0;
        Some(CheckpointCut {
            durability: self,
            at: st.store.cut_point(),
            snapshot: snapshot(),
            replay: st.replay.clone(),
        })
    }

    /// Checkpoint `snapshot` plus the trackers now: a cut, then its
    /// install. The caller makes sure `snapshot` is the state the log
    /// stands at (no commit can publish meanwhile: attach, promotion, a
    /// quiescent server).
    pub fn checkpoint(&self, snapshot: &Snapshot) -> pdm_sql::Result<()> {
        let cut = self.cut(&mut lock_unpoisoned(&self.state), || {
            Arc::new(snapshot.clone())
        });
        cut.ok_or_else(|| pdm_sql::Error::Eval("durability: a checkpoint cut is in flight".into()))?
            .install()
    }

    /// The bytes that would survive if the process died right now.
    pub fn image(&self) -> DurableImage {
        lock_unpoisoned(&self.state).store.image()
    }

    /// Kill the device at the current boundary (harness hook).
    pub fn crash_now(&self) {
        lock_unpoisoned(&self.state).store.crash_now();
    }

    pub fn is_crashed(&self) -> bool {
        lock_unpoisoned(&self.state).store.is_crashed()
    }

    /// Outstanding (unreleased) grants, for diagnostics and tests.
    pub fn outstanding_grants(&self) -> BTreeMap<u64, GrantIds> {
        lock_unpoisoned(&self.state).replay.grants.clone()
    }

    /// The tokens whose outcomes are retained, ascending (diagnostics and
    /// tests).
    pub fn retained_tokens(&self) -> Vec<u64> {
        lock_unpoisoned(&self.state).replay.tokens.tokens()
    }

    /// The trackers as of now (a re-seeded replica and a new primary's
    /// idempotency log both start from these).
    pub(crate) fn replay_state(&self) -> ReplayState {
        lock_unpoisoned(&self.state).replay.clone()
    }

    /// Current log size in bytes (excludes the checkpoint cell).
    pub fn log_len(&self) -> usize {
        lock_unpoisoned(&self.state).store.log_len()
    }

    /// Current checkpoint cell size in bytes.
    pub fn checkpoint_len(&self) -> usize {
        lock_unpoisoned(&self.state).store.checkpoint_len()
    }

    pub fn device_stats(&self) -> DeviceStats {
        lock_unpoisoned(&self.state).store.device_stats()
    }
}

// ---------------------------------------------------------------------------
// Checkpoint payload codec
// ---------------------------------------------------------------------------

/// Append the checkpoint payload to `out`: length-prefixed snapshot,
/// outstanding grants, retained token outcomes. Written in place — the
/// snapshot length is patched in once the snapshot has been written.
fn put_checkpoint(out: &mut Vec<u8>, snapshot: &Snapshot, replay: &ReplayState) {
    let len_at = out.len();
    put_u32(out, 0);
    put_snapshot(out, snapshot);
    let snap_len = (out.len() - len_at - 4) as u32;
    out.get_mut(len_at..len_at + 4)
        .expect("the length slot was pushed above")
        .copy_from_slice(&snap_len.to_le_bytes());
    put_u32(out, replay.grants.len() as u32);
    for (token, g) in &replay.grants {
        put_u64(out, *token);
        put_ids(out, &g.assy);
        put_ids(out, &g.comp);
    }
    put_u32(out, replay.tokens.len() as u32);
    for (token, rows) in replay.tokens.iter() {
        put_u64(out, token);
        put_outcome(out, rows.as_deref());
    }
}

fn decode_checkpoint(payload: &[u8]) -> pdm_sql::Result<(SharedDatabase, ReplayState)> {
    let mut cur = Cursor::new(payload);
    let snap_len = cur.u32("checkpoint snapshot length")? as usize;
    let db = database_from_snapshot(cur.take(snap_len, "checkpoint snapshot")?)?;
    let mut replay = ReplayState::default();
    let n_grants = cur.u32("checkpoint grant count")? as usize;
    for _ in 0..n_grants {
        let token = cur.u64("grant token")?;
        let assy = read_ids(&mut cur, "grant assy ids")?;
        let comp = read_ids(&mut cur, "grant comp ids")?;
        replay.grants.insert(token, GrantIds { assy, comp });
    }
    let n_tokens = cur.u32("checkpoint token count")? as usize;
    for _ in 0..n_tokens {
        let token = cur.u64("token id")?;
        replay
            .tokens
            .record(token, read_outcome(&mut cur)?.map(Arc::new));
    }
    if !cur.is_empty() {
        return Err(pdm_sql::Error::Persist(format!(
            "{} trailing bytes after checkpoint",
            cur.remaining()
        )));
    }
    Ok((db, replay))
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

/// Why recovery could not rebuild a server from a surviving image. Unlike
/// tail damage in the log (a normal crash artifact, truncated and
/// reported), these are fatal: the durable state is self-inconsistent.
#[derive(Debug)]
pub enum RecoveryError {
    /// The checkpoint blob failed its checksum — with the byte offset and
    /// the expected vs found CRC for the diagnostic.
    CorruptCheckpoint {
        offset: usize,
        expected: u32,
        found: u32,
    },
    /// The checkpoint was structurally damaged or undecodable.
    CheckpointDecode { detail: String },
    /// No checkpoint survived; a durable store always writes one at attach,
    /// so its absence means the image is not one of ours.
    MissingCheckpoint,
    /// A checksum-valid record failed logical decoding.
    CorruptRecord { detail: String },
    /// A replayed commit produced a different storage version than the one
    /// it logged — the log is not the history of this checkpoint.
    VersionChain {
        seq: u64,
        logged: u64,
        produced: u64,
        sql: String,
    },
    /// A logged statement failed to re-execute.
    Replay {
        seq: u64,
        sql: String,
        error: pdm_sql::Error,
    },
    /// Lower-level WAL failure (non-monotonic sequences, crashed device).
    Wal(WalError),
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::CorruptCheckpoint {
                offset,
                expected,
                found,
            } => write!(
                f,
                "corrupt checkpoint at offset {offset}: expected crc {expected:#010x}, found {found:#010x}"
            ),
            RecoveryError::CheckpointDecode { detail } => {
                write!(f, "checkpoint decode failed: {detail}")
            }
            RecoveryError::MissingCheckpoint => write!(f, "no checkpoint in durable image"),
            RecoveryError::CorruptRecord { detail } => write!(f, "corrupt record: {detail}"),
            RecoveryError::VersionChain {
                seq,
                logged,
                produced,
                sql,
            } => write!(
                f,
                "version chain broken at seq {seq}: logged v{logged}, replay produced v{produced} ({sql})"
            ),
            RecoveryError::Replay { seq, sql, error } => {
                write!(f, "replay failed at seq {seq} ({sql}): {error}")
            }
            RecoveryError::Wal(e) => write!(f, "wal error: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<WalError> for RecoveryError {
    fn from(e: WalError) -> Self {
        match e {
            WalError::Damage(LogDamage::ChecksumMismatch {
                offset,
                expected,
                found,
            }) => RecoveryError::CorruptCheckpoint {
                offset,
                expected,
                found,
            },
            WalError::Damage(d) => RecoveryError::CheckpointDecode {
                detail: d.to_string(),
            },
            WalError::Decode { offset, detail } => RecoveryError::CorruptRecord {
                detail: format!("at offset {offset}: {detail}"),
            },
            WalError::DeviceCrashed | WalError::StaleCut => RecoveryError::Wal(e),
        }
    }
}

/// What recovery did, for logs, tests, and the chaos bench.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Storage version of the loaded checkpoint.
    pub checkpoint_version: u64,
    /// DML commits replayed from the log suffix.
    pub replayed_commits: u64,
    /// Completed token outcomes restored into the idempotency log.
    pub restored_tokens: usize,
    /// Tokens whose grants were outstanding at the crash and were swept.
    pub swept_tokens: Vec<u64>,
    /// Assembly / component ids the sweep reset to `checkedout = FALSE`.
    pub swept_assy: Vec<ObjectId>,
    pub swept_comp: Vec<ObjectId>,
    /// Tail damage truncated from the log, if any (normal after a crash
    /// mid-append; rendered for the report).
    pub tail_damage: Option<String>,
}

/// Rebuild a server from a surviving image: load the checkpoint, apply the
/// log suffix through the one state machine (`crate::replay`), become
/// primary. See the module docs for the invariants; the crash harness in
/// `tests/crash_recovery.rs` checks them across hundreds of seeded crash
/// points.
pub fn recover_server(
    image: DurableImage,
    cfg: &DurabilityConfig,
) -> Result<(crate::SharedServer, RecoveryReport), RecoveryError> {
    let (store, recovered) = DurableStore::from_image(image, cfg.crash_plan)?;

    let (_cp_seq, cp_payload) = recovered
        .checkpoint
        .ok_or(RecoveryError::MissingCheckpoint)?;
    let (db, mut state) =
        decode_checkpoint(&cp_payload).map_err(|e| RecoveryError::CheckpointDecode {
            detail: e.to_string(),
        })?;
    let checkpoint_version = db.version();

    for (seq, record) in &recovered.records {
        state.apply(Some(&db), *seq, record)?;
    }
    // Every replayed commit published exactly the next version (the chain
    // check in `apply`), so the version distance counts them.
    let replayed_commits = db.version().saturating_sub(checkpoint_version);
    let restored_tokens = state.tokens.len();

    let durability = Durability::resume(store, state, cfg.checkpoint_interval);
    let (server, sweep) =
        become_primary(db, durability).map_err(|error| RecoveryError::Replay {
            seq: 0,
            sql: "recovery sweep".into(),
            error,
        })?;
    let report = RecoveryReport {
        checkpoint_version,
        replayed_commits,
        restored_tokens,
        swept_tokens: sweep.tokens,
        swept_assy: sweep.assy,
        swept_comp: sweep.comp,
        tail_damage: recovered.damage.map(|d| d.to_string()),
    };
    Ok((server, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::TokenStatus;
    use crate::SharedServer;
    use pdm_obs::Recorder;
    use pdm_sql::persist::{database_fingerprint, state_fingerprint};
    use pdm_sql::Database;

    fn encode_checkpoint(snapshot: &Snapshot, replay: &ReplayState) -> Vec<u8> {
        let mut out = Vec::new();
        put_checkpoint(&mut out, snapshot, replay);
        out
    }

    fn snap() -> Snapshot {
        let mut db = Database::new();
        db.execute("CREATE TABLE assy (obid INTEGER NOT NULL, checkedout BOOLEAN)")
            .unwrap();
        db.execute("INSERT INTO assy VALUES (1, FALSE), (2, TRUE)")
            .unwrap();
        Snapshot { db, version: 3 }
    }

    #[test]
    fn checkpoint_payload_round_trip() {
        let mut grants = BTreeMap::new();
        grants.insert(
            7,
            GrantIds {
                assy: vec![1, 2],
                comp: vec![10],
            },
        );
        let mut state = ReplayState {
            grants: grants.clone(),
            ..ReplayState::default()
        };
        state.tokens.record(7, None);
        let (db, replay) = decode_checkpoint(&encode_checkpoint(&snap(), &state)).unwrap();
        assert_eq!(db.version(), 3);
        assert_eq!(replay.grants, grants);
        assert_eq!(replay.tokens.tokens(), [7]);
        assert!(matches!(replay.tokens.status(7), TokenStatus::Done(None)));
    }

    #[test]
    fn checkpoint_decode_rejects_truncation() {
        let payload = encode_checkpoint(&snap(), &ReplayState::default());
        assert!(decode_checkpoint(&payload[..payload.len() - 1]).is_err());
    }

    #[test]
    fn one_cut_in_flight_and_a_dropped_cut_strands_nothing() {
        let d = Durability::new(&DurabilityConfig::default().with_interval(2));
        let published = || Arc::new(snap());
        let mut version = 0;
        let mut commit = || {
            version += 1;
            d.log_commit(version, "UPDATE assy SET checkedout = TRUE")
                .unwrap();
        };
        commit();
        assert!(d.cut_if_due(published).is_none(), "one commit is not due");
        commit();
        let cut = d.cut_if_due(published).expect("two commits are due");

        // A due commit that finds the cut in flight leaves the count
        // running; nothing else can cut meanwhile.
        commit();
        commit();
        assert!(d.cut_if_due(published).is_none(), "a second cut in flight");
        assert!(d.checkpoint(&snap()).is_err(), "a second cut in flight");
        cut.install().unwrap();
        let cut = d
            .cut_if_due(published)
            .expect("the delayed checkpoint is cut by the next due commit");

        // Dropped uninstalled: the mark goes with it.
        drop(cut);
        commit();
        commit();
        assert!(
            d.cut_if_due(published).is_some(),
            "a dropped cut stranded its mark"
        );
        d.checkpoint(&snap()).unwrap();
    }

    /// A server over `assy`, logging to a device that never checkpoints on
    /// its own (the tests cut by hand).
    fn durable() -> (SharedServer, DurabilityConfig) {
        let cfg = DurabilityConfig::default().with_interval(1 << 40);
        let server = SharedServer::with_durability(assy_db(), &cfg).unwrap();
        (server, cfg)
    }

    fn assy_db() -> Database {
        let mut db = Database::new();
        db.execute(
            "CREATE TABLE assy (obid INTEGER NOT NULL, checkedout BOOLEAN, payload VARCHAR)",
        )
        .unwrap();
        db.execute("INSERT INTO assy VALUES (1, FALSE, 'a'), (2, FALSE, 'b'), (3, FALSE, 'c')")
            .unwrap();
        db
    }

    const BEFORE_CUT: [&str; 2] = [
        "UPDATE assy SET payload = 'x' WHERE obid = 1",
        "UPDATE assy SET checkedout = TRUE WHERE obid = 1",
    ];
    const AFTER_CUT: [&str; 2] = [
        "UPDATE assy SET payload = 'y' WHERE obid = 2",
        "UPDATE assy SET checkedout = TRUE WHERE obid = 2",
    ];

    /// One history around a checkpoint cut: DML commits and grant 7 before
    /// the cut; then DML commits, grant 8, token 8's outcome and grant 7's
    /// release after it. Returns the cut, uninstalled.
    fn history_around_a_cut(server: &SharedServer) -> CheckpointCut<'_> {
        let d = server.durability().unwrap();
        let execute = |sql: &str| {
            server
                .execute_deadline_obs(sql, None, &Recorder::disabled())
                .unwrap();
        };
        BEFORE_CUT.iter().for_each(|sql| execute(sql));
        d.log_grant(7, &[1], &[]).unwrap();
        let cut = d
            .cut(&mut lock_unpoisoned(&d.state), || {
                server.database().snapshot()
            })
            .unwrap();
        AFTER_CUT.iter().for_each(|sql| execute(sql));
        d.log_grant(8, &[2], &[]).unwrap();
        let rows = server.query_uncached("SELECT obid FROM assy").unwrap();
        d.log_token(8, Some(Arc::new(rows))).unwrap();
        d.log_release(&[1]).unwrap();
        cut
    }

    /// The serial replay of that history, with the grant still outstanding
    /// at the end (8) swept back to `FALSE`.
    fn serial_replay() -> Vec<u8> {
        let mut db = assy_db();
        for sql in BEFORE_CUT.iter().chain(&AFTER_CUT) {
            db.execute(sql).unwrap();
        }
        db.execute("UPDATE assy SET checkedout = FALSE WHERE obid IN (2)")
            .unwrap();
        state_fingerprint(&Snapshot { db, version: 0 })
    }

    #[test]
    fn an_install_keeps_what_was_logged_after_its_cut() {
        let (server, cfg) = durable();
        let cut = history_around_a_cut(&server);
        let d = server.durability().unwrap();
        let cut_version = cut.snapshot.version;
        cut.install().unwrap();
        assert!(d.log_len() > 0, "the records after the cut left the log");

        let (recovered, report) = recover_server(d.image(), &cfg).unwrap();
        assert_eq!(database_fingerprint(recovered.database()), serial_replay());
        assert_eq!(report.checkpoint_version, cut_version);
        assert_eq!(report.replayed_commits, AFTER_CUT.len() as u64);
        assert_eq!(report.swept_tokens, [8], "grant 8 logged after the cut");
        assert!(
            recovered.checkout_recorded(8),
            "token 8 logged after the cut"
        );
    }

    #[test]
    fn a_crash_between_cut_and_install_keeps_the_old_checkpoint() {
        let (server, cfg) = durable();
        let cut = history_around_a_cut(&server);
        let d = server.durability().unwrap();
        d.crash_now();
        assert!(cut.install().is_err(), "a dead device took a checkpoint");

        let (recovered, report) = recover_server(d.image(), &cfg).unwrap();
        let fingerprint = database_fingerprint(recovered.database());
        assert_eq!(fingerprint, serial_replay());
        // The published state, swept.
        let mut published = server.database().snapshot().db.clone();
        published
            .execute("UPDATE assy SET checkedout = FALSE WHERE obid IN (2)")
            .unwrap();
        assert_eq!(
            fingerprint,
            state_fingerprint(&Snapshot {
                db: published,
                version: 0
            })
        );
        assert_eq!(report.checkpoint_version, 0, "the attach-time checkpoint");
        assert_eq!(
            report.replayed_commits,
            (BEFORE_CUT.len() + AFTER_CUT.len()) as u64
        );
        assert_eq!(report.swept_tokens, [8]);
        assert!(recovered.checkout_recorded(8));
    }

    #[test]
    fn release_trims_grants() {
        let d = Durability::new(&DurabilityConfig::default());
        d.log_grant(1, &[1, 2], &[10, 11]).unwrap();
        d.log_grant(2, &[3], &[]).unwrap();
        d.log_release(&[1, 2, 10]).unwrap();
        let g = d.outstanding_grants();
        assert_eq!(g.len(), 2);
        assert_eq!(g[&1].comp, vec![11]);
        d.log_release(&[11]).unwrap();
        assert_eq!(d.outstanding_grants().len(), 1);
    }
}
