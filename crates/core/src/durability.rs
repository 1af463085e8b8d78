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
//!   - The **cut** is taken in the commit gate of the commit that crosses
//!     the interval, under the database's writer, after its record is
//!     logged and before its snapshot is published, and under the store
//!     lock. It holds the log position, the `Arc<Snapshot>` the commit is
//!     about to publish and a clone of the trackers (whose outcomes are
//!     `Arc`-shared, so no rows are copied). No other DML commit can log or
//!     publish between that record and the cut (all DML takes the writer),
//!     and the trackers are updated atomically with their log appends under
//!     the store lock, so snapshot, trackers and log position agree.
//!   - The commit publishes and releases the writer, and the same thread
//!     encodes the cell with no lock held; other threads keep committing
//!     and logging meanwhile.
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
//!   The checkpoint cell is a chain (`pdm_wal::store`): a full frame, then
//!   deltas. A cut carries the **last installed** cut as its base — its
//!   `Arc<Snapshot>` and retained outcomes, kept once its install succeeds
//!   — and the install writes a delta against it: the snapshot header, the
//!   rows whose `Arc` differs from the base's row at the same position (a
//!   table whose row count changed is written whole), the whole grant map,
//!   and the outcomes the base does not hold. A dropped or refused cut
//!   never becomes a base: a delta against it would skip the changes
//!   between the cell and that cut. Delta or full is decided at install
//!   time, outside every lock: a DDL (a changed catalog shape) or a delta
//!   that would make the chain's deltas reach half its full frame writes
//!   a full frame, which starts a new chain. The first cut after
//!   `Durability::resume` (recovery, promotion) has no base, so it is
//!   full. Recovery decodes the full frame and applies the deltas in
//!   chain order; a damaged delta is as fatal as a damaged full frame.
//!
//! The recovery invariant the crash harness asserts: for any crash point,
//! `recover` produces a state byte-identical to replaying the durable
//! commit-log prefix serially and sweeping the outstanding grants.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pdm_obs::lock::{Lock, LockGuard, LockId};
use pdm_sql::persist::{
    apply_snapshot_delta, decode_snapshot, put_snapshot, put_snapshot_delta, put_u32, put_u64,
    Cursor,
};
use pdm_sql::shared::Snapshot;
use pdm_sql::ResultSet;
use pdm_wal::record::{put_ids, put_outcome, read_ids, read_outcome};
use pdm_wal::{
    CrashPlan, DeviceStats, DurableImage, DurableStore, LogCut, LogDamage, WalError, WalRecord,
};

use crate::product::ObjectId;
use crate::repl::ReplicationFeed;
use crate::replay::{become_primary, database_from, ReplayState, TokenLog};

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
    /// The last installed cut, which the next delta is cut against; `None`
    /// until this attachment installs one (the first cut after
    /// [`Durability::resume`] is a full frame).
    installed: Option<Arc<InstalledCut>>,
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
    state: Lock<DurState>,
    interval: u64,
    /// Set while a [`CheckpointCut`] exists: taken and not yet installed,
    /// refused or dropped. Set (`Acquire`) under the store lock when a cut
    /// is taken and cleared (`Release`) when the cut is dropped, so one
    /// cut's install happens before the next cut.
    cut_in_flight: AtomicBool,
}

static STATE: LockId = LockId::new("core.durability.state", 90).across_io(
    "append + fsync under the store lock is the commit point: the log's seq \
     and the trackers advance atomically with the durable record",
);

/// What a delta is cut against: the snapshot and the retained token
/// outcomes of the last installed cut. Holding the snapshot keeps its rows
/// alive, so a row whose `Arc` is still the same is unchanged
/// ([`pdm_sql::persist::put_snapshot_delta`]).
#[derive(Debug)]
struct InstalledCut {
    snapshot: Arc<Snapshot>,
    tokens: TokenLog,
}

/// A checkpoint cut: the published snapshot, the trackers and the log
/// position they all stand at, and the last installed cut at that moment
/// (module docs). [`CheckpointCut::install`] encodes and installs it;
/// dropping it uninstalled abandons the checkpoint, and the next due
/// commit cuts again.
#[derive(Debug)]
#[must_use = "an uninstalled cut abandons its checkpoint"]
pub(crate) struct CheckpointCut<'a> {
    durability: &'a Durability,
    at: LogCut,
    snapshot: Arc<Snapshot>,
    replay: ReplayState,
    base: Option<Arc<InstalledCut>>,
}

impl CheckpointCut<'_> {
    /// Encode the cut with no lock held — a delta against the last
    /// installed cut if the chain has room for it, else a full frame —
    /// then install it under the store lock: only the covered log prefix
    /// is dropped, and the cut becomes what the next delta is cut against.
    /// Refused if the device crashed since the cut; the old chain, the
    /// whole log and the old base stay.
    pub(crate) fn install(mut self) -> pdm_sql::Result<()> {
        let frame = self
            .base
            .as_deref()
            .and_then(|base| {
                self.at.delta(|out, room| {
                    put_checkpoint_delta(out, base, &self.snapshot, &self.replay, room)
                })
            })
            .unwrap_or_else(|| {
                self.at
                    .frame(|out| put_checkpoint(out, &self.snapshot, &self.replay))
            });
        let installed = Arc::new(InstalledCut {
            snapshot: Arc::clone(&self.snapshot),
            tokens: std::mem::take(&mut self.replay.tokens),
        });
        let replaced = {
            let mut st = self.durability.state.lock();
            st.store
                .install_at_cut(frame)
                .map(|frames| (frames, st.installed.replace(installed)))
        };
        // The replaced frames (megabytes for a full install) and the old
        // base are freed here, outside the lock.
        replaced.map(drop).map_err(wal_to_sql)
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
            state: Lock::new(
                &STATE,
                DurState {
                    store,
                    replay,
                    installed: None,
                    commits_since_checkpoint: 0,
                    feed: None,
                },
            ),
            interval,
            cut_in_flight: AtomicBool::new(false),
        }
    }

    /// Attach a replication feed: every subsequent durable append is
    /// republished to it under the store-assigned sequence number, in
    /// commit order (the publish happens under the store lock).
    pub fn attach_feed(&self, feed: Arc<ReplicationFeed>) {
        self.state.lock().feed = Some(feed);
    }

    /// The one logging step: append + fsync the record, apply it to the
    /// trackers, republish it to the feed — all under the store lock, so a
    /// checkpoint can never see the record without its tracker effect (or
    /// vice versa) and feed order is commit order. Returns the guard so a
    /// caller can finish its own bookkeeping in the same critical section.
    fn log(&self, record: WalRecord) -> pdm_sql::Result<LockGuard<'_, DurState>> {
        let mut st = self.state.lock();
        pdm_obs::lock::crossing("wal.fsync");
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

    /// Take a checkpoint cut of `next` if the interval's DML commits have
    /// been logged since the last cut and no cut is in flight. Called in
    /// the commit gate, under the database's writer, with the snapshot the
    /// commit whose record was just logged is about to publish: no other
    /// commit can log or publish in between (module docs).
    pub(crate) fn cut_if_due(&self, next: &Arc<Snapshot>) -> Option<CheckpointCut<'_>> {
        let mut st = self.state.lock();
        if st.commits_since_checkpoint < self.interval {
            return None;
        }
        self.cut(&mut st, next)
    }

    /// Cut `snapshot` and the trackers at the log's end, unless a cut is in
    /// flight. The caller holds the store lock.
    fn cut(&self, st: &mut DurState, snapshot: &Arc<Snapshot>) -> Option<CheckpointCut<'_>> {
        if self.cut_in_flight.swap(true, Ordering::Acquire) {
            return None;
        }
        st.commits_since_checkpoint = 0;
        Some(CheckpointCut {
            durability: self,
            at: st.store.cut_point(),
            snapshot: Arc::clone(snapshot),
            replay: st.replay.clone(),
            base: st.installed.clone(),
        })
    }

    /// Checkpoint `snapshot` plus the trackers now: a cut, then its
    /// install. The caller makes sure `snapshot` is the state the log
    /// stands at (no commit can publish meanwhile: attach, promotion, a
    /// quiescent server).
    pub fn checkpoint(&self, snapshot: &Snapshot) -> pdm_sql::Result<()> {
        let cut = self.cut(&mut self.state.lock(), &Arc::new(snapshot.clone()));
        cut.ok_or_else(|| pdm_sql::Error::Eval("durability: a checkpoint cut is in flight".into()))?
            .install()
    }

    /// The bytes that would survive if the process died right now.
    pub fn image(&self) -> DurableImage {
        self.state.lock().store.image()
    }

    /// Kill the device at the current boundary (harness hook).
    pub fn crash_now(&self) {
        self.state.lock().store.crash_now();
    }

    pub fn is_crashed(&self) -> bool {
        self.state.lock().store.is_crashed()
    }

    /// Outstanding (unreleased) grants, for diagnostics and tests.
    pub fn outstanding_grants(&self) -> BTreeMap<u64, GrantIds> {
        self.state.lock().replay.grants.clone()
    }

    /// The tokens whose outcomes are retained, ascending (diagnostics and
    /// tests).
    pub fn retained_tokens(&self) -> Vec<u64> {
        self.state.lock().replay.tokens.tokens()
    }

    /// The retained token outcomes, ascending by token (diagnostics and
    /// tests: a recovered server must hold the same).
    pub fn retained_outcomes(&self) -> Vec<(u64, Option<Arc<ResultSet>>)> {
        let st = self.state.lock();
        st.replay
            .tokens
            .iter()
            .map(|(token, rows)| (token, rows.clone()))
            .collect()
    }

    /// The trackers as of now (a re-seeded replica and a new primary's
    /// idempotency log both start from these).
    pub(crate) fn replay_state(&self) -> ReplayState {
        self.state.lock().replay.clone()
    }

    /// Current log size in bytes (excludes the checkpoint cell).
    pub fn log_len(&self) -> usize {
        self.state.lock().store.log_len()
    }

    /// Current checkpoint cell size in bytes.
    pub fn checkpoint_len(&self) -> usize {
        self.state.lock().store.checkpoint_len()
    }

    /// Bytes of each frame of the checkpoint chain: the full frame, then
    /// the deltas.
    pub fn checkpoint_frames(&self) -> Vec<usize> {
        self.state.lock().store.checkpoint_frames()
    }

    pub fn device_stats(&self) -> DeviceStats {
        self.state.lock().store.device_stats()
    }
}

// ---------------------------------------------------------------------------
// Checkpoint payload codec
// ---------------------------------------------------------------------------

/// Append the checkpoint payload to `out`: length-prefixed snapshot,
/// outstanding grants, retained token outcomes.
fn put_checkpoint(out: &mut Vec<u8>, snapshot: &Snapshot, replay: &ReplayState) {
    put_payload(
        out,
        |out| {
            put_snapshot(out, snapshot);
            true
        },
        &replay.grants,
        replay.tokens.iter(),
    );
}

/// Append a delta payload of the same layout: the snapshot delta against
/// `base`, the whole grant map, and the retained outcomes `base` does not
/// hold (a token it holds with another outcome `Arc` counts as not held).
/// Gives up (`false`) past `room` bytes or on a DDL, which only a full
/// frame can carry.
fn put_checkpoint_delta(
    out: &mut Vec<u8>,
    base: &InstalledCut,
    snapshot: &Snapshot,
    replay: &ReplayState,
    room: usize,
) -> bool {
    let start = out.len();
    let fresh = replay.tokens.iter().filter(|&(token, rows)| {
        !matches!(base.tokens.outcome(token), Some(held) if same_outcome(held, rows))
    });
    put_payload(
        out,
        |out| put_snapshot_delta(out, &base.snapshot, snapshot, room).is_some(),
        &replay.grants,
        fresh,
    ) && out.len() - start <= room
}

fn same_outcome(a: &Option<Arc<ResultSet>>, b: &Option<Arc<ResultSet>>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => Arc::ptr_eq(a, b),
        (None, None) => true,
        _ => false,
    }
}

/// The checkpoint payload layout, full or delta: the snapshot image
/// `put_image` writes (it returns `false` to give up), length-prefixed and
/// patched in place once written; the outstanding grants; `tokens`' outcomes.
fn put_payload<'a>(
    out: &mut Vec<u8>,
    put_image: impl FnOnce(&mut Vec<u8>) -> bool,
    grants: &BTreeMap<u64, GrantIds>,
    tokens: impl Iterator<Item = (u64, &'a Option<Arc<ResultSet>>)>,
) -> bool {
    let len_at = out.len();
    put_u32(out, 0);
    if !put_image(out) {
        return false;
    }
    let image_len = (out.len() - len_at - 4) as u32;
    patch_u32(out, len_at, image_len);
    put_u32(out, grants.len() as u32);
    for (token, g) in grants {
        put_u64(out, *token);
        put_ids(out, &g.assy);
        put_ids(out, &g.comp);
    }
    let count_at = out.len();
    put_u32(out, 0);
    let mut count = 0u32;
    for (token, rows) in tokens {
        put_u64(out, token);
        put_outcome(out, rows.as_deref());
        count += 1;
    }
    patch_u32(out, count_at, count);
    true
}

fn patch_u32(out: &mut [u8], at: usize, value: u32) {
    out.get_mut(at..at + 4)
        .expect("the slot was pushed above")
        .copy_from_slice(&value.to_le_bytes());
}

/// What a checkpoint chain decodes to.
#[derive(Debug)]
struct Decoded {
    snapshot: Snapshot,
    replay: ReplayState,
    /// Rows each delta rewrote, in chain order.
    delta_rows: Vec<usize>,
}

/// Decode a checkpoint chain: the full frame's payload, then each delta's
/// applied on top, in chain order. A delta replaces the grants and adds
/// its outcomes to the retained ones, which keeps the highest
/// `RETAINED_TOKENS`: what the full frame of the same cut would hold.
fn decode_checkpoint(full: &[u8], deltas: &[(u64, Vec<u8>)]) -> pdm_sql::Result<Decoded> {
    let mut replay = ReplayState::default();
    let mut snapshot = None;
    let mut delta_rows = Vec::with_capacity(deltas.len());
    for payload in std::iter::once(full).chain(deltas.iter().map(|(_, p)| p.as_slice())) {
        let mut cur = Cursor::new(payload);
        let snap_len = cur.u32("checkpoint snapshot length")? as usize;
        let image = cur.take(snap_len, "checkpoint snapshot")?;
        match snapshot.as_mut() {
            None => snapshot = Some(decode_snapshot(image)?),
            Some(snapshot) => delta_rows.push(apply_snapshot_delta(snapshot, image)?),
        }
        replay.grants.clear();
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
    }
    let snapshot = snapshot.expect("the full frame is decoded first");
    Ok(Decoded {
        snapshot,
        replay,
        delta_rows,
    })
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
    /// Rows each checkpoint delta rewrote, in chain order (empty: the chain
    /// was its full frame alone).
    pub delta_rows: Vec<usize>,
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
    let Decoded {
        snapshot,
        replay: mut state,
        delta_rows,
    } = decode_checkpoint(&cp_payload, &recovered.deltas).map_err(|e| {
        RecoveryError::CheckpointDecode {
            detail: e.to_string(),
        }
    })?;
    let db = database_from(snapshot);
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
        delta_rows,
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
    use crate::shared::RETAINED_TOKENS;
    use crate::SharedServer;
    use pdm_obs::Recorder;
    use pdm_sql::persist::{database_fingerprint, state_digest, state_fingerprint};
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
        let Decoded {
            snapshot, replay, ..
        } = decode_checkpoint(&encode_checkpoint(&snap(), &state), &[]).unwrap();
        assert_eq!(snapshot.version, 3);
        assert_eq!(replay.grants, grants);
        assert_eq!(replay.tokens.tokens(), [7]);
        assert!(matches!(replay.tokens.status(7), TokenStatus::Done(None)));
    }

    #[test]
    fn checkpoint_decode_rejects_truncation() {
        let payload = encode_checkpoint(&snap(), &ReplayState::default());
        assert!(decode_checkpoint(&payload[..payload.len() - 1], &[]).is_err());
    }

    #[test]
    fn one_cut_in_flight_and_a_dropped_cut_strands_nothing() {
        let d = Durability::new(&DurabilityConfig::default().with_interval(2));
        let published = &Arc::new(snap());
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
        let published = server.database().snapshot();
        let cut = d.cut(&mut d.state.lock(), &published).unwrap();
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

    /// One step of a random durable history.
    #[derive(Debug, Clone)]
    enum Step {
        /// A statement through the server's commit path: one- and
        /// multi-row UPDATEs, INSERT and DELETE (a table written whole),
        /// DDL (a full frame).
        Sql(String),
        /// This many token completions; every third a recorded refusal.
        Tokens(usize),
        Grant(u64, ObjectId),
        Release(ObjectId),
        /// Cut and install.
        Install,
        /// Cut, then drop the cut uninstalled.
        Drop,
        /// Cut; a second checkpoint is refused while it is in flight; then
        /// install.
        Refuse,
        /// Cut, crash the device, and have the install refused.
        Crash,
    }

    const CHAIN_ROWS: i64 = 12;

    /// `assy` and `comp` of `rows` rows each, `assy` indexed on `obid`.
    fn chain_db(rows: i64) -> Database {
        let mut db = Database::new();
        db.execute(
            "CREATE TABLE assy (obid INTEGER NOT NULL, checkedout BOOLEAN, payload VARCHAR)",
        )
        .unwrap();
        db.execute("CREATE TABLE comp (obid INTEGER NOT NULL, name VARCHAR)")
            .unwrap();
        for obid in 1..=rows {
            db.execute(&format!(
                "INSERT INTO assy VALUES ({obid}, FALSE, 'p{obid}')"
            ))
            .unwrap();
            db.execute(&format!("INSERT INTO comp VALUES ({obid}, 'c{obid}')"))
                .unwrap();
        }
        db.execute("CREATE INDEX ON assy (obid)").unwrap();
        db
    }

    /// A history over [`chain_db`] of `rows` rows.
    fn random_history(rows: i64, rng: &mut pdm_prng::Prng) -> Vec<Step> {
        let mut tables = 0;
        let mut next_comp = rows;
        let obid = |rng: &mut pdm_prng::Prng| rng.i64_inclusive(1, rows);
        (0..rng.usize_inclusive(40, 120))
            .map(|_| match rng.index(200) {
                0..=59 => Step::Sql(format!(
                    "UPDATE assy SET payload = '{}' WHERE obid = {}",
                    rng.ident(1, 8),
                    obid(rng)
                )),
                60..=79 => Step::Sql(format!(
                    "UPDATE assy SET checkedout = {} WHERE obid >= {}",
                    rng.bool(),
                    obid(rng)
                )),
                80..=91 => {
                    next_comp += 1;
                    Step::Sql(format!(
                        "INSERT INTO comp VALUES ({next_comp}, '{}')",
                        rng.ident(1, 8)
                    ))
                }
                92..=99 => Step::Sql(format!(
                    "DELETE FROM comp WHERE obid = {}",
                    rng.i64_inclusive(1, next_comp)
                )),
                100..=102 => Step::Sql("CREATE INDEX ON comp (name)".into()),
                103..=105 => {
                    tables += 1;
                    Step::Sql(format!("CREATE TABLE extra{tables} (a INTEGER)"))
                }
                106..=129 => Step::Tokens(rng.usize_inclusive(10, 50)),
                130..=139 => Step::Grant(rng.u64_inclusive(1, 8), obid(rng)),
                140..=147 => Step::Release(obid(rng)),
                148..=179 => Step::Install,
                180..=189 => Step::Drop,
                190..=198 => Step::Refuse,
                _ => Step::Crash,
            })
            .collect()
    }

    /// What one history exercised.
    #[derive(Default)]
    struct Exercised {
        deltas: usize,
        longest_chain: usize,
        fulls_after_ddl: usize,
        tokens: u64,
        /// Statements that took `comp` across a chunk edge of its storage,
        /// to more chunks and to fewer.
        grown_across_edge: usize,
        shrunk_across_edge: usize,
    }

    /// The cell decodes to what a full frame of the last installed cut
    /// decodes to: state bytes, digest, version, retained outcomes, grants.
    fn chain_matches_a_full_frame(
        d: &Durability,
        (snapshot, replay): &(Arc<Snapshot>, ReplayState),
    ) -> Result<(), String> {
        let (_, stored) = DurableStore::from_image(d.image(), CrashPlan::none())
            .map_err(|e| format!("image: {e}"))?;
        let (_, full) = stored.checkpoint.ok_or("no checkpoint")?;
        let chain = decode_checkpoint(&full, &stored.deltas).map_err(|e| format!("chain: {e}"))?;
        let reference = decode_checkpoint(&encode_checkpoint(snapshot, replay), &[])
            .map_err(|e| format!("full frame: {e}"))?;
        let (a, b) = (&chain.snapshot, &reference.snapshot);
        if state_fingerprint(a) != state_fingerprint(b) {
            return Err("state fingerprints differ".into());
        }
        if state_digest(a) != state_digest(b) || a.version != b.version {
            return Err(format!(
                "digest or version differ (v{} vs v{})",
                a.version, b.version
            ));
        }
        if !chain
            .replay
            .tokens
            .iter()
            .eq(reference.replay.tokens.iter())
        {
            return Err(format!(
                "retained tokens differ: {:?} vs {:?}",
                chain.replay.tokens.tokens(),
                reference.replay.tokens.tokens()
            ));
        }
        if chain.replay.grants != reference.replay.grants {
            return Err("grants differ".into());
        }
        Ok(())
    }

    fn run_history(rows: i64, steps: &[Step], seen: &mut Exercised) -> Result<(), String> {
        let cfg = DurabilityConfig::default().with_interval(1 << 40);
        let server = SharedServer::with_durability(chain_db(rows), &cfg).unwrap();
        let comp_chunks = || {
            let snapshot = server.database().snapshot();
            let comp = snapshot.catalog.table("comp").map(|t| t.len());
            comp.unwrap_or(0).div_ceil(pdm_sql::storage::CHUNK)
        };
        let d = server.durability().unwrap();
        let mut installed = (server.database().snapshot(), ReplayState::default());
        let mut ddl_since_install = false;
        let mut next_token = 1u64;
        for (at, step) in steps.iter().enumerate() {
            let take_cut = || {
                let published = server.database().snapshot();
                d.cut(&mut d.state.lock(), &published)
                    .ok_or(format!("step {at}: a cut was left in flight"))
            };
            match step {
                Step::Sql(sql) => {
                    let before = comp_chunks();
                    let done = server.execute_deadline_obs(sql, None, &Recorder::disabled());
                    let after = comp_chunks();
                    seen.grown_across_edge += usize::from(after > before);
                    seen.shrunk_across_edge += usize::from(after < before);
                    ddl_since_install |= done.is_ok() && sql.starts_with("CREATE");
                }
                Step::Tokens(n) => {
                    for _ in 0..*n {
                        let rows = (!next_token.is_multiple_of(3)).then(|| {
                            let sql = format!(
                                "SELECT obid, payload FROM assy WHERE obid <= {}",
                                next_token % 4
                            );
                            Arc::new(server.query_uncached(&sql).unwrap())
                        });
                        let _ = d.log_token(next_token, rows);
                        next_token += 1;
                    }
                }
                Step::Grant(token, id) => {
                    let _ = d.log_grant(*token, &[*id], &[id + 100]);
                }
                Step::Release(id) => {
                    let _ = d.log_release(&[*id, id + 100]);
                }
                Step::Drop => drop(take_cut()?),
                Step::Install | Step::Refuse | Step::Crash => {
                    let cut = take_cut()?;
                    if matches!(step, Step::Refuse) && d.checkpoint(&cut.snapshot).is_ok() {
                        return Err(format!("step {at}: a second cut while one is in flight"));
                    }
                    if matches!(step, Step::Crash) {
                        d.crash_now();
                    }
                    let taken = (Arc::clone(&cut.snapshot), cut.replay.clone());
                    if cut.install().is_ok() {
                        installed = taken;
                        let frames = d.checkpoint_frames().len();
                        if ddl_since_install && frames != 1 {
                            return Err(format!("step {at}: a DDL was installed as a delta"));
                        }
                        seen.fulls_after_ddl += usize::from(ddl_since_install);
                        seen.deltas += usize::from(frames > 1);
                        seen.longest_chain = seen.longest_chain.max(frames);
                        ddl_since_install = false;
                    } else if !d.is_crashed() {
                        return Err(format!("step {at}: an install refused on a live device"));
                    }
                    chain_matches_a_full_frame(d, &installed)
                        .map_err(|e| format!("step {at}: {e}"))?;
                }
            }
        }
        seen.tokens = next_token - 1;
        Ok(())
    }

    /// A chain decodes to what a full frame of the same cut decodes to,
    /// over random histories of every kind of change, with refused and
    /// dropped cuts between the installs.
    #[test]
    fn a_chain_decodes_like_a_full_frame_of_the_same_cut() {
        let mut total = Exercised::default();
        let mut over_retention = 0;
        pdm_prng::check::shrinking(
            "chain_decodes_like_a_full_frame",
            pdm_prng::check::DEFAULT_CASES,
            0xC4A1_0047,
            |rng| random_history(CHAIN_ROWS, rng),
            |steps| {
                let mut seen = Exercised::default();
                run_history(CHAIN_ROWS, steps, &mut seen)?;
                total.deltas += seen.deltas;
                total.fulls_after_ddl += seen.fulls_after_ddl;
                total.longest_chain = total.longest_chain.max(seen.longest_chain);
                over_retention += usize::from(seen.tokens > RETAINED_TOKENS as u64);
                Ok(())
            },
        );
        assert!(total.deltas >= 100, "{} deltas installed", total.deltas);
        assert!(
            total.longest_chain >= 4,
            "longest chain {}",
            total.longest_chain
        );
        assert!(
            total.fulls_after_ddl >= 10,
            "{} DDL installs",
            total.fulls_after_ddl
        );
        assert!(
            over_retention >= 10,
            "{over_retention} histories past retention"
        );

        // Tables of three chunks, give or take a row: row deltas land in
        // every chunk, and `comp`'s inserts and deletes cross chunk edges.
        let chunk = pdm_sql::storage::CHUNK as i64;
        let (mut deltas, mut grown, mut shrunk) = (0, 0, 0);
        for rows in [3 * chunk - 1, 3 * chunk, 3 * chunk + 1] {
            pdm_prng::check::shrinking(
                "chain_decodes_like_a_full_frame_across_chunks",
                8,
                0xC4A1_0048 + rows as u64,
                |rng| random_history(rows, rng),
                |steps| {
                    let mut seen = Exercised::default();
                    run_history(rows, steps, &mut seen)?;
                    deltas += seen.deltas;
                    grown += seen.grown_across_edge;
                    shrunk += seen.shrunk_across_edge;
                    Ok(())
                },
            );
        }
        assert!(deltas >= 20, "{deltas} deltas installed across chunks");
        assert!(
            grown > 0 && shrunk > 0,
            "comp crossed a chunk edge {grown} times growing, {shrunk} shrinking"
        );
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
