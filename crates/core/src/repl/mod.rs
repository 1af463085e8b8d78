//! Multi-site WAL-shipping replication with fault-injected failover.
//!
//! The paper's topology (§1, Fig. 1) is ONE central PDM server and many
//! worldwide clients — every read crosses the ocean. This module adds the
//! alternative worldwide deployment the measurements beg for: a primary
//! site that ships its committed WAL records over a (fault-injected,
//! metered) link to N replica sites, so a client in another continent can
//! satisfy expands and queries against a *local* replica and only forward
//! writes (check-out/check-in/DML) to the primary.
//!
//! The pieces:
//!
//! * [`ReplicationFeed`] — the primary's logical commit log above the
//!   epoch base, fed by the durability layer at commit time
//!   ([`crate::Durability::attach_feed`]);
//! * [`ReplicaSite`] — a continuously replaying replica with an
//!   applied-seq watermark, fenced by epoch;
//! * [`Cluster`] — the deterministic coordinator: shipping, semi-
//!   synchronous write acknowledgement, lease-based failover promotion
//!   (ending in the same become-primary step as crash recovery), fencing,
//!   and healing of the failed primary;
//! * [`RoutedSession`] — a client session that routes reads to its nearest
//!   replica with per-session read-your-writes, and writes to the primary.
//!
//! Everything runs on the virtual clock and seeded fault plans, so every
//! failover scenario replays from integers.

mod cluster;
mod feed;
mod replica;
mod routed;

pub use cluster::{AckedWrite, Cluster, ClusterConfig, FailoverReport, WriteReceipt};
pub use feed::{ReplicationFeed, Shipped, RETENTION_INTERVALS};
pub use replica::ReplicaSite;
pub use routed::{RoutedRead, RoutedSession, Staleness};

use std::fmt;

use pdm_net::LinkError;

use crate::durability::RecoveryError;

/// Why replication machinery failed. Link errors are transient (shipping
/// is idempotent and retried); the rest are fatal consistency violations.
#[derive(Debug)]
pub enum ReplError {
    /// A ship batch carried a stale epoch — the sender was deposed and
    /// must re-bootstrap from the new primary.
    Fenced { expected: u64, got: u64 },
    /// A shipped record failed to apply: its statement did not re-execute,
    /// or published a different storage version than the one it logged —
    /// the replica is not tracking this primary's history.
    Replay(RecoveryError),
    /// A site could not be (re-)seeded from a snapshot image.
    Bootstrap(String),
    /// A fully caught-up replica's state digest differs from the
    /// primary's — replication silently corrupted state.
    Diverged { site: usize, seq: u64 },
    /// The ship link failed this exchange (retried next pump round).
    Link(LinkError),
}

impl fmt::Display for ReplError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplError::Fenced { expected, got } => {
                write!(
                    f,
                    "fenced: replica at epoch {expected}, batch from epoch {got}"
                )
            }
            ReplError::Replay(e) => write!(f, "replica {e}"),
            ReplError::Bootstrap(detail) => write!(f, "site bootstrap failed: {detail}"),
            ReplError::Diverged { site, seq } => {
                write!(f, "site {site} diverged from primary at seq {seq}")
            }
            ReplError::Link(e) => write!(f, "ship link: {e}"),
        }
    }
}

impl std::error::Error for ReplError {}

impl From<LinkError> for ReplError {
    fn from(e: LinkError) -> Self {
        ReplError::Link(e)
    }
}

impl From<RecoveryError> for ReplError {
    fn from(e: RecoveryError) -> Self {
        ReplError::Replay(e)
    }
}

/// The serial-replay oracle: decode an epoch-base snapshot, replay a
/// durable-log prefix onto it statement by statement, and return the
/// resulting state fingerprint. Tests compare this against a promoted
/// replica's [`FailoverReport::promoted_fingerprint`] (or any replica's
/// fingerprint at a watermark) without touching cluster machinery.
///
/// Grant/release/token records maintain no database rows (their row
/// effects ride in their surrounding DML commits, exactly as in crash
/// recovery), so only [`pdm_wal::WalRecord::DmlCommit`] replays here.
pub fn replay_prefix(epoch_base: &[u8], prefix: &[Shipped]) -> Result<Vec<u8>, ReplError> {
    let db = crate::replay::database_from_snapshot(epoch_base)
        .map_err(|e| ReplError::Bootstrap(e.to_string()))?;
    for (seq, record) in prefix {
        if let pdm_wal::WalRecord::DmlCommit { version, sql } = &**record {
            crate::replay::replay_commit(&db, *seq, *version, sql)?;
        }
    }
    Ok(pdm_sql::persist::database_fingerprint(&db))
}
