#![cfg_attr(test, allow(clippy::unwrap_used))]

//! # pdm-wal — crash-consistent durability for the PDM server
//!
//! The paper's PDM server is the system of record for worldwide
//! engineering data (§1); losing committed state on a process crash would
//! defeat every consistency property the upper layers promise — most
//! directly the failure-atomic check-out semantics, which assume a grant
//! recorded by the server stays recorded. This crate supplies the missing
//! layer:
//!
//! * a **simulated storage device** ([`SimDevice`]) with explicit fsync
//!   barriers and seeded, injectable crash faults (lost unsynced tail,
//!   torn final write, partial-sector write) in the style of the
//!   `FaultPlan` WAN faults of `pdm-net` — every crash scenario replays
//!   from one integer seed;
//! * a **write-ahead log** of length-prefixed, checksummed records
//!   ([`WalRecord`]): every DML commit, check-out grant/release, and
//!   idempotency-token completion, appended and fsynced *before* the
//!   state change is published (the commit gate of
//!   `pdm_sql::SharedDatabase::execute_ast_gated`);
//! * **snapshot checkpoints** ([`DurableStore::cut_point`],
//!   [`LogCut::frame`], [`LogCut::delta`], [`DurableStore::install_at_cut`]):
//!   a storage snapshot, or what changed since the last one, is serialized
//!   with no lock held and the log prefix it covers dropped, so recovery is
//!   checkpoint-chain-load plus short-log-replay, not full-history replay;
//! * a **recovery scanner** ([`DurableStore::from_image`]) that walks the
//!   surviving bytes, verifies checksums, and cleanly truncates any torn
//!   or corrupt tail back to the last valid record — any byte-level
//!   truncation or bit flip is either detected or yields a valid shorter
//!   prefix of the committed history.
//!
//! The durability *policy* (what to log when, how to sweep stale check-out
//! grants, how to rebuild the server) lives in `pdm_core::durability`;
//! this crate is mechanism only.

pub mod codec;
pub mod device;
pub mod log;
pub mod record;
pub mod store;

pub use codec::crc32;
pub use device::{CrashPlan, DeviceStats, SimDevice, TailFault};
pub use log::{LogDamage, LogScan};
pub use record::WalRecord;
pub use store::{CheckpointFrame, DurableImage, DurableStore, LogCut, RecoveredStore};

use std::fmt;

/// Errors surfaced by the durability mechanism.
#[derive(Debug, Clone, PartialEq)]
pub enum WalError {
    /// The simulated device has crashed; all further operations fail until
    /// the store is re-opened from its surviving image.
    DeviceCrashed,
    /// A structurally valid (checksum-verified) record failed to decode —
    /// a logic/versioning error, not a torn write.
    Decode { offset: usize, detail: String },
    /// Structural damage in a place recovery cannot tolerate (e.g. the
    /// checkpoint blob). Tail damage in the log is NOT an error — it is
    /// reported as [`LogScan::damage`] and truncated away.
    Damage(LogDamage),
    /// A checkpoint cut that is not of the log as it stands: another
    /// checkpoint was installed since it was taken, or the bytes it covers
    /// are not all durable. Nothing was installed.
    StaleCut,
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::DeviceCrashed => write!(f, "simulated storage device has crashed"),
            WalError::Decode { offset, detail } => {
                write!(f, "record decode failed at offset {offset}: {detail}")
            }
            WalError::Damage(d) => write!(f, "unrecoverable damage: {d}"),
            WalError::StaleCut => write!(f, "checkpoint cut does not match the log"),
        }
    }
}

impl std::error::Error for WalError {}
