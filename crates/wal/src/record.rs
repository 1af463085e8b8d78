//! The logical WAL record vocabulary.
//!
//! Four record kinds cover every durable event the PDM server produces:
//!
//! * [`WalRecord::DmlCommit`] — one committed DML/DDL statement, with the
//!   storage version it published. Replay re-executes the SQL and asserts
//!   the version chain matches.
//! * [`WalRecord::CheckoutGrant`] — a failure-atomic check-out acquired its
//!   lock-table grant for these ids under an idempotency token. Logged
//!   *before* the `checkedout` flag UPDATEs, so a crash anywhere inside the
//!   procedure leaves a grant record whose ids recovery can sweep.
//! * [`WalRecord::CheckoutRelease`] — the grant over these ids ended
//!   (check-in, abort, or recovery sweep).
//! * [`WalRecord::TokenComplete`] — the procedure under this token finished
//!   with this outcome (`Some(rows)` = granted payload, `None` = recorded
//!   refusal). Replay restores the outcome without re-executing, preserving
//!   exactly-once semantics across a crash. The rows are shared, not owned:
//!   the record a live server logs holds the same result the caller got.
//!
//! Payload encoding reuses the primitives of [`pdm_sql::persist`] so the
//! byte format (and its offset-reporting decode errors) is shared with the
//! checkpoint blob.

use pdm_sql::persist::{
    put_i64, put_result_set, put_str, put_u32, put_u64, put_u8, read_result_set, Cursor,
};
use std::sync::Arc;

use pdm_sql::ResultSet;

use crate::WalError;

/// One durable event. See the module docs for the protocol each variant
/// participates in.
///
/// A replay site matches every variant by name, with no catch-all arm, so
/// a new record type is a compile error there until the site handles it:
///
/// ```
/// use pdm_wal::WalRecord;
/// fn tag(record: &WalRecord) -> u8 {
///     match record {
///         WalRecord::DmlCommit { .. } => 1,
///         WalRecord::CheckoutGrant { .. } => 2,
///         WalRecord::CheckoutRelease { .. } => 3,
///         WalRecord::TokenComplete { .. } => 4,
///     }
/// }
/// assert_eq!(tag(&WalRecord::CheckoutRelease { ids: vec![1] }), 3);
/// ```
///
/// ```compile_fail,E0004
/// use pdm_wal::WalRecord;
/// fn tag(record: &WalRecord) -> u8 {
///     match record {
///         WalRecord::DmlCommit { .. } => 1,
///         WalRecord::CheckoutGrant { .. } => 2,
///         WalRecord::CheckoutRelease { .. } => 3,
///     }
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A committed statement: `version` is the storage version it published.
    DmlCommit { version: u64, sql: String },
    /// A check-out grant under idempotency token `token` covering these
    /// assembly and component object ids.
    CheckoutGrant {
        token: u64,
        assy_ids: Vec<i64>,
        comp_ids: Vec<i64>,
    },
    /// The grant over these ids was released.
    CheckoutRelease { ids: Vec<i64> },
    /// Token `token` completed with this outcome (`None` = refusal).
    TokenComplete {
        token: u64,
        rows: Option<Arc<ResultSet>>,
    },
}

const TAG_DML: u8 = 1;
const TAG_GRANT: u8 = 2;
const TAG_RELEASE: u8 = 3;
const TAG_TOKEN: u8 = 4;

/// Append a counted id list. Grant records and the checkpoint's grant
/// table share this encoding (and the token-outcome one below).
pub fn put_ids(out: &mut Vec<u8>, ids: &[i64]) {
    put_u32(out, ids.len() as u32);
    for &id in ids {
        put_i64(out, id);
    }
}

pub fn read_ids(cur: &mut Cursor<'_>, what: &str) -> Result<Vec<i64>, pdm_sql::Error> {
    let n = cur.u32(what)? as usize;
    let mut ids = Vec::with_capacity(n);
    for _ in 0..n {
        ids.push(cur.i64(what)?);
    }
    Ok(ids)
}

/// Append a token outcome: tag 0 = recorded refusal, tag 1 = the granted
/// rows.
pub fn put_outcome(out: &mut Vec<u8>, rows: Option<&ResultSet>) {
    match rows {
        None => put_u8(out, 0),
        Some(rs) => {
            put_u8(out, 1);
            put_result_set(out, rs);
        }
    }
}

pub fn read_outcome(cur: &mut Cursor<'_>) -> Result<Option<ResultSet>, pdm_sql::Error> {
    match cur.u8("token outcome tag")? {
        0 => Ok(None),
        1 => Ok(Some(read_result_set(cur)?)),
        other => Err(pdm_sql::Error::Persist(format!(
            "invalid token outcome tag {other} at offset {}",
            cur.offset()
        ))),
    }
}

impl WalRecord {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Append the payload encoding to `out` (a log frame's buffer, so a
    /// record is written once, in place).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::DmlCommit { version, sql } => {
                put_u8(out, TAG_DML);
                put_u64(out, *version);
                put_str(out, sql);
            }
            WalRecord::CheckoutGrant {
                token,
                assy_ids,
                comp_ids,
            } => {
                put_u8(out, TAG_GRANT);
                put_u64(out, *token);
                put_ids(out, assy_ids);
                put_ids(out, comp_ids);
            }
            WalRecord::CheckoutRelease { ids } => {
                put_u8(out, TAG_RELEASE);
                put_ids(out, ids);
            }
            WalRecord::TokenComplete { token, rows } => {
                put_u8(out, TAG_TOKEN);
                put_u64(out, *token);
                put_outcome(out, rows.as_deref());
            }
        }
    }

    pub fn decode(bytes: &[u8]) -> Result<WalRecord, WalError> {
        let mut cur = Cursor::new(bytes);
        let rec = Self::read(&mut cur).map_err(|e| WalError::Decode {
            offset: cur.offset(),
            detail: e.to_string(),
        })?;
        if !cur.is_empty() {
            return Err(WalError::Decode {
                offset: cur.offset(),
                detail: format!("{} trailing bytes after record", cur.remaining()),
            });
        }
        Ok(rec)
    }

    fn read(cur: &mut Cursor<'_>) -> Result<WalRecord, pdm_sql::Error> {
        let at = cur.offset();
        Ok(match cur.u8("record tag")? {
            TAG_DML => WalRecord::DmlCommit {
                version: cur.u64("commit version")?,
                sql: cur.str("commit sql")?,
            },
            TAG_GRANT => WalRecord::CheckoutGrant {
                token: cur.u64("grant token")?,
                assy_ids: read_ids(cur, "grant assy ids")?,
                comp_ids: read_ids(cur, "grant comp ids")?,
            },
            TAG_RELEASE => WalRecord::CheckoutRelease {
                ids: read_ids(cur, "release ids")?,
            },
            TAG_TOKEN => WalRecord::TokenComplete {
                token: cur.u64("token id")?,
                rows: read_outcome(cur)?.map(Arc::new),
            },
            other => {
                return Err(pdm_sql::Error::Persist(format!(
                    "invalid record tag {other} at offset {at}"
                )))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_sql::Database;

    fn sample_rows() -> ResultSet {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (a INTEGER, b VARCHAR)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, NULL)")
            .unwrap();
        db.query("SELECT * FROM t ORDER BY a").unwrap()
    }

    fn samples() -> Vec<WalRecord> {
        vec![
            WalRecord::DmlCommit {
                version: 17,
                sql: "UPDATE assy SET checkedout = TRUE WHERE obid IN (1, 2)".into(),
            },
            WalRecord::CheckoutGrant {
                token: 3,
                assy_ids: vec![1, 2, 3],
                comp_ids: vec![10, 11],
            },
            WalRecord::CheckoutRelease { ids: vec![1, 2] },
            WalRecord::TokenComplete {
                token: 3,
                rows: Some(Arc::new(sample_rows())),
            },
            WalRecord::TokenComplete {
                token: 4,
                rows: None,
            },
            WalRecord::CheckoutGrant {
                token: 0,
                assy_ids: Vec::new(),
                comp_ids: Vec::new(),
            },
        ]
    }

    #[test]
    fn round_trip_every_variant() {
        for rec in samples() {
            let bytes = rec.encode();
            assert_eq!(WalRecord::decode(&bytes).unwrap(), rec, "{rec:?}");
        }
    }

    #[test]
    fn truncation_reports_offset() {
        for rec in samples() {
            let bytes = rec.encode();
            for cut in 0..bytes.len() {
                match WalRecord::decode(&bytes[..cut]) {
                    Err(WalError::Decode { .. }) => {}
                    Ok(other) => panic!("cut {cut} decoded as {other:?}"),
                    Err(e) => panic!("unexpected error {e}"),
                }
            }
        }
    }

    #[test]
    fn bad_tag_rejected() {
        let err = WalRecord::decode(&[99]).unwrap_err();
        match err {
            WalError::Decode { detail, .. } => assert!(detail.contains("tag"), "{detail}"),
            other => panic!("{other}"),
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = WalRecord::CheckoutRelease { ids: vec![5] }.encode();
        bytes.push(0);
        assert!(WalRecord::decode(&bytes).is_err());
    }
}
