//! Mutation fixtures: for every lint, a minimal source that must be
//! rejected and a corrected twin that must be accepted. The meta-test
//! walks `Lint::ALL` over these pairs, so a lint cannot be added
//! without a demonstration of what it catches and what it permits.
//!
//! Fixtures are lexed, not compiled — they only need to be
//! token-faithful Rust. They are checked under the fixture path
//! `crates/core/src/fixture.rs` (inside the unchecked-index scope).

use crate::registry::Lint;

/// The path fixtures are linted under.
pub const FIXTURE_PATH: &str = "crates/core/src/fixture.rs";

/// Returns `(bad, good)` for `lint`.
pub fn pair(lint: Lint) -> (&'static str, &'static str) {
    match lint {
        Lint::UnorderedIter => (
            "struct Cache { map: HashMap<u64, u64> }\nimpl Cache {\n    fn dump(&self) -> Vec<u64> {\n        self.map.keys().copied().collect::<Vec<u64>>()\n    }\n}\n",
            "struct Cache { map: BTreeMap<u64, u64> }\nimpl Cache {\n    fn dump(&self) -> Vec<u64> {\n        self.map.keys().copied().collect::<Vec<u64>>()\n    }\n}\n",
        ),
        Lint::ReplayCatchall => (
            "fn replay(&mut self, record: &WalRecord) {\n    match record {\n        WalRecord::DmlCommit { version, sql } => self.dml(version, sql),\n        _ => {}\n    }\n}\n",
            "fn replay(&mut self, record: &WalRecord) {\n    match record {\n        WalRecord::DmlCommit { version, sql } => self.dml(version, sql),\n        WalRecord::CheckoutGrant { token, assy_ids, comp_ids } => self.grant(token, assy_ids, comp_ids),\n        WalRecord::CheckoutRelease { ids } => self.release(ids),\n        WalRecord::TokenComplete { token, rows } => self.done(token, rows),\n    }\n}\n",
        ),
        Lint::UnfencedApply => (
            "fn apply_batch(&mut self, epoch: u64, records: &[(u64, WalRecord)]) {\n    for (seq, record) in records {\n        self.apply_one(seq, record);\n    }\n}\n",
            "fn apply_batch(&mut self, epoch: u64, records: &[(u64, WalRecord)]) -> Result<(), E> {\n    if epoch != self.epoch {\n        return Err(E::Fenced);\n    }\n    for (seq, record) in records {\n        self.apply_one(seq, record);\n    }\n    Ok(())\n}\n",
        ),
        Lint::UncheckedIndex => (
            "fn frame_seq(frame: &[u8], at: usize) -> u8 {\n    frame[at]\n}\n",
            "fn frame_seq(frame: &[u8], at: usize) -> Option<u8> {\n    frame.get(at).copied()\n}\n",
        ),
        Lint::UncheckedProtocolArith => (
            "fn advance(&mut self) -> u64 {\n    let seq = self.next_seq;\n    self.next_seq = self.next_seq + 1;\n    seq\n}\n",
            "fn advance(&mut self) -> u64 {\n    let seq = self.next_seq;\n    self.next_seq = self.next_seq.saturating_add(1);\n    seq\n}\n",
        ),
        Lint::AllowHygiene => (
            "// lint:allow(unchecked-index)\nfn quiet() -> u64 {\n    7\n}\n",
            "fn quiet() -> u64 {\n    7\n}\n",
        ),
    }
}
