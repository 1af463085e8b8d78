//! Mutation fixtures: for every lint, a minimal source that must be
//! rejected and a corrected twin that must be accepted. The meta-test
//! walks `Lint::ALL` over these pairs, so a lint cannot be added
//! without a demonstration of what it catches and what it permits.
//!
//! Fixtures are lexed, not compiled — they only need to be
//! token-faithful Rust. They are checked under the fixture path
//! `crates/core/src/fixture.rs` (inside the unchecked-index scope) and
//! [`crate::schema::Registries::fixture`].

use crate::registry::Lint;

/// The path fixtures are linted under.
pub const FIXTURE_PATH: &str = "crates/core/src/fixture.rs";

/// Returns `(bad, good)` for `lint`.
pub fn pair(lint: Lint) -> (&'static str, &'static str) {
    match lint {
        Lint::WallClock => (
            "fn wait_deadline(&self) -> Instant {\n    let t = Instant::now();\n    t\n}\n",
            "fn wait_deadline(&self) -> Instant {\n    // lint:allow(wall-clock): condvar deadlines block real OS threads and\n    // must be measured on the OS clock, not the virtual one.\n    let t = Instant::now();\n    t\n}\n",
        ),
        Lint::AmbientRandomness => (
            "fn jitter(&self) -> u64 {\n    let mut rng = thread_rng();\n    rng.gen()\n}\n",
            "fn jitter(&self, prng: &mut Prng) -> u64 {\n    prng.next_u64()\n}\n",
        ),
        Lint::UnorderedIter => (
            "struct Cache { map: HashMap<u64, u64> }\nimpl Cache {\n    fn dump(&self) -> Vec<u64> {\n        self.map.keys().copied().collect::<Vec<u64>>()\n    }\n}\n",
            "struct Cache { map: BTreeMap<u64, u64> }\nimpl Cache {\n    fn dump(&self) -> Vec<u64> {\n        self.map.keys().copied().collect::<Vec<u64>>()\n    }\n}\n",
        ),
        Lint::LockOrderCycle => (
            "impl S {\n    fn promote(&self) {\n        let ga = self.alpha.lock();\n        let gb = self.beta.lock();\n    }\n    fn demote(&self) {\n        let gb = self.beta.lock();\n        let ga = self.alpha.lock();\n    }\n}\n",
            "impl S {\n    fn promote(&self) {\n        let ga = self.alpha.lock();\n        let gb = self.beta.lock();\n    }\n    fn demote(&self) {\n        let ga = self.alpha.lock();\n        let gb = self.beta.lock();\n    }\n}\n",
        ),
        Lint::LockAcrossBoundary => (
            "impl S {\n    fn relay(&mut self) {\n        let g = self.state.lock();\n        self.channel.exchange(g.bytes);\n    }\n}\n",
            "impl S {\n    fn relay(&mut self) {\n        let bytes = {\n            let g = self.state.lock();\n            g.bytes\n        };\n        self.channel.exchange(bytes);\n    }\n}\n",
        ),
        Lint::NestedLockReacquire => (
            "impl S {\n    fn bump(&self) {\n        let g = self.state.lock();\n        let h = self.state.lock();\n    }\n}\n",
            "impl S {\n    fn bump(&self) {\n        let g = self.state.lock();\n        drop(g);\n        let h = self.state.lock();\n    }\n}\n",
        ),
        Lint::UnboundedWait => (
            "impl S {\n    fn wait_ready(&self) {\n    let mut g = self.state.lock();\n        while !g.ready {\n            g = self.ready_cv.wait(g).into_inner();\n        }\n    }\n}\n",
            "impl S {\n    fn wait_ready(&self) {\n    let mut g = self.state.lock();\n        while !g.ready {\n            g = self.ready_cv.wait_timeout(g, WAIT_SLICE).into_inner().0;\n        }\n    }\n}\n",
        ),
        Lint::ReplayCatchall => (
            "fn replay(&mut self, record: &WalRecord) {\n    match record {\n        WalRecord::DmlCommit { version, sql } => self.dml(version, sql),\n        _ => {}\n    }\n}\n",
            FULL_REPLAY_MATCH,
        ),
        Lint::ReplayMissingVariant => (
            "fn replay(&mut self, record: &WalRecord) {\n    match record {\n        WalRecord::DmlCommit { version, sql } => self.dml(version, sql),\n        WalRecord::TokenComplete { token, rows } => self.done(token, rows),\n    }\n}\n",
            FULL_REPLAY_MATCH,
        ),
        Lint::UnfencedApply => (
            "fn apply_batch(&mut self, epoch: u64, records: &[(u64, WalRecord)]) {\n    for (seq, record) in records {\n        self.apply_one(seq, record);\n    }\n}\n",
            "fn apply_batch(&mut self, epoch: u64, records: &[(u64, WalRecord)]) -> Result<(), E> {\n    if epoch != self.epoch {\n        return Err(E::Fenced);\n    }\n    for (seq, record) in records {\n        self.apply_one(seq, record);\n    }\n    Ok(())\n}\n",
        ),
        Lint::MetricFamilyUnknown => (
            "fn wire(reg: &MetricsRegistry) -> Counter {\n    reg.counter(\"cache.hitz\")\n}\n",
            "fn wire(reg: &MetricsRegistry) -> Counter {\n    reg.counter(\"cache.hits\")\n}\n",
        ),
        Lint::SpanKindUnregistered => (
            "fn probe_kind() -> SpanKind {\n    SpanKind::new(\"session\", \"adhoc_probe\")\n}\n",
            "fn probe_kind() -> SpanKind {\n    kinds::SESSION_QUERY\n}\n",
        ),
        Lint::TimeoutWithoutFlight => (
            "fn lag_error(&self, waited_s: f64) -> SessionError {\n    SessionError::ReplicaLagTimeout { waited_s }\n}\n",
            "fn lag_error(&self, waited_s: f64) -> SessionError {\n    SessionError::ReplicaLagTimeout {\n        waited_s,\n        context: FlightDump::at(&self.recorder),\n    }\n}\n",
        ),
        Lint::StrayRecorder => (
            "fn assemble(cfg: ClusterConfig) -> Cluster {\n    Cluster { cfg, obs: Recorder::new() }\n}\n",
            "impl Session {\n    fn enable_profiling(&mut self) {\n        self.attach_recorder(Recorder::new());\n    }\n}\nfn assemble(cfg: ClusterConfig) -> Cluster {\n    Cluster { cfg }\n}\nfn pump(&mut self) {\n    self.pump_for(&Recorder::disabled());\n}\n",
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
            "// lint:allow(wall-clock)\nfn quiet() -> u64 {\n    7\n}\n",
            "fn quiet() -> u64 {\n    7\n}\n",
        ),
    }
}

const FULL_REPLAY_MATCH: &str = "fn replay(&mut self, record: &WalRecord) {\n    match record {\n        WalRecord::DmlCommit { version, sql } => self.dml(version, sql),\n        WalRecord::CheckoutGrant { token, assy_ids, comp_ids } => self.grant(token, assy_ids, comp_ids),\n        WalRecord::CheckoutRelease { ids } => self.release(ids),\n        WalRecord::TokenComplete { token, rows } => self.done(token, rows),\n    }\n}\n";
