//! The system under test: every call into the `pdm-*` crates lives in this
//! file. The rest of the benchmark sees object ids, [`Op`]s, [`Outcome`]s
//! and counters keyed by name, so a change to the program's call surface is
//! followed here and nowhere else.
//!
//! Server configuration (identical in every workload): `SharedServer`
//! with durability on the simulated `SimDevice` (fsync on every commit,
//! checkpoint every 64 commits — the `DurabilityConfig` default), the
//! cross-session result cache, and an installed admission gate whose burst
//! exceeds any run's admissions (nothing advances the gate's virtual clock
//! in a wall-clock run, so the bucket never refills: the gate's `admit` is
//! on the path and paid for, and must never reject).

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use pdm_core::client::{permission_groups, permitted, row_attrs};
use pdm_core::query::modificator::Modificator;
use pdm_core::query::{navigational, recursive};
use pdm_core::rules::condition::{CmpOp, Condition, RowPredicate};
use pdm_core::rules::{ActionKind, Rule};
use pdm_core::{
    recover_server, replay_prefix, Acquire, Cluster, ClusterConfig, Durability, DurabilityConfig,
    LockEvent, LockTable, OverloadConfig, OverloadGate, PdmServer, Priority, ProductNode,
    ProductTree, RetryPolicy, RoutedSession, RuleTable, Session, SessionConfig, SharedServer,
    Strategy, WriteReceipt,
};
use pdm_net::{record_traffic, LinkProfile, MeteredChannel, TrafficStats};
use pdm_obs::{MetricsRegistry, MetricsSnapshot, Recorder};
use pdm_sql::parser::{parse_query, parse_statement};
use pdm_sql::persist::{database_fingerprint, encode_snapshot};
use pdm_sql::{Database, Query, ResultSet, SharedDatabase, Snapshot, Statement, Value};
use pdm_wal::{CrashPlan, DurableStore, WalRecord};
use pdm_workload::{generate, populate, NodeKind, ProductData, TreeSpec};

use crate::ops::Op;
use crate::spans::Tracer;

/// Wire size of one transferred node row.
pub const NODE_BYTES: usize = 256;
/// Gate burst: more admissions than any run makes.
const GATE_BURST: f64 = 1e12;

type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

// ---------------------------------------------------------------------------
// Product structure
// ---------------------------------------------------------------------------

/// A generated product structure and what the oracles need to know about
/// it, worked out from the generator's output without any SQL.
pub struct Tree {
    data: ProductData,
    /// Visible children per object (an object is visible when its link and
    /// every link above it carry the user's structure option).
    kids: HashMap<i64, Vec<i64>>,
    /// Number of visible objects strictly below each object.
    below: HashMap<i64, usize>,
}

impl Tree {
    pub fn generate(depth: u32, branching: u32, gamma: f64) -> Tree {
        let data = generate(&TreeSpec::new(depth, branching, gamma).with_node_size(NODE_BYTES));
        let visible: HashMap<i64, bool> = data.nodes.iter().map(|n| (n.obid, n.visible)).collect();
        let mut kids: HashMap<i64, Vec<i64>> = HashMap::new();
        let mut below: HashMap<i64, usize> = HashMap::new();
        // Links are generated level by level, so walking them backwards
        // sees every child before its parent.
        for link in data.links.iter().rev() {
            if visible[&link.right] {
                kids.entry(link.left).or_default().push(link.right);
                let subtree = 1 + below.get(&link.right).copied().unwrap_or(0);
                *below.entry(link.left).or_default() += subtree;
            }
        }
        Tree { data, kids, below }
    }

    pub fn objects(&self) -> usize {
        self.data.nodes.len()
    }

    pub fn root(&self) -> i64 {
        self.data.root_obid()
    }

    /// Visible assemblies, one list per level (index 0 holds the root).
    pub fn visible_assemblies(&self) -> Vec<Vec<i64>> {
        let mut levels = vec![Vec::new(); self.data.spec.depth as usize];
        for n in &self.data.nodes {
            if n.visible && n.kind == NodeKind::Assembly {
                levels[n.level as usize].push(n.obid);
            }
        }
        levels
    }

    pub fn visible_components(&self) -> Vec<i64> {
        self.data
            .nodes
            .iter()
            .filter(|n| n.visible && n.kind == NodeKind::Component)
            .map(|n| n.obid)
            .collect()
    }

    /// Number of visible objects strictly below `root`.
    pub fn visible_below(&self, root: i64) -> usize {
        self.below.get(&root).copied().unwrap_or(0)
    }

    /// The visible objects in and below `root`'s subtree, `root` included.
    pub fn subtree(&self, root: i64) -> Vec<i64> {
        let mut out = vec![root];
        let mut next = 0;
        while next < out.len() {
            if let Some(kids) = self.kids.get(&out[next]) {
                out.extend(kids);
            }
            next += 1;
        }
        out
    }

    fn database(&self) -> Res<Database> {
        let mut db = Database::new();
        populate(&mut db, &self.data).map_err(err("populate"))?;
        Ok(db)
    }

    fn update_sql(&self, obid: i64, fill: u8) -> String {
        // Components carry one payload character more than assemblies; the
        // rewrite keeps the length, so wire sizes never move.
        let len = pdm_workload::populate::payload_len(NODE_BYTES) + 1;
        let payload = String::from(fill as char).repeat(len);
        format!("UPDATE comp SET payload = '{payload}' WHERE obid = {obid}")
    }
}

/// The structure-option access rules every simulated session uses
/// (`strc_opt = 'OPTA'` on relations and objects, §3.1 example 3).
fn visibility_rules() -> RuleTable {
    let mut t = RuleTable::new();
    for table in ["link", "assy", "comp"] {
        t.add(Rule::for_all_users(
            ActionKind::Access,
            table,
            Condition::Row(RowPredicate::compare("strc_opt", CmpOp::Eq, "OPTA")),
        ));
    }
    t
}

// ---------------------------------------------------------------------------
// Outcomes and counters
// ---------------------------------------------------------------------------

/// What one user action did, as its user sees it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Outcome {
    /// The action returned an error, was refused, or was shed.
    pub failed: bool,
    /// Objects the action returned (or rows it changed).
    pub nodes: usize,
    /// Response time `T` on the netsim virtual clock, seconds.
    pub virt_s: f64,
    /// Modeled transferred volume, bytes.
    pub wan_bytes: f64,
    /// Modeled requests `q`.
    pub round_trips: usize,
}

impl Outcome {
    fn failed() -> Outcome {
        Outcome {
            failed: true,
            ..Outcome::default()
        }
    }

    fn of(nodes: usize, stats: &TrafficStats) -> Outcome {
        Outcome {
            failed: false,
            nodes,
            virt_s: stats.response_time(),
            wan_bytes: stats.volume_bytes,
            round_trips: stats.queries,
        }
    }
}

/// Registry counters, gauges and histogram summaries by name
/// (`<histogram>.count|sum|p50|p99|max`); a cluster adds `bench.feed.records`,
/// the length of its replication feed.
pub type Counters = BTreeMap<String, f64>;

fn add_snapshot(into: &mut Counters, snap: &MetricsSnapshot) {
    for (name, v) in &snap.counters {
        *into.entry(name.clone()).or_default() += *v as f64;
    }
    for (name, v) in &snap.gauges {
        *into.entry(name.clone()).or_default() += *v;
    }
    for (name, h) in &snap.histograms {
        for (part, v) in [("count", h.count), ("sum", h.sum)] {
            *into.entry(format!("{name}.{part}")).or_default() += v as f64;
        }
        for (part, v) in [("p50", h.p50), ("p99", h.p99), ("max", h.max)] {
            let slot = into.entry(format!("{name}.{part}")).or_default();
            *slot = slot.max(v as f64);
        }
    }
}

// ---------------------------------------------------------------------------
// Single-server system
// ---------------------------------------------------------------------------

fn install_gate(server: &PdmServer) {
    server
        .shared()
        .install_overload_gate(OverloadConfig::per_second(1e6).with_burst(GATE_BURST));
}

fn count_checked_out(server: &PdmServer) -> Res<i64> {
    let mut total = 0;
    for table in ["assy", "comp"] {
        let rs = server
            .query(&format!(
                "SELECT COUNT(*) AS n FROM {table} WHERE checkedout = TRUE"
            ))
            .map_err(err("count checkedout"))?;
        match rs.rows.first().map(|r| r.get(0)) {
            Some(Value::Int(n)) => total += n,
            other => return Err(format!("COUNT(*) returned {other:?}")),
        }
    }
    Ok(total)
}

/// How a client retrieves trees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Retrieval {
    /// Early rule evaluation, one SQL statement per visible node.
    Navigational,
    /// One recursive query per action.
    Recursive,
}

impl Retrieval {
    fn strategy(self) -> Strategy {
        match self {
            Retrieval::Navigational => Strategy::EarlyEval,
            Retrieval::Recursive => Strategy::Recursive,
        }
    }
}

/// One durable, gated, caching server.
pub struct ServerSut {
    server: PdmServer,
    tree: Arc<Tree>,
}

impl ServerSut {
    pub fn build(tree: &Arc<Tree>) -> Res<ServerSut> {
        let shared = SharedServer::with_durability(tree.database()?, &DurabilityConfig::default())
            .map_err(err("durable server"))?;
        let server = PdmServer::from_shared(Arc::new(shared));
        install_gate(&server);
        Ok(ServerSut {
            server,
            tree: Arc::clone(tree),
        })
    }

    /// Attach a client session over the paper's 256 kbit/s WAN.
    pub fn client(&self, user: &str, retrieval: Retrieval) -> Client {
        Client {
            session: Session::attach(
                self.server.clone(),
                SessionConfig::new(user, retrieval.strategy(), LinkProfile::wan_256()),
                visibility_rules(),
            ),
            tree: Arc::clone(&self.tree),
        }
    }

    pub fn counters(&self) -> Counters {
        let mut c = Counters::new();
        add_snapshot(&mut c, &self.server.metrics().snapshot());
        c
    }

    /// End-of-run oracle of the write-bearing workloads: no object is left
    /// checked out, the lock table is empty, and a server recovered from
    /// the bytes that are durable right now equals the published state
    /// (acknowledged ≡ durable).
    pub fn verify_quiescent(&self) -> Res<()> {
        let flags = count_checked_out(&self.server)?;
        if flags != 0 {
            return Err(format!("{flags} objects are still flagged checked out"));
        }
        let shared = self.server.shared();
        if !shared.lock_table().is_empty() {
            return Err(format!(
                "{} lock-table entries outlive the run",
                shared.lock_table().len()
            ));
        }
        let durability = shared.durability().ok_or("server is not durable")?;
        let (recovered, _) = recover_server(durability.image(), &DurabilityConfig::default())
            .map_err(err("recovery"))?;
        if database_fingerprint(recovered.database()) != database_fingerprint(shared.database()) {
            return Err("recovered state differs from the published snapshot".into());
        }
        Ok(())
    }

    /// Start journaling (DML commit log + lock events); traced pass only,
    /// so journaling never taxes a measured phase.
    pub fn journal_begin(&self) -> Journal {
        let shared = self.server.shared();
        shared.enable_journal();
        shared.take_dml_log();
        shared.take_lock_events();
        Journal {
            base: shared.database().snapshot(),
        }
    }

    /// Traced-pass oracles: replaying the journaled DML serially onto the
    /// state journaling started from gives the final state, and no grant in
    /// the lock-event journal overlaps an unreleased earlier grant.
    pub fn journal_verify(&self, journal: Journal) -> Res<()> {
        let shared = self.server.shared();
        let replay = SharedDatabase::from_snapshot((*journal.base).clone());
        for sql in shared.take_dml_log() {
            replay.execute(&sql).map_err(err("journal replay"))?;
        }
        if database_fingerprint(&replay) != database_fingerprint(shared.database()) {
            return Err("serial replay of the DML journal differs from the final state".into());
        }
        let mut held: HashMap<i64, u64> = HashMap::new();
        for event in shared.take_lock_events() {
            match event {
                LockEvent::Granted { token, ids } => {
                    for id in ids {
                        if let Some(other) = held.insert(id, token) {
                            if other != token {
                                return Err(format!(
                                    "object {id} granted to token {token} while token {other} held it"
                                ));
                            }
                        }
                    }
                }
                LockEvent::Released { ids } => {
                    for id in ids {
                        held.remove(&id);
                    }
                }
                LockEvent::Refused { .. } => {}
            }
        }
        Ok(())
    }
}

/// State captured by [`ServerSut::journal_begin`].
pub struct Journal {
    base: Arc<pdm_sql::Snapshot>,
}

/// One closed-loop client of a [`ServerSut`].
pub struct Client {
    session: Session,
    tree: Arc<Tree>,
}

impl Client {
    /// Run one user action to completion.
    pub fn act(&mut self, op: &Op) -> Outcome {
        act_on_session(&mut self.session, &self.tree, op)
    }

    /// `Session::enable_profiling`, for the profiling-overhead reading.
    pub fn enable_profiling(&mut self) {
        self.session.enable_profiling();
    }
}

fn act_on_session(s: &mut Session, tree: &Tree, op: &Op) -> Outcome {
    match op {
        Op::Expand { root } => match s.multi_level_expand(*root) {
            Ok(out) => Outcome::of(out.tree.len() - 1, &out.stats),
            Err(_) => Outcome::failed(),
        },
        Op::QueryAll => match s.query_all(tree.root()) {
            Ok(out) => Outcome::of(out.nodes.len(), &out.stats),
            Err(_) => Outcome::failed(),
        },
        Op::CheckoutCycle { root } => {
            let Ok(co) = s.check_out_function_shipping(*root) else {
                return Outcome::failed();
            };
            // A refusal leaves nothing to check in and counts as failed.
            let Some(subtree) = co.tree else {
                return Outcome::failed();
            };
            let mut stats = co.stats;
            if s.check_in(&subtree).is_err() {
                return Outcome::failed();
            }
            stats.absorb(s.stats());
            Outcome::of(subtree.len(), &stats)
        }
        Op::Update { obid, fill } => match s.execute_update(&tree.update_sql(*obid, *fill)) {
            Ok(rows) => Outcome::of(rows, s.stats()),
            Err(_) => Outcome::failed(),
        },
    }
}

// ---------------------------------------------------------------------------
// Replicated system
// ---------------------------------------------------------------------------

/// Primary + two replica sites with one routed session per replica site:
/// reads on the local replica over LAN, writes to the primary over the
/// 256 kbit/s WAN, one replica acknowledgement per write, fault-free
/// 512 kbit/s ship links.
pub struct ClusterSut {
    cluster: Cluster,
    sessions: Vec<RoutedSession>,
    tree: Arc<Tree>,
    /// Replica lag in records, read after every action.
    lag_samples: Vec<f64>,
}

impl ClusterSut {
    pub fn build(tree: &Arc<Tree>) -> Res<ClusterSut> {
        let cfg = ClusterConfig::default()
            .with_replicas(2)
            .with_ack_replicas(1)
            .with_ship_link(LinkProfile::wan_512());
        let cluster = Cluster::new(tree.database()?, cfg).map_err(err("cluster"))?;
        install_gate(cluster.primary());
        let sites = cluster.replica_sites();
        for site in &sites {
            if let Some(replica) = cluster.replica(*site) {
                install_gate(replica.server());
            }
        }
        let sessions = sites
            .iter()
            .map(|site| {
                RoutedSession::connect(
                    &cluster,
                    *site,
                    SessionConfig::new(
                        format!("site{site}"),
                        Strategy::Recursive,
                        LinkProfile::wan_256(),
                    ),
                    visibility_rules(),
                )
            })
            .collect();
        Ok(ClusterSut {
            cluster,
            sessions,
            tree: Arc::clone(tree),
            lag_samples: Vec::new(),
        })
    }

    pub fn lanes(&self) -> usize {
        self.sessions.len()
    }

    /// Run one user action on the routed session of lane `lane`. `virt_s`
    /// is the cluster clock's advance: the session's own exchanges plus the
    /// watermark wait before a read or the acknowledgement wait after a
    /// write.
    pub fn act(&mut self, lane: usize, op: &Op) -> Outcome {
        let cluster = &mut self.cluster;
        let s = &mut self.sessions[lane];
        let clock = cluster.clock();
        let mut out = match op {
            Op::Expand { root } => match s.multi_level_expand(cluster, *root) {
                Ok(r) => Outcome::of(r.value.tree.len() - 1, &r.value.stats),
                Err(_) => Outcome::failed(),
            },
            Op::QueryAll => match s.query_all(cluster, self.tree.root()) {
                Ok(r) => Outcome::of(r.value.nodes.len(), &r.value.stats),
                Err(_) => Outcome::failed(),
            },
            Op::CheckoutCycle { root } => match s.check_out(cluster, *root) {
                Ok((co, _)) => match co.tree {
                    Some(subtree) => {
                        let mut stats = co.stats;
                        match s.check_in(cluster, &subtree) {
                            Ok(_) => {
                                stats.absorb(s.write_session().stats());
                                Outcome::of(subtree.len(), &stats)
                            }
                            Err(_) => Outcome::failed(),
                        }
                    }
                    None => Outcome::failed(),
                },
                Err(_) => Outcome::failed(),
            },
            Op::Update { obid, fill } => {
                match s.execute_dml(cluster, &self.tree.update_sql(*obid, *fill)) {
                    Ok((rows, _)) => Outcome::of(rows, s.write_session().stats()),
                    Err(_) => Outcome::failed(),
                }
            }
        };
        out.virt_s = cluster.clock() - clock;
        self.lag_samples.push(self.lag_records() as f64);
        out
    }

    pub fn take_lag_samples(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.lag_samples)
    }

    /// Records the slowest replica trails the primary by, right now.
    pub fn lag_records(&self) -> u64 {
        self.cluster
            .replica_sites()
            .iter()
            .map(|s| self.cluster.lag(*s))
            .max()
            .unwrap_or(0)
    }

    pub fn counters(&self) -> Counters {
        let mut c = Counters::new();
        add_snapshot(&mut c, &self.cluster.metrics().snapshot());
        add_snapshot(&mut c, &self.cluster.primary().metrics().snapshot());
        for site in self.cluster.replica_sites() {
            if let Some(r) = self.cluster.replica(site) {
                add_snapshot(&mut c, &r.server().metrics().snapshot());
            }
        }
        c.insert(
            "bench.feed.records".into(),
            self.cluster.feed().len() as f64,
        );
        c
    }

    /// End-of-run oracle: pump every replica to lag 0, then each replica is
    /// fingerprint-identical to the primary, nothing is left checked out
    /// and the primary's lock table is empty.
    pub fn verify_converged(&mut self) -> Res<()> {
        for _ in 0..4096 {
            if self.lag_records() == 0 {
                break;
            }
            self.cluster.pump().map_err(err("pump"))?;
        }
        let primary = self.cluster.primary_fingerprint();
        for site in self.cluster.replica_sites() {
            let replica = self.cluster.replica(site).ok_or("replica vanished")?;
            if self.cluster.lag(site) != 0 {
                return Err(format!("site {site} never converged"));
            }
            if replica.fingerprint() != primary {
                return Err(format!("site {site} differs from the primary at lag 0"));
            }
        }
        let flags = count_checked_out(self.cluster.primary())?;
        if flags != 0 {
            return Err(format!("{flags} objects are still flagged checked out"));
        }
        if !self.cluster.primary().shared().lock_table().is_empty() {
            return Err("primary lock table is not empty".into());
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Traced layer replay: the action paths rebuilt from public layer calls
// ---------------------------------------------------------------------------

/// Statements and sizes the mirrored actions generated, kept as the inputs
/// of the isolated layer timings in [`layer_timings`].
#[derive(Debug, Default)]
pub struct Inputs {
    nav: Vec<String>,
    mle: Vec<String>,
    query_all: Vec<String>,
    updates: Vec<String>,
    /// `(request bytes, response payload bytes)` of every exchange.
    exchanges: Vec<(usize, usize)>,
    /// Object-id sets check-outs locked.
    lock_sets: Vec<Vec<i64>>,
    /// Rows the client assembled into trees.
    assembled_nodes: usize,
}

fn keep(list: &mut Vec<String>, sql: &str, cap: usize) {
    if list.len() < cap {
        list.push(sql.to_string());
    }
}

fn id_list(ids: &[i64]) -> String {
    ids.iter()
        .map(i64::to_string)
        .collect::<Vec<_>>()
        .join(", ")
}

fn as_id(v: Option<&Value>) -> Option<i64> {
    match v {
        Some(Value::Int(i)) => Some(*i),
        _ => None,
    }
}

/// `session::node_from_attrs` is crate-private; this is the same
/// interpretation of a homogenized row.
fn node_of(attrs: HashMap<String, Value>, parent: Option<i64>) -> ProductNode {
    let text = |key: &str| match attrs.get(key) {
        Some(Value::Text(t)) => t.clone(),
        _ => String::new(),
    };
    ProductNode {
        obid: as_id(attrs.get("obid")).unwrap_or_default(),
        parent: parent.or_else(|| as_id(attrs.get("parent"))),
        type_name: text("type"),
        name: text("name"),
        attrs,
    }
}

/// One client's action paths, rebuilt call by call from the public
/// functions of each layer in the order `Session` makes them, with a span
/// of the benchmark's own around each call. What the session does between
/// those calls is not mirrored; `bench.replay_residual_frac` says how much
/// that is.
pub struct Mirror {
    server: PdmServer,
    channel: MeteredChannel,
    rules: RuleTable,
    user: String,
    views: HashSet<String>,
    retrieval: Retrieval,
    tree: Arc<Tree>,
    inputs: Inputs,
}

const STRUCTURE: [&str; 3] = ["link", "assy", "comp"];

impl Mirror {
    fn new(server: PdmServer, link: LinkProfile, retrieval: Retrieval, tree: &Arc<Tree>) -> Mirror {
        Mirror {
            views: server.view_names(),
            server,
            channel: MeteredChannel::new(link),
            rules: visibility_rules(),
            user: "mirror".into(),
            retrieval,
            tree: Arc::clone(tree),
            inputs: Inputs::default(),
        }
    }

    fn admit(&self, prio: Priority, t: &mut Tracer) -> Res<Option<pdm_core::Permit>> {
        t.span("core.overload.admit", |_| {
            match self.server.shared().overload_gate() {
                None => Ok(None),
                Some(gate) => gate.admit(prio).map(Some).map_err(|_| "shed".to_string()),
            }
        })
    }

    fn exchange(&mut self, request: usize, response: usize, t: &mut Tracer) {
        self.inputs.exchanges.push((request, response));
        t.span("net.exchange", |_| {
            self.channel.round_trip(request, response)
        });
    }

    /// `Session::metered_query` on a reliable link.
    fn query(&mut self, sql: &str, t: &mut Tracer) -> Res<ResultSet> {
        let _permit = self.admit(Priority::Interactive, t)?;
        let shared = t
            .span("core.shared.query_cached", |_| {
                self.server.shared().query_cached(sql)
            })
            .map_err(err("query"))?;
        let rs = t.span("core.session.copy_result", |_| (*shared).clone());
        self.exchange(sql.len(), rs.wire_size(), t);
        Ok(rs)
    }

    /// `Session::metered_update_public` on a reliable link.
    fn update(&mut self, sql: &str, t: &mut Tracer) -> Res<usize> {
        let _permit = self.admit(Priority::Checkout, t)?;
        let out = t
            .span("core.shared.execute", |_| {
                self.server
                    .shared()
                    .execute_deadline_obs(sql, None, &Recorder::disabled())
            })
            .map_err(err("update"))?;
        self.exchange(sql.len(), 16, t);
        Ok(match out {
            pdm_sql::ExecOutcome::Dml(pdm_sql::DmlOutcome::Updated(n)) => n,
            _ => 0,
        })
    }

    fn fetch_root(&mut self, root: i64, t: &mut Tracer) -> Res<ProductTree> {
        let rs = t
            .span("core.session.fetch_root", |_| {
                self.server
                    .query(&navigational::fetch_node_query(root).to_string())
            })
            .map_err(err("fetch root"))?;
        let row = rs.rows.first().ok_or("root not found")?;
        let mut tree = ProductTree::new();
        tree.insert(node_of(row_attrs(&rs, row), None));
        Ok(tree)
    }

    fn modificator(&self, action: ActionKind) -> Modificator<'_> {
        Modificator::new(&self.rules, &self.user, action, &self.views)
    }

    fn assemble(
        &mut self,
        rs: &ResultSet,
        parent: Option<i64>,
        tree: &mut ProductTree,
        t: &mut Tracer,
    ) -> Vec<i64> {
        self.inputs.assembled_nodes += rs.len();
        t.span("core.session.assemble", |_| {
            let mut ids = Vec::with_capacity(rs.len());
            for row in &rs.rows {
                let node = node_of(row_attrs(rs, row), parent);
                ids.push(node.obid);
                tree.insert(node);
            }
            ids
        })
    }

    fn expand(&mut self, root: i64, t: &mut Tracer) -> Res<usize> {
        self.channel.reset();
        let mut tree = self.fetch_root(root, t)?;
        match self.retrieval {
            Retrieval::Navigational => {
                let mut queue = VecDeque::from([root]);
                while let Some(parent) = queue.pop_front() {
                    let mut q = t.span("core.query.build", |_| {
                        navigational::expand_query_in(parent, STRUCTURE[0])
                    });
                    t.span("core.modify.nav", |_| {
                        self.modificator(ActionKind::MultiLevelExpand)
                            .modify_navigational(&mut q)
                    })
                    .map_err(err("modify"))?;
                    let sql = t.span("sql.print", |_| q.to_string());
                    keep(&mut self.inputs.nav, &sql, 4000);
                    let rs = self.query(&sql, t)?;
                    t.span("core.rules.lookup", |_| {
                        permission_groups(
                            &self.rules,
                            &self.user,
                            ActionKind::MultiLevelExpand,
                            &STRUCTURE,
                        )
                        .len()
                    });
                    queue.extend(self.assemble(&rs, Some(parent), &mut tree, t));
                }
            }
            Retrieval::Recursive => {
                let mut q = t.span("core.query.build", |_| {
                    recursive::mle_query_in(root, STRUCTURE[0], false)
                });
                t.span("core.modify.mle", |_| {
                    self.modificator(ActionKind::MultiLevelExpand)
                        .modify_recursive(&mut q)
                })
                .map_err(err("modify"))?;
                let sql = t.span("sql.print", |_| q.to_string());
                keep(&mut self.inputs.mle, &sql, 400);
                let rs = self.query(&sql, t)?;
                self.assemble(&rs, None, &mut tree, t);
            }
        }
        t.span("net.fold_traffic", |_| {
            record_traffic(self.server.metrics(), self.channel.stats())
        });
        Ok(tree.len() - 1)
    }

    fn query_all(&mut self, t: &mut Tracer) -> Res<usize> {
        self.channel.reset();
        let mut q = t.span("core.query.build", |_| {
            navigational::query_all_query(self.tree.root())
        });
        t.span("core.modify.nav", |_| {
            self.modificator(ActionKind::Query)
                .modify_navigational(&mut q)
        })
        .map_err(err("modify"))?;
        let sql = t.span("sql.print", |_| q.to_string());
        keep(&mut self.inputs.query_all, &sql, 1);
        let rs = self.query(&sql, t)?;
        t.span("core.rules.lookup", |_| {
            permission_groups(&self.rules, &self.user, ActionKind::Query, &STRUCTURE[1..]).len()
        });
        let mut tree = ProductTree::new();
        let nodes = self.assemble(&rs, None, &mut tree, t).len();
        t.span("net.fold_traffic", |_| {
            record_traffic(self.server.metrics(), self.channel.stats())
        });
        Ok(nodes)
    }

    /// `Session::check_out_function_shipping` on a reliable link.
    fn check_out(&mut self, root: i64, t: &mut Tracer) -> Res<ProductTree> {
        self.channel.reset();
        let _permit = self.admit(Priority::Checkout, t)?;
        let mut q = t.span("core.query.build", |_| recursive::mle_query(root));
        t.span("core.modify.mle", |_| {
            self.modificator(ActionKind::CheckOut)
                .modify_recursive(&mut q)
        })
        .map_err(err("modify"))?;
        let sql = t.span("sql.print", |_| q.to_string());
        let token = self.server.shared().next_token();
        let result = t
            .span("core.checkout.procedure", |_| {
                self.server.checkout_procedure_with_deadline_obs(
                    root,
                    &sql,
                    token,
                    None,
                    &Recorder::disabled(),
                )
            })
            .map_err(err("check-out"))?;
        let rows = result.rows.ok_or("check-out refused")?;
        self.exchange(sql.len() + 32, rows.wire_size(), t);
        let mut tree = self.fetch_root(root, t)?;
        self.assemble(&rows, None, &mut tree, t);
        t.span("net.fold_traffic", |_| {
            record_traffic(self.server.metrics(), self.channel.stats())
        });
        Ok(tree)
    }

    /// `Session::check_in`.
    fn check_in(&mut self, tree: &ProductTree, t: &mut Tracer) -> Res<usize> {
        self.channel.reset();
        let mut ids: [Vec<i64>; 2] = [Vec::new(), Vec::new()];
        for node in tree.nodes() {
            match node.type_name.as_str() {
                "assy" => ids[0].push(node.obid),
                "comp" => ids[1].push(node.obid),
                _ => {}
            }
        }
        let mut changed = 0;
        for (table, ids) in STRUCTURE[1..].iter().zip(&ids) {
            if ids.is_empty() {
                continue;
            }
            let sql = t.span("core.query.build", |_| {
                format!(
                    "UPDATE {table} SET checkedout = FALSE WHERE obid IN ({})",
                    id_list(ids)
                )
            });
            changed += self.update(&sql, t)?;
        }
        let all: Vec<i64> = ids.concat();
        t.span("core.locks.release", |_| {
            self.server.shared().lock_table().release(&all)
        });
        self.inputs.lock_sets.push(all);
        t.span("net.fold_traffic", |_| {
            record_traffic(self.server.metrics(), self.channel.stats())
        });
        Ok(changed)
    }

    fn row_update(&mut self, obid: i64, fill: u8, t: &mut Tracer) -> Res<usize> {
        self.channel.reset();
        let sql = t.span("core.query.build", |_| self.tree.update_sql(obid, fill));
        keep(&mut self.inputs.updates, &sql, 200);
        let rows = self.update(&sql, t)?;
        t.span("net.fold_traffic", |_| {
            record_traffic(self.server.metrics(), self.channel.stats())
        });
        Ok(rows)
    }
}

fn action_name(op: &Op) -> &'static str {
    match op {
        Op::Expand { .. } => "action.expand",
        Op::QueryAll => "action.query_all",
        Op::CheckoutCycle { .. } => "action.checkout_cycle",
        Op::Update { .. } => "action.update",
    }
}

impl ServerSut {
    pub fn mirror(&self, retrieval: Retrieval) -> Mirror {
        Mirror::new(
            self.server.clone(),
            LinkProfile::wan_256(),
            retrieval,
            &self.tree,
        )
    }
}

impl Mirror {
    /// Hand over (and forget) the inputs collected so far.
    pub fn take_inputs(&mut self) -> Inputs {
        std::mem::take(&mut self.inputs)
    }

    /// Replay one user action; returns the objects it retrieved (or rows it
    /// changed), which the caller checks like a real action's.
    pub fn act(&mut self, op: &Op, t: &mut Tracer) -> Res<usize> {
        t.action(action_name(op), |t| match op {
            Op::Expand { root } => self.expand(*root, t),
            Op::QueryAll => self.query_all(t),
            Op::CheckoutCycle { root } => {
                let tree = self.check_out(*root, t)?;
                self.check_in(&tree, t)?;
                Ok(tree.len())
            }
            Op::Update { obid, fill } => self.row_update(*obid, *fill, t),
        })
    }
}

/// The routed action paths of one site: watermark wait → read on the
/// replica, or availability gate → write on the primary → acknowledgement.
pub struct SiteMirror {
    site: usize,
    read: Mirror,
    write: Mirror,
    last_write: Option<WriteReceipt>,
    policy: RetryPolicy,
}

impl ClusterSut {
    pub fn mirror(&self, lane: usize) -> SiteMirror {
        let site = self.cluster.replica_sites()[lane];
        SiteMirror {
            site,
            read: Mirror::new(
                self.cluster.read_server(site),
                LinkProfile::lan(),
                Retrieval::Recursive,
                &self.tree,
            ),
            write: Mirror::new(
                self.cluster.write_server(),
                LinkProfile::wan_256(),
                Retrieval::Recursive,
                &self.tree,
            ),
            last_write: None,
            policy: RetryPolicy::default_wan(),
        }
    }

    /// Replay one routed user action on `mirror`'s site.
    pub fn act_mirrored(&mut self, mirror: &mut SiteMirror, op: &Op, t: &mut Tracer) -> Res<usize> {
        let cluster = &mut self.cluster;
        t.action(action_name(op), |t| match op {
            Op::Expand { root } => mirror.read(cluster, t, |m, t| m.expand(*root, t)),
            Op::QueryAll => mirror.read(cluster, t, |m, t| m.query_all(t)),
            Op::CheckoutCycle { root } => {
                let tree = mirror.write(cluster, t, |m, t| m.check_out(*root, t))?;
                mirror.write(cluster, t, |m, t| m.check_in(&tree, t))?;
                Ok(tree.len())
            }
            Op::Update { obid, fill } => {
                mirror.write(cluster, t, |m, t| m.row_update(*obid, *fill, t))
            }
        })
    }

    pub fn enable_profiling(&mut self) {
        for s in &mut self.sessions {
            s.read_session_mut().enable_profiling();
        }
    }
}

impl SiteMirror {
    /// Hand over (and forget) the inputs this site's read and write paths
    /// collected.
    pub fn take_inputs(&mut self) -> Inputs {
        let mut inputs = self.read.take_inputs();
        inputs.absorb(self.write.take_inputs());
        inputs
    }

    /// `RoutedSession::read_action`.
    fn read<T>(
        &mut self,
        cluster: &mut Cluster,
        t: &mut Tracer,
        action: impl FnOnce(&mut Mirror, &mut Tracer) -> Res<T>,
    ) -> Res<T> {
        if let Some(receipt) = self.last_write.filter(|r| r.epoch >= cluster.epoch()) {
            t.span("core.repl.wait_watermark", |_| {
                cluster.wait_watermark(self.site, &receipt, &self.policy, &Recorder::disabled())
            })
            .map_err(err("watermark"))?;
        }
        let value = action(&mut self.read, t);
        cluster.advance(self.read.channel.elapsed());
        value
    }

    /// `RoutedSession::write_action`.
    fn write<T>(
        &mut self,
        cluster: &mut Cluster,
        t: &mut Tracer,
        action: impl FnOnce(&mut Mirror, &mut Tracer) -> Res<T>,
    ) -> Res<T> {
        t.span("core.repl.ensure_primary", |_| {
            cluster.ensure_primary(self.policy.deadline, &Recorder::disabled())
        })
        .map_err(err("primary"))?;
        let value = action(&mut self.write, t);
        cluster.advance(self.write.channel.elapsed());
        let value = value?;
        let receipt = t
            .span("core.repl.acknowledge", |_| {
                cluster.acknowledge_write(&Recorder::disabled())
            })
            .map_err(err("acknowledge"))?;
        self.last_write = Some(receipt);
        Ok(value)
    }
}

// ---------------------------------------------------------------------------
// Isolated layer timings
// ---------------------------------------------------------------------------

/// Per-layer readings by metric name.
pub type Readings = BTreeMap<&'static str, f64>;

/// Mean wall time of `f` over `items`, in nanoseconds per item (0 without
/// items). The clock is read once around the whole loop, so its own cost is
/// spread over all items.
fn mean_ns<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let t0 = Instant::now();
    for item in items {
        f(item);
    }
    t0.elapsed().as_nanos() as f64 / items.len() as f64
}

struct ExecReading {
    parse_us: f64,
    print_us: f64,
    exec_us: f64,
    rows_scanned: usize,
    rows_out: usize,
    recursion_rounds: usize,
}

fn time_statements(snapshot: &Snapshot, texts: &[String]) -> Res<ExecReading> {
    let parse_ns = mean_ns(texts, |sql| {
        black_box(parse_query(black_box(sql)).is_ok());
    });
    let queries: Vec<Query> = texts
        .iter()
        .map(|sql| parse_query(sql).map_err(err("parse")))
        .collect::<Res<_>>()?;
    let print_ns = mean_ns(&queries, |q| {
        black_box(black_box(q).to_string());
    });
    let mut reading = ExecReading {
        parse_us: parse_ns / 1e3,
        print_us: print_ns / 1e3,
        exec_us: 0.0,
        rows_scanned: 0,
        rows_out: 0,
        recursion_rounds: 0,
    };
    let mut failed = false;
    let exec_ns = mean_ns(&queries, |q| {
        match snapshot.query_ast_profiled(q, &Recorder::disabled()) {
            Ok((rs, stats)) => {
                reading.rows_scanned += stats.rows_scanned;
                reading.rows_out += rs.len();
                reading.recursion_rounds += stats.recursion_iterations;
            }
            Err(_) => failed = true,
        }
    });
    if failed {
        return Err("a replayed statement failed".into());
    }
    reading.exec_us = exec_ns / 1e3;
    Ok(reading)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Time each layer's public functions in isolation on the statements,
/// sizes and records this workload generated. A layer the workload gave no
/// input for reads 0.
pub fn layer_timings(server: &PdmServer, inputs: &Inputs) -> Res<Readings> {
    let mut out = Readings::new();
    let snapshot = server.database().snapshot();

    // sql: parse / print / execute per statement class
    let nav = time_statements(&snapshot, &inputs.nav)?;
    let mle = time_statements(&snapshot, &inputs.mle)?;
    let all = time_statements(&snapshot, &inputs.query_all)?;
    out.insert("sql.parse_us.nav", nav.parse_us);
    out.insert("sql.print_us.nav", nav.print_us);
    out.insert("sql.exec_us.point", nav.exec_us);
    out.insert("sql.parse_us.mle", mle.parse_us);
    out.insert("sql.exec_us.mle", mle.exec_us);
    out.insert("sql.exec_us.query_all", all.exec_us);
    out.insert(
        "sql.rows_scanned_per_row_out",
        ratio(
            (nav.rows_scanned + mle.rows_scanned + all.rows_scanned) as f64,
            (nav.rows_out + mle.rows_out + all.rows_out) as f64,
        ),
    );
    out.insert(
        "sql.recursion_rounds_per_mle",
        ratio(mle.recursion_rounds as f64, inputs.mle.len() as f64),
    );

    // sql: one-row UPDATE through the copy-on-write commit, and the
    // snapshot codec a checkpoint runs
    let scratch_db = SharedDatabase::from_snapshot((*snapshot).clone());
    let updates: Vec<Statement> = inputs
        .updates
        .iter()
        .map(|sql| parse_statement(sql).map_err(err("parse")))
        .collect::<Res<_>>()?;
    let mut commit_failed = false;
    let commit_ns = mean_ns(&updates, |stmt| {
        commit_failed |= scratch_db.execute_ast(stmt).is_err();
    });
    if commit_failed {
        return Err("a replayed UPDATE failed".into());
    }
    out.insert("sql.commit_us.row_update", commit_ns / 1e3);
    let encode_ns = mean_ns(&[(); 3], |_| {
        black_box(encode_snapshot(&snapshot).len());
    });
    out.insert("sql.snapshot_encode_ms", encode_ns / 1e6);

    // core.cache: hit and miss of the cross-session cache on a scratch
    // server over the same tables (tables are shared, not copied)
    let cache_texts = if inputs.nav.is_empty() {
        &inputs.mle
    } else {
        &inputs.nav
    };
    let scratch = SharedServer::new(Database {
        catalog: snapshot.catalog.clone(),
        config: snapshot.config.clone(),
    });
    // Per statement: uncached execution, first cached call (a miss), second
    // cached call (a hit). Which of the first two runs first alternates, so
    // neither always finds the tables warm from the other.
    let distinct: Vec<&String> = {
        let mut seen = HashSet::new();
        cache_texts.iter().filter(|sql| seen.insert(*sql)).collect()
    };
    let (mut uncached_ns, mut miss_ns, mut hit_ns) = (0.0, 0.0, 0.0);
    let timed = |ns: &mut f64, f: &dyn Fn() -> bool| {
        let t0 = Instant::now();
        let ok = f();
        *ns += t0.elapsed().as_nanos() as f64;
        ok
    };
    let mut ok = true;
    for (i, sql) in distinct.iter().enumerate() {
        let uncached = || scratch.query_uncached(sql).is_ok();
        let cached = || scratch.query_cached(sql).is_ok();
        let uncached_first = i % 2 == 0;
        if uncached_first {
            ok &= timed(&mut uncached_ns, &uncached);
        }
        ok &= timed(&mut miss_ns, &cached);
        if !uncached_first {
            ok &= timed(&mut uncached_ns, &uncached);
        }
        ok &= timed(&mut hit_ns, &cached);
    }
    let stats = scratch.cache_stats();
    let n = distinct.len() as u64;
    if !ok || (stats.hits, stats.misses) != (n, n) {
        return Err(format!("cache probe over {n} statements saw {stats:?}"));
    }
    let n = n.max(1) as f64;
    let (uncached_ns, miss_ns, hit_ns) = (uncached_ns / n, miss_ns / n, hit_ns / n);
    out.insert("core.cache.hit_us", hit_ns / 1e3);
    out.insert("core.cache.miss_overhead_us", (miss_ns - uncached_ns) / 1e3);

    // core.session: late rule evaluation over transferred rows
    let rules = visibility_rules();
    let groups = permission_groups(&rules, "mirror", ActionKind::MultiLevelExpand, &STRUCTURE);
    let funcs = pdm_core::functions::client_registry();
    let sample = [&inputs.mle, &inputs.nav, &inputs.query_all]
        .into_iter()
        .flatten()
        .next();
    let mut late_ns = 0.0;
    if let Some(sql) = sample {
        let rs = snapshot.query(sql).map_err(err("late-filter sample"))?;
        let rows: Vec<HashMap<String, Value>> = rs.rows.iter().map(|r| row_attrs(&rs, r)).collect();
        // a few passes so that a small result still fills the clock's grain
        let passes = vec![(); 1 + 2000 / rows.len().max(1)];
        late_ns = ratio(
            mean_ns(&passes, |_| {
                for attrs in &rows {
                    black_box(permitted(attrs, &groups, &funcs));
                }
            }),
            rows.len() as f64,
        );
    }
    out.insert("core.session.late_filter_ns_per_row", late_ns);

    // core.locks: all-or-nothing acquire, promote, release
    let locks = LockTable::default();
    let mut token = 0;
    let mut lock_failed = false;
    let lock_ns = mean_ns(&inputs.lock_sets, |ids| {
        token += 1;
        lock_failed |= !matches!(
            locks.acquire_in_flight(ids, token, None),
            Ok(Acquire::Granted)
        );
        locks.promote(ids, token);
        locks.release(ids);
    });
    if lock_failed || !locks.is_empty() {
        return Err("scratch lock table refused a disjoint acquisition".into());
    }
    out.insert("core.locks.acquire_release_us", lock_ns / 1e3);

    // core.overload: one admission (token bucket + permit)
    let gate = OverloadGate::new(
        OverloadConfig::per_second(1e6).with_burst(GATE_BURST),
        &MetricsRegistry::new(),
    );
    let admit_ns = mean_ns(&[(); 200_000], |_| {
        black_box(gate.admit(Priority::Interactive).is_ok());
    });
    out.insert("core.overload.admit_ns", admit_ns);

    // net: one metered round trip at this workload's message sizes
    let mut channel = MeteredChannel::new(LinkProfile::wan_256());
    let sizes: Vec<(usize, usize)> = inputs.exchanges.iter().copied().take(20_000).collect();
    let exchange_ns = mean_ns(&sizes, |(request, response)| {
        black_box(channel.round_trip(*request, *response).total_time());
    });
    out.insert("net.exchange_ns", exchange_ns);

    // wal + core.durability, on what this server logged and holds durable
    let durability = server
        .shared()
        .durability()
        .ok_or("the server is not durable")?;
    let image = durability.image();
    let log_bytes = image.log.len();
    let scan_ns = mean_ns(&[(); 5], |_| {
        black_box(pdm_wal::log::scan(&image.log).valid_len);
    });
    let (_, recovered) =
        DurableStore::from_image(image.clone(), CrashPlan::none()).map_err(err("log image"))?;
    let records: Vec<WalRecord> = recovered.records.into_iter().map(|(_, r)| r).collect();
    let encode_ns = mean_ns(&records, |r| {
        black_box(r.encode().len());
    });
    let mut store = DurableStore::new(CrashPlan::none());
    let mut failed = false;
    let append_ns = mean_ns(&records, |r| failed |= store.commit(r).is_err());
    let scratch = Durability::new(&DurabilityConfig::default());
    let commits: Vec<(u64, &String)> = records
        .iter()
        .filter_map(|r| match r {
            WalRecord::DmlCommit { version, sql } => Some((*version, sql)),
            _ => None,
        })
        .collect();
    let commit_ns = mean_ns(&commits, |(version, sql)| {
        failed |= scratch.log_commit(*version, sql).is_err();
    });
    let t0 = Instant::now();
    durability
        .checkpoint(&snapshot)
        .map_err(err("checkpoint"))?;
    let checkpoint_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    recover_server(image, &DurabilityConfig::default()).map_err(err("recovery"))?;
    let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
    if failed {
        return Err("scratch log refused a replayed record".into());
    }
    // The live device's counters restart at every checkpoint; the
    // scratch store has logged exactly the records since the last one.
    let device = store.device_stats();
    out.insert("wal.encode_ns_per_record", encode_ns);
    out.insert("wal.append_sync_us", append_ns / 1e3);
    out.insert(
        "wal.bytes_per_commit",
        ratio(device.bytes_written as f64, commits.len() as f64),
    );
    out.insert(
        "wal.fsyncs_per_commit",
        ratio(device.syncs as f64, commits.len() as f64),
    );
    let scanned_mb = if records.is_empty() {
        0.0
    } else {
        log_bytes as f64 / 1e6
    };
    out.insert("wal.scan_mb_per_s", ratio(scanned_mb, scan_ns / 1e9));
    out.insert("core.durability.log_commit_us", commit_ns / 1e3);
    out.insert("core.durability.checkpoint_ms", checkpoint_ms);
    out.insert("core.durability.recover_ms", recover_ms);
    // only a cluster applies shipped records; `ClusterSut` overwrites this
    out.insert("core.repl.apply_us_per_record", 0.0);
    Ok(out)
}

impl ServerSut {
    pub fn layer_timings(&self, inputs: &Inputs) -> Res<Readings> {
        layer_timings(&self.server, inputs)
    }
}

impl Inputs {
    pub fn assembled_nodes(&self) -> usize {
        self.assembled_nodes
    }

    pub fn absorb(&mut self, mut from: Inputs) {
        self.nav.append(&mut from.nav);
        self.mle.append(&mut from.mle);
        self.query_all.append(&mut from.query_all);
        self.updates.append(&mut from.updates);
        self.exchanges.append(&mut from.exchanges);
        self.lock_sets.append(&mut from.lock_sets);
        self.assembled_nodes += from.assembled_nodes;
    }
}

impl ClusterSut {
    /// Layer timings at the primary, plus what only a cluster has: wall
    /// time to apply one shipped record, from a serial replay of the feed
    /// onto the epoch's base snapshot (the snapshot decode is timed apart
    /// and taken off).
    pub fn layer_timings(&self, inputs: &Inputs) -> Res<Readings> {
        let mut out = layer_timings(self.cluster.primary(), inputs)?;
        let feed = self.cluster.feed().since(0);
        let base = self.cluster.epoch_base();
        let t0 = Instant::now();
        replay_prefix(base, &[]).map_err(err("replay base"))?;
        let decode = t0.elapsed();
        let t0 = Instant::now();
        replay_prefix(base, &feed).map_err(err("replay feed"))?;
        let replay = t0.elapsed().saturating_sub(decode);
        out.insert(
            "core.repl.apply_us_per_record",
            ratio(replay.as_secs_f64() * 1e6, feed.len() as f64),
        );
        Ok(out)
    }
}
