//! End-to-end sessions: a PDM client talking to the database server over a
//! metered WAN. This is where the paper's three system variants become
//! executable — every user action runs real SQL and every byte crosses the
//! simulated link.
//!
//! The statement path, by what each step is paid for: *per shape* (a
//! generator, an action, the strategy and structure view in force) the
//! session generates, rule-modifies and prints a statement once
//! ([`Session::statement`], [`crate::query::prepared`]); *per statement* it
//! splices the object id into that text and ships it through one metered
//! exchange ([`crate::resilience`]); *per row* it reads the server's shared
//! result by reference into [`ProductNode`]s — the result set itself is
//! never copied.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use pdm_net::{FaultPlan, LinkError, LinkProfile, MeteredChannel, TrafficStats};
use pdm_obs::{
    kinds, Counter, FlightDump, MetricsRegistry, QueryProfile, Recorder, TraceAssembler,
    TraceContext, TraceIdGen, TraceTree, ROOT_GID,
};
use pdm_sql::functions::FunctionRegistry;
use pdm_sql::{Database, ResultSet, Value};

use crate::client::{self, Strategy};
use crate::product::{ObjectId, ProductNode, ProductTree};
use crate::query::modificator::{ModError, Modificator};
use crate::query::prepared::{Prepared, Shape};
use crate::resilience::{DegradationController, RetryPolicy};
use crate::rules::table::RuleTable;
use crate::rules::ActionKind;
use crate::server::PdmServer;
use crate::shared::{SharedServer, SharedServerError};

/// Errors surfaced by session actions.
#[derive(Debug)]
pub enum SessionError {
    Sql(pdm_sql::Error),
    Modification(ModError),
    /// The requested root object does not exist.
    RootNotFound(ObjectId),
    /// The retry budget or deadline ran out without completing the
    /// exchange. `elapsed` is the virtual clock when the session gave up.
    Timeout {
        attempts: u32,
        elapsed: f64,
        /// Flight-recorder dump: the span kind in which the deadline
        /// expired (`"net.exchange"` for link stalls, `"locks.wait"` for
        /// check-out lock waits) plus the most recent recorded events
        /// (empty unless profiling is on).
        context: FlightDump,
    },
    /// The link is in a scheduled outage window lasting (at least) until
    /// the given virtual time, and the retry budget ran out first.
    LinkDown {
        until: f64,
        /// Flight-recorder dump (see [`SessionError::Timeout::context`]).
        context: FlightDump,
    },
    /// Durable server state failed its integrity check: a checksum mismatch
    /// at the given byte offset. Carries expected vs found CRC so the
    /// diagnostic pinpoints the damage.
    CorruptLog {
        offset: usize,
        expected: u32,
        found: u32,
    },
    /// Crash recovery could not rebuild the server (broken version chain,
    /// failed replay, missing checkpoint, ...). The detail string carries
    /// the specific inconsistency.
    RecoveryFailed {
        detail: String,
    },
    /// A read-your-writes wait gave up: the local replica's applied-seq
    /// watermark did not reach the session's last write before the retry
    /// deadline. The context pins `repl.wait_watermark`.
    ReplicaLagTimeout {
        /// The commit seq the session's last write published.
        seq: u64,
        /// The replica's watermark when the session gave up.
        applied: u64,
        /// Virtual seconds spent waiting.
        elapsed: f64,
        /// Flight-recorder dump (see [`SessionError::Timeout::context`]).
        context: FlightDump,
    },
    /// The primary site is inside an outage window and neither waiting it
    /// out nor lease-expiry promotion fit inside the session's deadline.
    /// The context pins `net.exchange` (the write never left the client).
    PrimaryUnavailable {
        /// Virtual time at which the primary is expected back (or at which
        /// the failover lease expires, whichever the coordinator was
        /// waiting on).
        until: f64,
        /// Flight-recorder dump (see [`SessionError::Timeout::context`]).
        context: FlightDump,
    },
    /// The server's admission gate shed this request (or its lock-wait
    /// queue was full): the server is saturated and rejected fast rather
    /// than queuing work it cannot serve in time. Retry after
    /// `retry_after` (virtual) seconds — and only out of a retry budget.
    Overloaded {
        /// Earliest delay (virtual seconds) after which a retry could be
        /// admitted, assuming no competing arrivals.
        retry_after: f64,
    },
    /// The check-out's idempotency token is older than every outcome the
    /// server still retains. The server refused to run it (it may already
    /// have run); the client must find out what it holds and start over
    /// under a fresh token.
    TokenExpired {
        token: u64,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Sql(e) => write!(f, "database error: {e}"),
            SessionError::Modification(e) => write!(f, "query modification failed: {e}"),
            SessionError::RootNotFound(id) => write!(f, "no object with obid {id}"),
            SessionError::Timeout {
                attempts,
                elapsed,
                context,
            } => {
                write!(
                    f,
                    "gave up after {attempts} attempts ({elapsed:.2}s elapsed)"
                )?;
                if !context.expired_in.is_empty() {
                    write!(f, " [deadline expired in {}]", context.expired_in)?;
                }
                Ok(())
            }
            SessionError::LinkDown { until, context } => {
                write!(f, "link down until t={until:.2}s")?;
                if !context.expired_in.is_empty() {
                    write!(f, " [deadline expired in {}]", context.expired_in)?;
                }
                Ok(())
            }
            SessionError::CorruptLog {
                offset,
                expected,
                found,
            } => write!(
                f,
                "corrupt durable log at offset {offset}: expected crc {expected:#010x}, found {found:#010x}"
            ),
            SessionError::RecoveryFailed { detail } => {
                write!(f, "crash recovery failed: {detail}")
            }
            SessionError::ReplicaLagTimeout {
                seq,
                applied,
                elapsed,
                context,
            } => {
                write!(
                    f,
                    "replica lag: watermark {applied} never reached write seq {seq} ({elapsed:.2}s elapsed)"
                )?;
                if !context.expired_in.is_empty() {
                    write!(f, " [deadline expired in {}]", context.expired_in)?;
                }
                Ok(())
            }
            SessionError::PrimaryUnavailable { until, context } => {
                write!(f, "primary unavailable until t={until:.2}s")?;
                if !context.expired_in.is_empty() {
                    write!(f, " [deadline expired in {}]", context.expired_in)?;
                }
                Ok(())
            }
            SessionError::Overloaded { retry_after } => {
                write!(f, "server overloaded; retry after {retry_after:.3}s")
            }
            SessionError::TokenExpired { token } => write!(
                f,
                "idempotency token {token} expired: its outcome is no longer retained"
            ),
        }
    }
}

impl std::error::Error for SessionError {}

impl SessionError {
    /// Classify a final link failure: outages map to [`SessionError::LinkDown`],
    /// everything else to [`SessionError::Timeout`]. Either way the deadline
    /// expired waiting on the network, so the context pins `net.exchange`
    /// and carries the recorder's recent events.
    pub(crate) fn from_link(last: LinkError, attempts: u32, elapsed: f64, obs: &Recorder) -> Self {
        let context = FlightDump::at("net.exchange").with_events(obs);
        match last {
            LinkError::Outage { until, .. } => SessionError::LinkDown { until, context },
            _ => SessionError::Timeout {
                attempts,
                elapsed,
                context,
            },
        }
    }

    /// The flight-recorder context attached to this error, if any.
    pub fn context(&self) -> Option<&FlightDump> {
        match self {
            SessionError::Timeout { context, .. }
            | SessionError::LinkDown { context, .. }
            | SessionError::ReplicaLagTimeout { context, .. }
            | SessionError::PrimaryUnavailable { context, .. } => Some(context),
            _ => None,
        }
    }

    /// Mutable access to the attached context (used by the tracing layer
    /// to splice the assembled causal tree into a failing action's dump).
    pub(crate) fn context_mut(&mut self) -> Option<&mut FlightDump> {
        match self {
            SessionError::Timeout { context, .. }
            | SessionError::LinkDown { context, .. }
            | SessionError::ReplicaLagTimeout { context, .. }
            | SessionError::PrimaryUnavailable { context, .. } => Some(context),
            _ => None,
        }
    }

    /// The variant name, e.g. `"Timeout"` — the outcome label trace trees
    /// and tail samplers key on.
    pub fn kind_name(&self) -> &'static str {
        match self {
            SessionError::Sql(_) => "Sql",
            SessionError::Modification(_) => "Modification",
            SessionError::RootNotFound(_) => "RootNotFound",
            SessionError::Timeout { .. } => "Timeout",
            SessionError::LinkDown { .. } => "LinkDown",
            SessionError::CorruptLog { .. } => "CorruptLog",
            SessionError::RecoveryFailed { .. } => "RecoveryFailed",
            SessionError::ReplicaLagTimeout { .. } => "ReplicaLagTimeout",
            SessionError::PrimaryUnavailable { .. } => "PrimaryUnavailable",
            SessionError::Overloaded { .. } => "Overloaded",
            SessionError::TokenExpired { .. } => "TokenExpired",
        }
    }

    /// Whether this error came from the link (retryable territory) rather
    /// than from SQL processing or a bad request.
    pub fn is_link_failure(&self) -> bool {
        matches!(
            self,
            SessionError::Timeout { .. }
                | SessionError::LinkDown { .. }
                | SessionError::ReplicaLagTimeout { .. }
                | SessionError::PrimaryUnavailable { .. }
        )
    }

    /// Classify a shared-server failure: a check-out lock wait that
    /// exceeded the per-action deadline surfaces as
    /// [`SessionError::Timeout`], exactly like a link deadline — but its
    /// context pins `locks.wait`, so the two are distinguishable.
    pub(crate) fn from_shared(
        e: crate::shared::SharedServerError,
        elapsed: f64,
        obs: &Recorder,
    ) -> Self {
        match e {
            crate::shared::SharedServerError::Sql(e) => SessionError::Sql(e),
            crate::shared::SharedServerError::LockTimeout { waited } => SessionError::Timeout {
                attempts: 1,
                elapsed: elapsed + waited.as_secs_f64(),
                context: FlightDump::at("locks.wait").with_events(obs),
            },
            // A doomed call abandoned at a server blocking point looks the
            // same to the client as a lock timeout, but its context pins
            // the abandon point.
            crate::shared::SharedServerError::DeadlineExpired { waited } => SessionError::Timeout {
                attempts: 1,
                elapsed: elapsed + waited.as_secs_f64(),
                context: FlightDump::at("overload.abandon").with_events(obs),
            },
            // A full lock queue is a saturation signal: surface it as a
            // fast overload rejection, retryable out of the budget.
            crate::shared::SharedServerError::QueueFull { .. } => {
                SessionError::Overloaded { retry_after: 0.1 }
            }
            crate::shared::SharedServerError::TokenExpired { token } => {
                SessionError::TokenExpired { token }
            }
        }
    }
}

impl From<pdm_sql::Error> for SessionError {
    fn from(e: pdm_sql::Error) -> Self {
        SessionError::Sql(e)
    }
}

impl From<crate::durability::RecoveryError> for SessionError {
    fn from(e: crate::durability::RecoveryError) -> Self {
        use crate::durability::RecoveryError;
        match e {
            RecoveryError::CorruptCheckpoint {
                offset,
                expected,
                found,
            } => SessionError::CorruptLog {
                offset,
                expected,
                found,
            },
            other => SessionError::RecoveryFailed {
                detail: other.to_string(),
            },
        }
    }
}

impl From<ModError> for SessionError {
    fn from(e: ModError) -> Self {
        SessionError::Modification(e)
    }
}

pub type SessionResult<T> = Result<T, SessionError>;

/// Who is acting, how, and over which link.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    pub user: String,
    pub strategy: Strategy,
    pub link: LinkProfile,
}

impl SessionConfig {
    pub fn new(user: impl Into<String>, strategy: Strategy, link: LinkProfile) -> Self {
        SessionConfig {
            user: user.into(),
            strategy,
            link,
        }
    }
}

/// Result of a tree-retrieving action.
#[derive(Debug, Clone)]
pub struct ExpandOutcome {
    pub tree: ProductTree,
    /// Traffic of this action only.
    pub stats: TrafficStats,
    /// Whether the action was served by the degraded (level-batched
    /// navigational) path instead of the configured strategy — see
    /// [`DegradationController`].
    pub degraded: bool,
}

/// Result of the set-oriented Query action (no structure information).
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    pub nodes: Vec<ProductNode>,
    pub stats: TrafficStats,
}

/// Cross-site tracing state of an action owner — a [`Session`], or the
/// routed session over two of them (DESIGN.md §15): the deterministic id
/// stream, the owner's site label in assembled trees, and the tree of its
/// most recent action. The context of the action in flight is not here: it
/// lives in the recorder, where everything the action is handed to finds it.
pub(crate) struct Tracing {
    gen: TraceIdGen,
    site: String,
    last: Option<TraceTree>,
}

impl Tracing {
    pub(crate) fn new(seed: u64, site: impl Into<String>) -> Self {
        Tracing {
            gen: TraceIdGen::new(seed),
            site: site.into(),
            last: None,
        }
    }

    pub(crate) fn last_tree(&self) -> Option<&TraceTree> {
        self.last.as_ref()
    }

    /// Open a traced action on `obs`: a fresh timeline under the next
    /// trace id — the one place an action becomes a traced one.
    pub(crate) fn open(&mut self, obs: &Recorder) {
        obs.begin_action();
        obs.set_context(Some(TraceContext::new(self.gen.next_id(), ROOT_GID)));
    }

    /// Close the action opened on `obs`: assemble everything recorded since
    /// into its causal tree and remember it. The root total reconciles
    /// bit-exactly with the virtual time the action took — both are the
    /// same running sum of the same exact `v_s` clock-advance amounts in
    /// the same order. A failure that carries a flight dump gets the tree
    /// spliced in: a timeout arrives with its own causal tree up to the
    /// failure point.
    pub(crate) fn close<T>(
        &mut self,
        obs: &Recorder,
        name: &'static str,
        mut result: SessionResult<T>,
    ) -> SessionResult<T> {
        let Some(ctx) = obs.context() else {
            return result;
        };
        obs.set_context(None);
        let mut asm = TraceAssembler::new(ctx.trace_id, name, self.site.clone());
        asm.add_recorder_block(&self.site, &obs.spans());
        asm.set_outcome(match &result {
            Ok(_) => "ok",
            Err(e) => e.kind_name(),
        });
        let tree = asm.finish();
        if let Err(e) = &mut result {
            if let Some(dump) = e.context_mut() {
                dump.trace = Some(Box::new(tree.clone()));
            }
        }
        self.last = Some(tree);
        result
    }
}

/// A PDM client session bound to a server and a WAN profile.
pub struct Session {
    server: PdmServer,
    channel: MeteredChannel,
    config: SessionConfig,
    rules: RuleTable,
    funcs: FunctionRegistry,
    view_names: HashSet<String>,
    /// Link table of the hierarchical view being navigated ("link" = the
    /// physical product structure; alternative views are additional link
    /// tables over the same objects, §1 footnote 1).
    structure_table: String,
    /// The installed fault plan, kept so [`Session::set_link`] can re-apply
    /// it to the rebuilt channel.
    fault_plan: Option<FaultPlan>,
    retry: RetryPolicy,
    /// Leaky-bucket retry budget (None — the default — retries are
    /// limited only by [`RetryPolicy`], exactly the pre-budget behaviour).
    retry_budget: Option<crate::overload::RetryBudget>,
    /// Admission priority override: `None` uses the per-dispatch default
    /// (interactive for queries, checkout for writes/check-outs); batch
    /// sessions set `Some(Priority::Batch)` so all their work sheds first.
    priority_override: Option<crate::overload::Priority>,
    degradation: DegradationController,
    /// Span recorder, disabled (free no-ops) unless
    /// [`Session::enable_profiling`] turns it on or a routed session shares
    /// its own. The channel holds a clone of the same recorder for its
    /// network spans.
    obs: Recorder,
    /// Cross-site tracing, `None` (zero cost, zero wire bytes) unless
    /// [`Session::enable_tracing`] turns it on.
    tracing: Option<Tracing>,
    /// The statements this session has generated, one per shape and action
    /// (see [`Session::statement`]). Emptied by the two setters that change
    /// what a shape generates, [`Session::set_strategy`] and
    /// [`Session::set_structure_view`], and by [`Session::rebind`], which
    /// changes the view names; rules and user are fixed at
    /// [`Session::attach`].
    prepared: HashMap<(Shape, ActionKind), Prepared>,
    /// `session.rows_kept` / `session.rows_filtered_late`, resolved on the
    /// first late-filtered statement rather than at attach: a registry
    /// lookup registers the name, and a server that only ever saw early
    /// sessions reports neither.
    late_rows: Option<(Counter, Counter)>,
}

impl Session {
    /// Open a session on a populated database (a fresh private server —
    /// the single-client setup every PR-0/PR-1 bench uses).
    pub fn new(db: Database, config: SessionConfig, rules: RuleTable) -> Self {
        Session::attach(PdmServer::new(db), config, rules)
    }

    /// Open a session on an EXISTING server. This is the paper's worldwide
    /// deployment shape: any number of sessions — across threads — attach
    /// to one shared server and contend for its storage, its check-out
    /// lock table, and its cross-session result cache.
    pub fn attach(server: PdmServer, config: SessionConfig, rules: RuleTable) -> Self {
        let view_names = server.view_names();
        Session {
            channel: MeteredChannel::new(config.link),
            server,
            config,
            rules,
            funcs: crate::functions::client_registry(),
            view_names,
            structure_table: crate::query::T_LINK.to_string(),
            fault_plan: None,
            retry: RetryPolicy::none(),
            retry_budget: None,
            priority_override: None,
            degradation: DegradationController::default(),
            obs: Recorder::disabled(),
            tracing: None,
            prepared: HashMap::new(),
            late_rows: None,
        }
    }

    /// Turn on end-to-end span recording for this session: every action
    /// records a hierarchical span tree — rule lookup, query modification,
    /// parse, engine operators, cache probe, lock wait, WAL append, and
    /// network exchange — readable via [`Session::last_profile`]. With
    /// profiling off (the default), every recording call is a free no-op
    /// and results are byte-identical.
    pub fn enable_profiling(&mut self) {
        self.attach_recorder(Recorder::new());
    }

    /// Record into `obs` from here on — a recorder of this session's own
    /// ([`Session::enable_profiling`]), or the one a routed session shares
    /// between its read and its write session.
    pub(crate) fn attach_recorder(&mut self, obs: Recorder) {
        self.channel.attach_obs(obs.clone());
        self.obs = obs;
    }

    /// The session's span recorder (disabled unless
    /// [`Session::enable_profiling`] was called).
    pub fn recorder(&self) -> &Recorder {
        &self.obs
    }

    /// The server-wide metrics registry this session reports into: it
    /// folds its per-action traffic (`net.*`) there.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        self.server.shared().metrics()
    }

    /// Span tree of the most recent action (`None` with profiling off or
    /// before the first action).
    pub fn last_profile(&self) -> Option<QueryProfile> {
        QueryProfile::from_recorder(&self.obs)
    }

    /// Turn on cross-site causal tracing (implies profiling): every action
    /// draws a deterministic trace id from `seed`, piggybacks a
    /// [`TraceContext`] on each exchange ([`TraceContext::WIRE_BYTES`]
    /// request bytes — the volume model sees the real wire cost), and
    /// assembles its spans into a [`TraceTree`] readable via
    /// [`Session::last_trace`]. Off by default: zero work, zero wire bytes,
    /// results byte-identical.
    pub fn enable_tracing(&mut self, seed: u64) {
        if !self.obs.is_enabled() {
            self.enable_profiling();
        }
        self.tracing = Some(Tracing::new(seed, "client"));
    }

    /// The causal tree of the most recent traced action (`None` with
    /// tracing off or before the first action).
    pub fn last_trace(&self) -> Option<&TraceTree> {
        self.tracing.as_ref().and_then(Tracing::last_tree)
    }

    /// Fold the channel's traffic counters since the last meter reset into
    /// the server-wide registry. This is the single writer of the `net.*`
    /// metric family: called once per completed metering segment, so
    /// retransmits and volumes are never double-counted.
    pub(crate) fn fold_traffic(&self) {
        pdm_net::record_traffic(self.metrics(), self.channel.stats());
    }

    /// Install a fault plan on the link: exchanges can now fail and are
    /// retried. A freshly installed plan also upgrades a no-retry policy to
    /// [`RetryPolicy::default_wan`] (override afterwards with
    /// [`Session::set_retry_policy`] if needed). A [`FaultPlan::none()`]
    /// plan reproduces the plan-less numbers exactly.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.channel.set_fault_plan(plan.clone());
        self.fault_plan = Some(plan);
        if self.retry == RetryPolicy::none() {
            self.retry = RetryPolicy::default_wan();
        }
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// Install a client-side retry budget: retries (link-failure backoffs)
    /// are allowed only while the leaky bucket has tokens, so this
    /// session's retries converge to the budget's earn ratio of its
    /// requests. Without one (the default), retries are bounded only by
    /// the [`RetryPolicy`].
    pub fn enable_retry_budget(&mut self, budget: crate::overload::RetryBudget) {
        self.retry_budget = Some(budget);
    }

    /// The installed retry budget, if any (drivers that retry
    /// [`SessionError::Overloaded`] rejections themselves draw from the
    /// same bucket).
    pub fn retry_budget_mut(&mut self) -> Option<&mut crate::overload::RetryBudget> {
        self.retry_budget.as_mut()
    }

    /// Override the admission priority class for every dispatch of this
    /// session (batch/rollup sessions mark themselves
    /// [`crate::overload::Priority::Batch`] so they shed first).
    pub fn set_priority_class(&mut self, prio: crate::overload::Priority) {
        self.priority_override = Some(prio);
    }

    /// Consult the server's admission gate (if one is installed) for one
    /// dispatch of class `default_prio`. `Ok(None)` = no gate, admitted by
    /// construction; `Ok(Some(permit))` holds a concurrency slot for the
    /// dispatch; `Err(Overloaded)` = shed, with a `retry_after` hint.
    pub(crate) fn admit(
        &mut self,
        default_prio: crate::overload::Priority,
    ) -> SessionResult<Option<crate::overload::Permit>> {
        let Some(gate) = self.server.shared().overload_gate() else {
            return Ok(None);
        };
        let prio = self.priority_override.unwrap_or(default_prio);
        let span = self.obs.span(kinds::ADMIT, prio.label());
        match gate.admit(prio) {
            Ok(permit) => {
                span.set_detail("admitted");
                Ok(Some(permit))
            }
            Err(rejection) => {
                span.set_detail("shed");
                drop(span);
                let shed = self.obs.span(kinds::OVERLOAD_SHED, prio.label());
                shed.set_detail("admission");
                drop(shed);
                Err(SessionError::Overloaded {
                    retry_after: rejection.retry_after,
                })
            }
        }
    }

    pub fn retry_policy(&self) -> &RetryPolicy {
        &self.retry
    }

    /// The circuit breaker guarding the recursive strategy.
    pub fn degradation(&self) -> &DegradationController {
        &self.degradation
    }

    pub fn degradation_mut(&mut self) -> &mut DegradationController {
        &mut self.degradation
    }

    /// Navigate an alternative hierarchical view: expansions traverse the
    /// given link table over the same objects. Relation rules apply per
    /// table name, so a view can carry its own access rules.
    pub fn set_structure_view(&mut self, link_table: impl Into<String>) {
        self.structure_table = link_table.into().to_ascii_lowercase();
        self.prepared.clear();
    }

    pub fn server(&self) -> &PdmServer {
        &self.server
    }

    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    pub fn rules(&self) -> &RuleTable {
        &self.rules
    }

    pub fn set_strategy(&mut self, strategy: Strategy) {
        self.config.strategy = strategy;
        self.prepared.clear();
    }

    /// Re-point the session at a different server — what
    /// [`Session::set_link`] is for the link. Everything the user set
    /// (fault plan, retry policy and budget, priority class, strategy,
    /// structure view, degradation state, recorder, tracing) stays in
    /// force; what was derived from the old server (its view names, the
    /// statements prepared against them, the late-filter counters in its
    /// registry, the channel to it) is built again for the new one.
    pub(crate) fn rebind(&mut self, server: PdmServer) {
        self.view_names = server.view_names();
        self.server = server;
        self.prepared.clear();
        self.late_rows = None;
        self.set_link(self.config.link);
    }

    /// Re-point the session at a different WAN profile (fresh channel and
    /// metering). Lets benches sweep network settings without rebuilding
    /// the database.
    pub fn set_link(&mut self, link: LinkProfile) {
        self.config.link = link;
        self.channel = MeteredChannel::new(link);
        if let Some(plan) = &self.fault_plan {
            self.channel.set_fault_plan(plan.clone());
        }
        self.channel.attach_obs(self.obs.clone());
    }

    /// Accumulated traffic since the last reset.
    pub fn stats(&self) -> &TrafficStats {
        self.channel.stats()
    }

    /// Virtual seconds elapsed since the last reset.
    pub fn elapsed(&self) -> f64 {
        self.channel.elapsed()
    }

    /// Clear metering before a new measured action.
    pub fn reset_metering(&mut self) {
        self.channel.reset();
    }

    /// The SQL text of the `shape` statement for `ids` under `action`, as
    /// this session ships it — the one place a session's statements come
    /// from. The first use of a shape and action generates, rule-modifies
    /// (per the strategy) and prints it (`Prepared::new`); every later
    /// use splices the ids into that text.
    pub fn statement(
        &mut self,
        shape: Shape,
        action: ActionKind,
        ids: &[ObjectId],
    ) -> SessionResult<String> {
        if let Some(prepared) = self.prepared.get(&(shape, action)) {
            return Ok(prepared.bind(ids));
        }
        let prepared = Prepared::new(
            shape,
            &self.structure_table,
            &Modificator::new(&self.rules, &self.config.user, action, &self.view_names),
            self.config.strategy.early_rules(),
            &self.obs,
        )?;
        let sql = prepared.bind(ids);
        self.prepared.insert((shape, action), prepared);
        Ok(sql)
    }

    /// One metered exchange with this session's server over its channel,
    /// under its retry policy and budget (see [`crate::resilience::exchange`]).
    /// `serve` gets the shared server, the deadline to hand it, and the
    /// session's recorder.
    pub(crate) fn exchange<T>(
        &mut self,
        request_bytes: usize,
        mut serve: impl FnMut(
            &SharedServer,
            Option<Duration>,
            &Recorder,
        ) -> Result<(T, usize), SharedServerError>,
    ) -> SessionResult<T> {
        let (server, obs) = (self.server.shared(), &self.obs);
        crate::resilience::exchange(
            &mut self.channel,
            &self.retry,
            self.retry_budget.as_mut(),
            request_bytes,
            |deadline| serve(server, deadline, obs),
        )
    }

    /// Ship a query over the WAN and return its result (request = SQL text,
    /// response = result rows). Queries are idempotent reads, so on a faulty
    /// link any failure — even a lost response, after which the server *did*
    /// run the query — is safe to replay.
    /// The rows are the server's own shared result, not a copy.
    pub(crate) fn metered_query(&mut self, sql: &str) -> SessionResult<Arc<ResultSet>> {
        let _permit = self.admit(crate::overload::Priority::Interactive)?;
        self.exchange(sql.len(), |server, deadline, obs| {
            let rs = server.query_cached_deadline_obs(sql, deadline, obs)?;
            let bytes = rs.wire_size();
            Ok((rs, bytes))
        })
    }

    /// Fetch the root object without metering: the paper's footnote 4 —
    /// "the root object is considered to be already at the client".
    pub fn fetch_root_cached(&mut self, root: ObjectId) -> SessionResult<ProductNode> {
        let sql = self.statement(Shape::FetchNode, ActionKind::Access, &[root])?;
        let rs = self.server.query_cached(&sql)?;
        let row = rs.rows.first().ok_or(SessionError::RootNotFound(root))?;
        let attrs = client::row_attrs(&rs, row);
        Ok(node_from_attrs(attrs, None))
    }

    // ---------------------------------------------------------------------
    // Actions
    // ---------------------------------------------------------------------

    /// Run `body` as one measured user action named `name`: fresh metering
    /// and root span before it; traffic folded into the registry and the
    /// causal tree assembled after it, whether it succeeded or not. Each
    /// action also credits the retry budget (a fresh request earns its
    /// fraction of a retry token).
    ///
    /// A recorder that already carries a context belongs to a routed action
    /// in flight: this action is one part of that one. It adds its spans to
    /// what the cluster recorded before it and leaves opening the timeline,
    /// assembling the tree and closing to the routed session that owns it.
    pub(crate) fn action<T>(
        &mut self,
        name: &'static str,
        body: impl FnOnce(&mut Session) -> SessionResult<T>,
    ) -> SessionResult<T> {
        if let Some(b) = &mut self.retry_budget {
            b.on_request();
        }
        self.reset_metering();
        let owner = self.obs.context().is_none();
        if owner {
            match &mut self.tracing {
                Some(t) => t.open(&self.obs),
                None => self.obs.begin_action(),
            }
        }
        let span = self.obs.span(kinds::ACTION, name);
        let result = body(self);
        drop(span);
        self.fold_traffic();
        match &mut self.tracing {
            Some(t) if owner => t.close(&self.obs, name, result),
            _ => result,
        }
    }

    /// A tree holding just `root`, fetched unmetered.
    pub(crate) fn rooted_tree(&mut self, root: ObjectId) -> SessionResult<ProductTree> {
        let mut tree = ProductTree::new();
        tree.insert(self.fetch_root_cached(root)?);
        Ok(tree)
    }

    /// Single-level expand: the direct children of `parent`.
    pub fn single_level_expand(&mut self, parent: ObjectId) -> SessionResult<ExpandOutcome> {
        self.action("single_level_expand", |s| {
            let mut tree = s.rooted_tree(parent)?;
            s.expand_one_level(parent, &mut tree, ActionKind::Expand)?;
            Ok(ExpandOutcome {
                tree,
                stats: s.channel.stats().clone(),
                degraded: false,
            })
        })
    }

    /// Multi-level expand of the subtree rooted at `root`, using the
    /// session's strategy.
    ///
    /// On a faulty link the recursive strategy is guarded by the
    /// [`DegradationController`]: when the single big recursive query keeps
    /// failing (it is the most exposed exchange — one timeout loses the
    /// whole action), the session degrades to the level-batched
    /// navigational expansion, whose smaller per-level exchanges ride out
    /// loss with cheap retries. The outcome is flagged `degraded`.
    pub fn multi_level_expand(&mut self, root: ObjectId) -> SessionResult<ExpandOutcome> {
        self.action("multi_level_expand", |s| s.multi_level_expand_inner(root))
    }

    fn multi_level_expand_inner(&mut self, root: ObjectId) -> SessionResult<ExpandOutcome> {
        let mut tree = self.rooted_tree(root)?;
        let mut degraded = false;

        match self.config.strategy {
            Strategy::LateEval | Strategy::EarlyEval => {
                // Navigational: touch every visible node, including leaves
                // (their childlessness must be discovered), one query each.
                let mut queue: VecDeque<ObjectId> = VecDeque::new();
                queue.push_back(root);
                while let Some(parent) = queue.pop_front() {
                    let children =
                        self.expand_one_level(parent, &mut tree, ActionKind::MultiLevelExpand)?;
                    queue.extend(children);
                }
            }
            Strategy::Recursive => {
                if self.degradation.should_degrade() {
                    self.batched_levels(root, &mut tree)?;
                    degraded = true;
                } else {
                    match self.recursive_expand_into(root, &mut tree) {
                        Ok(()) => self.degradation.record_success(),
                        Err(e) if e.is_link_failure() => {
                            // The failed attempts' wait time stays on the
                            // meter; serve this action degraded.
                            self.degradation.record_failure();
                            self.batched_levels(root, &mut tree)?;
                            degraded = true;
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
        }
        Ok(ExpandOutcome {
            tree,
            stats: self.channel.stats().clone(),
            degraded,
        })
    }

    /// The recursive strategy's single big query, inserting all visible
    /// descendants of `root` into `tree`.
    fn recursive_expand_into(
        &mut self,
        root: ObjectId,
        tree: &mut ProductTree,
    ) -> SessionResult<()> {
        let shape = Shape::Mle {
            include_root: false,
        };
        let sql = self.statement(shape, ActionKind::MultiLevelExpand, &[root])?;
        let rs = self.metered_query(&sql)?;
        insert_rows(tree, &rs);
        Ok(())
    }

    /// Level-batched multi-level expand: one query per tree *level*, using
    /// an IN-list over the whole frontier — the data-shipping middle ground
    /// between per-node navigation (one query per node) and recursion (one
    /// query total). Round trips shrink from `1 + n_v` to `depth + 1`; the
    /// request size grows with the frontier, exercising the §5.4 multi-
    /// packet effect. Rules follow the session strategy: early strategies
    /// inject them, late evaluation filters after transfer.
    pub fn multi_level_expand_batched(&mut self, root: ObjectId) -> SessionResult<ExpandOutcome> {
        self.action("multi_level_expand_batched", |s| {
            let mut tree = s.rooted_tree(root)?;
            s.batched_levels(root, &mut tree)?;
            Ok(ExpandOutcome {
                tree,
                stats: s.channel.stats().clone(),
                degraded: false,
            })
        })
    }

    /// The level-batched frontier loop shared by
    /// [`Session::multi_level_expand_batched`] and the degraded recursive
    /// path: one IN-list query per tree level.
    fn batched_levels(&mut self, root: ObjectId, tree: &mut ProductTree) -> SessionResult<()> {
        let view = self.structure_table.clone();
        let mut frontier: Vec<ObjectId> = vec![root];
        while !frontier.is_empty() {
            let nodes = self.retrieve(
                Shape::ExpandMany,
                &frontier,
                ActionKind::MultiLevelExpand,
                &[&view, crate::query::T_ASSY, crate::query::T_COMP],
                "batched_level",
                None,
            )?;
            frontier = insert_all(tree, nodes);
        }
        Ok(())
    }

    /// One standalone metered DML statement as its own measured action
    /// (retried per the session's policy like any other exchange). The
    /// write path replicated clusters forward to the primary. Returns the
    /// rows the statement inserted, updated or deleted.
    pub fn execute_update(&mut self, sql: &str) -> SessionResult<usize> {
        self.action("execute_update", |s| s.metered_update(sql))
    }

    /// The set-oriented Query action: all (visible) nodes of the product,
    /// without structure information, in one query.
    pub fn query_all(&mut self, root: ObjectId) -> SessionResult<QueryOutcome> {
        self.action("query_all", |s| {
            let nodes = s.retrieve(
                Shape::QueryAll,
                &[root],
                ActionKind::Query,
                &[crate::query::T_ASSY, crate::query::T_COMP],
                "query_all",
                None,
            )?;
            Ok(QueryOutcome {
                nodes,
                stats: s.channel.stats().clone(),
            })
        })
    }

    /// Issue one expand query for `parent`, insert permitted children into
    /// `tree`, and return their ids (the nodes the traversal recurses into).
    fn expand_one_level(
        &mut self,
        parent: ObjectId,
        tree: &mut ProductTree,
        action: ActionKind,
    ) -> SessionResult<Vec<ObjectId>> {
        let view = self.structure_table.clone();
        let nodes = self.retrieve(
            Shape::Expand,
            &[parent],
            action,
            &[&view, crate::query::T_ASSY, crate::query::T_COMP],
            "expand",
            Some(parent),
        )?;
        Ok(insert_all(tree, nodes))
    }

    /// The one navigational retrieval every non-recursive action is built
    /// from: ship the `shape` statement for `ids` (rules spliced in under
    /// the early strategies) and turn the transferred rows into nodes under
    /// `parent`. Late evaluation filters after transfer — the row rules of
    /// `tables`, evaluated on the transferred attributes — and accounts the
    /// paper's γ split: how many rows the client kept vs threw away after
    /// paying for their transfer.
    pub(crate) fn retrieve(
        &mut self,
        shape: Shape,
        ids: &[ObjectId],
        action: ActionKind,
        tables: &[&str],
        label: &'static str,
        parent: Option<ObjectId>,
    ) -> SessionResult<Vec<ProductNode>> {
        let sql = self.statement(shape, action, ids)?;
        let rs = self.metered_query(&sql)?;

        // Early strategies already paid for the rules at the server.
        let groups = (!self.config.strategy.early_rules()).then(|| {
            let _lookup = self.obs.span(kinds::RULE_LOOKUP, "permission_groups");
            client::permission_groups(&self.rules, &self.config.user, action, tables)
        });
        let late = groups
            .as_ref()
            .map(|_| self.obs.span(kinds::LATE_FILTER, label));
        let nodes: Vec<ProductNode> = rs
            .rows
            .iter()
            .map(|row| client::row_attrs(&rs, row))
            .filter(|attrs| {
                groups
                    .as_ref()
                    .is_none_or(|groups| client::permitted(attrs, groups, &self.funcs))
            })
            .map(|attrs| node_from_attrs(attrs, parent))
            .collect();
        if let Some(span) = late {
            let (transferred, kept) = (rs.len() as u64, nodes.len() as u64);
            span.set_rows(transferred, kept);
            drop(span);
            let metrics = self.server.shared().metrics();
            let (rows_kept, rows_filtered) = self.late_rows.get_or_insert_with(|| {
                (
                    metrics.counter("session.rows_kept"),
                    metrics.counter("session.rows_filtered_late"),
                )
            });
            rows_kept.add(kept);
            rows_filtered.add(transferred - kept);
        }
        Ok(nodes)
    }
}

/// Move `nodes` into `tree`, returning their ids in order.
fn insert_all(tree: &mut ProductTree, nodes: Vec<ProductNode>) -> Vec<ObjectId> {
    nodes
        .into_iter()
        .map(|node| {
            let id = node.obid;
            tree.insert(node);
            id
        })
        .collect()
}

// Sessions are moved into worker threads of the shared-server harness.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Session>();
};

/// Insert every row of a recursive result (which carries each node's
/// `parent`) into `tree`.
pub(crate) fn insert_rows(tree: &mut ProductTree, rs: &ResultSet) {
    for row in &rs.rows {
        tree.insert(node_from_attrs(client::row_attrs(rs, row), None));
    }
}

/// Interpret a homogenized result row as a product node.
pub(crate) fn node_from_attrs(
    attrs: HashMap<String, Value>,
    parent: Option<ObjectId>,
) -> ProductNode {
    let obid = attrs.get("obid").and_then(as_id).unwrap_or_default();
    let type_name = match attrs.get("type") {
        Some(Value::Text(t)) => t.clone(),
        _ => String::new(),
    };
    let name = match attrs.get("name") {
        Some(Value::Text(n)) => n.clone(),
        _ => String::new(),
    };
    let parent = parent.or_else(|| attrs.get("parent").and_then(as_id));
    ProductNode {
        obid,
        parent,
        type_name,
        name,
        attrs,
    }
}

fn as_id(v: &Value) -> Option<ObjectId> {
    match v {
        Value::Int(i) => Some(*i),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::visibility_rules;
    use pdm_workload::{build_database, TreeSpec};

    fn session(strategy: Strategy, gamma: f64) -> Session {
        let spec = TreeSpec::new(3, 5, gamma).with_node_size(256);
        let (db, _) = build_database(&spec).unwrap();
        Session::new(
            db,
            SessionConfig::new("scott", strategy, LinkProfile::wan_256()),
            visibility_rules(),
        )
    }

    #[test]
    fn all_three_strategies_return_same_tree() {
        // γβ = 3 exactly (deterministic visibility): all strategies must
        // agree on the visible tree.
        let mut late = session(Strategy::LateEval, 0.6);
        let mut early = session(Strategy::EarlyEval, 0.6);
        let mut rec = session(Strategy::Recursive, 0.6);

        let t1 = late.multi_level_expand(1).unwrap();
        let t2 = early.multi_level_expand(1).unwrap();
        let t3 = rec.multi_level_expand(1).unwrap();

        let ids = |o: &ExpandOutcome| o.tree.node_ids().collect::<Vec<_>>();
        assert_eq!(ids(&t1), ids(&t2));
        assert_eq!(ids(&t1), ids(&t3));
        // visible: root + 3 + 9 + 27
        assert_eq!(t1.tree.len(), 1 + 3 + 9 + 27);
        assert_eq!(t1.tree.reachable_from_root(), t1.tree.len());
    }

    #[test]
    fn query_counts_match_the_cost_model() {
        // Navigational MLE touches root + every visible node: 1 + 39.
        let mut late = session(Strategy::LateEval, 0.6);
        let out = late.multi_level_expand(1).unwrap();
        assert_eq!(out.stats.queries, 40);
        assert_eq!(out.stats.communications, 80);

        // Recursive MLE: exactly one query, two communications.
        let mut rec = session(Strategy::Recursive, 0.6);
        let out = rec.multi_level_expand(1).unwrap();
        assert_eq!(out.stats.queries, 1);
        assert_eq!(out.stats.communications, 2);
    }

    #[test]
    fn early_eval_transfers_less_than_late() {
        let mut late = session(Strategy::LateEval, 0.6);
        let mut early = session(Strategy::EarlyEval, 0.6);
        let l = late.multi_level_expand(1).unwrap();
        let e = early.multi_level_expand(1).unwrap();
        assert_eq!(l.tree.len(), e.tree.len());
        assert!(
            e.stats.response_payload_bytes < l.stats.response_payload_bytes,
            "early {} vs late {}",
            e.stats.response_payload_bytes,
            l.stats.response_payload_bytes
        );
        // but the same number of queries — early evaluation alone does not
        // reduce round trips (§4.2's conclusion)
        assert_eq!(l.stats.queries, e.stats.queries);
    }

    #[test]
    fn recursive_beats_navigational_response_time() {
        let mut late = session(Strategy::LateEval, 0.6);
        let mut rec = session(Strategy::Recursive, 0.6);
        let l = late.multi_level_expand(1).unwrap();
        let r = rec.multi_level_expand(1).unwrap();
        let saving = 1.0 - r.stats.response_time() / l.stats.response_time();
        assert!(saving > 0.9, "saving was {saving}");
    }

    #[test]
    fn query_all_respects_visibility() {
        let mut late = session(Strategy::LateEval, 0.6);
        let mut early = session(Strategy::EarlyEval, 0.6);
        let l = late.query_all(1).unwrap();
        let e = early.query_all(1).unwrap();
        // both see the 39 visible non-root nodes
        assert_eq!(l.nodes.len(), 39);
        assert_eq!(e.nodes.len(), 39);
        // late shipped all 155 non-root nodes, early only 39
        assert!(l.stats.response_payload_bytes > 3 * e.stats.response_payload_bytes);
        // both were single queries
        assert_eq!(l.stats.queries, 1);
        assert_eq!(e.stats.queries, 1);
    }

    #[test]
    fn single_level_expand_one_query() {
        let mut s = session(Strategy::EarlyEval, 0.6);
        let out = s.single_level_expand(1).unwrap();
        assert_eq!(out.stats.queries, 1);
        assert_eq!(out.tree.len(), 1 + 3); // root + visible children
    }

    /// A standalone statement reports the rows it inserted, updated or
    /// deleted, and 0 for DDL.
    #[test]
    fn execute_update_returns_the_rows_affected() {
        let mut s = session(Strategy::EarlyEval, 0.6);
        assert_eq!(
            s.execute_update("CREATE TABLE note (id INTEGER)").unwrap(),
            0
        );
        assert_eq!(
            s.execute_update("INSERT INTO note VALUES (1), (2), (3)")
                .unwrap(),
            3
        );
        assert_eq!(
            s.execute_update("DELETE FROM note WHERE id <= 2").unwrap(),
            2
        );
        assert_eq!(s.execute_update("UPDATE note SET id = 4").unwrap(), 1);
    }

    #[test]
    fn unknown_root_is_reported() {
        let mut s = session(Strategy::Recursive, 1.0);
        match s.multi_level_expand(999_999) {
            Err(SessionError::RootNotFound(999_999)) => {}
            other => panic!("expected RootNotFound, got {other:?}"),
        }
    }

    #[test]
    fn gamma_one_everything_transferred_everywhere() {
        let mut late = session(Strategy::LateEval, 1.0);
        let mut rec = session(Strategy::Recursive, 1.0);
        let l = late.multi_level_expand(1).unwrap();
        let r = rec.multi_level_expand(1).unwrap();
        assert_eq!(l.tree.len(), 1 + 5 + 25 + 125);
        assert_eq!(r.tree.len(), l.tree.len());
        // with γ=1 early==late volumes; recursive still wins on latency
        assert!(r.stats.latency_time < l.stats.latency_time / 10.0);
    }
}
