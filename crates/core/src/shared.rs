//! The shared, concurrently queryable PDM server.
//!
//! The paper's deployment (§1, Fig. 1) is many worldwide clients against
//! ONE central PDM database. [`SharedServer`] is that central object: every
//! [`crate::Session`] holds an `Arc<SharedServer>`, reads run lock-free on
//! immutable storage snapshots ([`pdm_sql::SharedDatabase`]), and the
//! server adds the three pieces of cross-session state a real PDM server
//! needs:
//!
//! * a **check-out lock table** (§6 semantics): conflicting concurrent
//!   check-outs of the same object serialize — an in-flight check-out makes
//!   competitors *wait* (bounded by the caller's deadline), a completed one
//!   makes them *refuse*, and check-in releases the entry;
//! * a **cross-session query-result cache** keyed by canonical SQL text +
//!   storage version. Any DML bumps the version (the cache epoch), so a
//!   stale read is impossible by construction — a cached result is only
//!   returned while the storage it was computed from is still current.
//!   A request is looked up by its text as sent before it is parsed, so a
//!   repeated statement in canonical spelling — every statement a session
//!   generates — costs one hash probe
//!   ([`SharedServer::query_cached_deadline_obs`]);
//! * an **idempotency log** for failure-atomic check-outs (PR 1), shared
//!   so tokens are unique across sessions and bounded to the
//!   [`RETAINED_TOKENS`] most recent outcomes (an older token fails closed
//!   rather than executing twice), plus an optional **operation journal**
//!   the deterministic concurrency tests replay.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use pdm_obs::{kinds, Counter, Histogram, MetricsRegistry, Recorder};
use pdm_sql::{Database, ExecOutcome, ResultSet, SharedDatabase, Statement};

use crate::durability::{Durability, DurabilityConfig};
use crate::overload::{OverloadConfig, OverloadGate};
use crate::product::ObjectId;
use crate::replay::{ReplayState, TokenLog, TokenStatus};
use crate::server::{id_list, split_ids, CheckoutProcedureResult};

/// Lock a mutex, treating poison as "the panicking thread is gone, the data
/// is still consistent" (every critical section here is short and
/// non-panicking in release paths).
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Errors surfaced by the shared server itself (the session layer maps
/// these onto [`crate::SessionError`]).
#[derive(Debug)]
pub enum SharedServerError {
    Sql(pdm_sql::Error),
    /// A conflicting check-out was in flight and the lock wait exceeded the
    /// caller's deadline.
    LockTimeout {
        waited: Duration,
    },
    /// The bounded lock wait queue is at capacity — the server sheds the
    /// waiter instead of queuing unboundedly (DESIGN.md §14).
    QueueFull {
        depth: usize,
    },
    /// The caller's propagated deadline was already spent when the work
    /// reached this blocking point; the doomed work was abandoned instead
    /// of completed uselessly.
    DeadlineExpired {
        waited: Duration,
    },
    /// The idempotency token is older than every retained outcome while the
    /// log is full: it may already have executed, so the call fails closed
    /// instead of executing (possibly a second time).
    TokenExpired {
        token: u64,
    },
}

impl std::fmt::Display for SharedServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SharedServerError::Sql(e) => write!(f, "database error: {e}"),
            SharedServerError::LockTimeout { waited } => {
                write!(f, "lock wait timed out after {waited:?}")
            }
            SharedServerError::QueueFull { depth } => {
                write!(f, "lock wait queue full ({depth} waiters)")
            }
            SharedServerError::DeadlineExpired { waited } => {
                write!(f, "deadline expired after {waited:?}; work abandoned")
            }
            SharedServerError::TokenExpired { token } => {
                write!(
                    f,
                    "idempotency token {token} is older than the retained outcomes"
                )
            }
        }
    }
}

impl std::error::Error for SharedServerError {}

impl From<pdm_sql::Error> for SharedServerError {
    fn from(e: pdm_sql::Error) -> Self {
        SharedServerError::Sql(e)
    }
}

/// The error of one of the server's own deadline-less calls (recovery
/// sweep, check-in), where only [`SharedServerError::Sql`] can occur.
fn sql_error(e: SharedServerError) -> pdm_sql::Error {
    match e {
        SharedServerError::Sql(e) => e,
        other => pdm_sql::Error::Eval(other.to_string()),
    }
}

// ---------------------------------------------------------------------------
// Lock table
// ---------------------------------------------------------------------------

/// State of one object's check-out lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LockState {
    /// A check-out holding this object is mid-procedure; competitors wait.
    InFlight(u64),
    /// A completed check-out holds this object until check-in; competitors
    /// refuse (the paper's ∀rows condition).
    Held(u64),
}

/// Outcome of an all-or-nothing in-flight acquisition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Acquire {
    /// All objects marked in-flight for this token.
    Granted,
    /// At least one object is held by a completed check-out — the check-out
    /// must refuse (not wait).
    Busy,
}

/// Events recorded by the lock table when journaling is on. The
/// concurrency tests assert overlap-safety on this sequence: between a
/// granted check-out of object X and the next check-in covering X, no other
/// grant may mention X.
#[derive(Debug, Clone)]
pub enum LockEvent {
    Granted { token: u64, ids: Vec<ObjectId> },
    Refused { token: u64, ids: Vec<ObjectId> },
    Released { ids: Vec<ObjectId> },
}

/// One queued lock waiter. Tickets are granted in `seq` (arrival) order
/// *per conflict class*: a ticket only yields to earlier tickets whose id
/// sets intersect its own, so disjoint check-outs never head-of-line
/// block each other while same-object contenders are served strictly
/// FIFO — the starvation fix over the old unordered condvar wakeup.
#[derive(Debug)]
struct Ticket {
    seq: u64,
    token: u64,
    ids: Vec<ObjectId>,
}

#[derive(Debug, Default)]
struct LockTableState {
    locks: HashMap<ObjectId, LockState>,
    /// FIFO wait queue of blocked acquisitions (see [`Ticket`]).
    queue: VecDeque<Ticket>,
    next_seq: u64,
    /// Lock-event journal (only appended when journaling is enabled).
    /// Appended inside the same critical section that mutates `locks`, so
    /// the recorded order IS the serialization order.
    events: Vec<LockEvent>,
}

/// Waiters sleep in bounded slices even with no deadline, so a missed
/// wakeup can only cost one slice, never a hang.
const WAIT_SLICE: Duration = Duration::from_millis(25);

/// Start of one server call's deadline window.
fn deadline_clock() -> Instant {
    // lint:allow(wall-clock): condvar, gate and fsync waits are real-OS
    // blocking; their deadline must be measured on the OS clock, not the
    // virtual one.
    Instant::now()
}

/// The next condvar wait under `deadline` (measured from `started`): at
/// most [`WAIT_SLICE`], `None` once the deadline is spent.
fn wait_slice(deadline: Option<Duration>, started: Instant) -> Option<Duration> {
    match deadline {
        None => Some(WAIT_SLICE),
        Some(d) => d
            .checked_sub(started.elapsed())
            .map(|remaining| remaining.min(WAIT_SLICE)),
    }
}

/// The check-out lock table: object id → lock state, with a ticketed
/// FIFO wait queue for in-flight conflicts (bounded depth, arrival-order
/// grants per conflict class).
#[derive(Debug)]
pub struct LockTable {
    state: Mutex<LockTableState>,
    cv: Condvar,
    journal: AtomicBool,
    /// Maximum queued waiters; past it new waiters are rejected with
    /// [`SharedServerError::QueueFull`] instead of queuing unboundedly.
    queue_bound: AtomicUsize,
    /// Count of queue-full rejections (registered as
    /// `overload.lock_queue_rejections` when owned by a server).
    rejections: Counter,
}

impl Default for LockTable {
    fn default() -> Self {
        LockTable {
            state: Mutex::new(LockTableState::default()),
            cv: Condvar::new(),
            journal: AtomicBool::new(false),
            queue_bound: AtomicUsize::new(usize::MAX),
            rejections: Counter::new(),
        }
    }
}

impl LockTable {
    /// Any id held by a completed check-out of another token?
    fn is_busy(state: &LockTableState, ids: &[ObjectId], token: u64) -> bool {
        ids.iter().any(
            |id| matches!(state.locks.get(id), Some(LockState::Held(owner)) if *owner != token),
        )
    }

    /// Any id in flight for another token?
    fn is_blocked(state: &LockTableState, ids: &[ObjectId], token: u64) -> bool {
        ids.iter().any(
            |id| matches!(state.locks.get(id), Some(LockState::InFlight(owner)) if *owner != token),
        )
    }

    /// Any *earlier* queued ticket (strictly before `before_seq`, or any
    /// ticket when `None`) of another token whose ids intersect ours?
    fn queue_conflicts(
        state: &LockTableState,
        ids: &[ObjectId],
        token: u64,
        before_seq: Option<u64>,
    ) -> bool {
        state.queue.iter().any(|t| {
            t.token != token
                && before_seq.is_none_or(|s| t.seq < s)
                && t.ids.iter().any(|id| ids.contains(id))
        })
    }

    fn grant(state: &mut LockTableState, ids: &[ObjectId], token: u64) {
        for id in ids {
            state.locks.entry(*id).or_insert(LockState::InFlight(token));
        }
    }

    fn journal_refused(&self, state: &mut LockTableState, ids: &[ObjectId], token: u64) {
        if self.journal.load(Ordering::Relaxed) {
            state.events.push(LockEvent::Refused {
                token,
                ids: ids.to_vec(),
            });
        }
    }

    fn remove_ticket(state: &mut LockTableState, seq: u64) {
        state.queue.retain(|t| t.seq != seq);
    }

    /// All-or-nothing: mark every id in-flight for `token`, waiting (up to
    /// `deadline`) while any id is in-flight for another token. Ids held by
    /// a *completed* check-out produce [`Acquire::Busy`] immediately — that
    /// conflict is resolved by check-in, not by waiting.
    ///
    /// Blocked acquisitions join a FIFO ticket queue and are granted in
    /// strict arrival order among conflicting tickets; a full queue (see
    /// [`LockTable::set_queue_bound`]) rejects the waiter with
    /// [`SharedServerError::QueueFull`].
    ///
    /// Re-entrancy: ids already in-flight or held by `token` itself count
    /// as satisfied, so a retry of the same idempotent check-out never
    /// deadlocks on its own locks.
    pub fn acquire_in_flight(
        &self,
        ids: &[ObjectId],
        token: u64,
        deadline: Option<Duration>,
    ) -> Result<Acquire, SharedServerError> {
        let start = deadline_clock();
        let mut guard = lock_unpoisoned(&self.state);
        if Self::is_busy(&guard, ids, token) {
            self.journal_refused(&mut guard, ids, token);
            return Ok(Acquire::Busy);
        }
        if !Self::is_blocked(&guard, ids, token) && !Self::queue_conflicts(&guard, ids, token, None)
        {
            Self::grant(&mut guard, ids, token);
            return Ok(Acquire::Granted);
        }
        // Blocked: take a ticket (bounded queue).
        let depth = guard.queue.len();
        if depth >= self.queue_bound.load(Ordering::Relaxed) {
            self.rejections.inc();
            return Err(SharedServerError::QueueFull { depth });
        }
        let seq = guard.next_seq;
        guard.next_seq = guard.next_seq.saturating_add(1);
        guard.queue.push_back(Ticket {
            seq,
            token,
            ids: ids.to_vec(),
        });
        loop {
            let Some(slice) = wait_slice(deadline, start) else {
                Self::remove_ticket(&mut guard, seq);
                drop(guard);
                // Our departure may unblock tickets queued behind us.
                self.cv.notify_all();
                return Err(SharedServerError::LockTimeout {
                    waited: start.elapsed(),
                });
            };
            guard = match self.cv.wait_timeout(guard, slice) {
                Ok((g, _)) => g,
                Err(poisoned) => poisoned.into_inner().0,
            };
            if Self::is_busy(&guard, ids, token) {
                Self::remove_ticket(&mut guard, seq);
                self.journal_refused(&mut guard, ids, token);
                drop(guard);
                self.cv.notify_all();
                return Ok(Acquire::Busy);
            }
            if !Self::is_blocked(&guard, ids, token)
                && !Self::queue_conflicts(&guard, ids, token, Some(seq))
            {
                Self::remove_ticket(&mut guard, seq);
                Self::grant(&mut guard, ids, token);
                drop(guard);
                self.cv.notify_all();
                return Ok(Acquire::Granted);
            }
        }
    }

    /// Bound the wait queue: at most `n` queued waiters, further ones are
    /// rejected with [`SharedServerError::QueueFull`]. Default: unbounded.
    pub fn set_queue_bound(&self, n: usize) {
        self.queue_bound.store(n, Ordering::Relaxed);
    }

    /// Current number of queued waiters.
    pub fn queue_depth(&self) -> usize {
        lock_unpoisoned(&self.state).queue.len()
    }

    /// Queue-full rejections so far.
    pub fn queue_rejections(&self) -> u64 {
        self.rejections.get()
    }

    /// Register the rejection counter under the server's registry (called
    /// once at server assembly).
    fn set_rejection_counter(&mut self, counter: Counter) {
        self.rejections = counter;
    }

    /// Promote this token's in-flight marks to held (check-out committed)
    /// and record the grant.
    pub fn promote(&self, ids: &[ObjectId], token: u64) {
        let mut guard = lock_unpoisoned(&self.state);
        for id in ids {
            guard.locks.insert(*id, LockState::Held(token));
        }
        if self.journal.load(Ordering::Relaxed) {
            guard.events.push(LockEvent::Granted {
                token,
                ids: ids.to_vec(),
            });
        }
        drop(guard);
        self.cv.notify_all();
    }

    /// Drop this token's in-flight marks (check-out refused or failed) and
    /// wake waiters.
    pub fn abort(&self, ids: &[ObjectId], token: u64) {
        let mut guard = lock_unpoisoned(&self.state);
        for id in ids {
            if guard.locks.get(id) == Some(&LockState::InFlight(token)) {
                guard.locks.remove(id);
            }
        }
        if self.journal.load(Ordering::Relaxed) {
            guard.events.push(LockEvent::Refused {
                token,
                ids: ids.to_vec(),
            });
        }
        drop(guard);
        self.cv.notify_all();
    }

    /// Release held entries (check-in) and wake waiters. Ids not present
    /// are ignored — check-in of a classically checked-out tree (whose
    /// flags were set by plain UPDATEs) has nothing to release here.
    pub fn release(&self, ids: &[ObjectId]) {
        let mut guard = lock_unpoisoned(&self.state);
        for id in ids {
            if matches!(guard.locks.get(id), Some(LockState::Held(_))) {
                guard.locks.remove(id);
            }
        }
        if self.journal.load(Ordering::Relaxed) {
            guard.events.push(LockEvent::Released { ids: ids.to_vec() });
        }
        drop(guard);
        self.cv.notify_all();
    }

    /// Which token holds this object (completed check-outs only).
    pub fn holder(&self, id: ObjectId) -> Option<u64> {
        match lock_unpoisoned(&self.state).locks.get(&id) {
            Some(LockState::Held(t)) => Some(*t),
            _ => None,
        }
    }

    /// Number of live entries (in-flight + held).
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.state).locks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn set_journal(&self, on: bool) {
        self.journal.store(on, Ordering::Relaxed);
    }

    fn take_events(&self) -> Vec<LockEvent> {
        std::mem::take(&mut lock_unpoisoned(&self.state).events)
    }
}

/// One token's in-flight marks, from [`LockTable::acquire_in_flight`]
/// granting them until the check-out commits: dropping the guard — an error
/// return or an unwinding procedure — aborts the marks and wakes the
/// waiters; [`InFlightMarks::promote`] turns them into the held grant.
struct InFlightMarks<'a> {
    locks: &'a LockTable,
    ids: &'a [ObjectId],
    token: u64,
}

impl InFlightMarks<'_> {
    fn promote(self) {
        self.locks.promote(self.ids, self.token);
        std::mem::forget(self);
    }
}

impl Drop for InFlightMarks<'_> {
    fn drop(&mut self) {
        self.locks.abort(self.ids, self.token);
    }
}

// ---------------------------------------------------------------------------
// Cross-session query-result cache
// ---------------------------------------------------------------------------

/// One cached result: the storage version it was computed against and the
/// shared rows.
#[derive(Debug, Clone)]
struct CacheEntry {
    version: u64,
    result: Arc<ResultSet>,
}

/// Hit/miss counters of the cross-session cache (monotonic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
}

impl CacheStats {
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Cross-session query-result cache. Keyed by canonical SQL text (the
/// parsed query pretty-printed, so formatting differences collapse onto one
/// entry) plus the storage version. DML bumps the version, which atomically
/// invalidates every entry — a lookup only ever returns a result computed
/// against the *current* storage.
///
/// Every key is therefore the print of a parsed query, and such a print
/// parses back to that query: a request whose text, as sent, is a key needs
/// no parse to learn its canonical key. The server probes with the raw
/// text first and parses only what that probe does not find; there is no
/// text → query memo beside the map, because a hit needs nothing but the
/// key.
///
/// Hit/miss/invalidation counts live in the server's metrics registry
/// (`cache.hits`, `cache.misses`, `cache.invalidations`), so they appear in
/// the same snapshot as every other subsystem's counters.
#[derive(Debug)]
struct QueryCache {
    /// A key is one allocation shared with the in-flight set and the
    /// leader's guard: a miss copies its printed key once.
    map: Mutex<HashMap<Arc<str>, CacheEntry>>,
    /// Canonical keys currently being computed by a single-flight leader.
    /// Concurrent misses on the same key wait (bounded by their deadline)
    /// on `sf_cv` and re-probe instead of compiling + executing the same
    /// query N times — the cache-stampede (dogpile) fix.
    inflight: Mutex<HashSet<Arc<str>>>,
    sf_cv: Condvar,
    hits: Counter,
    misses: Counter,
    /// Entries discarded because their storage version went stale — whether
    /// replaced in place by a recomputation or removed by an eviction sweep.
    invalidations: Counter,
    /// Computations that took single-flight leadership for their key.
    singleflight_leaders: Counter,
    /// Lookups served by another session's in-flight computation (waited,
    /// then hit the freshly published entry).
    singleflight_hits: Counter,
}

/// Entries beyond this trigger an eviction sweep of stale versions.
const CACHE_CAPACITY: usize = 4096;

/// Completed idempotency tokens whose outcome stays replayable: the highest
/// (most recent) this many. An older token fails closed with
/// [`SharedServerError::TokenExpired`] — at-most-once holds for every
/// token, outcome replay for these. Bounds the idempotency log, and with it
/// every checkpoint, against the number of check-outs ever completed.
pub const RETAINED_TOKENS: usize = 256;

/// The server's idempotency log: retained outcomes plus the tokens whose
/// procedure is running right now (never trimmed; concurrent calls with
/// such a token wait for its outcome instead of executing twice).
#[derive(Debug, Default)]
struct CheckoutLog {
    done: TokenLog,
    in_progress: HashSet<u64>,
}

impl QueryCache {
    fn new(registry: &MetricsRegistry) -> Self {
        QueryCache {
            map: Mutex::new(HashMap::new()),
            inflight: Mutex::new(HashSet::new()),
            sf_cv: Condvar::new(),
            hits: registry.counter("cache.hits"),
            misses: registry.counter("cache.misses"),
            invalidations: registry.counter("cache.invalidations"),
            singleflight_leaders: registry.counter("cache.singleflight_leaders"),
            singleflight_hits: registry.counter("cache.singleflight_hits"),
        }
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
        }
    }

    /// The result cached under `key`, if it was computed on storage
    /// `version` — the only kind of entry a look-up may return.
    fn get(&self, key: &str, version: u64) -> Option<Arc<ResultSet>> {
        lock_unpoisoned(&self.map)
            .get(key)
            .filter(|entry| entry.version == version)
            .map(|entry| Arc::clone(&entry.result))
    }
}

/// Single-flight leadership of one canonical key. Dropping it — after the
/// result is published, on an engine error, or while the computation
/// unwinds — takes the key out of `inflight` and wakes the waiters so they
/// re-probe; a key can therefore never outlive its leader.
struct Leadership<'a> {
    cache: &'a QueryCache,
    key: Arc<str>,
}

impl Drop for Leadership<'_> {
    fn drop(&mut self) {
        lock_unpoisoned(&self.cache.inflight).remove(&*self.key);
        self.cache.sf_cv.notify_all();
    }
}

/// The claim on an idempotency token while its procedure runs. Dropping it
/// — the procedure returned, failed or unwound — takes the token out of
/// `in_progress` and wakes the calls waiting for its outcome; a success is
/// recorded in `done` first, so a waiter never finds the token unknown.
struct TokenClaim<'a> {
    server: &'a SharedServer,
    token: u64,
}

impl Drop for TokenClaim<'_> {
    fn drop(&mut self) {
        lock_unpoisoned(&self.server.checkout_log)
            .in_progress
            .remove(&self.token);
        self.server.checkout_cv.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Server metric handles
// ---------------------------------------------------------------------------

/// Metric handles resolved once at server assembly (registry lookups are a
/// mutex + map probe; the hot paths touch these pre-resolved atomics).
#[derive(Debug)]
struct ServerMetrics {
    queries: Counter,
    dml_commits: Counter,
    wal_appends: Counter,
    wal_fsync_ns: Histogram,
    lock_wait_ns: Histogram,
    lock_grants: Counter,
    lock_refusals: Counter,
    rows_scanned: Counter,
    subquery_evals: Counter,
    subquery_cache_hits: Counter,
    recursion_iterations: Counter,
    index_probes: Counter,
    /// Work abandoned at a blocking point because the caller's propagated
    /// deadline was already spent (DESIGN.md §14).
    deadline_abandons: Counter,
}

impl ServerMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        ServerMetrics {
            queries: registry.counter("server.queries"),
            dml_commits: registry.counter("server.dml_commits"),
            wal_appends: registry.counter("wal.appends"),
            wal_fsync_ns: registry.histogram("wal.fsync_ns"),
            lock_wait_ns: registry.histogram("locks.wait_ns"),
            lock_grants: registry.counter("locks.grants"),
            lock_refusals: registry.counter("locks.refusals"),
            rows_scanned: registry.counter("engine.rows_scanned"),
            subquery_evals: registry.counter("engine.subquery_evals"),
            subquery_cache_hits: registry.counter("engine.subquery_cache_hits"),
            recursion_iterations: registry.counter("engine.recursion_iterations"),
            index_probes: registry.counter("engine.index_probes"),
            deadline_abandons: registry.counter("overload.deadline_abandons"),
        }
    }

    /// Fold one query's executor counters into the registry totals.
    fn fold_exec(&self, stats: &pdm_sql::exec::ExecStats) {
        self.rows_scanned.add(stats.rows_scanned as u64);
        self.subquery_evals.add(stats.subquery_evals as u64);
        self.subquery_cache_hits
            .add(stats.subquery_cache_hits as u64);
        self.recursion_iterations
            .add(stats.recursion_iterations as u64);
        self.index_probes.add(stats.index_probes as u64);
    }
}

// ---------------------------------------------------------------------------
// Shared server
// ---------------------------------------------------------------------------

/// The central PDM server shared by all sessions. See the module docs.
#[derive(Debug)]
pub struct SharedServer {
    db: SharedDatabase,
    locks: LockTable,
    cache: QueryCache,
    /// Check-outs by idempotency token (shared across sessions — tokens are
    /// drawn from [`SharedServer::next_token`]). Calls finding their token
    /// in progress wait on `checkout_cv` for its recorded outcome.
    checkout_log: Mutex<CheckoutLog>,
    checkout_cv: Condvar,
    token_counter: AtomicU64,
    /// DML journal: the exact commit order of every write statement, for
    /// deterministic serial replay. `write_gate` makes append atomic with
    /// execution.
    write_gate: Mutex<Vec<String>>,
    journal: AtomicBool,
    /// Optional write-ahead log + checkpoint attachment. When present,
    /// every DML commit, check-out grant/release, and token completion is
    /// made durable before it takes effect (see [`crate::durability`]).
    durability: Option<Durability>,
    /// The server-wide metrics registry (cache, locks, WAL, engine, query
    /// counters). Sessions merge their network metering into the same
    /// registry so one snapshot covers the whole stack.
    metrics: Arc<MetricsRegistry>,
    /// Pre-resolved handles into `metrics` for the hot paths.
    m: ServerMetrics,
    /// Optional admission gate (overload protection). Absent — the
    /// default — every request is admitted and the server behaves exactly
    /// as it did before overload protection existed.
    overload: OnceLock<Arc<OverloadGate>>,
}

impl SharedServer {
    /// Wrap a populated database, installing the PDM stored functions.
    pub fn new(mut db: Database) -> Self {
        crate::functions::register_pdm_functions(&mut db);
        Self::assemble(SharedDatabase::new(db), None, &ReplayState::default())
    }

    /// Wrap a populated database with a durability attachment: every commit
    /// is write-ahead logged, and an initial checkpoint is cut immediately
    /// so recovery of this store is always checkpoint-load + log-replay.
    pub fn with_durability(mut db: Database, cfg: &DurabilityConfig) -> pdm_sql::Result<Self> {
        crate::functions::register_pdm_functions(&mut db);
        let shared = SharedDatabase::new(db);
        let durability = Durability::new(cfg);
        durability.checkpoint(&shared.snapshot())?;
        Ok(Self::assemble(
            shared,
            Some(durability),
            &ReplayState::default(),
        ))
    }

    /// Assemble a server from replayed (or fresh) parts. The completed
    /// tokens of `state` seed the idempotency log, and the token counter
    /// starts above every token the state has seen.
    pub(crate) fn assemble(
        db: SharedDatabase,
        durability: Option<Durability>,
        state: &ReplayState,
    ) -> Self {
        let checkout_log = CheckoutLog {
            done: state.tokens.clone(),
            in_progress: HashSet::new(),
        };
        let metrics = Arc::new(MetricsRegistry::new());
        let cache = QueryCache::new(&metrics);
        let m = ServerMetrics::new(&metrics);
        let mut locks = LockTable::default();
        locks.set_rejection_counter(metrics.counter("overload.lock_queue_rejections"));
        SharedServer {
            db,
            locks,
            cache,
            checkout_log: Mutex::new(checkout_log),
            checkout_cv: Condvar::new(),
            token_counter: AtomicU64::new(state.next_token()),
            write_gate: Mutex::new(Vec::new()),
            journal: AtomicBool::new(false),
            durability,
            metrics,
            m,
            overload: OnceLock::new(),
        }
    }

    /// Install an admission gate (idempotent: the first installation
    /// wins). Returns the gate in effect.
    pub fn install_overload_gate(&self, cfg: OverloadConfig) -> Arc<OverloadGate> {
        let gate = OverloadGate::new(cfg, &self.metrics);
        match self.overload.set(Arc::clone(&gate)) {
            Ok(()) => gate,
            Err(_) => self.overload_gate().unwrap_or(gate),
        }
    }

    /// The admission gate, if one is installed.
    pub fn overload_gate(&self) -> Option<Arc<OverloadGate>> {
        self.overload.get().cloned()
    }

    /// The durability attachment, if this server write-ahead logs.
    pub fn durability(&self) -> Option<&Durability> {
        self.durability.as_ref()
    }

    /// The underlying snapshot store.
    pub fn database(&self) -> &SharedDatabase {
        &self.db
    }

    /// The check-out lock table (diagnostics and tests).
    pub fn lock_table(&self) -> &LockTable {
        &self.locks
    }

    /// A server-unique idempotency token (sessions draw from this counter,
    /// so tokens never collide across sessions).
    pub fn next_token(&self) -> u64 {
        self.token_counter.fetch_add(1, Ordering::Relaxed)
    }

    /// Hit/miss counters of the cross-session result cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The server-wide metrics registry. Covers the cache
    /// (`cache.hits/misses/invalidations`), lock table
    /// (`locks.grants/refusals/wait_ns`), WAL (`wal.appends/fsync_ns`),
    /// engine operator counters (`engine.*`), and query totals
    /// (`server.queries`, `server.dml_commits`); sessions additionally fold
    /// their network metering (`net.*`) into the same registry.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Turn the operation journal on (DML commit log + lock events).
    pub fn enable_journal(&self) {
        self.journal.store(true, Ordering::Relaxed);
        self.locks.set_journal(true);
    }

    /// Drain the DML commit log (statements in exact commit order).
    pub fn take_dml_log(&self) -> Vec<String> {
        std::mem::take(&mut *lock_unpoisoned(&self.write_gate))
    }

    /// Drain the lock-event journal.
    pub fn take_lock_events(&self) -> Vec<LockEvent> {
        self.locks.take_events()
    }

    /// Names of views defined at the server.
    pub fn view_names(&self) -> HashSet<String> {
        self.db
            .snapshot()
            .catalog
            .view_names()
            .into_iter()
            .map(str::to_string)
            .collect()
    }

    // -- reads ------------------------------------------------------------

    /// Execute a read query through the cross-session result cache.
    ///
    /// The key is the canonical (parsed and re-printed) SQL plus the
    /// version of the snapshot the result was computed on; a hit requires
    /// the cached version to equal the *current* version, so results can
    /// never be stale.
    pub fn query_cached(&self, sql: &str) -> pdm_sql::Result<Arc<ResultSet>> {
        self.query_cached_deadline_obs(sql, None, &Recorder::disabled())
    }

    /// [`SharedServer::query_cached`] as sessions call it. A text that is
    /// itself a key of the cache (any statement already served in canonical
    /// spelling) is answered by one probe, unparsed, and records only that
    /// probe. Otherwise the parse, the cache probe (detail `hit`/`miss`),
    /// and — on a miss — the engine's per-operator spans land in `obs`; a
    /// disabled recorder makes that free. Single-flight is bounded by
    /// `deadline`: concurrent misses on the same canonical key wait for the
    /// first computation (up to `deadline`) and share its result instead of
    /// stampeding the engine. A waiter whose deadline runs out falls back to
    /// computing for itself — never worse than no single-flight.
    pub fn query_cached_deadline_obs(
        &self,
        sql: &str,
        deadline: Option<Duration>,
        obs: &Recorder,
    ) -> pdm_sql::Result<Arc<ResultSet>> {
        // Probe with the text as sent, before parsing it. Every key of the
        // map is the print of a parsed query, and such a print parses back
        // to that query (what the server already relies on when it executes
        // whatever it parses from a client's printed statement), so a text
        // found among the keys IS its own canonical key. A text in any
        // other spelling finds nothing here and takes the parse below to
        // the same entry. The hit's `cache.probe` span is recorded once the
        // entry is found: a probe that finds nothing leaves the statement's
        // one probe span to the canonical look-up after the parse.
        if let Some(result) = self.cache.get(sql, self.db.snapshot().version) {
            obs.span(kinds::CACHE_PROBE, "lookup").set_detail("hit");
            self.m.queries.inc();
            self.cache.hits.inc();
            return Ok(result);
        }
        let parse_span = obs.span(kinds::PARSE, "query");
        let query = pdm_sql::parser::parse_query(sql)?;
        drop(parse_span);
        let key: Arc<str> = query.to_string().into();
        let started = deadline_clock();
        self.m.queries.inc();
        let mut waited_sf = false;
        // `_leadership` is held until the result is published (or the
        // computation fails or unwinds) and released by its drop.
        let (snapshot, _leadership) = loop {
            let snapshot = self.db.snapshot();
            {
                // Scope the probe span so engine spans are siblings, not
                // children, of the probe.
                let probe = obs.span(kinds::CACHE_PROBE, "lookup");
                if let Some(result) = self.cache.get(&key, snapshot.version) {
                    self.cache.hits.inc();
                    if waited_sf {
                        self.cache.singleflight_hits.inc();
                    }
                    probe.set_detail("hit");
                    return Ok(result);
                }
                probe.set_detail("miss");
            }
            let mut infl = lock_unpoisoned(&self.cache.inflight);
            if !infl.contains(&*key) {
                // Double-check the cache before claiming leadership: the
                // previous leader may have published and left between our
                // probe above and taking the in-flight lock. (Lock order
                // inflight→map is safe: no path holds map while taking
                // inflight.)
                if let Some(result) = self.cache.get(&key, snapshot.version) {
                    self.cache.hits.inc();
                    if waited_sf {
                        self.cache.singleflight_hits.inc();
                    }
                    return Ok(result);
                }
                infl.insert(Arc::clone(&key));
                self.cache.singleflight_leaders.inc();
                let leadership = Leadership {
                    cache: &self.cache,
                    key: Arc::clone(&key),
                };
                break (snapshot, Some(leadership));
            }
            // Another session is computing this key: wait for it, bounded
            // by our propagated deadline, then re-probe.
            let Some(slice) = wait_slice(deadline, started) else {
                // Deadline spent: stop waiting and compute for ourselves
                // rather than returning empty-handed.
                break (snapshot, None);
            };
            waited_sf = true;
            let (g, _) = match self.cache.sf_cv.wait_timeout(infl, slice) {
                Ok(pair) => pair,
                Err(poisoned) => poisoned.into_inner(),
            };
            drop(g);
        };
        let (rows, stats) = snapshot.query_ast_profiled(&query, obs)?;
        let result = Arc::new(rows);
        self.m.fold_exec(&stats);
        self.cache.misses.inc();
        // Entries leaving the map are only *moved* out under its lock and
        // freed after it is released: a swept result set is thousands of
        // deallocations, and every concurrent hit would wait for them.
        let mut stale = Vec::new();
        let mut cleared = HashMap::new();
        let mut map = lock_unpoisoned(&self.cache.map);
        if map.len() >= CACHE_CAPACITY {
            let current = snapshot.version;
            stale.extend(map.extract_if(|_, e| e.version != current));
            if map.len() >= CACHE_CAPACITY {
                cleared = std::mem::take(&mut *map);
            }
            self.cache
                .invalidations
                .add((stale.len() + cleared.len()) as u64);
        }
        let entry = CacheEntry {
            version: snapshot.version,
            result: Arc::clone(&result),
        };
        let replaced = map.insert(key, entry);
        drop(map);
        if replaced.is_some_and(|old| old.version != snapshot.version) {
            self.cache.invalidations.inc();
        }
        drop((stale, cleared));
        Ok(result)
    }

    /// Execute a read query bypassing the cache (cold path; the cache
    /// differential tests compare against this).
    pub fn query_uncached(&self, sql: &str) -> pdm_sql::Result<ResultSet> {
        self.db.query(sql)
    }

    // -- writes -----------------------------------------------------------

    /// Execute any statement. Writes serialize on the commit gate so the
    /// DML journal order is exactly the storage commit order.
    ///
    /// With durability attached, the write path runs the WAL commit gate:
    /// the commit record is appended and fsynced (under a `wal.append`
    /// span, feeding the `wal.fsync_ns` histogram) after the statement is
    /// applied to the copied catalog but before the snapshot is published,
    /// so a state change is visible only once durable. The checkpoint
    /// cadence is also driven from here, inside the write gate, so a
    /// checkpoint can never interleave with a commit.
    ///
    /// The work is abandoned at the commit gate if the caller's propagated
    /// `deadline` (measured from entry) is already spent — once before
    /// waiting on the gate, and once after acquiring it (before the WAL
    /// fsync), so a doomed commit never pays for an fsync whose result the
    /// client gave up on. `None` never abandons.
    pub fn execute_deadline_obs(
        &self,
        sql: &str,
        deadline: Option<Duration>,
        obs: &Recorder,
    ) -> Result<ExecOutcome, SharedServerError> {
        let parse_span = obs.span(kinds::PARSE, "statement");
        let stmt = &pdm_sql::parser::parse_statement(sql)?;
        drop(parse_span);
        if matches!(stmt, Statement::Query(_)) {
            let (outcome, _) = self.db.execute_ast(stmt)?;
            return Ok(outcome);
        }
        let started = deadline_clock();
        self.check_deadline(deadline, started, "write_gate", obs)?;
        // lint:allow(lock-across-boundary): the write gate serializes DML
        // so the WAL fsync lands before the new version is published
        // (fsync-before-publish, DESIGN.md §9).
        let mut log = lock_unpoisoned(&self.write_gate);
        // The gate wait itself may have consumed the deadline: abandon
        // before the fsync, while nothing has been applied yet.
        self.check_deadline(deadline, started, "wal_commit", obs)?;
        // The canonical text, printed once for the WAL record and the DML
        // journal.
        let journal = self.journal.load(Ordering::Relaxed);
        let text = (journal || self.durability.is_some()).then(|| stmt.to_string());
        let outcome = match (&self.durability, &text) {
            (Some(d), Some(sql)) => {
                let (outcome, _) = self.db.execute_ast_gated(stmt, |version| {
                    self.wal_op(obs, "commit", || d.log_commit(version, sql))
                })?;
                if d.checkpoint_due() {
                    d.checkpoint(&self.db.snapshot())?;
                }
                outcome
            }
            _ => self.db.execute_ast(stmt)?.0,
        };
        self.m.dml_commits.inc();
        if journal {
            log.extend(text);
        }
        Ok(outcome)
    }

    /// Run one durable-log operation under a `wal.append` span, feeding the
    /// WAL metrics. The store's `commit` is append + fsync under one lock,
    /// so a single span per record is the honest granularity.
    fn wal_op<T>(
        &self,
        obs: &Recorder,
        label: &str,
        f: impl FnOnce() -> pdm_sql::Result<T>,
    ) -> pdm_sql::Result<T> {
        let span = obs.span(kinds::WAL_APPEND, label);
        // lint:allow(wall-clock): wal.fsync_ns is an advisory wall-time
        // histogram (device cost), never part of the deterministic timeline.
        let t0 = Instant::now();
        let result = f();
        self.m
            .wal_fsync_ns
            .record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        self.m.wal_appends.inc();
        drop(span);
        result
    }

    /// Deadline-propagation checkpoint: if the caller's remaining
    /// `deadline` (measured from `started`) is spent, record the abandon
    /// (`overload.deadline_abandons` + an `overload.abandon` span) and
    /// fail fast instead of doing the doomed work.
    fn check_deadline(
        &self,
        deadline: Option<Duration>,
        started: Instant,
        label: &str,
        obs: &Recorder,
    ) -> Result<(), SharedServerError> {
        let Some(d) = deadline else { return Ok(()) };
        let waited = started.elapsed();
        if waited < d {
            return Ok(());
        }
        self.m.deadline_abandons.inc();
        let span = obs.span(kinds::OVERLOAD_ABANDON, label.to_string());
        span.set_detail("deadline");
        drop(span);
        Err(SharedServerError::DeadlineExpired { waited })
    }

    // -- check-out / check-in --------------------------------------------

    /// Server-side check-out through the lock table (§6 function shipping
    /// with real concurrency semantics).
    ///
    /// 1. Run the (rule-modified) recursive retrieval on the current
    ///    snapshot and collect the subtree's object ids.
    /// 2. Acquire in-flight locks on all of them (plus the root). A
    ///    conflicting *in-flight* check-out makes us wait up to `deadline`
    ///    ([`SharedServerError::LockTimeout`] past it); a conflicting
    ///    *completed* check-out makes us refuse (∀rows semantics).
    /// 3. Re-verify the `checkedout` flags under the locks (covers flags
    ///    set by the classic UPDATE path, which bypasses the lock table).
    /// 4. Flip the flags, promote the locks to held, record the outcome
    ///    under the idempotency token.
    ///
    /// The retrieval's engine spans, the lock-table wait (`locks.wait`, fed
    /// into the `locks.wait_ns` histogram even when it times out), and the
    /// durable grant/token WAL appends all land in `obs`.
    ///
    /// The call is failure-atomic under its client-chosen idempotency
    /// `token`: a retry with the same token — after a lost response —
    /// returns the original outcome without flipping any flag twice or
    /// refusing its own check-out.
    pub fn checkout_procedure_with_deadline_obs(
        &self,
        root: ObjectId,
        modified_sql: &str,
        token: u64,
        deadline: Option<Duration>,
        obs: &Recorder,
    ) -> Result<CheckoutProcedureResult, SharedServerError> {
        // Claim the token, or adopt its outcome. A token executes AT MOST
        // ONCE: a concurrent call with the same token (an aggressive client
        // retry racing its own original) waits here for the recorded
        // outcome rather than running the procedure a second time, and a
        // token too old to still have an outcome is refused, not re-run.
        let start = deadline_clock();
        {
            let mut log = lock_unpoisoned(&self.checkout_log);
            while log.in_progress.contains(&token) {
                let Some(slice) = wait_slice(deadline, start) else {
                    return Err(SharedServerError::LockTimeout {
                        waited: start.elapsed(),
                    });
                };
                log = match self.checkout_cv.wait_timeout(log, slice) {
                    Ok((g, _)) => g,
                    Err(poisoned) => poisoned.into_inner().0,
                };
            }
            match log.done.status(token) {
                TokenStatus::Done(rows) => {
                    return Ok(CheckoutProcedureResult { rows: rows.clone() })
                }
                TokenStatus::Expired => return Err(SharedServerError::TokenExpired { token }),
                TokenStatus::Unknown => {
                    log.in_progress.insert(token);
                }
            }
        }

        let claim = TokenClaim {
            server: self,
            token,
        };
        let mut result =
            self.checkout_procedure_inner(root, modified_sql, token, deadline, start, obs);
        // Make the outcome durable before recording it: a crash after this
        // point replays the token's recorded result instead of re-running
        // the procedure; a crash before it sweeps the grant, as if the
        // check-out never happened.
        if let (Ok(outcome), Some(d)) = (&result, &self.durability) {
            if let Err(e) = self.wal_op(obs, "token", || d.log_token(token, outcome.rows.as_ref()))
            {
                result = Err(SharedServerError::Sql(e));
            }
        }
        // A failed call records nothing: the token stays replayable.
        if let Ok(outcome) = &result {
            lock_unpoisoned(&self.checkout_log)
                .done
                .record(token, outcome.rows.clone());
        }
        drop(claim);
        result
    }

    /// The procedure body, entered by exactly one call per token. The
    /// deadline is measured from `start` (the moment the check-out call
    /// entered the server) and re-checked at every blocking point: the
    /// retrieval's single-flight wait, the lock queue, and again before
    /// the durable grant — doomed work is abandoned at the next blocking
    /// point, not completed uselessly.
    fn checkout_procedure_inner(
        &self,
        root: ObjectId,
        modified_sql: &str,
        token: u64,
        deadline: Option<Duration>,
        start: Instant,
        obs: &Recorder,
    ) -> Result<CheckoutProcedureResult, SharedServerError> {
        let remaining = |waited: Duration| match deadline {
            None => Ok(None),
            Some(d) => match d.checked_sub(waited) {
                Some(rem) if !rem.is_zero() => Ok(Some(rem)),
                _ => Err(SharedServerError::DeadlineExpired { waited }),
            },
        };
        let rows =
            (*self.query_cached_deadline_obs(modified_sql, remaining(start.elapsed())?, obs)?)
                .clone();
        let (assy_ids, comp_ids) = split_ids(&rows)?;
        let mut all_assy = assy_ids.clone();
        all_assy.push(root);

        let mut lock_ids: Vec<ObjectId> = Vec::with_capacity(all_assy.len() + comp_ids.len());
        lock_ids.extend(&all_assy);
        lock_ids.extend(&comp_ids);

        // lint:allow(wall-clock): locks.wait_ns is an advisory wall-time
        // histogram of real-OS condvar blocking.
        let waited = Instant::now();
        let wait_span = obs.span(kinds::LOCK_WAIT, format!("token{token}"));
        let acquired = self
            .locks
            .acquire_in_flight(&lock_ids, token, remaining(start.elapsed())?);
        self.m
            .lock_wait_ns
            .record(u64::try_from(waited.elapsed().as_nanos()).unwrap_or(u64::MAX));
        if let Ok(acq) = &acquired {
            wait_span.set_detail(match acq {
                Acquire::Granted => "granted",
                Acquire::Busy => "busy",
            });
        } else {
            wait_span.set_detail("timeout");
        }
        drop(wait_span);
        // The lock table only saw the deadline REMAINING after the earlier
        // procedure phases; account the whole procedure in the timeout so
        // the caller's reported wait covers its full deadline window.
        let acquired = acquired.map_err(|e| match e {
            SharedServerError::LockTimeout { .. } => SharedServerError::LockTimeout {
                waited: start.elapsed(),
            },
            other => other,
        });
        match acquired? {
            Acquire::Busy => {
                self.m.lock_refusals.inc();
                return Ok(CheckoutProcedureResult { rows: None });
            }
            Acquire::Granted => {}
        }
        // From here every early return — and an unwind — aborts the marks.
        let marks = InFlightMarks {
            locks: &self.locks,
            ids: &lock_ids,
            token,
        };

        // Flags may be set by the classic (non-lock-table) check-out path;
        // verify them under the in-flight locks.
        let busy =
            self.any_checked_out("assy", &all_assy)? || self.any_checked_out("comp", &comp_ids)?;
        if busy {
            self.m.lock_refusals.inc();
            return Ok(CheckoutProcedureResult { rows: None });
        }

        // Deadline checkpoint: the retrieval and lock wait may have spent
        // the caller's budget. Abandon now — before the durable grant's
        // fsync and the flag UPDATEs — while backing out is still free.
        self.check_deadline(deadline, start, "checkout_grant", obs)?;

        // Durable-grant protocol: log the grant BEFORE the flag UPDATEs.
        // Whatever happens next — crash between the two UPDATEs, crash
        // before either — recovery sees the grant and sweeps its ids back
        // to FALSE, so every crash position converges to "the check-out
        // never happened".
        if let Some(d) = &self.durability {
            self.wal_op(obs, "grant", || d.log_grant(token, &all_assy, &comp_ids))?;
        }

        if let Err(e) = self
            .set_checked_out("assy", &all_assy, true, obs)
            .and_then(|_| self.set_checked_out("comp", &comp_ids, true, obs))
        {
            drop(marks);
            if let Some(d) = &self.durability {
                // Best-effort: cancel the grant so it is not swept later;
                // if the device is already dead, recovery sweeps instead.
                let _ = d.log_release(&lock_ids);
            }
            return Err(e);
        }
        marks.promote();
        self.m.lock_grants.inc();

        Ok(CheckoutProcedureResult { rows: Some(rows) })
    }

    /// Whether a check-out with this token has completed.
    pub fn checkout_recorded(&self, token: u64) -> bool {
        matches!(
            lock_unpoisoned(&self.checkout_log).done.status(token),
            TokenStatus::Done(_)
        )
    }

    /// Server-side check-in: clear the flags and release the lock entries.
    /// Never abandoned half-way, so it takes no deadline.
    pub fn checkin_procedure(
        &self,
        assy_ids: &[ObjectId],
        comp_ids: &[ObjectId],
        obs: &Recorder,
    ) -> pdm_sql::Result<usize> {
        let a = self
            .set_checked_out("assy", assy_ids, false, obs)
            .map_err(sql_error)?;
        let c = self
            .set_checked_out("comp", comp_ids, false, obs)
            .map_err(sql_error)?;
        let mut ids: Vec<ObjectId> = Vec::with_capacity(assy_ids.len() + comp_ids.len());
        ids.extend(assy_ids);
        ids.extend(comp_ids);
        self.release_checkout(&ids, obs)?;
        Ok(a + c)
    }

    /// The release step every check-in ends with, once its flag-clearing
    /// UPDATEs are durable: drop the lock-table entries and log the release
    /// record that retires the grant, so recovery stops sweeping these ids.
    /// A crash between the UPDATEs and the record is safe: the sweep
    /// re-forces FALSE, a no-op.
    pub(crate) fn release_checkout(&self, ids: &[ObjectId], obs: &Recorder) -> pdm_sql::Result<()> {
        self.locks.release(ids);
        if let Some(d) = &self.durability {
            self.wal_op(obs, "release", || d.log_release(ids))?;
        }
        Ok(())
    }

    fn any_checked_out(&self, table: &str, ids: &[ObjectId]) -> pdm_sql::Result<bool> {
        if ids.is_empty() {
            return Ok(false);
        }
        let list = id_list(ids);
        let rs = self.db.query(&format!(
            "SELECT COUNT(*) AS n FROM {table} WHERE checkedout = TRUE AND obid IN ({list})"
        ))?;
        let row = rs
            .rows
            .first()
            .ok_or_else(|| pdm_sql::Error::Eval("COUNT(*) returned no row".into()))?;
        Ok(row.get(0) != &pdm_sql::Value::Int(0))
    }

    /// Flip the `checkedout` flag of `ids`. No deadline: the callers are
    /// past the point where abandoning is free (a half-flipped id set).
    fn set_checked_out(
        &self,
        table: &str,
        ids: &[ObjectId],
        value: bool,
        obs: &Recorder,
    ) -> Result<usize, SharedServerError> {
        if ids.is_empty() {
            return Ok(0);
        }
        let list = id_list(ids);
        let flag = if value { "TRUE" } else { "FALSE" };
        match self.execute_deadline_obs(
            &format!("UPDATE {table} SET checkedout = {flag} WHERE obid IN ({list})"),
            None,
            obs,
        )? {
            ExecOutcome::Dml(pdm_sql::DmlOutcome::Updated(n)) => Ok(n),
            other => Err(pdm_sql::Error::Eval(format!(
                "UPDATE returned unexpected outcome {other:?}"
            ))
            .into()),
        }
    }
}

// Sessions on many threads share one server.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SharedServer>();
    assert_send_sync::<LockTable>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_workload::{build_database, TreeSpec};

    fn server() -> Arc<SharedServer> {
        let (db, _) = build_database(&TreeSpec::new(2, 2, 1.0).with_node_size(128)).unwrap();
        Arc::new(SharedServer::new(db))
    }

    #[test]
    fn cache_hit_requires_same_version() {
        let s = server();
        let sql = "SELECT COUNT(*) AS n FROM assy";
        let a = s.query_cached(sql).unwrap();
        let b = s.query_cached(sql).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit");
        assert_eq!(s.cache_stats(), CacheStats { hits: 1, misses: 1 });

        // DML bumps the epoch: next lookup recomputes.
        s.execute_deadline_obs(
            "UPDATE assy SET checkedout = FALSE WHERE obid = 1",
            None,
            &Recorder::disabled(),
        )
        .unwrap();
        let c = s.query_cached(sql).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(s.cache_stats(), CacheStats { hits: 1, misses: 2 });
        assert_eq!(*c, s.query_uncached(sql).unwrap());
    }

    #[test]
    fn canonicalization_collapses_formatting() {
        let s = server();
        s.query_cached("SELECT obid FROM assy WHERE obid = 1")
            .unwrap();
        s.query_cached("select  obid\nfrom ASSY where obid=1")
            .unwrap();
        let stats = s.cache_stats();
        assert_eq!(stats.hits, 1, "differently formatted same query must hit");
    }

    /// A server whose stored function `BOOM` panics while `armed` is set
    /// and returns its argument otherwise.
    fn server_with_boom() -> (Arc<SharedServer>, Arc<AtomicBool>) {
        let (mut db, _) = build_database(&TreeSpec::new(2, 2, 1.0).with_node_size(128)).unwrap();
        let armed = Arc::new(AtomicBool::new(true));
        let flag = Arc::clone(&armed);
        db.register_function("boom", move |args| {
            assert!(!flag.load(Ordering::SeqCst), "injected engine panic");
            Ok(args[0].clone())
        });
        (Arc::new(SharedServer::new(db)), armed)
    }

    fn unwinds(f: impl FnOnce()) -> bool {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
    }

    #[test]
    fn unwinding_leader_releases_its_single_flight_key() {
        let (s, armed) = server_with_boom();
        let sql = "SELECT BOOM(obid) FROM assy";
        assert!(unwinds(|| {
            let _ = s.query_cached(sql);
        }));
        assert!(
            lock_unpoisoned(&s.cache.inflight).is_empty(),
            "the key outlived its leader"
        );

        // The next request for the same text leads its own computation
        // instead of waiting out its deadline on a leader that is gone.
        armed.store(false, Ordering::SeqCst);
        let rows = s
            .query_cached_deadline_obs(sql, Some(Duration::from_millis(100)), &Recorder::disabled())
            .unwrap();
        assert_eq!(
            rows.len(),
            s.query_uncached("SELECT obid FROM assy").unwrap().len()
        );
        assert_eq!(s.cache.singleflight_leaders.get(), 2);
        assert!(lock_unpoisoned(&s.cache.inflight).is_empty());
    }

    #[test]
    fn unwinding_checkout_leaves_its_token_retryable() {
        let (s, _armed) = server_with_boom();
        let token = s.next_token();
        assert!(unwinds(|| {
            let _ = s.checkout_procedure_with_deadline_obs(
                1,
                "SELECT BOOM(obid) FROM assy",
                token,
                None,
                &Recorder::disabled(),
            );
        }));
        assert!(lock_unpoisoned(&s.checkout_log).in_progress.is_empty());

        // The client's retry of the same token runs the procedure; it does
        // not wait out its deadline on a call that no longer exists.
        let sql = crate::query::recursive::mle_query(1).to_string();
        let retry = s
            .checkout_procedure_with_deadline_obs(
                1,
                &sql,
                token,
                Some(Duration::from_millis(100)),
                &Recorder::disabled(),
            )
            .expect("the token must still be executable");
        assert!(retry.rows.is_some());
        assert!(s.checkout_recorded(token));
    }

    #[test]
    fn lock_table_waits_and_times_out() {
        let t = LockTable::default();
        assert_eq!(
            t.acquire_in_flight(&[1, 2], 10, None).unwrap(),
            Acquire::Granted
        );
        // Another token waiting on an in-flight conflict times out.
        let err = t
            .acquire_in_flight(&[2, 3], 11, Some(Duration::from_millis(30)))
            .unwrap_err();
        assert!(matches!(err, SharedServerError::LockTimeout { .. }));
        // Re-entrant: same token sails through.
        assert_eq!(
            t.acquire_in_flight(&[1, 2], 10, None).unwrap(),
            Acquire::Granted
        );
        // Promote → competitor refuses instead of waiting.
        t.promote(&[1, 2], 10);
        assert_eq!(
            t.acquire_in_flight(&[2], 11, Some(Duration::from_millis(5)))
                .unwrap(),
            Acquire::Busy
        );
        assert_eq!(t.holder(2), Some(10));
        // Release → free again.
        t.release(&[1, 2]);
        assert_eq!(
            t.acquire_in_flight(&[2], 11, None).unwrap(),
            Acquire::Granted
        );
    }

    #[test]
    fn abort_frees_waiters() {
        let t = Arc::new(LockTable::default());
        assert_eq!(
            t.acquire_in_flight(&[7], 1, None).unwrap(),
            Acquire::Granted
        );
        let t2 = Arc::clone(&t);
        let waiter = std::thread::spawn(move || {
            t2.acquire_in_flight(&[7], 2, Some(Duration::from_secs(10)))
                .unwrap()
        });
        std::thread::sleep(Duration::from_millis(10));
        t.abort(&[7], 1);
        assert_eq!(waiter.join().unwrap(), Acquire::Granted);
    }

    #[test]
    fn checkout_serializes_and_checkin_releases() {
        let s = server();
        let sql = crate::query::recursive::mle_query(1).to_string();
        let t1 = s.next_token();
        let checkout = |token| {
            s.checkout_procedure_with_deadline_obs(1, &sql, token, None, &Recorder::disabled())
                .unwrap()
        };
        let first = checkout(t1);
        assert!(first.rows.is_some());
        assert!(s.lock_table().holder(1).is_some());

        // Conflicting check-out refuses (completed holder).
        let t2 = s.next_token();
        let second = checkout(t2);
        assert!(second.rows.is_none());

        // Replay of the first token returns the recorded success.
        let replay = checkout(t1);
        assert!(replay.rows.is_some());

        // Check-in releases locks and flags; a new check-out succeeds.
        s.checkin_procedure(&[1, 2, 3], &[4, 5, 6, 7], &Recorder::disabled())
            .unwrap();
        assert!(s.lock_table().is_empty());
        let t3 = s.next_token();
        assert!(checkout(t3).rows.is_some());
    }
}
