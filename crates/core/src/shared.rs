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
//!   A request is looked up by its text as sent before anything else, so a
//!   repeated statement in canonical spelling — every statement a session
//!   generates — costs one hash probe
//!   ([`SharedServer::query_cached_deadline_obs`]); a miss reads its text
//!   once, into its template (parsed once per shape, [`Templates`]) and the
//!   integers bound to it, and runs the plan the template keeps; a
//!   computation in flight is a mark in the same table, which concurrent
//!   misses wait on;
//! * an **idempotency log** for failure-atomic check-outs (PR 1), shared
//!   so tokens are unique across sessions and bounded to the
//!   [`RETAINED_TOKENS`] most recent outcomes (an older token fails closed
//!   rather than executing twice), plus an optional **operation journal**
//!   the deterministic concurrency tests replay.
//!
//! Every call measures its caller's deadline from the moment it entered
//! the server (`Deadline`), and the three structures above block in that
//! type's one bounded condvar wait and nowhere else.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, OnceLock};
use std::time::{Duration, Instant};

use pdm_obs::lock::{Lock, LockGuard, LockId};
use pdm_obs::metrics::families;
use pdm_obs::{kinds, Counter, Histogram, MetricsRegistry, Recorder};
use pdm_sql::ring::{Admit, Ring, Standing};
use pdm_sql::template::{Resolved, Templates};
use pdm_sql::{Database, ExecOutcome, ResultSet, SharedDatabase, Statement};

use crate::durability::{Durability, DurabilityConfig};
use crate::overload::{OverloadConfig, OverloadGate};
use crate::product::ObjectId;
use crate::replay::{ReplayState, TokenLog, TokenStatus};
use crate::server::{id_list, split_ids, CheckoutProcedureResult};

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
// Deadline
// ---------------------------------------------------------------------------

/// Waiters sleep in bounded slices even with no deadline, so a missed
/// wakeup can only cost one slice, never a hang.
const WAIT_SLICE: Duration = Duration::from_millis(25);

/// One server call's deadline window: the budget its caller propagated and
/// the instant the call entered the server. Every blocking point of the
/// call — the token log, a single-flight slot, the lock queue, the commit
/// gate — measures against this one window, and [`Deadline::wait`] is the
/// only place the server blocks on a condvar.
#[derive(Debug)]
struct Deadline {
    budget: Option<Duration>,
    entered: Instant,
}

impl Deadline {
    fn new(budget: Option<Duration>) -> Self {
        #[expect(
            clippy::disallowed_methods,
            reason = "condvar, gate and fsync waits are real-OS blocking; their \
                      deadline must be measured on the OS clock, not the virtual one"
        )]
        let entered = Instant::now();
        Deadline { budget, entered }
    }

    /// What a wait that ran out of this deadline reports: the time since
    /// the call entered the server, not since the wait began.
    fn lock_timeout(&self) -> SharedServerError {
        let waited = self.entered.elapsed();
        SharedServerError::LockTimeout { waited }
    }

    /// What is left of the budget — `None` when the caller set none — or
    /// [`SharedServerError::DeadlineExpired`] once it is spent: what a
    /// nested server call is handed as its own deadline, and what stops
    /// doomed work at its next blocking point.
    fn remaining(&self) -> Result<Option<Duration>, SharedServerError> {
        let Some(budget) = self.budget else {
            return Ok(None);
        };
        let waited = self.entered.elapsed();
        match budget.checked_sub(waited) {
            Some(left) if !left.is_zero() => Ok(Some(left)),
            _ => Err(SharedServerError::DeadlineExpired { waited }),
        }
    }

    /// One bounded wait on `cv`: at most [`WAIT_SLICE`], less when less is
    /// left of the budget. `Err` — without having waited — once the
    /// deadline is spent; either way the caller has its guard back, to
    /// re-check its predicate and wait again, or to leave.
    fn wait<'a, T>(
        &self,
        cv: &Condvar,
        guard: LockGuard<'a, T>,
    ) -> Result<LockGuard<'a, T>, LockGuard<'a, T>> {
        let Ok(left) = self.remaining() else {
            return Err(guard);
        };
        let slice = left.map_or(WAIT_SLICE, |left| left.min(WAIT_SLICE));
        Ok(guard.wait_timeout(cv, slice))
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

impl LockState {
    /// The token whose check-out holds the lock.
    fn owner(self) -> u64 {
        match self {
            LockState::InFlight(token) | LockState::Held(token) => token,
        }
    }
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

/// The journal entry of a check-out that did not get `ids` (busy, failed or
/// unwound).
fn refused(ids: &[ObjectId], token: u64) -> LockEvent {
    LockEvent::Refused {
        token,
        ids: ids.to_vec(),
    }
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

/// The check-out lock table: object id → lock state, with a ticketed
/// FIFO wait queue for in-flight conflicts (bounded depth, arrival-order
/// grants per conflict class).
#[derive(Debug)]
pub struct LockTable {
    state: Lock<LockTableState>,
    cv: Condvar,
    journal: AtomicBool,
    /// Maximum queued waiters; past it new waiters are rejected with
    /// [`SharedServerError::QueueFull`] instead of queuing unboundedly.
    queue_bound: AtomicUsize,
    /// Count of queue-full rejections (registered as
    /// `overload.lock_queue_rejections` when owned by a server).
    rejections: Counter,
}

static LOCK_TABLE: LockId = LockId::new("core.lock_table", 40);

impl Default for LockTable {
    fn default() -> Self {
        LockTable {
            state: Lock::new(&LOCK_TABLE, LockTableState::default()),
            cv: Condvar::new(),
            journal: AtomicBool::new(false),
            queue_bound: AtomicUsize::new(usize::MAX),
            rejections: Counter::new(),
        }
    }
}

impl LockTable {
    /// Any id locked as `kind` — [`LockState::Held`]: the acquisition
    /// refuses, [`LockState::InFlight`]: it waits — for another token?
    fn taken(
        state: &LockTableState,
        ids: &[ObjectId],
        token: u64,
        kind: fn(u64) -> LockState,
    ) -> bool {
        ids.iter().any(|id| {
            state
                .locks
                .get(id)
                .is_some_and(|&lock| lock.owner() != token && lock == kind(lock.owner()))
        })
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

    /// Record `event` (when journaling is on), inside the critical section
    /// that made it happen.
    fn journal(&self, state: &mut LockTableState, event: impl FnOnce() -> LockEvent) {
        if self.journal.load(Ordering::Relaxed) {
            state.events.push(event());
        }
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
        self.acquire(ids, token, &Deadline::new(deadline))
    }

    /// [`LockTable::acquire_in_flight`] inside a server call: the wait is
    /// bounded by — and a timeout reports — the whole call's window.
    fn acquire(
        &self,
        ids: &[ObjectId],
        token: u64,
        deadline: &Deadline,
    ) -> Result<Acquire, SharedServerError> {
        let mut guard = self.state.lock();
        // This call's ticket, once it has had to queue.
        let mut ticket = None;
        let outcome = loop {
            if Self::taken(&guard, ids, token, LockState::Held) {
                self.journal(&mut guard, || refused(ids, token));
                break Ok(Acquire::Busy);
            }
            if !Self::taken(&guard, ids, token, LockState::InFlight)
                && !Self::queue_conflicts(&guard, ids, token, ticket)
            {
                for id in ids {
                    guard.locks.entry(*id).or_insert(LockState::InFlight(token));
                }
                break Ok(Acquire::Granted);
            }
            if ticket.is_none() {
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
                ticket = Some(seq);
            }
            match deadline.wait(&self.cv, guard) {
                Ok(woken) => guard = woken,
                Err(held) => {
                    guard = held;
                    break Err(deadline.lock_timeout());
                }
            }
        };
        if let Some(seq) = ticket {
            guard.queue.retain(|t| t.seq != seq);
            drop(guard);
            // Our departure may unblock tickets queued behind us.
            self.cv.notify_all();
        }
        outcome
    }

    /// Bound the wait queue: at most `n` queued waiters, further ones are
    /// rejected with [`SharedServerError::QueueFull`]. Default: unbounded.
    pub fn set_queue_bound(&self, n: usize) {
        self.queue_bound.store(n, Ordering::Relaxed);
    }

    /// Current number of queued waiters.
    pub fn queue_depth(&self) -> usize {
        self.state.lock().queue.len()
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
        self.update(
            ids,
            |_| Some(LockState::Held(token)),
            || LockEvent::Granted {
                token,
                ids: ids.to_vec(),
            },
        );
    }

    /// Drop this token's in-flight marks (check-out refused or failed) and
    /// wake waiters.
    pub fn abort(&self, ids: &[ObjectId], token: u64) {
        self.update(
            ids,
            |lock| lock.filter(|&lock| lock != LockState::InFlight(token)),
            || refused(ids, token),
        );
    }

    /// Release held entries (check-in) and wake waiters. Ids not present
    /// are ignored — check-in of a classically checked-out tree (whose
    /// flags were set by plain UPDATEs) has nothing to release here.
    pub fn release(&self, ids: &[ObjectId]) {
        self.update(
            ids,
            |lock| lock.filter(|lock| !matches!(lock, LockState::Held(_))),
            || LockEvent::Released { ids: ids.to_vec() },
        );
    }

    /// What every change to granted locks is: under the table's lock, give
    /// each id the lock `next` makes of its current one (`None`: unlocked),
    /// journal `event`, then wake every waiter.
    fn update(
        &self,
        ids: &[ObjectId],
        next: impl Fn(Option<LockState>) -> Option<LockState>,
        event: impl FnOnce() -> LockEvent,
    ) {
        let mut guard = self.state.lock();
        for id in ids {
            match next(guard.locks.get(id).copied()) {
                Some(lock) => guard.locks.insert(*id, lock),
                None => guard.locks.remove(id),
            };
        }
        self.journal(&mut guard, event);
        drop(guard);
        self.cv.notify_all();
    }

    /// Which token holds this object (completed check-outs only).
    pub fn holder(&self, id: ObjectId) -> Option<u64> {
        match self.state.lock().locks.get(&id) {
            Some(LockState::Held(t)) => Some(*t),
            _ => None,
        }
    }

    /// Number of live entries (in-flight + held).
    pub fn len(&self) -> usize {
        self.state.lock().locks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn set_journal(&self, on: bool) {
        self.journal.store(on, Ordering::Relaxed);
    }

    fn take_events(&self) -> Vec<LockEvent> {
        std::mem::take(&mut self.state.lock().events)
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

/// One key of the result cache: the result last published under it and the
/// mark of a computation in flight. A slot is in the table while it has
/// either.
#[derive(Debug, Default)]
struct Slot {
    /// The key, to take the slot out of the table's index by.
    key: Arc<str>,
    /// The storage version the rows were computed on, and the shared rows.
    /// An entry of an older version stays where it is until the key's next
    /// publish or until the clock hand displaces it; only [`Slot::at`]
    /// reads it.
    ready: Option<(u64, Arc<ResultSet>)>,
    /// The table's miss count when `ready` was last published or hit
    /// ([`Ring::now`]).
    used: u64,
    /// A single-flight leader is computing this key, on this storage
    /// version. Concurrent misses on a version no newer wait (bounded by
    /// their deadline) on [`QueryCache::cv`] and re-probe instead of
    /// compiling + executing the same query N times — the cache-stampede
    /// (dogpile) fix. A miss on a newer version does not wait: the
    /// leader's result would be stale to it.
    computing: Option<u64>,
}

impl Slot {
    /// The result, if it was computed on storage `version` — the only kind
    /// of entry a look-up may return.
    fn at(&self, version: u64) -> Option<&Arc<ResultSet>> {
        match &self.ready {
            Some((v, result)) if *v == version => Some(result),
            _ => None,
        }
    }

    /// [`Slot::at`], for a hit: the slot is stamped as used now.
    fn hit(&mut self, version: u64, now: u64) -> Option<Arc<ResultSet>> {
        let result = Arc::clone(self.at(version)?);
        self.used = now;
        Some(result)
    }
}

/// The result cache's one table: its slots by position, each key's position,
/// and the ring of the positions whose slot holds a result. A key is hashed
/// to find its position; the leader that holds a position, and the clock
/// hand, reach its slot without hashing the key again.
#[derive(Debug)]
struct Table {
    index: HashMap<Arc<str>, usize>,
    /// A position not in `index` is free, and listed in `free`.
    slots: Vec<Slot>,
    free: Vec<usize>,
    ring: Ring<usize>,
    /// Misses waiting on [`QueryCache::cv`] for a leader: a leader that lets
    /// go wakes them only if there are any.
    waiters: usize,
}

impl Table {
    /// The position of `key`'s slot — made, empty, if it has none.
    fn position(&mut self, key: &Arc<str>) -> usize {
        let Table {
            index, slots, free, ..
        } = self;
        *index.entry(Arc::clone(key)).or_insert_with(|| {
            let slot = Slot {
                key: Arc::clone(key),
                ..Slot::default()
            };
            match free.pop() {
                Some(at) => {
                    *slot_in(slots, at) = slot;
                    at
                }
                None => {
                    slots.push(slot);
                    slots.len() - 1
                }
            }
        })
    }

    /// The slot of `key`, if it has one.
    #[cfg(test)]
    fn slot(&self, key: &str) -> Option<&Slot> {
        self.index.get(key).map(|&at| &self.slots[at])
    }

    /// The slot at position `at`.
    fn slot_mut(&mut self, at: usize) -> &mut Slot {
        slot_in(&mut self.slots, at)
    }

    /// Free the slot at `at` — neither published nor being computed — and
    /// hand back what it held, to be dropped after the lock is released.
    fn vacate(&mut self, at: usize) -> Slot {
        let slot = std::mem::take(self.slot_mut(at));
        self.index.remove(&slot.key);
        self.free.push(at);
        slot
    }
}

/// The slot at position `at` of `slots`.
fn slot_in(slots: &mut [Slot], at: usize) -> &mut Slot {
    // lint:allow(unchecked-index): every position the table hands out — in
    // `index`, the ring, the free list or a leadership — is one
    // `Table::position` pushed, and `slots` never shrinks.
    &mut slots[at]
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

/// Cross-session query-result cache. Keyed by canonical SQL text —
/// `parse_query(text)?.to_string()`, so formatting differences collapse onto
/// one entry — plus the storage version. DML bumps the version, which
/// atomically invalidates every entry — a lookup only ever returns a result
/// computed against the *current* storage.
///
/// Every key is therefore the print of a parsed query, and such a print
/// parses back to that query: a request whose text, as sent, is a key needs
/// nothing else to find its entry. The server probes with the raw text
/// first; what that probe does not find learns its key without a parse or a
/// print, from its template ([`Templates`]: the text's integers spliced into
/// the print of its shape, parsed once). A hit needs nothing but the key. A
/// computation in flight is a mark on its key's [`Slot`] in the same table,
/// so "is it cached", "is somebody computing it" and "store it" are one
/// look-up each under one mutex.
///
/// The table holds at most [`CACHE_CAPACITY`] results, and a full one
/// replaces by one rule ([`Ring`]): the keys holding a result sit in a ring
/// under a clock hand, each slot is stamped with the table's miss count when
/// its result was published or last hit, and a result new to a full table
/// is kept only in place of the one under the hand, if that one is stale or
/// went `2 × CACHE_CAPACITY` misses without a hit. Otherwise the new result
/// is returned to its caller but not kept. So a working set larger than the
/// table keeps a fixed part of itself, and one that moves on displaces what
/// it left behind.
///
/// Hit/miss/invalidation counts live in the server's metrics registry
/// (`cache.hits`, `cache.misses`, `cache.invalidations`), so they appear in
/// the same snapshot as every other subsystem's counters.
#[derive(Debug)]
struct QueryCache {
    /// The one table: a key is probed, claimed (or waited for) and
    /// published under this mutex, one look-up each, and the engine never
    /// runs while it is held. A key is one allocation shared by the index
    /// and its slot: a miss copies its printed key once.
    table: Lock<Table>,
    /// Signalled when a leader leaves its slot, published or not, while a
    /// miss waits ([`Table::waiters`]).
    cv: Condvar,
    hits: Counter,
    misses: Counter,
    /// Results that left the table other than by a hit: replaced in place by
    /// a result of a newer version, or displaced by the clock hand — stale
    /// or idle — to make room for another key's.
    invalidations: Counter,
    /// Computations that took single-flight leadership for their key.
    singleflight_leaders: Counter,
    /// Lookups served by another session's in-flight computation (waited,
    /// then hit the freshly published entry).
    singleflight_hits: Counter,
}

static CACHE_TABLE: LockId = LockId::new("core.cache.table", 50);

/// What is in flight in a server: single-flight marks in the result cache,
/// misses waiting on one, and check-out tokens whose procedure runs
/// ([`SharedServer::in_flight`]). All zero whenever no call is inside the
/// server: a mark, a waiter or a token that outlives its call is a leak.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InFlight {
    pub marks: usize,
    pub waiters: usize,
    pub tokens: usize,
}

/// Results the server's result cache holds at most. A publish that finds it
/// full keeps its result only in place of a stale or idle one
/// ([`pdm_sql::ring`]).
pub const CACHE_CAPACITY: usize = 4096;

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

/// What a miss on its canonical key finds in the key's slot.
enum Claim<'a> {
    /// A result of the current version, published since the raw-text probe
    /// (or under another spelling).
    Hit(Arc<ResultSet>),
    /// Nobody is computing the key: the caller is, from now on.
    Lead(Leadership<'a>),
    /// Somebody is, on an older storage version than the caller's: the
    /// caller computes for itself, unmarked, and stores its result with
    /// [`QueryCache::publish`].
    Behind,
    /// Somebody is, on the caller's version or a newer one: the table's
    /// guard, to wait on ([`QueryCache::wait`]).
    Wait(LockGuard<'a, Table>),
}

/// What a publish takes out of the table, freed once its lock is released:
/// a result set is thousands of deallocations, and every concurrent hit
/// would wait for them.
type Gone = Option<(u64, Arc<ResultSet>)>;

impl QueryCache {
    fn new(registry: &MetricsRegistry) -> Self {
        QueryCache {
            table: Lock::new(
                &CACHE_TABLE,
                Table {
                    index: HashMap::new(),
                    slots: Vec::new(),
                    free: Vec::new(),
                    ring: Ring::new(CACHE_CAPACITY),
                    waiters: 0,
                },
            ),
            cv: Condvar::new(),
            hits: registry.counter(families::CACHE_HITS),
            misses: registry.counter(families::CACHE_MISSES),
            invalidations: registry.counter(families::CACHE_INVALIDATIONS),
            singleflight_leaders: registry.counter(families::CACHE_SINGLEFLIGHT_LEADERS),
            singleflight_hits: registry.counter(families::CACHE_SINGLEFLIGHT_HITS),
        }
    }

    /// The result published under `key`, if it was computed on storage
    /// `version` — a hit, stamped.
    fn get(&self, key: &str, version: u64) -> Option<Arc<ResultSet>> {
        let mut table = self.table.lock();
        let now = table.ring.now();
        let at = *table.index.get(key)?;
        table.slot_mut(at).hit(version, now)
    }

    /// The one look-up of a canonical miss: return the key's current
    /// result, or mark its slot as being computed by the caller on
    /// `version` — a miss of the table, which advances its clock — or, the
    /// mark being somebody else's, hand back the guard to wait on. A mark
    /// of an older version is not waited for: its result cannot be a hit
    /// on `version`, so the caller misses, unmarked ([`Claim::Behind`]).
    fn claim(&self, key: &Arc<str>, version: u64) -> Claim<'_> {
        let mut table = self.table.lock();
        let at = table.position(key);
        let now = table.ring.now();
        let slot = table.slot_mut(at);
        if let Some(result) = slot.hit(version, now) {
            return Claim::Hit(result);
        }
        match slot.computing {
            Some(leader) if leader < version => {
                table.ring.miss();
                return Claim::Behind;
            }
            Some(_) => return Claim::Wait(table),
            None => slot.computing = Some(version),
        }
        table.ring.miss();
        self.singleflight_leaders.inc();
        Claim::Lead(Leadership { cache: self, at })
    }

    /// Wait, registered as a waiter, for a leader to let go of its slot —
    /// bounded by `deadline`. `false`, without having waited, once the
    /// deadline is spent.
    fn wait(&self, mut table: LockGuard<'_, Table>, deadline: &Deadline) -> bool {
        table.waiters += 1;
        let (woken, mut table) = match deadline.wait(&self.cv, table) {
            Ok(table) => (true, table),
            Err(table) => (false, table),
        };
        table.waiters -= 1;
        woken
    }

    /// Store `result`, computed on storage `version`, under `key`: by a
    /// miss that computed for itself — its leader was on an older version,
    /// or it ran out of deadline waiting — (a leader publishes through
    /// [`Leadership::publish`]).
    fn publish(&self, key: &Arc<str>, version: u64, result: &Arc<ResultSet>) {
        let mut table = self.table.lock();
        let at = table.position(key);
        let gone = self.store(&mut table, at, version, result);
        let vacated = Self::vacate_unused(&mut table, at);
        drop(table);
        drop((gone, vacated));
    }

    /// Store `result`, computed on storage `version`, in the slot at `at`.
    /// A result never replaces one of a newer version. A slot without a
    /// result gets its place from the ring: below [`CACHE_CAPACITY`]
    /// results always; in a full table in place of the result under the
    /// hand if that one is stale or idle, and otherwise not at all — the
    /// caller has its result either way.
    fn store(
        &self,
        table: &mut Table,
        at: usize,
        version: u64,
        result: &Arc<ResultSet>,
    ) -> [Gone; 2] {
        let mut displaced = None;
        if table.slot_mut(at).ready.is_none() {
            let Table { slots, ring, .. } = table;
            let standing = |&victim: &usize| {
                let slot = slots.get(victim);
                let ready = slot.and_then(|slot| slot.ready.as_ref());
                Standing {
                    used: slot.map_or(0, |slot| slot.used),
                    // Older than this result: no read asks for it again.
                    stale: ready.is_none_or(|(v, _)| *v < version),
                }
            };
            match ring.admit(&at, standing) {
                Admit::Kept => {}
                Admit::Displaced(victim) => {
                    let slot = table.slot_mut(victim);
                    displaced = slot.ready.take();
                    // A slot that is being computed keeps its mark.
                    if slot.computing.is_none() {
                        table.vacate(victim);
                    }
                    self.invalidations.inc();
                }
                Admit::Refused => return [None, None],
            }
        }
        let now = table.ring.now();
        let slot = table.slot_mut(at);
        let mut replaced = None;
        if slot.ready.as_ref().is_none_or(|(v, _)| *v <= version) {
            replaced = slot.ready.replace((version, Arc::clone(result)));
            slot.used = now;
            if replaced.as_ref().is_some_and(|(v, _)| *v != version) {
                self.invalidations.inc();
            }
        }
        [displaced, replaced]
    }

    /// Take the slot at `at` out of the table if it has neither a result
    /// nor a mark.
    fn vacate_unused(table: &mut Table, at: usize) -> Option<Slot> {
        let slot = table.slot_mut(at);
        (slot.ready.is_none() && slot.computing.is_none()).then(|| table.vacate(at))
    }

    /// What a leader does when it is done, with a result or without: one
    /// critical section stores the result, clears the mark, takes a slot
    /// with nothing published out of the table and counts the waiters —
    /// who are woken, after the lock is released, only if there are any.
    fn let_go(&self, at: usize, published: Option<(u64, &Arc<ResultSet>)>) {
        let mut table = self.table.lock();
        let gone = published.map(|(version, result)| self.store(&mut table, at, version, result));
        table.slot_mut(at).computing = None;
        let vacated = Self::vacate_unused(&mut table, at);
        let waiters = table.waiters;
        drop(table);
        drop((gone, vacated));
        if waiters > 0 {
            self.cv.notify_all();
        }
    }
}

/// Single-flight leadership of one canonical key: the `computing` mark on
/// its slot, which stays at its position while the mark is on it.
/// [`Leadership::publish`] stores the result and lets go in one step;
/// dropping it without — on an engine error, or while the computation
/// unwinds — lets go all the same, so a mark can never outlive its leader.
/// Either way a slot with nothing published leaves the table, and waiters
/// are woken to re-probe.
struct Leadership<'a> {
    cache: &'a QueryCache,
    at: usize,
}

impl Leadership<'_> {
    /// Store `result`, computed on storage `version`, and let go.
    fn publish(self, version: u64, result: &Arc<ResultSet>) {
        self.cache.let_go(self.at, Some((version, result)));
        std::mem::forget(self);
    }
}

impl Drop for Leadership<'_> {
    fn drop(&mut self) {
        self.cache.let_go(self.at, None);
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
        self.server
            .checkout_log
            .lock()
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
            queries: registry.counter(families::SERVER_QUERIES),
            dml_commits: registry.counter(families::SERVER_DML_COMMITS),
            wal_appends: registry.counter(families::WAL_APPENDS),
            wal_fsync_ns: registry.histogram(families::WAL_FSYNC_NS),
            lock_wait_ns: registry.histogram(families::LOCKS_WAIT_NS),
            lock_grants: registry.counter(families::LOCKS_GRANTS),
            lock_refusals: registry.counter(families::LOCKS_REFUSALS),
            rows_scanned: registry.counter(families::ENGINE_ROWS_SCANNED),
            subquery_evals: registry.counter(families::ENGINE_SUBQUERY_EVALS),
            subquery_cache_hits: registry.counter(families::ENGINE_SUBQUERY_CACHE_HITS),
            recursion_iterations: registry.counter(families::ENGINE_RECURSION_ITERATIONS),
            index_probes: registry.counter(families::ENGINE_INDEX_PROBES),
            deadline_abandons: registry.counter(families::OVERLOAD_DEADLINE_ABANDONS),
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
    /// Every query template a result-cache miss met, parsed once.
    templates: Templates,
    /// Check-outs by idempotency token (shared across sessions — tokens are
    /// drawn from [`SharedServer::next_token`]). Calls finding their token
    /// in progress wait on `checkout_cv` for its recorded outcome.
    checkout_log: Lock<CheckoutLog>,
    checkout_cv: Condvar,
    token_counter: AtomicU64,
    /// DML journal: the exact commit order of every write statement, for
    /// deterministic serial replay. Appended inside the commit gate, under
    /// the database's writer, so its order is the commit order.
    dml_log: Lock<Vec<String>>,
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

static CHECKOUT_LOG: LockId = LockId::new("core.checkout_log", 30);
static DML_LOG: LockId = LockId::new("core.dml_log", 140);

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
        locks.set_rejection_counter(metrics.counter(families::OVERLOAD_LOCK_QUEUE_REJECTIONS));
        SharedServer {
            db,
            locks,
            cache,
            templates: Templates::default(),
            checkout_log: Lock::new(&CHECKOUT_LOG, checkout_log),
            checkout_cv: Condvar::new(),
            token_counter: AtomicU64::new(state.next_token()),
            dml_log: Lock::new(&DML_LOG, Vec::new()),
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
        CacheStats {
            hits: self.cache.hits.get(),
            misses: self.cache.misses.get(),
        }
    }

    /// What is in flight right now (tests and diagnostics): with no call
    /// inside the server, [`InFlight::default`].
    pub fn in_flight(&self) -> InFlight {
        let table = self.cache.table.lock();
        let marks = (table.slots.iter())
            .filter(|slot| slot.computing.is_some())
            .count();
        let waiters = table.waiters;
        drop(table);
        let tokens = self.checkout_log.lock().in_progress.len();
        InFlight {
            marks,
            waiters,
            tokens,
        }
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
        std::mem::take(&mut *self.dml_log.lock())
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
    /// The key is the canonical SQL — what parsing and re-printing the text
    /// would give, spliced from its template's print instead — plus the
    /// version of the snapshot the result was computed on; a hit requires
    /// the cached version to equal the *current* version, so results can
    /// never be stale.
    pub fn query_cached(&self, sql: &str) -> pdm_sql::Result<Arc<ResultSet>> {
        self.query_cached_deadline_obs(sql, None, &Recorder::disabled())
    }

    /// [`SharedServer::query_cached`] as sessions call it. A text that is
    /// itself a key of the cache (any statement already served in canonical
    /// spelling) is answered by one probe, unsplit, and records only that
    /// probe. Otherwise the template look-up (one `compile.parse` span), the
    /// cache probe (detail `hit`/`miss`), and — on a miss — the engine's
    /// per-operator spans land in `obs`; a
    /// disabled recorder makes that free. Single-flight is bounded by
    /// `deadline`: concurrent misses on the same canonical key wait for the
    /// first computation (up to `deadline`) and share its result instead of
    /// stampeding the engine. A waiter whose deadline runs out falls back to
    /// computing for itself — never worse than no single-flight. A miss on
    /// a newer storage version than the computation's does not wait at
    /// all: it computes for itself, since the result it would wait for is
    /// stale to it.
    pub fn query_cached_deadline_obs(
        &self,
        sql: &str,
        deadline: Option<Duration>,
        obs: &Recorder,
    ) -> pdm_sql::Result<Arc<ResultSet>> {
        // Probe with the text as sent, before parsing it. Every key of the
        // table is the print of a parsed query, and such a print parses back
        // to that query (what the server already relies on when it executes
        // whatever it parses from a client's printed statement), so a text
        // found among the keys IS its own canonical key. A text in any
        // other spelling finds nothing here and takes its template below to
        // the same slot. The hit's `cache.probe` span is recorded once the
        // entry is found: a probe that finds nothing leaves the statement's
        // one probe span to the canonical look-up after the template's.
        let mut snapshot = self.db.snapshot();
        if let Some(result) = self.cache.get(sql, snapshot.version) {
            obs.span(kinds::CACHE_PROBE, "lookup").set_detail("hit");
            self.m.queries.inc();
            self.cache.hits.inc();
            return Ok(result);
        }
        // A miss reads its text once: split into its template and values,
        // the template's parse looked up (made, the first time), the key
        // spliced from the template's print — no parse, no print.
        let parse_span = obs.span(kinds::PARSE, "query");
        let Resolved {
            key,
            template,
            values,
        } = self.templates.resolve(sql)?;
        drop(parse_span);
        // Only a waiter has a use for the window; a hit reads no clock.
        let deadline = Deadline::new(deadline);
        self.m.queries.inc();
        let mut waited = false;
        // The leadership is held until the result is published (or the
        // computation fails or unwinds, and its drop lets go). The first
        // canonical look-up shares the snapshot of the raw-text probe.
        let leadership = loop {
            // Scope the probe span so engine spans are siblings, not
            // children, of the probe.
            let probe = obs.span(kinds::CACHE_PROBE, "lookup");
            let table = match self.cache.claim(&key, snapshot.version) {
                Claim::Hit(result) => {
                    self.cache.hits.inc();
                    if waited {
                        self.cache.singleflight_hits.inc();
                    }
                    probe.set_detail("hit");
                    return Ok(result);
                }
                Claim::Lead(leadership) => {
                    probe.set_detail("miss");
                    break Some(leadership);
                }
                // The leader computes on an older version: its result
                // would not be ours to take.
                Claim::Behind => {
                    probe.set_detail("miss");
                    break None;
                }
                Claim::Wait(table) => table,
            };
            probe.set_detail("miss");
            drop(probe);
            // Another session is computing this key: wait for it, bounded
            // by our propagated deadline, then re-probe on the storage that
            // is current by then.
            if !self.cache.wait(table, &deadline) {
                // Deadline spent: stop waiting and compute for ourselves
                // rather than returning empty-handed.
                break None;
            }
            waited = true;
            snapshot = self.db.snapshot();
        };
        // The template's plan, compiled once per catalog shape, runs with
        // the values bound.
        let (rows, stats) = snapshot.query_template_profiled(&template, &values, obs)?;
        let result = Arc::new(rows);
        self.m.fold_exec(&stats);
        self.cache.misses.inc();
        match leadership {
            Some(leadership) => leadership.publish(snapshot.version, &result),
            None => self.cache.publish(&key, snapshot.version, &result),
        }
        Ok(result)
    }

    /// Execute a read query bypassing the cache (cold path; the cache
    /// differential tests compare against this).
    pub fn query_uncached(&self, sql: &str) -> pdm_sql::Result<ResultSet> {
        self.db.snapshot().query(sql)
    }

    // -- writes -----------------------------------------------------------

    /// Execute any statement. A write commits through
    /// [`SharedDatabase::execute_ast_gated`]: everything below runs in its
    /// gate, under the writer lock, so it happens in commit order.
    ///
    /// With durability attached, the gate appends and fsyncs the commit
    /// record (under a `wal.append` span, feeding the `wal.fsync_ns`
    /// histogram) before the snapshot is published, so a state change is
    /// visible only once durable. The commit that crosses the checkpoint
    /// interval also takes the cut of the snapshot it is about to publish,
    /// then encodes and installs the checkpoint after releasing the writer
    /// (see [`crate::durability`]); its outcome stands whatever the install
    /// does. With journaling on, the gate appends the statement to the DML
    /// journal.
    ///
    /// The work is abandoned if the caller's propagated `deadline`
    /// (measured from entry) is spent — checked before waiting on the
    /// writer, and again in the gate, before the WAL fsync: a commit whose
    /// budget ran out while it waited has executed its statement on the
    /// copy by then, but publishes nothing and never pays for an fsync
    /// whose result the client gave up on. `None` never abandons.
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
        let deadline = Deadline::new(deadline);
        self.check_deadline(&deadline, "writer", obs)?;
        // The canonical text, printed once for the WAL record and the DML
        // journal.
        let journal = self.journal.load(Ordering::Relaxed);
        let text = (journal || self.durability.is_some()).then(|| stmt.to_string());
        let mut cut = None;
        let (outcome, _) = self.db.execute_ast_gated(stmt, |next| {
            // The writer wait may have consumed the deadline: abandon before
            // the fsync, while nothing is published.
            self.check_deadline(&deadline, "wal_commit", obs)?;
            if let (Some(d), Some(sql)) = (&self.durability, &text) {
                self.wal_op(obs, "commit", || d.log_commit(next.version, sql))?;
                cut = d.cut_if_due(next);
            }
            if journal {
                self.dml_log.lock().extend(text);
            }
            Ok::<_, SharedServerError>(())
        })?;
        self.m.dml_commits.inc();
        if let Some(cut) = cut {
            // The statement is durable and published: a refused install is
            // not its error.
            let _ = cut.install();
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
        let result = self.m.wal_fsync_ns.time(f);
        self.m.wal_appends.inc();
        drop(span);
        result
    }

    /// Deadline-propagation checkpoint before work that is not free to
    /// back out of: if the call's budget is spent, record the abandon
    /// (`overload.deadline_abandons` + an `overload.abandon` span) and
    /// fail fast instead of doing the doomed work.
    fn check_deadline(
        &self,
        deadline: &Deadline,
        label: &str,
        obs: &Recorder,
    ) -> Result<(), SharedServerError> {
        deadline.remaining().map(drop).inspect_err(|_| {
            self.m.deadline_abandons.inc();
            obs.span(kinds::OVERLOAD_ABANDON, label.to_string())
                .set_detail("deadline");
        })
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
        let deadline = Deadline::new(deadline);
        {
            let mut log = self.checkout_log.lock();
            while log.in_progress.contains(&token) {
                log = deadline
                    .wait(&self.checkout_cv, log)
                    .map_err(|_| deadline.lock_timeout())?;
            }
            match log.done.status(token) {
                TokenStatus::Done(rows) => {
                    let rows = rows.as_ref().map(Arc::clone);
                    return Ok(CheckoutProcedureResult { rows });
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
        let mut result = self.checkout_procedure_inner(root, modified_sql, token, &deadline, obs);
        // Make the outcome durable before recording it: a crash after this
        // point replays the token's recorded result instead of re-running
        // the procedure; a crash before it sweeps the grant, as if the
        // check-out never happened. The WAL record, both idempotency logs
        // and the caller share the retrieval's one result.
        if let (Ok(outcome), Some(d)) = (&result, &self.durability) {
            let rows = outcome.rows.as_ref().map(Arc::clone);
            if let Err(e) = self.wal_op(obs, "token", || d.log_token(token, rows)) {
                result = Err(SharedServerError::Sql(e));
            }
        }
        // A failed call records nothing: the token stays replayable.
        if let Ok(outcome) = &result {
            self.checkout_log
                .lock()
                .done
                .record(token, outcome.rows.as_ref().map(Arc::clone));
        }
        drop(claim);
        result
    }

    /// The procedure body, entered by exactly one call per token. The
    /// call's one `deadline` window is re-checked at every blocking point:
    /// before the retrieval and in its single-flight wait, before and in
    /// the lock queue, and again before the durable grant — doomed work is
    /// abandoned at the next blocking point, not completed uselessly.
    fn checkout_procedure_inner(
        &self,
        root: ObjectId,
        modified_sql: &str,
        token: u64,
        deadline: &Deadline,
        obs: &Recorder,
    ) -> Result<CheckoutProcedureResult, SharedServerError> {
        let rows = self.query_cached_deadline_obs(modified_sql, deadline.remaining()?, obs)?;
        let (mut all_assy, comp_ids) = split_ids(&rows)?;
        all_assy.push(root);

        let mut lock_ids: Vec<ObjectId> = Vec::with_capacity(all_assy.len() + comp_ids.len());
        lock_ids.extend(&all_assy);
        lock_ids.extend(&comp_ids);

        deadline.remaining()?;
        let wait_span = obs.span(kinds::LOCK_WAIT, format!("token{token}"));
        let acquired = self
            .m
            .lock_wait_ns
            .time(|| self.locks.acquire(&lock_ids, token, deadline));
        wait_span.set_detail(match &acquired {
            Ok(Acquire::Granted) => "granted",
            Ok(Acquire::Busy) => "busy",
            Err(_) => "timeout",
        });
        drop(wait_span);
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
        self.check_deadline(deadline, "checkout_grant", obs)?;

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
            self.checkout_log.lock().done.status(token),
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
        let rs = self.db.snapshot().query(&format!(
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
            ExecOutcome::Dml(outcome) => Ok(outcome.affected()),
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
    use std::sync::Barrier;

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

    #[test]
    fn misses_of_one_shape_share_one_parsed_template() {
        let s = server();
        for id in 1..=5 {
            let sql = format!("select obid from assy where obid = {id} order by 1");
            assert_eq!(
                *s.query_cached(&sql).unwrap(),
                s.query_uncached(&sql).unwrap()
            );
        }
        assert_eq!(s.templates.len(), 1);
        // Each miss was keyed by its canonical print: that spelling hits.
        let hits = s.cache_stats().hits;
        s.query_cached("SELECT obid FROM assy WHERE obid = 3 ORDER BY 1")
            .unwrap();
        assert_eq!(s.cache_stats().hits, hits + 1);
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
            s.cache.table.lock().index.is_empty(),
            "the slot outlived its leader"
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
        let table = s.cache.table.lock();
        assert!(table
            .index
            .values()
            .all(|&at| table.slots[at].computing.is_none() && table.slots[at].ready.is_some()));
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
        assert!(s.checkout_log.lock().in_progress.is_empty());

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

    fn update(s: &SharedServer) {
        s.execute_deadline_obs(
            "UPDATE assy SET checkedout = FALSE WHERE obid = 1",
            None,
            &Recorder::disabled(),
        )
        .unwrap();
    }

    #[test]
    fn an_older_result_never_replaces_a_newer_entry() {
        let cache = QueryCache::new(&MetricsRegistry::new());
        let key: Arc<str> = "k".into();
        let rows = || Arc::new(ResultSet::empty(pdm_sql::Schema::empty()));
        let (newer, older) = (rows(), rows());
        cache.publish(&key, 6, &newer);
        cache.publish(&key, 5, &older);
        assert!(Arc::ptr_eq(&cache.get("k", 6).unwrap(), &newer));
        assert!(cache.get("k", 5).is_none());
        assert_eq!(cache.invalidations.get(), 0);
        // The other way round is the in-place replacement it always was.
        cache.publish(&key, 7, &older);
        assert!(Arc::ptr_eq(&cache.get("k", 7).unwrap(), &older));
        assert_eq!(cache.invalidations.get(), 1);
    }

    /// A server whose stored function `GATE` holds its first call between
    /// two barriers it shares with the test — `entered`, then `release` —
    /// and then answers what `first` makes of its argument; every later
    /// call returns its argument.
    fn server_with_gate(
        first: fn(&pdm_sql::Value) -> pdm_sql::Result<pdm_sql::Value>,
    ) -> (Arc<SharedServer>, Arc<Barrier>, Arc<Barrier>) {
        let (mut db, _) = build_database(&TreeSpec::new(2, 2, 1.0).with_node_size(128)).unwrap();
        let (entered, release) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
        let (armed, e, r) = (
            AtomicBool::new(true),
            Arc::clone(&entered),
            Arc::clone(&release),
        );
        db.register_function("gate", move |args| {
            if armed.swap(false, Ordering::SeqCst) {
                e.wait();
                r.wait();
                return first(&args[0]);
            }
            Ok(args[0].clone())
        });
        (Arc::new(SharedServer::new(db)), entered, release)
    }

    /// Block until `n` misses wait on a leader.
    fn await_waiters(s: &SharedServer, n: usize) {
        let start = Instant::now();
        while s.in_flight().waiters != n {
            assert!(
                start.elapsed() < Duration::from_secs(30),
                "{n} never waited"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A reader that leads a computation on version N while a writer
    /// commits N+1: the second request waits out its deadline, computes on
    /// N+1 for itself and publishes; the leader's late result — correct for
    /// the snapshot it holds — must not take the entry back to N.
    #[test]
    fn a_timed_out_waiter_publishes_and_the_late_leader_leaves_it_alone() {
        let (s, entered, release) = server_with_gate(|v| Ok(v.clone()));
        let sql = "SELECT GATE(obid) FROM assy";

        let leader = std::thread::spawn({
            let s = Arc::clone(&s);
            move || s.query_cached(sql).unwrap()
        });
        entered.wait(); // the leader is inside the engine, its slot marked
        update(&s);
        let own = s
            .query_cached_deadline_obs(sql, Some(Duration::from_millis(20)), &Recorder::disabled())
            .unwrap();
        assert_eq!(s.cache.singleflight_leaders.get(), 1, "it waited, then ran");
        // The waiter that ran out of deadline is no longer counted.
        assert_eq!(s.in_flight().waiters, 0);
        assert!(
            Arc::ptr_eq(&own, &s.query_cached(sql).unwrap()),
            "the waiter's own result was not published"
        );

        release.wait();
        let late = leader.join().unwrap();
        assert!(!Arc::ptr_eq(&late, &own));
        assert!(
            Arc::ptr_eq(&own, &s.query_cached(sql).unwrap()),
            "a result of the older version replaced the newer entry"
        );
        assert_eq!(s.cache_stats(), CacheStats { hits: 2, misses: 2 });
        assert_eq!(s.cache.invalidations.get(), 0);
        assert_eq!(s.in_flight(), InFlight::default());
    }

    /// A reader that leads a computation on version N while a writer
    /// commits N+1: the second request, on N+1, does not wait for a result
    /// that would be stale to it. It returns while the leader is still
    /// held, never counted as a waiter, and its result is published; the
    /// leader's late one, of the older version, leaves it in place.
    #[test]
    fn a_miss_on_a_newer_version_does_not_wait_for_an_older_leader() {
        let (s, entered, release) = server_with_gate(|v| Ok(v.clone()));
        let sql = "SELECT GATE(obid) FROM assy";

        let leader = std::thread::spawn({
            let s = Arc::clone(&s);
            move || s.query_cached(sql).unwrap()
        });
        entered.wait(); // the leader is inside the engine on N, its slot marked
        update(&s);
        let second = std::thread::spawn({
            let s = Arc::clone(&s);
            move || {
                s.query_cached_deadline_obs(
                    sql,
                    Some(Duration::from_secs(60)),
                    &Recorder::disabled(),
                )
                .unwrap()
            }
        });
        let start = Instant::now();
        while !second.is_finished() {
            assert_eq!(s.in_flight().waiters, 0, "the second request waited");
            assert!(
                start.elapsed() < Duration::from_secs(30),
                "the second request never returned"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let own = second.join().unwrap();
        assert_eq!(s.in_flight().marks, 1, "the leader is still held");
        assert_eq!(s.cache.singleflight_leaders.get(), 1);
        assert!(
            Arc::ptr_eq(&own, &s.query_cached(sql).unwrap()),
            "the second request's result was not published"
        );

        release.wait();
        let late = leader.join().unwrap();
        assert!(!Arc::ptr_eq(&late, &own));
        assert!(
            Arc::ptr_eq(&own, &s.query_cached(sql).unwrap()),
            "a result of the older version replaced the newer entry"
        );
        assert_eq!(s.cache_stats(), CacheStats { hits: 2, misses: 2 });
        assert_eq!(s.cache.singleflight_hits.get(), 0);
        assert_eq!(s.cache.invalidations.get(), 0);
        assert_eq!(s.in_flight(), InFlight::default());
    }

    /// A miss on the leader's own version waits for it, bounded by its
    /// deadline: once that runs out, it stops waiting, computes for itself
    /// and publishes, and the leader's late result of the same version
    /// stands in its place.
    #[test]
    fn a_waiter_that_times_out_on_a_same_version_leader_computes_for_itself() {
        let (s, entered, release) = server_with_gate(|v| Ok(v.clone()));
        let sql = "SELECT GATE(obid) FROM assy";

        let leader = std::thread::spawn({
            let s = Arc::clone(&s);
            move || s.query_cached(sql).unwrap()
        });
        entered.wait();
        let waiter = std::thread::spawn({
            let s = Arc::clone(&s);
            move || {
                s.query_cached_deadline_obs(
                    sql,
                    Some(Duration::from_millis(50)),
                    &Recorder::disabled(),
                )
                .unwrap()
            }
        });
        await_waiters(&s, 1);
        let own = waiter.join().unwrap();
        // The waiter that ran out of deadline is no longer counted.
        assert_eq!(s.in_flight().waiters, 0);
        assert_eq!(s.cache.singleflight_leaders.get(), 1, "it waited, then ran");
        assert!(
            Arc::ptr_eq(&own, &s.query_cached(sql).unwrap()),
            "the waiter's own result was not published"
        );

        release.wait();
        let late = leader.join().unwrap();
        assert!(!Arc::ptr_eq(&late, &own));
        assert!(Arc::ptr_eq(&late, &s.query_cached(sql).unwrap()));
        assert_eq!(*late, *own);
        assert_eq!(s.cache_stats(), CacheStats { hits: 2, misses: 2 });
        assert_eq!(s.cache.singleflight_hits.get(), 0);
        assert_eq!(s.cache.invalidations.get(), 0);
        assert_eq!(s.in_flight(), InFlight::default());
    }

    /// A leader whose engine fails wakes its waiter, which leads in turn;
    /// neither leaves a mark or a count behind.
    #[test]
    fn a_leaders_engine_error_wakes_its_waiter_and_leaves_no_count() {
        let (s, entered, release) =
            server_with_gate(|_| Err(pdm_sql::Error::Eval("injected engine error".into())));
        let sql = "SELECT GATE(obid) FROM assy";
        let leader = std::thread::spawn({
            let s = Arc::clone(&s);
            move || s.query_cached(sql)
        });
        entered.wait();
        let waiter = std::thread::spawn({
            let s = Arc::clone(&s);
            move || s.query_cached(sql)
        });
        await_waiters(&s, 1);
        release.wait();
        assert!(leader.join().unwrap().is_err());
        let rows = waiter
            .join()
            .unwrap()
            .expect("the waiter ran the query itself");
        assert_eq!(
            rows.len(),
            s.query_uncached("SELECT obid FROM assy").unwrap().len()
        );
        assert_eq!(s.cache.singleflight_leaders.get(), 2);
        assert_eq!(s.cache.singleflight_hits.get(), 0);
        assert_eq!(s.in_flight(), InFlight::default());
    }

    /// `n` distinct keys, in the order the tests below publish them: the
    /// ring holds them in that order, and the hand starts at the first.
    fn keys(n: usize) -> Vec<Arc<str>> {
        (0..n).map(|i| format!("k{i}").into()).collect()
    }

    /// What a miss on `key` does: lead, publish a result computed on
    /// storage `version`, let go.
    fn miss(cache: &QueryCache, key: &Arc<str>, version: u64) {
        let Claim::Lead(leadership) = cache.claim(key, version) else {
            panic!("{key} did not lead");
        };
        let result = Arc::new(ResultSet::empty(pdm_sql::Schema::empty()));
        leadership.publish(version, &result);
    }

    /// Does the table hold a result under `key`? (Unlike a look-up, this
    /// does not stamp it.)
    fn holds(cache: &QueryCache, key: &str) -> bool {
        cache
            .table
            .lock()
            .slot(key)
            .is_some_and(|slot| slot.ready.is_some())
    }

    #[test]
    fn a_stale_result_under_the_hand_is_displaced() {
        let cache = QueryCache::new(&MetricsRegistry::new());
        let keys = keys(CACHE_CAPACITY + 1);
        // Key 0, under the hand, on version 1; every other on version 2.
        miss(&cache, &keys[0], 1);
        for key in &keys[1..] {
            miss(&cache, key, 2);
        }
        assert!(!holds(&cache, &keys[0]), "a stale result kept its place");
        assert!(holds(&cache, &keys[CACHE_CAPACITY]));
        assert_eq!(cache.invalidations.get(), 1);
        assert_eq!(cache.table.lock().index.len(), CACHE_CAPACITY);
    }

    #[test]
    fn a_live_result_refuses_the_newcomer_which_is_still_returned() {
        let s = server();
        let sql = |i: usize| format!("SELECT obid FROM assy WHERE obid = {i}");
        for i in 0..CACHE_CAPACITY {
            s.query_cached(&sql(i)).unwrap();
        }
        let newcomer = "SELECT obid FROM assy ORDER BY obid";
        for _ in 0..2 {
            assert_eq!(
                *s.query_cached(newcomer).unwrap(),
                s.query_uncached(newcomer).unwrap()
            );
        }
        let misses = CACHE_CAPACITY as u64 + 2;
        assert_eq!(s.cache_stats(), CacheStats { hits: 0, misses });
        // Nothing left the table: the first two keys, which were under the
        // hand, are served from it.
        s.query_cached(&sql(0)).unwrap();
        s.query_cached(&sql(1)).unwrap();
        assert_eq!(s.cache_stats(), CacheStats { hits: 2, misses });
        assert_eq!(s.cache.invalidations.get(), 0);
        assert_eq!(s.cache.table.lock().index.len(), CACHE_CAPACITY);
    }

    #[test]
    fn an_idle_result_is_displaced_after_two_tables_of_misses() {
        let cache = QueryCache::new(&MetricsRegistry::new());
        let keys = keys(2 * CACHE_CAPACITY + 2);
        for key in &keys[..CACHE_CAPACITY] {
            miss(&cache, key, 1);
        }
        // A table-full of newcomers, each refused, while key 1 is hit and
        // key 0 — stamped by the first miss — is not.
        for key in &keys[CACHE_CAPACITY..2 * CACHE_CAPACITY] {
            miss(&cache, key, 1);
            cache.get(&keys[1], 1).unwrap();
            assert!(!holds(&cache, key));
        }
        assert!(holds(&cache, &keys[0]));
        assert_eq!(cache.invalidations.get(), 0);
        // The next miss is the 2 × CACHE_CAPACITY-th since key 0's stamp,
        // and the hand is back over it.
        miss(&cache, &keys[2 * CACHE_CAPACITY], 1);
        assert!(!holds(&cache, &keys[0]), "an idle result kept its place");
        assert!(holds(&cache, &keys[2 * CACHE_CAPACITY]));
        assert_eq!(cache.invalidations.get(), 1);
        // Key 1, next under the hand, was hit all along: it stays.
        miss(&cache, &keys[2 * CACHE_CAPACITY + 1], 1);
        assert!(holds(&cache, &keys[1]));
        assert!(!holds(&cache, &keys[2 * CACHE_CAPACITY + 1]));
        assert_eq!(cache.invalidations.get(), 1);
    }

    #[test]
    fn a_displaced_key_being_computed_keeps_its_mark_and_publishes_afterwards() {
        let cache = QueryCache::new(&MetricsRegistry::new());
        let keys = keys(CACHE_CAPACITY + 1);
        for key in &keys[..CACHE_CAPACITY] {
            miss(&cache, key, 1);
        }
        // Storage moves to version 2, and key 0's recomputation starts.
        let Claim::Lead(leadership) = cache.claim(&keys[0], 2) else {
            panic!("key 0 did not lead");
        };
        // A newcomer displaces key 0's stale result, not its mark.
        miss(&cache, &keys[CACHE_CAPACITY], 2);
        {
            let table = cache.table.lock();
            let slot = table.slot(&keys[0]).expect("the mark left the table");
            assert!(slot.computing.is_some() && slot.ready.is_none());
        }
        assert_eq!(cache.invalidations.get(), 1);
        // The leader publishes in place of key 1's result, stale as well.
        let rows = Arc::new(ResultSet::empty(pdm_sql::Schema::empty()));
        leadership.publish(2, &rows);
        assert!(Arc::ptr_eq(&cache.get(&keys[0], 2).unwrap(), &rows));
        assert!(!holds(&cache, &keys[1]));
        assert_eq!(cache.invalidations.get(), 2);
        assert_eq!(cache.table.lock().index.len(), CACHE_CAPACITY);
    }

    #[test]
    fn a_replayed_token_returns_the_rows_it_returned_first() {
        let (db, _) = build_database(&TreeSpec::new(2, 2, 1.0).with_node_size(128)).unwrap();
        let s = SharedServer::with_durability(db, &DurabilityConfig::default()).unwrap();
        let sql = crate::query::recursive::mle_query(1).to_string();
        let token = s.next_token();
        let checkout = || {
            s.checkout_procedure_with_deadline_obs(1, &sql, token, None, &Recorder::disabled())
                .unwrap()
                .rows
                .expect("granted")
        };
        let (first, replay) = (checkout(), checkout());
        assert!(Arc::ptr_eq(&first, &replay), "the replay copied the rows");
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
