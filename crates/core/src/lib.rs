#![cfg_attr(test, allow(clippy::unwrap_used))]

//! # pdm-core — the PDM system of the paper
//!
//! Implements the primary contribution of *"Tuning an SQL-Based PDM System
//! in a Worldwide Client/Server Environment"* (ICDE 2001):
//!
//! * the **rule taxonomy** of §3 — structure options, effectivities, and
//!   message access rules as (user, action, type, condition) 4-tuples, with
//!   conditions classified per Figure 1 into row conditions and the three
//!   tree-condition classes (∀rows, ∃structure, tree-aggregate);
//! * **condition → SQL translation** (§4.1, §5.3), performed once at rule
//!   definition time and stored in the client-side rule table (§5.5);
//! * the **query modificator** (§5.5, steps A–D) that splices rule
//!   predicates into navigational and recursive queries — including the
//!   paper's caveat that queries hidden behind views cannot be modified;
//! * three **client strategies** over a metered WAN: navigational access
//!   with late (client-side) rule evaluation, navigational access with
//!   early (in-query) evaluation — Approach 1 — and single recursive-query
//!   retrieval — Approach 2;
//! * **check-out/check-in** (§6): tree retrieval plus the separate UPDATE
//!   round trip that recursive querying cannot absorb, and the
//!   function-shipping (stored procedure) remedy the paper sketches;
//! * **one request path**: every client/server exchange — query, update,
//!   function-shipping check-out, federated site query — runs through
//!   [`resilience`]'s single exchange routine, and [`SharedServer`] has one
//!   entry point per operation that takes the caller's deadline and span
//!   recorder explicitly ([`PdmServer`] is a cloneable handle that
//!   dereferences to it);
//! * a **resilience layer** for faulty WANs: retry with deterministic
//!   backoff, failure-atomic check-out via idempotency tokens, circuit-
//!   breaker degradation from the recursive strategy to level-batched
//!   navigation, and partial federated results over unreachable sites;
//! * end-to-end **observability** (`pdm-obs`): per-action span trees from
//!   rule lookup down to engine operators, WAL appends and network
//!   exchanges ([`Session::enable_profiling`]), a server-wide metrics
//!   registry ([`SharedServer::metrics`]), and flight-recorder context on
//!   timeout errors ([`SessionError::Timeout`]).

pub mod checkout;
pub mod client;
pub mod durability;
pub mod federation;
pub mod functions;
pub mod overload;
pub mod product;
pub mod query;
pub mod repl;
mod replay;
pub mod resilience;
pub mod rules;
pub mod server;
pub mod session;
pub mod shared;

pub use client::Strategy;
pub use durability::{
    recover_server, Durability, DurabilityConfig, GrantIds, RecoveryError, RecoveryReport,
};
pub use federation::{FederatedOutcome, Federation, MountPoint};
pub use overload::{OverloadConfig, OverloadGate, Permit, Priority, Rejection, RetryBudget};
pub use pdm_obs::{
    attribution, chrome_trace_json, Attribution, AttributionTable, FlightDump, FlightEvent,
    MetricsRegistry, MetricsSnapshot, QueryProfile, Recorder, SpanKind, SpanRecord, Subsystem,
    TailSampler, TraceContext, TraceTree,
};
pub use product::{ObjectId, ProductNode, ProductTree};
pub use repl::{
    replay_prefix, AckedWrite, Cluster, ClusterConfig, FailoverReport, ReplError, ReplicaSite,
    ReplicationFeed, RoutedRead, RoutedSession, Shipped, Staleness, WriteReceipt,
};
pub use resilience::{DegradationController, RetryPolicy};
pub use rules::condition::{AggFunc, CmpOp, Condition, RowPredicate};
pub use rules::table::RuleTable;
pub use rules::{ActionKind, Rule, UserPattern};
pub use server::PdmServer;
pub use session::{ExpandOutcome, QueryOutcome, Session, SessionConfig, SessionError};
pub use shared::{
    Acquire, CacheStats, InFlight, LockEvent, LockTable, SharedServer, SharedServerError,
    CACHE_CAPACITY, RETAINED_TOKENS,
};
