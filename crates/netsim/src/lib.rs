#![cfg_attr(test, allow(clippy::unwrap_used))]

//! # pdm-net — deterministic WAN/LAN simulator
//!
//! Substitutes for the paper's physical testbed (PDM clients in Germany,
//! database server in Brazil). The paper itself characterizes the link with
//! three parameters — data transfer rate `dtr`, latency `T_Lat`, packet size
//! `size_p` (Table 1) — and its whole evaluation is the accounting of
//! messages and bytes over such a link. This crate implements exactly that
//! accounting against a virtual clock, so real SQL traffic produced by the
//! PDM layer can be *measured* rather than predicted, and then compared
//! against the closed-form model in `pdm-model`.
//!
//! Units follow the paper: `dtr` is in kbit/s with 1 kbit = 1024 bits
//! (required to reproduce Table 2 to the cent), packet size in bytes
//! (4 kB = 4096 B), times in seconds.

pub mod channel;
pub mod clock;
pub mod fault;
pub mod link;
pub mod packet;
pub mod stats;

pub use channel::{MeteredChannel, PendingRequest, RoundTrip};
pub use clock::VirtualClock;
pub use fault::{FaultEventKind, FaultPlan, LinkError, OutageWindow, ScriptedFault, ScriptedKind};
pub use link::LinkProfile;
pub use packet::packet_count;
pub use stats::{record_traffic, TrafficStats};
