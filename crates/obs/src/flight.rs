//! Flight recorder: a bounded ring of recent span/event completions per
//! session, plus the dump type carried inside `SessionError` context so a
//! seeded failure arrives with its own timeline.

use std::fmt;

use crate::span::SpanKind;
use crate::trace::TraceTree;

/// Ring capacity. Big enough to hold a whole multi-level expand's network
/// exchanges, small enough that an error value stays cheap to clone.
pub const FLIGHT_CAPACITY: usize = 64;

/// One completed span or event: where on the virtual timeline it finished,
/// what kind, which label.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEvent {
    /// Virtual-clock position (action-relative seconds) at completion.
    pub vtime: f64,
    pub kind: SpanKind,
    pub label: String,
}

impl fmt::Display for FlightEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[v={:.6}s] {} {}",
            self.vtime,
            self.kind.full_name(),
            self.label
        )
    }
}

/// The flight-recorder dump attached to failing `SessionError`s: the span
/// kind in which the deadline expired (e.g. `"locks.wait"` vs
/// `"net.exchange"`) plus the most recent events, oldest first. Empty when
/// profiling is off except for `expired_in`, which is known statically at
/// the failure site.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlightDump {
    /// Full span-kind name where the deadline expired, empty if unknown.
    pub expired_in: String,
    /// Recent flight events, oldest first.
    pub events: Vec<FlightEvent>,
    /// The offending action's assembled tree (profiling on only) —
    /// strictly more than the flat ring: it keeps parentage, sites, and
    /// the exact per-segment virtual durations up to the failure point.
    pub trace: Option<Box<TraceTree>>,
}

impl FlightDump {
    /// A dump with only the expiry site (profiling off).
    pub fn at(expired_in: impl Into<String>) -> Self {
        FlightDump {
            expired_in: expired_in.into(),
            events: Vec::new(),
            trace: None,
        }
    }

    /// Attach recent events from `rec` (no-op if the recorder is disabled).
    pub fn with_events(mut self, rec: &crate::span::Recorder) -> Self {
        self.events = rec.flight();
        self
    }

    pub fn is_empty(&self) -> bool {
        self.expired_in.is_empty() && self.events.is_empty() && self.trace.is_none()
    }

    /// Multi-line rendering for journals and error displays.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.expired_in.is_empty() {
            out.push_str(&format!("deadline expired in: {}\n", self.expired_in));
        }
        if self.events.is_empty() {
            out.push_str("flight recorder: empty (profiling off)\n");
        } else {
            out.push_str(&format!(
                "flight recorder ({} events):\n",
                self.events.len()
            ));
            for ev in &self.events {
                out.push_str(&format!("  {ev}\n"));
            }
        }
        if let Some(t) = &self.trace {
            out.push_str(&format!(
                "trace tree: id={:#x} action={} spans={} sites={} total_v={:.6}s\n",
                t.trace_id,
                t.action,
                t.span_count(),
                t.sites().len(),
                t.total_v
            ));
        }
        out
    }
}

impl fmt::Display for FlightDump {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{kinds, Recorder};

    #[test]
    fn dump_renders_expiry_and_events() {
        let rec = Recorder::new();
        rec.event(kinds::NET_BACKOFF, "retry 1");
        let dump = FlightDump::at("net.exchange").with_events(&rec);
        let text = dump.render();
        assert!(text.contains("deadline expired in: net.exchange"));
        assert!(text.contains("net.backoff retry 1"));
    }

    #[test]
    fn empty_dump() {
        let dump = FlightDump::default();
        assert!(dump.is_empty());
        assert!(dump.render().contains("profiling off"));
    }
}
