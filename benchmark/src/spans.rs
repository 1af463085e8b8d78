//! The benchmark's own span recorder for the traced layer-replay pass.
//!
//! Spans are recorded around calls into the program's public functions, from
//! this package only; nothing inside the program is instrumented. They stay
//! in memory and are written out once, when the pass has ended.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. `parent` indexes the span that made the call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The user action the span belongs to; all spans of one action share it.
    pub action_id: u64,
}

/// Records spans when enabled; a disabled tracer only runs the closures, so
/// the same replay code gives the untraced time the overhead is taken
/// against.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<usize>,
    action_id: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            action_id: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` as the root span of a new action.
    pub fn action<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.action_id += 1;
        self.span(name, f)
    }

    /// Run `f` inside a span called `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            action_id: self.action_id,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// A span's self time: its duration minus the part of it that its direct
/// children cover. Children may overlap each other (the union of their
/// intervals is what counts) and are clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let start = s.start_ns.max(spans[p].start_ns);
            let end = s.end_ns.min(spans[p].end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Self time summed per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += t;
    }
    out
}

/// The spans as a JSON array of
/// `{"id", "name", "start_ns", "end_ns", "parent", "action_id"}` objects.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let comma = if id + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "  {{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"parent\": {parent}, \"action_id\": {}}}{comma}",
            s.name, s.start_ns, s.end_ns, s.action_id
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            action_id: 1,
        }
    }

    #[test]
    fn self_time_with_nested_and_overlapping_children() {
        let spans = vec![
            span(0, 100, None),     // root
            span(10, 40, Some(0)),  // child a
            span(30, 60, Some(0)),  // child b overlaps a: union 10..60
            span(15, 20, Some(1)),  // grandchild, counts against a only
            span(90, 120, Some(0)), // runs past the root: clipped to 90..100
        ];
        assert_eq!(self_times(&spans), vec![40, 25, 30, 5, 30]);
    }

    #[test]
    fn tracer_nests_and_tags_actions() {
        let mut t = Tracer::new(true);
        t.action("a", |t| {
            t.span("b", |t| t.span("c", |_| ()));
            t.span("d", |_| ());
        });
        t.action("e", |_| ());
        let names: Vec<_> = t
            .spans()
            .iter()
            .map(|s| (s.name, s.parent, s.action_id))
            .collect();
        assert_eq!(
            names,
            vec![
                ("a", None, 1),
                ("b", Some(0), 1),
                ("c", Some(1), 1),
                ("d", Some(0), 1),
                ("e", None, 2)
            ]
        );
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
        let total: u64 = self_times(t.spans()).iter().sum();
        let roots: u64 = [0usize, 4]
            .iter()
            .map(|&i| t.spans()[i].end_ns - t.spans()[i].start_ns)
            .sum();
        assert_eq!(total, roots, "self times tile the root spans");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.action("a", |t| t.span("b", |_| 7)), 7);
        assert!(t.spans().is_empty());
    }
}
