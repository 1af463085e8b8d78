//! The one writer of the committed `BENCH_*.json` reports, and the contract
//! it holds them to.
//!
//! A report is a flat JSON object: `"bench"`, the bin's own fields in the
//! order given, then — when present — `"attribution"`, `"tail_exemplar"`
//! and, always last, `"metrics"`. The contract is checked on the in-memory
//! values before a byte is written ([`Report::check`]):
//!
//! * **metrics** — every family the bin declares mandatory is in the
//!   snapshot (a silently missing counter means an instrumentation hook
//!   was dropped), and the snapshot holds no family `pdm_obs`'s closed
//!   registry ([`families::ALL`]) lacks;
//! * **attribution** — no table is empty, every action class folded at
//!   least one action, and its critical-path segments sum to the class
//!   total (within float-print tolerance);
//! * **tail exemplar** — the tree validates (one root, no orphans, the
//!   exclusive segments tile `[0, total]` bit-exactly), every span that
//!   carries a trace id carries the tree's, and a client site is covered.
//!
//! A report that breaks the contract is not written: [`Report::write`]
//! prints what broke and exits non-zero.

use std::fmt::{Display, Write as _};

use pdm_core::{chrome_trace_json, AttributionTable, MetricsSnapshot, TailSampler, TraceTree};
use pdm_obs::metrics::{families, Family};

struct Exemplar {
    tree: TraceTree,
    offered: u64,
    retained: u64,
}

pub struct Report {
    bench: &'static str,
    fields: Vec<(&'static str, String)>,
    attribution: Vec<(&'static str, AttributionTable)>,
    exemplar: Option<Exemplar>,
    metrics: MetricsSnapshot,
    mandatory: &'static [Family],
}

impl Report {
    /// A report named `bench` (written to `BENCH_<bench>.json`) that closes
    /// with `metrics`, of which the `mandatory` families must be present.
    ///
    /// ```
    /// use pdm_obs::metrics::families;
    /// let metrics = pdm_obs::MetricsSnapshot::default();
    /// let _ = pdm_bench::report::Report::new("unit", metrics, &[families::CACHE_HITS]);
    /// ```
    ///
    /// A mandatory family is a declared one, or the bin does not compile:
    ///
    /// ```compile_fail,E0308
    /// let metrics = pdm_obs::MetricsSnapshot::default();
    /// let _ = pdm_bench::report::Report::new("unit", metrics, &["cache.hitz"]);
    /// ```
    pub fn new(
        bench: &'static str,
        metrics: MetricsSnapshot,
        mandatory: &'static [Family],
    ) -> Self {
        Report {
            bench,
            fields: Vec::new(),
            attribution: Vec::new(),
            exemplar: None,
            metrics,
            mandatory,
        }
    }

    /// Append `"key": value`; `value` is written as is, so it must print
    /// as JSON (a number, `true`, or an object / array the bin formatted).
    pub fn field(mut self, key: &'static str, value: impl Display) -> Self {
        self.fields.push((key, value.to_string()));
        self
    }

    /// Add one named table to the `"attribution"` section.
    pub fn attribution(mut self, name: &'static str, table: AttributionTable) -> Self {
        self.attribution.push((name, table));
        self
    }

    /// Set the tail exemplar: `tree` is exported in Chrome trace format to
    /// `BENCH_<bench>_exemplar.json` and summarised in the report.
    pub fn tail_exemplar(mut self, tree: TraceTree, sampler: &TailSampler) -> Self {
        self.exemplar = Some(Exemplar {
            tree,
            offered: sampler.offered,
            retained: sampler.retained,
        });
        self
    }

    fn exemplar_file(&self) -> String {
        format!("BENCH_{}_exemplar.json", self.bench)
    }

    /// The report contract (module docs), on the values as they are in
    /// memory.
    pub fn check(&self) -> Result<(), String> {
        let m = &self.metrics;
        let present = |name: &str| {
            m.counters.contains_key(name)
                || m.gauges.contains_key(name)
                || m.histograms.contains_key(name)
        };
        if let Some(family) = self.mandatory.iter().find(|f| !present(f.name())) {
            return Err(format!(
                "metrics lack the mandatory family {}",
                family.name()
            ));
        }
        let names = m.counters.keys().chain(m.gauges.keys());
        if let Some(stray) = names
            .chain(m.histograms.keys())
            .find(|n| !families::ALL.iter().any(|f| f.name() == n.as_str()))
        {
            return Err(format!("metrics carry the undeclared family {stray}"));
        }

        for (name, table) in &self.attribution {
            if table.is_empty() {
                return Err(format!("attribution table {name} is empty"));
            }
            for (action, actions, total, segments) in table.totals() {
                if actions == 0 {
                    return Err(format!("attribution {name}/{action} has no actions"));
                }
                if (segments - total).abs() > 1e-6 * total.abs().max(1.0) {
                    return Err(format!(
                        "attribution {name}/{action}: segments {segments} != total {total}"
                    ));
                }
            }
        }

        if let Some(Exemplar { tree, .. }) = &self.exemplar {
            tree.validate()
                .map_err(|e| format!("tail exemplar does not validate: {e}"))?;
            let id = tree.trace_id as f64;
            for span in &tree.spans {
                let foreign = span
                    .attrs
                    .iter()
                    .find(|(k, v)| *k == "trace_id" && *v != id);
                if let Some((_, other)) = foreign {
                    return Err(format!(
                        "tail exemplar span {} carries trace id {other}, the tree {id}",
                        span.id
                    ));
                }
            }
            if !tree.sites().iter().any(|s| s.starts_with("client")) {
                return Err("tail exemplar covers no client span".into());
            }
        }
        Ok(())
    }

    /// The report as it is written.
    pub fn render(&self) -> String {
        let mut out = format!("{{\n  \"bench\": \"{}\",\n", self.bench);
        for (key, value) in &self.fields {
            let _ = writeln!(out, "  \"{key}\": {value},");
        }
        if !self.attribution.is_empty() {
            let tables: Vec<String> = self
                .attribution
                .iter()
                .map(|(name, table)| format!("    \"{name}\": {}", table.to_json(4)))
                .collect();
            let _ = writeln!(out, "  \"attribution\": {{\n{}\n  }},", tables.join(",\n"));
        }
        if let Some(ex) = &self.exemplar {
            let tree = &ex.tree;
            let sites: Vec<String> = tree.sites().iter().map(|s| format!("\"{s}\"")).collect();
            let _ = writeln!(
                out,
                concat!(
                    "  \"tail_exemplar\": {{ \"file\": \"{}\", ",
                    "\"trace_id\": {}, \"action\": \"{}\", \"outcome\": \"{}\", ",
                    "\"total_v_s\": {:.9}, \"spans\": {}, \"sites\": [{}], ",
                    "\"offered\": {}, \"retained\": {} }},"
                ),
                self.exemplar_file(),
                tree.trace_id,
                tree.action,
                tree.outcome,
                tree.total_v,
                tree.span_count(),
                sites.join(", "),
                ex.offered,
                ex.retained,
            );
        }
        let _ = write!(out, "  \"metrics\": {}\n}}\n", self.metrics.to_json(2));
        out
    }

    /// Check the contract, then write `BENCH_<bench>.json` (and the
    /// exemplar's trace file) into the current directory. A violation is
    /// printed and ends the process non-zero with nothing written.
    pub fn write(&self) {
        if let Err(violation) = self.check() {
            eprintln!(
                "BENCH_{}.json breaks the report contract: {violation}",
                self.bench
            );
            std::process::exit(1);
        }
        let mut written = format!("BENCH_{}.json", self.bench);
        write_file(&written, &self.render());
        if let Some(ex) = &self.exemplar {
            let file = self.exemplar_file();
            write_file(&file, &chrome_trace_json(std::slice::from_ref(&ex.tree)));
            written = format!("{written} and {file}");
        }
        println!("wrote {written}");
    }
}

fn write_file(path: &str, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_obs::{kinds, MetricsRegistry, Recorder};

    const MANDATORY: &[Family] = &[
        families::CACHE_HITS,
        families::NET_LATENCY_S,
        families::LOCKS_WAIT_NS,
    ];

    fn metrics() -> MetricsSnapshot {
        let reg = MetricsRegistry::new();
        reg.counter(families::CACHE_HITS).add(3);
        reg.gauge(families::NET_LATENCY_S).set(0.25);
        reg.histogram(families::LOCKS_WAIT_NS).record(700);
        reg.snapshot()
    }

    /// Two exchanges of client1 under trace id 7.
    fn tree() -> TraceTree {
        let rec = Recorder::new();
        for (label, v) in [("q0", 0.25), ("q1", 0.5)] {
            let exchange = rec.span(kinds::NET_EXCHANGE, label);
            exchange.advance(v);
            exchange.add_attr("trace_id", 7.0);
        }
        TraceTree::assemble(7, "expand", "client1", "ok", rec.spans())
    }

    fn full_report() -> Report {
        let mut table = AttributionTable::new();
        table.add("expand", &tree());
        let mut sampler = TailSampler::new(0.0, 1);
        sampler.offer(tree());
        Report::new("unit", metrics(), MANDATORY)
            .field("seed", 7)
            .attribution("all", table)
            .tail_exemplar(tree(), &sampler)
    }

    #[test]
    fn a_well_formed_report_passes_and_renders_its_sections_in_order() {
        let report = full_report();
        report.check().unwrap();
        let text = report.render();
        let at = |needle: &str| text.find(needle).unwrap_or_else(|| panic!("no {needle}"));
        assert!(text.starts_with("{\n  \"bench\": \"unit\",\n  \"seed\": 7,\n"));
        assert!(at("\"attribution\"") < at("\"tail_exemplar\""));
        assert!(at("\"tail_exemplar\"") < at("\"metrics\""));
        assert!(text.contains("\"file\": \"BENCH_unit_exemplar.json\", \"trace_id\": 7,"));
        assert!(text.contains("\"spans\": 3, \"sites\": [\"client1\"], \"offered\": 1"));
        assert!(text.contains("\"locks.wait_ns\": { \"count\": 1 }"));
        assert!(text.ends_with("  }\n}\n"));
    }

    #[test]
    fn a_missing_mandatory_family_fails() {
        let mut report = full_report();
        report.metrics.gauges.remove("net.latency_s");
        let err = report.check().unwrap_err();
        assert!(
            err.contains("lack the mandatory family net.latency_s"),
            "{err}"
        );
    }

    #[test]
    fn a_family_outside_the_closed_registry_fails() {
        let mut report = full_report();
        report.metrics.counters.insert("cache.hitz".into(), 1);
        let err = report.check().unwrap_err();
        assert!(err.contains("undeclared family cache.hitz"), "{err}");
    }

    #[test]
    fn attribution_segments_that_do_not_sum_fail() {
        // A tree total its spans do not sum to: in the class total, in no
        // class.
        let mut skewed = tree();
        skewed.total_v += 0.125;
        let mut table = AttributionTable::new();
        table.add("expand", &skewed);
        let report = Report::new("unit", metrics(), MANDATORY).attribution("all", table);
        let err = report.check().unwrap_err();
        assert!(
            err.contains("all/expand: segments 0.75 != total 0.875"),
            "{err}"
        );

        let empty =
            Report::new("unit", metrics(), MANDATORY).attribution("all", AttributionTable::new());
        assert!(empty.check().unwrap_err().contains("is empty"));
    }

    #[test]
    fn an_exemplar_with_two_trace_ids_fails() {
        let mut sampler = TailSampler::new(0.0, 1);
        sampler.offer(tree());
        let mut mixed = tree();
        mixed.spans[1].attrs = vec![("v_s", 0.5), ("trace_id", 8.0)];
        let report = Report::new("unit", metrics(), MANDATORY).tail_exemplar(mixed, &sampler);
        let err = report.check().unwrap_err();
        assert!(err.contains("carries trace id 8, the tree 7"), "{err}");
    }

    #[test]
    fn an_exemplar_whose_exclusive_times_miss_the_total_fails() {
        let mut sampler = TailSampler::new(0.0, 1);
        sampler.offer(tree());
        let mut drifted = tree();
        drifted.total_v += 0.001;
        let report = Report::new("unit", metrics(), MANDATORY).tail_exemplar(drifted, &sampler);
        let err = report.check().unwrap_err();
        assert!(err.contains("does not validate"), "{err}");
    }
}
