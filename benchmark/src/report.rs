//! The metric names this benchmark emits, and the check that they are the
//! ones `BENCHMARK.json` declares.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{self, Json};

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Allowed worsening of the median as a share of the parent's median
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Decl {
    Decl {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Decl {
    e2e(name, unit, higher, 0.0)
}

/// What a user of the system sees; measured with bench tracing and session
/// profiling off, emitted by every workload.
pub const END_TO_END: &[Decl] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("ops_per_s", "actions/s", true, 0.25),
    e2e("read_wall_us.mean", "us", false, 0.25),
    e2e("resp_v_s.mean", "virtual_s", false, 0.02),
    e2e("wan_kb_per_action", "kB", false, 0.02),
    e2e("wan_roundtrips_per_action", "count", false, 0.02),
    e2e("peak_rss_mb", "MB", false, 0.25),
];

/// Single layers (layer = crate or module), from the traced run.
pub const PER_LAYER: &[Decl] = &[
    // pdm-sql
    layer("sql.parse_us.nav", "us", false),
    layer("sql.print_us.nav", "us", false),
    layer("sql.parse_us.mle", "us", false),
    layer("sql.exec_us.point", "us", false),
    layer("sql.exec_us.mle", "us", false),
    layer("sql.exec_us.query_all", "us", false),
    layer("sql.rows_scanned_per_row_out", "ratio", false),
    layer("sql.index_probes_per_action", "count", false),
    layer("sql.recursion_rounds_per_mle", "count", false),
    layer("sql.commit_us.row_update", "us", false),
    layer("sql.snapshot_encode_ms", "ms", false),
    // pdm-core rules and query modification
    layer("core.rules.lookup_us", "us", false),
    layer("core.modify_us.nav", "us", false),
    layer("core.modify_us.mle", "us", false),
    // pdm-core client side
    layer("core.session.assemble_us_per_node", "us", false),
    layer("core.session.late_filter_ns_per_row", "ns", false),
    // pdm-core cross-session result cache
    layer("core.cache.hit_us", "us", false),
    layer("core.cache.miss_overhead_us", "us", false),
    layer("core.cache.hit_rate", "ratio", true),
    layer("core.cache.invalidations_per_commit", "count", false),
    layer("core.cache.evicted_entries", "count", false),
    // pdm-core lock table and check-out
    layer("core.locks.acquire_release_us", "us", false),
    layer("core.locks.wait_ms.p99", "ms", false),
    layer("core.locks.refusals", "count", false),
    layer("core.checkout.cycle_us", "us", false),
    // pdm-core shared server under two clients
    layer("core.shared.scaling_2c", "ratio", true),
    // pdm-wal and the durability layer
    layer("wal.encode_ns_per_record", "ns", false),
    layer("wal.append_sync_us", "us", false),
    layer("wal.bytes_per_commit", "B", false),
    layer("wal.fsyncs_per_commit", "count", false),
    layer("wal.appends_per_action", "count", false),
    layer("core.durability.log_commit_us", "us", false),
    layer("core.durability.checkpoint_ms", "ms", false),
    layer("core.durability.recover_ms", "ms", false),
    layer("wal.scan_mb_per_s", "MB/s", true),
    // pdm-core admission gate
    layer("core.overload.admit_ns", "ns", false),
    layer("core.overload.rejections", "count", false),
    // pdm-core replication
    layer("core.repl.ship_us_per_record", "us", false),
    layer("core.repl.apply_us_per_record", "us", false),
    layer("core.repl.ack_wait_v_s", "virtual_s", false),
    layer("core.repl.watermark_wait_v_s", "virtual_s", false),
    layer("core.repl.lag_records.p99", "count", false),
    layer("core.repl.shipped_bytes_per_logged_byte", "ratio", false),
    // pdm-net
    layer("net.exchange_ns", "ns", false),
    layer("net.exchanges_per_action", "count", false),
    // observability and the harness itself
    layer("obs.profiling_overhead_frac", "ratio", false),
    layer("bench.trace_overhead_frac", "ratio", false),
    layer("bench.replay_residual_frac", "ratio", false),
    // action-level readings that cannot carry a bound on every workload, so
    // they are reported here and not gated: a percentile of a latency
    // distribution made of a few narrow modes (action sizes, and with two
    // clients what the other one is doing) jumps between modes from run to
    // run, and so does the mean of the small expands beside a committing
    // second client; a p99 needs 1,000 samples, write latency needs
    // writes, and a failure share is 0
    layer("expand_wall_us.mean", "us", false),
    layer("expand_wall_us.p50", "us", false),
    layer("expand_wall_us.p90", "us", false),
    layer("wall_us.p50", "us", false),
    layer("wall_us.p99", "us", false),
    layer("write_wall_us.p50", "us", false),
    layer("failed_frac", "ratio", false),
];

/// Values by metric name, as a run collects them.
pub type Values = BTreeMap<&'static str, f64>;

/// The result of one run.
#[derive(Debug)]
pub struct RunResult {
    /// Every output oracle passed.
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    /// `(declaration, value)` for every metric of the requested sets.
    pub metrics: Vec<(Decl, f64)>,
    /// Oracle failures and other remarks for the human reader.
    pub notes: Vec<String>,
}

/// Pair every declared metric of `decls` with its value; a missing or
/// non-finite value is an error, so the emitted names are the declared
/// names by construction.
pub fn collect(decls: &[Decl], values: &Values) -> Result<Vec<(Decl, f64)>, String> {
    decls
        .iter()
        .map(|d| match values.get(d.name) {
            Some(v) if v.is_finite() => Ok((*d, *v)),
            Some(v) => Err(format!("metric {} is {v}", d.name)),
            None => Err(format!("metric {} was not measured", d.name)),
        })
        .collect()
}

impl RunResult {
    /// The one-line JSON object the driver reads from the last line.
    pub fn to_json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (d, v)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}{}: {{\"value\": {v}, \"unit\": {}}}",
                json::quote(d.name),
                json::quote(d.unit)
            );
        }
        out.push_str("}}");
        out
    }

    /// Every metric by name with its unit, one per line.
    pub fn to_table(&self, workload: &str) -> String {
        let mut out = String::new();
        for (d, v) in &self.metrics {
            let _ = writeln!(out, "{workload:<10} {:<42} {v:>16.4} {}", d.name, d.unit);
        }
        for note in &self.notes {
            let _ = writeln!(out, "{workload:<10} note: {note}");
        }
        out
    }
}

fn check_decls(section: &str, declared: &[Decl], doc: &Json, with_bound: bool) -> Vec<String> {
    let mut problems = Vec::new();
    let listed = doc.get(section).and_then(Json::as_array).unwrap_or(&[]);
    let names: Vec<&str> = listed
        .iter()
        .filter_map(|m| m.get("name").and_then(Json::as_str))
        .collect();
    for d in declared {
        let Some(m) = listed
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some(d.name))
        else {
            problems.push(format!("{section}: {} is emitted but not declared", d.name));
            continue;
        };
        if m.get("unit").and_then(Json::as_str) != Some(d.unit) {
            problems.push(format!(
                "{section}: {} has unit {:?}, emitted as {}",
                d.name,
                m.get("unit"),
                d.unit
            ));
        }
        let better = if d.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        if m.get("better").and_then(Json::as_str) != Some(better) {
            problems.push(format!(
                "{section}: {} should read better = {better}",
                d.name
            ));
        }
        if with_bound && m.get("bound").and_then(Json::as_f64) != Some(d.bound) {
            problems.push(format!(
                "{section}: {} should read bound = {}",
                d.name, d.bound
            ));
        }
    }
    for name in names {
        if !declared.iter().any(|d| d.name == name) {
            problems.push(format!("{section}: {name} is declared but never emitted"));
        }
    }
    problems
}

/// Compare `BENCHMARK.json` (its text) with what this binary emits: the
/// same workloads, and for both metric sets the same names — none missing,
/// none extra — with the same units, directions and bounds.
pub fn check_against(benchmark_json: &str, workloads: &[&str]) -> Vec<String> {
    let doc = match json::parse(benchmark_json) {
        Ok(doc) => doc,
        Err(e) => return vec![format!("BENCHMARK.json does not parse: {e}")],
    };
    let mut problems = check_decls("end_to_end", END_TO_END, &doc, true);
    problems.extend(check_decls("per_layer", PER_LAYER, &doc, false));
    let listed: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    if listed != workloads {
        problems.push(format!("workloads: declared {listed:?}, run {workloads:?}"));
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_exactly_what_is_emitted() {
        let text = include_str!("../../BENCHMARK.json");
        let problems = check_against(text, &crate::run::WORKLOADS);
        assert!(problems.is_empty(), "{problems:#?}");
    }

    #[test]
    fn check_sees_missing_extra_and_wrong_unit() {
        let text = include_str!("../../BENCHMARK.json")
            .replace("\"read_wall_us.mean\"", "\"read_wall_us.mean2\"")
            .replace("\"unit\": \"MB\"", "\"unit\": \"GB\"");
        let problems = check_against(&text, &crate::run::WORKLOADS).join("\n");
        assert!(problems.contains("read_wall_us.mean is emitted but not declared"));
        assert!(problems.contains("read_wall_us.mean2 is declared but never emitted"));
        assert!(problems.contains("peak_rss_mb has unit"));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} is declared twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
    }

    #[test]
    fn collect_refuses_a_missing_metric() {
        let mut values = Values::new();
        for d in END_TO_END {
            values.insert(d.name, 1.5);
        }
        assert_eq!(
            collect(END_TO_END, &values).map(|m| m.len()),
            Ok(END_TO_END.len())
        );
        values.remove("ops_per_s");
        assert!(collect(END_TO_END, &values).is_err());
        values.insert("ops_per_s", f64::NAN);
        assert!(collect(END_TO_END, &values).is_err());
    }

    #[test]
    fn result_line_is_json_with_the_contract_keys() {
        let result = RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![(END_TO_END[0], 0.8127), (END_TO_END[1], 1234.5)],
            notes: vec![],
        };
        let doc = json::parse(&result.to_json_line()).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }
}
