//! Commands that run workloads as child processes: `run --all`, and the
//! A/A comparison of two interleaved sets of runs of the same code.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;
use std::time::Instant;

use crate::json::{self, Json};
use crate::report::{Decl, END_TO_END};
use crate::run::WORKLOADS;
use crate::stats;
use crate::Options;

/// A child run may take this long before `run --all` remarks on it.
const CHILD_LIMIT_S: f64 = 30.0;

struct Child {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
    /// Everything the child printed before its result line.
    table: String,
    wall_s: f64,
}

/// Run one workload in a child process of this same binary and read the
/// result line it ends with.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: &str,
    smoke: bool,
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload, "--trace", trace])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()]);
    if smoke {
        cmd.arg("--smoke");
    }
    let t0 = Instant::now();
    let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let wall_s = t0.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (table, line) = match stdout.trim_end().rsplit_once('\n') {
        Some((table, line)) => (format!("{table}\n"), line),
        None => (String::new(), stdout.trim_end()),
    };
    let doc = json::parse(line).map_err(|e| {
        format!(
            "{workload} (seed {seed}) ended with {} and no result line ({e}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )
    })?;
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or("result line has no metrics")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    let num = |key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    Ok(Child {
        correct: doc.get("correct").and_then(Json::as_bool).unwrap_or(false)
            && out.status.success(),
        attempted: num("attempted"),
        failed: num("failed"),
        metrics,
        table: table.to_string(),
        wall_s,
    })
}

/// `run --all`: each workload in its own child process, every metric of
/// both sets printed by name with its unit, every oracle on.
pub fn run_all(seed: u64, seconds: f64, smoke: bool) -> Result<bool, String> {
    let mut all_correct = true;
    let mut ops_per_s = BTreeMap::new();
    for workload in WORKLOADS {
        let c = child(workload, seed, seconds, "both", smoke)?;
        print!("{}", c.table);
        println!(
            "{workload:<10} attempted {} failed {} correct {} child_wall_s {:.1}{}",
            c.attempted,
            c.failed,
            c.correct,
            c.wall_s,
            if c.wall_s > CHILD_LIMIT_S {
                "  (over the 30 s budget)"
            } else {
                ""
            }
        );
        all_correct &= c.correct;
        ops_per_s.insert(workload, c.metrics.get("ops_per_s").copied().unwrap_or(0.0));
    }
    println!(
        "{:<10} {:<42} {:>16.4} ratio  (ops_per_s of mixed_2c over mixed_1c, seed {seed})",
        "all",
        "core.shared.scaling_2c",
        ops_per_s["mixed_2c"] / ops_per_s["mixed_1c"]
    );
    println!("all oracles passed: {all_correct}");
    Ok(all_correct)
}

/// By how much of A's median B's median is worse (negative: better).
fn worsening(d: &Decl, a: f64, b: f64) -> f64 {
    if d.higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// `aa`: `sets` interleaved sets of `runs` full runs each (run `r` of every
/// set uses seed `seed + r`), then per workload and end-to-end metric the
/// set medians and quartiles and the gap between the sets against the
/// metric's bound. Fails on a gap beyond the bound, or on a spread (quartile
/// distance over median, `setup_s` excepted) beyond it.
pub fn aa_command(opts: &Options) -> Result<bool, String> {
    let sets: usize = opts.value("sets")?.unwrap_or(2);
    let runs: usize = opts.value("runs")?.unwrap_or(5);
    let seed: u64 = opts.value("seed")?.unwrap_or(1);
    let seconds: f64 = opts.value("seconds")?.unwrap_or(crate::DEFAULT_SECONDS);
    if sets < 2 || runs < 2 {
        return Err("aa needs --sets >= 2 and --runs >= 2".into());
    }
    // values[set][workload][metric] holds one value per run
    let mut values = vec![vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()]; sets];
    let mut all_correct = true;
    for r in 0..runs {
        for (set, of_set) in values.iter_mut().enumerate() {
            for (w, workload) in WORKLOADS.iter().enumerate() {
                let c = child(workload, seed + r as u64, seconds, "0", false)?;
                all_correct &= c.correct && c.failed == 0.0;
                for (m, d) in END_TO_END.iter().enumerate() {
                    let v = c
                        .metrics
                        .get(d.name)
                        .ok_or_else(|| format!("{workload} did not emit {}", d.name))?;
                    of_set[w][m].push(*v);
                }
            }
            eprintln!(
                "aa: run {} of {runs}, set {} of {sets} done",
                r + 1,
                set + 1
            );
        }
    }

    let mut breaches = 0;
    let mut rows = Vec::new();
    println!(
        "{:<10} {:<26} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "gap", "spread A", "spread B", "bound"
    );
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (m, d) in END_TO_END.iter().enumerate() {
            let per_set: Vec<&Vec<f64>> = values.iter().map(|of_set| &of_set[w][m]).collect();
            let quart: Vec<[f64; 3]> = per_set
                .iter()
                .map(|v| stats::quartiles(v).unwrap_or([0.0; 3]))
                .collect();
            let spreads: Vec<f64> = per_set
                .iter()
                .map(|v| stats::spread(v).unwrap_or(0.0))
                .collect();
            // every later set against the first
            let gap = quart[1..]
                .iter()
                .map(|q| worsening(d, quart[0][1], q[1]).abs())
                .fold(0.0, f64::max);
            let widest = spreads.iter().copied().fold(0.0, f64::max);
            let breach = gap > d.bound || (d.name != "setup_s" && widest > d.bound);
            let verdict = if breach {
                breaches += 1;
                "BREACH"
            } else if widest > d.bound / 3.0 {
                "ok (spread above a third of the bound)"
            } else {
                "ok"
            };
            println!(
                "{workload:<10} {:<26} {:>12.4} {:>12.4} {:>7.2}% {:>7.2}% {:>7.2}% {:>5.0}%  {verdict}",
                d.name,
                quart[0][1],
                quart[1][1],
                gap * 100.0,
                spreads[0] * 100.0,
                spreads[1] * 100.0,
                d.bound * 100.0
            );
            let sets_json: Vec<String> = per_set
                .iter()
                .zip(&quart)
                .map(|(v, q)| {
                    format!(
                        "{{\"values\": {v:?}, \"q1\": {}, \"median\": {}, \"q3\": {}}}",
                        q[0], q[1], q[2]
                    )
                })
                .collect();
            let mut row = String::new();
            let _ = write!(
                row,
                "    {{\"workload\": \"{workload}\", \"metric\": \"{}\", \"unit\": \"{}\", \
                 \"bound\": {}, \"gap\": {gap}, \"widest_spread\": {widest}, \"breach\": {breach}, \
                 \"sets\": [{}]}}",
                d.name,
                d.unit,
                d.bound,
                sets_json.join(", ")
            );
            rows.push(row);
        }
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join("aa.json");
    let text = format!(
        "{{\n  \"sets\": {sets},\n  \"runs\": {runs},\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \
         \"all_correct\": {all_correct},\n  \"breaches\": {breaches},\n  \"rows\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "aa: {breaches} breaches, all runs correct: {all_correct}; wrote {}",
        path.display()
    );
    Ok(breaches == 0 && all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_direction() {
        let lower = END_TO_END
            .iter()
            .find(|d| d.name == "read_wall_us.mean")
            .unwrap();
        let higher = END_TO_END.iter().find(|d| d.name == "ops_per_s").unwrap();
        assert!((worsening(lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(higher, 100.0, 110.0) + 0.10).abs() < 1e-12);
        assert!((worsening(higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
    }
}
