//! The repo benchmark. See `README.md` beside this package.

mod aa;
mod json;
mod ops;
mod report;
mod run;
mod spans;
mod stats;
mod sut;

use std::process::ExitCode;

use run::{Args, Sets, WORKLOADS};

const USAGE: &str = "usage:
  benchmark run --workload <name> --seed <u64> --seconds <s> --trace <0|1> [--smoke]
  benchmark run --all --seed <u64> [--seconds <s>] [--smoke]
  benchmark aa --sets <n> --runs <n> --seed <u64> [--seconds <s>]
  benchmark check";

/// Measured seconds of a run when `--seconds` is not given (the
/// `run_seconds` of BENCHMARK.json).
pub(crate) const DEFAULT_SECONDS: f64 = 10.0;

/// `--name value` pairs and bare `--flags` after the subcommand.
pub(crate) struct Options(Vec<(String, Option<String>)>);

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut out = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument '{arg}'"))?;
            let value = it.next_if(|v| !v.starts_with("--")).cloned();
            out.push((name.to_string(), value));
        }
        Ok(Options(out))
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _)| n == name)
    }

    pub(crate) fn value<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.0.iter().find(|(n, _)| n == name) {
            None => Ok(None),
            Some((_, Some(v))) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name}: cannot read '{v}'")),
            Some((_, None)) => Err(format!("--{name} needs a value")),
        }
    }
}

fn run_command(opts: &Options) -> Result<bool, String> {
    let seed = opts.value("seed")?.unwrap_or(1);
    let seconds = opts.value("seconds")?.unwrap_or(DEFAULT_SECONDS);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must lie in (0, 60]".into());
    }
    let smoke = opts.flag("smoke");
    if opts.flag("all") {
        return aa::run_all(seed, seconds, smoke);
    }
    let workload: String = opts
        .value("workload")?
        .ok_or("run needs --workload <name> or --all")?;
    let sets = match opts.value::<String>("trace")?.as_deref() {
        None | Some("0") => Sets::EndToEnd,
        Some("1") => Sets::PerLayer,
        Some("both") => Sets::Both,
        Some(other) => return Err(format!("--trace: cannot read '{other}'")),
    };
    let result = run::run(&Args {
        workload: workload.clone(),
        seed,
        seconds,
        sets,
        smoke,
    })?;
    print!("{}", result.to_table(&workload));
    println!("{}", result.to_json_line());
    Ok(result.correct)
}

fn check_command() -> Result<bool, String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let problems = report::check_against(&text, &WORKLOADS);
    for p in &problems {
        eprintln!("check: {p}");
    }
    if problems.is_empty() {
        println!(
            "check: BENCHMARK.json declares the {} end-to-end and {} per-layer metrics this binary emits",
            report::END_TO_END.len(),
            report::PER_LAYER.len()
        );
    }
    Ok(problems.is_empty())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) => Options::parse(rest).and_then(|opts| match cmd.as_str() {
            "run" => run_command(&opts),
            "aa" => aa::aa_command(&opts),
            "check" => check_command(),
            other => Err(format!("unknown command '{other}'\n{USAGE}")),
        }),
        None => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
