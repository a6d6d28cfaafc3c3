//! The end-to-end step benchmark of the Octo-Tiger reproduction.
//!
//! ```text
//! octo-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! octo-benchmark [--seed N] [--seconds S] [--smoke] [--out FILE]   # all four, both kinds of run
//! octo-benchmark compare A.json B.json
//! octo-benchmark schema                                            # prints BENCHMARK.json
//! octo-benchmark glossary                                          # prints the README's metric table
//! ```
//!
//! See the README beside this crate for the workloads, the metrics and what
//! each is expected to move.

mod alloc_count;
mod compare;
mod cost;
mod metrics;
mod replay;
mod trace;
mod workload;

use metrics::{obj, PER_LAYER};
use serde::Content;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workload::{Outcome, Spec};

#[global_allocator]
static ALLOCATOR: alloc_count::Counting = alloc_count::Counting;

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
const RUN_SECONDS: u64 = 20;

/// Where traces, checkpoints and set files go: `out/` beside this crate's
/// manifest, whatever the working directory.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?.clone()),
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => out.trace = matches!(value()?.as_str(), "1" | "true"),
            "--out" => out.out = Some(PathBuf::from(value()?)),
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(out.seconds.is_finite() && out.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".to_string());
    }
    Ok(out)
}

fn result_line(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let doc = obj(vec![
        ("correct", Content::Bool(outcome.failed == 0)),
        ("attempted", Content::U64(outcome.attempted)),
        ("failed", Content::U64(outcome.failed)),
        (
            "metrics",
            outcome.metrics.to_content(&metrics::table(trace))?,
        ),
    ]);
    serde_json::to_string(&doc).map_err(|e| e.to_string())
}

/// One workload, one kind of run, in this process.  Prints every metric by
/// name and unit, then the result object as the last line.
fn run_one(spec: &Spec, args: &Args) -> Result<bool, String> {
    let outcome = if args.trace {
        replay::run_traced(spec, args.seed, args.seconds, args.smoke, &out_dir())?
    } else {
        workload::run_untraced(spec, args.seed, args.seconds, args.smoke)
    };
    for why in &outcome.failures {
        println!("FAILED {why}");
    }
    let line = result_line(&outcome, args.trace)?;
    for (name, unit) in metrics::table(args.trace) {
        let v = outcome.metrics.get(name).expect("the result line has it");
        println!("{name:<44} {v:>18.6} {unit}");
    }
    println!("checksum {:016x}", outcome.checksum);
    println!("{line}");
    Ok(outcome.failed == 0)
}

/// Run `spec` in a child process of its own, so set-up time and peak memory
/// are the workload's alone.  Relays the child's report; returns its result
/// object and checksum.
fn run_child(spec: &Spec, args: &Args, trace: bool) -> Result<(Content, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        spec.name,
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &args.seconds.to_string(),
    ]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", spec.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for l in &lines {
        println!("  {l}");
    }
    if !output.status.success() {
        return Err(format!(
            "{} (trace {}) exited with {}",
            spec.name,
            u8::from(trace),
            output.status
        ));
    }
    let checksum = lines
        .iter()
        .find_map(|l| l.strip_prefix("checksum "))
        .unwrap_or_default()
        .to_string();
    let doc: Content =
        serde_json::from_str(last).map_err(|e| format!("{}: bad result line: {e}", spec.name))?;
    Ok((doc, checksum))
}

/// All four workloads, an untraced and a traced run each, one child process
/// per run; writes the set file `compare` reads.
fn run_set(args: &Args) -> Result<bool, String> {
    let mut set = Vec::new();
    let mut all_correct = true;
    for spec in workload::specs(args.smoke) {
        println!("== {}: {}", spec.name, spec.why);
        let (timed, checksum) = run_child(&spec, args, false)?;
        let (traced, traced_checksum) = run_child(&spec, args, true)?;
        let get =
            |doc: &Content, key: &str| compare::field(doc, key).cloned().unwrap_or(Content::Null);
        let failed = |doc: &Content| get(doc, "failed").as_f64().unwrap_or(1.0);
        all_correct &=
            failed(&timed) == 0.0 && failed(&traced) == 0.0 && checksum == traced_checksum;
        set.push((
            spec.name.to_string(),
            obj(vec![
                ("attempted", get(&timed, "attempted")),
                ("failed", Content::F64(failed(&timed) + failed(&traced))),
                ("checksum", Content::Str(checksum)),
                ("end_to_end", get(&timed, "metrics")),
                ("per_layer", get(&traced, "metrics")),
            ]),
        ));
    }
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join(format!("set-seed{}.json", args.seed)));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    let text = serde_json::to_string_pretty(&Content::Map(set)).map_err(|e| e.to_string())?;
    std::fs::write(&path, text + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("set written to {}", path.display());
    Ok(all_correct)
}

fn load(path: &str) -> Result<Content, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn schema() -> String {
    let specs = workload::specs(false);
    let workloads: Vec<(&str, &str)> = specs.iter().map(|s| (s.name, s.why)).collect();
    metrics::benchmark_json(&workloads, RUN_SECONDS)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("schema") => {
            print!("{}", schema());
            return Ok(true);
        }
        Some("glossary") => {
            println!(
                "| metric | unit | better | exact count | should move |\n|---|---|---|---|---|"
            );
            for p in PER_LAYER {
                println!(
                    "| `{}` | {} | {} | {} | {} |",
                    p.name,
                    p.unit,
                    p.better,
                    if p.exact { "yes" } else { "" },
                    p.moves
                );
            }
            return Ok(true);
        }
        Some("compare") => {
            let [_, a, b] = argv.as_slice() else {
                return Err("usage: compare A.json B.json".to_string());
            };
            let names: Vec<&str> = workload::specs(false).iter().map(|s| s.name).collect();
            let breaches = compare::compare(&load(a)?, &load(b)?, &names);
            println!("{breaches} breach(es)");
            return Ok(breaches == 0);
        }
        _ => {}
    }
    let args = parse(&argv)?;
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    if cores < workload::WORKERS {
        return Err(format!(
            "the benchmark runs {} workers and this host offers {cores} core(s)",
            workload::WORKERS
        ));
    }
    match &args.workload {
        Some(name) => {
            let spec = workload::specs(args.smoke)
                .into_iter()
                .find(|s| s.name == name)
                .ok_or_else(|| format!("no workload named {name}"))?;
            run_one(&spec, &args)
        }
        None => run_set(&args),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("octo-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_benchmark_json_is_the_generated_one() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repo root");
        assert_eq!(
            committed,
            schema(),
            "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- schema`"
        );
    }

    #[test]
    fn arguments_parse_as_the_driver_passes_them() {
        let argv: Vec<String> = "--workload dwd_regrid --seed 9 --seconds 20 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse(&argv).expect("valid");
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace, a.smoke),
            (Some("dwd_regrid"), 9, 20.0, true, false)
        );
        assert!(parse(&["--bogus".to_string()]).is_err());
        assert!(parse(&["--seed".to_string()]).is_err());
    }

    #[test]
    fn an_outcome_with_a_failed_step_is_not_correct() {
        let mut metrics = metrics::Metrics::default();
        for (name, _) in metrics::table(false) {
            metrics.set(name, 1.5);
        }
        let mut outcome = Outcome {
            metrics,
            attempted: 4,
            failed: 1,
            failures: vec![],
            checksum: 0,
        };
        let line = result_line(&outcome, false).expect("all metrics set");
        assert!(line.starts_with("{\"correct\":false,\"attempted\":4,\"failed\":1,\"metrics\":{\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}"));
        outcome.failed = 0;
        assert!(result_line(&outcome, false)
            .expect("all metrics set")
            .starts_with("{\"correct\":true"));
        assert!(
            result_line(&outcome, true).is_err(),
            "per-layer metrics were never measured"
        );
    }
}
