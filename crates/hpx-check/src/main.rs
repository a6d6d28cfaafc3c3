//! `hpx-check` CLI: run the concurrency analyses from the command line
//! and from CI.
//!
//! ```text
//! cargo run -p hpx-check -- all                 # every analysis, defaults
//! cargo run -p hpx-check -- model --schedules 64 --seed 1   # the real step
//! cargo run -p hpx-check -- model --replay 17   # re-run one interleaving
//! cargo run -p hpx-check -- verify --bench-out BENCH_check.json
//! ```
//!
//! Exit status 0 when every requested analysis is clean, 1 otherwise.

use hpx_check::{mutation_sweep, verify_real_plans, ModelChecker, RealStep};
use hpx_rt::Runtime;
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    level: u8,
    schedules: usize,
    seed: u64,
    replay: Option<u64>,
    bench_out: Option<PathBuf>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            level: 2,
            schedules: 32,
            seed: 1,
            replay: None,
            bench_out: None,
        }
    }
}

const USAGE: &str = "usage: hpx-check <all|model|verify> \
    [--level N] [--schedules N] [--seed N] [--replay SEED] [--bench-out FILE]";

fn parse_args(args: &[String]) -> Result<(String, Options), String> {
    let mut cmd = None;
    let mut opts = Options::default();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let mut value = |name: &str| -> Result<String, String> {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--level" => {
                opts.level = value("--level")?
                    .parse()
                    .map_err(|e| format!("--level: {e}"))?
            }
            "--schedules" => {
                opts.schedules = value("--schedules")?
                    .parse()
                    .map_err(|e| format!("--schedules: {e}"))?
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--replay" => {
                opts.replay = Some(
                    value("--replay")?
                        .parse()
                        .map_err(|e| format!("--replay: {e}"))?,
                )
            }
            "--bench-out" => opts.bench_out = Some(PathBuf::from(value("--bench-out")?)),
            other if cmd.is_none() && !other.starts_with('-') => cmd = Some(other.to_owned()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
        i += 1;
    }
    let cmd = cmd.ok_or_else(|| USAGE.to_owned())?;
    Ok((cmd, opts))
}

/// The model checker over the real pipelined step: per configuration (a
/// step count and a locality count, [`RealStep::ALL`]), the `step_barrier`
/// reference once, then `--schedules` seeds from `--seed` (or just the
/// `--replay` seed), each bit-compared against it.
fn run_model(opts: &Options) -> bool {
    let checker = ModelChecker::new()
        .schedules(opts.schedules)
        .base_seed(opts.seed);
    let mut clean = true;
    for check in RealStep::ALL {
        let reference = check.reference();
        let run = |rt: &Runtime| check.run(rt, &reference);
        let (ok, report) = match opts.replay {
            Some(seed) => match checker.replay(seed, run) {
                None => (true, format!("seed {seed} replayed clean")),
                Some(failure) => (false, failure.to_string()),
            },
            None => {
                let report = checker.explore(run);
                (report.is_clean(), report.to_string())
            }
        };
        if ok {
            println!("model[{check:?}]: {report}");
        } else {
            eprintln!("model[{check:?}]: {report}");
            clean = false;
        }
    }
    clean
}

/// The static plan verifier: real plans must verify silently and every
/// seeded mutation must be caught.  With `--bench-out`, per-check finding
/// counts and the wall clock land in a `BENCH_simd.json`-shaped file.
fn run_verify(opts: &Options) -> bool {
    let t0 = std::time::Instant::now();
    let mut clean = true;
    let mut counts: Vec<(&str, usize)> = Vec::new();

    // 1. Real plans (uniform + refined, every locality count) verify
    //    silently: interaction-plan invariants, partition totality, and
    //    the halo-plan protocol.
    let findings = verify_real_plans(opts.level);
    counts.push(("plan-protocol", findings.len()));
    if findings.is_empty() {
        println!(
            "verify: real plans clean — uniform + refined at level {}, N ∈ {{1, 2, 4, 7}}",
            opts.level
        );
    } else {
        clean = false;
        eprintln!("verify: {} finding(s) on real plans:", findings.len());
        for f in findings.iter().take(20) {
            eprintln!("  {f}");
        }
        if findings.len() > 20 {
            eprintln!("  … {} more", findings.len() - 20);
        }
    }

    // 2. The seeded mutation sweep: every planted protocol and invariant
    //    mutation must produce at least one report.
    match mutation_sweep(opts.level, opts.seed) {
        Ok(checked) => {
            counts.push(("mutations-missed", 0));
            println!(
                "verify: all {checked} seeded mutations caught (seed {})",
                opts.seed
            );
        }
        Err(missed) => {
            clean = false;
            counts.push(("mutations-missed", missed.len()));
            eprintln!(
                "verify: {} mutation(s) NOT caught (seed {}):",
                missed.len(),
                opts.seed
            );
            for m in &missed {
                eprintln!("  {m}");
            }
        }
    }

    // 3. Analysis-cost trend line for re-anchors, same shape as
    //    BENCH_simd.json.
    if let Some(path) = &opts.bench_out {
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut points = String::new();
        for (i, (check, n)) in counts.iter().enumerate() {
            points.push_str(&format!(
                "    {{\n      \"figure\": \"verify-findings\",\n      \"series\": \"{check}\",\n      \"x\": {i},\n      \"y\": {n},\n      \"unit\": \"findings\"\n    }},\n"
            ));
        }
        points.push_str(&format!(
            "    {{\n      \"figure\": \"verify-cost\",\n      \"series\": \"wall-clock\",\n      \"x\": 0,\n      \"y\": {wall_ms},\n      \"unit\": \"ms\"\n    }}\n"
        ));
        let json = format!(
            "{{\n  \"id\": \"verify-static\",\n  \"title\": \"Static plan verification: per-check finding counts and wall-clock cost\",\n  \"points\": [\n{points}  ]\n}}\n"
        );
        match std::fs::write(path, json) {
            Ok(()) => println!("verify: wrote {} ({wall_ms:.0} ms)", path.display()),
            Err(e) => {
                clean = false;
                eprintln!("verify: cannot write {}: {e}", path.display());
            }
        }
    }
    clean
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, opts) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let clean = match cmd.as_str() {
        "model" => run_model(&opts),
        "verify" => run_verify(&opts),
        "all" => {
            // `&` not `&&`: run every analysis even after a failure.
            let model = run_model(&opts);
            let verify = run_verify(&opts);
            model & verify
        }
        other => {
            eprintln!("unknown command `{other}`\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
