//! `hpx-check` CLI: run the model checker over the real pipelined step
//! from the command line and from CI.
//!
//! ```text
//! cargo run -p hpx-check -- model --schedules 64 --seed 1   # the real step
//! cargo run -p hpx-check -- model --replay 17   # re-run one interleaving
//! ```
//!
//! Exit status 0 when every explored schedule is clean, 1 otherwise.

use hpx_check::{ModelChecker, RealStep};
use hpx_rt::Runtime;
use std::process::ExitCode;

struct Options {
    schedules: usize,
    seed: u64,
    replay: Option<u64>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            schedules: 32,
            seed: 1,
            replay: None,
        }
    }
}

const USAGE: &str = "usage: hpx-check model [--schedules N] [--seed N] [--replay SEED]";

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
            other if cmd.is_none() && !other.starts_with('-') => cmd = Some(other.to_owned()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
        i += 1;
    }
    let cmd = cmd.ok_or_else(|| USAGE.to_owned())?;
    Ok((cmd, opts))
}

/// The model checker over the real pipelined step: per configuration (a
/// step count, a tree and a locality count, [`RealStep::ALL`]), the `step_barrier`
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
