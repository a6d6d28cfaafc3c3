//! `hpx-check` CLI: run the concurrency analyses from the command line
//! and from CI.
//!
//! ```text
//! cargo run -p hpx-check -- all                 # every analysis, defaults
//! cargo run -p hpx-check -- lint --level 2      # static DAG lint only
//! cargo run -p hpx-check -- model --schedules 64 --seed 1
//! cargo run -p hpx-check -- model --replay 17   # re-run one interleaving
//! cargo run -p hpx-check -- races --level 1
//! cargo run -p hpx-check -- waitlint --root . --allow hpx-check.allow
//! cargo run -p hpx-check -- verify --strict --bench-out BENCH_check.json
//! ```
//!
//! Exit status 0 when every requested analysis is clean, 1 otherwise.

use hpx_check::{
    exercise_dist_solve, exercise_pipeline, lint_pipeline, mutation_sweep, race_model_dist_regrid,
    race_model_gravity_plan, race_model_pipeline, race_model_tuner_resplit, scan_workspace,
    scan_workspace_invariants, verify_real_plans, Allowlist, DistRaceBug, DistScheduleBug,
    GravityRaceBug, ModelChecker, RaceBug, ScheduleBug, TunerRaceBug,
};
use octree::{ghost_link_specs, LinkSpec, Tree};
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    level: u8,
    stages: usize,
    schedules: usize,
    seed: u64,
    replay: Option<u64>,
    root: PathBuf,
    allow: Option<PathBuf>,
    strict: bool,
    bench_out: Option<PathBuf>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            level: 2,
            stages: 3,
            schedules: 32,
            seed: 1,
            replay: None,
            root: PathBuf::from("."),
            allow: None,
            strict: false,
            bench_out: None,
        }
    }
}

const USAGE: &str = "usage: hpx-check <all|lint|model|races|waitlint|verify> \
    [--level N] [--stages N] [--schedules N] [--seed N] [--replay SEED] \
    [--root DIR] [--allow FILE] [--strict] [--bench-out FILE]";

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
            "--stages" => {
                opts.stages = value("--stages")?
                    .parse()
                    .map_err(|e| format!("--stages: {e}"))?
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
            "--root" => opts.root = PathBuf::from(value("--root")?),
            "--allow" => opts.allow = Some(PathBuf::from(value("--allow")?)),
            "--strict" => opts.strict = true,
            "--bench-out" => opts.bench_out = Some(PathBuf::from(value("--bench-out")?)),
            other if cmd.is_none() && !other.starts_with('-') => cmd = Some(other.to_owned()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
        i += 1;
    }
    let cmd = cmd.ok_or_else(|| USAGE.to_owned())?;
    Ok((cmd, opts))
}

fn scenario_links(level: u8) -> Vec<LinkSpec> {
    // The standard scenarios (uniform base grid, optionally refined) share
    // their link classification with the runtime via `ghost_link_specs`.
    ghost_link_specs(&scenario_tree(level))
}

fn scenario_tree(level: u8) -> Tree {
    Tree::new_uniform(level)
}

fn run_lint(opts: &Options) -> bool {
    // Uniform scenario plus a refined variant — the two standard shapes.
    let mut clean = true;
    for (name, tree) in [
        ("uniform", Tree::new_uniform(opts.level)),
        ("refined", {
            let mut t = Tree::new_uniform(opts.level.max(1));
            let first = t.leaves()[0];
            t.refine_balanced(first);
            t
        }),
    ] {
        let links = ghost_link_specs(&tree);
        match lint_pipeline(&links, opts.stages, true) {
            Ok(summary) => println!(
                "lint[{name}]: clean — {} nodes, {} edges, {} leaves, {} stages",
                summary.nodes, summary.edges, summary.leaves, summary.stages
            ),
            Err(findings) => {
                clean = false;
                eprintln!("lint[{name}]: {} finding(s):", findings.len());
                for f in findings.iter().take(20) {
                    eprintln!("  {f}");
                }
                if findings.len() > 20 {
                    eprintln!("  … {} more", findings.len() - 20);
                }
            }
        }
    }
    clean
}

fn run_model(opts: &Options) -> bool {
    // Model-check on a small tree: interleaving coverage matters more than
    // leaf count, and per-schedule cost is cubic in leaves.
    let links = scenario_links(opts.level.min(1));
    let stages = opts.stages;
    let checker = ModelChecker::new()
        .schedules(opts.schedules)
        .base_seed(opts.seed);
    if let Some(seed) = opts.replay {
        match checker.replay(seed, |rt| {
            exercise_pipeline(rt, &links, stages, ScheduleBug::None)
        }) {
            None => {
                println!("model: seed {seed} replayed clean");
                true
            }
            Some(failure) => {
                eprintln!("model: {failure}");
                false
            }
        }
    } else {
        let report = checker.explore(|rt| exercise_pipeline(rt, &links, stages, ScheduleBug::None));
        if report.is_clean() {
            println!("model: {report}");
            true
        } else {
            eprintln!("model: {report}");
            false
        }
    }
}

fn run_races(opts: &Options) -> bool {
    let links = scenario_links(opts.level.min(2));
    let pipeline_ok = match race_model_pipeline(&links, opts.stages, RaceBug::None) {
        Ok(summary) => {
            println!(
                "races: stepper clean — {} launches over {} views",
                summary.launches, summary.views
            );
            true
        }
        Err(report) => {
            eprintln!("races: stepper {report}");
            false
        }
    };
    // The one sharded FMM solve's chunked owned-list launches, over the
    // same scenario tree (16 tasks: the paper's Figure 9 setting), as the
    // local solve (one locality) and sharded over four.
    let gravity_tree = scenario_tree(opts.level.min(2));
    let plan = octotiger::gravity::GravityPlan::build(&gravity_tree, 0.5);
    let shard = |nloc: usize| {
        let owner = octree::partition_morton(&gravity_tree, nloc);
        octotiger::gravity::DistPlan::build(&plan, &owner, nloc)
    };
    let mut gravity_ok = true;
    for dist in [shard(1), shard(4)] {
        let nloc = dist.num_localities;
        match race_model_gravity_plan(&plan, &dist, 16, GravityRaceBug::None) {
            Ok(summary) => println!(
                "races: gravity solve on {nloc} localities clean — {} launches over {} views",
                summary.launches, summary.views
            ),
            Err(report) => {
                eprintln!("races: gravity solve on {nloc} localities {report}");
                gravity_ok = false;
            }
        }
        // Prove the lane-aligned carving is load-bearing at this locality
        // count: the same launch sequence with unaligned task boundaries
        // must collide inside a vector-lane block of an output buffer.
        match race_model_gravity_plan(&plan, &dist, 16, GravityRaceBug::SplitsVectorLane) {
            Ok(_) => {
                eprintln!(
                    "races: lane-split carving on {nloc} localities did NOT race — the \
                     alignment check lost its witness"
                );
                gravity_ok = false;
            }
            Err(report) => println!(
                "races: unaligned carving on {nloc} localities races as expected ({} on {})",
                report.conflict, report.view_label
            ),
        }
    }
    // The online tuner's re-split protocol (PR-10): moving a kernel
    // family's task count at the step boundary must be race-free for any
    // ladder move, and the boundary must be load-bearing — a mid-launch
    // re-split of the same range must collide as a write-write race.
    let tuner_ok = match race_model_tuner_resplit(&plan, 4, 16, TunerRaceBug::None) {
        Ok(summary) => {
            println!(
                "races: tuner step-boundary re-split clean — {} launches over {} views",
                summary.launches, summary.views
            );
            true
        }
        Err(report) => {
            eprintln!("races: tuner step-boundary re-split {report}");
            false
        }
    };
    let resplit_ok = match race_model_tuner_resplit(&plan, 4, 16, TunerRaceBug::ResplitMidLaunch) {
        Ok(_) => {
            eprintln!(
                "races: mid-launch re-split did NOT race — the tuner boundary check lost its witness"
            );
            false
        }
        Err(report) if report.conflict == "write-write" && report.site.starts_with("resplit(") => {
            println!(
                "races: mid-launch re-split races as expected ({} on {}: {} vs {})",
                report.conflict, report.view_label, report.prior_site, report.site
            );
            true
        }
        Err(report) => {
            eprintln!("races: mid-launch re-split raced but named the wrong sites: {report}");
            false
        }
    };
    pipeline_ok & gravity_ok & tuner_ok & resplit_ok & run_dist_models(opts)
}

/// The distributed-solve models: the multi-locality phase graph must drain
/// under every explored schedule, a planted lost parcel must stall naming
/// its link, the faithful regrid/rebuild sequence must be race-free, and a
/// planted stale halo plan must surface as a write-read race naming both
/// the regrid and the consuming halo pack.
fn run_dist_models(opts: &Options) -> bool {
    const NLOC: usize = 4;
    let solver = octotiger::gravity::GravitySolver::default();
    let dist_for = |tree: &Tree| {
        let plan = solver.plan_for(tree);
        let owner = octree::partition_morton(tree, NLOC);
        solver.dist_plan_for(&plan, &owner, NLOC)
    };
    let tree = scenario_tree(opts.level.clamp(1, 2));
    let dist = dist_for(&tree);
    let refined = {
        let mut t = Tree::new_uniform(opts.level.clamp(1, 2));
        let first = t.leaves()[0];
        t.refine_balanced(first);
        t
    };
    let dist_refined = dist_for(&refined);

    let checker = ModelChecker::new()
        .schedules(opts.schedules)
        .base_seed(opts.seed);
    let report = checker.explore(|rt| exercise_dist_solve(rt, &dist, DistScheduleBug::None));
    let clean_ok = if report.is_clean() {
        println!(
            "races: distributed solve clean over {NLOC} localities ({} parcels/solve) — {report}",
            dist.parcels_per_solve()
        );
        true
    } else {
        eprintln!("races: distributed solve {report}");
        false
    };

    // The planted stall panics inside the checker's catch_unwind by
    // design; silence the default hook so the expected failure does not
    // spray backtraces over the report.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let report = checker
        .schedules(opts.schedules.min(4))
        .explore(|rt| exercise_dist_solve(rt, &dist, DistScheduleBug::LostParcel));
    std::panic::set_hook(hook);
    let lost_ok = match report.failures.first() {
        Some(failure) if failure.report.contains("undelivered parcel link(s)") => {
            println!(
                "races: lost parcel stalls as expected (seed {} names the link)",
                failure.seed
            );
            true
        }
        Some(failure) => {
            eprintln!(
                "races: lost parcel stalled without naming its link: {}",
                failure.report
            );
            false
        }
        None => {
            eprintln!("races: lost parcel did NOT stall — the stall probe lost its witness");
            false
        }
    };

    let regrid_ok = match race_model_dist_regrid(&dist, &dist_refined, DistRaceBug::None) {
        Ok(summary) => {
            println!(
                "races: regrid halo-plan rebuild clean — {} launches over {} views",
                summary.launches, summary.views
            );
            true
        }
        Err(report) => {
            eprintln!("races: regrid halo-plan rebuild {report}");
            false
        }
    };
    let stale_ok = match race_model_dist_regrid(&dist, &dist_refined, DistRaceBug::StaleHalo) {
        Ok(_) => {
            eprintln!(
                "races: stale halo plan did NOT race — the invalidation check lost its witness"
            );
            false
        }
        Err(report)
            if report.conflict == "write-read"
                && report.prior_site.starts_with("regrid(")
                && report.site.contains("halo-pack(step2") =>
        {
            println!(
                "races: stale halo plan races as expected ({} on {}: {} vs {})",
                report.conflict, report.view_label, report.prior_site, report.site
            );
            true
        }
        Err(report) => {
            eprintln!("races: stale halo plan raced but named the wrong sites: {report}");
            false
        }
    };
    clean_ok & lost_ok & regrid_ok & stale_ok
}

fn run_waitlint(opts: &Options) -> bool {
    let allow_path = opts
        .allow
        .clone()
        .unwrap_or_else(|| opts.root.join("hpx-check.allow"));
    let allow = Allowlist::load(&allow_path);
    let findings = scan_workspace(&opts.root, &allow);
    if findings.is_empty() {
        println!("waitlint: clean");
        true
    } else {
        eprintln!("waitlint: {} finding(s):", findings.len());
        for f in &findings {
            eprintln!("  {f}");
        }
        false
    }
}

/// The static plan verifier plus the production-invariant source lints:
/// real plans must verify silently, every seeded mutation must be caught,
/// kernel bodies must be allocation-free and accumulator-safe, and the
/// allowlist must not have rotted (a warning, or a failure with
/// `--strict`).  With `--bench-out`, per-check finding counts and the
/// wall clock land in a `BENCH_simd.json`-shaped file.
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

    // 3. Source lints guarding the zero-alloc and FP-determinism steady
    //    state, plus the raw sites for the allowlist rot check.
    let allow_path = opts
        .allow
        .clone()
        .unwrap_or_else(|| opts.root.join("hpx-check.allow"));
    let allow = Allowlist::load(&allow_path);
    let (lint_findings, raw_sites) = scan_workspace_invariants(&opts.root, &allow);
    let alloc = lint_findings.iter().filter(|f| f.lint == "alloc").count();
    let fp = lint_findings.len() - alloc;
    counts.push(("alloc-lint", alloc));
    counts.push(("fp-lint", fp));
    if lint_findings.is_empty() {
        println!("verify: kernel bodies allocation-free, no shared float accumulators");
    } else {
        clean = false;
        eprintln!("verify: {} source lint finding(s):", lint_findings.len());
        for f in &lint_findings {
            eprintln!("  {f}");
        }
    }

    // 4. Allowlist staleness: entries matching no raw finding have rotted.
    let stale = allow.stale_entries(&raw_sites);
    counts.push(("stale-allow", stale.len()));
    if stale.is_empty() {
        println!("verify: allowlist fresh ({})", allow_path.display());
    } else {
        for entry in &stale {
            eprintln!(
                "verify: {} allowlist entry `{entry}` matches no finding — remove or refresh it",
                if opts.strict {
                    "stale"
                } else {
                    "warning: stale"
                }
            );
        }
        if opts.strict {
            clean = false;
        }
    }

    // 5. Analysis-cost trend line for re-anchors, same shape as
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
        "lint" => run_lint(&opts),
        "model" => run_model(&opts),
        "races" => run_races(&opts),
        "waitlint" => run_waitlint(&opts),
        "verify" => run_verify(&opts),
        "all" => {
            // `&` not `&&`: run every analysis even after a failure.
            let lint = run_lint(&opts);
            let model = run_model(&opts);
            let races = run_races(&opts);
            let wait = run_waitlint(&opts);
            let verify = run_verify(&opts);
            lint & model & races & wait & verify
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
