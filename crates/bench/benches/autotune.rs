//! The online granularity tuner, closed loop — the Figure 9 static sweep
//! turned into a feedback experiment.
//!
//! Two layers, same hill-climb ([`hpx_rt::Tuner`], one per ladder):
//!
//! * **Paper scale (acceptance claims)** — the tuner drives the
//!   calibrated cluster model ([`cluster::simulate_step`], the engine
//!   behind every figure reproduction): `multipole_tasks` against the
//!   gravity-phase time of the rotating star on 512 Ookami nodes, and
//!   `hydro_leaves_per_task` against the hydro-stage time on 8 nodes.
//!   The model is deterministic, so the claims are exact: the converged
//!   choice must match the best static rung within a hair and beat the
//!   worst rung by >= 1.5x.
//! * **This host (informational)** — the same closed loop over the real
//!   multipole kernel: one launch over a frozen plan
//!   (`GravitySolver::m2l_bench_run`), the knob the driver's tuner
//!   climbs.  CI boxes share cores with co-tenants and often expose a
//!   single effective core, so only convergence-within-budget is checked
//!   here; the measured ladder is reported for plotting.
//!
//! Everything lands in `BENCH_autotune.json`.

use hpx_rt::Runtime;
use kokkos_rs::ExecSpace;
use octotiger::gravity::direct::PointMasses;
use octotiger::gravity::{GravitySolver, LeafSources};
use octree::{NodeId, Tree};
use std::collections::HashMap;
use std::hint::black_box;

/// Window budget per closed loop: a family that has not frozen after
/// this many observation windows failed to converge.
const WINDOW_BUDGET: u64 = 40;

/// Hysteresis for the model-driven loops: the model is noise-free, so
/// the band only needs to sit below the smallest real rung-to-rung
/// improvement (~0.02% on the flat end of the hydro ladder).
const MODEL_HYSTERESIS: f64 = 1e-4;

/// Run the tuner's closed loop over `measure(candidate)` until the climb
/// freezes (or the window budget runs out), then return the converged
/// candidate and the number of windows it took.
fn closed_loop(
    ladder: Vec<usize>,
    start: usize,
    hysteresis: f64,
    mut measure: impl FnMut(usize) -> f64,
) -> (usize, u64) {
    let mut tuner = hpx_rt::Tuner::with_params(ladder, start, hysteresis, u64::MAX);
    let mut windows = 0u64;
    while !tuner.is_frozen() && windows < WINDOW_BUDGET {
        let t = measure(tuner.current());
        tuner.observe(t);
        windows += 1;
    }
    (tuner.current(), windows)
}

struct FamilyResult {
    name: &'static str,
    /// `(candidate, seconds)` for every static ladder point.
    ladder: Vec<(usize, f64)>,
    tuned_choice: usize,
    tuned_time: f64,
    best_time: f64,
    worst_time: f64,
    windows: u64,
}

/// Sweep the static ladder, run the closed loop from `start`, and collect
/// the comparison numbers.  `measure` must be deterministic for the
/// result to carry acceptance claims; noisy host measurements only get
/// the convergence check.
fn run_family(
    name: &'static str,
    ladder: Vec<usize>,
    start: usize,
    hysteresis: f64,
    mut measure: impl FnMut(usize) -> f64,
) -> FamilyResult {
    let statics: Vec<(usize, f64)> = ladder.iter().map(|&c| (c, measure(c))).collect();
    let best_time = statics.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
    let worst_time = statics.iter().map(|p| p.1).fold(0.0, f64::max);
    let (tuned_choice, windows) = closed_loop(ladder, start, hysteresis, &mut measure);
    let tuned_time = measure(tuned_choice);
    FamilyResult {
        name,
        ladder: statics,
        tuned_choice,
        tuned_time,
        best_time,
        worst_time,
        windows,
    }
}

/// M2L family at paper scale: `multipole_tasks` against the cluster
/// model's per-step gravity-phase time — rotating star level 5 spread
/// over 512 A64FX nodes, where the shallow tree levels starve 48-core
/// nodes unless kernels split (Section VII-C / Figure 9).
fn model_m2l_family() -> FamilyResult {
    let m = cluster::Machine::get(cluster::MachineId::Ookami);
    let costs = cluster::KernelCosts::default();
    let w = cluster::Workload::rotating_star(5);
    let measure = |tasks: usize| {
        let mut o = cluster::RunOptions::default();
        o.multipole_tasks = tasks;
        cluster::simulate_step(&m, 512, &w, &o, &costs).gravity_time_s
    };
    // Closed loop from the paper's 1-task default (Figure 9 "OFF").
    let ladder = vec![1, 2, 4, 8, 16, 32, 64, 128, 256];
    run_family("m2l", ladder, 1, MODEL_HYSTERESIS, measure)
}

/// Hydro-RHS family at paper scale: `hydro_leaves_per_task` against the
/// model's per-step hydro-stage time on 8 nodes, where ~600 sub-grids
/// per node leave room to trade spawn overhead against core starvation.
fn model_hydro_family() -> FamilyResult {
    let m = cluster::Machine::get(cluster::MachineId::Ookami);
    let costs = cluster::KernelCosts::default();
    let w = cluster::Workload::rotating_star(5);
    let measure = |leaves_per_task: usize| {
        let mut o = cluster::RunOptions::default();
        o.hydro_leaves_per_task = leaves_per_task;
        cluster::simulate_step(&m, 8, &w, &o, &costs).compute_time_s
    };
    // Closed loop from the coarse end: one task owning 512 leaves.
    let ladder = vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512];
    run_family("hydro-rhs", ladder, 512, MODEL_HYSTERESIS, measure)
}

/// M2L family on this host: the real multipole kernel over a frozen
/// uniform level-3 plan at θ = 0.3 — the tight acceptance criterion
/// densifies the interaction lists, so per-target M2L arithmetic
/// dominates the launch's serial scatter.
fn host_m2l_family(rt: &Runtime) -> FamilyResult {
    let tree = Tree::new_uniform(3);
    let sources: HashMap<NodeId, LeafSources> = tree
        .leaves()
        .into_iter()
        .map(|leaf| {
            let (corner, size) = leaf.cube();
            let x = corner[0] + 0.5 * size - 0.5;
            let y = corner[1] + 0.5 * size - 0.5;
            let z = corner[2] + 0.5 * size - 0.5;
            let mut points = PointMasses::default();
            points.push([x, y, z], 1.0 + 0.1 * (31.0 * x + 17.0 * y).sin());
            (leaf, LeafSources { points })
        })
        .collect();
    let mut solver = GravitySolver::default();
    solver.opts.theta = 0.3;
    // Scalar kernels: compute-bound per M2L pair.  The SVE path is
    // memory-bandwidth-bound on a small shared-bus host, which buries
    // the granularity signal under the bus.
    solver.opts.vector_mode = sve_simd::VectorMode::Scalar;
    let plan = solver.plan_for(&tree);
    let mut bench = solver.m2l_bench_inputs(&plan, &sources);
    let space = ExecSpace::hpx(rt.clone());

    let ladder: Vec<usize> = vec![1, 2, 4, 8, 16, 32];
    let measure = |tasks: usize| {
        solver.opts.tasks_per_multipole_kernel = tasks;
        // One call of `time_per_iter` is one tuner observation window.
        bench::time_per_iter(|| {
            solver.m2l_bench_run(&plan, &mut bench, &space);
            black_box(&bench);
        })
    };
    run_family(
        "m2l (host kernels)",
        ladder,
        1,
        hpx_rt::tuner::DEFAULT_HYSTERESIS,
        measure,
    )
}

/// Add a family's ladder and converged point to the report.
fn add_series(report: &mut bench::FigureReport, fam: &FamilyResult, unit: &str) {
    let static_series = format!("{}/static", fam.name);
    let tuned_series = format!("{}/tuned", fam.name);
    for &(cand, t) in &fam.ladder {
        report.point(&static_series, cand as f64, t, unit);
    }
    report.point(&tuned_series, fam.tuned_choice as f64, fam.tuned_time, unit);
}

fn autotune_report() -> bench::FigureReport {
    let mut report = bench::FigureReport::new(
        "autotune",
        "Online granularity tuner vs the static Figure 9-style sweep",
    );

    // ---- Paper scale: the acceptance claims. --------------------------
    for fam in [model_m2l_family(), model_hydro_family()] {
        add_series(&mut report, &fam, "s/step-phase (model)");
        report.check(
            format!(
                "{}: tuner ({} per task, {:.4}ms) matches best static ({:.4}ms)",
                fam.name,
                fam.tuned_choice,
                fam.tuned_time * 1e3,
                fam.best_time * 1e3
            ),
            fam.tuned_time <= fam.best_time * 1.0005,
        );
        report.check(
            format!(
                "{}: tuner beats the worst static ({:.4}ms) by >= 1.5x",
                fam.name,
                fam.worst_time * 1e3
            ),
            fam.worst_time >= fam.tuned_time * 1.5,
        );
        report.check(
            format!(
                "{}: converged (froze) within {} windows",
                fam.name, fam.windows
            ),
            fam.windows < WINDOW_BUDGET,
        );
    }

    // ---- This host: the same loop over the real kernels. --------------
    // The caller *helps* during `Runtime::scope` / `parallel_for_mut`
    // waits (it steals and executes tasks), so it counts as an executor:
    // cores - 1 pool workers + the helping caller = one executor per
    // core.
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get());
    let rt = Runtime::new(workers.saturating_sub(1).max(1));
    let fam = host_m2l_family(&rt);
    add_series(&mut report, &fam, "s/launch (this host)");
    report.check(
        format!(
            "{}: converged to {} per task in {} windows (tuned {:.3}ms, \
             static best {:.3}ms / worst {:.3}ms — informational)",
            fam.name,
            fam.tuned_choice,
            fam.windows,
            fam.tuned_time * 1e3,
            fam.best_time * 1e3,
            fam.worst_time * 1e3
        ),
        fam.windows < WINDOW_BUDGET,
    );
    rt.shutdown();
    report
}

fn main() {
    let report = autotune_report();
    println!("{}", report.to_markdown());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_autotune.json");
    std::fs::write(path, report.to_json()).expect("write BENCH_autotune.json");
    println!("wrote {path}");
    std::process::exit(i32::from(!report.all_pass()));
}
