//! The four workloads: seeded inputs, set-up, the timed closed loop, and the
//! correctness checks that decide whether a step counts as failed.

use crate::metrics::{median, percentile, Metrics};
use hpx_rt::{ParcelSnapshot, SimCluster};
use kokkos_rs::ExecSpace;
use octotiger::gravity::direct::{p2p_at, PointMasses};
use octotiger::gravity::{GravityOptions, GravitySolver, LeafSources};
use octotiger::state::{field, NF};
use octotiger::units::BOX_SIZE;
use octotiger::{Scenario, ScenarioKind, SimOptions, Simulation, StepStats};
use octree::{DistGrid, NodeId};
use std::collections::HashMap;
use std::time::Instant;
use sve_simd::VectorMode;

/// Worker threads in total on every workload: fixed, not `nproc`-scaled, so
/// a number means the same thing on every host that can run it at all.
pub const WORKERS: usize = 2;
/// Warm-up steps of every set-up (plan builds, pool fill).
pub const WARMUP_STEPS: usize = 2;
/// Set-ups per untraced run: `setup_s` is their median, and their
/// post-warm-up states must agree bit for bit.
pub const SETUP_REPEATS: usize = 3;
/// Samples every run completes whatever its length; exact counts and the
/// state checksum are taken over exactly this prefix so they repeat.
pub const COUNT_SAMPLES: usize = 2;
/// Timed samples of a `--smoke` run, whatever `--seconds` says.
pub const SMOKE_SAMPLES: usize = 3;
/// Amplitude of the seeded perturbation of every interior cell.
pub const PERTURBATION: f64 = 1.0e-3;
/// FMM-vs-direct RMS relative acceleration error a run may show.
pub const FMM_ERROR_BOUND: f64 = 5.0e-3;
const FMM_SAMPLE_CELLS: usize = 64;

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: ScenarioKind,
    pub level: u8,
    pub amr: u8,
    pub n: usize,
    pub gravity: bool,
    pub localities: usize,
    pub pipeline: bool,
    /// The harness regrids before every second step, refine and coarsen in
    /// turn; a sample is then one four-step breathing cycle.
    pub regrid: bool,
    pub checkpoint: bool,
    /// Recorded bound on `|mass + outflow - initial| / initial`, per step
    /// taken since the initial state: round-off on the uniform trees; on the
    /// refined ones the coarse-fine faces carry no flux correction and the
    /// ledger drifts (at worst 4e-4 a step on `v1309_amr_dist`, and on
    /// `dwd_regrid`, which refines the dense cores).
    pub mass_drift_per_step: f64,
    /// Density no cell may reach.  The kernels floor the density they
    /// recover, not the conserved field, so outflow legitimately thins the
    /// ambient medium below `RHO_FLOOR`; at full size nothing reaches zero.
    /// The under-resolved level-2 smoke binaries undershoot it after two
    /// steps, so `--smoke` checks code paths and not this.
    pub min_density: f64,
}

impl Spec {
    pub fn steps_per_sample(&self) -> usize {
        if self.regrid {
            4
        } else {
            1
        }
    }
}

/// The workloads at full size, or the `--smoke` sizes that run the same code
/// paths at level 1-2 with N = 4.
pub fn specs(smoke: bool) -> Vec<Spec> {
    let size =
        |level: u8, n: usize, smoke_level: u8| if smoke { (smoke_level, 4) } else { (level, n) };
    let (l_grav, n_grav) = size(2, 8, 2);
    let (l_hydro, n_hydro) = size(3, 8, 2);
    let (l_v1309, n_v1309) = size(3, 4, 2);
    let (l_dwd, n_dwd) = size(3, 4, 2);
    let min_density = if smoke { f64::NEG_INFINITY } else { 0.0 };
    vec![
        Spec {
            name: "rotstar_grav",
            why: "Rotating star, uniform level 2, N=8, gravity on, 1x2 workers: the paper's scaling problem; P2P gravity is ~96% of the step, so a gravity-kernel change shows and a hydro or ghost change must not.",
            kind: ScenarioKind::RotatingStar,
            level: l_grav,
            amr: 0,
            n: n_grav,
            gravity: true,
            localities: 1,
            pipeline: false,
            regrid: false,
            checkpoint: false,
            mass_drift_per_step: 1.0e-11,
            min_density,
        },
        Spec {
            name: "rotstar_hydro",
            why: "Rotating star, uniform level 3 (262144 cells), N=8, gravity off: bypasses gravity; hydro stage kernels (~65%) and uniform ghost exchange (~33%) do all the work, so a gravity change must not move it.",
            kind: ScenarioKind::RotatingStar,
            level: l_hydro,
            amr: 0,
            n: n_hydro,
            gravity: false,
            localities: 1,
            pipeline: false,
            regrid: false,
            checkpoint: false,
            mass_drift_per_step: 1.0e-11,
            min_density,
        },
        Spec {
            name: "v1309_amr_dist",
            why: "V1309, level 3+1 AMR, N=4, 2 localities x 1 worker, futurized stepper: coarse-fine ghosts, small leaves (M2L, tree passes, launch and future overhead), sharded solve moving parcels every step.",
            kind: ScenarioKind::V1309,
            level: l_v1309,
            amr: 1,
            n: n_v1309,
            gravity: true,
            localities: 2,
            pipeline: true,
            regrid: false,
            checkpoint: true,
            mass_drift_per_step: 1.0e-3,
            min_density,
        },
        Spec {
            name: "dwd_regrid",
            why: "DWD, level 3 base, N=4, 2x1, regrid before every 2nd step (refine, then coarsen): the write side of every cache; half the steps run on freshly patched plans, pools and workspaces.",
            kind: ScenarioKind::Dwd,
            level: l_dwd,
            amr: 0,
            n: n_dwd,
            gravity: true,
            localities: 2,
            pipeline: false,
            regrid: true,
            checkpoint: false,
            mass_drift_per_step: 1.0e-3,
            min_density,
        },
    ]
}

/// SplitMix64: the harness's only source of randomness, a pure function of
/// the seed.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn next_signed_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// Scale every conserved field of each interior cell by `1 + δ`, δ uniform
/// in ±[`PERTURBATION`], one δ per cell in (leaf, i, j, k) order.  This is
/// the whole of what the seed does to the program's input.
pub fn perturb(grid: &DistGrid, seed: u64) {
    let mut rng = SplitMix64(seed);
    let n = grid.n();
    for leaf in grid.leaves() {
        let handle = grid.grid(leaf);
        let mut g = handle.write();
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let scale = 1.0 + PERTURBATION * rng.next_signed_unit();
                    for f in 0..NF {
                        let v = g.get_interior(f, i, j, k);
                        g.set_interior(f, i, j, k, v * scale);
                    }
                }
            }
        }
    }
}

/// One pass over every interior cell: what the step checks and the
/// checksum need.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scan {
    pub mass: f64,
    pub finite: bool,
    pub min_rho: f64,
    pub checksum: u64,
}

pub fn scan(grid: &DistGrid) -> Scan {
    let n = grid.n();
    let mut out = Scan {
        mass: 0.0,
        finite: true,
        min_rho: f64::INFINITY,
        checksum: 0xcbf2_9ce4_8422_2325,
    };
    for leaf in grid.leaves() {
        let (_, size) = leaf.cube();
        let h = size * BOX_SIZE / n as f64;
        let vol = h * h * h;
        let handle = grid.grid(leaf);
        let g = handle.read();
        for f in 0..NF {
            for i in 0..n {
                for j in 0..n {
                    for k in 0..n {
                        let v = g.get_interior(f, i, j, k);
                        out.finite &= v.is_finite();
                        out.checksum =
                            (out.checksum ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
                        if f == field::RHO {
                            out.mass += v * vol;
                            out.min_rho = out.min_rho.min(v);
                        }
                    }
                }
            }
        }
    }
    out
}

/// Why a step failed, if it did.
pub fn step_failure(
    s: &Scan,
    spec: &Spec,
    initial_mass: f64,
    outflow: f64,
    steps_taken: u64,
) -> Option<String> {
    if !s.finite {
        return Some("a field is not finite".to_string());
    }
    if s.min_rho <= spec.min_density {
        return Some(format!(
            "density {:e} is not above {:e}",
            s.min_rho, spec.min_density
        ));
    }
    let drift = ((s.mass + outflow - initial_mass) / initial_mass).abs();
    let bound = spec.mass_drift_per_step * steps_taken as f64;
    if drift > bound {
        return Some(format!(
            "mass ledger drift {drift:e} after {steps_taken} steps exceeds {bound:e}"
        ));
    }
    None
}

/// A set-up system: cluster, simulation and what set-up cost.
pub struct Live {
    pub cluster: SimCluster,
    pub sim: Simulation,
    pub base_level: u8,
    pub initial_mass: f64,
    pub setup_s: f64,
    pub scenario_build_ms: f64,
    pub sim_new_ms: f64,
    pub first_step_ms: f64,
    /// Telemetry of the last warm-up step: the baseline of cumulative counters.
    pub warm: StepStats,
    /// State checksum after the warm-up steps.
    pub checksum: u64,
    /// Alternates refine and coarsen passes on the regrid workload.
    next_pass_refines: bool,
}

impl Live {
    pub fn shutdown(self) {
        let Live { cluster, sim, .. } = self;
        drop(sim);
        cluster.shutdown();
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// `SimCluster::new` through scenario build, `Simulation::new` and the
/// warm-up steps.  The perturbation and the initial ledger are the
/// harness's own work and are not timed.
pub fn setup(spec: &Spec, seed: u64) -> Live {
    let mut timed_s = 0.0;
    let t = Instant::now();
    let cluster = SimCluster::new(spec.localities, WORKERS / spec.localities);
    let sc = Scenario::build(spec.kind, &cluster, spec.level, spec.amr, spec.n);
    let scenario_build_ms = ms_since(t);
    timed_s += t.elapsed().as_secs_f64();

    perturb(&sc.grid, seed);
    let initial_mass = scan(&sc.grid).mass;

    let t = Instant::now();
    let opts = SimOptions {
        vector_mode: VectorMode::Sve512,
        gravity: spec.gravity,
        omega: sc.omega,
        pipeline: spec.pipeline,
        localities: spec.localities,
        regrid_cadence: None,
        autotune: false,
        ..SimOptions::default()
    };
    let base_level = sc.level;
    let mut sim = Simulation::new(sc.grid, opts);
    let sim_new_ms = ms_since(t);
    let first = Instant::now();
    let mut warm = sim.step(&cluster);
    let first_step_ms = ms_since(first);
    for _ in 1..WARMUP_STEPS {
        warm = sim.step(&cluster);
    }
    timed_s += t.elapsed().as_secs_f64();
    let checksum = scan(&sim.grid).checksum;
    // The apex table then covers the timed steps only, like the replay.
    sim.apex.reset();
    Live {
        cluster,
        sim,
        base_level,
        initial_mass,
        setup_s: timed_s,
        scenario_build_ms,
        sim_new_ms,
        first_step_ms,
        warm,
        checksum,
        next_pass_refines: true,
    }
}

/// One timed step and what was seen after it.
pub struct StepRecord {
    pub ms: f64,
    pub leaves: usize,
    pub stats: StepStats,
    /// The step ran on plans a regrid pass had just invalidated.
    pub after_regrid: bool,
}

#[derive(Default)]
pub struct Timed {
    /// Milliseconds per step of each sample: one step, or a breathing cycle
    /// (regrid passes included) divided by its four steps.
    pub sample_ms: Vec<f64>,
    /// Interior cells advanced one full RK3 step, per second, of each sample.
    pub sample_rate: Vec<f64>,
    pub steps: Vec<StepRecord>,
    pub regrid_ms: Vec<f64>,
    pub regrid_leaves_changed: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// A field went non-finite and the loop stopped there.
    pub non_finite: bool,
    /// Over the first [`COUNT_SAMPLES`] samples only, so they repeat exactly.
    pub count_steps: u64,
    pub count_parcels: ParcelSnapshot,
    pub count_launches: u64,
    pub count_checksum: u64,
}

/// Density above which the refine pass splits a leaf.  The level-3 binary is
/// coarse enough to diffuse (its peak density falls fivefold in 40 steps),
/// so a low threshold selects more leaves every cycle and the workload would
/// not be stationary; at 10 the same 16 leaves split every time.
const REFINE_DENSITY: f64 = 10.0;

impl Timed {
    /// The rate of the fastest sample: what `cell_updates_per_s` reports.
    ///
    /// The host this was written on steals a fifth of a core or more for
    /// seconds, sometimes for a whole run or a whole set of runs.  Over sets
    /// of ten 20 s runs the median rate spreads by up to 23%, the rate of the
    /// fastest tenth of samples by up to 16%, the fastest sample's by 3-9%
    /// (18% in the worst set): it is the one statistic that mostly sees the
    /// program and not the host.
    pub fn quiet_rate(&self) -> f64 {
        self.sample_rate.iter().copied().fold(0.0, f64::max)
    }
}

/// The harness's regrid pass: refine every leaf whose peak density exceeds
/// [`REFINE_DENSITY`] one level past the base, or coarsen every octet the
/// tree lets go.
fn regrid_pass(live: &mut Live) -> usize {
    let before = live.sim.grid.leaves().len();
    if live.next_pass_refines {
        live.sim.opts.regrid_coarsen_threshold = 0.0;
        live.sim.regrid(live.base_level + 1, REFINE_DENSITY);
    } else {
        live.sim.opts.regrid_coarsen_threshold = f64::INFINITY;
        live.sim.regrid(0, f64::INFINITY);
    }
    live.next_pass_refines = !live.next_pass_refines;
    live.sim.grid.leaves().len().abs_diff(before)
}

/// The closed loop: one client, the next step only after the previous one
/// completed.  Runs until `budget_s` of wall clock has passed (checks
/// included) or `max_samples` were taken, and always at least
/// [`COUNT_SAMPLES`].  Only `Simulation::step` (and `regrid`) sit inside the
/// timers; the checks run between them.
pub fn run_timed(live: &mut Live, spec: &Spec, budget_s: f64, max_samples: Option<usize>) -> Timed {
    let mut out = Timed::default();
    let parcels_at_start = hpx_rt::parcel_counters().snapshot();
    let loop_start = Instant::now();
    while !out.non_finite {
        let taken = out.sample_ms.len();
        let within =
            loop_start.elapsed().as_secs_f64() < budget_s && max_samples.is_none_or(|m| taken < m);
        if taken >= COUNT_SAMPLES && !within {
            break;
        }
        let mut sample_s = 0.0;
        let mut sample_cells = 0;
        for step_in_sample in 0..spec.steps_per_sample() {
            let regrids = spec.regrid && step_in_sample % 2 == 0;
            if regrids {
                let t = Instant::now();
                let changed = regrid_pass(live);
                let dt = t.elapsed().as_secs_f64();
                sample_s += dt;
                out.regrid_ms.push(dt * 1e3);
                out.regrid_leaves_changed.push(changed as f64);
            }
            let t = Instant::now();
            let stats = live.sim.step(&live.cluster);
            let dt = t.elapsed().as_secs_f64();
            sample_s += dt;
            out.attempted += 1;
            sample_cells += stats.cells_processed / 3;
            let seen = scan(&live.sim.grid);
            if let Some(why) = step_failure(
                &seen,
                spec,
                live.initial_mass,
                live.sim.mass_outflow,
                live.sim.step_count,
            ) {
                out.failed += 1;
                out.failures.push(format!("step {}: {why}", out.attempted));
                out.non_finite |= !seen.finite;
            }
            if out.sample_ms.len() < COUNT_SAMPLES {
                out.count_steps += 1;
                out.count_launches += stats.kernel_launches;
                out.count_checksum = seen.checksum;
            }
            out.steps.push(StepRecord {
                ms: dt * 1e3,
                leaves: live.sim.grid.leaves().len(),
                stats,
                after_regrid: regrids,
            });
            if out.non_finite {
                break;
            }
        }
        out.sample_rate.push(sample_cells as f64 / sample_s);
        out.sample_ms
            .push(sample_s * 1e3 / spec.steps_per_sample() as f64);
        if out.sample_ms.len() == COUNT_SAMPLES {
            out.count_parcels = hpx_rt::parcel_counters()
                .snapshot()
                .since(&parcels_at_start);
        }
    }
    out
}

/// Per-leaf point masses of the current state: the harness's own copy of
/// the source gather the driver performs before every solve.
pub fn gather_sources(grid: &DistGrid) -> HashMap<NodeId, LeafSources> {
    let n = grid.n();
    let mut out = HashMap::new();
    for leaf in grid.leaves() {
        let (corner, size) = leaf.cube();
        let h = size / n as f64;
        let vol = (h * BOX_SIZE).powi(3);
        let handle = grid.grid(leaf);
        let g = handle.read();
        let mut points = PointMasses::default();
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let at = [i, j, k];
                    let x: [f64; 3] = std::array::from_fn(|a| {
                        (corner[a] + (at[a] as f64 + 0.5) * h - 0.5) * BOX_SIZE
                    });
                    points.push(x, g.get_interior(field::RHO, i, j, k) * vol);
                }
            }
        }
        out.insert(leaf, LeafSources { points });
    }
    out
}

pub fn gravity_options(opts: &SimOptions) -> GravityOptions {
    GravityOptions {
        vector_mode: opts.vector_mode,
        ..opts.gravity_opts
    }
}

/// RMS relative acceleration error of the FMM against direct summation over
/// [`FMM_SAMPLE_CELLS`] cells the seed picks, on the current state.
pub fn fmm_rel_error(live: &Live, seed: u64) -> f64 {
    let grid = &live.sim.grid;
    let sources = gather_sources(grid);
    let solver = GravitySolver::new(gravity_options(&live.sim.opts));
    let space = ExecSpace::hpx(live.cluster.locality(0).runtime().clone());
    let (fields, _) = grid.with_tree(|t| solver.solve(t, &sources, &space));
    let leaves = grid.leaves();
    let mut all = PointMasses::default();
    for leaf in &leaves {
        let p = &sources[leaf].points;
        for c in 0..p.len() {
            all.push([p.xs[c], p.ys[c], p.zs[c]], p.ms[c]);
        }
    }
    let mut rng = SplitMix64(seed ^ 0xF00D_FACE_CAFE_BEEF);
    let cells = grid.n().pow(3);
    let (mut err2, mut ref2) = (0.0, 0.0);
    for _ in 0..FMM_SAMPLE_CELLS {
        let leaf = leaves[(rng.next_u64() % leaves.len() as u64) as usize];
        let c = (rng.next_u64() % cells as u64) as usize;
        let p = &sources[&leaf].points;
        let (_, exact) = p2p_at(&all, [p.xs[c], p.ys[c], p.zs[c]], live.sim.opts.vector_mode);
        let f = &fields[&leaf];
        let got = [f.gx[c], f.gy[c], f.gz[c]];
        for a in 0..3 {
            err2 += (got[a] - exact[a]).powi(2);
            ref2 += exact[a].powi(2);
        }
    }
    (err2 / ref2.max(1e-300)).sqrt()
}

/// The kB value of `key` in a `/proc` status file (`VmHWM:`, `MemAvailable:`).
pub fn proc_kb(path: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let value = text.lines().find_map(|l| l.strip_prefix(key))?;
    value.trim().trim_end_matches("kB").trim().parse().ok()
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    proc_kb("/proc/self/status", "VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// What one run reports besides its metrics.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// State checksum after the fixed count window.
    pub checksum: u64,
}

/// Run-level checks shared by both kinds of run: each counts as one more
/// failed operation, so `failed > 0` exactly when something was wrong.
pub fn run_level_checks(live: &Live, seed: u64, timed: &mut Timed) -> f64 {
    if !live.sim.opts.gravity || timed.non_finite {
        return 0.0;
    }
    let err = fmm_rel_error(live, seed);
    if err.is_nan() || err > FMM_ERROR_BOUND {
        timed.failed += 1;
        timed.failures.push(format!(
            "FMM-vs-direct RMS relative error {err:e} exceeds {FMM_ERROR_BOUND:e}"
        ));
    }
    err
}

/// The untraced run: [`SETUP_REPEATS`] set-ups, the last of which goes on to
/// the timed loop, and the end-to-end metrics.
pub fn run_untraced(spec: &Spec, seed: u64, seconds: f64, smoke: bool) -> Outcome {
    let mut setups = Vec::new();
    let mut checksums = Vec::new();
    let mut live = setup(spec, seed);
    for _ in 1..SETUP_REPEATS {
        setups.push(live.setup_s);
        checksums.push(live.checksum);
        live.shutdown();
        live = setup(spec, seed);
    }
    setups.push(live.setup_s);
    checksums.push(live.checksum);

    let mut timed = run_timed(&mut live, spec, seconds, smoke.then_some(SMOKE_SAMPLES));
    if checksums.iter().any(|&c| c != checksums[0]) {
        timed.failed += 1;
        timed.failures.push(format!(
            "set-ups of one seed disagree after warm-up: {checksums:x?}"
        ));
    }
    let err = run_level_checks(&live, seed, &mut timed);
    live.shutdown();

    println!(
        "{}: {} samples of {} step(s), {} set-ups, fmm_rel_error {err:.3e}",
        spec.name,
        timed.sample_ms.len(),
        spec.steps_per_sample(),
        setups.len()
    );
    println!(
        "sample ms/step: fastest {:.3}, p50 {:.3}, p75 {:.3} (the last two move with the host)",
        percentile(&timed.sample_ms, 0.0),
        median(&timed.sample_ms),
        percentile(&timed.sample_ms, 0.75)
    );
    println!(
        "sample_ms {}",
        timed
            .sample_ms
            .iter()
            .map(|v| format!("{v:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let mut metrics = Metrics::default();
    metrics.set("setup_s", median(&setups));
    metrics.set("cell_updates_per_s", timed.quiet_rate());
    metrics.set("peak_rss_mb", peak_rss_mb());
    Outcome {
        metrics,
        attempted: timed.attempted,
        failed: timed.failed,
        failures: timed.failures,
        checksum: timed.count_checksum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(name: &str) -> Spec {
        specs(true)
            .into_iter()
            .find(|s| s.name == name)
            .expect("workload exists")
    }

    #[test]
    fn whys_fit_the_contract() {
        for full in [false, true] {
            for s in specs(full) {
                assert!(
                    s.why.len() <= 200 && !s.why.contains('\n'),
                    "{}: {}",
                    s.name,
                    s.why.len()
                );
                assert_eq!(WORKERS % s.localities, 0);
            }
        }
    }

    #[test]
    fn the_seed_decides_the_input_and_nothing_else_does() {
        let spec = smoke("rotstar_hydro");
        let checksum_of = |seed: u64| {
            let cluster = SimCluster::new(1, 1);
            let sc = Scenario::build(spec.kind, &cluster, 1, 0, 4);
            perturb(&sc.grid, seed);
            let s = scan(&sc.grid);
            cluster.shutdown();
            s
        };
        let (a, b, c) = (checksum_of(7), checksum_of(7), checksum_of(8));
        assert_eq!(a, b);
        assert_ne!(a.checksum, c.checksum);
        // δ stays within ±1e-3, so total mass moves by less than that.
        assert!(((a.mass - c.mass) / a.mass).abs() < PERTURBATION);
        let mut rng = SplitMix64(1);
        assert!((0..1000).all(|_| (-1.0..1.0).contains(&rng.next_signed_unit())));
    }

    #[test]
    fn a_clean_scan_passes_and_each_defect_fails() {
        let spec = specs(false).swap_remove(0);
        let ok = Scan {
            mass: 1.0,
            finite: true,
            min_rho: 1.0e-10,
            checksum: 0,
        };
        assert_eq!(step_failure(&ok, &spec, 1.0, 0.0, 3), None);
        assert!(step_failure(
            &Scan {
                finite: false,
                ..ok
            },
            &spec,
            1.0,
            0.0,
            3
        )
        .is_some());
        assert!(step_failure(&Scan { min_rho: 0.0, ..ok }, &spec, 1.0, 0.0, 3).is_some());
        assert!(step_failure(&Scan { mass: 0.9, ..ok }, &spec, 1.0, 0.0, 3).is_some());
        // Mass that left through the boundary is accounted, not lost.
        assert_eq!(
            step_failure(&Scan { mass: 0.9, ..ok }, &spec, 1.0, 0.1, 3),
            None
        );
    }

    #[test]
    fn a_planted_nan_yields_failed_steps() {
        let spec = smoke("rotstar_hydro");
        let mut live = setup(&spec, 3);
        let clean = run_timed(&mut live, &spec, 0.0, Some(COUNT_SAMPLES));
        assert_eq!((clean.attempted, clean.failed), (COUNT_SAMPLES as u64, 0));
        let leaf = live.sim.grid.leaves()[0];
        live.sim
            .grid
            .grid(leaf)
            .write()
            .set_interior(field::RHO, 1, 1, 1, f64::NAN);
        let dirty = run_timed(&mut live, &spec, 0.0, Some(COUNT_SAMPLES));
        live.shutdown();
        assert!(dirty.failed > 0 && dirty.failed <= dirty.attempted);
        assert!(dirty.failed as f64 / dirty.attempted as f64 > 0.0);
    }
}
