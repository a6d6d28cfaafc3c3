//! The traced run: layer replay, single-thread kernel timings on the
//! workload's own data, and the machine probes the roofline fractions rest on.
//!
//! A replay step is the harness calling, from outside, the public functions
//! one step of the driver calls, at the multiplicity the driver uses them,
//! each inside a span.  It reads the live grid the timed steps left behind
//! and writes only ghost shells and scratch copies, so the state is not
//! advanced.

use crate::alloc_count;
use crate::cost;
use crate::metrics::{mean, median, percentile, share, Metrics};
use crate::trace::{chrome_trace_json, totals_by_name, Tracer};
use crate::workload::{
    gather_sources, gravity_options, proc_kb, run_level_checks, run_timed, setup, Live, Outcome,
    Spec, Timed, SMOKE_SAMPLES, WORKERS,
};
use hpx_rt::{Future, LocalityId, Runtime};
use kokkos_rs::{ChunkSpec, ExecSpace, RangePolicy, ScratchArena};
use octotiger::gravity::direct::p2p_at;
use octotiger::gravity::{DistPlan, GravityPlan, GravitySolver, LeafField, LeafSources};
use octotiger::hydro::{self, HydroOptions, SourceInput};
use octotiger::scf::BinaryModel;
use octotiger::state::NF;
use octotiger::units::BOX_SIZE;
use octotiger::workspace::{zero_ghost_runs, LeafWorkspace};
use octree::{Dir, Neighbor, NodeId, Octant, SubGrid};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use sve_simd::{Simd, VectorMode};

/// Replay steps of a full traced run.
const REPLAYS: usize = 5;
/// Share of `--seconds` the traced run spends on untraced timed steps, the
/// reference the replayed layer times are set against.
const TIMED_SHARE: f64 = 0.4;
/// P2P interactions the single-thread timing covers at least.
const P2P_SAMPLE_INTERACTIONS: u64 = 50_000_000;
const MB: f64 = 1024.0 * 1024.0;

fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Median seconds of `reps` runs of `f`, after one untimed run.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let times: Vec<f64> = (0..reps).map(|_| secs(&mut f)).collect();
    median(&times)
}

/// One leaf of the replayed hydro stage: its workspace, a scratch copy the
/// stage combination writes to instead of the live grid, and its geometry.
struct ReplayLeaf {
    id: NodeId,
    ws: LeafWorkspace,
    out: SubGrid,
    origin: [f64; 3],
    h: f64,
    boundary_faces: [bool; 6],
}

type Fields = Option<Arc<HashMap<NodeId, LeafField>>>;

struct Stage {
    grid: octree::DistGrid,
    leaves: Vec<Mutex<ReplayLeaf>>,
    /// Indices into `leaves` of each locality's own leaves.
    by_locality: Vec<Arc<Vec<usize>>>,
    omega: f64,
    hopts: HydroOptions,
}

impl Stage {
    fn new(live: &Live) -> Stage {
        let grid = live.sim.grid.clone();
        let (n, gw) = (grid.n(), grid.ghost_width());
        let arena = ScratchArena::new();
        let ids = grid.leaves();
        let by_locality = live
            .cluster
            .localities()
            .iter()
            .map(|loc| {
                Arc::new(
                    (0..ids.len())
                        .filter(|&i| grid.owner(ids[i]) == loc.id())
                        .collect(),
                )
            })
            .collect();
        let leaves = ids
            .into_iter()
            .map(|id| {
                let (corner, size) = id.cube();
                Mutex::new(ReplayLeaf {
                    id,
                    ws: LeafWorkspace::new(n, gw, &arena),
                    out: SubGrid::new(n, gw, NF),
                    origin: std::array::from_fn(|a| {
                        (corner[a] + 0.5 * size / n as f64 - 0.5) * BOX_SIZE
                    }),
                    h: size * BOX_SIZE / n as f64,
                    boundary_faces: [false; 6],
                })
            })
            .collect();
        Stage {
            grid,
            leaves,
            by_locality,
            omega: live.sim.opts.omega,
            hopts: HydroOptions {
                vector_mode: live.sim.opts.vector_mode,
                cfl: live.sim.opts.cfl,
            },
        }
    }

    /// The driver's per-step prologue, from the same public calls: save u0
    /// into every workspace and classify every leaf's boundary faces.
    fn prologue(&self) {
        let faces = [
            Dir::new(-1, 0, 0),
            Dir::new(1, 0, 0),
            Dir::new(0, -1, 0),
            Dir::new(0, 1, 0),
            Dir::new(0, 0, -1),
            Dir::new(0, 0, 1),
        ];
        self.grid.with_tree(|t| {
            for cell in &self.leaves {
                let mut guard = cell.lock().expect("no stage task is running");
                let rl = &mut *guard;
                rl.ws.u0.copy_from(&self.grid.grid(rl.id).read());
                rl.boundary_faces =
                    faces.map(|d| matches!(t.neighbor_of(rl.id, d), Neighbor::DomainBoundary));
            }
        });
    }

    /// `hydro::compute_rhs` on leaf `i`'s current stage input.
    fn rhs_leaf(&self, rl: &mut ReplayLeaf, fields: &Fields, mode: VectorMode) -> f64 {
        let leaf_field = fields.as_ref().map(|m| &m[&rl.id]);
        let src = SourceInput {
            gravity: leaf_field.map(|f| [&f.gx[..], &f.gy[..], &f.gz[..]]),
            omega: self.omega,
            origin: rl.origin,
            h: rl.h,
            boundary_faces: rl.boundary_faces,
        };
        let hopts = HydroOptions {
            vector_mode: mode,
            ..self.hopts
        };
        let ws = &mut rl.ws;
        hydro::compute_rhs(&ws.u_cur, &mut ws.rhs, &src, &hopts, &mut ws.scratch)
            .boundary_mass_outflow_rate
    }

    /// One leaf's stage kernel, as the driver's stage task runs it: copy
    /// the grid, RHS, zero the ghost RHS, stage combination.
    fn run_leaf(&self, i: usize, stage: usize, dt: f64, fields: &Fields, mode: VectorMode) -> f64 {
        let mut guard = self.leaves[i].lock().expect("one task per leaf");
        let live_grid = self.grid.grid(guard.id);
        guard.ws.u_cur.copy_from(&live_grid.read());
        let outflow = self.rhs_leaf(&mut guard, fields, mode);
        let ReplayLeaf { ws, out, .. } = &mut *guard;
        zero_ghost_runs(&mut ws.rhs, &ws.ghost_runs);
        match stage {
            0 => hydro::rk3::stage_euler(&ws.u_cur, &ws.rhs, dt, out, mode),
            1 => hydro::rk3::stage_two(&ws.u0, &ws.u_cur, &ws.rhs, dt, out, mode),
            _ => hydro::rk3::stage_three(&ws.u0, &ws.u_cur, &ws.rhs, dt, out, mode),
        }
        outflow
    }
}

/// Launch one stage over every leaf: per locality, one `parallel_for` with a
/// task per leaf on that locality's runtime, as the driver's leaf loop does.
fn launch_stage(live: &Live, stage_data: &Arc<Stage>, stage: usize, dt: f64, fields: &Fields) {
    let mode = live.sim.opts.vector_mode;
    let futures: Vec<Future<()>> = live
        .cluster
        .localities()
        .iter()
        .zip(&stage_data.by_locality)
        .filter_map(|(loc, mine)| {
            let mine = mine.clone();
            if mine.is_empty() {
                return None;
            }
            let rt = loc.runtime().clone();
            let space = ExecSpace::hpx(rt.clone());
            let data = stage_data.clone();
            let fields = fields.clone();
            Some(rt.async_call(move || {
                let policy =
                    RangePolicy::new(0, mine.len()).with_chunk(ChunkSpec::Tasks(mine.len()));
                kokkos_rs::parallel_for(&space, policy, |k| {
                    black_box(data.run_leaf(mine[k], stage, dt, &fields, mode));
                });
            }))
        })
        .collect();
    for f in futures {
        f.wait();
    }
}

fn exchange(live: &Live) {
    let (grid, cluster, config) = (&live.sim.grid, &live.cluster, live.sim.opts.ghost);
    if live.sim.opts.pipeline {
        let ready: HashMap<NodeId, Future<()>> = grid
            .leaves()
            .into_iter()
            .map(|l| (l, hpx_rt::make_ready_future(())))
            .collect();
        let ex = grid.exchange_ghosts_pipelined(cluster, config, &ready);
        ex.ghosts_filled
            .values()
            .chain(ex.outgoing_packed.values())
            .for_each(Future::wait);
    } else {
        black_box(grid.exchange_ghosts(cluster, config));
    }
}

fn runtimes(live: &Live) -> Vec<Runtime> {
    live.cluster
        .localities()
        .iter()
        .map(|l| l.runtime().clone())
        .collect()
}

/// The solve as the driver dispatches it: sharded over the localities when
/// there are several, else on locality 0's runtime.
fn solve(
    live: &Live,
    solver: &GravitySolver,
    plan: &Arc<GravityPlan>,
    sources: &Arc<HashMap<NodeId, LeafSources>>,
) -> HashMap<NodeId, LeafField> {
    let nloc = live.sim.opts.localities;
    if nloc > 1 {
        let owner = live
            .sim
            .grid
            .with_tree(|t| octree::partition_morton(t, nloc));
        let dist = solver.dist_plan_for(plan, &owner, nloc);
        solver
            .solve_distributed(plan, &dist, sources, &runtimes(live))
            .0
    } else {
        let space = ExecSpace::hpx(live.cluster.locality(0).runtime().clone());
        solver.solve_with_plan(plan, sources, &space).0
    }
}

/// One replay step: a root span with a child span per layer call.
fn replay_step(tr: &mut Tracer, live: &Live, solver: &GravitySolver, stage_data: &Arc<Stage>) {
    let root = tr.begin("replay_step");
    let fields: Fields = if live.sim.opts.gravity {
        let sources = Arc::new(tr.span("gravity:gather", || gather_sources(&live.sim.grid)));
        let plan = tr.span("gravity:plan", || {
            live.sim.grid.with_tree(|t| solver.plan_for(t))
        });
        Some(Arc::new(tr.span("gravity:solve", || {
            solve(live, solver, &plan, &sources)
        })))
    } else {
        None
    };
    let dt = tr.span("hydro:cfl", || live.sim.compute_dt());
    tr.span("driver:prologue", || stage_data.prologue());
    for stage in 0..3 {
        tr.span("ghost:exchange", || exchange(live));
        tr.span("hydro:stage", || {
            launch_stage(live, stage_data, stage, dt, &fields)
        });
    }
    tr.end(root);
}

/// Names of the child spans that together are one step's layer time.
const LAYER_SPANS: &[&str] = &[
    "gravity:gather",
    "gravity:plan",
    "gravity:solve",
    "hydro:cfl",
    "driver:prologue",
    "ghost:exchange",
    "hydro:stage",
];

/// The driver's apex timers that have a replayed counterpart.
const APEX_PAIRS: &[(&str, &str)] = &[
    ("gravity:kernels", "gravity:solve"),
    ("comm:ghost_exchange", "ghost:exchange"),
    ("hydro:rk_stage", "hydro:stage"),
    ("hydro:cfl_reduction", "hydro:cfl"),
];

/// Single-thread kernel timings on the replayed leaves' real data (their
/// `u_cur` holds the last replayed stage's input, ghosts filled).
fn hydro_kernels(m: &mut Metrics, stage_data: &Stage, fields: &Fields, dt: f64) {
    let cells = (stage_data.leaves.len() * stage_data.grid.n().pow(3)) as f64;
    let per_cell_ns = |kernel: &mut dyn FnMut(&mut ReplayLeaf)| {
        median_secs(3, || {
            for cell in &stage_data.leaves {
                kernel(&mut cell.lock().expect("serial"));
            }
        }) * 1e9
            / cells
    };
    for (name, mode) in [
        ("hydro.rhs_ns_per_cell", VectorMode::Sve512),
        ("hydro.rhs_scalar_ns_per_cell", VectorMode::Scalar),
    ] {
        m.set(
            name,
            per_cell_ns(&mut |rl| {
                black_box(stage_data.rhs_leaf(rl, fields, mode));
            }),
        );
    }
    m.set(
        "hydro.rk_update_ns_per_cell",
        per_cell_ns(&mut |rl| {
            let ReplayLeaf { ws, out, .. } = rl;
            hydro::rk3::stage_three(&ws.u0, &ws.u_cur, &ws.rhs, dt, out, VectorMode::Sve512);
        }),
    );
    m.set(
        "hydro.cfl_ns_per_cell",
        per_cell_ns(&mut |rl| {
            black_box(hydro::max_signal_speed(&rl.ws.u_cur, &stage_data.hopts));
        }),
    );
}

/// Pack, unpack, prolong and restrict on the calling thread, over the real
/// leaves, plus the link census of the current tree.
fn ghost_kernels(m: &mut Metrics, live: &Live, stage_data: &Stage) {
    let grid = &live.sim.grid;
    let (n, gw) = (grid.n(), grid.ghost_width());
    let sample = stage_data.leaves.len().min(128);
    let dirs: Vec<Dir> = Dir::all26().collect();
    let mut buf = Vec::new();
    let mut bytes = 0u64;
    let pack_s = secs(|| {
        for cell in &stage_data.leaves[..sample] {
            let g = cell.lock().expect("serial");
            for &d in &dirs {
                g.ws.u_cur.pack_send_into(d, &mut buf);
                bytes += 8 * black_box(&buf).len() as u64;
            }
        }
    });
    let payloads: Vec<Vec<f64>> = {
        let g = stage_data.leaves[0].lock().expect("serial");
        dirs.iter()
            .map(|d| g.ws.u_cur.pack_send(d.opposite()))
            .collect()
    };
    let unpack_s = secs(|| {
        for cell in &stage_data.leaves[..sample] {
            let mut g = cell.lock().expect("serial");
            for (d, p) in dirs.iter().zip(&payloads) {
                g.out.unpack_recv(*d, black_box(p));
            }
        }
    });
    m.set("ghost.pack_ns_per_byte", pack_s * 1e9 / bytes as f64);
    m.set("ghost.unpack_ns_per_byte", unpack_s * 1e9 / bytes as f64);

    let sample = stage_data.leaves.len().min(64);
    let interior_bytes = (n.pow(3) * NF * 8) as f64;
    let mut children = Vec::new();
    let prolong_s = secs(|| {
        for cell in &stage_data.leaves[..sample] {
            let g = cell.lock().expect("serial");
            children.extend(Octant::all().map(|o| (o, g.ws.u_cur.prolong_child(o))));
        }
    });
    let mut parent = SubGrid::new(n, gw, NF);
    let restrict_s = secs(|| {
        for (o, child) in &children {
            parent.restrict_from_child(*o, black_box(child));
        }
    });
    let moved = children.len() as f64 * interior_bytes;
    m.set("regrid.prolong_ns_per_byte", prolong_s * 1e9 / moved);
    m.set("regrid.restrict_ns_per_byte", restrict_s * 1e9 / moved);

    let specs = grid.link_specs();
    let mut payload_bytes = 0u64;
    let mut coarse_fine = 0u64;
    for s in &specs {
        if s.is_boundary() {
            continue;
        }
        payload_bytes += (NF * SubGrid::box_cells(&SubGrid::recv_box_of(n, gw, s.dir)) * 8) as u64;
        coarse_fine += u64::from(s.sources[0].level() != s.leaf.level());
    }
    m.set("ghost.links_per_exchange", specs.len() as f64);
    m.set("ghost.bytes_per_exchange_computed", payload_bytes as f64);
    m.set(
        "ghost.coarse_fine_link_share",
        share(coarse_fine as f64, specs.len() as f64),
    );
}

/// Gravity off: every gravity metric reads 0, by name.
fn no_gravity(m: &mut Metrics) {
    for p in crate::metrics::PER_LAYER
        .iter()
        .filter(|p| p.name.starts_with("gravity."))
    {
        m.set(p.name, 0.0);
    }
}

/// Plan costs, the M2L and P2P kernels on the calling thread, and the
/// serial decomposition the derived tree-pass time comes from.  Returns the
/// computed bytes per P2P and per M2L interaction, for the roofline.
fn gravity_kernels(m: &mut Metrics, live: &Live, solver: &GravitySolver) -> (f64, f64) {
    let grid = &live.sim.grid;
    let opts = gravity_options(&live.sim.opts);
    let nloc = live.sim.opts.localities;
    let sources = gather_sources(grid);
    let plan = grid.with_tree(|t| solver.plan_for(t));

    m.set(
        "gravity.plan_build_ms",
        median_secs(3, || {
            black_box(grid.with_tree(|t| GravityPlan::build(t, opts.theta)));
        }) * 1e3,
    );
    m.set(
        "gravity.plan_lookup_us",
        median_secs(3, || {
            for _ in 0..1000 {
                black_box(grid.with_tree(|t| solver.plan_for(t)));
            }
        }) * 1e3,
    );
    let dist_ms = if nloc > 1 {
        let owner = grid.with_tree(|t| octree::partition_morton(t, nloc));
        median_secs(3, || {
            black_box(DistPlan::build(&plan, &owner, nloc));
        }) * 1e3
    } else {
        0.0
    };
    m.set("gravity.dist_plan_build_ms", dist_ms);

    let m2l_n = plan.stats.m2l_interactions as f64;
    let mut bench = solver.m2l_bench_inputs(&plan, &sources);
    let space = ExecSpace::hpx(live.cluster.locality(0).runtime().clone());
    m.set(
        "gravity.m2l_ms",
        median_secs(3, || solver.m2l_bench_run(&plan, &mut bench, &space)) * 1e3,
    );

    // On the calling thread: the M2L kernel, P2P over whole target leaves
    // against their real source lists (until the sample is large enough),
    // and the whole solve.  The tree-pass time is what is left of the solve,
    // a difference of large terms, so the three are timed in interleaved
    // rounds and each is its fastest round: a stretch of stolen host time in
    // only one of them would land in the difference whole.
    let cells = grid.n().pow(3) as u64;
    let total: u64 = (0..plan.leaves.len())
        .map(|li| plan.p2p_sources_of(li).len() as u64 * cells * cells)
        .sum();
    let mut sample_leaves = 0;
    let mut done = 0u64;
    while sample_leaves < plan.leaves.len() && done < P2P_SAMPLE_INTERACTIONS {
        done += plan.p2p_sources_of(sample_leaves).len() as u64 * cells * cells;
        sample_leaves += 1;
    }
    let p2p_sample = || {
        for li in 0..sample_leaves {
            let targets = &sources[&plan.leaves[li]].points;
            for &si in plan.p2p_sources_of(li) {
                let src = &sources[&plan.leaves[si]].points;
                for c in 0..targets.len() {
                    black_box(p2p_at(
                        src,
                        [targets.xs[c], targets.ys[c], targets.zs[c]],
                        opts.vector_mode,
                    ));
                }
            }
        }
    };
    let (mut m2l_s, mut p2p_s, mut solve_s) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        m2l_s = m2l_s.min(secs(|| {
            solver.m2l_bench_run(&plan, &mut bench, &ExecSpace::Serial)
        }));
        p2p_s = p2p_s.min(secs(p2p_sample));
        solve_s = solve_s.min(secs(|| {
            black_box(solver.solve_with_plan(&plan, &sources, &ExecSpace::Serial));
        }));
    }
    let m2l_ns = share(m2l_s * 1e9, m2l_n);
    let p2p_ns = share(p2p_s * 1e9, done as f64);
    m.set("gravity.m2l_interactions", m2l_n);
    m.set("gravity.m2l_ns_per_interaction", m2l_ns);
    m.set("gravity.p2p_pairs", plan.stats.p2p_pairs as f64);
    m.set("gravity.p2p_cell_interactions_computed", total as f64);
    m.set("gravity.p2p_ns_per_interaction", p2p_ns);
    let tree_pass_s = solve_s - m2l_s - p2p_ns * 1e-9 * total as f64;
    m.set("gravity.tree_pass_ms", tree_pass_s.max(0.0) * 1e3);

    let m2l_flops = cost::m2l_flops_per_interaction(opts.use_octupole);
    m.set(
        "gravity.p2p_flops_per_interaction_computed",
        cost::P2P_FLOPS_PER_INTERACTION,
    );
    m.set("gravity.m2l_flops_per_interaction_computed", m2l_flops);
    (
        cost::p2p_bytes_per_interaction(cells as f64),
        cost::m2l_bytes_per_interaction(
            plan.num_nodes as f64,
            plan.m2l_targets.len() as f64,
            m2l_n,
        ),
    )
}

/// Machine probes, measured in this process on the calling thread.
pub struct Probes {
    pub fma_gflops: f64,
    pub triad_gbs: f64,
    pub llc_bytes: u64,
    pub triad_array_bytes: u64,
    pub simd_w8_gflops: f64,
    pub simd_w1_gflops: f64,
}

impl Probes {
    /// Achieved rate over the roofline bound `min(peak, flops/byte x bandwidth)`
    /// for a kernel doing `flops` and moving `bytes` (computed) in `ns`.
    pub fn roofline_fraction(&self, flops: f64, bytes: f64, ns: f64) -> f64 {
        if ns <= 0.0 {
            return 0.0;
        }
        let bound = self
            .fma_gflops
            .min(flops / bytes.max(1e-300) * self.triad_gbs);
        share(flops / ns, bound)
    }
}

/// Doubles the FMA probes sweep: 4 KiB, resident in L1.
const FMA_ARRAY: usize = 512;
/// Dependent multiply-adds per element and pass: enough that the loads and
/// stores around them are not what limits the loop.
const FMA_DEPTH: usize = 4;
const FMA_PASSES: usize = 400_000;

/// Fused multiply-adds over an L1-resident array under the wide ISA: what
/// the vector units retire when nothing else is in the way.
#[inline(always)]
fn fma_peak_kernel(x: &mut [f64], passes: usize) {
    let (a, b) = (black_box(0.999_999_9f64), black_box(1.0e-9f64));
    for _ in 0..passes {
        for v in x.iter_mut() {
            let mut t = *v;
            for _ in 0..FMA_DEPTH {
                t = t.mul_add(a, b);
            }
            *v = t;
        }
    }
}

sve_simd::wide_dispatch! {
    fn fma_peak_wide(x: &mut [f64], passes: usize) = fma_peak_kernel
}

/// The same sweep through `Simd::mul_add`, the building block the ported
/// kernels use (an unfused multiply and add), at width `W`.
#[inline(always)]
fn simd_chain_kernel<const W: usize>(x: &mut [f64], passes: usize) {
    let a = Simd::<f64, W>::splat(black_box(0.999_999_9));
    let b = Simd::<f64, W>::splat(black_box(1.0e-9));
    for _ in 0..passes {
        for off in (0..x.len()).step_by(W) {
            let mut t = Simd::<f64, W>::from_slice(&x[off..]);
            for _ in 0..FMA_DEPTH {
                t = t.mul_add(a, b);
            }
            t.write_to_slice(&mut x[off..]);
        }
    }
}

sve_simd::wide_dispatch! {
    fn simd_chain_wide(x: &mut [f64], passes: usize) = simd_chain_kernel::<8>
}

fn llc_bytes() -> u64 {
    (0..8)
        .filter_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let size = std::fs::read_to_string(format!("{dir}/size")).ok()?;
            let size = size.trim();
            let (digits, scale) = match size.as_bytes().last()? {
                b'K' => (&size[..size.len() - 1], 1u64 << 10),
                b'M' => (&size[..size.len() - 1], 1u64 << 20),
                b'G' => (&size[..size.len() - 1], 1u64 << 30),
                _ => (size, 1),
            };
            Some(digits.parse::<u64>().ok()? * scale)
        })
        .max()
        .unwrap_or(32 << 20)
}

fn mem_available_bytes() -> u64 {
    proc_kb("/proc/meminfo", "MemAvailable:").map_or(1 << 30, |kb| kb as u64 * 1024)
}

/// Largest triad array.  On the host this was written on the last-level cache
/// is a 260 MiB L3 shared with other guests; three arrays of four times that
/// are 3 GiB, and faulting them in and freeing them again left the guest
/// 20-40% slower for minutes, which the next runs then measured.
const TRIAD_MAX_ARRAY_BYTES: u64 = 128 << 20;

/// STREAM triad `a = b + s*c`, best of three passes.  Each array is four
/// times the last-level cache, capped at [`TRIAD_MAX_ARRAY_BYTES`] and at a
/// twelfth of the available memory; both sizes are reported so a reader can
/// tell which it was.
fn triad(llc: u64, smoke: bool) -> (f64, u64) {
    let want = if smoke { 8 << 20 } else { 4 * llc };
    let array_bytes = want
        .min(TRIAD_MAX_ARRAY_BYTES)
        .min(mem_available_bytes() / 12)
        .max(8 << 20);
    let len = (array_bytes / 8) as usize;
    let mut a = vec![0.0f64; len];
    let b = vec![1.5f64; len];
    let c = vec![2.5f64; len];
    let s = black_box(3.0);
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        best = best.min(secs(|| {
            for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
                *x = *y + s * *z;
            }
            black_box(&mut a);
        }));
    }
    (3.0 * 8.0 * len as f64 / best / 1e9, 8 * len as u64)
}

fn probes(smoke: bool) -> Probes {
    let passes = if smoke { FMA_PASSES / 20 } else { FMA_PASSES };
    let flops = (2 * FMA_DEPTH * FMA_ARRAY * passes) as f64;
    let gflops = |f: &dyn Fn(&mut [f64], usize)| {
        let mut x = vec![1.0f64; FMA_ARRAY];
        flops
            / median_secs(3, || {
                f(&mut x, passes);
                black_box(&mut x);
            })
            / 1e9
    };
    let llc = llc_bytes();
    let (triad_gbs, triad_array_bytes) = triad(llc, smoke);
    Probes {
        fma_gflops: gflops(&fma_peak_wide),
        triad_gbs,
        llc_bytes: llc,
        triad_array_bytes,
        simd_w8_gflops: gflops(&simd_chain_wide),
        simd_w1_gflops: gflops(&simd_chain_kernel::<1>),
    }
}

/// Runtime and memory-pool overheads, on the run's own cluster.
fn runtime_probes(m: &mut Metrics, live: &Live, smoke: bool) {
    let rt = live.cluster.locality(0).runtime().clone();
    let reps = if smoke { 2_000 } else { 20_000 };
    m.set(
        "hpx_rt.task_spawn_ns",
        median_secs(3, || {
            rt.scope(|s| {
                for _ in 0..reps {
                    s.spawn(|| ());
                }
            });
        }) * 1e9
            / reps as f64,
    );
    m.set(
        "hpx_rt.future_then_ns",
        median_secs(3, || {
            let mut f = hpx_rt::make_ready_future(0u64);
            for _ in 0..reps {
                f = f.then(&rt, |v| v + 1);
            }
            black_box(f.get());
        }) * 1e9
            / reps as f64,
    );

    live.cluster
        .register_action("benchmark_ping", |arg, _loc| arg);
    let far = LocalityId(live.cluster.num_localities() - 1);
    let pings = reps / 20;
    m.set(
        "hpx_rt.parcel_roundtrip_us",
        median_secs(3, || {
            for _ in 0..pings {
                live.cluster
                    .locality(0)
                    .apply_async(far, "benchmark_ping", Box::new(0u8), 8)
                    .wait();
            }
        }) * 1e6
            / pings as f64,
    );

    let space = ExecSpace::hpx(rt.clone());
    let launches = reps / 20;
    m.set(
        "kokkos_rs.launch_overhead_us",
        median_secs(3, || {
            for _ in 0..launches {
                let policy = RangePolicy::new(0, WORKERS).with_chunk(ChunkSpec::Tasks(WORKERS));
                kokkos_rs::parallel_for(&space, policy, |i| {
                    black_box(i);
                });
            }
        }) * 1e6
            / launches as f64,
    );
    let arena = ScratchArena::new();
    m.set(
        "kokkos_rs.pool_checkout_ns",
        median_secs(3, || {
            for _ in 0..reps {
                black_box(arena.checkout(512));
            }
        }) * 1e9
            / reps as f64,
    );
}

/// Checkpoint write and read of the current state, where the workload has one.
fn checkpoint(m: &mut Metrics, live: &Live, spec: &Spec, out_dir: &Path) -> Result<(), String> {
    if !spec.checkpoint {
        for name in [
            "io.checkpoint_write_ms",
            "io.checkpoint_read_ms",
            "io.checkpoint_mb",
            "io.write_mb_per_s",
        ] {
            m.set(name, 0.0);
        }
        return Ok(());
    }
    let path = out_dir.join(format!("{}.ckpt", spec.name));
    let sim = &live.sim;
    let mut result = Ok(());
    let write_s = secs(|| result = octotiger::io::save(&path, &sim.grid, sim.time, sim.step_count));
    result.map_err(|e| format!("checkpoint write failed: {e}"))?;
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len() as f64;
    let mut read = None;
    let read_s = secs(|| read = Some(octotiger::io::read_checkpoint(&path)));
    let ckpt = read
        .expect("read ran")
        .map_err(|e| format!("checkpoint read failed: {e}"))?;
    std::fs::remove_file(&path).map_err(|e| e.to_string())?;
    if ckpt.leaves.len() != sim.grid.leaves().len() {
        return Err("checkpoint read back a different tree".to_string());
    }
    m.set("io.checkpoint_write_ms", write_s * 1e3);
    m.set("io.checkpoint_read_ms", read_s * 1e3);
    m.set("io.checkpoint_mb", bytes / MB);
    m.set("io.write_mb_per_s", bytes / MB / write_s);
    Ok(())
}

/// Counts and shares of the untraced timed steps that preceded the replay.
fn step_counts(m: &mut Metrics, live: &Live, spec: &Spec, timed: &Timed, allocs: (u64, u64)) {
    let steps = timed.steps.len() as f64;
    let count_steps = timed.count_steps as f64;
    let last = &timed.steps.last().expect("at least one timed step").stats;
    m.set("driver.step_ms_p50", median(&timed.sample_ms));
    m.set("driver.step_ms_p75", percentile(&timed.sample_ms, 0.75));
    m.set(
        "driver.kernel_launches_per_step",
        timed.count_launches as f64 / count_steps,
    );
    m.set(
        "driver.overlapped_tasks_per_step",
        mean(
            &timed
                .steps
                .iter()
                .map(|s| s.stats.overlapped_tasks as f64)
                .collect::<Vec<_>>(),
        ),
    );
    let links: f64 = timed
        .steps
        .iter()
        .map(|s| s.stats.ghost_links_total as f64)
        .sum();
    let direct: f64 = timed
        .steps
        .iter()
        .map(|s| s.stats.direct_ghost_links as f64)
        .sum();
    m.set("ghost.direct_link_share", share(direct, links));
    m.set(
        "hpx_rt.parcels_per_step",
        timed.count_parcels.total_count() as f64 / count_steps,
    );
    m.set(
        "hpx_rt.parcel_bytes_per_step",
        timed.count_parcels.total_bytes() as f64 / count_steps,
    );
    let fires: u64 = runtimes(live)
        .iter()
        .map(|rt| rt.counters().snapshot().watchdog_fires)
        .sum();
    m.set("hpx_rt.watchdog_fires", fires as f64);
    let hits = (last.scratch_hits - live.warm.scratch_hits) as f64;
    let misses = (last.scratch_misses - live.warm.scratch_misses) as f64;
    m.set("kokkos_rs.scratch_misses_per_step", misses / steps);
    m.set("kokkos_rs.scratch_hit_share", share(hits, hits + misses));
    m.set(
        "kokkos_rs.scratch_high_water_mb",
        last.scratch_high_water as f64 / MB,
    );
    m.set("alloc.count_per_step", allocs.0 as f64 / steps);
    m.set("alloc.bytes_per_step", allocs.1 as f64 / steps);
    if spec.gravity {
        let plan_hits = timed
            .steps
            .iter()
            .filter(|s| s.stats.gravity_plan_hit)
            .count() as f64;
        m.set("gravity.plan_hit_share", plan_hits / steps);
    }

    m.set(
        "regrid.leaves_mean",
        mean(
            &timed
                .steps
                .iter()
                .map(|s| s.leaves as f64)
                .collect::<Vec<_>>(),
        ),
    );
    if spec.regrid {
        m.set("regrid.pass_ms", median(&timed.regrid_ms));
        m.set(
            "regrid.leaves_changed_per_pass",
            mean(&timed.regrid_leaves_changed),
        );
        // Steps come in (patched, cache-hit) pairs at one leaf count.
        let penalties: Vec<f64> = timed
            .steps
            .chunks_exact(2)
            .filter(|p| p[0].after_regrid && p[0].leaves == p[1].leaves)
            .map(|p| p[0].ms - p[1].ms)
            .collect();
        m.set("regrid.patched_step_penalty_ms", median(&penalties));
        let patched = timed
            .steps
            .iter()
            .filter(|s| s.stats.gravity_plan_patched)
            .count() as f64;
        let rebuilt = timed
            .steps
            .iter()
            .filter(|s| {
                s.after_regrid && !s.stats.gravity_plan_patched && !s.stats.gravity_plan_hit
            })
            .count() as f64;
        m.set("regrid.plan_patch_share", share(patched, patched + rebuilt));
    } else {
        for name in [
            "regrid.pass_ms",
            "regrid.leaves_changed_per_pass",
            "regrid.patched_step_penalty_ms",
        ] {
            m.set(name, 0.0);
        }
        // No regrid, no plan to patch: nothing was rebuilt either.
        m.set("regrid.plan_patch_share", 1.0);
    }
}

/// The traced run.  Per-layer metrics only; the end-to-end metrics come
/// from the untraced run, which carries none of this.
pub fn run_traced(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    smoke: bool,
    out_dir: &Path,
) -> Result<Outcome, String> {
    let mut m = Metrics::default();
    m.set(
        "driver.scf_solve_ms",
        secs(|| {
            black_box(BinaryModel::solve(spec.kind.params()));
        }) * 1e3,
    );
    let mut live = setup(spec, seed);
    m.set("driver.scenario_build_ms", live.scenario_build_ms);
    m.set("driver.sim_new_ms", live.sim_new_ms);
    m.set("driver.first_step_ms", live.first_step_ms);

    alloc_count::reset_and_enable();
    let mut timed = run_timed(
        &mut live,
        spec,
        seconds * TIMED_SHARE,
        smoke.then_some(SMOKE_SAMPLES),
    );
    let allocs = alloc_count::disable_and_read();
    step_counts(&mut m, &live, spec, &timed, allocs);
    let step_ms_p50 = median(&timed.sample_ms);

    // ---- Layer replay on the state the timed steps left behind. ----
    let solver = GravitySolver::with_scratch(gravity_options(&live.sim.opts), ScratchArena::new());
    let stage_data = Arc::new(Stage::new(&live));
    let mut tr = Tracer::new();
    let replays = if smoke { 1 } else { REPLAYS };
    // One unrecorded replay first: it builds the replay solver's plans and
    // fills its pools, as the warm-up steps did for the driver's.
    replay_step(&mut Tracer::new(), &live, &solver, &stage_data);
    // The recorded replays are spread between the measurements below, not
    // run back to back: the host's slow stretches last seconds, and five
    // replays in a row would all sit inside one.
    let mut recorded = 0;
    let mut record_replay = |tr: &mut Tracer| {
        if recorded < replays {
            recorded += 1;
            tr.set_replay(recorded as u32);
            replay_step(tr, &live, &solver, &stage_data);
        }
    };

    // ---- Kernels on the calling thread and overheads, replays between. ----
    record_replay(&mut tr);
    let fields: Fields = if spec.gravity {
        let sources = Arc::new(gather_sources(&live.sim.grid));
        let plan = live.sim.grid.with_tree(|t| solver.plan_for(t));
        Some(Arc::new(solve(&live, &solver, &plan, &sources)))
    } else {
        None
    };
    let dt = live.sim.compute_dt();
    record_replay(&mut tr);
    hydro_kernels(&mut m, &stage_data, &fields, dt);
    record_replay(&mut tr);
    ghost_kernels(&mut m, &live, &stage_data);
    record_replay(&mut tr);
    let gravity_bytes = if spec.gravity {
        Some(gravity_kernels(&mut m, &live, &solver))
    } else {
        no_gravity(&mut m);
        None
    };
    record_replay(&mut tr);
    runtime_probes(&mut m, &live, smoke);
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    checkpoint(&mut m, &live, spec, out_dir)?;

    // Every replayed time is that of the fastest recorded replay of its
    // span: a stretch of host time stolen from the guest lands in one replay,
    // not in all of them.  The timed reference is its counterpart, the
    // fastest of the like steps.
    let totals = totals_by_name(&tr.spans);
    let per_step_ms = |name: &str| {
        (1..=replays as u32)
            .map(|r| {
                let of_replay = tr.spans.iter().filter(|s| s.name == name && s.replay == r);
                of_replay.map(|s| s.duration_ns() as f64 / 1e6).sum::<f64>() + 0.0
            })
            .fold(f64::INFINITY, f64::min)
    };
    let per_call_ms = |name: &str| {
        let calls_per_step = totals
            .get(name)
            .map_or(1.0, |t| t.count as f64 / replays as f64);
        per_step_ms(name) / calls_per_step
    };
    let layers_ms: f64 = LAYER_SPANS.iter().map(|n| per_step_ms(n)).sum();
    // The step the replay stands for: warm caches, the replayed tree's leaf
    // count.  Off the regrid workload that is every timed step.
    let replay_leaves = live.sim.grid.leaves().len();
    let like: Vec<f64> = timed
        .steps
        .iter()
        .filter(|s| !s.after_regrid && s.leaves == replay_leaves)
        .map(|s| s.ms)
        .collect();
    let reference_ms = if like.is_empty() {
        &timed.sample_ms
    } else {
        &like
    }
    .iter()
    .copied()
    .fold(f64::INFINITY, f64::min);
    m.set("driver.compute_dt_ms", per_call_ms("hydro:cfl"));
    m.set("hydro.stage_ms", per_call_ms("hydro:stage"));
    m.set("ghost.exchange_ms", per_call_ms("ghost:exchange"));
    m.set(
        "ghost.ns_per_link",
        share(
            per_call_ms("ghost:exchange") * 1e6,
            live.sim.grid.total_ghost_links() as f64,
        ),
    );
    if live.sim.opts.pipeline {
        m.set("driver.unattributed_share", 0.0);
        m.set(
            "driver.overlap_share",
            (1.0 - share(reference_ms, layers_ms)).max(0.0),
        );
    } else {
        m.set(
            "driver.unattributed_share",
            1.0 - share(layers_ms, reference_ms),
        );
        m.set("driver.overlap_share", 0.0);
    }
    // What recording the spans cost: an empty span's price times the spans
    // of one replay step, over that step's duration.
    let mut empty = Tracer::new();
    let span_ns = secs(|| {
        for _ in 0..10_000 {
            empty.span("empty", || ());
        }
    }) * 1e9
        / 10_000.0;
    let spans_per_step = tr.spans.len() as f64 / replays as f64;
    m.set(
        "driver.trace_overhead_share",
        share(span_ns * spans_per_step, per_step_ms("replay_step") * 1e6),
    );

    // ---- The run report: replay against the driver's own apex timers. ----
    println!(
        "{}: step_ms_p50 {step_ms_p50:.3} over {} samples; reference step {reference_ms:.3} ms at {replay_leaves} leaves; replayed layers {layers_ms:.3} ms/step",
        spec.name,
        timed.sample_ms.len()
    );
    println!(
        "  {:<22} {:>12} {:>12}  (per call, ms)",
        "apex timer", "apex mean", "replay mean"
    );
    // Apex keeps means only, so this one table sets mean against mean.
    let mean_call_ms = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / 1e6 / t.count as f64)
    };
    for (apex_name, span_name) in APEX_PAIRS {
        let apex = live.sim.apex.stats(apex_name);
        if apex.count == 0 {
            println!(
                "  {apex_name:<22} {:>12} {:>12.4}  the stepper records no such timer",
                "n/a",
                mean_call_ms(span_name)
            );
            continue;
        }
        let (a, r) = (apex.mean_s() * 1e3, mean_call_ms(span_name));
        let flag = if (r - a).abs() > 0.15 * a {
            "  <-- more than 15% apart"
        } else {
            ""
        };
        println!("  {apex_name:<22} {a:>12.4} {r:>12.4}{flag}");
    }
    for name in LAYER_SPANS {
        println!(
            "  layer {name:<18} {:>10.4} ms/step  {:>6.1}% of the reference step",
            per_step_ms(name),
            100.0 * share(per_step_ms(name), reference_ms)
        );
    }
    println!(
        "  replay_step self time {:.4} ms/step: the harness's own work between its spans",
        totals["replay_step"].self_ns as f64 / 1e6 / replays as f64
    );

    if spec.gravity {
        m.set("gravity.gather_ms", per_call_ms("gravity:gather"));
        m.set("gravity.solve_ms", per_call_ms("gravity:solve"));
    }

    let fmm_error = run_level_checks(&live, seed, &mut timed);
    if spec.gravity {
        m.set("gravity.fmm_rel_error", fmm_error);
    }
    // ---- Machine probes last: the triad's arrays disturb what follows. ----
    let machine = probes(smoke);
    m.set("probe.fma_gflops", machine.fma_gflops);
    m.set("probe.stream_triad_gbs", machine.triad_gbs);
    m.set("probe.llc_bytes", machine.llc_bytes as f64);
    m.set("probe.triad_array_bytes", machine.triad_array_bytes as f64);
    m.set("sve_simd.fma_gflops_w8", machine.simd_w8_gflops);
    m.set("sve_simd.fma_gflops_w1", machine.simd_w1_gflops);
    let (n, gw) = (live.sim.grid.n(), live.sim.grid.ghost_width());
    let rhs_flops = cost::hydro_rhs_flops_per_cell(n, gw, spec.gravity);
    let rhs_bytes = cost::hydro_rhs_bytes_per_cell(n, gw, spec.gravity);
    m.set("hydro.rhs_flops_per_cell_computed", rhs_flops);
    m.set("hydro.rhs_bytes_per_cell_computed", rhs_bytes);
    let measured = |m: &Metrics, name: &str| m.get(name).expect("set by the kernel timings");
    let rhs_ns = measured(&m, "hydro.rhs_ns_per_cell");
    m.set(
        "hydro.rhs_roofline_fraction",
        machine.roofline_fraction(rhs_flops, rhs_bytes, rhs_ns),
    );
    if let Some((p2p_bytes, m2l_bytes)) = gravity_bytes {
        let p2p_ns = measured(&m, "gravity.p2p_ns_per_interaction");
        let m2l_ns = measured(&m, "gravity.m2l_ns_per_interaction");
        let m2l_flops = measured(&m, "gravity.m2l_flops_per_interaction_computed");
        m.set(
            "gravity.p2p_roofline_fraction",
            machine.roofline_fraction(cost::P2P_FLOPS_PER_INTERACTION, p2p_bytes, p2p_ns),
        );
        m.set(
            "gravity.m2l_roofline_fraction",
            machine.roofline_fraction(m2l_flops, m2l_bytes, m2l_ns),
        );
    }

    let apex: Vec<(&'static str, u64, f64)> = live
        .sim
        .apex
        .summary()
        .into_iter()
        .map(|(name, s)| (name, s.count, s.total_s))
        .collect();
    let trace_path = out_dir.join(format!("{}.trace.json", spec.name));
    std::fs::write(&trace_path, chrome_trace_json(&tr.spans, &apex))
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    println!(
        "  {} spans written to {}",
        tr.spans.len(),
        trace_path.display()
    );
    live.shutdown();
    Ok(Outcome {
        metrics: m,
        attempted: timed.attempted,
        failed: timed.failed,
        failures: timed.failures,
        checksum: timed.count_checksum,
    })
}
