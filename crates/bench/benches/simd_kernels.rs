//! The Figure 7 reproduction at kernel granularity: scalar (`W = 1`) vs
//! 512-bit SVE (`W = 8`) builds of every ported hot-kernel family — hydro
//! RHS, gravity P2P, M2L and M2P, and a full end-to-end step — measured
//! head-to-head on the host through the `VectorMode`-dispatched entries
//! the solver calls.
//!
//! The run writes the measured series and the paper's qualitative claim
//! ("the SVE build outperforms the scalar build on every kernel family")
//! to `BENCH_simd.json` at the workspace root via `bench::FigureReport`,
//! and exits nonzero if any family fails it.

use bench::time_per_iter;
use octotiger::gravity::direct::{p2p_at, PointMasses};
use octotiger::gravity::m2l_simd::m2l_accumulate;
use octotiger::gravity::m2p_simd::m2p_accumulate;
use octotiger::gravity::{LocalExpansion, Multipole, MultipoleSoA};
use octotiger::hydro::{self, kernels::KernelScratch, HydroOptions, SourceInput};
use octotiger::state::{field, NF};
use octotiger::{Scenario, ScenarioKind, SimOptions, Simulation};
use octree::SubGrid;
use std::hint::black_box;
use sve_simd::VectorMode;

const MODES: [VectorMode; 2] = [VectorMode::Scalar, VectorMode::Sve512];

/// One kernel family's measured rate at a vector mode.
type Rate = fn(VectorMode) -> f64;

/// A smooth ghosted hydro state for the RHS family.
fn bench_hydro_state(n: usize) -> SubGrid {
    let mut u = SubGrid::new(n, 2, NF);
    let ext = u.ext();
    for i in 0..ext {
        for j in 0..ext {
            for k in 0..ext {
                let x = i as f64 * 0.3 + j as f64 * 0.17 + k as f64 * 0.11;
                let rho = 1.0 + 0.2 * x.sin();
                u.set(field::RHO, i, j, k, rho);
                u.set(field::SX, i, j, k, 0.1 * x.cos());
                u.set(field::EGAS, i, j, k, 1.0 + 0.1 * (2.0 * x).sin());
                u.set(field::TAU, i, j, k, 0.9);
                u.set(field::FRAC1, i, j, k, rho);
            }
        }
    }
    u
}

fn bench_cloud(points: usize) -> PointMasses {
    let mut pts = PointMasses::default();
    for i in 0..points {
        let f = i as f64;
        pts.push(
            [f.sin(), (f * 0.7).cos(), f * 1e-3],
            1.0 + 0.1 * (f * 0.3).sin(),
        );
    }
    pts
}

fn bench_soa(slots: usize) -> MultipoleSoA {
    let mps: Vec<Multipole> = (0..slots)
        .map(|s| {
            let f = s as f64;
            Multipole::from_points(&[
                ([0.1 * f.sin(), 0.1 * (f * 0.3).cos(), 0.05 * f.cos()], 1.0),
                ([0.05 * f.cos(), -0.08 * f.sin(), 0.02], 0.5),
            ])
        })
        .collect();
    let mut soa = MultipoleSoA::default();
    soa.fill(&mps);
    soa
}

/// A 4³-cell tile of edge 1 at `corner`, masses rippled.
fn bench_tile(corner: [f64; 3]) -> PointMasses {
    let mut pts = PointMasses::default();
    for q in 0..64usize {
        let at = [q / 16, q / 4 % 4, q % 4];
        let x: [f64; 3] = std::array::from_fn(|a| corner[a] + (at[a] as f64 + 0.5) * 0.25);
        pts.push(x, 1.0 + 0.1 * (0.3 * q as f64).sin());
    }
    pts
}

/// Hydro RHS of one N = 8 leaf, in cells/s.
fn hydro_rhs_rate(mode: VectorMode) -> f64 {
    let n = 8;
    let u = bench_hydro_state(n);
    let src = SourceInput {
        gravity: None,
        omega: 0.1,
        origin: [0.0; 3],
        h: 0.01,
        boundary_faces: [false; 6],
    };
    let opts = HydroOptions {
        vector_mode: mode,
        cfl: 0.4,
    };
    let mut rhs = hydro::rhs_like(&u);
    let mut scratch = KernelScratch::ephemeral(n, 2);
    let t = time_per_iter(|| {
        black_box(hydro::compute_rhs(
            black_box(&u),
            &mut rhs,
            &src,
            &opts,
            &mut scratch,
        ));
    });
    (n * n * n) as f64 / t
}

/// P2P of one target against 1024 sources, in interactions/s.
fn p2p_rate(mode: VectorMode) -> f64 {
    let pts = bench_cloud(1024);
    let t = time_per_iter(|| {
        black_box(p2p_at(black_box(&pts), [2.0, 3.0, 4.0], mode));
    });
    pts.len() as f64 / t
}

/// M2L of 512 source multipoles onto one local expansion, in
/// interactions/s.
fn m2l_rate(mode: VectorMode) -> f64 {
    let soa = bench_soa(512);
    let sources: Vec<usize> = (0..soa.len()).collect();
    let center = [3.0, -2.0, 1.5];
    let t = time_per_iter(|| {
        let mut out = LocalExpansion::zero();
        m2l_accumulate(black_box(&soa), &sources, center, true, mode, &mut out);
        black_box(out);
    });
    sources.len() as f64 / t
}

/// M2P of one source tile's multipole onto the 64 cells of a target tile
/// three tile edges away (every cell passes the acceptance test): the work
/// that replaces 64 x 64 P2P interactions, in cell interactions/s.
fn m2p_rate(mode: VectorMode) -> f64 {
    let (source, targets) = (bench_tile([0.0; 3]), bench_tile([3.0, 1.0, 0.0]));
    let mp = Multipole::from_soa(source.view());
    let sphere = ([0.5; 3], 0.5 * 3f64.sqrt());
    let (mut sums, mut far) = ([[0.0; 64]; 4], [false; 64]);
    let t = time_per_iter(|| {
        let mut out = sums.each_mut().map(|run| &mut run[..]);
        let cells = targets.view();
        let nfar = m2p_accumulate(
            black_box(&mp),
            sphere,
            0.5,
            true,
            cells,
            mode,
            &mut far,
            &mut out,
        );
        assert_eq!(nfar, 64);
        black_box(&sums);
    });
    targets.len() as f64 / t
}

/// End-to-end cells/s of a full RK3 step (gravity on): the best of three
/// steps after a warm-up step.
fn end_to_end_rate(mode: VectorMode) -> f64 {
    use hpx_rt::SimCluster;
    let cluster = SimCluster::new(1, 2);
    let scenario = Scenario::build(ScenarioKind::RotatingStar, &cluster, 2, 0, 8);
    let mut opts = SimOptions::default();
    opts.omega = scenario.omega;
    opts.gravity = true;
    opts.vector_mode = mode;
    let mut sim = Simulation::new(scenario.grid, opts);
    sim.step(&cluster); // warm-up: plan build, pool fills
    let mut best = 0.0f64;
    for _ in 0..3 {
        let s = sim.step(&cluster);
        best = best.max(s.cells_per_second);
    }
    cluster.shutdown();
    best
}

fn figure7_measured() -> bench::FigureReport {
    let mut report = bench::FigureReport::new(
        "fig7-measured",
        "SVE vs scalar, measured per kernel family (cells or interactions per second)",
    );
    let families: [(&str, Rate, &str); 5] = [
        ("hydro-rhs", hydro_rhs_rate, "cells/s"),
        ("gravity-p2p", p2p_rate, "interactions/s"),
        ("gravity-m2l", m2l_rate, "interactions/s"),
        ("gravity-m2p", m2p_rate, "interactions/s"),
        ("end-to-end-step", end_to_end_rate, "cells/s"),
    ];
    for (x, (name, rate, unit)) in families.into_iter().enumerate() {
        let [scalar, sve] = MODES.map(rate);
        report.point(&format!("scalar/{name}"), x as f64, scalar, unit);
        report.point(&format!("sve512/{name}"), x as f64, sve, unit);
        report.check(
            format!(
                "SVE build outperforms scalar on {name} ({:.2}x)",
                sve / scalar
            ),
            sve > scalar,
        );
    }
    report
}

fn main() {
    let report = figure7_measured();
    println!("{}", report.to_markdown());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_simd.json");
    std::fs::write(path, report.to_json()).expect("write BENCH_simd.json");
    println!("wrote {path}");
    std::process::exit(i32::from(!report.all_pass()));
}
