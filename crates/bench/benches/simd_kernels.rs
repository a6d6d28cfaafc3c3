//! The Figure 7 reproduction at kernel granularity: scalar (`W = 1`) vs
//! 512-bit SVE (`W = 8`) instantiations of every ported hot-kernel family
//! — the SIMD primitives, hydro RHS, gravity P2P and M2L, and a full
//! end-to-end step — measured head-to-head on the host.
//!
//! Besides the criterion ns/iter lines, the run writes the measured
//! series and the paper's qualitative claim ("the SVE build outperforms
//! the scalar build on every kernel family") to `BENCH_simd.json` at the
//! workspace root via `bench::report::FigureReport`.

use criterion::{criterion_group, BenchmarkId, Criterion};
use octotiger::gravity::direct::{p2p_at_w, p2p_at_wide, PointMasses};
use octotiger::gravity::m2l_simd::{m2l_accumulate_w, m2l_accumulate_wide};
use octotiger::gravity::{LocalExpansion, Multipole, MultipoleSoA};
use octotiger::hydro::{self, kernels::KernelScratch, HydroOptions, SourceInput};
use octotiger::state::{field, NF};
use octotiger::{Scenario, ScenarioKind, SimOptions, Simulation};
use octree::SubGrid;
use std::hint::black_box;
use std::time::{Duration, Instant};
use sve_simd::{for_each_simd, zip_map_simd, Simd, VectorMode};

fn axpy_bench(c: &mut Criterion) {
    let n = 4096;
    let a: Vec<f64> = (0..n).map(|i| i as f64 * 0.001).collect();
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.002).sin()).collect();
    let mut out = vec![0.0; n];
    let mut group = c.benchmark_group("simd/axpy");
    group.bench_function(BenchmarkId::new("width", 1), |bench| {
        bench.iter(|| {
            zip_map_simd::<1>(black_box(&a), black_box(&b), &mut out, |x, y| {
                x.mul_add(Simd::splat(1.5), y)
            });
            black_box(&out);
        })
    });
    group.bench_function(BenchmarkId::new("width", 8), |bench| {
        bench.iter(|| {
            zip_map_simd::<8>(black_box(&a), black_box(&b), &mut out, |x, y| {
                x.mul_add(Simd::splat(1.5), y)
            });
            black_box(&out);
        })
    });
    group.finish();
}

fn rsqrt_bench(c: &mut Criterion) {
    // 1/sqrt dominates the P2P gravity kernel.
    let n = 4096;
    let mut data: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * 0.01).collect();
    let mut group = c.benchmark_group("simd/rsqrt");
    group.bench_function(BenchmarkId::new("width", 1), |bench| {
        bench.iter(|| {
            for_each_simd::<1>(black_box(&mut data), |v| Simd::splat(1.0) / v.sqrt());
        })
    });
    group.bench_function(BenchmarkId::new("width", 8), |bench| {
        bench.iter(|| {
            for_each_simd::<8>(black_box(&mut data), |v| Simd::splat(1.0) / v.sqrt());
        })
    });
    group.finish();
}

fn minmod_bench(c: &mut Criterion) {
    // The reconstruction limiter: select-heavy, tests mask codegen.
    use octotiger::hydro::recon::minmod;
    let n = 4096;
    let a: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
    let b: Vec<f64> = (0..n).map(|i| ((i * 5) % 11) as f64 - 5.0).collect();
    let mut out = vec![0.0; n];
    let mut group = c.benchmark_group("simd/minmod");
    group.bench_function(BenchmarkId::new("width", 1), |bench| {
        bench.iter(|| {
            zip_map_simd::<1>(black_box(&a), black_box(&b), &mut out, minmod);
            black_box(&out);
        })
    });
    group.bench_function(BenchmarkId::new("width", 8), |bench| {
        bench.iter(|| {
            zip_map_simd::<8>(black_box(&a), black_box(&b), &mut out, minmod);
            black_box(&out);
        })
    });
    group.finish();
}

// ---------------------------------------------------------------------
// The ported hot-kernel families (the actual Figure 7 subjects).
// ---------------------------------------------------------------------

/// A smooth ghosted hydro state for the RHS benchmarks.
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

fn bench_src() -> SourceInput<'static> {
    SourceInput {
        gravity: None,
        omega: 0.1,
        origin: [0.0; 3],
        h: 0.01,
        boundary_faces: [false; 6],
    }
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

fn hydro_rhs_bench(c: &mut Criterion) {
    let n = 8;
    let u = bench_hydro_state(n);
    let src = bench_src();
    let mut rhs = hydro::rhs_like(&u);
    let mut scratch = KernelScratch::ephemeral(n, 2);
    let mut group = c.benchmark_group("kernel/hydro-rhs");
    for (label, mode) in [(1usize, VectorMode::Scalar), (8, VectorMode::Sve512)] {
        let opts = HydroOptions {
            vector_mode: mode,
            cfl: 0.4,
        };
        group.bench_function(BenchmarkId::new("width", label), |bench| {
            bench.iter(|| {
                black_box(hydro::compute_rhs(
                    black_box(&u),
                    &mut rhs,
                    &src,
                    &opts,
                    &mut scratch,
                ))
            })
        });
    }
    group.finish();
}

fn p2p_bench(c: &mut Criterion) {
    let pts = bench_cloud(1024);
    let mut group = c.benchmark_group("kernel/gravity-p2p");
    group.bench_function(BenchmarkId::new("width", 1), |bench| {
        bench.iter(|| black_box(p2p_at_w::<1>(black_box(&pts), 2.0, 3.0, 4.0)))
    });
    group.bench_function(BenchmarkId::new("width", 8), |bench| {
        bench.iter(|| black_box(p2p_at_wide(black_box(&pts), 2.0, 3.0, 4.0)))
    });
    group.finish();
}

fn m2l_bench(c: &mut Criterion) {
    let soa = bench_soa(512);
    let sources: Vec<usize> = (0..soa.len()).collect();
    let center = [3.0, -2.0, 1.5];
    let mut group = c.benchmark_group("kernel/gravity-m2l");
    group.bench_function(BenchmarkId::new("width", 1), |bench| {
        bench.iter(|| {
            let mut out = LocalExpansion::zero();
            m2l_accumulate_w::<1>(black_box(&soa), &sources, center, true, &mut out);
            black_box(out)
        })
    });
    group.bench_function(BenchmarkId::new("width", 8), |bench| {
        bench.iter(|| {
            let mut out = LocalExpansion::zero();
            m2l_accumulate_wide(black_box(&soa), &sources, center, true, &mut out);
            black_box(out)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    axpy_bench,
    rsqrt_bench,
    minmod_bench,
    hydro_rhs_bench,
    p2p_bench,
    m2l_bench
);

// ---------------------------------------------------------------------
// The measured Figure 7 report (written to BENCH_simd.json).
// ---------------------------------------------------------------------

/// Seconds per call of `f`, measured over an adaptively sized batch.
fn time_per_iter(mut f: impl FnMut()) -> f64 {
    f(); // warm up
    let mut reps = 1u32;
    loop {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        let dt = t0.elapsed();
        if dt >= Duration::from_millis(200) || reps >= 1 << 20 {
            return dt.as_secs_f64() / reps as f64;
        }
        reps *= 2;
    }
}

/// End-to-end cells/s of a full RK3 step (gravity on), per backend.
fn end_to_end_cells_per_second(mode: VectorMode) -> f64 {
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

    // Family 0: hydro RHS, in cells/s.
    let n = 8;
    let u = bench_hydro_state(n);
    let src = bench_src();
    let mut rhs = hydro::rhs_like(&u);
    let mut scratch = KernelScratch::ephemeral(n, 2);
    let mut hydro_rate = [0.0f64; 2];
    for (slot, mode) in [VectorMode::Scalar, VectorMode::Sve512]
        .into_iter()
        .enumerate()
    {
        let opts = HydroOptions {
            vector_mode: mode,
            cfl: 0.4,
        };
        let t = time_per_iter(|| {
            black_box(hydro::compute_rhs(
                black_box(&u),
                &mut rhs,
                &src,
                &opts,
                &mut scratch,
            ));
        });
        hydro_rate[slot] = (n * n * n) as f64 / t;
    }

    // Family 1: gravity P2P, in interactions/s.
    let pts = bench_cloud(1024);
    let p2p_scalar = 1024.0
        / time_per_iter(|| {
            black_box(p2p_at_w::<1>(black_box(&pts), 2.0, 3.0, 4.0));
        });
    let p2p_sve = 1024.0
        / time_per_iter(|| {
            black_box(p2p_at_wide(black_box(&pts), 2.0, 3.0, 4.0));
        });

    // Family 2: gravity M2L, in interactions/s.
    let soa = bench_soa(512);
    let sources: Vec<usize> = (0..soa.len()).collect();
    let center = [3.0, -2.0, 1.5];
    let m2l_scalar = 512.0
        / time_per_iter(|| {
            let mut out = LocalExpansion::zero();
            m2l_accumulate_w::<1>(black_box(&soa), &sources, center, true, &mut out);
            black_box(out);
        });
    let m2l_sve = 512.0
        / time_per_iter(|| {
            let mut out = LocalExpansion::zero();
            m2l_accumulate_wide(black_box(&soa), &sources, center, true, &mut out);
            black_box(out);
        });

    // Family 3: a full step, in processed cells/s.
    let e2e_scalar = end_to_end_cells_per_second(VectorMode::Scalar);
    let e2e_sve = end_to_end_cells_per_second(VectorMode::Sve512);

    let families = [
        ("hydro-rhs", hydro_rate[0], hydro_rate[1], "cells/s"),
        ("gravity-p2p", p2p_scalar, p2p_sve, "interactions/s"),
        ("gravity-m2l", m2l_scalar, m2l_sve, "interactions/s"),
        ("end-to-end-step", e2e_scalar, e2e_sve, "cells/s"),
    ];
    for (x, (name, scalar, sve, unit)) in families.iter().enumerate() {
        report.point(&format!("scalar/{name}"), x as f64, *scalar, unit);
        report.point(&format!("sve512/{name}"), x as f64, *sve, unit);
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
    benches();
    let report = figure7_measured();
    println!("{}", report.to_markdown());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_simd.json");
    std::fs::write(path, report.to_json()).expect("write BENCH_simd.json");
    println!("wrote {path}");
    std::process::exit(i32::from(!report.all_pass()));
}
