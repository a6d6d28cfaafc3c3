//! Gravity kernels: the P2P monopole kernel (the paper's dominant GPU
//! kernel, SVE's main CPU beneficiary), the M2L multipole kernel whose
//! task-splitting Figure 9 studies, and the M2P kernel of the near field's
//! cell-level tier.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kokkos_rs::ExecSpace;
use octotiger::gravity::direct::{p2p_at, PointMasses};
use octotiger::gravity::m2p_simd::m2p_accumulate;
use octotiger::gravity::multipole::Multipole;
use octotiger::gravity::{GravityPlan, GravitySolver, LeafSources};
use octree::{NodeId, Tree};
use std::collections::HashMap;
use std::hint::black_box;
use sve_simd::VectorMode;

fn p2p_bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("gravity/p2p");
    for npts in [512usize, 4096] {
        let mut pts = PointMasses::default();
        for i in 0..npts {
            let f = i as f64;
            pts.push(
                [f.sin(), (0.7 * f).cos(), 1.0 + f * 1e-3],
                1.0 + 0.1 * (0.3 * f).sin(),
            );
        }
        for (label, mode) in [("scalar", VectorMode::Scalar), ("sve", VectorMode::Sve512)] {
            group.bench_function(BenchmarkId::new(label, npts), |bench| {
                bench.iter(|| {
                    black_box(p2p_at(black_box(&pts), [5.0, -2.0, 3.0], mode));
                })
            });
        }
    }
    group.finish();
}

fn m2l_bench(c: &mut Criterion) {
    let cloud: Vec<([f64; 3], f64)> = (0..64)
        .map(|i| {
            let f = i as f64;
            (
                [0.1 * f.sin(), 0.1 * (2.0 * f).cos(), 0.05 * f.cos()],
                1.0 + 0.01 * f,
            )
        })
        .collect();
    let mp = Multipole::from_points(&cloud);
    let mut group = c.benchmark_group("gravity/m2l");
    group.bench_function("monopole+quadrupole", |bench| {
        bench.iter(|| black_box(mp.m2l(black_box([4.0, 1.0, -2.0]), false)))
    });
    group.bench_function("with_octupole", |bench| {
        bench.iter(|| black_box(mp.m2l(black_box([4.0, 1.0, -2.0]), true)))
    });
    group.finish();
}

/// One source tile against the 64 cells of a target tile three tile edges
/// away (every cell passes the cell-level test): classification + M2P, the
/// work that replaces 64 x 64 P2P interactions.
fn m2p_bench(c: &mut Criterion) {
    let lattice = |corner: [f64; 3]| {
        let mut pts = PointMasses::default();
        for q in 0..64usize {
            let at = [q / 16, q / 4 % 4, q % 4];
            let x: [f64; 3] = std::array::from_fn(|a| corner[a] + (at[a] as f64 + 0.5) * 0.25);
            pts.push(x, 1.0 + 0.1 * (0.3 * q as f64).sin());
        }
        pts
    };
    let (source, targets) = (lattice([0.0; 3]), lattice([3.0, 1.0, 0.0]));
    let mp = Multipole::from_soa(source.view());
    let sphere = ([0.5; 3], 0.5 * 3f64.sqrt());
    let (mut sums, mut far) = ([[0.0; 64]; 4], [false; 64]);
    let mut group = c.benchmark_group("gravity/m2p");
    for (label, mode) in [("scalar", VectorMode::Scalar), ("sve", VectorMode::Sve512)] {
        group.bench_function(BenchmarkId::new(label, 64), |bench| {
            bench.iter(|| {
                let mut out = sums.each_mut().map(|run| &mut run[..]);
                let (mp, cells) = (black_box(&mp), targets.view());
                let nfar = m2p_accumulate(mp, sphere, 0.5, true, cells, mode, &mut far, &mut out);
                assert_eq!(nfar, 64);
                black_box(&sums);
            })
        });
    }
    group.finish();
}

fn l2l_eval_bench(c: &mut Criterion) {
    let cloud = [([0.0, 0.0, 0.0], 2.0), ([0.2, 0.1, -0.1], 1.0)];
    let mp = Multipole::from_points(&cloud);
    let local = mp.m2l([3.0, 1.0, 2.0], true);
    let mut group = c.benchmark_group("gravity/local_expansion");
    group.bench_function("shift", |bench| {
        bench.iter(|| black_box(local.shifted(black_box([0.05, -0.02, 0.01]))))
    });
    group.bench_function("evaluate", |bench| {
        bench.iter(|| black_box(local.evaluate(black_box([0.03, 0.01, -0.02]))))
    });
    group.finish();
}

/// Full FMM solves on the cached interaction plan — the steady-state
/// step.  What a plan miss adds on top is `gravity/plan`'s
/// `build`-vs-`cache_hit` gap below.
fn plan_cache_bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("gravity/solve");
    group.sample_size(20);
    // Cells per leaf shrink with depth so each config solves in bench
    // time.
    for (level, n) in [(2u8, 4usize), (3, 2), (4, 1)] {
        let tree = Tree::new_uniform(level);
        let sources: HashMap<NodeId, LeafSources> = tree
            .leaves()
            .into_iter()
            .map(|leaf| {
                let (corner, size) = leaf.cube();
                let h = size / n as f64;
                let mut points = PointMasses::default();
                for i in 0..n {
                    for j in 0..n {
                        for k in 0..n {
                            let x = corner[0] + (i as f64 + 0.5) * h - 0.5;
                            let y = corner[1] + (j as f64 + 0.5) * h - 0.5;
                            let z = corner[2] + (k as f64 + 0.5) * h - 0.5;
                            points.push([x, y, z], 1.0 + 0.1 * (31.0 * x + 17.0 * y).sin());
                        }
                    }
                }
                (leaf, LeafSources { points })
            })
            .collect();
        let solver = GravitySolver::default();
        solver.solve(&tree, &sources, &ExecSpace::Serial); // warm the cache
        group.bench_function(BenchmarkId::new("plan_cached", level), |bench| {
            bench.iter(|| {
                black_box(solver.solve(black_box(&tree), black_box(&sources), &ExecSpace::Serial))
            })
        });
    }
    group.finish();
}

/// Plan acquisition alone: a cache hit (version check + `Arc` clone) vs
/// the full dual-tree traversal and CSR construction a rebuild performs —
/// the per-solve cost the cache removes, isolated from the kernels.
fn plan_acquisition_bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("gravity/plan");
    for level in [2u8, 3, 4] {
        let tree = Tree::new_uniform(level);
        group.bench_function(BenchmarkId::new("build", level), |bench| {
            bench.iter(|| black_box(GravityPlan::build(black_box(&tree), 0.5)))
        });
        let solver = GravitySolver::default();
        solver.plan_for(&tree); // warm the cache
        group.bench_function(BenchmarkId::new("cache_hit", level), |bench| {
            bench.iter(|| black_box(solver.plan_for(black_box(&tree))))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    p2p_bench,
    m2l_bench,
    m2p_bench,
    l2l_eval_bench,
    plan_cache_bench,
    plan_acquisition_bench
);
criterion_main!(benches);
