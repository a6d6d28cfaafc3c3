//! The width-equivalence harness for the Figure 7 SIMD port: every kernel
//! ported onto `Simd<f64, W>` must produce **bit-identical** results at
//! `W = 1` (scalar) and `W = 8` (one 512-bit SVE register of f64).
//! The kernel properties call the `VectorMode`-dispatched entries the
//! solver calls, so the `W = 8` side is the build under the host's widest
//! vector ISA (`wide_dispatch!`), not a baseline-target instantiation.
//!
//! The kernels earn this by folding their lanes into scalar accumulators
//! in lane order and by masking remainder lanes out of every fold (see
//! DESIGN.md), so the property holds for *any* input — which is what the
//! randomized suites below check — and composes all the way up to full
//! multi-step simulations, which the last section compares through the
//! shared harness (`harness/mod.rs`).

mod harness;

use harness::{check, REFERENCE, UNIFORM};
use octo_repro::amr::{NodeId, SubGrid, Tree};
use octo_repro::kokkos::ExecSpace;
use octo_repro::octotiger::gravity::direct::{p2p_at, PointMasses};
use octo_repro::octotiger::gravity::m2l_simd::m2l_accumulate;
use octo_repro::octotiger::gravity::m2p_simd::m2p_accumulate;
use octo_repro::octotiger::gravity::{
    GravityOptions, GravitySolver, LeafSources, Multipole, MultipoleSoA,
};
use octo_repro::octotiger::hydro::{self, kernels::KernelScratch, HydroOptions, SourceInput};
use octo_repro::octotiger::state::{field, from_primitive, Primitive};
use octo_repro::octotiger::NF;
use octo_repro::simd::VectorMode;
use proptest::prelude::*;
use std::collections::HashMap;

// ---------------------------------------------------------------------
// Kernel-level properties: randomized inputs, bit-equality across widths.
// ---------------------------------------------------------------------

proptest! {
    /// P2P: random clouds, deliberately spanning every remainder length
    /// (1..40 covers all `len % 8` classes several times over).
    #[test]
    fn p2p_bit_identical_across_widths(
        pts in prop::collection::vec(((-2.0f64..2.0, -2.0f64..2.0, -2.0f64..2.0), 0.01f64..5.0), 1..40),
        at in (-3.0f64..3.0, -3.0f64..3.0, -3.0f64..3.0),
    ) {
        let mut cloud = PointMasses::default();
        for ((x, y, z), m) in &pts {
            cloud.push([*x, *y, *z], *m);
        }
        let at = [at.0, at.1, at.2];
        let (p1, g1) = p2p_at(&cloud, at, VectorMode::Scalar);
        let (p8, g8) = p2p_at(&cloud, at, VectorMode::Sve512);
        prop_assert_eq!(p1.to_bits(), p8.to_bits(), "phi differs: {} vs {}", p1, p8);
        for ax in 0..3 {
            prop_assert_eq!(g1[ax].to_bits(), g8[ax].to_bits(),
                            "g[{}] differs: {} vs {}", ax, g1[ax], g8[ax]);
        }
    }

    /// M2L: random multipole source lists (with massless slots the kernel
    /// must skip) against the full lane-width sweep.
    #[test]
    fn m2l_bit_identical_across_widths(
        clouds in prop::collection::vec(
            prop::collection::vec(((-0.4f64..0.4, -0.4f64..0.4, -0.4f64..0.4), 0.0f64..3.0), 1..4),
            1..30),
        use_oct in any::<bool>(),
    ) {
        let mps: Vec<Multipole> = clouds
            .iter()
            .map(|pts| {
                let points: Vec<([f64; 3], f64)> =
                    pts.iter().map(|((x, y, z), m)| ([*x, *y, *z], *m)).collect();
                Multipole::from_points(&points)
            })
            .collect();
        let mut soa = MultipoleSoA::default();
        soa.fill(&mps);
        let sources: Vec<usize> = (0..mps.len()).collect();
        let center = [3.0, -2.0, 1.5];
        let mut l1 = octo_repro::octotiger::gravity::LocalExpansion::zero();
        let mut l8 = octo_repro::octotiger::gravity::LocalExpansion::zero();
        m2l_accumulate(&soa, &sources, center, use_oct, VectorMode::Scalar, &mut l1);
        m2l_accumulate(&soa, &sources, center, use_oct, VectorMode::Sve512, &mut l8);
        prop_assert_eq!(l1.l0.to_bits(), l8.l0.to_bits());
        for a in 0..3 {
            prop_assert_eq!(l1.l1[a].to_bits(), l8.l1[a].to_bits());
            for b in 0..3 {
                prop_assert_eq!(l1.l2[a][b].to_bits(), l8.l2[a][b].to_bits());
                for c in 0..3 {
                    prop_assert_eq!(l1.l3[a][b][c].to_bits(), l8.l3[a][b][c].to_bits());
                }
            }
        }
    }

    /// M2P: lanes are target cells, so the widths run the same expression
    /// sequence per cell.  A 4³-cell source tile (sometimes massless)
    /// against the n³ cells of a cube half, once or twice its size (a
    /// coarse-fine pair) at every nearby offset; n = 3 is a 27-cell tile,
    /// whose last chunk has three live lanes.  Both widths must flag the
    /// same cells as far, and cells they reject keep the bits they had.
    #[test]
    fn m2p_bit_identical_across_widths(
        masses in prop::collection::vec(0.0f64..3.0, 64),
        massless in any::<bool>(),
        use_oct in any::<bool>(),
        n in 3usize..6,
        level in 0usize..3,
        offset in (-3i32..4, -3i32..4, -3i32..4),
    ) {
        let lattice = |corner: [f64; 3], size: f64, n: usize, mass: &dyn Fn(usize) -> f64| {
            let mut pts = PointMasses::default();
            for c in 0..n * n * n {
                let at = [c / (n * n), c / n % n, c % n];
                let x: [f64; 3] =
                    std::array::from_fn(|a| corner[a] + (at[a] as f64 + 0.5) * size / n as f64);
                pts.push(x, mass(c));
            }
            pts
        };
        let source = lattice([0.0; 3], 1.0, 4, &|c| masses[c]);
        let (center, radius) = ([0.5; 3], 0.5 * 3f64.sqrt());
        let mp = if massless {
            Multipole::zero(center)
        } else {
            Multipole::from_soa(source.view())
        };
        let scale = [0.5f64, 1.0, 2.0][level];
        let corner = [offset.0, offset.1, offset.2].map(|o| o as f64 * scale.min(1.0));
        let targets = lattice(corner, scale, n, &|_| 0.0);

        let ncells = targets.len();
        let seeded = || -> [Vec<f64>; 4] {
            [-1.0, 0.25, -0.0, 7.0].map(|k| (0..ncells).map(|q| k - q as f64).collect())
        };
        let (before, mut out1, mut out8) = (seeded(), seeded(), seeded());
        let (mut far1, mut far8) = (vec![false; ncells], vec![true; ncells]);
        let sphere = (center, radius);
        let n1 = m2p_accumulate(
            &mp, sphere, 0.5, use_oct, targets.view(), VectorMode::Scalar, &mut far1,
            &mut out1.each_mut().map(|v| &mut v[..]),
        );
        let n8 = m2p_accumulate(
            &mp, sphere, 0.5, use_oct, targets.view(), VectorMode::Sve512, &mut far8,
            &mut out8.each_mut().map(|v| &mut v[..]),
        );
        prop_assert_eq!(n1, n8);
        prop_assert_eq!(n1, far1.iter().filter(|&&f| f).count());
        prop_assert_eq!(&far1, &far8);
        for (b, (a1, a8)) in before.iter().zip(out1.iter().zip(&out8)) {
            for q in 0..ncells {
                prop_assert_eq!(a1[q].to_bits(), a8[q].to_bits(), "cell {}", q);
                if !far1[q] {
                    prop_assert_eq!(a1[q].to_bits(), b[q].to_bits(), "near cell {} moved", q);
                }
            }
        }
    }

    /// Hydro RHS: randomized smooth states on grids whose ghosted extent is
    /// *not* a multiple of 8 (n ∈ 3..6, ghost 2 → ext ∈ 7..10), so every
    /// row exercises the masked tail path.
    #[test]
    fn hydro_rhs_bit_identical_across_widths(
        n in 3usize..6,
        seed in any::<u64>(),
        omega in 0.0f64..0.5,
    ) {
        let u = random_hydro_state(n, seed);
        let src = SourceInput {
            gravity: None,
            omega,
            origin: [-0.2, 0.1, -0.3],
            h: 0.1,
            boundary_faces: [true, false, false, true, false, false],
        };
        let mut scratch = KernelScratch::ephemeral(n, 2);
        let mut rhs_scalar = hydro::rhs_like(&u);
        let mut rhs_sve = hydro::rhs_like(&u);
        let scalar = HydroOptions { vector_mode: VectorMode::Scalar, cfl: 0.4 };
        let sve = HydroOptions { vector_mode: VectorMode::Sve512, cfl: 0.4 };
        let info1 = hydro::compute_rhs(&u, &mut rhs_scalar, &src, &scalar, &mut scratch);
        let info8 = hydro::compute_rhs(&u, &mut rhs_sve, &src, &sve, &mut scratch);
        prop_assert_eq!(hydro::max_signal_speed(&u, &scalar).to_bits(),
                        hydro::max_signal_speed(&u, &sve).to_bits(),
                        "CFL speed differs across widths");
        prop_assert_eq!(info1.boundary_mass_outflow_rate.to_bits(),
                        info8.boundary_mass_outflow_rate.to_bits(),
                        "outflow rate differs across widths");
        for f in 0..NF {
            for i in 0..n {
                for j in 0..n {
                    for k in 0..n {
                        let a = rhs_scalar.get_interior(f, i, j, k);
                        let b = rhs_sve.get_interior(f, i, j, k);
                        prop_assert_eq!(a.to_bits(), b.to_bits(),
                            "rhs f{} ({},{},{}): {} vs {}", f, i, j, k, a, b);
                    }
                }
            }
        }
    }
}

/// A positive, smooth-but-random hydro state: random Fourier-ish bumps on
/// top of a uniform background, derived deterministically from `seed`.
fn random_hydro_state(n: usize, seed: u64) -> SubGrid {
    let mut s = seed | 1;
    let mut next = move || {
        // SplitMix64, mapped to [0, 1).
        s = s.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut g = SubGrid::new(n, 2, NF);
    let ext = g.ext();
    for i in 0..ext {
        for j in 0..ext {
            for k in 0..ext {
                let p = Primitive {
                    rho: 0.5 + 1.5 * next(),
                    vx: 0.4 * (next() - 0.5),
                    vy: 0.4 * (next() - 0.5),
                    vz: 0.4 * (next() - 0.5),
                    p: 0.2 + 0.8 * next(),
                };
                let (u, tau) = from_primitive(&p);
                g.set(field::RHO, i, j, k, u.rho);
                g.set(field::SX, i, j, k, u.sx);
                g.set(field::SY, i, j, k, u.sy);
                g.set(field::SZ, i, j, k, u.sz);
                g.set(field::EGAS, i, j, k, u.egas);
                g.set(field::TAU, i, j, k, tau);
                g.set(field::FRAC1, i, j, k, 0.7 * u.rho);
                g.set(field::FRAC2, i, j, k, 0.3 * u.rho);
            }
        }
    }
    g
}

// ---------------------------------------------------------------------
// Solver-level: whole FMM solves on refined trees, bit-equal per cell.
// ---------------------------------------------------------------------

/// Deterministic per-leaf point sources (pseudo-random masses, cell-center
/// positions) for a given tree.
fn tree_sources(tree: &Tree, n: usize) -> HashMap<NodeId, LeafSources> {
    let mut out = HashMap::new();
    for (li, leaf) in tree.leaves().iter().enumerate() {
        let (corner, size) = leaf.cube();
        let h = size / n as f64;
        let mut points = PointMasses::default();
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let x = corner[0] + (i as f64 + 0.5) * h - 0.5;
                    let y = corner[1] + (j as f64 + 0.5) * h - 0.5;
                    let z = corner[2] + (k as f64 + 0.5) * h - 0.5;
                    // A cheap, deterministic, strictly positive mass
                    // pattern with an occasional exact zero (massless
                    // cells must not perturb the masked M2L kernel).
                    let t = li * n * n * n + (i * n + j) * n + k;
                    let m = if t % 11 == 7 {
                        0.0
                    } else {
                        0.1 + 0.05 * ((t * 2654435761) % 97) as f64
                    };
                    points.push([x, y, z], m);
                }
            }
        }
        out.insert(*leaf, LeafSources { points });
    }
    out
}

#[test]
fn gravity_solve_bit_identical_on_refined_trees() {
    // Both a uniform tree and an adaptively refined one (whose ragged
    // interaction lists produce every chunk-remainder length).
    let mut adaptive = Tree::new_uniform(2);
    let target = adaptive.leaves()[5];
    adaptive.refine_balanced(target);
    for tree in [Tree::new_uniform(2), adaptive] {
        let sources = tree_sources(&tree, 3);
        let solve = |mode: VectorMode| {
            let solver = GravitySolver::new(GravityOptions {
                vector_mode: mode,
                ..GravityOptions::default()
            });
            solver.solve(&tree, &sources, &ExecSpace::Serial)
        };
        let (fa, sa) = solve(VectorMode::Scalar);
        let (fb, sb) = solve(VectorMode::Sve512);
        assert_eq!(sa.m2l_interactions, sb.m2l_interactions);
        assert_eq!(sa.p2p_pairs, sb.p2p_pairs);
        assert!(sa.m2l_interactions > 0, "tree too shallow to exercise M2L");
        for leaf in tree.leaves() {
            let (a, b) = (&fa[&leaf], &fb[&leaf]);
            for c in 0..a.phi.len() {
                assert_eq!(
                    a.phi[c].to_bits(),
                    b.phi[c].to_bits(),
                    "phi differs at {leaf}"
                );
                assert_eq!(a.gx[c].to_bits(), b.gx[c].to_bits(), "gx differs at {leaf}");
                assert_eq!(a.gy[c].to_bits(), b.gy[c].to_bits(), "gy differs at {leaf}");
                assert_eq!(a.gz[c].to_bits(), b.gz[c].to_bits(), "gz differs at {leaf}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Simulation-level: ten full steps bit-identical across widths, in both
// stepper modes.
// ---------------------------------------------------------------------

#[test]
fn ten_step_ledgers_bit_identical_barrier() {
    check(&UNIFORM, &[REFERENCE.scalar()]);
}

#[test]
fn ten_step_ledgers_bit_identical_pipelined() {
    check(
        &UNIFORM,
        &[REFERENCE.pipelined(), REFERENCE.scalar().pipelined()],
    );
}
