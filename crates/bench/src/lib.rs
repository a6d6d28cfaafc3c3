//! # bench — the reproduction harness
//!
//! One binary per table/figure of the paper's evaluation (see DESIGN.md
//! §4 for the index), plus criterion microbenchmarks of the real kernels.
//! The figure builders live in `figures` so integration tests can assert
//! every figure's qualitative claims without spawning processes; the
//! binaries are thin wrappers that print markdown + JSON.
//!
//! [`measure_hydro_simd_speedup`] ties the two layers of the reproduction
//! together: it measures the *actual* `octotiger` kernels on the host (scalar vs SVE
//! width) and compares the measured SIMD speedup with the
//! `cluster::KernelCosts` constant the machine models use.

mod figures;
mod report;

pub use figures::{
    all_reports, figure10, figure3, figure4, figure5, figure6, figure7, figure8, figure9,
    scratch_pressure, table2,
};
pub use report::FigureReport;

use octotiger::hydro::{self, HydroOptions, SourceInput};
use octotiger::state::{field, NF};
use octree::SubGrid;
use std::time::Instant;
use sve_simd::VectorMode;

/// Host measurement of the hydro kernel's SIMD speedup (the real-kernel
/// counterpart of `KernelCosts::sve_speedup`).
pub fn measure_hydro_simd_speedup(n: usize, reps: usize) -> f64 {
    let mut u = SubGrid::new(n, 2, NF);
    let ext = u.ext();
    for i in 0..ext {
        for j in 0..ext {
            for k in 0..ext {
                let x = i as f64 * 0.3 + j as f64 * 0.17 + k as f64 * 0.11;
                u.set(field::RHO, i, j, k, 1.0 + 0.2 * x.sin());
                u.set(field::SX, i, j, k, 0.1 * x.cos());
                u.set(field::EGAS, i, j, k, 1.0 + 0.1 * (2.0 * x).sin());
                u.set(field::TAU, i, j, k, 0.9);
            }
        }
    }
    let src = SourceInput {
        gravity: None,
        omega: 0.0,
        origin: [0.0; 3],
        h: 0.01,
        boundary_faces: [false; 6],
    };
    let time_mode = |mode: VectorMode| {
        let opts = HydroOptions {
            vector_mode: mode,
            cfl: 0.4,
        };
        let mut rhs = hydro::rhs_like(&u);
        let mut scratch = hydro::kernels::KernelScratch::ephemeral(n, 2);
        // Warm up.
        hydro::compute_rhs(&u, &mut rhs, &src, &opts, &mut scratch);
        let t0 = Instant::now();
        for _ in 0..reps {
            hydro::compute_rhs(&u, &mut rhs, &src, &opts, &mut scratch);
        }
        t0.elapsed().as_secs_f64()
    };
    let scalar = time_mode(VectorMode::Scalar);
    let sve = time_mode(VectorMode::Sve512);
    scalar / sve
}

/// Host measurement of the P2P (monopole) kernel's SIMD speedup.
pub fn measure_p2p_simd_speedup(points: usize, reps: usize) -> f64 {
    use octotiger::gravity::direct::{p2p_at, PointMasses};
    let mut pts = PointMasses::default();
    for i in 0..points {
        let f = i as f64;
        pts.push(
            [f.sin(), (f * 0.7).cos(), f * 1e-3],
            1.0 + 0.1 * (f * 0.3).sin(),
        );
    }
    let time_mode = |mode: VectorMode| {
        let mut acc = 0.0;
        let t0 = Instant::now();
        for r in 0..reps {
            let (phi, _) = p2p_at(&pts, [2.0 + r as f64 * 1e-6, 3.0, 4.0], mode);
            acc += phi;
        }
        let t = t0.elapsed().as_secs_f64();
        std::hint::black_box(acc);
        t
    };
    let scalar = time_mode(VectorMode::Scalar);
    let sve = time_mode(VectorMode::Sve512);
    scalar / sve
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_simd_measurements_are_positive() {
        // Debug builds do not vectorize meaningfully; just assert the
        // harness runs and produces a sane ratio.  Release benches assert
        // the real speedup band.
        let hydro = measure_hydro_simd_speedup(8, 2);
        let p2p = measure_p2p_simd_speedup(512, 50);
        assert!(hydro.is_finite() && hydro > 0.05);
        assert!(p2p.is_finite() && p2p > 0.05);
    }
}
