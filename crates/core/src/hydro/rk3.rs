//! SSP-RK3 stage combinations (Shu–Osher form).
//!
//! Octo-Tiger advances the semi-discrete system with a third-order
//! strong-stability-preserving Runge-Kutta scheme (paper Section IV-C):
//!
//! ```text
//! u¹     = uⁿ + Δt L(uⁿ)
//! u²     = ¾ uⁿ + ¼ (u¹ + Δt L(u¹))
//! uⁿ⁺¹   = ⅓ uⁿ + ⅔ (u² + Δt L(u²))
//! ```
//!
//! The combinations are plain axpy-style array operations over the
//! interior rows of a leaf; they are vectorized with `sve_simd` like every
//! other kernel.  They write interior cells only: the next exchange
//! overwrites every ghost word before anything reads it.  Each argument is
//! indexed through its own ghost width, so the step-start state u⁰ needs no
//! ghosts.

use octree::SubGrid;
use sve_simd::{Simd, VectorMode};

/// `u_new = u + dt * rhs` over all fields (stage 1), interior only.
pub fn stage_euler(u: &SubGrid, rhs: &SubGrid, dt: f64, out: &mut SubGrid, mode: VectorMode) {
    match mode {
        VectorMode::Scalar => stage_euler_w::<1>(u, rhs, dt, out),
        VectorMode::Sve512 => stage_euler_wide(u, rhs, dt, out),
    }
}

sve_simd::wide_dispatch! {
    /// [`stage_euler_w::<8>`] under the host's widest vector ISA.
    fn stage_euler_wide(u: &SubGrid, rhs: &SubGrid, dt: f64, out: &mut SubGrid)
        = stage_euler_w::<8>
}

#[inline(always)]
fn stage_euler_w<const W: usize>(u: &SubGrid, rhs: &SubGrid, dt: f64, out: &mut SubGrid) {
    // Explicit chunk loop rather than `zip_map_simd` + closure: the closure
    // cannot be `inline(always)` and would stay out-of-line inside the
    // `#[target_feature]` wide entry point, de-vectorizing the axpy.
    let n = out.n();
    assert!(u.n() == n && rhs.n() == n, "stage_euler shape mismatch");
    let vdt = Simd::<f64, W>::splat(dt);
    for f in 0..out.nfields() {
        for i in 0..n {
            for j in 0..n {
                let uu = u.interior_row(f, i, j);
                let rr = rhs.interior_row(f, i, j);
                let dst = out.interior_row_mut(f, i, j);
                for (off, lanes) in sve_simd::ChunkedLanes::<W>::new(n) {
                    let v = Simd::<f64, W>::load_chunk(rr, off, lanes, 0.0)
                        .mul_add(vdt, Simd::<f64, W>::load_chunk(uu, off, lanes, 0.0));
                    if lanes == W {
                        v.write_to_slice(&mut dst[off..]);
                    } else {
                        v.write_to_slice_partial(&mut dst[off..off + lanes]);
                    }
                }
            }
        }
    }
}

/// `u2 = 3/4 u0 + 1/4 (u1 + dt rhs1)` (stage 2).
pub fn stage_two(
    u0: &SubGrid,
    u1: &SubGrid,
    rhs1: &SubGrid,
    dt: f64,
    out: &mut SubGrid,
    mode: VectorMode,
) {
    match mode {
        VectorMode::Scalar => stage_combine_w::<1>(u0, u1, rhs1, dt, out, 0.75, 0.25),
        VectorMode::Sve512 => stage_combine_wide(u0, u1, rhs1, dt, out, 0.75, 0.25),
    }
}

sve_simd::wide_dispatch! {
    /// [`stage_combine_w::<8>`] under the host's widest vector ISA.
    fn stage_combine_wide(
        u0: &SubGrid,
        us: &SubGrid,
        rhs: &SubGrid,
        dt: f64,
        out: &mut SubGrid,
        a: f64,
        b: f64
    ) = stage_combine_w::<8>
}

/// `u_new = 1/3 u0 + 2/3 (u2 + dt rhs2)` (stage 3).
pub fn stage_three(
    u0: &SubGrid,
    u2: &SubGrid,
    rhs2: &SubGrid,
    dt: f64,
    out: &mut SubGrid,
    mode: VectorMode,
) {
    match mode {
        VectorMode::Scalar => stage_combine_w::<1>(u0, u2, rhs2, dt, out, 1.0 / 3.0, 2.0 / 3.0),
        VectorMode::Sve512 => stage_combine_wide(u0, u2, rhs2, dt, out, 1.0 / 3.0, 2.0 / 3.0),
    }
}

#[inline(always)]
fn stage_combine_w<const W: usize>(
    u0: &SubGrid,
    us: &SubGrid,
    rhs: &SubGrid,
    dt: f64,
    out: &mut SubGrid,
    a: f64,
    b: f64,
) {
    let n = out.n();
    assert!(
        u0.n() == n && us.n() == n && rhs.n() == n,
        "stage combination shape mismatch"
    );
    let va = Simd::<f64, W>::splat(a);
    let vb = Simd::<f64, W>::splat(b);
    let vdt = Simd::<f64, W>::splat(dt);
    for f in 0..out.nfields() {
        for i in 0..n {
            for j in 0..n {
                let f0 = u0.interior_row(f, i, j);
                let fs = us.interior_row(f, i, j);
                let fr = rhs.interior_row(f, i, j);
                let dst = out.interior_row_mut(f, i, j);
                for (off, lanes) in sve_simd::ChunkedLanes::<W>::new(n) {
                    let v = va * Simd::<f64, W>::load_chunk(f0, off, lanes, 0.0)
                        + vb * Simd::<f64, W>::load_chunk(fs, off, lanes, 0.0).mul_add(
                            Simd::splat(1.0),
                            vdt * Simd::<f64, W>::load_chunk(fr, off, lanes, 0.0),
                        );
                    if lanes == W {
                        v.write_to_slice(&mut dst[off..]);
                    } else {
                        v.write_to_slice_partial(&mut dst[off..off + lanes]);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_of(v: f64) -> SubGrid {
        let mut g = SubGrid::new(4, 2, 2);
        g.fill(v);
        g
    }

    #[test]
    fn euler_stage() {
        let u = grid_of(1.0);
        let rhs = grid_of(2.0);
        let mut out = grid_of(0.0);
        stage_euler(&u, &rhs, 0.5, &mut out, VectorMode::Sve512);
        assert_eq!(out.get(0, 2, 2, 2), 2.0);
        assert_eq!(out.get(1, 5, 5, 5), 2.0);
    }

    #[test]
    fn stages_match_shu_osher_coefficients() {
        let u0 = grid_of(1.0);
        let u1 = grid_of(3.0);
        let rhs = grid_of(4.0);
        let mut out = grid_of(0.0);
        stage_two(&u0, &u1, &rhs, 0.25, &mut out, VectorMode::Sve512);
        // 0.75*1 + 0.25*(3 + 0.25*4) = 0.75 + 1.0 = 1.75
        assert!((out.get(0, 2, 3, 4) - 1.75).abs() < 1e-14);
        stage_three(&u0, &u1, &rhs, 0.25, &mut out, VectorMode::Sve512);
        // 1/3*1 + 2/3*(3+1) = 1/3 + 8/3 = 3
        assert!((out.get(0, 2, 2, 2) - 3.0).abs() < 1e-13);
    }

    #[test]
    fn scalar_and_wide_agree() {
        let u0 = grid_of(0.7);
        let u1 = grid_of(-0.4);
        let rhs = grid_of(1.3);
        let mut a = grid_of(0.0);
        let mut b = grid_of(0.0);
        stage_two(&u0, &u1, &rhs, 0.1, &mut a, VectorMode::Scalar);
        stage_two(&u0, &u1, &rhs, 0.1, &mut b, VectorMode::Sve512);
        for f in 0..2 {
            assert_eq!(a.field(f), b.field(f));
        }
    }

    #[test]
    fn rk3_exact_for_linear_ode() {
        // du/dt = c with constant c: RK3 must integrate exactly.
        let c = 0.3;
        let dt = 0.2;
        let u0 = grid_of(1.0);
        let rhs = grid_of(c);
        let mut u1 = grid_of(0.0);
        let mut u2 = grid_of(0.0);
        let mut u3 = grid_of(0.0);
        stage_euler(&u0, &rhs, dt, &mut u1, VectorMode::Sve512);
        stage_two(&u0, &u1, &rhs, dt, &mut u2, VectorMode::Sve512);
        stage_three(&u0, &u2, &rhs, dt, &mut u3, VectorMode::Sve512);
        assert!((u3.get(0, 3, 3, 3) - (1.0 + c * dt)).abs() < 1e-14);
    }

    #[test]
    fn stages_write_the_old_whole_block_bits_and_no_ghost_word() {
        // NaN in every input ghost word: a ghost read would reach an
        // interior word.  `out` keeps a distinct sentinel in its ghosts.
        let poison = f64::from_bits(0x7ff8_dead_beef_0002);
        let sentinel = f64::from_bits(0x7ff8_dead_beef_0003);
        let seeded = |n: usize, g: usize, seed: u64| {
            let mut grid = SubGrid::new(n, g, 3);
            grid.fill(poison);
            let mut s = seed;
            for f in 0..3 {
                for i in 0..n {
                    for j in 0..n {
                        for k in 0..n {
                            s = s
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            grid.set_interior(
                                f,
                                i,
                                j,
                                k,
                                (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5,
                            );
                        }
                    }
                }
            }
            grid
        };
        let dt = 0.37;
        for n in [4, 8] {
            for u0_ghost in [0, 2] {
                let u0 = seeded(n, u0_ghost, 1);
                let us = seeded(n, 2, 2);
                let rhs = seeded(n, 2, 3);
                for mode in [VectorMode::Scalar, VectorMode::Sve512] {
                    for stage in 0..3 {
                        let mut out = SubGrid::new(n, 2, 3);
                        out.fill(sentinel);
                        match stage {
                            0 => stage_euler(&u0, &rhs, dt, &mut out, mode),
                            1 => stage_two(&u0, &us, &rhs, dt, &mut out, mode),
                            _ => stage_three(&u0, &us, &rhs, dt, &mut out, mode),
                        }
                        // The whole-block sweep's per-word expressions.
                        let want = |f, i, j, k| {
                            let (a, s, r) = (
                                u0.get_interior(f, i, j, k),
                                us.get_interior(f, i, j, k),
                                rhs.get_interior(f, i, j, k),
                            );
                            match stage {
                                0 => r * dt + a,
                                1 => 0.75 * a + 0.25 * (s * 1.0 + dt * r),
                                _ => 1.0 / 3.0 * a + 2.0 / 3.0 * (s * 1.0 + dt * r),
                            }
                        };
                        let inside = |c: usize| (2..2 + n).contains(&c);
                        let ext = out.ext();
                        for f in 0..3 {
                            for i in 0..ext {
                                for j in 0..ext {
                                    for k in 0..ext {
                                        let expect = if inside(i) && inside(j) && inside(k) {
                                            want(f, i - 2, j - 2, k - 2)
                                        } else {
                                            sentinel
                                        };
                                        assert_eq!(
                                            out.get(f, i, j, k).to_bits(),
                                            expect.to_bits(),
                                            "stage {stage}, N = {n}, u0 ghost {u0_ghost}, \
                                             {mode:?}, f{f} ({i},{j},{k})"
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
