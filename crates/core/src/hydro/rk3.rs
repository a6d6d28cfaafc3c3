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
//! interior rows of a leaf, one kernel per width vectorized with
//! `sve_simd` like every other kernel.  It may write over its own input:
//! the driver's stage task updates its leaf's grid in place.  It writes
//! interior cells only: the next exchange overwrites every ghost word
//! before anything reads it.  Each argument is indexed through its own
//! ghost width, so the step-start state u⁰ needs no ghosts.

use octree::SubGrid;
use sve_simd::{Simd, VectorMode};

/// `u_new = u + dt * rhs` over all fields (stage 1), interior only.
pub fn stage_euler(u: &SubGrid, rhs: &SubGrid, dt: f64, out: &mut SubGrid, mode: VectorMode) {
    stage(0, u, Some(u), rhs, dt, out, mode);
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
    stage(1, u0, Some(u1), rhs1, dt, out, mode);
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
    stage(2, u0, Some(u2), rhs2, dt, out, mode);
}

/// Stage `stage` (0, 1 or 2) into `out`'s interior from u⁰ (not read at
/// stage 0), `rhs` and the stage input `us` — `None` is `out` itself, in
/// place.
pub(crate) fn stage(
    stage: usize,
    u0: &SubGrid,
    us: Option<&SubGrid>,
    rhs: &SubGrid,
    dt: f64,
    out: &mut SubGrid,
    mode: VectorMode,
) {
    match mode {
        VectorMode::Scalar => stage_w::<1>(stage, u0, us, rhs, dt, out),
        VectorMode::Sve512 => stage_wide(stage, u0, us, rhs, dt, out),
    }
}

sve_simd::wide_dispatch! {
    /// [`stage_w::<8>`] under the host's widest vector ISA.
    fn stage_wide(
        stage: usize,
        u0: &SubGrid,
        us: Option<&SubGrid>,
        rhs: &SubGrid,
        dt: f64,
        out: &mut SubGrid
    ) = stage_w::<8>
}

#[inline(always)]
fn stage_w<const W: usize>(
    stage: usize,
    u0: &SubGrid,
    us: Option<&SubGrid>,
    rhs: &SubGrid,
    dt: f64,
    out: &mut SubGrid,
) {
    // Explicit chunk loop rather than `zip_map_simd` + closure: the closure
    // cannot be `inline(always)` and would stay out-of-line inside the
    // `#[target_feature]` wide entry point, de-vectorizing the axpy.
    let n = out.n();
    assert!(
        u0.n() == n && rhs.n() == n && us.is_none_or(|u| u.n() == n),
        "stage combination shape mismatch"
    );
    // Stages 2 and 3: the weights of u⁰ and of `us + dt rhs`.
    let (a, b) = if stage == 1 {
        (0.75, 0.25)
    } else {
        (1.0 / 3.0, 2.0 / 3.0)
    };
    let (va, vb, vdt) = (Simd::<f64, W>::splat(a), Simd::splat(b), Simd::splat(dt));
    for f in 0..out.nfields() {
        for i in 0..n {
            for j in 0..n {
                let (f0, fr) = (u0.interior_row(f, i, j), rhs.interior_row(f, i, j));
                let dst = out.interior_row_mut(f, i, j);
                if let Some(us) = us {
                    dst.copy_from_slice(us.interior_row(f, i, j));
                }
                for (off, lanes) in sve_simd::ChunkedLanes::<W>::new(n) {
                    let s = Simd::<f64, W>::load_chunk(dst, off, lanes, 0.0);
                    let r = Simd::<f64, W>::load_chunk(fr, off, lanes, 0.0);
                    let v = if stage == 0 {
                        r.mul_add(vdt, s)
                    } else {
                        va * Simd::<f64, W>::load_chunk(f0, off, lanes, 0.0)
                            + vb * s.mul_add(Simd::splat(1.0), vdt * r)
                    };
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
                for (mode, in_place) in [VectorMode::Scalar, VectorMode::Sve512]
                    .into_iter()
                    .flat_map(|mode| [(mode, false), (mode, true)])
                {
                    for stage in 0..3 {
                        let mut out = SubGrid::new(n, 2, 3);
                        out.fill(sentinel);
                        // Stage 1's input is u⁰ out of place, `us` in place.
                        let input = if stage == 0 && !in_place { &u0 } else { &us };
                        if in_place {
                            out.copy_interior_from(&us);
                            super::stage(stage, &u0, None, &rhs, dt, &mut out, mode);
                        } else {
                            match stage {
                                0 => stage_euler(&u0, &rhs, dt, &mut out, mode),
                                1 => stage_two(&u0, &us, &rhs, dt, &mut out, mode),
                                _ => stage_three(&u0, &us, &rhs, dt, &mut out, mode),
                            }
                        }
                        // The whole-block sweep's per-word expressions.
                        let want = |f, i, j, k| {
                            let (a, s, r) = (
                                u0.get_interior(f, i, j, k),
                                input.get_interior(f, i, j, k),
                                rhs.get_interior(f, i, j, k),
                            );
                            match stage {
                                0 => r * dt + s,
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
                                             {mode:?}, in place {in_place}, f{f} ({i},{j},{k})"
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
