//! Piecewise-linear reconstruction with the minmod slope limiter.
//!
//! Octo-Tiger's finite-volume scheme reconstructs interface states from
//! cell averages; minmod is the classic total-variation-diminishing
//! limiter.  Written over `Simd<f64, W>` so the same source serves the
//! scalar and SVE builds (paper Figure 7).

use sve_simd::Simd;

/// Minmod of two slope candidates, lane-wise:
/// `0` on sign disagreement, else the smaller magnitude with common sign.
#[inline(always)]
pub fn minmod<const W: usize>(a: Simd<f64, W>, b: Simd<f64, W>) -> Simd<f64, W> {
    let zero = Simd::splat(0.0);
    let same_sign = (a * b).simd_gt(zero);
    let mag = a.abs().simd_min(b.abs());
    let signed = mag.copysign(a);
    Simd::select(same_sign, signed, zero)
}

/// Limited left/right interface states at interface `i−1/2` from the four
/// surrounding cell averages `q_{i−2}, q_{i−1}, q_i, q_{i+1}`:
///
/// * `q_L = q_{i−1} + ½ minmod(q_{i−1}−q_{i−2}, q_i−q_{i−1})`
/// * `q_R = q_i − ½ minmod(q_i−q_{i−1}, q_{i+1}−q_i)`
#[inline(always)]
pub(crate) fn reconstruct_interface<const W: usize>(
    qm2: Simd<f64, W>,
    qm1: Simd<f64, W>,
    q0: Simd<f64, W>,
    qp1: Simd<f64, W>,
) -> (Simd<f64, W>, Simd<f64, W>) {
    let half = Simd::splat(0.5);
    let dl = minmod(qm1 - qm2, q0 - qm1);
    let dr = minmod(q0 - qm1, qp1 - q0);
    (qm1 + half * dl, q0 - half * dr)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mm1(a: f64, b: f64) -> f64 {
        minmod::<1>(Simd::splat(a), Simd::splat(b))[0]
    }

    #[test]
    fn minmod_scalar_cases() {
        assert_eq!(mm1(1.0, 2.0), 1.0);
        assert_eq!(mm1(2.0, 1.0), 1.0);
        assert_eq!(mm1(-1.0, -3.0), -1.0);
        assert_eq!(mm1(1.0, -1.0), 0.0);
        assert_eq!(mm1(0.0, 5.0), 0.0);
        assert_eq!(mm1(0.0, 0.0), 0.0);
    }

    #[test]
    fn minmod_lanes_independent() {
        let a = Simd::<f64, 4>::from_array([1.0, -2.0, 3.0, 0.0]);
        let b = Simd::<f64, 4>::from_array([2.0, -1.0, -3.0, 4.0]);
        assert_eq!(minmod(a, b).to_array(), [1.0, -1.0, 0.0, 0.0]);
    }

    #[test]
    fn reconstruction_is_exact_for_linear_data() {
        // q(x) = 2x: slopes equal everywhere, interface states meet.
        let q: Vec<f64> = (0..4).map(|i| 2.0 * i as f64).collect();
        let (l, r) = reconstruct_interface::<1>(
            Simd::splat(q[0]),
            Simd::splat(q[1]),
            Simd::splat(q[2]),
            Simd::splat(q[3]),
        );
        // Interface between cells 1 and 2 sits at value 3.0.
        assert!((l[0] - 3.0).abs() < 1e-14);
        assert!((r[0] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn reconstruction_clips_at_extrema() {
        // A local max: slopes disagree in sign, limiter flattens.
        let (l, r) = reconstruct_interface::<1>(
            Simd::splat(0.0),
            Simd::splat(1.0),
            Simd::splat(0.5),
            Simd::splat(1.5),
        );
        // Left state limited by minmod(1, -0.5) = 0 → stays at cell value.
        assert_eq!(l[0], 1.0);
        // Right state: minmod(-0.5, 1.0) = 0 → stays at 0.5.
        assert_eq!(r[0], 0.5);
    }

    #[test]
    fn reconstruction_preserves_monotone_bounds() {
        // TVD property: interface states stay within neighbouring cell
        // averages for monotone data.
        let data = [0.0, 1.0, 4.0, 5.0];
        let (l, r) = reconstruct_interface::<1>(
            Simd::splat(data[0]),
            Simd::splat(data[1]),
            Simd::splat(data[2]),
            Simd::splat(data[3]),
        );
        assert!(l[0] >= data[1] && l[0] <= data[2]);
        assert!(r[0] >= data[1] && r[0] <= data[2]);
        assert!(l[0] <= r[0]);
    }

    #[test]
    fn wide_matches_scalar() {
        let vals = [
            [0.1, 0.9, 1.7, 2.0],
            [3.0, 1.0, 2.0, -1.0],
            [0.0, 0.0, 1.0, 2.0],
            [5.0, 4.0, 3.0, 2.0],
        ];
        for v in vals {
            let (l8, r8) = reconstruct_interface::<8>(
                Simd::splat(v[0]),
                Simd::splat(v[1]),
                Simd::splat(v[2]),
                Simd::splat(v[3]),
            );
            let (l1, r1) = reconstruct_interface::<1>(
                Simd::splat(v[0]),
                Simd::splat(v[1]),
                Simd::splat(v[2]),
                Simd::splat(v[3]),
            );
            assert_eq!(l8[0], l1[0]);
            assert_eq!(r8[3], r1[0]);
        }
    }
}
