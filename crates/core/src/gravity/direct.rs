//! Direct O(N²) summation — the correctness reference for the FMM, and the
//! SIMD-vectorized P2P kernel the FMM's near field shares.
//!
//! The inner loop (one target against a stream of sources) is exactly
//! Octo-Tiger's monopole kernel: the paper's biggest GPU kernel, and on
//! A64FX the main beneficiary of SVE vectorization (Figure 7).

use crate::units::G;
use sve_simd::{ChunkedLanes, Simd, VectorMode};

/// Structure-of-arrays point masses.
#[derive(Debug, Clone, Default)]
pub struct PointMasses {
    pub xs: Vec<f64>,
    pub ys: Vec<f64>,
    pub zs: Vec<f64>,
    pub ms: Vec<f64>,
}

/// A borrowed run of SoA point masses: a whole [`PointMasses`] or one
/// contiguous range of it (a 4³-cell tile of a tile-major leaf copy).
#[derive(Debug, Clone, Copy)]
pub struct PointsRef<'a> {
    pub xs: &'a [f64],
    pub ys: &'a [f64],
    pub zs: &'a [f64],
    pub ms: &'a [f64],
}

impl PointsRef<'_> {
    /// Number of points.
    pub(crate) fn len(&self) -> usize {
        self.ms.len()
    }
}

impl PointMasses {
    /// Empty point set with room for `n` points in every component array.
    pub fn with_capacity(n: usize) -> PointMasses {
        PointMasses {
            xs: Vec::with_capacity(n),
            ys: Vec::with_capacity(n),
            zs: Vec::with_capacity(n),
            ms: Vec::with_capacity(n),
        }
    }

    /// Borrow every point.
    pub fn view(&self) -> PointsRef<'_> {
        self.slice(0..self.len())
    }

    /// Borrow the points `range`.
    pub(crate) fn slice(&self, range: std::ops::Range<usize>) -> PointsRef<'_> {
        PointsRef {
            xs: &self.xs[range.clone()],
            ys: &self.ys[range.clone()],
            zs: &self.zs[range.clone()],
            ms: &self.ms[range],
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.ms.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.ms.is_empty()
    }

    /// Append one point.
    pub fn push(&mut self, x: [f64; 3], m: f64) {
        self.xs.push(x[0]);
        self.ys.push(x[1]);
        self.zs.push(x[2]);
        self.ms.push(m);
    }
}

/// The fixed stripe count of every horizontal reduction in the ported
/// kernels.  Sums are accumulated into `STRIPES` partial accumulators by
/// source index modulo `STRIPES` and folded in stripe order at the end —
/// the *same* association at every vector width (stripe `s` always holds
/// sources `s, s+8, s+16, …`), which is what makes the `W = 1` and `W = 8`
/// instantiations bit-identical while still letting the wide build keep a
/// full vector of partial sums in one register.
pub(crate) const STRIPES: usize = 8;

/// Fold stripe partial sums in fixed (stripe-index) order.
#[inline(always)]
pub(crate) fn fold_stripes(acc: &[f64; STRIPES]) -> f64 {
    let mut s = 0.0;
    for &a in acc {
        s += a;
    }
    s
}

/// Accumulate potential and acceleration at `(x, y, z)` from all `src`
/// points, skipping a source at zero distance (the self-cell).
/// Width-generic: the paper's SIMD-type kernel pattern.
///
/// The horizontal reduction is stripe-blocked (see `STRIPES`): lane
/// contributions land in the stripe accumulator of their source index
/// modulo 8, and the stripes are folded in fixed order at the end.  Both
/// widths therefore perform the identical addition sequence per stripe —
/// masked lanes contribute an exact `±0.0` (their weight is forced to
/// zero), which never perturbs a stripe accumulator.
///
/// The stripe of a source is its index *within `src`*, so a tile of a
/// tile-major leaf copy sums exactly like a point set holding only it.
#[inline(always)]
pub(crate) fn p2p_ref_w<const W: usize>(
    src: PointsRef<'_>,
    x: f64,
    y: f64,
    z: f64,
) -> (f64, [f64; 3]) {
    let tx = Simd::<f64, W>::splat(x);
    let ty = Simd::<f64, W>::splat(y);
    let tz = Simd::<f64, W>::splat(z);
    let mut phi = [0.0; STRIPES];
    let mut gx = [0.0; STRIPES];
    let mut gy = [0.0; STRIPES];
    let mut gz = [0.0; STRIPES];
    let zero = Simd::<f64, W>::splat(0.0);
    let gconst = Simd::<f64, W>::splat(G);
    for (off, lanes) in ChunkedLanes::<W>::new(src.len()) {
        // Full chunks take the unmasked load; only the final remainder
        // chunk pays for the whilelt-style tail mask.  `load_chunk` is a
        // named always-inline method, not a closure: a closure would stay
        // out-of-line inside the `#[target_feature]` wide entry points and
        // de-vectorize the whole chunk body.
        let dx = Simd::<f64, W>::load_chunk(src.xs, off, lanes, 0.0) - tx;
        let dy = Simd::<f64, W>::load_chunk(src.ys, off, lanes, 0.0) - ty;
        let dz = Simd::<f64, W>::load_chunk(src.zs, off, lanes, 0.0) - tz;
        let m = Simd::<f64, W>::load_chunk(src.ms, off, lanes, 0.0);
        let r2 = dx * dx + dy * dy + dz * dz;
        // Mask out the self-interaction (r² == 0) and padded lanes (m == 0).
        let valid = r2.simd_gt(zero);
        let r2_safe = Simd::select(valid, r2, Simd::splat(1.0));
        let rinv = Simd::splat(1.0) / r2_safe.sqrt();
        let rinv3 = rinv * rinv * rinv;
        let w = Simd::select(valid, gconst * m, zero);
        let dphi = w * rinv;
        let dgx = w * dx * rinv3;
        let dgy = w * dy * rinv3;
        let dgz = w * dz * rinv3;
        // W divides STRIPES and chunks advance by W, so `off + l` maps lane
        // l onto stripe (off + l) % 8 — one vector add at W = 8.  The
        // full-width stripe base is written as a compile-time zero: if the
        // compiler only sees `off % STRIPES` it must assume a dynamic
        // scatter and scalarizes the accumulate (and the whole dependent
        // chain feeding it).
        let s0 = if W == STRIPES { 0 } else { off % STRIPES };
        for l in 0..lanes {
            phi[s0 + l] += dphi[l];
            gx[s0 + l] += dgx[l];
            gy[s0 + l] += dgy[l];
            gz[s0 + l] += dgz[l];
        }
    }
    (
        -fold_stripes(&phi),
        [fold_stripes(&gx), fold_stripes(&gy), fold_stripes(&gz)],
    )
}

sve_simd::wide_dispatch! {
    /// [`p2p_ref_w::<8>`] entered under the host's widest vector ISA — the
    /// "SVE build" half of the Figure 7 pair (see [`sve_simd::isa`]).
    pub(crate) fn p2p_ref_wide(src: PointsRef<'_>, x: f64, y: f64, z: f64) -> (f64, [f64; 3])
        = p2p_ref_w::<8>
}

/// P2P at `at` from a whole point set, dispatched on a [`VectorMode`].
pub fn p2p_at(src: &PointMasses, at: [f64; 3], mode: VectorMode) -> (f64, [f64; 3]) {
    p2p_at_ref(src.view(), at, mode)
}

/// Width-dispatched wrapper over [`p2p_ref_w`].
pub(crate) fn p2p_at_ref(src: PointsRef<'_>, at: [f64; 3], mode: VectorMode) -> (f64, [f64; 3]) {
    match mode {
        VectorMode::Scalar => p2p_ref_w::<1>(src, at[0], at[1], at[2]),
        VectorMode::Sve512 => p2p_ref_wide(src, at[0], at[1], at[2]),
    }
}

/// Direct-sum field of `src` at every target point: the O(N²) reference
/// solver the FMM is validated against.
pub fn direct_field(
    src: &PointMasses,
    targets: &PointMasses,
    mode: VectorMode,
) -> (Vec<f64>, Vec<[f64; 3]>) {
    let mut phis = Vec::with_capacity(targets.len());
    let mut gs = Vec::with_capacity(targets.len());
    for t in 0..targets.len() {
        let (phi, g) = p2p_at(src, [targets.xs[t], targets.ys[t], targets.zs[t]], mode);
        phis.push(phi);
        gs.push(g);
    }
    (phis, gs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_body_force_is_newtonian() {
        let mut pts = PointMasses::default();
        pts.push([0.0, 0.0, 0.0], 3.0);
        let (phi, g) = p2p_at(&pts, [2.0, 0.0, 0.0], VectorMode::Sve512);
        assert!((phi + G * 3.0 / 2.0).abs() < 1e-14);
        assert!((g[0] + G * 3.0 / 4.0).abs() < 1e-14);
        assert_eq!(g[1], 0.0);
    }

    #[test]
    fn self_interaction_is_excluded() {
        let mut pts = PointMasses::default();
        pts.push([1.0, 1.0, 1.0], 2.0);
        let (phi, g) = p2p_at(&pts, [1.0, 1.0, 1.0], VectorMode::Sve512);
        assert_eq!(phi, 0.0);
        assert_eq!(g, [0.0; 3]);
    }

    #[test]
    fn scalar_and_sve_agree() {
        let mut pts = PointMasses::default();
        for i in 0..37 {
            // 37: not a multiple of 8, exercises the tail mask.
            let f = i as f64;
            pts.push(
                [f * 0.1, (f * 0.07).sin(), (f * 0.13).cos()],
                0.1 + 0.01 * f,
            );
        }
        let at = [5.0, -2.0, 1.0];
        let (p1, g1) = p2p_at(&pts, at, VectorMode::Scalar);
        let (p8, g8) = p2p_at(&pts, at, VectorMode::Sve512);
        // Fixed-order lane reductions make the widths bit-identical, not
        // just close (the Figure 7 switch must be physics-neutral).
        assert_eq!(p1.to_bits(), p8.to_bits());
        for a in 0..3 {
            assert_eq!(g1[a].to_bits(), g8[a].to_bits());
        }
    }

    #[test]
    fn forces_are_antisymmetric() {
        let mut a = PointMasses::default();
        a.push([0.0, 0.0, 0.0], 2.0);
        let mut b = PointMasses::default();
        b.push([1.0, 1.0, 0.0], 5.0);
        let (_, g_ab) = p2p_at(&b, [0.0, 0.0, 0.0], VectorMode::Sve512);
        let (_, g_ba) = p2p_at(&a, [1.0, 1.0, 0.0], VectorMode::Sve512);
        // m_a * g(a←b) = −m_b * g(b←a).
        for k in 0..3 {
            assert!((2.0 * g_ab[k] + 5.0 * g_ba[k]).abs() < 1e-13);
        }
    }

    #[test]
    fn direct_field_shapes() {
        let mut src = PointMasses::default();
        src.push([0.0; 3], 1.0);
        let mut tgt = PointMasses::default();
        tgt.push([1.0, 0.0, 0.0], 0.0);
        tgt.push([2.0, 0.0, 0.0], 0.0);
        let (phis, gs) = direct_field(&src, &tgt, VectorMode::Scalar);
        assert_eq!(phis.len(), 2);
        assert!(phis[0] < phis[1]); // closer ⇒ deeper potential
        assert!(gs[0][0] < 0.0);
    }
}
