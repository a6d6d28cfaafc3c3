//! The cell-level tier of the near field: a target cell is a point.
//!
//! The tile classifier ([`super::tiles`]) charges the *target* tile's
//! bounding sphere to the acceptance test, but the sums it steers already
//! run one target cell at a time.  Put to the same test with radius 0,
//! most cells of a rejected tile pair see the source tile as well
//! separated; those take the tile's multipole directly and only the rest
//! are summed source cell by source cell.  [`m2p_accumulate_w`] does both:
//! it tests a chunk of cells and adds the multipole's field where the test
//! passes.
//!
//! The kernel is width-generic with **lanes = target cells**: every lane
//! runs the scalar expression sequence on its own cell and writes its own
//! output element, so there is no horizontal sum and the `W = 1` and
//! `W = 8` instantiations agree bit for bit by construction.  Tail lanes
//! are masked off.
//!
//! M2P is [`Multipole::m2l`]'s `L0` and `−L1` — potential and acceleration
//! of (mass, second moment `S`, third moment `T`) at offset `r` from the
//! centre of mass — with the `S:D2`, `S:D3`, `T:D3`, `T:D4` contractions in
//! closed form.  With `A = rᵀS r`, `u = (S + Sᵀ) r`, the cubic form
//! `B = T(r, r, r)`, its gradient `w = ∇B`, the trace vector
//! `τ_i = Σ_k (T_ikk + T_kik + T_kki)` and `c = τ·r`:
//!
//! ```text
//! φ   = −G [ m/r − ½ tr S/r³ + (3/2 A − ½ c)/r⁵ + 5/2 B/r⁷ ]
//! g_i = −G [ r_i ( m/r³ − 3/2 tr S/r⁵ + (15/2 A − 5/2 c)/r⁷ + 35/2 B/r⁹ )
//!            − 3/2 u_i/r⁵ − 5/2 w_i/r⁷ + ½ τ_i/r⁵ ]
//! ```
//!
//! — exact for any `S`, `T` (no symmetry assumed), ~150 flop against the
//! 64 x 24 of summing a 4³-cell tile point by point.

use super::direct::PointsRef;
use super::multipole::Multipole;
use super::plan::well_separated_w;
use crate::units::G;
use sve_simd::{ChunkedLanes, Mask, Simd, VectorMode, SVE_LANES_F64};

/// Put every cell `q` of `targets` — a point, radius 0 — to the acceptance
/// test against a source tile's bounding `sphere` (center, radius), `W`
/// cells per iteration: `far[q]` says whether it passes, and where it does
/// the field of `mp`, the tile's multipole, is added to `out` (the
/// `[phi, gx, gy, gz]` sums of the run); the other cells of `out` keep
/// their bits.  Returns how many pass.  A massless `mp`
/// ([`Multipole::zero`]) adds an exact zero.
#[inline(always)]
pub fn m2p_accumulate_w<const W: usize>(
    mp: &Multipole,
    sphere: ([f64; 3], f64),
    theta: f64,
    use_octupole: bool,
    targets: PointsRef<'_>,
    far: &mut [bool],
    out: &mut [&mut [f64]; 4],
) -> usize {
    type V<const W: usize> = Simd<f64, W>;
    assert_eq!(far.len(), targets.len());
    let s = V::<W>::splat;
    let (center, radius) = sphere;
    let com = mp.com.map(s);
    let m = s(mp.m);

    // Second moment: diagonal, symmetrized off-diagonal sums, trace.
    let q = &mp.quad;
    let (sxx, syy, szz) = (s(2.0 * q[0][0]), s(2.0 * q[1][1]), s(2.0 * q[2][2]));
    let (sxy, sxz, syz) = (
        s(q[0][1] + q[1][0]),
        s(q[0][2] + q[2][0]),
        s(q[1][2] + q[2][1]),
    );
    let tr = s(q[0][0] + q[1][1] + q[2][2]);

    // Third moment: the cubic form's ten coefficients (each the sum of its
    // index permutations) and the trace vector.
    let t = &mp.oct;
    let c3 = |i: usize, j: usize, k: usize| t[i][j][k] + t[i][k][j] + t[k][i][j];
    let (cxxx, cyyy, czzz) = (s(t[0][0][0]), s(t[1][1][1]), s(t[2][2][2]));
    let (cxxy, cxxz, cxyy) = (s(c3(0, 0, 1)), s(c3(0, 0, 2)), s(c3(1, 1, 0)));
    let (cxzz, cyyz, cyzz) = (s(c3(2, 2, 0)), s(c3(1, 1, 2)), s(c3(2, 2, 1)));
    let cxyz = s(c3(0, 1, 2) + c3(1, 0, 2));
    let tau: [V<W>; 3] =
        std::array::from_fn(|i| s((0..3).map(|k| t[i][k][k] + t[k][i][k] + t[k][k][i]).sum()));

    // Reborrowed once: a store through one run could, for all the compiler
    // knows, move the array of runs itself, and it would reload it per chunk.
    let [phi, gx, gy, gz] = out.each_mut().map(|sums| &mut **sums);
    assert_eq!(phi.len(), targets.len());
    let mut count = 0;
    for (off, lanes) in ChunkedLanes::<W>::new(targets.len()) {
        // Tail lanes sit on the tile centre: distance 0 is never accepted.
        let at = [
            V::<W>::load_chunk(targets.xs, off, lanes, center[0]),
            V::<W>::load_chunk(targets.ys, off, lanes, center[1]),
            V::<W>::load_chunk(targets.zs, off, lanes, center[2]),
        ];
        let on = well_separated_w(at, s(0.0), center.map(s), s(radius), s(theta));
        far[off..off + lanes].copy_from_slice(&on.to_array()[..lanes]);
        if on.none() {
            continue;
        }
        count += on.count_set();
        let (x, y, z) = (at[0] - com[0], at[1] - com[1], at[2] - com[2]);
        let r2 = x * x + y * y + z * z;
        debug_assert!(
            (0..W).all(|l| !on.test(l) || r2[l] > 0.0),
            "M2P at the source location"
        );
        // Lanes that are off may sit anywhere, the centre of mass included.
        let r2 = Simd::select(on, r2, s(1.0));
        let inv = s(1.0) / r2.sqrt();
        let inv2 = inv * inv;
        let inv3 = inv2 * inv;
        let inv5 = inv3 * inv2;
        let inv7 = inv5 * inv2;

        let ux = sxx * x + sxy * y + sxz * z;
        let uy = sxy * x + syy * y + syz * z;
        let uz = sxz * x + syz * y + szz * z;
        let a = s(0.5) * (ux * x + uy * y + uz * z);

        // φ = −G p, g_i = −G (r_i rad − 3/2 u_i/r⁵ …), built up term by term.
        let mut p = m * inv - s(0.5) * tr * inv3;
        let mut rad = m * inv3 - s(1.5) * tr * inv5;
        let mut p5 = s(1.5) * a;
        let mut rad7 = s(7.5) * a;
        let k5 = s(1.5) * inv5;
        let mut lin = [-(k5 * ux), -(k5 * uy), -(k5 * uz)];
        if use_octupole {
            let (xx, xy, xz) = (x * x, x * y, x * z);
            let (yy, yz, zz) = (y * y, y * z, z * z);
            let wx = s(3.0) * cxxx * xx
                + s(2.0) * (cxxy * xy + cxxz * xz)
                + cxyy * yy
                + cxzz * zz
                + cxyz * yz;
            let wy = cxxy * xx
                + s(2.0) * (cxyy * xy + cyyz * yz)
                + cxyz * xz
                + s(3.0) * cyyy * yy
                + cyzz * zz;
            let wz = cxxz * xx
                + cxyz * xy
                + s(2.0) * (cxzz * xz + cyzz * yz)
                + cyyz * yy
                + s(3.0) * czzz * zz;
            // Euler: ∇B·r = 3 B.
            let b = (wx * x + wy * y + wz * z) / s(3.0);
            let c = tau[0] * x + tau[1] * y + tau[2] * z;
            let inv9 = inv7 * inv2;
            p5 -= s(0.5) * c;
            p += s(2.5) * b * inv7;
            rad7 -= s(2.5) * c;
            rad += s(17.5) * b * inv9;
            let (k7, h5) = (s(2.5) * inv7, s(0.5) * inv5);
            lin[0] += h5 * tau[0] - k7 * wx;
            lin[1] += h5 * tau[1] - k7 * wy;
            lin[2] += h5 * tau[2] - k7 * wz;
        }
        p += p5 * inv5;
        rad += rad7 * inv7;
        let g = s(-G);
        add_where(on, g * p, &mut phi[off..off + lanes]);
        add_where(on, g * (x * rad + lin[0]), &mut gx[off..off + lanes]);
        add_where(on, g * (y * rad + lin[1]), &mut gy[off..off + lanes]);
        add_where(on, g * (z * rad + lin[2]), &mut gz[off..off + lanes]);
    }
    count
}

/// `sum[l] += d[l]` on the lanes of `on`; the others keep their bits.
#[inline(always)]
fn add_where<const W: usize>(on: Mask<W>, d: Simd<f64, W>, sum: &mut [f64]) {
    let old = Simd::<f64, W>::from_slice_padded(sum, 0.0);
    Simd::select(on, old + d, old).write_to_slice_partial(sum);
}

sve_simd::wide_dispatch! {
    /// [`m2p_accumulate_w::<8>`] entered under the host's widest vector ISA
    /// (see [`sve_simd::isa`]).
    fn m2p_accumulate_wide(
        mp: &Multipole,
        sphere: ([f64; 3], f64),
        theta: f64,
        use_octupole: bool,
        targets: PointsRef<'_>,
        far: &mut [bool],
        out: &mut [&mut [f64]; 4]
    ) -> usize = m2p_accumulate_w::<SVE_LANES_F64>
}

/// [`m2p_accumulate_w`] dispatched on a [`VectorMode`].
#[allow(clippy::too_many_arguments)]
pub fn m2p_accumulate(
    mp: &Multipole,
    sphere: ([f64; 3], f64),
    theta: f64,
    use_octupole: bool,
    targets: PointsRef<'_>,
    mode: VectorMode,
    far: &mut [bool],
    out: &mut [&mut [f64]; 4],
) -> usize {
    match mode {
        VectorMode::Scalar => {
            m2p_accumulate_w::<1>(mp, sphere, theta, use_octupole, targets, far, out)
        }
        VectorMode::Sve512 => {
            m2p_accumulate_wide(mp, sphere, theta, use_octupole, targets, far, out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gravity::direct::{p2p_at, PointMasses};
    use crate::gravity::plan::well_separated;

    /// A 4³-cell tile of edge `4 h` centred on the origin, masses rippled.
    fn lattice_tile(h: f64) -> PointMasses {
        let mut pts = PointMasses::default();
        for c in 0..64usize {
            let at = [c / 16, c / 4 % 4, c % 4].map(|i| (i as f64 - 1.5) * h);
            pts.push(at, 1.0 + 0.4 * (1.7 * c as f64).sin());
        }
        pts
    }

    fn targets_at(at: &[[f64; 3]]) -> PointMasses {
        let mut pts = PointMasses::default();
        for &x in at {
            pts.push(x, 0.0);
        }
        pts
    }

    /// `[phi, gx, gy, gz]` and the flags of the cells of `targets` the
    /// cell-level test accepts against `sphere` at θ = 0.5, summed from 0.
    fn m2p_from_zero(
        mp: &Multipole,
        sphere: ([f64; 3], f64),
        use_oct: bool,
        targets: &PointMasses,
    ) -> ([Vec<f64>; 4], Vec<bool>) {
        let mut sums = [(); 4].map(|_| vec![0.0; targets.len()]);
        let mut far = vec![false; targets.len()];
        let mut out = sums.each_mut().map(|v| &mut v[..]);
        m2p_accumulate_w::<8>(mp, sphere, 0.5, use_oct, targets.view(), &mut far, &mut out);
        (sums, far)
    }

    /// M2P at every point of `at`: a sphere of radius 0 that none of them
    /// sits on accepts every cell.
    fn m2p_at(mp: &Multipole, use_oct: bool, at: &[[f64; 3]]) -> [Vec<f64>; 4] {
        let (sums, far) = m2p_from_zero(mp, ([100.0; 3], 0.0), use_oct, &targets_at(at));
        assert!(far.iter().all(|&f| f));
        sums
    }

    #[test]
    fn m2p_is_m2l_evaluated_at_its_own_centre() {
        let mp = Multipole::from_soa(lattice_tile(0.25).view());
        let at = [
            [2.0, 0.3, -0.4],
            [-1.1, 1.9, 0.2],
            [0.6, -0.7, 1.8],
            [-3.0, -2.0, 4.0],
            [0.9, 0.9, 0.9],
        ];
        for use_oct in [false, true] {
            let [phi, gx, gy, gz] = m2p_at(&mp, use_oct, &at);
            for (q, &x) in at.iter().enumerate() {
                let want = mp.m2l(x, use_oct);
                let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * b.abs();
                assert!(close(phi[q], want.l0), "phi, oct={use_oct}, cell {q}");
                for (g, l1) in [gx[q], gy[q], gz[q]].into_iter().zip(want.l1) {
                    assert!(close(g, -l1), "g {g} vs {}, oct={use_oct}, cell {q}", -l1);
                }
            }
        }
    }

    /// Relative acceleration error of `got` against the direct sum `want`.
    fn rel_err(got: [f64; 3], want: [f64; 3]) -> f64 {
        let norm = |v: [f64; 3]| v.iter().map(|c| c * c).sum::<f64>().sqrt();
        norm(std::array::from_fn(|a| got[a] - want[a])) / norm(want)
    }

    #[test]
    fn m2p_error_is_below_tile_m2l_error_and_falls_with_distance() {
        // Against direct summation of the tile's own points, over every
        // lattice cell the cell-level test accepts — the cells
        // `well_separated` accepts as points against the tile's sphere,
        // the kernel's lanes being that one function: the worst M2P error —
        // it sits at the acceptance boundary, two tile radii out — is
        // below the worst tile-M2L error at *its* boundary (the closest
        // accepted tile offset, (3, 2, 0) tile edges), whose third-order
        // local expansion loses an order on the gradient.
        let h = 0.25;
        let tile = lattice_tile(h);
        let mp = Multipole::from_soa(tile.view());
        let radius = 2.0 * 3f64.sqrt() * h;
        let mut cells = Vec::new();
        for c in 0..32usize.pow(3) {
            cells.push([c / 1024, c / 32 % 32, c % 32].map(|i| (i as f64 - 15.5) * h));
        }
        let ([phi, gx, gy, gz], far) =
            m2p_from_zero(&mp, ([0.0; 3], radius), true, &targets_at(&cells));
        assert!(far.contains(&true) && far.contains(&false));
        // Worst error per shell of one tile radius, from the boundary out.
        let mut worst = [0.0f64; 3];
        for (q, &x) in cells.iter().enumerate() {
            let d = x.iter().map(|c| c * c).sum::<f64>().sqrt();
            assert_eq!(far[q], well_separated(x, 0.0, [0.0; 3], radius, 0.5));
            if !far[q] {
                assert!(d <= 2.0 * radius * (1.0 + 1e-12));
                assert_eq!((phi[q], gx[q]), (0.0, 0.0), "cell {q} was masked off");
                continue;
            }
            let shell = (d / radius) as usize - 2;
            if shell < worst.len() {
                let (_, want) = p2p_at(&tile, x, VectorMode::Scalar);
                worst[shell] = worst[shell].max(rel_err([gx[q], gy[q], gz[q]], want));
            }
        }
        assert!(worst[0] > worst[1] && worst[1] > worst[2], "{worst:?}");
        assert!(worst[0] < 6e-3, "{worst:?}");

        let center = [3.0, 2.0, 0.0].map(|v| v * 4.0 * h);
        let local = mp.m2l(center, true);
        let mut m2l_worst = 0.0f64;
        for q in 0..tile.len() {
            let off = [tile.xs[q], tile.ys[q], tile.zs[q]];
            let (_, want) = p2p_at(
                &tile,
                std::array::from_fn(|a| center[a] + off[a]),
                VectorMode::Scalar,
            );
            m2l_worst = m2l_worst.max(rel_err(local.evaluate(off).1, want));
        }
        assert!(
            worst[0] < m2l_worst,
            "M2P {worst:?} vs tile M2L {m2l_worst:e}"
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "M2P at the source location")]
    fn m2p_at_the_centre_of_mass_is_a_bug() {
        let mp = Multipole::from_soa(lattice_tile(0.25).view());
        m2p_at(&mp, true, &[mp.com]);
    }
}
