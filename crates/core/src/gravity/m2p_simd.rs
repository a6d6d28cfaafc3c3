//! The cell-level tier of the near field: a target cell is a point.
//!
//! The tile classifier (`super::tiles`) charges the *target* tile's
//! bounding sphere to the acceptance test, but the sums it steers already
//! run one target cell at a time.  Put to the same test with radius 0,
//! most cells of a rejected tile pair see the source tile as well
//! separated; those take the tile's multipole directly and only the rest
//! are summed source cell by source cell.  [`m2p_accumulate`] does both:
//! it tests a chunk of cells and adds the multipole's field where the test
//! passes.
//!
//! The kernel is width-generic with **lanes = target cells**: every lane
//! runs the scalar expression sequence on its own cell and writes its own
//! output element, so there is no horizontal sum and the `W = 1` and
//! `W = 8` instantiations agree bit for bit by construction.  Tail lanes
//! are masked off.
//!
//! M2P is the M2L kernel's `L0` and `−L1` — potential and acceleration of
//! (mass, second moment `S`, third moment `T`) at offset `r` from the
//! centre of mass — in the same closed form and from the same per-lane
//! code ([`super::m2l_simd`]'s `field`, over the moments `Moments::of`
//! derives): ~150 flop against the 64 x 24 of summing a 4³-cell tile point
//! by point.

use super::direct::PointsRef;
use super::m2l_simd::{field, Moments};
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
fn m2p_accumulate_w<const W: usize>(
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
    let k = Moments::from_array(Moments::of(mp).to_array().map(s));

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
        let r = [at[0] - k.com[0], at[1] - k.com[1], at[2] - k.com[2]];
        let r2 = r[0] * r[0] + r[1] * r[1] + r[2] * r[2];
        debug_assert!(
            (0..W).all(|l| !on.test(l) || r2[l] > 0.0),
            "M2P at the source location"
        );
        // Lanes that are off may sit anywhere, the centre of mass included.
        let f = field(&k, r, Simd::select(on, r2, s(1.0)), use_octupole);
        let g = s(-G);
        add_where(on, g * f.phi, &mut phi[off..off + lanes]);
        add_where(on, g * f.grad[0], &mut gx[off..off + lanes]);
        add_where(on, g * f.grad[1], &mut gy[off..off + lanes]);
        add_where(on, g * f.grad[2], &mut gz[off..off + lanes]);
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
    /// `m2p_accumulate_w::<8>` entered under the host's widest vector ISA
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

/// `m2p_accumulate_w` at `W = 1`, or at `W = 8` under the host's widest
/// vector ISA, by `mode`.
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
