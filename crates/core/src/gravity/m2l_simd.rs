//! The width-generic M2L kernel: the local expansion of `W` source
//! multipoles per iteration, with the moments contracted in closed form.
//!
//! This is the vector form of the paper's multipole kernel (Figure 7): one
//! kernel body, instantiated at `W = 1` (scalar build) and `W = 8` (one
//! A64FX SVE register of `f64`).  The sources of one target are walked
//! through the [`GravityPlan`]'s flat CSR list in chunks of `W`; each
//! source's `Moments` are gathered from a component-major
//! [`MultipoleSoA`], one (tail-padded) gather per component.
//!
//! **Closed form.**  The expansion never forms the derivative tensors
//! `D2`, `D3`, `D4`: the second moment `S` and the third moment `T` only
//! enter through their contractions with `r`, the offset of the target
//! centre from the source's centre of mass.  With `A = rᵀS r`,
//! `u = (S + Sᵀ) r`, the cubic form `B = T(r, r, r)`, its gradient
//! `w = ∇B`, the trace vector `τ_i = Σ_k (T_ikk + T_kik + T_kki)` and
//! `c = τ·r` (`field`):
//!
//! ```text
//! L0    = −G [ m/r − ½ tr S/r³ + (3/2 A − ½ c)/r⁵ + 5/2 B/r⁷ ]
//! L1_i  =  G [ r_i ( m/r³ − 3/2 tr S/r⁵ + (15/2 A − 5/2 c)/r⁷ + 35/2 B/r⁹ )
//!              − 3/2 u_i/r⁵ − 5/2 w_i/r⁷ + ½ τ_i/r⁵ ]
//! L2_ij = −G [ r_i r_j (3m/r⁵ − 15/2 tr S/r⁷ + 105/2 A/r⁹)
//!              − δ_ij (m/r³ − 3/2 tr S/r⁵ + 15/2 A/r⁷)
//!              − 15/2 (u_i r_j + u_j r_i)/r⁷ + 3/2 (S + Sᵀ)_ij/r⁵ ]
//! L3_ijk =  G m [ 15 r_i r_j r_k/r⁷ − 3 (δ_ij r_k + δ_ik r_j + δ_jk r_i)/r⁵ ]
//! ```
//!
//! — exact for any `S` and `T` in real arithmetic (no symmetry assumed:
//! moments built from points are symmetric only up to rounding), so
//! [`Multipole::m2l`], which sums the full tensor loops, is its oracle.
//! The 20 unique local components (1 + 3 + 6 + 10) are all the kernel
//! accumulates; the full [`LocalExpansion`] is written once, at the fold.
//!
//! **Bit-equality across widths** is a hard invariant: both widths run
//! the same per-lane expressions, and the horizontal accumulation is
//! stripe-blocked at the fixed count `STRIPES` — source `s` always lands
//! in stripe `s % 8`, and the stripes fold in fixed order at the end — so
//! both perform the identical addition sequence and Scalar and Sve512
//! solves produce bit-identical fields.  Masked lanes (massless sources,
//! padded tails) carry all-zero moments and contribute an exact `±0.0`.
//!
//! [`GravityPlan`]: super::plan::GravityPlan

use super::direct::{fold_stripes, STRIPES};
use super::multipole::{LocalExpansion, Multipole};
use crate::units::G;
use sve_simd::{ChunkedLanes, Simd, SVE_LANES_F64};

/// Number of `f64` components per source in a [`MultipoleSoA`]: the
/// fields of `Moments`.
const NCOMP: usize = 24;

/// The leading components the kernel reads when the octupole is off:
/// everything but [`Moments::t`] and [`Moments::tau`].
const NCOMP_QUAD: usize = 11;

/// Unique components of a [`LocalExpansion`]: `L0`, `L1`, `L2` in [`sym2`]
/// order, `L3` in [`sym3`] order.
const NLOCAL: usize = 1 + 3 + 6 + 10;

/// A multipole's moments in the form the closed-form contractions read
/// them, one value per component (`T = f64`) or one lane per source
/// (`T = Simd<f64, W>`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct Moments<T> {
    /// Total mass.
    pub m: T,
    /// Centre of mass.
    pub com: [T; 3],
    /// `S + Sᵀ`, in [`sym2`] order: `2 S_xx, 2 S_yy, 2 S_zz, S_xy + S_yx,
    /// S_xz + S_zx, S_yz + S_zy`.
    pub s: [T; 6],
    /// `tr S`.
    pub tr: T,
    /// The cubic form's coefficients, in [`sym3`] order: each the sum of
    /// `T`'s components over the distinct permutations of its indices.
    pub t: [T; 10],
    /// `τ_i = Σ_k (T_ikk + T_kik + T_kki)`.
    pub tau: [T; 3],
}

impl Moments<f64> {
    /// The symmetrized moments of `mp` — the one place they are derived.
    pub(super) fn of(mp: &Multipole) -> Moments<f64> {
        let q = &mp.quad;
        let t = &mp.oct;
        let c3 = |i: usize, j: usize, k: usize| t[i][j][k] + t[i][k][j] + t[k][i][j];
        Moments {
            m: mp.m,
            com: mp.com,
            s: [
                2.0 * q[0][0],
                2.0 * q[1][1],
                2.0 * q[2][2],
                q[0][1] + q[1][0],
                q[0][2] + q[2][0],
                q[1][2] + q[2][1],
            ],
            tr: q[0][0] + q[1][1] + q[2][2],
            t: [
                t[0][0][0],
                t[1][1][1],
                t[2][2][2],
                c3(0, 0, 1),
                c3(0, 0, 2),
                c3(1, 1, 0),
                c3(2, 2, 0),
                c3(1, 1, 2),
                c3(2, 2, 1),
                c3(0, 1, 2) + c3(1, 0, 2),
            ],
            tau: std::array::from_fn(|i| {
                (0..3).map(|k| t[i][k][k] + t[k][i][k] + t[k][k][i]).sum()
            }),
        }
    }
}

impl<T: Copy> Moments<T> {
    /// The components in storage order: `m`, `com`, `s`, `tr`, `t`, `tau`.
    pub(super) fn to_array(self) -> [T; NCOMP] {
        let mut a = [self.m; NCOMP];
        a[1..4].copy_from_slice(&self.com);
        a[4..10].copy_from_slice(&self.s);
        a[10] = self.tr;
        a[11..21].copy_from_slice(&self.t);
        a[21..24].copy_from_slice(&self.tau);
        a
    }

    /// Inverse of [`Moments::to_array`].
    #[inline(always)]
    pub(super) fn from_array(a: [T; NCOMP]) -> Moments<T> {
        Moments {
            m: a[0],
            com: [a[1], a[2], a[3]],
            s: [a[4], a[5], a[6], a[7], a[8], a[9]],
            tr: a[10],
            t: [
                a[11], a[12], a[13], a[14], a[15], a[16], a[17], a[18], a[19], a[20],
            ],
            tau: [a[21], a[22], a[23]],
        }
    }
}

/// Position of the symmetric pair `(i, j)` in the packed order
/// `xx, yy, zz, xy, xz, yz`.
fn sym2(i: usize, j: usize) -> usize {
    if i == j {
        i
    } else {
        i + j + 2
    }
}

/// Position of the index class of `(i, j, k)` in the packed order
/// `xxx, yyy, zzz, xxy, xxz, xyy, xzz, yyz, yzz, xyz`.
fn sym3(i: usize, j: usize, k: usize) -> usize {
    let mut n = [0; 3];
    for a in [i, j, k] {
        n[a] += 1;
    }
    match n {
        [3, 0, 0] => 0,
        [0, 3, 0] => 1,
        [0, 0, 3] => 2,
        [2, 1, 0] => 3,
        [2, 0, 1] => 4,
        [1, 2, 0] => 5,
        [1, 0, 2] => 6,
        [0, 2, 1] => 7,
        [0, 1, 2] => 8,
        _ => 9,
    }
}

/// Component-major (structure-of-arrays) storage of `Moments`:
/// component `c` of slot `s` lives at `data[c * n + s]`, so gathering one
/// component for `W` sources is a single strided gather — the layout
/// Octo-Tiger's SoA kernel buffers use.
#[derive(Debug, Default)]
pub struct MultipoleSoA {
    data: Vec<f64>,
    n: usize,
}

impl MultipoleSoA {
    /// Refill from a slot-indexed multipole table, reusing the allocation.
    pub fn fill(&mut self, mps: &[Multipole]) {
        self.fill_from(mps.len(), mps);
    }

    /// [`MultipoleSoA::fill`] from the `n` multipoles of a table held in
    /// pieces, in slot order.
    pub(crate) fn fill_from<'a>(&mut self, n: usize, mps: impl IntoIterator<Item = &'a Multipole>) {
        self.n = n;
        self.data.clear();
        self.data.resize(NCOMP * n, 0.0);
        for (s, mp) in mps.into_iter().enumerate() {
            for (c, v) in Moments::of(mp).to_array().into_iter().enumerate() {
                self.data[c * n + s] = v;
            }
        }
    }

    /// The dense lane array of component `c`.
    #[inline(always)]
    pub(crate) fn comp(&self, c: usize) -> &[f64] {
        &self.data[c * self.n..(c + 1) * self.n]
    }

    /// Number of stored multipoles.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when no multipoles are stored.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

/// The field of one source per lane at offset `r` from its centre of
/// mass, in closed form: `L0 = −G phi`, `L1 = G grad`, and the pieces the
/// second-order terms reuse.
pub(super) struct Field<const W: usize> {
    pub inv3: Simd<f64, W>,
    pub inv5: Simd<f64, W>,
    pub inv7: Simd<f64, W>,
    pub inv9: Simd<f64, W>,
    /// `u = (S + Sᵀ) r`.
    pub u: [Simd<f64, W>; 3],
    /// `A = rᵀ S r`.
    pub a: Simd<f64, W>,
    pub phi: Simd<f64, W>,
    pub grad: [Simd<f64, W>; 3],
}

/// [`Field`] of the moments `k` at offsets `r` with `|r|² = r2` (lanes
/// the caller masks off need a harmless `r2`, not their own).  Without the
/// octupole `k.t` and `k.tau` are not read.
#[inline(always)]
pub(super) fn field<const W: usize>(
    k: &Moments<Simd<f64, W>>,
    r: [Simd<f64, W>; 3],
    r2: Simd<f64, W>,
    use_octupole: bool,
) -> Field<W> {
    let s = Simd::<f64, W>::splat;
    let [x, y, z] = r;
    let inv = s(1.0) / r2.sqrt();
    let inv2 = inv * inv;
    let inv3 = inv2 * inv;
    let inv5 = inv3 * inv2;
    let inv7 = inv5 * inv2;
    let inv9 = inv7 * inv2;

    let [sxx, syy, szz, sxy, sxz, syz] = k.s;
    let u = [
        sxx * x + sxy * y + sxz * z,
        sxy * x + syy * y + syz * z,
        sxz * x + syz * y + szz * z,
    ];
    let a = s(0.5) * (u[0] * x + u[1] * y + u[2] * z);

    // φ = −G p, ∇φ = G (r rad + lin), built up term by term.
    let mut p = k.m * inv - s(0.5) * k.tr * inv3;
    let mut rad = k.m * inv3 - s(1.5) * k.tr * inv5;
    let mut p5 = s(1.5) * a;
    let mut rad7 = s(7.5) * a;
    let k5 = s(1.5) * inv5;
    let mut lin = [-(k5 * u[0]), -(k5 * u[1]), -(k5 * u[2])];
    if use_octupole {
        let [cxxx, cyyy, czzz, cxxy, cxxz, cxyy, cxzz, cyyz, cyzz, cxyz] = k.t;
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
        let tau = k.tau;
        let c = tau[0] * x + tau[1] * y + tau[2] * z;
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
    Field {
        inv3,
        inv5,
        inv7,
        inv9,
        u,
        a,
        phi: p,
        grad: [x * rad + lin[0], y * rad + lin[1], z * rad + lin[2]],
    }
}

/// Accumulate the M2L contributions of `sources` (slot indices into `soa`)
/// about `center` into `out`, `W` sources per iteration.
///
/// Sources with exactly zero mass are masked off — the same
/// `if mp.m == 0.0 { continue; }` the scalar loop performs — and padded
/// tail lanes carry zero mass; both contribute an exact `±0.0` per
/// component, which the stripe accumulators absorb without a bit of
/// change.
#[inline(always)]
fn m2l_accumulate_w<const W: usize>(
    soa: &MultipoleSoA,
    sources: &[usize],
    center: [f64; 3],
    use_octupole: bool,
    out: &mut LocalExpansion,
) {
    type V<const W: usize> = Simd<f64, W>;
    let s = V::<W>::splat;
    let zero = s(0.0);
    let ncomp = if use_octupole { NCOMP } else { NCOMP_QUAD };

    // Stripe accumulators (see `direct::STRIPES`): the fold association is
    // fixed by stripe index, not by `W`, so both widths sum identically.
    let mut acc = [[0.0; STRIPES]; NLOCAL];

    for (off, lanes) in ChunkedLanes::<W>::new(sources.len()) {
        let idx = &sources[off..off + lanes];

        let m = V::<W>::gather_or(soa.comp(0), idx, 0.0);
        let valid = !m.simd_eq(zero);
        if valid.none() {
            continue;
        }
        let mut raw = [zero; NCOMP];
        raw[0] = m;
        for (c, v) in raw.iter_mut().enumerate().take(ncomp).skip(1) {
            *v = V::<W>::gather_or(soa.comp(c), idx, 0.0);
        }
        let k = Moments::from_array(raw);
        let [x, y, z] = [
            s(center[0]) - k.com[0],
            s(center[1]) - k.com[1],
            s(center[2]) - k.com[2],
        ];
        let r2 = x * x + y * y + z * z;
        // Masked-off lanes may sit at zero distance; give them a harmless
        // radius so no lane divides by zero.  Valid lanes pass through
        // bit-untouched.
        let r2 = Simd::select(valid, r2, s(1.0));
        let f = field(&k, [x, y, z], r2, use_octupole);

        // L2 = −G [m D2 + ½ S:D4]: r_i r_j α + δ_ij β
        // − 15/2 (u_i r_j + u_j r_i)/r⁷ + 3/2 (S + Sᵀ)_ij/r⁵.
        let h7 = s(7.5) * f.inv7;
        let h5 = s(1.5) * f.inv5;
        let alpha = s(3.0) * k.m * f.inv5 + s(52.5) * f.a * f.inv9 - h7 * k.tr;
        let beta = h5 * k.tr - k.m * f.inv3 - h7 * f.a;
        let [ux, uy, uz] = f.u;
        let [sxx, syy, szz, sxy, sxz, syz] = k.s;
        let (xx, xy, xz) = (x * x, x * y, x * z);
        let (yy, yz, zz) = (y * y, y * z, z * z);
        let mg = s(-G);
        let l2 = [
            mg * (xx * alpha + beta - h7 * (s(2.0) * ux * x) + h5 * sxx),
            mg * (yy * alpha + beta - h7 * (s(2.0) * uy * y) + h5 * syy),
            mg * (zz * alpha + beta - h7 * (s(2.0) * uz * z) + h5 * szz),
            mg * (xy * alpha - h7 * (ux * y + uy * x) + h5 * sxy),
            mg * (xz * alpha - h7 * (ux * z + uz * x) + h5 * sxz),
            mg * (yz * alpha - h7 * (uy * z + uz * y) + h5 * syz),
        ];

        // L3 = G m D3.
        let p = s(15.0 * G) * k.m * f.inv7;
        let q = s(3.0 * G) * k.m * f.inv5;
        let q3 = s(3.0) * q;
        let (pxx, pyy, pzz) = (p * xx, p * yy, p * zz);
        let l3 = [
            x * (pxx - q3),
            y * (pyy - q3),
            z * (pzz - q3),
            y * (pxx - q),
            z * (pxx - q),
            x * (pyy - q),
            x * (pzz - q),
            z * (pyy - q),
            y * (pzz - q),
            p * xy * z,
        ];

        let mut local = [zero; NLOCAL];
        local[0] = mg * f.phi;
        for a in 0..3 {
            local[1 + a] = s(G) * f.grad[a];
        }
        local[4..10].copy_from_slice(&l2);
        local[10..].copy_from_slice(&l3);

        // Stripe-blocked accumulation: lane `l` of this chunk is source
        // `off + l`, which lands in stripe `(off + l) % 8` at any width
        // (`W` divides 8 and chunks advance by `W`).  At `W = 8` each of
        // these loops is a single vector add; masked lanes hold exact
        // `±0.0` contributions, so no per-lane skip is needed.  The
        // full-width stripe base must be a compile-time zero — a dynamic
        // `off % STRIPES` reads as a scatter and scalarizes the adds.
        let s0 = if W == STRIPES { 0 } else { off % STRIPES };
        for (stripes, v) in acc.iter_mut().zip(local) {
            for l in 0..lanes {
                stripes[s0 + l] += v[l];
            }
        }
    }

    // Fixed-order fold of the stripes, expanded into the full tensors.
    let sums = acc.map(|stripes| fold_stripes(&stripes));
    out.l0 += sums[0];
    for i in 0..3 {
        out.l1[i] += sums[1 + i];
        for j in 0..3 {
            out.l2[i][j] += sums[4 + sym2(i, j)];
            for k in 0..3 {
                out.l3[i][j][k] += sums[10 + sym3(i, j, k)];
            }
        }
    }
}

sve_simd::wide_dispatch! {
    /// `m2l_accumulate_w::<8>` entered under the host's widest vector
    /// ISA — the "SVE build" half of the Figure 7 pair (see
    /// [`sve_simd::isa`]).
    fn m2l_accumulate_wide(
        soa: &MultipoleSoA,
        sources: &[usize],
        center: [f64; 3],
        use_octupole: bool,
        out: &mut LocalExpansion
    ) = m2l_accumulate_w::<SVE_LANES_F64>
}

/// Accumulate the M2L contributions of `sources` (slot indices into `soa`)
/// about `center` into `out`: `m2l_accumulate_w` at `W = 1`, or at
/// `W = 8` under the host's widest vector ISA, by `mode`.
pub fn m2l_accumulate(
    soa: &MultipoleSoA,
    sources: &[usize],
    center: [f64; 3],
    use_octupole: bool,
    mode: sve_simd::VectorMode,
    out: &mut LocalExpansion,
) {
    match mode {
        sve_simd::VectorMode::Scalar => {
            m2l_accumulate_w::<1>(soa, sources, center, use_octupole, out)
        }
        sve_simd::VectorMode::Sve512 => {
            m2l_accumulate_wide(soa, sources, center, use_octupole, out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random multipole cloud (SplitMix64-ish hash on
    /// the index keeps the data reproducible without a RNG dependency).
    fn make_multipoles(n: usize) -> Vec<Multipole> {
        let mut out = Vec::with_capacity(n);
        for s in 0..n {
            let f = s as f64;
            if s % 7 == 3 {
                // Plant massless slots: they must be skipped, not summed.
                out.push(Multipole::zero([f * 0.1, -f * 0.2, 0.3]));
                continue;
            }
            let pts = [
                ([f * 0.11, (f * 0.7).sin(), (f * 1.3).cos()], 0.4 + 0.03 * f),
                (
                    [
                        f * 0.11 + 0.2,
                        (f * 0.7).sin() - 0.1,
                        (f * 1.3).cos() + 0.15,
                    ],
                    0.9 + 0.01 * f,
                ),
                (
                    [f * 0.11 - 0.1, (f * 0.7).sin() + 0.3, (f * 1.3).cos() - 0.2],
                    0.2,
                ),
            ];
            out.push(Multipole::from_points(&pts));
        }
        out
    }

    /// Moments no point set has: every component of `S` and `T` drawn on
    /// its own, so `S_ij ≠ S_ji` and the permutations of a `T` index
    /// differ.
    fn make_asymmetric(n: usize) -> Vec<Multipole> {
        (0..n)
            .map(|s| {
                let mut v = (s as f64 + 1.0) * 0.618;
                let mut next = || {
                    v = (v * 7.31 + 0.37).fract();
                    v - 0.5
                };
                Multipole {
                    m: 1.0 + next(),
                    com: [next(), next(), next()],
                    quad: [(); 3].map(|_| [(); 3].map(|_| 0.3 * next())),
                    oct: [(); 3].map(|_| [(); 3].map(|_| [(); 3].map(|_| 0.1 * next()))),
                }
            })
            .collect()
    }

    /// The oracle: [`Multipole::m2l`] summed source by source.
    fn reference(
        mps: &[Multipole],
        sources: &[usize],
        center: [f64; 3],
        use_oct: bool,
    ) -> LocalExpansion {
        let mut sum = LocalExpansion::zero();
        for &src in sources {
            let mp = &mps[src];
            if mp.m == 0.0 {
                continue;
            }
            sum.add_assign(&mp.m2l(center, use_oct));
        }
        sum
    }

    /// Every component of `le`, order by order.
    fn orders(le: &LocalExpansion) -> [Vec<f64>; 4] {
        [
            vec![le.l0],
            le.l1.to_vec(),
            le.l2.iter().flatten().copied().collect(),
            le.l3.iter().flatten().flatten().copied().collect(),
        ]
    }

    fn assert_bit_eq(a: &LocalExpansion, b: &LocalExpansion, what: &str) {
        for (n, (x, y)) in orders(a).iter().zip(orders(b)).enumerate() {
            for (c, (x, y)) in x.iter().zip(y).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{what}: L{n} component {c}");
            }
        }
    }

    /// Within `rel` of the largest component of each order of `want` (the
    /// closed form and the tensor loops round differently, and a component
    /// the loops cancel to near zero has no relative error to speak of).
    fn assert_close(got: &LocalExpansion, want: &LocalExpansion, rel: f64, what: &str) {
        for (n, (g, w)) in orders(got).iter().zip(orders(want)).enumerate() {
            let scale = w.iter().fold(0.0f64, |a, v| a.max(v.abs()));
            for (c, (g, w)) in g.iter().zip(&w).enumerate() {
                assert!(
                    (g - w).abs() <= rel * scale,
                    "{what}: L{n} component {c}: {g} vs {w} (scale {scale:e})"
                );
            }
        }
    }

    #[test]
    fn widths_match_each_other_bitwise_and_reference_closely() {
        // Source-list lengths straddling every tail shape, with and
        // without the octupole term.  The two widths must agree *bitwise*
        // (they execute the same stripe-blocked addition sequence); the
        // oracle sums the tensor loops in a different association, so it
        // is only required to agree to rounding.
        let mps = make_multipoles(41);
        let mut soa = MultipoleSoA::default();
        soa.fill(&mps);
        let center = [20.0, -15.0, 9.0];
        for use_oct in [false, true] {
            for len in [0usize, 1, 2, 7, 8, 9, 16, 23, 41] {
                let sources: Vec<usize> = (0..len).map(|i| (i * 5) % mps.len()).collect();
                let want = reference(&mps, &sources, center, use_oct);
                let mut got1 = LocalExpansion::zero();
                m2l_accumulate_w::<1>(&soa, &sources, center, use_oct, &mut got1);
                let mut got8 = LocalExpansion::zero();
                m2l_accumulate_w::<8>(&soa, &sources, center, use_oct, &mut got8);
                assert_bit_eq(&got1, &got8, &format!("W=1 vs W=8 len={len} oct={use_oct}"));
                assert_close(&got1, &want, 1e-12, &format!("ref len={len} oct={use_oct}"));
            }
        }
    }

    #[test]
    fn closed_form_is_exact_for_asymmetric_moments() {
        // The closed form assumes no symmetry of S or T: with every
        // component independent, both widths still match the tensor loops.
        let mps = make_asymmetric(29);
        assert!(mps.iter().any(|mp| mp.quad[0][1] != mp.quad[1][0]));
        assert!(mps.iter().any(|mp| mp.oct[0][1][2] != mp.oct[2][1][0]));
        let mut soa = MultipoleSoA::default();
        soa.fill(&mps);
        let sources: Vec<usize> = (0..mps.len()).collect();
        for center in [[4.0, -3.0, 2.5], [-0.5, 6.0, -1.0]] {
            for use_oct in [false, true] {
                let want = reference(&mps, &sources, center, use_oct);
                let mut got1 = LocalExpansion::zero();
                m2l_accumulate_w::<1>(&soa, &sources, center, use_oct, &mut got1);
                let mut got8 = LocalExpansion::zero();
                m2l_accumulate_w::<8>(&soa, &sources, center, use_oct, &mut got8);
                let what = format!("center={center:?} oct={use_oct}");
                assert_bit_eq(&got1, &got8, &what);
                assert_close(&got1, &want, 1e-12, &what);
            }
        }
    }

    #[test]
    fn all_massless_chunk_contributes_nothing() {
        let mps: Vec<Multipole> = (0..10)
            .map(|s| Multipole::zero([s as f64, 0.0, 0.0]))
            .collect();
        let mut soa = MultipoleSoA::default();
        soa.fill(&mps);
        let sources: Vec<usize> = (0..10).collect();
        let mut out = LocalExpansion::zero();
        m2l_accumulate_w::<8>(&soa, &sources, [100.0, 0.0, 0.0], true, &mut out);
        assert_eq!(out.l0, 0.0);
        assert_eq!(out.l1, [0.0; 3]);
    }

    #[test]
    fn soa_roundtrips_components() {
        let mps = make_asymmetric(5);
        let mut soa = MultipoleSoA::default();
        soa.fill(&mps);
        assert_eq!(soa.len(), 5);
        for (s, mp) in mps.iter().enumerate() {
            let k = Moments::of(mp);
            assert_eq!(Moments::from_array(k.to_array()), k);
            for (c, v) in k.to_array().into_iter().enumerate() {
                assert_eq!(soa.comp(c)[s].to_bits(), v.to_bits(), "component {c}");
            }
            let (q, t) = (&mp.quad, &mp.oct);
            assert_eq!(soa.comp(0)[s], mp.m);
            assert_eq!(soa.comp(3)[s], mp.com[2]);
            assert_eq!(soa.comp(4 + sym2(2, 1))[s], q[2][1] + q[1][2]);
            assert_eq!(soa.comp(10)[s], q[0][0] + q[1][1] + q[2][2]);
            assert_eq!(soa.comp(11 + sym3(1, 1, 1))[s], t[1][1][1]);
            let yyz = t[1][1][2] + t[1][2][1] + t[2][1][1];
            assert_eq!(soa.comp(11 + sym3(2, 1, 1))[s], yyz);
        }
        // Refilling with fewer entries shrinks cleanly.
        soa.fill(&mps[..2]);
        assert_eq!(soa.len(), 2);
        assert_eq!(soa.comp(0).len(), 2);
        assert_eq!(soa.comp(NCOMP - 1).len(), 2);
    }
}
