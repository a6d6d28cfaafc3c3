//! The width-generic M2L kernel: [`Multipole::m2l`] transliterated onto
//! `Simd<f64, W>`, evaluating `W` source expansions per iteration.
//!
//! This is the vector form of the paper's multipole kernel (Figure 7): one
//! kernel body, instantiated at `W = 1` (scalar build) and `W = 8` (one
//! A64FX SVE register of `f64`).  The sources of one target are walked
//! through the [`GravityPlan`]'s flat CSR list in chunks of `W`; the
//! multipole moments are gathered from a component-major
//! [`MultipoleSoA`] so each component load is one (tail-padded) gather.
//!
//! **Bit-equality across widths** is a hard invariant here, not an
//! accident: every arithmetic expression mirrors the scalar
//! [`Multipole::m2l`] op for op (same literals, same association), and the
//! horizontal accumulation into the target's [`LocalExpansion`] is
//! stripe-blocked at the fixed count [`STRIPES`] — source `s` always lands
//! in stripe `s % 8`, and the stripes fold in fixed order at the end — so
//! both widths perform the identical addition sequence and Scalar and
//! Sve512 solves produce bit-identical fields.  Masked lanes (massless
//! sources, padded tails) contribute an exact `±0.0`, which never perturbs
//! a stripe accumulator.
//!
//! [`STRIPES`]: super::direct::STRIPES
//!
//! [`Multipole::m2l`]: super::multipole::Multipole::m2l
//! [`GravityPlan`]: super::plan::GravityPlan

use super::direct::{fold_stripes, STRIPES};
use super::multipole::{LocalExpansion, Multipole};
use crate::units::G;
use sve_simd::{ChunkedLanes, Simd, SVE_LANES_F64};

/// Number of `f64` components per multipole: mass, COM, second and third
/// moments.
pub const NCOMP: usize = 1 + 3 + 9 + 27;

const C_M: usize = 0;
const fn c_com(a: usize) -> usize {
    1 + a
}
const fn c_quad(i: usize, j: usize) -> usize {
    4 + i * 3 + j
}
const fn c_oct(i: usize, j: usize, k: usize) -> usize {
    13 + i * 9 + j * 3 + k
}

/// Component-major (structure-of-arrays) multipole storage: component `c`
/// of slot `s` lives at `data[c * n + s]`, so gathering one component for
/// `W` sources is a single strided gather — the layout Octo-Tiger's SoA
/// kernel buffers use.
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
    pub fn fill_from<'a>(&mut self, n: usize, mps: impl IntoIterator<Item = &'a Multipole>) {
        self.n = n;
        self.data.clear();
        self.data.resize(NCOMP * n, 0.0);
        for (s, mp) in mps.into_iter().enumerate() {
            self.data[C_M * n + s] = mp.m;
            for a in 0..3 {
                self.data[c_com(a) * n + s] = mp.com[a];
            }
            for i in 0..3 {
                for j in 0..3 {
                    self.data[c_quad(i, j) * n + s] = mp.quad[i][j];
                    for k in 0..3 {
                        self.data[c_oct(i, j, k) * n + s] = mp.oct[i][j][k];
                    }
                }
            }
        }
    }

    /// The dense lane array of component `c`.
    #[inline(always)]
    pub fn comp(&self, c: usize) -> &[f64] {
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

/// Kronecker delta as an `f64` factor.
#[inline(always)]
fn kd(a: usize, b: usize) -> f64 {
    if a == b {
        1.0
    } else {
        0.0
    }
}

/// Fourth source-derivative tensor component `D4_ijkl` (named
/// `#[inline(always)]` helper, not a closure: closures stay out-of-line
/// inside the `#[target_feature]` wide entry points and de-vectorize the
/// chunk body).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn d4_comp<const W: usize>(
    r: &[Simd<f64, W>; 3],
    inv5: Simd<f64, W>,
    inv7: Simd<f64, W>,
    inv9: Simd<f64, W>,
    i: usize,
    j: usize,
    k: usize,
    l: usize,
) -> Simd<f64, W> {
    type V<const W: usize> = Simd<f64, W>;
    V::<W>::splat(105.0) * r[i] * r[j] * r[k] * r[l] * inv9
        - V::<W>::splat(15.0)
            * (V::<W>::splat(kd(i, j)) * r[k] * r[l]
                + V::<W>::splat(kd(i, k)) * r[j] * r[l]
                + V::<W>::splat(kd(i, l)) * r[j] * r[k]
                + V::<W>::splat(kd(j, k)) * r[i] * r[l]
                + V::<W>::splat(kd(j, l)) * r[i] * r[k]
                + V::<W>::splat(kd(k, l)) * r[i] * r[j])
            * inv7
        + V::<W>::splat(3.0)
            * (V::<W>::splat(kd(i, j) * kd(k, l))
                + V::<W>::splat(kd(i, k) * kd(j, l))
                + V::<W>::splat(kd(i, l) * kd(j, k)))
            * inv5
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
pub fn m2l_accumulate_w<const W: usize>(
    soa: &MultipoleSoA,
    sources: &[usize],
    center: [f64; 3],
    use_octupole: bool,
    out: &mut LocalExpansion,
) {
    type V<const W: usize> = Simd<f64, W>;
    let zero = V::<W>::splat(0.0);
    let cx = V::<W>::splat(center[0]);
    let cy = V::<W>::splat(center[1]);
    let cz = V::<W>::splat(center[2]);

    // Stripe accumulators (see `direct::STRIPES`): the fold association is
    // fixed by stripe index, not by `W`, so both widths sum identically.
    let mut acc0 = [0.0; STRIPES];
    let mut acc1 = [[0.0; STRIPES]; 3];
    let mut acc2 = [[[0.0; STRIPES]; 3]; 3];
    let mut acc3 = [[[[0.0; STRIPES]; 3]; 3]; 3];

    for (off, lanes) in ChunkedLanes::<W>::new(sources.len()) {
        let idx = &sources[off..off + lanes];

        let m = V::<W>::gather_or(soa.comp(C_M), idx, 0.0);
        let valid = !m.simd_eq(zero);
        if valid.none() {
            continue;
        }
        let r = [
            cx - V::<W>::gather_or(soa.comp(c_com(0)), idx, 0.0),
            cy - V::<W>::gather_or(soa.comp(c_com(1)), idx, 0.0),
            cz - V::<W>::gather_or(soa.comp(c_com(2)), idx, 0.0),
        ];
        let mut quad = [[zero; 3]; 3];
        for i in 0..3 {
            for j in 0..3 {
                quad[i][j] = V::<W>::gather_or(soa.comp(c_quad(i, j)), idx, 0.0);
            }
        }
        let mut oct = [[[zero; 3]; 3]; 3];
        if use_octupole {
            for i in 0..3 {
                for j in 0..3 {
                    for k in 0..3 {
                        oct[i][j][k] = V::<W>::gather_or(soa.comp(c_oct(i, j, k)), idx, 0.0);
                    }
                }
            }
        }

        let r2 = r[0] * r[0] + r[1] * r[1] + r[2] * r[2];
        // Masked-off lanes may sit at zero distance; give them a harmless
        // radius so no lane divides by zero.  Valid lanes pass through
        // bit-untouched.
        let r2 = Simd::select(valid, r2, V::<W>::splat(1.0));
        let rr = r2.sqrt();
        let inv = V::<W>::splat(1.0) / rr;
        let inv2 = inv * inv;
        let inv3 = inv2 * inv;
        let inv5 = inv3 * inv2;
        let inv7 = inv5 * inv2;
        let inv9 = inv7 * inv2;

        // Source-derivative tensors, expression-for-expression the scalar
        // `Multipole::m2l` (association preserved — bit-equality depends
        // on it).
        let d0 = inv;
        let d1 = [r[0] * inv3, r[1] * inv3, r[2] * inv3];
        let mut d2 = [[zero; 3]; 3];
        for i in 0..3 {
            for j in 0..3 {
                d2[i][j] = V::<W>::splat(3.0) * r[i] * r[j] * inv5 - V::<W>::splat(kd(i, j)) * inv3;
            }
        }
        let mut d3 = [[[zero; 3]; 3]; 3];
        for i in 0..3 {
            for j in 0..3 {
                for k in 0..3 {
                    d3[i][j][k] = V::<W>::splat(15.0) * r[i] * r[j] * r[k] * inv7
                        - V::<W>::splat(3.0)
                            * (V::<W>::splat(kd(i, j)) * r[k]
                                + V::<W>::splat(kd(i, k)) * r[j]
                                + V::<W>::splat(kd(j, k)) * r[i])
                            * inv5;
                }
            }
        }

        // L0 = φ(center).
        let mut l0 = m * d0;
        for i in 0..3 {
            for j in 0..3 {
                l0 += V::<W>::splat(0.5) * quad[i][j] * d2[i][j];
            }
        }
        if use_octupole {
            for i in 0..3 {
                for j in 0..3 {
                    for k in 0..3 {
                        l0 += oct[i][j][k] * d3[i][j][k] / 6.0;
                    }
                }
            }
        }
        let l0 = V::<W>::splat(-G) * l0;

        // L1_i = G [M D1 + ½ S:D3 + (1/6) T:D4].
        let mut l1 = [zero; 3];
        for i in 0..3 {
            let mut v = m * d1[i];
            for j in 0..3 {
                for k in 0..3 {
                    v += V::<W>::splat(0.5) * quad[j][k] * d3[i][j][k];
                }
            }
            if use_octupole {
                for j in 0..3 {
                    for k in 0..3 {
                        for l in 0..3 {
                            v += oct[j][k][l] * d4_comp(&r, inv5, inv7, inv9, i, j, k, l) / 6.0;
                        }
                    }
                }
            }
            l1[i] = V::<W>::splat(G) * v;
        }

        // L2_ij = −G [M D2 + ½ S:D4].
        let mut l2 = [[zero; 3]; 3];
        for i in 0..3 {
            for j in 0..3 {
                let mut v = m * d2[i][j];
                for k in 0..3 {
                    for l in 0..3 {
                        v += V::<W>::splat(0.5)
                            * quad[k][l]
                            * d4_comp(&r, inv5, inv7, inv9, i, j, k, l);
                    }
                }
                l2[i][j] = V::<W>::splat(-G) * v;
            }
        }

        // L3_ijk = G M D3.
        let mut l3 = [[[zero; 3]; 3]; 3];
        for i in 0..3 {
            for j in 0..3 {
                for k in 0..3 {
                    l3[i][j][k] = V::<W>::splat(G) * m * d3[i][j][k];
                }
            }
        }

        // Stripe-blocked accumulation: lane `l` of this chunk is source
        // `off + l`, which lands in stripe `(off + l) % 8` at any width
        // (`W` divides 8 and chunks advance by `W`).  At `W = 8` each of
        // these loops is a single vector add; masked lanes hold exact
        // `±0.0` contributions, so no per-lane skip is needed.  The
        // full-width stripe base must be a compile-time zero — a dynamic
        // `off % STRIPES` reads as a scatter and scalarizes the adds.
        let s0 = if W == STRIPES { 0 } else { off % STRIPES };
        for l in 0..lanes {
            acc0[s0 + l] += l0[l];
        }
        for i in 0..3 {
            for l in 0..lanes {
                acc1[i][s0 + l] += l1[i][l];
            }
            for j in 0..3 {
                for l in 0..lanes {
                    acc2[i][j][s0 + l] += l2[i][j][l];
                }
                for k in 0..3 {
                    for l in 0..lanes {
                        acc3[i][j][k][s0 + l] += l3[i][j][k][l];
                    }
                }
            }
        }
    }

    // Fixed-order fold of the stripes into the target expansion.
    out.l0 += fold_stripes(&acc0);
    for i in 0..3 {
        out.l1[i] += fold_stripes(&acc1[i]);
        for j in 0..3 {
            out.l2[i][j] += fold_stripes(&acc2[i][j]);
            for k in 0..3 {
                out.l3[i][j][k] += fold_stripes(&acc3[i][j][k]);
            }
        }
    }
}

sve_simd::wide_dispatch! {
    /// [`m2l_accumulate_w::<8>`] entered under the host's widest vector
    /// ISA — the "SVE build" half of the Figure 7 pair (see
    /// [`sve_simd::isa`]).
    pub fn m2l_accumulate_wide(
        soa: &MultipoleSoA,
        sources: &[usize],
        center: [f64; 3],
        use_octupole: bool,
        out: &mut LocalExpansion
    ) = m2l_accumulate_w::<SVE_LANES_F64>
}

/// [`m2l_accumulate_w`] dispatched on a [`sve_simd::VectorMode`].
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

    /// The scalar reference: the exact loop the solver ran before this
    /// kernel existed.
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

    fn assert_bit_eq(a: &LocalExpansion, b: &LocalExpansion, what: &str) {
        assert_eq!(a.l0.to_bits(), b.l0.to_bits(), "{what}: l0");
        for i in 0..3 {
            assert_eq!(a.l1[i].to_bits(), b.l1[i].to_bits(), "{what}: l1[{i}]");
            for j in 0..3 {
                assert_eq!(
                    a.l2[i][j].to_bits(),
                    b.l2[i][j].to_bits(),
                    "{what}: l2[{i}][{j}]"
                );
                for k in 0..3 {
                    assert_eq!(
                        a.l3[i][j][k].to_bits(),
                        b.l3[i][j][k].to_bits(),
                        "{what}: l3[{i}][{j}][{k}]"
                    );
                }
            }
        }
    }

    /// Close to within `rel` relative error (for comparing against the
    /// serial reference, whose fold association differs from the stripes).
    fn assert_close(a: &LocalExpansion, b: &LocalExpansion, rel: f64, what: &str) {
        let ok = |x: f64, y: f64| (x - y).abs() <= rel * x.abs().max(y.abs()).max(1e-300);
        assert!(ok(a.l0, b.l0), "{what}: l0 {} vs {}", a.l0, b.l0);
        for i in 0..3 {
            assert!(ok(a.l1[i], b.l1[i]), "{what}: l1[{i}]");
            for j in 0..3 {
                assert!(ok(a.l2[i][j], b.l2[i][j]), "{what}: l2[{i}][{j}]");
                for k in 0..3 {
                    assert!(
                        ok(a.l3[i][j][k], b.l3[i][j][k]),
                        "{what}: l3[{i}][{j}][{k}]"
                    );
                }
            }
        }
    }

    #[test]
    fn widths_match_each_other_bitwise_and_reference_closely() {
        // Source-list lengths straddling every tail shape, with and
        // without the octupole term.  The two widths must agree *bitwise*
        // (they execute the same stripe-blocked addition sequence); the
        // serial reference folds in a different association, so it is only
        // required to agree to rounding.
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
        let mps = make_multipoles(5);
        let mut soa = MultipoleSoA::default();
        soa.fill(&mps);
        assert_eq!(soa.len(), 5);
        for (s, mp) in mps.iter().enumerate() {
            assert_eq!(soa.comp(C_M)[s], mp.m);
            for a in 0..3 {
                assert_eq!(soa.comp(c_com(a))[s], mp.com[a]);
            }
            assert_eq!(soa.comp(c_quad(2, 1))[s], mp.quad[2][1]);
            assert_eq!(soa.comp(c_oct(1, 0, 2))[s], mp.oct[1][0][2]);
        }
        // Refilling with fewer entries shrinks cleanly.
        soa.fill(&mps[..2]);
        assert_eq!(soa.len(), 2);
        assert_eq!(soa.comp(C_M).len(), 2);
    }
}
