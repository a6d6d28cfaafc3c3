//! Cartesian multipole expansions through octupole order and Taylor local
//! expansions through third order.
//!
//! The octupole term exists because of the paper's angular-momentum story:
//! Octo-Tiger's FMM modification that conserves angular momentum "requires
//! \[it\] to also compute the octupole moment with the lower moments"
//! (Section IV-C).  [`Multipole::m2l`] therefore takes a `use_octupole`
//! flag; the ablation benchmark compares accuracy with and without it.

use crate::units::G;

type V3 = [f64; 3];
type M33 = [[f64; 3]; 3];
type T333 = [[[f64; 3]; 3]; 3];

/// Multipole moments of a mass distribution about its center of mass:
/// total mass, second moment `S_ij = Σ m δ_i δ_j`, and third moment
/// `T_ijk = Σ m δ_i δ_j δ_k` (the octupole).
#[derive(Debug, Clone, PartialEq)]
pub struct Multipole {
    /// Total mass.
    pub m: f64,
    /// Center of mass (global coordinates).
    pub com: V3,
    /// Second moment about the COM.
    pub quad: M33,
    /// Third moment about the COM.
    pub oct: T333,
}

impl Multipole {
    /// The empty expansion (zero mass at the given position).
    pub fn zero(at: V3) -> Multipole {
        Multipole {
            m: 0.0,
            com: at,
            quad: [[0.0; 3]; 3],
            oct: [[[0.0; 3]; 3]; 3],
        }
    }

    /// P2M: moments of a set of point masses.
    pub fn from_points(points: &[(V3, f64)]) -> Multipole {
        let mut m = 0.0;
        let mut com = [0.0; 3];
        for (x, w) in points {
            m += w;
            for a in 0..3 {
                com[a] += w * x[a];
            }
        }
        if m.abs() < f64::MIN_POSITIVE {
            return Multipole::zero([0.0; 3]);
        }
        for c in &mut com {
            *c /= m;
        }
        let mut quad = [[0.0; 3]; 3];
        let mut oct = [[[0.0; 3]; 3]; 3];
        for (x, w) in points {
            let d = [x[0] - com[0], x[1] - com[1], x[2] - com[2]];
            for i in 0..3 {
                for j in 0..3 {
                    quad[i][j] += w * d[i] * d[j];
                    for k in 0..3 {
                        oct[i][j][k] += w * d[i] * d[j] * d[k];
                    }
                }
            }
        }
        Multipole { m, com, quad, oct }
    }

    /// P2M straight from a SoA point run — the leaf layout the rest of the
    /// gravity module already uses, whole or one tile of it — so the upward
    /// pass needs no per-leaf AoS marshalling copy.  Performs the same
    /// accumulations in the same order as [`Multipole::from_points`], so
    /// the two are bit-identical.
    pub fn from_soa(points: crate::gravity::direct::PointsRef<'_>) -> Multipole {
        let mut m = 0.0;
        let mut com = [0.0; 3];
        for c in 0..points.len() {
            let w = points.ms[c];
            m += w;
            com[0] += w * points.xs[c];
            com[1] += w * points.ys[c];
            com[2] += w * points.zs[c];
        }
        if m.abs() < f64::MIN_POSITIVE {
            return Multipole::zero([0.0; 3]);
        }
        for c in &mut com {
            *c /= m;
        }
        let mut quad = [[0.0; 3]; 3];
        let mut oct = [[[0.0; 3]; 3]; 3];
        for c in 0..points.len() {
            let w = points.ms[c];
            let d = [
                points.xs[c] - com[0],
                points.ys[c] - com[1],
                points.zs[c] - com[2],
            ];
            for i in 0..3 {
                for j in 0..3 {
                    quad[i][j] += w * d[i] * d[j];
                    for k in 0..3 {
                        oct[i][j][k] += w * d[i] * d[j] * d[k];
                    }
                }
            }
        }
        Multipole { m, com, quad, oct }
    }

    /// M2M: combine child expansions into one about the children's common
    /// center of mass.
    pub(crate) fn combine(children: &[&Multipole]) -> Multipole {
        let mut m = 0.0;
        let mut com = [0.0; 3];
        for c in children {
            m += c.m;
            for a in 0..3 {
                com[a] += c.m * c.com[a];
            }
        }
        if m.abs() < f64::MIN_POSITIVE {
            // Massless region: keep a well-defined geometric anchor.
            let anchor = children.first().map(|c| c.com).unwrap_or([0.0; 3]);
            return Multipole::zero(anchor);
        }
        for c in &mut com {
            *c /= m;
        }
        let mut quad = [[0.0; 3]; 3];
        let mut oct = [[[0.0; 3]; 3]; 3];
        for c in children {
            let d = [c.com[0] - com[0], c.com[1] - com[1], c.com[2] - com[2]];
            for i in 0..3 {
                for j in 0..3 {
                    quad[i][j] += c.quad[i][j] + c.m * d[i] * d[j];
                    for k in 0..3 {
                        // Parallel-axis shift of the third moment.
                        oct[i][j][k] += c.oct[i][j][k]
                            + d[i] * c.quad[j][k]
                            + d[j] * c.quad[i][k]
                            + d[k] * c.quad[i][j]
                            + c.m * d[i] * d[j] * d[k];
                    }
                }
            }
        }
        Multipole { m, com, quad, oct }
    }

    /// M2L: the Taylor local expansion of this source's potential about
    /// `center`.  `use_octupole` adds the third-moment contributions (the
    /// paper's angular-momentum-conserving extension).
    pub fn m2l(&self, center: V3, use_octupole: bool) -> LocalExpansion {
        let r = [
            center[0] - self.com[0],
            center[1] - self.com[1],
            center[2] - self.com[2],
        ];
        let r2 = r[0] * r[0] + r[1] * r[1] + r[2] * r[2];
        let rr = r2.sqrt();
        debug_assert!(rr > 0.0, "M2L at the source location");
        let inv = 1.0 / rr;
        let inv2 = inv * inv;
        let inv3 = inv2 * inv;
        let inv5 = inv3 * inv2;
        let inv7 = inv5 * inv2;
        let inv9 = inv7 * inv2;
        let kd = |a: usize, b: usize| if a == b { 1.0 } else { 0.0 };

        // Source-derivative tensors Dn = ∂ⁿ/∂sⁿ (1/|t−s|) at s = com.
        let d0 = inv;
        let d1 = [r[0] * inv3, r[1] * inv3, r[2] * inv3];
        let mut d2 = [[0.0; 3]; 3];
        for i in 0..3 {
            for j in 0..3 {
                d2[i][j] = 3.0 * r[i] * r[j] * inv5 - kd(i, j) * inv3;
            }
        }
        let mut d3 = [[[0.0; 3]; 3]; 3];
        for i in 0..3 {
            for j in 0..3 {
                for k in 0..3 {
                    d3[i][j][k] = 15.0 * r[i] * r[j] * r[k] * inv7
                        - 3.0 * (kd(i, j) * r[k] + kd(i, k) * r[j] + kd(j, k) * r[i]) * inv5;
                }
            }
        }
        // D4 contracted on demand (it only ever appears contracted with the
        // symmetric quad/oct tensors).
        let d4 = |i: usize, j: usize, k: usize, l: usize| {
            105.0 * r[i] * r[j] * r[k] * r[l] * inv9
                - 15.0
                    * (kd(i, j) * r[k] * r[l]
                        + kd(i, k) * r[j] * r[l]
                        + kd(i, l) * r[j] * r[k]
                        + kd(j, k) * r[i] * r[l]
                        + kd(j, l) * r[i] * r[k]
                        + kd(k, l) * r[i] * r[j])
                    * inv7
                + 3.0 * (kd(i, j) * kd(k, l) + kd(i, k) * kd(j, l) + kd(i, l) * kd(j, k)) * inv5
        };

        // L0 = φ(center).
        let mut l0 = self.m * d0;
        for i in 0..3 {
            for j in 0..3 {
                l0 += 0.5 * self.quad[i][j] * d2[i][j];
            }
        }
        if use_octupole {
            for i in 0..3 {
                for j in 0..3 {
                    for k in 0..3 {
                        l0 += self.oct[i][j][k] * d3[i][j][k] / 6.0;
                    }
                }
            }
        }
        let l0 = -G * l0;

        // L1_i = ∂φ/∂t_i = G [M D1 + ½ S:D3 + (1/6) T:D4].
        let mut l1 = [0.0; 3];
        for i in 0..3 {
            let mut v = self.m * d1[i];
            for j in 0..3 {
                for k in 0..3 {
                    v += 0.5 * self.quad[j][k] * d3[i][j][k];
                }
            }
            if use_octupole {
                for j in 0..3 {
                    for k in 0..3 {
                        for l in 0..3 {
                            v += self.oct[j][k][l] * d4(i, j, k, l) / 6.0;
                        }
                    }
                }
            }
            l1[i] = G * v;
        }

        // L2_ij = ∂²φ = −G [M D2 + ½ S:D4]   (octupole term is order 5 — dropped).
        let mut l2 = [[0.0; 3]; 3];
        for i in 0..3 {
            for j in 0..3 {
                let mut v = self.m * d2[i][j];
                for k in 0..3 {
                    for l in 0..3 {
                        v += 0.5 * self.quad[k][l] * d4(i, j, k, l);
                    }
                }
                l2[i][j] = -G * v;
            }
        }

        // L3_ijk = ∂³φ = G M D3 (monopole only at this order).
        let mut l3 = [[[0.0; 3]; 3]; 3];
        for i in 0..3 {
            for j in 0..3 {
                for k in 0..3 {
                    l3[i][j][k] = G * self.m * d3[i][j][k];
                }
            }
        }

        LocalExpansion { l0, l1, l2, l3 }
    }
}

impl Multipole {
    /// `f64` words in the flat parcel encoding: mass, COM, quadrupole,
    /// octupole.
    pub(crate) const FLAT_LEN: usize = 1 + 3 + 9 + 27;

    /// Append the flat parcel encoding to `out` — exact bit copies, so a
    /// multipole shipped to another locality contributes identically to
    /// one read from local memory (the distributed-equivalence invariant).
    pub(crate) fn write_flat(&self, out: &mut Vec<f64>) {
        out.push(self.m);
        out.extend_from_slice(&self.com);
        for row in &self.quad {
            out.extend_from_slice(row);
        }
        for plane in &self.oct {
            for row in plane {
                out.extend_from_slice(row);
            }
        }
    }

    /// Decode the first [`Multipole::FLAT_LEN`] words of `buf`.
    pub(crate) fn read_flat(buf: &[f64]) -> Multipole {
        let mut it = buf.iter().copied();
        let mut next = || it.next().expect("flat multipole truncated");
        let m = next();
        let com = [next(), next(), next()];
        let mut quad = [[0.0; 3]; 3];
        for row in &mut quad {
            for v in row {
                *v = next();
            }
        }
        let mut oct = [[[0.0; 3]; 3]; 3];
        for plane in &mut oct {
            for row in plane {
                for v in row {
                    *v = next();
                }
            }
        }
        Multipole { m, com, quad, oct }
    }
}

/// Taylor expansion of the far-field potential about a node center:
/// `φ(x) = L0 + L1·x + ½ xᵀL2 x + (1/6) L3 ⋮ xxx`.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalExpansion {
    pub l0: f64,
    pub l1: V3,
    pub l2: M33,
    pub l3: T333,
}

impl LocalExpansion {
    /// The zero expansion.
    pub fn zero() -> LocalExpansion {
        LocalExpansion {
            l0: 0.0,
            l1: [0.0; 3],
            l2: [[0.0; 3]; 3],
            l3: [[[0.0; 3]; 3]; 3],
        }
    }

    /// Accumulate another expansion about the same center.
    pub(crate) fn add_assign(&mut self, other: &LocalExpansion) {
        self.l0 += other.l0;
        for i in 0..3 {
            self.l1[i] += other.l1[i];
            for j in 0..3 {
                self.l2[i][j] += other.l2[i][j];
                for k in 0..3 {
                    self.l3[i][j][k] += other.l3[i][j][k];
                }
            }
        }
    }

    /// L2L: re-center the expansion at `center + d`.
    pub fn shifted(&self, d: V3) -> LocalExpansion {
        let mut out = LocalExpansion::zero();
        out.l0 = self.l0;
        let mut l1d = 0.0;
        let mut dl2d = 0.0;
        let mut dl3dd = 0.0;
        for i in 0..3 {
            l1d += self.l1[i] * d[i];
            for j in 0..3 {
                dl2d += d[i] * self.l2[i][j] * d[j];
                for k in 0..3 {
                    dl3dd += self.l3[i][j][k] * d[i] * d[j] * d[k];
                }
            }
        }
        out.l0 += l1d + 0.5 * dl2d + dl3dd / 6.0;
        for i in 0..3 {
            let mut v = self.l1[i];
            for j in 0..3 {
                v += self.l2[i][j] * d[j];
                for k in 0..3 {
                    v += 0.5 * self.l3[i][j][k] * d[j] * d[k];
                }
            }
            out.l1[i] = v;
        }
        for i in 0..3 {
            for j in 0..3 {
                let mut v = self.l2[i][j];
                for k in 0..3 {
                    v += self.l3[i][j][k] * d[k];
                }
                out.l2[i][j] = v;
            }
        }
        out.l3 = self.l3;
        out
    }

    /// `f64` words in the flat parcel encoding: L0, L1, L2, L3.
    pub(crate) const FLAT_LEN: usize = 1 + 3 + 9 + 27;

    /// Append the flat parcel encoding to `out` (exact bit copies).
    pub(crate) fn write_flat(&self, out: &mut Vec<f64>) {
        out.push(self.l0);
        out.extend_from_slice(&self.l1);
        for row in &self.l2 {
            out.extend_from_slice(row);
        }
        for plane in &self.l3 {
            for row in plane {
                out.extend_from_slice(row);
            }
        }
    }

    /// Decode the first [`LocalExpansion::FLAT_LEN`] words of `buf`.
    pub(crate) fn read_flat(buf: &[f64]) -> LocalExpansion {
        let mut it = buf.iter().copied();
        let mut next = || it.next().expect("flat local expansion truncated");
        let l0 = next();
        let l1 = [next(), next(), next()];
        let mut l2 = [[0.0; 3]; 3];
        for row in &mut l2 {
            for v in row {
                *v = next();
            }
        }
        let mut l3 = [[[0.0; 3]; 3]; 3];
        for plane in &mut l3 {
            for row in plane {
                for v in row {
                    *v = next();
                }
            }
        }
        LocalExpansion { l0, l1, l2, l3 }
    }

    /// Evaluate potential and gravitational acceleration at offset `x` from
    /// the expansion center.
    pub fn evaluate(&self, x: V3) -> (f64, V3) {
        let mut phi = self.l0;
        let mut grad = [0.0; 3];
        for i in 0..3 {
            phi += self.l1[i] * x[i];
            grad[i] += self.l1[i];
            for j in 0..3 {
                phi += 0.5 * self.l2[i][j] * x[i] * x[j];
                grad[i] += self.l2[i][j] * x[j];
                for k in 0..3 {
                    phi += self.l3[i][j][k] * x[i] * x[j] * x[k] / 6.0;
                    grad[i] += 0.5 * self.l3[i][j][k] * x[j] * x[k];
                }
            }
        }
        (phi, [-grad[0], -grad[1], -grad[2]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_encodings_round_trip_bit_exactly() {
        let mp = Multipole::from_points(&[
            ([0.1, -0.4, 0.9], 2.5),
            ([-0.7, 0.3, 0.2], 1.25),
            ([0.5, 0.5, -0.5], 0.75),
        ]);
        let mut wire = Vec::new();
        mp.write_flat(&mut wire);
        assert_eq!(wire.len(), Multipole::FLAT_LEN);
        let back = Multipole::read_flat(&wire);
        assert_eq!(back.m.to_bits(), mp.m.to_bits());
        assert_eq!(back.com, mp.com);
        assert_eq!(back.quad, mp.quad);
        assert_eq!(back.oct, mp.oct);

        let le = mp.m2l([1.5, -2.0, 0.5], true);
        let mut wire = Vec::new();
        le.write_flat(&mut wire);
        assert_eq!(wire.len(), LocalExpansion::FLAT_LEN);
        let back = LocalExpansion::read_flat(&wire);
        assert_eq!(back.l0.to_bits(), le.l0.to_bits());
        assert_eq!(back.l1, le.l1);
        assert_eq!(back.l2, le.l2);
        assert_eq!(back.l3, le.l3);
    }

    #[test]
    fn flat_encodings_concatenate() {
        // Parcels carry one payload per (from, to) pair with many
        // expansions back to back; decoding walks fixed-size windows.
        let a = Multipole::from_points(&[([0.0, 0.0, 1.0], 1.0)]);
        let b = Multipole::from_points(&[([1.0, 0.0, 0.0], 3.0), ([0.0, 2.0, 0.0], 4.0)]);
        let mut wire = Vec::new();
        a.write_flat(&mut wire);
        b.write_flat(&mut wire);
        assert_eq!(wire.len(), 2 * Multipole::FLAT_LEN);
        let a2 = Multipole::read_flat(&wire[..Multipole::FLAT_LEN]);
        let b2 = Multipole::read_flat(&wire[Multipole::FLAT_LEN..]);
        assert_eq!(a2.m, a.m);
        assert_eq!(b2.com, b.com);
    }

    fn direct_phi_g(points: &[(V3, f64)], at: V3) -> (f64, V3) {
        let mut phi = 0.0;
        let mut g = [0.0; 3];
        for (x, m) in points {
            let d = [at[0] - x[0], at[1] - x[1], at[2] - x[2]];
            let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
            let r = r2.sqrt();
            phi -= G * m / r;
            for a in 0..3 {
                g[a] -= G * m * d[a] / (r2 * r);
            }
        }
        (phi, g)
    }

    #[test]
    fn monopole_reproduces_point_mass() {
        let mp = Multipole::from_points(&[([1.0, 2.0, 3.0], 5.0)]);
        assert_eq!(mp.m, 5.0);
        assert_eq!(mp.com, [1.0, 2.0, 3.0]);
        let target = [4.0, 2.0, 3.0];
        let local = mp.m2l(target, true);
        let (phi, g) = local.evaluate([0.0; 3]);
        // φ = −G·5/3, g points from target toward the mass (−x direction).
        assert!((phi + 5.0 / 3.0).abs() < 1e-14);
        assert!((g[0] + 5.0 / 9.0).abs() < 1e-13);
        assert!(g[1].abs() < 1e-14 && g[2].abs() < 1e-14);
    }

    #[test]
    fn p2m_moments_of_symmetric_pair() {
        let pts = [([-1.0, 0.0, 0.0], 1.0), ([1.0, 0.0, 0.0], 1.0)];
        let mp = Multipole::from_points(&pts);
        assert_eq!(mp.m, 2.0);
        assert_eq!(mp.com, [0.0, 0.0, 0.0]);
        assert!((mp.quad[0][0] - 2.0).abs() < 1e-14);
        assert_eq!(mp.quad[1][1], 0.0);
        // Symmetric pair: octupole vanishes.
        for i in 0..3 {
            for j in 0..3 {
                for k in 0..3 {
                    assert!(mp.oct[i][j][k].abs() < 1e-14);
                }
            }
        }
    }

    #[test]
    fn from_soa_is_bit_identical_to_from_points() {
        use crate::gravity::direct::PointMasses;
        let mut soa = PointMasses::default();
        let mut aos = Vec::new();
        for i in 0..37 {
            let f = i as f64;
            let x = [0.3 * f.sin(), 0.2 * (1.7 * f).cos(), 0.1 * (0.9 * f).sin()];
            let m = 1.0 + 0.05 * (2.3 * f).cos();
            soa.push(x, m);
            aos.push((x, m));
        }
        let a = Multipole::from_soa(soa.view());
        let b = Multipole::from_points(&aos);
        assert_eq!(a.m.to_bits(), b.m.to_bits());
        for c in 0..3 {
            assert_eq!(a.com[c].to_bits(), b.com[c].to_bits());
        }
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(a.quad[i][j].to_bits(), b.quad[i][j].to_bits());
                for k in 0..3 {
                    assert_eq!(a.oct[i][j][k].to_bits(), b.oct[i][j][k].to_bits());
                }
            }
        }
        // The massless early-out matches too.
        let empty = Multipole::from_soa(PointMasses::default().view());
        assert_eq!(empty, Multipole::from_points(&[]));
    }

    #[test]
    fn m2m_matches_direct_p2m() {
        // Moments computed hierarchically must equal moments from all
        // points at once.
        let cloud1 = [([0.1, 0.2, 0.3], 1.0), ([0.4, 0.1, 0.2], 2.0)];
        let cloud2 = [([2.0, 2.1, 1.9], 1.5), ([2.2, 1.8, 2.0], 0.5)];
        let m1 = Multipole::from_points(&cloud1);
        let m2 = Multipole::from_points(&cloud2);
        let combined = Multipole::combine(&[&m1, &m2]);
        let all: Vec<(V3, f64)> = cloud1.iter().chain(cloud2.iter()).copied().collect();
        let reference = Multipole::from_points(&all);
        assert!((combined.m - reference.m).abs() < 1e-14);
        for a in 0..3 {
            assert!((combined.com[a] - reference.com[a]).abs() < 1e-14);
        }
        for i in 0..3 {
            for j in 0..3 {
                assert!(
                    (combined.quad[i][j] - reference.quad[i][j]).abs() < 1e-12,
                    "quad {i}{j}"
                );
                for k in 0..3 {
                    assert!(
                        (combined.oct[i][j][k] - reference.oct[i][j][k]).abs() < 1e-12,
                        "oct {i}{j}{k}"
                    );
                }
            }
        }
    }

    #[test]
    fn m2l_converges_to_direct_sum_with_distance() {
        // A small asymmetric cloud evaluated at increasing distance: the
        // truncation error must fall rapidly.
        let cloud = [
            ([0.0, 0.0, 0.0], 1.0),
            ([0.3, 0.1, 0.0], 0.5),
            ([0.1, 0.25, 0.2], 0.8),
            ([-0.2, 0.1, -0.15], 0.3),
        ];
        let mp = Multipole::from_points(&cloud);
        let mut prev_err = f64::INFINITY;
        for dist in [2.0, 4.0, 8.0] {
            let target = [dist, 0.7, -0.3];
            let local = mp.m2l(target, true);
            let (phi_fmm, g_fmm) = local.evaluate([0.0; 3]);
            let (phi_ref, g_ref) = direct_phi_g(&cloud, target);
            let gerr = (0..3)
                .map(|a| (g_fmm[a] - g_ref[a]).powi(2))
                .sum::<f64>()
                .sqrt()
                / (0..3).map(|a| g_ref[a].powi(2)).sum::<f64>().sqrt();
            assert!((phi_fmm - phi_ref).abs() / phi_ref.abs() < 1e-2);
            assert!(gerr < prev_err, "error must shrink with distance");
            prev_err = gerr;
        }
        assert!(prev_err < 1e-5, "far-field error too large: {prev_err}");
    }

    #[test]
    fn octupole_improves_accuracy_for_asymmetric_source() {
        // The angular-momentum octupole term must reduce the potential
        // error of a lopsided source.
        let cloud = [
            ([0.0, 0.0, 0.0], 1.0),
            ([0.45, 0.0, 0.0], 0.1), // strongly asymmetric
        ];
        let mp = Multipole::from_points(&cloud);
        let target = [2.5, 0.4, 0.1];
        let (phi_ref, _) = direct_phi_g(&cloud, target);
        let err_without = (mp.m2l(target, false).evaluate([0.0; 3]).0 - phi_ref).abs();
        let err_with = (mp.m2l(target, true).evaluate([0.0; 3]).0 - phi_ref).abs();
        assert!(
            err_with < err_without,
            "octupole should help: {err_with} vs {err_without}"
        );
    }

    #[test]
    fn l2l_shift_preserves_field_values() {
        // Shifting a local expansion and evaluating at the complementary
        // offset must give (nearly) the same value.
        let cloud = [([0.0, 0.0, 0.0], 2.0), ([0.2, -0.1, 0.3], 1.0)];
        let mp = Multipole::from_points(&cloud);
        let center = [3.0, 1.0, -2.0];
        let local = mp.m2l(center, true);
        let d = [0.1, -0.05, 0.08];
        let shifted = local.shifted(d);
        let x = [0.03, 0.02, -0.04];
        let (phi_a, g_a) = local.evaluate([x[0] + d[0], x[1] + d[1], x[2] + d[2]]);
        let (phi_b, g_b) = shifted.evaluate(x);
        // Exact for the polynomial part up to the truncation order.
        assert!((phi_a - phi_b).abs() < 1e-10, "{phi_a} vs {phi_b}");
        for a in 0..3 {
            assert!((g_a[a] - g_b[a]).abs() < 1e-10);
        }
    }

    #[test]
    fn add_assign_accumulates() {
        let mp = Multipole::from_points(&[([0.0; 3], 1.0)]);
        let a = mp.m2l([2.0, 0.0, 0.0], false);
        let mut sum = LocalExpansion::zero();
        sum.add_assign(&a);
        sum.add_assign(&a);
        assert!((sum.l0 - 2.0 * a.l0).abs() < 1e-14);
        assert!((sum.l1[0] - 2.0 * a.l1[0]).abs() < 1e-14);
    }

    #[test]
    fn zero_mass_cloud_is_harmless() {
        let mp = Multipole::from_points(&[]);
        assert_eq!(mp.m, 0.0);
        let local = mp.m2l([1.0, 1.0, 1.0], true);
        let (phi, g) = local.evaluate([0.0; 3]);
        assert_eq!(phi, 0.0);
        assert_eq!(g, [0.0; 3]);
    }

    #[test]
    fn gravitational_field_is_curl_free_in_far_zone() {
        // The local expansion's L2 must be symmetric (∂g_i/∂x_j = ∂g_j/∂x_i).
        let cloud = [([0.0; 3], 1.0), ([0.3, 0.2, 0.1], 2.0)];
        let mp = Multipole::from_points(&cloud);
        let local = mp.m2l([4.0, -1.0, 2.0], true);
        for i in 0..3 {
            for j in 0..3 {
                assert!(
                    (local.l2[i][j] - local.l2[j][i]).abs() < 1e-12,
                    "L2 not symmetric at ({i},{j})"
                );
            }
        }
    }
}
