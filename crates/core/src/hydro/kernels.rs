//! The per-leaf compute kernels, width-generic over `Simd<f64, W>`.
//!
//! These are the Rust analogues of Octo-Tiger's Kokkos hydro kernels: the
//! same kernel source is instantiated for the scalar width (`W = 1`) and
//! the A64FX SVE width (`W = 8`).  Vectorization runs along the contiguous
//! `k` index of the sub-grid; reconstruction stencils along `x`/`y` load
//! the same contiguous lanes at strided base offsets, exactly as the SVE
//! kernels do on A64FX.

use super::flux::{hll_flux, PrimLanes};
use super::recon::reconstruct_interface;
use super::rotating;
use super::SourceInput;
use crate::state::{field, DUAL_ENERGY_SWITCH, NF};
use crate::units::{GAMMA, P_FLOOR, RHO_FLOOR};
use kokkos_rs::pool::{Recycled, ScratchArena};
use octree::SubGrid;
use sve_simd::{ChunkedLanes, Mask, Simd};

/// Number of primitive-variable arrays the kernels recover.
const NPRIM: usize = 8;

/// Pooled scratch for one leaf's RHS evaluation: the primitive arrays
/// (`NPRIM` fields over the ghosted block) and the flux arrays (`3 × NF`
/// interface fields), each one flat recycled buffer instead of the nested
/// per-field `Vec`s this kernel used to allocate per call.
///
/// Owned by the leaf's workspace in the stepper; checked out of the
/// simulation's [`ScratchArena`] once and reused every stage of every step.
#[derive(Debug)]
pub struct KernelScratch {
    prim: Recycled<f64>,
    flux: Recycled<f64>,
}

impl KernelScratch {
    /// Scratch for an `n`-cell leaf with `ghost` ghost width, checked out
    /// of `pool` (returned to it on drop).
    pub(crate) fn new(n: usize, ghost: usize, pool: &ScratchArena) -> KernelScratch {
        let ext3 = (n + 2 * ghost).pow(3);
        KernelScratch {
            prim: pool.checkout(NPRIM * ext3),
            flux: pool.checkout(3 * NF * ext3),
        }
    }

    /// Unpooled scratch that frees on drop — for tests, benches, and other
    /// one-off RHS evaluations outside a stepper workspace.
    pub fn ephemeral(n: usize, ghost: usize) -> KernelScratch {
        let ext3 = (n + 2 * ghost).pow(3);
        KernelScratch {
            prim: Recycled::detached(vec![0.0; NPRIM * ext3]),
            flux: Recycled::detached(vec![0.0; 3 * NF * ext3]),
        }
    }

    /// `true` if this scratch is sized for an `n`/`ghost` leaf.
    pub(crate) fn fits(&self, n: usize, ghost: usize) -> bool {
        let ext3 = (n + 2 * ghost).pow(3);
        self.prim.len() == NPRIM * ext3 && self.flux.len() == 3 * NF * ext3
    }
}

/// Immutable per-variable slices into the flat primitive scratch.
struct PrimSlices<'a> {
    rho: &'a [f64],
    vx: &'a [f64],
    vy: &'a [f64],
    vz: &'a [f64],
    p: &'a [f64],
    tau: &'a [f64],
    f1: &'a [f64],
    f2: &'a [f64],
}

fn prim_slices(prim: &[f64], len: usize) -> PrimSlices<'_> {
    debug_assert_eq!(prim.len(), NPRIM * len);
    let mut it = prim.chunks_exact(len);
    PrimSlices {
        rho: it.next().expect("prim slice"),
        vx: it.next().expect("prim slice"),
        vy: it.next().expect("prim slice"),
        vz: it.next().expect("prim slice"),
        p: it.next().expect("prim slice"),
        tau: it.next().expect("prim slice"),
        f1: it.next().expect("prim slice"),
        f2: it.next().expect("prim slice"),
    }
}

/// Recover primitives over the whole ghosted block into the flat `prim`
/// scratch (vectorized; the dual-energy `τ^γ` branch is a per-lane `powf`).
/// Layout: `NPRIM` consecutive blocks of `ext³` in [`prim_slices`] order.
#[inline(always)]
fn primitives_w<const W: usize>(u: &SubGrid, prim: &mut [f64]) {
    let len = u.ext().pow(3);
    debug_assert_eq!(prim.len(), NPRIM * len);
    let mut it = prim.chunks_exact_mut(len);
    let out_rho = it.next().expect("prim slice");
    let out_vx = it.next().expect("prim slice");
    let out_vy = it.next().expect("prim slice");
    let out_vz = it.next().expect("prim slice");
    let out_p = it.next().expect("prim slice");
    let out_tau = it.next().expect("prim slice");
    let out_f1 = it.next().expect("prim slice");
    let out_f2 = it.next().expect("prim slice");
    let rho_c = u.field(field::RHO);
    let sx = u.field(field::SX);
    let sy = u.field(field::SY);
    let sz = u.field(field::SZ);
    let egas = u.field(field::EGAS);
    let tau_c = u.field(field::TAU);
    let f1_c = u.field(field::FRAC1);
    let f2_c = u.field(field::FRAC2);

    let gamma_m1 = Simd::<f64, W>::splat(GAMMA - 1.0);
    let half = Simd::<f64, W>::splat(0.5);
    let floor_rho = Simd::<f64, W>::splat(RHO_FLOOR);
    let floor_p = Simd::<f64, W>::splat(P_FLOOR);
    let switch = Simd::<f64, W>::splat(DUAL_ENERGY_SWITCH);

    for (off, lanes) in ChunkedLanes::<W>::new(len) {
        // Direct `load_lanes`/`store_lanes` calls, not closures: a closure
        // cannot be `inline(always)` and stays out-of-line inside the
        // `#[target_feature]` wide entry points, scalarizing the chunk.
        let rho = load_lanes::<W>(rho_c, off, lanes).simd_max(floor_rho);
        let inv_rho = Simd::splat(1.0) / rho;
        let vx = load_lanes::<W>(sx, off, lanes) * inv_rho;
        let vy = load_lanes::<W>(sy, off, lanes) * inv_rho;
        let vz = load_lanes::<W>(sz, off, lanes) * inv_rho;
        let e_tot = load_lanes::<W>(egas, off, lanes);
        let kinetic = half * rho * (vx * vx + vy * vy + vz * vz);
        let e_direct = e_tot - kinetic;
        let tau = load_lanes::<W>(tau_c, off, lanes);
        // Dual-energy switch: trust E−K unless it is a tiny fraction of E.
        let use_direct = e_direct.simd_gt(switch * e_tot.abs());
        // The entropy fallback is a per-lane libm `powf` — by far the most
        // expensive op in this kernel.  Skip it when every lane trusts E−K
        // (the common case); the select picks `e_direct` on those lanes
        // anyway, so the guard cannot change any stored bit at any width.
        let e = if use_direct.all() {
            e_direct
        } else {
            let e_entropy = tau.simd_max(Simd::splat(0.0)).map(|t| t.powf(GAMMA));
            Simd::select(use_direct, e_direct, e_entropy)
        };
        let p = (gamma_m1 * e).simd_max(floor_p);
        store_lanes::<W>(rho, out_rho, off, lanes);
        store_lanes::<W>(vx, out_vx, off, lanes);
        store_lanes::<W>(vy, out_vy, off, lanes);
        store_lanes::<W>(vz, out_vz, off, lanes);
        store_lanes::<W>(p, out_p, off, lanes);
        store_lanes::<W>(tau, out_tau, off, lanes);
        store_lanes::<W>(load_lanes::<W>(f1_c, off, lanes), out_f1, off, lanes);
        store_lanes::<W>(load_lanes::<W>(f2_c, off, lanes), out_f2, off, lanes);
    }
}

/// Load `W` lanes (contiguous along k) from `src` at flat position `base`,
/// `lanes` of them valid.  Remainder chunks load under a `whilelt`-style
/// tail mask ([`Mask::first_n`]); padded lanes read as zero and never touch
/// memory past the valid range.
#[inline(always)]
fn load_lanes<const W: usize>(src: &[f64], base: usize, lanes: usize) -> Simd<f64, W> {
    if lanes == W {
        Simd::from_slice(&src[base..])
    } else {
        Simd::load_select(&src[base..base + lanes], Mask::first_n(lanes), 0.0)
    }
}

/// Store the first `lanes` lanes of `v` at flat position `base`, the
/// masked-store counterpart of [`load_lanes`].
#[inline(always)]
fn store_lanes<const W: usize>(v: Simd<f64, W>, dst: &mut [f64], base: usize, lanes: usize) {
    if lanes == W {
        v.write_to_slice(&mut dst[base..]);
    } else {
        v.store_select(&mut dst[base..base + lanes], Mask::first_n(lanes));
    }
}

/// Reconstruct the (left, right) interface states for one field along
/// `stride` using four strided loads.
#[inline(always)]
fn recon_field<const W: usize>(
    src: &[f64],
    base: usize,
    stride: usize,
    lanes: usize,
) -> (Simd<f64, W>, Simd<f64, W>) {
    let qm2 = load_lanes::<W>(src, base - 2 * stride, lanes);
    let qm1 = load_lanes::<W>(src, base - stride, lanes);
    let q0 = load_lanes::<W>(src, base, lanes);
    let qp1 = load_lanes::<W>(src, base + stride, lanes);
    reconstruct_interface(qm2, qm1, q0, qp1)
}

/// Compute `L(u)` (flux divergence + sources) into `rhs` using the pooled
/// `scratch` buffers; returns the leaf's boundary mass-outflow rate.
#[inline(always)]
pub(crate) fn compute_rhs_w<const W: usize>(
    u: &SubGrid,
    rhs: &mut SubGrid,
    src: &SourceInput<'_>,
    scratch: &mut KernelScratch,
) -> super::RhsInfo {
    let n = u.n();
    let g = u.ghost();
    let ext = u.ext();
    assert!(g >= 2, "hydro needs ghost width >= 2 for reconstruction");
    assert_eq!(rhs.n(), n);
    assert_eq!(rhs.nfields(), NF);
    assert!(
        scratch.fits(n, g),
        "kernel scratch sized for a different leaf"
    );
    let ext2 = ext * ext;
    let ext3 = ext * ext2;
    primitives_w::<W>(u, &mut scratch.prim);
    let prim = prim_slices(&scratch.prim, ext3);
    let strides = [ext2, ext, 1usize];
    let h = src.h;

    // Flux arrays, one flat recycled buffer: block `axis*NF + field` holds
    // flux[cell m] = flux through interface m−1/2 along that axis.  Not
    // zeroed: every position the divergence and outflow loops read (axis
    // coordinate in [g, g+n], transverse coordinates interior) is written
    // by the interface sweep below, so recycled storage cannot leak a
    // previous launch's values — `reused_scratch_is_bit_identical_to_fresh`
    // locks this invariant down.
    let flux = &mut scratch.flux[..];

    for axis in 0..3 {
        let stride = strides[axis];
        // Interface coordinate runs [g, g+n]; transverse coords [g, g+n).
        let ranges: [(usize, usize); 3] = {
            let mut r = [(g, g + n); 3];
            r[axis] = (g, g + n + 1);
            r
        };
        for i in ranges[0].0..ranges[0].1 {
            for j in ranges[1].0..ranges[1].1 {
                let (k_lo, k_hi) = ranges[2];
                for (koff, lanes) in ChunkedLanes::<W>::new(k_hi - k_lo) {
                    let k = k_lo + koff;
                    let base = (i * ext + j) * ext + k;
                    let (rho_l, rho_r) = recon_field::<W>(prim.rho, base, stride, lanes);
                    let (vx_l, vx_r) = recon_field::<W>(prim.vx, base, stride, lanes);
                    let (vy_l, vy_r) = recon_field::<W>(prim.vy, base, stride, lanes);
                    let (vz_l, vz_r) = recon_field::<W>(prim.vz, base, stride, lanes);
                    let (p_l, p_r) = recon_field::<W>(prim.p, base, stride, lanes);
                    let (tau_l, tau_r) = recon_field::<W>(prim.tau, base, stride, lanes);
                    let (f1_l, f1_r) = recon_field::<W>(prim.f1, base, stride, lanes);
                    let (f2_l, f2_r) = recon_field::<W>(prim.f2, base, stride, lanes);
                    let floor_rho = Simd::splat(RHO_FLOOR);
                    let floor_p = Simd::splat(P_FLOOR);
                    let left = PrimLanes {
                        rho: rho_l.simd_max(floor_rho),
                        vx: vx_l,
                        vy: vy_l,
                        vz: vz_l,
                        p: p_l.simd_max(floor_p),
                        tau: tau_l,
                        f1: f1_l,
                        f2: f2_l,
                    };
                    let right = PrimLanes {
                        rho: rho_r.simd_max(floor_rho),
                        vx: vx_r,
                        vy: vy_r,
                        vz: vz_r,
                        p: p_r.simd_max(floor_p),
                        tau: tau_r,
                        f1: f1_r,
                        f2: f2_r,
                    };
                    let (f, _) = hll_flux(axis, &left, &right);
                    for (fi, fv) in f.into_iter().enumerate() {
                        let dst = &mut flux[(axis * NF + fi) * ext3..];
                        store_lanes::<W>(fv, dst, base, lanes);
                    }
                }
            }
        }
    }

    // Flux divergence into the RHS interior, vectorized along k.  The ops
    // are purely elementwise in the same per-element order at every width,
    // so W = 1 and W = 8 stay bit-identical by construction.
    let vinv_h = Simd::<f64, W>::splat(1.0 / h);
    for f in 0..NF {
        let dst = rhs.field_mut(f);
        for i in g..g + n {
            for j in g..g + n {
                let row = (i * ext + j) * ext;
                for (koff, lanes) in ChunkedLanes::<W>::new(n) {
                    let c = row + g + koff;
                    let mut div = Simd::<f64, W>::splat(0.0);
                    for axis in 0..3 {
                        let fl = &flux[(axis * NF + f) * ext3..];
                        div += load_lanes::<W>(fl, c + strides[axis], lanes)
                            - load_lanes::<W>(fl, c, lanes);
                    }
                    store_lanes::<W>(-(div * vinv_h), dst, c, lanes);
                }
            }
        }
    }

    // Sources: gravity and rotating frame (cheap relative to fluxes; scalar).
    rotating::apply_sources(u, rhs, src);

    // Boundary outflow accounting: net mass leaving the domain through this
    // leaf's boundary faces (positive = outflow).
    let area = h * h;
    let mut outflow = 0.0;
    for (face, &is_boundary) in src.boundary_faces.iter().enumerate() {
        if !is_boundary {
            continue;
        }
        let axis = face / 2;
        let positive_side = face % 2 == 1;
        let m = if positive_side { g + n } else { g };
        let fl = &flux[(axis * NF + field::RHO) * ext3..];
        let mut face_flux = 0.0;
        // Sum over the transverse interior plane at interface coord `m`.
        for a in g..g + n {
            for b in g..g + n {
                let c = match axis {
                    0 => (m * ext + a) * ext + b,
                    1 => (a * ext + m) * ext + b,
                    _ => (a * ext + b) * ext + m,
                };
                face_flux += fl[c];
            }
        }
        // Flux is along +axis; on the negative face, inflow is +flux.
        outflow += if positive_side { face_flux } else { -face_flux } * area;
    }

    super::RhsInfo {
        boundary_mass_outflow_rate: outflow,
    }
}

/// Maximum `|v| + c_s` over the interior.
#[inline(always)]
pub(crate) fn max_signal_speed_w<const W: usize>(u: &SubGrid) -> f64 {
    let n = u.n();
    let g = u.ghost();
    let ext = u.ext();
    let rho_c = u.field(field::RHO);
    let sx = u.field(field::SX);
    let sy = u.field(field::SY);
    let sz = u.field(field::SZ);
    let egas = u.field(field::EGAS);
    let mut vmax = Simd::<f64, W>::splat(0.0);
    let floor_rho = Simd::<f64, W>::splat(RHO_FLOOR);
    let half = Simd::<f64, W>::splat(0.5);
    for i in g..g + n {
        for j in g..g + n {
            let row = (i * ext + j) * ext;
            for (koff, lanes) in ChunkedLanes::<W>::new(n) {
                let base = row + g + koff;
                let rho = load_lanes::<W>(rho_c, base, lanes).simd_max(floor_rho);
                let inv = Simd::splat(1.0) / rho;
                let vx = load_lanes::<W>(sx, base, lanes) * inv;
                let vy = load_lanes::<W>(sy, base, lanes) * inv;
                let vz = load_lanes::<W>(sz, base, lanes) * inv;
                let v2 = vx * vx + vy * vy + vz * vz;
                let e = (load_lanes::<W>(egas, base, lanes) - half * rho * v2)
                    .simd_max(Simd::splat(0.0));
                let p = (Simd::splat(GAMMA - 1.0) * e).simd_max(Simd::splat(P_FLOOR));
                let cs = (Simd::splat(GAMMA) * p / rho).sqrt();
                let sig = v2.sqrt() + cs;
                // Only the valid lanes participate in the max; padded tail
                // lanes are masked to 0.0, below every real signal speed.
                let sp = if lanes == W {
                    sig
                } else {
                    Simd::select(Mask::first_n(lanes), sig, Simd::splat(0.0))
                };
                vmax = vmax.simd_max(sp);
            }
        }
    }
    vmax.reduce_max()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{from_primitive, Primitive};

    /// Advection of a density bump in a uniform velocity field must move
    /// mass in the advection direction and conserve the total (periodic
    /// behaviour is emulated by only checking the interior balance against
    /// boundary fluxes).
    #[test]
    fn rhs_mass_budget_matches_boundary_fluxes() {
        let n = 4;
        let mut u = SubGrid::new(n, 2, NF);
        // Uniform v_x flow with a density gradient along x.
        for i in 0..u.ext() {
            for j in 0..u.ext() {
                for k in 0..u.ext() {
                    let rho = 1.0 + 0.1 * i as f64;
                    let p0 = Primitive {
                        rho,
                        vx: 0.5,
                        vy: 0.0,
                        vz: 0.0,
                        p: 1.0,
                    };
                    let (c, tau) = from_primitive(&p0);
                    u.set(field::RHO, i, j, k, c.rho);
                    u.set(field::SX, i, j, k, c.sx);
                    u.set(field::SY, i, j, k, c.sy);
                    u.set(field::SZ, i, j, k, c.sz);
                    u.set(field::EGAS, i, j, k, c.egas);
                    u.set(field::TAU, i, j, k, tau);
                }
            }
        }
        let mut rhs = SubGrid::new(n, 2, NF);
        let src = SourceInput {
            gravity: None,
            omega: 0.0,
            origin: [0.0; 3],
            h: 0.25,
            boundary_faces: [false; 6],
        };
        let mut scratch = KernelScratch::ephemeral(n, 2);
        compute_rhs_w::<8>(&u, &mut rhs, &src, &mut scratch);
        // d(total mass)/dt = -(flux out - flux in); with a linear density
        // gradient and constant v, the interior RHS sum must equal
        // (rho_in - rho_out) * v * area / h summed appropriately — here we
        // just check it is negative (denser gas flows out the +x side than
        // flows in the −x side... actually flows in from -x side at lower
        // density), i.e. mass decreases.
        let mut total = 0.0;
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    total += rhs.get_interior(field::RHO, i, j, k);
                }
            }
        }
        assert!(total < 0.0, "mass budget sign wrong: {total}");
    }

    #[test]
    #[should_panic(expected = "ghost width >= 2")]
    fn thin_ghosts_rejected() {
        let u = SubGrid::new(4, 1, NF);
        let mut rhs = SubGrid::new(4, 1, NF);
        let src = SourceInput {
            gravity: None,
            omega: 0.0,
            origin: [0.0; 3],
            h: 1.0,
            boundary_faces: [false; 6],
        };
        let mut scratch = KernelScratch::ephemeral(4, 1);
        compute_rhs_w::<1>(&u, &mut rhs, &src, &mut scratch);
    }

    /// NaN-poisoned scratch must give bit-identical results to zeroed
    /// scratch: every flux/prim position the kernel reads is written by it
    /// first (the invariant that lets `compute_rhs_w` skip zeroing the
    /// recycled flux buffer).  NaN poisons are the strongest canary — any
    /// uncovered read contaminates everything downstream.
    #[test]
    fn poisoned_scratch_is_bit_identical_to_zeroed() {
        let n = 4;
        let mut u = SubGrid::new(n, 2, NF);
        for i in 0..u.ext() {
            for j in 0..u.ext() {
                for k in 0..u.ext() {
                    let p0 = Primitive {
                        rho: 1.0 + 0.02 * ((i * 5 + j * 2 + k) % 7) as f64,
                        vx: 0.2,
                        vy: -0.1,
                        vz: 0.15,
                        p: 0.8,
                    };
                    let (c, tau) = from_primitive(&p0);
                    u.set(field::RHO, i, j, k, c.rho);
                    u.set(field::SX, i, j, k, c.sx);
                    u.set(field::SY, i, j, k, c.sy);
                    u.set(field::SZ, i, j, k, c.sz);
                    u.set(field::EGAS, i, j, k, c.egas);
                    u.set(field::TAU, i, j, k, tau);
                }
            }
        }
        let src = SourceInput {
            gravity: None,
            omega: 0.2,
            origin: [0.0; 3],
            h: 0.25,
            boundary_faces: [true; 6],
        };
        let mut rhs_zero = SubGrid::new(n, 2, NF);
        let mut zeroed = KernelScratch::ephemeral(n, 2);
        let info_zero = compute_rhs_w::<8>(&u, &mut rhs_zero, &src, &mut zeroed);

        let mut rhs_nan = SubGrid::new(n, 2, NF);
        let mut poisoned = KernelScratch::ephemeral(n, 2);
        poisoned.prim.fill(f64::NAN);
        poisoned.flux.fill(f64::NAN);
        let info_nan = compute_rhs_w::<8>(&u, &mut rhs_nan, &src, &mut poisoned);

        assert_eq!(rhs_zero, rhs_nan);
        assert_eq!(
            info_zero.boundary_mass_outflow_rate,
            info_nan.boundary_mass_outflow_rate
        );
    }

    /// The same scratch reused across calls must give bit-identical results
    /// to fresh scratch: the kernel fully overwrites what it reads.
    #[test]
    fn reused_scratch_is_bit_identical_to_fresh() {
        let n = 4;
        let mut u = SubGrid::new(n, 2, NF);
        for i in 0..u.ext() {
            for j in 0..u.ext() {
                for k in 0..u.ext() {
                    let rho = 1.0 + 0.01 * ((i * 7 + j * 3 + k) % 5) as f64;
                    let p0 = Primitive {
                        rho,
                        vx: 0.1,
                        vy: -0.2,
                        vz: 0.05,
                        p: 0.7,
                    };
                    let (c, tau) = from_primitive(&p0);
                    u.set(field::RHO, i, j, k, c.rho);
                    u.set(field::SX, i, j, k, c.sx);
                    u.set(field::SY, i, j, k, c.sy);
                    u.set(field::SZ, i, j, k, c.sz);
                    u.set(field::EGAS, i, j, k, c.egas);
                    u.set(field::TAU, i, j, k, tau);
                }
            }
        }
        let src = SourceInput {
            gravity: None,
            omega: 0.1,
            origin: [0.0; 3],
            h: 0.25,
            boundary_faces: [true, false, false, true, false, false],
        };
        let mut rhs_fresh = SubGrid::new(n, 2, NF);
        let mut fresh = KernelScratch::ephemeral(n, 2);
        let info_fresh = compute_rhs_w::<8>(&u, &mut rhs_fresh, &src, &mut fresh);

        let mut reused = KernelScratch::ephemeral(n, 2);
        // Dirty the scratch with a different state first.
        let mut rhs_scratch = SubGrid::new(n, 2, NF);
        compute_rhs_w::<8>(&rhs_fresh, &mut rhs_scratch, &src, &mut reused);
        let mut rhs_reused = SubGrid::new(n, 2, NF);
        let info_reused = compute_rhs_w::<8>(&u, &mut rhs_reused, &src, &mut reused);

        assert_eq!(rhs_fresh, rhs_reused);
        assert_eq!(
            info_fresh.boundary_mass_outflow_rate,
            info_reused.boundary_mass_outflow_rate
        );
    }
}
