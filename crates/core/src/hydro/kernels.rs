//! The per-leaf compute kernels, width-generic over `Simd<f64, W>`.
//!
//! These are the Rust analogues of Octo-Tiger's Kokkos hydro kernels: the
//! same kernel source is instantiated for the scalar width (`W = 1`) and
//! the A64FX SVE width (`W = 8`).  Vectorization runs along the contiguous
//! `k` index of the sub-grid; reconstruction stencils along `x`/`y` load
//! the same contiguous lanes at strided base offsets, exactly as the SVE
//! kernels do on A64FX.
//!
//! The stage kernel, `compute_rhs_w`, streams a leaf plane by plane along
//! `x`.  It recovers primitives into a ring of four `i`-planes and computes
//! every interface's HLL flux once, into a window: the `x`-interface plane
//! carried from one cell plane to the next, and the cell plane's `y`- and
//! `z`-interface planes.  The divergence, the sources and the boundary
//! outflow are taken from that window while it is in cache, so the kernel's
//! scratch is O(ext²) per leaf: no ghosted primitive or flux array exists.
//! One sweep loop over the three axes computes every flux, so the inlined
//! reconstruct-and-HLL body exists once per width.
//!
//! The kernel is dimension-split: each reconstruction stencil varies one
//! axis, so it reads the interior and the six face ghost slabs of `u` and
//! no edge or corner ghost word.  Primitive recovery covers exactly those
//! words (`primitives_w`), and the ghost fill writes only the face slabs.

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

/// Primitive planes the stage kernel holds at once: cell plane `i`'s upper
/// `x`-interface reads planes `i − 1 … i + 2`, and its lower one was
/// computed (and carried over) with plane `i − 1`.
const RING: usize = 4;

/// Pooled scratch for one leaf's RHS evaluation: the stage kernel's
/// O(ext²) window, in two flat recycled buffers.
///
/// * `prim`: a ring of four primitive planes (ghosted plane `p` in slot
///   `p % 4`), each eight blocks of `ext²` (ρ, vx, vy, vz, p, τ, f1, f2),
///   `j`-major and `k` fastest.
/// * `flux`: the two `x`-interface flux planes (`NF` blocks of `n²` each),
///   then one cell plane's `y`-interface fluxes (`NF` blocks of `n + 1`
///   rows of `n`) and its `z`-interface fluxes (`NF` blocks of `n` pencils
///   of `n + 1`).
///
/// Owned by a stage workspace in the stepper, which a running stage task
/// holds: checked out of the simulation's [`ScratchArena`] once and reused
/// by every stage task of every step.
#[derive(Debug)]
pub struct KernelScratch {
    prim: Recycled<f64>,
    flux: Recycled<f64>,
}

impl KernelScratch {
    /// Words of `[prim, flux]` for an `n`-cell leaf with `ghost` ghost
    /// width.
    fn words(n: usize, ghost: usize) -> [usize; 2] {
        let ext = n + 2 * ghost;
        [RING * NPRIM * ext * ext, NF * 2 * n * (2 * n + 1)]
    }

    /// Scratch for an `n`-cell leaf with `ghost` ghost width, checked out
    /// of `pool` (returned to it on drop).
    pub(crate) fn new(n: usize, ghost: usize, pool: &ScratchArena) -> KernelScratch {
        let [prim, flux] = Self::words(n, ghost);
        KernelScratch {
            prim: pool.checkout(prim),
            flux: pool.checkout(flux),
        }
    }

    /// Unpooled scratch that frees on drop — for tests, benches, and other
    /// one-off RHS evaluations outside a stepper workspace.
    pub fn ephemeral(n: usize, ghost: usize) -> KernelScratch {
        let [prim, flux] = Self::words(n, ghost);
        KernelScratch {
            prim: Recycled::detached(vec![0.0; prim]),
            flux: Recycled::detached(vec![0.0; flux]),
        }
    }

    /// Bytes of the window.
    pub(crate) fn bytes(&self) -> u64 {
        ((self.prim.len() + self.flux.len()) * std::mem::size_of::<f64>()) as u64
    }

    /// `true` if this scratch is sized for an `n`/`ghost` leaf.
    pub(crate) fn fits(&self, n: usize, ghost: usize) -> bool {
        [self.prim.len(), self.flux.len()] == Self::words(n, ghost)
    }
}

/// Recover the primitives of ghosted `x`-plane `p` of `u` into `plane`
/// (`NPRIM` blocks of `ext²` in [`PrimLanes`] field order), only where the
/// sweeps read them, which is only in the six face ghost slabs and the
/// interior (the stencils vary one axis each):
///
/// * on an `x`-ghost plane, the `n` interior words of the `n` interior rows
///   (the `x`-sweep's reach);
/// * on an interior plane, the contiguous rows `j ∈ [g, g + n)` (the
///   interior and the `z`-face ghosts the `z`-sweep reads) and the `n`
///   interior words of the two `y`-ghost rows each side (the `y`-sweep's).
///
/// The other words of `plane` keep what they held.  No edge or corner
/// ghost word of `u` is read, so the ghost fill need not write one.
#[inline(always)]
fn primitives_w<const W: usize>(u: &SubGrid, p: usize, plane: &mut [f64]) {
    let (n, g, ext) = (u.n(), u.ghost(), u.ext());
    let len = ext * ext;
    debug_assert_eq!(plane.len(), NPRIM * len);
    let cons = [
        field::RHO,
        field::SX,
        field::SY,
        field::SZ,
        field::EGAS,
        field::TAU,
        field::FRAC1,
        field::FRAC2,
    ]
    .map(|f| &u.field(f)[p * len..][..len]);
    let mut blocks = plane.chunks_exact_mut(len);
    let mut prim: [&mut [f64]; NPRIM] = std::array::from_fn(|_| blocks.next().expect("prim block"));
    if (g..g + n).contains(&p) {
        recover_w::<W>(&cons, &mut prim, g * ext, n * ext);
        for j in (g - 2..g).chain(g + n..g + n + 2) {
            recover_w::<W>(&cons, &mut prim, j * ext + g, n);
        }
    } else {
        for j in g..g + n {
            recover_w::<W>(&cons, &mut prim, j * ext + g, n);
        }
    }
}

/// Recover the primitives of the `len` words at `start` of one plane:
/// conserved blocks `cons` (ρ, sx, sy, sz, E, τ, f1, f2) to primitive
/// blocks `prim`, vectorized along the run; the dual-energy `τ^γ` branch is
/// a per-lane `powf`.
#[inline(always)]
fn recover_w<const W: usize>(
    cons: &[&[f64]; NPRIM],
    prim: &mut [&mut [f64]; NPRIM],
    start: usize,
    len: usize,
) {
    let [rho_c, sx, sy, sz, egas, tau_c, f1_c, f2_c] = *cons;
    let [out_rho, out_vx, out_vy, out_vz, out_p, out_tau, out_f1, out_f2] = prim;
    let gamma_m1 = Simd::<f64, W>::splat(GAMMA - 1.0);
    let half = Simd::<f64, W>::splat(0.5);
    let floor_rho = Simd::<f64, W>::splat(RHO_FLOOR);
    let floor_p = Simd::<f64, W>::splat(P_FLOOR);
    let switch = Simd::<f64, W>::splat(DUAL_ENERGY_SWITCH);

    for (koff, lanes) in ChunkedLanes::<W>::new(len) {
        let off = start + koff;
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
        // expensive op in this kernel.  Skip it when every valid lane
        // trusts E−K (the common case; a tail chunk's padded lanes are
        // never stored); the select picks `e_direct` on those lanes anyway,
        // so the guard cannot change any stored bit at any width.
        let trusted = if lanes == W {
            use_direct
        } else {
            use_direct | !Mask::first_n(lanes)
        };
        let e = if trusted.all() {
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

/// The ring slot holding ghosted primitive plane `p`.
#[inline(always)]
fn slot(ring: &[f64], p: usize) -> &[f64] {
    let len = ring.len() / RING;
    &ring[(p % RING) * len..][..len]
}

/// Reconstruct the (left, right) interface states of the primitive in
/// block `block` of the four stencil planes: point `s` at `at[s]` of `q[s]`.
#[inline(always)]
fn recon_prim<const W: usize>(
    q: &[&[f64]; 4],
    at: &[usize; 4],
    block: usize,
    lanes: usize,
) -> (Simd<f64, W>, Simd<f64, W>) {
    let len = q[0].len() / NPRIM;
    let b = block * len;
    reconstruct_interface(
        load_lanes::<W>(q[0], b + at[0], lanes),
        load_lanes::<W>(q[1], b + at[1], lanes),
        load_lanes::<W>(q[2], b + at[2], lanes),
        load_lanes::<W>(q[3], b + at[3], lanes),
    )
}

/// HLL fluxes through `len` consecutive interfaces along `axis` (`k`
/// fastest, in chunks of `W`), stored at `to + koff` of `dst`'s `NF`
/// blocks.  Interface `koff` reconstructs from the stencil point `s` at
/// `c0 + koff + (s − 2)·stride` of primitive plane `q[s]`.
#[inline(always)]
fn interfaces<const W: usize>(
    axis: usize,
    q: [&[f64]; 4],
    c0: usize,
    stride: usize,
    len: usize,
    dst: &mut [f64],
    to: usize,
) {
    let floor_rho = Simd::splat(RHO_FLOOR);
    let floor_p = Simd::splat(P_FLOOR);
    let block = dst.len() / NF;
    for (koff, lanes) in ChunkedLanes::<W>::new(len) {
        let c = c0 + koff;
        let at = [c - 2 * stride, c - stride, c, c + stride];
        let (rho_l, rho_r) = recon_prim::<W>(&q, &at, 0, lanes);
        let (vx_l, vx_r) = recon_prim::<W>(&q, &at, 1, lanes);
        let (vy_l, vy_r) = recon_prim::<W>(&q, &at, 2, lanes);
        let (vz_l, vz_r) = recon_prim::<W>(&q, &at, 3, lanes);
        let (p_l, p_r) = recon_prim::<W>(&q, &at, 4, lanes);
        let (tau_l, tau_r) = recon_prim::<W>(&q, &at, 5, lanes);
        let (f1_l, f1_r) = recon_prim::<W>(&q, &at, 6, lanes);
        let (f2_l, f2_r) = recon_prim::<W>(&q, &at, 7, lanes);
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
            store_lanes::<W>(fv, &mut dst[fi * block..], to + koff, lanes);
        }
    }
}

/// Compute `L(u)` (flux divergence + sources) into `rhs`, streaming the
/// leaf plane by plane through the window in `scratch` (module docs);
/// returns the leaf's boundary mass-outflow rate.
///
/// Each interface flux is computed once, on the `k`-chunks of its row
/// (`n` interfaces along `x` and `y`, `n + 1` along `z`), and every
/// divergence, source and face sum adds its terms in the order the
/// whole-block kernel this replaced did, so the result is bit for bit the
/// same (`rhs_bits_are_pinned_at_both_widths`).
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
    let (n2, ny) = (n * n, (n + 1) * n);
    let plane = NPRIM * ext * ext;
    let h = src.h;
    let vinv_h = Simd::<f64, W>::splat(1.0 / h);
    let faces = src.boundary_faces;

    // The window, not zeroed: every position the divergence and the face
    // sums read is written by an interface sweep first, so recycled
    // storage cannot leak a previous launch's values —
    // `poisoned_scratch_is_bit_identical_to_zeroed` locks this down.
    let ring = &mut scratch.prim[..];
    let (x_pair, yz) = scratch.flux.split_at_mut(2 * NF * n2);
    let (mut x_lo, mut x_hi) = x_pair.split_at_mut(NF * n2);
    let (y, z) = yz.split_at_mut(NF * ny);
    // Per face, its interfaces' mass flux summed over the face's two
    // transverse coordinates (a, b), a-major.
    let mut face_flux = [0.0; 6];

    for p in g - 2..=g {
        primitives_w::<W>(u, p, &mut ring[(p % RING) * plane..][..plane]);
    }
    // Step m sweeps x-interface plane m (reading primitive planes m − 2 …
    // m + 1), then the y- and z-interfaces of cell plane i = m − 1, which
    // lies between x-interface planes m − 1 and m.
    for m in g..=g + n {
        let next = m + 1;
        primitives_w::<W>(u, next, &mut ring[(next % RING) * plane..][..plane]);
        let i = m - 1;
        let axes = if m == g { 1 } else { 3 };
        for axis in 0..axes {
            // Row r of a sweep starts at (j, k) = (g + r, g) of its planes:
            // the x-interfaces of row j, y-interface row j, or z-pencil j.
            let (q, stride, rows, len, dst) = match axis {
                0 => {
                    let q = [m - 2, m - 1, m, m + 1].map(|p| slot(ring, p));
                    (q, 0, n, n, &mut *x_hi)
                }
                1 => ([slot(ring, i); 4], ext, n + 1, n, &mut *y),
                _ => ([slot(ring, i); 4], 1, n, n + 1, &mut *z),
            };
            for r in 0..rows {
                interfaces::<W>(axis, q, (g + r) * ext + g, stride, len, dst, r * len);
            }
        }
        if m == g {
            if faces[0] {
                for &v in &x_hi[field::RHO * n2..][..n2] {
                    face_flux[0] += v;
                }
            }
            std::mem::swap(&mut x_lo, &mut x_hi);
            continue;
        }
        for (face, row) in [(2, 0), (3, n)] {
            if faces[face] {
                for &v in &y[field::RHO * ny + row * n..][..n] {
                    face_flux[face] += v;
                }
            }
        }
        for j in g..g + n {
            let zo = (j - g) * (n + 1);
            for (face, k) in [(4, 0), (5, n)] {
                if faces[face] {
                    face_flux[face] += z[field::RHO * ny + zo + k];
                }
            }
            // Flux divergence into the RHS pencil, vectorized along k: the
            // ops are elementwise in the same per-element order at every
            // width, so W = 1 and W = 8 stay bit-identical by construction.
            let row = (i * ext + j) * ext + g;
            for f in 0..NF {
                let dst = rhs.field_mut(f);
                let xo = f * n2 + (j - g) * n;
                let (yo, zo) = (f * ny + (j - g) * n, f * ny + zo);
                for (koff, lanes) in ChunkedLanes::<W>::new(n) {
                    let mut div = Simd::<f64, W>::splat(0.0);
                    div += load_lanes::<W>(x_hi, xo + koff, lanes)
                        - load_lanes::<W>(x_lo, xo + koff, lanes);
                    div += load_lanes::<W>(y, yo + n + koff, lanes)
                        - load_lanes::<W>(y, yo + koff, lanes);
                    div += load_lanes::<W>(z, zo + koff + 1, lanes)
                        - load_lanes::<W>(z, zo + koff, lanes);
                    store_lanes::<W>(-(div * vinv_h), dst, row + koff, lanes);
                }
            }
        }
        // Sources: gravity and rotating frame (cheap relative to fluxes;
        // scalar).
        rotating::apply_sources(u, rhs, src, i - g);
        std::mem::swap(&mut x_lo, &mut x_hi);
    }
    if faces[1] {
        for &v in &x_lo[field::RHO * n2..][..n2] {
            face_flux[1] += v;
        }
    }

    // Boundary outflow accounting: net mass leaving the domain through this
    // leaf's boundary faces (positive = outflow).
    let area = h * h;
    let mut outflow = 0.0;
    for (face, &sum) in face_flux.iter().enumerate() {
        if !faces[face] {
            continue;
        }
        // Flux is along +axis; on the negative face, inflow is +flux.
        let positive_side = face % 2 == 1;
        outflow += if positive_side { sum } else { -sum } * area;
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

    /// The window a leaf checks out: a ring of four primitive planes and
    /// four flux planes, O(ext²) words; no buffer holds an
    /// `ext³` block per field, as the whole-block kernel's did.
    #[test]
    fn scratch_is_an_ext_squared_window() {
        for (n, words) in [(4, [2048, 576]), (8, [4608, 2176])] {
            let pool = ScratchArena::new();
            let scratch = KernelScratch::new(n, 2, &pool);
            assert_eq!([scratch.prim.len(), scratch.flux.len()], words, "N = {n}");
            let s = pool.stats();
            assert_eq!(s.misses, 2);
            assert_eq!(s.bytes_in_use, 8 * (words[0] + words[1]) as u64);
            let ext3 = (n + 4).pow(3);
            assert!(scratch.prim.len() / NPRIM < ext3 && scratch.flux.len() / NF < ext3);
        }
    }

    /// NaN-poisoned scratch must give bit-identical results to zeroed
    /// scratch: every window position the kernel reads (primitive ring and
    /// flux planes) is written by it first, the invariant
    /// that lets `compute_rhs_w` skip zeroing recycled scratch.  NaN
    /// poisons are the strongest canary — any uncovered read contaminates
    /// everything downstream.
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

    /// SplitMix64 stream for the seeded test states.
    fn splitmix(state: &mut u64) -> f64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A seeded non-uniform ghosted state; about one cell in six carries
    /// `E − K` below the dual-energy switch, so primitive recovery takes
    /// the entropy (`powf`) branch there.  Returns the state and the
    /// number of such cells.
    fn seeded_state(n: usize, seed: u64) -> (SubGrid, usize) {
        let mut u = SubGrid::new(n, 2, NF);
        let mut s = seed;
        let mut on_powf = 0;
        let ext = u.ext();
        for i in 0..ext {
            for j in 0..ext {
                for k in 0..ext {
                    let p0 = Primitive {
                        rho: 0.5 + splitmix(&mut s),
                        vx: 1.2 * splitmix(&mut s) - 0.6,
                        vy: 1.2 * splitmix(&mut s) - 0.6,
                        vz: 1.2 * splitmix(&mut s) - 0.6,
                        p: 0.2 + splitmix(&mut s),
                    };
                    let (c, tau) = from_primitive(&p0);
                    let kinetic = 0.5 * (c.sx * c.sx + c.sy * c.sy + c.sz * c.sz) / c.rho;
                    let egas = if splitmix(&mut s) < 1.0 / 6.0 {
                        on_powf += 1;
                        kinetic / (1.0 - 0.5 * DUAL_ENERGY_SWITCH)
                    } else {
                        c.egas
                    };
                    let frac1 = c.rho * splitmix(&mut s);
                    u.set(field::RHO, i, j, k, c.rho);
                    u.set(field::SX, i, j, k, c.sx);
                    u.set(field::SY, i, j, k, c.sy);
                    u.set(field::SZ, i, j, k, c.sz);
                    u.set(field::EGAS, i, j, k, egas);
                    u.set(field::TAU, i, j, k, tau);
                    u.set(field::FRAC1, i, j, k, frac1);
                    u.set(field::FRAC2, i, j, k, c.rho - frac1);
                }
            }
        }
        (u, on_powf)
    }

    /// The stage kernel's output bits, pinned: an FNV-1a hash over every
    /// word of `rhs` and the outflow rate, at both widths, for N = 4 and
    /// N = 8, on a seeded state with gravity, a rotating frame, six
    /// boundary faces and cells on the dual-energy `powf` branch.  The
    /// hashes were recorded from the whole-block kernel (ghosted
    /// primitive and flux arrays, separate divergence pass) before it was
    /// streamed plane by plane; the streamed kernel must reproduce them.
    #[test]
    fn rhs_bits_are_pinned_at_both_widths() {
        use crate::hydro::{compute_rhs, HydroOptions};
        use sve_simd::VectorMode;
        for (n, pinned) in [(4, 0x688e_9daa_f919_3387u64), (8, 0x9069_e366_aeda_a135)] {
            let (u, on_powf) = seeded_state(n, 0x5eed_0000 + n as u64);
            assert!(on_powf > 0, "no cell on the powf branch");
            let mut s = 0xface_0000 + n as u64;
            let gravity: Vec<Vec<f64>> = (0..3)
                .map(|_| (0..n * n * n).map(|_| splitmix(&mut s) - 0.5).collect())
                .collect();
            let src = SourceInput {
                gravity: Some([&gravity[0], &gravity[1], &gravity[2]]),
                omega: 0.3,
                origin: [-0.4, 0.1, 0.25],
                h: 0.1,
                boundary_faces: [true; 6],
            };
            let mut scratch = KernelScratch::ephemeral(n, 2);
            for vector_mode in [VectorMode::Scalar, VectorMode::Sve512] {
                let opts = HydroOptions {
                    vector_mode,
                    cfl: 0.4,
                };
                let mut rhs = SubGrid::new(n, 2, NF);
                let info = compute_rhs(&u, &mut rhs, &src, &opts, &mut scratch);
                let mut h = 0xcbf2_9ce4_8422_2325u64;
                let words = (0..NF).flat_map(|f| rhs.field(f).iter().copied());
                for v in words.chain([info.boundary_mass_outflow_rate]) {
                    h = (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
                }
                assert_eq!(h, pinned, "N = {n}, {vector_mode:?}");
            }
        }
    }

    /// The stage kernel reads no edge or corner ghost word of `u`: NaN in
    /// every ghost word that lies outside the interior on two or more axes
    /// gives the rhs bits of the same grid with those words filled, at both
    /// widths, N = 4 and 8, with gravity and a rotating frame, with all six
    /// boundary faces set and with none.  So the ghost fill needs only the
    /// six face slabs.
    #[test]
    fn rhs_reads_no_edge_or_corner_ghost_word() {
        use crate::hydro::{compute_rhs, HydroOptions};
        use sve_simd::VectorMode;
        for n in [4, 8] {
            let (filled, on_powf) = seeded_state(n, 0x5eed_0100 + n as u64);
            assert!(on_powf > 0, "no cell on the powf branch");
            let mut poisoned = filled.clone();
            let ext = filled.ext();
            let outside = |c: &usize| !(2..2 + n).contains(c);
            let mut nans = 0;
            for i in 0..ext {
                for j in 0..ext {
                    for k in 0..ext {
                        if [i, j, k].iter().filter(|c| outside(c)).count() >= 2 {
                            (0..NF).for_each(|f| poisoned.set(f, i, j, k, f64::NAN));
                            nans += 1;
                        }
                    }
                }
            }
            assert_eq!(nans, ext.pow(3) - n.pow(3) - 6 * 2 * n * n);
            let mut s = 0xface_0100 + n as u64;
            let gravity: Vec<Vec<f64>> = (0..3)
                .map(|_| (0..n * n * n).map(|_| splitmix(&mut s) - 0.5).collect())
                .collect();
            let mut scratch = KernelScratch::ephemeral(n, 2);
            for boundary_faces in [[true; 6], [false; 6]] {
                let src = SourceInput {
                    gravity: Some([&gravity[0], &gravity[1], &gravity[2]]),
                    omega: 0.3,
                    origin: [-0.4, 0.1, 0.25],
                    h: 0.1,
                    boundary_faces,
                };
                for vector_mode in [VectorMode::Scalar, VectorMode::Sve512] {
                    let opts = HydroOptions {
                        vector_mode,
                        cfl: 0.4,
                    };
                    let bits = |u: &SubGrid, scratch: &mut KernelScratch| {
                        let mut rhs = SubGrid::new(n, 2, NF);
                        let info = compute_rhs(u, &mut rhs, &src, &opts, scratch);
                        let words = (0..NF).flat_map(|f| rhs.field(f).to_vec());
                        words
                            .chain([info.boundary_mass_outflow_rate])
                            .map(f64::to_bits)
                            .collect::<Vec<u64>>()
                    };
                    let want = bits(&filled, &mut scratch);
                    assert!(want.iter().all(|&w| !f64::from_bits(w).is_nan()));
                    assert_eq!(
                        bits(&poisoned, &mut scratch),
                        want,
                        "N = {n}, {vector_mode:?}, faces {boundary_faces:?}"
                    );
                }
            }
        }
    }

    /// The stage kernel writes only interior `rhs` words, sources included:
    /// a pooled `rhs` that starts zeroed keeps zero ghost words, so the
    /// stepper needs no per-stage ghost sweep before the RK combinations.
    #[test]
    fn rhs_leaves_every_ghost_word_untouched() {
        use crate::hydro::{compute_rhs, HydroOptions};
        use sve_simd::VectorMode;
        let sentinel = f64::from_bits(0x7ff8_dead_beef_0001);
        for n in [4, 8] {
            let (u, _) = seeded_state(n, 0x5eed_0000 + n as u64);
            let gravity: Vec<f64> = (0..n * n * n).map(|c| 0.01 * (c % 5) as f64).collect();
            let src = SourceInput {
                gravity: Some([&gravity, &gravity, &gravity]),
                omega: 0.3,
                origin: [-0.4, 0.1, 0.25],
                h: 0.1,
                boundary_faces: [true; 6],
            };
            let mut scratch = KernelScratch::ephemeral(n, 2);
            for vector_mode in [VectorMode::Scalar, VectorMode::Sve512] {
                let opts = HydroOptions {
                    vector_mode,
                    cfl: 0.4,
                };
                let mut rhs = SubGrid::new(n, 2, NF);
                rhs.fill(sentinel);
                compute_rhs(&u, &mut rhs, &src, &opts, &mut scratch);
                let ext = rhs.ext();
                let inside = |c: usize| (2..2 + n).contains(&c);
                for f in 0..NF {
                    for i in 0..ext {
                        for j in 0..ext {
                            for k in 0..ext {
                                let interior = inside(i) && inside(j) && inside(k);
                                let kept = rhs.get(f, i, j, k).to_bits() == sentinel.to_bits();
                                assert_eq!(
                                    kept, !interior,
                                    "N = {n}, {vector_mode:?}, f{f} ({i},{j},{k})"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
