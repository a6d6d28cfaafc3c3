//! The cost model: flops and bytes per unit of work, counted from the kernel
//! sources as written.  Computed, ignores cache misses: bytes are compulsory
//! traffic from array sizes, each array counted once per direction.  The
//! derivation, line by line, is in the README.

use octotiger::state::NF;

/// `hydro/kernels.rs::primitives_w`, per ghosted cell.
const PRIMITIVE_FLOPS: f64 = 17.0;
/// Per cell interface: 8 fields of `recon.rs::reconstruct_interface` (16
/// each), 4 floor clamps, `flux.rs::hll_flux` (119).
const INTERFACE_FLOPS: f64 = 8.0 * 16.0 + 4.0 + 119.0;
/// Flux divergence: 8 fields x (3 axes x (sub + add) + scale + negate).
const DIVERGENCE_FLOPS: f64 = 8.0 * 8.0;
/// `rotating.rs::apply_sources`: rotating frame always, gravity when on.
const FRAME_SOURCE_FLOPS: f64 = 28.0;
const GRAVITY_SOURCE_FLOPS: f64 = 12.0;

/// `gravity/direct.rs::p2p_at_w`, per source-target pair.
pub const P2P_FLOPS_PER_INTERACTION: f64 = 24.0;

fn ghosted_cells_per_cell(n: usize, ghost: usize) -> f64 {
    ((n + 2 * ghost) as f64 / n as f64).powi(3)
}

fn interfaces_per_cell(n: usize) -> f64 {
    3.0 * (n + 1) as f64 / n as f64
}

/// One `hydro::compute_rhs` call, per interior cell of an `n`-cell leaf.
pub fn hydro_rhs_flops_per_cell(n: usize, ghost: usize, gravity: bool) -> f64 {
    PRIMITIVE_FLOPS * ghosted_cells_per_cell(n, ghost)
        + INTERFACE_FLOPS * interfaces_per_cell(n)
        + DIVERGENCE_FLOPS
        + FRAME_SOURCE_FLOPS
        + if gravity { GRAVITY_SOURCE_FLOPS } else { 0.0 }
}

/// Bytes the same call moves: `u` read, primitives written and read back,
/// interface fluxes written and read back, `rhs` written, gravity read.
pub fn hydro_rhs_bytes_per_cell(n: usize, ghost: usize, gravity: bool) -> f64 {
    let word = 8.0;
    let fields = NF as f64;
    let block = fields * word * ghosted_cells_per_cell(n, ghost);
    block * 3.0
        + 2.0 * fields * word * interfaces_per_cell(n)
        + fields * word
        + if gravity { 3.0 * word } else { 0.0 }
}

/// Both leaves' four SoA arrays once, over the `cells x cells` pairs they form.
pub fn p2p_bytes_per_interaction(cells: f64) -> f64 {
    2.0 * 4.0 * 8.0 * cells / (cells * cells)
}

/// `gravity/m2l_simd.rs::m2l_accumulate_w`, per source-target node pair.
/// The octupole terms (`l0`'s 81 and `l1`'s 2673) fall away without it.
pub fn m2l_flops_per_interaction(use_octupole: bool) -> f64 {
    if use_octupole {
        6042.0
    } else {
        6042.0 - 81.0 - 2673.0
    }
}

/// The 40-component SoA of every node read once and every target's
/// expansion written once, over the interactions of one solve.
pub fn m2l_bytes_per_interaction(nodes: f64, targets: f64, interactions: f64) -> f64 {
    40.0 * 8.0 * (nodes + targets) / interactions.max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_paper_sub_grid_costs_about_a_kiloflop_per_cell() {
        // N = 8, ghost 2: 3.375 ghosted cells and 3.375 interfaces per cell.
        let flops = hydro_rhs_flops_per_cell(8, 2, true);
        assert!((flops - (17.0 * 3.375 + 251.0 * 3.375 + 64.0 + 40.0)).abs() < 1e-9);
        let bytes = hydro_rhs_bytes_per_cell(8, 2, true);
        assert!((bytes - (64.0 * 3.375 * 3.0 + 2.0 * 64.0 * 3.375 + 64.0 + 24.0)).abs() < 1e-9);
        assert!(hydro_rhs_flops_per_cell(4, 2, false) > flops - 40.0);
        assert_eq!(p2p_bytes_per_interaction(512.0), 0.125);
    }
}
