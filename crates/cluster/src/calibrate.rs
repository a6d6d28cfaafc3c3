//! Kernel cost constants tying the cluster model to the real kernels.
//!
//! The absolute throughputs of the paper were measured on hardware we do
//! not have; what our reproduction must preserve are the *ratios* that
//! produce the figures' shapes.  The constants here are calibrated in two
//! ways: the per-cell flop counts follow from counting operations in our
//! actual `octotiger` kernels (the bench crate's `simd_kernels` report
//! measures the same kernels on the host, scalar against SVE width, into
//! `BENCH_simd.json`), and the overhead constants are set so the
//! paper's documented crossovers land where the paper saw them
//! (communication-optimization break-even at 8 nodes, multipole-split
//! win appearing around 128 nodes).

use serde::{Deserialize, Serialize};

/// All tunable model constants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KernelCosts {
    /// Hydro flops per cell per RK stage (reconstruction + HLL over three
    /// axes + sources; counted from `octotiger::hydro::kernels`).
    pub hydro_flops_per_cell_stage: f64,
    /// RK stages per step.
    pub stages_per_step: f64,
    /// Gravity near-field (P2P) flops per cell per step, amortized.
    pub p2p_flops_per_cell: f64,
    /// M2L flops per tree-node interaction (multipole × interaction-list
    /// entry, order-3 Cartesian expansions).
    pub m2l_flops_per_interaction: f64,
    /// Average interaction-list length per tree node.
    pub m2l_list_len: f64,
    /// SVE speedup of the compute kernels measured between the `W = 1` and
    /// `W = 8` instantiations (paper: "a factor of two and three for
    /// various parts of the code"; the kernel families of
    /// `BENCH_simd.json` land in the same band).
    pub sve_speedup: f64,
    /// Average ghost payload per neighbour link, bytes (all 26 link
    /// classes averaged, 8 fields, N = 8, ghost width 2).
    pub ghost_bytes_per_link: f64,
    /// Neighbour links per sub-grid per exchange.
    pub links_per_subgrid: f64,
    /// Host cost of one HPX action invocation with buffer staging — the
    /// per-link cost the Section VII-B optimization removes.
    pub action_overhead_s: f64,
    /// Host cost of one direct-memory ghost access (promise/future
    /// notification + copy).
    pub direct_access_overhead_s: f64,
    /// Extra coordination cost the communication optimization adds on
    /// *remote* links (keeping local neighbours up-to-date adds bookkeeping
    /// to the remote path — the reason Figure 8 turns slightly negative
    /// past the break-even).
    pub comm_opt_remote_extra_s: f64,
    /// Cost of spawning one HPX task (the overhead that makes 16-way
    /// kernel splitting a *loss* on a single busy node, Figure 9).
    pub task_spawn_overhead_s: f64,
    /// Per-tree-level synchronization latency of the gravity traversal.
    pub tree_level_sync_s: f64,
}

impl Default for KernelCosts {
    fn default() -> Self {
        KernelCosts {
            hydro_flops_per_cell_stage: 3_000.0,
            stages_per_step: 3.0,
            p2p_flops_per_cell: 12_000.0,
            m2l_flops_per_interaction: 40_000.0,
            m2l_list_len: 30.0,
            sve_speedup: 2.5,
            ghost_bytes_per_link: 2_500.0,
            links_per_subgrid: 26.0,
            action_overhead_s: 2.0e-6,
            direct_access_overhead_s: 0.5e-6,
            comm_opt_remote_extra_s: 4.5e-6,
            task_spawn_overhead_s: 0.6e-6,
            tree_level_sync_s: 15.0e-6,
        }
    }
}

impl KernelCosts {
    /// Total compute flops per cell per step (hydro + gravity near field).
    pub fn flops_per_cell_step(&self) -> f64 {
        self.hydro_flops_per_cell_stage * self.stages_per_step + self.p2p_flops_per_cell
    }

    /// Effective SIMD speedup factor for a run (`1.0` when SVE is off).
    pub(crate) fn simd_factor(&self, sve: bool) -> f64 {
        if sve {
            self.sve_speedup
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_positive_and_sane() {
        let c = KernelCosts::default();
        assert!(c.flops_per_cell_step() > 10_000.0);
        assert!(c.flops_per_cell_step() < 100_000.0);
        assert!(c.sve_speedup >= 2.0 && c.sve_speedup <= 3.0, "paper: 2-3x");
        assert!(c.action_overhead_s > c.direct_access_overhead_s);
    }

    #[test]
    fn simd_factor_switch() {
        let c = KernelCosts::default();
        assert_eq!(c.simd_factor(false), 1.0);
        assert_eq!(c.simd_factor(true), c.sve_speedup);
    }

    #[test]
    fn comm_opt_constants_put_break_even_near_one_quarter_local() {
        // Break-even when local_links·(action−direct) = remote_links·extra;
        // with the defaults that happens around 69% local fraction, which
        // the Morton partition of the rotating-star L5 problem crosses
        // near 8 nodes (Figure 8).
        let c = KernelCosts::default();
        let saving = c.action_overhead_s - c.direct_access_overhead_s;
        let ratio = c.comm_opt_remote_extra_s / saving;
        let local_at_break_even = ratio / (1.0 + ratio);
        assert!(
            (0.6..0.85).contains(&local_at_break_even),
            "break-even local fraction {local_at_break_even}"
        );
    }
}
