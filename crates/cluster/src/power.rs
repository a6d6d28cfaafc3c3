//! PowerAPI-style average power model (paper Table II).
//!
//! The paper reports average power per run measured with PowerAPI on
//! Fugaku; the numbers work out to roughly 60–110 W per node depending on
//! utilization.  An A64FX node idles near 60 W and draws up to ~120 W
//! under full vector load, so the model is: idle floor + per-core active
//! power scaled by utilization, plus a vector-unit adder when SVE is hot,
//! plus a NIC/TofuD share.

use crate::machine::Machine;
use serde::{Deserialize, Serialize};

/// Node power coefficients.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    /// Idle power per node, watts.
    pub idle_w: f64,
    /// Active power per busy core, watts.
    pub active_w_per_core: f64,
    /// Extra per busy core when the vector units are saturated, watts.
    pub simd_w_per_core: f64,
    /// Interconnect interface share per node, watts.
    pub nic_w: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        // A64FX-calibrated: idle ~58 W, full SVE load ~115 W per node.
        PowerModel {
            idle_w: 58.0,
            active_w_per_core: 0.75,
            simd_w_per_core: 0.45,
            nic_w: 4.0,
        }
    }
}

impl PowerModel {
    /// Average power of one node given core-utilization in `[0, 1]` and
    /// whether SVE is active.
    pub(crate) fn node_watts(&self, machine: &Machine, utilization: f64, sve: bool) -> f64 {
        let util = utilization.clamp(0.0, 1.0);
        let cores = machine.cores_per_node as f64;
        let simd = if sve { self.simd_w_per_core } else { 0.0 };
        self.idle_w + cores * util * (self.active_w_per_core + simd) + self.nic_w
    }

    /// Average power of the whole allocation (Table II's quantity).
    pub fn total_watts(&self, machine: &Machine, nodes: usize, utilization: f64, sve: bool) -> f64 {
        nodes as f64 * self.node_watts(machine, utilization, sve)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::KernelCosts;
    use crate::machine::MachineId;
    use crate::workload::{RunOptions, Workload};

    /// Table II of the paper, verbatim: (refinement level, nodes, average
    /// watts).  Entries the paper leaves blank are absent.
    const TABLE2_PAPER: [(u8, usize, f64); 10] = [
        (5, 4, 373.94),
        (5, 16, 1145.69),
        (5, 32, 1969.14),
        (5, 128, 11908.93),
        (5, 256, 15228.07),
        (6, 128, 8659.86),
        (6, 256, 19274.0),
        (6, 1024, 111261.36),
        (7, 512, 55310.55),
        (7, 1024, 111235.41),
    ];

    /// `(level, nodes, paper watts, model watts)` over the Table II grid.
    fn table2_comparisons() -> Vec<(u8, usize, f64, f64)> {
        let m = Machine::get(MachineId::Fugaku);
        let costs = KernelCosts::default();
        let opts = RunOptions::default();
        let power = PowerModel::default();
        TABLE2_PAPER
            .iter()
            .map(|&(level, nodes, paper_watts)| {
                let w = Workload::rotating_star(level);
                let model = crate::campaign::power_for(&m, nodes, &w, &opts, &costs, &power);
                (level, nodes, paper_watts, model)
            })
            .collect()
    }

    #[test]
    fn table2_has_the_papers_ten_entries() {
        assert_eq!(TABLE2_PAPER.len(), 10);
        // Spot-check against the paper's text.
        assert_eq!(TABLE2_PAPER[7], (6, 1024, 111261.36));
    }

    #[test]
    fn largest_runs_agree_within_fifteen_percent() {
        for (level, nodes, paper, model) in table2_comparisons() {
            if nodes >= 512 {
                assert!(
                    (model / paper - 1.0).abs() < 0.15,
                    "level {level} @ {nodes} nodes: model {model} vs paper {paper}"
                );
            }
        }
    }

    #[test]
    fn per_node_watts_always_physical() {
        for (_, nodes, _, model) in table2_comparisons() {
            let per_node = model / nodes as f64;
            assert!(
                (40.0..150.0).contains(&per_node),
                "unphysical node power {per_node} W"
            );
        }
    }

    #[test]
    fn fugaku_node_power_in_table_ii_band() {
        // Table II works out to ~60-110 W per node.
        let m = Machine::get(MachineId::Fugaku);
        let p = PowerModel::default();
        let idle = p.node_watts(&m, 0.0, false);
        let busy = p.node_watts(&m, 1.0, true);
        assert!((55.0..75.0).contains(&idle), "idle {idle}");
        assert!((95.0..125.0).contains(&busy), "busy {busy}");
    }

    #[test]
    fn power_monotone_in_utilization_and_simd() {
        let m = Machine::get(MachineId::Fugaku);
        let p = PowerModel::default();
        assert!(p.node_watts(&m, 0.9, false) > p.node_watts(&m, 0.4, false));
        assert!(p.node_watts(&m, 0.9, true) > p.node_watts(&m, 0.9, false));
    }

    #[test]
    fn utilization_is_clamped() {
        let m = Machine::get(MachineId::Fugaku);
        let p = PowerModel::default();
        assert_eq!(p.node_watts(&m, 2.0, true), p.node_watts(&m, 1.0, true));
        assert_eq!(p.node_watts(&m, -1.0, true), p.node_watts(&m, 0.0, true));
    }

    #[test]
    fn total_scales_with_nodes() {
        let m = Machine::get(MachineId::Fugaku);
        let p = PowerModel::default();
        let one = p.total_watts(&m, 1, 0.8, true);
        let many = p.total_watts(&m, 1024, 0.8, true);
        assert!((many / one - 1024.0).abs() < 1e-9);
    }
}
