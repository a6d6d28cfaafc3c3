//! Campaign helpers: sweeps that produce exactly the series each paper
//! figure plots, as serializable records the bench binaries print.

use crate::calibrate::KernelCosts;
use crate::des::{simulate_step, StepResult};
use crate::machine::Machine;
use crate::power::PowerModel;
use crate::workload::{RunOptions, Workload};
use serde::{Deserialize, Serialize};

/// One point of a figure's series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigurePoint {
    /// Figure identifier ("fig3", "fig6", "table2", ...).
    pub figure: String,
    /// Series label as it appears in the paper's legend.
    pub series: String,
    /// X value (node count or core count).
    pub x: f64,
    /// Y value.
    pub y: f64,
    /// Y unit ("cells/s", "speedup", "W").
    pub unit: String,
}

/// Sweep a workload over node counts on one machine.
pub fn sweep(
    machine: &Machine,
    workload: &Workload,
    node_counts: &[usize],
    opts: &RunOptions,
    costs: &KernelCosts,
) -> Vec<(usize, StepResult)> {
    node_counts
        .iter()
        .map(|&n| (n, simulate_step(machine, n, workload, opts, costs)))
        .collect()
}

/// Powers of two from `lo` to `hi` inclusive.
pub fn pow2_range(lo: usize, hi: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut n = lo.max(1);
    while n <= hi {
        out.push(n);
        n *= 2;
    }
    out
}

/// Speedup series relative to the smallest node count in `results`
/// (the paper's Figures 4b and 5b normalization).
pub fn speedups(results: &[(usize, StepResult)]) -> Vec<(usize, f64)> {
    let Some(&(n0, ref r0)) = results.first() else {
        return Vec::new();
    };
    let base = r0.cells_per_second / n0 as f64 * n0 as f64; // keep form explicit
    results
        .iter()
        .map(|(n, r)| (*n, r.cells_per_second / base))
        .collect()
}

/// Table II reproduction: average power for a (level, nodes) grid point.
pub fn power_for(
    machine: &Machine,
    nodes: usize,
    workload: &Workload,
    opts: &RunOptions,
    costs: &KernelCosts,
    power: &PowerModel,
) -> f64 {
    let r = simulate_step(machine, nodes, workload, opts, costs);
    power.total_watts(machine, nodes, r.parallel_efficiency, opts.sve)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineId;

    #[test]
    fn pow2_ranges() {
        assert_eq!(pow2_range(1, 16), vec![1, 2, 4, 8, 16]);
        assert_eq!(pow2_range(16, 128), vec![16, 32, 64, 128]);
        assert_eq!(pow2_range(4, 3), Vec::<usize>::new());
    }

    #[test]
    fn sweep_produces_one_result_per_count() {
        let m = Machine::get(MachineId::Fugaku);
        let w = Workload::rotating_star(5);
        let results = sweep(
            &m,
            &w,
            &[1, 2, 4],
            &RunOptions::default(),
            &KernelCosts::default(),
        );
        assert_eq!(results.len(), 3);
        assert!(results.iter().all(|(_, r)| r.cells_per_second > 0.0));
    }

    #[test]
    fn speedup_is_one_at_base() {
        let m = Machine::get(MachineId::Fugaku);
        let w = Workload::rotating_star(5);
        let results = sweep(
            &m,
            &w,
            &[2, 4, 8],
            &RunOptions::default(),
            &KernelCosts::default(),
        );
        let s = speedups(&results);
        assert!((s[0].1 - 1.0).abs() < 1e-12);
        assert!(s[1].1 > 1.0);
    }

    #[test]
    fn figure_point_serializes() {
        let p = FigurePoint {
            figure: "fig6".into(),
            series: "level 5".into(),
            x: 64.0,
            y: 1.0e7,
            unit: "cells/s".into(),
        };
        let json = serde_json::to_string(&p).unwrap();
        assert!(json.contains("fig6"));
        let back: FigurePoint = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn power_in_plausible_total_band() {
        // Table II: e.g. 128 nodes at level 5 → ~12 kW total.
        let m = Machine::get(MachineId::Fugaku);
        let w = Workload::rotating_star(5);
        let watts = power_for(
            &m,
            128,
            &w,
            &RunOptions::default(),
            &KernelCosts::default(),
            &PowerModel::default(),
        );
        assert!(
            (128.0 * 55.0..128.0 * 130.0).contains(&watts),
            "total watts {watts}"
        );
    }
}
