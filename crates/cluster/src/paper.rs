//! Digitized values from the paper, for paper-vs-model comparisons.
//!
//! Table II is the only fully numeric table in the evaluation (the
//! figures are plots); its entries are reproduced here verbatim so tests
//! and EXPERIMENTS.md can quantify the power model against the paper
//! instead of hand-waving.  Entries the paper leaves blank are absent.

use crate::calibrate::KernelCosts;
use crate::machine::{Machine, MachineId};
use crate::power::PowerModel;
use crate::workload::{RunOptions, Workload};

/// One Table II entry: (refinement level, nodes, average watts).
pub const TABLE2_PAPER: [(u8, usize, f64); 10] = [
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

/// Paper-vs-model comparison of one Table II entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table2Comparison {
    pub level: u8,
    pub nodes: usize,
    pub paper_watts: f64,
    pub model_watts: f64,
}

impl Table2Comparison {
    /// model / paper ratio.
    pub fn ratio(&self) -> f64 {
        self.model_watts / self.paper_watts
    }
}

/// Evaluate the power model over the paper's Table II grid.
pub fn table2_comparisons() -> Vec<Table2Comparison> {
    let m = Machine::get(MachineId::Fugaku);
    let costs = KernelCosts::default();
    let opts = RunOptions::default();
    let power = PowerModel::default();
    TABLE2_PAPER
        .iter()
        .map(|&(level, nodes, paper_watts)| {
            let w = Workload::rotating_star(level);
            let model_watts = crate::campaign::power_for(&m, nodes, &w, &opts, &costs, &power);
            Table2Comparison {
                level,
                nodes,
                paper_watts,
                model_watts,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_the_papers_ten_entries() {
        assert_eq!(TABLE2_PAPER.len(), 10);
        // Spot-check against the paper's text.
        assert_eq!(TABLE2_PAPER[7], (6, 1024, 111261.36));
    }

    #[test]
    fn largest_runs_agree_within_fifteen_percent() {
        for c in table2_comparisons() {
            if c.nodes >= 512 {
                assert!(
                    (c.ratio() - 1.0).abs() < 0.15,
                    "level {} @ {} nodes: model {} vs paper {}",
                    c.level,
                    c.nodes,
                    c.model_watts,
                    c.paper_watts
                );
            }
        }
    }

    #[test]
    fn per_node_watts_always_physical() {
        for c in table2_comparisons() {
            let per_node = c.model_watts / c.nodes as f64;
            assert!(
                (40.0..150.0).contains(&per_node),
                "unphysical node power {per_node} W"
            );
        }
    }
}
