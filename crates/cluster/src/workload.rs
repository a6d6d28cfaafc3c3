//! The Octo-Tiger step workload model: the paper's scenarios as sub-grid
//! counts, tree depths and memory footprints, plus the run-time toggles.

use serde::{Deserialize, Serialize};

/// Modelled memory footprint of the paper's v1309 production scenario.
///
/// Chosen so the minimum feasible node counts match Section VI-B: fits one
/// Summit node (512 GB), four Piz Daint nodes (64 GB each), sixteen Fugaku
/// nodes (28 GB each, after power-of-two rounding).
pub(crate) const V1309_FOOTPRINT_GB: f64 = 250.0;

/// Modelled footprint of the DWD level-12 scenario — the paper chose the
/// refinement "such that it fits into the 28 GB of one Supercomputer
/// Fugaku node".
pub(crate) const DWD_FOOTPRINT_GB: f64 = 26.0;

/// Cells per sub-grid edge (the paper's N).
pub(crate) const SUBGRID_N: usize = 8;

/// One scenario's step workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Display name matching the paper's figures.
    pub name: String,
    /// Number of leaf sub-grids.
    pub subgrids: f64,
    /// Total cells (`subgrids × N³`).
    pub cells: f64,
    /// Depth of the octree (levels below the root).
    pub tree_levels: u32,
    /// Memory footprint in GB (decides the smallest feasible node count).
    pub footprint_gb: f64,
}

impl Workload {
    /// The rotating-star scaling problem at the paper's levels
    /// (Section VI-D: level 5 = 2.5 M cells, 6 = 14.2 M, 7 = 88.6 M).
    ///
    /// # Panics
    /// Panics for levels other than 5–7.
    pub fn rotating_star(level: u8) -> Workload {
        let cells: f64 = match level {
            5 => 2.5e6,
            6 => 14.2e6,
            7 => 88.6e6,
            _ => panic!("the paper runs the rotating star at levels 5-7"),
        };
        let subgrids = cells / (SUBGRID_N as f64).powi(3);
        Workload {
            name: format!("Rotating star level {level}"),
            subgrids,
            cells,
            tree_levels: u32::from(level) + 2, // AMR levels above the base
            // Scales with cells; level 7 ≈ 4.4 GB... the real footprint is
            // dominated by solver buffers: ~50 B/cell of state plus ~10×
            // scratch.
            footprint_gb: cells * 500.0 / 1e9,
        }
    }

    /// The v1309 contact-binary production scenario (Section VI-B,
    /// "17 million sub-grids" — we take the paper's number at face value).
    pub fn v1309() -> Workload {
        let subgrids = 17.0e6;
        Workload {
            name: "v1309".to_owned(),
            subgrids,
            cells: subgrids * (SUBGRID_N as f64).powi(3),
            tree_levels: 11,
            footprint_gb: V1309_FOOTPRINT_GB,
        }
    }

    /// The DWD level-12 scenario (Section VI-C: 5 150 720 sub-grids).
    pub fn dwd() -> Workload {
        let subgrids = 5_150_720.0;
        Workload {
            name: "DWD".to_owned(),
            subgrids,
            cells: subgrids * (SUBGRID_N as f64).powi(3),
            tree_levels: 12,
            footprint_gb: DWD_FOOTPRINT_GB,
        }
    }

    /// Sub-grids per node at a given node count.
    pub(crate) fn subgrids_per_node(&self, nodes: usize) -> f64 {
        self.subgrids / nodes as f64
    }

    /// Fraction of ghost links that cross node boundaries under a Morton
    /// partition into `nodes` parts: a surface-to-volume estimate
    /// `min(1, 2/S^{1/3})` with `S` sub-grids per node (matches the
    /// trend of the direct-link share `octree::DistGrid::exchange_ghosts`
    /// reports).
    pub(crate) fn remote_link_fraction(&self, nodes: usize) -> f64 {
        if nodes <= 1 {
            return 0.0;
        }
        let s = self.subgrids_per_node(nodes).max(1.0);
        (2.0 / s.cbrt()).min(1.0)
    }
}

/// The paper's run-time switches.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunOptions {
    /// Explicit SVE vectorization (Figure 7).
    pub sve: bool,
    /// Fugaku boost mode, 2.2 GHz (Figure 3).
    pub boost: bool,
    /// Section VII-B communication optimization (Figure 8).
    pub comm_opt: bool,
    /// HPX tasks per multipole-kernel launch: 1 = OFF, 16 = ON (Figure 9).
    pub multipole_tasks: usize,
    /// Leaf sub-grids grouped into one hydro RHS task: 1 = Octo-Tiger's
    /// default one-task-per-sub-grid granularity.  Larger groups amortize
    /// task-spawn overhead but starve cores once fewer than ~2 tasks per
    /// core remain — the hydro-side mirror of `multipole_tasks`.
    pub hydro_leaves_per_task: usize,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            sve: true,
            boost: false,
            comm_opt: true,
            multipole_tasks: 1,
            hydro_leaves_per_task: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotating_star_levels_match_paper_cell_counts() {
        assert_eq!(Workload::rotating_star(5).cells, 2.5e6);
        assert_eq!(Workload::rotating_star(6).cells, 14.2e6);
        assert_eq!(Workload::rotating_star(7).cells, 88.6e6);
    }

    #[test]
    #[should_panic(expected = "levels 5-7")]
    fn unknown_level_panics() {
        Workload::rotating_star(3);
    }

    #[test]
    fn dwd_subgrid_count_matches_paper() {
        assert_eq!(Workload::dwd().subgrids, 5_150_720.0);
        assert!(Workload::dwd().footprint_gb <= 28.0, "fits one Fugaku node");
    }

    #[test]
    fn remote_fraction_grows_with_nodes_and_caps_at_one() {
        let w = Workload::rotating_star(5);
        assert_eq!(w.remote_link_fraction(1), 0.0);
        let mut prev = 0.0;
        for nodes in [2, 8, 64, 256, 4096] {
            let f = w.remote_link_fraction(nodes);
            assert!(f >= prev, "monotone");
            assert!(f <= 1.0);
            prev = f;
        }
        // Extreme scale: everything is remote.
        assert_eq!(w.remote_link_fraction(100_000_000), 1.0);
    }

    #[test]
    fn subgrids_per_node() {
        let w = Workload::dwd();
        assert!((w.subgrids_per_node(128) - 40240.0).abs() < 1.0);
    }
}
