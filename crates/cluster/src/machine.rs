//! Machine descriptions of the paper's five systems.
//!
//! Constants come from the public system specifications; the *sustained*
//! rates are calibrated so the cross-machine ratios reproduce the paper's
//! observed ordering (Figures 4 and 5): Summit (6 GPUs/node) fastest per
//! node, Perlmutter-GPU far above Perlmutter-CPU ("a drop of two orders of
//! magnitude"), Fugaku close to Piz Daint and slightly below
//! Perlmutter-CPU, all per-node at comparable cell counts.

use crate::network::Interconnect;
use serde::{Deserialize, Serialize};

/// Which machine a description models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MachineId {
    /// Riken Supercomputer Fugaku (A64FX, Tofu-D).
    Fugaku,
    /// Stony Brook Ookami (A64FX, InfiniBand).
    Ookami,
    /// ORNL Summit (Power9 + 6× V100).
    Summit,
    /// CSCS Piz Daint XC50 (Xeon + 1× P100).
    PizDaint,
    /// NERSC Perlmutter phase 1 (EPYC + 4× A100).
    Perlmutter,
    /// Perlmutter with GPUs disabled (the paper's CPU-only comparison).
    PerlmutterCpuOnly,
}

/// One compute node's modelled resources plus the interconnect.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Machine {
    pub id: MachineId,
    pub name: &'static str,
    /// Cores available to the runtime per node.
    pub cores_per_node: usize,
    /// Default CPU clock, GHz.
    pub clock_ghz: f64,
    /// Boost clock, if the machine has a boost mode (Fugaku: 2.2 GHz,
    /// limited to small node counts — paper Section VI-A).
    pub boost_clock_ghz: Option<f64>,
    /// Memory usable by the application per node, GB.
    pub memory_gb: f64,
    /// GPUs per node (0 for CPU-only machines).
    pub gpus_per_node: usize,
    /// Sustained double-precision rate of one GPU on Octo-Tiger-like
    /// kernels, GFLOP/s.
    pub gpu_gflops: f64,
    /// Sustained per-core scalar rate at the default clock, GFLOP/s.
    /// (SVE/AVX vectorization multiplies this by the workload's measured
    /// SIMD speedup.)
    pub core_gflops_scalar: f64,
    /// Node memory bandwidth, GB/s — the roofline that makes Fugaku's
    /// boost mode marginal at full-node occupancy (Figure 3).
    pub mem_bw_gbs: f64,
    /// Interconnect model.
    pub interconnect: Interconnect,
    /// Largest node count the paper exercised on this machine.
    pub max_nodes: usize,
}

impl Machine {
    /// Look up a machine description.
    pub fn get(id: MachineId) -> Machine {
        match id {
            MachineId::Fugaku => Machine {
                id,
                name: "Supercomputer Fugaku",
                cores_per_node: 48,
                clock_ghz: 1.8,
                boost_clock_ghz: Some(2.2),
                memory_gb: 28.0, // paper: usable HBM2 per node
                gpus_per_node: 0,
                gpu_gflops: 0.0,
                core_gflops_scalar: 0.9,
                mem_bw_gbs: 1024.0,
                interconnect: Interconnect::tofu_d(),
                max_nodes: 1024,
            },
            MachineId::Ookami => Machine {
                id,
                name: "Ookami",
                cores_per_node: 48,
                clock_ghz: 1.8,
                boost_clock_ghz: None,
                memory_gb: 32.0,
                gpus_per_node: 0,
                gpu_gflops: 0.0,
                core_gflops_scalar: 0.9,
                mem_bw_gbs: 1024.0,
                interconnect: Interconnect::infiniband_hdr(),
                max_nodes: 128,
            },
            MachineId::Summit => Machine {
                id,
                name: "Summit",
                cores_per_node: 42,
                clock_ghz: 3.07,
                boost_clock_ghz: None,
                memory_gb: 512.0,
                gpus_per_node: 6,
                gpu_gflops: 450.0, // sustained V100 on Octo-Tiger kernels
                core_gflops_scalar: 2.0,
                mem_bw_gbs: 340.0,
                interconnect: Interconnect::infiniband_edr_dual(),
                max_nodes: 128,
            },
            MachineId::PizDaint => Machine {
                id,
                name: "Piz Daint",
                cores_per_node: 12,
                clock_ghz: 2.6,
                boost_clock_ghz: None,
                memory_gb: 64.0,
                gpus_per_node: 1,
                gpu_gflops: 250.0, // sustained P100
                core_gflops_scalar: 2.2,
                mem_bw_gbs: 68.0,
                interconnect: Interconnect::aries(),
                max_nodes: 512,
            },
            MachineId::Perlmutter => Machine {
                id,
                name: "Perlmutter (4x A100)",
                cores_per_node: 64,
                clock_ghz: 2.45,
                boost_clock_ghz: None,
                memory_gb: 256.0,
                gpus_per_node: 4,
                gpu_gflops: 1600.0, // sustained A100
                core_gflops_scalar: 2.1,
                mem_bw_gbs: 204.8,
                interconnect: Interconnect::slingshot10(),
                max_nodes: 128,
            },
            MachineId::PerlmutterCpuOnly => Machine {
                gpus_per_node: 0,
                gpu_gflops: 0.0,
                name: "Perlmutter (CPU only)",
                id,
                ..Machine::get(MachineId::Perlmutter)
            },
        }
    }

    /// Effective clock in GHz for a run (`boost` selects Fugaku's
    /// 2.2 GHz mode when available).
    pub(crate) fn effective_clock(&self, boost: bool) -> f64 {
        if boost {
            self.boost_clock_ghz.unwrap_or(self.clock_ghz)
        } else {
            self.clock_ghz
        }
    }

    /// Node-level sustained CPU rate in GFLOP/s, given how many cores are
    /// active, the SIMD speedup factor of the workload's kernels, and the
    /// clock mode.
    ///
    /// The A64FX's *scalar* pipeline is memory-latency bound (shallow
    /// out-of-order window, HBM latency), so a higher clock barely moves
    /// scalar throughput — this is why the paper's Figure 3 sees only a
    /// marginal gain from Fugaku's 2.2 GHz boost mode.  Vectorized (SVE)
    /// code is flop-bound and scales with the clock.  The node memory
    /// bandwidth remains a hard upper roofline.
    pub fn cpu_node_gflops(&self, cores: usize, simd_speedup: f64, boost: bool) -> f64 {
        let cores = cores.min(self.cores_per_node);
        let clock_scale = self.effective_clock(boost) / self.clock_ghz;
        // Scalar code: weak clock sensitivity; vector code: full.
        let clock_exponent = if simd_speedup > 1.0 { 1.0 } else { 0.25 };
        let flop_rate = cores as f64
            * self.core_gflops_scalar
            * simd_speedup
            * clock_scale.powf(clock_exponent);
        let mem_rate = self.mem_bw_gbs; // ~1 flop/byte roofline
        flop_rate.min(mem_rate)
    }

    /// Node-level sustained GPU rate in GFLOP/s, derated by an
    /// aggregation-efficiency factor (GPUs need large aggregated kernels;
    /// starved GPUs lose efficiency — the work-aggregation story of the
    /// paper's reference \[9\]).
    pub(crate) fn gpu_node_gflops(&self, subgrids_per_node: f64) -> f64 {
        if self.gpus_per_node == 0 {
            return 0.0;
        }
        let per_gpu = subgrids_per_node / self.gpus_per_node as f64;
        // Saturation form: ~50% efficiency at 64 sub-grids per GPU.
        let efficiency = per_gpu / (per_gpu + 64.0);
        self.gpus_per_node as f64 * self.gpu_gflops * efficiency
    }

    /// Smallest node count whose aggregate memory holds `footprint_gb`.
    pub fn min_nodes_for(&self, footprint_gb: f64) -> usize {
        (footprint_gb / self.memory_gb).ceil().max(1.0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All machine ids the paper evaluates.
    const ALL_MACHINES: [MachineId; 6] = [
        MachineId::Fugaku,
        MachineId::Ookami,
        MachineId::Summit,
        MachineId::PizDaint,
        MachineId::Perlmutter,
        MachineId::PerlmutterCpuOnly,
    ];

    #[test]
    fn fugaku_matches_paper_description() {
        let m = Machine::get(MachineId::Fugaku);
        assert_eq!(m.cores_per_node, 48);
        assert_eq!(m.clock_ghz, 1.8);
        assert_eq!(m.boost_clock_ghz, Some(2.2));
        assert_eq!(m.memory_gb, 28.0);
        assert_eq!(m.gpus_per_node, 0);
    }

    #[test]
    fn boost_mode_only_on_fugaku() {
        for id in ALL_MACHINES {
            let m = Machine::get(id);
            if id == MachineId::Fugaku {
                assert!(m.boost_clock_ghz.is_some());
                assert!(m.effective_clock(true) > m.effective_clock(false));
            } else {
                assert_eq!(m.effective_clock(true), m.effective_clock(false));
            }
        }
    }

    #[test]
    fn boost_gain_is_marginal_for_scalar_code() {
        // Figure 3 ran the pre-SVE Octo-Tiger: scalar A64FX code barely
        // benefits from the 2.2 GHz boost.
        let m = Machine::get(MachineId::Fugaku);
        let scalar_gain = m.cpu_node_gflops(48, 1.0, true) / m.cpu_node_gflops(48, 1.0, false);
        assert!(
            scalar_gain > 1.0 && scalar_gain < 1.08,
            "scalar boost gain should be marginal: {scalar_gain}"
        );
        let vector_gain = m.cpu_node_gflops(48, 2.5, true) / m.cpu_node_gflops(48, 2.5, false);
        assert!(vector_gain > scalar_gain, "vector code clock-scales");
    }

    #[test]
    fn per_node_ordering_matches_figure_4_and_5() {
        // Node rates at generous per-node workload.
        let sub = 4096.0;
        let summit = Machine::get(MachineId::Summit).gpu_node_gflops(sub);
        let daint = Machine::get(MachineId::PizDaint).gpu_node_gflops(sub);
        let perl_gpu = Machine::get(MachineId::Perlmutter).gpu_node_gflops(sub);
        let perl_cpu = Machine::get(MachineId::PerlmutterCpuOnly).cpu_node_gflops(64, 1.0, false);
        let fugaku = Machine::get(MachineId::Fugaku).cpu_node_gflops(48, 2.5, false);
        assert!(summit > daint, "Summit per node beats Piz Daint");
        assert!(perl_gpu > 25.0 * perl_cpu, "GPU >> CPU on Perlmutter");
        assert!(
            fugaku < perl_cpu,
            "Fugaku slightly below Perlmutter CPU-only"
        );
        assert!(
            fugaku > 0.03 * daint,
            "Fugaku within 1.5 orders of Piz Daint"
        );
    }

    #[test]
    fn gpu_efficiency_falls_when_starved() {
        let m = Machine::get(MachineId::Perlmutter);
        assert!(m.gpu_node_gflops(10_000.0) > 3.0 * m.gpu_node_gflops(64.0));
        assert_eq!(
            Machine::get(MachineId::PerlmutterCpuOnly).gpu_node_gflops(1e6),
            0.0
        );
    }

    #[test]
    fn memory_feasibility_start_nodes_match_figure_4() {
        // The paper: v1309 fits on 1 Summit node (512 GB), 4 Piz Daint
        // nodes, 16 Fugaku nodes (with power-of-two rounding).
        let footprint = crate::workload::V1309_FOOTPRINT_GB;
        assert_eq!(Machine::get(MachineId::Summit).min_nodes_for(footprint), 1);
        assert_eq!(
            Machine::get(MachineId::PizDaint).min_nodes_for(footprint),
            4
        );
        let fugaku_min = Machine::get(MachineId::Fugaku).min_nodes_for(footprint);
        assert!(
            fugaku_min > 8 && fugaku_min <= 16,
            "fugaku min {fugaku_min}"
        );
    }
}
