//! Interconnect models.
//!
//! The paper repeatedly points at the interconnect when explaining
//! cross-machine differences — "Fugaku uses the Fujitsu Tofu-D interconnect
//! with Fujitsu MPI and Ookami uses Infiniband interconnect with OpenMPI"
//! (Section VII-D), with Ookami pulling ahead of Fugaku beyond 8 nodes.
//! Each model is a classic latency/bandwidth/overhead (LogGP-flavoured)
//! triple; constants are public figures for the links plus an effective
//! per-message software overhead that carries the MPI-implementation
//! difference the paper observed.

use serde::{Deserialize, Serialize};

/// A latency/bandwidth/overhead interconnect model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Interconnect {
    /// Human-readable name.
    pub name: &'static str,
    /// One-way small-message latency, seconds.
    pub latency_s: f64,
    /// Per-node injection bandwidth, bytes/second.
    pub bandwidth_bps: f64,
    /// Per-message software overhead on the host CPU, seconds — this is
    /// where Fujitsu-MPI-on-Tofu vs OpenMPI-on-InfiniBand differ in
    /// practice for the many small messages Octo-Tiger sends.
    pub per_message_overhead_s: f64,
}

impl Interconnect {
    /// Fugaku's Tofu-D (6D torus, ~6.8 GB/s injection per NIC group).
    /// The elevated per-message overhead reflects the Fujitsu-MPI
    /// small-message behaviour the paper ran into at scale.
    pub(crate) const fn tofu_d() -> Interconnect {
        Interconnect {
            name: "Tofu-D (Fujitsu MPI)",
            latency_s: 0.9e-6,
            bandwidth_bps: 6.8e9,
            per_message_overhead_s: 2.4e-6,
        }
    }

    /// Ookami's InfiniBand HDR with OpenMPI.
    pub(crate) const fn infiniband_hdr() -> Interconnect {
        Interconnect {
            name: "InfiniBand HDR (OpenMPI)",
            latency_s: 1.1e-6,
            bandwidth_bps: 12.5e9,
            per_message_overhead_s: 1.2e-6,
        }
    }

    /// Summit's dual-rail EDR InfiniBand.
    pub(crate) const fn infiniband_edr_dual() -> Interconnect {
        Interconnect {
            name: "InfiniBand EDR x2",
            latency_s: 1.0e-6,
            bandwidth_bps: 23.0e9,
            per_message_overhead_s: 1.3e-6,
        }
    }

    /// Piz Daint's Cray Aries dragonfly.
    pub(crate) const fn aries() -> Interconnect {
        Interconnect {
            name: "Cray Aries",
            latency_s: 1.3e-6,
            bandwidth_bps: 10.2e9,
            per_message_overhead_s: 1.4e-6,
        }
    }

    /// Perlmutter's HPE Slingshot 10 (phase 1 — the paper's disclaimer
    /// notes the network was not final).
    pub(crate) const fn slingshot10() -> Interconnect {
        Interconnect {
            name: "Slingshot 10 (phase 1)",
            latency_s: 1.2e-6,
            bandwidth_bps: 12.5e9,
            per_message_overhead_s: 1.3e-6,
        }
    }

    /// Time for one node to send `messages` messages totalling `bytes`
    /// bytes, with `overlap_cores` cores able to progress communication
    /// concurrently (HPX overlaps communication with computation, so
    /// per-message host overhead is divided over the helper cores).
    pub(crate) fn transfer_time(&self, messages: u64, bytes: u64, overlap_cores: usize) -> f64 {
        if messages == 0 {
            return 0.0;
        }
        let overhead = self.per_message_overhead_s * messages as f64 / overlap_cores.max(1) as f64;
        self.latency_s + overhead + bytes as f64 / self.bandwidth_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_messages_is_free() {
        assert_eq!(Interconnect::tofu_d().transfer_time(0, 0, 48), 0.0);
    }

    #[test]
    fn bandwidth_term_dominates_large_transfers() {
        let net = Interconnect::infiniband_hdr();
        let t = net.transfer_time(1, 12_500_000_000, 1);
        assert!((t - 1.0).abs() / 1.0 < 0.01, "1 s of bandwidth: {t}");
    }

    #[test]
    fn message_overhead_scales_and_overlaps() {
        let net = Interconnect::tofu_d();
        let serial = net.transfer_time(10_000, 0, 1);
        let overlapped = net.transfer_time(10_000, 0, 48);
        assert!(serial > overlapped * 10.0);
    }

    #[test]
    fn tofu_has_higher_message_overhead_than_ib() {
        // The Fugaku-vs-Ookami asymmetry the paper observed beyond 8 nodes.
        assert!(
            Interconnect::tofu_d().per_message_overhead_s
                > Interconnect::infiniband_hdr().per_message_overhead_s
        );
    }

    #[test]
    fn all_models_have_sane_magnitudes() {
        for net in [
            Interconnect::tofu_d(),
            Interconnect::infiniband_hdr(),
            Interconnect::infiniband_edr_dual(),
            Interconnect::aries(),
            Interconnect::slingshot10(),
        ] {
            assert!(net.latency_s > 1e-8 && net.latency_s < 1e-4, "{}", net.name);
            assert!(net.bandwidth_bps > 1e9 && net.bandwidth_bps < 1e12);
            assert!(net.per_message_overhead_s > 1e-8 && net.per_message_overhead_s < 1e-4);
        }
    }
}
