//! The metric tables and the arithmetic every report shares.
//!
//! The tables are the single source of `BENCHMARK.json` (the `schema`
//! subcommand prints it; a unit test holds the committed file to it), of
//! the bounds `compare` applies, and of the moves-which table in the README.

use serde::Content;
use std::collections::BTreeMap;

/// A metric a user of the system sees; `bound` is the share of the parent's
/// median by which it may worsen before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "cell_updates_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.10,
    },
];

/// A metric of one layer.  `moves` names the (end-to-end metric, workload)
/// it should move; `exact` marks counts that repeat bit for bit between runs
/// of one commit and seed, which `compare` holds to equality.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub exact: bool,
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: false,
        moves,
    }
}

const fn c(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
        moves,
    }
}

const ALL: &str = "cell_updates_per_s on every workload";
const HOST: &str = "none; moves with the host more than any bound allows, shows a change that slows only some steps";
const SETUP: &str = "setup_s on every workload";
const HYDRO: &str = "cell_updates_per_s on rotstar_hydro; at most 2% on rotstar_grav";
const GHOST: &str =
    "cell_updates_per_s on rotstar_hydro (uniform), v1309_amr_dist and dwd_regrid (coarse-fine)";
const P2P: &str = "cell_updates_per_s on rotstar_grav; none on rotstar_hydro";
const FMM: &str = "cell_updates_per_s on v1309_amr_dist and dwd_regrid; none on rotstar_hydro";
const RT: &str = "cell_updates_per_s on v1309_amr_dist and dwd_regrid";
const MEM: &str = "cell_updates_per_s and peak_rss_mb on every workload";
const ROOF: &str = "none; the roofline fractions' denominators";
const REGRID: &str = "cell_updates_per_s on dwd_regrid only";
const IO: &str = "none of the three; reported on v1309_amr_dist";

pub const PER_LAYER: &[PerLayer] = &[
    m("driver.step_ms_p50", "ms", "lower", HOST),
    m("driver.step_ms_p75", "ms", "lower", HOST),
    m("driver.compute_dt_ms", "ms", "lower", ALL),
    c("driver.kernel_launches_per_step", "count", "lower", ALL),
    m(
        "driver.overlapped_tasks_per_step",
        "count",
        "higher",
        "cell_updates_per_s on v1309_amr_dist",
    ),
    m(
        "driver.unattributed_share",
        "ratio",
        "lower",
        "none; must stay small on the barrier workloads",
    ),
    m(
        "driver.overlap_share",
        "ratio",
        "higher",
        "cell_updates_per_s on v1309_amr_dist",
    ),
    m(
        "driver.trace_overhead_share",
        "ratio",
        "lower",
        "none; cost of the harness's own spans",
    ),
    m("driver.scf_solve_ms", "ms", "lower", SETUP),
    m("driver.scenario_build_ms", "ms", "lower", SETUP),
    m("driver.sim_new_ms", "ms", "lower", SETUP),
    m("driver.first_step_ms", "ms", "lower", SETUP),
    m("hydro.rhs_ns_per_cell", "ns", "lower", HYDRO),
    m(
        "hydro.rhs_scalar_ns_per_cell",
        "ns",
        "lower",
        "none; the scalar build of the same call",
    ),
    m("hydro.rk_update_ns_per_cell", "ns", "lower", HYDRO),
    m("hydro.cfl_ns_per_cell", "ns", "lower", HYDRO),
    m("hydro.stage_ms", "ms", "lower", HYDRO),
    c("hydro.rhs_flops_per_cell_computed", "flop", "lower", HYDRO),
    c("hydro.rhs_bytes_per_cell_computed", "B", "lower", HYDRO),
    m("hydro.rhs_roofline_fraction", "ratio", "higher", HYDRO),
    m("ghost.exchange_ms", "ms", "lower", GHOST),
    c("ghost.links_per_exchange", "count", "lower", GHOST),
    m("ghost.ns_per_link", "ns", "lower", GHOST),
    c("ghost.bytes_per_exchange_computed", "B", "lower", GHOST),
    m("ghost.pack_ns_per_byte", "ns", "lower", GHOST),
    m("ghost.unpack_ns_per_byte", "ns", "lower", GHOST),
    c("ghost.coarse_fine_link_share", "ratio", "lower", GHOST),
    c("ghost.direct_link_share", "ratio", "higher", GHOST),
    m("gravity.gather_ms", "ms", "lower", FMM),
    m(
        "gravity.solve_ms",
        "ms",
        "lower",
        "cell_updates_per_s on rotstar_grav, v1309_amr_dist, dwd_regrid; none on rotstar_hydro",
    ),
    m("gravity.plan_lookup_us", "us", "lower", FMM),
    m(
        "gravity.plan_build_ms",
        "ms",
        "lower",
        "setup_s everywhere gravity is on; cell_updates_per_s on dwd_regrid if a patch falls back",
    ),
    m(
        "gravity.dist_plan_build_ms",
        "ms",
        "lower",
        "setup_s on v1309_amr_dist and dwd_regrid",
    ),
    c("gravity.plan_hit_share", "ratio", "higher", FMM),
    m("gravity.m2l_ms", "ms", "lower", FMM),
    c("gravity.m2l_interactions", "count", "lower", FMM),
    m("gravity.m2l_ns_per_interaction", "ns", "lower", FMM),
    c("gravity.p2p_pairs", "count", "lower", P2P),
    c(
        "gravity.p2p_cell_interactions_computed",
        "count",
        "lower",
        P2P,
    ),
    m("gravity.p2p_ns_per_interaction", "ns", "lower", P2P),
    m("gravity.tree_pass_ms", "ms", "lower", FMM),
    m(
        "gravity.fmm_rel_error",
        "ratio",
        "lower",
        "none; the accuracy gate (5e-3)",
    ),
    c(
        "gravity.p2p_flops_per_interaction_computed",
        "flop",
        "lower",
        P2P,
    ),
    m("gravity.p2p_roofline_fraction", "ratio", "higher", P2P),
    c(
        "gravity.m2l_flops_per_interaction_computed",
        "flop",
        "lower",
        FMM,
    ),
    m("gravity.m2l_roofline_fraction", "ratio", "higher", FMM),
    m("hpx_rt.task_spawn_ns", "ns", "lower", RT),
    m("hpx_rt.future_then_ns", "ns", "lower", RT),
    m("hpx_rt.parcel_roundtrip_us", "us", "lower", RT),
    c("hpx_rt.parcels_per_step", "count", "lower", RT),
    c("hpx_rt.parcel_bytes_per_step", "B", "lower", RT),
    c("hpx_rt.watchdog_fires", "count", "lower", "none; must be 0"),
    m("kokkos_rs.launch_overhead_us", "us", "lower", MEM),
    m("kokkos_rs.pool_checkout_ns", "ns", "lower", MEM),
    m("kokkos_rs.scratch_misses_per_step", "count", "lower", MEM),
    m("kokkos_rs.scratch_hit_share", "ratio", "higher", MEM),
    m(
        "kokkos_rs.scratch_high_water_mb",
        "MB",
        "lower",
        "peak_rss_mb on every workload",
    ),
    m("alloc.count_per_step", "count", "lower", MEM),
    m("alloc.bytes_per_step", "B", "lower", MEM),
    m("sve_simd.fma_gflops_w8", "GFLOP/s", "higher", ROOF),
    m("sve_simd.fma_gflops_w1", "GFLOP/s", "higher", ROOF),
    m("probe.fma_gflops", "GFLOP/s", "higher", ROOF),
    m("probe.stream_triad_gbs", "GB/s", "higher", ROOF),
    m("probe.llc_bytes", "B", "higher", ROOF),
    m("probe.triad_array_bytes", "B", "higher", ROOF),
    m("regrid.pass_ms", "ms", "lower", REGRID),
    m("regrid.leaves_changed_per_pass", "count", "lower", REGRID),
    m("regrid.patched_step_penalty_ms", "ms", "lower", REGRID),
    m(
        "regrid.plan_patch_share",
        "ratio",
        "higher",
        "none; must be 1.0, a rebuild is a regression on dwd_regrid",
    ),
    m("regrid.leaves_mean", "count", "lower", REGRID),
    m("regrid.prolong_ns_per_byte", "ns", "lower", REGRID),
    m("regrid.restrict_ns_per_byte", "ns", "lower", REGRID),
    m("io.checkpoint_write_ms", "ms", "lower", IO),
    m("io.checkpoint_read_ms", "ms", "lower", IO),
    m("io.checkpoint_mb", "MB", "lower", IO),
    m("io.write_mb_per_s", "MB/s", "higher", IO),
];

/// Named values of one run, emitted in table order.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The `metrics` object of the result line: every `(name, unit)` of the
    /// table, in table order.  A missing or non-finite value is a harness
    /// bug and an error, never a silent 0.
    pub fn to_content(&self, table: &[(&str, &str)]) -> Result<Content, String> {
        let mut out = Vec::new();
        for &(name, unit) in table {
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            let entry = obj(vec![("value", Content::F64(value)), ("unit", s(unit))]);
            out.push((name.to_string(), entry));
        }
        Ok(Content::Map(out))
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// order statistics — the same rule as numpy's default.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// `part / whole`, 0 when there is no whole.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The `(name, unit)` pairs one kind of run reports, in table order.
pub fn table(traced: bool) -> Vec<(&'static str, &'static str)> {
    if traced {
        PER_LAYER.iter().map(|p| (p.name, p.unit)).collect()
    } else {
        END_TO_END.iter().map(|e| (e.name, e.unit)).collect()
    }
}

fn s(v: &str) -> Content {
    Content::Str(v.to_string())
}

/// A JSON object from `(key, value)` pairs, in order.
pub fn obj(fields: Vec<(&str, Content)>) -> Content {
    Content::Map(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// `BENCHMARK.json`, generated from the tables above and the workload list.
pub fn benchmark_json(workloads: &[(&str, &str)], run_seconds: u64) -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let doc = obj(vec![
        (
            "command",
            Content::Seq(command.iter().map(|a| s(a)).collect()),
        ),
        ("paths", Content::Seq(vec![s("benchmark")])),
        ("run_seconds", Content::U64(run_seconds)),
        (
            "workloads",
            Content::Seq(
                workloads
                    .iter()
                    .map(|(name, why)| obj(vec![("name", s(name)), ("why", s(why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Content::Seq(
                END_TO_END
                    .iter()
                    .map(|e| {
                        obj(vec![
                            ("name", s(e.name)),
                            ("unit", s(e.unit)),
                            ("better", s(e.better)),
                            ("bound", Content::F64(e.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Content::Seq(
                PER_LAYER
                    .iter()
                    .map(|p| {
                        obj(vec![
                            ("name", s(p.name)),
                            ("unit", s(p.unit)),
                            ("better", s(p.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let mut text = serde_json::to_string_pretty(&doc).expect("content serialises");
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.75), 3.25);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn share_and_mean_handle_empty_wholes() {
        assert_eq!(share(1.0, 4.0), 0.25);
        assert_eq!(share(1.0, 0.0), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|e| (e.name, e.unit))
            .chain(PER_LAYER.iter().map(|p| (p.name, p.unit)));
        for (name, unit) in names {
            assert!(seen.insert(name), "{name} used twice");
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|ch| ch.is_ascii_alphanumeric() || "_.-".contains(ch))
            );
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|ch| ch.is_ascii_alphanumeric() || "_/%.-".contains(ch))
            );
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|e| e.bound <= 0.25));
    }

    #[test]
    fn a_missing_metric_is_an_error_not_a_zero() {
        let mut got = Metrics::default();
        got.set("setup_s", 1.0);
        assert!(got.to_content(&[("setup_s", "s")]).is_ok());
        assert!(got.to_content(&[("peak_rss_mb", "MB")]).is_err());
        got.set("peak_rss_mb", f64::NAN);
        assert!(got.to_content(&[("peak_rss_mb", "MB")]).is_err());
    }
}
