//! Mid-run adaptive regridding must be a pure performance feature: a
//! 7-step run with cadence-driven regridding (both refine and coarsen
//! firing) is bit-identical across 1 vs 4 simulated localities and scalar
//! vs SVE vector modes, and every topology-changing pass costs exactly one
//! rebuild per cached gravity plan.  (The debug-build solver statically
//! verifies every rebuilt plan inside these runs.)

use hpx_rt::SimCluster;
use octotiger::{Scenario, ScenarioKind, SimOptions, Simulation, NF};
use octree::NodeId;
use sve_simd::VectorMode;

/// What [`adaptive_run`] fingerprints: the Δt bit sequence and the final
/// per-leaf state bits.
type RunFingerprint = (Vec<u64>, Vec<(NodeId, Vec<u64>)>);

/// One adaptive run: 7 steps, regrid every 2nd — the first pass refines
/// every leaf one level (8 → 64 leaves, where the cells start to sample
/// the star), the later ones coarsen whatever the tree lets go (→ 8 → 1).
fn adaptive_run(localities: usize, mode: VectorMode) -> RunFingerprint {
    let cluster = SimCluster::new(4, 2);
    // Level 1 base kept deliberately small: 7 steps × 4 configurations,
    // and every rebuilt plan is statically verified in debug.
    let sc = Scenario::build(ScenarioKind::RotatingStar, &cluster, 1, 0, 4);
    let mut opts = SimOptions::default();
    opts.gravity = true;
    opts.omega = sc.omega;
    opts.localities = localities;
    opts.vector_mode = mode;
    opts.regrid_cadence = Some(2);
    opts.regrid_max_level = 2;
    opts.regrid_refine_threshold = 0.0;
    opts.regrid_coarsen_threshold = 0.0;
    let mut sim = Simulation::new(sc.grid, opts);
    let mut dts = Vec::new();
    let (mut refined, mut derefined, mut changing_passes) = (0, 0, 0);
    for step in 0..7 {
        if step == 3 {
            // Options are mutable between steps: from here on nothing
            // refines and every octet of leaves collapses.
            sim.opts.regrid_refine_threshold = f64::INFINITY;
            sim.opts.regrid_coarsen_threshold = f64::INFINITY;
        }
        let s = sim.step(&cluster);
        refined += s.regrid_refined;
        derefined += s.regrid_derefined;
        changing_passes += u64::from(s.regrid_refined + s.regrid_derefined > 0);
        dts.push(s.dt.to_bits());
    }
    assert!(
        refined > 0 && derefined > 0,
        "regrid passes must refine and coarsen at least once each"
    );
    // One rebuild per cached plan per topology-changing pass: the
    // interaction plan, plus the halo plan when the solve is sharded.
    let rebuilt =
        hpx_rt::counters::select(&sim.counters(&cluster), "/octotiger/regrid/plan-rebuilt");
    let plans = if localities > 1 { 2 } else { 1 };
    assert_eq!(rebuilt[0].1, plans * changing_passes);
    let mut leaves = sim.grid.leaves();
    leaves.sort();
    let state = leaves
        .iter()
        .map(|&l| {
            let handle = sim.grid.grid(l);
            let g = handle.read();
            let mut bits = Vec::new();
            for f in 0..NF {
                bits.extend(g.field(f).iter().map(|v| v.to_bits()));
            }
            (l, bits)
        })
        .collect();
    cluster.shutdown();
    (dts, state)
}

#[test]
fn adaptive_runs_bit_identical_across_localities_and_widths() {
    let (base_dts, base_state) = adaptive_run(1, VectorMode::Scalar);
    for (nloc, mode) in [
        (4, VectorMode::Scalar),
        (1, VectorMode::Sve512),
        (4, VectorMode::Sve512),
    ] {
        let (dts, state) = adaptive_run(nloc, mode);
        assert_eq!(
            base_dts, dts,
            "Δt sequence diverged at {nloc} localities, {mode:?}"
        );
        assert_eq!(
            base_state.len(),
            state.len(),
            "leaf count diverged at {nloc} localities, {mode:?}"
        );
        for ((la, ba), (lb, bb)) in base_state.iter().zip(&state) {
            assert_eq!(la, lb, "leaf set diverged at {nloc} localities, {mode:?}");
            assert_eq!(
                ba, bb,
                "state diverged at {la} ({nloc} localities, {mode:?})"
            );
        }
    }
}
