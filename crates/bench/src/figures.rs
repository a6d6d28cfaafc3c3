//! One builder per paper table/figure.  Each returns a [`FigureReport`]
//! with the paper's series and the qualitative claims the reproduction
//! must exhibit; the `fig*`/`table*` binaries print them, and the
//! integration tests assert `all_pass()`.

use crate::report::FigureReport;
use cluster::{
    pow2_range, sweep, KernelCosts, Machine, MachineId, PowerModel, RunOptions, Workload,
};

/// Paper defaults for the Fugaku production runs: SVE on, communication
/// optimization on, default multipole granularity.
fn paper_default_opts() -> RunOptions {
    RunOptions {
        sve: true,
        boost: false,
        comm_opt: true,
        multipole_tasks: 1,
        hydro_leaves_per_task: 1,
    }
}

/// Figure 3: node-level scaling on one Fugaku node, 1.8 GHz default vs
/// 2.2 GHz boost mode.  The paper ran the pre-SVE Octo-Tiger (6848ea1);
/// boost brought only "a marginal performance improvement" at full node.
pub fn figure3() -> FigureReport {
    let mut r = FigureReport::new(
        "fig3",
        "Node level scaling on a single Fugaku node (boost mode)",
    );
    let m = Machine::get(MachineId::Fugaku);
    let costs = KernelCosts::default();
    let flops_cell = costs.flops_per_cell_step();
    let mut rates = Vec::new();
    for cores in [1usize, 2, 4, 8, 16, 24, 32, 48] {
        // Figure 3 predates the SVE port: scalar kernels.
        let normal = m.cpu_node_gflops(cores, 1.0, false) * 1e9 / flops_cell;
        let boost = m.cpu_node_gflops(cores, 1.0, true) * 1e9 / flops_cell;
        r.point("default 1.8 GHz", cores as f64, normal, "cells/s");
        r.point("boost 2.2 GHz", cores as f64, boost, "cells/s");
        rates.push((cores, normal, boost));
    }
    let (_, n1, _) = rates[0];
    let (_, n48, b48) = *rates.last().expect("non-empty");
    r.check(
        "scaling from 1 to 48 cores is substantial (> 20x)",
        n48 / n1 > 20.0,
    );
    r.check(
        "boost mode gives only a marginal improvement at full node (< 10%)",
        b48 / n48 < 1.10 && b48 >= n48,
    );
    r
}

/// Figure 4: v1309 on Summit vs Piz Daint vs Fugaku — cells/s (a) and
/// speedup vs the smallest feasible node count (b).
pub fn figure4() -> FigureReport {
    let mut r = FigureReport::new(
        "fig4",
        "v1309: Summit vs Piz Daint vs Fugaku (17M sub-grids)",
    );
    let w = Workload::v1309();
    let opts = paper_default_opts();
    let costs = KernelCosts::default();
    let mut per_machine = Vec::new();
    for id in [MachineId::Summit, MachineId::PizDaint, MachineId::Fugaku] {
        let m = Machine::get(id);
        // Start at the smallest power of two whose memory fits the run.
        let min_nodes = m.min_nodes_for(w.footprint_gb).next_power_of_two();
        let counts = pow2_range(min_nodes, m.max_nodes.min(min_nodes * 64));
        let results = sweep(&m, &w, &counts, &opts, &costs);
        for (n, res) in &results {
            r.point(m.name, *n as f64, res.cells_per_second, "cells/s");
        }
        for (n, s) in cluster::speedups(&results) {
            r.point(&format!("{} speedup", m.name), n as f64, s, "speedup");
        }
        per_machine.push((id, min_nodes, results));
    }
    let (_, summit_min, _) = &per_machine[0];
    let (_, daint_min, _) = &per_machine[1];
    let (_, fugaku_min, _) = &per_machine[2];
    r.check(
        "Summit fits the scenario on one node (512 GB)",
        *summit_min == 1,
    );
    r.check("Piz Daint starts at four nodes (64 GB)", *daint_min == 4);
    r.check("Fugaku starts at sixteen nodes (28 GB)", *fugaku_min == 16);
    // Compare at a node count all machines share.
    let at = 64usize;
    let rate = |idx: usize| {
        per_machine[idx]
            .2
            .iter()
            .find(|(n, _)| *n == at)
            .map(|(_, r)| r.cells_per_second)
            .expect("64 nodes present in every sweep")
    };
    let (summit, daint, fugaku) = (rate(0), rate(1), rate(2));
    r.check(
        "Summit has the best performance (6 V100 per node)",
        summit > daint && summit > fugaku,
    );
    r.check("Piz Daint is second", daint > fugaku);
    r.check(
        "Fugaku is close to Piz Daint (within ~4x, unlike the GPU-heavy Summit)",
        daint / fugaku < 4.0 && summit / fugaku > daint / fugaku,
    );
    r
}

/// Figure 5: DWD level 12 on Perlmutter (with and without its 4 A100s)
/// vs Fugaku.
pub fn figure5() -> FigureReport {
    let mut r = FigureReport::new(
        "fig5",
        "DWD: Perlmutter (GPU/CPU) vs Fugaku (5,150,720 sub-grids)",
    );
    let w = Workload::dwd();
    let opts = paper_default_opts();
    let costs = KernelCosts::default();
    let counts = pow2_range(1, 128);
    let mut rates = Vec::new();
    for id in [
        MachineId::Perlmutter,
        MachineId::PerlmutterCpuOnly,
        MachineId::Fugaku,
    ] {
        let m = Machine::get(id);
        let results = sweep(&m, &w, &counts, &opts, &costs);
        for (n, res) in &results {
            r.point(m.name, *n as f64, res.cells_per_second, "cells/s");
        }
        for (n, s) in cluster::speedups(&results) {
            r.point(&format!("{} speedup", m.name), n as f64, s, "speedup");
        }
        rates.push(results);
    }
    let at = |idx: usize, n: usize| {
        rates[idx]
            .iter()
            .find(|(nn, _)| *nn == n)
            .map(|(_, r)| r.cells_per_second)
            .expect("node count present")
    };
    r.check(
        "using the 4 A100s per node dominates CPU-only by a large factor (>= 20x)",
        at(0, 16) / at(1, 16) >= 20.0,
    );
    r.check(
        "Fugaku gets close to the CPU-only Perlmutter run (within 2x, from below)",
        at(2, 16) <= at(1, 16) && at(1, 16) / at(2, 16) < 2.0,
    );
    r.check(
        "the scenario fits one Fugaku node (paper chose level 12 for 28 GB)",
        Machine::get(MachineId::Fugaku).min_nodes_for(w.footprint_gb) == 1,
    );
    r
}

/// Figure 6: rotating-star strong scaling on Fugaku, levels 5/6/7, up to
/// 1024 nodes (SVE + communication optimization enabled, as in the paper).
pub fn figure6() -> FigureReport {
    let mut r = FigureReport::new(
        "fig6",
        "Rotating star scaling on Fugaku: levels 5 (2.5M), 6 (14.2M), 7 (88.6M cells)",
    );
    let m = Machine::get(MachineId::Fugaku);
    let opts = paper_default_opts();
    let costs = KernelCosts::default();
    let sweeps = [
        (5u8, pow2_range(1, 256)),
        (6, pow2_range(128, 1024)),
        (7, vec![400, 512, 1024]),
    ];
    let mut results = Vec::new();
    for (level, counts) in &sweeps {
        let w = Workload::rotating_star(*level);
        let res = sweep(&m, &w, counts, &opts, &costs);
        for (n, sr) in &res {
            r.point(
                &format!("level {level}"),
                *n as f64,
                sr.cells_per_second,
                "cells/s",
            );
        }
        results.push(res);
    }
    let rate = |series: usize, n: usize| {
        results[series]
            .iter()
            .find(|(nn, _)| *nn == n)
            .map(|(_, r)| r.cells_per_second)
            .expect("node count present")
    };
    r.check(
        "level 5 scales well to 64 nodes",
        rate(0, 64) / rate(0, 1) > 30.0,
    );
    r.check(
        "level 5 runs out of work per core beyond ~64 nodes (< 1.35x from 64 to 256)",
        rate(0, 256) / rate(0, 64) < 1.35,
    );
    r.check(
        "level 6 still scales from 128 to 512 nodes",
        rate(1, 512) / rate(1, 128) > 1.8,
    );
    r.check(
        "level 6 flattens from 512 to 1024 nodes",
        rate(1, 1024) / rate(1, 512) < 1.35,
    );
    r.check(
        "level 7 has enough work to scale through 1024 nodes",
        rate(2, 1024) / rate(2, 512) > 1.5,
    );
    r
}

/// Table II: average power consumption on Fugaku measured PowerAPI-style.
pub fn table2() -> FigureReport {
    let mut r = FigureReport::new(
        "table2",
        "Average power consumption on Fugaku (PowerAPI model)",
    );
    let m = Machine::get(MachineId::Fugaku);
    let opts = paper_default_opts();
    let costs = KernelCosts::default();
    let power = PowerModel::default();
    let grid: [(u8, &[usize]); 3] = [
        (5, &[4, 16, 32, 128, 256]),
        (6, &[128, 256, 1024]),
        (7, &[512, 1024]),
    ];
    let mut w1024_level6 = 0.0;
    for (level, counts) in grid {
        let w = Workload::rotating_star(level);
        for &n in counts {
            let watts = cluster::campaign::power_for(&m, n, &w, &opts, &costs, &power);
            r.point(&format!("level {level}"), n as f64, watts, "W");
            if level == 6 && n == 1024 {
                w1024_level6 = watts;
            }
        }
    }
    // The paper measured 111261.36 W for level 6 at 1024 nodes.
    let paper = 111_261.36;
    r.check(
        "level 6 @ 1024 nodes lands near the paper's 111 kW (within 35%)",
        (w1024_level6 - paper).abs() / paper < 0.35,
    );
    let per_node_ok = r.points.iter().all(|p| {
        let per_node = p.y / p.x;
        (50.0..130.0).contains(&per_node)
    });
    r.check(
        "per-node power stays in the A64FX band (~50-130 W/node)",
        per_node_ok,
    );
    r
}

/// Figure 7: influence of SVE vectorization on Ookami (rotating star
/// level 5, up to 128 nodes).
pub fn figure7() -> FigureReport {
    let mut r = FigureReport::new("fig7", "Influence of SVE vectorization on Ookami");
    let m = Machine::get(MachineId::Ookami);
    let costs = KernelCosts::default();
    let w = Workload::rotating_star(5);
    let counts = pow2_range(1, 128);
    let mut opts = paper_default_opts();
    opts.sve = true;
    let on = sweep(&m, &w, &counts, &opts, &costs);
    opts.sve = false;
    let off = sweep(&m, &w, &counts, &opts, &costs);
    for (n, res) in &on {
        r.point("SIMD ON (SVE)", *n as f64, res.cells_per_second, "cells/s");
    }
    for (n, res) in &off {
        r.point(
            "SIMD OFF (scalar)",
            *n as f64,
            res.cells_per_second,
            "cells/s",
        );
    }
    let ratio_at = |i: usize| on[i].1.cells_per_second / off[i].1.cells_per_second;
    r.check(
        "SVE clearly improves cells/s on one node (>= 1.5x)",
        ratio_at(0) >= 1.5,
    );
    r.check(
        "the SVE advantage persists in distributed runs (>= 1.3x at 32 nodes)",
        ratio_at(5) >= 1.3,
    );
    r.check(
        "kernel-level speedup is in the paper's 2-3x band",
        (2.0..=3.0).contains(&costs.sve_speedup),
    );
    r
}

/// Figure 8: the Section VII-B communication optimization on/off
/// (rotating star level 5, Ookami).
pub fn figure8() -> FigureReport {
    let mut r = FigureReport::new("fig8", "Influence of the local-communication optimization");
    let m = Machine::get(MachineId::Ookami);
    let costs = KernelCosts::default();
    let w = Workload::rotating_star(5);
    let counts = pow2_range(1, 128);
    let mut opts = paper_default_opts();
    opts.comm_opt = true;
    let on = sweep(&m, &w, &counts, &opts, &costs);
    opts.comm_opt = false;
    let off = sweep(&m, &w, &counts, &opts, &costs);
    for (n, res) in &on {
        r.point(
            "optimization ON",
            *n as f64,
            res.cells_per_second,
            "cells/s",
        );
    }
    for (n, res) in &off {
        r.point(
            "optimization OFF",
            *n as f64,
            res.cells_per_second,
            "cells/s",
        );
    }
    let gain = |i: usize| on[i].1.cells_per_second / off[i].1.cells_per_second;
    r.check("the optimization helps on 1, 2 and 4 nodes", {
        gain(0) > 1.0 && gain(1) > 1.0 && gain(2) > 1.0
    });
    r.check(
        "break-even is reached around 8 nodes (within 1%)",
        (gain(3) - 1.0).abs() < 0.01,
    );
    r.check(
        "beyond the break-even the optimization is slightly worse, not catastrophic",
        gain(6) < 1.0 && gain(6) > 0.90,
    );
    r
}

/// Figure 9: multipole work splitting (1 vs 16 HPX tasks per kernel),
/// overlaid with the PR-10 online tuner's converged choice per node count
/// — the figure's static sweep run as a closed loop.
pub fn figure9() -> FigureReport {
    let mut r = FigureReport::new(
        "fig9",
        "Multipole work splitting via the Kokkos HPX execution space",
    );
    let m = Machine::get(MachineId::Ookami);
    let costs = KernelCosts::default();
    let w = Workload::rotating_star(5);
    let counts = pow2_range(1, 128);
    let mut opts = paper_default_opts();
    opts.multipole_tasks = 1;
    let off = sweep(&m, &w, &counts, &opts, &costs);
    opts.multipole_tasks = 16;
    let on = sweep(&m, &w, &counts, &opts, &costs);
    for (n, res) in &off {
        r.point(
            "OFF (1 task/kernel)",
            *n as f64,
            res.cells_per_second,
            "cells/s",
        );
    }
    for (n, res) in &on {
        r.point(
            "ON (16 tasks/kernel)",
            *n as f64,
            res.cells_per_second,
            "cells/s",
        );
    }
    // The tuner overlay: at each node count, hill-climb `multipole_tasks`
    // over the figure's ladder with the model's step time as the signal
    // until the climb freezes.  The model is deterministic (noise-free),
    // so the hysteresis band is set well below the paper's smallest
    // effect (the ~2% crossover gain at 128 nodes).
    let ladder: Vec<usize> = vec![1, 2, 4, 8, 16, 32, 64];
    let mut tuned = Vec::new();
    for &n in &counts {
        let run_at = |tasks: usize| {
            let mut o = paper_default_opts();
            o.multipole_tasks = tasks;
            sweep(&m, &w, &[n], &o, &costs)[0].1.cells_per_second
        };
        let mut tuner = hpx_rt::Tuner::with_params(ladder.clone(), 1, 1e-4, u64::MAX);
        let mut windows = 0;
        while !tuner.is_frozen() && windows < 64 {
            tuner.observe(1.0 / run_at(tuner.current()));
            windows += 1;
        }
        let choice = tuner.current();
        let rate = run_at(choice);
        r.point("TUNED (closed loop)", n as f64, rate, "cells/s");
        tuned.push((n, choice, rate));
    }
    let last = counts.len() - 1;
    r.check(
        "one task per kernel is sufficient on a single node (ON does not win)",
        on[0].1.cells_per_second <= off[0].1.cells_per_second * 1.001,
    );
    r.check(
        "splitting into 16 tasks yields a noticeable speedup at 128 nodes",
        on[last].1.cells_per_second > off[last].1.cells_per_second * 1.02,
    );
    r.check(
        "the tuner converges to the better static at both endpoints",
        tuned[0].2 >= off[0].1.cells_per_second.max(on[0].1.cells_per_second) * 0.999
            && tuned[last].2
                >= off[last]
                    .1
                    .cells_per_second
                    .max(on[last].1.cells_per_second)
                    * 0.999,
    );
    r.check(
        "the tuner picks few tasks at one node and many at 128",
        tuned[0].1 <= 2 && tuned[last].1 >= 8,
    );
    r
}

/// Figure 10: Ookami (fully optimized, ± SVE) vs Fugaku (SVE, older
/// optimization state).
pub fn figure10() -> FigureReport {
    let mut r = FigureReport::new(
        "fig10",
        "Ookami vs Supercomputer Fugaku (rotating star level 5)",
    );
    let w = Workload::rotating_star(5);
    let counts = pow2_range(1, 128);

    // Ookami ran the post-allocation SVE improvements and the multipole
    // splitting; Fugaku ran the older SVE and no splitting.
    let mut ookami_costs = KernelCosts::default();
    ookami_costs.sve_speedup = 2.75;
    let mut fugaku_costs = KernelCosts::default();
    fugaku_costs.sve_speedup = 2.4;

    let ookami = Machine::get(MachineId::Ookami);
    let fugaku = Machine::get(MachineId::Fugaku);
    let mut opts = paper_default_opts();
    opts.multipole_tasks = 16;
    let ookami_sve = sweep(&ookami, &w, &counts, &opts, &ookami_costs);
    let mut opts_off = opts;
    opts_off.sve = false;
    let ookami_scalar = sweep(&ookami, &w, &counts, &opts_off, &ookami_costs);
    let mut fugaku_opts = paper_default_opts();
    fugaku_opts.multipole_tasks = 1;
    let fugaku_sve = sweep(&fugaku, &w, &counts, &fugaku_opts, &fugaku_costs);

    for (n, res) in &ookami_sve {
        r.point("Ookami (SVE)", *n as f64, res.cells_per_second, "cells/s");
    }
    for (n, res) in &ookami_scalar {
        r.point(
            "Ookami (no SVE)",
            *n as f64,
            res.cells_per_second,
            "cells/s",
        );
    }
    for (n, res) in &fugaku_sve {
        r.point("Fugaku (SVE)", *n as f64, res.cells_per_second, "cells/s");
    }
    let ratio = |i: usize| ookami_sve[i].1.cells_per_second / fugaku_sve[i].1.cells_per_second;
    r.check(
        "Ookami (SVE) is slightly better up to 4 nodes (improved SVE after the allocation)",
        ratio(0) > 1.0 && ratio(2) > 1.0 && ratio(2) < 1.6,
    );
    r.check("at 8 nodes the systems are close (within 25%)", {
        let q = ratio(3);
        (0.75..1.25).contains(&q)
    });
    r.check(
        "beyond 8 nodes Ookami pulls ahead (interconnect + multipole splitting)",
        ratio(6) > ratio(3) && ratio(6) > 1.1,
    );
    r.check(
        "SVE also wins on Ookami in this comparison",
        ookami_sve[4].1.cells_per_second > ookami_scalar[4].1.cells_per_second,
    );
    r
}

/// Fault-injection companion to Figure 6: the paper could not debug hangs
/// at large node counts ("Octo-Tiger started to hang for a larger node
/// count") — reproduce the reliability cliff.
pub(crate) fn fault_companion() -> FigureReport {
    let mut r = FigureReport::new(
        "fig6-faults",
        "Run-completion probability on Fugaku (Fujitsu MPI hang model)",
    );
    let fm = cluster::FaultModel::default();
    let m = Machine::get(MachineId::Fugaku);
    for nodes in pow2_range(64, 2048) {
        let p_ok = 1.0 - fm.failure_probability(&m, nodes);
        r.point("completion probability", nodes as f64, p_ok, "probability");
    }
    r.check(
        "runs are reliable through 512 nodes",
        fm.failure_probability(&m, 512) == 0.0,
    );
    r.check(
        "hangs appear beyond 512 nodes",
        fm.failure_probability(&m, 1024) > 0.0,
    );
    r
}

/// Allocation-pressure companion: the scratch-recycling subsystem's
/// allocs-per-step, measured on a real (small) simulation rather than the
/// machine model.  The paper's A64FX nodes have 28 GB usable HBM2, so
/// Octo-Tiger's production configuration cannot afford per-launch buffer
/// churn — steady state must run out of the recycling pools.
pub fn scratch_pressure() -> FigureReport {
    use octotiger::{Scenario, ScenarioKind, SimOptions, Simulation};

    let mut r = FigureReport::new(
        "scratch",
        "Allocation pressure per step (pooled vs unpooled scratch)",
    );
    let steps = 6usize;
    let run = |recycle: bool| -> Vec<u64> {
        let cluster = hpx_rt::SimCluster::new(1, 2);
        let sc = Scenario::build(ScenarioKind::RotatingStar, &cluster, 1, 0, 4);
        let mut opts = SimOptions::default();
        opts.gravity = false;
        opts.omega = sc.omega;
        let mut sim = Simulation::new(sc.grid, opts);
        let mut prev = 0u64;
        let mut per_step = Vec::with_capacity(steps);
        for _ in 0..steps {
            if !recycle {
                // The unpooled series: a fresh simulation (arena and
                // workspaces) around the same grid every step, so its
                // arena's miss counter starts from zero each time.
                let mut fresh = Simulation::new(sim.grid.clone(), sim.opts);
                fresh.time = sim.time;
                fresh.step_count = sim.step_count;
                fresh.mass_outflow = sim.mass_outflow;
                sim = fresh;
                prev = 0;
            }
            // `scratch_misses` is cumulative per simulation, so the
            // per-step alloc count is the delta.
            let s = sim.step(&cluster);
            per_step.push(s.scratch_misses - prev);
            prev = s.scratch_misses;
        }
        cluster.shutdown();
        per_step
    };
    let pooled = run(true);
    let unpooled = run(false);
    for (i, &m) in pooled.iter().enumerate() {
        r.point("recycling ON", (i + 1) as f64, m as f64, "allocs/step");
    }
    for (i, &m) in unpooled.iter().enumerate() {
        r.point("recycling OFF", (i + 1) as f64, m as f64, "allocs/step");
    }
    r.check(
        "steady state is allocation-free: zero pool misses after the warm-up step",
        pooled[1..].iter().all(|&m| m == 0),
    );
    r.check(
        "the warm-up step is the only one that allocates",
        pooled[0] > 0,
    );
    r.check(
        "without recycling every step re-allocates its scratch",
        unpooled.iter().all(|&m| m > 0),
    );
    r
}

/// Quick smoke evaluation of every figure (used by integration tests).
pub fn all_reports() -> Vec<FigureReport> {
    vec![
        figure3(),
        figure4(),
        figure5(),
        figure6(),
        table2(),
        figure7(),
        figure8(),
        figure9(),
        figure10(),
        fault_companion(),
        scratch_pressure(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_checks_pass() {
        let r = figure3();
        assert!(r.all_pass(), "{}", r.to_markdown());
    }

    #[test]
    fn figure4_checks_pass() {
        let r = figure4();
        assert!(r.all_pass(), "{}", r.to_markdown());
    }

    #[test]
    fn figure5_checks_pass() {
        let r = figure5();
        assert!(r.all_pass(), "{}", r.to_markdown());
    }

    #[test]
    fn figure6_checks_pass() {
        let r = figure6();
        assert!(r.all_pass(), "{}", r.to_markdown());
    }

    #[test]
    fn table2_checks_pass() {
        let r = table2();
        assert!(r.all_pass(), "{}", r.to_markdown());
    }

    #[test]
    fn figure7_checks_pass() {
        let r = figure7();
        assert!(r.all_pass(), "{}", r.to_markdown());
    }

    #[test]
    fn figure8_checks_pass() {
        let r = figure8();
        assert!(r.all_pass(), "{}", r.to_markdown());
    }

    #[test]
    fn figure9_checks_pass() {
        let r = figure9();
        assert!(r.all_pass(), "{}", r.to_markdown());
    }

    #[test]
    fn figure10_checks_pass() {
        let r = figure10();
        assert!(r.all_pass(), "{}", r.to_markdown());
    }

    #[test]
    fn fault_companion_checks_pass() {
        let r = fault_companion();
        assert!(r.all_pass(), "{}", r.to_markdown());
    }
}
