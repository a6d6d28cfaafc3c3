//! Cross-crate property-based tests (proptest): randomized exercises of
//! the core invariants — SIMD ≡ scalar semantics, octree balance under
//! random refinement, Morton round-trips, EOS inversions, FMM shift
//! identities, PJM parsing totality and DES sanity.

use octo_repro::simd::{Simd, VectorMode};
use proptest::prelude::*;

proptest! {
    #[test]
    fn simd_ops_match_scalar_loops(values in prop::collection::vec(-1.0e3f64..1.0e3, 8),
                                   scale in -10.0f64..10.0) {
        let mut arr = [0.0; 8];
        arr.copy_from_slice(&values);
        let v = Simd::<f64, 8>::from_array(arr);
        let scaled = v * scale;
        let summed = v + Simd::splat(scale);
        for l in 0..8 {
            prop_assert_eq!(scaled[l], arr[l] * scale);
            prop_assert_eq!(summed[l], arr[l] + scale);
        }
        prop_assert!((v.reduce_sum() - arr.iter().sum::<f64>()).abs() < 1e-9);
        let mn = v.reduce_min();
        prop_assert!(arr.iter().all(|&x| mn <= x));
    }

    #[test]
    fn simd_select_is_lanewise_branch(a in prop::collection::vec(-5.0f64..5.0, 4),
                                      b in prop::collection::vec(-5.0f64..5.0, 4)) {
        let mut aa = [0.0; 4];
        aa.copy_from_slice(&a);
        let mut bb = [0.0; 4];
        bb.copy_from_slice(&b);
        let va = Simd::<f64, 4>::from_array(aa);
        let vb = Simd::<f64, 4>::from_array(bb);
        let picked = Simd::select(va.simd_lt(vb), va, vb);
        for l in 0..4 {
            prop_assert_eq!(picked[l], if aa[l] < bb[l] { aa[l] } else { bb[l] });
        }
    }

    #[test]
    fn morton_coords_roundtrip(level in 0u8..8, seed in 0u32..1_000_000) {
        let extent = 1u32 << level;
        let x = seed % extent;
        let y = (seed / 7) % extent;
        let z = (seed / 49) % extent;
        let id = octree::NodeId::from_coords(level, [x, y, z]);
        prop_assert_eq!(id.coords(), [x, y, z]);
        prop_assert_eq!(id.level(), level);
    }

    #[test]
    fn random_refinement_keeps_tree_invariants(choices in prop::collection::vec(0usize..64, 1..12)) {
        let mut tree = octree::Tree::new_uniform(1);
        for c in choices {
            let leaves = tree.leaves();
            let target = leaves[c % leaves.len()];
            if target.level() < 5 {
                tree.refine_balanced(target);
            }
        }
        prop_assert!(tree.check_invariants().is_ok());
        // Leaves partition the domain: sum of leaf volumes is 1.
        let vol: f64 = tree
            .leaves()
            .iter()
            .map(|l| {
                let (_, size) = l.cube();
                size * size * size
            })
            .sum();
        prop_assert!((vol - 1.0).abs() < 1e-12);
    }

    #[test]
    fn eos_enthalpy_inversion(rho in 1e-6f64..1e3, k in 0.01f64..10.0) {
        use octo_repro::octotiger::eos::{Eos, Polytrope};
        let eos = Polytrope::new(k, 1.5);
        let h = eos.enthalpy(rho);
        let back = eos.rho_from_enthalpy(h);
        prop_assert!((back - rho).abs() / rho < 1e-9);
    }

    #[test]
    fn local_expansion_shift_composes(d1 in -0.05f64..0.05, d2 in -0.05f64..0.05) {
        use octo_repro::octotiger::gravity::Multipole;
        let cloud = [([0.0, 0.0, 0.0], 1.0), ([0.2, -0.1, 0.15], 0.5)];
        let mp = Multipole::from_points(&cloud);
        let local = mp.m2l([3.0, 1.5, -2.0], true);
        // Shifting by d1 then d2 equals shifting by d1+d2 (exact for
        // polynomials).
        let a = local.shifted([d1, 0.0, d2]).shifted([d2, d1, 0.0]);
        let b = local.shifted([d1 + d2, d1, d2]);
        let (pa, ga) = a.evaluate([0.01, 0.02, 0.03]);
        let (pb, gb) = b.evaluate([0.01, 0.02, 0.03]);
        prop_assert!((pa - pb).abs() < 1e-10);
        for ax in 0..3 {
            prop_assert!((ga[ax] - gb[ax]).abs() < 1e-10);
        }
    }

    #[test]
    fn pjm_parser_never_panics(s in "\\PC{0,200}") {
        // Totality: arbitrary input produces Ok or Err, never a panic.
        let _ = octo_repro::hpx::JobSpec::parse(&s);
    }

    #[test]
    fn pjm_roundtrip(nodes in 1usize..10_000, procs in 1usize..40_000,
                     boost in any::<bool>(), elapse in 0u64..360_000) {
        let spec = octo_repro::hpx::JobSpec {
            nodes,
            procs,
            resource_group: "small".to_owned(),
            elapse_limit_s: elapse,
            boost_mode: boost,
        };
        let back = octo_repro::hpx::JobSpec::parse(&spec.to_script()).unwrap();
        prop_assert_eq!(back, spec);
    }

    #[test]
    fn des_step_time_is_positive_and_monotone_in_work(nodes in 1usize..64) {
        use octo_repro::cluster::*;
        let m = Machine::get(MachineId::Fugaku);
        let costs = KernelCosts::default();
        let opts = RunOptions::default();
        let small = simulate_step(&m, nodes, &Workload::rotating_star(5), &opts, &costs);
        let big = simulate_step(&m, nodes, &Workload::rotating_star(6), &opts, &costs);
        prop_assert!(small.step_time_s > 0.0);
        prop_assert!(big.step_time_s > small.step_time_s);
    }

    #[test]
    fn p2p_widths_agree_on_random_clouds(
        pts in prop::collection::vec(((-2.0f64..2.0, -2.0f64..2.0, -2.0f64..2.0), 0.01f64..5.0), 1..40)
    ) {
        use octo_repro::octotiger::gravity::direct::{p2p_at, PointMasses};
        let mut cloud = PointMasses::default();
        for ((x, y, z), m) in &pts {
            cloud.push([*x, *y, *z], *m);
        }
        let at = [3.0, 3.0, 3.0];
        let (p1, g1) = p2p_at(&cloud, at, VectorMode::Scalar);
        let (p8, g8) = p2p_at(&cloud, at, VectorMode::Sve512);
        // Bit-equal, not close: both widths accumulate into the same
        // fixed stripe partition (element i → stripe i % 8) and fold the
        // stripes in one fixed order, so the width is invisible.
        prop_assert_eq!(p1.to_bits(), p8.to_bits());
        for ax in 0..3 {
            prop_assert_eq!(g1[ax].to_bits(), g8[ax].to_bits());
        }
    }

    // ---- Future-combinator laws (the pipelined stepper's substrate). ----

    #[test]
    fn future_then_applies_continuations_in_chain_order(
        start in 0i64..1000,
        ops in prop::collection::vec(-50i64..50, 1..20),
    ) {
        // x ↦ 3x + d is non-commutative across steps, so any reordering of
        // the chain would change the result.
        let rt = octo_repro::hpx::Runtime::new(2);
        let mut f = octo_repro::hpx::make_ready_future(start);
        let mut expect = start;
        for &d in &ops {
            f = f.then(&rt, move |x: i64| x.wrapping_mul(3).wrapping_add(d));
            expect = expect.wrapping_mul(3).wrapping_add(d);
        }
        prop_assert_eq!(f.get(), expect);
        rt.shutdown();
    }

    #[test]
    fn random_future_dags_never_deadlock_on_one_worker(
        edges in prop::collection::vec((0usize..64, 0usize..64), 1..40),
    ) {
        // Random DAGs of when_all_of gates + continuations on a 1-worker
        // runtime: completion relies entirely on the helping wait.  A cycle
        // or a lost wakeup would trip the debug-build deadlock watchdog.
        let rt = octo_repro::hpx::Runtime::new(1);
        let mut nodes: Vec<octo_repro::hpx::Future<u64>> =
            vec![octo_repro::hpx::make_ready_future(1)];
        for (k, &(a, b)) in edges.iter().enumerate() {
            // Depend only on earlier nodes: a DAG by construction.
            let i = a % nodes.len();
            let j = b % nodes.len();
            let parts = [nodes[i].ticket(), nodes[j].ticket()];
            let gate = octo_repro::hpx::when_all_of(&rt, &parts);
            let (fi, fj) = (nodes[i].clone(), nodes[j].clone());
            let f = gate.then(&rt, move |()| {
                fi.get().wrapping_add(fj.get()).wrapping_add(k as u64)
            });
            nodes.push(f);
        }
        // Force every node; a deadlock would hang (release) or panic the
        // watchdog (debug) rather than fail an assertion.
        for f in &nodes {
            f.get();
        }
        prop_assert_eq!(nodes.len(), edges.len() + 1);
        rt.shutdown();
    }
}
