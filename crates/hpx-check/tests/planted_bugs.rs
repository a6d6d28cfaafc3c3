//! Regression tests planting the bug classes the static plan verifier
//! exists to catch, proving it actually detects each one.  Schedule bugs
//! in the stepper are planted into the real `step_pipelined` instead (see
//! `analyzers_clean.rs` and EXPERIMENTS.md "Finding concurrency bugs").

use hpx_check::{mutate_plan, mutation_sweep, PlanMutationKind};
use octotiger::gravity::{
    verify_dist_plan, verify_gravity_plan, DistPlan, Exchange, GravityPlan, PlanViolation,
    ProtocolViolation,
};
use octree::{partition_morton, Tree};

/// The uniform level-2 plan sharded over four localities — the standard
/// shape the static-verifier plants run against.
fn static_plan_and_dist() -> (GravityPlan, DistPlan) {
    let tree = Tree::new_uniform(2);
    let plan = GravityPlan::build(&tree, 0.5);
    let owner = partition_morton(&tree, 4);
    let dist = DistPlan::build(&plan, &owner, 4);
    (plan, dist)
}

/// Planted bug #7: a dropped exchange.  Removing one frozen M2L halo lane
/// is the *static* form of the lost parcel: the receiver's demand set is
/// no longer supplied, and the verifier must report it as a deadlock
/// naming the starved phase and the exact `from→to` link — with no
/// runtime, no schedules, no transport.
#[test]
fn static_verifier_reports_dropped_exchange_as_deadlock_naming_phase_and_link() {
    let (plan, dist) = static_plan_and_dist();
    assert!(
        verify_dist_plan(&plan, &dist).is_empty(),
        "baseline must be clean"
    );

    let mut mutated = dist.clone();
    let dropped = mutated.m2l_halo.remove(0);
    let violations = verify_dist_plan(&plan, &mutated);
    assert!(!violations.is_empty(), "the dropped lane must be caught");

    let starved: Vec<_> = violations
        .iter()
        .filter_map(|v| match v {
            ProtocolViolation::StarvedReceive { from, to, slot, .. } => Some((*from, *to, *slot)),
            _ => None,
        })
        .collect();
    assert_eq!(
        starved.len(),
        dropped.slots.len(),
        "every slot of the dropped lane starves exactly once: {violations:?}"
    );
    for &(from, to, slot) in &starved {
        assert_eq!((from, to), (dropped.from, dropped.to));
        assert!(dropped.slots.contains(&slot));
    }
    // The rendered report is a deadlock diagnosis naming phase and link.
    let text = violations
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(text.contains("deadlock"), "{text}");
    assert!(text.contains("m2l-halo"), "{text}");
    assert!(
        text.contains(&format!("{}→{}", dropped.from, dropped.to)),
        "{text}"
    );
}

/// Planted bug #8: overlapping ownership.  A second locality claims an
/// already-owned slot in its owned lists *and* ships it — the verifier
/// must report both the overlap itself and the double receive it causes
/// at the downstream locality.
#[test]
fn static_verifier_reports_ownership_overlap_as_double_receive() {
    let (plan, dist) = static_plan_and_dist();
    let genuine = dist.m2l_halo[0].clone();
    let slot = genuine.slots[0];
    let claimer = (0..dist.num_localities)
        .find(|&l| l != genuine.from && l != genuine.to)
        .expect("four localities leave a third party");

    let mut mutated = dist.clone();
    let level = plan.nodes[slot].level() as usize;
    let owned = &mut mutated.owned_by_level[claimer][level];
    owned.insert(owned.partition_point(|&s| s < slot), slot);
    mutated.m2l_halo.push(Exchange {
        from: claimer,
        to: genuine.to,
        slots: vec![slot],
    });

    let violations = verify_dist_plan(&plan, &mutated);
    assert!(
        violations.iter().any(|v| matches!(
            v,
            ProtocolViolation::OwnershipOverlap { index, .. } if *index == slot
        )),
        "the overlapping claim itself must be reported: {violations:?}"
    );
    let double = violations
        .iter()
        .find_map(|v| match v {
            ProtocolViolation::DoubleReceive {
                to,
                slot: s,
                first_from,
                second_from,
                ..
            } => Some((*to, *s, *first_from, *second_from)),
            _ => None,
        })
        .expect("the overlap's second shipment must be a double receive");
    assert_eq!(double.0, genuine.to);
    assert_eq!(double.1, slot);
    assert_eq!(
        {
            let mut senders = [double.2, double.3];
            senders.sort_unstable();
            senders
        },
        {
            let mut senders = [genuine.from, claimer];
            senders.sort_unstable();
            senders
        }
    );
}

/// Planted bug #9: an asymmetric P2P pair.  Deleting one direction of a
/// neighbour pair (with the CSR offsets and stats patched up so nothing
/// else is wrong) must surface as a symmetry violation naming the pair.
#[test]
fn static_verifier_reports_asymmetric_p2p_pair() {
    let (plan, _) = static_plan_and_dist();
    assert!(
        verify_gravity_plan(&plan).is_empty(),
        "baseline must be clean"
    );
    let (mutated, desc) =
        mutate_plan(&plan, PlanMutationKind::AsymmetricP2p, 42).expect("level-2 plans have pairs");
    let violations = verify_gravity_plan(&mutated);
    let pair = violations
        .iter()
        .find_map(|v| match v {
            PlanViolation::P2p { a, b, detail } if detail.contains("asymmetric") => Some((*a, *b)),
            _ => None,
        })
        .unwrap_or_else(|| panic!("asymmetry must be named ({desc}): {violations:?}"));
    assert!(
        desc.contains(&pair.0.to_string()) && desc.contains(&pair.1.to_string()),
        "report ({pair:?}) must name the mutated pair ({desc})"
    );
}

/// The seeded sweep itself, as an acceptance gate: every mutation kind ×
/// scenario × locality count must be caught at the default seed.
#[test]
fn seeded_mutation_sweep_catches_everything() {
    match mutation_sweep(2, 1) {
        Ok(checked) => assert!(checked >= 28, "sweep covered only {checked} mutations"),
        Err(missed) => panic!(
            "{} mutation(s) escaped the verifier:\n{}",
            missed.len(),
            missed
                .iter()
                .map(|m| format!("  {m}"))
                .collect::<Vec<_>>()
                .join("\n")
        ),
    }
}
