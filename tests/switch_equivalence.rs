//! The paper's performance switches are physics-neutral: SVE vs scalar
//! (Figure 7), communication optimization on/off (Figure 8), multipole
//! task splitting 1 vs 16 (Figure 9), the stepper, and the distribution of
//! the octree over localities change *timings*, never *results* — bit for
//! bit, through the shared harness in `harness/mod.rs`.

mod harness;

use harness::{check, REFERENCE, UNIFORM};

#[test]
fn sve_and_scalar_give_identical_physics() {
    check(&UNIFORM, &[REFERENCE.scalar()]);
}

#[test]
fn comm_optimization_is_physics_neutral() {
    check(
        &UNIFORM,
        &[REFERENCE.on(2, 1), REFERENCE.on(2, 1).no_direct()],
    );
}

#[test]
fn multipole_task_splitting_is_physics_neutral() {
    check(
        &UNIFORM,
        &[REFERENCE.on(1, 4), REFERENCE.on(1, 4).split(16)],
    );
}

/// The futurized stepper reorders *when* every pack, unpack and kernel
/// runs; its dependency gates keep the result that of the barrier stepper.
#[test]
fn pipeline_matches_barrier() {
    check(
        &UNIFORM,
        &[REFERENCE.on(2, 2), REFERENCE.on(2, 2).pipelined()],
    );
}

/// Hydro-only distribution: the leaves spread over four localities while
/// the gravity solve stays unsharded.
#[test]
fn locality_count_is_physics_neutral() {
    check(&UNIFORM, &[REFERENCE.on(4, 1)]);
}
