//! The distribution axis is invisible to the physics: sharding the octree
//! over N simulated localities — every cross-locality multipole, local
//! expansion and point-mass interaction moving as a parcel — gives the
//! single-locality reference bit for bit, for any locality count, on
//! uniform and refined trees, in both steppers.  The harness
//! (`harness/mod.rs`) also checks the other direction: a sharded run sends
//! gravity parcels and an unsharded one sends none, so the equivalence
//! cannot pass by never taking the distributed path.

mod harness;

use harness::{check, Config, REFERENCE, REFINED, SMALL, UNIFORM};

/// 2 and 4 divide the 64-leaf curve evenly; 7 leaves remainders.
#[test]
fn uniform_tree_any_locality_count_is_bit_identical_barrier() {
    check(
        &UNIFORM,
        &[Config::sharded(2), Config::sharded(4), Config::sharded(7)],
    );
}

/// The pipelined one-locality run must match the barrier reference too, so
/// both steppers share one equivalence class.
#[test]
fn uniform_tree_any_locality_count_is_bit_identical_pipelined() {
    check(
        &UNIFORM,
        &[
            REFERENCE.pipelined(),
            Config::sharded(2).pipelined(),
            Config::sharded(4).pipelined(),
            Config::sharded(7).pipelined(),
        ],
    );
}

/// Mixed-level leaves, so the shard boundaries cut through refinement
/// transitions.
#[test]
fn refined_tree_distribution_is_bit_identical_both_modes() {
    check(
        &REFINED,
        &[
            Config::sharded(4),
            REFERENCE.pipelined(),
            Config::sharded(4).pipelined(),
        ],
    );
}

/// More gravity localities than the cluster has fall back to what exists
/// (here one): the local solve, no gravity parcels.
#[test]
fn locality_option_clamps_to_the_cluster() {
    check(&SMALL, &[REFERENCE.gravity_localities(64)]);
}
