//! The online granularity tuner is a pure performance feature.  It
//! re-splits the multipole kernel launch (Figure 9's knob), which is
//! bitwise neutral by construction (plan-frozen CSR summation order,
//! disjoint `&mut` chunks).  Through the shared harness (`harness/mod.rs`)
//! a tuned run is bit-identical to the untuned reference across locality
//! counts × widths and across a mid-run regrid, and its climb re-probes
//! exactly once per topology change.

mod harness;

use harness::{check, Config, REFERENCE, REGRID, UNIFORM};

/// Tuner on at 1 and 4 localities and both widths, with the untuned
/// four-locality scalar run as well.
#[test]
fn autotune_is_bit_identical_across_localities_and_widths() {
    check(
        &UNIFORM,
        &[
            REFERENCE.tuned(),
            REFERENCE.scalar().tuned(),
            Config::sharded(4).scalar(),
            Config::sharded(4).tuned(),
            Config::sharded(4).scalar().tuned(),
        ],
    );
}

#[test]
fn autotune_survives_a_mid_run_regrid_and_reprobes_once_per_topology_change() {
    check(&REGRID, &[Config::sharded(4), Config::sharded(4).tuned()]);
}
