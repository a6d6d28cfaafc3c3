//! Cross-configuration bit identity on the problems no single switch owns:
//! a regrid history that refines and coarsens, eight-leaf runs with and
//! without gravity, and the full product of every axis.  The harness and
//! the other rows are described in `harness/mod.rs`.
//!
//! `full_product` is `#[ignore]`d; the release CI job runs it with
//! `--ignored`.  It sweeps width × localities {1, 2, 4, 7} × stepper ×
//! tuner on every problem, so over the regrid axis too, plus task splitting
//! and the direct-access switch at every locality count and stepper.

mod harness;

use harness::{check, Config, ADAPTIVE, REFERENCE, REFINED, REGRID, SMALL, SMALL_HYDRO, UNIFORM};
use octo_repro::simd::VectorMode;

/// The tree refines every leaf at the first pass and collapses to the
/// root from step 3, on a four-locality cluster with the gravity solve
/// sharded and not, at both widths.
#[test]
fn adaptive_regrid_localities_and_widths() {
    check(
        &ADAPTIVE,
        &[
            REFERENCE.on(4, 2),
            REFERENCE.on(4, 2).scalar(),
            Config::sharded(4),
            Config::sharded(4).scalar(),
        ],
    );
}

/// Eight-leaf runs: both steppers on a 2 x 2 cluster, and the width and
/// direct-access switches without gravity.
#[test]
fn small_tree_switches() {
    check(
        &SMALL,
        &[REFERENCE.on(2, 2), REFERENCE.on(2, 2).pipelined()],
    );
    check(
        &SMALL_HYDRO,
        &[
            REFERENCE.scalar(),
            REFERENCE.on(2, 1),
            REFERENCE.on(2, 1).no_direct(),
        ],
    );
}

#[test]
#[ignore = "the full product takes minutes in release; CI runs it with --ignored"]
fn full_product() {
    let problems = [&UNIFORM, &REFINED, &REGRID, &ADAPTIVE, &SMALL, &SMALL_HYDRO];
    for problem in problems {
        let mut rows = Vec::new();
        for n in [1, 2, 4, 7] {
            for width in VectorMode::all() {
                for autotune in [false, true] {
                    for pipeline in [false, true] {
                        rows.push(Config {
                            width,
                            autotune,
                            pipeline,
                            ..Config::sharded(n)
                        });
                    }
                }
            }
            for pipeline in [false, true] {
                let base = Config {
                    pipeline,
                    ..Config::sharded(n)
                };
                rows.extend([base.split(16), base.no_direct()]);
            }
        }
        rows.retain(|&c| c != REFERENCE);
        check(problem, &rows);
    }
}
