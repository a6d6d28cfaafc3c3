//! # bench — the reproduction harness
//!
//! One binary per table/figure of the paper's evaluation (see DESIGN.md
//! §4 for the index), plus two checked reports of measurements on this
//! host: `benches/simd_kernels.rs` (Figure 7's scalar-vs-SVE kernel
//! families, `BENCH_simd.json`) and `benches/autotune.rs` (the tuner's
//! closed loop, `BENCH_autotune.json`).  The figure builders live in
//! `figures` so integration tests can assert every figure's qualitative
//! claims without spawning processes; the binaries are thin wrappers that
//! print markdown + JSON.

mod figures;
mod report;

pub use figures::{
    all_reports, figure10, figure3, figure4, figure5, figure6, figure7, figure8, figure9,
    scratch_pressure, table2,
};
pub use report::FigureReport;

use std::time::{Duration, Instant};

/// Seconds per call of `f`, measured over an adaptively sized batch: one
/// warm-up call, then batches doubling in size until one takes >= 200 ms.
pub fn time_per_iter(mut f: impl FnMut()) -> f64 {
    f();
    let mut reps = 1u32;
    loop {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        let dt = t0.elapsed();
        if dt >= Duration::from_millis(200) || reps >= 1 << 20 {
            return dt.as_secs_f64() / reps as f64;
        }
        reps *= 2;
    }
}
