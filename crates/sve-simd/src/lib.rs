//! # sve-simd — explicit SIMD vector types in the style of `std::experimental::simd`
//!
//! The paper ("Simulating Stellar Merger using HPX/Kokkos on A64FX on
//! Supercomputer Fugaku", IPPS 2023) relies on *explicit vectorization with
//! types*: every hot compute kernel in Octo-Tiger is written once against a
//! `std::experimental::simd`-compatible vector type, and the concrete type —
//! scalar, AVX512, or the authors' SVE types for A64FX — is chosen at compile
//! time.  Running the application twice, once with scalar types and once with
//! the 512-bit SVE types, is exactly how the paper measures its Figure 7
//! vectorization speedup.
//!
//! This crate reproduces that design point in Rust:
//!
//! * [`Simd<T, W>`] is a const-generic, fixed-width vector of `W` lanes.
//!   All arithmetic is written as straight-line loops over a `[T; W]` array,
//!   which LLVM reliably compiles to packed SIMD instructions for the widths
//!   used here.
//! * `Simd<f64, 1>` plays the role of the scalar build, and
//!   `Simd<f64, 8>` (512 bit of `f64` — the A64FX SVE vector length,
//!   [`SVE_LANES_F64`]) plays the role of the SVE build.
//! * [`VectorMode`] is the run-time analogue of the paper's compile-time
//!   switch: kernels in the `octotiger` crate are monomorphised for both
//!   widths and dispatched on a `VectorMode` value, so a single binary can
//!   run "scalar" and "SVE" configurations back to back like the paper does
//!   across two builds.
//!
//! The API follows `std::experimental::simd` naming where practical:
//! `splat`, element-wise operators, `simd_min`/`simd_max`, comparison
//! operators returning [`Mask`]s, `select`, and horizontal reductions.

mod backend;
mod isa;
mod mask;
mod simd;
mod slice;

pub use backend::{VectorMode, SVE_LANES_F64};
pub use isa::{wide_isa, WideIsa};
pub use mask::Mask;
pub use simd::Simd;
pub use slice::ChunkedLanes;
