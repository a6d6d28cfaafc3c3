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
//! * [`ScalarF64`] (`W = 1`) plays the role of the scalar build, and
//!   [`SveF64`] (`W = 8`, i.e. 512 bit of `f64` — the A64FX SVE vector
//!   length) plays the role of the SVE build.
//! * [`VectorMode`] is the run-time analogue of the paper's compile-time
//!   switch: kernels in the `octotiger` crate are monomorphised for both
//!   widths and dispatched on a `VectorMode` value, so a single binary can
//!   run "scalar" and "SVE" configurations back to back like the paper does
//!   across two builds.
//!
//! The API follows `std::experimental::simd` naming where practical:
//! `splat`, element-wise operators, `simd_min`/`simd_max`, comparison
//! operators returning [`Mask`]s, `select`, and horizontal reductions.

pub mod backend;
pub mod isa;
pub mod mask;
pub mod simd;
pub mod slice;

pub use backend::{VectorMode, SVE_LANES_F64, SVE_VECTOR_BITS};
pub use isa::{wide_isa, WideIsa};
pub use mask::Mask;
pub use simd::{Simd, SimdElement};
pub use slice::{for_each_simd, map_simd, zip_map_simd, ChunkedLanes};

/// Scalar (1-lane) double-precision vector: the paper's "no SVE" build.
pub type ScalarF64 = Simd<f64, 1>;
/// 512-bit (8-lane) double-precision vector: the A64FX SVE vector width.
pub type SveF64 = Simd<f64, 8>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_aliases_have_expected_widths() {
        assert_eq!(ScalarF64::LANES, 1);
        assert_eq!(SveF64::LANES, 8);
    }

    #[test]
    fn sve_f64_is_512_bits() {
        assert_eq!(SveF64::LANES * 64, SVE_VECTOR_BITS);
    }
}
