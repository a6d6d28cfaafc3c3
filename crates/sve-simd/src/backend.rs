//! Run-time selection between the scalar and SVE-width vector backends.
//!
//! The paper switches between scalar and SVE types at *compile* time and
//! builds the application twice.  Rust monomorphisation gives us both
//! instantiations in one binary, so the switch becomes a run-time enum that
//! the `octotiger` kernels dispatch on.  The observable behaviour is the
//! same: identical kernel source, two vector widths, directly comparable
//! timings (Figure 7 of the paper).

/// The SVE vector length of the Fujitsu A64FX, in bits.
///
/// SVE is length-agnostic in the ISA, but the A64FX implements 512-bit
/// vectors; the paper's SVE types are fixed to that width.
pub(crate) const SVE_VECTOR_BITS: usize = 512;

/// `f64` lanes in one A64FX SVE vector.
pub const SVE_LANES_F64: usize = SVE_VECTOR_BITS / 64;

/// Which vector backend a kernel should be instantiated with.
///
/// Mirrors the paper's compile-time choice between scalar types and the
/// authors' `sve::experimental::simd` types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VectorMode {
    /// One lane per operation — the reference scalar build.
    Scalar,
    /// 512-bit explicit vectorization — the A64FX SVE build.
    #[default]
    Sve512,
}

impl VectorMode {
    /// Human-readable name matching the labels used in the paper's plots.
    pub(crate) const fn label(self) -> &'static str {
        match self {
            VectorMode::Scalar => "SIMD OFF (scalar)",
            VectorMode::Sve512 => "SIMD ON (SVE)",
        }
    }

    /// All modes, in the order the paper presents them.
    pub const fn all() -> [VectorMode; 2] {
        [VectorMode::Scalar, VectorMode::Sve512]
    }
}

impl std::fmt::Display for VectorMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sve() {
        assert_eq!(VectorMode::default(), VectorMode::Sve512);
    }

    #[test]
    fn labels_are_distinct() {
        assert_ne!(VectorMode::Scalar.label(), VectorMode::Sve512.label());
    }
}
