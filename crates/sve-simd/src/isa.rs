//! Runtime vector-ISA selection for the "SIMD ON" half of the dispatch.
//!
//! The paper builds the application twice: once scalar, once with the SVE
//! vector types, and compares the two builds head-to-head (Figure 7).  The
//! scalar build's compiler never emits vector instructions; the SVE build
//! gets the full 512-bit ISA.  Reproducing that inside *one* binary needs
//! the same asymmetry: this crate is compiled for the target *baseline*
//! (so the `W = 1` instantiations are genuinely scalar code, like the
//! paper's scalar build), and the wide (`W = 8`) kernel instantiations are
//! entered through `wide_dispatch!`-generated `#[target_feature]`
//! wrappers that unlock the widest vector ISA the host actually has.
//!
//! Enabling a wider ISA never changes results: every lane operation is the
//! same IEEE-754 arithmetic whether it executes in a scalar, 128-bit or
//! 512-bit register, so the bit-equality invariants between the `W = 1`
//! and `W = 8` instantiations are unaffected — only the throughput
//! changes, which is precisely the Figure 7 experiment.

/// The widest vector ISA the wide kernel instantiations may use on this
/// host, detected once at first use.
///
/// On x86-64 the 512-bit A64FX SVE registers map onto AVX-512 (8 × `f64`,
/// exactly one `Simd<f64, 8>` per register); AVX2+FMA is the 256-bit
/// fallback; `Baseline` means the compiled-in target only.  On every other
/// architecture the baseline build is all there is — on a real A64FX the
/// whole binary would be compiled `-C target-feature=+sve` instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WideIsa {
    /// AVX-512 F+DQ+VL: full 512-bit registers, one per `Simd<f64, 8>`.
    Avx512,
    /// AVX2 + FMA: 256-bit registers, two per `Simd<f64, 8>`.
    Avx2,
    /// Whatever the binary was compiled for (SSE2 on x86-64).
    Baseline,
}

/// Detect the widest usable [`WideIsa`] (cached after the first call).
pub fn wide_isa() -> WideIsa {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static DETECTED: OnceLock<WideIsa> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512dq")
                && std::arch::is_x86_feature_detected!("avx512vl")
            {
                WideIsa::Avx512
            } else if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                WideIsa::Avx2
            } else {
                WideIsa::Baseline
            }
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        WideIsa::Baseline
    }
}

/// Define a monomorphic entry point for a wide (`W = 8`) kernel that runs
/// its body under the host's widest vector ISA.
///
/// ```ignore
/// sve_simd::wide_dispatch! {
///     pub(crate) fn p2p_ref_wide(src: PointsRef<'_>, x: f64, y: f64, z: f64) -> (f64, [f64; 3])
///         = p2p_ref_w::<8>
/// }
/// ```
///
/// expands to a safe function `p2p_ref_wide` with that exact signature that
/// calls `p2p_ref_w::<8>` inside an `#[target_feature]` wrapper chosen by
/// [`wide_isa`].  The kernel must be marked `#[inline]` (or be otherwise
/// inlineable) so its body is compiled *inside* the wrapper and its lane
/// loops actually lower to the wide ISA; the feature sets here are strict
/// supersets of the baseline, so the compiler is always allowed to inline.
///
/// Safety: the `#[target_feature]` wrappers are only reached after
/// [`wide_isa`] has positively detected the matching CPU features.
#[macro_export]
macro_rules! wide_dispatch {
    ($(#[$meta:meta])* $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)?
        = $kernel:expr) => {
        $(#[$meta])*
        $vis fn $name($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx512f,avx512dq,avx512vl,avx2,fma")]
                fn __wide_avx512($($arg: $ty),*) $(-> $ret)? {
                    ($kernel)($($arg),*)
                }
                #[target_feature(enable = "avx2,fma")]
                fn __wide_avx2($($arg: $ty),*) $(-> $ret)? {
                    ($kernel)($($arg),*)
                }
                match $crate::wide_isa() {
                    // SAFETY: the matching CPU features were detected.
                    $crate::WideIsa::Avx512 => return unsafe { __wide_avx512($($arg),*) },
                    $crate::WideIsa::Avx2 => return unsafe { __wide_avx2($($arg),*) },
                    $crate::WideIsa::Baseline => {}
                }
            }
            ($kernel)($($arg),*)
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_is_stable() {
        assert_eq!(wide_isa(), wide_isa());
    }

    // The macro must expand for plain, reference, and mut-reference
    // parameters, and the wrapped call must agree with the direct call.
    fn double_all(xs: &[f64], out: &mut Vec<f64>) -> usize {
        out.clear();
        out.extend(xs.iter().map(|x| 2.0 * x));
        out.len()
    }

    wide_dispatch! {
        fn double_all_wide(xs: &[f64], out: &mut Vec<f64>) -> usize = double_all
    }

    #[test]
    fn dispatched_call_matches_direct_call() {
        let xs = [1.0, 2.5, -3.0];
        let mut a = Vec::new();
        let mut b = Vec::new();
        assert_eq!(double_all_wide(&xs, &mut a), double_all(&xs, &mut b));
        assert_eq!(a, b);
    }
}
