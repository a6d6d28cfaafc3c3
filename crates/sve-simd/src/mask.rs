//! Lane masks produced by SIMD comparisons, in the style of
//! `std::experimental::simd_mask`.

use std::ops::{BitAnd, BitOr, BitXor, Not};

/// A boolean per lane; the result type of `Simd::simd_lt` and friends and
/// the selector for `Simd::select`.
///
/// SVE is a predicated ISA: essentially every A64FX vector instruction takes
/// a predicate register.  Masks are therefore first-class in the paper's SVE
/// types, and they are first-class here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(transparent)]
pub struct Mask<const W: usize>([bool; W]);

impl<const W: usize> Mask<W> {
    /// Build from an array of lane booleans.
    #[inline(always)]
    pub(crate) fn from_array(a: [bool; W]) -> Self {
        Mask(a)
    }

    /// The lanes as an array.
    #[inline(always)]
    pub fn to_array(self) -> [bool; W] {
        self.0
    }

    /// Value of lane `l`.
    ///
    /// # Panics
    /// Panics if `l >= W`.
    #[inline(always)]
    pub fn test(self, l: usize) -> bool {
        self.0[l]
    }

    /// `true` if any lane is set (SVE `ptest`).
    #[inline(always)]
    pub(crate) fn any(self) -> bool {
        self.0.iter().any(|&b| b)
    }

    /// `true` if every lane is set.
    #[inline(always)]
    pub fn all(self) -> bool {
        self.0.iter().all(|&b| b)
    }

    /// `true` if no lane is set.
    #[inline(always)]
    pub fn none(self) -> bool {
        !self.any()
    }

    /// Number of set lanes (SVE `cntp`).
    #[inline(always)]
    pub fn count_set(self) -> usize {
        self.0.iter().filter(|&&b| b).count()
    }

    /// A mask with the first `n` lanes set — SVE's `whilelt` predicate,
    /// which the paper's kernels use for loop tails.
    #[inline(always)]
    pub fn first_n(n: usize) -> Self {
        // Fixed trip count with a per-lane compare, never a dynamic-length
        // prefix loop: the latter lowers to a variable-size `memset` — a
        // library call (with `vzeroupper`) in the middle of every masked
        // loop tail.  Per-lane `setcc` keeps the whole mask in registers.
        let mut m = [false; W];
        for (lane, b) in m.iter_mut().enumerate() {
            *b = lane < n;
        }
        Mask(m)
    }
}

impl<const W: usize> BitAnd for Mask<W> {
    type Output = Self;
    #[inline(always)]
    fn bitand(self, rhs: Self) -> Self {
        let mut out = [false; W];
        for l in 0..W {
            out[l] = self.0[l] & rhs.0[l];
        }
        Mask(out)
    }
}

impl<const W: usize> BitOr for Mask<W> {
    type Output = Self;
    #[inline(always)]
    fn bitor(self, rhs: Self) -> Self {
        let mut out = [false; W];
        for l in 0..W {
            out[l] = self.0[l] | rhs.0[l];
        }
        Mask(out)
    }
}

impl<const W: usize> BitXor for Mask<W> {
    type Output = Self;
    #[inline(always)]
    fn bitxor(self, rhs: Self) -> Self {
        let mut out = [false; W];
        for l in 0..W {
            out[l] = self.0[l] ^ rhs.0[l];
        }
        Mask(out)
    }
}

impl<const W: usize> Not for Mask<W> {
    type Output = Self;
    #[inline(always)]
    fn not(self) -> Self {
        let mut out = [false; W];
        for l in 0..W {
            out[l] = !self.0[l];
        }
        Mask(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_all_none() {
        assert!(Mask::<8>::from_array([true; 8]).all());
        assert!(Mask::<8>::from_array([false; 8]).none());
        let mut lanes = [false; 8];
        lanes[3] = true;
        let m = Mask::from_array(lanes);
        assert!(m.any());
        assert!(!m.all());
        assert_eq!(m.count_set(), 1);
    }

    #[test]
    fn first_n_is_whilelt() {
        let m = Mask::<8>::first_n(3);
        assert_eq!(
            m.to_array(),
            [true, true, true, false, false, false, false, false]
        );
        assert_eq!(Mask::<4>::first_n(10).count_set(), 4);
        assert_eq!(Mask::<4>::first_n(0).count_set(), 0);
    }

    #[test]
    fn all_false_and_all_true_edge_cases() {
        let none = Mask::<8>::from_array([false; 8]);
        assert!(none.none());
        assert!(!none.any());
        assert!(!none.all());
        assert_eq!(none.count_set(), 0);

        let all = Mask::<8>::from_array([true; 8]);
        assert!(all.all());
        assert!(all.any());
        assert!(!all.none());
        assert_eq!(all.count_set(), 8);

        // first_n at the extremes reproduces both.
        assert_eq!(Mask::<8>::first_n(0), none);
        assert_eq!(Mask::<8>::first_n(8), all);
        assert_eq!(Mask::<8>::first_n(usize::MAX), all);

        // Negation swaps them.
        assert_eq!(!none, all);
        assert_eq!(!all, none);
    }

    #[test]
    fn first_n_every_remainder_length() {
        for n in 1..=7usize {
            let m = Mask::<8>::first_n(n);
            assert_eq!(m.count_set(), n);
            for l in 0..8 {
                assert_eq!(m.test(l), l < n, "lane {l} at n={n}");
            }
        }
    }

    #[test]
    fn width_one_masks() {
        assert!(Mask::<1>::first_n(1).all());
        assert!(Mask::<1>::first_n(0).none());
        assert_eq!(Mask::<1>::from_array([true]).count_set(), 1);
    }

    #[test]
    fn boolean_algebra() {
        let a = Mask::<4>::from_array([true, true, false, false]);
        let b = Mask::<4>::from_array([true, false, true, false]);
        assert_eq!((a & b).to_array(), [true, false, false, false]);
        assert_eq!((a | b).to_array(), [true, true, true, false]);
        assert_eq!((a ^ b).to_array(), [false, true, true, false]);
        assert_eq!((!a).to_array(), [false, false, true, true]);
    }
}
