//! The fixed-width vector type [`Simd<T, W>`], implemented for `f64` lanes.

use crate::mask::Mask;
use std::ops::{
    Add, AddAssign, Div, DivAssign, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign,
};

/// A fixed-width SIMD vector of `W` lanes of `T`.
///
/// Modeled on `std::experimental::simd<T, simd_abi::fixed_size<W>>`, the
/// abstraction the paper uses for all its compute kernels.  Operations are
/// lane-wise; comparisons produce a [`Mask`]; `select` blends two vectors
/// under a mask.  With `W = 8` and `T = f64` this corresponds to one A64FX
/// SVE register.  Only `T = f64` is implemented.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(transparent)]
pub struct Simd<T, const W: usize>(pub(crate) [T; W]);

/// Lane minimum as an explicit compare, not `f64::min`: the two differ on
/// NaN and signed zeros, and the kernels' pinned bits use this one.
#[inline(always)]
fn lane_min(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}

/// `max` as an explicit compare (not `f64::max`); see [`lane_min`].
#[inline(always)]
fn lane_max(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
    }
}

impl<const W: usize> Default for Simd<f64, W> {
    fn default() -> Self {
        Self::splat(0.0)
    }
}

impl<const W: usize> Simd<f64, W> {
    /// Broadcast `v` into every lane.
    #[inline(always)]
    pub fn splat(v: f64) -> Self {
        Simd([v; W])
    }

    /// Build from an array of lane values.
    #[inline(always)]
    pub fn from_array(a: [f64; W]) -> Self {
        Simd(a)
    }

    /// Return the lanes as an array.
    #[inline(always)]
    pub fn to_array(self) -> [f64; W] {
        self.0
    }

    /// Load `W` consecutive elements starting at `slice[0]`.
    ///
    /// # Panics
    /// Panics if `slice.len() < W`.
    #[inline(always)]
    pub fn from_slice(slice: &[f64]) -> Self {
        let mut out = [0.0; W];
        out.copy_from_slice(&slice[..W]);
        Simd(out)
    }

    /// Store all lanes to the first `W` elements of `slice`.
    ///
    /// # Panics
    /// Panics if `slice.len() < W`.
    #[inline(always)]
    pub fn write_to_slice(self, slice: &mut [f64]) {
        slice[..W].copy_from_slice(&self.0);
    }

    /// Load `min(W, slice.len())` lanes, filling the tail with `fill`.
    ///
    /// The paper's kernels handle sub-grid edges whose extent is not a
    /// multiple of the vector width with masked/partial loads; this is the
    /// equivalent.
    #[inline(always)]
    pub fn from_slice_padded(slice: &[f64], fill: f64) -> Self {
        let mut out = [fill; W];
        let n = W.min(slice.len());
        out[..n].copy_from_slice(&slice[..n]);
        Simd(out)
    }

    /// Store `min(W, slice.len())` lanes.
    #[inline(always)]
    pub fn write_to_slice_partial(self, slice: &mut [f64]) {
        let n = W.min(slice.len());
        slice[..n].copy_from_slice(&self.0[..n]);
    }

    /// Gather up to `W` lanes from `src` at positions `idx`, padding the
    /// tail lanes with `fill` when `idx.len() < W`.
    ///
    /// This is the predicated SVE gather: the FMM kernels walk flat source
    /// index lists whose length is rarely a multiple of the width, so the
    /// final chunk gathers through a shortened index slice.
    ///
    /// # Panics
    /// Panics if any index within `idx` is out of bounds for `src`.
    #[inline(always)]
    pub fn gather_or(src: &[f64], idx: &[usize], fill: f64) -> Self {
        let mut out = [fill; W];
        let n = W.min(idx.len());
        for l in 0..n {
            out[l] = src[idx[l]];
        }
        Simd(out)
    }

    /// Masked load: lane `l` is `slice[l]` where `mask[l]` is set, `fill`
    /// elsewhere.  Inactive lanes never touch memory, so `slice` only needs
    /// to cover the active lanes (SVE `ld1` under a predicate).
    ///
    /// # Panics
    /// Panics if an active lane indexes past `slice.len()`.
    #[inline(always)]
    pub fn load_select(slice: &[f64], mask: Mask<W>, fill: f64) -> Self {
        let mut out = [fill; W];
        for l in 0..W {
            if mask.test(l) {
                out[l] = slice[l];
            }
        }
        Simd(out)
    }

    /// Masked store: write lane `l` to `slice[l]` only where `mask[l]` is
    /// set.  Inactive lanes leave memory untouched (SVE `st1` under a
    /// predicate).
    ///
    /// # Panics
    /// Panics if an active lane indexes past `slice.len()`.
    #[inline(always)]
    pub fn store_select(self, slice: &mut [f64], mask: Mask<W>) {
        for l in 0..W {
            if mask.test(l) {
                slice[l] = self.0[l];
            }
        }
    }

    /// Load the chunk of `s` at `off` with `lanes` active lanes: full
    /// chunks (`lanes == W`) take the unmasked contiguous load, the final
    /// remainder chunk pays the whilelt-style masked load with `fill` in
    /// the inactive lanes.
    ///
    /// This is the canonical `ChunkedLanes` loop body load.  It is a named
    /// `#[inline(always)]` method rather than a per-kernel closure on
    /// purpose: closures cannot carry `inline(always)`, and LLVM refuses to
    /// inline a plain-feature closure into a `#[target_feature]` caller
    /// (see `crate::isa`), which would leave an out-of-line scalar load
    /// in the middle of every vectorized chunk.
    ///
    /// # Panics
    /// Panics if `off + lanes > s.len()` or `lanes > W`.
    #[inline(always)]
    pub fn load_chunk(s: &[f64], off: usize, lanes: usize, fill: f64) -> Self {
        if lanes == W {
            Self::from_slice(&s[off..])
        } else {
            Self::load_select(&s[off..off + lanes], Mask::first_n(lanes), fill)
        }
    }

    /// Lane-wise fused multiply-add: `self * a + b`.
    #[inline(always)]
    pub fn mul_add(self, a: Self, b: Self) -> Self {
        let mut out = [0.0; W];
        for l in 0..W {
            // Plain `a*b+c`: lets LLVM contract when profitable without
            // forcing a libm call per lane in debug builds.
            out[l] = self.0[l] * a.0[l] + b.0[l];
        }
        Simd(out)
    }

    /// Lane-wise square root.
    #[inline(always)]
    pub fn sqrt(self) -> Self {
        let mut out = [0.0; W];
        for l in 0..W {
            out[l] = self.0[l].sqrt();
        }
        Simd(out)
    }

    /// Lane-wise absolute value.
    #[inline(always)]
    pub fn abs(self) -> Self {
        let mut out = [0.0; W];
        for l in 0..W {
            out[l] = self.0[l].abs();
        }
        Simd(out)
    }

    /// Lane-wise minimum.
    #[inline(always)]
    pub fn simd_min(self, other: Self) -> Self {
        let mut out = [0.0; W];
        for l in 0..W {
            out[l] = lane_min(self.0[l], other.0[l]);
        }
        Simd(out)
    }

    /// Lane-wise maximum.
    #[inline(always)]
    pub fn simd_max(self, other: Self) -> Self {
        let mut out = [0.0; W];
        for l in 0..W {
            out[l] = lane_max(self.0[l], other.0[l]);
        }
        Simd(out)
    }

    /// Lane-wise copysign.
    #[inline(always)]
    pub fn copysign(self, sign: Self) -> Self {
        let mut out = [0.0; W];
        for l in 0..W {
            out[l] = self.0[l].copysign(sign.0[l]);
        }
        Simd(out)
    }

    /// Horizontal sum of all lanes.
    #[inline(always)]
    pub fn reduce_sum(self) -> f64 {
        let mut acc = 0.0;
        for l in 0..W {
            acc += self.0[l];
        }
        acc
    }

    /// Smallest lane value.
    #[inline(always)]
    pub fn reduce_min(self) -> f64 {
        let mut acc = f64::INFINITY;
        for l in 0..W {
            acc = lane_min(acc, self.0[l]);
        }
        acc
    }

    /// Largest lane value.
    #[inline(always)]
    pub fn reduce_max(self) -> f64 {
        let mut acc = f64::NEG_INFINITY;
        for l in 0..W {
            acc = lane_max(acc, self.0[l]);
        }
        acc
    }

    /// Lane-wise `self < other`.
    #[inline(always)]
    pub fn simd_lt(self, other: Self) -> Mask<W> {
        let mut m = [false; W];
        for l in 0..W {
            m[l] = self.0[l] < other.0[l];
        }
        Mask::from_array(m)
    }

    /// Lane-wise `self <= other`.
    #[inline(always)]
    pub fn simd_le(self, other: Self) -> Mask<W> {
        let mut m = [false; W];
        for l in 0..W {
            m[l] = self.0[l] <= other.0[l];
        }
        Mask::from_array(m)
    }

    /// Lane-wise `self > other`.
    #[inline(always)]
    pub fn simd_gt(self, other: Self) -> Mask<W> {
        other.simd_lt(self)
    }

    /// Lane-wise `self >= other`.
    #[inline(always)]
    pub fn simd_ge(self, other: Self) -> Mask<W> {
        other.simd_le(self)
    }

    /// Lane-wise equality.
    #[inline(always)]
    pub fn simd_eq(self, other: Self) -> Mask<W> {
        let mut m = [false; W];
        for l in 0..W {
            m[l] = self.0[l] == other.0[l];
        }
        Mask::from_array(m)
    }

    /// Blend: lane `l` of the result is `if mask[l] { t[l] } else { f[l] }`.
    #[inline(always)]
    pub fn select(mask: Mask<W>, t: Self, f: Self) -> Self {
        let mut out = [0.0; W];
        for l in 0..W {
            out[l] = if mask.test(l) { t.0[l] } else { f.0[l] };
        }
        Simd(out)
    }

    /// Apply `f` to every lane (escape hatch for transcendental functions).
    #[inline(always)]
    pub fn map(self, mut f: impl FnMut(f64) -> f64) -> Self {
        let mut out = [0.0; W];
        for l in 0..W {
            out[l] = f(self.0[l]);
        }
        Simd(out)
    }
}

impl<const W: usize> Index<usize> for Simd<f64, W> {
    type Output = f64;
    #[inline(always)]
    fn index(&self, i: usize) -> &f64 {
        &self.0[i]
    }
}

impl<const W: usize> IndexMut<usize> for Simd<f64, W> {
    #[inline(always)]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.0[i]
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $assign_trait:ident, $assign_method:ident) => {
        impl<const W: usize> $trait for Simd<f64, W> {
            type Output = Self;
            #[inline(always)]
            fn $method(self, rhs: Self) -> Self {
                let mut out = [0.0; W];
                for l in 0..W {
                    out[l] = self.0[l].$method(rhs.0[l]);
                }
                Simd(out)
            }
        }

        impl<const W: usize> $trait<f64> for Simd<f64, W> {
            type Output = Self;
            #[inline(always)]
            fn $method(self, rhs: f64) -> Self {
                self.$method(Simd::splat(rhs))
            }
        }

        impl<const W: usize> $assign_trait for Simd<f64, W> {
            #[inline(always)]
            fn $assign_method(&mut self, rhs: Self) {
                *self = (*self).$method(rhs);
            }
        }

        impl<const W: usize> $assign_trait<f64> for Simd<f64, W> {
            #[inline(always)]
            fn $assign_method(&mut self, rhs: f64) {
                *self = (*self).$method(Simd::splat(rhs));
            }
        }
    };
}

impl_binop!(Add, add, AddAssign, add_assign);
impl_binop!(Sub, sub, SubAssign, sub_assign);
impl_binop!(Mul, mul, MulAssign, mul_assign);
impl_binop!(Div, div, DivAssign, div_assign);

impl<const W: usize> Neg for Simd<f64, W> {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        let mut out = [0.0; W];
        for l in 0..W {
            out[l] = -self.0[l];
        }
        Simd(out)
    }
}

impl<const W: usize> std::iter::Sum for Simd<f64, W> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::splat(0.0), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type V = Simd<f64, 8>;

    #[test]
    fn splat_and_extract() {
        let v = V::splat(3.5);
        for l in 0..8 {
            assert_eq!(v[l], 3.5);
        }
    }

    #[test]
    fn arithmetic_lanewise() {
        let a = V::from_array([1., 2., 3., 4., 5., 6., 7., 8.]);
        let b = V::splat(2.0);
        assert_eq!((a + b)[0], 3.0);
        assert_eq!((a - b)[7], 6.0);
        assert_eq!((a * b)[3], 8.0);
        assert_eq!((a / b)[1], 1.0);
        assert_eq!((-a)[2], -3.0);
    }

    #[test]
    fn scalar_rhs_operators() {
        let a = V::splat(10.0);
        assert_eq!((a + 1.0)[0], 11.0);
        assert_eq!((a * 0.5)[5], 5.0);
        let mut c = a;
        c -= 4.0;
        assert_eq!(c[3], 6.0);
    }

    #[test]
    fn mul_add_matches_scalar() {
        let a = V::from_array([1., 2., 3., 4., 5., 6., 7., 8.]);
        let r = a.mul_add(V::splat(2.0), V::splat(1.0));
        for l in 0..8 {
            assert_eq!(r[l], a[l] * 2.0 + 1.0);
        }
    }

    #[test]
    fn sqrt_abs() {
        let v = Simd::<f64, 4>::from_array([4.0, 9.0, 16.0, 25.0]);
        assert_eq!(v.sqrt().to_array(), [2.0, 3.0, 4.0, 5.0]);
        let w = Simd::<f64, 4>::from_array([-1.0, 2.0, -3.0, 0.0]);
        assert_eq!(w.abs().to_array(), [1.0, 2.0, 3.0, 0.0]);
    }

    #[test]
    fn min_max() {
        let a = Simd::<f64, 4>::from_array([1., 5., -2., 8.]);
        let b = Simd::<f64, 4>::splat(3.0);
        assert_eq!(a.simd_min(b).to_array(), [1., 3., -2., 3.]);
        assert_eq!(a.simd_max(b).to_array(), [3., 5., 3., 8.]);
    }

    #[test]
    fn reductions() {
        let a = V::from_array([1., 2., 3., 4., 5., 6., 7., 8.]);
        assert_eq!(a.reduce_sum(), 36.0);
        assert_eq!(a.reduce_min(), 1.0);
        assert_eq!(a.reduce_max(), 8.0);
    }

    #[test]
    fn comparisons_and_select() {
        let a = Simd::<f64, 4>::from_array([1., 5., 3., 7.]);
        let b = Simd::<f64, 4>::splat(4.0);
        let m = a.simd_lt(b);
        assert_eq!(m.to_array(), [true, false, true, false]);
        let r = Simd::select(m, Simd::splat(1.0), Simd::splat(0.0));
        assert_eq!(r.to_array(), [1., 0., 1., 0.]);
        assert_eq!(a.simd_ge(b).to_array(), [false, true, false, true]);
        assert_eq!(a.simd_eq(a).count_set(), 4);
    }

    #[test]
    fn slice_roundtrip() {
        let data: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let v = V::from_slice(&data[4..]);
        assert_eq!(v[0], 4.0);
        let mut out = vec![0.0; 8];
        v.write_to_slice(&mut out);
        assert_eq!(out, &data[4..12]);
    }

    #[test]
    fn padded_load_and_partial_store() {
        let data = [1.0, 2.0, 3.0];
        let v = Simd::<f64, 8>::from_slice_padded(&data, -1.0);
        assert_eq!(v.to_array(), [1., 2., 3., -1., -1., -1., -1., -1.]);
        let mut out = [0.0; 3];
        v.write_to_slice_partial(&mut out);
        assert_eq!(out, [1., 2., 3.]);
    }

    #[test]
    fn copysign_lanes() {
        let mag = Simd::<f64, 4>::from_array([1., 2., 3., 4.]);
        let sgn = Simd::<f64, 4>::from_array([-1., 1., -0.5, 0.5]);
        assert_eq!(mag.copysign(sgn).to_array(), [-1., 2., -3., 4.]);
    }

    #[test]
    fn scalar_width_one_behaves_like_scalar() {
        let a = Simd::<f64, 1>::splat(2.0);
        let b = Simd::<f64, 1>::splat(3.0);
        assert_eq!((a * b + a).reduce_sum(), 8.0);
    }

    #[test]
    fn sum_iterator() {
        let vs = [V::splat(1.0), V::splat(2.0), V::splat(3.0)];
        let s: V = vs.into_iter().sum();
        assert_eq!(s.to_array(), [6.0; 8]);
    }

    #[test]
    fn gather_or_pads_short_index_lists() {
        let src: Vec<f64> = (0..20).map(|i| i as f64 * 10.0).collect();
        // Every remainder length 1..=7 pads the tail with the fill value.
        for n in 1..=7usize {
            let idx: Vec<usize> = (0..n).map(|i| 2 * i + 1).collect();
            let v = Simd::<f64, 8>::gather_or(&src, &idx, -5.0);
            for l in 0..8 {
                if l < n {
                    assert_eq!(v[l], src[idx[l]], "lane {l} of {n}");
                } else {
                    assert_eq!(v[l], -5.0, "pad lane {l} of {n}");
                }
            }
        }
        // A full-width index list ignores the fill entirely.
        let idx: Vec<usize> = (0..8).collect();
        let v = Simd::<f64, 8>::gather_or(&src, &idx, f64::NAN);
        assert_eq!(v.to_array(), [0., 10., 20., 30., 40., 50., 60., 70.]);
        // Longer-than-W index lists use only the first W entries.
        let idx: Vec<usize> = (0..12).collect();
        let v = Simd::<f64, 8>::gather_or(&src, &idx, f64::NAN);
        assert_eq!(v[7], 70.0);
    }

    #[test]
    fn load_select_every_remainder_length() {
        let data: Vec<f64> = (0..8).map(|i| (i + 1) as f64).collect();
        for n in 1..=7usize {
            let m = Mask::<8>::first_n(n);
            // Slice exactly n long: inactive lanes must not read past it.
            let v = Simd::<f64, 8>::load_select(&data[..n], m, 0.25);
            for l in 0..8 {
                if l < n {
                    assert_eq!(v[l], data[l], "active lane {l} at n={n}");
                } else {
                    assert_eq!(v[l], 0.25, "fill lane {l} at n={n}");
                }
            }
        }
    }

    #[test]
    fn store_select_every_remainder_length() {
        let v = Simd::<f64, 8>::from_array([1., 2., 3., 4., 5., 6., 7., 8.]);
        for n in 1..=7usize {
            let m = Mask::<8>::first_n(n);
            // Buffer exactly n long: inactive lanes must not write past it.
            let mut out = vec![-9.0; n];
            v.store_select(&mut out, m);
            for (l, &x) in out.iter().enumerate() {
                assert_eq!(x, (l + 1) as f64, "lane {l} at n={n}");
            }
        }
        // Inactive lanes leave existing contents untouched.
        let mut buf = [0.0; 8];
        v.store_select(&mut buf, Mask::<8>::first_n(3));
        assert_eq!(buf, [1., 2., 3., 0., 0., 0., 0., 0.]);
    }

    #[test]
    fn load_store_select_all_true_and_all_false() {
        let data = [7.0; 8];
        let none = Simd::<f64, 8>::load_select(&data, Mask::first_n(0), 1.5);
        assert_eq!(none.to_array(), [1.5; 8]);
        let all = Simd::<f64, 8>::load_select(&data, Mask::first_n(8), 1.5);
        assert_eq!(all.to_array(), [7.0; 8]);

        let mut out = [2.0; 8];
        all.store_select(&mut out, Mask::first_n(0));
        assert_eq!(out, [2.0; 8]);
        all.store_select(&mut out, Mask::first_n(8));
        assert_eq!(out, [7.0; 8]);

        // All-false masks never touch memory, so even an empty slice is fine.
        let empty: [f64; 0] = [];
        let v = Simd::<f64, 8>::load_select(&empty, Mask::first_n(0), 3.0);
        assert_eq!(v.to_array(), [3.0; 8]);
    }

    #[test]
    fn load_select_width_one() {
        let data = [42.0];
        let v = Simd::<f64, 1>::load_select(&data, Mask::<1>::first_n(1), 0.0);
        assert_eq!(v[0], 42.0);
        let w = Simd::<f64, 1>::load_select(&[], Mask::<1>::first_n(0), -1.0);
        assert_eq!(w[0], -1.0);
    }
}
