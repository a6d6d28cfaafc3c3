//! Helpers for running width-generic kernels over slices.
//!
//! Octo-Tiger's Kokkos kernels iterate over sub-grid cell arrays in strides
//! of the vector width, with a masked tail.  These helpers encapsulate that
//! traversal so the `octotiger` kernels contain only the physics.

use crate::simd::Simd;

/// Iterator over `(offset, lanes_in_chunk)` pairs covering `len` elements in
/// strides of `W`, with a final partial chunk when `W` does not divide `len`.
#[derive(Debug, Clone)]
pub struct ChunkedLanes<const W: usize> {
    len: usize,
    pos: usize,
}

impl<const W: usize> ChunkedLanes<W> {
    /// Cover `len` elements.
    pub fn new(len: usize) -> Self {
        assert!(W > 0, "vector width must be non-zero");
        ChunkedLanes { len, pos: 0 }
    }
}

impl<const W: usize> Iterator for ChunkedLanes<W> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        if self.pos >= self.len {
            return None;
        }
        let off = self.pos;
        let lanes = W.min(self.len - off);
        self.pos += lanes;
        Some((off, lanes))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.len - self.pos;
        let n = rem.div_ceil(W);
        (n, Some(n))
    }
}

impl<const W: usize> ExactSizeIterator for ChunkedLanes<W> {}

/// Apply an in-place vector kernel to every `W`-wide chunk of `data`.
///
/// The tail (when `W ∤ data.len()`) is processed with a padded load and a
/// partial store, mirroring SVE's predicated loop tails.
#[inline(always)]
pub fn for_each_simd<const W: usize>(
    data: &mut [f64],
    mut kernel: impl FnMut(Simd<f64, W>) -> Simd<f64, W>,
) {
    let len = data.len();
    for (off, lanes) in ChunkedLanes::<W>::new(len) {
        if lanes == W {
            let v = Simd::<f64, W>::from_slice(&data[off..]);
            kernel(v).write_to_slice(&mut data[off..]);
        } else {
            let v = Simd::<f64, W>::from_slice_padded(&data[off..], 0.0);
            kernel(v).write_to_slice_partial(&mut data[off..]);
        }
    }
}

/// Combine two equal-length sources into `dst` with a binary vector kernel.
///
/// # Panics
/// Panics if the three slices disagree in length.
#[inline(always)]
pub fn zip_map_simd<const W: usize>(
    a: &[f64],
    b: &[f64],
    dst: &mut [f64],
    mut kernel: impl FnMut(Simd<f64, W>, Simd<f64, W>) -> Simd<f64, W>,
) {
    assert_eq!(a.len(), b.len(), "zip_map_simd length mismatch (a vs b)");
    assert_eq!(
        a.len(),
        dst.len(),
        "zip_map_simd length mismatch (a vs dst)"
    );
    for (off, lanes) in ChunkedLanes::<W>::new(a.len()) {
        if lanes == W {
            let va = Simd::<f64, W>::from_slice(&a[off..]);
            let vb = Simd::<f64, W>::from_slice(&b[off..]);
            kernel(va, vb).write_to_slice(&mut dst[off..]);
        } else {
            let va = Simd::<f64, W>::from_slice_padded(&a[off..], 0.0);
            let vb = Simd::<f64, W>::from_slice_padded(&b[off..], 0.0);
            kernel(va, vb).write_to_slice_partial(&mut dst[off..]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_lanes_exact_division() {
        let chunks: Vec<_> = ChunkedLanes::<4>::new(8).collect();
        assert_eq!(chunks, vec![(0, 4), (4, 4)]);
    }

    #[test]
    fn chunked_lanes_with_tail() {
        let chunks: Vec<_> = ChunkedLanes::<4>::new(10).collect();
        assert_eq!(chunks, vec![(0, 4), (4, 4), (8, 2)]);
        assert_eq!(ChunkedLanes::<4>::new(10).len(), 3);
    }

    #[test]
    fn chunked_lanes_empty() {
        assert_eq!(ChunkedLanes::<8>::new(0).count(), 0);
    }

    #[test]
    fn for_each_simd_squares_with_tail() {
        let mut data: Vec<f64> = (0..11).map(|i| i as f64).collect();
        for_each_simd::<4>(&mut data, |v| v * v);
        for (i, &x) in data.iter().enumerate() {
            assert_eq!(x, (i * i) as f64);
        }
    }

    #[test]
    fn zip_map_simd_adds() {
        let a: Vec<f64> = (0..9).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..9).map(|i| (i * 10) as f64).collect();
        let mut dst = vec![0.0; 9];
        zip_map_simd::<4>(&a, &b, &mut dst, |x, y| x + y);
        for i in 0..9 {
            assert_eq!(dst[i], a[i] + b[i]);
        }
    }
}
