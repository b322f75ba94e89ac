//! Dense row-major matrices: the activation batches flowing through the NN
//! (`batch × width`), plus a dense weight format for the sparse-vs-dense
//! ablation (DESIGN.md A2).

use crate::scalar::Scalar;

/// A dense `rows × cols` matrix, row-major.
#[derive(Clone, PartialEq, Debug)]
pub struct Dense<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Dense<T> {
    /// An all-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Dense {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Take ownership of row-major data.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), rows * cols);
        Dense { rows, cols, data }
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    pub fn data(&self) -> &[T] {
        &self.data
    }

    #[inline]
    pub fn data_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> T {
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: T) {
        self.data[r * self.cols + c] = v;
    }

    /// Reshape in place, reusing the allocation (contents unspecified).
    /// The workhorse of the buffer-reusing forward kernels.
    pub fn resize_to(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, T::ZERO);
    }

    /// Build a feature-major activation matrix from per-testbench bit
    /// vectors: `lanes[l]` holds lane `l`'s feature values; the result is
    /// `features × lanes` with lane `l` in column `l`.
    pub fn from_lanes(lanes: &[Vec<bool>]) -> Self {
        let b = lanes.len();
        let f = lanes.first().map_or(0, |l| l.len());
        let mut m = Dense::zeros(f, b);
        for (l, lane) in lanes.iter().enumerate() {
            assert_eq!(lane.len(), f, "lane {l} width");
            for (feat, &bit) in lane.iter().enumerate() {
                if bit {
                    m.set(feat, l, T::ONE);
                }
            }
        }
        m
    }

    /// Inverse of [`Dense::from_lanes`]: per-column bit vectors.
    pub fn to_lanes(&self) -> Vec<Vec<bool>> {
        (0..self.cols)
            .map(|l| (0..self.rows).map(|f| self.get(f, l) == T::ONE).collect())
            .collect()
    }

    /// Bytes of payload.
    pub fn memory_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_set_get() {
        let mut m: Dense<f32> = Dense::zeros(2, 3);
        m.set(1, 2, 7.0);
        assert_eq!(m.get(1, 2), 7.0);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 7.0]);
    }

    #[test]
    #[should_panic]
    fn from_vec_checks_shape() {
        let _ = Dense::<f32>::from_vec(2, 2, vec![0.0; 3]);
    }
}
