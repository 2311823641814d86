//! Dense row-major matrices over ℤ_{2^ℓ}.
//!
//! The linear layers of the paper's workloads are matrix–matrix products
//! `W (m×n) · X (n×o)` where `o` is the prediction batch size (or a conv's
//! output positions); [`Matrix::mul`] computes every one of them. Elements
//! are raw `u64` ring residues; the [`Ring`] is passed to the operations
//! that need a modulus.

use crate::Ring;
use rand::Rng;

/// A dense row-major matrix of ring elements.
///
/// ```
/// use abnn2_math::{Matrix, Ring};
/// let ring = Ring::new(16);
/// let w = Matrix::from_rows(&[vec![1, 2], vec![3, 4]]);
/// let x = Matrix::from_rows(&[vec![5], vec![6]]);
/// let y = w.mul(&x, &ring);
/// assert_eq!(y.as_slice(), &[17, 39]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<u64>,
}

impl Matrix {
    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn new(rows: usize, cols: usize, data: Vec<u64>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Creates an all-zero matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0; rows * cols] }
    }

    /// Creates a matrix from a slice of equal-length rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths or `rows` is empty.
    #[must_use]
    pub fn from_rows(rows: &[Vec<u64>]) -> Self {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        assert!(rows.iter().all(|r| r.len() == cols), "ragged rows");
        Matrix { rows: rows.len(), cols, data: rows.concat() }
    }

    /// Creates a column vector (n×1 matrix).
    #[must_use]
    pub fn column(data: Vec<u64>) -> Self {
        Matrix { rows: data.len(), cols: 1, data }
    }

    /// Creates a uniformly random matrix over the ring.
    #[must_use]
    pub fn random<R: Rng + ?Sized>(rows: usize, cols: usize, ring: &Ring, rng: &mut R) -> Self {
        Matrix { rows, cols, data: ring.sample_vec(rng, rows * cols) }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the matrix has no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row-major view of the elements.
    #[must_use]
    pub fn as_slice(&self) -> &[u64] {
        &self.data
    }

    /// Mutable row-major view of the elements.
    pub fn as_mut_slice(&mut self) -> &mut [u64] {
        &mut self.data
    }

    /// Consumes the matrix, returning the row-major data.
    #[must_use]
    pub fn into_vec(self) -> Vec<u64> {
        self.data
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> u64 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        self.data[r * self.cols + c]
    }

    /// Element setter.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: u64) {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Borrowed view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[must_use]
    pub fn row(&self, r: usize) -> &[u64] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    #[must_use]
    pub fn col(&self, c: usize) -> Vec<u64> {
        assert!(c < self.cols, "column {c} out of bounds");
        (0..self.rows).map(|r| self.data[r * self.cols + c]).collect()
    }

    /// Matrix product `self · rhs` mod `2^ℓ`.
    ///
    /// A one-column `rhs` (a matrix-vector product) is one [`Ring::dot`]
    /// per row over contiguous slices; wider ones accumulate each row of
    /// `self` against the rows of `rhs`, skipping zero entries.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    #[must_use]
    pub fn mul(&self, rhs: &Matrix, ring: &Ring) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "inner dimension mismatch: {}x{} · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        if rhs.cols == 1 {
            let data = (0..self.rows)
                .map(|i| ring.dot(&self.data[i * self.cols..][..self.cols], &rhs.data))
                .collect();
            return Matrix::column(data);
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0 {
                    continue;
                }
                let row_rhs = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                let row_out = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &b) in row_out.iter_mut().zip(row_rhs) {
                    *o = o.wrapping_add(a.wrapping_mul(b));
                }
            }
        }
        for v in &mut out.data {
            *v = ring.reduce(*v);
        }
        out
    }

    /// Element-wise sum mod `2^ℓ`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    #[must_use]
    pub fn add(&self, rhs: &Matrix, ring: &Ring) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "shape mismatch");
        Matrix { rows: self.rows, cols: self.cols, data: ring.add_vec(&self.data, &rhs.data) }
    }

    /// Element-wise difference mod `2^ℓ`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    #[must_use]
    pub fn sub(&self, rhs: &Matrix, ring: &Ring) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "shape mismatch");
        Matrix { rows: self.rows, cols: self.cols, data: ring.sub_vec(&self.data, &rhs.data) }
    }

    /// Transposed copy.
    #[must_use]
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    #[test]
    fn identity_multiplication() {
        let ring = Ring::new(32);
        let id = Matrix::from_rows(&[vec![1, 0], vec![0, 1]]);
        let m = Matrix::from_rows(&[vec![7, 8], vec![9, 10]]);
        assert_eq!(id.mul(&m, &ring), m);
        assert_eq!(m.mul(&id, &ring), m);
    }

    #[test]
    fn known_product() {
        let ring = Ring::new(32);
        let a = Matrix::from_rows(&[vec![1, 2, 3], vec![4, 5, 6]]);
        let b = Matrix::from_rows(&[vec![7, 8], vec![9, 10], vec![11, 12]]);
        let c = a.mul(&b, &ring);
        assert_eq!(c.as_slice(), &[58, 64, 139, 154]);
    }

    #[test]
    fn product_wraps_mod_ring() {
        let ring = Ring::new(8);
        let a = Matrix::from_rows(&[vec![200]]);
        let b = Matrix::from_rows(&[vec![2]]);
        assert_eq!(a.mul(&b, &ring).as_slice(), &[(200 * 2) % 256]);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn mismatched_dims_panic() {
        let ring = Ring::new(8);
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.mul(&b, &ring);
    }

    #[test]
    fn transpose_round_trip() {
        let m = Matrix::from_rows(&[vec![1, 2, 3], vec![4, 5, 6]]);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().row(0), &[1, 4]);
        assert_eq!(m.col(2), vec![3, 6]);
    }

    #[test]
    fn column_constructor() {
        let v = Matrix::column(vec![1, 2, 3]);
        assert_eq!((v.rows(), v.cols()), (3, 1));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn matmul_matches_reference(seed: u64, m in 1usize..6, n in 1usize..6, o in 1usize..6, bits in 1u32..=64) {
            let ring = Ring::new(bits);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let a = Matrix::random(m, n, &ring, &mut rng);
            let b = Matrix::random(n, o, &ring, &mut rng);
            let c = a.mul(&b, &ring);
            for i in 0..m {
                for j in 0..o {
                    let expect = ring.dot(a.row(i), &b.col(j));
                    prop_assert_eq!(c.get(i, j), expect);
                }
            }
        }

        /// Both of `mul`'s paths against a triple loop that shares no code
        /// with them: exact `u128` products, reduced once at the end.
        #[test]
        fn matmul_matches_a_naive_triple_loop(
            seed: u64,
            which_ring in 0usize..3,
            which_cols in 0usize..4,
            m in 1usize..10,
            n in 1usize..40,
            ternary: bool,
        ) {
            let bits = [16, 32, 64][which_ring];
            let o = [1, 2, 8, 36][which_cols];
            let ring = Ring::new(bits);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut a = if ternary {
                // Mostly zero, else ±1: the shape of a ternary weight matrix.
                let w = [0, 0, 0, 1, ring.from_i64(-1)];
                Matrix::new(m, n, (0..m * n).map(|_| w[rng.gen_range(0..w.len())]).collect())
            } else {
                Matrix::random(m, n, &ring, &mut rng)
            };
            let zero_row = rng.gen_range(0..m);
            (0..n).for_each(|k| a.set(zero_row, k, 0));
            let b = Matrix::random(n, o, &ring, &mut rng);
            let c = a.mul(&b, &ring);
            prop_assert_eq!((c.rows(), c.cols()), (m, o));
            let mask = u64::MAX >> (64 - bits);
            for i in 0..m {
                for j in 0..o {
                    let mut acc = 0u128;
                    for k in 0..n {
                        acc = acc.wrapping_add(u128::from(a.get(i, k)) * u128::from(b.get(k, j)));
                    }
                    prop_assert_eq!(c.get(i, j), acc as u64 & mask);
                }
            }
            prop_assert!(c.row(zero_row).iter().all(|&v| v == 0));
        }

        #[test]
        fn matmul_distributes_over_add(seed: u64, m in 1usize..5, n in 1usize..5) {
            let ring = Ring::new(32);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let w = Matrix::random(m, n, &ring, &mut rng);
            let x = Matrix::random(n, 1, &ring, &mut rng);
            let y = Matrix::random(n, 1, &ring, &mut rng);
            let lhs = w.mul(&x.add(&y, &ring), &ring);
            let rhs = w.mul(&x, &ring).add(&w.mul(&y, &ring), &ring);
            prop_assert_eq!(lhs, rhs);
        }
    }
}
