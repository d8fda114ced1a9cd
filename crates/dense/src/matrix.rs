//! A minimal dense `f32` matrix with a cache-blocked parallel multiply.
//!
//! The kernel uses i-k-j loop order (streaming the output row while
//! broadcasting one `A[i][k]`), blocked over rows for parallelism; this is
//! the standard portable formulation that vectorizes well under `-O`.

use parscan_parallel::primitives::par_for_range;
use parscan_parallel::utils::{SyncMutPtr, SyncPtr};

/// Row-major dense square-or-rectangular matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    pub fn from_rows(rows: Vec<Vec<f32>>) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        assert!(rows.iter().all(|row| row.len() == c));
        Matrix {
            rows: r,
            cols: c,
            data: rows.into_iter().flatten().collect(),
        }
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
    pub fn get(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.cols + j]
    }

    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        self.data[i * self.cols + j] = v;
    }

    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Parallel matrix product `self × rhs`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "inner dimensions must agree");
        let (n, k_dim, m) = (self.rows, self.cols, rhs.cols);
        let mut out = Matrix::zeros(n, m);
        let out_ptr = SyncMutPtr::new(&mut out.data);
        let a = SyncPtr::new(&self.data);
        let b = SyncPtr::new(&rhs.data);
        par_for_range(n, 8, |rows| {
            for i in rows {
                // SAFETY: each output row is written by one chunk only.
                let out_row = unsafe { out_ptr.slice_mut(i * m, m) };
                // SAFETY: row `i < n` of the `n × k_dim` left operand is in
                // bounds, and no thread writes an operand during the product.
                let a_row = unsafe { a.slice(i * k_dim, k_dim) };
                for (k, &aik) in a_row.iter().enumerate() {
                    if aik == 0.0 {
                        continue; // adjacency matrices are mostly zero
                    }
                    // SAFETY: row `k < k_dim` of the `k_dim × m` right
                    // operand is in bounds; it is only read.
                    let b_row = unsafe { b.slice(k * m, m) };
                    for (o, &bkj) in out_row.iter_mut().zip(b_row) {
                        *o += aik * bkj;
                    }
                }
            }
        });
        out
    }

    /// `self × self` (the `W²` the similarity reduction needs).
    pub fn square(&self) -> Matrix {
        assert_eq!(self.rows, self.cols, "square() needs a square matrix");
        self.matmul(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_known_product() {
        let a = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(vec![vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let n = 33;
        let mut ident = Matrix::zeros(n, n);
        for i in 0..n {
            ident.set(i, i, 1.0);
        }
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a.set(i, j, ((i * 31 + j * 7) % 13) as f32);
            }
        }
        assert_eq!(a.matmul(&ident), a);
        assert_eq!(ident.matmul(&a), a);
    }

    #[test]
    fn matches_naive_multiply() {
        let n = 60;
        let mut a = Matrix::zeros(n, n);
        let mut b = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a.set(i, j, ((i + j) % 5) as f32);
                b.set(i, j, ((i * j) % 7) as f32);
            }
        }
        let fast = a.matmul(&b);
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0f32;
                for k in 0..n {
                    acc += a.get(i, k) * b.get(k, j);
                }
                assert!((fast.get(i, j) - acc).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn rectangular_shapes() {
        let a = Matrix::from_rows(vec![vec![1.0, 0.0, 2.0]]);
        let b = Matrix::from_rows(vec![vec![1.0], vec![1.0], vec![1.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.rows(), 1);
        assert_eq!(c.cols(), 1);
        assert_eq!(c.get(0, 0), 3.0);
    }
}
