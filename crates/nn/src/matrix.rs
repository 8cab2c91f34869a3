//! Minimal dense row-major matrix used by the neural network stack.

use rand::{Rng, RngExt};
use serde::{Deserialize, Serialize};

/// A dense `rows × cols` matrix of `f64`, row-major.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Construct from a row-major data vector.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must match dims");
        Matrix { rows, cols, data }
    }

    /// Construct from nested rows.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty());
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// A 1×n row vector.
    pub fn row_vector(v: &[f64]) -> Self {
        Matrix::from_vec(1, v.len(), v.to_vec())
    }

    /// A n×1 column vector.
    pub fn col_vector(v: &[f64]) -> Self {
        Matrix::from_vec(v.len(), 1, v.to_vec())
    }

    /// Xavier/Glorot-uniform initialization for a `rows × cols` weight.
    pub fn xavier<R: Rng>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let limit = (6.0 / (rows + cols) as f64).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.random_range(-limit..limit))
            .collect();
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Element access.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Row slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Underlying data, row-major.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable underlying data.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Rebuild a matrix from a recycled buffer: the buffer is cleared,
    /// resized to `rows × cols` and zero-filled, reusing its allocation.
    pub fn from_buffer(rows: usize, cols: usize, mut buf: Vec<f64>) -> Self {
        buf.clear();
        buf.resize(rows * cols, 0.0);
        Matrix {
            rows,
            cols,
            data: buf,
        }
    }

    /// Consume the matrix, returning its backing buffer for reuse.
    pub fn into_buffer(self) -> Vec<f64> {
        self.data
    }

    /// Reshape in place to `rows × cols`, zero-filling (allocation is kept
    /// whenever the new size fits).
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Zero every element, keeping the shape and allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Copy `other` into `self`, reshaping as needed (allocation reused).
    pub fn copy_from(&mut self, other: &Matrix) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// Matrix product `self × other`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// Matrix product `self × other` written into `out` (which is reshaped
    /// and overwritten; its allocation is reused).
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols,
            other.rows,
            "matmul shape mismatch: {:?} × {:?}",
            self.shape(),
            other.shape()
        );
        out.reset(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let orow = &other.data[k * other.cols..(k + 1) * other.cols];
                let crow = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (c, &o) in crow.iter_mut().zip(orow) {
                    *c += a * o;
                }
            }
        }
    }

    /// `self × otherᵀ` written into `out` — the `∂L/∂A` kernel of a matmul
    /// backward pass, without materializing the transpose.
    pub fn matmul_nt_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols,
            other.cols,
            "matmul_nt shape mismatch: {:?} × {:?}ᵀ",
            self.shape(),
            other.shape()
        );
        out.reset(self.rows, other.rows);
        for i in 0..self.rows {
            let arow = &self.data[i * self.cols..(i + 1) * self.cols];
            let crow = &mut out.data[i * other.rows..(i + 1) * other.rows];
            for (j, c) in crow.iter_mut().enumerate() {
                let brow = &other.data[j * other.cols..(j + 1) * other.cols];
                let mut acc = 0.0;
                for (a, b) in arow.iter().zip(brow) {
                    acc += a * b;
                }
                *c = acc;
            }
        }
    }

    /// `selfᵀ × other` written into `out` — the `∂L/∂B` kernel of a matmul
    /// backward pass, without materializing the transpose.
    pub fn matmul_tn_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows,
            other.rows,
            "matmul_tn shape mismatch: {:?}ᵀ × {:?}",
            self.shape(),
            other.shape()
        );
        out.reset(self.cols, other.cols);
        for i in 0..self.rows {
            let orow = &other.data[i * other.cols..(i + 1) * other.cols];
            for j in 0..self.cols {
                let a = self.data[i * self.cols + j];
                if a == 0.0 {
                    continue;
                }
                let crow = &mut out.data[j * other.cols..(j + 1) * other.cols];
                for (c, &o) in crow.iter_mut().zip(orow) {
                    *c += a * o;
                }
            }
        }
    }

    /// `self += alpha · other` (BLAS `axpy`), elementwise in place.
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// `self += other`, elementwise in place.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Fused `relu(x × w + bias)` written into `out` — one pass over the
    /// output instead of three tape nodes (matmul, bias broadcast, ReLU).
    pub fn linear_bias_relu_into(x: &Matrix, w: &Matrix, bias: &Matrix, out: &mut Matrix) {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, w.cols, "bias/weight width mismatch");
        x.matmul_into(w, out);
        for r in 0..out.rows {
            let row = &mut out.data[r * out.cols..(r + 1) * out.cols];
            for (o, &b) in row.iter_mut().zip(&bias.data) {
                *o = (*o + b).max(0.0);
            }
        }
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Elementwise sum.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape());
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape());
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Scalar multiple.
    pub fn scale(&self, s: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|a| a * s).collect(),
        }
    }

    /// Apply `f` elementwise.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&a| f(a)).collect(),
        }
    }

    /// Add a 1×cols row vector to every row (bias broadcast).
    pub fn add_row_broadcast(&self, bias: &Matrix) -> Matrix {
        assert_eq!(bias.rows, 1);
        assert_eq!(bias.cols, self.cols);
        let mut out = self.clone();
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[r * self.cols + c] += bias.data[c];
            }
        }
        out
    }

    /// Concatenate columns: `[self | other]` (same row count).
    pub fn concat_cols(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows);
        let cols = self.cols + other.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(self.row(r));
            data.extend_from_slice(other.row(r));
        }
        Matrix {
            rows: self.rows,
            cols,
            data,
        }
    }

    /// Sum over all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Column sums as a 1×cols matrix.
    pub fn col_sums(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|a| a * a).sum::<f64>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_vec(2, 2, vec![58.0, 64.0, 139.0, 154.0]));
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
    }

    #[test]
    fn broadcast_bias() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::row_vector(&[1.0, 2.0, 3.0]);
        let c = a.add_row_broadcast(&b);
        assert_eq!(c.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(c.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn concat_cols_layout() {
        let a = Matrix::from_vec(2, 1, vec![1.0, 2.0]);
        let b = Matrix::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]);
        let c = a.concat_cols(&b);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row(0), &[1.0, 3.0, 4.0]);
        assert_eq!(c.row(1), &[2.0, 5.0, 6.0]);
    }

    #[test]
    fn xavier_bounds() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let w = Matrix::xavier(10, 20, &mut rng);
        let limit = (6.0_f64 / 30.0).sqrt();
        assert!(w.data().iter().all(|&x| x.abs() <= limit));
        assert!(w.norm() > 0.0);
    }

    #[test]
    fn col_sums_correct() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.col_sums(), Matrix::from_vec(1, 2, vec![4.0, 6.0]));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn matmul_into_reuses_buffer_and_matches() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let mut out = Matrix::zeros(5, 7); // wrong shape on purpose
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
    }

    #[test]
    fn matmul_nt_tn_match_explicit_transposes() {
        let a = Matrix::from_vec(2, 3, vec![1.0, -2.0, 3.0, 0.5, 4.0, -1.0]);
        let b = Matrix::from_vec(
            4,
            3,
            vec![2.0, 1.0, 0.0, -1.0, 3.0, 2.0, 0.5, 0.0, 1.0, 2.0, -2.0, 1.0],
        );
        let mut nt = Matrix::default();
        a.matmul_nt_into(&b, &mut nt);
        assert_eq!(nt, a.matmul(&b.transpose()));
        let c = Matrix::from_vec(2, 4, vec![1.0, 0.0, 2.0, -1.0, 3.0, 1.0, 0.0, 2.0]);
        let mut tn = Matrix::default();
        a.matmul_tn_into(&c, &mut tn);
        assert_eq!(tn, a.transpose().matmul(&c));
    }

    #[test]
    fn axpy_and_add_assign() {
        let mut y = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let x = Matrix::from_vec(1, 3, vec![10.0, 20.0, 30.0]);
        y.axpy(0.5, &x);
        assert_eq!(y, Matrix::from_vec(1, 3, vec![6.0, 12.0, 18.0]));
        y.add_assign(&x);
        assert_eq!(y, Matrix::from_vec(1, 3, vec![16.0, 32.0, 48.0]));
    }

    #[test]
    fn fused_linear_bias_relu_matches_composed_ops() {
        let x = Matrix::from_vec(2, 3, vec![0.5, -1.0, 2.0, 1.0, 0.0, -0.5]);
        let w = Matrix::from_vec(3, 2, vec![1.0, -1.0, 0.5, 2.0, -2.0, 1.0]);
        let b = Matrix::row_vector(&[0.1, -0.2]);
        let mut fused = Matrix::default();
        Matrix::linear_bias_relu_into(&x, &w, &b, &mut fused);
        let reference = x.matmul(&w).add_row_broadcast(&b).map(|v| v.max(0.0));
        assert_eq!(fused, reference);
    }

    #[test]
    fn buffer_roundtrip_preserves_capacity_semantics() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let buf = m.into_buffer();
        let z = Matrix::from_buffer(3, 1, buf);
        assert_eq!(z, Matrix::zeros(3, 1));
    }
}
