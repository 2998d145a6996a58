//! The 2-D `f64` matrix workhorse.
//!
//! Like SystemML's `MatrixBlock`, a [`Matrix`] transparently switches between
//! a dense row-major representation and a sparse CSR representation based on
//! observed sparsity; all runtime linear-algebra instructions operate on this
//! type. Kernels live in [`crate::kernels`] and are re-exported as inherent
//! methods where ergonomic.

mod dense;
mod sparse;

pub use dense::DenseMatrix;
pub use sparse::{SparseBuilder, SparseMatrix};

use sysds_common::{Result, SysDsError};

/// Sparsity below which a freshly produced matrix is stored as CSR.
/// SystemML uses the same threshold for its dense/sparse decision.
pub const SPARSE_THRESHOLD: f64 = 0.4;

/// A 2-D `f64` matrix with automatic dense/sparse representation.
#[derive(Debug, Clone, PartialEq)]
pub enum Matrix {
    Dense(DenseMatrix),
    Sparse(SparseMatrix),
}

impl Matrix {
    /// A dense all-zero matrix. (An all-zero matrix is conceptually sparse,
    /// but callers that immediately fill it want dense storage; use
    /// [`Matrix::compact`] afterwards when in doubt.)
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix::Dense(DenseMatrix::zeros(rows, cols))
    }

    /// A dense matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Matrix {
        Matrix::Dense(DenseMatrix::filled(rows, cols, value))
    }

    /// The identity matrix of order `n` (stored sparse for n > 8).
    pub fn identity(n: usize) -> Matrix {
        if n > 8 {
            let mut b = sparse::SparseBuilder::new(n, n);
            for i in 0..n {
                b.push(i, i, 1.0);
            }
            Matrix::Sparse(b.finish())
        } else {
            let mut m = DenseMatrix::zeros(n, n);
            for i in 0..n {
                m.set(i, i, 1.0);
            }
            Matrix::Dense(m)
        }
    }

    /// Build from a row-major vector; length must equal `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Matrix> {
        if data.len() != rows * cols {
            return Err(SysDsError::runtime(format!(
                "matrix({rows}x{cols}) requires {} values, got {}",
                rows * cols,
                data.len()
            )));
        }
        Ok(Matrix::Dense(DenseMatrix::from_vec(rows, cols, data)))
    }

    /// Build from nested rows (test convenience); all rows must have equal
    /// length.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Matrix> {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            if row.len() != c {
                return Err(SysDsError::runtime("ragged rows in matrix literal"));
            }
            data.extend_from_slice(row);
        }
        Matrix::from_vec(r, c, data)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        match self {
            Matrix::Dense(d) => d.rows(),
            Matrix::Sparse(s) => s.rows(),
        }
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        match self {
            Matrix::Dense(d) => d.cols(),
            Matrix::Sparse(s) => s.cols(),
        }
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows(), self.cols())
    }

    /// Number of structurally stored non-zeros (dense matrices count actual
    /// non-zero values).
    pub fn nnz(&self) -> usize {
        match self {
            Matrix::Dense(d) => d.count_nonzeros(),
            Matrix::Sparse(s) => s.nnz(),
        }
    }

    /// Fraction of non-zero cells, `nnz / (rows*cols)`; 0 for empty shapes.
    pub fn sparsity(&self) -> f64 {
        let cells = self.rows() * self.cols();
        if cells == 0 {
            0.0
        } else {
            self.nnz() as f64 / cells as f64
        }
    }

    /// Whether the current representation is sparse.
    #[inline]
    pub fn is_sparse(&self) -> bool {
        matches!(self, Matrix::Sparse(_))
    }

    /// Element access with bounds checking in debug builds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        match self {
            Matrix::Dense(d) => d.get(i, j),
            Matrix::Sparse(s) => s.get(i, j),
        }
    }

    /// Set one element, converting to dense if necessary (sparse point
    /// updates are expensive; the runtime only uses this on small outputs).
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        if let Matrix::Sparse(_) = self {
            *self = Matrix::Dense(self.to_dense());
        }
        match self {
            Matrix::Dense(d) => d.set(i, j, v),
            Matrix::Sparse(_) => unreachable!("converted to dense above"),
        }
    }

    /// Materialize a dense copy (no-op clone when already dense).
    pub fn to_dense(&self) -> DenseMatrix {
        match self {
            Matrix::Dense(d) => d.clone(),
            Matrix::Sparse(s) => s.to_dense(),
        }
    }

    /// Materialize a CSR copy (no-op clone when already sparse).
    pub fn to_sparse(&self) -> SparseMatrix {
        match self {
            Matrix::Dense(d) => SparseMatrix::from_dense(d),
            Matrix::Sparse(s) => s.clone(),
        }
    }

    /// Re-examine sparsity and switch representation when crossing
    /// [`SPARSE_THRESHOLD`], mirroring SystemML's `examSparsity`.
    pub fn compact(self) -> Matrix {
        match self {
            Matrix::Dense(d) => {
                let nnz = d.count_nonzeros();
                Matrix::from_dense_with_nnz(d, nnz)
            }
            Matrix::Sparse(_) if self.sparsity() >= SPARSE_THRESHOLD => {
                Matrix::Dense(self.to_dense())
            }
            _ => self,
        }
    }

    /// `d` in the representation [`Matrix::compact`] picks, given `nnz`,
    /// the caller's count of `d`'s non-zeros: producers that count while
    /// they write skip the rescan.
    pub fn from_dense_with_nnz(d: DenseMatrix, nnz: usize) -> Matrix {
        debug_assert_eq!(nnz, d.count_nonzeros(), "wrong non-zero count");
        let cells = d.rows() * d.cols();
        if cells >= 64 && (nnz as f64 / cells as f64) < SPARSE_THRESHOLD {
            Matrix::Sparse(SparseMatrix::from_dense(&d))
        } else {
            Matrix::Dense(d)
        }
    }

    /// Like [`Matrix::compact`], but large dense outputs are sampled first:
    /// a strided probe of ~1k cells estimates the sparsity, and the exact
    /// O(mn) non-zero scan only runs when the estimate is near or below
    /// [`SPARSE_THRESHOLD`]. Hot kernels producing mostly-dense outputs
    /// (matmul, fused pipelines) skip the full scan entirely.
    pub fn compact_estimated(self) -> Matrix {
        const SAMPLE_MIN_CELLS: usize = 1 << 14;
        const SAMPLE_TARGET: usize = 1024;
        if let Matrix::Dense(d) = &self {
            let cells = d.rows() * d.cols();
            if cells >= SAMPLE_MIN_CELLS {
                let stride = cells / SAMPLE_TARGET;
                let mut sampled = 0usize;
                let mut nonzero = 0usize;
                for &v in d.values().iter().step_by(stride) {
                    sampled += 1;
                    nonzero += usize::from(v != 0.0);
                }
                let estimate = nonzero as f64 / sampled as f64;
                // Margin absorbs sampling error: only clearly-dense outputs
                // skip the exact scan, so representation flips near the
                // threshold still go through `compact`.
                if estimate >= SPARSE_THRESHOLD + 0.1 {
                    return self;
                }
            }
        }
        self.compact()
    }

    /// Estimated in-memory size in bytes, used by the compiler's memory
    /// estimates and the buffer pool.
    pub fn in_memory_size(&self) -> usize {
        match self {
            Matrix::Dense(d) => 32 + 8 * d.rows() * d.cols(),
            // values + column indices + row pointers
            Matrix::Sparse(s) => 48 + 16 * s.nnz() + 8 * (s.rows() + 1),
        }
    }

    /// Estimate the in-memory size of a matrix with the given shape and
    /// sparsity *without* materializing it (compiler memory estimates).
    pub fn estimate_size(rows: usize, cols: usize, sparsity: f64) -> usize {
        if sparsity < SPARSE_THRESHOLD {
            let nnz = (rows as f64 * cols as f64 * sparsity).ceil() as usize;
            48 + 16 * nnz + 8 * (rows + 1)
        } else {
            32 + 8 * rows * cols
        }
    }

    /// Iterate all cells as `(row, col, value)`, skipping structural zeros
    /// for sparse matrices.
    pub fn iter_nonzeros(&self) -> Box<dyn Iterator<Item = (usize, usize, f64)> + '_> {
        match self {
            Matrix::Dense(d) => Box::new(d.iter().filter(|&(_, _, v)| v != 0.0)),
            Matrix::Sparse(s) => Box::new(s.iter_nonzeros()),
        }
    }

    /// Extract the full matrix into a row-major `Vec<f64>`.
    pub fn to_vec(&self) -> Vec<f64> {
        self.to_dense().into_vec()
    }

    /// Treat an `n x 1` or `1 x n` matrix as a vector of values.
    pub fn as_vector(&self) -> Result<Vec<f64>> {
        if self.rows() != 1 && self.cols() != 1 {
            return Err(SysDsError::runtime(format!(
                "expected a vector, got {}x{}",
                self.rows(),
                self.cols()
            )));
        }
        Ok(self.to_vec())
    }

    /// Scalar extraction from a 1x1 matrix (DML `as.scalar`).
    pub fn as_scalar(&self) -> Result<f64> {
        if self.rows() == 1 && self.cols() == 1 {
            Ok(self.get(0, 0))
        } else {
            Err(SysDsError::runtime(format!(
                "as.scalar on {}x{} matrix",
                self.rows(),
                self.cols()
            )))
        }
    }

    /// Approximate equality for tests: same shape, all cells within `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        if self.shape() != other.shape() {
            return false;
        }
        for i in 0..self.rows() {
            for j in 0..self.cols() {
                let (a, b) = (self.get(i, j), other.get(i, j));
                if (a - b).abs() > tol && !(a.is_nan() && b.is_nan()) {
                    return false;
                }
            }
        }
        true
    }
}

impl std::fmt::Display for Matrix {
    /// Render like DML's `toString`: space-separated rows, capped at 20x20.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rmax = self.rows().min(20);
        let cmax = self.cols().min(20);
        for i in 0..rmax {
            for j in 0..cmax {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:.3}", self.get(i, j))?;
            }
            writeln!(f)?;
        }
        if rmax < self.rows() || cmax < self.cols() {
            writeln!(f, "... ({}x{} total)", self.rows(), self.cols())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_shape_check() {
        assert!(Matrix::from_vec(2, 3, vec![0.0; 5]).is_err());
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(1, 2), 6.0);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).is_err());
    }

    #[test]
    fn identity_values() {
        for n in [3usize, 20] {
            let i = Matrix::identity(n);
            for r in 0..n {
                for c in 0..n {
                    assert_eq!(i.get(r, c), if r == c { 1.0 } else { 0.0 });
                }
            }
        }
    }

    #[test]
    fn sparsity_and_nnz() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 2.0]).unwrap();
        assert_eq!(m.nnz(), 2);
        assert!((m.sparsity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn compact_switches_representation() {
        // 10x10 with 5 nonzeros => sparsity 0.05 < 0.4, and >= 64 cells.
        let mut m = Matrix::zeros(10, 10);
        for k in 0..5 {
            m.set(k, k, 1.0);
        }
        let m = m.compact();
        assert!(m.is_sparse());
        // Dense-ish content converts back.
        let d = Matrix::filled(10, 10, 3.0).to_sparse();
        let back = Matrix::Sparse(d).compact();
        assert!(!back.is_sparse());
    }

    #[test]
    fn compact_estimated_matches_compact_decisions() {
        // Large dense matrix: sampling skips the scan, stays dense.
        let dense = Matrix::filled(200, 200, 1.0).compact_estimated();
        assert!(!dense.is_sparse());
        // Large mostly-zero matrix: converts to sparse like compact().
        let mut m = Matrix::zeros(200, 200);
        for k in 0..40 {
            m.set(k, k, 1.0);
        }
        assert!(m.compact_estimated().is_sparse());
        // Small matrices delegate to the exact path.
        let mut small = Matrix::zeros(10, 10);
        small.set(0, 0, 1.0);
        assert!(small.compact_estimated().is_sparse());
    }

    #[test]
    fn set_on_sparse_converts() {
        let mut m = Matrix::identity(20);
        assert!(m.is_sparse());
        m.set(0, 1, 5.0);
        assert_eq!(m.get(0, 1), 5.0);
        assert_eq!(m.get(0, 0), 1.0);
    }

    #[test]
    fn size_estimates_match_reality_dense() {
        let m = Matrix::filled(100, 10, 1.0);
        assert_eq!(m.in_memory_size(), Matrix::estimate_size(100, 10, 1.0));
    }

    #[test]
    fn as_scalar_and_vector() {
        let m = Matrix::filled(1, 1, 7.0);
        assert_eq!(m.as_scalar().unwrap(), 7.0);
        assert!(Matrix::zeros(2, 2).as_scalar().is_err());
        let v = Matrix::from_vec(3, 1, vec![1., 2., 3.]).unwrap();
        assert_eq!(v.as_vector().unwrap(), vec![1., 2., 3.]);
        assert!(Matrix::zeros(2, 2).as_vector().is_err());
    }

    #[test]
    fn approx_eq_tolerates() {
        let a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 2, 1.0 + 1e-12);
        assert!(a.approx_eq(&b, 1e-9));
        assert!(!a.approx_eq(&Matrix::zeros(2, 2), 1e-9));
        assert!(!a.approx_eq(&Matrix::zeros(2, 3), 1e-9));
    }

    #[test]
    fn display_truncates() {
        let s = format!("{}", Matrix::zeros(30, 2));
        assert!(s.contains("(30x2 total)"));
    }
}
