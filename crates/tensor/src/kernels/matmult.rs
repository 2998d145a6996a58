//! Matrix multiplication kernels, selected by representation and shape.
//!
//! The paper's §4.2 rests on kernel-level facts that we reproduce:
//!
//! 1. Dense matrix-matrix products run one loop: cache-blocked over
//!    `(k, j)` with 4-row register tiling. The paper's portable-vs-native
//!    gap (SysDS vs SysDS-B) is a JVM effect; here it is measured by the
//!    `ablation_kernels` bench on `tsmm`, not chosen at run time.
//! 2. Dense matrix-vector products (`ncol(B) = 1`) take their own path:
//!    they are bandwidth-bound, and [`super::matvec`] runs them as row dot
//!    products with independent accumulators.
//! 3. Sparse-dense multiplication iterates CSR rows directly, so a **fused**
//!    `t(X) %*% y` (see [`super::tsmm`]) avoids materializing the transpose
//!    — TensorFlow's lack of that fused call is exactly what Figure 5(b)
//!    shows.
//! 4. All kernels are row-partitioned across threads.
//!
//! Every dense kernel skips zero cells of `A` one by one, so `0 * Inf` and
//! `0 * NaN` in `B` contribute nothing, and each output cell sums its
//! products in `k` order. A row's result therefore never depends on the
//! rows that share its tile or its thread.

use super::{matvec, par_row_partitions, run_row_chunks};
use crate::matrix::{DenseMatrix, Matrix, SparseMatrix};
use sysds_common::{Result, SysDsError};
use DenseMatrix as DM;

/// Cache-block edge for the dense kernel (fits L1 comfortably).
const BLOCK: usize = 64;

/// `A %*% B` with kernel selection by representation and shape, row
/// partitioned over at most `threads` threads.
pub fn matmul(a: &Matrix, b: &Matrix, threads: usize) -> Result<Matrix> {
    if a.cols() != b.rows() {
        return Err(SysDsError::DimensionMismatch {
            op: "%*%",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let out = match (a, b) {
        (Matrix::Dense(da), Matrix::Dense(db)) if db.cols() == 1 => Matrix::Dense(
            DenseMatrix::from_vec(da.rows(), 1, matvec::dense_mv(da, db.values(), threads)),
        ),
        (Matrix::Dense(da), Matrix::Dense(db)) => Matrix::Dense(dense_dense(da, db, threads)),
        (Matrix::Sparse(sa), Matrix::Dense(db)) => Matrix::Dense(sparse_dense(sa, db, threads)),
        (Matrix::Dense(da), Matrix::Sparse(sb)) => Matrix::Dense(dense_sparse(da, sb, threads)),
        (Matrix::Sparse(sa), Matrix::Sparse(sb)) => sparse_sparse(sa, sb),
    };
    // Sampled sparsity probe: dense products are almost always dense, so
    // skip the full O(mn) non-zero scan unless a sample suggests otherwise.
    Ok(out.compact_estimated())
}

/// Dense `A %*% B`.
fn dense_dense(a: &DM, b: &DM, threads: usize) -> DenseMatrix {
    let (m, n) = (a.rows(), b.cols());
    let mut c = DenseMatrix::zeros(m, n);
    let parts = par_row_partitions(m, a.cols() * n, threads);
    // Each chunk is rows lo..hi of C, written in place.
    run_row_chunks(&parts, c.values_mut(), n, |lo, hi, chunk| {
        dense_block_rows(a, b, chunk, lo, hi)
    });
    c
}

/// Cache-blocked over (k, j) with 4-row register tiling, writing into a
/// buffer that starts at output row `lo`. The 4-row update runs only when
/// all four `A` values at `k` are non-zero; otherwise each non-zero row is
/// updated on its own, so every cell sees the same products as an i-k-j
/// loop that skips zeros.
fn dense_block_rows(a: &DM, b: &DM, out: &mut [f64], lo: usize, hi: usize) {
    let n = b.cols();
    let k_dim = a.cols();
    for kb in (0..k_dim).step_by(BLOCK) {
        let kmax = (kb + BLOCK).min(k_dim);
        for jb in (0..n).step_by(BLOCK) {
            let jmax = (jb + BLOCK).min(n);
            let mut i = lo;
            // 4-row register tile.
            while i + 4 <= hi {
                let rows = [a.row(i), a.row(i + 1), a.row(i + 2), a.row(i + 3)];
                let base = (i - lo) * n;
                for k in kb..kmax {
                    let v = rows.map(|r| r[k]);
                    let brow = &b.row(k)[jb..jmax];
                    if v.iter().all(|&x| x != 0.0) {
                        let [v0, v1, v2, v3] = v;
                        for (dj, &bv) in brow.iter().enumerate() {
                            let j = jb + dj;
                            out[base + j] += v0 * bv;
                            out[base + n + j] += v1 * bv;
                            out[base + 2 * n + j] += v2 * bv;
                            out[base + 3 * n + j] += v3 * bv;
                        }
                    } else {
                        for (r, &x) in v.iter().enumerate() {
                            let at = base + r * n;
                            axpy_nonzero(&mut out[at + jb..at + jmax], x, brow);
                        }
                    }
                }
                i += 4;
            }
            while i < hi {
                let at = (i - lo) * n;
                for (k, &aik) in a.row(i)[kb..kmax].iter().enumerate() {
                    axpy_nonzero(&mut out[at + jb..at + jmax], aik, &b.row(kb + k)[jb..jmax]);
                }
                i += 1;
            }
        }
    }
}

/// `dst += x * src`, or nothing when `x` is zero.
fn axpy_nonzero(dst: &mut [f64], x: f64, src: &[f64]) {
    if x != 0.0 {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d += x * s;
        }
    }
}

/// Sparse `A` times dense `B`: iterate stored entries of each CSR row.
fn sparse_dense(a: &SparseMatrix, b: &DM, threads: usize) -> DenseMatrix {
    let (m, n) = (a.rows(), b.cols());
    let mut c = DenseMatrix::zeros(m, n);
    let per_row = a.nnz().div_ceil(m.max(1)) * n;
    let parts = par_row_partitions(m, per_row, threads);
    run_row_chunks(&parts, c.values_mut(), n, |lo, hi, chunk| {
        for i in lo..hi {
            let (cols, vals) = a.row(i);
            let crow = &mut chunk[(i - lo) * n..(i - lo + 1) * n];
            for (&k, &aik) in cols.iter().zip(vals) {
                let brow = b.row(k as usize);
                for j in 0..n {
                    crow[j] += aik * brow[j];
                }
            }
        }
    });
    c
}

/// Dense `A` times sparse `B`: scatter each `B[k, :]` row into the output.
fn dense_sparse(a: &DM, b: &SparseMatrix, threads: usize) -> DenseMatrix {
    let (m, n) = (a.rows(), b.cols());
    let mut c = DenseMatrix::zeros(m, n);
    let parts = par_row_partitions(m, a.cols() + b.nnz(), threads);
    run_row_chunks(&parts, c.values_mut(), n, |lo, hi, chunk| {
        for i in lo..hi {
            let arow = a.row(i);
            let crow = &mut chunk[(i - lo) * n..(i - lo + 1) * n];
            for (k, &aik) in arow.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let (cols, vals) = b.row(k);
                for (&j, &bkj) in cols.iter().zip(vals) {
                    crow[j as usize] += aik * bkj;
                }
            }
        }
    });
    c
}

/// Sparse-sparse product via per-row sparse accumulation (Gustavson).
fn sparse_sparse(a: &SparseMatrix, b: &SparseMatrix) -> Matrix {
    let (m, n) = (a.rows(), b.cols());
    let mut triples = Vec::new();
    let mut acc = vec![0.0f64; n];
    let mut touched: Vec<usize> = Vec::new();
    for i in 0..m {
        let (acols, avals) = a.row(i);
        for (&k, &aik) in acols.iter().zip(avals) {
            let (bcols, bvals) = b.row(k as usize);
            for (&j, &bkj) in bcols.iter().zip(bvals) {
                let j = j as usize;
                if acc[j] == 0.0 {
                    touched.push(j);
                }
                acc[j] += aik * bkj;
            }
        }
        touched.sort_unstable();
        for &j in &touched {
            if acc[j] != 0.0 {
                triples.push((i, j, acc[j]));
            }
            acc[j] = 0.0;
        }
        touched.clear();
    }
    Matrix::Sparse(SparseMatrix::from_triples(m, n, triples))
}

/// Matrix-vector product `A %*% v` returning an `m x 1` matrix; `v` must be
/// `n x 1`.
pub fn mat_vec(a: &Matrix, v: &Matrix, threads: usize) -> Result<Matrix> {
    if v.cols() != 1 || a.cols() != v.rows() {
        return Err(SysDsError::DimensionMismatch {
            op: "%*% (mat-vec)",
            lhs: a.shape(),
            rhs: v.shape(),
        });
    }
    matmul(a, v, threads)
}

/// Vector dot product of two `n x 1` (or `1 x n`) matrices.
pub fn dot(a: &Matrix, b: &Matrix) -> Result<f64> {
    let (va, vb) = (a.as_vector()?, b.as_vector()?);
    if va.len() != vb.len() {
        return Err(SysDsError::DimensionMismatch {
            op: "dot",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    Ok(va.iter().zip(&vb).map(|(x, y)| x * y).sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::gen;

    fn reference(a: &Matrix, b: &Matrix) -> Matrix {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut c = Matrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for p in 0..k {
                    s += a.get(i, p) * b.get(p, j);
                }
                c.set(i, j, s);
            }
        }
        c
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        assert!(matmul(&a, &b, 1).is_err());
    }

    #[test]
    fn dense_dense_all_kernels_agree() {
        let a = gen::rand_uniform(17, 13, -1.0, 1.0, 1.0, 7);
        let b = gen::rand_uniform(13, 9, -1.0, 1.0, 1.0, 8);
        let expect = reference(&a, &b);
        for threads in [1usize, 4] {
            let c = matmul(&a, &b, threads).unwrap();
            assert!(c.approx_eq(&expect, 1e-9), "threads={threads}");
        }
    }

    #[test]
    fn zero_cells_in_a_partly_zero_tile_are_skipped() {
        // Rows 0 and 4 are equal; row 0 shares a 4-row tile with non-zero
        // rows, row 4 runs alone. Both must skip `0 * Inf`.
        let a = Matrix::from_rows(&[
            &[0.0, 1.0],
            &[1.0, 1.0],
            &[1.0, 1.0],
            &[1.0, 1.0],
            &[0.0, 1.0],
        ])
        .unwrap();
        let b = Matrix::from_rows(&[&[f64::INFINITY, 1.0], &[2.0, 1.0]]).unwrap();
        let c = matmul(&a, &b, 1).unwrap();
        let col0: Vec<f64> = (0..5).map(|i| c.get(i, 0)).collect();
        assert_eq!(
            col0,
            [2.0, f64::INFINITY, f64::INFINITY, f64::INFINITY, 2.0]
        );
    }

    #[test]
    fn blocked_kernel_handles_non_multiple_of_tile() {
        // rows not divisible by 4, dims not divisible by BLOCK
        let a = gen::rand_uniform(67, 70, 0.0, 1.0, 1.0, 1);
        let b = gen::rand_uniform(70, 65, 0.0, 1.0, 1.0, 2);
        let c = matmul(&a, &b, 3).unwrap();
        assert!(c.approx_eq(&reference(&a, &b), 1e-8));
    }

    #[test]
    fn sparse_dense_agrees() {
        let a = gen::rand_uniform(20, 15, -1.0, 1.0, 0.1, 3).compact();
        assert!(a.is_sparse());
        let b = gen::rand_uniform(15, 7, -1.0, 1.0, 1.0, 4);
        let c = matmul(&a, &b, 2).unwrap();
        assert!(c.approx_eq(&reference(&a, &b), 1e-9));
    }

    #[test]
    fn dense_sparse_agrees() {
        let a = gen::rand_uniform(12, 15, -1.0, 1.0, 1.0, 5);
        let b = gen::rand_uniform(15, 20, -1.0, 1.0, 0.1, 6).compact();
        assert!(b.is_sparse());
        let c = matmul(&a, &b, 2).unwrap();
        assert!(c.approx_eq(&reference(&a, &b), 1e-9));
    }

    #[test]
    fn sparse_sparse_agrees() {
        let a = gen::rand_uniform(25, 18, -1.0, 1.0, 0.15, 7).compact();
        let b = gen::rand_uniform(18, 22, -1.0, 1.0, 0.15, 8).compact();
        assert!(a.is_sparse() && b.is_sparse());
        let c = matmul(&a, &b, 1).unwrap();
        assert!(c.approx_eq(&reference(&a, &b), 1e-9));
    }

    #[test]
    fn identity_is_neutral() {
        let a = gen::rand_uniform(9, 9, -1.0, 1.0, 1.0, 9);
        let i = Matrix::identity(9);
        assert!(matmul(&a, &i, 1).unwrap().approx_eq(&a, 1e-12));
        assert!(matmul(&i, &a, 1).unwrap().approx_eq(&a, 1e-12));
    }

    #[test]
    fn mat_vec_and_dot() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let v = Matrix::from_vec(2, 1, vec![1.0, -1.0]).unwrap();
        let got = mat_vec(&a, &v, 1).unwrap();
        assert!(got.approx_eq(&Matrix::from_vec(2, 1, vec![-1.0, -1.0]).unwrap(), 1e-12));
        assert_eq!(dot(&v, &v).unwrap(), 2.0);
        assert!(mat_vec(&a, &a, 1).is_err());
    }

    #[test]
    fn zero_row_matrices() {
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(3, 2);
        let c = matmul(&a, &b, 2).unwrap();
        assert_eq!(c.shape(), (0, 2));
    }
}
