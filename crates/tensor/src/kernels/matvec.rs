//! Bandwidth-bound matrix-vector kernels: `X %*% v` and the fused chain
//! `t(X) %*% (X %*% v - y)`.
//!
//! A mat-vec reads every cell of `X` once and does one multiply-add per
//! cell, so it runs at memory bandwidth — if the loop lets it. The general
//! i-k-j matmul loop degenerates for `n = 1` into one serial add chain per
//! row with a data-dependent branch per cell. Here each row is a dot
//! product over four independent accumulators, and rows are partitioned
//! across threads. [`mmchain`] goes one step further (SystemML's
//! `MapMultChain`): it computes `s_i = x_i·v` and immediately adds
//! `s_i·x_i` to a per-partition `ncol`-vector while the row is still in
//! cache, so `t(X) %*% (X %*% v)` reads `X` once instead of twice.
//!
//! # Zero and NaN semantics
//!
//! The results match the unfused kernels (`matmul` then `tmv`) cell for
//! cell, including non-finite values, up to summation order:
//!
//! * **Mat-vec** skips zero cells of `X`: a zero contributes nothing even
//!   when the matching entry of `v` is `Inf` or `NaN`, as in the general
//!   dense and sparse matmul kernels. When `v` is all finite the skip is a
//!   no-op (`0·v_k` is a signed zero and the accumulators start at `+0`),
//!   so the branch-free loop runs and the zero test is paid only after one
//!   `is_finite` scan of `v` finds a non-finite entry.
//! * **Chain** skips a row whose scaled value `s_i - y_i` is zero, as
//!   dense `tmv` does, and otherwise multiplies every cell of a dense row,
//!   so a zero cell times a non-finite row value is `NaN`. Sparse rows
//!   touch only their stored entries.
//!
//! Each output row of a mat-vec is computed by the same routine whatever
//! the partitioning, so mat-vec results are bitwise identical for every
//! thread count. Chain partials are merged in partition order.

use super::{par_row_partitions, run_partitions, run_row_chunks};
use crate::matrix::{DenseMatrix, Matrix};
use sysds_common::{Result, SysDsError};

/// Dense `X %*% v` for a dense `ncol(X)`-vector `v`, returning the
/// `nrow(X)` row dot products.
pub fn dense_mv(x: &DenseMatrix, v: &[f64], threads: usize) -> Vec<f64> {
    debug_assert_eq!(x.cols(), v.len());
    let skip_zeros = !v.iter().all(|w| w.is_finite());
    let parts = par_row_partitions(x.rows(), x.cols(), threads);
    let mut out = vec![0.0; x.rows()];
    run_row_chunks(&parts, &mut out, 1, |lo, _, chunk| {
        for (i, o) in (lo..).zip(chunk) {
            *o = row_dot(x.row(i), v, skip_zeros);
        }
    });
    out
}

/// `t(X) %*% (X %*% v - y)` in one pass over `X` (`y` absent means zero).
/// `v` must be `ncol(X) x 1` and `y`, when given, `nrow(X) x 1`; the result
/// is `ncol(X) x 1`.
pub fn mmchain(x: &Matrix, v: &Matrix, y: Option<&Matrix>, threads: usize) -> Result<Matrix> {
    if v.cols() != 1 || x.cols() != v.rows() {
        return Err(SysDsError::DimensionMismatch {
            op: "mmchain",
            lhs: x.shape(),
            rhs: v.shape(),
        });
    }
    if let Some(y) = y {
        if y.cols() != 1 || y.rows() != x.rows() {
            return Err(SysDsError::DimensionMismatch {
                op: "mmchain (y)",
                lhs: x.shape(),
                rhs: y.shape(),
            });
        }
    }
    let n = x.cols();
    let vv = v.to_vec();
    let yv = y.map(Matrix::to_vec);
    let skip_zeros = !vv.iter().all(|w| w.is_finite());
    let parts = par_row_partitions(x.rows(), n, threads);
    let partial = |lo: usize, hi: usize| -> Vec<f64> {
        let mut acc = vec![0.0f64; n];
        let offset = |i: usize| yv.as_ref().map_or(0.0, |y| y[i]);
        match x {
            Matrix::Dense(d) => {
                for i in lo..hi {
                    let row = d.row(i);
                    let s = row_dot(row, &vv, skip_zeros) - offset(i);
                    if s == 0.0 {
                        continue;
                    }
                    for (a, &xij) in acc.iter_mut().zip(row) {
                        *a += xij * s;
                    }
                }
            }
            Matrix::Sparse(sp) => {
                for i in lo..hi {
                    let (cols, vals) = sp.row(i);
                    let mut s = 0.0;
                    for (&c, &xij) in cols.iter().zip(vals) {
                        s += xij * vv[c as usize];
                    }
                    let s = s - offset(i);
                    if s == 0.0 {
                        continue;
                    }
                    for (&c, &xij) in cols.iter().zip(vals) {
                        acc[c as usize] += xij * s;
                    }
                }
            }
        }
        acc
    };
    let out = super::tsmm::sum_partials(run_partitions(&parts, partial), n);
    Matrix::from_vec(n, 1, out)
}

/// Dot product of one row with `v` over four independent accumulators.
/// With `skip_zeros`, zero cells of `row` contribute `+0` whatever `v`
/// holds; the select compiles to a blend, not a branch.
#[inline]
fn row_dot(row: &[f64], v: &[f64], skip_zeros: bool) -> f64 {
    let mut acc = [0.0f64; 4];
    let (rc, vc) = (row.chunks_exact(4), v.chunks_exact(4));
    let (rtail, vtail) = (rc.remainder(), vc.remainder());
    let mut tail = 0.0;
    if skip_zeros {
        let term = |a: f64, b: f64| if a == 0.0 { 0.0 } else { a * b };
        for (r, w) in rc.zip(vc) {
            for k in 0..4 {
                acc[k] += term(r[k], w[k]);
            }
        }
        for (&a, &b) in rtail.iter().zip(vtail) {
            tail += term(a, b);
        }
    } else {
        for (r, w) in rc.zip(vc) {
            for k in 0..4 {
                acc[k] += r[k] * w[k];
            }
        }
        for (&a, &b) in rtail.iter().zip(vtail) {
            tail += a * b;
        }
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{gen, matmult, tsmm};

    /// Zero-skipping reference: `X %*% v` with the general kernels' rule.
    fn reference_mv(x: &Matrix, v: &[f64]) -> Vec<f64> {
        (0..x.rows())
            .map(|i| {
                (0..x.cols())
                    .filter(|&k| x.get(i, k) != 0.0)
                    .map(|k| x.get(i, k) * v[k])
                    .sum()
            })
            .collect()
    }

    fn same(a: &[f64], b: &[f64], tol: f64) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(p, q)| {
                (p.is_nan() && q.is_nan()) || p == q || (p - q).abs() <= tol * (1.0 + q.abs())
            })
    }

    #[test]
    fn dense_mv_matches_reference_for_odd_widths() {
        for cols in [0usize, 1, 3, 4, 5, 7, 64, 67] {
            let x = gen::rand_uniform(37, cols, -1.0, 1.0, 1.0, cols as u64);
            let v = gen::rand_uniform(cols, 1, -1.0, 1.0, 1.0, 99).to_vec();
            let got = dense_mv(&x.to_dense(), &v, 2);
            assert!(same(&got, &reference_mv(&x, &v), 1e-12), "cols={cols}");
        }
    }

    #[test]
    fn zero_cells_ignore_non_finite_vector_entries() {
        let x = Matrix::from_rows(&[&[0.0, 2.0, 0.0], &[1.0, 0.0, 0.0], &[0.0, 0.0, 0.0]]).unwrap();
        let v = [f64::NAN, 3.0, f64::INFINITY];
        let got = dense_mv(&x.to_dense(), &v, 1);
        assert_eq!(got[0], 6.0);
        assert!(got[1].is_nan());
        assert_eq!(got[2], 0.0);
    }

    #[test]
    fn skip_and_plain_loops_agree_bitwise_on_finite_vectors() {
        let x = gen::rand_uniform(50, 13, -1.0, 1.0, 0.5, 3).to_dense();
        let v = gen::rand_uniform(13, 1, -1.0, 1.0, 1.0, 4).to_vec();
        for i in 0..x.rows() {
            let (a, b) = (row_dot(x.row(i), &v, true), row_dot(x.row(i), &v, false));
            assert_eq!(a.to_bits(), b.to_bits(), "row {i}");
        }
    }

    #[test]
    fn dense_mv_is_bitwise_identical_across_thread_counts() {
        let x = gen::rand_uniform(3000, 19, -1.0, 1.0, 1.0, 5).to_dense();
        let v = gen::rand_uniform(19, 1, -1.0, 1.0, 1.0, 6).to_vec();
        let one = dense_mv(&x, &v, 1);
        for threads in [2usize, 4] {
            let got = dense_mv(&x, &v, threads);
            let bits = |r: &[f64]| r.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&one), "threads={threads}");
        }
    }

    #[test]
    fn mmchain_matches_matmul_then_tmv() {
        for sp in [1.0, 0.3, 0.05] {
            let x = gen::rand_uniform(2500, 21, -1.0, 1.0, sp, 7).compact();
            let v = gen::rand_uniform(21, 1, -1.0, 1.0, 1.0, 8);
            let y = gen::rand_uniform(2500, 1, -1.0, 1.0, 1.0, 9);
            let xv = matmult::matmul(&x, &v, 1).unwrap();
            let resid =
                crate::kernels::elementwise::binary_mm(crate::kernels::BinaryOp::Sub, &xv, &y)
                    .unwrap();
            for threads in [1usize, 2, 4] {
                let got = mmchain(&x, &v, None, threads).unwrap();
                let want = tsmm::tmv(&x, &xv, 1).unwrap();
                assert!(
                    got.approx_eq(&want, 1e-9),
                    "sparsity={sp} threads={threads}"
                );
                let got = mmchain(&x, &v, Some(&y), threads).unwrap();
                let want = tsmm::tmv(&x, &resid, 1).unwrap();
                assert!(
                    got.approx_eq(&want, 1e-9),
                    "sparsity={sp} threads={threads} (y)"
                );
            }
        }
    }

    #[test]
    fn mmchain_non_finite_rows_follow_tmv() {
        // Row 0 has a zero cell facing Inf in v: x·v skips it, s = 2.
        // Row 1 hits Inf in v, so s = Inf and its zero cell yields NaN.
        let x = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let v = Matrix::from_vec(2, 1, vec![f64::INFINITY, 2.0]).unwrap();
        let got = mmchain(&x, &v, None, 1).unwrap().to_vec();
        assert!(got[0].is_infinite());
        assert!(got[1].is_nan());
        let xv = matmult::matmul(&x, &v, 1).unwrap();
        let want = tsmm::tmv(&x, &xv, 1).unwrap().to_vec();
        assert!(same(&got, &want, 0.0));
    }

    #[test]
    fn mmchain_empty_and_shape_errors() {
        let x = Matrix::zeros(0, 3);
        let v = Matrix::filled(3, 1, 1.0);
        assert_eq!(mmchain(&x, &v, None, 2).unwrap().to_vec(), vec![0.0; 3]);
        assert!(mmchain(&x, &Matrix::zeros(2, 1), None, 1).is_err());
        assert!(mmchain(&x, &Matrix::zeros(3, 2), None, 1).is_err());
        let x = Matrix::zeros(4, 3);
        assert!(mmchain(&x, &v, Some(&Matrix::zeros(3, 1)), 1).is_err());
    }
}
