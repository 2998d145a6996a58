//! Direct linear system solvers: Cholesky, LU with partial pivoting,
//! triangular solves, and matrix inversion.
//!
//! `lmDS` (paper Figure 2) solves the normal equations
//! `(t(X)%*%X + diag(lambda)) beta = t(X)%*%y`; the system matrix is
//! symmetric positive definite, so [`solve`] tries Cholesky first and falls
//! back to pivoted LU for general systems.
//!
//! The Cholesky path works on dense row-major storage, borrowed when the
//! input is dense. Every entry of the factor `L` is an inner product of two
//! contiguous row prefixes of `L`, and forward substitution is one per row
//! of `L`; `dot` sums them in eight independent partial sums, so the loop
//! auto-vectorises and no add waits on the one before it. Backward
//! substitution with `L'` walks the rows of `L` too: once `x[i]` is known,
//! `L[i, ..i] * x[i]` leaves the earlier equations in one contiguous update.
//! Partial sums round differently from one running sum, so results may
//! differ from a sequential loop in the last bits.

use crate::matrix::{DenseMatrix, Matrix};
use std::borrow::Cow;
use sysds_common::{Result, SysDsError};

/// Cholesky factorization `A = L L'` of a symmetric positive-definite
/// matrix; returns the lower-triangular factor.
pub fn cholesky(a: &Matrix) -> Result<Matrix> {
    square_dim(a, "cholesky")?;
    Ok(Matrix::Dense(cholesky_dense(&dense(a))?))
}

/// The lower-triangular `L` with `a = L L'`, row by row.
fn cholesky_dense(a: &DenseMatrix) -> Result<DenseMatrix> {
    let n = a.rows();
    let mut l = DenseMatrix::zeros(n, n);
    let values = l.values_mut();
    for i in 0..n {
        let (done, rest) = values.split_at_mut(i * n);
        let li = &mut rest[..n];
        let ai = a.row(i);
        for j in 0..i {
            let lj = &done[j * n..j * n + j + 1];
            li[j] = (ai[j] - dot(&li[..j], &lj[..j])) / lj[j];
        }
        let s = ai[i] - dot(&li[..i], &li[..i]);
        if s <= 0.0 {
            return Err(SysDsError::Numerical(format!(
                "cholesky: matrix not positive definite (pivot {s:.3e} at {i})"
            )));
        }
        li[i] = s.sqrt();
    }
    Ok(l)
}

/// `a · b` over eight independent partial sums (`a` and `b` have equal
/// lengths).
fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = [0.0f64; 8];
    let (ca, cb) = (a.chunks_exact(8), b.chunks_exact(8));
    let tail: f64 = ca
        .remainder()
        .iter()
        .zip(cb.remainder())
        .map(|(x, y)| x * y)
        .sum();
    for (x, y) in ca.zip(cb) {
        for ((s, &x), &y) in acc.iter_mut().zip(x).zip(y) {
            *s += x * y;
        }
    }
    ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7])) + tail
}

/// `a`'s dense storage: borrowed, or converted from sparse.
fn dense(a: &Matrix) -> Cow<'_, DenseMatrix> {
    match a {
        Matrix::Dense(d) => Cow::Borrowed(d),
        Matrix::Sparse(_) => Cow::Owned(a.to_dense()),
    }
}

/// LU factorization with partial pivoting. Returns `(lu, perm)` where `lu`
/// packs `L` (unit diagonal, below) and `U` (on/above the diagonal), and
/// `perm[i]` is the source row of output row `i`.
pub fn lu(a: &Matrix) -> Result<(DenseMatrix, Vec<usize>)> {
    square_dim(a, "lu")?;
    lu_in_place(a.to_dense())
}

/// [`lu`] of the square `m`, factored in its own storage.
fn lu_in_place(mut m: DenseMatrix) -> Result<(DenseMatrix, Vec<usize>)> {
    let n = m.rows();
    let mut perm: Vec<usize> = (0..n).collect();
    for k in 0..n {
        // Pivot: largest |value| in column k at/below the diagonal.
        let mut p = k;
        let mut best = m.get(k, k).abs();
        for i in (k + 1)..n {
            let v = m.get(i, k).abs();
            if v > best {
                best = v;
                p = i;
            }
        }
        if best == 0.0 {
            return Err(SysDsError::Numerical(format!(
                "lu: singular matrix (column {k})"
            )));
        }
        if p != k {
            perm.swap(p, k);
            for j in 0..n {
                let (a, b) = (m.get(k, j), m.get(p, j));
                m.set(k, j, b);
                m.set(p, j, a);
            }
        }
        let pivot = m.get(k, k);
        for i in (k + 1)..n {
            let factor = m.get(i, k) / pivot;
            m.set(i, k, factor);
            if factor != 0.0 {
                for j in (k + 1)..n {
                    let v = m.get(i, j) - factor * m.get(k, j);
                    m.set(i, j, v);
                }
            }
        }
    }
    Ok((m, perm))
}

/// Solve `A X = B` for possibly multiple right-hand sides. Tries Cholesky
/// when `A` is symmetric, falling back to pivoted LU.
pub fn solve(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    let n = square_dim(a, "solve")?;
    if b.rows() != n {
        return Err(SysDsError::DimensionMismatch {
            op: "solve",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let ad = dense(a);
    if is_symmetric(&ad) {
        if let Ok(l) = cholesky_dense(&ad) {
            return Ok(Matrix::Dense(solve_cholesky(&l, &dense(b))));
        }
    }
    let (lum, perm) = lu_in_place(ad.into_owned())?;
    solve_lu(&lum, &perm, b)
}

/// `X` with `L L' X = B`, one right-hand side at a time.
fn solve_cholesky(l: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    let (n, k) = (b.rows(), b.cols());
    let mut x = DenseMatrix::zeros(n, k);
    let mut y = vec![0.0f64; n];
    for col in 0..k {
        for (i, yi) in y.iter_mut().enumerate() {
            *yi = b.values()[i * k + col];
        }
        // Forward substitution L y = b.
        for i in 0..n {
            let li = l.row(i);
            let s = dot(&li[..i], &y[..i]);
            y[i] = (y[i] - s) / li[i];
        }
        // Backward substitution L' x = y, in place.
        for i in (0..n).rev() {
            let li = l.row(i);
            let (head, tail) = y.split_at_mut(i);
            let xi = tail[0] / li[i];
            tail[0] = xi;
            for (yj, &lij) in head.iter_mut().zip(&li[..i]) {
                *yj -= lij * xi;
            }
        }
        for (i, &yi) in y.iter().enumerate() {
            x.values_mut()[i * k + col] = yi;
        }
    }
    x
}

#[allow(clippy::needless_range_loop)] // i indexes perm and the triangular sweep
fn solve_lu(lum: &DenseMatrix, perm: &[usize], b: &Matrix) -> Result<Matrix> {
    let n = lum.rows();
    let k = b.cols();
    let mut x = DenseMatrix::zeros(n, k);
    for col in 0..k {
        // Apply permutation, then forward substitution (unit L).
        for i in 0..n {
            let mut s = b.get(perm[i], col);
            for j in 0..i {
                s -= lum.get(i, j) * x.get(j, col);
            }
            x.set(i, col, s);
        }
        // Backward substitution with U.
        for i in (0..n).rev() {
            let mut s = x.get(i, col);
            for j in (i + 1)..n {
                s -= lum.get(i, j) * x.get(j, col);
            }
            x.set(i, col, s / lum.get(i, i));
        }
    }
    Ok(Matrix::Dense(x))
}

/// Matrix inverse via LU solve against the identity.
pub fn inverse(a: &Matrix) -> Result<Matrix> {
    let n = square_dim(a, "inv")?;
    solve(a, &Matrix::Dense(Matrix::identity(n).to_dense()))
}

/// Determinant via LU (product of U's diagonal, sign from the permutation).
pub fn det(a: &Matrix) -> Result<f64> {
    let n = square_dim(a, "det")?;
    let (lum, perm) = match lu(a) {
        Ok(x) => x,
        Err(SysDsError::Numerical(_)) => return Ok(0.0),
        Err(e) => return Err(e),
    };
    let mut d = 1.0;
    for i in 0..n {
        d *= lum.get(i, i);
    }
    // Permutation sign: count cycles.
    let mut seen = vec![false; n];
    let mut swaps = 0usize;
    for start in 0..n {
        if seen[start] {
            continue;
        }
        let mut len = 0usize;
        let mut i = start;
        while !seen[i] {
            seen[i] = true;
            i = perm[i];
            len += 1;
        }
        swaps += len - 1;
    }
    Ok(if swaps.is_multiple_of(2) { d } else { -d })
}

fn square_dim(a: &Matrix, op: &'static str) -> Result<usize> {
    if a.rows() != a.cols() {
        Err(SysDsError::runtime(format!(
            "{op} requires a square matrix, got {}x{}",
            a.rows(),
            a.cols()
        )))
    } else {
        Ok(a.rows())
    }
}

fn is_symmetric(a: &DenseMatrix) -> bool {
    let n = a.rows();
    let v = a.values();
    for i in 0..n {
        for j in (i + 1)..n {
            let (aij, aji) = (v[i * n + j], v[j * n + i]);
            if (aij - aji).abs() > 1e-12 * (1.0 + aij.abs()) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{gen, matmult, reorg, tsmm};

    fn spd(n: usize, seed: u64) -> Matrix {
        // X'X + I is symmetric positive definite.
        let x = gen::rand_uniform(n * 3, n, -1.0, 1.0, 1.0, seed);
        let g = tsmm::tsmm(&x, 1, false);
        crate::kernels::elementwise::binary_mm(
            crate::kernels::elementwise::BinaryOp::Add,
            &g,
            &Matrix::Dense(Matrix::identity(n).to_dense()),
        )
        .unwrap()
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = spd(8, 51);
        let l = cholesky(&a).unwrap();
        let lt = reorg::transpose(&l, 1);
        let back = matmult::matmul(&l, &lt, 1, false).unwrap();
        assert!(back.approx_eq(&a, 1e-8));
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(cholesky(&a).is_err());
    }

    #[test]
    fn solve_spd_system() {
        let a = spd(10, 52);
        let x_true = gen::rand_uniform(10, 1, -1.0, 1.0, 1.0, 53);
        let b = matmult::matmul(&a, &x_true, 1, false).unwrap();
        let x = solve(&a, &b).unwrap();
        assert!(x.approx_eq(&x_true, 1e-7));
    }

    #[test]
    fn solve_general_system_with_pivoting() {
        // Requires pivoting: zero on the first diagonal entry.
        let a = Matrix::from_rows(&[&[0.0, 2.0, 1.0], &[1.0, 0.0, 1.0], &[2.0, 1.0, 0.0]]).unwrap();
        let x_true = Matrix::from_vec(3, 1, vec![1.0, -2.0, 3.0]).unwrap();
        let b = matmult::matmul(&a, &x_true, 1, false).unwrap();
        let x = solve(&a, &b).unwrap();
        assert!(x.approx_eq(&x_true, 1e-10));
    }

    #[test]
    fn solve_multiple_rhs() {
        let a = spd(6, 54);
        let xs = gen::rand_uniform(6, 3, -1.0, 1.0, 1.0, 55);
        let b = matmult::matmul(&a, &xs, 1, false).unwrap();
        let x = solve(&a, &b).unwrap();
        assert!(x.approx_eq(&xs, 1e-7));
    }

    #[test]
    fn singular_matrix_reported() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        let b = Matrix::from_vec(2, 1, vec![1.0, 2.0]).unwrap();
        assert!(matches!(solve(&a, &b), Err(SysDsError::Numerical(_))));
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = spd(7, 56);
        let inv = inverse(&a).unwrap();
        let prod = matmult::matmul(&a, &inv, 1, false).unwrap();
        assert!(prod.approx_eq(&Matrix::Dense(Matrix::identity(7).to_dense()), 1e-7));
    }

    #[test]
    fn determinant_values() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 2.0]]).unwrap();
        assert!((det(&a).unwrap() - 6.0).abs() < 1e-12);
        // Pivoted case with a sign flip.
        let b = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        assert!((det(&b).unwrap() + 1.0).abs() < 1e-12);
        // Singular.
        let c = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert_eq!(det(&c).unwrap(), 0.0);
    }

    /// The sequential factor the partial-sum one replaced: one chain of
    /// dependent subtractions per entry.
    fn cholesky_scalar(a: &Matrix) -> Vec<f64> {
        let n = a.rows();
        let mut l = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..=i {
                let mut s = a.get(i, j);
                for k in 0..j {
                    s -= l[i * n + k] * l[j * n + k];
                }
                l[i * n + j] = if i == j { s.sqrt() } else { s / l[j * n + j] };
            }
        }
        l
    }

    #[test]
    fn cholesky_matches_scalar_reference() {
        for (n, seed) in [
            (1, 60),
            (2, 61),
            (7, 62),
            (8, 63),
            (9, 64),
            (63, 65),
            (250, 66),
        ] {
            let a = spd(n, seed);
            let reference = cholesky_scalar(&a);
            let l = cholesky(&a).unwrap().to_dense();
            let scale = reference.iter().fold(0.0f64, |m, r| m.max(r.abs()));
            let err = l
                .values()
                .iter()
                .zip(&reference)
                .fold(0.0f64, |m, (v, r)| m.max((v - r).abs()));
            assert!(
                err <= 1e-12 * scale,
                "n = {n}: error {err:e}, scale {scale:e}"
            );
        }
    }

    #[test]
    fn indefinite_symmetric_systems_fall_back_to_lu() {
        let small = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        let mut large = spd(9, 67);
        large.set(0, 0, -1.0); // still symmetric, no longer definite
        for a in [small, large] {
            assert!(is_symmetric(&a.to_dense()) && cholesky(&a).is_err());
            let x_true = gen::rand_uniform(a.rows(), 2, -1.0, 1.0, 1.0, 68);
            let b = matmult::matmul(&a, &x_true, 1, false).unwrap();
            assert!(solve(&a, &b).unwrap().approx_eq(&x_true, 1e-9));
        }
    }

    #[test]
    fn sparse_system_takes_the_cholesky_path() {
        let eye = Matrix::identity(12);
        assert!(eye.is_sparse());
        let b = gen::rand_uniform(12, 3, -1.0, 1.0, 1.0, 69);
        assert_eq!(solve(&eye, &b).unwrap().to_dense(), b.to_dense());
    }

    #[test]
    fn shape_checks() {
        let rect = Matrix::zeros(2, 3);
        assert!(cholesky(&rect).is_err());
        assert!(solve(&rect, &Matrix::zeros(2, 1)).is_err());
        let a = spd(3, 57);
        assert!(solve(&a, &Matrix::zeros(4, 1)).is_err());
    }
}

/// Symmetric eigendecomposition via the cyclic Jacobi method. Returns
/// `(values, vectors)` with eigenvalues ascending and eigenvectors in the
/// corresponding columns (`A = V diag(w) t(V)`).
pub fn eigen_symmetric(a: &Matrix) -> Result<(Matrix, Matrix)> {
    let n = square_dim(a, "eigen")?;
    let mut m = a.to_dense();
    if !is_symmetric(&m) {
        return Err(SysDsError::Numerical(
            "eigen requires a symmetric matrix".into(),
        ));
    }
    let mut v = Matrix::identity(n).to_dense();
    let max_sweeps = 64;
    for _sweep in 0..max_sweeps {
        // Off-diagonal Frobenius norm.
        let mut off = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                off += 2.0 * m.get(i, j) * m.get(i, j);
            }
        }
        if off.sqrt() < 1e-12 {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m.get(p, q);
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = m.get(p, p);
                let aqq = m.get(q, q);
                // Stable rotation angle.
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Apply rotation to rows/columns p and q.
                for k in 0..n {
                    let mkp = m.get(k, p);
                    let mkq = m.get(k, q);
                    m.set(k, p, c * mkp - s * mkq);
                    m.set(k, q, s * mkp + c * mkq);
                }
                for k in 0..n {
                    let mpk = m.get(p, k);
                    let mqk = m.get(q, k);
                    m.set(p, k, c * mpk - s * mqk);
                    m.set(q, k, s * mpk + c * mqk);
                }
                for k in 0..n {
                    let vkp = v.get(k, p);
                    let vkq = v.get(k, q);
                    v.set(k, p, c * vkp - s * vkq);
                    v.set(k, q, s * vkp + c * vkq);
                }
            }
        }
    }
    // Sort eigenpairs ascending by eigenvalue.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| m.get(i, i).partial_cmp(&m.get(j, j)).unwrap());
    let mut values = DenseMatrix::zeros(n, 1);
    let mut vectors = DenseMatrix::zeros(n, n);
    for (dst, &src) in order.iter().enumerate() {
        values.set(dst, 0, m.get(src, src));
        for k in 0..n {
            vectors.set(k, dst, v.get(k, src));
        }
    }
    Ok((Matrix::Dense(values), Matrix::Dense(vectors)))
}

#[cfg(test)]
mod eigen_tests {
    use super::*;
    use crate::kernels::BinaryOp;
    use crate::kernels::{elementwise, gen, matmult, reorg, tsmm};

    #[test]
    fn eigen_reconstructs_symmetric_matrix() {
        let x = gen::rand_uniform(20, 6, -1.0, 1.0, 1.0, 71);
        let a = tsmm::tsmm(&x, 1, false); // symmetric PSD
        let (w, v) = eigen_symmetric(&a).unwrap();
        // A ≈ V diag(w) V'
        let d = reorg::diag(&w).unwrap();
        let vd = matmult::matmul(&v, &d, 1, false).unwrap();
        let back = matmult::matmul(&vd, &reorg::transpose(&v, 1), 1, false).unwrap();
        assert!(back.approx_eq(&a, 1e-8));
    }

    #[test]
    fn eigenvalues_sorted_and_orthonormal_vectors() {
        let x = gen::rand_uniform(30, 5, -1.0, 1.0, 1.0, 72);
        let a = tsmm::tsmm(&x, 1, false);
        let (w, v) = eigen_symmetric(&a).unwrap();
        for i in 1..5 {
            assert!(w.get(i - 1, 0) <= w.get(i, 0) + 1e-12, "ascending");
        }
        let vtv = matmult::matmul(&reorg::transpose(&v, 1), &v, 1, false).unwrap();
        assert!(vtv.approx_eq(&Matrix::Dense(Matrix::identity(5).to_dense()), 1e-8));
    }

    #[test]
    fn eigen_known_values() {
        // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        let (w, _) = eigen_symmetric(&a).unwrap();
        assert!((w.get(0, 0) - 1.0).abs() < 1e-10);
        assert!((w.get(1, 0) - 3.0).abs() < 1e-10);
    }

    #[test]
    fn eigen_rejects_nonsymmetric_and_rectangular() {
        assert!(eigen_symmetric(&Matrix::zeros(2, 3)).is_err());
        let ns = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]).unwrap();
        assert!(eigen_symmetric(&ns).is_err());
    }

    #[test]
    fn eigen_agrees_with_trace_and_det() {
        let x = gen::rand_uniform(12, 4, -1.0, 1.0, 1.0, 73);
        let g = tsmm::tsmm(&x, 1, false);
        let a = elementwise::binary_mm(
            BinaryOp::Add,
            &g,
            &Matrix::Dense(Matrix::identity(4).to_dense()),
        )
        .unwrap();
        let (w, _) = eigen_symmetric(&a).unwrap();
        let sum_w: f64 = w.to_vec().iter().sum();
        let prod_w: f64 = w.to_vec().iter().product();
        assert!((sum_w - crate::kernels::aggregate::trace(&a).unwrap()).abs() < 1e-8);
        assert!((prod_w - det(&a).unwrap()).abs() < 1e-6 * prod_w.abs());
    }
}
