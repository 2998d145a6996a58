//! Data generators: `rand`, `seq`, and multi-threaded synthetic data.
//!
//! All generators take explicit seeds (recorded in lineage, §3.1) and use
//! per-thread split streams so multi-threaded generation is reproducible
//! regardless of scheduling.

use crate::matrix::{DenseMatrix, Matrix, SparseMatrix};
use sysds_common::rng::{split, XorShift64};
use sysds_common::{Result, SysDsError};

/// `rand(rows, cols, min, max, sparsity, seed)` with a uniform PDF.
/// Sparsity selects the expected fraction of non-zero cells.
pub fn rand_uniform(
    rows: usize,
    cols: usize,
    min: f64,
    max: f64,
    sparsity: f64,
    seed: u64,
) -> Matrix {
    gen_with(rows, cols, sparsity, seed, move |r| r.next_range(min, max))
}

/// `rand(..., pdf="normal")`: standard-normal cells (scaled by callers).
pub fn rand_normal(rows: usize, cols: usize, sparsity: f64, seed: u64) -> Matrix {
    gen_with(rows, cols, sparsity, seed, |r| r.next_gaussian())
}

fn gen_with(
    rows: usize,
    cols: usize,
    sparsity: f64,
    seed: u64,
    f: impl Fn(&mut XorShift64) -> f64,
) -> Matrix {
    let sparsity = sparsity.clamp(0.0, 1.0);
    if sparsity >= 1.0 {
        let mut out = DenseMatrix::zeros(rows, cols);
        // One split stream per row keeps generation order-independent.
        for i in 0..rows {
            let mut r = XorShift64::new(split(seed, i as u64));
            for cell in out.row_mut(i) {
                *cell = f(&mut r);
            }
        }
        return Matrix::Dense(out);
    }
    // Sparse: per-row Bernoulli selection, then values.
    let mut triples = Vec::with_capacity((rows as f64 * cols as f64 * sparsity) as usize + 16);
    for i in 0..rows {
        let mut r = XorShift64::new(split(seed, i as u64));
        for j in 0..cols {
            if r.next_f64() < sparsity {
                let v = f(&mut r);
                triples.push((i, j, v));
            }
        }
    }
    Matrix::Sparse(SparseMatrix::from_triples(rows, cols, triples)).compact()
}

/// `seq(from, to, by)` as a column vector (inclusive bounds, like DML).
pub fn seq(from: f64, to: f64, by: f64) -> Result<Matrix> {
    let n = seq_len(from, to, by)?;
    let data: Vec<f64> = (0..n).map(|k| from + k as f64 * by).collect();
    Matrix::from_vec(n, 1, data)
}

/// Number of rows of `seq(from, to, by)`.
pub fn seq_len(from: f64, to: f64, by: f64) -> Result<usize> {
    if by == 0.0 {
        return Err(SysDsError::runtime("seq increment must be non-zero"));
    }
    if (to - from) * by < 0.0 {
        return Ok(0);
    }
    Ok(((to - from) / by).floor() as usize + 1)
}

/// A linear-regression style synthetic dataset: `X` with given sparsity,
/// `y = X w + noise` for a random weight vector. Mirrors the paper's §4.1
/// synthetic data generation for the hyper-parameter workload.
pub fn synthetic_regression(
    rows: usize,
    cols: usize,
    sparsity: f64,
    noise: f64,
    seed: u64,
) -> (Matrix, Matrix) {
    let x = rand_uniform(rows, cols, 0.0, 1.0, sparsity, seed);
    let w = rand_uniform(cols, 1, -1.0, 1.0, 1.0, split(seed, 0xBEEF));
    let mut y = crate::kernels::matmult::matmul(&x, &w, 1).expect("shapes agree");
    if noise > 0.0 {
        let mut r = XorShift64::new(split(seed, 0xF00D));
        let yd = y.to_dense();
        let data = yd
            .values()
            .iter()
            .map(|&v| v + noise * r.next_gaussian())
            .collect();
        y = Matrix::Dense(DenseMatrix::from_vec(rows, 1, data));
    }
    (x, y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rand_uniform_respects_bounds() {
        let m = rand_uniform(20, 20, -2.0, 3.0, 1.0, 71);
        for (_, _, v) in m.iter_nonzeros() {
            assert!((-2.0..3.0).contains(&v));
        }
        assert_eq!(m.nnz(), 400); // fully dense with min>... actually range crosses 0
    }

    #[test]
    fn rand_is_deterministic_per_seed() {
        let a = rand_uniform(10, 10, 0.0, 1.0, 0.5, 72);
        let b = rand_uniform(10, 10, 0.0, 1.0, 0.5, 72);
        assert!(a.approx_eq(&b, 0.0));
        let c = rand_uniform(10, 10, 0.0, 1.0, 0.5, 73);
        assert!(!a.approx_eq(&c, 0.0));
    }

    #[test]
    fn sparsity_close_to_requested() {
        let m = rand_uniform(200, 200, 1.0, 2.0, 0.1, 74);
        let sp = m.sparsity();
        assert!((sp - 0.1).abs() < 0.02, "sparsity {sp}");
        assert!(m.is_sparse());
    }

    #[test]
    fn normal_moments() {
        let m = rand_normal(100, 100, 1.0, 75);
        let mean =
            crate::kernels::aggregate::aggregate_full(crate::kernels::aggregate::AggFn::Mean, &m)
                .unwrap();
        let sd =
            crate::kernels::aggregate::aggregate_full(crate::kernels::aggregate::AggFn::Sd, &m)
                .unwrap();
        assert!(mean.abs() < 0.05);
        assert!((sd - 1.0).abs() < 0.05);
    }

    #[test]
    fn seq_inclusive() {
        assert_eq!(
            seq(1.0, 5.0, 1.0).unwrap().to_vec(),
            vec![1.0, 2.0, 3.0, 4.0, 5.0]
        );
        assert_eq!(seq(5.0, 1.0, -2.0).unwrap().to_vec(), vec![5.0, 3.0, 1.0]);
        assert_eq!(seq(1.0, 1.0, 1.0).unwrap().to_vec(), vec![1.0]);
        assert_eq!(seq(2.0, 1.0, 1.0).unwrap().rows(), 0);
        assert!(seq(1.0, 2.0, 0.0).is_err());
    }

    #[test]
    fn synthetic_regression_is_learnable() {
        let (x, y) = synthetic_regression(50, 3, 1.0, 0.0, 76);
        assert_eq!(x.shape(), (50, 3));
        assert_eq!(y.shape(), (50, 1));
        // Zero noise: y must lie exactly in the column space of X.
        let g = crate::kernels::tsmm::tsmm(&x, 1, false);
        let b = crate::kernels::tsmm::tmv(&x, &y, 1).unwrap();
        let w = crate::kernels::solve::solve(&g, &b).unwrap();
        let yhat = crate::kernels::matmult::matmul(&x, &w, 1).unwrap();
        assert!(yhat.approx_eq(&y, 1e-6));
    }

    #[test]
    fn zero_sparsity_yields_empty() {
        let m = rand_uniform(10, 10, 0.0, 1.0, 0.0, 77);
        assert_eq!(m.nnz(), 0);
    }
}

/// `table(v1, v2)` — contingency table: output cell `(i, j)` counts rows
/// where `v1 = i+1` and `v2 = j+1` (1-based category codes, like DML).
pub fn table(v1: &Matrix, v2: &Matrix) -> Result<Matrix> {
    if v1.cols() != 1 || v2.cols() != 1 || v1.rows() != v2.rows() {
        return Err(SysDsError::DimensionMismatch {
            op: "table",
            lhs: v1.shape(),
            rhs: v2.shape(),
        });
    }
    let mut triples: Vec<(usize, usize, f64)> = Vec::with_capacity(v1.rows());
    let mut max_i = 0usize;
    let mut max_j = 0usize;
    for r in 0..v1.rows() {
        let (a, b) = (v1.get(r, 0), v2.get(r, 0));
        if a < 1.0 || b < 1.0 || a.fract() != 0.0 || b.fract() != 0.0 {
            return Err(SysDsError::runtime(format!(
                "table expects positive integer codes, got ({a}, {b}) at row {}",
                r + 1
            )));
        }
        let (i, j) = (a as usize - 1, b as usize - 1);
        max_i = max_i.max(i + 1);
        max_j = max_j.max(j + 1);
        triples.push((i, j, 1.0));
    }
    Ok(Matrix::Sparse(crate::matrix::SparseMatrix::from_triples(
        max_i, max_j, triples,
    ))
    .compact())
}

/// `outer(v1, v2, op)` — apply `op` to every pair `(v1[i], v2[j])`.
pub fn outer(v1: &Matrix, v2: &Matrix, op: crate::kernels::BinaryOp) -> Result<Matrix> {
    if v1.cols() != 1 || v2.rows() != 1 {
        return Err(SysDsError::runtime(
            "outer expects a column vector and a row vector",
        ));
    }
    let (m, n) = (v1.rows(), v2.cols());
    let mut out = DenseMatrix::zeros(m, n);
    for i in 0..m {
        let a = v1.get(i, 0);
        for j in 0..n {
            out.set(i, j, op.apply(a, v2.get(0, j)));
        }
    }
    Ok(Matrix::Dense(out).compact())
}

#[cfg(test)]
mod table_outer_tests {
    use super::*;
    use crate::kernels::BinaryOp;

    #[test]
    fn table_counts_pairs() {
        let v1 = Matrix::from_vec(5, 1, vec![1.0, 2.0, 1.0, 3.0, 1.0]).unwrap();
        let v2 = Matrix::from_vec(5, 1, vec![2.0, 1.0, 2.0, 1.0, 1.0]).unwrap();
        let t = table(&v1, &v2).unwrap();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(0, 1), 2.0); // (1,2) twice
        assert_eq!(t.get(0, 0), 1.0); // (1,1) once
        assert_eq!(t.get(1, 0), 1.0);
        assert_eq!(t.get(2, 0), 1.0);
    }

    #[test]
    fn table_validates_codes() {
        let bad = Matrix::from_vec(1, 1, vec![0.0]).unwrap();
        let ok = Matrix::from_vec(1, 1, vec![1.0]).unwrap();
        assert!(table(&bad, &ok).is_err());
        let frac = Matrix::from_vec(1, 1, vec![1.5]).unwrap();
        assert!(table(&frac, &ok).is_err());
        assert!(table(&ok, &Matrix::zeros(2, 1)).is_err());
    }

    #[test]
    fn outer_products_and_comparisons() {
        let a = Matrix::from_vec(3, 1, vec![1.0, 2.0, 3.0]).unwrap();
        let b = Matrix::from_vec(1, 2, vec![10.0, 20.0]).unwrap();
        let p = outer(&a, &b, BinaryOp::Mul).unwrap();
        assert_eq!(p.shape(), (3, 2));
        assert_eq!(p.get(2, 1), 60.0);
        let lt = outer(&a, &b, BinaryOp::Lt).unwrap();
        assert_eq!(lt.get(0, 0), 1.0);
        assert!(outer(&b, &b, BinaryOp::Mul).is_err());
    }
}
