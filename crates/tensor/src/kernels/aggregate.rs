//! Full, row-wise, and column-wise aggregations, plus cumulative ops.
//!
//! Sum, sumSq, mean, min and max run as one-node templates on the fused
//! evaluator ([`super::fused`]), which counts the structural zeros of
//! sparse inputs. Full-matrix sums use Kahan compensation like SystemML's
//! `KahanPlus` aggregation operator, so large reductions stay accurate.
//! Variance and standard deviation keep their own two-pass loops.

use super::fused::{self, FusedInput, FusedOutput, FusedTemplate, TemplateNode};
use crate::matrix::{DenseMatrix, Matrix};
use sysds_common::{Result, SysDsError};

/// Aggregation functions of the DML language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFn {
    Sum,
    Mean,
    Min,
    Max,
    Var,
    Sd,
    /// Sum of squares (used by `lmCG` and norm computations).
    SumSq,
}

impl AggFn {
    /// Every aggregation function once, in declaration order.
    pub const ALL: [AggFn; 7] = [
        AggFn::Sum,
        AggFn::Mean,
        AggFn::Min,
        AggFn::Max,
        AggFn::Var,
        AggFn::Sd,
        AggFn::SumSq,
    ];
}

/// Aggregation direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Collapse everything to a scalar.
    Full,
    /// One result per row (`m x 1`).
    Row,
    /// One result per column (`1 x n`).
    Col,
}

impl Direction {
    /// Every direction once, in declaration order.
    pub const ALL: [Direction; 3] = [Direction::Full, Direction::Row, Direction::Col];
}

/// Kahan-compensated accumulator (shared with the fused kernel).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Kahan {
    pub(crate) sum: f64,
    pub(crate) corr: f64,
}

impl Kahan {
    /// Add `v`. Once the sum is not finite the compensation term would be
    /// `NaN` (`Inf - Inf`), so it is reset and the addition is plain, as in
    /// SystemML's `KahanPlus`: a sum that meets an infinity stays infinite
    /// in any summation order.
    #[inline]
    pub(crate) fn add(&mut self, v: f64) {
        let y = v - self.corr;
        let t = self.sum + y;
        self.corr = if t.is_finite() {
            (t - self.sum) - y
        } else {
            0.0
        };
        self.sum = t;
    }

    /// Fold another partition's partial sum into this accumulator,
    /// preserving that partition's own compensation term.
    #[inline]
    pub(crate) fn merge(&mut self, other: Kahan) {
        self.add(other.sum);
        self.add(-other.corr);
    }
}

/// Full aggregation to a scalar.
pub fn aggregate_full(f: AggFn, m: &Matrix) -> Result<f64> {
    aggregate_full_mt(f, m, 1)
}

/// Full aggregation to a scalar, row-partitioned over `threads`.
/// Per-partition Kahan compensation is preserved and merged, so the result
/// stays within a few ulps of the sequential kernel.
pub fn aggregate_full_mt(f: AggFn, m: &Matrix, threads: usize) -> Result<f64> {
    if matches!(f, AggFn::Var | AggFn::Sd) {
        let var = full_var(m, threads)?;
        return Ok(if f == AggFn::Sd { var.sqrt() } else { var });
    }
    let t = FusedTemplate::single(1, None, Some((f, Direction::Full)));
    eval_full(&t, &[FusedInput::Matrix(m)], threads)
}

/// Evaluate a full-aggregate template to its scalar.
fn eval_full(t: &FusedTemplate, inputs: &[FusedInput], threads: usize) -> Result<f64> {
    match fused::eval(t, inputs, threads)? {
        FusedOutput::Scalar(v) => Ok(v),
        FusedOutput::Matrix(_) => unreachable!("full aggregates yield scalars"),
    }
}

/// Two-pass variance over all cells; unbiased (n-1) like R.
fn full_var(m: &Matrix, threads: usize) -> Result<f64> {
    let cells = m.rows() * m.cols();
    if cells == 0 {
        return Err(SysDsError::runtime("aggregation over empty matrix"));
    }
    if cells < 2 {
        return Ok(0.0);
    }
    let n = cells as f64;
    let mean = aggregate_full_mt(AggFn::Sum, m, threads)? / n;
    let ssd = match m {
        // Structural zeros each deviate by `mean`; only stored cells are
        // visited.
        Matrix::Sparse(s) => {
            let mut acc = Kahan::default();
            for (_, _, v) in s.iter_nonzeros() {
                acc.add((v - mean) * (v - mean));
            }
            acc.add((cells - s.nnz()) as f64 * mean * mean);
            acc.sum
        }
        Matrix::Dense(_) => {
            // sumSq(X - mean), with the mean as the scalar leaf.
            let centred = TemplateNode::Binary(super::BinaryOp::Sub, 0, 1);
            let t = FusedTemplate::single(2, Some(centred), Some((AggFn::SumSq, Direction::Full)));
            eval_full(
                &t,
                &[FusedInput::Matrix(m), FusedInput::Scalar(mean)],
                threads,
            )?
        }
    };
    Ok(ssd / (n - 1.0))
}

/// Row- or column-wise aggregation producing a vector-shaped matrix.
pub fn aggregate_axis(f: AggFn, dir: Direction, m: &Matrix) -> Result<Matrix> {
    aggregate_axis_mt(f, dir, m, 1)
}

/// Row- or column-wise aggregation, row-partitioned over `threads`. Row
/// results are computed on disjoint row ranges; column results merge
/// per-partition partial vectors.
pub fn aggregate_axis_mt(f: AggFn, dir: Direction, m: &Matrix, threads: usize) -> Result<Matrix> {
    if dir == Direction::Full {
        let v = aggregate_full_mt(f, m, threads)?;
        return Matrix::from_vec(1, 1, vec![v]);
    }
    if matches!(f, AggFn::Var | AggFn::Sd) {
        return axis_var(f, dir, m);
    }
    let t = FusedTemplate::single(1, None, Some((f, dir)));
    match fused::eval(&t, &[FusedInput::Matrix(m)], threads)? {
        FusedOutput::Matrix(out) => Ok(out),
        FusedOutput::Scalar(_) => unreachable!("axis aggregates yield vectors"),
    }
}

/// Row or column variance (or standard deviation), one vector at a time.
fn axis_var(f: AggFn, dir: Direction, m: &Matrix) -> Result<Matrix> {
    let (rows, cols) = m.shape();
    let (count, len) = if dir == Direction::Row {
        if cols == 0 {
            return Err(SysDsError::runtime("row aggregation over zero columns"));
        }
        (rows, cols)
    } else {
        if rows == 0 {
            return Err(SysDsError::runtime("column aggregation over zero rows"));
        }
        (cols, rows)
    };
    let out = (0..count)
        .map(|k| {
            let values: Vec<f64> = (0..len)
                .map(|l| {
                    if dir == Direction::Row {
                        m.get(k, l)
                    } else {
                        m.get(l, k)
                    }
                })
                .collect();
            let var = slice_var(&values);
            if f == AggFn::Sd {
                var.sqrt()
            } else {
                var
            }
        })
        .collect();
    if dir == Direction::Row {
        Matrix::from_vec(rows, 1, out)
    } else {
        Matrix::from_vec(1, cols, out)
    }
}

fn slice_var(values: &[f64]) -> f64 {
    let n = values.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mean = values.iter().sum::<f64>() / n;
    values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0)
}

/// Sum of the main diagonal.
pub fn trace(m: &Matrix) -> Result<f64> {
    if m.rows() != m.cols() {
        return Err(SysDsError::runtime("trace of a non-square matrix"));
    }
    Ok((0..m.rows()).map(|i| m.get(i, i)).sum())
}

/// Per-row index (1-based, like DML) of the maximum value.
pub fn row_index_max(m: &Matrix) -> Matrix {
    let (rows, cols) = m.shape();
    let mut out = Vec::with_capacity(rows);
    for i in 0..rows {
        let mut best = f64::NEG_INFINITY;
        let mut arg = 0usize;
        for j in 0..cols {
            let v = m.get(i, j);
            if v > best {
                best = v;
                arg = j;
            }
        }
        out.push((arg + 1) as f64);
    }
    Matrix::from_vec(rows, 1, out).expect("shape correct by construction")
}

/// Column-wise cumulative sum (`cumsum`), matching DML semantics.
pub fn cumsum(m: &Matrix) -> Matrix {
    let (rows, cols) = m.shape();
    let mut out = DenseMatrix::zeros(rows, cols);
    for j in 0..cols {
        let mut acc = 0.0;
        for i in 0..rows {
            acc += m.get(i, j);
            out.set(i, j, acc);
        }
    }
    Matrix::Dense(out)
}

/// Column-wise cumulative product (`cumprod`).
pub fn cumprod(m: &Matrix) -> Matrix {
    let (rows, cols) = m.shape();
    let mut out = DenseMatrix::zeros(rows, cols);
    for j in 0..cols {
        let mut acc = 1.0;
        for i in 0..rows {
            acc *= m.get(i, j);
            out.set(i, j, acc);
        }
    }
    Matrix::Dense(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::gen;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn full_aggregations() {
        let m = sample();
        assert_eq!(aggregate_full(AggFn::Sum, &m).unwrap(), 21.0);
        assert_eq!(aggregate_full(AggFn::Mean, &m).unwrap(), 3.5);
        assert_eq!(aggregate_full(AggFn::Min, &m).unwrap(), 1.0);
        assert_eq!(aggregate_full(AggFn::Max, &m).unwrap(), 6.0);
        assert_eq!(aggregate_full(AggFn::SumSq, &m).unwrap(), 91.0);
        assert!((aggregate_full(AggFn::Var, &m).unwrap() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn sparse_min_includes_structural_zeros() {
        let m = gen::rand_uniform(10, 10, 1.0, 2.0, 0.1, 31).compact();
        assert!(m.is_sparse());
        // all stored values >= 1.0, but min must be 0.
        assert_eq!(aggregate_full(AggFn::Min, &m).unwrap(), 0.0);
        assert!(aggregate_full(AggFn::Max, &m).unwrap() >= 1.0);
    }

    #[test]
    fn sparse_var_accounts_for_zeros() {
        let m = gen::rand_uniform(30, 30, 1.0, 2.0, 0.1, 32).compact();
        let dense = Matrix::Dense(m.to_dense());
        let sv = aggregate_full(AggFn::Var, &m).unwrap();
        let dv = aggregate_full(AggFn::Var, &dense).unwrap();
        assert!((sv - dv).abs() < 1e-9);
    }

    #[test]
    fn row_and_col_sums() {
        let m = sample();
        let r = aggregate_axis(AggFn::Sum, Direction::Row, &m).unwrap();
        assert!(r.approx_eq(&Matrix::from_vec(2, 1, vec![6.0, 15.0]).unwrap(), 1e-12));
        let c = aggregate_axis(AggFn::Sum, Direction::Col, &m).unwrap();
        assert!(c.approx_eq(&Matrix::from_vec(1, 3, vec![5.0, 7.0, 9.0]).unwrap(), 1e-12));
    }

    #[test]
    fn col_means_on_sparse() {
        let m = gen::rand_uniform(50, 4, 0.0, 1.0, 0.2, 33).compact();
        let got = aggregate_axis(AggFn::Mean, Direction::Col, &m).unwrap();
        let dense = Matrix::Dense(m.to_dense());
        let expect = aggregate_axis(AggFn::Mean, Direction::Col, &dense).unwrap();
        assert!(got.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn row_max_and_min() {
        let m = sample();
        let mx = aggregate_axis(AggFn::Max, Direction::Row, &m).unwrap();
        assert!(mx.approx_eq(&Matrix::from_vec(2, 1, vec![3.0, 6.0]).unwrap(), 1e-12));
        let mn = aggregate_axis(AggFn::Min, Direction::Col, &m).unwrap();
        assert!(mn.approx_eq(&Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]).unwrap(), 1e-12));
    }

    #[test]
    fn full_direction_yields_one_by_one() {
        let m = sample();
        let s = aggregate_axis(AggFn::Sum, Direction::Full, &m).unwrap();
        assert_eq!(s.shape(), (1, 1));
        assert_eq!(s.get(0, 0), 21.0);
    }

    #[test]
    fn trace_square_only() {
        let m = Matrix::from_rows(&[&[1.0, 9.0], &[9.0, 2.0]]).unwrap();
        assert_eq!(trace(&m).unwrap(), 3.0);
        assert!(trace(&sample()).is_err());
    }

    #[test]
    fn row_index_max_is_one_based() {
        let m = Matrix::from_rows(&[&[1.0, 9.0, 3.0], &[7.0, 2.0, 1.0]]).unwrap();
        let idx = row_index_max(&m);
        assert_eq!(idx.to_vec(), vec![2.0, 1.0]);
    }

    #[test]
    fn cumsum_column_wise() {
        let m = sample();
        let c = cumsum(&m);
        assert!(c.approx_eq(
            &Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[5.0, 7.0, 9.0]]).unwrap(),
            1e-12
        ));
    }

    #[test]
    fn cumprod_column_wise() {
        let m = sample();
        let c = cumprod(&m);
        assert!(c.approx_eq(
            &Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 10.0, 18.0]]).unwrap(),
            1e-12
        ));
    }

    #[test]
    fn kahan_sum_is_accurate() {
        // 1 + 1e-16 repeated: naive f64 sum loses the small terms entirely.
        let n = 10_000;
        let mut data = vec![1e-16; n];
        data[0] = 1.0;
        let m = Matrix::from_vec(n, 1, data).unwrap();
        let s = aggregate_full(AggFn::Sum, &m).unwrap();
        let expect = 1.0 + (n as f64 - 1.0) * 1e-16;
        assert!((s - expect).abs() < 1e-18, "got {s}, want {expect}");
    }

    #[test]
    fn parallel_aggregates_match_sequential() {
        // Big enough (> PAR_MIN_CELLS) to take the multi-partition path.
        let m = gen::rand_uniform(400, 100, -3.0, 3.0, 1.0, 40);
        for f in [
            AggFn::Sum,
            AggFn::SumSq,
            AggFn::Mean,
            AggFn::Min,
            AggFn::Max,
            AggFn::Var,
            AggFn::Sd,
        ] {
            let seq = aggregate_full(f, &m).unwrap();
            let par = aggregate_full_mt(f, &m, 4).unwrap();
            assert!((seq - par).abs() < 1e-9, "{f:?}: {seq} vs {par}");
        }
        for dir in [Direction::Row, Direction::Col] {
            for f in [AggFn::Sum, AggFn::Mean, AggFn::SumSq, AggFn::Max] {
                let seq = aggregate_axis(f, dir, &m).unwrap();
                let par = aggregate_axis_mt(f, dir, &m, 4).unwrap();
                assert!(seq.approx_eq(&par, 1e-9), "{f:?} {dir:?}");
            }
        }
    }

    #[test]
    fn parallel_kahan_merge_stays_accurate() {
        let n = 70_000; // > PAR_MIN_CELLS, so the partitioned path engages
        let mut data = vec![1e-16; n];
        data[0] = 1.0;
        let m = Matrix::from_vec(n / 2, 2, data).unwrap();
        let s = aggregate_full_mt(AggFn::Sum, &m, 4).unwrap();
        let expect = 1.0 + (n as f64 - 1.0) * 1e-16;
        assert!((s - expect).abs() < 1e-12, "got {s}, want {expect}");
    }

    #[test]
    fn empty_matrix_sum_is_zero() {
        let m = Matrix::zeros(0, 3);
        assert_eq!(aggregate_full(AggFn::Sum, &m).unwrap(), 0.0);
        assert!(aggregate_full(AggFn::Mean, &m).is_err());
    }
}

/// `quantile(X, p)` over all cells via linear interpolation (R type 7).
pub fn quantile(m: &Matrix, p: f64) -> Result<f64> {
    if !(0.0..=1.0).contains(&p) {
        return Err(SysDsError::runtime("quantile p must be in [0, 1]"));
    }
    let mut v = m.to_dense().into_vec();
    if v.is_empty() {
        return Err(SysDsError::runtime("quantile of an empty matrix"));
    }
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let pos = p * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Ok(if lo == hi {
        v[lo]
    } else {
        v[lo] + (pos - lo as f64) * (v[hi] - v[lo])
    })
}

/// `median(X)` over all cells.
pub fn median(m: &Matrix) -> Result<f64> {
    quantile(m, 0.5)
}

#[cfg(test)]
mod quantile_tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let m = Matrix::from_vec(5, 1, vec![10.0, 20.0, 30.0, 40.0, 50.0]).unwrap();
        assert_eq!(quantile(&m, 0.0).unwrap(), 10.0);
        assert_eq!(quantile(&m, 1.0).unwrap(), 50.0);
        assert_eq!(quantile(&m, 0.5).unwrap(), 30.0);
        assert_eq!(quantile(&m, 0.25).unwrap(), 20.0);
        assert_eq!(quantile(&m, 0.1).unwrap(), 14.0);
    }

    #[test]
    fn median_even_count() {
        let m = Matrix::from_vec(4, 1, vec![1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!(median(&m).unwrap(), 2.5);
    }

    #[test]
    fn quantile_validation() {
        let m = Matrix::from_vec(2, 1, vec![1.0, 2.0]).unwrap();
        assert!(quantile(&m, -0.1).is_err());
        assert!(quantile(&m, 1.1).is_err());
        assert!(quantile(&Matrix::zeros(0, 0), 0.5).is_err());
    }
}
