//! Fused transpose-self matrix multiply: `t(X) %*% X` and `t(X) %*% y`.
//!
//! These are the dominant operations of the paper's `lmDS` workload
//! (§4.2: "The main computation of lmDS is X>X and X>y"). The fusion
//! matters twice:
//!
//! * **dense**: `t(X) %*% X` is symmetric, so only the upper triangle is
//!   computed and mirrored — about half the FLOPs of a general matmul
//!   (this is the "fused API call" the authors had to hand-write for TF);
//! * **sparse**: the transpose is never materialized — each CSR row `x_i`
//!   contributes the outer product `x_i' x_i`, which is exactly why SysDS
//!   "largely outperforms Julia and TF on sparse data" in Figure 5(b).
//!
//! Dense `t(X) %*% X` runs the kernel of the process's dense-kernel tier
//! ([`super::kernel_tier`]): the register-tiled `avx512f` or `avx2,fma`
//! kernel of [`super::gram`] when every cell of `X` is finite, and
//! otherwise the blocked loop, which sums 8 input rows per sweep over the
//! accumulator. The blocked loop is also the whole tier on hosts without
//! AVX2+FMA and on non-x86-64 targets. The portable row-at-a-time loop
//! stays only as the portable tier that the §4.2 kernel ablation
//! (`ablation_kernels`, `gram_tsmm_dense` vs `gram_tsmm_dense_blas`)
//! measures. The loops skip zero cells of `X`; the tiled kernels multiply
//! them, which adds `+0.0` for finite cells. So all agree on which cells
//! are `NaN` and differ on finite cells only by summation order and, on
//! the tiled kernels, by fused multiply-add rounding. Each kernel sums
//! partitions in a fixed order, so one host and thread count give one
//! result.

use super::gram::{self, KernelTier};
use super::{kernel_tier, par_row_partitions, run_partitions};
use crate::matrix::{DenseMatrix, Matrix, SparseMatrix};
use std::sync::atomic::AtomicBool;
use sysds_common::{Result, SysDsError};

/// `t(X) %*% X` (a `cols x cols` symmetric matrix). For dense `X`,
/// `blas` picks the kernel of the process's dense-kernel tier; `false`
/// picks the portable loop, which only the §4.2 kernel ablation and the
/// benchmark harness ask for.
pub fn tsmm(x: &Matrix, threads: usize, blas: bool) -> Matrix {
    match x {
        Matrix::Dense(d) if blas => Matrix::Dense(tsmm_dense_on(d, threads, kernel_tier())),
        Matrix::Dense(d) => Matrix::Dense(tsmm_dense_loop(d, threads, tsmm_rows_naive)),
        Matrix::Sparse(s) => tsmm_sparse(s, threads),
    }
}

/// Dense `t(X) %*% X` on `tier`: its tiled kernel when every cell of `x`
/// is finite, else the blocked loop.
pub(crate) fn tsmm_dense_on(x: &DenseMatrix, threads: usize, tier: KernelTier) -> DenseMatrix {
    if tier != KernelTier::Blocked {
        let n = x.cols();
        let parts = par_row_partitions(x.rows(), n * (n + 1) / 2, threads);
        let stop = AtomicBool::new(false);
        let partials = run_partitions(&parts, |lo, hi| gram::upper_gram(tier, x, lo, hi, &stop));
        if let Some(partials) = partials.into_iter().collect() {
            return DenseMatrix::from_vec(n, n, symmetric_sum(partials, n));
        }
    }
    tsmm_dense_loop(x, threads, tsmm_rows_blocked)
}

/// Dense `t(X) %*% X` with `rows` accumulating each row partition's upper
/// triangle into a private `n x n` buffer. For tall-skinny X (the lmDS
/// shape) the private buffers are tiny relative to X.
fn tsmm_dense_loop(
    x: &DenseMatrix,
    threads: usize,
    rows: fn(&DenseMatrix, &mut [f64], usize, usize),
) -> DenseMatrix {
    let n = x.cols();
    let parts = par_row_partitions(x.rows(), n * (n + 1) / 2, threads);
    let partials = run_partitions(&parts, |lo, hi| {
        let mut acc = vec![0.0f64; n * n];
        rows(x, &mut acc, lo, hi);
        acc
    });
    DenseMatrix::from_vec(n, n, symmetric_sum(partials, n))
}

/// Element-wise sum of per-partition partial results, in partition order
/// (`len` zeros when there are none).
pub(super) fn sum_partials(partials: Vec<Vec<f64>>, len: usize) -> Vec<f64> {
    let mut partials = partials.into_iter();
    let mut out = partials.next().unwrap_or_else(|| vec![0.0; len]);
    for p in partials {
        for (o, v) in out.iter_mut().zip(&p) {
            *o += *v;
        }
    }
    out
}

/// Sum per-partition upper triangles of an `n x n` Gram matrix and mirror
/// the result into the lower triangle.
fn symmetric_sum(partials: Vec<Vec<f64>>, n: usize) -> Vec<f64> {
    let mut out = sum_partials(partials, n * n);
    for i in 0..n {
        for j in (i + 1)..n {
            out[j * n + i] = out[i * n + j];
        }
    }
    out
}

/// Upper-triangle accumulation, row-at-a-time outer products.
fn tsmm_rows_naive(x: &DenseMatrix, acc: &mut [f64], lo: usize, hi: usize) {
    let n = x.cols();
    for r in lo..hi {
        let row = x.row(r);
        for i in 0..n {
            let vi = row[i];
            if vi == 0.0 {
                continue;
            }
            let dst = &mut acc[i * n..(i + 1) * n];
            for j in i..n {
                dst[j] += vi * row[j];
            }
        }
    }
}

/// Blocked variant: processes 8 input rows per sweep to increase register
/// reuse of the accumulator lines. A row whose value in column `i` is zero
/// is pointed at a shared all-zero row for that column, so it adds nothing
/// even where it holds `NaN` or `Inf`, and the 8-term update stays
/// branch-free.
fn tsmm_rows_blocked(x: &DenseMatrix, acc: &mut [f64], lo: usize, hi: usize) {
    let n = x.cols();
    let zeros = vec![0.0f64; n];
    let mut r = lo;
    while r + 8 <= hi {
        let rows: [&[f64]; 8] = std::array::from_fn(|t| x.row(r + t));
        for i in 0..n {
            let v = rows.map(|row| row[i]);
            if v.iter().all(|&vt| vt == 0.0) {
                continue;
            }
            let [r0, r1, r2, r3, r4, r5, r6, r7] =
                std::array::from_fn(|t| if v[t] == 0.0 { &zeros[..] } else { rows[t] });
            let [v0, v1, v2, v3, v4, v5, v6, v7] = v;
            let dst = &mut acc[i * n..(i + 1) * n];
            for j in i..n {
                dst[j] += v0 * r0[j]
                    + v1 * r1[j]
                    + v2 * r2[j]
                    + v3 * r3[j]
                    + v4 * r4[j]
                    + v5 * r5[j]
                    + v6 * r6[j]
                    + v7 * r7[j];
            }
        }
        r += 8;
    }
    if r < hi {
        tsmm_rows_naive(x, acc, r, hi);
    }
}

/// Sparse `t(X) %*% X` without materializing the transpose: sum of sparse
/// row outer products. Output is dense `n x n` (Gram matrices of sparse
/// data are usually dense).
fn tsmm_sparse(s: &SparseMatrix, threads: usize) -> Matrix {
    let n = s.cols();
    let avg_row = s.nnz().div_ceil(s.rows().max(1));
    let parts = par_row_partitions(s.rows(), avg_row * avg_row / 2 + 1, threads);
    let partials = run_partitions(&parts, |lo, hi| {
        let mut acc = vec![0.0f64; n * n];
        for r in lo..hi {
            let (cols, vals) = s.row(r);
            for (a, &ci) in cols.iter().enumerate() {
                let vi = vals[a];
                let dst = &mut acc[ci as usize * n..(ci as usize + 1) * n];
                for (b, &cj) in cols.iter().enumerate().skip(a) {
                    dst[cj as usize] += vi * vals[b];
                }
            }
        }
        acc
    });
    let out = symmetric_sum(partials, n);
    Matrix::Dense(DenseMatrix::from_vec(n, n, out)).compact()
}

/// Fused `t(X) %*% y` for an `m x 1` vector `y`; never materializes `t(X)`.
#[allow(clippy::needless_range_loop)] // r indexes both X rows and y
pub fn tmv(x: &Matrix, y: &Matrix, threads: usize) -> Result<Matrix> {
    if y.cols() != 1 || x.rows() != y.rows() {
        return Err(SysDsError::DimensionMismatch {
            op: "t(X)%*%y",
            lhs: x.shape(),
            rhs: y.shape(),
        });
    }
    let n = x.cols();
    let yv = y.to_vec();
    let parts = par_row_partitions(x.rows(), n, threads);
    let partials = run_partitions(&parts, |lo, hi| {
        let mut acc = vec![0.0f64; n];
        match x {
            Matrix::Dense(d) => {
                for r in lo..hi {
                    let yr = yv[r];
                    if yr == 0.0 {
                        continue;
                    }
                    for (j, &v) in d.row(r).iter().enumerate() {
                        acc[j] += v * yr;
                    }
                }
            }
            Matrix::Sparse(s) => {
                for r in lo..hi {
                    let yr = yv[r];
                    if yr == 0.0 {
                        continue;
                    }
                    let (cols, vals) = s.row(r);
                    for (&c, &v) in cols.iter().zip(vals) {
                        acc[c as usize] += v * yr;
                    }
                }
            }
        }
        acc
    });
    Matrix::from_vec(n, 1, sum_partials(partials, n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{gen, matmult, reorg};

    fn reference_tsmm(x: &Matrix) -> Matrix {
        let xt = reorg::transpose(x, 1);
        matmult::matmul(&xt, x, 1).unwrap()
    }

    #[test]
    fn dense_tsmm_matches_explicit() {
        let x = gen::rand_uniform(33, 9, -1.0, 1.0, 1.0, 11);
        for threads in [1usize, 4] {
            for blas in [false, true] {
                let got = tsmm(&x, threads, blas);
                assert!(
                    got.approx_eq(&reference_tsmm(&x), 1e-9),
                    "threads={threads} blas={blas}"
                );
            }
        }
    }

    #[test]
    fn zero_cells_in_a_partly_zero_sweep_are_skipped() {
        // Row 0 is [0, NaN]: its zero in column 0 must not meet the NaN,
        // although the other 7 rows of its sweep are non-zero there.
        let mut rows = vec![vec![0.0, f64::NAN]];
        rows.extend((1..9).map(|r| vec![1.0, r as f64]));
        let rows: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        for blas in [false, true] {
            let g = tsmm(&x, 1, blas);
            assert_eq!((g.get(0, 0), g.get(0, 1)), (8.0, 36.0), "blas={blas}");
            assert!(g.get(1, 1).is_nan(), "blas={blas}");
        }
    }

    /// The tiers this host can run besides the blocked loop.
    fn tiled_tiers() -> Vec<KernelTier> {
        KernelTier::ALL
            .into_iter()
            .filter(|t| *t != KernelTier::Blocked && t.is_supported())
            .collect()
    }

    #[test]
    fn tiled_tiers_match_the_blocked_loop_on_every_edge_shape() {
        // Rows around one sweep (8) and one k-block (128); widths around the
        // panel widths (8, 16) and the workload widths (64, 250, 256). Odd
        // widths hold zero cells, which the blocked loop skips and the tiled
        // kernels multiply. Debug builds skip the 20000-row inputs wider than
        // 17; release builds run all.
        let rows = [0usize, 1, 7, 8, 9, 127, 129, 20_000];
        let cols = [1usize, 3, 15, 16, 17, 33, 64, 250, 256];
        for tier in tiled_tiers() {
            for (&m, &n) in rows.iter().flat_map(|m| cols.iter().map(move |n| (m, n))) {
                if cfg!(debug_assertions) && m * n > 20_000 * 17 {
                    continue;
                }
                let sparsity = if n % 2 == 1 { 0.6 } else { 1.0 };
                let x = gen::rand_uniform(m, n, -1.0, 1.0, sparsity, (m * 1000 + n) as u64);
                let d = &DenseMatrix::from_vec(m, n, x.to_vec());
                for threads in [1usize, 2, 4] {
                    let want = tsmm_dense_on(d, threads, KernelTier::Blocked);
                    let got = tsmm_dense_on(d, threads, tier);
                    for i in 0..n {
                        for j in 0..n {
                            let (g, w) = (got.get(i, j), want.get(i, j));
                            // sqrt(G_ii G_jj) bounds the sum of |x_ki x_kj|.
                            let scale = (want.get(i, i) * want.get(j, j)).sqrt();
                            assert!(
                                (g - w).abs() <= 1e-12 * scale,
                                "{tier} {m}x{n} threads={threads} ({i},{j}): {g} vs {w}"
                            );
                            assert_eq!(g.to_bits(), got.get(j, i).to_bits());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn non_finite_cells_run_the_blocked_loop_bit_for_bit() {
        // Row 0 holds [0, NaN]: its zero cell meets the NaN of its own row.
        // The other poisoned inputs put Inf, -Inf and NaN in the last
        // k-block of one partition, so the other partitions run to the end.
        let mut base = gen::rand_uniform(300, 20, -1.0, 1.0, 0.7, 21).to_vec();
        base[0] = 0.0;
        base[1] = f64::NAN;
        let mut specials = base.clone();
        specials[299 * 20 + 5] = f64::INFINITY;
        specials[290 * 20 + 7] = f64::NEG_INFINITY;
        specials[150 * 20 + 19] = f64::NAN;
        for v in [base, specials] {
            let d = DenseMatrix::from_vec(300, 20, v);
            for tier in tiled_tiers() {
                for threads in [1usize, 2, 4] {
                    let bits = |g: DenseMatrix| {
                        g.into_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                    };
                    assert_eq!(
                        bits(tsmm_dense_on(&d, threads, tier)),
                        bits(tsmm_dense_on(&d, threads, KernelTier::Blocked)),
                        "{tier} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn dense_tsmm_row_count_not_multiple_of_eight() {
        let x = gen::rand_uniform(13, 5, -2.0, 2.0, 1.0, 12);
        let got = tsmm(&x, 2, true);
        assert!(got.approx_eq(&reference_tsmm(&x), 1e-9));
    }

    #[test]
    fn sparse_tsmm_matches_explicit() {
        let x = gen::rand_uniform(50, 12, -1.0, 1.0, 0.1, 13).compact();
        assert!(x.is_sparse());
        let got = tsmm(&x, 3, false);
        assert!(got.approx_eq(&reference_tsmm(&x), 1e-9));
    }

    #[test]
    fn tsmm_output_is_symmetric() {
        let x = gen::rand_uniform(40, 7, 0.0, 1.0, 1.0, 14);
        let g = tsmm(&x, 2, false);
        for i in 0..7 {
            for j in 0..7 {
                assert_eq!(g.get(i, j), g.get(j, i));
            }
        }
    }

    #[test]
    fn tmv_matches_explicit_dense_and_sparse() {
        let y = gen::rand_uniform(30, 1, -1.0, 1.0, 1.0, 16);
        for sp in [1.0, 0.1] {
            let x = gen::rand_uniform(30, 8, -1.0, 1.0, sp, 15).compact();
            let got = tmv(&x, &y, 2).unwrap();
            let expect = matmult::matmul(&reorg::transpose(&x, 1), &y, 1).unwrap();
            assert!(got.approx_eq(&expect, 1e-9), "sparsity={sp}");
        }
    }

    #[test]
    fn tmv_shape_check() {
        let x = Matrix::zeros(5, 3);
        assert!(tmv(&x, &Matrix::zeros(4, 1), 1).is_err());
        assert!(tmv(&x, &Matrix::zeros(5, 2), 1).is_err());
    }

    #[test]
    fn empty_input() {
        let x = Matrix::zeros(0, 4);
        let g = tsmm(&x, 2, false);
        assert_eq!(g.shape(), (4, 4));
        assert_eq!(g.nnz(), 0);
    }
}
