//! Property tests for the mat-vec kernels: `X %*% v` against a
//! zero-skipping reference, and `mmchain` against that reference followed
//! by `tmv`. Inputs cover random shapes (including 0 rows and widths not
//! divisible by 4), dense, sparse and zero-heavy `X` (zeros also in dense
//! storage), `NaN`/`Inf` in `v`, and thread counts 1-4.

use sysds_common::property;
use sysds_tensor::kernels::{elementwise, gen, matmult, matvec, tsmm, BinaryOp};
use sysds_tensor::Matrix;

/// Reference `X %*% v` under the kernels' rule: zero cells of `X` are
/// skipped, so they never meet a non-finite entry of `v`.
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

/// A vector in [-1, 1). For one `mask` in four, the entries the mask's
/// bit pairs pick are replaced by `NaN`, `Inf` or `-Inf`.
fn vector(n: usize, seed: u64, mask: u64) -> Vec<f64> {
    let mut v = gen::rand_uniform(n, 1, -1.0, 1.0, 1.0, seed).to_vec();
    if mask & 0b11 != 0 {
        return v;
    }
    for (k, e) in v.iter_mut().enumerate() {
        match (mask >> (2 + 2 * (k % 31))) & 0b11 {
            1 => *e = f64::NAN,
            2 => *e = f64::INFINITY,
            3 => *e = f64::NEG_INFINITY,
            _ => {}
        }
    }
    v
}

/// Equal up to summation order: same non-finite class, else relative 1e-9.
fn close(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(p, q)| {
            if p.is_nan() || q.is_nan() {
                p.is_nan() && q.is_nan()
            } else if p.is_infinite() || q.is_infinite() {
                p == q
            } else {
                (p - q).abs() <= 1e-9 * (1.0 + q.abs())
            }
        })
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|f| f.to_bits()).collect()
}

/// A random matrix in its compact representation, or forced dense so that
/// the dense kernels meet zero cells.
fn matrix(rows: usize, cols: usize, sparsity: f64, seed: u64, dense: bool) -> Matrix {
    let m = gen::rand_uniform(rows, cols, -1.0, 1.0, sparsity, seed);
    if dense {
        Matrix::Dense(m.to_dense())
    } else {
        m.compact()
    }
}

property! {
    #![cases(96)]
    g;

    #[test]
    fn matvec_matches_zero_skipping_reference(
        (rows, cols) in (g.int(0usize..=300), g.int(0usize..=13)),
        sparsity in g.pick(&[1.0, 0.3, 0.05]),
        (seed, mask) in (g.seed(), g.seed()),
        dense in g.bool(),
    ) {
        let x = matrix(rows, cols, sparsity, seed, dense);
        let v = vector(cols, seed ^ 0x5a5a, mask);
        let vm = Matrix::from_vec(cols, 1, v.clone()).unwrap();
        let one = matmult::matmul(&x, &vm, 1).unwrap();
        assert_eq!(one.shape(), (rows, 1));
        let one = one.to_vec();
        assert!(close(&one, &reference_mv(&x, &v)), "x {rows}x{cols} sp={sparsity}");
        for threads in [2usize, 4] {
            let got = matmult::matmul(&x, &vm, threads).unwrap().to_vec();
            assert_eq!(bits(&got), bits(&one), "threads={threads}");
        }
    }

    #[test]
    fn mmchain_matches_reference_then_tmv(
        (rows, cols) in (g.int(0usize..=300), g.int(1usize..=13)),
        sparsity in g.pick(&[1.0, 0.3, 0.05]),
        (seed, mask) in (g.seed(), g.seed()),
        (with_y, dense) in (g.bool(), g.bool()),
        threads in g.int(1usize..=4),
    ) {
        let x = matrix(rows, cols, sparsity, seed, dense);
        let vv = vector(cols, seed ^ 0xa5a5, mask);
        let v = Matrix::from_vec(cols, 1, vv.clone()).unwrap();
        let y = with_y.then(|| matrix(rows, 1, 0.5, seed ^ 0x0f0f, false));
        let xv = Matrix::from_vec(rows, 1, reference_mv(&x, &vv)).unwrap();
        let resid = match &y {
            Some(y) => elementwise::binary_mm(BinaryOp::Sub, &xv, y).unwrap(),
            None => xv,
        };
        let want = tsmm::tmv(&x, &resid, 1).unwrap().to_vec();
        let got = matvec::mmchain(&x, &v, y.as_ref(), threads).unwrap();
        assert_eq!(got.shape(), (cols, 1));
        assert!(close(&got.to_vec(), &want), "x {rows}x{cols} sp={sparsity} threads={threads}");
    }
}
