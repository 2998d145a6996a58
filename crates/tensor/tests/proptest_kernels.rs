//! Property-based tests over the kernel library's algebraic invariants.

use sysds_common::property;
use sysds_common::rng::XorShift64;
use sysds_common::testing::Gen;
use sysds_tensor::kernels::{aggregate, elementwise, gen, indexing, matmult, reorg, tsmm};
use sysds_tensor::kernels::{AggFn, BinaryOp, Direction, UnaryOp};
use sysds_tensor::Matrix;

/// A random matrix of bounded shape with the given sparsity.
fn mat(g: &mut Gen, max_dim: usize, sparsity: f64) -> Matrix {
    let (r, c, seed) = (g.int(1..=max_dim), g.int(1..=max_dim), g.seed());
    gen::rand_uniform(r, c, -2.0, 2.0, sparsity, seed).compact()
}

/// A dense matrix whose cells are zero with probability `1 - sparsity`
/// and otherwise in [-1, 1); one cell in `poison` of the result is then
/// replaced by `NaN`, `Inf` or `-Inf` (none when `poison` is 0).
fn dense_with_specials(rows: usize, cols: usize, sparsity: f64, seed: u64, poison: u64) -> Matrix {
    let mut v = gen::rand_uniform(rows, cols, -1.0, 1.0, sparsity, seed).to_vec();
    let mut rng = XorShift64::new(seed ^ 0x5eed);
    for e in v.iter_mut() {
        if poison > 0 && rng.next_u64().is_multiple_of(poison) {
            *e = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.next_below(3)];
        }
    }
    Matrix::from_vec(rows, cols, v).unwrap()
}

/// `A %*% B` cell by cell: each cell sums `a[i,k] * b[k,j]` in `k` order
/// over the non-zero `a[i,k]`, starting from `0.0`.
fn cell_order_product(a: &Matrix, b: &Matrix) -> Vec<f64> {
    let (m, kd, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Vec::with_capacity(m * n);
    for i in 0..m {
        for j in 0..n {
            let mut s = 0.0;
            for k in (0..kd).filter(|&k| a.get(i, k) != 0.0) {
                s += a.get(i, k) * b.get(k, j);
            }
            out.push(s);
        }
    }
    out
}

/// Row counts that are not a multiple of 8, and mostly not of 4.
fn odd_rows(g: &mut Gen) -> usize {
    8 * g.int(0usize..=4) + g.int(1usize..=7)
}

/// Compatible (A, B, C) for matrix multiplication.
fn mat_pair(g: &mut Gen, max_dim: usize) -> (Matrix, Matrix, Matrix) {
    let (m, k, n) = (g.int(1..=max_dim), g.int(1..=max_dim), g.int(1..=max_dim));
    let (seed, sp) = (g.seed(), g.int(0u8..3));
    let s = |x: u8| if x == 0 { 1.0 } else { 0.2 };
    (
        gen::rand_uniform(m, k, -1.0, 1.0, s(sp % 2), seed).compact(),
        gen::rand_uniform(k, n, -1.0, 1.0, s(sp / 2), seed ^ 0xABCD).compact(),
        gen::rand_uniform(k, n, -1.0, 1.0, 1.0, seed ^ 0x1234),
    )
}

property! {
    #![cases(48)]
    g;

    #[test]
    fn transpose_is_involution(m in mat(g, 24, 1.0)) {
        let t2 = reorg::transpose(&reorg::transpose(&m, 2), 2);
        assert!(t2.approx_eq(&m, 0.0));
    }

    #[test]
    fn transpose_is_involution_sparse(m in mat(g, 24, 0.15)) {
        let t2 = reorg::transpose(&reorg::transpose(&m, 1), 1);
        assert!(t2.approx_eq(&m, 0.0));
    }

    #[test]
    fn matmul_distributes_over_addition((a, b, c) in mat_pair(g, 12)) {
        // A(B + C) == AB + AC
        let bc = elementwise::binary_mm(BinaryOp::Add, &b, &c).unwrap();
        let lhs = matmult::matmul(&a, &bc, 2).unwrap();
        let ab = matmult::matmul(&a, &b, 2).unwrap();
        let ac = matmult::matmul(&a, &c, 2).unwrap();
        let rhs = elementwise::binary_mm(BinaryOp::Add, &ab, &ac).unwrap();
        assert!(lhs.approx_eq(&rhs, 1e-8));
    }

    #[test]
    fn transpose_of_product_is_reversed_product((a, b, _) in mat_pair(g, 10)) {
        // t(AB) == t(B) t(A)
        let lhs = reorg::transpose(&matmult::matmul(&a, &b, 1).unwrap(), 1);
        let rhs = matmult::matmul(&reorg::transpose(&b, 1), &reorg::transpose(&a, 1), 1).unwrap();
        assert!(lhs.approx_eq(&rhs, 1e-9));
    }

    #[test]
    fn tsmm_equals_explicit_product(m in mat(g, 20, 1.0)) {
        let fused = tsmm::tsmm(&m, 2, true);
        let explicit = matmult::matmul(&reorg::transpose(&m, 1), &m, 1).unwrap();
        assert!(fused.approx_eq(&explicit, 1e-9));
    }

    #[test]
    fn tsmm_equals_explicit_product_sparse(m in mat(g, 24, 0.2)) {
        let fused = tsmm::tsmm(&m, 3, false);
        let explicit = matmult::matmul(&reorg::transpose(&m, 1), &m, 1).unwrap();
        assert!(fused.approx_eq(&explicit, 1e-9));
    }

    #[test]
    fn sum_invariant_under_transpose_and_reshape(m in mat(g, 20, 0.3)) {
        let s0 = aggregate::aggregate_full(AggFn::Sum, &m).unwrap();
        let s1 = aggregate::aggregate_full(AggFn::Sum, &reorg::transpose(&m, 1)).unwrap();
        let s2 = aggregate::aggregate_full(
            AggFn::Sum,
            &reorg::reshape(&m, m.cols(), m.rows()).unwrap(),
        ).unwrap();
        assert!((s0 - s1).abs() < 1e-9);
        assert!((s0 - s2).abs() < 1e-9);
    }

    #[test]
    fn row_sums_sum_to_full_sum(m in mat(g, 20, 1.0)) {
        let full = aggregate::aggregate_full(AggFn::Sum, &m).unwrap();
        let rows = aggregate::aggregate_axis(AggFn::Sum, Direction::Row, &m).unwrap();
        let total = aggregate::aggregate_full(AggFn::Sum, &rows).unwrap();
        assert!((full - total).abs() < 1e-9);
    }

    #[test]
    fn cbind_slice_round_trip(a in mat(g, 15, 1.0), seed in g.seed()) {
        let b = gen::rand_uniform(a.rows(), 3, -1.0, 1.0, 1.0, seed);
        let both = indexing::cbind(&a, &b).unwrap();
        let left = indexing::slice(&both, 0..a.rows(), 0..a.cols()).unwrap();
        let right = indexing::slice(&both, 0..a.rows(), a.cols()..a.cols() + 3).unwrap();
        assert!(left.approx_eq(&a, 0.0));
        assert!(right.approx_eq(&b, 0.0));
    }

    #[test]
    fn rbind_slice_round_trip(a in mat(g, 15, 0.3), seed in g.seed()) {
        let b = gen::rand_uniform(4, a.cols(), -1.0, 1.0, 1.0, seed);
        let both = indexing::rbind(&a, &b).unwrap();
        let top = indexing::slice(&both, 0..a.rows(), 0..a.cols()).unwrap();
        let bottom = indexing::slice(&both, a.rows()..a.rows() + 4, 0..a.cols()).unwrap();
        assert!(top.approx_eq(&a, 0.0));
        assert!(bottom.approx_eq(&b, 0.0));
    }

    #[test]
    fn unary_neg_twice_is_identity(m in mat(g, 20, 0.3)) {
        let back = elementwise::unary(UnaryOp::Neg, &elementwise::unary(UnaryOp::Neg, &m));
        assert!(back.approx_eq(&m, 0.0));
    }

    #[test]
    fn scalar_ops_match_cellwise(m in mat(g, 12, 1.0), s in g.float(-3.0f64..3.0)) {
        let r = elementwise::binary_ms(BinaryOp::Add, &m, s);
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                assert!((r.get(i, j) - (m.get(i, j) + s)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn compact_preserves_values(m in mat(g, 20, 0.25)) {
        let dense = Matrix::Dense(m.to_dense());
        let compacted = dense.clone().compact();
        assert!(compacted.approx_eq(&dense, 0.0));
    }

    #[test]
    fn solve_recovers_solution(n in g.int(2usize..8), seed in g.seed()) {
        // Build SPD system A = X'X + I and verify solve(A, A w) == w.
        let x = gen::rand_uniform(n * 3, n, -1.0, 1.0, 1.0, seed);
        let g = tsmm::tsmm(&x, 1, false);
        let a = elementwise::binary_mm(
            BinaryOp::Add, &g, &Matrix::Dense(Matrix::identity(n).to_dense())).unwrap();
        let w = gen::rand_uniform(n, 1, -1.0, 1.0, 1.0, seed ^ 99);
        let b = matmult::matmul(&a, &w, 1).unwrap();
        let got = sysds_tensor::kernels::solve::solve(&a, &b).unwrap();
        assert!(got.approx_eq(&w, 1e-6));
    }

    #[test]
    fn order_produces_sorted_column(m in mat(g, 20, 1.0)) {
        let sorted = reorg::order(&m, 0, false, false).unwrap();
        for i in 1..sorted.rows() {
            assert!(sorted.get(i - 1, 0) <= sorted.get(i, 0));
        }
    }
}

property! {
    #![cases(64)]
    g;

    #[test]
    fn dense_matmul_is_bitwise_the_cell_order_product(
        (rows, k, n) in (odd_rows(g), g.int(1usize..=70), g.int(2usize..=70)),
        sparsity in g.pick(&[1.0, 0.6, 0.2]),
        (seed, poison) in (g.seed(), g.pick(&[0u64, 3, 17])),
        threads in g.int(1usize..=4),
    ) {
        let a = dense_with_specials(rows, k, sparsity, seed, 0);
        let b = dense_with_specials(k, n, 1.0, seed ^ 0xb, poison);
        let want = cell_order_product(&a, &b);
        let got = matmult::matmul(&a, &b, threads).unwrap().to_vec();
        // Bitwise, except that a NaN's sign and payload depend on code
        // generation (operand order), so every NaN counts as one value.
        let bits = |v: &[f64]| {
            v.iter()
                .map(|f| if f.is_nan() { f64::NAN.to_bits() } else { f.to_bits() })
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&got), bits(&want), "A {rows}x{k} B {k}x{n} threads={threads}");
    }

    #[test]
    fn blocked_tsmm_matches_portable_on_specials(
        (rows, cols) in (odd_rows(g), g.int(1usize..=20)),
        sparsity in g.pick(&[1.0, 0.6, 0.2]),
        (seed, poison) in (g.seed(), g.pick(&[0u64, 5, 23])),
        threads in g.int(1usize..=4),
    ) {
        let x = dense_with_specials(rows, cols, sparsity, seed, poison);
        let blocked = tsmm::tsmm(&x, threads, true).to_vec();
        let portable = tsmm::tsmm(&x, threads, false).to_vec();
        for (c, (p, q)) in blocked.iter().zip(&portable).enumerate() {
            let same = if p.is_nan() || q.is_nan() {
                p.is_nan() && q.is_nan()
            } else if p.is_infinite() || q.is_infinite() {
                p == q
            } else {
                (p - q).abs() <= 1e-9 * (1.0 + q.abs())
            };
            assert!(same, "cell {c}: blocked {p} portable {q} (X {rows}x{cols}, threads={threads})");
        }
    }
}
