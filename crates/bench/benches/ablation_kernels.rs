//! Ablation 1 (§4.2 kernel gap): the paper's portable-vs-native kernel gap
//! (SysDS vs SysDS-B) is `gram_tsmm_dense` (the portable row-at-a-time
//! loop, kept only for this comparison) vs `gram_tsmm_dense_blas` (the
//! kernel of the host's dense-kernel tier, which the engine runs), next to
//! the explicit `t(X)%*%X` and the engine's one dense matmul loop, single-
//! and multi-threaded. The `gram_shapes` group times both `tsmm` kernels
//! at the `fed_train` site shape and the `hpo_reuse` shape, in GFLOP/s.
//! The `matvec` and `mmchain` groups cover the bandwidth-bound lmCG step;
//! the `cellwise` group covers element-wise and aggregate kernels, which
//! run as one-node templates on the fused evaluator. `solve_spd` is the
//! Cholesky solve of one `lmDS` model at the `hpo_reuse` width.

use sysds_bench::{max_threads, time};
use sysds_tensor::kernels::{aggregate, elementwise, gen, matmult, matvec, reorg, solve, tsmm};
use sysds_tensor::kernels::{kernel_tier, AggFn, BinaryOp, Direction, UnaryOp};
use sysds_tensor::Matrix;

fn main() {
    println!("dense kernel tier: {}", kernel_tier());
    bench_products();
    bench_gram_shapes();
    bench_matvec();
    bench_cellwise();
    bench_solve();
}

/// Square matmul and tall-skinny Gram matrices (explicit `t(X)%*%X` vs
/// portable and blocked fused tsmm), single- and multi-threaded.
fn bench_products() {
    let threads = max_threads();
    let n = 256;
    let a = gen::rand_uniform(n, n, -1.0, 1.0, 1.0, 6001);
    let b = gen::rand_uniform(n, n, -1.0, 1.0, 1.0, 6002);
    for (name, t) in [("matmul_blocked_1t", 1), ("matmul_blocked_mt", threads)] {
        time(&format!("ablation_kernels/{name}/{n}"), || {
            matmult::matmul(&a, &b, t).unwrap()
        });
    }

    let x = gen::rand_uniform(20_000, 64, -1.0, 1.0, 1.0, 6003);
    let xs: Matrix = gen::rand_uniform(20_000, 64, -1.0, 1.0, 0.1, 6004).compact();
    assert!(xs.is_sparse());
    for (label, m) in [("dense", &x), ("sparse", &xs)] {
        time(&format!("ablation_kernels/gram_explicit_{label}"), || {
            let mt = reorg::transpose(m, threads);
            matmult::matmul(&mt, m, threads).unwrap()
        });
        time(&format!("ablation_kernels/gram_tsmm_{label}"), || {
            tsmm::tsmm(m, threads, false)
        });
    }
    time("ablation_kernels/gram_tsmm_dense_blas", || {
        tsmm::tsmm(&x, threads, true)
    });
}

/// Portable vs dispatched dense `tsmm` at one `fed_train` site's partition
/// (20000x64, one thread) and at the `hpo_reuse` input (8000x250, two
/// threads), reported also as GFLOP/s: `rows * cols * (cols + 1)`, one
/// multiply and one add per cell of the upper triangle per row.
fn bench_gram_shapes() {
    for (rows, cols, t, seed) in [(20_000, 64, 1, 6014), (8_000, 250, 2, 6015)] {
        let x = gen::rand_uniform(rows, cols, -1.0, 1.0, 1.0, seed);
        let gflop = (rows * cols * (cols + 1)) as f64 / 1e9;
        for (name, blas) in [("gram_tsmm_dense", false), ("gram_tsmm_dense_blas", true)] {
            let secs = time(&format!("gram_shapes/{name}/{rows}x{cols}/{t}t"), || {
                tsmm::tsmm(&x, t, blas)
            });
            println!("{:>48} {:>10.2} GFLOP/s", "", gflop / secs);
        }
    }
}

/// Bandwidth-bound mat-vec kernels on a dense tall-skinny X, reported
/// also as GB/s of X read per call.
fn bench_matvec() {
    let x = gen::rand_uniform(20_000, 64, -1.0, 1.0, 1.0, 6005);
    let v = gen::rand_uniform(64, 1, -1.0, 1.0, 1.0, 6006);
    let gb = 8.0 * (x.rows() * x.cols()) as f64 / 1e9;
    let report = |secs: f64| println!("{:>48} {:>10.2} GB/s", "", gb / secs);
    for t in [1, max_threads()] {
        report(time(&format!("matvec/dense/{t}t"), || {
            matmult::matmul(&x, &v, t).unwrap()
        }));
        // t(X) %*% (X %*% v): the unfused plan reads X twice, mmchain once.
        report(time(&format!("mmchain/unfused/{t}t"), || {
            let xv = matmult::matmul(&x, &v, t).unwrap();
            tsmm::tmv(&x, &xv, t).unwrap()
        }));
        report(time(&format!("mmchain/fused/{t}t"), || {
            matvec::mmchain(&x, &v, None, t).unwrap()
        }));
    }
}

/// Element-wise and aggregate kernels at 2 threads on a dense 16000x64 and
/// a sparse 20000x200 (sparsity 0.05) input, plus `min` of a 16000x1
/// vector.
fn bench_cellwise() {
    let t = 2;
    let dense = (
        gen::rand_uniform(16_000, 64, -1.0, 1.0, 1.0, 6007),
        gen::rand_uniform(16_000, 64, -1.0, 1.0, 1.0, 6008),
    );
    let sparse = (
        gen::rand_uniform(20_000, 200, -1.0, 1.0, 0.05, 6009).compact(),
        gen::rand_uniform(20_000, 200, -1.0, 1.0, 0.05, 6010).compact(),
    );
    assert!(sparse.0.is_sparse() && sparse.1.is_sparse());
    for (label, (x, y)) in [("dense", &dense), ("sparse", &sparse)] {
        time(&format!("cellwise/X*s/{label}"), || {
            elementwise::binary_ms_mt(BinaryOp::Mul, x, 2.5, t)
        });
        time(&format!("cellwise/X+Y/{label}"), || {
            elementwise::binary_mm_mt(BinaryOp::Add, x, y, t).unwrap()
        });
        time(&format!("cellwise/exp(X)/{label}"), || {
            elementwise::unary_mt(UnaryOp::Exp, x, t)
        });
        time(&format!("cellwise/sum/{label}"), || {
            aggregate::aggregate_full_mt(AggFn::Sum, x, t).unwrap()
        });
        for (name, f, dir) in [
            ("rowSums", AggFn::Sum, Direction::Row),
            ("colSums", AggFn::Sum, Direction::Col),
            ("rowMaxs", AggFn::Max, Direction::Row),
            ("colMins", AggFn::Min, Direction::Col),
        ] {
            time(&format!("cellwise/{name}/{label}"), || {
                aggregate::aggregate_axis_mt(f, dir, x, t).unwrap()
            });
        }
    }
    let v: Matrix = gen::rand_uniform(16_000, 1, -1.0, 1.0, 1.0, 6011);
    time("cellwise/min/vector", || {
        aggregate::aggregate_full_mt(AggFn::Min, &v, t).unwrap()
    });
}

/// `solve(t(X)%*%X + I, b)` for a 250-column X: Cholesky factor plus two
/// triangular solves, as in each `lmDS` model of `hpo_reuse`.
fn bench_solve() {
    let n = 250;
    let x = gen::rand_uniform(3 * n, n, -1.0, 1.0, 1.0, 6012);
    let eye = Matrix::identity(n);
    let a = elementwise::binary_mm(BinaryOp::Add, &tsmm::tsmm(&x, 1, true), &eye).unwrap();
    let b = gen::rand_uniform(n, 1, -1.0, 1.0, 1.0, 6013);
    time(&format!("ablation_kernels/solve_spd/{n}"), || {
        solve::solve(&a, &b).unwrap()
    });
}
