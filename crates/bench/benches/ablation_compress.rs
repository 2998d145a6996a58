//! Ablation 7 (§3.4 "lossless and lossy compression"): compressed linear
//! algebra on low-cardinality (encoded) data — `X%*%v` and `t(X)%*%v`
//! directly on the compressed representation vs dense, plus compression
//! throughput. On DDC-coded columns the compressed ops touch one multiply
//! per *distinct* value.

use sysds_bench::time;
use sysds_tensor::kernels::{gen, matmult, tsmm};
use sysds_tensor::{CompressedMatrix, DenseMatrix, Matrix};

/// Low-cardinality matrix resembling transformencode output.
fn categorical(rows: usize, cols: usize, levels: usize, seed: u64) -> Matrix {
    let raw = gen::rand_uniform(rows, cols, 0.0, levels as f64, 1.0, seed);
    let d = raw.to_dense();
    let (r, c) = (d.rows(), d.cols());
    let data = d.values().iter().map(|v| v.floor()).collect();
    Matrix::Dense(DenseMatrix::from_vec(r, c, data))
}

fn main() {
    let x = categorical(100_000, 20, 8, 6501);
    let v_cols = gen::rand_uniform(20, 1, -1.0, 1.0, 1.0, 6502);
    let v_rows = gen::rand_uniform(100_000, 1, -1.0, 1.0, 1.0, 6503);
    let compressed = CompressedMatrix::compress(&x);
    println!(
        "compression ratio on 8-level categorical data: {:.1}x (encodings {:?})",
        compressed.compression_ratio(),
        compressed.encoding_counts()
    );

    time("ablation_compress/compress_100kx20", || {
        CompressedMatrix::compress(&x)
    });
    time("ablation_compress/matvec_dense", || {
        matmult::matmul(&x, &v_cols, 1).unwrap()
    });
    time("ablation_compress/matvec_compressed", || {
        compressed.mat_vec(&v_cols).unwrap()
    });
    time("ablation_compress/tmv_dense", || {
        tsmm::tmv(&x, &v_rows, 1).unwrap()
    });
    time("ablation_compress/tmv_compressed", || {
        compressed.tmv(&v_rows).unwrap()
    });
}
