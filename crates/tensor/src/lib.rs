//! The TensorBlock operation library of `systemds-rs` (paper §2.4).
//!
//! The paper's heterogeneous tensors map onto [`Matrix`] for homogeneous
//! blocks and `sysds_frame::Frame` for tables with one value type per
//! column; n-dimensional tensors are not reproduced. This crate holds the
//! matrix half:
//!
//! 1. [`matrix`] — the 2-D `f64` workhorse used by the runtime's linear
//!    algebra instructions: [`Matrix`] with dense (row-major) and sparse
//!    (CSR) representations chosen automatically by sparsity.
//! 2. [`kernels`] — the operation library: matrix multiplication (one
//!    cache-blocked multi-threaded dense loop), the fused
//!    transpose-self product `tsmm` (`t(X) %*% X`), element-wise ops with
//!    broadcasting, aggregations, reorg ops, solvers, indexing, and
//!    generators.
//! 3. [`compress`] — [`CompressedMatrix`], the column-group compressed
//!    representation.

pub mod compress;
pub mod kernels;
pub mod matrix;

pub use compress::CompressedMatrix;
pub use matrix::{DenseMatrix, Matrix, SparseMatrix, SPARSE_THRESHOLD};
