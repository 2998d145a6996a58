//! The operation library over [`crate::Matrix`].
//!
//! Mirrors SystemDS's TensorBlock operation library (paper §2.4) with one
//! kernel per operation:
//!
//! * **Cell-wise** operations — element-wise unary/binary operators and the
//!   sum, sumSq, mean, min and max aggregates — all run on the fused
//!   template evaluator ([`fused::eval`]). [`elementwise`] and [`aggregate`]
//!   build one-node templates; the compiler's fusion pass builds larger
//!   ones. Only broadcasting, the sparse-left zero-preserving product,
//!   var/sd, the cumulative ops and `ifelse` keep their own loops.
//! * **Products** — [`matmult`], [`matvec`], [`tsmm`] — pick a loop by
//!   representation and shape only; no engine option selects another.
//!   Dense `tsmm` runs one dispatched kernel: [`kernel_tier`] picks an
//!   `avx512f` or `avx2,fma` register-tiled kernel ([`gram`]) once per
//!   process, and the blocked loop is the fallback for other hosts and
//!   for inputs with a non-finite cell. The other dense products run the
//!   cache-blocked loops. The paper's SysDS vs SysDS-B gap (§4.2) is
//!   measured by the `ablation_kernels` bench against `tsmm`'s portable
//!   loop. The dense loops skip zero cells one by one, so `0 * NaN` never
//!   enters a sum; the tiled kernel runs only on finite cells, where a
//!   zero cell adds `+0.0`.
//!
//! Every row-partitioned kernel takes its partitions from
//! `par_row_partitions` and runs them through `run_partitions` or
//! `run_row_chunks`, which split the work and hand it to
//! [`sysds_common::par::map`]: partition 0 runs on the calling thread and
//! each other partition on a scoped thread of its own. `num_threads` only
//! caps the partition count: small inputs run on the calling thread.

pub mod aggregate;
pub mod elementwise;
pub mod fused;
pub mod gen;
#[allow(unsafe_code)]
pub mod gram;
pub mod indexing;
pub mod matmult;
pub mod matvec;
pub mod reorg;
pub mod solve;
pub mod tsmm;

pub use aggregate::{AggFn, Direction};
pub use elementwise::{BinaryOp, UnaryOp};
pub use gram::{kernel_tier, KernelTier};

use crate::matrix::DenseMatrix;
use sysds_common::par;

/// Work (roughly cells touched or multiply-adds) below which row-partitioned
/// kernels stay sequential; thread spawns cost more than the work they
/// would split.
pub(crate) const PAR_MIN_CELLS: usize = 1 << 15;

/// Row partitions for a parallel kernel over `rows` rows that cost about
/// `work_per_row` each: collapses to a single partition when the total work
/// is too small to amortize thread spawns.
pub(crate) fn par_row_partitions(
    rows: usize,
    work_per_row: usize,
    threads: usize,
) -> Vec<(usize, usize)> {
    let t = if rows.saturating_mul(work_per_row) < PAR_MIN_CELLS {
        1
    } else {
        threads
    };
    DenseMatrix::row_partitions(rows, t)
}

/// Run `f` once per `(lo, hi)` row partition and return the results in
/// partition order.
pub(crate) fn run_partitions<T, F>(parts: &[(usize, usize)], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    par::map(parts.to_vec(), |(lo, hi)| f(lo, hi))
}

/// Run `f(lo, hi, chunk)` once per `(lo, hi)` row partition, where `chunk`
/// is the slice of `out` holding rows `lo..hi` of `row_len` values each.
/// Partitions write disjoint chunks, so no merge step follows.
pub(crate) fn run_row_chunks<F>(parts: &[(usize, usize)], out: &mut [f64], row_len: usize, f: F)
where
    F: Fn(usize, usize, &mut [f64]) + Sync,
{
    let mut rest = out;
    let work = parts
        .iter()
        .map(|&(lo, hi)| {
            let (chunk, tail) = std::mem::take(&mut rest).split_at_mut((hi - lo) * row_len);
            rest = tail;
            (lo, hi, chunk)
        })
        .collect();
    par::map(work, |(lo, hi, chunk)| f(lo, hi, chunk));
}
