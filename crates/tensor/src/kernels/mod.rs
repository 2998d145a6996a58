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
//!   representation and shape only. Dense products run one kernel tier,
//!   the cache-blocked loops; no engine option selects another. The
//!   paper's SysDS vs SysDS-B gap (§4.2) is measured by the
//!   `ablation_kernels` bench against `tsmm`'s portable loop. The dense
//!   loops skip zero cells one by one, so `0 * NaN` never enters a sum.
//!
//! Every row-partitioned kernel takes its partitions from
//! `par_row_partitions` and runs them through `run_partitions` or
//! `run_row_chunks`, the only places that spawn threads. `num_threads`
//! only caps the partition count: small inputs run on the calling thread.

pub mod aggregate;
pub mod elementwise;
pub mod fused;
pub mod gen;
pub mod indexing;
pub mod matmult;
pub mod matvec;
pub mod reorg;
pub mod solve;
pub mod tsmm;

pub use aggregate::{AggFn, Direction};
pub use elementwise::{BinaryOp, UnaryOp};

use crate::matrix::DenseMatrix;

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
    if parts.len() <= 1 {
        return parts.iter().map(|&(lo, hi)| f(lo, hi)).collect();
    }
    let mut out: Vec<Option<T>> = Vec::new();
    out.resize_with(parts.len(), || None);
    let work = parts.iter().zip(out.iter_mut()).collect();
    run_each(work, |(&(lo, hi), slot)| *slot = Some(f(lo, hi)));
    out.into_iter()
        .map(|r| r.expect("worker fills its slot"))
        .collect()
}

/// Run `f(lo, hi, chunk)` once per `(lo, hi)` row partition, where `chunk`
/// is the slice of `out` holding rows `lo..hi` of `row_len` values each.
/// Partitions write disjoint chunks, so no merge step follows.
pub(crate) fn run_row_chunks<F>(parts: &[(usize, usize)], out: &mut [f64], row_len: usize, f: F)
where
    F: Fn(usize, usize, &mut [f64]) + Sync,
{
    if let [(lo, hi)] = *parts {
        return f(lo, hi, &mut out[lo * row_len..hi * row_len]);
    }
    let mut work = Vec::with_capacity(parts.len());
    let mut rest = out;
    for &(lo, hi) in parts {
        let (chunk, tail) = rest.split_at_mut((hi - lo) * row_len);
        rest = tail;
        work.push((lo, hi, chunk));
    }
    run_each(work, |(lo, hi, chunk)| f(lo, hi, chunk));
}

/// Apply `f` to every work item, one scoped thread per item.
fn run_each<W: Send>(work: Vec<W>, f: impl Fn(W) + Sync) {
    let f = &f;
    std::thread::scope(|s| {
        for w in work {
            s.spawn(move || f(w));
        }
    });
}
