//! Federated tensors: metadata objects over row-partitioned remote data.
//!
//! "A federated tensor ... is a metadata object holding multiple references
//! to — potentially remote — in-memory or distributed tensors. Subtensors
//! cover disjoint index ranges of the tensor" (paper §2.4). We implement
//! the row-partitioned 2-D case, which is the one federated learning uses.
//!
//! The master pushes an instruction to all sites at once: `fan_out`
//! issues every per-site request concurrently and returns the replies in
//! partition order, and the reductions add them up in that order, so the
//! result does not depend on which site answers first.

use crate::transport::Transport;
use crate::worker::{FedRequest, FedResponse};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use sysds_common::error::panic_message;
use sysds_common::{Result, SysDsError};
use sysds_tensor::kernels::elementwise::BinaryOp;
use sysds_tensor::kernels::indexing;
use sysds_tensor::Matrix;

static NEXT_VAR: AtomicU64 = AtomicU64::new(0);

fn fresh_var(prefix: &str) -> String {
    format!(
        "__fed_{prefix}_{}",
        NEXT_VAR.fetch_add(1, Ordering::Relaxed)
    )
}

/// One partition: rows `[row_lo, row_hi)` live at `worker` under `var`.
/// The worker is any [`Transport`] — an in-process thread or a TCP site.
#[derive(Debug, Clone)]
pub struct FedPartition {
    pub row_lo: usize,
    pub row_hi: usize,
    pub worker: Arc<dyn Transport>,
    pub var: String,
}

/// A row-partitioned federated matrix.
#[derive(Debug, Clone)]
pub struct FederatedMatrix {
    rows: usize,
    cols: usize,
    partitions: Vec<FedPartition>,
}

impl FederatedMatrix {
    /// Scatter a local matrix across `workers` in contiguous row ranges
    /// (test/bootstrap path; production data would already live at sites).
    /// All `Put`s go out at once; if one fails, the slices other sites
    /// already stored are removed again (best effort).
    pub fn scatter(m: &Matrix, workers: &[Arc<dyn Transport>]) -> Result<FederatedMatrix> {
        if workers.is_empty() {
            return Err(SysDsError::Federated(
                "scatter needs at least one worker".into(),
            ));
        }
        let rows = m.rows();
        let per = rows.div_ceil(workers.len()).max(1);
        let partitions: Vec<FedPartition> = workers
            .iter()
            .zip((0..rows).step_by(per))
            .map(|(w, lo)| FedPartition {
                row_lo: lo,
                row_hi: (lo + per).min(rows),
                worker: Arc::clone(w),
                var: fresh_var("part"),
            })
            .collect();
        let stored = fan_out(&partitions, |_, p| {
            let data = indexing::slice(m, p.row_lo..p.row_hi, 0..m.cols())?;
            p.worker.request(FedRequest::Put {
                var: p.var.clone(),
                data,
            })
        });
        Ok(FederatedMatrix {
            rows,
            cols: m.cols(),
            partitions: keep_or_remove(partitions, stored)?,
        })
    }

    /// Assemble from partitions that already live at sites. Ranges must be
    /// contiguous from zero and disjoint ("uncovered areas are zero" is
    /// not needed for the row-partitioned learning case).
    pub fn from_partitions(cols: usize, partitions: Vec<FedPartition>) -> Result<FederatedMatrix> {
        let mut expected = 0usize;
        for p in &partitions {
            if p.row_lo != expected || p.row_hi <= p.row_lo {
                return Err(SysDsError::Federated(
                    "federated ranges must be contiguous and non-empty".into(),
                ));
            }
            expected = p.row_hi;
        }
        Ok(FederatedMatrix {
            rows: expected,
            cols,
            partitions,
        })
    }

    /// Total row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of federated sites backing this tensor.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Access partition metadata.
    pub fn partitions(&self) -> &[FedPartition] {
        &self.partitions
    }

    /// Federated `t(X) %*% X`: push fused tsmm to every site, add the
    /// aggregates at the master. Only `cols x cols` matrices travel.
    pub fn tsmm(&self) -> Result<Matrix> {
        self.sum_aggregates("tsmm", |_, p| FedRequest::Tsmm { var: p.var.clone() })
    }

    /// Federated `t(X) %*% y` for an aligned federated `y`.
    pub fn tmv(&self, y: &FederatedMatrix) -> Result<Matrix> {
        self.check_aligned(y)?;
        self.sum_aggregates("tmv", |i, p| FedRequest::Tmv {
            x: p.var.clone(),
            y: y.partitions[i].var.clone(),
        })
    }

    /// Federated `X %*% v` with broadcast `v`; the row-partitioned result
    /// stays federated (a new federated matrix of the same ranges).
    pub fn mat_vec(&self, v: &Matrix) -> Result<FederatedMatrix> {
        if v.rows() != self.cols || v.cols() != 1 {
            return Err(SysDsError::DimensionMismatch {
                op: "fed %*%",
                lhs: (self.rows, self.cols),
                rhs: v.shape(),
            });
        }
        self.keep_at_sites("mv", 1, |_, p, out| FedRequest::MatVecKeep {
            var: p.var.clone(),
            v: v.clone(),
            out,
        })
    }

    /// Federated element-wise op with an aligned federated operand; the
    /// result stays federated.
    pub fn binary_op(&self, op: BinaryOp, other: &FederatedMatrix) -> Result<FederatedMatrix> {
        self.check_aligned(other)?;
        if self.cols != other.cols {
            return Err(SysDsError::Federated(
                "federated binary op: column mismatch".into(),
            ));
        }
        self.keep_at_sites("bin", self.cols, |i, p, out| FedRequest::BinaryOpKeep {
            lhs: p.var.clone(),
            rhs: other.partitions[i].var.clone(),
            op,
            out,
        })
    }

    /// Federated element-wise op with a broadcast scalar; the result stays
    /// federated at the sites.
    pub fn scalar_op(&self, op: BinaryOp, scalar: f64) -> Result<FederatedMatrix> {
        self.keep_at_sites("sop", self.cols, |_, p, out| FedRequest::ScalarOpKeep {
            var: p.var.clone(),
            op,
            scalar,
            out,
        })
    }

    /// Federated column sums (a `1 x cols` aggregate).
    pub fn col_sums(&self) -> Result<Matrix> {
        self.sum_aggregates("col_sums", |_, p| FedRequest::ColSums {
            var: p.var.clone(),
        })
    }

    /// Federated sum of squares (scalar aggregate; e.g. residual norms).
    pub fn sum_sq(&self) -> Result<f64> {
        let sum = self.sum_over_sites(
            |_, p| {
                p.worker
                    .request_scalar(FedRequest::SumSq { var: p.var.clone() })
            },
            |a, b| Ok(a + b),
        )?;
        Ok(sum.unwrap_or(0.0))
    }

    /// The per-site reduction: send every partition its request
    /// `request(i, partition)` at once (see `fan_out`) and add the
    /// results up at the master in partition order. The fixed order keeps
    /// sums bitwise reproducible however the replies arrive. If sites
    /// fail, the error of the lowest-numbered one is returned. `None`
    /// without partitions.
    pub(crate) fn sum_over_sites<T: Send>(
        &self,
        request: impl Fn(usize, &FedPartition) -> Result<T> + Sync,
        add: impl Fn(T, T) -> Result<T>,
    ) -> Result<Option<T>> {
        let mut acc = None;
        for part in fan_out(&self.partitions, request) {
            let part = part?;
            acc = Some(match acc {
                None => part,
                Some(a) => add(a, part)?,
            });
        }
        Ok(acc)
    }

    /// [`Self::sum_over_sites`] for requests answered with a matrix
    /// aggregate.
    fn sum_aggregates(
        &self,
        what: &str,
        request: impl Fn(usize, &FedPartition) -> FedRequest + Sync,
    ) -> Result<Matrix> {
        self.sum_over_sites(
            |i, p| p.worker.request_aggregate(request(i, p)),
            |a, b| elementwise_add(&a, &b),
        )?
        .ok_or_else(|| SysDsError::Federated(format!("{what} over empty federated matrix")))
    }

    /// The keep-at-site step: send every partition at once the request
    /// `request(i, partition, out)` that stores its result at the site
    /// under the fresh variable `out`; the results form a new federated
    /// matrix with `cols` columns over the same row ranges. If a site
    /// fails, the results the others stored are removed again (best
    /// effort) and the lowest-numbered site's error is returned.
    fn keep_at_sites(
        &self,
        prefix: &str,
        cols: usize,
        request: impl Fn(usize, &FedPartition, String) -> FedRequest + Sync,
    ) -> Result<FederatedMatrix> {
        let partitions: Vec<FedPartition> = self
            .partitions
            .iter()
            .map(|p| FedPartition {
                var: fresh_var(prefix),
                ..p.clone()
            })
            .collect();
        let stored = fan_out(&partitions, |i, out| {
            out.worker
                .request(request(i, &self.partitions[i], out.var.clone()))
        });
        FederatedMatrix::from_partitions(cols, keep_or_remove(partitions, stored)?)
    }

    /// Free the site-side variables backing this federated matrix. Every
    /// site gets its `Remove` at once; the lowest-numbered failure, if
    /// any, is returned.
    pub fn free(self) -> Result<()> {
        remove_all(&self.partitions)
    }

    fn check_aligned(&self, other: &FederatedMatrix) -> Result<()> {
        if self.partitions.len() != other.partitions.len()
            || self.partitions.iter().zip(&other.partitions).any(|(a, b)| {
                a.row_lo != b.row_lo
                    || a.row_hi != b.row_hi
                    || a.worker.endpoint() != b.worker.endpoint()
            })
        {
            return Err(SysDsError::Federated(
                "federated operands are not range-aligned".into(),
            ));
        }
        Ok(())
    }
}

/// Issue `request(i, partition)` for every partition at the same time
/// and return the results in partition order. Partition 0 runs on the
/// calling thread, every other one on a scoped thread of its own that
/// re-enters the caller's span context, so its `federated` spans keep
/// their parent instruction and worker tag. A panicking request becomes a
/// [`SysDsError::Federated`] error for its partition.
fn fan_out<T: Send>(
    partitions: &[FedPartition],
    request: impl Fn(usize, &FedPartition) -> Result<T> + Sync,
) -> Vec<Result<T>> {
    let run = |i: usize| {
        let p = &partitions[i];
        std::panic::catch_unwind(AssertUnwindSafe(|| request(i, p))).unwrap_or_else(|payload| {
            let msg = panic_message(payload.as_ref()).unwrap_or("unknown panic");
            Err(SysDsError::Federated(format!(
                "request to {} panicked: {msg}",
                p.worker.endpoint()
            )))
        })
    };
    if partitions.len() <= 1 {
        return (0..partitions.len()).map(run).collect();
    }
    let ctx = sysds_obs::SpanContext::current();
    let run = &run;
    std::thread::scope(|s| {
        let others: Vec<_> = (1..partitions.len())
            .map(|i| {
                s.spawn(move || {
                    let _ctx = ctx.enter();
                    run(i)
                })
            })
            .collect();
        let mut results = Vec::with_capacity(partitions.len());
        results.push(run(0));
        results.extend(
            others
                .into_iter()
                .map(|h| h.join().expect("fan-out requests catch their panics")),
        );
        results
    })
}

/// Keep `partitions` if every site stored its variable (`stored[i]` is
/// `Ok`); otherwise send best-effort `Remove`s to the sites that did and
/// return the lowest-numbered site's error.
fn keep_or_remove(
    partitions: Vec<FedPartition>,
    stored: Vec<Result<FedResponse>>,
) -> Result<Vec<FedPartition>> {
    let mut kept = Vec::with_capacity(partitions.len());
    let mut first_err = None;
    for (p, r) in partitions.into_iter().zip(stored) {
        match r {
            Ok(_) => kept.push(p),
            Err(e) => {
                first_err.get_or_insert(e);
            }
        }
    }
    match first_err {
        None => Ok(kept),
        Some(e) => {
            // Best effort: a failed cleanup must not mask the real error.
            let _ = remove_all(&kept);
            Err(e)
        }
    }
}

/// Send every partition a `Remove` for its variable at once; returns the
/// lowest-numbered failure, if any.
fn remove_all(partitions: &[FedPartition]) -> Result<()> {
    fan_out(partitions, |_, p| {
        p.worker.request(FedRequest::Remove { var: p.var.clone() })
    })
    .into_iter()
    .try_for_each(|r| r.map(drop))
}

fn elementwise_add(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    sysds_tensor::kernels::elementwise::binary_mm(BinaryOp::Add, a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::WorkerHandle;
    use sysds_tensor::kernels::{gen, matmult, reorg, tsmm as local_tsmm};

    fn workers(n: usize) -> Vec<Arc<dyn Transport>> {
        (0..n)
            .map(|_| Arc::new(WorkerHandle::spawn(vec![], 1)) as Arc<dyn Transport>)
            .collect()
    }

    #[test]
    fn scatter_covers_all_rows() {
        let m = gen::rand_uniform(25, 4, -1.0, 1.0, 1.0, 141);
        let ws = workers(3);
        let f = FederatedMatrix::scatter(&m, &ws).unwrap();
        assert_eq!(f.rows(), 25);
        assert_eq!(f.cols(), 4);
        assert_eq!(f.num_partitions(), 3);
        let covered: usize = f.partitions().iter().map(|p| p.row_hi - p.row_lo).sum();
        assert_eq!(covered, 25);
    }

    #[test]
    fn federated_tsmm_matches_local() {
        let m = gen::rand_uniform(40, 5, -1.0, 1.0, 1.0, 142);
        let ws = workers(4);
        let f = FederatedMatrix::scatter(&m, &ws).unwrap();
        let got = f.tsmm().unwrap();
        assert!(got.approx_eq(&local_tsmm::tsmm(&m, 1, false), 1e-9));
    }

    #[test]
    fn federated_tmv_matches_local() {
        let (x, y) = gen::synthetic_regression(30, 4, 1.0, 0.2, 143);
        let ws = workers(3);
        let fx = FederatedMatrix::scatter(&x, &ws).unwrap();
        let fy = FederatedMatrix::scatter(&y, &ws).unwrap();
        let got = fx.tmv(&fy).unwrap();
        let expect = matmult::matmul(&reorg::transpose(&x, 1), &y, 1).unwrap();
        assert!(got.approx_eq(&expect, 1e-9));
    }

    #[test]
    fn misaligned_operands_rejected() {
        let x = gen::rand_uniform(20, 3, -1.0, 1.0, 1.0, 144);
        let ws2 = workers(2);
        let ws3 = workers(3);
        let fa = FederatedMatrix::scatter(&x, &ws2).unwrap();
        let fb = FederatedMatrix::scatter(&x, &ws3).unwrap();
        assert!(fa.tmv(&fb).is_err());
    }

    #[test]
    fn mat_vec_stays_federated_and_aggregates_match() {
        let x = gen::rand_uniform(22, 4, -1.0, 1.0, 1.0, 145);
        let v = gen::rand_uniform(4, 1, -1.0, 1.0, 1.0, 146);
        let ws = workers(2);
        let f = FederatedMatrix::scatter(&x, &ws).unwrap();
        let fp = f.mat_vec(&v).unwrap();
        assert_eq!(fp.rows(), 22);
        assert_eq!(fp.cols(), 1);
        let local = matmult::matmul(&x, &v, 1).unwrap();
        let local_ss = sysds_tensor::kernels::aggregate::aggregate_full(
            sysds_tensor::kernels::AggFn::SumSq,
            &local,
        )
        .unwrap();
        assert!((fp.sum_sq().unwrap() - local_ss).abs() < 1e-9);
        assert!(f.mat_vec(&Matrix::zeros(9, 1)).is_err());
    }

    #[test]
    fn binary_op_between_federated_results() {
        let (x, y) = gen::synthetic_regression(18, 3, 1.0, 0.0, 147);
        let w = gen::rand_uniform(3, 1, -1.0, 1.0, 1.0, 148);
        let ws = workers(3);
        let fx = FederatedMatrix::scatter(&x, &ws).unwrap();
        let fy = FederatedMatrix::scatter(&y, &ws).unwrap();
        let pred = fx.mat_vec(&w).unwrap();
        let resid = pred.binary_op(BinaryOp::Sub, &fy).unwrap();
        let local_pred = matmult::matmul(&x, &w, 1).unwrap();
        let local_resid =
            sysds_tensor::kernels::elementwise::binary_mm(BinaryOp::Sub, &local_pred, &y).unwrap();
        let local_ss = sysds_tensor::kernels::aggregate::aggregate_full(
            sysds_tensor::kernels::AggFn::SumSq,
            &local_resid,
        )
        .unwrap();
        assert!((resid.sum_sq().unwrap() - local_ss).abs() < 1e-9);
    }

    #[test]
    fn col_sums_match_local() {
        let m = gen::rand_uniform(31, 6, 0.0, 1.0, 1.0, 149);
        let ws = workers(4);
        let f = FederatedMatrix::scatter(&m, &ws).unwrap();
        let got = f.col_sums().unwrap();
        let expect = sysds_tensor::kernels::aggregate::aggregate_axis(
            sysds_tensor::kernels::AggFn::Sum,
            sysds_tensor::kernels::Direction::Col,
            &m,
        )
        .unwrap();
        assert!(got.approx_eq(&expect, 1e-9));
    }

    #[test]
    fn free_releases_site_variables() {
        let m = gen::rand_uniform(10, 2, 0.0, 1.0, 1.0, 150);
        let ws = workers(2);
        let f = FederatedMatrix::scatter(&m, &ws).unwrap();
        let vars: Vec<(Arc<dyn Transport>, String)> = f
            .partitions()
            .iter()
            .map(|p| (Arc::clone(&p.worker), p.var.clone()))
            .collect();
        f.free().unwrap();
        for (w, var) in vars {
            assert!(w.request(FedRequest::NumRows { var }).is_err());
        }
    }

    #[test]
    fn from_partitions_validates_ranges() {
        let ws = workers(1);
        let bad = vec![FedPartition {
            row_lo: 5,
            row_hi: 10,
            worker: Arc::clone(&ws[0]),
            var: "x".into(),
        }];
        assert!(FederatedMatrix::from_partitions(2, bad).is_err());
    }

    /// A site that fails every request: with an error, or by panicking.
    #[derive(Debug)]
    struct BrokenSite {
        endpoint: String,
        panics: bool,
    }

    impl Transport for BrokenSite {
        fn exchange(&self, _req: FedRequest) -> Result<FedResponse> {
            if self.panics {
                panic!("{} blew up", self.endpoint);
            }
            Err(SysDsError::Federated(format!("{} failed", self.endpoint)))
        }

        fn endpoint(&self) -> &str {
            &self.endpoint
        }

        fn threads(&self) -> usize {
            1
        }
    }

    /// A federated matrix whose partition `i` lives at `sites[i]`
    /// (`None`: a working in-process site holding real data).
    fn federated_over(sites: Vec<Option<BrokenSite>>) -> FederatedMatrix {
        let partitions = sites
            .into_iter()
            .enumerate()
            .map(|(i, site)| {
                let var = format!("p{i}");
                let worker: Arc<dyn Transport> = match site {
                    Some(broken) => Arc::new(broken),
                    None => Arc::new(WorkerHandle::spawn(
                        vec![(var.clone(), Matrix::zeros(2, 2))],
                        1,
                    )),
                };
                FedPartition {
                    row_lo: 2 * i,
                    row_hi: 2 * i + 2,
                    worker,
                    var,
                }
            })
            .collect();
        FederatedMatrix::from_partitions(2, partitions).unwrap()
    }

    fn broken(name: &str, panics: bool) -> Option<BrokenSite> {
        Some(BrokenSite {
            endpoint: name.into(),
            panics,
        })
    }

    #[test]
    fn lowest_numbered_failure_wins() {
        let f = federated_over(vec![None, broken("site-b", false), broken("site-c", false)]);
        let err = f.tsmm().unwrap_err().to_string();
        assert!(err.contains("site-b failed"), "{err}");
    }

    #[test]
    fn panicking_request_becomes_a_federated_error() {
        for f in [
            federated_over(vec![None, broken("site-p", true)]),
            federated_over(vec![broken("site-p", true), None]),
        ] {
            match f.col_sums() {
                Err(SysDsError::Federated(msg)) => {
                    assert!(msg.contains("site-p blew up"), "{msg}")
                }
                other => panic!("expected a federated error, got {other:?}"),
            }
        }
    }

    #[test]
    fn many_sites_sum_in_partition_order() {
        let m = gen::rand_uniform(640, 6, -1.0, 1.0, 1.0, 151);
        let ws = workers(64);
        let f = FederatedMatrix::scatter(&m, &ws).unwrap();
        assert_eq!(f.num_partitions(), 64);
        let sequential = f
            .partitions()
            .iter()
            .map(|p| {
                p.worker
                    .request_aggregate(FedRequest::Tsmm { var: p.var.clone() })
                    .unwrap()
            })
            .reduce(|a, b| elementwise_add(&a, &b).unwrap())
            .unwrap();
        assert_eq!(f.tsmm().unwrap().to_vec(), sequential.to_vec());
        f.free().unwrap();
    }
}
