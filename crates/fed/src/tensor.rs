//! Federated tensors: metadata objects over row-partitioned remote data.
//!
//! "A federated tensor ... is a metadata object holding multiple references
//! to — potentially remote — in-memory or distributed tensors. Subtensors
//! cover disjoint index ranges of the tensor" (paper §2.4). We implement
//! the row-partitioned 2-D case, which is the one federated learning uses.
//! [`FederatedMatrix::exec`] pushes one row of [`crate::ops`] to all sites
//! at once. Site variables the master creates (by
//! [`FederatedMatrix::scatter`] or as a kept result) are removed at the
//! sites when the last handle drops.

use crate::ops::{FedOp, FedOperand, FedResult};
use crate::transport::Transport;
use crate::worker::{FedRequest, FedResponse};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use sysds_common::error::panic_message;
use sysds_common::{par, Result, SysDsError};
use sysds_tensor::kernels::elementwise::{self, BinaryOp};
use sysds_tensor::kernels::indexing;
use sysds_tensor::Matrix;

static NEXT_VAR: AtomicU64 = AtomicU64::new(0);

fn fresh_var(prefix: &str) -> String {
    format!("__{prefix}_{}", NEXT_VAR.fetch_add(1, Ordering::Relaxed))
}

/// One partition: rows `[row_lo, row_hi)` live at `worker` under `var`.
/// The worker is any [`Transport`] — an in-process site or a TCP site.
#[derive(Debug, Clone)]
pub struct FedPartition {
    pub row_lo: usize,
    pub row_hi: usize,
    pub worker: Arc<dyn Transport>,
    pub var: String,
}

/// A row-partitioned federated matrix. Clones share the partitions.
#[derive(Debug, Clone)]
pub struct FederatedMatrix {
    rows: usize,
    cols: usize,
    sites: Arc<Sites>,
}

/// The partitions of a federated matrix, and whether the master created
/// their site variables (`owned`): then dropping the last handle removes
/// them at the sites.
#[derive(Debug)]
struct Sites {
    partitions: Vec<FedPartition>,
    owned: bool,
}

impl Drop for Sites {
    fn drop(&mut self) {
        if self.owned {
            // Best effort and outside any instruction: a site that cannot
            // be reached has nothing left to free, so errors are ignored
            // and the `Remove` bypasses the request statistics.
            fan_out(&self.partitions, |_, p| {
                p.worker.exchange(FedRequest::Remove { var: p.var.clone() })
            });
        }
    }
}

/// The result of [`FederatedMatrix::exec`], by the row's [`FedResult`].
#[derive(Debug)]
pub enum FedValue {
    Aggregate(Matrix),
    Scalar(f64),
    Federated(FederatedMatrix),
}

/// Each accessor returns an error for another kind of result.
impl FedValue {
    pub fn into_matrix(self) -> Result<Matrix> {
        match self {
            FedValue::Aggregate(m) => Ok(m),
            other => Err(unexpected("an aggregate", &other)),
        }
    }

    pub fn into_scalar(self) -> Result<f64> {
        match self {
            FedValue::Scalar(v) => Ok(v),
            other => Err(unexpected("a scalar", &other)),
        }
    }

    pub fn into_federated(self) -> Result<FederatedMatrix> {
        match self {
            FedValue::Federated(f) => Ok(f),
            other => Err(unexpected("a federated matrix", &other)),
        }
    }
}

fn unexpected(want: &str, got: &FedValue) -> SysDsError {
    SysDsError::Federated(format!("expected {want}, got {got:?}"))
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
                var: fresh_var("fed_part"),
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
            sites: owned(partitions, stored)?,
        })
    }

    /// Assemble from partitions that already live at sites. Ranges must be
    /// contiguous from zero and disjoint ("uncovered areas are zero" is
    /// not needed for the row-partitioned learning case). The master did
    /// not create these variables, so it never removes them.
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
            sites: Arc::new(Sites {
                partitions,
                owned: false,
            }),
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
        self.sites.partitions.len()
    }

    /// Access partition metadata.
    pub fn partitions(&self) -> &[FedPartition] {
        &self.sites.partitions
    }

    /// Run the federated instruction `op` at every site at once. Site `i`
    /// reads this matrix's partition `i`, then partition `i` of each of
    /// `with` (which must be range-aligned with this one), plus the
    /// broadcast `operand`. Aggregates and scalars come back and are added
    /// up at the master in partition order, so sums are bitwise
    /// reproducible however the replies arrive; a result that stays at the
    /// sites becomes a new federated matrix over the same row ranges. If
    /// sites fail, the lowest-numbered site's error is returned, and the
    /// results other sites kept are removed again.
    pub fn exec(
        &self,
        op: &'static FedOp,
        with: &[&FederatedMatrix],
        operand: Option<FedOperand>,
    ) -> Result<FedValue> {
        for other in with {
            self.check_aligned(other)?;
        }
        let request = |i: usize, out: Option<String>| FedRequest::Exec {
            op,
            vars: std::iter::once(self)
                .chain(with.iter().copied())
                .map(|m| m.partitions()[i].var.clone())
                .collect(),
            operand: operand.clone(),
            out,
        };
        let FedResult::Stays { cols } = op.result else {
            // Aggregates and scalars travel back and are added up in
            // partition order, a scalar as a `1 x 1` matrix.
            let parts = fan_out(self.partitions(), |i, p| {
                match p.worker.request(request(i, None))? {
                    FedResponse::Aggregate(m) => Ok(m),
                    FedResponse::Scalar(v) => Ok(Matrix::filled(1, 1, v)),
                    other => Err(SysDsError::Federated(format!(
                        "{}: unexpected reply {other:?}",
                        op.name
                    ))),
                }
            });
            return match (op.result, add_in_order(parts)?) {
                (FedResult::Scalar, sum) => Ok(FedValue::Scalar(sum.map_or(0.0, |m| m.get(0, 0)))),
                (_, Some(sum)) => Ok(FedValue::Aggregate(sum)),
                (_, None) => Err(SysDsError::Federated(format!(
                    "{} over empty federated matrix",
                    op.name
                ))),
            };
        };
        let partitions: Vec<FedPartition> = self
            .partitions()
            .iter()
            .map(|p| FedPartition {
                var: fresh_var(op.name),
                ..p.clone()
            })
            .collect();
        let stored = fan_out(&partitions, |i, p| {
            p.worker.request(request(i, Some(p.var.clone())))
        });
        Ok(FedValue::Federated(FederatedMatrix {
            rows: self.rows,
            cols: cols(self.cols, operand.as_ref()),
            sites: owned(partitions, stored)?,
        }))
    }

    fn check_aligned(&self, other: &FederatedMatrix) -> Result<()> {
        if self.num_partitions() != other.num_partitions()
            || self
                .partitions()
                .iter()
                .zip(other.partitions())
                .any(|(a, b)| {
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

/// Add the per-site matrices up in partition order; the lowest-numbered
/// failure wins. `None` without partitions.
fn add_in_order(parts: Vec<Result<Matrix>>) -> Result<Option<Matrix>> {
    let mut acc = None;
    for part in parts {
        let part = part?;
        acc = Some(match acc {
            None => part,
            Some(a) => elementwise::binary_mm(BinaryOp::Add, &a, &part)?,
        });
    }
    Ok(acc)
}

/// Issue `request(i, partition)` for every partition at the same time
/// and return the results in partition order (through
/// [`sysds_common::par::map`], so partition 0 runs on the calling thread).
/// Every request re-enters the caller's span context, so its `federated`
/// spans keep their parent instruction and worker tag. A panicking request
/// becomes a [`SysDsError::Federated`] error for its partition.
fn fan_out<T: Send>(
    partitions: &[FedPartition],
    request: impl Fn(usize, &FedPartition) -> Result<T> + Sync,
) -> Vec<Result<T>> {
    let ctx = sysds_obs::SpanContext::current();
    par::map(partitions.iter().enumerate().collect(), |(i, p)| {
        let _ctx = ctx.enter();
        std::panic::catch_unwind(AssertUnwindSafe(|| request(i, p))).unwrap_or_else(|payload| {
            let msg = panic_message(payload.as_ref()).unwrap_or("unknown panic");
            Err(SysDsError::Federated(format!(
                "request to {} panicked: {msg}",
                p.worker.endpoint()
            )))
        })
    })
}

/// The sites of variables the master just stored (`stored[i]` answers
/// partition `i`). If a site failed, the variables the others stored are
/// removed again, as their owner drops, and the lowest-numbered site's
/// error is returned.
fn owned(partitions: Vec<FedPartition>, stored: Vec<Result<FedResponse>>) -> Result<Arc<Sites>> {
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
    let sites = Arc::new(Sites {
        partitions: kept,
        owned: true,
    });
    match first_err {
        None => Ok(sites),
        Some(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use crate::worker::WorkerHandle;
    use sysds_tensor::kernels::{aggregate, gen, matmult, reorg, tsmm as local_tsmm};
    use sysds_tensor::kernels::{AggFn, Direction};

    fn workers(n: usize) -> Vec<Arc<dyn Transport>> {
        (0..n)
            .map(|_| Arc::new(WorkerHandle::spawn(vec![], 1)) as Arc<dyn Transport>)
            .collect()
    }

    fn nrows(w: &Arc<dyn Transport>, var: &str) -> Result<f64> {
        let req = FedRequest::Exec {
            op: &ops::NROWS,
            vars: vec![var.into()],
            operand: None,
            out: None,
        };
        match w.request(req)? {
            FedResponse::Scalar(v) => Ok(v),
            other => panic!("expected a scalar, got {other:?}"),
        }
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
        let got = f
            .exec(&ops::TSMM, &[], None)
            .unwrap()
            .into_matrix()
            .unwrap();
        assert!(got.approx_eq(&local_tsmm::tsmm(&m, 1, false), 1e-9));
    }

    #[test]
    fn federated_tmv_matches_local() {
        let (x, y) = gen::synthetic_regression(30, 4, 1.0, 0.2, 143);
        let ws = workers(3);
        let fx = FederatedMatrix::scatter(&x, &ws).unwrap();
        let fy = FederatedMatrix::scatter(&y, &ws).unwrap();
        let got = fx.exec(&ops::TMV, &[&fy], None).unwrap();
        let expect = matmult::matmul(&reorg::transpose(&x, 1), &y, 1).unwrap();
        assert!(got.into_matrix().unwrap().approx_eq(&expect, 1e-9));
    }

    #[test]
    fn misaligned_operands_rejected() {
        let x = gen::rand_uniform(20, 3, -1.0, 1.0, 1.0, 144);
        let ws2 = workers(2);
        let ws3 = workers(3);
        let fa = FederatedMatrix::scatter(&x, &ws2).unwrap();
        let fb = FederatedMatrix::scatter(&x, &ws3).unwrap();
        assert!(fa.exec(&ops::TMV, &[&fb], None).is_err());
    }

    #[test]
    fn mat_vec_stays_federated_and_aggregates_match() {
        let x = gen::rand_uniform(22, 4, -1.0, 1.0, 1.0, 145);
        let v = gen::rand_uniform(4, 1, -1.0, 1.0, 1.0, 146);
        let ws = workers(2);
        let f = FederatedMatrix::scatter(&x, &ws).unwrap();
        let mat_vec = |v: &Matrix| f.exec(&ops::MATVEC, &[], Some(FedOperand::Matrix(v.clone())));
        let fp = mat_vec(&v).unwrap().into_federated().unwrap();
        assert_eq!(fp.rows(), 22);
        assert_eq!(fp.cols(), 1);
        let local = matmult::matmul(&x, &v, 1).unwrap();
        let local_ss = aggregate::aggregate_full(AggFn::SumSq, &local).unwrap();
        let ss = fp.exec(&ops::SUM_SQ, &[], None).unwrap().into_scalar();
        assert!((ss.unwrap() - local_ss).abs() < 1e-9);
        assert!(mat_vec(&Matrix::zeros(9, 1)).is_err());
    }

    #[test]
    fn binary_op_between_federated_results() {
        let (x, y) = gen::synthetic_regression(18, 3, 1.0, 0.0, 147);
        let w = gen::rand_uniform(3, 1, -1.0, 1.0, 1.0, 148);
        let ws = workers(3);
        let fx = FederatedMatrix::scatter(&x, &ws).unwrap();
        let fy = FederatedMatrix::scatter(&y, &ws).unwrap();
        let pred = fx.exec(&ops::MATVEC, &[], Some(FedOperand::Matrix(w.clone())));
        let pred = pred.unwrap().into_federated().unwrap();
        let resid = pred
            .exec(&ops::BINARY_OP, &[&fy], Some(FedOperand::Op(BinaryOp::Sub)))
            .unwrap()
            .into_federated()
            .unwrap();
        let local_pred = matmult::matmul(&x, &w, 1).unwrap();
        let local_resid = elementwise::binary_mm(BinaryOp::Sub, &local_pred, &y).unwrap();
        let local_ss = aggregate::aggregate_full(AggFn::SumSq, &local_resid).unwrap();
        let ss = resid.exec(&ops::SUM_SQ, &[], None).unwrap().into_scalar();
        assert!((ss.unwrap() - local_ss).abs() < 1e-9);
    }

    #[test]
    fn col_sums_match_local() {
        let m = gen::rand_uniform(31, 6, 0.0, 1.0, 1.0, 149);
        let ws = workers(4);
        let f = FederatedMatrix::scatter(&m, &ws).unwrap();
        let got = f.exec(&ops::COL_SUMS, &[], None).unwrap();
        let expect = aggregate::aggregate_axis(AggFn::Sum, Direction::Col, &m).unwrap();
        assert!(got.into_matrix().unwrap().approx_eq(&expect, 1e-9));
    }

    #[test]
    fn free_releases_site_variables() {
        // Dropping the last handle frees what the master created; a clone
        // keeps the variables alive, and so does assembling a matrix over
        // them with `from_partitions`.
        let m = gen::rand_uniform(10, 2, 0.0, 1.0, 1.0, 150);
        let ws = workers(2);
        let f = FederatedMatrix::scatter(&m, &ws).unwrap();
        let vars: Vec<(Arc<dyn Transport>, String)> = f
            .partitions()
            .iter()
            .map(|p| (Arc::clone(&p.worker), p.var.clone()))
            .collect();
        let clone = f.clone();
        drop(f);
        let borrowed = FederatedMatrix::from_partitions(2, clone.partitions().to_vec()).unwrap();
        for (w, var) in &vars {
            assert_eq!(nrows(w, var).unwrap(), 5.0);
        }
        drop(clone);
        for (w, var) in &vars {
            let err = nrows(w, var).unwrap_err().to_string();
            assert!(err.contains("unknown federated variable"), "{err}");
        }
        // Dropping site-resident partitions sends nothing.
        ws[0]
            .request(FedRequest::Put {
                var: "site".into(),
                data: Matrix::zeros(3, 2),
            })
            .unwrap();
        let resident = FederatedMatrix::from_partitions(
            2,
            vec![FedPartition {
                row_lo: 0,
                row_hi: 3,
                worker: Arc::clone(&ws[0]),
                var: "site".into(),
            }],
        )
        .unwrap();
        drop((resident, borrowed));
        assert_eq!(nrows(&ws[0], "site").unwrap(), 3.0);
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
        let err = f.exec(&ops::TSMM, &[], None).unwrap_err().to_string();
        assert!(err.contains("site-b failed"), "{err}");
    }

    #[test]
    fn panicking_request_becomes_a_federated_error() {
        for f in [
            federated_over(vec![None, broken("site-p", true)]),
            federated_over(vec![broken("site-p", true), None]),
        ] {
            match f.exec(&ops::COL_SUMS, &[], None) {
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
                let req = FedRequest::Exec {
                    op: &ops::TSMM,
                    vars: vec![p.var.clone()],
                    operand: None,
                    out: None,
                };
                match p.worker.request(req).unwrap() {
                    FedResponse::Aggregate(m) => m,
                    other => panic!("expected an aggregate, got {other:?}"),
                }
            })
            .reduce(|a, b| elementwise::binary_mm(BinaryOp::Add, &a, &b).unwrap())
            .unwrap();
        let got = f.exec(&ops::TSMM, &[], None).unwrap().into_matrix();
        assert_eq!(got.unwrap().to_vec(), sequential.to_vec());
    }
}
