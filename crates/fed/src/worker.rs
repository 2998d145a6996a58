//! Federated site workers and the request/response protocol.
//!
//! A worker owns named local matrices and executes *federated instructions*
//! pushed down by the master. Every response is an aggregate (its size
//! depends only on column counts or is scalar) — the protocol has no
//! "return your rows" request, which is how the exchange constraint of
//! paper §3.3 is kept by construction.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::thread::JoinHandle;
use sysds_common::error::panic_message;
use sysds_common::{Result, SysDsError};
use sysds_tensor::kernels::{aggregate, elementwise, matmult, matvec, tsmm};
use sysds_tensor::kernels::{AggFn, BinaryOp, Direction};
use sysds_tensor::Matrix;

/// Instructions the master can push to a federated site.
///
/// `Clone` because networked transports re-send requests on retry; the
/// mutating variants stay retry-safe through site-side request-id
/// deduplication (see `sysds-net`).
#[derive(Debug, Clone)]
pub enum FedRequest {
    /// Store a matrix under a variable id (site-side data loading).
    Put { var: String, data: Matrix },
    /// Drop a variable.
    Remove { var: String },
    /// Fused `t(X) %*% X` over the local partition → `cols x cols`.
    Tsmm { var: String },
    /// Fused `t(X) %*% y` with both operands local → `cols x 1`.
    Tmv { x: String, y: String },
    /// `X %*% v` with a broadcast `v`; result *stays at the site* under
    /// `out` (it is row-partitioned data, so it may not travel).
    MatVecKeep { var: String, v: Matrix, out: String },
    /// Element-wise op with a broadcast scalar, kept at the site.
    ScalarOpKeep {
        var: String,
        op: BinaryOp,
        scalar: f64,
        out: String,
    },
    /// Element-wise op between two local variables, kept at the site.
    BinaryOpKeep {
        lhs: String,
        rhs: String,
        op: BinaryOp,
        out: String,
    },
    /// Column sums of a local variable → `1 x cols` aggregate.
    ColSums { var: String },
    /// Full sum of squares (e.g. local residual norms) → scalar.
    SumSq { var: String },
    /// Local row count → scalar.
    NumRows { var: String },
    /// Gradient of squared loss at broadcast weights:
    /// `t(X) %*% (X w - y)` → `cols x 1` aggregate.
    LinRegGradient { x: String, y: String, w: Matrix },
    /// Liveness probe; answered with [`FedResponse::Ok`] without touching
    /// any site state (used by heartbeat health checks).
    Ping,
    /// Stop the worker loop.
    Shutdown,
}

/// Responses: aggregates only.
#[derive(Debug, Clone)]
pub enum FedResponse {
    Ok,
    Aggregate(Matrix),
    Scalar(f64),
    Error(String),
}

impl FedRequest {
    /// Stable opcode used in statistics and trace records.
    pub fn opcode(&self) -> &'static str {
        match self {
            FedRequest::Put { .. } => "fed_put",
            FedRequest::Remove { .. } => "fed_remove",
            FedRequest::Tsmm { .. } => "fed_tsmm",
            FedRequest::Tmv { .. } => "fed_tmv",
            FedRequest::MatVecKeep { .. } => "fed_matvec",
            FedRequest::ScalarOpKeep { .. } => "fed_scalar_op",
            FedRequest::BinaryOpKeep { .. } => "fed_binary_op",
            FedRequest::ColSums { .. } => "fed_colsums",
            FedRequest::SumSq { .. } => "fed_sumsq",
            FedRequest::NumRows { .. } => "fed_nrows",
            FedRequest::LinRegGradient { .. } => "fed_linreg_grad",
            FedRequest::Ping => "fed_ping",
            FedRequest::Shutdown => "fed_shutdown",
        }
    }

    /// Whether a replay of this request is observably identical to a single
    /// delivery *without* site-side deduplication. Read-only requests are;
    /// mutating requests (`Put`, `Remove`, `*Keep`) need the request-id
    /// dedup cache a networked server keeps.
    pub fn idempotent(&self) -> bool {
        matches!(
            self,
            FedRequest::Tsmm { .. }
                | FedRequest::Tmv { .. }
                | FedRequest::ColSums { .. }
                | FedRequest::SumSq { .. }
                | FedRequest::NumRows { .. }
                | FedRequest::LinRegGradient { .. }
                | FedRequest::Ping
                | FedRequest::Shutdown
        )
    }
}

/// A request, the master's span context it was sent under (so the site's
/// span links to the master's request span) and the reply channel.
type Envelope = (FedRequest, sysds_obs::SpanContext, Sender<FedResponse>);

/// Logical site ids for worker attribution in traces.
static NEXT_SITE_ID: AtomicU64 = AtomicU64::new(0);

/// The master-side handle to one federated site running as an in-process
/// thread (the channel transport).
#[derive(Debug)]
pub struct WorkerHandle {
    tx: Sender<Envelope>,
    join: Option<JoinHandle<()>>,
    threads: usize,
    endpoint: String,
}

impl WorkerHandle {
    /// Spawn a site worker with initial local variables.
    pub fn spawn(initial: Vec<(String, Matrix)>, threads: usize) -> WorkerHandle {
        let (tx, rx) = channel::<Envelope>();
        let site_id = NEXT_SITE_ID.fetch_add(1, Ordering::Relaxed);
        let join = std::thread::spawn(move || {
            let mut vars: HashMap<String, Matrix> = initial.into_iter().collect();
            while let Ok((req, master, reply)) = rx.recv() {
                if matches!(req, FedRequest::Shutdown) {
                    let _ = reply.send(FedResponse::Ok);
                    break;
                }
                let resp = {
                    let _parent = master.enter();
                    let _worker = sysds_obs::set_worker(site_id);
                    execute_request(&mut vars, req, threads)
                };
                let _ = reply.send(resp);
            }
        });
        WorkerHandle {
            tx,
            join: Some(join),
            threads,
            endpoint: format!("inproc://site-{site_id}"),
        }
    }
}

impl crate::transport::Transport for WorkerHandle {
    fn exchange(&self, req: FedRequest) -> Result<FedResponse> {
        let (rtx, rrx) = channel();
        self.tx
            .send((req, sysds_obs::SpanContext::current(), rtx))
            .map_err(|_| SysDsError::Federated("worker channel closed".into()))?;
        rrx.recv()
            .map_err(|_| SysDsError::Federated("worker died before responding".into()))
    }

    fn endpoint(&self) -> &str {
        &self.endpoint
    }

    fn threads(&self) -> usize {
        self.threads
    }
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        let (rtx, _rrx) = channel();
        let _ = self
            .tx
            .send((FedRequest::Shutdown, sysds_obs::SpanContext::default(), rtx));
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

fn get<'a>(vars: &'a HashMap<String, Matrix>, var: &str) -> Result<&'a Matrix> {
    vars.get(var)
        .ok_or_else(|| SysDsError::Federated(format!("unknown federated variable '{var}'")))
}

/// Execute one request against a site's variable map, never panicking:
/// kernel errors *and* kernel panics both become [`FedResponse::Error`]
/// replies so a malformed request cannot kill the site. Shared by the
/// in-process worker loop and the TCP daemon in `sysds-net`.
pub fn execute_request(
    vars: &mut HashMap<String, Matrix>,
    req: FedRequest,
    threads: usize,
) -> FedResponse {
    let _span = sysds_obs::Span::enter(sysds_obs::Phase::Federated, req.opcode());
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| execute(vars, req, threads))) {
        Ok(Ok(resp)) => resp,
        Ok(Err(e)) => FedResponse::Error(e.to_string()),
        Err(payload) => {
            let msg = panic_message(payload.as_ref()).unwrap_or("site kernel panicked");
            FedResponse::Error(format!("site panic: {msg}"))
        }
    }
}

fn execute(
    vars: &mut HashMap<String, Matrix>,
    req: FedRequest,
    threads: usize,
) -> Result<FedResponse> {
    Ok(match req {
        FedRequest::Put { var, data } => {
            vars.insert(var, data);
            FedResponse::Ok
        }
        FedRequest::Remove { var } => {
            vars.remove(&var);
            FedResponse::Ok
        }
        FedRequest::Tsmm { var } => {
            let x = get(vars, &var)?;
            FedResponse::Aggregate(tsmm::tsmm(x, threads, true))
        }
        FedRequest::Tmv { x, y } => {
            let xv = get(vars, &x)?;
            let yv = get(vars, &y)?;
            FedResponse::Aggregate(tsmm::tmv(xv, yv, threads)?)
        }
        FedRequest::MatVecKeep { var, v, out } => {
            let x = get(vars, &var)?;
            let r = matmult::matmul(x, &v, threads)?;
            vars.insert(out, r);
            FedResponse::Ok
        }
        FedRequest::ScalarOpKeep {
            var,
            op,
            scalar,
            out,
        } => {
            let x = get(vars, &var)?;
            let r = elementwise::binary_ms(op, x, scalar);
            vars.insert(out, r);
            FedResponse::Ok
        }
        FedRequest::BinaryOpKeep { lhs, rhs, op, out } => {
            let a = get(vars, &lhs)?;
            let b = get(vars, &rhs)?;
            let r = elementwise::binary_mm(op, a, b)?;
            vars.insert(out, r);
            FedResponse::Ok
        }
        FedRequest::ColSums { var } => {
            let x = get(vars, &var)?;
            FedResponse::Aggregate(aggregate::aggregate_axis(AggFn::Sum, Direction::Col, x)?)
        }
        FedRequest::SumSq { var } => {
            let x = get(vars, &var)?;
            FedResponse::Scalar(aggregate::aggregate_full(AggFn::SumSq, x)?)
        }
        FedRequest::NumRows { var } => FedResponse::Scalar(get(vars, &var)?.rows() as f64),
        FedRequest::LinRegGradient { x, y, w } => {
            let xv = get(vars, &x)?;
            let yv = get(vars, &y)?;
            FedResponse::Aggregate(matvec::mmchain(xv, &w, Some(yv), threads)?)
        }
        FedRequest::Ping | FedRequest::Shutdown => FedResponse::Ok,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Transport;
    use sysds_tensor::kernels::{gen, reorg};

    #[test]
    fn put_tsmm_round_trip() {
        let x = gen::rand_uniform(20, 4, -1.0, 1.0, 1.0, 131);
        let w = WorkerHandle::spawn(vec![("X".into(), x.clone())], 2);
        let g = w
            .request_aggregate(FedRequest::Tsmm { var: "X".into() })
            .unwrap();
        let expect = matmult::matmul(&reorg::transpose(&x, 1), &x, 1).unwrap();
        assert!(g.approx_eq(&expect, 1e-9));
    }

    #[test]
    fn unknown_variable_is_error() {
        let w = WorkerHandle::spawn(vec![], 1);
        assert!(w
            .request(FedRequest::Tsmm {
                var: "missing".into()
            })
            .is_err());
    }

    #[test]
    fn matvec_keeps_result_at_site() {
        let x = gen::rand_uniform(10, 3, -1.0, 1.0, 1.0, 132);
        let v = gen::rand_uniform(3, 1, -1.0, 1.0, 1.0, 133);
        let w = WorkerHandle::spawn(vec![("X".into(), x.clone())], 1);
        w.request(FedRequest::MatVecKeep {
            var: "X".into(),
            v: v.clone(),
            out: "P".into(),
        })
        .unwrap();
        // The site can aggregate over P, proving it exists locally.
        let ss = w
            .request_scalar(FedRequest::SumSq { var: "P".into() })
            .unwrap();
        let local = matmult::matmul(&x, &v, 1).unwrap();
        let expect = aggregate::aggregate_full(AggFn::SumSq, &local).unwrap();
        assert!((ss - expect).abs() < 1e-9);
    }

    #[test]
    fn gradient_matches_local_computation() {
        let (x, y) = gen::synthetic_regression(30, 4, 1.0, 0.1, 134);
        let wvec = gen::rand_uniform(4, 1, -1.0, 1.0, 1.0, 135);
        let site = WorkerHandle::spawn(vec![("X".into(), x.clone()), ("y".into(), y.clone())], 2);
        let g = site
            .request_aggregate(FedRequest::LinRegGradient {
                x: "X".into(),
                y: "y".into(),
                w: wvec.clone(),
            })
            .unwrap();
        let pred = matmult::matmul(&x, &wvec, 1).unwrap();
        let resid = elementwise::binary_mm(BinaryOp::Sub, &pred, &y).unwrap();
        let expect = tsmm::tmv(&x, &resid, 1).unwrap();
        assert!(g.approx_eq(&expect, 1e-9));
    }

    #[test]
    fn put_remove_lifecycle() {
        let w = WorkerHandle::spawn(vec![], 1);
        w.request(FedRequest::Put {
            var: "A".into(),
            data: Matrix::filled(2, 2, 1.0),
        })
        .unwrap();
        assert_eq!(
            w.request_scalar(FedRequest::NumRows { var: "A".into() })
                .unwrap(),
            2.0
        );
        w.request(FedRequest::Remove { var: "A".into() }).unwrap();
        assert!(w.request(FedRequest::NumRows { var: "A".into() }).is_err());
    }

    #[test]
    fn colsums_aggregate() {
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let w = WorkerHandle::spawn(vec![("X".into(), x)], 1);
        let cs = w
            .request_aggregate(FedRequest::ColSums { var: "X".into() })
            .unwrap();
        assert_eq!(cs.to_vec(), vec![4.0, 6.0]);
    }

    #[test]
    fn worker_survives_errors() {
        let w = WorkerHandle::spawn(vec![("X".into(), Matrix::zeros(2, 2))], 1);
        assert!(w.request(FedRequest::Tsmm { var: "nope".into() }).is_err());
        // still serving afterwards
        assert!(w.request(FedRequest::Tsmm { var: "X".into() }).is_ok());
    }

    #[test]
    fn ping_answers_ok() {
        let w = WorkerHandle::spawn(vec![], 1);
        w.ping().unwrap();
        assert!(w.endpoint().starts_with("inproc://site-"));
    }

    #[test]
    fn endpoints_are_distinct_per_site() {
        let a = WorkerHandle::spawn(vec![], 1);
        let b = WorkerHandle::spawn(vec![], 1);
        assert_ne!(a.endpoint(), b.endpoint());
    }

    #[test]
    fn idempotence_classification() {
        assert!(FedRequest::Tsmm { var: "x".into() }.idempotent());
        assert!(FedRequest::Ping.idempotent());
        assert!(!FedRequest::Put {
            var: "x".into(),
            data: Matrix::zeros(1, 1)
        }
        .idempotent());
        assert!(!FedRequest::Remove { var: "x".into() }.idempotent());
    }

    #[test]
    fn execute_request_catches_panics() {
        let mut vars: HashMap<String, Matrix> = HashMap::new();
        let resp = execute_request(&mut vars, FedRequest::Tsmm { var: "gone".into() }, 1);
        assert!(matches!(resp, FedResponse::Error(_)));
        let panics = std::panic::catch_unwind(|| {
            let mut vars: HashMap<String, Matrix> = HashMap::new();
            execute_request(&mut vars, FedRequest::Ping, 1)
        });
        assert!(panics.is_ok());
    }
}
