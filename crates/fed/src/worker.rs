//! Federated sites and the request/response protocol.
//!
//! A [`Site`] owns named local matrices and runs the *federated
//! instructions* the master pushes down: [`FedRequest::Exec`] runs one row
//! of [`crate::ops`]. [`Site::respond`], shared by the in-process site
//! called directly ([`WorkerHandle`]) and the TCP daemon in `sysds-net`, is
//! the one place a reply leaves a site; it checks every `Exec` against its
//! row first, so row-partitioned results stay.

use crate::ops::{FedOp, FedOperand, FedResult};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use sysds_common::error::panic_message;
use sysds_common::sync::lock;
use sysds_common::{Result, SysDsError};
use sysds_tensor::Matrix;

/// Requests the master can send to a federated site.
///
/// `Clone` because networked transports re-send requests on retry; the
/// mutating ones stay retry-safe through site-side request-id
/// deduplication (see `sysds-net`).
#[derive(Debug, Clone)]
pub enum FedRequest {
    /// Store a matrix under a variable id (site-side data loading).
    Put { var: String, data: Matrix },
    /// Drop a variable.
    Remove { var: String },
    /// Run the federated instruction `op` over the site variables `vars`
    /// with the broadcast `operand`. A result that stays at the site is
    /// stored under `out`, which is present exactly then.
    Exec {
        op: &'static FedOp,
        vars: Vec<String>,
        operand: Option<FedOperand>,
        out: Option<String>,
    },
    /// Liveness probe, answered with [`FedResponse::Ok`].
    Ping,
    /// Stop a TCP site daemon. An in-process site is called directly and
    /// has nothing to stop; it answers [`FedResponse::Ok`].
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
            FedRequest::Exec { op, .. } => op.name,
            FedRequest::Ping => "fed_ping",
            FedRequest::Shutdown => "fed_shutdown",
        }
    }

    /// Whether a replay of this request is observably identical to a single
    /// delivery *without* site-side deduplication: every request except
    /// `Put`, `Remove` and an `Exec` that stores its result under `out`.
    /// Those need the request-id dedup cache a networked server keeps.
    pub fn idempotent(&self) -> bool {
        !matches!(
            self,
            FedRequest::Put { .. }
                | FedRequest::Remove { .. }
                | FedRequest::Exec { out: Some(_), .. }
        )
    }
}

/// One federated site (paper §3.3): the local variables it owns, the
/// thread count of its kernels and its id, the worker tag its spans carry.
/// [`WorkerHandle`] calls it directly; the TCP daemon in `sysds-net` calls
/// it for every request it receives. Requests to one site run one at a
/// time, under the lock on its variables.
pub struct Site {
    vars: Mutex<HashMap<String, Matrix>>,
    threads: usize,
    id: u64,
}

impl Site {
    /// A site holding the `initial` variables, running its kernels on
    /// `threads` threads.
    pub fn new(initial: Vec<(String, Matrix)>, threads: usize) -> Site {
        // Parfor worker ids index concurrently running threads, which Linux
        // caps at 2^22 (`PID_MAX_LIMIT`). Site ids start above that, so a
        // site and a parfor worker never share a trace row.
        static NEXT_ID: AtomicU64 = AtomicU64::new(1 << 22);
        Site {
            vars: Mutex::new(initial.into_iter().collect()),
            threads: threads.max(1),
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Answer one request on the calling thread, its spans tagged with the
    /// site's id. Never panics: kernel errors *and* kernel panics both
    /// become [`FedResponse::Error`] replies, so a malformed request cannot
    /// kill the site.
    pub fn respond(&self, req: FedRequest) -> FedResponse {
        let _worker = sysds_obs::set_worker(self.id);
        let mut vars = lock(&self.vars);
        execute_request(&mut vars, req, self.threads)
    }
}

/// The master-side handle to an in-process site, called directly.
pub struct WorkerHandle {
    site: Site,
    endpoint: String,
}

impl WorkerHandle {
    /// A new in-process site with initial local variables.
    pub fn spawn(initial: Vec<(String, Matrix)>, threads: usize) -> WorkerHandle {
        let site = Site::new(initial, threads);
        let endpoint = format!("inproc://site-{}", site.id);
        WorkerHandle { site, endpoint }
    }
}

impl std::fmt::Debug for WorkerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerHandle")
            .field("endpoint", &self.endpoint)
            .finish()
    }
}

impl crate::transport::Transport for WorkerHandle {
    fn exchange(&self, req: FedRequest) -> Result<FedResponse> {
        Ok(self.site.respond(req))
    }

    fn endpoint(&self) -> &str {
        &self.endpoint
    }
}

fn get<'a>(vars: &'a HashMap<String, Matrix>, var: &str) -> Result<&'a Matrix> {
    vars.get(var)
        .ok_or_else(|| SysDsError::Federated(format!("unknown federated variable '{var}'")))
}

/// Execute one request against a site's variable map (see
/// [`Site::respond`]). A `Remove` is the master's best-effort cleanup when
/// a federated matrix drops, outside any instruction, so neither end
/// traces it.
fn execute_request(
    vars: &mut HashMap<String, Matrix>,
    req: FedRequest,
    threads: usize,
) -> FedResponse {
    let _span = (!matches!(req, FedRequest::Remove { .. }))
        .then(|| sysds_obs::Span::enter(sysds_obs::Phase::Federated, req.opcode()));
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
        FedRequest::Exec {
            op,
            vars: names,
            operand,
            out,
        } => {
            op.check(names.len(), operand.as_ref(), out.is_some())?;
            let inputs = names
                .iter()
                .map(|n| get(vars, n))
                .collect::<Result<Vec<_>>>()?;
            let result = (op.kernel)(&inputs, operand.as_ref(), threads)?;
            match (op.result, out) {
                (FedResult::Stays { .. }, Some(out)) => {
                    vars.insert(out, result);
                    FedResponse::Ok
                }
                (FedResult::Aggregate, None) => FedResponse::Aggregate(result),
                (FedResult::Scalar, None) => FedResponse::Scalar(result.get(0, 0)),
                _ => unreachable!("FedOp::check pairs `out` with a result that stays"),
            }
        }
        FedRequest::Ping | FedRequest::Shutdown => FedResponse::Ok,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{self, FedOperand};
    use crate::transport::Transport;
    use std::sync::Barrier;
    use sysds_tensor::kernels::{aggregate, elementwise, matmult, reorg, tsmm};
    use sysds_tensor::kernels::{gen, AggFn, BinaryOp};

    /// An `Exec` of `op` over `vars` without operand or `out`.
    fn exec(op: &'static FedOp, vars: &[&str]) -> FedRequest {
        FedRequest::Exec {
            op,
            vars: vars.iter().map(|v| v.to_string()).collect(),
            operand: None,
            out: None,
        }
    }

    fn aggregate(w: &WorkerHandle, req: FedRequest) -> Matrix {
        match w.request(req).unwrap() {
            FedResponse::Aggregate(m) => m,
            other => panic!("expected an aggregate, got {other:?}"),
        }
    }

    fn scalar(w: &WorkerHandle, req: FedRequest) -> f64 {
        match w.request(req).unwrap() {
            FedResponse::Scalar(v) => v,
            other => panic!("expected a scalar, got {other:?}"),
        }
    }

    #[test]
    fn put_tsmm_round_trip() {
        let x = gen::rand_uniform(20, 4, -1.0, 1.0, 1.0, 131);
        let w = WorkerHandle::spawn(vec![("X".into(), x.clone())], 2);
        let g = aggregate(&w, exec(&ops::TSMM, &["X"]));
        let expect = matmult::matmul(&reorg::transpose(&x, 1), &x, 1).unwrap();
        assert!(g.approx_eq(&expect, 1e-9));
    }

    #[test]
    fn unknown_variable_is_error() {
        let w = WorkerHandle::spawn(vec![], 1);
        assert!(w.request(exec(&ops::TSMM, &["missing"])).is_err());
    }

    #[test]
    fn matvec_keeps_result_at_site() {
        let x = gen::rand_uniform(10, 3, -1.0, 1.0, 1.0, 132);
        let v = gen::rand_uniform(3, 1, -1.0, 1.0, 1.0, 133);
        let w = WorkerHandle::spawn(vec![("X".into(), x.clone())], 1);
        let resp = w
            .request(FedRequest::Exec {
                op: &ops::MATVEC,
                vars: vec!["X".into()],
                operand: Some(FedOperand::Matrix(v.clone())),
                out: Some("P".into()),
            })
            .unwrap();
        assert!(matches!(resp, FedResponse::Ok), "{resp:?}");
        // The site can aggregate over P, proving it exists locally.
        let ss = scalar(&w, exec(&ops::SUM_SQ, &["P"]));
        let local = matmult::matmul(&x, &v, 1).unwrap();
        let expect = aggregate::aggregate_full(AggFn::SumSq, &local).unwrap();
        assert!((ss - expect).abs() < 1e-9);
    }

    #[test]
    fn gradient_matches_local_computation() {
        let (x, y) = gen::synthetic_regression(30, 4, 1.0, 0.1, 134);
        let wvec = gen::rand_uniform(4, 1, -1.0, 1.0, 1.0, 135);
        let site = WorkerHandle::spawn(vec![("X".into(), x.clone()), ("y".into(), y.clone())], 2);
        let g = aggregate(
            &site,
            FedRequest::Exec {
                op: &ops::MMCHAIN,
                vars: vec!["X".into(), "y".into()],
                operand: Some(FedOperand::Matrix(wvec.clone())),
                out: None,
            },
        );
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
        assert_eq!(scalar(&w, exec(&ops::NROWS, &["A"])), 2.0);
        w.request(FedRequest::Remove { var: "A".into() }).unwrap();
        assert!(w.request(exec(&ops::NROWS, &["A"])).is_err());
    }

    #[test]
    fn colsums_aggregate() {
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let w = WorkerHandle::spawn(vec![("X".into(), x)], 1);
        let cs = aggregate(&w, exec(&ops::COL_SUMS, &["X"]));
        assert_eq!(cs.to_vec(), vec![4.0, 6.0]);
    }

    #[test]
    fn worker_survives_errors() {
        let w = WorkerHandle::spawn(vec![("X".into(), Matrix::zeros(2, 2))], 1);
        assert!(w.request(exec(&ops::TSMM, &["nope"])).is_err());
        // A row-partitioned result without `out` is refused, not sent.
        let err = w.request(exec(&ops::SCALAR_OP, &["X"])).unwrap_err();
        assert!(err.to_string().contains("fed_scalar_op"), "{err}");
        // still serving afterwards
        assert!(w.request(exec(&ops::TSMM, &["X"])).is_ok());
    }

    /// Each caller `k` stores `X{k}`, keeps `Y{k} = X{k} * (k + 2)` and
    /// asks for `t(Y{k}) %*% Y{k}`; `together` holds the callers between
    /// their `Put` and the rest.
    fn caller(w: &WorkerHandle, k: usize, x: &Matrix, together: &Barrier) -> Matrix {
        let (xk, yk) = (format!("X{k}"), format!("Y{k}"));
        w.request(FedRequest::Put {
            var: xk.clone(),
            data: x.clone(),
        })
        .unwrap();
        together.wait();
        w.request(FedRequest::Exec {
            op: &ops::SCALAR_OP,
            vars: vec![xk],
            operand: Some(FedOperand::Scalar(BinaryOp::Mul, k as f64 + 2.0)),
            out: Some(yk.clone()),
        })
        .unwrap();
        aggregate(w, exec(&ops::TSMM, &[&yk]))
    }

    #[test]
    fn concurrent_callers_get_the_serial_results() {
        let xs: Vec<Matrix> = (0..6)
            .map(|k| gen::rand_uniform(40, 5, -1.0, 1.0, 1.0, 140 + k))
            .collect();
        let serial = WorkerHandle::spawn(vec![], 2);
        let alone = Barrier::new(1);
        let expect: Vec<Matrix> = (0..xs.len())
            .map(|k| caller(&serial, k, &xs[k], &alone))
            .collect();

        let shared = WorkerHandle::spawn(vec![], 2);
        let together = Barrier::new(xs.len());
        let got = sysds_common::par::map((0..xs.len()).collect(), |k| {
            caller(&shared, k, &xs[k], &together)
        });
        for (k, (g, e)) in got.iter().zip(&expect).enumerate() {
            assert_eq!(g.to_vec(), e.to_vec(), "caller {k}");
            assert_eq!(
                scalar(&shared, exec(&ops::NROWS, &[&format!("X{k}")])),
                40.0
            );
        }
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
        assert!(exec(&ops::TSMM, &["x"]).idempotent());
        assert!(FedRequest::Ping.idempotent());
        assert!(!FedRequest::Put {
            var: "x".into(),
            data: Matrix::zeros(1, 1)
        }
        .idempotent());
        assert!(!FedRequest::Remove { var: "x".into() }.idempotent());
        assert!(!FedRequest::Exec {
            op: &ops::SCALAR_OP,
            vars: vec!["x".into()],
            operand: Some(FedOperand::Scalar(BinaryOp::Mul, 2.0)),
            out: Some("y".into()),
        }
        .idempotent());
    }

    #[test]
    fn execute_request_catches_panics() {
        let mut vars: HashMap<String, Matrix> = HashMap::new();
        let resp = execute_request(&mut vars, exec(&ops::TSMM, &["gone"]), 1);
        assert!(matches!(resp, FedResponse::Error(_)));
        let panics = std::panic::catch_unwind(|| {
            let mut vars: HashMap<String, Matrix> = HashMap::new();
            execute_request(&mut vars, FedRequest::Ping, 1)
        });
        assert!(panics.is_ok());
    }
}
