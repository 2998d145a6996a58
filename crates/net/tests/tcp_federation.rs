//! End-to-end federation over real sockets: the TCP transport must be
//! indistinguishable from the in-process site called directly (bitwise-equal
//! results), and every injected failure mode — dropped responses, truncated
//! frames, deadline overruns, dead sites — must resolve through the
//! robustness layer (retries, dedup, typed degradation).

use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
use sysds_common::{NetConfig, SysDsError};
use sysds_fed::learn::federated_lm;
use sysds_fed::ops::{self, FedOp, FedOperand, FedResult, OPS};
use sysds_fed::{FedRequest, FedResponse, FederatedMatrix, Transport, WorkerHandle};
use sysds_net::{wire, FaultPlan, TcpTransport, WorkerServer};
use sysds_tensor::kernels::{aggregate, elementwise, gen, indexing, AggFn, BinaryOp, Direction};
use sysds_tensor::Matrix;

/// Fast-failing config so negative-path tests stay quick.
fn quick_cfg() -> NetConfig {
    NetConfig::default()
        .request_timeout_ms(2000)
        .max_retries(3)
        .backoff_base_ms(5)
}

fn connect(server: &WorkerServer, cfg: NetConfig) -> Arc<TcpTransport> {
    Arc::new(TcpTransport::connect(&server.local_addr().to_string(), cfg).unwrap())
}

/// An `Exec` of `op` over the site variables `vars`, without operand or
/// `out`.
fn exec(op: &'static FedOp, vars: &[&str]) -> FedRequest {
    FedRequest::Exec {
        op,
        vars: vars.iter().map(|v| v.to_string()).collect(),
        operand: None,
        out: None,
    }
}

fn in_process(n: usize) -> Vec<Arc<dyn Transport>> {
    (0..n)
        .map(|_| Arc::new(WorkerHandle::spawn(vec![], 1)) as Arc<dyn Transport>)
        .collect()
}

fn tcp_sites(servers: &[WorkerServer]) -> Vec<Arc<dyn Transport>> {
    servers
        .iter()
        .map(|s| connect(s, quick_cfg()) as Arc<dyn Transport>)
        .collect()
}

fn lm_over(workers: &[Arc<dyn Transport>], x: &Matrix, y: &Matrix, lambda: f64) -> Matrix {
    let fx = FederatedMatrix::scatter(x, workers).unwrap();
    let fy = FederatedMatrix::scatter(y, workers).unwrap();
    federated_lm(&fx, &fy, lambda).unwrap()
}

#[test]
fn tcp_lm_is_bitwise_identical_to_in_process() {
    let (x, y) = gen::synthetic_regression(80, 5, 1.0, 0.1, 99);
    let servers: Vec<WorkerServer> = (0..3)
        .map(|_| WorkerServer::bind("127.0.0.1:0", vec![], 1).unwrap())
        .collect();
    let tcp: Vec<Arc<dyn Transport>> = servers
        .iter()
        .map(|s| connect(s, quick_cfg()) as Arc<dyn Transport>)
        .collect();
    let local: Vec<Arc<dyn Transport>> = (0..3)
        .map(|_| Arc::new(WorkerHandle::spawn(vec![], 1)) as Arc<dyn Transport>)
        .collect();
    for lambda in [0.0, 0.01, 1.0] {
        let over_tcp = lm_over(&tcp, &x, &y, lambda);
        let in_process = lm_over(&local, &x, &y, lambda);
        assert_eq!(
            over_tcp.to_vec(),
            in_process.to_vec(),
            "transport changed the result at lambda={lambda}"
        );
    }
}

#[test]
fn dropped_first_response_completes_via_retry() {
    // Per-site network statistics are recorded only while stats are on.
    sysds_obs::enable_stats();
    let (x, y) = gen::synthetic_regression(60, 4, 1.0, 0.1, 100);
    // Site 0 executes its first post-connect request (the Put from
    // scatter) but never answers it: the client must retry, and the
    // site-side request-id dedup must answer the replay from cache
    // without re-executing the mutation. Sequence 0 is the connect ping.
    let faulty = WorkerServer::bind_with_faults(
        "127.0.0.1:0",
        vec![],
        1,
        FaultPlan::none().drop_response(1),
    )
    .unwrap();
    let clean = WorkerServer::bind("127.0.0.1:0", vec![], 1).unwrap();
    let t0 = connect(&faulty, quick_cfg());
    let tcp: Vec<Arc<dyn Transport>> = vec![
        Arc::clone(&t0) as Arc<dyn Transport>,
        connect(&clean, quick_cfg()) as Arc<dyn Transport>,
    ];
    let local: Vec<Arc<dyn Transport>> = (0..2)
        .map(|_| Arc::new(WorkerHandle::spawn(vec![], 1)) as Arc<dyn Transport>)
        .collect();
    assert_eq!(
        lm_over(&tcp, &x, &y, 0.01).to_vec(),
        lm_over(&local, &x, &y, 0.01).to_vec()
    );
    let stats = sysds_obs::net::site_stats();
    let site = stats
        .iter()
        .find(|s| s.endpoint == t0.endpoint())
        .expect("faulty site recorded");
    assert!(site.retries >= 1, "retry not recorded: {site:?}");
}

#[test]
fn truncated_response_completes_via_retry() {
    let (x, y) = gen::synthetic_regression(50, 3, 1.0, 0.1, 101);
    let faulty = WorkerServer::bind_with_faults(
        "127.0.0.1:0",
        vec![],
        1,
        FaultPlan::none().truncate_response(1, 10),
    )
    .unwrap();
    let tcp: Vec<Arc<dyn Transport>> = vec![connect(&faulty, quick_cfg()) as Arc<dyn Transport>];
    let local: Vec<Arc<dyn Transport>> =
        vec![Arc::new(WorkerHandle::spawn(vec![], 1)) as Arc<dyn Transport>];
    assert_eq!(
        lm_over(&tcp, &x, &y, 0.0).to_vec(),
        lm_over(&local, &x, &y, 0.0).to_vec()
    );
}

#[test]
fn delayed_response_times_out_then_retries() {
    // Per-site network statistics are recorded only while stats are on.
    sysds_obs::enable_stats();
    let (x, y) = gen::synthetic_regression(40, 3, 1.0, 0.1, 102);
    // The delayed response overruns the 100ms per-attempt deadline; the
    // retry (sequence 2, no fault) succeeds.
    let faulty = WorkerServer::bind_with_faults(
        "127.0.0.1:0",
        vec![],
        1,
        FaultPlan::none().delay_response(1, 600),
    )
    .unwrap();
    let cfg = quick_cfg().request_timeout_ms(100);
    let t = connect(&faulty, cfg);
    let tcp: Vec<Arc<dyn Transport>> = vec![Arc::clone(&t) as Arc<dyn Transport>];
    let local: Vec<Arc<dyn Transport>> =
        vec![Arc::new(WorkerHandle::spawn(vec![], 1)) as Arc<dyn Transport>];
    assert_eq!(
        lm_over(&tcp, &x, &y, 0.1).to_vec(),
        lm_over(&local, &x, &y, 0.1).to_vec()
    );
    let stats = sysds_obs::net::site_stats();
    let site = stats
        .iter()
        .find(|s| s.endpoint == t.endpoint())
        .expect("site recorded");
    assert!(site.timeouts >= 1, "timeout not recorded: {site:?}");
}

#[test]
fn dead_site_degrades_to_site_lost() {
    let mut server = WorkerServer::bind("127.0.0.1:0", vec![], 1).unwrap();
    let cfg = quick_cfg().max_retries(1).request_timeout_ms(300);
    let t = connect(&server, cfg);
    server.shutdown();
    let err = t.request(exec(&ops::NROWS, &["X"])).unwrap_err();
    assert!(
        matches!(err, SysDsError::FederatedSiteLost { .. }),
        "expected FederatedSiteLost, got: {err}"
    );
}

#[test]
fn site_error_is_a_reply_not_a_retry_storm() {
    // Per-site network statistics are recorded only while stats are on.
    sysds_obs::enable_stats();
    // A request that fails *at the site* (missing variable) must come back
    // as one FedResponse::Error reply — a federated error, not a transport
    // failure, and without burning the retry budget.
    let server = WorkerServer::bind("127.0.0.1:0", vec![], 1).unwrap();
    let t = connect(&server, quick_cfg());
    let before = sysds_obs::net::site_stats()
        .iter()
        .find(|s| s.endpoint == t.endpoint())
        .map(|s| s.retries)
        .unwrap_or(0);
    let err = t.request(exec(&ops::TSMM, &["nope"])).unwrap_err();
    assert!(
        matches!(err, SysDsError::Federated(_)),
        "expected Federated error, got: {err}"
    );
    let after = sysds_obs::net::site_stats()
        .iter()
        .find(|s| s.endpoint == t.endpoint())
        .map(|s| s.retries)
        .unwrap_or(0);
    assert_eq!(before, after, "site-side errors must not be retried");
}

#[test]
fn wire_shutdown_stops_the_daemon_gracefully() {
    let server = WorkerServer::bind("127.0.0.1:0", vec![], 1).unwrap();
    let t = connect(&server, quick_cfg());
    t.shutdown_site().unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while !server.is_stopped() {
        assert!(Instant::now() < deadline, "daemon did not stop");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn parameter_server_trains_over_tcp() {
    let (x, y) = gen::synthetic_regression(120, 4, 1.0, 0.0, 103);
    let servers: Vec<WorkerServer> = (0..2)
        .map(|_| WorkerServer::bind("127.0.0.1:0", vec![], 1).unwrap())
        .collect();
    let tcp: Vec<Arc<dyn Transport>> = servers
        .iter()
        .map(|s| connect(s, quick_cfg()) as Arc<dyn Transport>)
        .collect();
    let fx = FederatedMatrix::scatter(&x, &tcp).unwrap();
    let fy = FederatedMatrix::scatter(&y, &tcp).unwrap();
    let mut ps = sysds_fed::learn::FederatedParamServer::new(4, 0.5, 0.0);
    let first = ps.step(&fx, &fy).unwrap();
    let mut last = first;
    for _ in 0..30 {
        last = ps.step(&fx, &fy).unwrap();
    }
    assert!(
        last < first,
        "gradient norm should shrink: {first} -> {last}"
    );
}

/// A site wrapper that records the variable every `Put` and kept `Exec`
/// stores, so a test can ask the site about it afterwards.
#[derive(Debug)]
struct Recording {
    inner: Arc<TcpTransport>,
    stored: std::sync::Mutex<Vec<String>>,
}

impl Transport for Recording {
    fn exchange(&self, req: FedRequest) -> sysds_common::Result<sysds_fed::FedResponse> {
        let var = match &req {
            FedRequest::Put { var, .. } => Some(var),
            FedRequest::Exec { out, .. } => out.as_ref(),
            _ => None,
        };
        if let Some(var) = var {
            self.stored.lock().unwrap().push(var.clone());
        }
        self.inner.exchange(req)
    }

    fn endpoint(&self) -> &str {
        self.inner.endpoint()
    }
}

/// Site 0 is clean and recorded; site 1 drops the response of its request
/// number `drop_seq` and does not retry.
fn clean_and_failing_site(
    drop_seq: u64,
) -> (Vec<WorkerServer>, Arc<Recording>, Vec<Arc<dyn Transport>>) {
    let clean = WorkerServer::bind("127.0.0.1:0", vec![], 1).unwrap();
    let failing = WorkerServer::bind_with_faults(
        "127.0.0.1:0",
        vec![],
        1,
        FaultPlan::none().drop_response(drop_seq),
    )
    .unwrap();
    let site0 = Arc::new(Recording {
        inner: connect(&clean, quick_cfg()),
        stored: Default::default(),
    });
    let site1 = connect(&failing, quick_cfg().max_retries(0));
    let sites: Vec<Arc<dyn Transport>> = vec![
        Arc::clone(&site0) as Arc<dyn Transport>,
        site1 as Arc<dyn Transport>,
    ];
    (vec![clean, failing], site0, sites)
}

fn assert_names_site_1(err: &SysDsError, sites: &[Arc<dyn Transport>]) {
    let msg = err.to_string();
    assert!(
        msg.contains(sites[1].endpoint()),
        "error must name site 1 ({}): {msg}",
        sites[1].endpoint()
    );
}

fn assert_site_0_freed(site0: &Recording, var: &str) {
    assert!(
        site0.inner.request(exec(&ops::NROWS, &[var])).is_err(),
        "site 0 still holds '{var}'"
    );
}

#[test]
fn failed_mat_vec_names_the_site_and_frees_the_others() {
    // Site 1's requests: 0 connect ping, 1 scatter Put, 2 the mat-vec.
    let (_servers, site0, sites) = clean_and_failing_site(2);
    let x = gen::rand_uniform(20, 3, -1.0, 1.0, 1.0, 104);
    let fx = FederatedMatrix::scatter(&x, &sites).unwrap();
    let v = FedOperand::Matrix(Matrix::zeros(3, 1));
    let err = fx.exec(&ops::MATVEC, &[], Some(v)).unwrap_err();
    assert_names_site_1(&err, &sites);
    let out = site0.stored.lock().unwrap().last().cloned().unwrap();
    assert!(out.starts_with("__fed_matvec_"), "{out}");
    assert_site_0_freed(&site0, &out);
    // The input partition itself is untouched.
    let input = fx.partitions()[0].var.clone();
    assert!(site0.inner.request(exec(&ops::NROWS, &[&input])).is_ok());
}

#[test]
fn failed_scatter_names_the_site_and_frees_the_others() {
    // Site 1's requests: 0 connect ping, 1 the scatter Put.
    let (_servers, site0, sites) = clean_and_failing_site(1);
    let x = gen::rand_uniform(20, 3, -1.0, 1.0, 1.0, 105);
    let err = FederatedMatrix::scatter(&x, &sites).unwrap_err();
    assert_names_site_1(&err, &sites);
    let part = site0.stored.lock().unwrap()[0].clone();
    assert!(part.starts_with("__fed_part_"), "{part}");
    assert_site_0_freed(&site0, &part);
}

/// `add` folded over `parts` in order: what the master computed when it
/// visited the sites one after another.
fn sequential_fold<T>(parts: Vec<T>, add: impl Fn(T, T) -> T) -> T {
    parts.into_iter().reduce(add).unwrap()
}

fn add(a: Matrix, b: Matrix) -> Matrix {
    elementwise::binary_mm(BinaryOp::Add, &a, &b).unwrap()
}

#[test]
fn out_of_order_replies_sum_bitwise_in_partition_order() {
    // Replies to requests 3..=7 (tsmm, tmv, col_sums, sum_sq and the
    // parameter-server step; after the ping and two Puts) arrive in
    // reverse site order: site 0 holds each for 80 ms, site 1 for 40 ms.
    // With three partials, folding in arrival order, (c + b) + a, differs
    // from the partition order (a + b) + c in the last bits.
    let delayed = |ms| (3..=7).fold(FaultPlan::none(), |plan, seq| plan.delay_response(seq, ms));
    let servers = [
        WorkerServer::bind_with_faults("127.0.0.1:0", vec![], 1, delayed(80)).unwrap(),
        WorkerServer::bind_with_faults("127.0.0.1:0", vec![], 1, delayed(40)).unwrap(),
        WorkerServer::bind("127.0.0.1:0", vec![], 1).unwrap(),
    ];
    let sites: Vec<Arc<dyn Transport>> = servers
        .iter()
        .map(|s| connect(s, quick_cfg()) as Arc<dyn Transport>)
        .collect();
    let (x, y) = gen::synthetic_regression(90, 5, 1.0, 0.1, 106);
    let fx = FederatedMatrix::scatter(&x, &sites).unwrap();
    let fy = FederatedMatrix::scatter(&y, &sites).unwrap();

    let run = |op, with: &[&FederatedMatrix]| fx.exec(op, with, None).unwrap();
    let tsmm = run(&ops::TSMM, &[]).into_matrix().unwrap();
    let tmv = run(&ops::TMV, &[&fy]).into_matrix().unwrap();
    let col_sums = run(&ops::COL_SUMS, &[]).into_matrix().unwrap();
    let sum_sq = run(&ops::SUM_SQ, &[]).into_scalar().unwrap();
    let mut ps = sysds_fed::learn::FederatedParamServer::new(5, 0.5, 0.0);
    ps.step(&fx, &fy).unwrap();

    let reply = |i: usize, req| fx.partitions()[i].worker.request(req).unwrap();
    let per_site = |req: &dyn Fn(usize) -> FedRequest| -> Vec<Matrix> {
        (0..3)
            .map(|i| match reply(i, req(i)) {
                FedResponse::Aggregate(m) => m,
                other => panic!("expected an aggregate, got {other:?}"),
            })
            .collect()
    };
    let xv = |i: usize| fx.partitions()[i].var.clone();
    let yv = |i: usize| fy.partitions()[i].var.clone();
    let want_tsmm = sequential_fold(per_site(&|i| exec(&ops::TSMM, &[&xv(i)])), add);
    let want_tmv = sequential_fold(per_site(&|i| exec(&ops::TMV, &[&xv(i), &yv(i)])), add);
    let want_col_sums = sequential_fold(per_site(&|i| exec(&ops::COL_SUMS, &[&xv(i)])), add);
    let want_sum_sq = sequential_fold(
        (0..3)
            .map(|i| match reply(i, exec(&ops::SUM_SQ, &[&xv(i)])) {
                FedResponse::Scalar(v) => v,
                other => panic!("expected a scalar, got {other:?}"),
            })
            .collect(),
        |a, b| a + b,
    );
    let grad = sequential_fold(
        per_site(&|i| FedRequest::Exec {
            op: &ops::MMCHAIN,
            vars: vec![xv(i), yv(i)],
            operand: Some(FedOperand::Matrix(Matrix::zeros(5, 1))),
            out: None,
        }),
        add,
    );
    let grad = elementwise::binary_ms(BinaryOp::Div, &grad, 90.0);
    let step = elementwise::binary_ms(BinaryOp::Mul, &grad, 0.5);
    let want_weights = elementwise::binary_mm(BinaryOp::Sub, &Matrix::zeros(5, 1), &step).unwrap();

    assert_eq!(tsmm.to_vec(), want_tsmm.to_vec(), "tsmm");
    assert_eq!(tmv.to_vec(), want_tmv.to_vec(), "tmv");
    assert_eq!(col_sums.to_vec(), want_col_sums.to_vec(), "col_sums");
    assert_eq!(sum_sq.to_bits(), want_sum_sq.to_bits(), "sum_sq");
    assert_eq!(ps.weights().to_vec(), want_weights.to_vec(), "step");
}

#[test]
fn site_requests_overlap() {
    // Each site holds its tsmm reply (request 2, after the ping and the
    // Put) for 200 ms: one after another that is 400 ms, at once 200 ms.
    let servers: Vec<WorkerServer> = (0..2)
        .map(|_| {
            WorkerServer::bind_with_faults(
                "127.0.0.1:0",
                vec![],
                1,
                FaultPlan::none().delay_response(2, 200),
            )
            .unwrap()
        })
        .collect();
    let sites: Vec<Arc<dyn Transport>> = servers
        .iter()
        .map(|s| connect(s, quick_cfg()) as Arc<dyn Transport>)
        .collect();
    let x = gen::rand_uniform(40, 4, -1.0, 1.0, 1.0, 107);
    let fx = FederatedMatrix::scatter(&x, &sites).unwrap();
    let start = Instant::now();
    fx.exec(&ops::TSMM, &[], None).unwrap();
    let took = start.elapsed();
    assert!(
        took < Duration::from_millis(350),
        "tsmm over two 200 ms sites took {took:?}"
    );
}

/// One or more samples per row of the federated instruction table: the
/// site variables (local matrices, scattered alike) and the broadcast
/// operand. A new row needs its sample here.
fn samples(x: &Matrix, y: &Matrix) -> Vec<(&'static FedOp, Vec<Matrix>, Option<FedOperand>)> {
    let v = gen::rand_uniform(x.cols(), 1, -1.0, 1.0, 1.0, 110);
    let x2 = gen::rand_uniform(x.rows(), x.cols(), -1.0, 1.0, 1.0, 111);
    let m = |m: &Matrix| Some(FedOperand::Matrix(m.clone()));
    vec![
        (&ops::TSMM, vec![x.clone()], None),
        (&ops::TMV, vec![x.clone(), y.clone()], None),
        (&ops::MATVEC, vec![x.clone()], m(&v)),
        (
            &ops::SCALAR_OP,
            vec![x.clone()],
            Some(FedOperand::Scalar(BinaryOp::Pow, 2.0)),
        ),
        (
            &ops::BINARY_OP,
            vec![x.clone(), x2],
            Some(FedOperand::Op(BinaryOp::Mul)),
        ),
        (&ops::COL_SUMS, vec![x.clone()], None),
        (&ops::SUM_SQ, vec![x.clone()], None),
        (&ops::NROWS, vec![x.clone()], None),
        (&ops::MMCHAIN, vec![x.clone()], m(&v)),
        (&ops::MMCHAIN, vec![x.clone(), y.clone()], m(&v)),
    ]
}

fn add_col_sums(acc: Option<Matrix>, m: &Matrix) -> Option<Matrix> {
    let cs = aggregate::aggregate_axis(AggFn::Sum, Direction::Col, m).unwrap();
    Some(match acc {
        None => cs,
        Some(a) => add(a, cs),
    })
}

/// Every row, run over 1, 2 and 3 in-process sites and over 2 TCP sites,
/// is bitwise equal to its kernel run locally on the same row slices and
/// added up in partition order; a result that stays at the sites is
/// compared by its column sums.
#[test]
fn every_row_agrees_with_its_local_kernel() {
    let (x, y) = gen::synthetic_regression(37, 4, 1.0, 0.1, 109);
    let samples = samples(&x, &y);
    for op in OPS {
        assert!(
            samples.iter().any(|(row, ..)| std::ptr::eq(*row, op)),
            "row {} has no sample",
            op.name
        );
    }
    let servers: Vec<WorkerServer> = (0..2)
        .map(|_| WorkerServer::bind("127.0.0.1:0", vec![], 1).unwrap())
        .collect();
    let site_sets = [
        ("inproc1", in_process(1)),
        ("inproc2", in_process(2)),
        ("inproc3", in_process(3)),
        ("tcp2", tcp_sites(&servers)),
    ];
    for (sites_name, sites) in &site_sets {
        for (op, inputs, operand) in &samples {
            let what = format!("{} over {sites_name}", op.name);
            let feds: Vec<FederatedMatrix> = inputs
                .iter()
                .map(|m| FederatedMatrix::scatter(m, sites).unwrap())
                .collect();
            let with: Vec<&FederatedMatrix> = feds[1..].iter().collect();
            let got = feds[0].exec(op, &with, operand.clone()).unwrap();
            // The row's kernel on each partition's slices, in order.
            let local: Vec<Matrix> = feds[0]
                .partitions()
                .iter()
                .map(|p| {
                    let slices: Vec<Matrix> = inputs
                        .iter()
                        .map(|m| indexing::slice(m, p.row_lo..p.row_hi, 0..m.cols()).unwrap())
                        .collect();
                    let refs: Vec<&Matrix> = slices.iter().collect();
                    (op.kernel)(&refs, operand.as_ref(), 1).unwrap()
                })
                .collect();
            match op.result {
                FedResult::Aggregate => {
                    let want = sequential_fold(local, add);
                    assert_eq!(got.into_matrix().unwrap().to_vec(), want.to_vec(), "{what}");
                }
                FedResult::Scalar => {
                    let want =
                        sequential_fold(local.iter().map(|m| m.get(0, 0)).collect(), |a, b| a + b);
                    assert_eq!(
                        got.into_scalar().unwrap().to_bits(),
                        want.to_bits(),
                        "{what}"
                    );
                }
                FedResult::Stays { .. } => {
                    let kept = got.into_federated().unwrap();
                    assert_eq!(kept.rows(), x.rows(), "{what}");
                    assert_eq!(kept.cols(), local[0].cols(), "{what}");
                    let want = local.iter().fold(None, add_col_sums).unwrap();
                    let col_sums = kept.exec(&ops::COL_SUMS, &[], None).unwrap();
                    assert_eq!(
                        col_sums.into_matrix().unwrap().to_vec(),
                        want.to_vec(),
                        "{what}"
                    );
                }
            }
        }
    }
}

/// Every site variable of `fs`, with the site holding it.
fn site_vars(fs: &[&FederatedMatrix]) -> Vec<(Arc<dyn Transport>, String)> {
    fs.iter()
        .flat_map(|f| f.partitions())
        .map(|p| (Arc::clone(&p.worker), p.var.clone()))
        .collect()
}

#[test]
fn dropped_handles_free_their_site_variables() {
    let servers: Vec<WorkerServer> = (0..2)
        .map(|_| WorkerServer::bind("127.0.0.1:0", vec![], 1).unwrap())
        .collect();
    for sites in [in_process(2), tcp_sites(&servers)] {
        let x = gen::rand_uniform(20, 3, -1.0, 1.0, 1.0, 112);
        let v = FedOperand::Matrix(gen::rand_uniform(3, 1, -1.0, 1.0, 1.0, 113));
        let fx = FederatedMatrix::scatter(&x, &sites).unwrap();
        let kept = |f: &FederatedMatrix, op, with: &[&FederatedMatrix], operand| {
            f.exec(op, with, Some(operand))
                .unwrap()
                .into_federated()
                .unwrap()
        };
        let xv = kept(&fx, &ops::MATVEC, &[], v);
        let xs = kept(
            &fx,
            &ops::SCALAR_OP,
            &[],
            FedOperand::Scalar(BinaryOp::Mul, 2.0),
        );
        let sum = kept(&fx, &ops::BINARY_OP, &[&xs], FedOperand::Op(BinaryOp::Add));
        let vars = site_vars(&[&fx, &xv, &xs, &sum]);
        assert_eq!(vars.len(), 8);
        for (site, var) in &vars {
            assert!(site.request(exec(&ops::NROWS, &[var])).is_ok(), "{var}");
        }
        drop((fx, xv, xs, sum));
        for (site, var) in &vars {
            let err = site.request(exec(&ops::NROWS, &[var])).unwrap_err();
            assert!(
                err.to_string().contains("unknown federated variable"),
                "{} still holds {var}: {err}",
                site.endpoint()
            );
        }
    }
}

#[test]
fn dropping_a_handle_whose_site_is_dead_returns_within_the_timeout_budget() {
    let mut server = WorkerServer::bind("127.0.0.1:0", vec![], 1).unwrap();
    let cfg = quick_cfg().max_retries(1).request_timeout_ms(300);
    let site = connect(&server, cfg) as Arc<dyn Transport>;
    let x = gen::rand_uniform(10, 2, -1.0, 1.0, 1.0, 114);
    let fx = FederatedMatrix::scatter(&x, &[site]).unwrap();
    server.shutdown();
    let start = Instant::now();
    drop(fx);
    // One request's budget: every attempt's deadline plus the backoffs.
    let budget = (cfg.max_retries as u64 + 1) * cfg.request_timeout_ms
        + cfg.max_retries as u64 * sysds_net::client::BACKOFF_MAX_MS;
    assert!(
        start.elapsed() < Duration::from_millis(budget),
        "drop took {:?}, budget {budget} ms",
        start.elapsed()
    );
}

/// Send `req` on a raw connection and read the reply.
fn raw_request(stream: &mut TcpStream, id: u64, req: &FedRequest) -> FedResponse {
    wire::Frame::request(id, req).write_to(stream).unwrap();
    let header = wire::read_header(stream).unwrap().unwrap();
    assert_eq!(header.request_id, id);
    wire::read_response(stream, &header).unwrap().unwrap()
}

/// Each crafted `Exec` gets an error reply naming its row, and the site
/// still answers the `Ping` that follows on the same connection.
fn assert_refused(crafted: &[FedRequest]) {
    let x = gen::rand_uniform(6, 2, -1.0, 1.0, 1.0, 115);
    let server = WorkerServer::bind("127.0.0.1:0", vec![("X".into(), x)], 1).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    for (i, req) in crafted.iter().enumerate() {
        let id = 2 * i as u64 + 1;
        match raw_request(&mut stream, id, req) {
            FedResponse::Error(msg) => assert!(msg.contains(req.opcode()), "{msg}"),
            other => panic!("{req:?} was answered with {other:?}"),
        }
        let pong = raw_request(&mut stream, id + 1, &FedRequest::Ping);
        assert!(matches!(pong, FedResponse::Ok), "{pong:?}");
    }
}

#[test]
fn exec_that_would_send_rows_back_gets_an_error_reply() {
    // Row-partitioned results without an `out` to keep them under.
    assert_refused(&[
        FedRequest::Exec {
            op: &ops::MATVEC,
            vars: vec!["X".into()],
            operand: Some(FedOperand::Matrix(Matrix::filled(2, 1, 1.0))),
            out: None,
        },
        FedRequest::Exec {
            op: &ops::SCALAR_OP,
            vars: vec!["X".into()],
            operand: Some(FedOperand::Scalar(BinaryOp::Mul, 1.0)),
            out: None,
        },
    ]);
}

#[test]
fn exec_with_the_wrong_operand_count_gets_an_error_reply() {
    assert_refused(&[
        exec(&ops::TSMM, &["X", "X"]),
        exec(&ops::TMV, &["X"]),
        FedRequest::Exec {
            op: &ops::BINARY_OP,
            vars: vec!["X".into()],
            operand: Some(FedOperand::Op(BinaryOp::Add)),
            out: Some("Z".into()),
        },
        // An operand the row does not take.
        FedRequest::Exec {
            op: &ops::COL_SUMS,
            vars: vec!["X".into()],
            operand: Some(FedOperand::Op(BinaryOp::Add)),
            out: None,
        },
    ]);
}
