//! End-to-end federation over real sockets: the TCP transport must be
//! indistinguishable from the in-process channel transport (bitwise-equal
//! results), and every injected failure mode — dropped responses, truncated
//! frames, deadline overruns, dead sites — must resolve through the
//! robustness layer (retries, dedup, typed degradation).

use std::sync::Arc;
use std::time::{Duration, Instant};
use sysds_common::{NetConfig, SysDsError};
use sysds_fed::learn::federated_lm;
use sysds_fed::{FedRequest, FederatedMatrix, Transport, WorkerHandle};
use sysds_net::{FaultPlan, TcpTransport, WorkerServer};
use sysds_tensor::kernels::{elementwise, gen, BinaryOp};
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
    let err = t
        .request(FedRequest::NumRows { var: "X".into() })
        .unwrap_err();
    assert!(
        matches!(err, SysDsError::FederatedSiteLost { .. }),
        "expected FederatedSiteLost, got: {err}"
    );
    assert!(!t.is_healthy());
}

#[test]
fn site_error_is_a_reply_not_a_retry_storm() {
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
    let err = t
        .request(FedRequest::Tsmm { var: "nope".into() })
        .unwrap_err();
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
fn heartbeat_detects_a_dying_site() {
    let mut server = WorkerServer::bind("127.0.0.1:0", vec![], 1).unwrap();
    let mut cfg = quick_cfg().max_retries(0).request_timeout_ms(200);
    cfg.heartbeat_interval_ms = 50;
    let t = connect(&server, cfg);
    t.start_heartbeat();
    assert!(t.is_healthy());
    server.shutdown();
    let deadline = Instant::now() + Duration::from_secs(5);
    while t.is_healthy() {
        assert!(
            Instant::now() < deadline,
            "heartbeat never noticed the dead site"
        );
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

/// A site wrapper that records the variable every `Put` and `*Keep`
/// request stores, so a test can ask the site about it afterwards.
#[derive(Debug)]
struct Recording {
    inner: Arc<TcpTransport>,
    stored: std::sync::Mutex<Vec<String>>,
}

impl Transport for Recording {
    fn exchange(&self, req: FedRequest) -> sysds_common::Result<sysds_fed::FedResponse> {
        let var = match &req {
            FedRequest::Put { var, .. } => Some(var),
            FedRequest::MatVecKeep { out, .. }
            | FedRequest::ScalarOpKeep { out, .. }
            | FedRequest::BinaryOpKeep { out, .. } => Some(out),
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

    fn threads(&self) -> usize {
        self.inner.threads()
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
        site0
            .inner
            .request(FedRequest::NumRows { var: var.into() })
            .is_err(),
        "site 0 still holds '{var}'"
    );
}

#[test]
fn failed_mat_vec_names_the_site_and_frees_the_others() {
    // Site 1's requests: 0 connect ping, 1 scatter Put, 2 the mat-vec.
    let (_servers, site0, sites) = clean_and_failing_site(2);
    let x = gen::rand_uniform(20, 3, -1.0, 1.0, 1.0, 104);
    let fx = FederatedMatrix::scatter(&x, &sites).unwrap();
    let err = fx.mat_vec(&Matrix::zeros(3, 1)).unwrap_err();
    assert_names_site_1(&err, &sites);
    let out = site0.stored.lock().unwrap().last().cloned().unwrap();
    assert!(out.starts_with("__fed_mv_"), "{out}");
    assert_site_0_freed(&site0, &out);
    // The input partition itself is untouched.
    let input = fx.partitions()[0].var.clone();
    assert!(site0
        .inner
        .request(FedRequest::NumRows { var: input })
        .is_ok());
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

    let tsmm = fx.tsmm().unwrap();
    let tmv = fx.tmv(&fy).unwrap();
    let col_sums = fx.col_sums().unwrap();
    let sum_sq = fx.sum_sq().unwrap();
    let mut ps = sysds_fed::learn::FederatedParamServer::new(5, 0.5, 0.0);
    ps.step(&fx, &fy).unwrap();

    let per_site = |req: &dyn Fn(usize) -> FedRequest| -> Vec<Matrix> {
        (0..3)
            .map(|i| fx.partitions()[i].worker.request_aggregate(req(i)).unwrap())
            .collect()
    };
    let xv = |i: usize| fx.partitions()[i].var.clone();
    let yv = |i: usize| fy.partitions()[i].var.clone();
    let want_tsmm = sequential_fold(per_site(&|i| FedRequest::Tsmm { var: xv(i) }), add);
    let want_tmv = sequential_fold(per_site(&|i| FedRequest::Tmv { x: xv(i), y: yv(i) }), add);
    let want_col_sums = sequential_fold(per_site(&|i| FedRequest::ColSums { var: xv(i) }), add);
    let want_sum_sq = sequential_fold(
        (0..3)
            .map(|i| {
                fx.partitions()[i]
                    .worker
                    .request_scalar(FedRequest::SumSq { var: xv(i) })
                    .unwrap()
            })
            .collect(),
        |a, b| a + b,
    );
    let grad = sequential_fold(
        per_site(&|i| FedRequest::LinRegGradient {
            x: xv(i),
            y: yv(i),
            w: Matrix::zeros(5, 1),
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
    fx.tsmm().unwrap();
    let took = start.elapsed();
    assert!(
        took < Duration::from_millis(350),
        "tsmm over two 200 ms sites took {took:?}"
    );
}
