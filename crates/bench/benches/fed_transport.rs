//! Transport ablation: the same federated algorithms (tsmm, lm) over the
//! in-process site called directly vs the localhost-TCP transport — isolating
//! the cost of framing, sockets, and the robustness layer from the
//! federated computation itself.

use std::sync::Arc;
use sysds_bench::time;
use sysds_common::NetConfig;
use sysds_fed::learn::federated_lm;
use sysds_fed::{ops, FederatedMatrix, Transport, WorkerHandle};
use sysds_net::{TcpTransport, WorkerServer};
use sysds_tensor::kernels::gen;

const SITES: usize = 2;

fn main() {
    let (x, y) = gen::synthetic_regression(20_000, 32, 1.0, 0.05, 6401);

    // In-process sites, called directly.
    let local: Vec<Arc<dyn Transport>> = (0..SITES)
        .map(|_| Arc::new(WorkerHandle::spawn(vec![], 1)) as Arc<dyn Transport>)
        .collect();
    let lfx = FederatedMatrix::scatter(&x, &local).unwrap();
    let lfy = FederatedMatrix::scatter(&y, &local).unwrap();

    // Localhost TCP transport: daemons stay up for the whole benchmark, so
    // iterations measure request round trips over warm connections.
    let servers: Vec<WorkerServer> = (0..SITES)
        .map(|_| WorkerServer::bind("127.0.0.1:0", vec![], 1).unwrap())
        .collect();
    let tcp: Vec<Arc<dyn Transport>> = servers
        .iter()
        .map(|s| {
            Arc::new(
                TcpTransport::connect(&s.local_addr().to_string(), NetConfig::default()).unwrap(),
            ) as Arc<dyn Transport>
        })
        .collect();
    let tfx = FederatedMatrix::scatter(&x, &tcp).unwrap();
    let tfy = FederatedMatrix::scatter(&y, &tcp).unwrap();

    let tsmm = |fx: &FederatedMatrix| fx.exec(&ops::TSMM, &[], None).unwrap();
    time("fed_transport/tsmm_inprocess", || tsmm(&lfx));
    time("fed_transport/tsmm_tcp", || tsmm(&tfx));
    time("fed_transport/lm_inprocess", || {
        federated_lm(&lfx, &lfy, 0.001).unwrap()
    });
    time("fed_transport/lm_tcp", || {
        federated_lm(&tfx, &tfy, 0.001).unwrap()
    });
}
