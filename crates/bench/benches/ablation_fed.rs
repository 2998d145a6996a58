//! Ablation 5 (§3.3): federated `lm` and one parameter-server step vs
//! local `lm`, sweeping the number of federated sites from 1 to 64 at a
//! fixed total row count. Shows the aggregate-only exchange cost and the
//! parallelism gained from per-site computation: the master sends every
//! site its request at once, so 64 sites also exercise 64-way fan-out.

use std::sync::Arc;
use sysds_bench::time;
use sysds_fed::learn::{federated_lm, FederatedParamServer};
use sysds_fed::{FederatedMatrix, Transport, WorkerHandle};
use sysds_tensor::kernels::BinaryOp;
use sysds_tensor::kernels::{elementwise, gen, solve, tsmm};
use sysds_tensor::Matrix;

fn local_lm(x: &Matrix, y: &Matrix, lambda: f64) -> Matrix {
    let mut g = tsmm::tsmm(x, 1, true);
    let reg = elementwise::binary_ms(
        BinaryOp::Mul,
        &Matrix::Dense(Matrix::identity(g.rows()).to_dense()),
        lambda,
    );
    g = elementwise::binary_mm(BinaryOp::Add, &g, &reg).unwrap();
    let b = tsmm::tmv(x, y, 1).unwrap();
    solve::solve(&g, &b).unwrap()
}

fn main() {
    let (x, y) = gen::synthetic_regression(30_000, 40, 1.0, 0.05, 6301);

    time("ablation_fed/lm_local_1t", || local_lm(&x, &y, 0.001));

    for sites in [1usize, 2, 4, 8, 16, 64] {
        // Spawn workers once per configuration; the benchmark measures the
        // federated instruction round trips, not thread spawning.
        let workers: Vec<Arc<dyn Transport>> = (0..sites)
            .map(|_| Arc::new(WorkerHandle::spawn(vec![], 1)) as Arc<dyn Transport>)
            .collect();
        let fx = FederatedMatrix::scatter(&x, &workers).unwrap();
        let fy = FederatedMatrix::scatter(&y, &workers).unwrap();
        time(&format!("ablation_fed/lm_federated/{sites}"), || {
            federated_lm(&fx, &fy, 0.001).unwrap()
        });
        let mut ps = FederatedParamServer::new(x.cols(), 0.1, 0.0);
        time(&format!("ablation_fed/ps_step/{sites}"), || {
            ps.step(&fx, &fy).unwrap()
        });
    }
}
