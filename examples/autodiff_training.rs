//! Training with automatic differentiation (paper §3.1: lineage/DAGs as
//! the enabler for auto differentiation): the loss is written as a plain
//! DML expression, the engine derives its gradient by reverse-mode
//! differentiation over the HOP DAG, and plain gradient descent recovers
//! the closed-form solution.
//!
//! ```bash
//! cargo run --release --example autodiff_training
//! ```

use sysds::api::SystemDS;
use sysds::Data;
use sysds_tensor::kernels::BinaryOp;
use sysds_tensor::kernels::{elementwise, gen, solve, tsmm};
use sysds_tensor::Matrix;

fn main() -> sysds::Result<()> {
    let (x, y) = gen::synthetic_regression(500, 5, 1.0, 0.0, 4242);
    let mut sds = SystemDS::new();

    // The loss as a declarative expression — no hand-derived gradient.
    let loss_expr = "sum((X %*% w - y) * (X %*% w - y)) / nrow(X)";

    let mut w = Matrix::zeros(5, 1);
    let lr = 0.4;
    let mut last_loss = f64::INFINITY;
    for step in 0..400 {
        let (loss, grads) = sds.gradient(
            loss_expr,
            &[
                ("X", Data::from_matrix(x.clone())),
                ("y", Data::from_matrix(y.clone())),
                ("w", Data::from_matrix(w.clone())),
            ],
            &["w"],
        )?;
        if step % 100 == 0 {
            println!("step {step:>3}: loss {loss:.6}");
        }
        let update = elementwise::binary_ms(BinaryOp::Mul, &grads[0], lr);
        w = elementwise::binary_mm(BinaryOp::Sub, &w, &update)?;
        last_loss = loss;
    }

    // Compare against the closed-form normal-equations solution.
    let gram = tsmm::tsmm(&x, 1, true);
    let rhs = tsmm::tmv(&x, &y, 1)?;
    let exact = solve::solve(&gram, &rhs)?;
    let max_diff = (0..5)
        .map(|i| (w.get(i, 0) - exact.get(i, 0)).abs())
        .fold(0.0, f64::max);
    println!("final loss {last_loss:.3e}; |w - closed_form|_max = {max_diff:.3e}");
    assert!(
        max_diff < 1e-3,
        "autodiff training must reach the exact solution"
    );
    Ok(())
}
