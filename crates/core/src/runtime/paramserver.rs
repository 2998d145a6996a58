//! Local parameter server for mini-batch training (paper §2.3 (4)).
//!
//! "Additionally, we support dedicated backends for ... parameter servers
//! (e.g., for mini-batch DNN training)." Workers hold row shards and
//! compute mini-batch gradients against broadcast weights; the server
//! aggregates updates either synchronously (BSP: barrier per epoch) or
//! asynchronously (ASP: apply updates as they arrive, with at most one
//! queued gradient per worker).

use std::sync::{mpsc, RwLock};
use sysds_common::sync::{read, write};
use sysds_common::{par, Result, SysDsError};
use sysds_tensor::kernels::BinaryOp;
use sysds_tensor::kernels::{elementwise, indexing, matmult, tsmm};
use sysds_tensor::Matrix;

/// Update mode of the parameter server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateMode {
    /// Bulk-synchronous: all workers' gradients are averaged per epoch.
    Bsp,
    /// Asynchronous: each gradient is applied immediately on arrival.
    Asp,
}

/// Configuration for a training run.
#[derive(Debug, Clone)]
pub struct PsConfig {
    pub workers: usize,
    pub epochs: usize,
    pub batch_size: usize,
    pub learning_rate: f64,
    pub mode: UpdateMode,
}

impl Default for PsConfig {
    fn default() -> Self {
        PsConfig {
            workers: 2,
            epochs: 10,
            batch_size: 32,
            learning_rate: 0.1,
            mode: UpdateMode::Bsp,
        }
    }
}

/// The objective's gradient on one mini-batch: linear regression squared
/// loss, `t(X_b) (X_b w - y_b) / |b|`.
fn linreg_gradient(xb: &Matrix, yb: &Matrix, w: &Matrix) -> Result<Matrix> {
    let pred = matmult::matmul(xb, w, 1)?;
    let resid = elementwise::binary_mm(BinaryOp::Sub, &pred, yb)?;
    let g = tsmm::tmv(xb, &resid, 1)?;
    Ok(elementwise::binary_ms(BinaryOp::Div, &g, xb.rows() as f64))
}

/// Train a linear model with a local parameter server. Returns the weights.
pub fn train_linreg(x: &Matrix, y: &Matrix, config: &PsConfig) -> Result<Matrix> {
    if x.rows() != y.rows() || y.cols() != 1 {
        return Err(SysDsError::DimensionMismatch {
            op: "paramserv",
            lhs: x.shape(),
            rhs: y.shape(),
        });
    }
    if x.rows() == 0 {
        return Err(SysDsError::runtime("paramserv: empty training data"));
    }
    let workers = config.workers.max(1).min(x.rows());
    // Shard rows contiguously across workers.
    let per = x.rows().div_ceil(workers);
    let mut shards = Vec::with_capacity(workers);
    for w in 0..workers {
        let lo = w * per;
        if lo >= x.rows() {
            break;
        }
        let hi = ((w + 1) * per).min(x.rows());
        shards.push((
            indexing::slice(x, lo..hi, 0..x.cols())?,
            indexing::slice(y, lo..hi, 0..1)?,
        ));
    }

    let weights = RwLock::new(Matrix::zeros(x.cols(), 1));
    match config.mode {
        UpdateMode::Bsp => train_bsp(&shards, &weights, config)?,
        UpdateMode::Asp => train_asp(&shards, &weights, config)?,
    }
    let w = read(&weights).clone();
    Ok(w)
}

fn train_bsp(
    shards: &[(Matrix, Matrix)],
    weights: &RwLock<Matrix>,
    config: &PsConfig,
) -> Result<()> {
    for epoch in 0..config.epochs {
        let w_snapshot = read(weights).clone();
        // All workers compute gradients against the same snapshot (barrier).
        let grads = par::map(shards.iter().collect(), |(xs, ys)| {
            let mut out = Vec::new();
            for (xb, yb) in batches(xs, ys, config.batch_size, epoch as u64) {
                out.push(linreg_gradient(&xb, &yb, &w_snapshot)?);
            }
            Ok::<_, SysDsError>(out)
        });
        // Server: average all batch gradients, one step.
        let mut acc: Option<Matrix> = None;
        let mut count = 0usize;
        for g in grads {
            for gm in g? {
                acc = Some(match acc {
                    None => gm,
                    Some(a) => elementwise::binary_mm(BinaryOp::Add, &a, &gm)?,
                });
                count += 1;
            }
        }
        if let Some(total) = acc {
            let avg = elementwise::binary_ms(BinaryOp::Div, &total, count as f64);
            let step = elementwise::binary_ms(BinaryOp::Mul, &avg, config.learning_rate);
            let mut w = write(weights);
            *w = elementwise::binary_mm(BinaryOp::Sub, &w, &step)?;
        }
    }
    Ok(())
}

/// One item of an ASP run: the server loop, or a worker with its shard and
/// its own sender.
enum AspItem<'a> {
    Server(mpsc::Receiver<Matrix>),
    Worker(&'a (Matrix, Matrix), mpsc::SyncSender<Matrix>),
}

fn train_asp(
    shards: &[(Matrix, Matrix)],
    weights: &RwLock<Matrix>,
    config: &PsConfig,
) -> Result<()> {
    // A bounded queue bounds staleness: a worker that gets more than one
    // gradient ahead of the server waits instead of computing every batch
    // against the initial weights.
    let (tx, rx) = mpsc::sync_channel::<Matrix>(shards.len());
    let expected: usize = shards
        .iter()
        .map(|(xs, _)| config.epochs * xs.rows().div_ceil(config.batch_size.max(1)))
        .sum();
    // The server is item 0, so it runs on the calling thread once every
    // worker has started. Each worker owns its sender, so the channel
    // closes when the last worker ends; a server error drops the receiver,
    // which unblocks workers waiting on a full queue.
    let mut work = vec![AspItem::Server(rx)];
    for shard in shards {
        work.push(AspItem::Worker(shard, tx.clone()));
    }
    drop(tx);
    par::map(work, |item| match item {
        AspItem::Server(rx) => {
            // Apply each gradient as it arrives.
            let mut applied = 0usize;
            while let Ok(g) = rx.recv() {
                let step = elementwise::binary_ms(BinaryOp::Mul, &g, config.learning_rate);
                let mut w = write(weights);
                *w = elementwise::binary_mm(BinaryOp::Sub, &w, &step)?;
                applied += 1;
            }
            debug_assert!(applied <= expected);
            Ok(())
        }
        AspItem::Worker((xs, ys), tx) => {
            for epoch in 0..config.epochs {
                for (xb, yb) in batches(xs, ys, config.batch_size, epoch as u64) {
                    // Read possibly-stale weights without a barrier.
                    let w = read(weights).clone();
                    let g = linreg_gradient(&xb, &yb, &w)?;
                    let _ = tx.send(g);
                }
            }
            Ok(())
        }
    })
    .into_iter()
    .collect()
}

/// Contiguous mini-batches with an epoch-dependent rotation so epochs see
/// batches in different order (deterministic; the offset is traceable).
fn batches<'a>(
    x: &'a Matrix,
    y: &'a Matrix,
    batch_size: usize,
    epoch: u64,
) -> impl Iterator<Item = (Matrix, Matrix)> + 'a {
    let n = x.rows();
    let bs = batch_size.max(1).min(n.max(1));
    let nb = n.div_ceil(bs);
    let rot = if nb > 0 { (epoch as usize) % nb } else { 0 };
    (0..nb).map(move |k| {
        let b = (k + rot) % nb;
        let lo = b * bs;
        let hi = (lo + bs).min(n);
        (
            indexing::slice(x, lo..hi, 0..x.cols()).expect("batch in range"),
            indexing::slice(y, lo..hi, 0..y.cols()).expect("batch in range"),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysds_tensor::kernels::{gen, solve};

    fn exact(x: &Matrix, y: &Matrix) -> Matrix {
        let g = tsmm::tsmm(x, 1, false);
        let b = tsmm::tmv(x, y, 1).unwrap();
        solve::solve(&g, &b).unwrap()
    }

    #[test]
    fn bsp_converges_to_exact_solution() {
        let (x, y) = gen::synthetic_regression(300, 4, 1.0, 0.0, 401);
        let config = PsConfig {
            workers: 3,
            epochs: 300,
            batch_size: 50,
            learning_rate: 0.5,
            mode: UpdateMode::Bsp,
        };
        let w = train_linreg(&x, &y, &config).unwrap();
        assert!(w.approx_eq(&exact(&x, &y), 5e-2), "{:?}", w.to_vec());
    }

    #[test]
    fn asp_also_converges() {
        let (x, y) = gen::synthetic_regression(300, 3, 1.0, 0.0, 402);
        let config = PsConfig {
            workers: 4,
            epochs: 400,
            batch_size: 30,
            learning_rate: 0.02,
            mode: UpdateMode::Asp,
        };
        let w = train_linreg(&x, &y, &config).unwrap();
        let ex = exact(&x, &y);
        // ASP is noisier; accept a looser tolerance.
        assert!(
            w.approx_eq(&ex, 0.15),
            "asp {:?} vs exact {:?}",
            w.to_vec(),
            ex.to_vec()
        );
    }

    #[test]
    fn bsp_is_deterministic() {
        let (x, y) = gen::synthetic_regression(100, 3, 1.0, 0.1, 403);
        let config = PsConfig {
            epochs: 20,
            ..PsConfig::default()
        };
        let a = train_linreg(&x, &y, &config).unwrap();
        let b = train_linreg(&x, &y, &config).unwrap();
        assert!(a.approx_eq(&b, 0.0));
    }

    #[test]
    fn input_validation() {
        let x = Matrix::zeros(5, 2);
        assert!(train_linreg(&x, &Matrix::zeros(4, 1), &PsConfig::default()).is_err());
        assert!(train_linreg(&x, &Matrix::zeros(5, 2), &PsConfig::default()).is_err());
        assert!(train_linreg(
            &Matrix::zeros(0, 2),
            &Matrix::zeros(0, 1),
            &PsConfig::default()
        )
        .is_err());
    }

    #[test]
    fn single_worker_degenerates_to_sgd() {
        let (x, y) = gen::synthetic_regression(80, 2, 1.0, 0.0, 404);
        let config = PsConfig {
            workers: 1,
            epochs: 200,
            batch_size: 16,
            learning_rate: 0.5,
            mode: UpdateMode::Bsp,
        };
        let w = train_linreg(&x, &y, &config).unwrap();
        assert!(w.approx_eq(&exact(&x, &y), 5e-2));
    }

    #[test]
    fn more_workers_than_rows_is_safe() {
        let (x, y) = gen::synthetic_regression(3, 2, 1.0, 0.0, 405);
        let config = PsConfig {
            workers: 16,
            epochs: 5,
            ..PsConfig::default()
        };
        assert!(train_linreg(&x, &y, &config).is_ok());
    }
}
