//! The three baseline engines (TF eager, TF graph, Julia stand-ins).

use crate::workload::{HyperParamWorkload, WorkloadResult};
use sysds_common::hash::FxHashMap;
use sysds_common::Result;
use sysds_io::FormatDescriptor;
use sysds_tensor::kernels::BinaryOp;
use sysds_tensor::kernels::{elementwise, indexing, matmult, reorg, solve, tsmm};
use sysds_tensor::Matrix;

/// A baseline engine that can run the hyper-parameter workload end-to-end
/// (CSV read → k model trainings → CSV write), like §4.1 measures.
pub trait Engine {
    /// Engine label as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Run the workload end-to-end; input files must exist
    /// (see [`HyperParamWorkload::materialize`]).
    fn run(&self, w: &HyperParamWorkload) -> Result<WorkloadResult>;
}

fn ridge_lhs(gram: &Matrix, lambda: f64) -> Result<Matrix> {
    let n = gram.rows();
    let reg = elementwise::binary_ms(
        BinaryOp::Mul,
        &Matrix::Dense(Matrix::identity(n).to_dense()),
        lambda,
    );
    elementwise::binary_mm(BinaryOp::Add, gram, &reg)
}

fn stack_models(models: Vec<Matrix>) -> Result<Matrix> {
    let mut it = models.into_iter();
    let mut acc = it.next().expect("at least one model");
    for m in it {
        acc = indexing::cbind(&acc, &m)?;
    }
    Ok(acc)
}

/// TF-eager stand-in: single-threaded I/O, op-by-op execution with a
/// **materialized transpose** per model, general matmuls instead of the
/// fused `tsmm`, and zero redundancy elimination — `t(X)`, `t(X)X`, and `t(X)y` are
/// recomputed for every λ.
pub struct EagerEngine {
    /// Threads available to compute kernels (TF parallelizes matmuls).
    pub threads: usize,
}

impl Engine for EagerEngine {
    fn name(&self) -> &'static str {
        "TF"
    }

    fn run(&self, w: &HyperParamWorkload) -> Result<WorkloadResult> {
        let desc = FormatDescriptor::csv();
        // Single-threaded parse: this is what makes TF's single-model
        // cold-start slower than SysDS in Fig. 5(a).
        let x = sysds_io::csv::read_matrix(w.x_path(), &desc, 1)?;
        let y = sysds_io::csv::read_matrix(w.y_path(), &desc, 1)?;
        let mut models = Vec::with_capacity(w.num_models);
        for lambda in w.lambdas() {
            // materialized transpose, every iteration
            let xt = reorg::transpose(&x, self.threads);
            let gram = matmult::matmul(&xt, &x, self.threads)?;
            let xty = matmult::matmul(&xt, &y, self.threads)?;
            let lhs = ridge_lhs(&gram, lambda)?;
            models.push(solve::solve(&lhs, &xty)?);
        }
        let result = WorkloadResult {
            models: stack_models(models)?,
        };
        result.write(&w.model_path())?;
        Ok(result)
    }
}

/// TF-graph stand-in: the whole sweep is staged as one expression graph;
/// common subexpressions across the k models are computed **once** (the
/// transpose and the Gram matrix), but there is no fused tsmm and no
/// cross-run reuse.
pub struct GraphEngine {
    pub threads: usize,
}

/// A tiny expression graph with hash-consing — just enough to demonstrate
/// the "single graph → CSE" behaviour of TF-G.
struct ExprGraph {
    nodes: Vec<(String, Vec<usize>)>,
    cse: FxHashMap<(String, Vec<usize>), usize>,
    values: Vec<Option<Matrix>>,
}

impl ExprGraph {
    fn new() -> ExprGraph {
        ExprGraph {
            nodes: Vec::new(),
            cse: FxHashMap::default(),
            values: Vec::new(),
        }
    }

    fn add(&mut self, op: impl Into<String>, inputs: Vec<usize>) -> usize {
        let key = (op.into(), inputs);
        if let Some(&id) = self.cse.get(&key) {
            return id;
        }
        let id = self.nodes.len();
        self.nodes.push(key.clone());
        self.values.push(None);
        self.cse.insert(key, id);
        id
    }

    fn feed(&mut self, name: &str, value: Matrix) -> usize {
        let id = self.add(format!("feed:{name}"), vec![]);
        self.values[id] = Some(value);
        id
    }

    /// Evaluate all nodes once, in insertion (topological) order.
    fn run(&mut self, threads: usize) -> Result<()> {
        for id in 0..self.nodes.len() {
            if self.values[id].is_some() {
                continue;
            }
            let (op, inputs) = self.nodes[id].clone();
            let get = |k: usize| self.values[inputs[k]].as_ref().expect("topo order");
            let out = match op.as_str() {
                "transpose" => reorg::transpose(get(0), threads),
                "matmul" => matmult::matmul(get(0), get(1), threads)?,
                op if op.starts_with("ridge:") => {
                    let lambda: f64 = op["ridge:".len()..].parse().expect("encoded lambda");
                    ridge_lhs(get(0), lambda)?
                }
                "solve" => solve::solve(get(0), get(1))?,
                other => {
                    return Err(sysds_common::SysDsError::runtime(format!(
                        "graph engine: unknown op '{other}'"
                    )))
                }
            };
            self.values[id] = Some(out);
        }
        Ok(())
    }

    fn take(&mut self, id: usize) -> Matrix {
        self.values[id].take().expect("node evaluated")
    }
}

impl Engine for GraphEngine {
    fn name(&self) -> &'static str {
        "TF-G"
    }

    fn run(&self, w: &HyperParamWorkload) -> Result<WorkloadResult> {
        let desc = FormatDescriptor::csv();
        let x = sysds_io::csv::read_matrix(w.x_path(), &desc, 1)?;
        let y = sysds_io::csv::read_matrix(w.y_path(), &desc, 1)?;
        // Stage one graph for the entire sweep; CSE shares t(X), t(X)X,
        // and t(X)y across the k models.
        let mut g = ExprGraph::new();
        let xn = g.feed("X", x);
        let yn = g.feed("y", y);
        let xt = g.add("transpose", vec![xn]);
        let gram = g.add("matmul", vec![xt, xn]);
        let xty = g.add("matmul", vec![xt, yn]);
        let mut outs = Vec::with_capacity(w.num_models);
        for lambda in w.lambdas() {
            let lhs = g.add(format!("ridge:{lambda}"), vec![gram]);
            outs.push(g.add("solve", vec![lhs, xty]));
        }
        g.run(self.threads)?;
        let models: Vec<Matrix> = outs.into_iter().map(|id| g.take(id)).collect();
        let result = WorkloadResult {
            models: stack_models(models)?,
        };
        result.write(&w.model_path())?;
        Ok(result)
    }
}

/// Julia stand-in: tuned native kernels (blocked fused `tsmm`) but
/// single-threaded I/O and no cross-model redundancy elimination — every
/// λ recomputes `X'X` and `X'y`.
pub struct NativeEngine {
    pub threads: usize,
}

impl Engine for NativeEngine {
    fn name(&self) -> &'static str {
        "Julia"
    }

    fn run(&self, w: &HyperParamWorkload) -> Result<WorkloadResult> {
        let desc = FormatDescriptor::csv();
        let x = sysds_io::csv::read_matrix(w.x_path(), &desc, 1)?;
        let y = sysds_io::csv::read_matrix(w.y_path(), &desc, 1)?;
        let mut models = Vec::with_capacity(w.num_models);
        for lambda in w.lambdas() {
            // Dense: fused, optimized kernels — but recomputed per model.
            // Sparse: Julia 1.1's sparse stack had no fused X'X (the paper's
            // Fig. 5(b) point), so the transpose is materialized.
            let (gram, xty) = if x.is_sparse() {
                let xt = reorg::transpose(&x, self.threads);
                (
                    matmult::matmul(&xt, &x, self.threads)?,
                    matmult::matmul(&xt, &y, self.threads)?,
                )
            } else {
                (
                    tsmm::tsmm(&x, self.threads, true),
                    tsmm::tmv(&x, &y, self.threads)?,
                )
            };
            let lhs = ridge_lhs(&gram, lambda)?;
            models.push(solve::solve(&lhs, &xty)?);
        }
        let result = WorkloadResult {
            models: stack_models(models)?,
        };
        result.write(&w.model_path())?;
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wl(name: &str) -> HyperParamWorkload {
        HyperParamWorkload {
            rows: 60,
            cols: 5,
            sparsity: 1.0,
            num_models: 4,
            seed: 21,
            dir: std::env::temp_dir().join(format!("sysds-baseline-tests-{name}")),
        }
    }

    #[test]
    fn all_engines_agree_on_models() {
        let w = wl("agree");
        w.materialize().unwrap();
        let eager = EagerEngine { threads: 2 }.run(&w).unwrap();
        let graph = GraphEngine { threads: 2 }.run(&w).unwrap();
        let native = NativeEngine { threads: 2 }.run(&w).unwrap();
        assert!(eager.approx_eq(&graph, 1e-7));
        assert!(eager.approx_eq(&native, 1e-7));
        assert_eq!(eager.models.shape(), (5, 4));
        w.cleanup();
    }

    #[test]
    fn sparse_workload_also_agrees() {
        let w = HyperParamWorkload {
            sparsity: 0.2,
            ..wl("sparse")
        };
        w.materialize().unwrap();
        let eager = EagerEngine { threads: 1 }.run(&w).unwrap();
        let native = NativeEngine { threads: 1 }.run(&w).unwrap();
        assert!(eager.approx_eq(&native, 1e-7));
        w.cleanup();
    }

    #[test]
    fn models_differ_across_lambdas() {
        let w = wl("lambdas");
        w.materialize().unwrap();
        let r = NativeEngine { threads: 1 }.run(&w).unwrap();
        // Different λ must give (slightly) different models.
        let c0 = indexing::column(&r.models, 0).unwrap();
        let c3 = indexing::column(&r.models, 3).unwrap();
        assert!(!c0.approx_eq(&c3, 0.0));
        w.cleanup();
    }

    #[test]
    fn graph_engine_cse_counts_nodes() {
        // The graph for k models must contain exactly one transpose and
        // two shared matmuls, plus k ridge and k solve nodes.
        let mut g = ExprGraph::new();
        let x = g.feed("X", Matrix::identity(3));
        let y = g.feed("y", Matrix::zeros(3, 1));
        let xt1 = g.add("transpose", vec![x]);
        let xt2 = g.add("transpose", vec![x]);
        assert_eq!(xt1, xt2, "transpose CSE'd");
        let g1 = g.add("matmul", vec![xt1, x]);
        let g2 = g.add("matmul", vec![xt2, x]);
        assert_eq!(g1, g2, "gram CSE'd");
        let _ = y;
    }

    #[test]
    fn workload_output_written() {
        let w = wl("output");
        w.materialize().unwrap();
        NativeEngine { threads: 1 }.run(&w).unwrap();
        assert!(w.model_path().exists());
        let back = sysds_io::csv::read_matrix(w.model_path(), &FormatDescriptor::csv(), 1).unwrap();
        assert_eq!(back.shape(), (5, 4));
        w.cleanup();
    }
}
