//! Reverse-mode automatic differentiation over HOP DAGs.
//!
//! The paper positions lineage as "a key enabling technique for model
//! versioning, reuse of intermediates, **auto differentiation**, and
//! debugging" (§3.1). This module implements the differentiation half: a
//! compiled expression DAG with a scalar root is extended with its
//! gradient computation — new HOP nodes appended to the same DAG, so the
//! backward pass shares the forward pass's subexpressions via CSE and
//! flows through the ordinary lowering, operator selection, lineage
//! tracing, and reuse machinery.
//!
//! Supported operators (matrix calculus, denominator layout):
//!
//! | forward | adjoint contributions |
//! |---|---|
//! | `C = A + B` | `dA += G`, `dB += G` |
//! | `C = A - B` | `dA += G`, `dB += -G` |
//! | `C = A ⊙ B` | `dA += G ⊙ B`, `dB += G ⊙ A` (same shape or scalar) |
//! | `C = A / b` (scalar b) | `dA += G / b` |
//! | `C = A %*% B` | `dA += G %*% t(B)`, `dB += t(A) %*% G` |
//! | `C = t(X) %*% X` (tsmm) | `dX += X %*% (G + t(G))` |
//! | `c = t(X) %*% y` (tmv) | `dX += y %*% t(G)`, `dy += X %*% G` |
//! | `C = t(X)` | `dX += t(G)` |
//! | `s = sum(X)` | `dX += G ⊗ ones` |
//! | `s = sumSq(X)` | `dX += 2 G ⊙ X` |
//! | unary `exp/log/sqrt/sigmoid/neg/sin/cos` | chain rule |
//! | `X ^ k` (const k) | `dX += G ⊙ k X^(k-1)` |

use super::hop::{HopDag, HopId, HopOp};
use super::{BasicBlock, Root};
use crate::builtins::runtime::{Param, MATMUL, TMV, TRANSPOSE, TSMM};
use sysds_common::hash::FxHashMap;
use sysds_common::{Result, ScalarValue, SysDsError};
use sysds_tensor::kernels::{AggFn, BinaryOp, Direction, UnaryOp};

/// Extend an expression block (single `__result` root, scalar-valued) with
/// gradient outputs `__grad_<name>` for each requested variable. Returns a
/// new block whose roots are the original result plus one gradient binding
/// per `wrt` entry.
pub fn gradient_block(block: &BasicBlock, wrt: &[&str]) -> Result<BasicBlock> {
    let mut dag = block.dag.clone();
    let result = block
        .roots
        .iter()
        .find_map(|r| match r {
            Root::Bind(name, id) if name == "__result" => Some(*id),
            _ => None,
        })
        .ok_or_else(|| SysDsError::compile("autodiff requires an expression block"))?;

    // Reverse topological order: nodes are constructed inputs-first, so a
    // reverse id sweep visits consumers before producers.
    let reachable = dag.reachable(&[result]);

    // Forward closure: which nodes depend on any differentiation variable?
    // Sub-expressions outside this set are constants of the optimization
    // (e.g. `nrow(X)` when differentiating w.r.t. `w`) — adjoints neither
    // flow into them nor are required from them.
    let mut depends = vec![false; dag.len()];
    for id in 0..dag.len() {
        if let HopOp::Var(n) = &dag.node(id).op {
            if wrt.iter().any(|w| w == n) {
                depends[id] = true;
            }
        }
        if dag.node(id).inputs.iter().any(|&i| depends[i]) {
            depends[id] = true;
        }
    }

    let mut adjoint: FxHashMap<HopId, HopId> = FxHashMap::default();
    let one = dag.lit(ScalarValue::F64(1.0));
    adjoint.insert(result, one);
    depends.resize(dag.len().max(depends.len()), false);

    for id in (0..reachable.len()).rev() {
        if !reachable[id] || !depends.get(id).copied().unwrap_or(false) {
            continue;
        }
        let Some(&g) = adjoint.get(&id) else { continue };
        let node = dag.node(id).clone();
        let dep = |k: usize| depends.get(node.inputs[k]).copied().unwrap_or(false);
        match &node.op {
            HopOp::Lit(_) | HopOp::Var(_) => {}
            HopOp::Op(_, Param::Binary(BinaryOp::Add)) => {
                if dep(0) {
                    accumulate(&mut dag, &mut adjoint, node.inputs[0], g);
                }
                if dep(1) {
                    accumulate(&mut dag, &mut adjoint, node.inputs[1], g);
                }
            }
            HopOp::Op(_, Param::Binary(BinaryOp::Sub)) => {
                if dep(0) {
                    accumulate(&mut dag, &mut adjoint, node.inputs[0], g);
                }
                if dep(1) {
                    let neg = dag.add(HopOp::unary(UnaryOp::Neg), vec![g]);
                    accumulate(&mut dag, &mut adjoint, node.inputs[1], neg);
                }
            }
            HopOp::Op(_, Param::Binary(BinaryOp::Mul)) => {
                let (a, b) = (node.inputs[0], node.inputs[1]);
                if dep(0) {
                    let da = dag.add(HopOp::binary(BinaryOp::Mul), vec![g, b]);
                    accumulate(&mut dag, &mut adjoint, a, da);
                }
                if dep(1) {
                    let db = dag.add(HopOp::binary(BinaryOp::Mul), vec![g, a]);
                    accumulate(&mut dag, &mut adjoint, b, db);
                }
            }
            HopOp::Op(_, Param::Binary(BinaryOp::Div)) => {
                // Denominators must be constants of the optimization (the
                // common case: normalization by nrow(X)); the numerator
                // gets dA += G / b.
                let (a, b) = (node.inputs[0], node.inputs[1]);
                if dep(1) {
                    return Err(SysDsError::compile(
                        "autodiff: denominator must not depend on the differentiation variables",
                    ));
                }
                if dep(0) {
                    let da = dag.add(HopOp::binary(BinaryOp::Div), vec![g, b]);
                    accumulate(&mut dag, &mut adjoint, a, da);
                }
            }
            HopOp::Op(_, Param::Binary(BinaryOp::Pow)) => {
                let (a, k) = (node.inputs[0], node.inputs[1]);
                if dep(1) {
                    return Err(SysDsError::compile(
                        "autodiff: exponent must not depend on the differentiation variables",
                    ));
                }
                // dA += G * k * A^(k-1), with k as a (possibly dynamic) node
                let onel = dag.lit(ScalarValue::F64(1.0));
                let km1 = dag.add(HopOp::binary(BinaryOp::Sub), vec![k, onel]);
                let pk = dag.add(HopOp::binary(BinaryOp::Pow), vec![a, km1]);
                let scaled = dag.add(HopOp::binary(BinaryOp::Mul), vec![pk, k]);
                let da = dag.add(HopOp::binary(BinaryOp::Mul), vec![g, scaled]);
                accumulate(&mut dag, &mut adjoint, a, da);
            }
            op if op.is(MATMUL) => {
                let (a, b) = (node.inputs[0], node.inputs[1]);
                if dep(0) {
                    // dA += G %*% t(B)
                    let bt = dag.add(HopOp::op(TRANSPOSE), vec![b]);
                    let da = dag.add(HopOp::op(MATMUL), vec![g, bt]);
                    accumulate(&mut dag, &mut adjoint, a, da);
                }
                if dep(1) {
                    // dB += t(A) %*% G
                    let at = dag.add(HopOp::op(TRANSPOSE), vec![a]);
                    let db = dag.add(HopOp::op(MATMUL), vec![at, g]);
                    accumulate(&mut dag, &mut adjoint, b, db);
                }
            }
            op if op.is(TSMM) => {
                // C = t(X) X; dX += X (G + t(G))
                let x = node.inputs[0];
                let gt = dag.add(HopOp::op(TRANSPOSE), vec![g]);
                let gsym = dag.add(HopOp::binary(BinaryOp::Add), vec![g, gt]);
                let dx = dag.add(HopOp::op(MATMUL), vec![x, gsym]);
                accumulate(&mut dag, &mut adjoint, x, dx);
            }
            op if op.is(TMV) => {
                // c = t(X) y; dX += y t(G); dy += X G
                let (x, y) = (node.inputs[0], node.inputs[1]);
                if dep(0) {
                    let gt = dag.add(HopOp::op(TRANSPOSE), vec![g]);
                    let dx = dag.add(HopOp::op(MATMUL), vec![y, gt]);
                    accumulate(&mut dag, &mut adjoint, x, dx);
                }
                if dep(1) {
                    let dy = dag.add(HopOp::op(MATMUL), vec![x, g]);
                    accumulate(&mut dag, &mut adjoint, y, dy);
                }
            }
            op if op.is(TRANSPOSE) => {
                let gt = dag.add(HopOp::op(TRANSPOSE), vec![g]);
                accumulate(&mut dag, &mut adjoint, node.inputs[0], gt);
            }
            HopOp::Op(_, Param::Agg(AggFn::Sum, Direction::Full)) => {
                // dX += G * ones(shape(X)); G is scalar, and scalar ⊙
                // matrix broadcasts — multiply against X*0+1 to get shape.
                let x = node.inputs[0];
                let zero = dag.lit(ScalarValue::F64(0.0));
                let zeros = dag.add(HopOp::binary(BinaryOp::Mul), vec![x, zero]);
                let onel = dag.lit(ScalarValue::F64(1.0));
                let ones = dag.add(HopOp::binary(BinaryOp::Add), vec![zeros, onel]);
                let dx = dag.add(HopOp::binary(BinaryOp::Mul), vec![ones, g]);
                accumulate(&mut dag, &mut adjoint, x, dx);
            }
            HopOp::Op(_, Param::Agg(AggFn::SumSq, Direction::Full)) => {
                // dX += 2 G ⊙ X
                let x = node.inputs[0];
                let two = dag.lit(ScalarValue::F64(2.0));
                let gx = dag.add(HopOp::binary(BinaryOp::Mul), vec![x, two]);
                let dx = dag.add(HopOp::binary(BinaryOp::Mul), vec![gx, g]);
                accumulate(&mut dag, &mut adjoint, x, dx);
            }
            HopOp::Op(_, Param::Unary(u)) => {
                let x = node.inputs[0];
                let local = match u {
                    UnaryOp::Neg => {
                        let d = dag.add(HopOp::unary(UnaryOp::Neg), vec![g]);
                        accumulate(&mut dag, &mut adjoint, x, d);
                        continue;
                    }
                    UnaryOp::Exp => dag.add(HopOp::unary(UnaryOp::Exp), vec![x]),
                    UnaryOp::Log => {
                        let onel = dag.lit(ScalarValue::F64(1.0));
                        dag.add(HopOp::binary(BinaryOp::Div), vec![onel, x].clone())
                    }
                    UnaryOp::Sqrt => {
                        // 1 / (2 sqrt(x))
                        let s = dag.add(HopOp::unary(UnaryOp::Sqrt), vec![x]);
                        let two = dag.lit(ScalarValue::F64(2.0));
                        let denom = dag.add(HopOp::binary(BinaryOp::Mul), vec![s, two]);
                        let onel = dag.lit(ScalarValue::F64(1.0));
                        dag.add(HopOp::binary(BinaryOp::Div), vec![onel, denom])
                    }
                    UnaryOp::Sigmoid => {
                        // s(x)(1 - s(x))
                        let s = dag.add(HopOp::unary(UnaryOp::Sigmoid), vec![x]);
                        let onel = dag.lit(ScalarValue::F64(1.0));
                        let oneminus = dag.add(HopOp::binary(BinaryOp::Sub), vec![onel, s]);
                        dag.add(HopOp::binary(BinaryOp::Mul), vec![s, oneminus])
                    }
                    UnaryOp::Sin => dag.add(HopOp::unary(UnaryOp::Cos), vec![x]),
                    UnaryOp::Cos => {
                        let s = dag.add(HopOp::unary(UnaryOp::Sin), vec![x]);
                        dag.add(HopOp::unary(UnaryOp::Neg), vec![s])
                    }
                    other => {
                        return Err(SysDsError::compile(format!(
                            "autodiff: unary '{}' not differentiable here",
                            other.opcode()
                        )))
                    }
                };
                let dx = dag.add(HopOp::binary(BinaryOp::Mul), vec![g, local]);
                accumulate(&mut dag, &mut adjoint, x, dx);
            }
            other => {
                return Err(SysDsError::compile(format!(
                    "autodiff: operator '{}' is not differentiable",
                    other.opcode()
                )))
            }
        }
    }

    // Collect requested gradients; a variable the result does not depend
    // on gets gradient zero (a 1x1 zero that broadcasts poorly, so error
    // instead — callers should only request live variables).
    let mut roots = vec![Root::Bind("__result".into(), result)];
    for name in wrt {
        let var_id =
            (0..dag.len()).find(|&i| matches!(dag.node(i).op, HopOp::Var(ref n) if n == name));
        let Some(var_id) = var_id else {
            return Err(SysDsError::compile(format!(
                "autodiff: '{name}' does not appear in the expression"
            )));
        };
        let Some(&g) = adjoint.get(&var_id) else {
            return Err(SysDsError::compile(format!(
                "autodiff: result does not depend on '{name}'"
            )));
        };
        roots.push(Root::Bind(format!("__grad_{name}"), g));
    }
    Ok(BasicBlock {
        dag,
        roots,
        plan: std::sync::Mutex::new(None),
    })
}

/// `adjoint[node] += delta` — materialized as an Add node on collision.
fn accumulate(dag: &mut HopDag, adjoint: &mut FxHashMap<HopId, HopId>, node: HopId, delta: HopId) {
    match adjoint.get(&node) {
        Some(&existing) => {
            let sum = dag.add(HopOp::binary(BinaryOp::Add), vec![existing, delta]);
            adjoint.insert(node, sum);
        }
        None => {
            adjoint.insert(node, delta);
        }
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::runtime::instructions::{execute, ExecCtx, Slot};
    use crate::runtime::value::{Data, SymbolTable};
    use sysds_common::EngineConfig;
    use sysds_tensor::kernels::gen;
    use sysds_tensor::Matrix;

    /// Compile `expr_src` (an expression over variables), differentiate
    /// w.r.t. `wrt`, and evaluate value + gradients at the given inputs.
    fn eval_with_grad(
        expr_src: &str,
        wrt: &[&str],
        inputs: &[(&str, Matrix)],
    ) -> (f64, Vec<Matrix>) {
        let program = parse_program(&format!("__result = {expr_src}")).unwrap();
        let compiled = crate::compiler::compile_program(&program, &|_| None).unwrap();
        let crate::compiler::Block::Basic(block) = &compiled.blocks[0] else {
            panic!()
        };
        // rename the binding root to the expression-block convention
        let block = BasicBlock {
            dag: block.dag.clone(),
            roots: block
                .roots
                .iter()
                .map(|r| match r {
                    Root::Bind(_, id) => Root::Bind("__result".into(), *id),
                    other => other.clone(),
                })
                .collect(),
            plan: std::sync::Mutex::new(None),
        };
        let gblock = gradient_block(&block, wrt).unwrap();

        let mut config = EngineConfig::default();
        config.spill_dir = sysds_common::testing::unique_temp_dir("sysds-autodiff-tests");
        let ctx = ExecCtx::new(config.clone()).unwrap();
        let mut st = SymbolTable::new();
        for (n, m) in inputs {
            st.set(n.to_string(), Data::from_matrix(m.clone()), None);
        }
        let plan = crate::compiler::lower::lower(&gblock, &st.size_env(), &config);
        let mut slots: Vec<Option<Slot>> = vec![None; plan.nslots];
        for instr in &plan.instrs {
            execute(instr, &mut slots, &st, &ctx).unwrap();
        }
        let value = plan
            .bindings
            .iter()
            .find(|b| b.name == "__result")
            .map(|b| slots[b.slot].as_ref().unwrap().data.as_f64().unwrap());
        let value = value
            .or_else(|| {
                plan.result_slot
                    .map(|s| slots[s].as_ref().unwrap().data.as_f64().unwrap())
            })
            .unwrap();
        let grads = wrt
            .iter()
            .map(|n| {
                let b = plan
                    .bindings
                    .iter()
                    .find(|b| b.name == format!("__grad_{n}"))
                    .expect("gradient bound");
                (*slots[b.slot].as_ref().unwrap().data.as_matrix().unwrap()).clone()
            })
            .collect();
        (value, grads)
    }

    /// Central finite differences for verification.
    fn numeric_grad(expr_src: &str, wrt: &str, inputs: &[(&str, Matrix)]) -> Matrix {
        let eval = |ins: &[(&str, Matrix)]| -> f64 {
            let (v, _) = eval_with_grad(expr_src, &[], ins);
            v
        };
        let base: Vec<(&str, Matrix)> = inputs.to_vec();
        let x = inputs.iter().find(|(n, _)| *n == wrt).unwrap().1.clone();
        let h = 1e-5;
        let mut g = Matrix::zeros(x.rows(), x.cols());
        for i in 0..x.rows() {
            for j in 0..x.cols() {
                let mut plus = base.clone();
                let mut minus = base.clone();
                for (n, m) in plus.iter_mut() {
                    if *n == wrt {
                        m.set(i, j, x.get(i, j) + h);
                    }
                }
                for (n, m) in minus.iter_mut() {
                    if *n == wrt {
                        m.set(i, j, x.get(i, j) - h);
                    }
                }
                g.set(i, j, (eval(&plus) - eval(&minus)) / (2.0 * h));
            }
        }
        g
    }

    fn check(expr: &str, wrt: &str, inputs: &[(&str, Matrix)], tol: f64) {
        let (_, grads) = eval_with_grad(expr, &[wrt], inputs);
        let numeric = numeric_grad(expr, wrt, inputs);
        assert!(
            grads[0].approx_eq(&numeric, tol),
            "analytic vs numeric mismatch for {expr} wrt {wrt}:\n{:?}\nvs\n{:?}",
            grads[0].to_vec(),
            numeric.to_vec()
        );
    }

    #[test]
    fn gradient_of_sum_of_squares() {
        let x = gen::rand_uniform(4, 3, -1.0, 1.0, 1.0, 1001);
        // d/dX sum(X*X) = 2X
        let (_, grads) = eval_with_grad("sum(X * X)", &["X"], &[("X", x.clone())]);
        let expect = sysds_tensor::kernels::elementwise::binary_ms(
            sysds_tensor::kernels::BinaryOp::Mul,
            &x,
            2.0,
        );
        assert!(grads[0].approx_eq(&expect, 1e-9));
    }

    #[test]
    fn gradient_of_linear_regression_loss() {
        // L(w) = sum((X w - y)^2); dL/dw = 2 X'(Xw - y)
        let (x, y) = gen::synthetic_regression(12, 4, 1.0, 0.3, 1002);
        let w = gen::rand_uniform(4, 1, -1.0, 1.0, 1.0, 1003);
        check(
            "sum((X %*% w - y) * (X %*% w - y))",
            "w",
            &[("X", x), ("y", y), ("w", w)],
            1e-4,
        );
    }

    #[test]
    fn gradient_through_tsmm() {
        // f(X) = sum(t(X) %*% X); the tsmm-fused path must differentiate.
        let x = gen::rand_uniform(5, 3, -1.0, 1.0, 1.0, 1004);
        check("sum(t(X) %*% X)", "X", &[("X", x)], 1e-5);
    }

    #[test]
    fn gradient_through_unaries() {
        let x = gen::rand_uniform(3, 3, 0.2, 1.5, 1.0, 1005);
        for expr in [
            "sum(exp(X))",
            "sum(log(X))",
            "sum(sqrt(X))",
            "sum(sigmoid(X))",
            "sum(sin(X))",
            "sum(cos(X))",
        ] {
            check(expr, "X", &[("X", x.clone())], 1e-4);
        }
    }

    #[test]
    fn gradient_of_logistic_loss() {
        // cross-entropy-ish: sum(sigmoid(X w)) wrt w
        let x = gen::rand_uniform(8, 3, -1.0, 1.0, 1.0, 1006);
        let w = gen::rand_uniform(3, 1, -1.0, 1.0, 1.0, 1007);
        check("sum(sigmoid(X %*% w))", "w", &[("X", x), ("w", w)], 1e-4);
    }

    #[test]
    fn gradient_with_power() {
        let x = gen::rand_uniform(3, 2, 0.5, 1.5, 1.0, 1008);
        check("sum(X ^ 3)", "X", &[("X", x)], 1e-4);
    }

    #[test]
    fn multiple_gradients_at_once() {
        let a = gen::rand_uniform(3, 3, -1.0, 1.0, 1.0, 1009);
        let b = gen::rand_uniform(3, 3, -1.0, 1.0, 1.0, 1010);
        let (_, grads) = eval_with_grad(
            "sum(A * B)",
            &["A", "B"],
            &[("A", a.clone()), ("B", b.clone())],
        );
        assert!(grads[0].approx_eq(&b, 1e-9), "d/dA sum(A⊙B) = B");
        assert!(grads[1].approx_eq(&a, 1e-9), "d/dB sum(A⊙B) = A");
    }

    #[test]
    fn unsupported_ops_are_reported() {
        let program = parse_program("__result = sum(abs(X))").unwrap();
        let compiled = crate::compiler::compile_program(&program, &|_| None).unwrap();
        let crate::compiler::Block::Basic(block) = &compiled.blocks[0] else {
            panic!()
        };
        let block = BasicBlock {
            dag: block.dag.clone(),
            roots: vec![Root::Bind("__result".into(), block.roots[0].id())],
            plan: std::sync::Mutex::new(None),
        };
        assert!(gradient_block(&block, &["X"]).is_err());
    }

    #[test]
    fn independent_variable_rejected() {
        let program = parse_program("__result = sum(X)").unwrap();
        let compiled = crate::compiler::compile_program(&program, &|_| None).unwrap();
        let crate::compiler::Block::Basic(block) = &compiled.blocks[0] else {
            panic!()
        };
        let block = BasicBlock {
            dag: block.dag.clone(),
            roots: vec![Root::Bind("__result".into(), block.roots[0].id())],
            plan: std::sync::Mutex::new(None),
        };
        assert!(gradient_block(&block, &["Z"]).is_err());
    }
}
