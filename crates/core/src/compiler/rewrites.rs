//! HOP rewrites: constant folding, algebraic simplification, and fusion.
//!
//! Two rounds, as in SystemML:
//! * **static** rewrites need no size information — constant folding,
//!   double-transpose elimination, identity ops (`X*1`, `X+0`, `X^1`),
//!   and the `t(X) %*% X` → `tsmm` fusion;
//! * **dynamic** rewrites use propagated sizes — `t(X) %*% y` → fused
//!   `tmv` when `y` is a column vector. They re-run at dynamic
//!   recompilation when sizes first become known.
//!
//! With fusion on, [`mmchain_fusion`] then folds `tmv(X, X %*% v)` into
//! the one-pass `mmchain` operator.

use super::hop::{Dim, HopDag, HopId, HopOp};
use crate::builtins::runtime::{Param, MATMUL, MMCHAIN, TMV, TRANSPOSE, TSMM};
use sysds_common::ScalarValue;
use sysds_tensor::kernels::{BinaryOp, Direction, UnaryOp};

/// Apply static rewrites; returns remapped roots.
pub fn rewrite_static(dag: &mut HopDag, roots: &[HopId]) -> Vec<HopId> {
    let mut map: Vec<HopId> = (0..dag.len()).collect();
    for id in 0..dag.len() {
        // Remap inputs through earlier replacements first.
        let inputs: Vec<HopId> = dag.node(id).inputs.iter().map(|&i| map[i]).collect();
        dag.node_mut(id).inputs = inputs.clone();

        let replacement = constant_fold(dag, id)
            .or_else(|| double_transpose(dag, id))
            .or_else(|| identity_op(dag, id))
            .or_else(|| transpose_invariant_agg(dag, id))
            .or_else(|| sigmoid_fusion(dag, id))
            .or_else(|| tsmm_fusion(dag, id));
        if let Some(rep) = replacement {
            map[id] = rep;
        }
    }
    roots.iter().map(|&r| map[r]).collect()
}

/// Apply size-dependent rewrites (after size propagation).
pub fn rewrite_dynamic(dag: &mut HopDag) {
    for id in 0..dag.len() {
        tmv_fusion(dag, id);
    }
}

/// Fold an operator with a scalar rule over literal inputs into a literal,
/// by the rule the runtime applies to scalars.
fn constant_fold(dag: &mut HopDag, id: HopId) -> Option<HopId> {
    let node = dag.node(id);
    let HopOp::Op(row, param) = &node.op else {
        return None;
    };
    let inputs: Option<Vec<&ScalarValue>> = node.inputs.iter().map(|&i| dag.as_lit(i)).collect();
    let folded = (row.fold?)(param, &inputs?).ok()?;
    Some(dag.lit(folded))
}

/// `t(t(X))` → `X`.
fn double_transpose(dag: &HopDag, id: HopId) -> Option<HopId> {
    let node = dag.node(id);
    if !node.op.is(TRANSPOSE) {
        return None;
    }
    let inner = dag.node(node.inputs[0]);
    if inner.op.is(TRANSPOSE) {
        Some(inner.inputs[0])
    } else {
        None
    }
}

/// `X*1`, `1*X`, `X+0`, `0+X`, `X-0`, `X/1`, `X^1` → `X`.
fn identity_op(dag: &HopDag, id: HopId) -> Option<HopId> {
    let node = dag.node(id);
    let HopOp::Op(_, Param::Binary(op)) = node.op else {
        return None;
    };
    let &[a, b] = node.inputs.as_slice() else {
        return None;
    };
    let lit_is = |x: HopId, v: f64| dag.as_lit(x).and_then(|l| l.as_f64().ok()) == Some(v);
    match op {
        BinaryOp::Mul if lit_is(b, 1.0) => Some(a),
        BinaryOp::Mul if lit_is(a, 1.0) => Some(b),
        BinaryOp::Add if lit_is(b, 0.0) => Some(a),
        BinaryOp::Add if lit_is(a, 0.0) => Some(b),
        BinaryOp::Sub if lit_is(b, 0.0) => Some(a),
        BinaryOp::Div if lit_is(b, 1.0) => Some(a),
        BinaryOp::Pow if lit_is(b, 1.0) => Some(a),
        _ => None,
    }
}

/// Full aggregates are invariant under transpose: `sum(t(X))` → `sum(X)`
/// (same for mean/min/max/var/sd/sumSq).
fn transpose_invariant_agg(dag: &mut HopDag, id: HopId) -> Option<HopId> {
    let node = dag.node(id);
    let HopOp::Op(_, Param::Agg(_, Direction::Full)) = node.op else {
        return None;
    };
    let inner = dag.node(node.inputs[0]);
    if inner.op.is(TRANSPOSE) {
        let (op, x) = (node.op.clone(), inner.inputs[0]);
        dag.replace(id, op, vec![x]);
    }
    None // structural replacement
}

/// Fuse the logistic pattern `1 / (1 + exp(-X))` into a single `sigmoid`
/// operator (paper §3.4, operator fusion).
fn sigmoid_fusion(dag: &mut HopDag, id: HopId) -> Option<HopId> {
    let node = dag.node(id);
    let HopOp::Op(_, Param::Binary(BinaryOp::Div)) = node.op else {
        return None;
    };
    let &[one_a, denom] = node.inputs.as_slice() else {
        return None;
    };
    let lit_is_one = |x: HopId| dag.as_lit(x).and_then(|l| l.as_f64().ok()) == Some(1.0);
    if !lit_is_one(one_a) {
        return None;
    }
    let dnode = dag.node(denom);
    let HopOp::Op(_, Param::Binary(BinaryOp::Add)) = dnode.op else {
        return None;
    };
    let &[l, r] = dnode.inputs.as_slice() else {
        return None;
    };
    // accept 1 + exp(-x) in either operand order
    let (one_b, exp_id) = if lit_is_one(l) { (l, r) } else { (r, l) };
    if !lit_is_one(one_b) {
        return None;
    }
    let enode = dag.node(exp_id);
    if enode.op != HopOp::unary(UnaryOp::Exp) {
        return None;
    }
    let nnode = dag.node(enode.inputs[0]);
    if nnode.op != HopOp::unary(UnaryOp::Neg) {
        return None;
    }
    let x = nnode.inputs[0];
    dag.replace(id, HopOp::unary(UnaryOp::Sigmoid), vec![x]);
    None // structural replacement
}

/// `t(X) %*% X` → `tsmm(X)` (in place).
fn tsmm_fusion(dag: &mut HopDag, id: HopId) -> Option<HopId> {
    let node = dag.node(id);
    if !node.op.is(MATMUL) {
        return None;
    }
    let &[l, r] = node.inputs.as_slice() else {
        return None;
    };
    let lnode = dag.node(l);
    if lnode.op.is(TRANSPOSE) && lnode.inputs[0] == r {
        dag.replace(id, HopOp::op(TSMM), vec![r]);
    }
    None // structural replacement, not an alias
}

/// `t(X) %*% y` → `tmv(X, y)` when `y` is known to be a column vector.
fn tmv_fusion(dag: &mut HopDag, id: HopId) {
    let node = dag.node(id);
    if !node.op.is(MATMUL) {
        return;
    }
    let &[l, r] = node.inputs.as_slice() else {
        return;
    };
    let lnode = dag.node(l);
    if !lnode.op.is(TRANSPOSE) {
        return;
    }
    let x = lnode.inputs[0];
    if dag.node(r).size.cols == Dim::Known(1) && !dag.node(r).size.scalar {
        dag.replace(id, HopOp::op(TMV), vec![x, r]);
    }
}

/// `tmv(X, X %*% v)` → `mmchain(X, v)` (the lmCG step `t(X) %*% (X %*% p)`),
/// run after [`rewrite_dynamic`] when fusion is on; returns the number of
/// chains introduced. The inner product must be a mat-vec whose only
/// consumer is the `tmv` and which no statement binds: the chain never
/// materializes `X %*% v`, so any other reader would lose its input.
pub fn mmchain_fusion(dag: &mut HopDag, roots: &[HopId]) -> usize {
    let reach = dag.reachable(roots);
    let mut uses = vec![0usize; dag.len()];
    for id in (0..dag.len()).filter(|&id| reach[id]) {
        for &i in &dag.node(id).inputs {
            uses[i] += 1;
        }
    }
    for &r in roots {
        uses[r] += 1;
    }
    let mut chains = 0;
    for id in (0..dag.len()).filter(|&id| reach[id]) {
        let node = dag.node(id);
        let &[x, q] = node.inputs.as_slice() else {
            continue;
        };
        let inner = dag.node(q);
        let single_use_matvec = node.op.is(TMV)
            && inner.op.is(MATMUL)
            && uses[q] == 1
            && inner.inputs[0] == x
            && inner.size.cols == Dim::Known(1);
        if single_use_matvec {
            let v = inner.inputs[1];
            dag.replace(id, HopOp::op(MMCHAIN), vec![x, v]);
            chains += 1;
        }
    }
    chains
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::hop::SizeInfo;
    use crate::compiler::size::{propagate, SizeEnv};

    #[test]
    fn folds_arithmetic() {
        let mut dag = HopDag::new();
        let a = dag.lit(ScalarValue::I64(2));
        let b = dag.lit(ScalarValue::I64(3));
        let sum = dag.add(HopOp::binary(BinaryOp::Add), vec![a, b]);
        let roots = rewrite_static(&mut dag, &[sum]);
        assert_eq!(dag.as_lit(roots[0]), Some(&ScalarValue::I64(5)));
    }

    #[test]
    fn folds_comparisons_to_bool() {
        let mut dag = HopDag::new();
        let a = dag.lit(ScalarValue::I64(2));
        let b = dag.lit(ScalarValue::I64(3));
        let cmp = dag.add(HopOp::binary(BinaryOp::Lt), vec![a, b]);
        let roots = rewrite_static(&mut dag, &[cmp]);
        assert_eq!(dag.as_lit(roots[0]), Some(&ScalarValue::Bool(true)));
    }

    #[test]
    fn folds_string_concat() {
        let mut dag = HopDag::new();
        let a = dag.lit(ScalarValue::Str("k=".into()));
        let b = dag.lit(ScalarValue::I64(7));
        let cat = dag.add(HopOp::binary(BinaryOp::Add), vec![a, b]);
        let roots = rewrite_static(&mut dag, &[cat]);
        assert_eq!(dag.as_lit(roots[0]), Some(&ScalarValue::Str("k=7".into())));
    }

    #[test]
    fn folds_transitively() {
        // (1 + 2) * 3 folds to 9
        let mut dag = HopDag::new();
        let a = dag.lit(ScalarValue::I64(1));
        let b = dag.lit(ScalarValue::I64(2));
        let sum = dag.add(HopOp::binary(BinaryOp::Add), vec![a, b]);
        let c = dag.lit(ScalarValue::I64(3));
        let prod = dag.add(HopOp::binary(BinaryOp::Mul), vec![sum, c]);
        let roots = rewrite_static(&mut dag, &[prod]);
        assert_eq!(dag.as_lit(roots[0]), Some(&ScalarValue::I64(9)));
    }

    #[test]
    fn eliminates_double_transpose() {
        let mut dag = HopDag::new();
        let x = dag.add(HopOp::Var("X".into()), vec![]);
        let t1 = dag.add(HopOp::op(TRANSPOSE), vec![x]);
        let t2 = dag.add(HopOp::op(TRANSPOSE), vec![t1]);
        let roots = rewrite_static(&mut dag, &[t2]);
        assert_eq!(roots[0], x);
    }

    #[test]
    fn identity_ops_eliminated() {
        let mut dag = HopDag::new();
        let x = dag.add(HopOp::Var("X".into()), vec![]);
        let one = dag.lit(ScalarValue::F64(1.0));
        let zero = dag.lit(ScalarValue::F64(0.0));
        let m = dag.add(HopOp::binary(BinaryOp::Mul), vec![x, one]);
        let a = dag.add(HopOp::binary(BinaryOp::Add), vec![m, zero]);
        let roots = rewrite_static(&mut dag, &[a]);
        assert_eq!(roots[0], x);
    }

    #[test]
    fn tsmm_fused_from_pattern() {
        let mut dag = HopDag::new();
        let x = dag.add(HopOp::Var("X".into()), vec![]);
        let t = dag.add(HopOp::op(TRANSPOSE), vec![x]);
        let mm = dag.add(HopOp::op(MATMUL), vec![t, x]);
        let roots = rewrite_static(&mut dag, &[mm]);
        assert_eq!(dag.node(roots[0]).op, HopOp::op(TSMM));
        assert_eq!(dag.node(roots[0]).inputs, vec![x]);
    }

    #[test]
    fn tmv_fused_when_vector_known() {
        let mut dag = HopDag::new();
        let x = dag.add(HopOp::Var("X".into()), vec![]);
        let y = dag.add(HopOp::Var("y".into()), vec![]);
        let t = dag.add(HopOp::op(TRANSPOSE), vec![x]);
        let mm = dag.add(HopOp::op(MATMUL), vec![t, y]);
        let mut env = SizeEnv::default();
        env.insert("X".into(), SizeInfo::matrix(100, 5, Some(1.0)));
        env.insert("y".into(), SizeInfo::matrix(100, 1, Some(1.0)));
        propagate(&mut dag, &env, &[mm]);
        rewrite_dynamic(&mut dag);
        assert_eq!(dag.node(mm).op, HopOp::op(TMV));
        assert_eq!(dag.node(mm).inputs, vec![x, y]);

        // Without size knowledge the pattern is left alone.
        let mut dag2 = HopDag::new();
        let x2 = dag2.add(HopOp::Var("X".into()), vec![]);
        let y2 = dag2.add(HopOp::Var("y".into()), vec![]);
        let t2 = dag2.add(HopOp::op(TRANSPOSE), vec![x2]);
        let mm2 = dag2.add(HopOp::op(MATMUL), vec![t2, y2]);
        propagate(&mut dag2, &SizeEnv::default(), &[mm2]);
        rewrite_dynamic(&mut dag2);
        assert_eq!(dag2.node(mm2).op, HopOp::op(MATMUL));
    }

    /// `t(X) %*% (X %*% v)` with known sizes, after the dynamic rewrites;
    /// returns the DAG and the ids of `X`, `v`, `X %*% v` and the product.
    fn chain_dag() -> (HopDag, [HopId; 4]) {
        let mut dag = HopDag::new();
        let x = dag.add(HopOp::Var("X".into()), vec![]);
        let v = dag.add(HopOp::Var("v".into()), vec![]);
        let xv = dag.add(HopOp::op(MATMUL), vec![x, v]);
        let t = dag.add(HopOp::op(TRANSPOSE), vec![x]);
        let mm = dag.add(HopOp::op(MATMUL), vec![t, xv]);
        let mut env = SizeEnv::default();
        env.insert("X".into(), SizeInfo::matrix(100, 5, Some(1.0)));
        env.insert("v".into(), SizeInfo::matrix(5, 1, Some(1.0)));
        propagate(&mut dag, &env, &[mm]);
        rewrite_dynamic(&mut dag);
        (dag, [x, v, xv, mm])
    }

    #[test]
    fn mmchain_fused_from_single_use_matvec() {
        let (mut dag, [x, v, _, mm]) = chain_dag();
        assert_eq!(dag.node(mm).op, HopOp::op(TMV));
        assert_eq!(mmchain_fusion(&mut dag, &[mm]), 1);
        assert_eq!(dag.node(mm).op, HopOp::op(MMCHAIN));
        assert_eq!(dag.node(mm).inputs, vec![x, v]);
    }

    #[test]
    fn mmchain_not_fused_when_matvec_is_shared() {
        // X %*% v is also a statement root: it must stay materialized.
        let (mut dag, [_, _, xv, mm]) = chain_dag();
        assert_eq!(mmchain_fusion(&mut dag, &[mm, xv]), 0);
        assert_eq!(dag.node(mm).op, HopOp::op(TMV));

        // X %*% v feeds a second consumer.
        let (mut dag, [_, _, xv, mm]) = chain_dag();
        let s = dag.add(
            HopOp::agg(
                sysds_tensor::kernels::AggFn::Sum,
                sysds_tensor::kernels::Direction::Full,
            ),
            vec![xv],
        );
        assert_eq!(mmchain_fusion(&mut dag, &[mm, s]), 0);
        assert_eq!(dag.node(mm).op, HopOp::op(TMV));
    }

    #[test]
    fn mmchain_not_fused_for_different_matrices() {
        // t(Z) %*% (X %*% v) reads two matrices and stays a tmv.
        let mut dag = HopDag::new();
        let x = dag.add(HopOp::Var("X".into()), vec![]);
        let z = dag.add(HopOp::Var("Z".into()), vec![]);
        let v = dag.add(HopOp::Var("v".into()), vec![]);
        let xv = dag.add(HopOp::op(MATMUL), vec![x, v]);
        let t = dag.add(HopOp::op(TRANSPOSE), vec![z]);
        let mm = dag.add(HopOp::op(MATMUL), vec![t, xv]);
        let mut env = SizeEnv::default();
        env.insert("X".into(), SizeInfo::matrix(100, 5, Some(1.0)));
        env.insert("Z".into(), SizeInfo::matrix(100, 5, Some(1.0)));
        env.insert("v".into(), SizeInfo::matrix(5, 1, Some(1.0)));
        propagate(&mut dag, &env, &[mm]);
        rewrite_dynamic(&mut dag);
        assert_eq!(mmchain_fusion(&mut dag, &[mm]), 0);
        assert_eq!(dag.node(mm).op, HopOp::op(TMV));
    }

    #[test]
    fn tsmm_not_fused_for_different_operands() {
        let mut dag = HopDag::new();
        let x = dag.add(HopOp::Var("X".into()), vec![]);
        let y = dag.add(HopOp::Var("Y".into()), vec![]);
        let t = dag.add(HopOp::op(TRANSPOSE), vec![x]);
        let mm = dag.add(HopOp::op(MATMUL), vec![t, y]);
        rewrite_static(&mut dag, &[mm]);
        assert_eq!(dag.node(mm).op, HopOp::op(MATMUL));
    }

    #[test]
    fn sum_of_transpose_drops_transpose() {
        let mut dag = HopDag::new();
        let x = dag.add(HopOp::Var("X".into()), vec![]);
        let t = dag.add(HopOp::op(TRANSPOSE), vec![x]);
        let s = dag.add(
            HopOp::agg(
                sysds_tensor::kernels::AggFn::Sum,
                sysds_tensor::kernels::Direction::Full,
            ),
            vec![t],
        );
        rewrite_static(&mut dag, &[s]);
        assert_eq!(dag.node(s).inputs, vec![x]);
        // row aggregates are NOT transpose-invariant and stay untouched
        let r = dag.add(
            HopOp::agg(
                sysds_tensor::kernels::AggFn::Sum,
                sysds_tensor::kernels::Direction::Row,
            ),
            vec![t],
        );
        rewrite_static(&mut dag, &[r]);
        assert_eq!(dag.node(r).inputs, vec![t]);
    }

    #[test]
    fn sigmoid_pattern_fused() {
        // 1 / (1 + exp(-X)) → sigmoid(X)
        let mut dag = HopDag::new();
        let x = dag.add(HopOp::Var("X".into()), vec![]);
        let neg = dag.add(HopOp::unary(UnaryOp::Neg), vec![x]);
        let ex = dag.add(HopOp::unary(UnaryOp::Exp), vec![neg]);
        let one = dag.lit(ScalarValue::F64(1.0));
        let denom = dag.add(HopOp::binary(BinaryOp::Add), vec![one, ex]);
        let div = dag.add(HopOp::binary(BinaryOp::Div), vec![one, denom]);
        rewrite_static(&mut dag, &[div]);
        assert_eq!(dag.node(div).op, HopOp::unary(UnaryOp::Sigmoid));
        assert_eq!(dag.node(div).inputs, vec![x]);
    }

    #[test]
    fn sigmoid_pattern_not_fused_for_other_constants() {
        // 2 / (1 + exp(-X)) must stay a division
        let mut dag = HopDag::new();
        let x = dag.add(HopOp::Var("X".into()), vec![]);
        let neg = dag.add(HopOp::unary(UnaryOp::Neg), vec![x]);
        let ex = dag.add(HopOp::unary(UnaryOp::Exp), vec![neg]);
        let one = dag.lit(ScalarValue::F64(1.0));
        let two = dag.lit(ScalarValue::F64(2.0));
        let denom = dag.add(HopOp::binary(BinaryOp::Add), vec![one, ex]);
        let div = dag.add(HopOp::binary(BinaryOp::Div), vec![two, denom]);
        rewrite_static(&mut dag, &[div]);
        assert_eq!(dag.node(div).op, HopOp::binary(BinaryOp::Div));
    }

    #[test]
    fn unary_fold() {
        let mut dag = HopDag::new();
        let a = dag.lit(ScalarValue::F64(4.0));
        let s = dag.add(HopOp::unary(UnaryOp::Sqrt), vec![a]);
        let roots = rewrite_static(&mut dag, &[s]);
        assert_eq!(dag.as_lit(roots[0]), Some(&ScalarValue::F64(2.0)));
        // integer negation stays integer
        let i = dag.lit(ScalarValue::I64(3));
        let n = dag.add(HopOp::unary(UnaryOp::Neg), vec![i]);
        let roots = rewrite_static(&mut dag, &[n]);
        assert_eq!(dag.as_lit(roots[0]), Some(&ScalarValue::I64(-3)));
    }

    /// The literal `op` folds to, and the value the runtime computes for
    /// the same node when it is not folded.
    fn folded_and_run(op: HopOp, operands: &[&ScalarValue]) -> (ScalarValue, ScalarValue) {
        use crate::compiler::lower::Instr;
        use crate::runtime::instructions::{execute, ExecCtx};
        use crate::runtime::value::SymbolTable;
        let mut dag = HopDag::new();
        let inputs = operands.iter().map(|v| dag.lit((*v).clone())).collect();
        let node = dag.add(op, inputs);
        let config = sysds_common::EngineConfig {
            spill_dir: sysds_common::testing::unique_temp_dir("sysds-fold-tests"),
            ..Default::default()
        };
        let ctx = ExecCtx::new(config).unwrap();
        let mut slots = vec![None; dag.len()];
        for (id, hop) in dag.nodes().iter().enumerate() {
            let (op, inputs) = (hop.op.clone(), hop.inputs.clone());
            let instr = Instr {
                op,
                inputs,
                out: id,
                size: SizeInfo::unknown(),
            };
            execute(&instr, &mut slots, &SymbolTable::new(), &ctx).unwrap();
        }
        let run = slots[node].take().unwrap().data.as_scalar().unwrap();
        let roots = rewrite_static(&mut dag, &[node]);
        (
            dag.as_lit(roots[0]).expect("folded to a literal").clone(),
            run,
        )
    }

    #[test]
    fn folding_and_runtime_agree_on_scalars() {
        let edges = [
            ScalarValue::I64(0),
            ScalarValue::I64(-1),
            ScalarValue::I64(2),
            ScalarValue::I64(70),
            ScalarValue::I64(i64::MAX),
            ScalarValue::I64(i64::MIN),
            ScalarValue::F64(2.5),
            ScalarValue::F64(f64::NAN),
            ScalarValue::Bool(true),
        ];
        for op in BinaryOp::ALL {
            for a in &edges {
                for b in &edges {
                    let (folded, run) = folded_and_run(HopOp::binary(op), &[a, b]);
                    let what = format!("{a:?} {} {b:?}", op.opcode());
                    assert_eq!(format!("{folded:?}"), format!("{run:?}"), "{what}");
                    assert_eq!(
                        folded.to_display_string(),
                        run.to_display_string(),
                        "{what}"
                    );
                }
            }
        }
        for op in UnaryOp::ALL {
            for a in &edges {
                let (folded, run) = folded_and_run(HopOp::unary(op), &[a]);
                assert_eq!(
                    format!("{folded:?}"),
                    format!("{run:?}"),
                    "{} {a:?}",
                    op.opcode()
                );
            }
        }
    }

    #[test]
    fn scalar_rule_types() {
        let fold = |op, a, b| folded_and_run(HopOp::binary(op), &[&a, &b]).0;
        let (i, f) = (ScalarValue::I64, ScalarValue::F64);
        assert_eq!(fold(BinaryOp::Div, i(6), i(2)), f(3.0));
        assert_eq!(fold(BinaryOp::Pow, i(2), i(3)), f(8.0));
        assert_eq!(fold(BinaryOp::Pow, i(2), i(70)), f(2f64.powi(70)));
        assert_eq!(
            fold(BinaryOp::Mul, i(i64::MIN), i(2)),
            f(i64::MIN as f64 * 2.0)
        );
        assert_eq!(fold(BinaryOp::IntDiv, i(-7), i(2)), i(-4));
        assert_eq!(fold(BinaryOp::Mod, i(-7), i(2)), i(1));
        assert!(matches!(fold(BinaryOp::Mod, i(7), i(0)), ScalarValue::F64(v) if v.is_nan()));
        assert_eq!(fold(BinaryOp::Add, i(i64::MAX), i(0)), i(i64::MAX));
        assert_eq!(fold(BinaryOp::Lt, i(1), f(2.5)), ScalarValue::Bool(true));
        let neg = folded_and_run(HopOp::unary(UnaryOp::Neg), &[&i(i64::MIN)]).0;
        assert_eq!(neg, f(-(i64::MIN as f64)));
    }
}
