//! Size propagation: dimensions and sparsity through HOP DAGs (paper §2.3).
//!
//! A literal is a scalar, a variable has its size at block entry, and an
//! operator node gets the size its row's rule gives for its member and
//! input nodes. Sizes feed memory estimates (`--explain`, the
//! estimate-vs-actual audit), size-dependent rewrites and fusion, and flag
//! blocks for dynamic recompilation when unknown at compile time.

use super::hop::{HopDag, HopId, HopOp, SizeInfo};
use sysds_common::hash::FxHashMap;

/// Known sizes of live-in variables at block entry.
pub type SizeEnv = FxHashMap<String, SizeInfo>;

/// Propagate sizes through the DAG given entry sizes; annotates every node.
/// Returns whether any reachable node has unknown dimensions
/// (→ recompilation needed).
#[allow(clippy::needless_range_loop)] // ids index both dag and mark
pub fn propagate(dag: &mut HopDag, env: &SizeEnv, roots: &[HopId]) -> bool {
    let mark = dag.reachable(roots);
    let mut any_unknown = false;
    for id in 0..dag.len() {
        let node = dag.node(id);
        let size = match &node.op {
            HopOp::Lit(_) => SizeInfo::scalar(),
            HopOp::Var(name) => env.get(name).copied().unwrap_or_else(SizeInfo::unknown),
            HopOp::Op(row, param) => row.size.infer(param, dag, &node.inputs),
        };
        dag.node_mut(id).size = size;
        if mark[id] && !size.fully_known() {
            any_unknown = true;
        }
    }
    any_unknown
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtins::runtime::{lookup, MATMUL, RIGHT_INDEX, TMV, TRANSPOSE, TSMM};
    use crate::compiler::hop::Dim;
    use sysds_common::ScalarValue;
    use sysds_tensor::kernels::{AggFn, BinaryOp, Direction};

    fn env_with(name: &str, rows: usize, cols: usize) -> SizeEnv {
        let mut env = SizeEnv::default();
        env.insert(name.to_string(), SizeInfo::matrix(rows, cols, Some(1.0)));
        env
    }

    #[test]
    fn matmul_size_rule() {
        let mut dag = HopDag::new();
        let x = dag.add(HopOp::Var("X".into()), vec![]);
        let y = dag.add(HopOp::Var("Y".into()), vec![]);
        let mm = dag.add(HopOp::op(MATMUL), vec![x, y]);
        let mut env = env_with("X", 10, 5);
        env.insert("Y".into(), SizeInfo::matrix(5, 3, Some(1.0)));
        let unknown = propagate(&mut dag, &env, &[mm]);
        assert!(!unknown);
        assert_eq!(dag.node(mm).size.rows, Dim::Known(10));
        assert_eq!(dag.node(mm).size.cols, Dim::Known(3));
    }

    #[test]
    fn tsmm_and_tmv_sizes() {
        let mut dag = HopDag::new();
        let x = dag.add(HopOp::Var("X".into()), vec![]);
        let g = dag.add(HopOp::op(TSMM), vec![x]);
        let v = dag.add(HopOp::op(TMV), vec![x, x]);
        propagate(&mut dag, &env_with("X", 100, 7), &[g, v]);
        assert_eq!(dag.node(g).size.rows, Dim::Known(7));
        assert_eq!(dag.node(g).size.cols, Dim::Known(7));
        assert_eq!(dag.node(v).size.rows, Dim::Known(7));
        assert_eq!(dag.node(v).size.cols, Dim::Known(1));
    }

    #[test]
    fn unknown_inputs_flag_recompile() {
        let mut dag = HopDag::new();
        let x = dag.add(HopOp::Var("X".into()), vec![]);
        let t = dag.add(HopOp::op(TRANSPOSE), vec![x]);
        let unknown = propagate(&mut dag, &SizeEnv::default(), &[t]);
        assert!(unknown);
        assert_eq!(dag.node(t).size.rows, Dim::Unknown);
    }

    #[test]
    fn rand_literal_dims_known() {
        let mut dag = HopDag::new();
        let r = dag.lit(ScalarValue::I64(100));
        let c = dag.lit(ScalarValue::I64(10));
        let mn = dag.lit(ScalarValue::F64(0.0));
        let mx = dag.lit(ScalarValue::F64(1.0));
        let sp = dag.lit(ScalarValue::F64(0.1));
        let seed = dag.lit(ScalarValue::I64(7));
        let rand = dag.add(
            HopOp::op(lookup("rand").unwrap()),
            vec![r, c, mn, mx, sp, seed],
        );
        let unknown = propagate(&mut dag, &SizeEnv::default(), &[rand]);
        assert!(!unknown);
        let s = dag.node(rand).size;
        assert_eq!(s.rows, Dim::Known(100));
        assert_eq!(s.sparsity, Some(0.1));
    }

    #[test]
    fn scalar_binary_stays_scalar() {
        let mut dag = HopDag::new();
        let a = dag.lit(ScalarValue::F64(1.0));
        let b = dag.lit(ScalarValue::F64(2.0));
        let s = dag.add(HopOp::binary(BinaryOp::Add), vec![a, b]);
        propagate(&mut dag, &SizeEnv::default(), &[s]);
        assert!(dag.node(s).size.scalar);
    }

    #[test]
    fn cbind_adds_columns() {
        let mut dag = HopDag::new();
        let x = dag.add(HopOp::Var("X".into()), vec![]);
        let y = dag.add(HopOp::Var("Y".into()), vec![]);
        let cb = dag.add(HopOp::op(lookup("cbind").unwrap()), vec![x, y]);
        let mut env = env_with("X", 10, 5);
        env.insert("Y".into(), SizeInfo::matrix(10, 2, Some(1.0)));
        propagate(&mut dag, &env, &[cb]);
        assert_eq!(dag.node(cb).size.cols, Dim::Known(7));
    }

    #[test]
    fn transpose_chain_propagates_dims_and_sparsity() {
        // t(t(X)) %*% X : dims and sparsity must survive a transpose chain.
        let mut dag = HopDag::new();
        let x = dag.add(HopOp::Var("X".into()), vec![]);
        let t1 = dag.add(HopOp::op(TRANSPOSE), vec![x]);
        let t2 = dag.add(HopOp::op(TRANSPOSE), vec![t1]);
        let mm = dag.add(HopOp::op(MATMUL), vec![t1, x]);
        let mut env = SizeEnv::default();
        env.insert("X".into(), SizeInfo::matrix(20, 6, Some(0.25)));
        let unknown = propagate(&mut dag, &env, &[t2, mm]);
        assert!(!unknown);
        assert_eq!(dag.node(t1).size.rows, Dim::Known(6));
        assert_eq!(dag.node(t1).size.cols, Dim::Known(20));
        assert_eq!(dag.node(t1).size.sparsity, Some(0.25));
        assert_eq!(dag.node(t2).size.rows, Dim::Known(20));
        assert_eq!(dag.node(t2).size.cols, Dim::Known(6));
        assert_eq!(dag.node(mm).size.rows, Dim::Known(6));
        assert_eq!(dag.node(mm).size.cols, Dim::Known(6));
    }

    #[test]
    fn elementwise_chain_takes_min_sparsity() {
        // (X * Y) + Z : multiply is zero-preserving (min sparsity), the
        // subsequent add with a dense operand densifies the worst case via
        // min(sp, 1.0) = sp of the sparse side.
        let mut dag = HopDag::new();
        let x = dag.add(HopOp::Var("X".into()), vec![]);
        let y = dag.add(HopOp::Var("Y".into()), vec![]);
        let mul = dag.add(HopOp::binary(BinaryOp::Mul), vec![x, y]);
        let mut env = SizeEnv::default();
        env.insert("X".into(), SizeInfo::matrix(8, 8, Some(0.5)));
        env.insert("Y".into(), SizeInfo::matrix(8, 8, Some(0.1)));
        let unknown = propagate(&mut dag, &env, &[mul]);
        assert!(!unknown);
        let s = dag.node(mul).size;
        assert_eq!(s.rows, Dim::Known(8));
        assert_eq!(s.cols, Dim::Known(8));
        assert_eq!(s.sparsity, Some(0.1));
    }

    #[test]
    fn aggregation_chain_shapes() {
        // colSums(X) -> 1xC, then rowSums of that -> 1x1 (matrix), and a
        // full-aggregate sum(X) -> scalar.
        let mut dag = HopDag::new();
        let x = dag.add(HopOp::Var("X".into()), vec![]);
        let cs = dag.add(HopOp::agg(AggFn::Sum, Direction::Col), vec![x]);
        let rs = dag.add(HopOp::agg(AggFn::Sum, Direction::Row), vec![cs]);
        let full = dag.add(HopOp::agg(AggFn::Sum, Direction::Full), vec![x]);
        let unknown = propagate(&mut dag, &env_with("X", 50, 9), &[rs, full]);
        assert!(!unknown);
        assert_eq!(dag.node(cs).size.rows, Dim::Known(1));
        assert_eq!(dag.node(cs).size.cols, Dim::Known(9));
        assert_eq!(dag.node(rs).size.rows, Dim::Known(1));
        assert_eq!(dag.node(rs).size.cols, Dim::Known(1));
        assert!(dag.node(full).size.scalar);
    }

    #[test]
    fn unknown_dims_stay_cp_even_under_tiny_budget() {
        // Unknown sizes must not be treated as infinite: no estimate until
        // dynamic recompilation learns the real dims.
        let mut dag = HopDag::new();
        let x = dag.add(HopOp::Var("X".into()), vec![]);
        let g = dag.add(HopOp::op(TSMM), vec![x]);
        let unknown = propagate(&mut dag, &SizeEnv::default(), &[g]);
        assert!(unknown);
        assert_eq!(dag.node(g).size.memory_estimate(), None);
    }

    #[test]
    fn indexing_with_literal_bounds() {
        let mut dag = HopDag::new();
        let x = dag.add(HopOp::Var("X".into()), vec![]);
        let l1 = dag.lit(ScalarValue::I64(2));
        let l2 = dag.lit(ScalarValue::I64(4));
        let c1 = dag.lit(ScalarValue::I64(1));
        let c2 = dag.lit(ScalarValue::I64(1));
        let ix = dag.add(HopOp::op(RIGHT_INDEX), vec![x, l1, l2, c1, c2]);
        propagate(&mut dag, &env_with("X", 10, 5), &[ix]);
        assert_eq!(dag.node(ix).size.rows, Dim::Known(3));
        assert_eq!(dag.node(ix).size.cols, Dim::Known(1));
    }
}
