//! Operator fusion: cell-wise chains and aggregates over them collapse
//! into a single node of the `fused` row carrying an expression template.
//!
//! SystemDS generates fused operators to avoid materializing the
//! intermediates of element-wise pipelines like `sum((X - U %*% t(V))^2)`
//! (paper §2.3, §4.2). This pass is the interpreted analogue: after
//! dynamic rewrites and size propagation it greedily absorbs maximal
//! single-consumer regions of `Binary`/`Unary` nodes that share one
//! output shape, optionally closed by a full/row/col aggregate root, and
//! replaces the region's root with a `Fused` HOP whose inputs are the
//! region's leaves. The runtime evaluates the template in one pass over
//! the data (`sysds_tensor::kernels::fused`), row-partitioned across
//! threads, with a sparse-exploiting path when the template preserves
//! zeros.
//!
//! Fusion only fires when the chain's dimensions are exactly known — in
//! blocks with unknowns it simply waits for dynamic recompilation to
//! learn the sizes.

use super::hop::{Dim, Hop, HopDag, HopId, HopOp};
use crate::builtins::runtime::Param;
use sysds_common::hash::FxHashMap;
use sysds_tensor::kernels::fused::{FusedTemplate, TemplateNode};
use sysds_tensor::kernels::AggFn;

/// Fuse eligible chains in `dag`; returns the number of `Fused` nodes
/// introduced. Callers gate on `EngineConfig::fusion`.
pub fn fuse(dag: &mut HopDag, roots: &[HopId]) -> usize {
    let reach = dag.reachable(roots);
    let n = dag.len();

    // Consumer lists over the reachable sub-graph, duplicates preserved:
    // a node used twice by one consumer still has two entries, so the
    // "all uses inside the region" test stays a simple subset check.
    let mut uses: Vec<Vec<HopId>> = vec![Vec::new(); n];
    for id in (0..n).filter(|&id| reach[id]) {
        for &i in &dag.node(id).inputs {
            uses[i].push(id);
        }
    }
    // DAG roots (statement bindings/effects) must stay materialized even
    // when they have no recorded consumer.
    let mut is_root = vec![false; n];
    for &r in roots {
        is_root[r] = true;
    }

    let mut absorbed = vec![false; n];
    let mut fused = 0usize;
    // Chain roots have higher ids than their members (topological
    // insertion order), so scanning downwards sees each maximal chain
    // before its sub-chains.
    for id in (0..n).rev() {
        if !reach[id] || absorbed[id] {
            continue;
        }
        if let Some((template, leaves, members)) = try_fuse(dag, id, &uses, &is_root, &absorbed) {
            for &m in &members {
                if m != id {
                    absorbed[m] = true;
                }
            }
            dag.replace(id, HopOp::fused(template), leaves);
            fused += 1;
        }
    }
    fused
}

/// Exact dims of a node when fully known and non-scalar.
fn matrix_dims(node: &Hop) -> Option<(usize, usize)> {
    if node.size.scalar {
        return None;
    }
    match (node.size.rows, node.size.cols) {
        (Dim::Known(r), Dim::Known(c)) => Some((r, c)),
        _ => None,
    }
}

/// Whether `id` can be inlined into a template over `shape`: a CP
/// cell-wise op of exactly that shape, consumed only inside the region,
/// with every operand usable as an interior node or leaf.
fn absorbable(
    dag: &HopDag,
    id: HopId,
    shape: (usize, usize),
    region: &[bool],
    uses: &[Vec<HopId>],
    is_root: &[bool],
    absorbed: &[bool],
) -> bool {
    let node = dag.node(id);
    is_cellwise(&node.op)
        && !is_root[id]
        && !absorbed[id]
        && matrix_dims(node) == Some(shape)
        && conforming_inputs(dag, node, shape)
        && uses[id].iter().all(|&u| region[u])
}

fn is_cellwise(op: &HopOp) -> bool {
    matches!(op, HopOp::Op(_, Param::Binary(_) | Param::Unary(_)))
}

/// Every operand of a template member must be a valid leaf by itself:
/// a numeric literal (folded to a `Const`), a scalar, or a matrix of
/// exactly the chain shape. Broadcasts (row/col vectors) and string
/// literals stay unfused.
fn conforming_inputs(dag: &HopDag, node: &Hop, shape: (usize, usize)) -> bool {
    node.inputs.iter().all(|&i| {
        if let Some(lit) = dag.as_lit(i) {
            return lit.as_f64().is_ok();
        }
        let s = dag.node(i).size;
        s.scalar || matrix_dims(dag.node(i)) == Some(shape)
    })
}

/// Try to fuse the chain rooted at `id`. Returns the template, the leaf
/// hop ids (template input order), and all region members on success.
fn try_fuse(
    dag: &HopDag,
    id: HopId,
    uses: &[Vec<HopId>],
    is_root: &[bool],
    absorbed: &[bool],
) -> Option<(FusedTemplate, Vec<HopId>, Vec<HopId>)> {
    let node = dag.node(id);
    // The root is either an aggregate over a cell-wise top, or the
    // topmost cell-wise op itself. Var/Sd are not single-pass fusable.
    let (agg, top) = match &node.op {
        HopOp::Op(_, Param::Agg(f, d)) if !matches!(f, AggFn::Var | AggFn::Sd) => {
            (Some((*f, *d)), node.inputs[0])
        }
        op if is_cellwise(op) => (None, id),
        _ => return None,
    };
    let shape = matrix_dims(dag.node(top))?;

    // Grow the region around the root to a fixpoint. A member's operand
    // joins once all of its consumers are in — re-scanning handles
    // diamonds where a shared operand's last consumer joins late.
    let mut region = vec![false; dag.len()];
    region[id] = true;
    let mut members: Vec<HopId> = Vec::new();
    let mut changed = true;
    while changed {
        changed = false;
        let mut frontier: Vec<HopId> = dag.node(id).inputs.clone();
        for &m in &members {
            frontier.extend(dag.node(m).inputs.iter().copied());
        }
        for i in frontier {
            if !region[i] && absorbable(dag, i, shape, &region, uses, is_root, absorbed) {
                region[i] = true;
                members.push(i);
                changed = true;
            }
        }
    }

    // Cell-wise ops the template evaluates: the absorbed members plus,
    // for a chain without an aggregate, the root itself.
    let ops = members.len() + usize::from(agg.is_none());
    let worthwhile = if agg.is_some() { ops >= 1 } else { ops >= 2 };
    if !worthwhile || !region[top] {
        return None;
    }

    // Build the template bottom-up from the cell-wise top.
    let mut builder = Builder {
        dag,
        region: &region,
        memo: FxHashMap::default(),
        leaf_of: FxHashMap::default(),
        leaves: Vec::new(),
        nodes: Vec::new(),
    };
    let root = builder.build(top);
    let template = FusedTemplate {
        nodes: builder.nodes,
        root,
        agg,
        num_inputs: builder.leaves.len(),
        // Each absorbed cell-wise op would have materialized one
        // intermediate; without an aggregate the root's output is still
        // produced.
        saved_intermediates: if agg.is_some() { ops } else { ops - 1 },
    };
    debug_assert!(template.validate().is_ok());
    let mut all = members;
    all.push(id);
    Some((template, builder.leaves, all))
}

struct Builder<'a> {
    dag: &'a HopDag,
    region: &'a [bool],
    /// hop id → template node index (keeps shared sub-chains shared).
    memo: FxHashMap<HopId, usize>,
    /// hop id → leaf index (inputs are deduplicated).
    leaf_of: FxHashMap<HopId, usize>,
    leaves: Vec<HopId>,
    nodes: Vec<TemplateNode>,
}

impl Builder<'_> {
    fn push(&mut self, n: TemplateNode) -> usize {
        self.nodes.push(n);
        self.nodes.len() - 1
    }

    fn build(&mut self, id: HopId) -> usize {
        if let Some(&idx) = self.memo.get(&id) {
            return idx;
        }
        let idx = if self.region[id] {
            match &self.dag.node(id).op {
                HopOp::Op(_, Param::Unary(u)) => {
                    let a = self.build(self.dag.node(id).inputs[0]);
                    self.push(TemplateNode::Unary(*u, a))
                }
                HopOp::Op(_, Param::Binary(b)) => {
                    let (op, l, r) = (*b, self.dag.node(id).inputs[0], self.dag.node(id).inputs[1]);
                    let a = self.build(l);
                    let c = self.build(r);
                    self.push(TemplateNode::Binary(op, a, c))
                }
                other => unreachable!("non-cell-wise op {other:?} in fusion region"),
            }
        } else if let Some(v) = self.dag.as_lit(id).and_then(|l| l.as_f64().ok()) {
            self.push(TemplateNode::Const(v))
        } else {
            let next = self.leaves.len();
            let k = *self.leaf_of.entry(id).or_insert_with(|| {
                self.leaves.push(id);
                next
            });
            self.push(TemplateNode::Input(k))
        };
        self.memo.insert(id, idx);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::hop::SizeInfo;
    use crate::compiler::size::{propagate, SizeEnv};
    use sysds_common::ScalarValue;
    use sysds_tensor::kernels::{BinaryOp, Direction, UnaryOp};

    fn env(entries: &[(&str, usize, usize)]) -> SizeEnv {
        let mut env = SizeEnv::default();
        for &(n, r, c) in entries {
            env.insert(n.to_string(), SizeInfo::matrix(r, c, Some(1.0)));
        }
        env
    }

    fn fused_of(dag: &HopDag, id: HopId) -> &FusedTemplate {
        match &dag.node(id).op {
            HopOp::Op(_, Param::Fused(t)) => t,
            other => panic!("expected Fused at {id}, got {other:?}"),
        }
    }

    #[test]
    fn sum_of_squared_difference_fuses() {
        let mut dag = HopDag::new();
        let x = dag.add(HopOp::Var("X".into()), vec![]);
        let y = dag.add(HopOp::Var("Y".into()), vec![]);
        let sub = dag.add(HopOp::binary(BinaryOp::Sub), vec![x, y]);
        let two = dag.lit(ScalarValue::F64(2.0));
        let sq = dag.add(HopOp::binary(BinaryOp::Pow), vec![sub, two]);
        let agg = dag.add(HopOp::agg(AggFn::Sum, Direction::Full), vec![sq]);
        let env = env(&[("X", 10, 4), ("Y", 10, 4)]);
        propagate(&mut dag, &env, &[agg]);
        assert_eq!(fuse(&mut dag, &[agg]), 1);
        let t = fused_of(&dag, agg);
        assert_eq!(t.signature(), "sum((X-Y)^2)");
        assert_eq!(t.saved_intermediates, 2);
        assert_eq!(dag.node(agg).inputs, vec![x, y]);
        // The replaced root keeps its propagated size (scalar for sum).
        assert!(dag.node(agg).size.scalar);
    }

    #[test]
    fn cellwise_chain_without_aggregate_fuses() {
        // exp(-X) * Y : three cell-wise ops, no aggregate.
        let mut dag = HopDag::new();
        let x = dag.add(HopOp::Var("X".into()), vec![]);
        let y = dag.add(HopOp::Var("Y".into()), vec![]);
        let neg = dag.add(HopOp::unary(UnaryOp::Neg), vec![x]);
        let e = dag.add(HopOp::unary(UnaryOp::Exp), vec![neg]);
        let mul = dag.add(HopOp::binary(BinaryOp::Mul), vec![e, y]);
        let env = env(&[("X", 6, 6), ("Y", 6, 6)]);
        propagate(&mut dag, &env, &[mul]);
        assert_eq!(fuse(&mut dag, &[mul]), 1);
        let t = fused_of(&dag, mul);
        assert_eq!(t.signature(), "(exp(-X)*Y)");
        assert_eq!(t.agg, None);
        assert_eq!(t.saved_intermediates, 2);
    }

    #[test]
    fn single_binary_not_worth_fusing() {
        let mut dag = HopDag::new();
        let x = dag.add(HopOp::Var("X".into()), vec![]);
        let y = dag.add(HopOp::Var("Y".into()), vec![]);
        let add = dag.add(HopOp::binary(BinaryOp::Add), vec![x, y]);
        propagate(&mut dag, &env(&[("X", 5, 5), ("Y", 5, 5)]), &[add]);
        assert_eq!(fuse(&mut dag, &[add]), 0);
        assert_eq!(dag.node(add).op, HopOp::binary(BinaryOp::Add));
    }

    #[test]
    fn multi_consumer_intermediate_stays_materialized() {
        // D = X - Y is consumed by the fused chain AND bound as a root:
        // it must survive as a leaf, not be inlined.
        let mut dag = HopDag::new();
        let x = dag.add(HopOp::Var("X".into()), vec![]);
        let y = dag.add(HopOp::Var("Y".into()), vec![]);
        let d = dag.add(HopOp::binary(BinaryOp::Sub), vec![x, y]);
        let two = dag.lit(ScalarValue::F64(2.0));
        let sq = dag.add(HopOp::binary(BinaryOp::Pow), vec![d, two]);
        let agg = dag.add(HopOp::agg(AggFn::Sum, Direction::Full), vec![sq]);
        let roots = [agg, d];
        propagate(&mut dag, &env(&[("X", 8, 3), ("Y", 8, 3)]), &roots);
        assert_eq!(fuse(&mut dag, &roots), 1);
        let t = fused_of(&dag, agg);
        assert_eq!(t.signature(), "sum(X^2)");
        assert_eq!(dag.node(agg).inputs, vec![d]);
        assert_eq!(dag.node(d).op, HopOp::binary(BinaryOp::Sub));
    }

    #[test]
    fn broadcast_operand_blocks_absorption() {
        // X - colMeans-like row vector: the (1, c) operand cannot join a
        // (r, c) template, and the root has a non-conforming input, so
        // nothing fuses.
        let mut dag = HopDag::new();
        let x = dag.add(HopOp::Var("X".into()), vec![]);
        let mu = dag.add(HopOp::Var("mu".into()), vec![]);
        let sub = dag.add(HopOp::binary(BinaryOp::Sub), vec![x, mu]);
        let two = dag.lit(ScalarValue::F64(2.0));
        let sq = dag.add(HopOp::binary(BinaryOp::Pow), vec![sub, two]);
        let agg = dag.add(HopOp::agg(AggFn::Sum, Direction::Col), vec![sq]);
        let mut e = env(&[("X", 20, 5)]);
        e.insert("mu".into(), SizeInfo::matrix(1, 5, Some(1.0)));
        propagate(&mut dag, &e, &[agg]);
        // Only the (sq, agg) pair can fuse; `sub` stays a leaf because of
        // its broadcast operand.
        assert_eq!(fuse(&mut dag, &[agg]), 1);
        let t = fused_of(&dag, agg);
        assert_eq!(t.signature(), "colSums(X^2)");
        assert_eq!(dag.node(agg).inputs, vec![sub]);
    }

    #[test]
    fn var_and_sd_aggregates_do_not_fuse() {
        let mut dag = HopDag::new();
        let x = dag.add(HopOp::Var("X".into()), vec![]);
        let two = dag.lit(ScalarValue::F64(2.0));
        let sq = dag.add(HopOp::binary(BinaryOp::Pow), vec![x, two]);
        let agg = dag.add(HopOp::agg(AggFn::Var, Direction::Full), vec![sq]);
        propagate(&mut dag, &env(&[("X", 12, 12)]), &[agg]);
        // The aggregate cannot fuse and the lone `sq` is not worthwhile.
        assert_eq!(fuse(&mut dag, &[agg]), 0);
    }

    #[test]
    fn unknown_dims_defer_fusion() {
        let mut dag = HopDag::new();
        let x = dag.add(HopOp::Var("X".into()), vec![]);
        let y = dag.add(HopOp::Var("Y".into()), vec![]);
        let sub = dag.add(HopOp::binary(BinaryOp::Sub), vec![x, y]);
        let two = dag.lit(ScalarValue::F64(2.0));
        let sq = dag.add(HopOp::binary(BinaryOp::Pow), vec![sub, two]);
        let agg = dag.add(HopOp::agg(AggFn::Sum, Direction::Full), vec![sq]);
        propagate(&mut dag, &SizeEnv::default(), &[agg]);
        assert_eq!(fuse(&mut dag, &[agg]), 0, "no shapes, no fusion");
    }

    #[test]
    fn shared_subchain_fuses_as_diamond() {
        // (X*Y) + (X*Y)^2 : hash-consing shares the X*Y node; both its
        // consumers are in the region, so it is inlined, not a leaf.
        let mut dag = HopDag::new();
        let x = dag.add(HopOp::Var("X".into()), vec![]);
        let y = dag.add(HopOp::Var("Y".into()), vec![]);
        let mul = dag.add(HopOp::binary(BinaryOp::Mul), vec![x, y]);
        let two = dag.lit(ScalarValue::F64(2.0));
        let sq = dag.add(HopOp::binary(BinaryOp::Pow), vec![mul, two]);
        let add = dag.add(HopOp::binary(BinaryOp::Add), vec![mul, sq]);
        let agg = dag.add(HopOp::agg(AggFn::Sum, Direction::Full), vec![add]);
        propagate(&mut dag, &env(&[("X", 9, 9), ("Y", 9, 9)]), &[agg]);
        assert_eq!(fuse(&mut dag, &[agg]), 1);
        let t = fused_of(&dag, agg);
        assert_eq!(t.signature(), "sum((X*Y)+((X*Y)^2))");
        assert_eq!(t.num_inputs, 2, "shared sub-chain inlined, not a leaf");
        // The shared mul appears once as a template node (memoized).
        let muls = t
            .nodes
            .iter()
            .filter(|n| matches!(n, TemplateNode::Binary(BinaryOp::Mul, _, _)))
            .count();
        assert_eq!(muls, 1);
    }
}
