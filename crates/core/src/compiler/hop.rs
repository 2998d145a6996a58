//! High-level operator (HOP) DAGs.
//!
//! All statements of a basic block compile into one DAG of high-level
//! operators (paper §2.3 (2)). A node is a literal, a variable read, or an
//! operator: a row of the operator table ([`crate::builtins::runtime`]),
//! which states the node's opcode, effect, size rule and kernels. Nodes
//! are hash-consed on construction, which gives common-subexpression
//! elimination for free; rewrites then replace patterns (e.g.
//! `t(X) %*% X` → fused `tsmm`), and size propagation annotates every node
//! with dimensions and sparsity for memory estimates, size-dependent
//! rewrites and fusion.

use crate::builtins::runtime::{Effect, Operator, Param, AGG, BINARY, FUSED, UNARY};
use std::sync::Arc;
use sysds_common::hash::FxHashMap;
use sysds_common::ScalarValue;
use sysds_tensor::kernels::fused::FusedTemplate;
use sysds_tensor::kernels::{AggFn, BinaryOp, Direction, UnaryOp};
use sysds_tensor::Matrix;

/// Node id within one DAG.
pub type HopId = usize;

/// High-level operators.
#[derive(Debug, Clone, PartialEq)]
pub enum HopOp {
    /// A literal scalar.
    Lit(ScalarValue),
    /// Read of a live-in variable.
    Var(String),
    /// An operator by its row of the operator table and, for a family row,
    /// the member. A builtin's named arguments are resolved to positions
    /// during construction.
    Op(&'static Operator, Param),
}

impl HopOp {
    /// A node of a row that is not a family.
    pub fn op(row: &'static Operator) -> HopOp {
        HopOp::Op(row, Param::None)
    }

    pub fn unary(op: UnaryOp) -> HopOp {
        HopOp::Op(UNARY, Param::Unary(op))
    }

    pub fn binary(op: BinaryOp) -> HopOp {
        HopOp::Op(BINARY, Param::Binary(op))
    }

    pub fn agg(f: AggFn, d: Direction) -> HopOp {
        HopOp::Op(AGG, Param::Agg(f, d))
    }

    pub fn fused(template: FusedTemplate) -> HopOp {
        HopOp::Op(FUSED, Param::Fused(Arc::new(template)))
    }

    /// Whether this is a node of `row`.
    pub fn is(&self, row: &Operator) -> bool {
        matches!(self, HopOp::Op(r, _) if *r == row)
    }

    /// Opcode string used for lineage hashing and tracing.
    pub fn opcode(&self) -> String {
        match self {
            HopOp::Lit(v) => format!("lit:{v:?}"),
            HopOp::Var(n) => format!("var:{n}"),
            HopOp::Op(row, param) => row.opcode(param),
        }
    }
}

/// Dimension knowledge for size propagation: exact, or unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dim {
    Known(usize),
    Unknown,
}

impl Dim {
    /// Exact value if known.
    pub fn value(self) -> Option<usize> {
        match self {
            Dim::Known(v) => Some(v),
            Dim::Unknown => None,
        }
    }
}

/// Propagated size information of one HOP output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeInfo {
    pub rows: Dim,
    pub cols: Dim,
    /// Estimated sparsity (`None` = unknown, assume dense).
    pub sparsity: Option<f64>,
    /// Whether the output is a scalar (dims 1x1 but cheaper to test).
    pub scalar: bool,
}

impl SizeInfo {
    /// A scalar output.
    pub fn scalar() -> SizeInfo {
        SizeInfo {
            rows: Dim::Known(1),
            cols: Dim::Known(1),
            sparsity: Some(1.0),
            scalar: true,
        }
    }

    /// A matrix with both dims unknown.
    pub fn unknown() -> SizeInfo {
        SizeInfo {
            rows: Dim::Unknown,
            cols: Dim::Unknown,
            sparsity: None,
            scalar: false,
        }
    }

    /// A matrix with known dims.
    pub fn matrix(rows: usize, cols: usize, sparsity: Option<f64>) -> SizeInfo {
        SizeInfo::dims(Dim::Known(rows), Dim::Known(cols), sparsity)
    }

    /// A matrix with dims that may be unknown.
    pub fn dims(rows: Dim, cols: Dim, sparsity: Option<f64>) -> SizeInfo {
        SizeInfo {
            rows,
            cols,
            sparsity,
            scalar: false,
        }
    }

    /// Whether both dimensions are known.
    pub fn fully_known(&self) -> bool {
        self.rows.value().is_some() && self.cols.value().is_some()
    }

    /// Memory estimate in bytes, or `None` when either dimension is
    /// unknown. Callers must decide explicitly how to treat unknowns
    /// (operator selection stays conservative in CP and relies on dynamic
    /// recompilation once sizes materialize).
    pub fn memory_estimate(&self) -> Option<usize> {
        match (self.rows.value(), self.cols.value()) {
            (Some(r), Some(c)) => Some(Matrix::estimate_size(r, c, self.sparsity.unwrap_or(1.0))),
            _ => None,
        }
    }
}

/// One node of the DAG.
#[derive(Debug, Clone)]
pub struct Hop {
    pub op: HopOp,
    pub inputs: Vec<HopId>,
    pub size: SizeInfo,
}

/// A DAG of high-level operators with hash-consing (CSE on construction).
#[derive(Debug, Clone, Default)]
pub struct HopDag {
    nodes: Vec<Hop>,
    /// CSE table: (opcode, inputs) → node id. Builtins with effects are
    /// excluded (see [`HopDag::add`]).
    cse: FxHashMap<(String, Vec<HopId>), HopId>,
}

impl HopDag {
    /// Empty DAG.
    pub fn new() -> HopDag {
        HopDag::default()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the DAG has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrow a node.
    pub fn node(&self, id: HopId) -> &Hop {
        &self.nodes[id]
    }

    /// Mutably borrow a node (rewrites).
    pub fn node_mut(&mut self, id: HopId) -> &mut Hop {
        &mut self.nodes[id]
    }

    /// All nodes in insertion (topological) order.
    pub fn nodes(&self) -> &[Hop] {
        &self.nodes
    }

    /// Add a node with hash-consing. An operator with an effect always gets
    /// a fresh node, except that a seeded one is merged when its seed input
    /// is a literal ≥ 0 (an unseeded call draws a fresh seed at runtime).
    pub fn add(&mut self, op: HopOp, inputs: Vec<HopId>) -> HopId {
        let skip_cse = match &op {
            HopOp::Op(row, _) => match row.effect {
                Effect::Pure => false,
                Effect::Seeded(k) => inputs
                    .get(k)
                    .and_then(|&seed| self.as_lit(seed)?.as_i64().ok())
                    .is_none_or(|seed| seed < 0),
                Effect::Nondeterministic | Effect::Output | Effect::Write => true,
            },
            HopOp::Lit(_) | HopOp::Var(_) => false,
        };
        let key = (op.opcode(), inputs.clone());
        if !skip_cse {
            if let Some(&id) = self.cse.get(&key) {
                return id;
            }
        }
        let id = self.nodes.len();
        self.nodes.push(Hop {
            op,
            inputs,
            size: SizeInfo::unknown(),
        });
        if !skip_cse {
            self.cse.insert(key, id);
        }
        id
    }

    /// Add a literal (hash-consed by value).
    pub fn lit(&mut self, v: ScalarValue) -> HopId {
        self.add(HopOp::Lit(v), Vec::new())
    }

    /// Replace node `id`'s operator and inputs in place (rewrites). The CSE
    /// table is not updated — rewrites run after construction.
    pub fn replace(&mut self, id: HopId, op: HopOp, inputs: Vec<HopId>) {
        let n = &mut self.nodes[id];
        n.op = op;
        n.inputs = inputs;
    }

    /// Mark nodes reachable from `roots`; used by dead-code elimination.
    pub fn reachable(&self, roots: &[HopId]) -> Vec<bool> {
        let mut mark = vec![false; self.nodes.len()];
        let mut stack: Vec<HopId> = roots.to_vec();
        while let Some(id) = stack.pop() {
            if mark[id] {
                continue;
            }
            mark[id] = true;
            stack.extend(self.nodes[id].inputs.iter().copied());
        }
        mark
    }

    /// The literal value of a node, if it is a literal.
    pub fn as_lit(&self, id: HopId) -> Option<&ScalarValue> {
        match &self.nodes[id].op {
            HopOp::Lit(v) => Some(v),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtins::runtime::{MATMUL, MMCHAIN, TRANSPOSE, TSMM};

    #[test]
    fn hash_consing_dedupes() {
        let mut dag = HopDag::new();
        let x = dag.add(HopOp::Var("X".into()), vec![]);
        let t1 = dag.add(HopOp::op(TRANSPOSE), vec![x]);
        let t2 = dag.add(HopOp::op(TRANSPOSE), vec![x]);
        assert_eq!(t1, t2);
        assert_eq!(dag.len(), 2);
    }

    #[test]
    fn effectful_ops_not_consed() {
        let mut dag = HopDag::new();
        let s = dag.lit(ScalarValue::Str("hi".into()));
        let print = crate::builtins::runtime::lookup("print").unwrap();
        let p1 = dag.add(HopOp::op(print), vec![s]);
        let p2 = dag.add(HopOp::op(print), vec![s]);
        assert_ne!(p1, p2);
    }

    #[test]
    fn literals_consed_by_value() {
        let mut dag = HopDag::new();
        let a = dag.lit(ScalarValue::F64(1.0));
        let b = dag.lit(ScalarValue::F64(1.0));
        let c = dag.lit(ScalarValue::F64(2.0));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn reachability() {
        let mut dag = HopDag::new();
        let x = dag.add(HopOp::Var("X".into()), vec![]);
        let t = dag.add(HopOp::op(TRANSPOSE), vec![x]);
        let dead = dag.add(HopOp::Var("Y".into()), vec![]);
        let mark = dag.reachable(&[t]);
        assert!(mark[x] && mark[t]);
        assert!(!mark[dead]);
    }

    #[test]
    fn size_info_memory_estimates() {
        let dense = SizeInfo::matrix(100, 100, Some(1.0)).memory_estimate();
        let sparse = SizeInfo::matrix(100, 100, Some(0.01)).memory_estimate();
        assert!(dense.unwrap() > sparse.unwrap());
        assert_eq!(SizeInfo::unknown().memory_estimate(), None);
        assert_eq!(
            SizeInfo::matrix(10, 10, None).memory_estimate(),
            SizeInfo::matrix(10, 10, Some(1.0)).memory_estimate(),
            "missing sparsity is estimated dense"
        );
        assert!(SizeInfo::scalar().fully_known());
    }

    #[test]
    fn opcode_strings() {
        assert_eq!(HopOp::op(MATMUL).opcode(), "ba+*");
        assert_eq!(HopOp::op(TSMM).opcode(), "tsmm");
        assert_eq!(HopOp::op(MMCHAIN).opcode(), "mmchain");
        assert_eq!(HopOp::binary(BinaryOp::Add).opcode(), "+");
        assert_eq!(
            HopOp::agg(AggFn::Sum, Direction::Full).opcode(),
            "uasumfull"
        );
    }
}
