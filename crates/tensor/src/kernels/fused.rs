//! One-pass execution of fused cell-wise operator pipelines (paper §4.2).
//!
//! The compiler collapses single-consumer chains of element-wise operators
//! (optionally topped by an aggregate) into a [`FusedTemplate`]: a tiny
//! postorder expression program over the chain's leaf inputs. This module
//! evaluates such templates in a single pass over the data — no per-operator
//! intermediate matrices — row-partition-parallel, with a sparse-exploiting
//! path over the CSR value array when the template maps zero cells to zero
//! under the actual scalar operands.
//!
//! It is also the engine of the unfused element-wise and aggregate kernels:
//! [`super::elementwise`] and [`super::aggregate`] evaluate one-node
//! templates ([`FusedTemplate::single`]), so every cell-wise operation has
//! one implementation. Cell-wise outputs are bitwise identical for every
//! thread count; sums merge per-partition Kahan partials in partition order.

use super::aggregate::{AggFn, Direction, Kahan};
use super::elementwise::{BinaryOp, UnaryOp};
use crate::matrix::{DenseMatrix, Matrix, SparseMatrix};
use sysds_common::{Result, SysDsError};

/// One step of a fused expression program. Operand indices refer to earlier
/// nodes in [`FusedTemplate::nodes`] (strict postorder), `Input(k)` to the
/// k-th leaf operand of the fused instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TemplateNode {
    /// The k-th leaf operand (matrix or scalar) of the fused instruction.
    Input(usize),
    /// A literal folded into the template at compile time.
    Const(f64),
    /// Unary element-wise operator over an earlier node.
    Unary(UnaryOp, usize),
    /// Binary element-wise operator over two earlier nodes.
    Binary(BinaryOp, usize, usize),
}

/// A fused cell-wise expression, optionally topped by an aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedTemplate {
    /// Expression program in postorder; operands index earlier entries.
    pub nodes: Vec<TemplateNode>,
    /// Index of the node producing the cell-wise result.
    pub root: usize,
    /// Aggregate applied over the cell-wise result, if any.
    pub agg: Option<(AggFn, Direction)>,
    /// Number of leaf operands the fused instruction receives.
    pub num_inputs: usize,
    /// How many per-operator intermediate matrices fusion eliminated
    /// (drives the bytes-avoided statistic).
    pub saved_intermediates: usize,
}

impl FusedTemplate {
    /// Check structural invariants: postorder operand indices, in-range
    /// inputs and root. Cheap; run once per evaluation.
    pub fn validate(&self) -> Result<()> {
        for (i, node) in self.nodes.iter().enumerate() {
            let ok = match node {
                TemplateNode::Input(k) => *k < self.num_inputs,
                TemplateNode::Const(_) => true,
                TemplateNode::Unary(_, a) => *a < i,
                TemplateNode::Binary(_, a, b) => *a < i && *b < i,
            };
            if !ok {
                return Err(SysDsError::runtime("fused: malformed template"));
            }
        }
        if self.root >= self.nodes.len() {
            return Err(SysDsError::runtime("fused: template root out of range"));
        }
        Ok(())
    }

    /// Deterministic human-readable form, e.g. `sum((X-Y)^2)`. Used as the
    /// instruction opcode so heavy-hitter stats, lineage, and the
    /// estimate-vs-actual audit attribute fused work per template.
    pub fn signature(&self) -> String {
        let body = self.render(self.root);
        match self.agg {
            None => body,
            Some((f, d)) => {
                let name = agg_name(f, d);
                if is_parenthesized(&body) {
                    format!("{name}{body}")
                } else {
                    format!("{name}({body})")
                }
            }
        }
    }

    /// A template of one operator over `num_inputs` leaves: `node` over the
    /// `Input` nodes (or the first leaf itself when `node` is `None`),
    /// optionally topped by `agg`. The element-wise and aggregate kernels
    /// run as such templates.
    pub fn single(
        num_inputs: usize,
        node: Option<TemplateNode>,
        agg: Option<(AggFn, Direction)>,
    ) -> FusedTemplate {
        let mut nodes: Vec<TemplateNode> = (0..num_inputs).map(TemplateNode::Input).collect();
        let root = if node.is_some() { num_inputs } else { 0 };
        nodes.extend(node);
        FusedTemplate {
            nodes,
            root,
            agg,
            num_inputs,
            saved_intermediates: 0,
        }
    }

    fn render(&self, idx: usize) -> String {
        match &self.nodes[idx] {
            TemplateNode::Input(k) => input_name(*k),
            TemplateNode::Const(c) => {
                if *c < 0.0 {
                    format!("({c})")
                } else {
                    format!("{c}")
                }
            }
            TemplateNode::Unary(op, a) => {
                let inner = self.render(*a);
                match op {
                    UnaryOp::Neg => format!("(-{inner})"),
                    _ if is_parenthesized(&inner) => format!("{}{inner}", op.opcode()),
                    _ => format!("{}({inner})", op.opcode()),
                }
            }
            TemplateNode::Binary(op, a, b) => {
                let (l, r) = (self.render(*a), self.render(*b));
                let oc = op.opcode();
                if oc.chars().all(|c| c.is_ascii_alphanumeric()) {
                    // function-style operators: min, max
                    format!("{oc}({l},{r})")
                } else {
                    format!("({l}{oc}{r})")
                }
            }
        }
    }
}

fn input_name(k: usize) -> String {
    const NAMES: [&str; 6] = ["X", "Y", "Z", "W", "U", "V"];
    NAMES
        .get(k)
        .map(|s| s.to_string())
        .unwrap_or_else(|| format!("in{k}"))
}

fn agg_name(f: AggFn, d: Direction) -> &'static str {
    match (d, f) {
        (Direction::Full, AggFn::Sum) => "sum",
        (Direction::Full, AggFn::SumSq) => "sumSq",
        (Direction::Full, AggFn::Mean) => "mean",
        (Direction::Full, AggFn::Min) => "min",
        (Direction::Full, AggFn::Max) => "max",
        (Direction::Full, AggFn::Var) => "var",
        (Direction::Full, AggFn::Sd) => "sd",
        (Direction::Row, AggFn::Sum) => "rowSums",
        (Direction::Row, AggFn::SumSq) => "rowSumSqs",
        (Direction::Row, AggFn::Mean) => "rowMeans",
        (Direction::Row, AggFn::Min) => "rowMins",
        (Direction::Row, AggFn::Max) => "rowMaxs",
        (Direction::Row, AggFn::Var) => "rowVars",
        (Direction::Row, AggFn::Sd) => "rowSds",
        (Direction::Col, AggFn::Sum) => "colSums",
        (Direction::Col, AggFn::SumSq) => "colSumSqs",
        (Direction::Col, AggFn::Mean) => "colMeans",
        (Direction::Col, AggFn::Min) => "colMins",
        (Direction::Col, AggFn::Max) => "colMaxs",
        (Direction::Col, AggFn::Var) => "colVars",
        (Direction::Col, AggFn::Sd) => "colSds",
    }
}

/// Whether `s` is wrapped in one outer pair of parentheses.
fn is_parenthesized(s: &str) -> bool {
    if !(s.starts_with('(') && s.ends_with(')')) {
        return false;
    }
    let mut depth = 0i64;
    for (i, ch) in s.char_indices() {
        match ch {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return i == s.len() - 1;
                }
            }
            _ => {}
        }
    }
    false
}

/// A leaf operand at evaluation time.
#[derive(Debug, Clone, Copy)]
pub enum FusedInput<'a> {
    Scalar(f64),
    Matrix(&'a Matrix),
}

/// The result of a fused evaluation: scalar for full aggregates, matrix
/// otherwise.
#[derive(Debug)]
pub enum FusedOutput {
    Scalar(f64),
    Matrix(Matrix),
}

/// Evaluate `t` over `inputs` in one pass, splitting row partitions across
/// up to `threads` threads. All matrix inputs must share one shape
/// (broadcasting is excluded at fusion time); at least one input must be a
/// matrix.
pub fn eval(t: &FusedTemplate, inputs: &[FusedInput], threads: usize) -> Result<FusedOutput> {
    t.validate()?;
    if inputs.len() != t.num_inputs {
        return Err(SysDsError::runtime(format!(
            "fused: template expects {} inputs, got {}",
            t.num_inputs,
            inputs.len()
        )));
    }
    let mut shape: Option<(usize, usize)> = None;
    for inp in inputs {
        if let FusedInput::Matrix(mat) = inp {
            match shape {
                None => shape = Some(mat.shape()),
                Some(s) if s == mat.shape() => {}
                Some(s) => {
                    return Err(SysDsError::DimensionMismatch {
                        op: "fused",
                        lhs: s,
                        rhs: mat.shape(),
                    });
                }
            }
        }
    }
    let Some((m, n)) = shape else {
        return Err(SysDsError::runtime("fused: template has no matrix input"));
    };
    if m == 0 || n == 0 {
        return eval_empty(t, m, n);
    }
    if let Some((f @ (AggFn::Var | AggFn::Sd), _)) = t.agg {
        return Err(SysDsError::runtime(format!(
            "fused: aggregate {f:?} is not fusable"
        )));
    }
    // Sparse-exploiting case: exactly one matrix input, stored sparse, and
    // a template that maps a zero cell to exactly `0.0` under the actual
    // scalar operands. Only the CSR value array is then evaluated.
    let mut matrices = inputs.iter().filter_map(|i| match i {
        FusedInput::Matrix(x) => Some(*x),
        FusedInput::Scalar(_) => None,
    });
    if let (Some(Matrix::Sparse(s)), None) = (matrices.next(), matrices.next()) {
        let zero = leaves_of(inputs, |_| Leaf::Values(&[0.0]));
        if Evaluator::new(t, &zero).eval_range(0, 1)[0] == 0.0 {
            let (row_ptr, col_idx, values) = s.csr_parts();
            let leaves = leaves_of(inputs, |_| Leaf::Values(values));
            let layout = Layout::Sparse { row_ptr, col_idx };
            let parts = super::par_row_partitions(m, s.nnz().div_ceil(m), threads);
            return run(t, &leaves, layout, &parts, m, n);
        }
    }
    let leaves = leaves_of(inputs, |x| match x {
        Matrix::Dense(d) => Leaf::Values(d.values()),
        Matrix::Sparse(s) => Leaf::Sparse(s),
    });
    let parts = super::par_row_partitions(m, n, threads);
    run(t, &leaves, Layout::Dense { n }, &parts, m, n)
}

/// Empty shapes: sums over no cells are zero (and zero-filled outputs);
/// min, max and mean over no cells are errors.
fn eval_empty(t: &FusedTemplate, m: usize, n: usize) -> Result<FusedOutput> {
    match t.agg {
        None => Ok(FusedOutput::Matrix(Matrix::zeros(m, n))),
        Some((f, Direction::Full)) => match f {
            AggFn::Sum | AggFn::SumSq => Ok(FusedOutput::Scalar(0.0)),
            _ => Err(SysDsError::runtime("aggregation over empty matrix")),
        },
        Some((f, Direction::Row)) => {
            if n == 0 && !matches!(f, AggFn::Sum | AggFn::SumSq) {
                return Err(SysDsError::runtime("row aggregation over zero columns"));
            }
            Ok(FusedOutput::Matrix(Matrix::zeros(m, 1)))
        }
        Some((f, Direction::Col)) => {
            if m == 0 && !matches!(f, AggFn::Sum | AggFn::SumSq) {
                return Err(SysDsError::runtime("column aggregation over zero rows"));
            }
            Ok(FusedOutput::Matrix(Matrix::zeros(1, n)))
        }
    }
}

/// A leaf as seen by the block evaluator.
#[derive(Clone, Copy)]
enum Leaf<'a> {
    /// A scalar operand.
    Scalar(f64),
    /// The flat cell values of a matrix operand: row-major dense values, or
    /// a CSR value array.
    Values(&'a [f64]),
    /// A CSR operand in a dense evaluation: each block's rows are scattered
    /// into a block-sized buffer, so the matrix is never densified whole.
    Sparse(&'a SparseMatrix),
}

/// Leaves for `inputs`, with `matrix` giving each matrix operand's leaf.
fn leaves_of<'a>(
    inputs: &[FusedInput<'a>],
    matrix: impl Fn(&'a Matrix) -> Leaf<'a>,
) -> Vec<Leaf<'a>> {
    inputs
        .iter()
        .map(|i| match *i {
            FusedInput::Scalar(v) => Leaf::Scalar(v),
            FusedInput::Matrix(x) => matrix(x),
        })
        .collect()
}

/// How a template node resolves during block evaluation: a folded scalar, a
/// borrowed slice of an input, or a computed scratch buffer.
#[derive(Clone, Copy)]
enum Val {
    Scalar(f64),
    Leaf(usize),
    Node(usize),
}

enum Operand<'a> {
    Scalar(f64),
    Slice(&'a [f64]),
}

/// Cells `[off, off + len)` of leaf `k`; `scattered` holds the current
/// block of each sparse leaf.
fn leaf_slice<'a>(
    leaves: &'a [Leaf<'a>],
    scattered: &'a [Vec<f64>],
    k: usize,
    off: usize,
    len: usize,
) -> &'a [f64] {
    match leaves[k] {
        Leaf::Values(s) => &s[off..off + len],
        Leaf::Sparse(_) => &scattered[k][..len],
        Leaf::Scalar(_) => unreachable!("scalar leaves fold into Val::Scalar"),
    }
}

/// Node `kind` over cells `[off, off + len)`: a folded scalar, a leaf's
/// cells, or a computed node's scratch buffer from `done`.
fn operand<'a>(
    kind: Val,
    done: &'a [Vec<f64>],
    leaves: &'a [Leaf<'a>],
    scattered: &'a [Vec<f64>],
    off: usize,
    len: usize,
) -> Operand<'a> {
    match kind {
        Val::Scalar(v) => Operand::Scalar(v),
        Val::Leaf(k) => Operand::Slice(leaf_slice(leaves, scattered, k, off, len)),
        Val::Node(j) => Operand::Slice(&done[j][..len]),
    }
}

/// Block evaluator: walks the template once per cell block, keeping one
/// scratch buffer per computed node (block-sized, reused across blocks), so
/// peak extra memory is `O(nodes * block)` regardless of matrix size.
struct Evaluator<'a> {
    t: &'a FusedTemplate,
    leaves: &'a [Leaf<'a>],
    kinds: Vec<Val>,
    scratch: Vec<Vec<f64>>,
    /// Per leaf: the current block of a sparse leaf, scattered into dense
    /// rows (empty when no leaf is sparse).
    scattered: Vec<Vec<f64>>,
}

impl<'a> Evaluator<'a> {
    fn new(t: &'a FusedTemplate, leaves: &'a [Leaf<'a>]) -> Evaluator<'a> {
        // Fold scalar-only subtrees once: their value is block-independent.
        let mut kinds: Vec<Val> = Vec::with_capacity(t.nodes.len());
        for (i, node) in t.nodes.iter().enumerate() {
            let v = match node {
                TemplateNode::Input(k) => match leaves[*k] {
                    Leaf::Scalar(v) => Val::Scalar(v),
                    Leaf::Values(_) | Leaf::Sparse(_) => Val::Leaf(*k),
                },
                TemplateNode::Const(c) => Val::Scalar(*c),
                TemplateNode::Unary(op, a) => match kinds[*a] {
                    Val::Scalar(v) => Val::Scalar(op.apply(v)),
                    _ => Val::Node(i),
                },
                TemplateNode::Binary(op, a, b) => match (kinds[*a], kinds[*b]) {
                    (Val::Scalar(x), Val::Scalar(y)) => Val::Scalar(op.apply(x, y)),
                    _ => Val::Node(i),
                },
            };
            kinds.push(v);
        }
        Evaluator {
            t,
            leaves,
            kinds,
            scratch: vec![Vec::new(); t.nodes.len()],
            scattered: if leaves.iter().any(|l| matches!(l, Leaf::Sparse(_))) {
                vec![Vec::new(); leaves.len()]
            } else {
                Vec::new()
            },
        }
    }

    /// Evaluate the template root over the flat cell range
    /// `[off, off + len)` of the leaf value arrays. Sparse leaves need the
    /// range to cover whole rows.
    fn eval_range(&mut self, off: usize, len: usize) -> &[f64] {
        for (leaf, block) in self.leaves.iter().zip(&mut self.scattered) {
            if let Leaf::Sparse(s) = leaf {
                let n = s.cols();
                block.clear();
                block.resize(len, 0.0);
                for (i, row) in (off / n..).zip(block.chunks_mut(n)) {
                    let (cols, vals) = s.row(i);
                    for (&c, &v) in cols.iter().zip(vals) {
                        row[c as usize] = v;
                    }
                }
            }
        }
        for i in 0..self.t.nodes.len() {
            if !matches!(self.kinds[i], Val::Node(_)) {
                continue;
            }
            let (done, rest) = self.scratch.split_at_mut(i);
            let dst = &mut rest[0];
            dst.clear();
            dst.resize(len, 0.0);
            match &self.t.nodes[i] {
                TemplateNode::Unary(op, a) => {
                    match operand(self.kinds[*a], done, self.leaves, &self.scattered, off, len) {
                        Operand::Scalar(x) => dst.fill(op.apply(x)),
                        Operand::Slice(s) => {
                            for (d, &x) in dst.iter_mut().zip(s) {
                                *d = op.apply(x);
                            }
                        }
                    }
                }
                TemplateNode::Binary(op, a, b) => {
                    let oa = operand(self.kinds[*a], done, self.leaves, &self.scattered, off, len);
                    let ob = operand(self.kinds[*b], done, self.leaves, &self.scattered, off, len);
                    match (oa, ob) {
                        (Operand::Scalar(x), Operand::Scalar(y)) => dst.fill(op.apply(x, y)),
                        (Operand::Scalar(x), Operand::Slice(sb)) => {
                            for (d, &y) in dst.iter_mut().zip(sb) {
                                *d = op.apply(x, y);
                            }
                        }
                        (Operand::Slice(sa), Operand::Scalar(y)) => {
                            for (d, &x) in dst.iter_mut().zip(sa) {
                                *d = op.apply(x, y);
                            }
                        }
                        (Operand::Slice(sa), Operand::Slice(sb)) => {
                            for ((d, &x), &y) in dst.iter_mut().zip(sa).zip(sb) {
                                *d = op.apply(x, y);
                            }
                        }
                    }
                }
                TemplateNode::Input(_) | TemplateNode::Const(_) => {
                    unreachable!("leaves never classify as Val::Node")
                }
            }
        }
        let root = self.t.root;
        match self.kinds[root] {
            // A scalar-only root broadcasts to every cell of the block.
            Val::Scalar(v) => {
                let dst = &mut self.scratch[root];
                dst.clear();
                dst.resize(len, v);
                dst
            }
            Val::Leaf(k) => leaf_slice(self.leaves, &self.scattered, k, off, len),
            Val::Node(i) => &self.scratch[i][..len],
        }
    }
}

/// Cells per evaluation block: caps scratch at ~8k values per template
/// node (a block holds at least one row).
const BLOCK_CELLS: usize = 8192;

/// Where the cells of each row live in the leaf value arrays.
#[derive(Clone, Copy)]
enum Layout<'a> {
    /// Row-major dense values, `n` per row; every cell is present.
    Dense { n: usize },
    /// CSR: row `i` holds `row_ptr[i]..row_ptr[i+1]` of the value array,
    /// at columns `col_idx[..]`; all other cells are structural zeros, which
    /// the template maps to `0.0`.
    Sparse {
        row_ptr: &'a [usize],
        col_idx: &'a [u32],
    },
}

impl<'a> Layout<'a> {
    /// Offset of row `i`'s first value.
    #[inline]
    fn start(&self, i: usize) -> usize {
        match *self {
            Layout::Dense { n } => i * n,
            Layout::Sparse { row_ptr, .. } => row_ptr[i],
        }
    }

    /// Whether row `i` has structural zeros.
    #[inline]
    fn row_has_zeros(&self, i: usize, n: usize) -> bool {
        match *self {
            Layout::Dense { .. } => false,
            Layout::Sparse { row_ptr, .. } => row_ptr[i + 1] - row_ptr[i] < n,
        }
    }

    /// Row blocks `(rl, rh)` covering rows `lo..hi`, each holding about
    /// [`BLOCK_CELLS`] values.
    fn blocks(self, lo: usize, hi: usize) -> impl Iterator<Item = (usize, usize)> + 'a {
        let mut r = lo;
        std::iter::from_fn(move || {
            if r >= hi {
                return None;
            }
            let r2 = match self {
                Layout::Dense { n } => (r + (BLOCK_CELLS / n.max(1)).max(1)).min(hi),
                Layout::Sparse { row_ptr, .. } => {
                    let limit = row_ptr[r] + BLOCK_CELLS;
                    (r + row_ptr[r + 1..=hi].partition_point(|&p| p <= limit)).max(r + 1)
                }
            };
            let block = (r, r2);
            r = r2;
            Some(block)
        })
    }
}

/// Evaluate the template over rows `lo..hi` block by block, handing each
/// row block `(rl, rh)` and its evaluated values to `visit`.
fn for_each_block(
    t: &FusedTemplate,
    leaves: &[Leaf],
    layout: Layout,
    (lo, hi): (usize, usize),
    mut visit: impl FnMut(usize, usize, &[f64]),
) {
    // A bare matrix leaf (an aggregate over one input) is read in place,
    // in one block.
    if let TemplateNode::Input(k) = t.nodes[t.root] {
        if let Leaf::Values(vals) = leaves[k] {
            let (a, b) = (layout.start(lo), layout.start(hi));
            return visit(lo, hi, &vals[a..b]);
        }
    }
    let mut ev = Evaluator::new(t, leaves);
    for (rl, rh) in layout.blocks(lo, hi) {
        let off = layout.start(rl);
        visit(rl, rh, ev.eval_range(off, layout.start(rh) - off));
    }
}

/// Fold `vals` into a running min or max. A value replaces the running one
/// only when strictly smaller (larger), so NaN is skipped and the first of
/// equal extremes in row-major order wins, which decides the sign of a
/// zero result.
#[inline]
fn fold_min_max(f: AggFn, acc: f64, vals: &[f64]) -> f64 {
    if f == AggFn::Min {
        fold_extreme(acc, vals, |v, a| v < a)
    } else {
        fold_extreme(acc, vals, |v, a| v > a)
    }
}

/// [`fold_min_max`] over four independent lanes, which keeps the
/// dependency chain short. Lanes lose the order among equal values; only a
/// zero result can show it (by its sign), and then it is the first zero of
/// `vals`, unless `acc` already was zero.
#[inline(always)]
fn fold_extreme(acc: f64, vals: &[f64], better: impl Fn(f64, f64) -> bool) -> f64 {
    let mut lanes = [acc; 4];
    let chunks = vals.chunks_exact(4);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (lane, &v) in lanes.iter_mut().zip(chunk) {
            if better(v, *lane) {
                *lane = v;
            }
        }
    }
    let mut m = acc;
    for &v in lanes.iter().chain(tail) {
        if better(v, m) {
            m = v;
        }
    }
    if m == 0.0 && acc != 0.0 {
        m = *vals
            .iter()
            .find(|&&v| v == 0.0)
            .expect("a zero extreme other than acc comes from vals");
    }
    m
}

/// The identity of min or max.
fn min_max_identity(f: AggFn) -> f64 {
    if f == AggFn::Min {
        f64::INFINITY
    } else {
        f64::NEG_INFINITY
    }
}

/// Aggregate one row's values; `zeros` folds in the row's structural zeros.
fn row_agg(f: AggFn, vals: &[f64], n: usize, zeros: bool) -> f64 {
    match f {
        AggFn::Min | AggFn::Max => {
            let acc = fold_min_max(f, min_max_identity(f), vals);
            if zeros {
                fold_min_max(f, acc, &[0.0])
            } else {
                acc
            }
        }
        _ => {
            let mut sum: f64 = if f == AggFn::SumSq {
                vals.iter().map(|v| v * v).sum()
            } else {
                vals.iter().sum()
            };
            if zeros {
                sum += 0.0;
            }
            if f == AggFn::Mean {
                sum / n as f64
            } else {
                sum
            }
        }
    }
}

/// Fold a block's values into per-column accumulators with `op`. Dense
/// blocks hold whole rows of `acc.len()` cells; sparse blocks give each
/// value's column in `cols`.
#[inline]
fn col_fold(acc: &mut [f64], cols: Option<&[u32]>, vals: &[f64], op: impl Fn(f64, f64) -> f64) {
    match cols {
        None => {
            for row in vals.chunks(acc.len()) {
                for (a, &v) in acc.iter_mut().zip(row) {
                    *a = op(*a, v);
                }
            }
        }
        Some(cols) => {
            for (&c, &v) in cols.iter().zip(vals) {
                let a = &mut acc[c as usize];
                *a = op(*a, v);
            }
        }
    }
}

/// Run the template over every row partition and apply its aggregate.
fn run(
    t: &FusedTemplate,
    leaves: &[Leaf],
    layout: Layout,
    parts: &[(usize, usize)],
    m: usize,
    n: usize,
) -> Result<FusedOutput> {
    let blocks = |part: (usize, usize), visit: &mut dyn FnMut(usize, usize, &[f64])| {
        for_each_block(t, leaves, layout, part, visit)
    };
    let Some((f, dir)) = t.agg else {
        return Ok(FusedOutput::Matrix(cellwise(blocks, layout, parts, m, n)));
    };
    let nnz = layout.start(m);
    match dir {
        Direction::Full if matches!(f, AggFn::Min | AggFn::Max) => {
            let partials = super::run_partitions(parts, |lo, hi| {
                let mut acc = min_max_identity(f);
                blocks((lo, hi), &mut |_, _, vals: &[f64]| {
                    acc = fold_min_max(f, acc, vals)
                });
                acc
            });
            let mut acc = fold_min_max(f, min_max_identity(f), &partials);
            if nnz < m * n {
                acc = fold_min_max(f, acc, &[0.0]);
            }
            Ok(FusedOutput::Scalar(acc))
        }
        Direction::Full => {
            let squared = f == AggFn::SumSq;
            let partials = super::run_partitions(parts, |lo, hi| {
                let mut acc = Kahan::default();
                blocks((lo, hi), &mut |_, _, vals: &[f64]| {
                    for &v in vals {
                        acc.add(if squared { v * v } else { v });
                    }
                });
                acc
            });
            // One partition returns its sum as is, like a sequential scan;
            // several merge their compensation terms in partition order.
            let sum = if let [one] = partials[..] {
                one.sum
            } else {
                let mut acc = Kahan::default();
                for &p in &partials {
                    acc.merge(p);
                }
                acc.sum
            };
            Ok(FusedOutput::Scalar(if f == AggFn::Mean {
                sum / (m * n) as f64
            } else {
                sum
            }))
        }
        Direction::Row => {
            let mut out = vec![0.0; m];
            super::run_row_chunks(parts, &mut out, 1, |lo, hi, chunk| {
                blocks((lo, hi), &mut |rl, rh, vals: &[f64]| {
                    let base = layout.start(rl);
                    for i in rl..rh {
                        let row = &vals[layout.start(i) - base..layout.start(i + 1) - base];
                        chunk[i - lo] = row_agg(f, row, n, layout.row_has_zeros(i, n));
                    }
                });
            });
            Ok(FusedOutput::Matrix(Matrix::from_vec(m, 1, out)?))
        }
        Direction::Col => {
            let init = match f {
                AggFn::Min | AggFn::Max => min_max_identity(f),
                _ => 0.0,
            };
            let col_idx = match layout {
                Layout::Dense { .. } => None,
                Layout::Sparse { col_idx, .. } => Some(col_idx),
            };
            let partials = super::run_partitions(parts, |lo, hi| {
                let mut acc = vec![init; n];
                blocks((lo, hi), &mut |rl, rh, vals: &[f64]| {
                    let cols = col_idx.map(|c| &c[layout.start(rl)..layout.start(rh)]);
                    match f {
                        AggFn::Min => {
                            col_fold(&mut acc, cols, vals, |a, v| if v < a { v } else { a })
                        }
                        AggFn::Max => {
                            col_fold(&mut acc, cols, vals, |a, v| if v > a { v } else { a })
                        }
                        AggFn::SumSq => col_fold(&mut acc, cols, vals, |a, v| a + v * v),
                        _ => col_fold(&mut acc, cols, vals, |a, v| a + v),
                    }
                });
                acc
            });
            let mut acc = vec![init; n];
            for p in &partials {
                match f {
                    AggFn::Min | AggFn::Max => {
                        for (a, &v) in acc.iter_mut().zip(p) {
                            *a = fold_min_max(f, *a, &[v]);
                        }
                    }
                    _ => col_fold(&mut acc, None, p, |a, v| a + v),
                }
            }
            if let (Some(cols), AggFn::Min | AggFn::Max) = (col_idx, f) {
                // Columns with fewer than `m` stored values hold a zero.
                let mut stored = vec![0usize; n];
                for &c in cols {
                    stored[c as usize] += 1;
                }
                for (a, &k) in acc.iter_mut().zip(&stored) {
                    if k < m {
                        *a = fold_min_max(f, *a, &[0.0]);
                    }
                }
            }
            if f == AggFn::Mean {
                for v in &mut acc {
                    *v /= m as f64;
                }
            }
            Ok(FusedOutput::Matrix(Matrix::from_vec(1, n, acc)?))
        }
    }
}

/// The cell-wise result without an aggregate. Dense partitions write
/// disjoint row chunks of the output; sparse partitions keep the input's
/// structure and drop values that evaluate to zero.
fn cellwise(
    blocks: impl Fn((usize, usize), &mut dyn FnMut(usize, usize, &[f64])) + Sync,
    layout: Layout,
    parts: &[(usize, usize)],
    m: usize,
    n: usize,
) -> Matrix {
    match layout {
        Layout::Dense { .. } => {
            let mut out = DenseMatrix::zeros(m, n);
            super::run_row_chunks(parts, out.values_mut(), n, |lo, hi, chunk| {
                blocks((lo, hi), &mut |rl, rh, vals: &[f64]| {
                    chunk[(rl - lo) * n..(rh - lo) * n].copy_from_slice(vals)
                });
            });
            Matrix::Dense(out).compact_estimated()
        }
        Layout::Sparse { row_ptr, col_idx } => {
            let pieces = super::run_partitions(parts, |lo, hi| {
                let (mut ends, mut cols, mut vals) = (Vec::with_capacity(hi - lo), vec![], vec![]);
                blocks((lo, hi), &mut |rl, rh, block: &[f64]| {
                    let base = row_ptr[rl];
                    for i in rl..rh {
                        for k in row_ptr[i]..row_ptr[i + 1] {
                            if block[k - base] != 0.0 {
                                cols.push(col_idx[k]);
                                vals.push(block[k - base]);
                            }
                        }
                        ends.push(vals.len());
                    }
                });
                (ends, cols, vals)
            });
            let mut out_ptr = Vec::with_capacity(m + 1);
            out_ptr.push(0);
            let (mut out_cols, mut out_vals) = (Vec::new(), Vec::new());
            for (ends, cols, vals) in pieces {
                let base = out_vals.len();
                out_ptr.extend(ends.iter().map(|e| base + e));
                out_cols.extend(cols);
                out_vals.extend(vals);
            }
            Matrix::Sparse(SparseMatrix::from_csr(m, n, out_ptr, out_cols, out_vals))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{aggregate, elementwise, gen};

    /// sum((X - Y)^2)
    fn sub_sq_sum() -> FusedTemplate {
        FusedTemplate {
            nodes: vec![
                TemplateNode::Input(0),
                TemplateNode::Input(1),
                TemplateNode::Binary(BinaryOp::Sub, 0, 1),
                TemplateNode::Const(2.0),
                TemplateNode::Binary(BinaryOp::Pow, 2, 3),
            ],
            root: 4,
            agg: Some((AggFn::Sum, Direction::Full)),
            num_inputs: 2,
            saved_intermediates: 2,
        }
    }

    /// (X - Y)^2 without the aggregate.
    fn sub_sq() -> FusedTemplate {
        FusedTemplate {
            agg: None,
            saved_intermediates: 1,
            ..sub_sq_sum()
        }
    }

    /// X * s (scalar leaf) — zero-preserving for any finite s.
    fn mul_scalar() -> FusedTemplate {
        FusedTemplate {
            nodes: vec![
                TemplateNode::Input(0),
                TemplateNode::Input(1),
                TemplateNode::Binary(BinaryOp::Mul, 0, 1),
            ],
            root: 2,
            agg: None,
            num_inputs: 2,
            saved_intermediates: 0,
        }
    }

    fn unfused_sub_sq(x: &Matrix, y: &Matrix) -> Matrix {
        let d = elementwise::binary_mm(BinaryOp::Sub, x, y).unwrap();
        elementwise::binary_ms(BinaryOp::Pow, &d, 2.0)
    }

    #[test]
    fn signature_renders_infix() {
        assert_eq!(sub_sq_sum().signature(), "sum((X-Y)^2)");
        assert_eq!(sub_sq().signature(), "((X-Y)^2)");
        assert_eq!(mul_scalar().signature(), "(X*Y)");
    }

    #[test]
    fn validate_rejects_malformed() {
        let bad = FusedTemplate {
            nodes: vec![TemplateNode::Binary(BinaryOp::Add, 0, 1)],
            root: 0,
            agg: None,
            num_inputs: 0,
            saved_intermediates: 0,
        };
        assert!(bad.validate().is_err());
        let no_root = FusedTemplate {
            nodes: vec![],
            root: 0,
            agg: None,
            num_inputs: 0,
            saved_intermediates: 0,
        };
        assert!(no_root.validate().is_err());
    }

    #[test]
    fn dense_full_sum_matches_composition() {
        let x = gen::rand_uniform(40, 7, -1.0, 1.0, 1.0, 1);
        let y = gen::rand_uniform(40, 7, -1.0, 1.0, 1.0, 2);
        let t = sub_sq_sum();
        let got = match eval(&t, &[FusedInput::Matrix(&x), FusedInput::Matrix(&y)], 1).unwrap() {
            FusedOutput::Scalar(v) => v,
            other => panic!("expected scalar, got {other:?}"),
        };
        let want = aggregate::aggregate_full(AggFn::Sum, &unfused_sub_sq(&x, &y)).unwrap();
        assert!((got - want).abs() < 1e-9, "{got} vs {want}");
    }

    #[test]
    fn parallel_matches_sequential() {
        // Big enough to take the multi-partition path.
        let x = gen::rand_uniform(300, 120, -2.0, 2.0, 1.0, 3);
        let y = gen::rand_uniform(300, 120, -2.0, 2.0, 1.0, 4);
        let ins = [FusedInput::Matrix(&x), FusedInput::Matrix(&y)];
        for t in [sub_sq_sum(), sub_sq()] {
            let a = eval(&t, &ins, 1).unwrap();
            let b = eval(&t, &ins, 4).unwrap();
            match (a, b) {
                (FusedOutput::Scalar(u), FusedOutput::Scalar(v)) => {
                    assert!((u - v).abs() < 1e-9)
                }
                (FusedOutput::Matrix(u), FusedOutput::Matrix(v)) => {
                    assert!(u.approx_eq(&v, 1e-9))
                }
                _ => panic!("output kind mismatch"),
            }
        }
    }

    #[test]
    fn row_and_col_aggregates_match_composition() {
        let x = gen::rand_uniform(30, 11, -1.0, 1.0, 1.0, 5);
        let y = gen::rand_uniform(30, 11, -1.0, 1.0, 1.0, 6);
        let ins = [FusedInput::Matrix(&x), FusedInput::Matrix(&y)];
        let ref_mat = unfused_sub_sq(&x, &y);
        for (f, d) in [
            (AggFn::Sum, Direction::Row),
            (AggFn::Mean, Direction::Row),
            (AggFn::Max, Direction::Row),
            (AggFn::Sum, Direction::Col),
            (AggFn::Mean, Direction::Col),
            (AggFn::Min, Direction::Col),
        ] {
            let t = FusedTemplate {
                agg: Some((f, d)),
                ..sub_sq()
            };
            let got = match eval(&t, &ins, 1).unwrap() {
                FusedOutput::Matrix(mat) => mat,
                other => panic!("expected matrix, got {other:?}"),
            };
            let want = aggregate::aggregate_axis(f, d, &ref_mat).unwrap();
            assert!(got.approx_eq(&want, 1e-9), "{f:?} {d:?}");
        }
    }

    #[test]
    fn sparse_path_stays_sparse() {
        let x = gen::rand_uniform(50, 50, 1.0, 2.0, 0.05, 7).compact();
        assert!(x.is_sparse());
        let t = mul_scalar();
        let ins = [FusedInput::Matrix(&x), FusedInput::Scalar(3.0)];
        let got = match eval(&t, &ins, 1).unwrap() {
            FusedOutput::Matrix(mat) => mat,
            other => panic!("expected matrix, got {other:?}"),
        };
        assert!(got.is_sparse());
        let want = elementwise::binary_ms(BinaryOp::Mul, &x, 3.0);
        assert!(got.approx_eq(&want, 1e-12));
    }

    #[test]
    fn non_zero_preserving_template_densifies() {
        let x = gen::rand_uniform(50, 50, 1.0, 2.0, 0.05, 8).compact();
        // X + 1 maps zero cells to 1: the sparse path must be rejected.
        let t = FusedTemplate {
            nodes: vec![
                TemplateNode::Input(0),
                TemplateNode::Const(1.0),
                TemplateNode::Binary(BinaryOp::Add, 0, 1),
            ],
            root: 2,
            agg: None,
            num_inputs: 1,
            saved_intermediates: 0,
        };
        let got = match eval(&t, &[FusedInput::Matrix(&x)], 1).unwrap() {
            FusedOutput::Matrix(mat) => mat,
            other => panic!("expected matrix, got {other:?}"),
        };
        let want = elementwise::binary_ms(BinaryOp::Add, &x, 1.0);
        assert!(got.approx_eq(&want, 1e-12));
        assert_eq!(got.get(1, 1), x.get(1, 1) + 1.0);
    }

    #[test]
    fn sparse_full_sum_matches_dense() {
        let x = gen::rand_uniform(60, 40, -1.0, 1.0, 0.1, 9).compact();
        assert!(x.is_sparse());
        let dense = Matrix::Dense(x.to_dense());
        let t = FusedTemplate {
            agg: Some((AggFn::Sum, Direction::Full)),
            ..mul_scalar()
        };
        let s = |m: &Matrix| match eval(&t, &[FusedInput::Matrix(m), FusedInput::Scalar(2.5)], 1)
            .unwrap()
        {
            FusedOutput::Scalar(v) => v,
            other => panic!("expected scalar, got {other:?}"),
        };
        assert!((s(&x) - s(&dense)).abs() < 1e-9);
    }

    #[test]
    fn empty_matrix_semantics_match_aggregate() {
        let x = Matrix::zeros(0, 3);
        let sum = FusedTemplate {
            agg: Some((AggFn::Sum, Direction::Full)),
            ..mul_scalar()
        };
        match eval(&sum, &[FusedInput::Matrix(&x), FusedInput::Scalar(1.0)], 1).unwrap() {
            FusedOutput::Scalar(v) => assert_eq!(v, 0.0),
            other => panic!("expected scalar, got {other:?}"),
        }
        let mean = FusedTemplate {
            agg: Some((AggFn::Mean, Direction::Full)),
            ..mul_scalar()
        };
        assert!(eval(&mean, &[FusedInput::Matrix(&x), FusedInput::Scalar(1.0)], 1).is_err());
    }

    #[test]
    fn input_errors_are_reported() {
        let t = mul_scalar();
        // wrong arity
        assert!(eval(&t, &[FusedInput::Scalar(1.0)], 1).is_err());
        // no matrix input
        assert!(eval(&t, &[FusedInput::Scalar(1.0), FusedInput::Scalar(2.0)], 1).is_err());
        // shape mismatch
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 2);
        assert!(eval(&t, &[FusedInput::Matrix(&a), FusedInput::Matrix(&b)], 1).is_err());
        // var is not fusable
        let var = FusedTemplate {
            agg: Some((AggFn::Var, Direction::Full)),
            ..mul_scalar()
        };
        let c = Matrix::filled(2, 2, 1.0);
        assert!(eval(&var, &[FusedInput::Matrix(&c), FusedInput::Scalar(1.0)], 1).is_err());
    }

    #[test]
    fn signed_zero_extremes_keep_the_first_in_row_major_order() {
        // The first zero sits in the last lane of the first chunk of four,
        // the second in the first lane of the next.
        for (first, second) in [(0.0f64, -0.0f64), (-0.0, 0.0)] {
            let mut vals = vec![1.0; 11];
            vals[3] = first;
            vals[4] = second;
            let x = Matrix::from_vec(1, 11, vals.clone()).unwrap();
            let neg = Matrix::from_vec(1, 11, vals.iter().map(|v| -v).collect()).unwrap();
            for (f, m, zero) in [(AggFn::Min, &x, first), (AggFn::Max, &neg, -first)] {
                for d in [Direction::Full, Direction::Row] {
                    let t = FusedTemplate::single(1, None, Some((f, d)));
                    let got = match eval(&t, &[FusedInput::Matrix(m)], 1).unwrap() {
                        FusedOutput::Scalar(v) => v,
                        FusedOutput::Matrix(r) => r.get(0, 0),
                    };
                    assert_eq!(got.to_bits(), zero.to_bits(), "{f:?} {d:?}");
                }
            }
        }
    }

    #[test]
    fn nan_and_inf_flow_through() {
        let x = Matrix::from_vec(1, 4, vec![f64::NAN, f64::INFINITY, -1.0, 2.0]).unwrap();
        let y = Matrix::from_vec(1, 4, vec![1.0, 1.0, f64::NAN, 2.0]).unwrap();
        let t = sub_sq();
        let got = match eval(&t, &[FusedInput::Matrix(&x), FusedInput::Matrix(&y)], 1).unwrap() {
            FusedOutput::Matrix(mat) => mat,
            other => panic!("expected matrix, got {other:?}"),
        };
        let want = unfused_sub_sq(&x, &y);
        assert!(got.approx_eq(&want, 1e-12));
        assert!(got.get(0, 0).is_nan());
        assert!(got.get(0, 1).is_infinite());
    }
}
