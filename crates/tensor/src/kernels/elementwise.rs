//! Element-wise binary and unary operations with R-style broadcasting.
//!
//! Binary operations support matrix-matrix (equal shapes), matrix-scalar,
//! and row-/column-vector broadcasting, matching DML semantics. Sparse
//! inputs stay sparse for zero-preserving operations (e.g. `sparse * dense`,
//! `sparse ^ 2`) and densify otherwise.
//!
//! Unary, matrix-scalar and equal-shape matrix-matrix operations run as
//! one-node templates on the fused evaluator ([`super::fused`]); only
//! broadcasting and the sparse-left zero-preserving product keep their own
//! loops here.

use super::fused::{self, FusedInput, FusedOutput, FusedTemplate, TemplateNode};
use crate::matrix::{DenseMatrix, Matrix, SparseMatrix};
use sysds_common::{Result, SysDsError};

/// Binary element-wise operators of the DML language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Pow,
    Mod,
    IntDiv,
    Min,
    Max,
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl BinaryOp {
    /// Every operator once, in declaration order. The federated wire
    /// protocol encodes an operator as its index here.
    pub const ALL: [BinaryOp; 17] = [
        BinaryOp::Add,
        BinaryOp::Sub,
        BinaryOp::Mul,
        BinaryOp::Div,
        BinaryOp::Pow,
        BinaryOp::Mod,
        BinaryOp::IntDiv,
        BinaryOp::Min,
        BinaryOp::Max,
        BinaryOp::Eq,
        BinaryOp::Neq,
        BinaryOp::Lt,
        BinaryOp::Le,
        BinaryOp::Gt,
        BinaryOp::Ge,
        BinaryOp::And,
        BinaryOp::Or,
    ];

    /// Apply to two scalars.
    #[inline]
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            BinaryOp::Add => a + b,
            BinaryOp::Sub => a - b,
            BinaryOp::Mul => a * b,
            BinaryOp::Div => a / b,
            BinaryOp::Pow => a.powf(b),
            BinaryOp::Mod => {
                // R-style modulus: result has the sign of the divisor.
                let r = a % b;
                if r != 0.0 && (r < 0.0) != (b < 0.0) {
                    r + b
                } else {
                    r
                }
            }
            BinaryOp::IntDiv => (a / b).floor(),
            BinaryOp::Min => a.min(b),
            BinaryOp::Max => a.max(b),
            BinaryOp::Eq => f64::from(a == b),
            BinaryOp::Neq => f64::from(a != b),
            BinaryOp::Lt => f64::from(a < b),
            BinaryOp::Le => f64::from(a <= b),
            BinaryOp::Gt => f64::from(a > b),
            BinaryOp::Ge => f64::from(a >= b),
            BinaryOp::And => f64::from(a != 0.0 && b != 0.0),
            BinaryOp::Or => f64::from(a != 0.0 || b != 0.0),
        }
    }

    /// Whether `op(0, x) == 0` for all x — the left-sparse-safe property.
    pub fn zero_preserving_left(self) -> bool {
        matches!(self, BinaryOp::Mul | BinaryOp::And)
    }

    /// Whether `op(x, 0) == 0` for all x.
    pub fn zero_preserving_right(self) -> bool {
        matches!(self, BinaryOp::Mul | BinaryOp::And)
    }

    /// The DML opcode string (used for lineage and instruction names).
    pub fn opcode(self) -> &'static str {
        match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Pow => "^",
            BinaryOp::Mod => "%%",
            BinaryOp::IntDiv => "%/%",
            BinaryOp::Min => "min",
            BinaryOp::Max => "max",
            BinaryOp::Eq => "==",
            BinaryOp::Neq => "!=",
            BinaryOp::Lt => "<",
            BinaryOp::Le => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::Ge => ">=",
            BinaryOp::And => "&",
            BinaryOp::Or => "|",
        }
    }
}

/// Unary element-wise operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    Neg,
    Not,
    Abs,
    Exp,
    Log,
    Sqrt,
    Sin,
    Cos,
    Tan,
    Sign,
    Round,
    Floor,
    Ceil,
    Sigmoid,
}

impl UnaryOp {
    /// Every operator once, in declaration order.
    pub const ALL: [UnaryOp; 14] = [
        UnaryOp::Neg,
        UnaryOp::Not,
        UnaryOp::Abs,
        UnaryOp::Exp,
        UnaryOp::Log,
        UnaryOp::Sqrt,
        UnaryOp::Sin,
        UnaryOp::Cos,
        UnaryOp::Tan,
        UnaryOp::Sign,
        UnaryOp::Round,
        UnaryOp::Floor,
        UnaryOp::Ceil,
        UnaryOp::Sigmoid,
    ];

    /// Apply to one scalar.
    #[inline]
    pub fn apply(self, v: f64) -> f64 {
        match self {
            UnaryOp::Neg => -v,
            UnaryOp::Not => f64::from(v == 0.0),
            UnaryOp::Abs => v.abs(),
            UnaryOp::Exp => v.exp(),
            UnaryOp::Log => v.ln(),
            UnaryOp::Sqrt => v.sqrt(),
            UnaryOp::Sin => v.sin(),
            UnaryOp::Cos => v.cos(),
            UnaryOp::Tan => v.tan(),
            UnaryOp::Sign => {
                if v > 0.0 {
                    1.0
                } else if v < 0.0 {
                    -1.0
                } else {
                    0.0
                }
            }
            UnaryOp::Round => v.round(),
            UnaryOp::Floor => v.floor(),
            UnaryOp::Ceil => v.ceil(),
            UnaryOp::Sigmoid => 1.0 / (1.0 + (-v).exp()),
        }
    }

    /// Whether `op(0) == 0` (sparse inputs keep their representation).
    pub fn zero_preserving(self) -> bool {
        matches!(
            self,
            UnaryOp::Neg
                | UnaryOp::Abs
                | UnaryOp::Sqrt
                | UnaryOp::Sin
                | UnaryOp::Tan
                | UnaryOp::Sign
                | UnaryOp::Round
                | UnaryOp::Floor
                | UnaryOp::Ceil
        )
    }

    /// The DML opcode string.
    pub fn opcode(self) -> &'static str {
        match self {
            UnaryOp::Neg => "u-",
            UnaryOp::Not => "!",
            UnaryOp::Abs => "abs",
            UnaryOp::Exp => "exp",
            UnaryOp::Log => "log",
            UnaryOp::Sqrt => "sqrt",
            UnaryOp::Sin => "sin",
            UnaryOp::Cos => "cos",
            UnaryOp::Tan => "tan",
            UnaryOp::Sign => "sign",
            UnaryOp::Round => "round",
            UnaryOp::Floor => "floor",
            UnaryOp::Ceil => "ceil",
            UnaryOp::Sigmoid => "sigmoid",
        }
    }
}

/// How the right operand broadcasts onto the left.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Broadcast {
    /// Shapes equal, cell-by-cell.
    None,
    /// Right is a column vector (`m x 1`) repeated across columns.
    ColVector,
    /// Right is a row vector (`1 x n`) repeated down rows.
    RowVector,
}

fn broadcast_mode(lhs: (usize, usize), rhs: (usize, usize)) -> Result<Broadcast> {
    if lhs == rhs {
        Ok(Broadcast::None)
    } else if rhs == (lhs.0, 1) {
        Ok(Broadcast::ColVector)
    } else if rhs == (1, lhs.1) {
        Ok(Broadcast::RowVector)
    } else {
        Err(SysDsError::DimensionMismatch {
            op: "elementwise",
            lhs,
            rhs,
        })
    }
}

/// Matrix ⊕ matrix with broadcasting of the right operand (sequential).
pub fn binary_mm(op: BinaryOp, a: &Matrix, b: &Matrix) -> Result<Matrix> {
    binary_mm_mt(op, a, b, 1)
}

/// Matrix ⊕ matrix with broadcasting, row-partitioned over `threads`.
pub fn binary_mm_mt(op: BinaryOp, a: &Matrix, b: &Matrix, threads: usize) -> Result<Matrix> {
    let mode = broadcast_mode(a.shape(), b.shape())?;
    // Sparse fast path: zero-preserving ops on a sparse left operand touch
    // only stored entries.
    if let (Matrix::Sparse(sa), true) = (a, op.zero_preserving_left()) {
        return Ok(sparse_left_zero_preserving(op, sa, b, mode));
    }
    if mode == Broadcast::None {
        let node = TemplateNode::Binary(op, 0, 1);
        return Ok(cellwise(
            node,
            &[FusedInput::Matrix(a), FusedInput::Matrix(b)],
            threads,
        ));
    }
    let (m, n) = a.shape();
    let mut out = DenseMatrix::zeros(m, n);
    let parts = super::par_row_partitions(m, n, threads);
    super::run_row_chunks(&parts, out.values_mut(), n, |lo, hi, chunk| {
        for (i, row) in (lo..hi).zip(chunk.chunks_mut(n.max(1))) {
            for (j, cell) in row.iter_mut().enumerate() {
                let bv = match mode {
                    Broadcast::ColVector => b.get(i, 0),
                    _ => b.get(0, j),
                };
                *cell = op.apply(a.get(i, j), bv);
            }
        }
    });
    Ok(Matrix::Dense(out).compact())
}

fn sparse_left_zero_preserving(
    op: BinaryOp,
    a: &SparseMatrix,
    b: &Matrix,
    mode: Broadcast,
) -> Matrix {
    let mut triples = Vec::with_capacity(a.nnz());
    for (i, j, v) in a.iter_nonzeros() {
        let bv = match mode {
            Broadcast::None => b.get(i, j),
            Broadcast::ColVector => b.get(i, 0),
            Broadcast::RowVector => b.get(0, j),
        };
        let r = op.apply(v, bv);
        if r != 0.0 {
            triples.push((i, j, r));
        }
    }
    Matrix::Sparse(SparseMatrix::from_triples(a.rows(), a.cols(), triples))
}

/// Matrix ⊕ scalar (sequential).
pub fn binary_ms(op: BinaryOp, a: &Matrix, s: f64) -> Matrix {
    binary_ms_mt(op, a, s, 1)
}

/// Matrix ⊕ scalar, row-partitioned over `threads`. A sparse `a` stays
/// sparse when `op(0, s) == 0`.
pub fn binary_ms_mt(op: BinaryOp, a: &Matrix, s: f64, threads: usize) -> Matrix {
    let node = TemplateNode::Binary(op, 0, 1);
    cellwise(
        node,
        &[FusedInput::Matrix(a), FusedInput::Scalar(s)],
        threads,
    )
}

/// Scalar ⊕ matrix (non-commutative ops need this separate form).
pub fn binary_sm(op: BinaryOp, s: f64, a: &Matrix) -> Matrix {
    binary_sm_mt(op, s, a, 1)
}

/// Scalar ⊕ matrix, row-partitioned over `threads`. A sparse `a` stays
/// sparse when `op(s, 0) == 0`.
pub fn binary_sm_mt(op: BinaryOp, s: f64, a: &Matrix, threads: usize) -> Matrix {
    let node = TemplateNode::Binary(op, 1, 0);
    cellwise(
        node,
        &[FusedInput::Matrix(a), FusedInput::Scalar(s)],
        threads,
    )
}

/// Unary element-wise application (sequential).
pub fn unary(op: UnaryOp, a: &Matrix) -> Matrix {
    unary_mt(op, a, 1)
}

/// Unary element-wise application, row-partitioned over `threads`. A
/// sparse `a` stays sparse when `op(0) == 0`.
pub fn unary_mt(op: UnaryOp, a: &Matrix, threads: usize) -> Matrix {
    cellwise(
        TemplateNode::Unary(op, 0),
        &[FusedInput::Matrix(a)],
        threads,
    )
}

/// Evaluate the one-node template `node` over `inputs` (the first one a
/// matrix, all matrices of one shape) on the fused evaluator.
fn cellwise(node: TemplateNode, inputs: &[FusedInput], threads: usize) -> Matrix {
    let t = FusedTemplate::single(inputs.len(), Some(node), None);
    match fused::eval(&t, inputs, threads) {
        Ok(FusedOutput::Matrix(m)) => m,
        other => unreachable!("element-wise template over checked shapes: {other:?}"),
    }
}

/// `ifelse(cond, yes, no)` by cell. A 1x1 operand stands for every cell;
/// the others broadcast as a binary operator's right operand does: one has
/// the result's m x n shape, and each other is m x n, an m x 1 column or a
/// 1 x n row.
pub fn ifelse(cond: &Matrix, yes: &Matrix, no: &Matrix) -> Result<Matrix> {
    let operands = [cond, yes, no];
    let (m, n) = operands
        .iter()
        .map(|x| x.shape())
        .filter(|&shape| shape != (1, 1))
        .reduce(|(m, n), (r, c)| (m.max(r), n.max(c)))
        .unwrap_or((1, 1));
    let fits =
        |x: &&Matrix| matches!(x.shape(), (r, c) if (r == m || r == 1) && (c == n || c == 1));
    let whole = operands.iter().any(|x| x.shape() == (m, n));
    if !whole || !operands.iter().all(fits) {
        let shapes: Vec<String> = operands
            .iter()
            .map(|x| format!("{}x{}", x.rows(), x.cols()))
            .collect();
        return Err(SysDsError::runtime(format!(
            "ifelse operands {} do not broadcast to one shape",
            shapes.join(", ")
        )));
    }
    let at = |x: &Matrix, i, j| {
        let (r, c) = x.shape();
        x.get(if r == 1 { 0 } else { i }, if c == 1 { 0 } else { j })
    };
    let mut out = DenseMatrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let pick = if at(cond, i, j) != 0.0 { yes } else { no };
            out.set(i, j, at(pick, i, j));
        }
    }
    Ok(Matrix::Dense(out).compact())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::gen;

    #[test]
    fn add_equal_shapes() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[10.0, 20.0], &[30.0, 40.0]]).unwrap();
        let c = binary_mm(BinaryOp::Add, &a, &b).unwrap();
        assert!(c.approx_eq(
            &Matrix::from_rows(&[&[11.0, 22.0], &[33.0, 44.0]]).unwrap(),
            1e-12
        ));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 2);
        assert!(binary_mm(BinaryOp::Add, &a, &b).is_err());
    }

    #[test]
    fn column_vector_broadcast() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let v = Matrix::from_vec(2, 1, vec![10.0, 100.0]).unwrap();
        let c = binary_mm(BinaryOp::Mul, &a, &v).unwrap();
        assert!(c.approx_eq(
            &Matrix::from_rows(&[&[10.0, 20.0], &[300.0, 400.0]]).unwrap(),
            1e-12
        ));
    }

    #[test]
    fn row_vector_broadcast() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let v = Matrix::from_vec(1, 2, vec![-1.0, 1.0]).unwrap();
        let c = binary_mm(BinaryOp::Add, &a, &v).unwrap();
        assert!(c.approx_eq(
            &Matrix::from_rows(&[&[0.0, 3.0], &[2.0, 5.0]]).unwrap(),
            1e-12
        ));
    }

    #[test]
    fn sparse_multiply_stays_sparse() {
        let a = gen::rand_uniform(20, 20, 1.0, 2.0, 0.05, 21).compact();
        assert!(a.is_sparse());
        let b = Matrix::filled(20, 20, 2.0);
        let c = binary_mm(BinaryOp::Mul, &a, &b).unwrap();
        assert!(c.is_sparse());
        for (i, j, v) in a.iter_nonzeros() {
            assert_eq!(c.get(i, j), 2.0 * v);
        }
    }

    #[test]
    fn sparse_scalar_multiply_keeps_sparsity() {
        let a = gen::rand_uniform(20, 20, 1.0, 2.0, 0.05, 22).compact();
        let c = binary_ms(BinaryOp::Mul, &a, 3.0);
        assert!(c.is_sparse());
        assert_eq!(c.nnz(), a.nnz());
    }

    #[test]
    fn scalar_minus_matrix_is_not_commutative() {
        let a = Matrix::filled(1, 2, 3.0);
        let l = binary_sm(BinaryOp::Sub, 10.0, &a);
        let r = binary_ms(BinaryOp::Sub, &a, 10.0);
        assert_eq!(l.get(0, 0), 7.0);
        assert_eq!(r.get(0, 0), -7.0);
    }

    #[test]
    fn r_style_modulus() {
        assert_eq!(BinaryOp::Mod.apply(-7.0, 3.0), 2.0);
        assert_eq!(BinaryOp::Mod.apply(7.0, -3.0), -2.0);
        assert_eq!(BinaryOp::Mod.apply(7.0, 3.0), 1.0);
    }

    #[test]
    fn comparisons_yield_indicators() {
        let a = Matrix::from_rows(&[&[1.0, 5.0]]).unwrap();
        let c = binary_ms(BinaryOp::Gt, &a, 2.0);
        assert_eq!(c.get(0, 0), 0.0);
        assert_eq!(c.get(0, 1), 1.0);
    }

    #[test]
    fn unary_ops_on_sparse() {
        let a = gen::rand_uniform(15, 15, -2.0, 2.0, 0.1, 23).compact();
        let c = unary(UnaryOp::Abs, &a);
        assert!(c.is_sparse());
        for (i, j, v) in a.iter_nonzeros() {
            assert_eq!(c.get(i, j), v.abs());
        }
        // exp(0) = 1, so exp must densify.
        let e = unary(UnaryOp::Exp, &a);
        assert!(!e.is_sparse());
        assert_eq!(e.get(0, 1).min(1.0), e.get(0, 1).min(1.0)); // well-defined
    }

    #[test]
    fn sigmoid_range() {
        let a = Matrix::from_rows(&[&[-100.0, 0.0, 100.0]]).unwrap();
        let s = unary(UnaryOp::Sigmoid, &a);
        assert!(s.get(0, 0) < 1e-6);
        assert_eq!(s.get(0, 1), 0.5);
        assert!(s.get(0, 2) > 1.0 - 1e-6);
    }

    #[test]
    fn ifelse_selects_by_condition() {
        let c = Matrix::from_rows(&[&[1.0, 0.0]]).unwrap();
        let y = Matrix::filled(1, 2, 7.0);
        let n = Matrix::filled(1, 2, -7.0);
        let r = ifelse(&c, &y, &n).unwrap();
        assert_eq!(r.get(0, 0), 7.0);
        assert_eq!(r.get(0, 1), -7.0);
        assert!(ifelse(&c, &Matrix::zeros(3, 3), &n).is_err());
    }

    #[test]
    fn ifelse_broadcasts_rows_and_columns() {
        let x = Matrix::from_rows(&[&[1.0, 0.0, 3.0], &[0.0, 5.0, 0.0]]).unwrap();
        let row = Matrix::from_rows(&[&[10.0, 20.0, 30.0]]).unwrap();
        let col = Matrix::from_vec(2, 1, vec![-1.0, -2.0]).unwrap();
        let one = Matrix::filled(1, 1, 9.0);
        let rows = |m: &Matrix| -> Vec<Vec<f64>> {
            (0..m.rows())
                .map(|i| (0..m.cols()).map(|j| m.get(i, j)).collect())
                .collect()
        };
        // A row vector as the `no` branch, then as the `yes` branch.
        let got = ifelse(&x, &x, &row).unwrap();
        assert_eq!(rows(&got), [[1.0, 20.0, 3.0], [10.0, 5.0, 30.0]]);
        let got = ifelse(&x, &row, &one).unwrap();
        assert_eq!(rows(&got), [[10.0, 9.0, 30.0], [9.0, 20.0, 9.0]]);
        // A column vector as a branch and as the condition.
        let got = ifelse(&x, &col, &x).unwrap();
        assert_eq!(rows(&got), [[-1.0, 0.0, -1.0], [0.0, -2.0, 0.0]]);
        let test = Matrix::from_vec(2, 1, vec![1.0, 0.0]).unwrap();
        let got = ifelse(&test, &x, &row).unwrap();
        assert_eq!(rows(&got), [[1.0, 0.0, 3.0], [10.0, 20.0, 30.0]]);
        // A row vector as the condition against a sparse branch.
        let test = Matrix::from_rows(&[&[0.0, 1.0, 0.0]]).unwrap();
        let sparse = Matrix::Sparse(crate::SparseMatrix::from_triples(2, 3, vec![(1, 1, 4.0)]));
        let got = ifelse(&test, &sparse, &col).unwrap();
        assert_eq!(rows(&got), [[-1.0, 0.0, -1.0], [-2.0, 4.0, -2.0]]);
    }

    #[test]
    fn ifelse_rejects_shapes_that_do_not_broadcast() {
        let x = Matrix::zeros(2, 3);
        let err = ifelse(&x, &x, &Matrix::zeros(3, 1))
            .unwrap_err()
            .to_string();
        assert!(err.contains("ifelse operands 2x3, 2x3, 3x1"), "{err}");
        // A row and a column alone make no whole operand.
        let row = Matrix::zeros(1, 3);
        assert!(ifelse(&Matrix::zeros(2, 1), &row, &row).is_err());
        // An empty operand keeps its shape.
        let empty = Matrix::zeros(4, 0);
        let got = ifelse(&empty, &empty, &Matrix::filled(1, 1, 2.0)).unwrap();
        assert_eq!(got.shape(), (4, 0));
    }

    #[test]
    fn parallel_variants_match_sequential() {
        // Big enough (> PAR_MIN_CELLS) to take the multi-partition path.
        let a = gen::rand_uniform(300, 120, -2.0, 2.0, 1.0, 24);
        let b = gen::rand_uniform(300, 120, -2.0, 2.0, 1.0, 25);
        let mm1 = binary_mm(BinaryOp::Mul, &a, &b).unwrap();
        let mm4 = binary_mm_mt(BinaryOp::Mul, &a, &b, 4).unwrap();
        assert!(mm1.approx_eq(&mm4, 1e-12));
        let ms4 = binary_ms_mt(BinaryOp::Add, &a, 1.5, 4);
        assert!(binary_ms(BinaryOp::Add, &a, 1.5).approx_eq(&ms4, 1e-12));
        let sm4 = binary_sm_mt(BinaryOp::Div, 2.0, &a, 4);
        assert!(binary_sm(BinaryOp::Div, 2.0, &a).approx_eq(&sm4, 1e-12));
        let u4 = unary_mt(UnaryOp::Exp, &a, 4);
        assert!(unary(UnaryOp::Exp, &a).approx_eq(&u4, 1e-12));
    }

    #[test]
    fn opcode_strings_unique() {
        use std::collections::HashSet;
        let set: HashSet<_> = BinaryOp::ALL.iter().map(|o| o.opcode()).collect();
        assert_eq!(set.len(), BinaryOp::ALL.len());
        // `ALL` lists every variant once, in declaration order.
        for (i, op) in BinaryOp::ALL.iter().enumerate() {
            assert_eq!(*op as usize, i, "{op:?}");
        }
        assert_eq!(BinaryOp::Or as usize + 1, BinaryOp::ALL.len());
    }
}
