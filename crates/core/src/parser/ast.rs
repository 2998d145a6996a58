//! Abstract syntax tree of DML programs.

use sysds_common::ScalarValue;
use sysds_tensor::kernels::BinaryOp;

/// Binary operators in expressions: `%*%`, or a cell-wise operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    MatMul,
    Cell(BinaryOp),
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    Neg,
    Not,
}

/// A (possibly named) call argument: `f(X, reg=0.1)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Arg {
    pub name: Option<String>,
    pub value: Expr,
}

/// An index expression for one dimension of `X[rows, cols]`.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexExpr {
    /// Dimension untouched (empty slot): `X[, 2]`.
    All,
    /// A single (1-based) position.
    Single(Box<Expr>),
    /// An inclusive (1-based) range `a:b`.
    Range(Box<Expr>, Box<Expr>),
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Const(ScalarValue),
    Var(String),
    Unary(UnOp, Box<Expr>),
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// `a:b` sequence (used in loops and as seq shorthand).
    Seq(Box<Expr>, Box<Expr>),
    /// Function or builtin call.
    Call {
        name: String,
        args: Vec<Arg>,
    },
    /// Right indexing `X[rows, cols]`.
    Index {
        target: Box<Expr>,
        rows: IndexExpr,
        cols: IndexExpr,
    },
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `x = expr`
    Assign {
        target: String,
        value: Expr,
    },
    /// `X[i, j] = expr` (left indexing)
    IndexAssign {
        target: String,
        rows: IndexExpr,
        cols: IndexExpr,
        value: Expr,
    },
    /// `[a, b] = f(...)` (multi-assignment from a multi-return call)
    MultiAssign {
        targets: Vec<String>,
        value: Expr,
    },
    /// Bare call executed for effect: `print(...)`, `write(...)`.
    ExprStmt(Expr),
    If {
        cond: Expr,
        then_branch: Vec<Stmt>,
        else_branch: Vec<Stmt>,
    },
    For {
        var: String,
        from: Expr,
        to: Expr,
        step: Option<Expr>,
        body: Vec<Stmt>,
    },
    Parfor {
        var: String,
        from: Expr,
        to: Expr,
        body: Vec<Stmt>,
    },
    While {
        cond: Expr,
        body: Vec<Stmt>,
    },
}

/// A function definition: `name = function(params) return (outs) { body }`.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionDef {
    pub name: String,
    /// `(param name, declared type, default value)`
    pub params: Vec<(String, String, Option<Expr>)>,
    /// Output variable names (bound inside the body).
    pub outputs: Vec<String>,
    pub body: Vec<Stmt>,
}

/// A full DML program: top-level statements plus function definitions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    pub functions: Vec<FunctionDef>,
    pub statements: Vec<Stmt>,
}

impl Expr {
    /// Convenience constructor for f64 literals (tests and rewrites).
    pub fn num(v: f64) -> Expr {
        Expr::Const(ScalarValue::F64(v))
    }

    /// Convenience constructor for integer literals.
    pub fn int(v: i64) -> Expr {
        Expr::Const(ScalarValue::I64(v))
    }

    /// Convenience constructor for variable references.
    pub fn var(name: &str) -> Expr {
        Expr::Var(name.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Expr::num(1.5), Expr::Const(ScalarValue::F64(1.5)));
        assert_eq!(Expr::int(3), Expr::Const(ScalarValue::I64(3)));
        assert_eq!(Expr::var("x"), Expr::Var("x".into()));
    }

    #[test]
    fn ast_equality() {
        let a = Expr::Binary(
            BinOp::Cell(BinaryOp::Add),
            Box::new(Expr::var("x")),
            Box::new(Expr::num(1.0)),
        );
        let b = Expr::Binary(
            BinOp::Cell(BinaryOp::Add),
            Box::new(Expr::var("x")),
            Box::new(Expr::num(1.0)),
        );
        assert_eq!(a, b);
    }
}
