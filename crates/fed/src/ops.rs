//! Federated instructions as rows of one table (paper §3.3).
//!
//! Every operation a site runs is one [`FedOp`] row. The request
//! ([`crate::FedRequest::Exec`]), the wire codec in `sysds-net`, the site
//! ([`crate::Site::respond`]) and the master's fan-out
//! ([`crate::FederatedMatrix::exec`]) all read the row, so a new operation
//! is one row here plus its sample in the agreement test
//! (`crates/net/tests/tcp_federation.rs`). The site checks every `Exec`
//! against its row ([`FedOp::check`]), so a row-partitioned result
//! ([`FedResult::Stays`]) never travels back.

use std::ops::RangeInclusive;
use sysds_common::{Result, SysDsError};
use sysds_tensor::kernels::{aggregate, elementwise, matmult, matvec, tsmm};
use sysds_tensor::kernels::{AggFn, BinaryOp, Direction};
use sysds_tensor::Matrix;

/// The broadcast operand the master sends along with an `Exec`.
#[derive(Debug, Clone)]
pub enum FedOperand {
    /// A matrix, e.g. `v` of `X %*% v` or the weights of a gradient.
    Matrix(Matrix),
    /// An element-wise operator with a scalar right operand.
    Scalar(BinaryOp, f64),
    /// An element-wise operator between the site variables.
    Op(BinaryOp),
}

/// Which [`FedOperand`] a row takes, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperandKind {
    None,
    Matrix,
    Scalar,
    Op,
}

impl FedOperand {
    fn kind(&self) -> OperandKind {
        match self {
            FedOperand::Matrix(_) => OperandKind::Matrix,
            FedOperand::Scalar(..) => OperandKind::Scalar,
            FedOperand::Op(_) => OperandKind::Op,
        }
    }
}

/// What a row computes, and so whether it may leave the site.
#[derive(Debug, Clone, Copy)]
pub enum FedResult {
    /// A matrix whose size depends only on column counts; the master adds
    /// the sites' matrices up in partition order.
    Aggregate,
    /// A scalar; the master adds the sites' scalars up in partition order.
    Scalar,
    /// Row-partitioned data: it stays at the site under the request's
    /// `out`, and the master wraps the results as a new federated matrix
    /// over the same row ranges. `cols` maps the first site variable's
    /// column count and the operand, which the site accepted, to the
    /// result's.
    Stays {
        cols: fn(usize, Option<&FedOperand>) -> usize,
    },
}

/// A site kernel: the site variables in request order, the operand
/// (checked against the row) and the site's thread count. Scalar rows
/// return a `1 x 1` matrix.
pub type Kernel = fn(&[&Matrix], Option<&FedOperand>, usize) -> Result<Matrix>;

/// One federated instruction: its statistics and trace opcode, its code
/// in a wire `Exec` payload, how many site variables it reads, the
/// broadcast operand it takes, what its result is and its site kernel.
pub struct FedOp {
    pub name: &'static str,
    pub code: u8,
    pub vars: RangeInclusive<usize>,
    pub operand: OperandKind,
    pub result: FedResult,
    pub kernel: Kernel,
}

impl std::fmt::Debug for FedOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name)
    }
}

impl FedOp {
    /// Check an `Exec` of this row before it runs: the number of site
    /// variables, the operand, and an `out` exactly when the result stays
    /// at the site. The site calls this for every `Exec`, so a request
    /// that would send row-partitioned data back gets an error reply.
    pub fn check(&self, vars: usize, operand: Option<&FedOperand>, out: bool) -> Result<()> {
        let got = operand.map_or(OperandKind::None, FedOperand::kind);
        let stays = matches!(self.result, FedResult::Stays { .. });
        if self.vars.contains(&vars) && got == self.operand && out == stays {
            return Ok(());
        }
        let has = |out| if out { "an `out`" } else { "no `out`" };
        Err(SysDsError::Federated(format!(
            "{} takes {:?} site variables, operand {:?} and {}; got {vars}, {got:?} and {}",
            self.name,
            self.vars,
            self.operand,
            has(stays),
            has(out)
        )))
    }
}

/// `t(X) %*% X` → `cols x cols`.
pub static TSMM: FedOp = FedOp {
    name: "fed_tsmm",
    code: 0,
    vars: 1..=1,
    operand: OperandKind::None,
    result: FedResult::Aggregate,
    kernel: |v, _, threads| Ok(tsmm::tsmm(v[0], threads, true)),
};

/// `t(X) %*% y` with both operands at the site → `cols x 1`.
pub static TMV: FedOp = FedOp {
    name: "fed_tmv",
    code: 1,
    vars: 2..=2,
    operand: OperandKind::None,
    result: FedResult::Aggregate,
    kernel: |v, _, threads| tsmm::tmv(v[0], v[1], threads),
};

/// `X %*% V` with a broadcast `V`; the result stays at the site.
pub static MATVEC: FedOp = FedOp {
    name: "fed_matvec",
    code: 2,
    vars: 1..=1,
    operand: OperandKind::Matrix,
    result: FedResult::Stays {
        cols: |_, operand| matrix(operand).map_or(0, Matrix::cols),
    },
    kernel: |v, operand, threads| matmult::matmul(v[0], matrix(operand)?, threads),
};

/// `X op s` with a broadcast scalar; the result stays at the site.
pub static SCALAR_OP: FedOp = FedOp {
    name: "fed_scalar_op",
    code: 3,
    vars: 1..=1,
    operand: OperandKind::Scalar,
    result: FedResult::Stays { cols: |x, _| x },
    kernel: |v, operand, _| match operand {
        Some(FedOperand::Scalar(op, s)) => Ok(elementwise::binary_ms(*op, v[0], *s)),
        _ => Err(operand_error("a scalar")),
    },
};

/// `X op Y` between two aligned site variables; the result stays at the
/// site.
pub static BINARY_OP: FedOp = FedOp {
    name: "fed_binary_op",
    code: 4,
    vars: 2..=2,
    operand: OperandKind::Op,
    result: FedResult::Stays { cols: |x, _| x },
    kernel: |v, operand, _| match operand {
        Some(FedOperand::Op(op)) => elementwise::binary_mm(*op, v[0], v[1]),
        _ => Err(operand_error("an operator")),
    },
};

/// Column sums → `1 x cols`.
pub static COL_SUMS: FedOp = FedOp {
    name: "fed_colsums",
    code: 5,
    vars: 1..=1,
    operand: OperandKind::None,
    result: FedResult::Aggregate,
    kernel: |v, _, _| aggregate::aggregate_axis(AggFn::Sum, Direction::Col, v[0]),
};

/// Sum of squares → scalar.
pub static SUM_SQ: FedOp = FedOp {
    name: "fed_sumsq",
    code: 6,
    vars: 1..=1,
    operand: OperandKind::None,
    result: FedResult::Scalar,
    kernel: |v, _, _| scalar(aggregate::aggregate_full(AggFn::SumSq, v[0])?),
};

/// Local row count → scalar.
pub static NROWS: FedOp = FedOp {
    name: "fed_nrows",
    code: 7,
    vars: 1..=1,
    operand: OperandKind::None,
    result: FedResult::Scalar,
    kernel: |v, _, _| scalar(v[0].rows() as f64),
};

/// `t(X) %*% (X %*% v)`, or with a second site variable `y` the squared
/// loss gradient `t(X) %*% (X %*% v - y)` → `cols x 1`
/// (`matvec::mmchain`).
pub static MMCHAIN: FedOp = FedOp {
    name: "fed_mmchain",
    code: 8,
    vars: 1..=2,
    operand: OperandKind::Matrix,
    result: FedResult::Aggregate,
    kernel: |v, operand, threads| {
        matvec::mmchain(v[0], matrix(operand)?, v.get(1).copied(), threads)
    },
};

/// Every federated instruction.
pub static OPS: [&FedOp; 9] = [
    &TSMM, &TMV, &MATVEC, &SCALAR_OP, &BINARY_OP, &COL_SUMS, &SUM_SQ, &NROWS, &MMCHAIN,
];

fn matrix(operand: Option<&FedOperand>) -> Result<&Matrix> {
    match operand {
        Some(FedOperand::Matrix(m)) => Ok(m),
        _ => Err(operand_error("a matrix")),
    }
}

fn operand_error(what: &str) -> SysDsError {
    SysDsError::Federated(format!("expected {what} operand"))
}

fn scalar(v: f64) -> Result<Matrix> {
    Ok(Matrix::filled(1, 1, v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_codes_are_unique() {
        for (i, a) in OPS.iter().enumerate() {
            for b in &OPS[i + 1..] {
                assert_ne!(a.name, b.name);
                assert_ne!(a.code, b.code, "{} and {}", a.name, b.name);
            }
        }
    }

    #[test]
    fn check_enforces_the_exchange_constraint() {
        let v = FedOperand::Matrix(Matrix::zeros(2, 1));
        assert!(MATVEC.check(1, Some(&v), true).is_ok());
        assert!(
            MATVEC.check(1, Some(&v), false).is_err(),
            "rows may not leave"
        );
        assert!(
            TSMM.check(1, None, true).is_err(),
            "an aggregate has no out"
        );
        assert!(TSMM.check(2, None, false).is_err(), "operand count");
        assert!(
            TSMM.check(1, Some(&v), false).is_err(),
            "unexpected operand"
        );
        assert!(MMCHAIN.check(2, Some(&v), false).is_ok());
        assert!(MMCHAIN.check(1, None, false).is_err(), "missing operand");
    }
}
