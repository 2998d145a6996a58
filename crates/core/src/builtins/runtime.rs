//! The operator table: one row per operator with every fact about it
//! (paper §2.3).
//!
//! Every HOP other than a literal or a variable read is one [`HopOp::Op`]
//! node that holds its [`Operator`] row and, for a family row, the member
//! ([`Param`]). CSE and block construction respect the row's effect, size
//! propagation applies its size rule, constant folding its scalar rule,
//! and the runtime runs its kernel, asks it whether the lineage cache may
//! keep the result, and tries its partial-reuse probe. A federated input
//! goes to the row's federated kernel, and a row without one rejects it
//! with one error. A new operator is a new row; no row can leave out a
//! size rule or a kernel.
//!
//! The core rows come first. The compiler builds them from DML syntax
//! (`%*%`, `t`, indexing, arithmetic, `sum`, ...) or introduces them by
//! rewrites (`tsmm`, `tmv`, `mmchain`) and fusion; no DML name resolves
//! to them, and rewrites, fusion and autodiff compare rows by identity.
//! The 41 native DML builtins follow. DML-bodied builtins are source
//! strings in the parent module.

use crate::compiler::hop::{Dim, HopDag, HopId, HopOp, SizeInfo};
use crate::lineage::{LineageCache, LineageItem};
use crate::runtime::instructions::{
    dispatch, fresh_leaf, trace_enabled, DispatchResult, ExecCtx, Slot,
};
use crate::runtime::value::Data;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use sysds_common::sync::lock;
use sysds_common::{Result, ScalarValue, SysDsError};
use sysds_fed::ops::{self as fed_ops, FedOp, FedOperand};
use sysds_fed::{FedValue, FederatedMatrix};
use sysds_frame::{TransformEncoder, TransformSpec};
use sysds_io::Format;
use sysds_tensor::kernels::fused::{self, FusedInput, FusedOutput, FusedTemplate, TemplateNode};
use sysds_tensor::kernels::{aggregate, elementwise, gen, indexing, matmult, matvec, reorg};
use sysds_tensor::kernels::{solve, tsmm, AggFn, BinaryOp, Direction, UnaryOp};
use sysds_tensor::Matrix;
use Effect::{Nondeterministic, Output, Seeded, Write};
use ParamDefault::{Bool, Required, Runtime, Str, F64, I64};
use Size::{Input, Rule, Scalar, Unknown};

/// One operator.
pub struct Operator {
    /// The opcode in lineage, `--explain` and `--stats`, and a builtin's
    /// DML name. The members of a family row name themselves.
    pub name: &'static str,
    /// Parameters in positional order, each with what an omitted argument
    /// takes. Empty for the core rows.
    pub(crate) params: Params,
    /// Whether positional arguments past the last parameter are further
    /// inputs, as in `print(a, b, ...)`.
    pub(crate) variadic: bool,
    /// `Some` for a builtin that must be the whole right-hand side of an
    /// assignment; such a statement compiles into a basic block of its own.
    pub(crate) whole_rhs: Option<Outputs>,
    /// What CSE and block construction must respect.
    pub(crate) effect: Effect,
    /// Whether the lineage cache may keep the result.
    pub(crate) reuse: bool,
    /// The output size, from the inputs' sizes and literal values.
    pub(crate) size: Size,
    /// Folds literal inputs into a literal; the kernel applies the same
    /// rule to scalar inputs.
    pub(crate) fold: Option<Fold>,
    /// Computes the output from the bound inputs.
    pub(crate) kernel: Kernel,
    /// Composes a cache miss from cached pieces when every input is a
    /// local matrix (partial reuse, paper §3.1).
    pub(crate) partial: Option<Probe>,
    /// Computes the output when an input is federated.
    pub(crate) fed: Option<Kernel>,
}

/// Which member of a family row a node is; `None` for the other rows.
#[derive(Debug, Clone, PartialEq)]
pub enum Param {
    None,
    Unary(UnaryOp),
    Binary(BinaryOp),
    Agg(AggFn, Direction),
    /// A cell-wise pipeline, optionally closed by an aggregate; the node's
    /// inputs are the template's leaves in template order.
    Fused(Arc<FusedTemplate>),
}

/// Parameter names with their defaults.
pub(crate) type Params = &'static [(&'static str, ParamDefault)];

/// Adds the nodes bound to the targets of `[targets] = call(...)`, given
/// the call's node.
pub(crate) type Outputs = fn(&mut HopDag, HopId) -> Vec<HopId>;

/// A kernel: the output and, where it is not the node's own, its lineage.
pub(crate) type Kernel = fn(&Param, &[&Slot], &ExecCtx) -> DispatchResult;

/// A scalar rule: the result of the operator on scalar inputs.
pub(crate) type Fold = fn(&Param, &[&ScalarValue]) -> Result<ScalarValue>;

/// A partial-reuse probe over the lineage of the result, the inputs and
/// the thread count.
pub(crate) type Probe =
    fn(&LineageCache, &Arc<LineageItem>, &[Arc<Matrix>], usize) -> Result<Option<Arc<Matrix>>>;

/// What a parameter takes when its argument is omitted.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ParamDefault {
    /// Nothing: the argument is required.
    Required,
    /// A value the kernel picks; the node leaves the input out. Only
    /// trailing parameters use it.
    Runtime,
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(&'static str),
}

impl ParamDefault {
    /// The constant default, if there is one.
    pub(crate) fn value(self) -> Option<ScalarValue> {
        Some(match self {
            Required | Runtime => return None,
            I64(v) => ScalarValue::I64(v),
            F64(v) => ScalarValue::F64(v),
            Bool(v) => ScalarValue::Bool(v),
            Str(v) => ScalarValue::Str(v.to_string()),
        })
    }
}

/// What CSE and block construction must respect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Effect {
    /// None: equal calls share one node.
    Pure,
    /// Deterministic for a literal seed ≥ 0 at this input; otherwise the
    /// kernel draws a fresh seed. The kernel names its result by the seed,
    /// so the cache is not probed before it runs.
    Seeded(usize),
    /// Equal inputs may give different results: calls are never shared.
    Nondeterministic,
    /// Prints or stops the program: calls are never shared.
    Output,
    /// Writes a file: calls are never shared, and each ends its basic
    /// block, so no `read` of the file merges across it.
    Write,
}

/// How an operator's output size follows from its inputs.
#[derive(Clone, Copy)]
pub(crate) enum Size {
    /// A scalar.
    Scalar,
    /// The size of input `k`.
    Input(usize),
    /// Known only once the kernel ran: it depends on the values.
    Unknown,
    /// Computed from the input nodes.
    Rule(fn(&Operands) -> SizeInfo),
}

impl Size {
    /// The output size of a node with this member and these input nodes.
    pub(crate) fn infer(self, param: &Param, dag: &HopDag, inputs: &[HopId]) -> SizeInfo {
        match self {
            Scalar => SizeInfo::scalar(),
            Input(k) => dag.node(inputs[k]).size,
            Unknown => SizeInfo::unknown(),
            Rule(rule) => rule(&Operands { dag, inputs, param }),
        }
    }
}

impl Operator {
    /// A pure operator whose result is not reused.
    const fn new(name: &'static str, params: Params, size: Size, kernel: Kernel) -> Operator {
        Operator {
            name,
            params,
            variadic: false,
            whole_rhs: None,
            effect: Effect::Pure,
            reuse: false,
            size,
            fold: None,
            kernel,
            partial: None,
            fed: None,
        }
    }

    const fn reused(self) -> Operator {
        Operator {
            reuse: true,
            ..self
        }
    }

    const fn with(self, effect: Effect) -> Operator {
        Operator { effect, ..self }
    }

    const fn variadic(self) -> Operator {
        Operator {
            variadic: true,
            ..self
        }
    }

    const fn whole_rhs(self, outputs: Outputs) -> Operator {
        Operator {
            whole_rhs: Some(outputs),
            ..self
        }
    }

    const fn folds(self, fold: Fold) -> Operator {
        Operator {
            fold: Some(fold),
            ..self
        }
    }

    const fn partial(self, probe: Probe) -> Operator {
        Operator {
            partial: Some(probe),
            ..self
        }
    }

    const fn federated(self, fed: Kernel) -> Operator {
        Operator {
            fed: Some(fed),
            ..self
        }
    }

    /// The kernel reads only its input's dimensions, which a federated
    /// matrix knows at the master.
    const fn dims_only(self) -> Operator {
        Operator {
            fed: Some(self.kernel),
            ..self
        }
    }

    /// The opcode of a node with this member.
    pub(crate) fn opcode(&self, param: &Param) -> String {
        match param {
            Param::None => self.name.to_string(),
            Param::Unary(u) => u.opcode().to_string(),
            Param::Binary(b) => b.opcode().to_string(),
            Param::Agg(f, d) => format!("ua{f:?}{d:?}").to_lowercase(),
            // The template signature keys lineage, heavy-hitter stats, and
            // the estimate-vs-actual audit, e.g. `fused:sum((X-Y)^2)`.
            Param::Fused(t) => format!("fused:{}", t.signature()),
        }
    }

    /// The one error for a federated input this row cannot take.
    pub(crate) fn rejects(&self, param: &Param) -> SysDsError {
        let opcode = self.opcode(param);
        SysDsError::Federated(format!("{opcode} does not take federated input"))
    }
}

impl PartialEq for Operator {
    fn eq(&self, other: &Operator) -> bool {
        std::ptr::eq(self, other)
    }
}

impl std::fmt::Debug for Operator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.name)
    }
}

/// The row of a runtime builtin, by DML name. Core rows have no DML name.
pub(crate) fn lookup(name: &str) -> Option<&'static Operator> {
    OPERATORS[CORE..].iter().find(|b| b.name == name)
}

pub(crate) static MATMUL: &Operator = &OPERATORS[0];
pub(crate) static TSMM: &Operator = &OPERATORS[1];
pub(crate) static TMV: &Operator = &OPERATORS[2];
pub(crate) static MMCHAIN: &Operator = &OPERATORS[3];
pub(crate) static TRANSPOSE: &Operator = &OPERATORS[4];
pub(crate) static RIGHT_INDEX: &Operator = &OPERATORS[5];
pub(crate) static LEFT_INDEX: &Operator = &OPERATORS[6];
pub(crate) static UNARY: &Operator = &OPERATORS[7];
pub(crate) static BINARY: &Operator = &OPERATORS[8];
pub(crate) static AGG: &Operator = &OPERATORS[9];
pub(crate) static FUSED: &Operator = &OPERATORS[10];
/// The number of core rows.
const CORE: usize = 11;

const X: Params = &[("x", Required)];
const AB: Params = &[("a", Required), ("b", Required)];

#[rustfmt::skip]
static OPERATORS: [Operator; 52] = [
    // Core rows. Products and transposes.
    Operator::new("ba+*", &[], Rule(|a| SizeInfo::dims(a.size(0).rows, a.size(1).cols, None)),
        |_, i, c| matrix(c, matmult::matmul(&*mat(i, 0)?, &*mat(i, 1)?, c.config.num_threads)?))
        .reused().federated(|p, i, c| match (fed(i, 0), fed(i, 1)) {
            (Some(x), None) => at_sites(c, x, &fed_ops::MATVEC, &[], operand(i, 1)?),
            _ => Err(MATMUL.rejects(p)),
        }),
    // `t(X) %*% X`.
    Operator::new("tsmm", &[], Rule(|a| SizeInfo::dims(a.size(0).cols, a.size(0).cols, None)),
        |_, i, c| matrix(c, tsmm::tsmm(&*mat(i, 0)?, c.config.num_threads, true))).reused()
        .partial(|cache, lin, x, t| cache.probe_partial_tsmm(lin, &x[0], t))
        .federated(|p, i, c| match fed(i, 0) {
            Some(x) => at_sites(c, x, &fed_ops::TSMM, &[], None),
            None => Err(TSMM.rejects(p)),
        }),
    // `t(X) %*% y` for a column vector `y`.
    Operator::new("tmv", &[], Rule(cols_by_one),
        |_, i, c| matrix(c, tsmm::tmv(&*mat(i, 0)?, &*mat(i, 1)?, c.config.num_threads)?)).reused()
        .partial(|cache, lin, x, t| cache.probe_partial_tmv(lin, &x[0], &x[1], t))
        .federated(|p, i, c| match (fed(i, 0), fed(i, 1)) {
            (Some(x), Some(y)) => at_sites(c, x, &fed_ops::TMV, &[y], None),
            _ => Err(TMV.rejects(p)),
        }),
    // `t(X) %*% (X %*% v)` over inputs `X, v`, in one pass over `X`.
    Operator::new("mmchain", &[], Rule(cols_by_one),
        |_, i, c| matrix(c, matvec::mmchain(&*mat(i, 0)?, &*mat(i, 1)?, None, c.config.num_threads)?))
        .reused().federated(|p, i, c| match (fed(i, 0), fed(i, 1)) {
            (Some(x), None) => at_sites(c, x, &fed_ops::MMCHAIN, &[], operand(i, 1)?),
            _ => Err(MMCHAIN.rejects(p)),
        }),
    Operator::new("r'", &[], Rule(|a| SizeInfo::dims(a.size(0).cols, a.size(0).rows, a.size(0).sparsity)),
        |_, i, c| matrix(c, reorg::transpose(&*mat(i, 0)?, c.config.num_threads))).reused(),
    // Indexing; inputs: target, (value,) then 1-based inclusive `rl, rh, cl, ch`.
    Operator::new("rightIndex", &[], Rule(index_size), |_, i, c| {
        let x = mat(i, 0)?;
        let (rows, cols) = ranges(&x, &i[1..])?;
        matrix(c, indexing::slice(&x, rows, cols)?)
    }),
    Operator::new("leftIndex", &[], Input(0), |_, i, c| {
        let x = mat(i, 0)?;
        let (rows, cols) = ranges(&x, &i[2..])?;
        matrix(c, indexing::assign(&x, rows, cols, &*mat(i, 1)?)?)
    }),
    // Families: the node's `Param` names the member.
    Operator::new("unary", &[], Rule(unary_size), unary).reused().folds(unary_scalar),
    Operator::new("binary", &[], Rule(binary_size), binary).reused().folds(binary_scalar)
        .federated(binary_at_sites),
    Operator::new("agg", &[], Rule(agg_size), agg).reused().federated(agg_at_sites),
    // A federated leaf replays the template op by op, through the rows
    // above and their federated kernels.
    Operator::new("fused", &[], Rule(fused_size), fused).reused().federated(fused_replay),
    // Builtins. Data generation and reshaping.
    Operator::new("rand", &[("rows", Required), ("cols", Required), ("min", F64(0.0)),
        ("max", F64(1.0)), ("sparsity", F64(1.0)), ("seed", I64(-1)), ("pdf", Str("uniform"))],
        Rule(|a| SizeInfo::dims(a.dim(0), a.dim(1), a.num(4))), rand).with(Seeded(5)).reused(),
    Operator::new("matrix", &[("data", Required), ("rows", Required), ("cols", Required)],
        Rule(|a| SizeInfo::dims(a.dim(1), a.dim(2), None)), reshape),
    Operator::new("seq", &[("from", Required), ("to", Required), ("incr", I64(1))],
        Rule(seq_size), |_, i, c| matrix(c, gen::seq(num(i, 0)?, num(i, 1)?, num(i, 2)?)?)),
    Operator::new("cbind", AB,
        Rule(|a| SizeInfo::dims(a.size(0).rows, sum(a.size(0).cols, a.size(1).cols), None)),
        |_, i, c| matrix(c, indexing::cbind(&*mat(i, 0)?, &*mat(i, 1)?)?)).reused(),
    Operator::new("rbind", AB,
        Rule(|a| SizeInfo::dims(sum(a.size(0).rows, a.size(1).rows), a.size(0).cols, None)),
        |_, i, c| matrix(c, indexing::rbind(&*mat(i, 0)?, &*mat(i, 1)?)?)).reused(),
    Operator::new("diag", X, Rule(diag_size), |_, i, c| matrix(c, reorg::diag(&*mat(i, 0)?)?)),
    Operator::new("rev", X, Input(0), |_, i, c| matrix(c, reorg::rev(&*mat(i, 0)?))),
    // A column vector by a row vector.
    Operator::new("outer", &[("a", Required), ("b", Required), ("op", Str("*"))],
        Rule(|a| SizeInfo::dims(a.size(0).rows, a.size(1).cols, None)), outer),
    Operator::new("table", AB, Unknown,
        |_, i, c| matrix(c, gen::table(&*mat(i, 0)?, &*mat(i, 1)?)?)),
    Operator::new("order", &[("target", Required), ("by", I64(1)), ("decreasing", Bool(false)),
        ("index.return", Bool(false))], Rule(order_size), order),
    Operator::new("removeEmpty", &[("target", Required), ("margin", Str("rows"))], Unknown,
        remove_empty),
    Operator::new("replace", &[("target", Required), ("pattern", Required),
        ("replacement", Required)], Input(0),
        |_, i, c| matrix(c, indexing::replace(&*mat(i, 0)?, num(i, 1)?, num(i, 2)?))),
    Operator::new("ifelse", &[("test", Required), ("yes", Required), ("no", Required)],
        Rule(ifelse_size), ifelse),
    // Linear algebra.
    Operator::new("solve", AB, Rule(|a| SizeInfo::dims(a.size(0).cols, a.size(1).cols, Some(1.0))),
        |_, i, c| matrix(c, solve::solve(&*mat(i, 0)?, &*mat(i, 1)?)?)).reused(),
    Operator::new("inv", X, Input(0), |_, i, c| matrix(c, solve::inverse(&*mat(i, 0)?)?)).reused(),
    Operator::new("cholesky", X, Input(0),
        |_, i, c| matrix(c, solve::cholesky(&*mat(i, 0)?)?)).reused(),
    Operator::new("det", X, Scalar, |_, i, _| number(solve::det(&*mat(i, 0)?)?)),
    // `cbind(values, vectors)` of an n x n matrix: n x (n + 1).
    Operator::new("eigen", &[("target", Required)],
        Rule(|a| SizeInfo::dims(a.size(0).rows, sum(a.size(0).rows, Dim::Known(1)), Some(1.0))),
        |_, i, c| {
            let (values, vectors) = solve::eigen_symmetric(&*mat(i, 0)?)?;
            matrix(c, indexing::cbind(&values, &vectors)?)
        }).whole_rhs(eigen_outputs),
    // Aggregates and shape.
    Operator::new("trace", X, Scalar, |_, i, _| number(aggregate::trace(&*mat(i, 0)?)?)),
    Operator::new("nrow", X, Scalar, |_, i, _| count(dims(&i[0].data)?.0)).dims_only(),
    Operator::new("ncol", X, Scalar, |_, i, _| count(dims(&i[0].data)?.1)).dims_only(),
    Operator::new("length", X, Scalar,
        |_, i, _| count(dims(&i[0].data).map(|(r, c)| r * c)?)).dims_only(),
    Operator::new("nnz", X, Scalar, |_, i, _| count(mat(i, 0)?.nnz())),
    Operator::new("cumsum", X, Input(0), |_, i, c| matrix(c, aggregate::cumsum(&*mat(i, 0)?))),
    Operator::new("cumprod", X, Input(0), |_, i, c| matrix(c, aggregate::cumprod(&*mat(i, 0)?))),
    Operator::new("rowIndexMax", X,
        Rule(|a| SizeInfo::dims(a.size(0).rows, Dim::Known(1), Some(1.0))),
        |_, i, c| matrix(c, aggregate::row_index_max(&*mat(i, 0)?))),
    Operator::new("quantile", &[("x", Required), ("p", Required)],
        Rule(|a| if a.size(1).scalar { SizeInfo::scalar() } else { SizeInfo::unknown() }),
        |_, i, _| number(aggregate::quantile(&*mat(i, 0)?, num(i, 1)?)?)),
    Operator::new("median", X, Scalar, |_, i, _| number(aggregate::median(&*mat(i, 0)?)?)),
    // Casts.
    Operator::new("as.scalar", X, Scalar, |_, i, _| scalar(i[0].data.as_scalar()?)),
    Operator::new("as.matrix", X,
        Rule(|a| if a.size(0).scalar { SizeInfo::matrix(1, 1, Some(1.0)) } else { a.size(0) }),
        |_, i, c| matrix(c, (*mat(i, 0)?).clone())),
    Operator::new("as.integer", X, Scalar,
        |_, i, _| scalar(ScalarValue::I64(i[0].data.as_i64()?))),
    Operator::new("as.double", X, Scalar, |_, i, _| number(num(i, 0)?)),
    Operator::new("as.logical", X, Scalar,
        |_, i, _| scalar(ScalarValue::Bool(i[0].data.as_bool()?))),
    Operator::new("toString", X, Scalar, to_string),
    // Effects and I/O.
    Operator::new("print", X, Scalar, print).with(Output).variadic(),
    Operator::new("stop", X, Scalar, |_, i, _| Err(SysDsError::Stop(text(i, 0)?))).with(Output),
    Operator::new("read", &[("file", Required), ("format", Str("csv")),
        ("data_type", Str("matrix")), ("header", Bool(false))], Rule(read_size), read),
    Operator::new("write", &[("x", Required), ("file", Required), ("format", Str("csv"))],
        Scalar, write).with(Write),
    // Data preparation and training.
    Operator::new("transformencode", &[("target", Required), ("spec", Required)], Unknown,
        transform_encode).whole_rhs(encode_outputs),
    Operator::new("transformapply", &[("target", Required), ("meta", Required)], Unknown,
        transform_apply).whole_rhs(one_output),
    // The weights of a linear model over X: ncol(X) x 1.
    Operator::new("paramserv", &[("X", Required), ("y", Required), ("epochs", I64(20)),
        ("batchsize", I64(32)), ("lr", F64(0.1)), ("mode", Str("BSP")), ("workers", Runtime)],
        Rule(|a| SizeInfo::dims(a.size(0).cols, Dim::Known(1), None)), paramserv)
        .with(Nondeterministic).whole_rhs(one_output),
];

// ---- scalar rules ------------------------------------------------------

/// Integers and booleans, as integer operands.
fn integer(v: &ScalarValue) -> Option<i64> {
    match v {
        ScalarValue::I64(i) => Some(*i),
        ScalarValue::Bool(b) => Some(i64::from(*b)),
        _ => None,
    }
}

/// A binary operator on scalars: `+` with a string operand concatenates,
/// comparisons and `&`/`|` give a boolean, and `+ - * %/% %% min max` of
/// two integer operands give an integer when the exact result fits in
/// `i64`. Everything else, `/` and `^` always, gives a double.
fn binary_scalar(p: &Param, v: &[&ScalarValue]) -> Result<ScalarValue> {
    use BinaryOp::*;
    let (Param::Binary(op), &[l, r]) = (p, v) else {
        unreachable!("a binary rule takes a binary member and two operands")
    };
    if *op == Add && (matches!(l, ScalarValue::Str(_)) || matches!(r, ScalarValue::Str(_))) {
        let cat = format!("{}{}", l.to_display_string(), r.to_display_string());
        return Ok(ScalarValue::Str(cat));
    }
    let value = op.apply(l.as_f64()?, r.as_f64()?);
    let exact = |a: i64, b: i64| match op {
        Add => a.checked_add(b),
        Sub => a.checked_sub(b),
        Mul => a.checked_mul(b),
        Min => Some(a.min(b)),
        Max => Some(a.max(b)),
        // Floor division, and a remainder with the sign of the divisor.
        IntDiv => a
            .checked_div(b)
            .map(|q| q - i64::from(a % b != 0 && (a < 0) != (b < 0))),
        Mod => (b != 0)
            .then(|| a.wrapping_rem(b))
            .map(|m| m + b * i64::from(m != 0 && (m < 0) != (b < 0))),
        _ => None,
    };
    Ok(match op {
        Eq | Neq | Lt | Le | Gt | Ge | And | Or => ScalarValue::Bool(value != 0.0),
        _ => match integer(l).zip(integer(r)).and_then(|(a, b)| exact(a, b)) {
            Some(i) => ScalarValue::I64(i),
            None => ScalarValue::F64(value),
        },
    })
}

/// A unary operator on a scalar: `!` gives a boolean, negation of an
/// integer stays an integer unless it overflows, and the rest give a
/// double.
fn unary_scalar(p: &Param, v: &[&ScalarValue]) -> Result<ScalarValue> {
    let (Param::Unary(op), &[x]) = (p, v) else {
        unreachable!("a unary rule takes a unary member and one operand")
    };
    Ok(match (op, x) {
        (UnaryOp::Not, _) => ScalarValue::Bool(!x.as_bool()?),
        (UnaryOp::Neg, ScalarValue::I64(i)) if *i != i64::MIN => ScalarValue::I64(-i),
        _ => ScalarValue::F64(op.apply(x.as_f64()?)),
    })
}

// ---- core kernels ------------------------------------------------------

fn unary(p: &Param, i: &[&Slot], c: &ExecCtx) -> DispatchResult {
    let Param::Unary(op) = p else { unreachable!() };
    match &i[0].data {
        Data::Scalar(x) => scalar(unary_scalar(p, &[x])?),
        _ => matrix(
            c,
            elementwise::unary_mt(*op, &*mat(i, 0)?, c.config.num_threads),
        ),
    }
}

fn binary(p: &Param, i: &[&Slot], c: &ExecCtx) -> DispatchResult {
    let Param::Binary(op) = p else { unreachable!() };
    let t = c.config.num_threads;
    let out = match (&i[0].data, &i[1].data) {
        (Data::Scalar(l), Data::Scalar(r)) => return scalar(binary_scalar(p, &[l, r])?),
        (Data::Scalar(l), r) => elementwise::binary_sm_mt(*op, l.as_f64()?, &*r.as_matrix()?, t),
        (l, Data::Scalar(r)) => elementwise::binary_ms_mt(*op, &*l.as_matrix()?, r.as_f64()?, t),
        (l, r) => elementwise::binary_mm_mt(*op, &*l.as_matrix()?, &*r.as_matrix()?, t)?,
    };
    matrix(c, out)
}

fn agg(p: &Param, i: &[&Slot], c: &ExecCtx) -> DispatchResult {
    let Param::Agg(f, d) = p else { unreachable!() };
    let (x, threads) = (mat(i, 0)?, c.config.num_threads);
    match d {
        Direction::Full => number(aggregate::aggregate_full_mt(*f, &x, threads)?),
        _ => matrix(c, aggregate::aggregate_axis_mt(*f, *d, &x, threads)?),
    }
}

/// The one-pass kernel when every operand is a local matrix (of one common
/// shape) or a numeric scalar; otherwise the template replays op by op
/// (frame operands, shape drift after a stale plan).
fn fused(p: &Param, inputs: &[&Slot], ctx: &ExecCtx) -> DispatchResult {
    let Param::Fused(t) = p else { unreachable!() };
    let mut operands = Vec::with_capacity(inputs.len());
    for s in inputs {
        operands.push(match &s.data {
            Data::Matrix(h) => (Some(h.acquire()?), 0.0),
            Data::Scalar(v) if v.as_f64().is_ok() => (None, v.as_f64()?),
            _ => return fused_replay(p, inputs, ctx),
        });
    }
    let mut shapes = operands
        .iter()
        .filter_map(|(m, _)| Some(m.as_ref()?.shape()));
    let Some((m, n)) = shapes.next().filter(|&first| shapes.all(|s| s == first)) else {
        // All-scalar at runtime, or shapes that drifted after a stale plan.
        return fused_replay(p, inputs, ctx);
    };
    let fused_inputs: Vec<FusedInput> = operands
        .iter()
        .map(|(m, x)| {
            m.as_deref()
                .map_or(FusedInput::Scalar(*x), FusedInput::Matrix)
        })
        .collect();
    let out = fused::eval(t, &fused_inputs, ctx.config.num_threads)?;
    let saved = t.saved_intermediates * m * n * std::mem::size_of::<f64>();
    sysds_obs::count(|c| &c.fusion_hits, 1);
    sysds_obs::count(|c| &c.fusion_bytes_saved, saved as u64);
    match out {
        FusedOutput::Scalar(v) => number(v),
        FusedOutput::Matrix(out) => matrix(ctx, out),
    }
}

/// Replay a fused template node by node through the rows it fused, so the
/// result is that of the unfused plan (broadcasts and federated inputs
/// included); counts no fusion hit.
fn fused_replay(p: &Param, inputs: &[&Slot], ctx: &ExecCtx) -> DispatchResult {
    let Param::Fused(t) = p else { unreachable!() };
    t.validate()?;
    let mut slots: Vec<Slot> = Vec::with_capacity(t.nodes.len());
    for node in &t.nodes {
        let data = match node {
            TemplateNode::Input(k) => inputs[*k].data.clone(),
            TemplateNode::Const(c) => Data::from_f64(*c),
            TemplateNode::Unary(u, a) => dispatch(UNARY, &Param::Unary(*u), &[&slots[*a]], ctx)?.0,
            TemplateNode::Binary(b, a, c) => {
                let operands = [&slots[*a], &slots[*c]];
                dispatch(BINARY, &Param::Binary(*b), &operands, ctx)?.0
            }
        };
        slots.push(Slot {
            data,
            lineage: None,
        });
    }
    let root = &slots[t.root];
    match t.agg {
        Some((f, d)) => dispatch(AGG, &Param::Agg(f, d), &[root], ctx),
        None => Ok((root.data.clone(), None)),
    }
}

/// 0-based ranges from the 1-based inclusive bounds `rl, rh, cl, ch`.
fn ranges(x: &Matrix, bounds: &[&Slot]) -> Result<(Range<usize>, Range<usize>)> {
    let range = |k: usize, n: usize, what: &str| -> Result<Range<usize>> {
        let (lo, hi) = (bounds[k].data.as_i64()?, bounds[k + 1].data.as_i64()?);
        if lo < 1 || hi < lo || hi as usize > n {
            return Err(SysDsError::IndexOutOfBounds {
                msg: format!("{what} range [{lo}:{hi}] of {n}"),
            });
        }
        Ok((lo as usize - 1)..(hi as usize))
    };
    Ok((range(0, x.rows(), "row")?, range(2, x.cols(), "column")?))
}

// ---- federated kernels -------------------------------------------------

/// Input `k`, if it is federated.
fn fed<'a>(i: &[&'a Slot], k: usize) -> Option<&'a FederatedMatrix> {
    match &i[k].data {
        Data::Federated(f) => Some(&**f),
        _ => None,
    }
}

/// Input `k`, a local matrix, as the operand every site receives.
fn operand(i: &[&Slot], k: usize) -> Result<Option<FedOperand>> {
    Ok(Some(FedOperand::Matrix((*mat(i, k)?).clone())))
}

/// Runs `op` at the sites of `x` (with the aligned `with`): partial
/// results come back added up, and a result that stays at the sites is a
/// new federated matrix.
fn at_sites(
    c: &ExecCtx,
    x: &FederatedMatrix,
    op: &'static FedOp,
    with: &[&FederatedMatrix],
    operand: Option<FedOperand>,
) -> DispatchResult {
    match x.exec(op, with, operand)? {
        FedValue::Aggregate(m) => matrix(c, m),
        FedValue::Scalar(v) => number(v),
        FedValue::Federated(f) => Ok((Data::Federated(Arc::new(f)), None)),
    }
}

/// A federated matrix with a scalar or with a federated matrix over the
/// same row ranges: the result stays at the sites.
fn binary_at_sites(p: &Param, i: &[&Slot], c: &ExecCtx) -> DispatchResult {
    let Param::Binary(op) = p else { unreachable!() };
    match (fed(i, 0), &i[1].data) {
        (Some(x), Data::Scalar(s)) => {
            let s = FedOperand::Scalar(*op, s.as_f64()?);
            at_sites(c, x, &fed_ops::SCALAR_OP, &[], Some(s))
        }
        (Some(x), Data::Federated(y)) => at_sites(
            c,
            x,
            &fed_ops::BINARY_OP,
            &[&**y],
            Some(FedOperand::Op(*op)),
        ),
        _ => Err(BINARY.rejects(p)),
    }
}

/// `colSums`, `sum`, `mean` and `sumSq` of a federated matrix, from the
/// sites' column sums or sums of squares.
fn agg_at_sites(p: &Param, i: &[&Slot], c: &ExecCtx) -> DispatchResult {
    let (Param::Agg(f, d), Some(x)) = (p, fed(i, 0)) else {
        return Err(AGG.rejects(p));
    };
    let col_sums = || x.exec(&fed_ops::COL_SUMS, &[], None)?.into_matrix();
    let total = || aggregate::aggregate_full(AggFn::Sum, &col_sums()?);
    match (f, d) {
        (AggFn::Sum, Direction::Col) => matrix(c, col_sums()?),
        (AggFn::Sum, Direction::Full) => number(total()?),
        (AggFn::Mean, Direction::Full) => number(total()? / (x.rows() * x.cols()) as f64),
        (AggFn::SumSq, Direction::Full) => at_sites(c, x, &fed_ops::SUM_SQ, &[], None),
        _ => Err(AGG.rejects(p)),
    }
}

// ---- outputs of whole-right-hand-side builtins ------------------------

fn one_output(_: &mut HopDag, call: HopId) -> Vec<HopId> {
    vec![call]
}

/// `[X, M] = transformencode(F, spec)`: fit the metadata frame `M` once
/// and apply it, `X = transformapply(F, M)`.
fn encode_outputs(dag: &mut HopDag, meta: HopId) -> Vec<HopId> {
    let apply = lookup("transformapply").expect("transformapply is a row");
    let frame = dag.node(meta).inputs[0];
    vec![dag.add(HopOp::op(apply), vec![frame, meta]), meta]
}

/// `[values, vectors] = eigen(A)`: decompose once into `cbind(values,
/// vectors)` and split that by two right indexes.
fn eigen_outputs(dag: &mut HopDag, e: HopId) -> Vec<HopId> {
    let dim = |name| HopOp::op(lookup(name).expect("nrow and ncol are rows"));
    let one = dag.lit(ScalarValue::I64(1));
    let two = dag.lit(ScalarValue::I64(2));
    let n = dag.add(dim("nrow"), vec![e]);
    let n1 = dag.add(dim("ncol"), vec![e]);
    let values = dag.add(HopOp::op(RIGHT_INDEX), vec![e, one, n, one, one]);
    let vectors = dag.add(HopOp::op(RIGHT_INDEX), vec![e, one, n, two, n1]);
    vec![values, vectors]
}

// ---- size rules --------------------------------------------------------

/// The member and input nodes of a node, as a size rule sees them.
pub(crate) struct Operands<'a> {
    dag: &'a HopDag,
    inputs: &'a [HopId],
    param: &'a Param,
}

impl Operands<'_> {
    fn size(&self, k: usize) -> SizeInfo {
        self.dag.node(self.inputs[k]).size
    }

    fn lit(&self, k: usize) -> Option<&ScalarValue> {
        self.dag.as_lit(self.inputs[k])
    }

    fn num(&self, k: usize) -> Option<f64> {
        self.lit(k)?.as_f64().ok()
    }

    /// A literal input ≥ 0 as a dimension.
    fn dim(&self, k: usize) -> Dim {
        match self.lit(k) {
            Some(ScalarValue::I64(v)) if *v >= 0 => Dim::Known(*v as usize),
            Some(ScalarValue::F64(v)) if *v >= 0.0 => Dim::Known(*v as usize),
            _ => Dim::Unknown,
        }
    }
}

fn sum(a: Dim, b: Dim) -> Dim {
    match (a, b) {
        (Dim::Known(a), Dim::Known(b)) => Dim::Known(a + b),
        _ => Dim::Unknown,
    }
}

fn cols_by_one(a: &Operands) -> SizeInfo {
    SizeInfo::dims(a.size(0).cols, Dim::Known(1), None)
}

/// Rows and columns from literal bounds.
fn index_size(a: &Operands) -> SizeInfo {
    let span = |lo: usize| match (a.dim(lo), a.dim(lo + 1)) {
        (Dim::Known(l), Dim::Known(h)) if h >= l => Dim::Known(h - l + 1),
        _ => Dim::Unknown,
    };
    SizeInfo::dims(span(1), span(3), a.size(0).sparsity)
}

fn unary_size(a: &Operands) -> SizeInfo {
    let (Param::Unary(op), s) = (a.param, a.size(0)) else {
        unreachable!()
    };
    let sparsity = if op.zero_preserving() {
        s.sparsity
    } else {
        Some(1.0)
    };
    SizeInfo { sparsity, ..s }
}

/// Scalar op scalar stays scalar; otherwise the matrix side gives the
/// shape.
fn binary_size(a: &Operands) -> SizeInfo {
    let (Param::Binary(op), l, r) = (a.param, a.size(0), a.size(1)) else {
        unreachable!()
    };
    if l.scalar && r.scalar {
        return SizeInfo::scalar();
    }
    let sparsity = if op.zero_preserving_left() || op.zero_preserving_right() {
        // worst case: min of the operand sparsities
        match (l.sparsity, r.sparsity) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (x, y) => x.or(y),
        }
    } else {
        Some(1.0)
    };
    let shape = if l.scalar { r } else { l };
    SizeInfo {
        sparsity,
        scalar: false,
        ..shape
    }
}

fn agg_size(a: &Operands) -> SizeInfo {
    let Param::Agg(_, d) = a.param else {
        unreachable!()
    };
    aggregated(a.size(0), *d)
}

/// The cell-wise body has the shape of its first matrix leaf; an
/// aggregate root reshapes it like `agg`.
fn fused_size(a: &Operands) -> SizeInfo {
    let Param::Fused(t) = a.param else {
        unreachable!()
    };
    let mut leaves = (0..a.inputs.len()).map(|k| a.size(k));
    let base = leaves.find(|s| !s.scalar).unwrap_or_else(SizeInfo::unknown);
    match t.agg {
        None => SizeInfo {
            sparsity: None,
            scalar: false,
            ..base
        },
        Some((_, d)) => aggregated(base, d),
    }
}

/// The size of an aggregate over `s` in direction `d`.
fn aggregated(s: SizeInfo, d: Direction) -> SizeInfo {
    match d {
        Direction::Full => SizeInfo::scalar(),
        Direction::Row => SizeInfo::dims(s.rows, Dim::Known(1), Some(1.0)),
        Direction::Col => SizeInfo::dims(Dim::Known(1), s.cols, Some(1.0)),
    }
}

fn seq_size(a: &Operands) -> SizeInfo {
    let rows = match (a.num(0), a.num(1), a.num(2)) {
        (Some(from), Some(to), Some(by)) => gen::seq_len(from, to, by).ok(),
        _ => None,
    };
    SizeInfo::dims(
        rows.map_or(Dim::Unknown, Dim::Known),
        Dim::Known(1),
        Some(1.0),
    )
}

fn diag_size(a: &Operands) -> SizeInfo {
    let s = a.size(0);
    match (s.rows.value(), s.cols.value()) {
        (Some(n), Some(1)) => SizeInfo::matrix(n, n, Some(1.0 / n.max(1) as f64)),
        (_, Some(c)) if c != 1 => SizeInfo::dims(s.rows, Dim::Known(1), Some(1.0)),
        _ => SizeInfo::unknown(),
    }
}

/// Sorted rows, or with `index.return=TRUE` the `nrow x 1` permutation.
fn order_size(a: &Operands) -> SizeInfo {
    let s = a.size(0);
    match a.lit(3).map(ScalarValue::as_bool) {
        Some(Ok(false)) => s,
        Some(Ok(true)) => SizeInfo::dims(s.rows, Dim::Known(1), Some(1.0)),
        _ => SizeInfo::dims(s.rows, Dim::Unknown, None),
    }
}

/// The shape of the first operand that is not a scalar; scalar if none.
fn ifelse_size(a: &Operands) -> SizeInfo {
    match (0..3).map(|k| a.size(k)).find(|s| !s.scalar) {
        Some(s) => SizeInfo::dims(s.rows, s.cols, None),
        None => SizeInfo::scalar(),
    }
}

/// From the `.mtd` sidecar when the path is a literal.
fn read_size(a: &Operands) -> SizeInfo {
    match a.lit(0) {
        Some(ScalarValue::Str(path)) => match sysds_io::Metadata::load(path) {
            Ok(Some(meta)) => SizeInfo::matrix(meta.rows, meta.cols, Some(meta.sparsity())),
            _ => SizeInfo::unknown(),
        },
        _ => SizeInfo::unknown(),
    }
}

// ---- kernels -----------------------------------------------------------

static SEED_COUNTER: AtomicU64 = AtomicU64::new(0x5D5_0001);

fn mat(inputs: &[&Slot], k: usize) -> Result<Arc<Matrix>> {
    inputs[k].data.as_matrix()
}

fn num(inputs: &[&Slot], k: usize) -> Result<f64> {
    inputs[k].data.as_f64()
}

fn text(inputs: &[&Slot], k: usize) -> Result<String> {
    Ok(inputs[k].data.as_scalar()?.to_display_string())
}

fn matrix(ctx: &ExecCtx, m: Matrix) -> DispatchResult {
    Ok((ctx.wrap_matrix(m)?, None))
}

fn scalar(v: ScalarValue) -> DispatchResult {
    Ok((Data::Scalar(v), None))
}

fn number(v: f64) -> DispatchResult {
    scalar(ScalarValue::F64(v))
}

fn count(n: usize) -> DispatchResult {
    scalar(ScalarValue::I64(n as i64))
}

fn dims(d: &Data) -> Result<(usize, usize)> {
    let s = d.size_info();
    let dims = s.rows.value().zip(s.cols.value());
    dims.ok_or_else(|| SysDsError::runtime(format!("nrow/ncol of {} value", d.kind())))
}

/// A seed < 0 draws a fresh one, recorded in the lineage (paper §3.1).
/// `pdf="normal"` is standard normal, ignoring `min`/`max` like SystemDS.
fn rand(_: &Param, i: &[&Slot], ctx: &ExecCtx) -> DispatchResult {
    let (rows, cols) = (i[0].data.as_i64()? as usize, i[1].data.as_i64()? as usize);
    let (min, max, sparsity) = (num(i, 2)?, num(i, 3)?, num(i, 4)?);
    let mut seed = i[5].data.as_i64()?;
    let pdf = text(i, 6)?;
    if seed < 0 {
        seed = SEED_COUNTER.fetch_add(1, Ordering::Relaxed) as i64;
    }
    let m = match pdf.as_str() {
        "normal" => gen::rand_normal(rows, cols, sparsity, seed as u64),
        _ => gen::rand_uniform(rows, cols, min, max, sparsity, seed as u64),
    };
    let lin = trace_enabled(ctx).then(|| {
        LineageItem::leaf(format!(
            "rand:{rows}:{cols}:{min}:{max}:{sparsity}:{seed}:{pdf}"
        ))
    });
    Ok((ctx.wrap_matrix(m)?, lin))
}

fn reshape(_: &Param, i: &[&Slot], ctx: &ExecCtx) -> DispatchResult {
    let (rows, cols) = (i[1].data.as_i64()? as usize, i[2].data.as_i64()? as usize);
    matrix(
        ctx,
        match &i[0].data {
            Data::Scalar(s) => Matrix::filled(rows, cols, s.as_f64()?),
            d => reorg::reshape(&*d.as_matrix()?, rows, cols)?,
        },
    )
}

fn outer(_: &Param, i: &[&Slot], ctx: &ExecCtx) -> DispatchResult {
    use BinaryOp::*;
    let name = text(i, 2)?;
    let op = [Add, Sub, Mul, Div, Lt, Le, Gt, Ge, Eq, Neq, Min, Max]
        .into_iter()
        .find(|op| op.opcode() == name)
        .ok_or_else(|| SysDsError::runtime(format!("outer: unknown op '{name}'")))?;
    matrix(ctx, gen::outer(&*mat(i, 0)?, &*mat(i, 1)?, op)?)
}

fn order(_: &Param, i: &[&Slot], ctx: &ExecCtx) -> DispatchResult {
    let x = mat(i, 0)?;
    let by = i[1].data.as_i64()?;
    if by < 1 || by as usize > x.cols() {
        return Err(SysDsError::IndexOutOfBounds {
            msg: format!("order by column {by}"),
        });
    }
    let (decreasing, index) = (i[2].data.as_bool()?, i[3].data.as_bool()?);
    matrix(ctx, reorg::order(&x, by as usize - 1, decreasing, index)?)
}

fn remove_empty(_: &Param, i: &[&Slot], ctx: &ExecCtx) -> DispatchResult {
    let by_rows = match text(i, 1)?.as_str() {
        "rows" => true,
        "cols" => false,
        other => return Err(SysDsError::runtime(format!("removeEmpty margin '{other}'"))),
    };
    matrix(ctx, indexing::remove_empty(&*mat(i, 0)?, by_rows))
}

/// A scalar test picks a whole branch, with its lineage, when both
/// branches are scalars or neither is; otherwise the operands combine cell
/// by cell, a scalar standing for every cell.
fn ifelse(_: &Param, i: &[&Slot], ctx: &ExecCtx) -> DispatchResult {
    let is_scalar = |k: usize| matches!(i[k].data, Data::Scalar(_));
    if let Data::Scalar(test) = &i[0].data {
        if is_scalar(1) == is_scalar(2) {
            let pick = if test.as_bool()? { i[1] } else { i[2] };
            return Ok((pick.data.clone(), pick.lineage.clone()));
        }
    }
    matrix(
        ctx,
        elementwise::ifelse(&*mat(i, 0)?, &*mat(i, 1)?, &*mat(i, 2)?)?,
    )
}

fn to_string(_: &Param, i: &[&Slot], _: &ExecCtx) -> DispatchResult {
    let s = match &i[0].data {
        Data::Scalar(s) => s.to_display_string(),
        Data::Matrix(h) => format!("{}", h.acquire()?),
        Data::Frame(f) => format!("frame({}x{})", f.rows(), f.cols()),
        Data::Federated(f) => format!("federated({}x{})", f.rows(), f.cols()),
        Data::Empty => "empty".into(),
    };
    scalar(ScalarValue::Str(s))
}

/// Prints its inputs on one line, separated by single spaces.
fn print(_: &Param, i: &[&Slot], ctx: &ExecCtx) -> DispatchResult {
    let parts = i.iter().map(|slot| {
        Ok(match &slot.data {
            Data::Scalar(s) => s.to_display_string(),
            Data::Matrix(h) => format!("{}", h.acquire()?),
            other => format!("<{}>", other.kind()),
        })
    });
    ctx.print(parts.collect::<Result<Vec<_>>>()?.join(" "));
    Ok((Data::Empty, Some(LineageItem::leaf("print"))))
}

fn read(_: &Param, i: &[&Slot], ctx: &ExecCtx) -> DispatchResult {
    let path = text(i, 0)?;
    let format = Format::parse(&text(i, 1)?)?;
    let data_type = text(i, 2)?;
    let header = i[3].data.as_bool()?;
    // The leaf names what was read, and which write of the path.
    let lin = trace_enabled(ctx).then(|| {
        let (name, gen) = (format.name(), ctx.file_gen(&path));
        LineageItem::leaf(format!("read:{name}:{header}:{path}#{gen}"))
    });
    let out = if data_type == "frame" {
        Data::Frame(Arc::new(format.read_frame(&path, header)?.detect_schema()))
    } else {
        ctx.wrap_matrix(format.read_matrix(&path, header, ctx.config.num_threads)?)?
    };
    Ok((out, lin))
}

fn write(_: &Param, i: &[&Slot], ctx: &ExecCtx) -> DispatchResult {
    let path = text(i, 1)?;
    let format = Format::parse(&text(i, 2)?)?;
    match &i[0].data {
        Data::Frame(f) => format.write_frame(&path, f)?,
        d => format.write_matrix(&path, &*d.as_matrix()?)?,
    }
    *lock(&ctx.file_gens).entry(path.clone()).or_default() += 1;
    Ok((
        Data::Empty,
        Some(LineageItem::leaf(format!("write:{path}"))),
    ))
}

fn transform_encode(_: &Param, i: &[&Slot], _: &ExecCtx) -> DispatchResult {
    let spec = parse_transform_spec(&text(i, 1)?)?;
    let encoder = TransformEncoder::fit(&*i[0].data.as_frame()?, &spec)?;
    Ok((Data::Frame(Arc::new(encoder.to_metadata())), None))
}

fn transform_apply(_: &Param, i: &[&Slot], ctx: &ExecCtx) -> DispatchResult {
    let encoder = TransformEncoder::from_metadata(&*i[1].data.as_frame()?)?;
    matrix(ctx, encoder.apply(&*i[0].data.as_frame()?)?)
}

/// Parse a compact transform spec: `"recode=city,zip dummy=level bin=age:5"`.
fn parse_transform_spec(spec: &str) -> Result<TransformSpec> {
    let mut out = TransformSpec::new();
    for part in spec.split_whitespace() {
        let (kind, cols) = part
            .split_once('=')
            .ok_or_else(|| SysDsError::runtime(format!("malformed transform spec '{part}'")))?;
        for col in cols.split(',') {
            out = match kind {
                "recode" => out.recode(col),
                "dummy" | "dummycode" => out.dummy_code(col),
                "bin" => {
                    let (name, bins) = col.split_once(':').ok_or_else(|| {
                        SysDsError::runtime("bin spec needs 'column:bins'".to_string())
                    })?;
                    let bins: usize = bins
                        .parse()
                        .map_err(|_| SysDsError::runtime(format!("bad bin count '{bins}'")))?;
                    out.bin(name, bins)
                }
                other => {
                    return Err(SysDsError::runtime(format!(
                        "unknown transform kind '{other}'"
                    )))
                }
            };
        }
    }
    Ok(out)
}

/// The `paramserv` builtin (paper §2.3 (4)): mini-batch training with a
/// local parameter server. `w = paramserv(X=X, y=y, epochs=20,
/// batchsize=32, lr=0.1, mode="BSP", workers=4)`; the defaults are the
/// values shown, except that an omitted `workers` (no seventh input) is the
/// engine's thread count. `epochs`, `batchsize` and `workers` must be at
/// least 1. ASP results depend on thread timing, so the output gets a
/// lineage leaf of its own.
fn paramserv(_: &Param, inputs: &[&Slot], ctx: &ExecCtx) -> DispatchResult {
    use crate::runtime::paramserver::{train_linreg, PsConfig, UpdateMode};
    let at_least_one = |k: usize, name: &str| -> Result<usize> {
        let v = num(inputs, k)?;
        if v >= 1.0 {
            Ok(v as usize)
        } else {
            Err(SysDsError::runtime(format!(
                "paramserv {name} must be at least 1, got {v}"
            )))
        }
    };
    let epochs = at_least_one(2, "epochs")?;
    let batch_size = at_least_one(3, "batchsize")?;
    let learning_rate = num(inputs, 4)?;
    let mode = match text(inputs, 5)?.as_str() {
        "BSP" | "bsp" => UpdateMode::Bsp,
        "ASP" | "asp" => UpdateMode::Asp,
        other => return Err(SysDsError::runtime(format!("paramserv mode '{other}'"))),
    };
    let workers = match inputs.len() {
        7 => at_least_one(6, "workers")?,
        _ => ctx.config.num_threads,
    };
    let config = PsConfig {
        workers,
        epochs,
        batch_size,
        learning_rate,
        mode,
    };
    let w = train_linreg(&*mat(inputs, 0)?, &*mat(inputs, 1)?, &config)?;
    let lineage = trace_enabled(ctx).then(|| fresh_leaf("paramserv"));
    Ok((ctx.wrap_matrix(w)?, lineage))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::hop::{Hop, HopOp};
    use crate::compiler::lower::{lower, Instr};
    use crate::compiler::size::propagate;
    use crate::compiler::{compile_program, Block};
    use crate::parser::parse_program;
    use crate::runtime::instructions::execute;
    use crate::runtime::value::SymbolTable;
    use sysds_common::EngineConfig;
    use sysds_fed::{Transport, WorkerHandle};
    use sysds_frame::{Frame, FrameColumn};

    /// One call per builtin row on the inputs of [`sample_inputs`]; `DIR`
    /// is a directory of the call's own.
    const SAMPLES: &[(&str, &str)] = &[
        ("rand", "Z = rand(rows=3, cols=4, seed=1)"),
        ("matrix", "Z = matrix(X, rows=9, cols=2)"),
        ("seq", "Z = seq(1.5, 6, 2)"),
        ("cbind", "Z = cbind(X, y)"),
        ("rbind", "Z = rbind(X, Y)"),
        ("diag", "Z = diag(y)"),
        ("rev", "Z = rev(X)"),
        ("outer", r#"Z = outer(u, v, "+")"#),
        ("table", "Z = table(c, d)"),
        ("order", "Z = order(target=X, by=2, index.return=TRUE)"),
        ("removeEmpty", r#"Z = removeEmpty(target=X, margin="cols")"#),
        ("replace", "Z = replace(target=X, pattern=0, replacement=1)"),
        ("ifelse", "Z = ifelse(X > 0, 1, Y)"),
        ("solve", "Z = solve(S, y3)"),
        ("inv", "Z = inv(S)"),
        ("cholesky", "Z = cholesky(S)"),
        ("det", "z = det(S)"),
        ("eigen", "[w, V] = eigen(S)"),
        ("trace", "z = trace(S)"),
        ("nrow", "z = nrow(X)"),
        ("ncol", "z = ncol(X)"),
        ("length", "z = length(X)"),
        ("nnz", "z = nnz(X)"),
        ("cumsum", "Z = cumsum(X)"),
        ("cumprod", "Z = cumprod(X)"),
        ("rowIndexMax", "Z = rowIndexMax(X)"),
        ("quantile", "z = quantile(y, 0.25)"),
        ("median", "z = median(X)"),
        ("as.scalar", "z = as.scalar(e)"),
        ("as.matrix", "Z = as.matrix(3)"),
        ("as.integer", "z = as.integer(2.5)"),
        ("as.double", "z = as.double(2)"),
        ("as.logical", "z = as.logical(1)"),
        ("toString", "z = toString(X)"),
        ("print", r#"print("sample")"#),
        ("stop", r#"stop("sample")"#),
        ("read", r#"Z = read("DIR/x.csv")"#),
        ("write", r#"write(X, "DIR/out.csv")"#),
        (
            "transformencode",
            r#"[Z, N] = transformencode(target=F, spec="recode=a")"#,
        ),
        ("transformapply", "Z = transformapply(target=F, meta=M)"),
        (
            "paramserv",
            "Z = paramserv(X=X, y=y, epochs=1, batchsize=2, workers=1)",
        ),
    ];

    /// `sum((X-Y)^2)` over leaves `X, Y`.
    fn template() -> FusedTemplate {
        use TemplateNode::{Binary, Const, Input};
        FusedTemplate {
            nodes: vec![
                Input(0),
                Input(1),
                Binary(BinaryOp::Sub, 0, 1),
                Const(2.0),
                Binary(BinaryOp::Pow, 2, 3),
            ],
            root: 4,
            agg: Some((AggFn::Sum, Direction::Full)),
            num_inputs: 2,
            saved_intermediates: 2,
        }
    }

    /// One node per core row and family member, by its inputs: names of
    /// [`sample_inputs`] or integer literals. Each binary operator comes in
    /// every operand form: scalar-scalar, matrix-scalar, scalar-matrix,
    /// matrix-matrix, and a row and a column vector broadcast.
    fn core_samples() -> Vec<(HopOp, Vec<&'static str>)> {
        let mut samples = vec![
            (HopOp::op(MATMUL), vec!["X", "S"]),
            (HopOp::op(TSMM), vec!["X"]),
            (HopOp::op(TMV), vec!["X", "y"]),
            (HopOp::op(MMCHAIN), vec!["X", "y3"]),
            (HopOp::op(TRANSPOSE), vec!["X"]),
            (HopOp::op(RIGHT_INDEX), vec!["X", "2", "4", "1", "2"]),
            (HopOp::op(LEFT_INDEX), vec!["X", "e", "2", "2", "3", "3"]),
            (HopOp::fused(template()), vec!["X", "Y"]),
        ];
        samples.extend(UnaryOp::ALL.map(|u| (HopOp::unary(u), vec!["X"])));
        for f in AggFn::ALL {
            samples.extend(Direction::ALL.map(|d| (HopOp::agg(f, d), vec!["X"])));
        }
        for b in BinaryOp::ALL {
            let forms = [
                ["s", "t"],
                ["X", "s"],
                ["s", "X"],
                ["X", "Y"],
                ["X", "r"],
                ["X", "y"],
            ];
            samples.extend(forms.map(|form| (HopOp::binary(b), form.to_vec())));
        }
        samples
    }

    fn sample_inputs(dir: &str) -> SymbolTable {
        let m = |rows: &[&[f64]]| Matrix::from_rows(rows).unwrap();
        let x = m(&[
            &[1., -2., 0.],
            &[0., 3., 0.],
            &[-1., 5., 0.],
            &[2., 0., 0.],
            &[4., -1., 0.],
            &[3., 2., 0.],
        ]);
        Format::parse("csv")
            .unwrap()
            .write_matrix(format!("{dir}/x.csv"), &x)
            .unwrap();
        let frame = Frame::from_columns(vec![(
            "a".into(),
            FrameColumn::Str(["p", "q", "p"].map(String::from).to_vec()),
        )])
        .unwrap();
        let spec = parse_transform_spec("recode=a").unwrap();
        let meta = TransformEncoder::fit(&frame, &spec).unwrap().to_metadata();
        let mut st = SymbolTable::new();
        let column = |v: &[f64]| Matrix::from_vec(v.len(), 1, v.to_vec()).unwrap();
        let y = elementwise::binary_ms(BinaryOp::Mul, &x, 2.0);
        for (name, value) in [
            ("Y", elementwise::binary_ms(BinaryOp::Sub, &y, 1.0)),
            ("X", x),
            ("S", m(&[&[4., 1., 0.], &[1., 3., 1.], &[0., 1., 2.]])),
            ("y", column(&[1., 2., 3., 4., 5., 6.])),
            ("y3", column(&[1., 2., 3.])),
            ("u", column(&[1., 2., 3., 4.])),
            ("v", m(&[&[1., 2., 3., 4., 5.]])),
            ("r", m(&[&[1., -1., 2.]])),
            ("c", column(&[1., 2., 1., 3., 1., 2.])),
            ("d", column(&[2., 2., 1., 1., 1., 4.])),
            ("e", m(&[&[7.]])),
        ] {
            st.set(name, Data::from_matrix(value), None);
        }
        st.set("s", Data::Scalar(ScalarValue::F64(2.5)), None);
        st.set("t", Data::Scalar(ScalarValue::I64(3)), None);
        st.set("F", Data::Frame(Arc::new(frame)), None);
        st.set("M", Data::Frame(Arc::new(meta)), None);
        st
    }

    fn ctx(dir: &std::path::Path) -> ExecCtx {
        let config = EngineConfig {
            spill_dir: dir.to_path_buf(),
            ..EngineConfig::default()
        };
        ExecCtx::new(config).unwrap()
    }

    /// Runs `call` and returns, for the node of `row`, its propagated size
    /// and the kernel's output.
    fn size_and_output(row: &'static Operator, call: &str) -> (SizeInfo, Result<Data>) {
        let spill_dir = sysds_common::testing::unique_temp_dir("sysds-builtin-rows");
        let dir = spill_dir.to_str().unwrap().to_string();
        let st = sample_inputs(&dir);
        let call = call.replace("DIR", &dir);
        let ctx = ctx(&spill_dir);
        let program = compile_program(&parse_program(&call).unwrap(), &|_| None).unwrap();
        for block in &program.blocks {
            let Block::Basic(bb) = block else {
                panic!("{call}: not a basic block")
            };
            let plan = lower(bb, &st.size_env(), &ctx.config);
            let mut slots = vec![None; plan.nslots];
            for instr in &plan.instrs {
                let ran = execute(instr, &mut slots, &st, &ctx);
                if instr.op == HopOp::op(row) {
                    let out = ran.map(|()| slots[instr.out].take().unwrap().data);
                    return (instr.size, out);
                }
                ran.unwrap();
            }
        }
        panic!("{call}: no {} node", row.name)
    }

    /// Runs one node of `op` over `inputs` (names in `st`, or integer
    /// literals) as built, without rewrites, and returns its propagated
    /// size and the kernel's output.
    fn run_node(
        op: &HopOp,
        inputs: &[&str],
        st: &SymbolTable,
        ctx: &ExecCtx,
    ) -> (SizeInfo, Result<Data>) {
        let mut dag = HopDag::new();
        let ins = inputs.iter().map(|name| match name.parse::<i64>() {
            Ok(v) => dag.lit(ScalarValue::I64(v)),
            Err(_) => dag.add(HopOp::Var(name.to_string()), vec![]),
        });
        let ins = ins.collect();
        let node = dag.add(op.clone(), ins);
        propagate(&mut dag, &st.size_env(), &[node]);
        let mut slots = vec![None; dag.len()];
        for (id, Hop { op, inputs, size }) in dag.nodes().iter().enumerate() {
            let (inputs, size) = (inputs.clone(), *size);
            let instr = Instr {
                op: op.clone(),
                inputs,
                out: id,
                size,
            };
            let ran = execute(&instr, &mut slots, st, ctx);
            if id == node {
                return (size, ran.map(|()| slots[id].take().unwrap().data));
            }
            ran.unwrap();
        }
        unreachable!("the node is the last one")
    }

    /// Asserts that a rule's size admits the kernel's output.
    fn assert_agrees(what: &str, rule: SizeInfo, out: Result<Data>, stops: bool) {
        let dims = match out {
            Ok(Data::Scalar(_) | Data::Empty) => None,
            Ok(data) => Some(dims(&data).unwrap()),
            Err(SysDsError::Stop(_)) if stops => None,
            Err(e) => panic!("{what}: {e}"),
        };
        match dims {
            None => assert!(rule.scalar, "{what}: the rule gives {rule:?} for a scalar"),
            Some((rows, cols)) => {
                let agree = |d: Dim, n: usize| d.value().is_none_or(|v| v == n);
                assert!(
                    !rule.scalar && agree(rule.rows, rows) && agree(rule.cols, cols),
                    "{what}: the rule gives {rule:?}, the kernel {rows}x{cols}"
                );
            }
        }
    }

    #[test]
    fn every_size_rule_agrees_with_its_kernel() {
        for (name, _) in SAMPLES {
            assert!(lookup(name).is_some(), "sample for unknown builtin {name}");
        }
        let spill_dir = sysds_common::testing::unique_temp_dir("sysds-core-rows");
        let st = sample_inputs(spill_dir.to_str().unwrap());
        let ctx = ctx(&spill_dir);
        let core = core_samples();
        for row in &OPERATORS {
            if let Some((_, call)) = SAMPLES.iter().find(|(n, _)| *n == row.name) {
                let (rule, out) = size_and_output(row, call);
                assert_agrees(call, rule, out, row.effect == Output);
                continue;
            }
            let mut sampled = false;
            for (op, inputs) in core.iter().filter(|(op, _)| op.is(row)) {
                let (rule, out) = run_node(op, inputs, &st, &ctx);
                assert_agrees(&format!("{} {inputs:?}", op.opcode()), rule, out, false);
                sampled = true;
            }
            assert!(sampled, "{}: no sample", row.name);
        }
    }

    /// A symbol table like [`sample_inputs`] in which every 6-row matrix
    /// is federated over 2 in-process sites, on one set of sites so that
    /// their partitions align.
    fn federated(st: &SymbolTable) -> SymbolTable {
        let sites: Vec<Arc<dyn Transport>> = (0..2)
            .map(|_| Arc::new(WorkerHandle::spawn(vec![], 1)) as Arc<dyn Transport>)
            .collect();
        let mut fed = st.clone();
        for name in ["X", "Y", "y", "c", "d"] {
            let m = st.get(name).unwrap().data.as_matrix().unwrap();
            let f = FederatedMatrix::scatter(&m, &sites).unwrap();
            fed.set(name, Data::Federated(Arc::new(f)), None);
        }
        fed
    }

    /// What the comparison of `d` looks at: `d` itself, or with `reduce`
    /// (for a result that stays at the sites) its Gram matrix and column
    /// sums.
    fn comparable(d: Data, reduce: bool, ctx: &ExecCtx) -> Vec<Matrix> {
        if !reduce {
            return vec![(*d.as_matrix().unwrap()).clone()];
        }
        let slot = Slot {
            data: d,
            lineage: None,
        };
        let col_sums = Param::Agg(AggFn::Sum, Direction::Col);
        [(TSMM, Param::None), (AGG, col_sums)]
            .iter()
            .map(|(row, p)| dispatch(row, p, &[&slot], ctx).unwrap().0)
            .map(|g| (*g.as_matrix().unwrap()).clone())
            .collect()
    }

    #[test]
    fn every_federated_kernel_equals_its_local_kernel() {
        let spill_dir = sysds_common::testing::unique_temp_dir("sysds-fed-rows");
        let local = sample_inputs(spill_dir.to_str().unwrap());
        let fed = federated(&local);
        let ctx = ctx(&spill_dir);
        let mut samples = core_samples();
        samples
            .extend(["nrow", "ncol", "length"].map(|n| (HopOp::op(lookup(n).unwrap()), vec!["X"])));
        for row in OPERATORS.iter().filter(|r| r.fed.is_some()) {
            let mut equal = 0;
            for (op, inputs) in samples.iter().filter(|(op, _)| op.is(row)) {
                let HopOp::Op(_, param) = op else {
                    unreachable!()
                };
                let what = format!("{} {inputs:?}", op.opcode());
                let want = run_node(op, inputs, &local, &ctx).1.unwrap();
                match run_node(op, inputs, &fed, &ctx).1 {
                    Ok(got) => {
                        let reduce = matches!(got, Data::Federated(_));
                        let got = comparable(got, reduce, &ctx);
                        let want = comparable(want, reduce, &ctx);
                        let same = got.iter().zip(&want).all(|(g, w)| g.approx_eq(w, 1e-9));
                        assert!(
                            same && got.len() == want.len(),
                            "{what}: {got:?} != {want:?}"
                        );
                        equal += 1;
                    }
                    Err(e) => assert_eq!(e.to_string(), row.rejects(param).to_string(), "{what}"),
                }
            }
            assert!(equal > 0, "{}: no federated sample ran", row.name);
        }
    }

    #[test]
    fn rows_without_a_federated_kernel_reject_federated_input() {
        let spill_dir = sysds_common::testing::unique_temp_dir("sysds-fed-rejects");
        let local = sample_inputs(spill_dir.to_str().unwrap());
        let x = federated(&local).get("X").unwrap().clone();
        let slot = Slot {
            data: x.data,
            lineage: None,
        };
        let ctx = ctx(&spill_dir);
        let mut members: Vec<(&Operator, Param)> =
            OPERATORS.iter().map(|r| (r, Param::None)).collect();
        members.extend(UnaryOp::ALL.map(|u| (UNARY, Param::Unary(u))));
        for (row, param) in members.iter().filter(|(r, _)| r.fed.is_none()) {
            let err = dispatch(row, param, &[&slot], &ctx).unwrap_err();
            assert_eq!(err.to_string(), row.rejects(param).to_string());
            assert!(matches!(err, SysDsError::Federated(_)), "{err}");
        }
    }

    #[test]
    fn opcodes_are_those_of_the_operator_variants() {
        let core = [
            "ba+*",
            "tsmm",
            "tmv",
            "mmchain",
            "r'",
            "rightIndex",
            "leftIndex",
        ];
        let rows = [
            MATMUL,
            TSMM,
            TMV,
            MMCHAIN,
            TRANSPOSE,
            RIGHT_INDEX,
            LEFT_INDEX,
        ];
        assert_eq!(rows.map(|r| r.name), core);
        let unary = [
            "u-", "!", "abs", "exp", "log", "sqrt", "sin", "cos", "tan", "sign", "round", "floor",
            "ceil", "sigmoid",
        ];
        let binary = [
            "+", "-", "*", "/", "^", "%%", "%/%", "min", "max", "==", "!=", "<", "<=", ">", ">=",
            "&", "|",
        ];
        let aggs = ["sum", "mean", "min", "max", "var", "sd", "sumsq"];
        let builtins = [
            "rand",
            "matrix",
            "seq",
            "cbind",
            "rbind",
            "diag",
            "rev",
            "outer",
            "table",
            "order",
            "removeEmpty",
            "replace",
            "ifelse",
            "solve",
            "inv",
            "cholesky",
            "det",
            "eigen",
            "trace",
            "nrow",
            "ncol",
            "length",
            "nnz",
            "cumsum",
            "cumprod",
            "rowIndexMax",
            "quantile",
            "median",
            "as.scalar",
            "as.matrix",
            "as.integer",
            "as.double",
            "as.logical",
            "toString",
            "print",
            "stop",
            "read",
            "write",
            "transformencode",
            "transformapply",
            "paramserv",
        ];
        let mut want: Vec<String> = core
            .iter()
            .chain(&unary)
            .chain(&binary)
            .map(|s| s.to_string())
            .collect();
        for f in aggs {
            want.extend(["full", "row", "col"].map(|d| format!("ua{f}{d}")));
        }
        want.extend(builtins.map(String::from));
        want.push("fused:sum((X-Y)^2)".into());
        let mut got: Vec<String> = core_samples().iter().map(|(op, _)| op.opcode()).collect();
        got.extend(OPERATORS[CORE..].iter().map(|r| HopOp::op(r).opcode()));
        for list in [&mut got, &mut want] {
            list.sort();
            list.dedup();
        }
        assert_eq!(got, want);
        // Only the builtins are DML names.
        assert!(builtins.iter().all(|b| lookup(b).is_some()));
        assert!(core
            .iter()
            .chain(&["unary", "binary", "agg", "fused"])
            .all(|c| lookup(c).is_none()));
    }

    #[test]
    fn transform_spec_parsing() {
        let s = parse_transform_spec("recode=a,b dummy=c bin=d:4").unwrap();
        // Applying to a frame is covered in frame tests; here we only
        // check acceptance/rejection of the syntax.
        let _ = s;
        assert!(parse_transform_spec("nonsense").is_err());
        assert!(parse_transform_spec("bin=x").is_err());
        assert!(parse_transform_spec("frob=x").is_err());
    }
}
