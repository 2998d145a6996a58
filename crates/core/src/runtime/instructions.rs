//! Instruction execution: local (CP) and federated instructions (paper
//! §2.3 (4)), with lineage tracing and reuse hooks around every operation
//! (§3.1). Every operator has one local kernel; federated operands push the
//! operator to the sites instead.

use crate::builtins::runtime::Effect;
use crate::compiler::hop::HopOp;
use crate::compiler::lower::Instr;
use crate::lineage::{LineageCache, LineageItem};
use crate::runtime::bufferpool::BufferPool;
use crate::runtime::value::{Data, SymbolTable};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use sysds_common::sync::lock;
use sysds_common::{EngineConfig, Result, ScalarValue, SysDsError};
use sysds_fed::ops::{self as fed_ops, FedOperand};
use sysds_tensor::kernels::fused::{FusedInput, FusedOutput, FusedTemplate, TemplateNode};
use sysds_tensor::kernels::*;
use sysds_tensor::Matrix;

/// Shared execution context threaded through the interpreter.
pub struct ExecCtx {
    pub config: EngineConfig,
    pub cache: Arc<LineageCache>,
    pub pool: Arc<BufferPool>,
    /// Captured `print` output (also echoed to stdout when configured).
    pub stdout: Mutex<Vec<String>>,
    /// Echo prints to the process stdout.
    pub echo: bool,
    /// Per path, how many `write`s this session has run; part of the
    /// lineage of every `read` of that path.
    pub(crate) file_gens: Mutex<HashMap<String, u64>>,
}

impl ExecCtx {
    /// Create a context from a configuration.
    pub fn new(config: EngineConfig) -> Result<ExecCtx> {
        if config.stats {
            sysds_obs::enable_stats();
        }
        if let Some(path) = &config.trace_file {
            sysds_obs::enable_trace(path)
                .map_err(|e| SysDsError::runtime(format!("cannot open trace file: {e}")))?;
        }
        if config.chrome_trace_file.is_some() {
            // Buffer spans in memory; the caller exports them as Chrome
            // trace_event JSON after the run (see `SystemDS`/CLI).
            sysds_obs::enable_memory_trace();
        }
        let pool = Arc::new(BufferPool::new(
            config.buffer_pool_limit,
            config.spill_dir.clone(),
        )?);
        let cache = Arc::new(LineageCache::new(config.reuse, config.reuse_cache_limit));
        Ok(ExecCtx {
            config,
            cache,
            pool,
            stdout: Mutex::new(Vec::new()),
            echo: false,
            file_gens: Mutex::new(HashMap::new()),
        })
    }

    /// How many `write`s of `path` this session has run.
    pub(crate) fn file_gen(&self, path: &str) -> u64 {
        lock(&self.file_gens).get(path).copied().unwrap_or(0)
    }

    pub(crate) fn print(&self, line: String) {
        if self.echo {
            println!("{line}");
        }
        lock(&self.stdout).push(line);
    }

    /// Drain captured print output.
    pub fn take_stdout(&self) -> Vec<String> {
        std::mem::take(&mut lock(&self.stdout))
    }

    /// Wrap a matrix result, registering large ones with the buffer pool.
    pub fn wrap_matrix(&self, m: Matrix) -> Result<Data> {
        // Tiny results are not worth pool bookkeeping.
        if m.in_memory_size() >= 1 << 16 {
            Ok(Data::Matrix(self.pool.register(m)?))
        } else {
            Ok(Data::from_matrix(m))
        }
    }
}

/// One instruction slot: value plus lineage.
#[derive(Debug, Clone)]
pub struct Slot {
    pub data: Data,
    pub lineage: Option<Arc<LineageItem>>,
}

impl Slot {
    fn new(data: Data, lineage: Option<Arc<LineageItem>>) -> Slot {
        Slot { data, lineage }
    }
}

/// Execute one lowered instruction against the slot file.
pub fn execute(
    instr: &Instr,
    slots: &mut [Option<Slot>],
    symbols: &SymbolTable,
    ctx: &ExecCtx,
) -> Result<()> {
    let out = match &instr.op {
        HopOp::Lit(v) => {
            let lin = trace_enabled(ctx).then(|| LineageItem::leaf(format!("lit:{v}")));
            Slot::new(Data::Scalar(v.clone()), lin)
        }
        HopOp::Var(name) => {
            let entry = symbols.get(name)?;
            let lin = if trace_enabled(ctx) {
                Some(
                    entry
                        .lineage
                        .clone()
                        .unwrap_or_else(|| data_leaf(&entry.data, name)),
                )
            } else {
                None
            };
            Slot::new(entry.data.clone(), lin)
        }
        op => {
            let inputs: Vec<&Slot> = instr
                .inputs
                .iter()
                .map(|&i| slots[i].as_ref().expect("inputs computed before use"))
                .collect();
            let out = execute_op(op, &inputs, ctx)?;
            if sysds_obs::stats_enabled() {
                audit_output(instr, &out.data);
            }
            out
        }
    };
    slots[instr.out] = Some(out);
    Ok(())
}

/// Feed the estimate-vs-actual audit: compare the instruction's
/// compile-time `SizeInfo` against the materialized output (paper §2.3's
/// memory estimates, validated instead of trusted).
fn audit_output(instr: &Instr, data: &Data) {
    let Data::Matrix(h) = data else { return };
    let Some((rows, cols)) = h.shape() else {
        return;
    };
    let actual_bytes = Matrix::estimate_size(rows, cols, h.sparsity().unwrap_or(1.0));
    let est = sysds_obs::EstimateInfo {
        rows: instr.size.rows.value().map(|v| v as u64),
        cols: instr.size.cols.value().map(|v| v as u64),
        bytes: instr.size.memory_estimate().map(|v| v as u64),
    };
    sysds_obs::audit::record(
        &instr.op.opcode(),
        &est,
        rows as u64,
        cols as u64,
        actual_bytes as u64,
    );
}

pub(crate) fn trace_enabled(ctx: &ExecCtx) -> bool {
    ctx.config.lineage
}

/// Lineage leaf for a value without recorded lineage (script inputs). It
/// names the value, not the variable: a matrix by its handle id, a
/// federated matrix by the `endpoint/var` of its partitions (clones share
/// them; every site-side result gets fresh vars). A frame has no identity
/// of its own, so each call returns a fresh leaf; the session binds one
/// per frame input.
pub(crate) fn data_leaf(data: &Data, name: &str) -> Arc<LineageItem> {
    match data {
        Data::Matrix(h) => LineageItem::leaf(format!("input:{name}#{}", h.id())),
        Data::Scalar(s) => LineageItem::leaf(format!("lit:{s}")),
        Data::Frame(_) => fresh_leaf("input-frame"),
        Data::Federated(f) => {
            let parts: Vec<String> = f
                .partitions()
                .iter()
                .map(|p| format!("{}/{}", p.worker.endpoint(), p.var))
                .collect();
            LineageItem::leaf(format!("input-fed:{}", parts.join(",")))
        }
        Data::Empty => LineageItem::leaf("empty"),
    }
}

/// A lineage leaf no other value shares.
pub(crate) fn fresh_leaf(kind: &str) -> Arc<LineageItem> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    LineageItem::leaf(format!("{kind}#{}", NEXT.fetch_add(1, Ordering::Relaxed)))
}

fn out_lineage(op: &HopOp, inputs: &[&Slot], extra: Option<String>) -> Option<Arc<LineageItem>> {
    let mut ins = Vec::with_capacity(inputs.len());
    for s in inputs {
        ins.push(s.lineage.clone()?);
    }
    let opcode = extra.unwrap_or_else(|| op.opcode());
    Some(LineageItem::node(opcode, ins))
}

fn execute_op(op: &HopOp, inputs: &[&Slot], ctx: &ExecCtx) -> Result<Slot> {
    // 1. Compute output lineage and probe the reuse cache.
    let mut lineage = match op {
        // The kernel names the result by the seed it drew.
        HopOp::Nary(b) if matches!(b.effect, Effect::Seeded(_)) => None,
        _ if trace_enabled(ctx) => out_lineage(op, inputs, None),
        _ => None,
    };
    if let Some(lin) = &lineage {
        if cacheable(op) {
            if let Some(hit) = ctx.cache.probe(lin) {
                return Ok(Slot::new(ctx.wrap_matrix((*hit).clone())?, lineage));
            }
            // Partial reuse: compensation plans over cbind (paper §3.1).
            // The probes read the inputs, so they need local matrices; a
            // federated input skips them.
            let local = inputs.iter().all(|s| matches!(s.data, Data::Matrix(_)));
            if let (HopOp::Tsmm, true) = (op, local) {
                let xi = inputs[0].data.as_matrix()?;
                if let Some(hit) = ctx
                    .cache
                    .probe_partial_tsmm(lin, &xi, ctx.config.num_threads)?
                {
                    ctx.cache.put(lin, hit.clone(), u128::MAX / 2);
                    return Ok(Slot::new(ctx.wrap_matrix((*hit).clone())?, lineage));
                }
            }
            if let (HopOp::Tmv, true) = (op, local) {
                let xi = inputs[0].data.as_matrix()?;
                let y = inputs[1].data.as_matrix()?;
                if let Some(hit) =
                    ctx.cache
                        .probe_partial_tmv(lin, &xi, &y, ctx.config.num_threads)?
                {
                    ctx.cache.put(lin, hit.clone(), u128::MAX / 2);
                    return Ok(Slot::new(ctx.wrap_matrix((*hit).clone())?, lineage));
                }
            }
        }
    }

    // 2. Execute. The span is inert (one relaxed load) unless `--stats`
    // or `--trace` is on; the existing Instant keeps feeding the lineage
    // cache's cost model either way.
    let start = Instant::now();
    let (data, lineage_override) = {
        let _span = sysds_obs::Span::enter_with(sysds_obs::Phase::Instruction, || op.opcode());
        dispatch(op, inputs, ctx)?
    };
    let elapsed = start.elapsed().as_nanos();
    if let Some(l) = lineage_override {
        lineage = trace_enabled(ctx).then_some(l);
    }

    // 3. Offer the result for caching.
    if let (Some(lin), Data::Matrix(h)) = (&lineage, &data) {
        if cacheable(op) {
            ctx.cache.put(lin, h.acquire()?, elapsed);
        }
    }
    Ok(Slot::new(data, lineage))
}

/// Deterministic, compute-heavy ops eligible for lineage caching.
fn cacheable(op: &HopOp) -> bool {
    if let HopOp::Nary(b) = op {
        return b.reuse;
    }
    matches!(
        op,
        HopOp::MatMul
            | HopOp::Tsmm
            | HopOp::Tmv
            | HopOp::MmChain
            | HopOp::Transpose
            | HopOp::Agg(_, _)
            | HopOp::Binary(_)
            | HopOp::Unary(_)
            | HopOp::Fused(_)
    )
}

/// An operator's output and, where it is not the operator's own, its
/// lineage.
pub(crate) type DispatchResult = Result<(Data, Option<Arc<LineageItem>>)>;

fn dispatch(op: &HopOp, inputs: &[&Slot], ctx: &ExecCtx) -> DispatchResult {
    let data = |k: usize| -> &Data { &inputs[k].data };
    match op {
        HopOp::Unary(u) => {
            let out = match data(0) {
                Data::Scalar(s) => match u {
                    UnaryOp::Not => Data::Scalar(ScalarValue::Bool(!s.as_bool()?)),
                    UnaryOp::Neg => match s {
                        ScalarValue::I64(v) => Data::Scalar(ScalarValue::I64(-v)),
                        other => Data::Scalar(ScalarValue::F64(-other.as_f64()?)),
                    },
                    _ => Data::Scalar(ScalarValue::F64(u.apply(s.as_f64()?))),
                },
                d => ctx.wrap_matrix(elementwise::unary_mt(
                    *u,
                    &*d.as_matrix()?,
                    ctx.config.num_threads,
                ))?,
            };
            Ok((out, None))
        }
        HopOp::Binary(b) => binary_dispatch(*b, data(0), data(1), ctx),
        HopOp::MatMul => {
            // Federated mat-vec keeps results at the sites.
            if let Data::Federated(f) = data(0) {
                let v = FedOperand::Matrix((*data(1).as_matrix()?).clone());
                let out = f.exec(&fed_ops::MATVEC, &[], Some(v))?.into_federated()?;
                return Ok((Data::Federated(Arc::new(out)), None));
            }
            let (a, b) = (data(0).as_matrix()?, data(1).as_matrix()?);
            let m = matmult::matmul(&a, &b, ctx.config.num_threads)?;
            Ok((ctx.wrap_matrix(m)?, None))
        }
        HopOp::Tsmm => {
            if let Data::Federated(f) = data(0) {
                let g = f.exec(&fed_ops::TSMM, &[], None)?.into_matrix()?;
                return Ok((ctx.wrap_matrix(g)?, None));
            }
            let x = data(0).as_matrix()?;
            let m = tsmm::tsmm(&x, ctx.config.num_threads, true);
            Ok((ctx.wrap_matrix(m)?, None))
        }
        HopOp::Tmv => {
            if let (Data::Federated(fx), Data::Federated(fy)) = (data(0), data(1)) {
                let r = fx.exec(&fed_ops::TMV, &[fy], None)?.into_matrix()?;
                return Ok((ctx.wrap_matrix(r)?, None));
            }
            let (x, y) = (data(0).as_matrix()?, data(1).as_matrix()?);
            Ok((
                ctx.wrap_matrix(tsmm::tmv(&x, &y, ctx.config.num_threads)?)?,
                None,
            ))
        }
        HopOp::MmChain => {
            // Federated X runs the whole chain at each site: one request
            // per site, and only the `cols x 1` partials come back.
            if let Data::Federated(fx) = data(0) {
                let v = FedOperand::Matrix((*data(1).as_matrix()?).clone());
                let r = fx.exec(&fed_ops::MMCHAIN, &[], Some(v))?.into_matrix()?;
                return Ok((ctx.wrap_matrix(r)?, None));
            }
            let (x, v) = (data(0).as_matrix()?, data(1).as_matrix()?);
            Ok((
                ctx.wrap_matrix(matvec::mmchain(&x, &v, None, ctx.config.num_threads)?)?,
                None,
            ))
        }
        HopOp::Transpose => {
            let x = data(0).as_matrix()?;
            Ok((
                ctx.wrap_matrix(reorg::transpose(&x, ctx.config.num_threads))?,
                None,
            ))
        }
        HopOp::Agg(f, d) => {
            if let Data::Federated(fed) = data(0) {
                return fed_agg(*f, *d, fed, ctx);
            }
            let x = data(0).as_matrix()?;
            let threads = ctx.config.num_threads;
            match d {
                Direction::Full => Ok((
                    Data::from_f64(aggregate::aggregate_full_mt(*f, &x, threads)?),
                    None,
                )),
                _ => Ok((
                    ctx.wrap_matrix(aggregate::aggregate_axis_mt(*f, *d, &x, threads)?)?,
                    None,
                )),
            }
        }
        HopOp::Fused(t) => fused_dispatch(t, inputs, ctx),
        HopOp::Index => {
            let x = data(0).as_matrix()?;
            let (rl, rh) = (data(1).as_i64()?, data(2).as_i64()?);
            let (cl, ch) = (data(3).as_i64()?, data(4).as_i64()?);
            let (r, c) = to_ranges(&x, rl, rh, cl, ch)?;
            Ok((ctx.wrap_matrix(indexing::slice(&x, r, c)?)?, None))
        }
        HopOp::LeftIndex => {
            let x = data(0).as_matrix()?;
            let v = data(1).as_matrix()?;
            let (rl, rh) = (data(2).as_i64()?, data(3).as_i64()?);
            let (cl, ch) = (data(4).as_i64()?, data(5).as_i64()?);
            let (r, c) = to_ranges(&x, rl, rh, cl, ch)?;
            Ok((ctx.wrap_matrix(indexing::assign(&x, r, c, &v)?)?, None))
        }
        HopOp::Nary(b) => (b.kernel)(inputs, ctx),
        HopOp::Lit(_) | HopOp::Var(_) => unreachable!("handled by caller"),
    }
}

fn to_ranges(
    x: &Matrix,
    rl: i64,
    rh: i64,
    cl: i64,
    ch: i64,
) -> Result<(std::ops::Range<usize>, std::ops::Range<usize>)> {
    let check = |lo: i64, hi: i64, n: usize, what: &str| -> Result<std::ops::Range<usize>> {
        if lo < 1 || hi < lo || hi as usize > n {
            return Err(SysDsError::IndexOutOfBounds {
                msg: format!("{what} range [{lo}:{hi}] of {n}"),
            });
        }
        Ok((lo as usize - 1)..(hi as usize))
    };
    Ok((
        check(rl, rh, x.rows(), "row")?,
        check(cl, ch, x.cols(), "column")?,
    ))
}

fn binary_dispatch(b: BinaryOp, l: &Data, r: &Data, ctx: &ExecCtx) -> DispatchResult {
    match (l, r) {
        (Data::Scalar(a), Data::Scalar(c)) => {
            // String concatenation with `+`.
            if b == BinaryOp::Add
                && (matches!(a, ScalarValue::Str(_)) || matches!(c, ScalarValue::Str(_)))
            {
                return Ok((
                    Data::Scalar(ScalarValue::Str(format!(
                        "{}{}",
                        a.to_display_string(),
                        c.to_display_string()
                    ))),
                    None,
                ));
            }
            let v = b.apply(a.as_f64()?, c.as_f64()?);
            let out = match b {
                BinaryOp::Eq
                | BinaryOp::Neq
                | BinaryOp::Lt
                | BinaryOp::Le
                | BinaryOp::Gt
                | BinaryOp::Ge
                | BinaryOp::And
                | BinaryOp::Or => Data::Scalar(ScalarValue::Bool(v != 0.0)),
                _ if matches!(a, ScalarValue::I64(_) | ScalarValue::Bool(_))
                    && matches!(c, ScalarValue::I64(_) | ScalarValue::Bool(_))
                    && v.fract() == 0.0
                    && v.is_finite() =>
                {
                    Data::Scalar(ScalarValue::I64(v as i64))
                }
                _ => Data::from_f64(v),
            };
            Ok((out, None))
        }
        (Data::Federated(f), Data::Scalar(c)) => {
            // Push scalar ops to the sites; the result stays federated.
            let s = FedOperand::Scalar(b, c.as_f64()?);
            let out = f
                .exec(&fed_ops::SCALAR_OP, &[], Some(s))?
                .into_federated()?;
            Ok((Data::Federated(Arc::new(out)), None))
        }
        (Data::Scalar(a), m) => {
            let out =
                elementwise::binary_sm_mt(b, a.as_f64()?, &*m.as_matrix()?, ctx.config.num_threads);
            Ok((ctx.wrap_matrix(out)?, None))
        }
        (m, Data::Scalar(c)) => {
            let out =
                elementwise::binary_ms_mt(b, &*m.as_matrix()?, c.as_f64()?, ctx.config.num_threads);
            Ok((ctx.wrap_matrix(out)?, None))
        }
        (Data::Federated(a), Data::Federated(c)) => {
            let op = Some(FedOperand::Op(b));
            let out = a.exec(&fed_ops::BINARY_OP, &[c], op)?.into_federated()?;
            Ok((Data::Federated(Arc::new(out)), None))
        }
        (a, c) => {
            let (ma, mc) = (a.as_matrix()?, c.as_matrix()?);
            let out = elementwise::binary_mm_mt(b, &ma, &mc, ctx.config.num_threads)?;
            Ok((ctx.wrap_matrix(out)?, None))
        }
    }
}

/// Execute a fused template: the one-pass kernel when every operand is a
/// local matrix (of one common shape) or a numeric scalar; otherwise the
/// template replays op by op through the regular dispatch (federated or
/// frame operands, shape drift after a stale plan).
fn fused_dispatch(t: &FusedTemplate, inputs: &[&Slot], ctx: &ExecCtx) -> DispatchResult {
    enum Operand {
        M(Arc<Matrix>),
        S(f64),
    }
    let mut operands: Vec<Operand> = Vec::with_capacity(inputs.len());
    let mut shape: Option<(usize, usize)> = None;
    for s in inputs {
        match &s.data {
            Data::Matrix(h) => {
                let m = h.acquire()?;
                let dims = (m.rows(), m.cols());
                if *shape.get_or_insert(dims) != dims {
                    return fused_fallback(t, inputs, ctx);
                }
                operands.push(Operand::M(m));
            }
            Data::Scalar(v) => match v.as_f64() {
                Ok(x) => operands.push(Operand::S(x)),
                Err(_) => return fused_fallback(t, inputs, ctx),
            },
            _ => return fused_fallback(t, inputs, ctx),
        }
    }
    let Some((m, n)) = shape else {
        // All-scalar at runtime (sizes drifted): replay.
        return fused_fallback(t, inputs, ctx);
    };
    let fused_inputs: Vec<FusedInput> = operands
        .iter()
        .map(|o| match o {
            Operand::M(m) => FusedInput::Matrix(m),
            Operand::S(x) => FusedInput::Scalar(*x),
        })
        .collect();
    let out = fused::eval(t, &fused_inputs, ctx.config.num_threads)?;
    if sysds_obs::stats_enabled() {
        let counters = sysds_obs::counters();
        counters.fusion_hits.fetch_add(1, Ordering::Relaxed);
        counters.fusion_bytes_saved.fetch_add(
            (t.saved_intermediates * m * n * std::mem::size_of::<f64>()) as u64,
            Ordering::Relaxed,
        );
    }
    match out {
        FusedOutput::Scalar(v) => Ok((Data::from_f64(v), None)),
        FusedOutput::Matrix(out) => Ok((ctx.wrap_matrix(out)?, None)),
    }
}

/// Replay a fused template node by node through the regular operator
/// dispatch. Semantically identical to the unfused plan (including
/// broadcasts and federated pushdown); counts no fusion hit.
fn fused_fallback(t: &FusedTemplate, inputs: &[&Slot], ctx: &ExecCtx) -> DispatchResult {
    t.validate()?;
    let mut slots: Vec<Slot> = Vec::with_capacity(t.nodes.len());
    for node in &t.nodes {
        let slot = match node {
            TemplateNode::Input(k) => (*inputs[*k]).clone(),
            TemplateNode::Const(c) => Slot::new(Data::from_f64(*c), None),
            TemplateNode::Unary(u, a) => {
                let (data, _) = dispatch(&HopOp::Unary(*u), &[&slots[*a]], ctx)?;
                Slot::new(data, None)
            }
            TemplateNode::Binary(b, a, c) => {
                let (data, _) = dispatch(&HopOp::Binary(*b), &[&slots[*a], &slots[*c]], ctx)?;
                Slot::new(data, None)
            }
        };
        slots.push(slot);
    }
    let root = &slots[t.root];
    match t.agg {
        Some((f, d)) => dispatch(&HopOp::Agg(f, d), &[root], ctx),
        None => Ok((root.data.clone(), None)),
    }
}

fn fed_agg(
    f: AggFn,
    d: Direction,
    fed: &Arc<sysds_fed::FederatedMatrix>,
    ctx: &ExecCtx,
) -> DispatchResult {
    let col_sums = || fed.exec(&fed_ops::COL_SUMS, &[], None)?.into_matrix();
    match (f, d) {
        (AggFn::Sum, Direction::Col) => Ok((ctx.wrap_matrix(col_sums()?)?, None)),
        (AggFn::Sum, Direction::Full) => Ok((
            Data::from_f64(aggregate::aggregate_full(AggFn::Sum, &col_sums()?)?),
            None,
        )),
        (AggFn::SumSq, Direction::Full) => {
            let s = fed.exec(&fed_ops::SUM_SQ, &[], None)?.into_scalar()?;
            Ok((Data::from_f64(s), None))
        }
        (AggFn::Mean, Direction::Full) => {
            let total = aggregate::aggregate_full(AggFn::Sum, &col_sums()?)?;
            Ok((
                Data::from_f64(total / (fed.rows() * fed.cols()) as f64),
                None,
            ))
        }
        _ => Err(SysDsError::Federated(format!(
            "aggregate {f:?}/{d:?} not supported on federated matrices"
        ))),
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use crate::builtins::runtime::lookup;
    use crate::compiler::hop::SizeInfo;

    fn ctx() -> ExecCtx {
        let mut config = EngineConfig::default();
        config.spill_dir = sysds_common::testing::unique_temp_dir("sysds-instr-tests");
        ExecCtx::new(config).unwrap()
    }

    fn instr(op: HopOp, inputs: Vec<usize>, out: usize) -> Instr {
        Instr {
            op,
            inputs,
            out,
            size: SizeInfo::unknown(),
        }
    }

    fn run(instrs: Vec<Instr>, ctx: &ExecCtx) -> Vec<Option<Slot>> {
        let mut slots: Vec<Option<Slot>> = vec![None; instrs.len()];
        let symbols = SymbolTable::new();
        for i in &instrs {
            execute(i, &mut slots, &symbols, ctx).unwrap();
        }
        slots
    }

    #[test]
    fn literal_and_arithmetic() {
        let c = ctx();
        let slots = run(
            vec![
                instr(HopOp::Lit(ScalarValue::I64(2)), vec![], 0),
                instr(HopOp::Lit(ScalarValue::I64(3)), vec![], 1),
                instr(HopOp::Binary(BinaryOp::Add), vec![0, 1], 2),
            ],
            &c,
        );
        assert_eq!(slots[2].as_ref().unwrap().data.as_i64().unwrap(), 5);
    }

    #[test]
    fn integer_arithmetic_stays_integer() {
        let c = ctx();
        let slots = run(
            vec![
                instr(HopOp::Lit(ScalarValue::I64(7)), vec![], 0),
                instr(HopOp::Lit(ScalarValue::I64(2)), vec![], 1),
                instr(HopOp::Binary(BinaryOp::Mul), vec![0, 1], 2),
                instr(HopOp::Binary(BinaryOp::Div), vec![0, 1], 3),
            ],
            &c,
        );
        assert!(matches!(
            slots[2].as_ref().unwrap().data,
            Data::Scalar(ScalarValue::I64(14))
        ));
        // division yields a double
        assert!(matches!(
            slots[3].as_ref().unwrap().data,
            Data::Scalar(ScalarValue::F64(v)) if v == 3.5
        ));
    }

    #[test]
    fn string_concat_via_plus() {
        let c = ctx();
        let slots = run(
            vec![
                instr(HopOp::Lit(ScalarValue::Str("n=".into())), vec![], 0),
                instr(HopOp::Lit(ScalarValue::I64(4)), vec![], 1),
                instr(HopOp::Binary(BinaryOp::Add), vec![0, 1], 2),
            ],
            &c,
        );
        assert_eq!(
            slots[2]
                .as_ref()
                .unwrap()
                .data
                .as_scalar()
                .unwrap()
                .to_display_string(),
            "n=4"
        );
    }

    #[test]
    fn rand_and_tsmm_with_cache() {
        let mut config = EngineConfig::with_reuse();
        config.spill_dir = sysds_common::testing::unique_temp_dir("sysds-instr-tests");
        let c = ExecCtx::new(config).unwrap();
        let mk = |out_base: usize| {
            vec![
                instr(HopOp::Lit(ScalarValue::I64(200)), vec![], out_base),
                instr(HopOp::Lit(ScalarValue::I64(60)), vec![], out_base + 1),
                instr(HopOp::Lit(ScalarValue::F64(0.0)), vec![], out_base + 2),
                instr(HopOp::Lit(ScalarValue::F64(1.0)), vec![], out_base + 3),
                instr(HopOp::Lit(ScalarValue::F64(1.0)), vec![], out_base + 4),
                instr(HopOp::Lit(ScalarValue::I64(42)), vec![], out_base + 5),
                instr(
                    HopOp::Lit(ScalarValue::Str("uniform".into())),
                    vec![],
                    out_base + 6,
                ),
                instr(
                    HopOp::Nary(lookup("rand").unwrap()),
                    (out_base..out_base + 7).collect(),
                    out_base + 7,
                ),
                instr(HopOp::Tsmm, vec![out_base + 7], out_base + 8),
            ]
        };
        // First run computes, second reuses (same seed → same lineage).
        let mut slots: Vec<Option<Slot>> = vec![None; 18];
        let symbols = SymbolTable::new();
        for i in mk(0) {
            execute(&i, &mut slots, &symbols, &c).unwrap();
        }
        for i in mk(9) {
            execute(&i, &mut slots, &symbols, &c).unwrap();
        }
        let a = slots[8].as_ref().unwrap().data.as_matrix().unwrap();
        let b = slots[17].as_ref().unwrap().data.as_matrix().unwrap();
        assert!(a.approx_eq(&b, 0.0));
        assert!(c.cache.stats().hits >= 1, "stats: {:?}", c.cache.stats());
    }

    #[test]
    fn indexing_is_one_based_inclusive() {
        let c = ctx();
        let mut slots: Vec<Option<Slot>> = vec![None; 6];
        let symbols = {
            let mut st = SymbolTable::new();
            st.set(
                "X",
                Data::from_matrix(Matrix::from_rows(&[&[1., 2., 3.], &[4., 5., 6.]]).unwrap()),
                None,
            );
            st
        };
        let instrs = vec![
            instr(HopOp::Var("X".into()), vec![], 0),
            instr(HopOp::Lit(ScalarValue::I64(1)), vec![], 1),
            instr(HopOp::Lit(ScalarValue::I64(2)), vec![], 2),
            instr(HopOp::Lit(ScalarValue::I64(2)), vec![], 3),
            instr(HopOp::Lit(ScalarValue::I64(3)), vec![], 4),
            instr(HopOp::Index, vec![0, 1, 2, 3, 4], 5),
        ];
        for i in &instrs {
            execute(i, &mut slots, &symbols, &c).unwrap();
        }
        let m = slots[5].as_ref().unwrap().data.as_matrix().unwrap();
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m.get(0, 0), 2.0);
        assert_eq!(m.get(1, 1), 6.0);
    }

    #[test]
    fn out_of_bounds_index_reports_error() {
        let c = ctx();
        let mut slots: Vec<Option<Slot>> = vec![None; 6];
        let mut st = SymbolTable::new();
        st.set("X", Data::from_matrix(Matrix::zeros(2, 2)), None);
        let instrs = vec![
            instr(HopOp::Var("X".into()), vec![], 0),
            instr(HopOp::Lit(ScalarValue::I64(1)), vec![], 1),
            instr(HopOp::Lit(ScalarValue::I64(5)), vec![], 2),
            instr(HopOp::Lit(ScalarValue::I64(1)), vec![], 3),
            instr(HopOp::Lit(ScalarValue::I64(1)), vec![], 4),
        ];
        for i in &instrs {
            execute(i, &mut slots, &st, &c).unwrap();
        }
        let bad = instr(HopOp::Index, vec![0, 1, 2, 3, 4], 5);
        assert!(execute(&bad, &mut slots, &st, &c).is_err());
    }

    #[test]
    fn print_captured() {
        let c = ctx();
        run(
            vec![
                instr(HopOp::Lit(ScalarValue::Str("hello".into())), vec![], 0),
                instr(HopOp::Nary(lookup("print").unwrap()), vec![0], 1),
            ],
            &c,
        );
        assert_eq!(c.take_stdout(), vec!["hello".to_string()]);
    }

    #[test]
    fn stop_raises() {
        let c = ctx();
        let mut slots: Vec<Option<Slot>> = vec![None; 2];
        let st = SymbolTable::new();
        execute(
            &instr(HopOp::Lit(ScalarValue::Str("bad".into())), vec![], 0),
            &mut slots,
            &st,
            &c,
        )
        .unwrap();
        let e = execute(
            &instr(HopOp::Nary(lookup("stop").unwrap()), vec![0], 1),
            &mut slots,
            &st,
            &c,
        )
        .unwrap_err();
        assert!(matches!(e, SysDsError::Stop(_)));
    }

    #[test]
    fn unseeded_rand_differs_across_calls() {
        let c = ctx();
        let mk = |base: usize| {
            vec![
                instr(HopOp::Lit(ScalarValue::I64(4)), vec![], base),
                instr(HopOp::Lit(ScalarValue::I64(4)), vec![], base + 1),
                instr(HopOp::Lit(ScalarValue::F64(0.0)), vec![], base + 2),
                instr(HopOp::Lit(ScalarValue::F64(1.0)), vec![], base + 3),
                instr(HopOp::Lit(ScalarValue::F64(1.0)), vec![], base + 4),
                instr(HopOp::Lit(ScalarValue::I64(-1)), vec![], base + 5),
                instr(
                    HopOp::Lit(ScalarValue::Str("uniform".into())),
                    vec![],
                    base + 6,
                ),
                instr(
                    HopOp::Nary(lookup("rand").unwrap()),
                    (base..base + 7).collect(),
                    base + 7,
                ),
            ]
        };
        let mut slots: Vec<Option<Slot>> = vec![None; 16];
        let st = SymbolTable::new();
        for i in mk(0).into_iter().chain(mk(8)) {
            execute(&i, &mut slots, &st, &c).unwrap();
        }
        let a = slots[7].as_ref().unwrap().data.as_matrix().unwrap();
        let b = slots[15].as_ref().unwrap().data.as_matrix().unwrap();
        assert!(!a.approx_eq(&b, 0.0), "unseeded rand must differ");
    }
}
