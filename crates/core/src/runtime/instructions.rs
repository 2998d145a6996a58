//! Instruction execution: local (CP) and federated instructions (paper
//! §2.3 (4)), with lineage tracing and reuse hooks around every operation
//! (§3.1). Every operator has one local kernel; federated operands push the
//! operator to the sites instead.

use crate::compiler::hop::HopOp;
use crate::compiler::lower::Instr;
use crate::lineage::{LineageCache, LineageItem};
use crate::runtime::bufferpool::BufferPool;
use crate::runtime::value::{Data, SymbolTable};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use sysds_common::sync::lock;
use sysds_common::{EngineConfig, Result, ScalarValue, SysDsError};
use sysds_frame::{TransformEncoder, TransformSpec};
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
}

static SEED_COUNTER: AtomicU64 = AtomicU64::new(0x5D5_0001);

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
        })
    }

    fn print(&self, line: String) {
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

fn trace_enabled(ctx: &ExecCtx) -> bool {
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
fn fresh_leaf(kind: &str) -> Arc<LineageItem> {
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
    let mut lineage = if trace_enabled(ctx) {
        // `rand` embeds its (possibly generated) seed below instead.
        if matches!(op, HopOp::Nary("rand")) {
            None
        } else {
            out_lineage(op, inputs, None)
        }
    } else {
        None
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
                if let Some(hit) = ctx.cache.probe_partial_tsmm(
                    lin,
                    &xi,
                    ctx.config.num_threads,
                    ctx.config.native_blas,
                )? {
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
            | HopOp::Nary("solve")
            | HopOp::Nary("inv")
            | HopOp::Nary("cholesky")
            | HopOp::Nary("cbind")
            | HopOp::Nary("rbind")
            | HopOp::Nary("rand") // seeded rand is deterministic; seed is in the lineage
    )
}

type DispatchResult = Result<(Data, Option<Arc<LineageItem>>)>;

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
                let v = data(1).as_matrix()?;
                let out = f.mat_vec(&v)?;
                return Ok((Data::Federated(Arc::new(out)), None));
            }
            let (a, b) = (data(0).as_matrix()?, data(1).as_matrix()?);
            let m = matmult::matmul(&a, &b, ctx.config.num_threads, ctx.config.native_blas)?;
            Ok((ctx.wrap_matrix(m)?, None))
        }
        HopOp::Tsmm => {
            if let Data::Federated(f) = data(0) {
                return Ok((ctx.wrap_matrix(f.tsmm()?)?, None));
            }
            let x = data(0).as_matrix()?;
            let m = tsmm::tsmm(&x, ctx.config.num_threads, ctx.config.native_blas);
            Ok((ctx.wrap_matrix(m)?, None))
        }
        HopOp::Tmv => {
            if let (Data::Federated(fx), Data::Federated(fy)) = (data(0), data(1)) {
                return Ok((ctx.wrap_matrix(fx.tmv(fy)?)?, None));
            }
            let (x, y) = (data(0).as_matrix()?, data(1).as_matrix()?);
            Ok((
                ctx.wrap_matrix(tsmm::tmv(&x, &y, ctx.config.num_threads)?)?,
                None,
            ))
        }
        HopOp::MmChain => {
            // Federated X splits the chain back into the site-side mat-vec
            // (kept at the sites) and tmv, as the unfused plan would run.
            if let Data::Federated(fx) = data(0) {
                let xv = fx.mat_vec(&*data(1).as_matrix()?)?;
                return Ok((ctx.wrap_matrix(fx.tmv(&xv)?)?, None));
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
        HopOp::Nary(name) => nary_dispatch(name, inputs, ctx),
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
            let out = f.scalar_op(b, c.as_f64()?)?;
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
            let out = a.binary_op(b, c)?;
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
    match (f, d) {
        (AggFn::Sum, Direction::Col) => Ok((ctx.wrap_matrix(fed.col_sums()?)?, None)),
        (AggFn::Sum, Direction::Full) => {
            let cs = fed.col_sums()?;
            Ok((
                Data::from_f64(aggregate::aggregate_full(AggFn::Sum, &cs)?),
                None,
            ))
        }
        (AggFn::SumSq, Direction::Full) => Ok((Data::from_f64(fed.sum_sq()?), None)),
        (AggFn::Mean, Direction::Full) => {
            let cs = fed.col_sums()?;
            let total = aggregate::aggregate_full(AggFn::Sum, &cs)?;
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

fn nary_dispatch(name: &str, inputs: &[&Slot], ctx: &ExecCtx) -> DispatchResult {
    let data = |k: usize| -> &Data { &inputs[k].data };
    match name {
        "rand" => {
            let rows = data(0).as_i64()? as usize;
            let cols = data(1).as_i64()? as usize;
            let min = data(2).as_f64()?;
            let max = data(3).as_f64()?;
            let sparsity = data(4).as_f64()?;
            let mut seed = data(5).as_i64()?;
            let pdf = data(6).as_scalar()?.to_display_string();
            if seed < 0 {
                // Non-determinism is made explicit: generate a fresh seed
                // and record it in the lineage (paper §3.1).
                seed = SEED_COUNTER.fetch_add(1, Ordering::Relaxed) as i64;
            }
            let m = match pdf.as_str() {
                "normal" => {
                    let base = gen::rand_normal(rows, cols, sparsity, seed as u64);
                    // scale into [min,max] semantics not defined for normal;
                    // keep standard normal like SystemDS.
                    base
                }
                _ => gen::rand_uniform(rows, cols, min, max, sparsity, seed as u64),
            };
            let lin = trace_enabled(ctx).then(|| {
                LineageItem::leaf(format!(
                    "rand:{rows}:{cols}:{min}:{max}:{sparsity}:{seed}:{pdf}"
                ))
            });
            Ok((ctx.wrap_matrix(m)?, lin))
        }
        "matrix" => {
            let rows = data(1).as_i64()? as usize;
            let cols = data(2).as_i64()? as usize;
            let m = match data(0) {
                Data::Scalar(s) => Matrix::filled(rows, cols, s.as_f64()?),
                d => reorg::reshape(&*d.as_matrix()?, rows, cols)?,
            };
            Ok((ctx.wrap_matrix(m)?, None))
        }
        "seq" => {
            let (f, t, i) = (data(0).as_f64()?, data(1).as_f64()?, data(2).as_f64()?);
            Ok((ctx.wrap_matrix(gen::seq(f, t, i)?)?, None))
        }
        "solve" => {
            let (a, b) = (data(0).as_matrix()?, data(1).as_matrix()?);
            Ok((ctx.wrap_matrix(solve::solve(&a, &b)?)?, None))
        }
        "inv" => Ok((
            ctx.wrap_matrix(solve::inverse(&*data(0).as_matrix()?)?)?,
            None,
        )),
        "cholesky" => Ok((
            ctx.wrap_matrix(solve::cholesky(&*data(0).as_matrix()?)?)?,
            None,
        )),
        "det" => Ok((Data::from_f64(solve::det(&*data(0).as_matrix()?)?), None)),
        "diag" => Ok((ctx.wrap_matrix(reorg::diag(&*data(0).as_matrix()?)?)?, None)),
        "trace" => Ok((
            Data::from_f64(aggregate::trace(&*data(0).as_matrix()?)?),
            None,
        )),
        "nrow" => Ok((
            Data::Scalar(ScalarValue::I64(dim_of(data(0), true)? as i64)),
            None,
        )),
        "ncol" => Ok((
            Data::Scalar(ScalarValue::I64(dim_of(data(0), false)? as i64)),
            None,
        )),
        "length" => {
            let (r, c) = (dim_of(data(0), true)?, dim_of(data(0), false)?);
            Ok((Data::Scalar(ScalarValue::I64((r * c) as i64)), None))
        }
        "nnz" => Ok((
            Data::Scalar(ScalarValue::I64(data(0).as_matrix()?.nnz() as i64)),
            None,
        )),
        "cbind" => {
            let (a, b) = (data(0).as_matrix()?, data(1).as_matrix()?);
            Ok((ctx.wrap_matrix(indexing::cbind(&a, &b)?)?, None))
        }
        "rbind" => {
            let (a, b) = (data(0).as_matrix()?, data(1).as_matrix()?);
            Ok((ctx.wrap_matrix(indexing::rbind(&a, &b)?)?, None))
        }
        "cumsum" => Ok((
            ctx.wrap_matrix(aggregate::cumsum(&*data(0).as_matrix()?))?,
            None,
        )),
        "cumprod" => Ok((
            ctx.wrap_matrix(aggregate::cumprod(&*data(0).as_matrix()?))?,
            None,
        )),
        "rev" => Ok((ctx.wrap_matrix(reorg::rev(&*data(0).as_matrix()?))?, None)),
        "quantile" => {
            let x = data(0).as_matrix()?;
            let p = data(1).as_f64()?;
            Ok((Data::from_f64(aggregate::quantile(&x, p)?), None))
        }
        "median" => Ok((
            Data::from_f64(aggregate::median(&*data(0).as_matrix()?)?),
            None,
        )),
        "table" => {
            let (a, b) = (data(0).as_matrix()?, data(1).as_matrix()?);
            Ok((ctx.wrap_matrix(gen::table(&a, &b)?)?, None))
        }
        "outer" => {
            let (a, b) = (data(0).as_matrix()?, data(1).as_matrix()?);
            let opname = data(2).as_scalar()?.to_display_string();
            let op = match opname.as_str() {
                "+" => BinaryOp::Add,
                "-" => BinaryOp::Sub,
                "*" => BinaryOp::Mul,
                "/" => BinaryOp::Div,
                "<" => BinaryOp::Lt,
                "<=" => BinaryOp::Le,
                ">" => BinaryOp::Gt,
                ">=" => BinaryOp::Ge,
                "==" => BinaryOp::Eq,
                "!=" => BinaryOp::Neq,
                "min" => BinaryOp::Min,
                "max" => BinaryOp::Max,
                other => return Err(SysDsError::runtime(format!("outer: unknown op '{other}'"))),
            };
            Ok((ctx.wrap_matrix(gen::outer(&a, &b, op)?)?, None))
        }
        "rowIndexMax" => Ok((
            ctx.wrap_matrix(aggregate::row_index_max(&*data(0).as_matrix()?))?,
            None,
        )),
        "order" => {
            let x = data(0).as_matrix()?;
            let by = data(1).as_i64()?;
            if by < 1 || by as usize > x.cols() {
                return Err(SysDsError::IndexOutOfBounds {
                    msg: format!("order by column {by}"),
                });
            }
            let dec = data(2).as_bool()?;
            let idx = data(3).as_bool()?;
            Ok((
                ctx.wrap_matrix(reorg::order(&x, by as usize - 1, dec, idx)?)?,
                None,
            ))
        }
        "removeEmpty" => {
            let x = data(0).as_matrix()?;
            let margin = data(1).as_scalar()?.to_display_string();
            let by_rows = match margin.as_str() {
                "rows" => true,
                "cols" => false,
                other => return Err(SysDsError::runtime(format!("removeEmpty margin '{other}'"))),
            };
            Ok((ctx.wrap_matrix(indexing::remove_empty(&x, by_rows))?, None))
        }
        "replace" => {
            let x = data(0).as_matrix()?;
            let (p, r) = (data(1).as_f64()?, data(2).as_f64()?);
            Ok((ctx.wrap_matrix(indexing::replace(&x, p, r))?, None))
        }
        "ifelse" => match data(0) {
            Data::Scalar(s) => {
                let pick = if s.as_bool()? { data(1) } else { data(2) };
                Ok((
                    pick.clone(),
                    inputs[if s.as_bool()? { 1 } else { 2 }].lineage.clone(),
                ))
            }
            d => {
                let c = d.as_matrix()?;
                let (y, n) = (data(1).as_matrix()?, data(2).as_matrix()?);
                Ok((ctx.wrap_matrix(elementwise::ifelse(&c, &y, &n)?)?, None))
            }
        },
        "as.scalar" => Ok((Data::Scalar(data(0).as_scalar()?), None)),
        "as.matrix" => Ok((ctx.wrap_matrix((*data(0).as_matrix()?).clone())?, None)),
        "as.integer" => Ok((Data::Scalar(ScalarValue::I64(data(0).as_i64()?)), None)),
        "as.double" => Ok((Data::Scalar(ScalarValue::F64(data(0).as_f64()?)), None)),
        "as.logical" => Ok((Data::Scalar(ScalarValue::Bool(data(0).as_bool()?)), None)),
        "toString" => {
            let s = match data(0) {
                Data::Scalar(s) => s.to_display_string(),
                Data::Matrix(h) => format!("{}", h.acquire()?),
                Data::Frame(f) => format!("frame({}x{})", f.rows(), f.cols()),
                Data::Federated(f) => format!("federated({}x{})", f.rows(), f.cols()),
                Data::Empty => "empty".into(),
            };
            Ok((Data::Scalar(ScalarValue::Str(s)), None))
        }
        "print" => {
            let s = match data(0) {
                Data::Scalar(s) => s.to_display_string(),
                Data::Matrix(h) => format!("{}", h.acquire()?),
                other => format!("<{}>", other.kind()),
            };
            ctx.print(s);
            Ok((Data::Empty, Some(LineageItem::leaf("print"))))
        }
        "stop" => {
            let msg = data(0).as_scalar()?.to_display_string();
            Err(SysDsError::Stop(msg))
        }
        "read" => {
            let path = data(0).as_scalar()?.to_display_string();
            let format = data(1).as_scalar()?.to_display_string();
            let data_type = data(2).as_scalar()?.to_display_string();
            let header = data(3).as_bool()?;
            let lin = trace_enabled(ctx).then(|| LineageItem::leaf(format!("read:{path}")));
            let mut desc = sysds_io::FormatDescriptor::csv().with_header(header);
            if format == "tsv" {
                desc = sysds_io::FormatDescriptor::tsv().with_header(header);
            }
            match (data_type.as_str(), format.as_str()) {
                ("frame", _) => {
                    let f = sysds_io::csv::read_frame(&path, &desc)?.detect_schema();
                    Ok((Data::Frame(Arc::new(f)), lin))
                }
                (_, "binary") => Ok((ctx.wrap_matrix(sysds_io::binary::read_matrix(&path)?)?, lin)),
                (_, "mm" | "matrixmarket") => Ok((
                    ctx.wrap_matrix(sysds_io::formats::read_matrix_market(&path)?)?,
                    lin,
                )),
                _ => {
                    let m = sysds_io::csv::read_matrix(&path, &desc, ctx.config.num_threads)?;
                    Ok((ctx.wrap_matrix(m)?, lin))
                }
            }
        }
        "write" => {
            let path = data(1).as_scalar()?.to_display_string();
            let format = data(2).as_scalar()?.to_display_string();
            match (data(0), format.as_str()) {
                (Data::Frame(f), _) => sysds_io::csv::write_frame(
                    &path,
                    f,
                    &sysds_io::FormatDescriptor::csv().with_header(true),
                )?,
                (d, "binary") => sysds_io::binary::write_matrix(&path, &*d.as_matrix()?)?,
                (d, _) => {
                    let m = d.as_matrix()?;
                    sysds_io::csv::write_matrix(&path, &m, &sysds_io::FormatDescriptor::csv())?;
                    sysds_io::Metadata::matrix(m.rows(), m.cols(), m.nnz(), "csv").save(&path)?;
                }
            }
            Ok((
                Data::Empty,
                Some(LineageItem::leaf(format!("write:{path}"))),
            ))
        }
        "transformencode" => {
            let spec = parse_transform_spec(&data(1).as_scalar()?.to_display_string())?;
            let encoder = TransformEncoder::fit(&*data(0).as_frame()?, &spec)?;
            Ok((Data::Frame(Arc::new(encoder.to_metadata())), None))
        }
        "transformapply" => {
            let encoder = TransformEncoder::from_metadata(&*data(1).as_frame()?)?;
            Ok((
                ctx.wrap_matrix(encoder.apply(&*data(0).as_frame()?)?)?,
                None,
            ))
        }
        // `cbind(values, vectors)`; the compiler splits it by right indexing.
        "eigen" => {
            let (w, v) = solve::eigen_symmetric(&*data(0).as_matrix()?)?;
            Ok((ctx.wrap_matrix(indexing::cbind(&w, &v)?)?, None))
        }
        "paramserv" => paramserv(inputs, ctx),
        other => Err(SysDsError::runtime(format!(
            "unimplemented builtin '{other}'"
        ))),
    }
}

/// The `paramserv` builtin (paper §2.3 (4)): mini-batch training with a
/// local parameter server. `w = paramserv(X=X, y=y, epochs=20,
/// batchsize=32, lr=0.1, mode="BSP", workers=4)`; the defaults are the
/// values shown, except that an omitted `workers` (no seventh input) is the
/// engine's thread count. `epochs`, `batchsize` and `workers` must be at
/// least 1. ASP results depend on thread timing, so the output gets a
/// lineage leaf of its own.
fn paramserv(inputs: &[&Slot], ctx: &ExecCtx) -> DispatchResult {
    use crate::runtime::paramserver::{train_linreg, PsConfig, UpdateMode};
    let data = |k: usize| -> &Data { &inputs[k].data };
    let count = |k: usize, name: &str| -> Result<usize> {
        let v = data(k).as_f64()?;
        if v >= 1.0 {
            Ok(v as usize)
        } else {
            Err(SysDsError::runtime(format!(
                "paramserv {name} must be at least 1, got {v}"
            )))
        }
    };
    let epochs = count(2, "epochs")?;
    let batch_size = count(3, "batchsize")?;
    let learning_rate = data(4).as_f64()?;
    let mode = match data(5).as_scalar()?.to_display_string().as_str() {
        "BSP" | "bsp" => UpdateMode::Bsp,
        "ASP" | "asp" => UpdateMode::Asp,
        other => return Err(SysDsError::runtime(format!("paramserv mode '{other}'"))),
    };
    let workers = match inputs.len() {
        7 => count(6, "workers")?,
        _ => ctx.config.num_threads,
    };
    let config = PsConfig {
        workers,
        epochs,
        batch_size,
        learning_rate,
        mode,
    };
    let w = train_linreg(&*data(0).as_matrix()?, &*data(1).as_matrix()?, &config)?;
    let lineage = trace_enabled(ctx).then(|| fresh_leaf("paramserv"));
    Ok((ctx.wrap_matrix(w)?, lineage))
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

fn dim_of(d: &Data, rows: bool) -> Result<usize> {
    Ok(match d {
        Data::Matrix(h) => {
            let (r, c) = h
                .shape()
                .ok_or_else(|| SysDsError::runtime("shapeless matrix"))?;
            if rows {
                r
            } else {
                c
            }
        }
        Data::Frame(f) => {
            if rows {
                f.rows()
            } else {
                f.cols()
            }
        }
        Data::Federated(f) => {
            if rows {
                f.rows()
            } else {
                f.cols()
            }
        }
        Data::Scalar(_) => 1,
        Data::Empty => return Err(SysDsError::runtime("nrow/ncol of empty value")),
    })
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
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
                    HopOp::Nary("rand"),
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
                instr(HopOp::Nary("print"), vec![0], 1),
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
        let e = execute(&instr(HopOp::Nary("stop"), vec![0], 1), &mut slots, &st, &c).unwrap_err();
        assert!(matches!(e, SysDsError::Stop(_)));
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
                instr(HopOp::Nary("rand"), (base..base + 7).collect(), base + 7),
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
