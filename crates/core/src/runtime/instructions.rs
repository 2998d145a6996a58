//! Instruction execution: local (CP) and federated instructions (paper
//! §2.3 (4)), with lineage tracing and reuse hooks around every operation
//! (§3.1). Each instruction runs its operator's row: the row's effect
//! decides whether the lineage is known before the kernel runs, its reuse
//! flag whether the cache is probed and offered the result, and its
//! partial-reuse probe whether a miss can be composed from cached pieces.
//! An instruction with a federated input runs the row's federated kernel,
//! which pushes the operator to the sites, or fails with one error when
//! the row has none.

use crate::builtins::runtime::{Effect, Operator, Param};
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
use sysds_common::{EngineConfig, Result, SysDsError};
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
    pub fn wrap_matrix(&self, m: impl Into<Arc<Matrix>>) -> Result<Data> {
        let m = m.into();
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

/// Execute one lowered instruction against the slot file.
pub fn execute(
    instr: &Instr,
    slots: &mut [Option<Slot>],
    symbols: &SymbolTable,
    ctx: &ExecCtx,
) -> Result<()> {
    let out = match &instr.op {
        HopOp::Lit(v) => {
            let lineage = trace_enabled(ctx).then(|| LineageItem::leaf(format!("lit:{v}")));
            Slot {
                data: Data::Scalar(v.clone()),
                lineage,
            }
        }
        HopOp::Var(name) => {
            let entry = symbols.get(name)?;
            let lineage = trace_enabled(ctx).then(|| {
                let leaf = || data_leaf(&entry.data, name);
                entry.lineage.clone().unwrap_or_else(leaf)
            });
            Slot {
                data: entry.data.clone(),
                lineage,
            }
        }
        HopOp::Op(row, param) => {
            let inputs: Vec<&Slot> = instr
                .inputs
                .iter()
                .map(|&i| slots[i].as_ref().expect("inputs computed before use"))
                .collect();
            let out = execute_op(row, param, &inputs, ctx)?;
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

fn execute_op(row: &Operator, param: &Param, inputs: &[&Slot], ctx: &ExecCtx) -> Result<Slot> {
    // 1. Compute output lineage and probe the reuse cache. A seeded kernel
    // names the result by the seed it drew.
    let seeded = matches!(row.effect, Effect::Seeded(_));
    let mut lineage = if trace_enabled(ctx) && !seeded {
        inputs
            .iter()
            .map(|s| s.lineage.clone())
            .collect::<Option<Vec<_>>>()
            .map(|ins| LineageItem::node(row.opcode(param), ins))
    } else {
        None
    };
    if let Some(lin) = lineage.as_ref().filter(|_| row.reuse) {
        // A hit shares the cached matrix instead of copying it.
        if let Some(hit) = ctx.cache.probe(lin) {
            let data = ctx.wrap_matrix(hit)?;
            return Ok(Slot { data, lineage });
        }
        // Partial reuse: compensation plans over cbind (paper §3.1). The
        // probes read the inputs, so they need local matrices.
        let local = inputs.iter().all(|s| matches!(s.data, Data::Matrix(_)));
        if let (Some(probe), true) = (row.partial, local) {
            let xs = inputs.iter().map(|s| s.data.as_matrix());
            let xs = xs.collect::<Result<Vec<_>>>()?;
            if let Some(hit) = probe(&ctx.cache, lin, &xs, ctx.config.num_threads)? {
                ctx.cache.put(lin, hit.clone(), u128::MAX / 2);
                let data = ctx.wrap_matrix(hit)?;
                return Ok(Slot { data, lineage });
            }
        }
    }

    // 2. Execute. The span is inert (one relaxed load) unless `--stats`
    // or `--trace` is on; the existing Instant keeps feeding the lineage
    // cache's cost model either way.
    let start = Instant::now();
    let (data, lineage_override) = {
        let _span =
            sysds_obs::Span::enter_with(sysds_obs::Phase::Instruction, || row.opcode(param));
        dispatch(row, param, inputs, ctx)?
    };
    let elapsed = start.elapsed().as_nanos();
    if let Some(l) = lineage_override {
        lineage = trace_enabled(ctx).then_some(l);
    }

    // 3. Offer the result for caching.
    if let (Some(lin), Data::Matrix(h), true) = (&lineage, &data, row.reuse) {
        ctx.cache.put(lin, h.acquire()?, elapsed);
    }
    Ok(Slot { data, lineage })
}

/// An operator's output and, where it is not the operator's own, its
/// lineage.
pub(crate) type DispatchResult = Result<(Data, Option<Arc<LineageItem>>)>;

/// Run `row`'s kernel, or its federated kernel when an input is federated.
pub(crate) fn dispatch(
    row: &Operator,
    param: &Param,
    inputs: &[&Slot],
    ctx: &ExecCtx,
) -> DispatchResult {
    if !inputs.iter().any(|s| matches!(s.data, Data::Federated(_))) {
        return (row.kernel)(param, inputs, ctx);
    }
    let kernel = row.fed.ok_or_else(|| row.rejects(param))?;
    kernel(param, inputs, ctx)
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use crate::builtins::runtime::{lookup, RIGHT_INDEX, TSMM};
    use crate::compiler::hop::SizeInfo;
    use sysds_common::ScalarValue;
    use sysds_tensor::kernels::BinaryOp;

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
                instr(HopOp::binary(BinaryOp::Add), vec![0, 1], 2),
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
                instr(HopOp::binary(BinaryOp::Mul), vec![0, 1], 2),
                instr(HopOp::binary(BinaryOp::Div), vec![0, 1], 3),
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
                instr(HopOp::binary(BinaryOp::Add), vec![0, 1], 2),
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

    /// `X = rand(200, 60, seed=42); tsmm(X)` into slots `base..base + 9`.
    fn rand_tsmm(base: usize) -> Vec<Instr> {
        let lit = |v: ScalarValue, out: usize| instr(HopOp::Lit(v), vec![], out);
        vec![
            lit(ScalarValue::I64(200), base),
            lit(ScalarValue::I64(60), base + 1),
            lit(ScalarValue::F64(0.0), base + 2),
            lit(ScalarValue::F64(1.0), base + 3),
            lit(ScalarValue::F64(1.0), base + 4),
            lit(ScalarValue::I64(42), base + 5),
            lit(ScalarValue::Str("uniform".into()), base + 6),
            instr(
                HopOp::op(lookup("rand").unwrap()),
                (base..base + 7).collect(),
                base + 7,
            ),
            instr(HopOp::op(TSMM), vec![base + 7], base + 8),
        ]
    }

    /// Runs [`rand_tsmm`] twice under reuse: the first run computes, the
    /// second reuses (same seed, same lineage).
    fn twice_with_reuse() -> (ExecCtx, Vec<Option<Slot>>) {
        let mut config = EngineConfig::with_reuse();
        config.spill_dir = sysds_common::testing::unique_temp_dir("sysds-instr-tests");
        let c = ExecCtx::new(config).unwrap();
        let mut slots: Vec<Option<Slot>> = vec![None; 18];
        let symbols = SymbolTable::new();
        for i in rand_tsmm(0).into_iter().chain(rand_tsmm(9)) {
            execute(&i, &mut slots, &symbols, &c).unwrap();
        }
        (c, slots)
    }

    #[test]
    fn rand_and_tsmm_with_cache() {
        let (c, slots) = twice_with_reuse();
        let a = slots[8].as_ref().unwrap().data.as_matrix().unwrap();
        let b = slots[17].as_ref().unwrap().data.as_matrix().unwrap();
        assert!(a.approx_eq(&b, 0.0));
        assert!(c.cache.stats().hits >= 1, "stats: {:?}", c.cache.stats());
    }

    #[test]
    fn cache_hits_share_the_cached_matrix() {
        let (c, slots) = twice_with_reuse();
        let hit = slots[17].as_ref().unwrap();
        let cached = c.cache.probe(hit.lineage.as_ref().unwrap()).unwrap();
        let out = hit.data.as_matrix().unwrap();
        assert!(Arc::ptr_eq(&out, &cached), "the hit must not copy");
        let computed = slots[8].as_ref().unwrap().data.as_matrix().unwrap();
        assert_eq!(out.to_vec(), computed.to_vec(), "bitwise equal");
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
            instr(HopOp::op(RIGHT_INDEX), vec![0, 1, 2, 3, 4], 5),
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
        let bad = instr(HopOp::op(RIGHT_INDEX), vec![0, 1, 2, 3, 4], 5);
        assert!(execute(&bad, &mut slots, &st, &c).is_err());
    }

    #[test]
    fn print_captured() {
        let c = ctx();
        run(
            vec![
                instr(HopOp::Lit(ScalarValue::Str("hello".into())), vec![], 0),
                instr(HopOp::op(lookup("print").unwrap()), vec![0], 1),
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
            &instr(HopOp::op(lookup("stop").unwrap()), vec![0], 1),
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
                    HopOp::op(lookup("rand").unwrap()),
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
