//! Embedding APIs (paper §2.2 (1)).
//!
//! * [`SystemDS`] — an `MLContext`-style session: compile + execute DML
//!   scripts with in-memory inputs and named outputs. The session owns the
//!   engine state (buffer pool, lineage cache), so reuse carries across
//!   `execute` calls.
//! * [`PreparedScript`] — the `JMLC`-style embedded scoring API: a script
//!   is pre-compiled once and then executed repeatedly with different
//!   in-memory inputs at low latency.

use crate::builtins;
use crate::compiler::{compile_program, CompiledProgram};
use crate::lineage::{CacheStats, LineageItem};
use crate::parser::parse_program;
use crate::runtime::instructions::{data_leaf, ExecCtx};
use crate::runtime::value::{Data, SymbolTable};
use crate::runtime::Interpreter;
use std::sync::Arc;
use sysds_common::{EngineConfig, NetConfig, Result, ScalarValue, SysDsError};
use sysds_fed::{FederatedMatrix, Transport, WorkerHandle};
use sysds_frame::Frame;
use sysds_net::TcpTransport;
use sysds_tensor::Matrix;

/// Outputs of one script execution.
#[derive(Debug, Default)]
pub struct ScriptOutputs {
    values: Vec<(String, Data)>,
    lineages: Vec<(String, Option<Arc<LineageItem>>)>,
    /// Captured `print` output lines.
    pub stdout: Vec<String>,
}

impl ScriptOutputs {
    /// Look up an output by name.
    pub fn get(&self, name: &str) -> Result<&Data> {
        self.values
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, d)| d)
            .ok_or_else(|| SysDsError::runtime(format!("no output '{name}'")))
    }

    /// An output as a matrix.
    pub fn matrix(&self, name: &str) -> Result<Arc<Matrix>> {
        self.get(name)?.as_matrix()
    }

    /// An output as a scalar.
    pub fn scalar(&self, name: &str) -> Result<ScalarValue> {
        self.get(name)?.as_scalar()
    }

    /// An output as an f64.
    pub fn f64(&self, name: &str) -> Result<f64> {
        self.get(name)?.as_f64()
    }

    /// An output as a frame.
    pub fn frame(&self, name: &str) -> Result<Arc<Frame>> {
        self.get(name)?.as_frame()
    }

    /// The lineage DAG of an output (requires `lineage: true` in the
    /// engine config). This is the paper's §3.1 provenance: every logical
    /// operation, literal, named input, and generated seed that produced
    /// the value.
    pub fn lineage(&self, name: &str) -> Option<Arc<LineageItem>> {
        self.lineages
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, l)| l.clone())
    }

    /// The lineage serialized as a numbered trace, for debugging queries.
    pub fn lineage_trace(&self, name: &str) -> Option<String> {
        self.lineage(name).map(|l| l.trace())
    }
}

/// An `MLContext`-style session.
pub struct SystemDS {
    ctx: Arc<ExecCtx>,
}

impl Default for SystemDS {
    fn default() -> Self {
        Self::new()
    }
}

impl SystemDS {
    /// Session with default configuration.
    pub fn new() -> SystemDS {
        Self::with_config(EngineConfig::default()).expect("default config is valid")
    }

    /// Session with an explicit configuration.
    pub fn with_config(config: EngineConfig) -> Result<SystemDS> {
        Ok(SystemDS {
            ctx: Arc::new(ExecCtx::new(config)?),
        })
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.ctx.config
    }

    /// Echo `print` output to the process stdout as well as capturing it.
    pub fn echo_stdout(&mut self, echo: bool) {
        Arc::get_mut(&mut self.ctx)
            .expect("echo_stdout requires exclusive session access")
            .echo = echo;
    }

    /// Lineage-cache statistics (hits/misses/partial hits).
    pub fn cache_stats(&self) -> CacheStats {
        self.ctx.cache.stats()
    }

    /// Snapshot the session's runtime statistics: instruction heavy
    /// hitters, compiler-phase times, buffer-pool / parfor / federated
    /// counters, and lineage-cache stats. Only populated when the engine
    /// config enabled `stats` (or [`sysds_obs::enable_stats`] was called).
    pub fn run_report(&self) -> RunReport {
        use sysds_obs::Phase;
        let compiler_phases = [
            Phase::Parse,
            Phase::HopBuild,
            Phase::Rewrite,
            Phase::SizeProp,
            Phase::Lower,
            Phase::Recompile,
        ]
        .into_iter()
        .filter_map(sysds_obs::report::phase_summary)
        .collect();
        RunReport {
            heavy_hitters: sysds_obs::registry::heavy_hitters(Phase::Instruction, 10),
            compiler_phases,
            counters: sysds_obs::counters().snapshot(),
            cache: self.ctx.cache.stats(),
            audit: sysds_obs::audit::worst_offenders(10),
            recompile_triggers: sysds_obs::audit::recompile_triggers(),
            net_sites: sysds_obs::net::site_stats(),
        }
    }

    /// Clear the lineage reuse cache.
    pub fn clear_cache(&self) {
        self.ctx.cache.clear();
    }

    /// Export the spans buffered for `chrome_trace_file` as Chrome
    /// `trace_event` JSON. Returns the path written, or `None` when the
    /// config did not request a Chrome trace. Drains the buffer, so call
    /// once after the run(s) of interest.
    pub fn export_chrome_trace(&self) -> Result<Option<std::path::PathBuf>> {
        let Some(path) = self.ctx.config.chrome_trace_file.clone() else {
            return Ok(None);
        };
        let records = sysds_obs::take_memory_trace();
        sysds_obs::chrome_trace::write_chrome_trace(&path, &records)
            .map_err(|e| SysDsError::runtime(format!("cannot write chrome trace: {e}")))?;
        Ok(Some(path))
    }

    /// Compile a script (exposed for inspection and tests).
    pub fn compile(&self, script: &str) -> Result<Arc<CompiledProgram>> {
        let ast = {
            let _span = sysds_obs::Span::enter(sysds_obs::Phase::Parse, "parse");
            parse_program(script)?
        };
        let program = {
            let _span = sysds_obs::Span::enter(sysds_obs::Phase::HopBuild, "hop_build");
            compile_program(&ast, &builtins::resolve)?
        };
        Ok(Arc::new(program))
    }

    /// Compile and execute a script with in-memory `inputs`, returning the
    /// requested `outputs`.
    pub fn execute(
        &mut self,
        script: &str,
        inputs: &[(&str, Data)],
        outputs: &[&str],
    ) -> Result<ScriptOutputs> {
        let program = self.compile(script)?;
        self.execute_program(&program, inputs, outputs)
    }

    /// Execute an already-compiled program (see [`SystemDS::compile`]).
    /// Lets callers explain and execute the same compilation — the CLI's
    /// `--explain` path compiles exactly once.
    pub fn execute_program(
        &mut self,
        program: &Arc<CompiledProgram>,
        inputs: &[(&str, Data)],
        outputs: &[&str],
    ) -> Result<ScriptOutputs> {
        run_program(&self.ctx, program, inputs, outputs)
    }

    /// Render a compiled program at the requested explain level — HOP DAGs
    /// with propagated sizes/estimates, or lowered runtime instructions
    /// (the CLI's `--explain hops|runtime`).
    pub fn explain(
        &self,
        program: &CompiledProgram,
        level: crate::compiler::explain::ExplainLevel,
    ) -> String {
        crate::compiler::explain::explain(program, &self.ctx.config, level)
    }

    /// Stable 64-bit fingerprint of the plan this session's configuration
    /// would execute for `program` (hash of the runtime-level explain).
    pub fn plan_fingerprint(&self, program: &CompiledProgram) -> u64 {
        crate::compiler::explain::plan_fingerprint(program, &self.ctx.config)
    }

    /// Pre-compile a script for repeated low-latency execution (JMLC).
    pub fn prepare(&self, script: &str, outputs: &[&str]) -> Result<PreparedScript> {
        let program = self.compile(script)?;
        Ok(PreparedScript {
            ctx: self.ctx.clone(),
            program,
            outputs: outputs.iter().map(|s| s.to_string()).collect(),
        })
    }

    /// Scatter a matrix across fresh in-process federated workers and wrap
    /// it as a federated input value (paper §3.3).
    pub fn federate(&self, m: &Matrix, num_workers: usize) -> Result<Data> {
        let workers: Vec<Arc<dyn Transport>> = (0..num_workers.max(1))
            .map(|_| {
                Arc::new(WorkerHandle::spawn(vec![], self.ctx.config.num_threads))
                    as Arc<dyn Transport>
            })
            .collect();
        let fed = FederatedMatrix::scatter(m, &workers)?;
        Ok(Data::Federated(Arc::new(fed)))
    }

    /// Scatter several row-aligned matrices (e.g. features and labels)
    /// across ONE shared set of federated workers, so federated
    /// instructions can combine them site-locally.
    pub fn federate_many(&self, ms: &[&Matrix], num_workers: usize) -> Result<Vec<Data>> {
        let workers: Vec<Arc<dyn Transport>> = (0..num_workers.max(1))
            .map(|_| {
                Arc::new(WorkerHandle::spawn(vec![], self.ctx.config.num_threads))
                    as Arc<dyn Transport>
            })
            .collect();
        ms.iter()
            .map(|m| {
                Ok(Data::Federated(Arc::new(FederatedMatrix::scatter(
                    m, &workers,
                )?)))
            })
            .collect()
    }

    /// Connect to remote TCP federated sites (one `host:port` per site,
    /// each running `sysds worker --listen`). The returned transports plug
    /// into [`SystemDS::federate_with`] so federated instructions and the
    /// learning algorithms run unchanged over the network.
    pub fn connect_sites(&self, addrs: &[&str], cfg: NetConfig) -> Result<Vec<Arc<dyn Transport>>> {
        addrs
            .iter()
            .map(|a| Ok(Arc::new(TcpTransport::connect(a, cfg)?) as Arc<dyn Transport>))
            .collect()
    }

    /// Scatter a matrix across an explicit set of transports (in-process
    /// workers, TCP sites, or a mix).
    pub fn federate_with(&self, m: &Matrix, workers: &[Arc<dyn Transport>]) -> Result<Data> {
        Ok(Data::Federated(Arc::new(FederatedMatrix::scatter(
            m, workers,
        )?)))
    }

    /// Scatter a matrix across remote TCP federated sites and wrap it as a
    /// federated input value. Convenience over [`SystemDS::connect_sites`]
    /// + [`SystemDS::federate_with`].
    pub fn federate_remote(&self, m: &Matrix, addrs: &[&str], cfg: NetConfig) -> Result<Data> {
        let sites = self.connect_sites(addrs, cfg)?;
        self.federate_with(m, &sites)
    }

    /// Wrap a matrix as an input value.
    pub fn matrix(&self, m: Matrix) -> Result<Data> {
        self.ctx.wrap_matrix(m)
    }

    /// Differentiate a scalar-valued DML expression with respect to the
    /// named input matrices via reverse-mode autodiff over the HOP DAG
    /// (§3.1: lineage/DAGs as the enabler for auto differentiation).
    /// Returns `(value, gradients)` with one gradient per `wrt` entry.
    pub fn gradient(
        &mut self,
        expr: &str,
        inputs: &[(&str, Data)],
        wrt: &[&str],
    ) -> Result<(f64, Vec<Arc<Matrix>>)> {
        let program = parse_program(&format!("__result = ({expr})"))?;
        let compiled = compile_program(&program, &builtins::resolve)?;
        let crate::compiler::Block::Basic(block) = &compiled.blocks[0] else {
            return Err(SysDsError::compile(
                "gradient() expects a single expression",
            ));
        };
        // Rebind to the expression-block convention and differentiate.
        let expr_block = crate::compiler::BasicBlock {
            dag: block.dag.clone(),
            roots: block
                .roots
                .iter()
                .map(|r| match r {
                    crate::compiler::Root::Bind(_, id) => {
                        crate::compiler::Root::Bind("__result".into(), *id)
                    }
                    other => other.clone(),
                })
                .collect(),
            plan: std::sync::Mutex::new(None),
        };
        let mut gblock = crate::compiler::autodiff::gradient_block(&expr_block, wrt)?;
        for r in &mut gblock.roots {
            if let crate::compiler::Root::Bind(name, _) = r {
                if name == "__result" {
                    *name = "__val".into();
                }
            }
        }
        let mut grad_program = CompiledProgram::default();
        grad_program
            .blocks
            .push(crate::compiler::Block::Basic(gblock));
        let program = Arc::new(grad_program);
        let mut wanted: Vec<String> = vec!["__val".into()];
        wanted.extend(wrt.iter().map(|n| format!("__grad_{n}")));
        let refs: Vec<&str> = wanted.iter().map(String::as_str).collect();
        let out = run_program(&self.ctx, &program, inputs, &refs)?;
        let value = out.f64("__val")?;
        let grads = wrt
            .iter()
            .map(|n| out.matrix(&format!("__grad_{n}")))
            .collect::<Result<Vec<_>>>()?;
        Ok((value, grads))
    }
}

/// Structured runtime-statistics report — the data behind the CLI's
/// `--stats` output, exposed so embedders can inspect it programmatically.
#[derive(Debug)]
pub struct RunReport {
    /// Top instruction opcodes by cumulative execution time.
    pub heavy_hitters: Vec<sysds_obs::HeavyHitter>,
    /// One summary line per compiler phase that recorded any time.
    pub compiler_phases: Vec<String>,
    /// Global runtime counters (buffer pool, parfor, federated, recompiles).
    pub counters: sysds_obs::CounterSnapshot,
    /// Lineage-cache statistics for this session.
    pub cache: CacheStats,
    /// Worst estimate-vs-actual offenders: per-opcode residuals of
    /// compile-time size/memory estimates against observed outputs.
    pub audit: Vec<sysds_obs::AuditRow>,
    /// Per-trigger attribution of dynamic recompiles.
    pub recompile_triggers: sysds_obs::RecompileTriggers,
    /// Per-endpoint network statistics for remote federated sites
    /// (requests, retries, timeouts, bytes, latency), sorted by endpoint.
    pub net_sites: Vec<sysds_obs::SiteStats>,
}

impl RunReport {
    /// Render the full human-readable report printed by `sysds --stats`.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        out.push_str("Heavy hitter instructions:\n");
        if self.heavy_hitters.is_empty() {
            out.push_str("  (none recorded)\n");
        } else {
            out.push_str(&sysds_obs::report::render_table(&self.heavy_hitters));
        }
        if !self.compiler_phases.is_empty() {
            out.push_str("Compiler phases:\n");
            for line in &self.compiler_phases {
                let _ = writeln!(out, "  {line}");
            }
        }
        let c = &self.counters;
        let _ = writeln!(
            out,
            "Buffer pool: {} evictions ({} bytes spilled), {} restores ({} bytes restored)",
            c.buf_evictions, c.buf_spilled_bytes, c.buf_restores, c.buf_restored_bytes
        );
        let _ = writeln!(
            out,
            "Lineage cache: {} hits, {} partial, {} misses, {} evictions",
            self.cache.hits, self.cache.partial_hits, self.cache.misses, self.cache.evictions
        );
        if c.parfor_workers > 0 {
            let _ = writeln!(
                out,
                "Parfor: {} workers, {} iterations, {:.3}s cumulative worker time",
                c.parfor_workers,
                c.parfor_iters,
                c.parfor_worker_nanos as f64 / 1e9
            );
        }
        if c.fed_requests > 0 {
            let _ = writeln!(
                out,
                "Federated: {} requests, {:.3}s cumulative round-trip time",
                c.fed_requests,
                c.fed_request_nanos as f64 / 1e9
            );
        }
        if c.net_requests > 0 || c.net_failures > 0 {
            let _ = writeln!(
                out,
                "Network: {} requests ({} retries, {} timeouts, {} failed), {} bytes sent, {} bytes received, {:.3}s cumulative round-trip",
                c.net_requests,
                c.net_retries,
                c.net_timeouts,
                c.net_failures,
                c.net_bytes_sent,
                c.net_bytes_recv,
                c.net_request_nanos as f64 / 1e9
            );
            for s in &self.net_sites {
                let _ = writeln!(
                    out,
                    "  {}: {} req, {} retries, {} timeouts, {} failed, {} B out, {} B in, mean {:.3} ms, max {:.3} ms",
                    s.endpoint,
                    s.requests,
                    s.retries,
                    s.timeouts,
                    s.failures,
                    s.bytes_sent,
                    s.bytes_recv,
                    s.mean_nanos() as f64 / 1e6,
                    s.max_nanos as f64 / 1e6
                );
            }
        }
        if c.fusion_hits > 0 {
            let _ = writeln!(
                out,
                "Fused ops: {} hits, {} bytes of intermediates avoided",
                c.fusion_hits, c.fusion_bytes_saved
            );
        }
        if !self.audit.is_empty() {
            out.push_str("Estimate vs actual (worst offenders):\n");
            out.push_str(&sysds_obs::audit::render_audit_table(&self.audit));
        }
        let _ = writeln!(out, "Recompiles: {}", c.recompiles);
        if self.recompile_triggers.total() > 0 {
            let _ = writeln!(
                out,
                "Recompile triggers: {}",
                self.recompile_triggers.render()
            );
        }
        out
    }
}

/// A pre-compiled script bound to a session context.
pub struct PreparedScript {
    ctx: Arc<ExecCtx>,
    program: Arc<CompiledProgram>,
    outputs: Vec<String>,
}

impl PreparedScript {
    /// Execute with fresh inputs; compilation cost is not paid again.
    pub fn execute(&self, inputs: &[(&str, Data)]) -> Result<ScriptOutputs> {
        let out_refs: Vec<&str> = self.outputs.iter().map(String::as_str).collect();
        run_program(&self.ctx, &self.program, inputs, &out_refs)
    }
}

fn run_program(
    ctx: &Arc<ExecCtx>,
    program: &Arc<CompiledProgram>,
    inputs: &[(&str, Data)],
    outputs: &[&str],
) -> Result<ScriptOutputs> {
    let mut symbols = SymbolTable::new();
    for (name, data) in inputs {
        // A frame has no identity to name in lineage: pin one fresh leaf
        // per bound frame, so every read of the binding shares it.
        let lineage = match data {
            Data::Frame(_) if ctx.config.lineage => Some(data_leaf(data, name)),
            _ => None,
        };
        symbols.set(name.to_string(), data.clone(), lineage);
    }
    let interp = Interpreter::new(ctx.clone(), program.clone());
    {
        let _span = sysds_obs::Span::enter(sysds_obs::Phase::Execute, "run");
        interp.run(&mut symbols)?;
    }
    let mut out = ScriptOutputs {
        stdout: ctx.take_stdout(),
        ..Default::default()
    };
    for name in outputs {
        let entry = symbols.get(name)?;
        out.values.push((name.to_string(), entry.data.clone()));
        out.lineages.push((name.to_string(), entry.lineage.clone()));
    }
    Ok(out)
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use sysds_tensor::kernels::gen;

    fn session() -> SystemDS {
        let mut config = EngineConfig::default();
        config.spill_dir = sysds_common::testing::unique_temp_dir("sysds-api-tests");
        SystemDS::with_config(config).unwrap()
    }

    #[test]
    fn scalar_arithmetic_script() {
        let mut s = session();
        let out = s
            .execute("x = 2 + 3 * 4\ny = x / 2", &[], &["x", "y"])
            .unwrap();
        assert_eq!(out.scalar("x").unwrap(), ScalarValue::I64(14));
        assert_eq!(out.f64("y").unwrap(), 7.0);
    }

    #[test]
    fn matrix_input_output() {
        let mut s = session();
        let x = gen::rand_uniform(5, 3, 0.0, 1.0, 1.0, 501);
        let input = s.matrix(x.clone()).unwrap();
        let out = s
            .execute("Y = t(X) %*% X", &[("X", input)], &["Y"])
            .unwrap();
        let y = out.matrix("Y").unwrap();
        assert_eq!(y.shape(), (3, 3));
        let expect = sysds_tensor::kernels::tsmm::tsmm(&x, 1, false);
        assert!(y.approx_eq(&expect, 1e-9));
    }

    #[test]
    fn print_captured_in_outputs() {
        let mut s = session();
        let out = s.execute(r#"print("hello " + 42)"#, &[], &[]).unwrap();
        assert_eq!(out.stdout, vec!["hello 42".to_string()]);
    }

    #[test]
    fn control_flow_executes() {
        let mut s = session();
        let out = s
            .execute(
                r#"
                acc = 0
                for (i in 1:10) { acc = acc + i }
                j = 0
                while (j * j < 50) { j = j + 1 }
                if (acc > 50) { flag = 1 } else { flag = 0 }
                "#,
                &[],
                &["acc", "j", "flag"],
            )
            .unwrap();
        assert_eq!(out.f64("acc").unwrap(), 55.0);
        assert_eq!(out.f64("j").unwrap(), 8.0);
        assert_eq!(out.f64("flag").unwrap(), 1.0);
    }

    #[test]
    fn missing_output_reported() {
        let mut s = session();
        assert!(s.execute("x = 1", &[], &["nope"]).is_err());
    }

    #[test]
    fn stop_statement_raises() {
        let mut s = session();
        let err = s.execute(r#"stop("by request")"#, &[], &[]).unwrap_err();
        assert!(matches!(err, SysDsError::Stop(msg) if msg == "by request"));
    }

    #[test]
    fn prepared_script_reexecutes() {
        let s = session();
        let prep = s.prepare("y = sum(X) * f", &["y"]).unwrap();
        let a = prep
            .execute(&[
                ("X", Data::from_matrix(Matrix::filled(2, 2, 1.0))),
                ("f", Data::from_f64(10.0)),
            ])
            .unwrap();
        assert_eq!(a.f64("y").unwrap(), 40.0);
        let b = prep
            .execute(&[
                ("X", Data::from_matrix(Matrix::filled(3, 1, 2.0))),
                ("f", Data::from_f64(0.5)),
            ])
            .unwrap();
        assert_eq!(b.f64("y").unwrap(), 3.0);
    }

    #[test]
    fn run_report_includes_counter_sections() {
        let mut config = EngineConfig::default();
        config.spill_dir = sysds_common::testing::unique_temp_dir("sysds-api-tests");
        config.stats = true;
        let mut s = SystemDS::with_config(config).unwrap();
        // Matrix ops so that instructions actually execute (pure scalar
        // arithmetic constant-folds to a literal bind — zero instructions),
        // plus a cell-wise chain the fusion pass collapses.
        s.execute(
            "X = rand(rows=8, cols=4, seed=7)\ny = sum(X %*% t(X))\n\
             Y = rand(rows=8, cols=4, seed=8)\nz = sum((X - Y)^2)",
            &[],
            &["y", "z"],
        )
        .unwrap();
        let report = s.run_report();
        assert!(!report.heavy_hitters.is_empty());
        assert!(report.counters.fusion_hits >= 1, "fused chain must fire");
        let text = report.render();
        assert!(text.contains("Heavy hitter instructions:"));
        assert!(text.contains("Buffer pool:"));
        assert!(text.contains("Lineage cache:"));
        assert!(text.contains("Recompiles:"));
        assert!(text.contains("Fused ops:"), "{text}");
    }

    #[test]
    fn fusion_matches_unfused_execution() {
        let script = "d = sum((X - Y)^2)\nS = exp(-X) * Y\nr = colSums((X * Y) + 1)";
        let x = gen::rand_uniform(40, 7, -1.0, 1.0, 1.0, 601);
        let y = gen::rand_uniform(40, 7, -1.0, 1.0, 1.0, 602);
        let inputs = |s: &SystemDS| {
            vec![
                ("X", s.matrix(x.clone()).unwrap()),
                ("Y", s.matrix(y.clone()).unwrap()),
            ]
        };
        let mut fused = session();
        let a = fused
            .execute(script, &inputs(&fused), &["d", "S", "r"])
            .unwrap();
        let mut config = EngineConfig::default().fusion(false);
        config.spill_dir = sysds_common::testing::unique_temp_dir("sysds-api-tests");
        let mut plain = SystemDS::with_config(config).unwrap();
        let b = plain
            .execute(script, &inputs(&plain), &["d", "S", "r"])
            .unwrap();
        assert!((a.f64("d").unwrap() - b.f64("d").unwrap()).abs() < 1e-9);
        assert!(a
            .matrix("S")
            .unwrap()
            .approx_eq(&b.matrix("S").unwrap(), 1e-9));
        assert!(a
            .matrix("r")
            .unwrap()
            .approx_eq(&b.matrix("r").unwrap(), 1e-9));
    }

    #[test]
    fn lmds_builtin_runs_end_to_end() {
        let mut s = session();
        let (x, y) = gen::synthetic_regression(60, 4, 1.0, 0.0, 502);
        let out = s
            .execute(
                "B = lmDS(X=X, y=y, reg=0.0)",
                &[
                    ("X", Data::from_matrix(x.clone())),
                    ("y", Data::from_matrix(y.clone())),
                ],
                &["B"],
            )
            .unwrap();
        let b = out.matrix("B").unwrap();
        // zero-noise data: predictions must match labels
        let yhat = sysds_tensor::kernels::matmult::matmul(&x, &b, 1).unwrap();
        assert!(yhat.approx_eq(&y, 1e-6));
    }
}
