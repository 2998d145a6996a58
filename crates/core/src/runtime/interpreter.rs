//! The control program: program-block interpretation (paper §2.3 (3)).
//!
//! Executes the compiled block hierarchy — basic blocks through the
//! instruction layer (with dynamic recompilation via plan caching),
//! branches, `for`/`while` loops, `parfor` with SystemML-style result
//! merge (compare-and-merge against the pre-loop value), and calls of DML
//! functions with fresh local scopes. Every builtin, including the
//! multi-output ones, runs as an instruction of a basic block, so the
//! interpreter names none.

use crate::compiler::lower::{plan_for, Plan};
use crate::compiler::{bind_params, BasicBlock, Block, CompiledFunction, CompiledProgram};
use crate::runtime::instructions::{execute, ExecCtx, Slot};
use crate::runtime::value::{Data, SymbolTable};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use sysds_common::error::panic_message;
use sysds_common::{par, Result, ScalarValue, SysDsError};
use sysds_tensor::Matrix;

/// The block interpreter.
pub struct Interpreter {
    pub ctx: Arc<ExecCtx>,
    pub program: Arc<CompiledProgram>,
}

impl Interpreter {
    /// Create an interpreter over a compiled program.
    pub fn new(ctx: Arc<ExecCtx>, program: Arc<CompiledProgram>) -> Interpreter {
        Interpreter { ctx, program }
    }

    /// Execute the program's top-level blocks against a symbol table.
    pub fn run(&self, symbols: &mut SymbolTable) -> Result<()> {
        self.exec_blocks(&self.program.blocks, symbols)
    }

    fn exec_blocks(&self, blocks: &[Block], st: &mut SymbolTable) -> Result<()> {
        for b in blocks {
            self.exec_block(b, st)?;
        }
        Ok(())
    }

    fn exec_block(&self, block: &Block, st: &mut SymbolTable) -> Result<()> {
        match block {
            Block::Basic(bb) => self.exec_basic(bb, st),
            Block::If {
                cond,
                then_blocks,
                else_blocks,
            } => {
                let c = self.eval_expr_block(cond, st)?.data.as_bool()?;
                if c {
                    self.exec_blocks(then_blocks, st)
                } else {
                    self.exec_blocks(else_blocks, st)
                }
            }
            Block::While { cond, body } => {
                while self.eval_expr_block(cond, st)?.data.as_bool()? {
                    self.exec_blocks(body, st)?;
                }
                Ok(())
            }
            Block::For {
                var,
                from,
                to,
                step,
                body,
                parallel,
            } => {
                let from = self.eval_expr_block(from, st)?.data.as_f64()?;
                let to = self.eval_expr_block(to, st)?.data.as_f64()?;
                let step = match step {
                    Some(s) => self.eval_expr_block(s, st)?.data.as_f64()?,
                    None => 1.0,
                };
                if step == 0.0 {
                    return Err(SysDsError::runtime("loop step must be non-zero"));
                }
                let iters = iteration_values(from, to, step);
                if *parallel {
                    self.exec_parfor(var, &iters, body, st)
                } else {
                    for v in iters {
                        st.set(var.clone(), iter_value(v), None);
                        self.exec_blocks(body, st)?;
                    }
                    Ok(())
                }
            }
            Block::Call {
                targets,
                function,
                args,
            } => self.exec_call(targets, function, args, st),
        }
    }

    /// Execute one basic block: recompile-or-reuse the plan, run the
    /// instructions, commit variable bindings.
    fn exec_basic(&self, bb: &BasicBlock, st: &mut SymbolTable) -> Result<()> {
        let plan = plan_for(bb, &st.size_env(), &self.ctx.config);
        let slots = self.run_plan(&plan, st)?;
        for b in &plan.bindings {
            let slot = slots[b.slot].as_ref().expect("binding slot computed");
            st.set(b.name.clone(), slot.data.clone(), slot.lineage.clone());
        }
        Ok(())
    }

    fn run_plan(&self, plan: &Plan, st: &SymbolTable) -> Result<Vec<Option<Slot>>> {
        let mut slots: Vec<Option<Slot>> = vec![None; plan.nslots];
        for instr in &plan.instrs {
            execute(instr, &mut slots, st, &self.ctx)?;
        }
        Ok(slots)
    }

    /// Evaluate an expression block (condition, loop bound, call argument).
    pub fn eval_expr_block(&self, bb: &BasicBlock, st: &SymbolTable) -> Result<Slot> {
        let plan = plan_for(bb, &st.size_env(), &self.ctx.config);
        let slots = self.run_plan(&plan, st)?;
        let slot = plan
            .result_slot
            .ok_or_else(|| SysDsError::runtime("expression block without result"))?;
        Ok(slots[slot].clone().expect("result computed"))
    }

    // ---- function calls -------------------------------------------------

    fn exec_call(
        &self,
        targets: &[String],
        function: &str,
        args: &[(Option<String>, BasicBlock)],
        st: &mut SymbolTable,
    ) -> Result<()> {
        let func = self
            .program
            .functions
            .get(function)
            .cloned()
            .ok_or_else(|| SysDsError::runtime(format!("unknown function '{function}'")))?;
        if targets.len() > func.outputs.len() {
            return Err(SysDsError::runtime(format!(
                "'{function}' returns {} values, {} requested",
                func.outputs.len(),
                targets.len()
            )));
        }
        let mut local = SymbolTable::new();
        self.bind_call_args(&func, args, st, &mut local)?;
        self.exec_blocks(&func.blocks, &mut local)?;
        for (t, o) in targets.iter().zip(&func.outputs) {
            let entry = local.get(o).map_err(|_| {
                SysDsError::runtime(format!("function '{function}' did not assign output '{o}'"))
            })?;
            st.set(t.clone(), entry.data.clone(), entry.lineage.clone());
        }
        Ok(())
    }

    fn bind_call_args(
        &self,
        func: &CompiledFunction,
        args: &[(Option<String>, BasicBlock)],
        caller: &SymbolTable,
        local: &mut SymbolTable,
    ) -> Result<()> {
        let mut values = Vec::with_capacity(args.len());
        for (name, block) in args {
            values.push((name.as_deref(), self.eval_expr_block(block, caller)?));
        }
        let bound = bind_params(
            &func.name,
            &func.params,
            |p| p.name.as_str(),
            values,
            |p| {
                Some(Slot {
                    data: Data::Scalar(p.default.clone()?),
                    lineage: None,
                })
            },
        )
        .map_err(SysDsError::runtime)?;
        for (p, slot) in func.params.iter().zip(bound) {
            local.set(p.name.clone(), slot.data, slot.lineage);
        }
        Ok(())
    }

    // ---- parfor ----------------------------------------------------------

    /// Parallel for with result merge (paper §2.3: dedicated backends for
    /// parallel for loops, e.g. hyper-parameter tuning). Workers run as
    /// `par::map` items (worker 0 on this thread), enter this thread's span
    /// context and get deep-copied symbol tables; a panicking worker becomes
    /// a runtime error. Result variables (pre-existing variables written by
    /// the loop) are merged by comparing against the pre-loop value —
    /// SystemML's `ResultMergeLocalMemory` strategy.
    fn exec_parfor(
        &self,
        var: &str,
        iters: &[f64],
        body: &[Block],
        st: &mut SymbolTable,
    ) -> Result<()> {
        if iters.is_empty() {
            return Ok(());
        }
        let workers = self.ctx.config.num_threads.max(1).min(iters.len());
        let chunks: Vec<Vec<f64>> = (0..workers)
            .map(|w| iters.iter().copied().skip(w).step_by(workers).collect())
            .collect();
        let before = st.clone();
        let ctx = sysds_obs::SpanContext::current();
        let results = par::map(chunks.into_iter().enumerate().collect(), |(w, chunk)| {
            let _ctx = ctx.enter();
            catch_unwind(AssertUnwindSafe(|| -> Result<SymbolTable> {
                let _worker = sysds_obs::set_worker(w as u64);
                let _span = sysds_obs::Span::enter_with(sysds_obs::Phase::ParforWorker, || {
                    format!("worker-{w}")
                });
                let mut local = before.clone();
                let start = std::time::Instant::now();
                for &v in &chunk {
                    local.set(var.to_string(), iter_value(v), None);
                    self.exec_blocks(body, &mut local)?;
                }
                if sysds_obs::stats_enabled() {
                    let c = sysds_obs::counters();
                    c.parfor_workers.fetch_add(1, Ordering::Relaxed);
                    c.parfor_iters
                        .fetch_add(chunk.len() as u64, Ordering::Relaxed);
                    c.parfor_worker_nanos
                        .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                }
                Ok(local)
            }))
            .unwrap_or_else(|p| {
                Err(SysDsError::runtime(format!(
                    "parfor worker panicked: {}",
                    panic_message(p.as_ref()).unwrap_or("unknown panic")
                )))
            })
        });

        // Merge: result variables are those that existed before the loop.
        let mut merged: Vec<SymbolTable> = Vec::with_capacity(results.len());
        for r in results {
            merged.push(r?);
        }
        // Iterations are dealt round-robin (iteration k runs on worker
        // k % workers), so the lexically last iteration belongs to this
        // worker — NOT to the last worker in spawn order.
        let last_owner = (iters.len() - 1) % workers;
        // Merge order ends with the owner of the last iteration, so
        // last-write-wins conflicts resolve like a sequential loop.
        let merge_order: Vec<usize> = (0..merged.len())
            .filter(|&w| w != last_owner)
            .chain(std::iter::once(last_owner))
            .collect();
        for name in before.names() {
            let orig = before.get(&name)?.clone();
            match &orig.data {
                Data::Matrix(h) => {
                    let base = h.acquire()?;
                    let mut out: Option<Matrix> = None;
                    for &w in &merge_order {
                        let Ok(entry) = merged[w].get(&name) else {
                            continue;
                        };
                        let Ok(wm) = entry.data.as_matrix() else {
                            continue;
                        };
                        if wm.shape() != base.shape() {
                            // shape-changing writes: last iteration wins
                            out = Some((*wm).clone());
                            continue;
                        }
                        // compare-and-merge cells that differ from the base
                        let target = out.get_or_insert_with(|| (*base).clone());
                        for i in 0..base.rows() {
                            for j in 0..base.cols() {
                                let v = wm.get(i, j);
                                if v != base.get(i, j) {
                                    target.set(i, j, v);
                                }
                            }
                        }
                    }
                    if let Some(m) = out {
                        st.set(name.clone(), self.ctx.wrap_matrix(m.compact())?, None);
                    }
                }
                _ => {
                    // Scalars/frames: take the value from the worker that ran
                    // the lexically last iteration (deterministic).
                    if let Ok(e) = merged[last_owner].get(&name) {
                        st.set(name.clone(), e.data.clone(), e.lineage.clone());
                    }
                }
            }
        }
        Ok(())
    }
}

fn iteration_values(from: f64, to: f64, step: f64) -> Vec<f64> {
    let mut out = Vec::new();
    let mut v = from;
    if step > 0.0 {
        while v <= to + 1e-12 {
            out.push(v);
            v += step;
        }
    } else {
        while v >= to - 1e-12 {
            out.push(v);
            v += step;
        }
    }
    out
}

fn iter_value(v: f64) -> Data {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        Data::Scalar(ScalarValue::I64(v as i64))
    } else {
        Data::from_f64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_values_forward_and_backward() {
        assert_eq!(iteration_values(1.0, 3.0, 1.0), vec![1.0, 2.0, 3.0]);
        assert_eq!(iteration_values(3.0, 1.0, -1.0), vec![3.0, 2.0, 1.0]);
        assert_eq!(iteration_values(1.0, 0.0, 1.0), Vec::<f64>::new());
        assert_eq!(iteration_values(1.0, 2.0, 0.5), vec![1.0, 1.5, 2.0]);
    }

    #[test]
    fn iter_value_types() {
        assert!(matches!(iter_value(2.0), Data::Scalar(ScalarValue::I64(2))));
        assert!(matches!(iter_value(2.5), Data::Scalar(ScalarValue::F64(_))));
    }
}
