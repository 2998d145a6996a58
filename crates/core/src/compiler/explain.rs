//! Plan explanation: SystemDS-style `--explain` output (paper §2.2).
//!
//! Two levels, mirroring SystemDS's `hops` and `runtime`:
//!
//! * [`ExplainLevel::Hops`] renders each statement block's HOP DAG after
//!   rewrites and size propagation — one line per operator with its
//!   inputs, propagated dims/sparsity and memory estimate;
//! * [`ExplainLevel::Runtime`] renders the lowered instruction program
//!   (the register-based plans produced by [`super::lower`]).
//!
//! Sizes are threaded across blocks the same way the interpreter threads
//! values: a [`SizeEnv`] carries each binding's propagated size into the
//! next block, control-flow branches fork the environment, and joins
//! invalidate bindings whose branches disagree. Everything here is
//! compile-time only; the output is a best-effort static view (blocks
//! with unknowns are recompiled at runtime with exact sizes).

use super::hop::SizeInfo;
use super::lower::{lower, optimize, Instr};
use super::size::SizeEnv;
use super::{BasicBlock, Block, CompiledProgram, Root};
use std::fmt::Write as _;
use sysds_common::EngineConfig;

/// How much of the compilation chain to render.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExplainLevel {
    /// HOP DAGs with propagated sizes and memory estimates.
    Hops,
    /// Lowered instruction plans.
    Runtime,
}

impl std::str::FromStr for ExplainLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "hops" => Ok(ExplainLevel::Hops),
            "runtime" => Ok(ExplainLevel::Runtime),
            other => Err(format!(
                "unknown explain level '{other}' (expected 'hops' or 'runtime')"
            )),
        }
    }
}

/// Render a compiled program at the requested level.
pub fn explain(program: &CompiledProgram, config: &EngineConfig, level: ExplainLevel) -> String {
    let mut out = String::new();
    let what = match level {
        ExplainLevel::Hops => "HOPS",
        ExplainLevel::Runtime => "RUNTIME",
    };
    let _ = writeln!(out, "EXPLAIN ({what}):");
    let _ = writeln!(out, "MAIN PROGRAM ({} blocks)", program.blocks.len());
    let mut env = SizeEnv::default();
    explain_blocks(&program.blocks, &mut env, config, level, 1, &mut out);
    let mut names: Vec<&String> = program.functions.keys().collect();
    names.sort();
    for name in names {
        let f = &program.functions[name];
        let params: Vec<&str> = f.params.iter().map(|p| p.name.as_str()).collect();
        let _ = writeln!(
            out,
            "FUNCTION {name}({}) -> ({})",
            params.join(", "),
            f.outputs.join(", ")
        );
        // Parameter sizes are call-site dependent: explain with unknowns.
        let mut env = SizeEnv::default();
        explain_blocks(&f.blocks, &mut env, config, level, 1, &mut out);
    }
    out
}

/// Stable 64-bit identity of the plan this configuration would execute.
///
/// Hashes the rendered runtime-level explain output, so any change the
/// optimizer makes under a configuration — fusion decisions, exec types,
/// rewrites — changes the fingerprint. The conformance harness reports it
/// alongside divergences so a failing seed names *which* plans disagreed.
pub fn plan_fingerprint(program: &CompiledProgram, config: &EngineConfig) -> u64 {
    sysds_obs::fingerprint64(&explain(program, config, ExplainLevel::Runtime))
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn explain_blocks(
    blocks: &[Block],
    env: &mut SizeEnv,
    config: &EngineConfig,
    level: ExplainLevel,
    indent: usize,
    out: &mut String,
) {
    for block in blocks {
        match block {
            Block::Basic(bb) => {
                pad(out, indent);
                out.push_str("GENERIC block\n");
                explain_basic(bb, env, config, level, indent + 1, out);
            }
            Block::If {
                cond,
                then_blocks,
                else_blocks,
            } => {
                pad(out, indent);
                out.push_str("IF block\n");
                pad(out, indent + 1);
                out.push_str("predicate:\n");
                let mut cond_env = env.clone();
                explain_basic(cond, &mut cond_env, config, level, indent + 2, out);
                let mut then_env = env.clone();
                let mut else_env = env.clone();
                pad(out, indent + 1);
                out.push_str("then:\n");
                explain_blocks(then_blocks, &mut then_env, config, level, indent + 2, out);
                if !else_blocks.is_empty() {
                    pad(out, indent + 1);
                    out.push_str("else:\n");
                    explain_blocks(else_blocks, &mut else_env, config, level, indent + 2, out);
                }
                merge_branches(env, &then_env, &else_env);
            }
            Block::For {
                var,
                from,
                to,
                step,
                body,
                parallel,
            } => {
                pad(out, indent);
                let kind = if *parallel { "PARFOR" } else { "FOR" };
                let _ = writeln!(out, "{kind} block (var={var})");
                for (label, b) in [
                    ("from", Some(from)),
                    ("to", Some(to)),
                    ("step", step.as_ref()),
                ] {
                    if let Some(b) = b {
                        pad(out, indent + 1);
                        let _ = writeln!(out, "{label}:");
                        let mut e = env.clone();
                        explain_basic(b, &mut e, config, level, indent + 2, out);
                    }
                }
                pad(out, indent + 1);
                out.push_str("body:\n");
                let mut body_env = env.clone();
                body_env.insert(var.clone(), SizeInfo::scalar());
                explain_blocks(body, &mut body_env, config, level, indent + 2, out);
                // Loop-carried sizes may change per iteration: bindings made
                // inside the body are unknown after the loop.
                invalidate_bound(env, body);
            }
            Block::While { cond, body } => {
                pad(out, indent);
                out.push_str("WHILE block\n");
                pad(out, indent + 1);
                out.push_str("predicate:\n");
                let mut cond_env = env.clone();
                explain_basic(cond, &mut cond_env, config, level, indent + 2, out);
                pad(out, indent + 1);
                out.push_str("body:\n");
                let mut body_env = env.clone();
                explain_blocks(body, &mut body_env, config, level, indent + 2, out);
                invalidate_bound(env, body);
            }
            Block::Call {
                targets,
                function,
                args,
            } => {
                pad(out, indent);
                let _ = writeln!(
                    out,
                    "CALL {function}({} args) -> [{}]",
                    args.len(),
                    targets.join(", ")
                );
                for (name, arg) in args {
                    pad(out, indent + 1);
                    match name {
                        Some(n) => {
                            let _ = writeln!(out, "arg {n}:");
                        }
                        None => out.push_str("arg:\n"),
                    }
                    let mut e = env.clone();
                    explain_basic(arg, &mut e, config, level, indent + 2, out);
                }
                // Function outputs are opaque at this level.
                for t in targets {
                    env.insert(t.clone(), SizeInfo::unknown());
                }
            }
        }
    }
}

/// Explain one basic block and fold its bindings' sizes into `env`.
fn explain_basic(
    block: &BasicBlock,
    env: &mut SizeEnv,
    config: &EngineConfig,
    level: ExplainLevel,
    indent: usize,
    out: &mut String,
) {
    // The same optimised DAG that `lower` flattens, so `--explain hops`
    // shows `mmchain` and fused templates.
    let (dag, roots, _) = optimize(block, env, config);

    match level {
        ExplainLevel::Hops => {
            let mark = dag.reachable(&roots);
            for (id, node) in dag.nodes().iter().enumerate() {
                if !mark[id] {
                    continue;
                }
                pad(out, indent);
                let ins: Vec<String> = node.inputs.iter().map(|i| i.to_string()).collect();
                let _ = writeln!(
                    out,
                    "({id}) {} ({}) [{}]",
                    node.op.opcode(),
                    ins.join(","),
                    fmt_size(&node.size)
                );
            }
        }
        ExplainLevel::Runtime => {
            let plan = lower(block, env, config);
            for instr in &plan.instrs {
                pad(out, indent);
                out.push_str(&fmt_instr(instr));
                out.push('\n');
            }
            if plan.had_unknown {
                pad(out, indent);
                out.push_str("(sizes unknown: recompiled at runtime)\n");
            }
        }
    }

    for root in &block.roots {
        if let Root::Bind(name, id) = root {
            env.insert(name.clone(), dag.node(*id).size);
        }
    }
}

/// Join two branch environments back into `env`: keep agreements, mark
/// disagreements unknown.
fn merge_branches(env: &mut SizeEnv, then_env: &SizeEnv, else_env: &SizeEnv) {
    let mut names: Vec<&String> = then_env.keys().chain(else_env.keys()).collect();
    names.sort();
    names.dedup();
    for name in names {
        match (then_env.get(name), else_env.get(name)) {
            (Some(a), Some(b)) if a == b => {
                env.insert(name.clone(), *a);
            }
            _ => {
                env.insert(name.clone(), SizeInfo::unknown());
            }
        }
    }
}

/// Mark every variable bound anywhere inside `blocks` as unknown in `env`.
fn invalidate_bound(env: &mut SizeEnv, blocks: &[Block]) {
    for name in bound_names(blocks) {
        env.insert(name, SizeInfo::unknown());
    }
}

fn bound_names(blocks: &[Block]) -> Vec<String> {
    let mut names = Vec::new();
    fn walk(blocks: &[Block], names: &mut Vec<String>) {
        for block in blocks {
            match block {
                Block::Basic(bb) => {
                    for root in &bb.roots {
                        if let Root::Bind(name, _) = root {
                            names.push(name.clone());
                        }
                    }
                }
                Block::If {
                    then_blocks,
                    else_blocks,
                    ..
                } => {
                    walk(then_blocks, names);
                    walk(else_blocks, names);
                }
                Block::For { var, body, .. } => {
                    names.push(var.clone());
                    walk(body, names);
                }
                Block::While { body, .. } => walk(body, names),
                Block::Call { targets, .. } => names.extend(targets.iter().cloned()),
            }
        }
    }
    walk(blocks, &mut names);
    names.sort();
    names.dedup();
    names
}

/// Render one lowered instruction (shared with `--explain runtime`).
pub fn fmt_instr(instr: &Instr) -> String {
    let ins: Vec<String> = instr.inputs.iter().map(|i| i.to_string()).collect();
    format!(
        "[{}] {} in=[{}] [{}]",
        instr.out,
        instr.op.opcode(),
        ins.join(","),
        fmt_size(&instr.size)
    )
}

/// `RxC, sp=…, mem=…` with `?` for unknowns.
pub fn fmt_size(size: &SizeInfo) -> String {
    if size.scalar {
        return "scalar".to_string();
    }
    let dim = |d: super::hop::Dim| match d.value() {
        Some(v) => v.to_string(),
        None => "?".to_string(),
    };
    let sp = match size.sparsity {
        Some(s) => format!("{s:.2}"),
        None => "?".to_string(),
    };
    let mem = match size.memory_estimate() {
        Some(m) => fmt_bytes(m),
        None => "?".to_string(),
    };
    format!("{}x{}, sp={sp}, mem={mem}", dim(size.rows), dim(size.cols))
}

/// Human-readable byte count (fixed 1024 ladder, one decimal).
pub fn fmt_bytes(bytes: usize) -> String {
    const UNITS: [&str; 4] = ["B", "KB", "MB", "GB"];
    let mut v = bytes as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit < UNITS.len() - 1 {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes}B")
    } else {
        format!("{v:.1}{}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile_program;
    use crate::parser::parse_program;

    fn compiled(src: &str) -> CompiledProgram {
        compile_program(&parse_program(src).unwrap(), &|_| None).unwrap()
    }

    #[test]
    fn plan_fingerprint_is_the_fx_hash_of_the_runtime_explain() {
        let p = compiled("X = rand(rows=100, cols=10, seed=1)\ng = t(X) %*% X\nprint(sum(g))");
        let config = EngineConfig::default();
        let text = explain(&p, &config, ExplainLevel::Runtime);
        assert_eq!(
            sysds_obs::fingerprint64(&text),
            sysds_common::hash::hash_str(&text)
        );
        assert_eq!(
            plan_fingerprint(&p, &config),
            sysds_common::hash::hash_str(&text)
        );
    }

    #[test]
    fn hops_level_shows_sizes_and_exec() {
        let p = compiled("X = rand(rows=100, cols=10, seed=1)\ng = t(X) %*% X");
        let text = explain(&p, &EngineConfig::default(), ExplainLevel::Hops);
        assert!(text.starts_with("EXPLAIN (HOPS):"), "{text}");
        assert!(text.contains("GENERIC block"), "{text}");
        assert!(text.contains("tsmm"), "{text}");
        assert!(text.contains("[100x10"), "{text}");
        assert!(text.contains("10x10"), "{text}");
        assert!(text.contains(") tsmm ("), "{text}");
    }

    #[test]
    fn runtime_level_lists_instructions() {
        let p = compiled("y = X + 1");
        let text = explain(&p, &EngineConfig::default(), ExplainLevel::Runtime);
        assert!(text.starts_with("EXPLAIN (RUNTIME):"), "{text}");
        assert!(text.contains("[2] + in=["), "{text}");
        assert!(
            text.contains("recompiled at runtime"),
            "unknown X flags recompile: {text}"
        );
    }

    #[test]
    fn sizes_thread_across_blocks_and_branches() {
        // X's size is established in block 0 and must be visible inside the
        // if-branch HOPs; z is bound in only one branch, unknown after.
        let p = compiled(
            "X = rand(rows=50, cols=4, seed=1)\n\
             if (sum(X) > 0) { z = t(X) } else { w = X }\n\
             out = X + 1",
        );
        let text = explain(&p, &EngineConfig::default(), ExplainLevel::Hops);
        assert!(text.contains("IF block"), "{text}");
        assert!(text.contains("predicate:"), "{text}");
        // transpose inside the branch sees 50x4 -> 4x50
        assert!(text.contains("4x50"), "{text}");
        // the trailing block still knows X
        assert!(text.contains("50x4"), "{text}");
    }

    #[test]
    fn parfor_and_functions_render_headers() {
        let p = compiled(
            "f = function(matrix[double] M) return (matrix[double] N) {\n\
               if (nrow(M) > 1) { N = M } else { N = t(M) }\n\
             }\n\
             parfor (i in 1:2) { A = rand(rows=3, cols=3, seed=i) }\n\
             B = f(C)",
        );
        let text = explain(&p, &EngineConfig::default(), ExplainLevel::Hops);
        assert!(text.contains("PARFOR block (var=i)"), "{text}");
        assert!(text.contains("CALL f(1 args) -> [B]"), "{text}");
        assert!(text.contains("FUNCTION f(M) -> (N)"), "{text}");
    }

    #[test]
    fn explain_level_parses() {
        assert_eq!("hops".parse::<ExplainLevel>(), Ok(ExplainLevel::Hops));
        assert_eq!("runtime".parse::<ExplainLevel>(), Ok(ExplainLevel::Runtime));
        assert!("verbose".parse::<ExplainLevel>().is_err());
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(8192), "8.0KB");
        assert_eq!(fmt_bytes(3 << 20), "3.0MB");
    }
}
