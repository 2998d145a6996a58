//! Lowering: HOP DAGs → executable instruction plans.
//!
//! This is the LOP/instruction layer of the paper's §2.3: given entry
//! sizes, the DAG is size-propagated, dynamically rewritten, and flattened
//! into a register-based instruction sequence of local (CP) instructions.
//! Plans are cached per block and invalidated when live-in sizes change —
//! dynamic recompilation.

use super::hop::{HopDag, HopId, HopOp, SizeInfo};
use super::size::{propagate, SizeEnv};
use super::{rewrites, BasicBlock, Root};
use sysds_common::EngineConfig;

/// One lowered instruction: read `inputs` slots, write slot `out`.
#[derive(Debug, Clone)]
pub struct Instr {
    pub op: HopOp,
    pub inputs: Vec<usize>,
    pub out: usize,
    pub size: SizeInfo,
}

/// Variable bindings a plan produces (slot → variable).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanBinding {
    pub name: String,
    pub slot: usize,
}

/// An executable plan for one basic block.
#[derive(Debug, Clone)]
pub struct Plan {
    pub instrs: Vec<Instr>,
    pub nslots: usize,
    pub bindings: Vec<PlanBinding>,
    /// Slot holding `__result` for expression blocks.
    pub result_slot: Option<usize>,
    /// True when some reachable node had unknown sizes at lowering time.
    pub had_unknown: bool,
    /// Live-in sizes the plan was lowered under (for cache validation):
    /// per variable the known dims plus a coarse sparsity bucket. The
    /// bucket (rather than the raw sparsity) keeps small nnz fluctuations
    /// from thrashing the plan cache while still recompiling when an
    /// intermediate drifts between sparse and dense regimes.
    pub fingerprint: Fingerprint,
    /// The `EngineConfig::fusion` flag the plan was lowered under: the one
    /// configuration field lowering reads.
    pub fusion: bool,
}

/// Per live-in variable, its known dims and sparsity bucket, sorted by name.
pub type Fingerprint = Vec<(String, Option<(usize, usize, u8)>)>;

/// Coarse sparsity regime used in plan fingerprints: 0 = sparse (≤ 0.05,
/// the usual CSR-worthwhile threshold), 1 = medium (≤ 0.4), 2 = dense,
/// 3 = unknown.
pub fn sparsity_bucket(sparsity: Option<f64>) -> u8 {
    match sparsity {
        Some(s) if s <= 0.05 => 0,
        Some(s) if s <= 0.4 => 1,
        Some(_) => 2,
        None => 3,
    }
}

/// Compute the fingerprint of the current environment for a block.
pub fn env_fingerprint(block: &BasicBlock, env: &SizeEnv) -> Fingerprint {
    let mut fp: Fingerprint = block
        .live_ins()
        .into_iter()
        .map(|name| {
            let entry = env.get(&name).and_then(|s| {
                Some((
                    s.rows.value()?,
                    s.cols.value()?,
                    sparsity_bucket(s.sparsity),
                ))
            });
            (name, entry)
        })
        .collect();
    fp.sort();
    fp
}

/// The optimised HOP DAG of a block under entry sizes `env`: size
/// propagation, dynamic rewrites, re-propagation, then — with fusion on —
/// mat-vec chain and cell-wise fusion. Returns the DAG, its roots and
/// whether some node still has unknown sizes. [`lower`] flattens this DAG
/// and `--explain hops` prints it, so both show the same plan.
pub fn optimize(
    block: &BasicBlock,
    env: &SizeEnv,
    config: &EngineConfig,
) -> (HopDag, Vec<HopId>, bool) {
    let mut dag = block.dag.clone();
    let roots: Vec<HopId> = block.roots.iter().map(Root::id).collect();
    {
        let _span = sysds_obs::Span::enter(sysds_obs::Phase::SizeProp, "propagate");
        propagate(&mut dag, env, &roots);
    }
    {
        let _span = sysds_obs::Span::enter(sysds_obs::Phase::Rewrite, "dynamic");
        rewrites::rewrite_dynamic(&mut dag);
    }
    let had_unknown = {
        let _span = sysds_obs::Span::enter(sysds_obs::Phase::SizeProp, "propagate");
        propagate(&mut dag, env, &roots)
    };
    // Fuse mat-vec chains and cell-wise chains once exact sizes are in;
    // interior nodes of a fused region lose their last consumer and drop
    // out during the root-reachable flattening in `lower`.
    if config.fusion {
        let _span = sysds_obs::Span::enter(sysds_obs::Phase::Rewrite, "fusion");
        rewrites::mmchain_fusion(&mut dag, &roots);
        super::fusion::fuse(&mut dag, &roots);
    }
    (dag, roots, had_unknown)
}

/// Lower a basic block under the given entry sizes.
pub fn lower(block: &BasicBlock, env: &SizeEnv, config: &EngineConfig) -> Plan {
    let _lower_span = sysds_obs::Span::enter(sysds_obs::Phase::Lower, "lower");
    let (dag, roots, had_unknown) = optimize(block, env, config);

    // Topological order from the roots, preserving root order so effects
    // execute in statement order.
    let mut slot_of: Vec<Option<usize>> = vec![None; dag.len()];
    let mut instrs: Vec<Instr> = Vec::new();
    let mut stack: Vec<(HopId, bool)> = Vec::new();
    for &root in roots.iter() {
        stack.push((root, false));
        while let Some((id, expanded)) = stack.pop() {
            if slot_of[id].is_some() {
                continue;
            }
            if expanded {
                let node = dag.node(id);
                let inputs: Vec<usize> = node
                    .inputs
                    .iter()
                    .map(|&i| slot_of[i].expect("inputs visited first"))
                    .collect();
                let out = instrs.len();
                slot_of[id] = Some(out);
                instrs.push(Instr {
                    op: node.op.clone(),
                    inputs,
                    out,
                    size: node.size,
                });
            } else {
                stack.push((id, true));
                // Push children in reverse so the first input is visited first.
                for &i in dag.node(id).inputs.iter().rev() {
                    if slot_of[i].is_none() {
                        stack.push((i, false));
                    }
                }
            }
        }
    }

    let mut bindings = Vec::new();
    let mut result_slot = None;
    for root in &block.roots {
        match root {
            Root::Bind(name, id) => {
                let slot = slot_of[*id].expect("root lowered");
                if name == "__result" {
                    result_slot = Some(slot);
                } else {
                    bindings.push(PlanBinding {
                        name: name.clone(),
                        slot,
                    });
                }
            }
            Root::Effect(_) => {}
        }
    }

    Plan {
        nslots: instrs.len(),
        instrs,
        bindings,
        result_slot,
        had_unknown,
        fingerprint: env_fingerprint(block, env),
        fusion: config.fusion,
    }
}

/// Get the cached plan for a block, recompiling when entry sizes changed
/// (paper §2.3 (3): dynamic recompilation of basic blocks "to mitigate
/// initial unknowns"). A plan lowered under another `fusion` flag (a
/// compiled program shared by two sessions) is lowered again; that is no
/// recompile, so it records no trigger.
pub fn plan_for(block: &BasicBlock, env: &SizeEnv, config: &EngineConfig) -> std::sync::Arc<Plan> {
    let mut guard = sysds_common::sync::lock(&block.plan);
    let mut trigger = None;
    if let Some(plan) = guard.as_ref().filter(|p| p.fusion == config.fusion) {
        if !config.dynamic_recompile {
            return plan.clone();
        }
        let fp = env_fingerprint(block, env);
        if !plan.had_unknown && plan.fingerprint == fp {
            return plan.clone();
        }
        // Attribute the recompile to its trigger: the previous plan was
        // lowered with unknown sizes, a live-in changed dimensions, or a
        // live-in drifted across a sparsity regime.
        trigger = Some(if plan.had_unknown {
            sysds_obs::RecompileTrigger::UnknownDims
        } else {
            let dims = |fp: &Fingerprint| -> Vec<(String, Option<(usize, usize)>)> {
                fp.iter()
                    .map(|(n, e)| (n.clone(), e.map(|(r, c, _)| (r, c))))
                    .collect()
            };
            if dims(&plan.fingerprint) != dims(&fp) {
                sysds_obs::RecompileTrigger::DimsChange
            } else {
                sysds_obs::RecompileTrigger::SparsityDrift
            }
        });
    }
    let _span = trigger.map(|trigger| {
        sysds_obs::audit::record_recompile(trigger);
        sysds_obs::Span::enter(sysds_obs::Phase::Recompile, "recompile")
    });
    let plan = std::sync::Arc::new(lower(block, env, config));
    *guard = Some(plan.clone());
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtins::runtime::{MATMUL, TMV, TRANSPOSE};
    use crate::compiler::{compile_expression, compile_program};
    use crate::parser::{ast::Expr, parse_program};
    use sysds_common::ScalarValue;

    fn size_env(entries: &[(&str, usize, usize)]) -> SizeEnv {
        let mut env = SizeEnv::default();
        for &(n, r, c) in entries {
            env.insert(n.to_string(), SizeInfo::matrix(r, c, Some(1.0)));
        }
        env
    }

    #[test]
    fn lowering_assigns_slots_in_dependency_order() {
        let block = compile_expression(&Expr::Binary(
            crate::parser::ast::BinOp::Cell(sysds_tensor::kernels::BinaryOp::Add),
            Box::new(Expr::var("X")),
            Box::new(Expr::var("Y")),
        ))
        .unwrap();
        let plan = lower(
            &block,
            &size_env(&[("X", 2, 2), ("Y", 2, 2)]),
            &EngineConfig::default(),
        );
        assert_eq!(plan.instrs.len(), 3);
        for (i, instr) in plan.instrs.iter().enumerate() {
            assert_eq!(instr.out, i);
            for &inp in &instr.inputs {
                assert!(inp < i, "inputs must be computed before use");
            }
        }
        assert_eq!(plan.result_slot, Some(2));
    }

    #[test]
    fn plan_reused_when_sizes_stable() {
        let program =
            compile_program(&parse_program("y = t(X) %*% X").unwrap(), &|_| None).unwrap();
        let crate::compiler::Block::Basic(block) = &program.blocks[0] else {
            panic!()
        };
        let env = size_env(&[("X", 100, 5)]);
        let config = EngineConfig::default();
        let p1 = plan_for(block, &env, &config);
        let p2 = plan_for(block, &env, &config);
        assert!(std::sync::Arc::ptr_eq(&p1, &p2));
        // different sizes recompile
        let env2 = size_env(&[("X", 50, 5)]);
        let p3 = plan_for(block, &env2, &config);
        assert!(!std::sync::Arc::ptr_eq(&p1, &p3));
    }

    #[test]
    fn sparsity_regime_drift_recompiles_but_jitter_does_not() {
        let program =
            compile_program(&parse_program("y = t(X) %*% X").unwrap(), &|_| None).unwrap();
        let crate::compiler::Block::Basic(block) = &program.blocks[0] else {
            panic!()
        };
        let config = EngineConfig::default();
        let env_sp = |sp: f64| {
            let mut env = SizeEnv::default();
            env.insert("X".into(), SizeInfo::matrix(100, 5, Some(sp)));
            env
        };
        let p1 = plan_for(block, &env_sp(0.01), &config);
        // Jitter within the sparse bucket (≤ 0.05) reuses the plan.
        let p2 = plan_for(block, &env_sp(0.04), &config);
        assert!(std::sync::Arc::ptr_eq(&p1, &p2));
        // Drifting into the dense regime recompiles.
        let p3 = plan_for(block, &env_sp(0.9), &config);
        assert!(!std::sync::Arc::ptr_eq(&p1, &p3));
        assert_eq!(sparsity_bucket(Some(0.01)), sparsity_bucket(Some(0.04)));
        assert_ne!(sparsity_bucket(Some(0.01)), sparsity_bucket(Some(0.9)));
        assert_eq!(sparsity_bucket(None), 3);
    }

    /// A block's cached plan follows the session's fusion flag: a program
    /// compiled once and run by a fusing and a non-fusing session executes
    /// the plan each session explains.
    #[test]
    fn plan_follows_the_fusion_flag() {
        let program =
            compile_program(&parse_program("s = sum((X - 1) ^ 2)").unwrap(), &|_| None).unwrap();
        let crate::compiler::Block::Basic(block) = &program.blocks[0] else {
            panic!()
        };
        let env = size_env(&[("X", 10, 10)]);
        let fused = |p: &Plan| p.instrs.iter().any(|i| i.op.opcode().starts_with("fused"));
        for dynamic_recompile in [true, false] {
            let on = EngineConfig {
                dynamic_recompile,
                ..EngineConfig::default()
            };
            let off = EngineConfig {
                fusion: false,
                ..on.clone()
            };
            assert!(fused(&plan_for(block, &env, &on)));
            assert!(!fused(&plan_for(block, &env, &off)));
            assert!(fused(&plan_for(block, &env, &on)));
        }
    }

    #[test]
    fn recompilation_disabled_keeps_first_plan() {
        let program = compile_program(&parse_program("y = X + 1").unwrap(), &|_| None).unwrap();
        let crate::compiler::Block::Basic(block) = &program.blocks[0] else {
            panic!()
        };
        let config = EngineConfig {
            dynamic_recompile: false,
            ..EngineConfig::default()
        };
        let p1 = plan_for(block, &size_env(&[("X", 10, 10)]), &config);
        let p2 = plan_for(block, &size_env(&[("X", 99, 99)]), &config);
        assert!(std::sync::Arc::ptr_eq(&p1, &p2));
    }

    #[test]
    fn dynamic_tmv_rewrite_at_lowering() {
        let program =
            compile_program(&parse_program("b = t(X) %*% y").unwrap(), &|_| None).unwrap();
        let crate::compiler::Block::Basic(block) = &program.blocks[0] else {
            panic!()
        };
        // With y known as a vector, lowering fuses to tmv.
        let plan = lower(
            &block.clone(),
            &size_env(&[("X", 100, 5), ("y", 100, 1)]),
            &EngineConfig::default(),
        );
        assert!(plan.instrs.iter().any(|i| i.op == HopOp::op(TMV)));
        // With unknown sizes it stays a transpose + matmul.
        let plan2 = lower(
            &block.clone(),
            &SizeEnv::default(),
            &EngineConfig::default(),
        );
        assert!(plan2.instrs.iter().any(|i| i.op == HopOp::op(MATMUL)));
        assert!(plan2.had_unknown);
    }

    #[test]
    fn dce_drops_unused_nodes() {
        // 'dead' is bound but y only needs X + 1; both bindings are roots,
        // so both are lowered — but an unbound intermediate is dropped.
        let program = compile_program(
            &parse_program("tmp = t(X)\ntmp = X + 1\ny = tmp").unwrap(),
            &|_| None,
        )
        .unwrap();
        let crate::compiler::Block::Basic(block) = &program.blocks[0] else {
            panic!()
        };
        let plan = lower(block, &size_env(&[("X", 4, 4)]), &EngineConfig::default());
        // the transpose (overwritten binding) is not reachable from roots
        assert!(!plan.instrs.iter().any(|i| i.op == HopOp::op(TRANSPOSE)));
    }

    #[test]
    fn effects_lowered_in_statement_order() {
        let program = compile_program(
            &parse_program("print(\"a\")\nx = 1 + 1\nprint(\"b\")").unwrap(),
            &|_| None,
        )
        .unwrap();
        let crate::compiler::Block::Basic(block) = &program.blocks[0] else {
            panic!()
        };
        let plan = lower(block, &SizeEnv::default(), &EngineConfig::default());
        let prints: Vec<usize> = plan
            .instrs
            .iter()
            .enumerate()
            .filter(|(_, i)| i.op == HopOp::op(crate::builtins::runtime::lookup("print").unwrap()))
            .map(|(k, _)| k)
            .collect();
        assert_eq!(prints.len(), 2);
        assert!(prints[0] < prints[1]);
        // operand of first print is the literal "a"
        let first = &plan.instrs[prints[0]];
        let lit = &plan.instrs[first.inputs[0]];
        assert_eq!(lit.op, HopOp::Lit(ScalarValue::Str("a".into())));
    }
}
