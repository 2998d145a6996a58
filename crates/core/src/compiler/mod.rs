//! The compilation chain (paper §2.3 (2)).
//!
//! A parsed [`Program`] is compiled into a hierarchy of program blocks:
//! control-flow statements delineate blocks, and all statements of a basic
//! (last-level) block are compiled into **one** HOP DAG — which is what
//! enables cross-statement common-subexpression elimination. Rewrites,
//! size propagation, memory estimates, and operator selection then run on
//! the DAG, and lowering produces the runtime instruction sequence.
//!
//! Function inlining happens up front at the AST level: calls to functions
//! with straight-line bodies (like `lmDS` in the paper's Figure 2) are
//! substituted into the caller, collapsing the abstraction stack so the
//! optimizer can reason about the end-to-end computation (Example 1).

pub mod autodiff;
pub mod explain;
pub mod fusion;
pub mod hop;
pub mod lower;
pub mod rewrites;
pub mod size;

use crate::builtins::runtime::{self, Effect, Operator, Outputs, ParamDefault};
use crate::builtins::runtime::{LEFT_INDEX, MATMUL, RIGHT_INDEX, TRANSPOSE};
use crate::parser::ast::*;
use hop::{HopDag, HopId, HopOp};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use sysds_common::hash::FxHashMap;
use sysds_common::{Result, ScalarValue, SysDsError};
use sysds_tensor::kernels::{AggFn, BinaryOp, Direction, UnaryOp};

/// A compiled program: top-level blocks plus the function table.
#[derive(Debug, Clone, Default)]
pub struct CompiledProgram {
    pub blocks: Vec<Block>,
    pub functions: FxHashMap<String, Arc<CompiledFunction>>,
}

/// A compiled function body.
#[derive(Debug)]
pub struct CompiledFunction {
    pub name: String,
    pub params: Vec<ParamSpec>,
    pub outputs: Vec<String>,
    pub blocks: Vec<Block>,
}

/// One function parameter with an optional constant default.
#[derive(Debug, Clone)]
pub struct ParamSpec {
    pub name: String,
    pub default: Option<ScalarValue>,
}

/// Program blocks (paper: "hierarchy of statement blocks ... control flow
/// statements like loops or branches delineate these blocks").
#[derive(Debug, Clone)]
pub enum Block {
    Basic(BasicBlock),
    If {
        cond: BasicBlock,
        then_blocks: Vec<Block>,
        else_blocks: Vec<Block>,
    },
    For {
        var: String,
        from: BasicBlock,
        to: BasicBlock,
        step: Option<BasicBlock>,
        body: Vec<Block>,
        parallel: bool,
    },
    While {
        cond: BasicBlock,
        body: Vec<Block>,
    },
    /// Call to a non-inlined DML function: `[targets] = f(args)`.
    Call {
        targets: Vec<String>,
        function: String,
        args: Vec<(Option<String>, BasicBlock)>,
    },
}

/// An ordered output of a basic block.
#[derive(Debug, Clone, PartialEq)]
pub enum Root {
    /// Bind the node's value to a variable after block execution.
    Bind(String, HopId),
    /// Execute for effect (`print`, `write`, `stop`).
    Effect(HopId),
}

impl Root {
    /// The root's node id.
    pub fn id(&self) -> HopId {
        match self {
            Root::Bind(_, id) | Root::Effect(id) => *id,
        }
    }
}

/// A basic block: one HOP DAG with ordered roots, plus a cached lowered
/// plan (invalidated when entry sizes change — dynamic recompilation).
#[derive(Debug)]
pub struct BasicBlock {
    pub dag: HopDag,
    pub roots: Vec<Root>,
    /// Cached lowered plan guarded for parfor workers.
    pub plan: Mutex<Option<Arc<lower::Plan>>>,
}

impl Clone for BasicBlock {
    fn clone(&self) -> BasicBlock {
        BasicBlock {
            dag: self.dag.clone(),
            roots: self.roots.clone(),
            plan: Mutex::new(None),
        }
    }
}

impl BasicBlock {
    fn new(dag: HopDag, roots: Vec<Root>) -> BasicBlock {
        BasicBlock {
            dag,
            roots,
            plan: Mutex::new(None),
        }
    }

    /// Live-in variables (names read before written inside the block).
    pub fn live_ins(&self) -> Vec<String> {
        let mut ins = Vec::new();
        for node in self.dag.nodes() {
            if let HopOp::Var(name) = &node.op {
                if !ins.contains(name) {
                    ins.push(name.clone());
                }
            }
        }
        ins
    }
}

static GENSYM: AtomicUsize = AtomicUsize::new(0);

fn gensym(prefix: &str) -> String {
    format!("__{prefix}{}", GENSYM.fetch_add(1, Ordering::Relaxed))
}

/// Compile a program. `extra_functions` supplies DML-bodied builtins
/// resolved on demand (paper §2.2's registration mechanism).
pub fn compile_program(
    program: &Program,
    extra_functions: &dyn Fn(&str) -> Option<Program>,
) -> Result<CompiledProgram> {
    let mut ctx = Ctx::default();
    // Collect user function definitions first (any order in the script).
    for f in &program.functions {
        ctx.defs.insert(f.name.clone(), f.clone());
    }
    // Resolve DML-bodied builtins reachable from the script.
    resolve_builtins(program, &mut ctx, extra_functions)?;

    // Compile every function (inlining within function bodies too).
    let names: Vec<String> = ctx.defs.keys().cloned().collect();
    let mut functions = FxHashMap::default();
    for name in names {
        let def = ctx.defs.get(&name).unwrap().clone();
        let body = rewrite_stmts(&def.body, &ctx)?;
        let blocks = compile_stmts(&body, &ctx)?;
        let mut params = Vec::new();
        for (pname, _ty, default) in &def.params {
            let default = match default {
                None => None,
                Some(e) => Some(const_eval(e).ok_or_else(|| {
                    SysDsError::compile(format!(
                        "default for parameter '{pname}' of '{name}' must be a constant"
                    ))
                })?),
            };
            params.push(ParamSpec {
                name: pname.clone(),
                default,
            });
        }
        functions.insert(
            name.clone(),
            Arc::new(CompiledFunction {
                name: name.clone(),
                params,
                outputs: def.outputs.clone(),
                blocks,
            }),
        );
    }

    let stmts = rewrite_stmts(&program.statements, &ctx)?;
    let blocks = compile_stmts(&stmts, &ctx)?;
    Ok(CompiledProgram { blocks, functions })
}

#[derive(Default)]
struct Ctx {
    /// All known function definitions (user + resolved DML builtins).
    defs: FxHashMap<String, FunctionDef>,
}

/// Walk the program for calls to unknown functions and pull in DML-bodied
/// builtins transitively.
fn resolve_builtins(
    program: &Program,
    ctx: &mut Ctx,
    extra: &dyn Fn(&str) -> Option<Program>,
) -> Result<()> {
    let mut pending: Vec<String> = Vec::new();
    let scan_stmts = |stmts: &[Stmt], pending: &mut Vec<String>| {
        collect_called_names(stmts, pending);
    };
    scan_stmts(&program.statements, &mut pending);
    for f in &program.functions {
        scan_stmts(&f.body, &mut pending);
    }
    while let Some(name) = pending.pop() {
        if ctx.defs.contains_key(&name) || is_runtime_builtin(&name) {
            continue;
        }
        if let Some(sub) = extra(&name) {
            for f in &sub.functions {
                if !ctx.defs.contains_key(&f.name) {
                    collect_called_names(&f.body, &mut pending);
                    ctx.defs.insert(f.name.clone(), f.clone());
                }
            }
        }
        // Unknown names that are neither runtime builtins nor registered
        // functions surface as compile errors later, with context.
    }
    Ok(())
}

fn collect_called_names(stmts: &[Stmt], out: &mut Vec<String>) {
    fn walk_expr(e: &Expr, out: &mut Vec<String>) {
        match e {
            Expr::Call { name, args } => {
                out.push(name.clone());
                for a in args {
                    walk_expr(&a.value, out);
                }
            }
            Expr::Unary(_, a) => walk_expr(a, out),
            Expr::Binary(_, a, b) | Expr::Seq(a, b) => {
                walk_expr(a, out);
                walk_expr(b, out);
            }
            Expr::Index { target, rows, cols } => {
                walk_expr(target, out);
                for ix in [rows, cols] {
                    match ix {
                        IndexExpr::Single(e) => walk_expr(e, out),
                        IndexExpr::Range(a, b) => {
                            walk_expr(a, out);
                            walk_expr(b, out);
                        }
                        IndexExpr::All => {}
                    }
                }
            }
            Expr::Const(_) | Expr::Var(_) => {}
        }
    }
    for s in stmts {
        match s {
            Stmt::Assign { value, .. }
            | Stmt::MultiAssign { value, .. }
            | Stmt::ExprStmt(value) => walk_expr(value, out),
            Stmt::IndexAssign {
                value, rows, cols, ..
            } => {
                walk_expr(value, out);
                for ix in [rows, cols] {
                    match ix {
                        IndexExpr::Single(e) => walk_expr(e, out),
                        IndexExpr::Range(a, b) => {
                            walk_expr(a, out);
                            walk_expr(b, out);
                        }
                        IndexExpr::All => {}
                    }
                }
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                walk_expr(cond, out);
                collect_called_names(then_branch, out);
                collect_called_names(else_branch, out);
            }
            Stmt::For {
                from,
                to,
                step,
                body,
                ..
            } => {
                walk_expr(from, out);
                walk_expr(to, out);
                if let Some(s) = step {
                    walk_expr(s, out);
                }
                collect_called_names(body, out);
            }
            Stmt::Parfor { from, to, body, .. } => {
                walk_expr(from, out);
                walk_expr(to, out);
                collect_called_names(body, out);
            }
            Stmt::While { cond, body } => {
                walk_expr(cond, out);
                collect_called_names(body, out);
            }
        }
    }
}

/// Evaluate a constant expression at compile time (function defaults).
fn const_eval(e: &Expr) -> Option<ScalarValue> {
    match e {
        Expr::Const(v) => Some(v.clone()),
        Expr::Unary(UnOp::Neg, inner) => match const_eval(inner)? {
            ScalarValue::F64(v) => Some(ScalarValue::F64(-v)),
            ScalarValue::I64(v) => Some(ScalarValue::I64(-v)),
            _ => None,
        },
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Function inlining (AST level)
// ---------------------------------------------------------------------

/// Whether a function body is straight-line and free of calls to other
/// registered functions — the inlining criterion.
fn is_inlinable(def: &FunctionDef, ctx: &Ctx) -> bool {
    fn expr_ok(e: &Expr, ctx: &Ctx) -> bool {
        match e {
            Expr::Call { name, args } => {
                (is_runtime_builtin(name) || !ctx.defs.contains_key(name))
                    && args.iter().all(|a| expr_ok(&a.value, ctx))
            }
            Expr::Unary(_, a) => expr_ok(a, ctx),
            Expr::Binary(_, a, b) | Expr::Seq(a, b) => expr_ok(a, ctx) && expr_ok(b, ctx),
            Expr::Index { target, rows, cols } => {
                expr_ok(target, ctx) && index_ok(rows, ctx) && index_ok(cols, ctx)
            }
            Expr::Const(_) | Expr::Var(_) => true,
        }
    }
    fn index_ok(ix: &IndexExpr, ctx: &Ctx) -> bool {
        match ix {
            IndexExpr::All => true,
            IndexExpr::Single(e) => expr_ok(e, ctx),
            IndexExpr::Range(a, b) => expr_ok(a, ctx) && expr_ok(b, ctx),
        }
    }
    def.body.iter().all(|s| match s {
        Stmt::Assign { value, .. } => expr_ok(value, ctx),
        Stmt::IndexAssign { value, .. } => expr_ok(value, ctx),
        Stmt::ExprStmt(e) => expr_ok(e, ctx),
        _ => false,
    })
}

/// Rename all variables of an inlined body with a unique prefix.
fn rename_expr(e: &Expr, map: &FxHashMap<String, String>) -> Expr {
    map_expr(e, &mut |node| rename_var(node, map))
}

fn rename_index(ix: &IndexExpr, map: &FxHashMap<String, String>) -> IndexExpr {
    map_index(ix, &mut |node| rename_var(node, map))
}

fn rename_var(node: Expr, map: &FxHashMap<String, String>) -> Expr {
    match node {
        Expr::Var(n) => Expr::Var(map.get(&n).cloned().unwrap_or(n)),
        other => other,
    }
}

/// Rebuild `e` bottom-up, left to right, passing every rebuilt node
/// through `f`.
fn map_expr(e: &Expr, f: &mut impl FnMut(Expr) -> Expr) -> Expr {
    let node = match e {
        Expr::Var(_) | Expr::Const(_) => e.clone(),
        Expr::Unary(op, a) => Expr::Unary(*op, Box::new(map_expr(a, f))),
        Expr::Binary(op, a, b) => {
            let a = map_expr(a, f);
            Expr::Binary(*op, Box::new(a), Box::new(map_expr(b, f)))
        }
        Expr::Seq(a, b) => {
            let a = map_expr(a, f);
            Expr::Seq(Box::new(a), Box::new(map_expr(b, f)))
        }
        Expr::Call { name, args } => Expr::Call {
            name: name.clone(),
            args: map_args(args, f),
        },
        Expr::Index { target, rows, cols } => {
            let target = Box::new(map_expr(target, f));
            let rows = map_index(rows, f);
            Expr::Index {
                target,
                rows,
                cols: map_index(cols, f),
            }
        }
    };
    f(node)
}

fn map_args(args: &[Arg], f: &mut impl FnMut(Expr) -> Expr) -> Vec<Arg> {
    args.iter()
        .map(|a| Arg {
            name: a.name.clone(),
            value: map_expr(&a.value, f),
        })
        .collect()
}

fn map_index(ix: &IndexExpr, f: &mut impl FnMut(Expr) -> Expr) -> IndexExpr {
    match ix {
        IndexExpr::All => IndexExpr::All,
        IndexExpr::Single(e) => IndexExpr::Single(Box::new(map_expr(e, f))),
        IndexExpr::Range(a, b) => {
            let a = map_expr(a, f);
            IndexExpr::Range(Box::new(a), Box::new(map_expr(b, f)))
        }
    }
}

/// `s`, a statement without a body, with every call to a DML function
/// nested in one of its expressions hoisted into a fresh temporary whose
/// assignment is pushed to `out`: `B[, i] = f(X)` becomes `t = f(X);
/// B[, i] = t`. A call that is a whole statement (`x = f(..)`, `[a, b] =
/// f(..)`, `f(..)`) stays, with its arguments hoisted.
fn hoist_calls(s: &Stmt, ctx: &Ctx, out: &mut Vec<Stmt>) -> Stmt {
    let whole = |e: &Expr, out: &mut Vec<Stmt>| match e {
        Expr::Call { name, args } if ctx.defs.contains_key(name) => Expr::Call {
            name: name.clone(),
            args: map_args(args, &mut |node| hoist_call(node, ctx, out)),
        },
        _ => map_expr(e, &mut |node| hoist_call(node, ctx, out)),
    };
    match s {
        Stmt::Assign { target, value } => Stmt::Assign {
            target: target.clone(),
            value: whole(value, out),
        },
        Stmt::MultiAssign { targets, value } => Stmt::MultiAssign {
            targets: targets.clone(),
            value: whole(value, out),
        },
        Stmt::ExprStmt(e) => Stmt::ExprStmt(whole(e, out)),
        Stmt::IndexAssign {
            target,
            rows,
            cols,
            value,
        } => {
            let mut each = |node| hoist_call(node, ctx, out);
            let value = map_expr(value, &mut each);
            Stmt::IndexAssign {
                target: target.clone(),
                rows: map_index(rows, &mut each),
                cols: map_index(cols, &mut each),
                value,
            }
        }
        _ => unreachable!("control flow has bodies, not expressions to hoist from"),
    }
}

/// `node` itself, or a fresh temporary bound to it by a statement pushed
/// to `out` when it is a call to a DML function.
fn hoist_call(node: Expr, ctx: &Ctx, out: &mut Vec<Stmt>) -> Expr {
    match node {
        Expr::Call { ref name, .. } if ctx.defs.contains_key(name) => {
            let temp = gensym("call");
            out.push(Stmt::Assign {
                target: temp.clone(),
                value: node,
            });
            Expr::Var(temp)
        }
        other => other,
    }
}

/// Bind call arguments to parameters — the one rule for inlined user
/// functions, builtins and the calls the interpreter runs: a named argument
/// binds the parameter of that name, a positional one the first parameter
/// still unbound, and a parameter left unbound takes its `default`. Returns
/// one value per parameter, in parameter order. The error is the message
/// alone; callers raise it as a compile or runtime error.
pub(crate) fn bind_params<'a, P, T>(
    func: &str,
    params: &'a [P],
    name: impl Fn(&'a P) -> &'a str,
    args: impl IntoIterator<Item = (Option<&'a str>, T)>,
    default: impl Fn(&'a P) -> Option<T>,
) -> std::result::Result<Vec<T>, String> {
    let mut bound: Vec<Option<T>> = params.iter().map(|_| None).collect();
    let mut pos = 0usize;
    for (arg, value) in args {
        match arg {
            Some(n) => {
                let idx = params
                    .iter()
                    .position(|p| name(p) == n)
                    .ok_or_else(|| format!("unknown argument '{n}' for '{func}'"))?;
                bound[idx] = Some(value);
            }
            None => {
                while pos < bound.len() && bound[pos].is_some() {
                    pos += 1;
                }
                if pos >= bound.len() {
                    return Err(format!("too many arguments for '{func}'"));
                }
                bound[pos] = Some(value);
                pos += 1;
            }
        }
    }
    params
        .iter()
        .zip(bound)
        .map(|(p, b)| {
            b.or_else(|| default(p))
                .ok_or_else(|| format!("missing argument '{}' for '{func}'", name(p)))
        })
        .collect()
}

/// Prepare a statement list for block construction, recursively:
/// - every call to a DML function nested in an expression becomes a
///   statement of its own ([`hoist_calls`]); `if`/`while` predicates and
///   loop bounds are left as they are;
/// - eligible function calls are inlined;
/// - static branch removal (paper Example 1: "removing unnecessary
///   branches"): an `if` with a constant predicate is spliced into the
///   surrounding statements, so the taken branch merges into the
///   enclosing basic block.
fn rewrite_stmts(stmts: &[Stmt], ctx: &Ctx) -> Result<Vec<Stmt>> {
    let mut out = Vec::with_capacity(stmts.len());
    for s in stmts {
        // Temporaries hoisted out of `s`, assigned before it.
        let mut hoisted = Vec::new();
        let s = match s {
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => match const_eval_cond(cond) {
                Some(taken) => {
                    let branch = if taken { then_branch } else { else_branch };
                    out.extend(rewrite_stmts(branch, ctx)?);
                    continue;
                }
                None => Stmt::If {
                    cond: cond.clone(),
                    then_branch: rewrite_stmts(then_branch, ctx)?,
                    else_branch: rewrite_stmts(else_branch, ctx)?,
                },
            },
            Stmt::For {
                var,
                from,
                to,
                step,
                body,
            } => Stmt::For {
                var: var.clone(),
                from: from.clone(),
                to: to.clone(),
                step: step.clone(),
                body: rewrite_stmts(body, ctx)?,
            },
            Stmt::Parfor {
                var,
                from,
                to,
                body,
            } => Stmt::Parfor {
                var: var.clone(),
                from: from.clone(),
                to: to.clone(),
                body: rewrite_stmts(body, ctx)?,
            },
            Stmt::While { cond, body } => Stmt::While {
                cond: cond.clone(),
                body: rewrite_stmts(body, ctx)?,
            },
            other => hoist_calls(other, ctx, &mut hoisted),
        };
        for s in hoisted.into_iter().chain([s]) {
            match s {
                Stmt::Assign {
                    target,
                    value: Expr::Call { name, args },
                } if ctx.defs.get(&name).is_some_and(|d| is_inlinable(d, ctx)) => {
                    inline_call(ctx, &name, &args, std::slice::from_ref(&target), &mut out)?;
                }
                Stmt::MultiAssign {
                    targets,
                    value: Expr::Call { name, args },
                } if ctx.defs.get(&name).is_some_and(|d| is_inlinable(d, ctx)) => {
                    inline_call(ctx, &name, &args, &targets, &mut out)?;
                }
                other => out.push(other),
            }
        }
    }
    Ok(out)
}

fn inline_call(
    ctx: &Ctx,
    name: &str,
    args: &[Arg],
    targets: &[String],
    out: &mut Vec<Stmt>,
) -> Result<()> {
    let def = ctx.defs.get(name).expect("checked by caller");
    if targets.len() > def.outputs.len() {
        return Err(SysDsError::compile(format!(
            "'{name}' returns {} values, {} requested",
            def.outputs.len(),
            targets.len()
        )));
    }
    let prefix = gensym("il");
    let mut map = FxHashMap::default();
    // Rename every local mention: params, outputs, and body-assigned vars.
    for (p, _, _) in &def.params {
        map.insert(p.clone(), format!("{prefix}_{p}"));
    }
    for o in &def.outputs {
        map.entry(o.clone())
            .or_insert_with(|| format!("{prefix}_{o}"));
    }
    for s in &def.body {
        if let Stmt::Assign { target, .. } | Stmt::IndexAssign { target, .. } = s {
            map.entry(target.clone())
                .or_insert_with(|| format!("{prefix}_{target}"));
        }
    }
    // Parameter bindings.
    let values = bind_params(
        &def.name,
        &def.params,
        |p| p.0.as_str(),
        args.iter().map(|a| (a.name.as_deref(), a.value.clone())),
        |p| p.2.clone(),
    )
    .map_err(SysDsError::compile)?;
    for ((pname, _, _), value) in def.params.iter().zip(values) {
        out.push(Stmt::Assign {
            target: map[pname].clone(),
            value,
        });
    }
    // Body with renames.
    for s in &def.body {
        match s {
            Stmt::Assign { target, value } => out.push(Stmt::Assign {
                target: map.get(target).cloned().unwrap_or_else(|| target.clone()),
                value: rename_expr(value, &map),
            }),
            Stmt::IndexAssign {
                target,
                rows,
                cols,
                value,
            } => out.push(Stmt::IndexAssign {
                target: map.get(target).cloned().unwrap_or_else(|| target.clone()),
                rows: rename_index(rows, &map),
                cols: rename_index(cols, &map),
                value: rename_expr(value, &map),
            }),
            Stmt::ExprStmt(e) => out.push(Stmt::ExprStmt(rename_expr(e, &map))),
            _ => unreachable!("is_inlinable guarantees straight-line body"),
        }
    }
    // Output bindings.
    for (t, o) in targets.iter().zip(&def.outputs) {
        out.push(Stmt::Assign {
            target: t.clone(),
            value: Expr::Var(map[o].clone()),
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Block construction
// ---------------------------------------------------------------------

fn compile_stmts(stmts: &[Stmt], ctx: &Ctx) -> Result<Vec<Block>> {
    let mut blocks = Vec::new();
    let mut builder = DagBuilder::new();
    for s in stmts {
        match s {
            Stmt::Assign { target, value } => {
                if let Expr::Call { name, args } = value {
                    if let Some((builtin, outputs)) = whole_rhs(name) {
                        let targets = std::slice::from_ref(target);
                        builder.builtin_block(builtin, outputs, args, targets, ctx, &mut blocks)?;
                        continue;
                    }
                    if ctx.defs.contains_key(name) {
                        builder.flush(&mut blocks);
                        blocks.push(compile_call(ctx, name, args, vec![target.clone()])?);
                        continue;
                    }
                }
                let id = builder.expr(value, ctx)?;
                builder.bind(target, id);
            }
            Stmt::MultiAssign { targets, value } => {
                let Expr::Call { name, args } = value else {
                    return Err(SysDsError::compile("multi-assignment requires a call"));
                };
                if let Some((builtin, outputs)) = whole_rhs(name) {
                    builder.builtin_block(builtin, outputs, args, targets, ctx, &mut blocks)?;
                } else if ctx.defs.contains_key(name) {
                    builder.flush(&mut blocks);
                    blocks.push(compile_call(ctx, name, args, targets.clone())?);
                } else {
                    return Err(SysDsError::compile(format!(
                        "'{name}' is not a multi-output function"
                    )));
                }
            }
            Stmt::IndexAssign {
                target,
                rows,
                cols,
                value,
            } => {
                let id = builder.index_assign(target, rows, cols, value, ctx)?;
                builder.bind(target, id);
            }
            Stmt::ExprStmt(e) => {
                if let Expr::Call { name, args } = e {
                    if ctx.defs.contains_key(name) {
                        builder.flush(&mut blocks);
                        blocks.push(compile_call(ctx, name, args, vec![])?);
                        continue;
                    }
                }
                // A `write` gets a basic block of its own, so CSE cannot
                // merge a `read` of the file across it.
                let barrier = matches!(e, Expr::Call { name, .. }
                    if runtime::lookup(name).is_some_and(|b| b.effect == Effect::Write));
                if barrier {
                    builder.flush(&mut blocks);
                }
                let id = builder.expr(e, ctx)?;
                builder.effect(id);
                if barrier {
                    builder.flush(&mut blocks);
                }
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                builder.flush(&mut blocks);
                blocks.push(Block::If {
                    cond: compile_expr_block(cond, ctx)?,
                    then_blocks: compile_stmts(then_branch, ctx)?,
                    else_blocks: compile_stmts(else_branch, ctx)?,
                });
            }
            Stmt::For {
                var,
                from,
                to,
                step,
                body,
            } => {
                builder.flush(&mut blocks);
                blocks.push(Block::For {
                    var: var.clone(),
                    from: compile_expr_block(from, ctx)?,
                    to: compile_expr_block(to, ctx)?,
                    step: step
                        .as_ref()
                        .map(|s| compile_expr_block(s, ctx))
                        .transpose()?,
                    body: compile_stmts(body, ctx)?,
                    parallel: false,
                });
            }
            Stmt::Parfor {
                var,
                from,
                to,
                body,
            } => {
                builder.flush(&mut blocks);
                blocks.push(Block::For {
                    var: var.clone(),
                    from: compile_expr_block(from, ctx)?,
                    to: compile_expr_block(to, ctx)?,
                    step: None,
                    body: compile_stmts(body, ctx)?,
                    parallel: true,
                });
            }
            Stmt::While { cond, body } => {
                builder.flush(&mut blocks);
                blocks.push(Block::While {
                    cond: compile_expr_block(cond, ctx)?,
                    body: compile_stmts(body, ctx)?,
                });
            }
        }
    }
    builder.flush(&mut blocks);
    Ok(blocks)
}

fn const_eval_cond(e: &Expr) -> Option<bool> {
    match e {
        Expr::Const(v) => v.as_bool().ok(),
        _ => None,
    }
}

fn compile_call(ctx: &Ctx, name: &str, args: &[Arg], targets: Vec<String>) -> Result<Block> {
    let mut compiled_args = Vec::with_capacity(args.len());
    for a in args {
        compiled_args.push((a.name.clone(), compile_expr_block(&a.value, ctx)?));
    }
    Ok(Block::Call {
        targets,
        function: name.to_string(),
        args: compiled_args,
    })
}

/// Compile a single expression into a one-root basic block.
fn compile_expr_block(e: &Expr, ctx: &Ctx) -> Result<BasicBlock> {
    let mut b = DagBuilder::new();
    let id = b.expr(e, ctx)?;
    b.roots.push(Root::Bind("__result".into(), id));
    Ok(b.finish())
}

/// Expression compile entry point for standalone use (tests, APIs) —
/// no user functions visible.
pub fn compile_expression(e: &Expr) -> Result<BasicBlock> {
    compile_expr_block(e, &Ctx::default())
}

struct DagBuilder {
    dag: HopDag,
    /// Block-local variable bindings (name → node).
    env: FxHashMap<String, HopId>,
    roots: Vec<Root>,
}

impl DagBuilder {
    fn new() -> DagBuilder {
        DagBuilder {
            dag: HopDag::new(),
            env: FxHashMap::default(),
            roots: Vec::new(),
        }
    }

    fn bind(&mut self, name: &str, id: HopId) {
        self.env.insert(name.to_string(), id);
        // Keep only the last binding per name in the roots.
        self.roots
            .retain(|r| !matches!(r, Root::Bind(n, _) if n == name));
        self.roots.push(Root::Bind(name.to_string(), id));
    }

    fn effect(&mut self, id: HopId) {
        self.roots.push(Root::Effect(id));
    }

    fn finish(self) -> BasicBlock {
        BasicBlock::new(self.dag, self.roots)
    }

    fn flush(&mut self, blocks: &mut Vec<Block>) {
        if self.roots.is_empty() {
            return;
        }
        let b = std::mem::replace(self, DagBuilder::new());
        let block = b.finish();
        // Static rewrites + DCE happen once per block at compile time.
        let mut block = block;
        let _span = sysds_obs::Span::enter(sysds_obs::Phase::Rewrite, "static");
        let new_roots = rewrites::rewrite_static(&mut block.dag, &root_ids(&block.roots));
        for (root, &nid) in block.roots.iter_mut().zip(&new_roots) {
            match root {
                Root::Bind(_, id) | Root::Effect(id) => *id = nid,
            }
        }
        blocks.push(Block::Basic(block));
    }

    fn var(&mut self, name: &str) -> HopId {
        if let Some(&id) = self.env.get(name) {
            id
        } else {
            self.dag.add(HopOp::Var(name.to_string()), vec![])
        }
    }

    fn expr(&mut self, e: &Expr, ctx: &Ctx) -> Result<HopId> {
        Ok(match e {
            Expr::Const(v) => self.dag.lit(v.clone()),
            Expr::Var(n) => self.var(n),
            Expr::Unary(UnOp::Neg, a) => {
                let id = self.expr(a, ctx)?;
                self.dag.add(HopOp::unary(UnaryOp::Neg), vec![id])
            }
            Expr::Unary(UnOp::Not, a) => {
                let id = self.expr(a, ctx)?;
                self.dag.add(HopOp::unary(UnaryOp::Not), vec![id])
            }
            Expr::Binary(op, a, b) => {
                let (l, r) = (self.expr(a, ctx)?, self.expr(b, ctx)?);
                let hop = match op {
                    BinOp::MatMul => HopOp::op(MATMUL),
                    BinOp::Cell(op) => HopOp::binary(*op),
                };
                self.dag.add(hop, vec![l, r])
            }
            Expr::Seq(a, b) => {
                let (f, t) = (self.expr(a, ctx)?, self.expr(b, ctx)?);
                let one = self.dag.lit(ScalarValue::I64(1));
                let seq = runtime::lookup("seq").expect("seq is a runtime builtin");
                self.dag.add(HopOp::op(seq), vec![f, t, one])
            }
            Expr::Index { target, rows, cols } => {
                let t = self.expr(target, ctx)?;
                let (rl, rh) = self.index_bounds(rows, t, true, ctx)?;
                let (cl, ch) = self.index_bounds(cols, t, false, ctx)?;
                self.dag
                    .add(HopOp::op(RIGHT_INDEX), vec![t, rl, rh, cl, ch])
            }
            Expr::Call { name, args } => self.call(name, args, ctx)?,
        })
    }

    /// 1-based inclusive `(lo, hi)` bound nodes for one index dimension.
    fn index_bounds(
        &mut self,
        ix: &IndexExpr,
        target: HopId,
        is_rows: bool,
        ctx: &Ctx,
    ) -> Result<(HopId, HopId)> {
        Ok(match ix {
            IndexExpr::All => {
                let one = self.dag.lit(ScalarValue::I64(1));
                let dim = runtime::lookup(if is_rows { "nrow" } else { "ncol" });
                let dim = dim.expect("nrow and ncol are runtime builtins");
                (one, self.dag.add(HopOp::op(dim), vec![target]))
            }
            IndexExpr::Single(e) => {
                let id = self.expr(e, ctx)?;
                (id, id)
            }
            IndexExpr::Range(a, b) => (self.expr(a, ctx)?, self.expr(b, ctx)?),
        })
    }

    fn index_assign(
        &mut self,
        target: &str,
        rows: &IndexExpr,
        cols: &IndexExpr,
        value: &Expr,
        ctx: &Ctx,
    ) -> Result<HopId> {
        let t = self.var(target);
        let v = self.expr(value, ctx)?;
        let (rl, rh) = self.index_bounds(rows, t, true, ctx)?;
        let (cl, ch) = self.index_bounds(cols, t, false, ctx)?;
        Ok(self
            .dag
            .add(HopOp::op(LEFT_INDEX), vec![t, v, rl, rh, cl, ch]))
    }

    fn call(&mut self, name: &str, args: &[Arg], ctx: &Ctx) -> Result<HopId> {
        if ctx.defs.contains_key(name) {
            return Err(SysDsError::compile(format!(
                "call to function '{name}' must be a simple assignment (e.g. x = {name}(...))"
            )));
        }
        // Unary math builtins.
        if args.len() == 1 && args[0].name.is_none() {
            if let Some(u) = unary_builtin(name) {
                let id = self.expr(&args[0].value, ctx)?;
                return Ok(self.dag.add(HopOp::unary(u), vec![id]));
            }
            if let Some((f, d)) = agg_builtin(name) {
                let id = self.expr(&args[0].value, ctx)?;
                return Ok(self.dag.add(HopOp::agg(f, d), vec![id]));
            }
            if name == "t" {
                let id = self.expr(&args[0].value, ctx)?;
                return Ok(self.dag.add(HopOp::op(TRANSPOSE), vec![id]));
            }
        }
        // min/max with two arguments are element-wise.
        if (name == "min" || name == "max") && args.len() == 2 {
            let l = self.expr(&args[0].value, ctx)?;
            let r = self.expr(&args[1].value, ctx)?;
            let op = if name == "min" {
                BinaryOp::Min
            } else {
                BinaryOp::Max
            };
            return Ok(self.dag.add(HopOp::binary(op), vec![l, r]));
        }
        let Some(builtin) = runtime::lookup(name) else {
            return Err(SysDsError::compile(format!("unknown function '{name}'")));
        };
        if builtin.whole_rhs.is_some() {
            return Err(SysDsError::compile(format!(
                "'{name}' must be the whole right-hand side of an assignment"
            )));
        }
        let inputs = self.builtin_inputs(builtin, args, ctx)?;
        Ok(self.dag.add(HopOp::op(builtin), inputs))
    }

    /// Bind a runtime builtin's arguments to the positions of its
    /// parameters and compile them; a [`ParamDefault::Runtime`] parameter
    /// left unbound is left out, and the arguments past the last parameter
    /// of a variadic row follow in order.
    fn builtin_inputs(
        &mut self,
        builtin: &Operator,
        args: &[Arg],
        ctx: &Ctx,
    ) -> Result<Vec<HopId>> {
        let extra = if builtin.variadic {
            args.len().saturating_sub(builtin.params.len())
        } else {
            0
        };
        let (args, rest) = args.split_at(args.len() - extra);
        let exprs = bind_params(
            builtin.name,
            builtin.params,
            |p| p.0,
            args.iter()
                .map(|a| (a.name.as_deref(), Some(a.value.clone()))),
            |p| match p.1 {
                ParamDefault::Required => None,
                default => Some(default.value().map(Expr::Const)),
            },
        )
        .map_err(SysDsError::compile)?;
        let rest = rest.iter().map(|a| &a.value);
        let inputs = exprs
            .iter()
            .flatten()
            .chain(rest)
            .map(|e| self.expr(e, ctx));
        inputs.collect()
    }

    /// Compile `[targets] = builtin(args)` into a basic block of its own,
    /// with the nodes `outputs` adds for the targets.
    fn builtin_block(
        &mut self,
        builtin: &'static Operator,
        outputs: Outputs,
        args: &[Arg],
        targets: &[String],
        ctx: &Ctx,
        blocks: &mut Vec<Block>,
    ) -> Result<()> {
        self.flush(blocks);
        let inputs = self.builtin_inputs(builtin, args, ctx)?;
        let call = self.dag.add(HopOp::op(builtin), inputs);
        let outputs = outputs(&mut self.dag, call);
        let name = builtin.name;
        if targets.len() > outputs.len() {
            return Err(SysDsError::compile(format!(
                "'{name}' returns {} values, {} requested",
                outputs.len(),
                targets.len()
            )));
        }
        for (t, id) in targets.iter().zip(outputs) {
            self.bind(t, id);
        }
        self.flush(blocks);
        Ok(())
    }
}

fn root_ids(roots: &[Root]) -> Vec<HopId> {
    roots.iter().map(Root::id).collect()
}

/// The unary operator a DML function name calls: its opcode (`ceiling`
/// is `ceil`).
fn unary_builtin(name: &str) -> Option<UnaryOp> {
    let name = if name == "ceiling" { "ceil" } else { name };
    UnaryOp::ALL.into_iter().find(|u| u.opcode() == name)
}

fn agg_builtin(name: &str) -> Option<(AggFn, Direction)> {
    Some(match name {
        "sum" => (AggFn::Sum, Direction::Full),
        "mean" => (AggFn::Mean, Direction::Full),
        "min" => (AggFn::Min, Direction::Full),
        "max" => (AggFn::Max, Direction::Full),
        "var" => (AggFn::Var, Direction::Full),
        "sd" => (AggFn::Sd, Direction::Full),
        "sumSq" => (AggFn::SumSq, Direction::Full),
        "rowSums" => (AggFn::Sum, Direction::Row),
        "rowMeans" => (AggFn::Mean, Direction::Row),
        "rowMins" => (AggFn::Min, Direction::Row),
        "rowMaxs" => (AggFn::Max, Direction::Row),
        "rowVars" => (AggFn::Var, Direction::Row),
        "rowSds" => (AggFn::Sd, Direction::Row),
        "colSums" => (AggFn::Sum, Direction::Col),
        "colMeans" => (AggFn::Mean, Direction::Col),
        "colMins" => (AggFn::Min, Direction::Col),
        "colMaxs" => (AggFn::Max, Direction::Col),
        "colVars" => (AggFn::Var, Direction::Col),
        "colSds" => (AggFn::Sd, Direction::Col),
        _ => return None,
    })
}

/// Whether a name is a runtime builtin, executed as a DAG instruction.
pub fn is_runtime_builtin(name: &str) -> bool {
    runtime::lookup(name).is_some()
        || unary_builtin(name).is_some()
        || agg_builtin(name).is_some()
        || matches!(name, "t" | "min" | "max")
}

/// The row and output split of a builtin that must be the whole
/// right-hand side of an assignment.
fn whole_rhs(name: &str) -> Option<(&'static Operator, Outputs)> {
    let builtin = runtime::lookup(name)?;
    Some((builtin, builtin.whole_rhs?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtins::runtime::TSMM;
    use crate::parser::parse_program;

    fn compile(src: &str) -> CompiledProgram {
        compile_program(&parse_program(src).unwrap(), &|_| None).unwrap()
    }

    #[test]
    fn straight_line_merges_into_one_block() {
        let p = compile("a = 1 + 2\nb = a * 3\nprint(toString(b))");
        assert_eq!(p.blocks.len(), 1);
        let Block::Basic(b) = &p.blocks[0] else {
            panic!()
        };
        // constant folding collapsed everything into literals
        assert!(b.roots.len() >= 2);
    }

    #[test]
    fn control_flow_delineates_blocks() {
        let p = compile("a = 1\nif (x > 0) { b = 2 }\nc = 3");
        assert_eq!(p.blocks.len(), 3);
        assert!(matches!(p.blocks[0], Block::Basic(_)));
        assert!(matches!(p.blocks[1], Block::If { .. }));
        assert!(matches!(p.blocks[2], Block::Basic(_)));
    }

    #[test]
    fn static_branch_removal() {
        // if (FALSE) is removed entirely; if (TRUE) is spliced inline
        let p = compile("if (FALSE) { a = slow_path_nope(1) }\nb = 2");
        assert_eq!(p.blocks.len(), 1);
        let p = compile("if (TRUE) { a = 1 } else { a = bad_fn(2) }\nb = a");
        assert_eq!(p.blocks.len(), 1);
    }

    #[test]
    fn cse_across_statements() {
        let p = compile("a = t(X) %*% X\nb = t(X) %*% X\nc = a + b");
        let Block::Basic(bb) = &p.blocks[0] else {
            panic!()
        };
        // One tsmm node only (fused and CSE'd).
        let tsmm_count = bb
            .dag
            .nodes()
            .iter()
            .filter(|n| n.op == HopOp::op(TSMM))
            .count();
        assert_eq!(tsmm_count, 1);
    }

    #[test]
    fn tsmm_fusion_applies() {
        let p = compile("g = t(X) %*% X");
        let Block::Basic(bb) = &p.blocks[0] else {
            panic!()
        };
        assert!(bb.dag.nodes().iter().any(|n| n.op == HopOp::op(TSMM)));
    }

    #[test]
    fn user_function_call_becomes_call_block() {
        let src = r#"
            f = function(matrix[double] X) return (matrix[double] Y) {
                if (nrow(X) > 3) { Y = X } else { Y = t(X) }
            }
            Z = f(A)
        "#;
        let p = compile(src);
        assert!(p.functions.contains_key("f"));
        assert!(matches!(p.blocks[0], Block::Call { .. }));
    }

    #[test]
    fn straight_line_function_is_inlined() {
        let src = r#"
            sq = function(matrix[double] X) return (matrix[double] Y) { Y = X * X }
            Z = sq(A)
        "#;
        let p = compile(src);
        // Inlined: the top level is a single basic block, no Call.
        assert_eq!(p.blocks.len(), 1);
        assert!(matches!(p.blocks[0], Block::Basic(_)));
    }

    #[test]
    fn inlining_enables_cross_function_cse() {
        // Both calls compute X*X; after inlining, CSE should share it.
        let src = r#"
            sq = function(matrix[double] X) return (matrix[double] Y) { Y = X * X }
            a = sq(A)
            b = sq(A)
            c = a + b
        "#;
        let p = compile(src);
        let Block::Basic(bb) = &p.blocks[0] else {
            panic!()
        };
        let muls = bb
            .dag
            .nodes()
            .iter()
            .filter(|n| n.op == HopOp::binary(BinaryOp::Mul))
            .count();
        assert_eq!(muls, 1, "X*X must be CSE'd across inlined calls");
    }

    #[test]
    fn named_args_resolved_per_signature() {
        let p = compile("X = rand(cols=3, rows=5, seed=42)");
        let Block::Basic(bb) = &p.blocks[0] else {
            panic!()
        };
        let rand = bb
            .dag
            .nodes()
            .iter()
            .find(|n| n.op == HopOp::op(runtime::lookup("rand").unwrap()))
            .unwrap();
        // canonical order: rows, cols, min, max, sparsity, seed, pdf
        assert_eq!(bb.dag.as_lit(rand.inputs[0]), Some(&ScalarValue::I64(5)));
        assert_eq!(bb.dag.as_lit(rand.inputs[1]), Some(&ScalarValue::I64(3)));
        assert_eq!(bb.dag.as_lit(rand.inputs[5]), Some(&ScalarValue::I64(42)));
    }

    #[test]
    fn unknown_function_rejected() {
        let err = compile_program(&parse_program("x = frobnicate(1)").unwrap(), &|_| None);
        assert!(err.is_err());
    }

    #[test]
    fn too_many_args_rejected() {
        let err = compile_program(&parse_program("x = nrow(a, b)").unwrap(), &|_| None);
        assert!(err.is_err());
    }

    fn compile_err(src: &str) -> String {
        compile_program(&parse_program(src).unwrap(), &|_| None)
            .unwrap_err()
            .to_string()
    }

    /// Straight-line, so calls are inlined and bound at compile time.
    const SCALE: &str =
        "scale2 = function(matrix[double] X, double s = 1) return (matrix[double] Y) { Y = X * s }\n";

    #[test]
    fn user_function_argument_errors() {
        let err = compile_err(&format!("{SCALE}Z = scale2(A, t=2)"));
        assert!(err.contains("unknown argument 't' for 'scale2'"), "{err}");
        let err = compile_err(&format!("{SCALE}Z = scale2(A, 2, 3)"));
        assert!(err.contains("too many arguments for 'scale2'"), "{err}");
        let err = compile_err(&format!("{SCALE}Z = scale2(s=2)"));
        assert!(err.contains("missing argument 'X' for 'scale2'"), "{err}");
    }

    #[test]
    fn builtin_argument_errors() {
        let err = compile_err("X = rand(rows=2, cols=2, bogus=1)");
        assert!(err.contains("unknown argument 'bogus' for 'rand'"), "{err}");
        let err = compile_err("x = nrow(a, b)");
        assert!(err.contains("too many arguments for 'nrow'"), "{err}");
        let err = compile_err("X = rand(cols=2)");
        assert!(err.contains("missing argument 'rows' for 'rand'"), "{err}");
        // Call-block builtins bind with the same rule.
        let err = compile_err("w = paramserv(X=X, y=y, epoch=1)");
        assert!(
            err.contains("unknown argument 'epoch' for 'paramserv'"),
            "{err}"
        );
        let err = compile_err("w = paramserv(X=X)");
        assert!(
            err.contains("missing argument 'y' for 'paramserv'"),
            "{err}"
        );
        let err = compile_err("[w, V] = eigen(A, extra=3)");
        assert!(
            err.contains("unknown argument 'extra' for 'eigen'"),
            "{err}"
        );
        let err = compile_err("[w, V] = eigen(A, B)");
        assert!(err.contains("too many arguments for 'eigen'"), "{err}");
        let err = compile_err("[X, M] = transformencode(target=F, spec=s, meta=m)");
        assert!(
            err.contains("unknown argument 'meta' for 'transformencode'"),
            "{err}"
        );
        let err = compile_err("X = transformapply(target=F)");
        assert!(
            err.contains("missing argument 'meta' for 'transformapply'"),
            "{err}"
        );
        let err = compile_err("x = 1 + eigen(A)");
        assert!(
            err.contains("'eigen' must be the whole right-hand side"),
            "{err}"
        );
    }

    #[test]
    fn called_function_argument_errors() {
        // A loop in the body keeps the function a call block: its arguments
        // are bound by the interpreter, with the same rule and messages.
        let def = "f = function(double a, double b = 2) return (double c) {\n  c = 0\n  for (i in 1:2) { c = c + a * b }\n}\n";
        let run = |call: &str| {
            let mut s = crate::api::SystemDS::new();
            s.execute(&format!("{def}{call}"), &[], &["c"])
        };
        assert_eq!(run("c = f(3)").unwrap().f64("c").unwrap(), 12.0);
        assert_eq!(run("c = f(b=1, a=3)").unwrap().f64("c").unwrap(), 6.0);
        let err = run("c = f(3, z=1)").unwrap_err().to_string();
        assert!(err.contains("unknown argument 'z' for 'f'"), "{err}");
        let err = run("c = f(1, 2, 3)").unwrap_err().to_string();
        assert!(err.contains("too many arguments for 'f'"), "{err}");
        let err = run("c = f(b=1)").unwrap_err().to_string();
        assert!(err.contains("missing argument 'a' for 'f'"), "{err}");
    }

    #[test]
    fn multi_output_builtins_are_instructions() {
        let p = compile(
            r#"
            [X, M] = transformencode(target=F, spec="recode=a")
            Y = transformapply(target=F, meta=M)
            [w, V] = eigen(A)
            b = paramserv(X=X, y=y)
            "#,
        );
        // One basic block per statement, no call blocks.
        assert_eq!(p.blocks.len(), 4);
        assert!(p.blocks.iter().all(|b| matches!(b, Block::Basic(_))));
        let config = sysds_common::EngineConfig::default();
        let text = explain::explain(&p, &config, explain::ExplainLevel::Runtime);
        for op in ["transformencode", "transformapply", "eigen", "paramserv"] {
            assert!(text.contains(&format!("] {op} in=")), "{op}:\n{text}");
        }
        let err = compile_err("[w, V, U] = eigen(A)");
        assert!(
            err.contains("'eigen' returns 2 values, 3 requested"),
            "{err}"
        );
    }

    #[test]
    fn unseeded_rand_calls_are_not_merged() {
        let rands = |src: &str| {
            let p = compile(src);
            let Block::Basic(bb) = &p.blocks[0] else {
                panic!()
            };
            let nodes = bb.dag.nodes().iter();
            let rand = HopOp::op(runtime::lookup("rand").unwrap());
            nodes.filter(|n| n.op == rand).count()
        };
        assert_eq!(
            rands("A = rand(rows=3, cols=3)\nB = rand(rows=3, cols=3)"),
            2
        );
        assert_eq!(
            rands("A = rand(rows=3, cols=3, seed=7)\nB = rand(rows=3, cols=3, seed=7)"),
            1
        );
        let mut s = crate::api::SystemDS::new();
        let src = "A = rand(rows=3, cols=3)\nB = rand(rows=3, cols=3)\nd = sum(abs(A - B))";
        let d = s.execute(src, &[], &["d"]).unwrap().f64("d").unwrap();
        assert!(d > 0.0, "two unseeded calls drew the same values");
    }

    #[test]
    fn multi_assign_needs_multi_output() {
        let err = compile_program(&parse_program("[a, b] = nrow(X)").unwrap(), &|_| None);
        assert!(err.is_err());
    }

    #[test]
    fn builtin_registry_resolution() {
        let registry = |name: &str| -> Option<Program> {
            if name == "double_it" {
                Some(
                    parse_program(
                        "double_it = function(matrix[double] X) return (matrix[double] Y) { Y = X * 2 }",
                    )
                    .unwrap(),
                )
            } else {
                None
            }
        };
        let p = compile_program(&parse_program("Z = double_it(A)").unwrap(), &registry).unwrap();
        // inlined (straight-line)
        assert_eq!(p.blocks.len(), 1);
        assert!(matches!(p.blocks[0], Block::Basic(_)));
    }

    #[test]
    fn live_ins_detected() {
        let p = compile("a = X + Y\nb = a * X");
        let Block::Basic(bb) = &p.blocks[0] else {
            panic!()
        };
        let mut ins = bb.live_ins();
        ins.sort();
        assert_eq!(ins, vec!["X".to_string(), "Y".to_string()]);
    }

    #[test]
    fn index_assign_builds_left_index() {
        let p = compile("B[, i] = v");
        let Block::Basic(bb) = &p.blocks[0] else {
            panic!()
        };
        assert!(bb.dag.nodes().iter().any(|n| n.op == HopOp::op(LEFT_INDEX)));
        // the binding for B points at the LeftIndex node
        let Root::Bind(name, id) = &bb.roots[bb.roots.len() - 1] else {
            panic!()
        };
        assert_eq!(name, "B");
        assert_eq!(bb.dag.node(*id).op, HopOp::op(LEFT_INDEX));
    }

    #[test]
    fn nested_calls_become_call_blocks_before_their_statement() {
        let src = r#"
            f = function(matrix[double] X) return (matrix[double] Y) {
                if (nrow(X) > 3) { Y = X } else { Y = t(X) }
            }
            B[, 1] = f(A)
            s = 2 * sum(f(f(A)))
        "#;
        let p = compile(src);
        let calls: Vec<(&str, &[String])> = p
            .blocks
            .iter()
            .filter_map(|b| match b {
                Block::Call {
                    function, targets, ..
                } => Some((function.as_str(), targets.as_slice())),
                _ => None,
            })
            .collect();
        assert_eq!(calls.len(), 3, "one call block per call: {calls:?}");
        assert!(calls.iter().all(|(f, t)| *f == "f" && t.len() == 1));
        assert!(matches!(p.blocks.last(), Some(Block::Basic(_))));
    }

    #[test]
    fn print_arguments_are_inputs_of_its_row() {
        let p = compile(r#"print("a", x, 2)"#);
        let Block::Basic(bb) = &p.blocks[0] else {
            panic!()
        };
        let print = HopOp::op(runtime::lookup("print").unwrap());
        let node = bb.dag.nodes().iter().find(|n| n.op == print).unwrap();
        assert_eq!(node.inputs.len(), 3);
        assert!(!bb
            .dag
            .nodes()
            .iter()
            .any(|n| n.op == HopOp::binary(BinaryOp::Add)));
    }

    #[test]
    fn function_default_must_be_constant() {
        let src = "f = function(matrix[double] X, double r = nrow(X)) return (matrix[double] Y) { Y = X }\nZ = f(A)";
        assert!(compile_program(&parse_program(src).unwrap(), &|_| None).is_err());
    }

    #[test]
    fn rebinding_keeps_single_root_per_name() {
        let p = compile("a = X + 1\na = a + 1\nb = a");
        let Block::Basic(bb) = &p.blocks[0] else {
            panic!()
        };
        let a_binds = bb
            .roots
            .iter()
            .filter(|r| matches!(r, Root::Bind(n, _) if n == "a"))
            .count();
        assert_eq!(a_binds, 1);
    }
}
