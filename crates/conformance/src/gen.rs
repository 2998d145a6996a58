//! Seeded random DML program generator.
//!
//! Produces scripts that are *deterministic* (every `rand` call carries an
//! explicit seed), *numerically tame* (matrix-valued assignments are wrapped
//! in contractions like `sigmoid`, divisions are guarded away from zero, no
//! discontinuous ops like `round` or comparisons on data), and *feature
//! dense*: elementwise chains feeding aggregates (fusion), matmuls,
//! `t(X)%*%X` (tsmm rewrite) and `t(X)%*%(X%*%v)` (mmchain rewrite) over
//! dense, sparse and zero-heavy leaves, `for` loops appending with `cbind` (lineage
//! partial reuse), `parfor` column writes (result merge), `while`/`if`
//! control flow (dynamic recompilation), and DML-bodied builtins.
//!
//! The same seed always yields byte-identical DML, so a failing seed is a
//! complete bug report on its own.

use sysds_common::rng::{split, XorShift64};

/// One generated statement (possibly a multi-line loop), with its def/use
/// sets so the shrinker can slice the program.
#[derive(Debug, Clone)]
pub struct Stmt {
    /// Rendered DML (one or more lines, no trailing newline).
    pub text: String,
    /// Variables this statement (re)defines.
    pub defines: Vec<String>,
    /// Variables this statement reads.
    pub uses: Vec<String>,
}

/// The federated input contract of a script: a matrix named `X` of this
/// shape is bound by the harness (locally or scattered across sites).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FedInput {
    pub rows: usize,
    pub cols: usize,
}

/// A generated DML script plus the metadata the oracle needs to run it.
#[derive(Debug, Clone)]
pub struct Script {
    /// Seed that produced this script (0 for hand-written corpus entries).
    pub seed: u64,
    pub stmts: Vec<Stmt>,
    /// Variables to compare across configurations, in definition order —
    /// divergence reports name the *first* differing one.
    pub outputs: Vec<String>,
    /// `Some` for federated-compatible scripts (input `X` bound by the
    /// harness); `None` for self-contained scripts.
    pub fed_input: Option<FedInput>,
}

impl Script {
    /// Render to executable DML.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.stmts {
            out.push_str(&s.text);
            out.push('\n');
        }
        out
    }
}

/// Generator knobs. `Default` matches the CLI defaults.
#[derive(Debug, Clone, Copy)]
pub struct GenOptions {
    /// Upper bound on generated top-level statements.
    pub max_stmts: usize,
    /// Upper bound on any matrix dimension.
    pub max_dim: usize,
    /// Generate a federated-compatible script (restricted op set on `X`).
    pub fed: bool,
}

impl Default for GenOptions {
    fn default() -> Self {
        GenOptions {
            max_stmts: 12,
            max_dim: 16,
            fed: false,
        }
    }
}

#[derive(Debug, Clone)]
struct MatVar {
    name: String,
    rows: usize,
    cols: usize,
}

struct Gen {
    rng: XorShift64,
    mats: Vec<MatVar>,
    /// Integer scalars with compile-time-known values (loop counters,
    /// literals) — safe to branch on without fp-order hazards.
    ints: Vec<(String, i64)>,
    stmts: Vec<Stmt>,
    outputs: Vec<String>,
    next_id: usize,
    max_dim: usize,
}

/// Generate a script for `seed`.
pub fn generate(seed: u64, opts: GenOptions) -> Script {
    if opts.fed {
        generate_fed(seed, opts)
    } else {
        generate_local(seed, opts)
    }
}

fn generate_local(seed: u64, opts: GenOptions) -> Script {
    let mut g = Gen {
        rng: XorShift64::new(split(seed, 0x9e37)),
        mats: Vec::new(),
        ints: Vec::new(),
        stmts: Vec::new(),
        outputs: Vec::new(),
        next_id: 0,
        max_dim: opts.max_dim.max(2),
    };
    // Leaves first so every later production has operands.
    let leaves = 2 + g.rng.next_below(2);
    for _ in 0..leaves {
        g.emit_leaf();
    }
    let body = 2 + g
        .rng
        .next_below(opts.max_stmts.saturating_sub(leaves).max(1));
    for _ in 0..body {
        match g.rng.next_below(10) {
            0 => g.emit_leaf(),
            1..=3 => g.emit_elementwise(),
            4 | 5 => g.emit_aggregate(),
            6 if g.rng.next_below(2) == 0 => g.emit_matmul(),
            6 => g.emit_matvec(),
            7 => g.emit_for_cbind(),
            8 => g.emit_parfor_write(),
            _ => match g.rng.next_below(3) {
                0 => g.emit_while(),
                1 => g.emit_if(),
                _ => g.emit_builtin(),
            },
        }
    }
    Script {
        seed,
        stmts: g.stmts,
        outputs: g.outputs,
        fed_input: None,
    }
}

impl Gen {
    fn fresh(&mut self, prefix: &str) -> String {
        let n = self.next_id;
        self.next_id += 1;
        format!("{prefix}{n}")
    }

    fn dim(&mut self) -> usize {
        2 + self.rng.next_below(self.max_dim - 1)
    }

    fn push(&mut self, text: String, defines: Vec<String>, uses: Vec<String>) {
        for d in &defines {
            if !self.outputs.contains(d) {
                self.outputs.push(d.clone());
            }
        }
        self.stmts.push(Stmt {
            text,
            defines,
            uses,
        });
    }

    fn pick_mat(&mut self) -> MatVar {
        let i = self.rng.next_below(self.mats.len());
        self.mats[i].clone()
    }

    fn pick_mat_shaped(&mut self, rows: usize, cols: usize) -> Option<MatVar> {
        let same: Vec<MatVar> = self
            .mats
            .iter()
            .filter(|m| m.rows == rows && m.cols == cols)
            .cloned()
            .collect();
        if same.is_empty() {
            None
        } else {
            Some(same[self.rng.next_below(same.len())].clone())
        }
    }

    /// `mN = rand(...)` or a constant/sequence leaf.
    fn emit_leaf(&mut self) {
        let name = self.fresh("m");
        let rows = self.dim();
        let cols = self.dim();
        let text = match self.rng.next_below(6) {
            0 => format!("{name} = matrix({:.2}, rows={rows}, cols={cols})", {
                self.rng.next_range(-1.0, 1.0)
            }),
            1 => {
                // seq is rows x 1; rescale into [-1, 1] to stay tame.
                format!("{name} = (seq(1, {rows}) / {rows}) - 0.5")
            }
            _ => {
                // Dense, sparse, and zero-heavy (a handful of non-zeros).
                let sparsity = match self.rng.next_below(8) {
                    0 | 1 => 0.3,
                    2 => 0.05,
                    _ => 1.0,
                };
                let seed = self.rng.next_below(1 << 20);
                format!(
                    "{name} = rand(rows={rows}, cols={cols}, min=-1, max=1, \
                     sparsity={sparsity}, seed={seed})"
                )
            }
        };
        let cols = if text.contains("seq(") { 1 } else { cols };
        self.mats.push(MatVar {
            name: name.clone(),
            rows,
            cols,
        });
        self.push(text, vec![name], vec![]);
    }

    /// Random elementwise expression over matrices of `shape` (and scalar
    /// literals), depth-bounded. Returns `(dml, used_vars)`. The result may
    /// be unbounded; callers wrap it in a contraction.
    fn ew_expr(&mut self, rows: usize, cols: usize, depth: usize) -> (String, Vec<String>) {
        if depth == 0 {
            let m = self
                .pick_mat_shaped(rows, cols)
                .expect("caller guarantees a same-shape operand exists");
            return (m.name.clone(), vec![m.name]);
        }
        let (lhs, mut used) = self.ew_expr(rows, cols, depth - 1);
        let (rhs, rhs_used) = if self.rng.next_below(3) == 0 {
            (format!("{:.2}", self.rng.next_range(-1.0, 1.0)), vec![])
        } else {
            self.ew_expr(rows, cols, depth - 1)
        };
        used.extend(rhs_used);
        let expr = match self.rng.next_below(6) {
            0 => format!("({lhs} + {rhs})"),
            1 => format!("({lhs} - {rhs})"),
            2 | 3 => format!("({lhs} * {rhs})"),
            4 => format!("({lhs} / (abs({rhs}) + 1.5))"),
            _ => match self.rng.next_below(4) {
                0 => format!("abs({lhs} - {rhs})"),
                1 => format!("sqrt(abs({lhs} + {rhs}))"),
                2 => format!("(({lhs} * {rhs}) ^ 2)"),
                _ => format!("exp(0 - abs({lhs} * {rhs}))"),
            },
        };
        (expr, used)
    }

    /// Contraction wrapper keeping matrix values in [-1, 1] so derivation
    /// chains never overflow no matter how deep the script gets.
    fn contract(&mut self, expr: &str) -> String {
        match self.rng.next_below(4) {
            0 => format!("sigmoid({expr})"),
            1 => format!("(1 - sigmoid({expr}))"),
            2 => format!("sigmoid(0 - ({expr}))"),
            _ => format!("(sigmoid({expr}) - 0.5)"),
        }
    }

    /// `mN = sigmoid(<chain>)` — the fusion workhorse.
    fn emit_elementwise(&mut self) {
        let proto = self.pick_mat();
        let depth = 1 + self.rng.next_below(3);
        let (expr, used) = self.ew_expr(proto.rows, proto.cols, depth);
        let name = self.fresh("m");
        let text = format!("{name} = {}", self.contract(&expr));
        self.mats.push(MatVar {
            name: name.clone(),
            rows: proto.rows,
            cols: proto.cols,
        });
        self.push(text, vec![name], used);
    }

    /// Full or column/row aggregate, often over an inline chain so the
    /// lowering fuses chain-into-aggregate.
    fn emit_aggregate(&mut self) {
        let proto = self.pick_mat();
        let (expr, used) = if self.rng.next_below(2) == 0 {
            let depth = 1 + self.rng.next_below(2);
            let (e, u) = self.ew_expr(proto.rows, proto.cols, depth);
            (self.contract(&e), u)
        } else {
            (proto.name.clone(), vec![proto.name.clone()])
        };
        match self.rng.next_below(7) {
            0 | 1 => {
                let name = self.fresh("s");
                let agg = ["sum", "mean", "min", "max"][self.rng.next_below(4)];
                self.push(format!("{name} = {agg}({expr})"), vec![name], used);
            }
            2..=4 => {
                let name = self.fresh("m");
                let agg = ["colSums", "colMeans"][self.rng.next_below(2)];
                self.mats.push(MatVar {
                    name: name.clone(),
                    rows: 1,
                    cols: proto.cols,
                });
                self.push(format!("{name} = {agg}({expr})"), vec![name], used);
            }
            _ => {
                let name = self.fresh("m");
                self.mats.push(MatVar {
                    name: name.clone(),
                    rows: proto.rows,
                    cols: 1,
                });
                self.push(format!("{name} = rowSums({expr})"), vec![name], used);
            }
        }
    }

    /// Matmul with shape search; falls back to the always-legal tsmm.
    fn emit_matmul(&mut self) {
        let a = self.pick_mat();
        let b = self.pick_mat();
        let (expr, rows, cols, used) = if a.cols == b.rows && a.rows * b.cols <= 2048 {
            (
                format!("{} %*% {}", a.name, b.name),
                a.rows,
                b.cols,
                vec![a.name, b.name],
            )
        } else if a.rows == b.rows && a.cols * b.cols <= 2048 {
            (
                format!("t({}) %*% {}", a.name, b.name),
                a.cols,
                b.cols,
                vec![a.name, b.name],
            )
        } else {
            (
                format!("t({0}) %*% {0}", a.name),
                a.cols,
                a.cols,
                vec![a.name],
            )
        };
        let name = self.fresh("m");
        self.mats.push(MatVar {
            name: name.clone(),
            rows,
            cols,
        });
        self.push(format!("{name} = {expr}"), vec![name], used);
    }

    /// Mat-vec `X %*% v`, or the lmCG step `t(X) %*% (X %*% v)` that the
    /// fused plan runs as one `mmchain` and the reference as `ba+*` + `tmv`.
    fn emit_matvec(&mut self) {
        let x = self.pick_mat();
        let v = match self.pick_mat_shaped(x.cols, 1) {
            Some(v) if self.rng.next_below(2) == 0 => v,
            _ => {
                let name = self.fresh("m");
                let sparsity = if self.rng.next_below(4) == 0 {
                    0.3
                } else {
                    1.0
                };
                let seed = self.rng.next_below(1 << 20);
                let v = MatVar {
                    name: name.clone(),
                    rows: x.cols,
                    cols: 1,
                };
                self.mats.push(v.clone());
                self.push(
                    format!(
                        "{name} = rand(rows={}, cols=1, min=-1, max=1, \
                         sparsity={sparsity}, seed={seed})",
                        x.cols
                    ),
                    vec![name],
                    vec![],
                );
                v
            }
        };
        let name = self.fresh("m");
        let (text, rows) = if self.rng.next_below(2) == 0 {
            (format!("{name} = {0} %*% {1}", x.name, v.name), x.rows)
        } else {
            (
                format!("{name} = t({0}) %*% ({0} %*% {1})", x.name, v.name),
                x.cols,
            )
        };
        self.mats.push(MatVar {
            name: name.clone(),
            rows,
            cols: 1,
        });
        self.push(text, vec![name], vec![x.name, v.name]);
    }

    /// `for` loop growing a matrix with cbind — the lineage partial-reuse
    /// shape (each iteration appends to a reused prefix).
    fn emit_for_cbind(&mut self) {
        let src = self.pick_mat();
        let iters = 2 + self.rng.next_below(3);
        let acc = self.fresh("m");
        let body = self.contract(&format!("{}[, 1] * i", src.name));
        let text = format!(
            "{acc} = {src}[, 1]\nfor (i in 1:{iters}) {{\n  {acc} = cbind({acc}, {body})\n}}",
            src = src.name
        );
        self.mats.push(MatVar {
            name: acc.clone(),
            rows: src.rows,
            cols: 1 + iters,
        });
        self.push(text, vec![acc], vec![src.name]);
    }

    /// `parfor` writing disjoint columns — exercises the result merge.
    fn emit_parfor_write(&mut self) {
        let src = self.pick_mat();
        let iters = 2 + self.rng.next_below(4);
        let name = self.fresh("m");
        let body = self.contract(&format!("{}[, 1] + i", src.name));
        let text = format!(
            "{name} = matrix(0, rows={rows}, cols={iters})\n\
             parfor (i in 1:{iters}) {{\n  {name}[, i] = {body}\n}}",
            rows = src.rows
        );
        self.mats.push(MatVar {
            name: name.clone(),
            rows: src.rows,
            cols: iters,
        });
        self.push(text, vec![name], vec![src.name]);
    }

    /// Counter-driven `while` (the counter's final value is statically
    /// known, so later `if`s can branch on it deterministically).
    fn emit_while(&mut self) {
        let src = self.pick_mat();
        let iters = 2 + self.rng.next_below(3) as i64;
        let w = self.fresh("m");
        let c = self.fresh("c");
        let text = format!(
            "{w} = {src}\n{c} = 0\nwhile ({c} < {iters}) {{\n  \
             {w} = sigmoid({w} + 0.25)\n  {c} = {c} + 1\n}}",
            src = src.name
        );
        self.mats.push(MatVar {
            name: w.clone(),
            rows: src.rows,
            cols: src.cols,
        });
        self.ints.push((c.clone(), iters));
        self.push(text, vec![w, c], vec![src.name]);
    }

    /// Branch on an integer scalar whose value is known at generation time
    /// (never on data — fp summation order must not flip branches).
    fn emit_if(&mut self) {
        let (cond_var, cond_val, extra_def) = if self.ints.is_empty() || self.rng.next_below(2) == 0
        {
            let c = self.fresh("c");
            let v = 1 + self.rng.next_below(9) as i64;
            self.ints.push((c.clone(), v));
            (c.clone(), v, Some((c, v)))
        } else {
            let i = self.rng.next_below(self.ints.len());
            let (n, v) = self.ints[i].clone();
            (n, v, None)
        };
        let threshold = 1 + self.rng.next_below(9) as i64;
        let src = self.pick_mat();
        let name = self.fresh("m");
        let then_e = self.contract(&format!("{} + 1", src.name));
        let else_e = self.contract(&format!("{} - 1", src.name));
        let mut text = String::new();
        let mut defines = vec![name.clone()];
        if let Some((c, v)) = extra_def {
            text.push_str(&format!("{c} = {v}\n"));
            defines.push(c);
        }
        let _ = cond_val;
        text.push_str(&format!(
            "if ({cond_var} > {threshold}) {{\n  {name} = {then_e}\n}} else {{\n  {name} = {else_e}\n}}"
        ));
        self.mats.push(MatVar {
            name: name.clone(),
            rows: src.rows,
            cols: src.cols,
        });
        self.push(text, defines, vec![cond_var, src.name]);
    }

    /// Call a numerically-continuous DML-bodied builtin (see
    /// `sysds::builtins::FUZZ_SAFE`).
    fn emit_builtin(&mut self) {
        let src = self.pick_mat();
        match self.rng.next_below(3) {
            0 => {
                // scale: z-score normalize columns; constant columns are
                // handled (map to 0), output shape preserved.
                let name = self.fresh("m");
                self.mats.push(MatVar {
                    name: name.clone(),
                    rows: src.rows,
                    cols: src.cols,
                });
                self.push(
                    format!("{name} = scale({}, TRUE, TRUE)", src.name),
                    vec![name],
                    vec![src.name],
                );
            }
            1 => {
                let name = self.fresh("m");
                self.mats.push(MatVar {
                    name: name.clone(),
                    rows: src.rows,
                    cols: src.cols,
                });
                self.push(
                    format!("{name} = normalize({})", src.name),
                    vec![name],
                    vec![src.name],
                );
            }
            _ => {
                // mse of a matrix against a shifted copy of itself.
                let name = self.fresh("s");
                self.push(
                    format!("{name} = mse({0}, sigmoid({0}))", src.name),
                    vec![name],
                    vec![src.name],
                );
            }
        }
    }
}

/// Federated-compatible generation: the harness binds input `X` (locally or
/// scattered). Only ops with federated execution paths touch `X` directly
/// (mat-vec, tsmm, `t(X) %*% y` of two federated operands, mmchain,
/// colSums/sum/mean, sumSq, scalar and fed-fed elementwise);
/// everything downstream of an aggregate is ordinary local compute. All
/// compared outputs are local values.
fn generate_fed(seed: u64, opts: GenOptions) -> Script {
    let mut rng = XorShift64::new(split(seed, 0xfed));
    let rows = 4 + rng.next_below(opts.max_dim.max(6));
    let cols = 2 + rng.next_below(6);
    let mut stmts: Vec<Stmt> = Vec::new();
    let mut outputs: Vec<String> = Vec::new();
    let mut next_id = 0usize;
    let fresh = |p: &str, next_id: &mut usize| {
        let n = *next_id;
        *next_id += 1;
        format!("{p}{n}")
    };
    // Federated values currently alive (name only; all are rows x cols
    // elementwise derivatives of X).
    let mut fed_vars: Vec<String> = vec!["X".into()];
    let out = |name: &String, outputs: &mut Vec<String>| {
        if !outputs.contains(name) {
            outputs.push(name.clone());
        }
    };

    let n = 4 + rng.next_below(5);
    for _ in 0..n {
        match rng.next_below(9) {
            0 => {
                let s = fresh("s", &mut next_id);
                let src = fed_vars[rng.next_below(fed_vars.len())].clone();
                let agg = ["sum", "mean"][rng.next_below(2)];
                stmts.push(Stmt {
                    text: format!("{s} = {agg}({src})"),
                    defines: vec![s.clone()],
                    uses: vec![src],
                });
                out(&s, &mut outputs);
            }
            1 => {
                let m = fresh("m", &mut next_id);
                let src = fed_vars[rng.next_below(fed_vars.len())].clone();
                stmts.push(Stmt {
                    text: format!("{m} = colSums({src})"),
                    defines: vec![m.clone()],
                    uses: vec![src],
                });
                out(&m, &mut outputs);
            }
            2 => {
                // Fed mat-vec, aggregated to a scalar in the same statement
                // so the compared value is local.
                let v = fresh("m", &mut next_id);
                let s = fresh("s", &mut next_id);
                let seed_lit = rng.next_below(1 << 20);
                let src = fed_vars[rng.next_below(fed_vars.len())].clone();
                stmts.push(Stmt {
                    text: format!(
                        "{v} = rand(rows={cols}, cols=1, min=-1, max=1, sparsity=1.0, seed={seed_lit})\n\
                         {s} = sum({src} %*% {v})"
                    ),
                    defines: vec![v.clone(), s.clone()],
                    uses: vec![src],
                });
                out(&s, &mut outputs);
            }
            3 => {
                // tsmm: t(X) %*% X executes federated, result is local.
                let g = fresh("m", &mut next_id);
                let src = fed_vars[rng.next_below(fed_vars.len())].clone();
                stmts.push(Stmt {
                    text: format!("{g} = t({src}) %*% {src}"),
                    defines: vec![g.clone()],
                    uses: vec![src],
                });
                out(&g, &mut outputs);
            }
            6 => {
                // lmCG step over federated X: `mmchain` with fusion on, a
                // kept fed mat-vec plus fed tmv without; the result is local.
                let v = fresh("m", &mut next_id);
                let g = fresh("m", &mut next_id);
                let seed_lit = rng.next_below(1 << 20);
                let src = fed_vars[rng.next_below(fed_vars.len())].clone();
                stmts.push(Stmt {
                    text: format!(
                        "{v} = rand(rows={cols}, cols=1, min=-1, max=1, sparsity=1.0, seed={seed_lit})\n\
                         {g} = t({src}) %*% ({src} %*% {v})"
                    ),
                    defines: vec![v.clone(), g.clone()],
                    uses: vec![src],
                });
                out(&g, &mut outputs);
            }
            7 => {
                // A kept fed mat-vec bound by a statement, so no mmchain
                // folds it: `t(X) %*% f` runs the fed tmv of two
                // federated operands; the result is local.
                let v = fresh("m", &mut next_id);
                let f = fresh("f", &mut next_id);
                let g = fresh("m", &mut next_id);
                let seed_lit = rng.next_below(1 << 20);
                let src = fed_vars[rng.next_below(fed_vars.len())].clone();
                stmts.push(Stmt {
                    text: format!(
                        "{v} = rand(rows={cols}, cols=1, min=-1, max=1, sparsity=1.0, seed={seed_lit})\n\
                         {f} = {src} %*% {v}\n\
                         {g} = t({src}) %*% {f}"
                    ),
                    defines: vec![v.clone(), f.clone(), g.clone()],
                    uses: vec![src],
                });
                out(&g, &mut outputs);
            }
            8 => {
                let s = fresh("s", &mut next_id);
                let src = fed_vars[rng.next_below(fed_vars.len())].clone();
                stmts.push(Stmt {
                    text: format!("{s} = sumSq({src})"),
                    defines: vec![s.clone()],
                    uses: vec![src],
                });
                out(&s, &mut outputs);
            }
            4 => {
                // Fed-scalar elementwise: result stays federated (NOT an
                // output; later statements may aggregate it).
                let y = fresh("f", &mut next_id);
                let src = fed_vars[rng.next_below(fed_vars.len())].clone();
                let k = 1 + rng.next_below(3);
                let op = ["*", "+", "-"][rng.next_below(3)];
                stmts.push(Stmt {
                    text: format!("{y} = {src} {op} {k}"),
                    defines: vec![y.clone()],
                    uses: vec![src],
                });
                fed_vars.push(y);
            }
            _ => {
                // Fed-fed elementwise over the same federation map.
                let y = fresh("f", &mut next_id);
                let a = fed_vars[rng.next_below(fed_vars.len())].clone();
                let b = fed_vars[rng.next_below(fed_vars.len())].clone();
                let op = ["*", "+"][rng.next_below(2)];
                stmts.push(Stmt {
                    text: format!("{y} = {a} {op} {b}"),
                    defines: vec![y.clone()],
                    uses: vec![a, b],
                });
                fed_vars.push(y);
            }
        }
    }
    // Guarantee at least one compared output even if the draw above only
    // produced federated intermediates.
    if outputs.is_empty() {
        stmts.push(Stmt {
            text: "sX = sum(X)".into(),
            defines: vec!["sX".into()],
            uses: vec!["X".into()],
        });
        outputs.push("sX".into());
    }
    Script {
        seed,
        stmts,
        outputs,
        fed_input: Some(FedInput { rows, cols }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_script() {
        for seed in 0..50 {
            let a = generate(seed, GenOptions::default());
            let b = generate(seed, GenOptions::default());
            assert_eq!(a.render(), b.render(), "seed {seed} not deterministic");
            assert_eq!(a.outputs, b.outputs);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(1, GenOptions::default());
        let b = generate(2, GenOptions::default());
        assert_ne!(a.render(), b.render());
    }

    #[test]
    fn every_script_has_outputs() {
        for seed in 0..100 {
            let s = generate(seed, GenOptions::default());
            assert!(!s.outputs.is_empty(), "seed {seed} produced no outputs");
            assert!(!s.stmts.is_empty());
        }
    }

    #[test]
    fn fed_scripts_reference_x_and_have_local_outputs() {
        for seed in 0..50 {
            let s = generate(
                seed,
                GenOptions {
                    fed: true,
                    ..GenOptions::default()
                },
            );
            let fed = s.fed_input.expect("fed script has a fed input");
            assert!(fed.rows >= 2 && fed.cols >= 2);
            assert!(s.render().contains('X'), "seed {seed} never uses X");
            // Outputs never name a federated intermediate (f-prefixed) or X.
            for o in &s.outputs {
                assert!(!o.starts_with('f') && o != "X", "fed output {o} leaked");
            }
        }
    }

    #[test]
    fn feature_productions_all_reachable() {
        // Across a seed range, every major production should appear.
        let mut seen_parfor = false;
        let mut seen_for = false;
        let mut seen_while = false;
        let mut seen_if = false;
        let mut seen_mm = false;
        let mut seen_builtin = false;
        let mut seen_chain = false;
        let mut seen_zero_heavy = false;
        for seed in 0..400 {
            let text = generate(seed, GenOptions::default()).render();
            seen_parfor |= text.contains("parfor");
            seen_for |= text.contains("cbind");
            seen_while |= text.contains("while");
            seen_if |= text.contains("if (");
            seen_mm |= text.contains("%*%");
            seen_builtin |=
                text.contains("scale(") || text.contains("normalize(") || text.contains("mse(");
            seen_chain |= text.contains(") %*% (");
            seen_zero_heavy |= text.contains("sparsity=0.05");
        }
        assert!(seen_parfor && seen_for && seen_while && seen_if && seen_mm && seen_builtin);
        assert!(seen_chain && seen_zero_heavy);
    }

    #[test]
    fn fed_scripts_reach_the_matvec_chain() {
        let fed = GenOptions {
            fed: true,
            ..GenOptions::default()
        };
        assert!((0..100).any(|seed| generate(seed, fed).render().contains("t(X) %*% (X %*% ")));
    }

    #[test]
    fn fed_scripts_reach_tmv_and_sum_sq() {
        let fed = GenOptions {
            fed: true,
            ..GenOptions::default()
        };
        let scripts: Vec<String> = (0..100).map(|seed| generate(seed, fed).render()).collect();
        assert!(scripts.iter().any(|s| s.contains("t(X) %*% f")));
        assert!(scripts.iter().any(|s| s.contains("sumSq(X)")));
    }
}
