#![allow(clippy::field_reassign_with_default)]

//! "Besides reuse, this approach also ensures consistency across local and
//! distributed operations" (paper §2.3 (4)) — the same script must produce
//! the same result over local and federated inputs, and with or without
//! fusion and buffer-pool pressure.

use sysds::api::SystemDS;
use sysds::Data;
use sysds_common::EngineConfig;
use sysds_tensor::kernels::gen;

fn local_session() -> SystemDS {
    let mut config = EngineConfig::default();
    config.spill_dir = sysds_common::testing::unique_temp_dir("sysds-backend-tests");
    SystemDS::with_config(config).unwrap()
}

#[test]
fn federated_tsmm_inside_script_matches_local() {
    let (x, _) = gen::synthetic_regression(120, 8, 1.0, 0.0, 804);
    let mut s = local_session();
    let fed = s.federate(&x, 3).unwrap();
    let script = "G = t(X) %*% X";
    let fout = s.execute(script, &[("X", fed)], &["G"]).unwrap();
    let lout = s
        .execute(script, &[("X", Data::from_matrix(x))], &["G"])
        .unwrap();
    assert!(fout
        .matrix("G")
        .unwrap()
        .approx_eq(&lout.matrix("G").unwrap(), 1e-9));
}

#[test]
fn federated_lm_via_script_matches_local_lm() {
    let (x, y) = gen::synthetic_regression(100, 5, 1.0, 0.05, 805);
    let mut s = local_session();
    // X and y must live on the SAME worker set so federated instructions
    // can combine them site-locally (t(X_i) y_i never moves rows).
    let mut fed = s.federate_many(&[&x, &y], 2).unwrap();
    let fy = fed.pop().unwrap();
    let fx = fed.pop().unwrap();
    let script = "B = lmDS(X=X, y=y, reg=0.001)";
    let fout = s.execute(script, &[("X", fx), ("y", fy)], &["B"]).unwrap();
    let lout = s
        .execute(
            script,
            &[("X", Data::from_matrix(x)), ("y", Data::from_matrix(y))],
            &["B"],
        )
        .unwrap();
    assert!(fout
        .matrix("B")
        .unwrap()
        .approx_eq(&lout.matrix("B").unwrap(), 1e-7));
}

/// The lmCG loop written out, so its sizes are known at compile time.
const INLINE_CG: &str = r#"
    r = -(t(X) %*% y)
    p = -r
    B = matrix(0, rows=ncol(X), cols=1)
    norm_r2 = sum(r * r)
    i = 0
    while (i < ncol(X)) {
      q = t(X) %*% (X %*% p) + 0.0000001 * p
      alpha = norm_r2 / as.scalar(t(p) %*% q)
      B = B + alpha * p
      r = r + alpha * q
      old_norm_r2 = norm_r2
      norm_r2 = sum(r * r)
      p = -r + (norm_r2 / old_norm_r2) * p
      i = i + 1
    }
"#;

#[test]
fn mmchain_matches_unfused_lmcg() {
    use sysds::compiler::explain::ExplainLevel;
    let (x, y) = gen::synthetic_regression(300, 9, 1.0, 0.05, 808);
    let inputs = vec![("X", Data::from_matrix(x)), ("y", Data::from_matrix(y))];
    let mut fused = local_session();
    let mut unfused = {
        let mut config = EngineConfig::default().fusion(false);
        config.spill_dir = sysds_common::testing::unique_temp_dir("sysds-backend-tests");
        SystemDS::with_config(config).unwrap()
    };
    // The builtin's loop only learns its sizes at runtime; both must agree.
    let script = "B = lmCG(X=X, y=y, tol=0, maxi=ncol(X))";
    let f = fused.execute(script, &inputs, &["B"]).unwrap();
    let u = unfused.execute(script, &inputs, &["B"]).unwrap();
    assert!(f
        .matrix("B")
        .unwrap()
        .approx_eq(&u.matrix("B").unwrap(), 1e-9));
    let f = fused.execute(INLINE_CG, &inputs, &["B"]).unwrap();
    let u = unfused.execute(INLINE_CG, &inputs, &["B"]).unwrap();
    assert!(f
        .matrix("B")
        .unwrap()
        .approx_eq(&u.matrix("B").unwrap(), 1e-9));

    // Inline, the chain is visible in the plan, and only with fusion on.
    let leaves = "X = rand(rows=300, cols=9, seed=1)\ny = rand(rows=300, cols=1, seed=2)\n";
    let program = fused.compile(&format!("{leaves}{INLINE_CG}")).unwrap();
    assert!(fused
        .explain(&program, ExplainLevel::Hops)
        .contains("mmchain"));
    assert!(!unfused
        .explain(&program, ExplainLevel::Hops)
        .contains("mmchain"));
}

#[test]
fn federated_lmcg_via_script_matches_local() {
    // mmchain over a federated X runs the site-side mat-vec and tmv.
    let (x, y) = gen::synthetic_regression(120, 6, 1.0, 0.05, 809);
    let mut s = local_session();
    let mut fed = s.federate_many(&[&x, &y], 2).unwrap();
    let fy = fed.pop().unwrap();
    let fx = fed.pop().unwrap();
    let script = "B = lmCG(X=X, y=y, tol=0, maxi=ncol(X))";
    let fout = s.execute(script, &[("X", fx), ("y", fy)], &["B"]).unwrap();
    let lout = s
        .execute(
            script,
            &[("X", Data::from_matrix(x)), ("y", Data::from_matrix(y))],
            &["B"],
        )
        .unwrap();
    assert!(fout
        .matrix("B")
        .unwrap()
        .approx_eq(&lout.matrix("B").unwrap(), 1e-7));
}

#[test]
fn federated_scalar_and_colsums_ops() {
    let (x, _) = gen::synthetic_regression(60, 4, 1.0, 0.0, 806);
    let mut s = local_session();
    let fed = s.federate(&x, 3).unwrap();
    let script = r#"
        Z = X * 2
        cs = colSums(Z)
        total = sum(Z)
    "#;
    let fout = s.execute(script, &[("X", fed)], &["cs", "total"]).unwrap();
    let lout = s
        .execute(script, &[("X", Data::from_matrix(x))], &["cs", "total"])
        .unwrap();
    assert!(fout
        .matrix("cs")
        .unwrap()
        .approx_eq(&lout.matrix("cs").unwrap(), 1e-9));
    assert!((fout.f64("total").unwrap() - lout.f64("total").unwrap()).abs() < 1e-9);
}

/// An in-process site that counts the requests sent to it.
#[derive(Debug)]
struct CountedSite {
    inner: sysds_fed::WorkerHandle,
    requests: std::sync::atomic::AtomicUsize,
}

impl sysds_fed::Transport for CountedSite {
    fn exchange(&self, req: sysds_fed::FedRequest) -> sysds_common::Result<sysds_fed::FedResponse> {
        self.requests
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.inner.exchange(req)
    }

    fn endpoint(&self) -> &str {
        self.inner.endpoint()
    }
}

#[test]
fn federated_mmchain_is_one_request_per_site() {
    use std::sync::atomic::Ordering;
    use std::sync::Arc;
    let (x, _) = gen::synthetic_regression(90, 5, 1.0, 0.0, 810);
    let counted: Vec<Arc<CountedSite>> = (0..3)
        .map(|_| {
            Arc::new(CountedSite {
                inner: sysds_fed::WorkerHandle::spawn(vec![], 1),
                requests: Default::default(),
            })
        })
        .collect();
    let sites: Vec<Arc<dyn sysds_fed::Transport>> = counted
        .iter()
        .map(|c| Arc::clone(c) as Arc<dyn sysds_fed::Transport>)
        .collect();
    let requests = || -> usize {
        counted
            .iter()
            .map(|c| c.requests.load(Ordering::Relaxed))
            .sum()
    };
    let mut s = local_session();
    let fx = s.federate_with(&x, &sites).unwrap();
    let script = "v = rand(rows=5, cols=1, seed=3)\ng = t(X) %*% (X %*% v)";
    let program = s.compile(script).unwrap();
    assert!(s
        .explain(&program, sysds::compiler::explain::ExplainLevel::Hops)
        .contains("mmchain"));
    let before = requests();
    let fout = s.execute(script, &[("X", fx.clone())], &["g"]).unwrap();
    // One `mmchain` request per site: no kept `X %*% v`, no second trip.
    assert_eq!(requests() - before, sites.len());
    let lout = s
        .execute(script, &[("X", Data::from_matrix(x))], &["g"])
        .unwrap();
    assert!(fout
        .matrix("g")
        .unwrap()
        .approx_eq(&lout.matrix("g").unwrap(), 1e-9));
}

#[test]
fn paramserver_matches_closed_form() {
    use sysds::runtime::paramserver::{train_linreg, PsConfig, UpdateMode};
    let (x, y) = gen::synthetic_regression(250, 4, 1.0, 0.0, 807);
    let w = train_linreg(
        &x,
        &y,
        &PsConfig {
            workers: 4,
            epochs: 400,
            batch_size: 32,
            learning_rate: 0.5,
            mode: UpdateMode::Bsp,
        },
    )
    .unwrap();
    // closed form through a DML script on the same session
    let mut s = local_session();
    let out = s
        .execute(
            "B = lmDS(X=X, y=y, reg=0.0)",
            &[("X", Data::from_matrix(x)), ("y", Data::from_matrix(y))],
            &["B"],
        )
        .unwrap();
    assert!(w.approx_eq(&out.matrix("B").unwrap(), 5e-2));
}

#[test]
fn buffer_pool_pressure_does_not_change_results() {
    // A tiny buffer pool forces eviction/restore cycles mid-script.
    let mut config = EngineConfig::default();
    config.buffer_pool_limit = 64 * 1024; // 64 KB
    config.spill_dir = sysds_common::testing::unique_temp_dir("sysds-backend-tests-pool");
    let mut tight = SystemDS::with_config(config).unwrap();
    let mut roomy = local_session();
    let script = r#"
        A = rand(rows=200, cols=60, seed=5)
        B = rand(rows=60, cols=50, seed=6)
        C = A %*% B
        D = t(C) %*% C
        total = sum(D)
    "#;
    let t = tight.execute(script, &[], &["total"]).unwrap();
    let r = roomy.execute(script, &[], &["total"]).unwrap();
    let (tv, rv) = (t.f64("total").unwrap(), r.f64("total").unwrap());
    assert!((tv - rv).abs() < 1e-9 * rv.abs().max(1.0), "{tv} vs {rv}");
}

#[test]
fn explain_hops_shows_the_lowered_plan() {
    use sysds::compiler::explain::ExplainLevel;
    // `--explain hops` prints the optimised DAG and `--explain runtime`
    // the instructions `lower` emits: one instruction per reachable
    // operator, so the opcodes must match block by block.
    let s = local_session();
    let leaves = "X = rand(rows=300, cols=9, seed=1)\ny = rand(rows=300, cols=1, seed=2)\n";
    let chain = "d = sum((X - 0.5) * (X - 0.5)) + sum(exp(y) * 2)\n";
    let program = s.compile(&format!("{leaves}{chain}{INLINE_CG}")).unwrap();
    let opcodes = |level, pattern: fn(&str) -> Option<&str>| -> Vec<Vec<String>> {
        let text = s.explain(&program, level);
        let mut blocks: Vec<Vec<String>> = vec![];
        for line in text.lines() {
            match pattern(line.trim_start()) {
                Some(op) => blocks.last_mut().unwrap().push(op.to_string()),
                None => blocks.push(vec![]),
            }
        }
        blocks.retain(|b| !b.is_empty());
        for b in &mut blocks {
            b.sort();
        }
        blocks
    };
    // "(id) opcode (inputs) [size]"
    let hops = opcodes(ExplainLevel::Hops, |l| {
        l.starts_with('(').then(|| l.split(' ').nth(1)).flatten()
    });
    // "[out] opcode in=[inputs] [size]"
    let runtime = opcodes(ExplainLevel::Runtime, |l| {
        l.starts_with('[').then(|| l.split(' ').nth(1)).flatten()
    });
    assert_eq!(hops, runtime);
    let all: Vec<&String> = hops.iter().flatten().collect();
    assert!(all.iter().any(|op| op.as_str() == "mmchain"), "{all:?}");
    assert!(all.iter().any(|op| op.starts_with("fused")), "{all:?}");
}
