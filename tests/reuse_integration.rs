#![allow(clippy::field_reassign_with_default)]

//! Lineage tracing and reuse of intermediates across lifecycle tasks —
//! the paper's §3.1 and the mechanism behind Figure 5(c)/(d).

use sysds::api::SystemDS;
use sysds::Data;
use sysds_common::config::ReusePolicy;
use sysds_common::EngineConfig;
use sysds_tensor::kernels::gen;

fn session(reuse: ReusePolicy) -> SystemDS {
    let mut config = EngineConfig::default().reuse_policy(reuse);
    config.spill_dir = sysds_common::testing::unique_temp_dir("sysds-reuse-tests");
    SystemDS::with_config(config).unwrap()
}

/// The Figure 5 workload as a DML script: k models over a λ sweep.
const HYPERPARAM: &str = r#"
    k = 8
    B = matrix(0, rows=ncol(X), cols=k)
    for (i in 1:k) {
        reg = 0.000001 * i
        Bi = lmDS(X=X, y=y, reg=reg)
        B[, i] = Bi
    }
"#;

#[test]
fn reuse_produces_identical_results() {
    let (x, y) = gen::synthetic_regression(400, 20, 1.0, 0.05, 701);
    let inputs = |s: &SystemDS| {
        vec![
            ("X", s.matrix(x.clone()).unwrap()),
            ("y", s.matrix(y.clone()).unwrap()),
        ]
    };
    let mut plain = session(ReusePolicy::None);
    let i1 = inputs(&plain);
    let out_plain = plain.execute(HYPERPARAM, &i1, &["B"]).unwrap();

    let mut reuse = session(ReusePolicy::FullAndPartial);
    let i2 = inputs(&reuse);
    let out_reuse = reuse.execute(HYPERPARAM, &i2, &["B"]).unwrap();

    assert!(out_plain
        .matrix("B")
        .unwrap()
        .approx_eq(&out_reuse.matrix("B").unwrap(), 1e-12));
    // Reuse must actually have happened: X'X and X'y hit for 7 of 8 models.
    let stats = reuse.cache_stats();
    assert!(stats.hits >= 7, "expected >= 7 hits, got {stats:?}");
    assert_eq!(plain.cache_stats().hits, 0);
}

#[test]
fn reuse_across_execute_calls_in_one_session() {
    // The session owns the cache, so a second script over the same input
    // reuses intermediates — "reuse across lifecycle tasks".
    let (x, y) = gen::synthetic_regression(300, 15, 1.0, 0.05, 702);
    let mut s = session(ReusePolicy::Full);
    let xin = s.matrix(x).unwrap();
    let yin = s.matrix(y).unwrap();
    s.execute(
        "B = lmDS(X=X, y=y, reg=0.001)",
        &[("X", xin.clone()), ("y", yin.clone())],
        &["B"],
    )
    .unwrap();
    let before = s.cache_stats();
    s.execute(
        "B2 = lmDS(X=X, y=y, reg=0.002)",
        &[("X", xin), ("y", yin)],
        &["B2"],
    )
    .unwrap();
    let after = s.cache_stats();
    assert!(
        after.hits > before.hits,
        "cross-script reuse: {before:?} -> {after:?}"
    );
}

#[test]
fn steplm_benefits_from_partial_reuse() {
    // steplm trains what-if models over cbind(Xg, X[,j]) — partial reuse
    // assembles tsmm(cbind(...)) from the cached tsmm(Xg).
    let n = 300;
    let x = gen::rand_uniform(n, 10, -1.0, 1.0, 1.0, 703);
    let c1 = sysds_tensor::kernels::indexing::column(&x, 0).unwrap();
    let c7 = sysds_tensor::kernels::indexing::column(&x, 6).unwrap();
    let y = sysds_tensor::kernels::elementwise::binary_mm(
        sysds_tensor::kernels::BinaryOp::Add,
        &sysds_tensor::kernels::elementwise::binary_ms(
            sysds_tensor::kernels::BinaryOp::Mul,
            &c1,
            2.0,
        ),
        &c7,
    )
    .unwrap();

    let mut plain = session(ReusePolicy::None);
    let out_plain = plain
        .execute(
            "[B, S] = steplm(X=X, y=y)",
            &[
                ("X", Data::from_matrix(x.clone())),
                ("y", Data::from_matrix(y.clone())),
            ],
            &["B", "S"],
        )
        .unwrap();

    let mut reuse = session(ReusePolicy::FullAndPartial);
    let out_reuse = reuse
        .execute(
            "[B, S] = steplm(X=X, y=y)",
            &[("X", Data::from_matrix(x)), ("y", Data::from_matrix(y))],
            &["B", "S"],
        )
        .unwrap();

    // identical selections and models
    assert!(out_plain
        .matrix("S")
        .unwrap()
        .approx_eq(&out_reuse.matrix("S").unwrap(), 0.0));
    assert!(out_plain
        .matrix("B")
        .unwrap()
        .approx_eq(&out_reuse.matrix("B").unwrap(), 1e-9));
}

#[test]
fn full_reuse_policy_skips_partial() {
    // Big enough that t(X) %*% X takes longer than the cache's 50µs
    // admission threshold, even on one thread.
    let (x, y) = gen::synthetic_regression(2000, 40, 1.0, 0.05, 704);
    let mut s = session(ReusePolicy::Full);
    s.execute(
        HYPERPARAM,
        &[("X", Data::from_matrix(x)), ("y", Data::from_matrix(y))],
        &["B"],
    )
    .unwrap();
    let stats = s.cache_stats();
    assert!(stats.hits > 0);
    assert_eq!(stats.partial_hits, 0);
}

#[test]
fn lineage_seeds_keep_rand_reusable_but_distinct() {
    let mut s = session(ReusePolicy::Full);
    let out = s
        .execute(
            r#"
            A = rand(rows=200, cols=40, seed=1)
            B = rand(rows=200, cols=40, seed=2)
            G1 = t(A) %*% A
            G2 = t(B) %*% B
            G1b = t(A) %*% A
            d_same = sum((G1 - G1b) * (G1 - G1b))
            d_diff = sum((G1 - G2) * (G1 - G2))
            "#,
            &[],
            &["d_same", "d_diff"],
        )
        .unwrap();
    assert_eq!(out.f64("d_same").unwrap(), 0.0);
    assert!(
        out.f64("d_diff").unwrap() > 0.0,
        "different seeds → different lineage"
    );
}

#[test]
fn cache_stats_reset_with_clear() {
    // Big enough for t(X) %*% X to pass the cache's admission threshold.
    let (x, y) = gen::synthetic_regression(2000, 40, 1.0, 0.05, 705);
    let mut s = session(ReusePolicy::Full);
    let xin = Data::from_matrix(x);
    let yin = Data::from_matrix(y);
    s.execute(
        HYPERPARAM,
        &[("X", xin.clone()), ("y", yin.clone())],
        &["B"],
    )
    .unwrap();
    assert!(s.cache_stats().hits > 0);
    s.clear_cache();
    // After clearing, the same work misses again (same session stats keep
    // accumulating, so compare the delta of misses).
    let misses_before = s.cache_stats().misses;
    s.execute(HYPERPARAM, &[("X", xin), ("y", yin)], &["B"])
        .unwrap();
    assert!(s.cache_stats().misses > misses_before);
}

#[test]
fn federated_lm_with_partial_reuse_matches_lineage_off() {
    // tsmm and tmv over federated X must skip the partial-reuse probes,
    // which need a local matrix, instead of failing.
    let (x, y) = gen::synthetic_regression(240, 7, 1.0, 0.05, 707);
    for script in [
        "B = lmDS(X=X, y=y, reg=0.000001)",
        "B = lmCG(X=X, y=y, tol=0, maxi=ncol(X))",
    ] {
        let run = |reuse| {
            let mut s = session(reuse);
            let mut fed = s.federate_many(&[&x, &y], 2).unwrap();
            let fy = fed.pop().unwrap();
            let fx = fed.pop().unwrap();
            let out = s.execute(script, &[("X", fx), ("y", fy)], &["B"]);
            out.unwrap_or_else(|e| panic!("{script} with {reuse:?}: {e}"))
                .matrix("B")
                .unwrap()
        };
        let on = run(ReusePolicy::FullAndPartial);
        let off = run(ReusePolicy::None);
        assert!(on.approx_eq(&off, 1e-12), "{script}");
    }
}

#[test]
fn federated_inputs_are_named_by_their_partitions() {
    // Three federated X over the same sites differ only in the sites'
    // variables; a leaf named after the script variable made every run
    // after the first hit the first X's tsmm.
    let script = "G = t(X) %*% X\ns = sum(G)";
    let xs: Vec<_> = (0..3)
        .map(|k| gen::rand_uniform(200, 20, 0.0, 1.0, 1.0, 720 + k))
        .collect();
    let s = session(ReusePolicy::FullAndPartial);
    let feds = s.federate_many(&xs.iter().collect::<Vec<_>>(), 2).unwrap();
    let prepared = s.prepare(script, &["s"]).unwrap();
    let mut local = session(ReusePolicy::None);
    for (x, fx) in xs.iter().zip(&feds) {
        let expected = local
            .execute(script, &[("X", Data::from_matrix(x.clone()))], &["s"])
            .unwrap()
            .f64("s")
            .unwrap();
        let got = prepared.execute(&[("X", fx.clone())]).unwrap();
        let got = got.f64("s").unwrap();
        assert!(
            (got - expected).abs() <= 1e-9 * expected,
            "{got} vs {expected}"
        );
    }
    // A clone names the same partitions, so it still reuses.
    let hits = s.cache_stats().hits;
    prepared.execute(&[("X", feds[0].clone())]).unwrap();
    assert!(s.cache_stats().hits > hits, "{:?}", s.cache_stats());
}

#[test]
fn frame_inputs_do_not_share_lineage() {
    // transformencode runs as instructions, so tsmm(X) has lineage through
    // the frame's leaf: a second frame bound to F must not hit the first.
    let script = r#"
        [X, M] = transformencode(target=F, spec="bin=c0:4")
        G = t(X) %*% X
        s = sum(G)
    "#;
    let frame = |seed| {
        let m = gen::rand_uniform(3000, 30, 0.0, 1.0, 1.0, seed);
        let names = (0..30).map(|j| format!("c{j}")).collect();
        Data::Frame(std::sync::Arc::new(
            sysds_frame::Frame::from_matrix(&m, Some(names)).unwrap(),
        ))
    };
    let mut plain = session(ReusePolicy::None);
    let mut reuse = session(ReusePolicy::FullAndPartial);
    for seed in [731, 732] {
        let f = frame(seed);
        let run = |s: &mut SystemDS| {
            let out = s.execute(script, &[("F", f.clone())], &["s"]).unwrap();
            out.f64("s").unwrap()
        };
        assert_eq!(run(&mut reuse), run(&mut plain), "frame seed {seed}");
    }
}

#[test]
fn paramserv_output_gets_a_leaf_of_its_own() {
    let (x, y) = gen::synthetic_regression(100, 3, 1.0, 0.0, 741);
    let mut s = session(ReusePolicy::Full);
    let inputs = [("X", Data::from_matrix(x)), ("y", Data::from_matrix(y))];
    let leaf = |s: &mut SystemDS| {
        let out = s
            .execute("w = paramserv(X=X, y=y, epochs=2)", &inputs, &["w"])
            .unwrap();
        out.lineage("w").unwrap().opcode.clone()
    };
    let (first, second) = (leaf(&mut s), leaf(&mut s));
    assert!(first.starts_with("paramserv#"), "{first}");
    assert_ne!(first, second);
}

/// A fresh directory for files a script reads and writes.
fn io_dir() -> std::path::PathBuf {
    let dir = sysds_common::testing::unique_temp_dir("sysds-reuse-io");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn read_lineage_changes_when_the_file_is_rewritten() {
    let g = io_dir().join("g.csv");
    let script = format!(
        r#"
        write(matrix(1, rows=1200, cols=10), "{g}")
        X = read("{g}")
        s1 = sum(t(X) %*% X)
        if (sum(X) > 0) {{
            write(2 * X, "{g}")
        }}
        Y = read("{g}")
        s2 = sum(t(Y) %*% Y)
        "#,
        g = g.display()
    );
    let mut s = session(ReusePolicy::FullAndPartial);
    let out = s.execute(&script, &[], &["s1", "s2"]).unwrap();
    assert_eq!(out.f64("s1").unwrap(), 120000.0);
    assert_eq!(out.f64("s2").unwrap(), 480000.0);
}

#[test]
fn read_with_and_without_header_does_not_hit() {
    let f = io_dir().join("h.csv");
    std::fs::write(&f, "1,2\n3,4\n5,6\n").unwrap();
    let script = format!(
        r#"
        X = read("{f}")
        a = sum(t(X) %*% X)
        Y = read("{f}", header=TRUE)
        b = sum(t(Y) %*% Y)
        "#,
        f = f.display()
    );
    let mut s = session(ReusePolicy::FullAndPartial);
    let out = s.execute(&script, &[], &["a", "b"]).unwrap();
    // t(X)X = [[35, 44], [44, 56]]; without the first row [[34, 42], [42, 52]].
    assert_eq!(out.f64("a").unwrap(), 179.0);
    assert_eq!(out.f64("b").unwrap(), 170.0);
    assert_eq!(s.cache_stats().hits, 0);
}

#[test]
fn a_long_loop_with_reuse_traces_and_frees_its_lineage() {
    // Every iteration adds one node to X's lineage chain, so tracing and
    // dropping it must not recurse once per node.
    const ITERS: usize = 200_000;
    let script = format!(
        "X = matrix(1, rows=2, cols=2); i = 0; while (i < {ITERS}) {{ X = X + 1; i = i + 1 }}"
    );
    let mut s = session(ReusePolicy::FullAndPartial);
    let out = s.execute(&script, &[], &["X"]).unwrap();
    assert_eq!(
        out.matrix("X").unwrap().to_vec(),
        vec![ITERS as f64 + 1.0; 4]
    );
    let trace = out.lineage_trace("X").expect("lineage recorded");
    assert!(
        trace.lines().count() > ITERS,
        "{} lines",
        trace.lines().count()
    );
    let last = trace.lines().last().unwrap();
    assert!(
        last.starts_with(&format!("%{} <- + (", trace.lines().count() - 1)),
        "{last}"
    );
    drop(out);
    drop(s);
}
