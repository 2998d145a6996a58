#![allow(clippy::field_reassign_with_default)]

//! End-to-end script execution through the public API: the language,
//! compiler, runtime, and builtin stack working together.

use sysds::api::SystemDS;
use sysds::Data;
use sysds_common::{EngineConfig, ScalarValue, SysDsError};
use sysds_tensor::kernels::{gen, matmult, solve, tsmm};
use sysds_tensor::Matrix;

fn session() -> SystemDS {
    let mut config = EngineConfig::default();
    config.spill_dir = sysds_common::testing::unique_temp_dir("sysds-e2e-tests");
    SystemDS::with_config(config).unwrap()
}

#[test]
fn quickstart_example_from_readme() {
    let mut s = session();
    let out = s
        .execute(
            r#"
            X = rand(rows=100, cols=5, seed=7)
            y = rand(rows=100, cols=1, seed=8)
            B = lmDS(X=X, y=y, reg=0.001)
            "#,
            &[],
            &["B"],
        )
        .unwrap();
    assert_eq!(out.matrix("B").unwrap().shape(), (5, 1));
}

#[test]
fn lmds_matches_direct_solve() {
    let mut s = session();
    let (x, y) = gen::synthetic_regression(80, 6, 1.0, 0.1, 601);
    let out = s
        .execute(
            "B = lmDS(X=X, y=y, reg=0.01)",
            &[
                ("X", Data::from_matrix(x.clone())),
                ("y", Data::from_matrix(y.clone())),
            ],
            &["B"],
        )
        .unwrap();
    // reference: (X'X + 0.01 I) b = X'y
    let mut gram = tsmm::tsmm(&x, 1, false);
    for i in 0..6 {
        let v = gram.get(i, i) + 0.01;
        gram.set(i, i, v);
    }
    let rhs = tsmm::tmv(&x, &y, 1).unwrap();
    let expect = solve::solve(&gram, &rhs).unwrap();
    assert!(out.matrix("B").unwrap().approx_eq(&expect, 1e-8));
}

#[test]
fn lm_dispatches_by_width() {
    // narrow → lmDS path; the result must solve the normal equations
    let mut s = session();
    let (x, y) = gen::synthetic_regression(50, 3, 1.0, 0.0, 602);
    let out = s
        .execute(
            "B = lm(X=X, y=y, reg=0.0)",
            &[
                ("X", Data::from_matrix(x.clone())),
                ("y", Data::from_matrix(y.clone())),
            ],
            &["B"],
        )
        .unwrap();
    let yhat = matmult::matmul(&x, &out.matrix("B").unwrap(), 1).unwrap();
    assert!(yhat.approx_eq(&y, 1e-6));
}

#[test]
fn lmcg_agrees_with_lmds() {
    let mut s = session();
    let (x, y) = gen::synthetic_regression(60, 5, 1.0, 0.1, 603);
    let out = s
        .execute(
            r#"
            B1 = lmDS(X=X, y=y, reg=0.001)
            B2 = lmCG(X=X, y=y, reg=0.001, tol=0.000000000001, maxi=100)
            d = sum((B1 - B2) * (B1 - B2))
            "#,
            &[("X", Data::from_matrix(x)), ("y", Data::from_matrix(y))],
            &["d"],
        )
        .unwrap();
    assert!(
        out.f64("d").unwrap() < 1e-8,
        "lmCG vs lmDS distance {}",
        out.f64("d").unwrap()
    );
}

#[test]
fn steplm_selects_informative_features() {
    let mut s = session();
    // y depends only on columns 2 and 5 (1-based) out of 8.
    let n = 120;
    let x = gen::rand_uniform(n, 8, -1.0, 1.0, 1.0, 604);
    let c2 = sysds_tensor::kernels::indexing::column(&x, 1).unwrap();
    let c5 = sysds_tensor::kernels::indexing::column(&x, 4).unwrap();
    let y = sysds_tensor::kernels::elementwise::binary_mm(
        sysds_tensor::kernels::BinaryOp::Add,
        &sysds_tensor::kernels::elementwise::binary_ms(
            sysds_tensor::kernels::BinaryOp::Mul,
            &c2,
            3.0,
        ),
        &sysds_tensor::kernels::elementwise::binary_ms(
            sysds_tensor::kernels::BinaryOp::Mul,
            &c5,
            -2.0,
        ),
    )
    .unwrap();
    let out = s
        .execute(
            "[B, S] = steplm(X=X, y=y, reg=0.000001)",
            &[("X", Data::from_matrix(x)), ("y", Data::from_matrix(y))],
            &["B", "S"],
        )
        .unwrap();
    let sel = out.matrix("S").unwrap();
    assert_eq!(sel.shape(), (1, 8));
    assert_eq!(sel.get(0, 1), 1.0, "column 2 must be selected");
    assert_eq!(sel.get(0, 4), 1.0, "column 5 must be selected");
    assert!(
        sel.nnz() <= 3,
        "at most one spurious feature, got {:?}",
        sel.to_vec()
    );
}

#[test]
fn parfor_writes_disjoint_columns() {
    let mut s = session();
    let out = s
        .execute(
            r#"
            B = matrix(0, rows=3, cols=10)
            parfor (i in 1:10) {
                B[, i] = matrix(i, rows=3, cols=1)
            }
            total = sum(B)
            "#,
            &[],
            &["B", "total"],
        )
        .unwrap();
    assert_eq!(out.f64("total").unwrap(), 3.0 * 55.0);
    let b = out.matrix("B").unwrap();
    assert_eq!(b.get(2, 9), 10.0);
    assert_eq!(b.get(0, 0), 1.0);
}

#[test]
fn pca_reduces_dimensions_and_captures_variance() {
    let mut s = session();
    // Strongly correlated data: first component captures most variance.
    let base = gen::rand_uniform(100, 1, -1.0, 1.0, 1.0, 605);
    let noise = gen::rand_uniform(100, 3, -0.01, 0.01, 1.0, 606);
    let mut x = Matrix::zeros(100, 3);
    for i in 0..100 {
        for j in 0..3 {
            x.set(i, j, base.get(i, 0) * (j as f64 + 1.0) + noise.get(i, j));
        }
    }
    let out = s
        .execute(
            "[Xr, W] = pca(X=X, k=2)",
            &[("X", Data::from_matrix(x))],
            &["Xr", "W"],
        )
        .unwrap();
    let xr = out.matrix("Xr").unwrap();
    assert_eq!(xr.shape(), (100, 2));
    // Variance of the first PC dominates that of the second.
    let var = |j: usize| {
        let col: Vec<f64> = (0..100).map(|i| xr.get(i, j)).collect();
        let m = col.iter().sum::<f64>() / 100.0;
        col.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / 99.0
    };
    assert!(var(0) > 100.0 * var(1), "pc1 {} pc2 {}", var(0), var(1));
}

#[test]
fn kmeans_separates_two_far_clusters() {
    let mut s = session();
    let a = gen::rand_uniform(30, 2, 0.0, 1.0, 1.0, 607);
    let b = sysds_tensor::kernels::elementwise::binary_ms(
        sysds_tensor::kernels::BinaryOp::Add,
        &gen::rand_uniform(30, 2, 0.0, 1.0, 1.0, 608),
        100.0,
    );
    let x = sysds_tensor::kernels::indexing::rbind(&a, &b).unwrap();
    let out = s
        .execute(
            "[C, labels] = kmeans(X=X, k=2, maxi=10)",
            &[("X", Data::from_matrix(x))],
            &["C", "labels"],
        )
        .unwrap();
    let labels = out.matrix("labels").unwrap();
    let l0 = labels.get(0, 0);
    let l1 = labels.get(30, 0);
    assert_ne!(l0, l1);
    for i in 0..30 {
        assert_eq!(labels.get(i, 0), l0);
        assert_eq!(labels.get(30 + i, 0), l1);
    }
}

#[test]
fn l2svm_separates_linearly_separable_data() {
    let mut s = session();
    // +1 points have positive coordinates, -1 points negative.
    let pos = gen::rand_uniform(40, 2, 0.5, 1.5, 1.0, 609);
    let neg = sysds_tensor::kernels::elementwise::binary_ms(
        sysds_tensor::kernels::BinaryOp::Mul,
        &gen::rand_uniform(40, 2, 0.5, 1.5, 1.0, 610),
        -1.0,
    );
    let x = sysds_tensor::kernels::indexing::rbind(&pos, &neg).unwrap();
    let mut yv = vec![1.0; 40];
    yv.extend(vec![-1.0; 40]);
    let y = Matrix::from_vec(80, 1, yv).unwrap();
    let out = s
        .execute(
            r#"
            w = l2svm(X=X, y=y, reg=0.01, step=0.01, maxi=200)
            pred = sign(X %*% w)
            acc = sum(pred == y) / nrow(y)
            "#,
            &[("X", Data::from_matrix(x)), ("y", Data::from_matrix(y))],
            &["acc"],
        )
        .unwrap();
    assert!(
        out.f64("acc").unwrap() > 0.95,
        "accuracy {}",
        out.f64("acc").unwrap()
    );
}

#[test]
fn read_write_round_trip_with_metadata() {
    let mut s = session();
    let dir = sysds_common::testing::unique_temp_dir("sysds-e2e-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("rw-{}.csv", std::process::id()));
    let x = gen::rand_uniform(20, 4, -1.0, 1.0, 1.0, 611);
    let script_w = format!(r#"write(X, "{}")"#, path.display());
    s.execute(&script_w, &[("X", Data::from_matrix(x.clone()))], &[])
        .unwrap();
    assert!(path.exists());
    assert!(
        sysds_io::Metadata::load(&path).unwrap().is_some(),
        "mtd sidecar written"
    );
    let script_r = format!(r#"Y = read("{}")"#, path.display());
    let out = s.execute(&script_r, &[], &["Y"]).unwrap();
    assert!(out.matrix("Y").unwrap().approx_eq(&x, 1e-12));
}

#[test]
fn write_ends_its_basic_block() {
    let f = sysds_common::testing::unique_temp_dir("sysds-e2e-tests").join("f.csv");
    let script = format!(
        r#"
        A = matrix(1, rows=3, cols=2)
        B = matrix(2, rows=3, cols=2)
        write(A, "{f}")
        X = read("{f}")
        write(B, "{f}")
        Y = read("{f}")
        s = sum(t(Y) %*% Y)
        "#,
        f = f.display()
    );
    std::fs::create_dir_all(f.parent().unwrap()).unwrap();
    let out = session().execute(&script, &[], &["s"]).unwrap();
    assert_eq!(out.f64("s").unwrap(), 48.0);
}

#[test]
fn read_and_write_share_one_format_table() {
    let dir = sysds_common::testing::unique_temp_dir("sysds-e2e-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let x = gen::rand_uniform(12, 5, -1.0, 1.0, 0.4, 613).compact();
    let mut s = session();
    for format in ["csv", "tsv", "binary", "mm", "matrixmarket"] {
        let p = dir.join(format!("x.{format}"));
        let script = format!(
            r#"
            write(X, "{p}", format="{format}")
            Y = read("{p}", format="{format}")
            "#,
            p = p.display()
        );
        let out = s
            .execute(&script, &[("X", Data::from_matrix(x.clone()))], &["Y"])
            .unwrap_or_else(|e| panic!("{format}: {e}"));
        assert!(out.matrix("Y").unwrap().approx_eq(&x, 1e-12), "{format}");
    }
    let tsv = std::fs::read_to_string(dir.join("x.tsv")).unwrap();
    assert!(tsv.contains('\t') && !tsv.contains(','), "{tsv}");
    let mm = std::fs::read_to_string(dir.join("x.mm")).unwrap();
    assert!(mm.starts_with("%%MatrixMarket"), "{mm}");

    let p = dir.join("x.parquet");
    let unknown = [
        format!(r#"write(X, "{}", format="parquet")"#, p.display()),
        format!(
            r#"Y = read("{}", format="parquet")"#,
            dir.join("x.csv").display()
        ),
    ];
    for script in unknown {
        let err = s
            .execute(&script, &[("X", Data::from_matrix(x.clone()))], &[])
            .unwrap_err();
        assert!(err.to_string().contains("parquet"), "{err}");
    }
    assert!(!p.exists());

    let frame = format!(
        r#"F = read("{}", data_type="frame", format="binary")"#,
        dir.join("x.binary").display()
    );
    assert!(s.execute(&frame, &[], &[]).is_err());
}

#[test]
fn scale_and_normalize_builtins() {
    let mut s = session();
    let x = gen::rand_uniform(50, 3, 5.0, 9.0, 1.0, 612);
    let out = s
        .execute(
            r#"
            Z = scale(X=X)
            cm = colMeans(Z)
            cs = colSds(Z)
            N = normalize(X=X)
            nmin = min(N)
            nmax = max(N)
            "#,
            &[("X", Data::from_matrix(x))],
            &["cm", "cs", "nmin", "nmax"],
        )
        .unwrap();
    let cm = out.matrix("cm").unwrap();
    let cs = out.matrix("cs").unwrap();
    for j in 0..3 {
        assert!(cm.get(0, j).abs() < 1e-10);
        assert!((cs.get(0, j) - 1.0).abs() < 1e-10);
    }
    assert_eq!(out.f64("nmin").unwrap(), 0.0);
    assert_eq!(out.f64("nmax").unwrap(), 1.0);
}

#[test]
fn nested_function_calls_with_control_flow() {
    let mut s = session();
    let out = s
        .execute(
            r#"
            collatz_steps = function(int n) return (int steps) {
                steps = 0
                while (n > 1) {
                    if (n %% 2 == 0) { n = n %/% 2 } else { n = 3 * n + 1 }
                    steps = steps + 1
                }
            }
            s27 = collatz_steps(27)
            "#,
            &[],
            &["s27"],
        )
        .unwrap();
    assert_eq!(out.scalar("s27").unwrap().as_i64().unwrap(), 111);
}

#[test]
fn error_messages_surface_from_scripts() {
    let mut s = session();
    let err = s
        .execute(
            "Z = X %*% X",
            &[("X", Data::from_matrix(Matrix::zeros(2, 3)))],
            &["Z"],
        )
        .unwrap_err();
    assert!(matches!(err, SysDsError::DimensionMismatch { .. }), "{err}");
    let err = s.execute("Z = missing + 1", &[], &["Z"]).unwrap_err();
    assert!(err.to_string().contains("missing"));
}

#[test]
fn dynamic_recompilation_handles_data_dependent_sizes() {
    let mut s = session();
    // removeEmpty has a data-dependent output size; the subsequent ops
    // must recompile with the observed dims.
    let x = Matrix::from_rows(&[
        &[1.0, 2.0],
        &[0.0, 0.0],
        &[3.0, 4.0],
        &[0.0, 0.0],
        &[5.0, 6.0],
    ])
    .unwrap();
    let out = s
        .execute(
            r#"
            Z = removeEmpty(target=X, margin="rows")
            n = nrow(Z)
            G = t(Z) %*% Z
            "#,
            &[("X", Data::from_matrix(x))],
            &["n", "G"],
        )
        .unwrap();
    assert_eq!(out.f64("n").unwrap(), 3.0);
    assert_eq!(out.matrix("G").unwrap().shape(), (2, 2));
}

#[test]
fn matrix_literal_and_indexing_semantics() {
    let mut s = session();
    let out = s
        .execute(
            r#"
            X = matrix(seq(1, 12), rows=3, cols=4)
            a = as.scalar(X[2, 3])
            R = X[2:3, ]
            C = X[, 4]
            X[1, 1] = 99
            b = as.scalar(X[1, 1])
            "#,
            &[],
            &["a", "R", "C", "b"],
        )
        .unwrap();
    // row-major fill: X[2,3] = 7
    assert_eq!(out.f64("a").unwrap(), 7.0);
    assert_eq!(out.matrix("R").unwrap().shape(), (2, 4));
    assert_eq!(out.matrix("C").unwrap().to_vec(), vec![4.0, 8.0, 12.0]);
    assert_eq!(out.f64("b").unwrap(), 99.0);
}

#[test]
fn scalar_ifelse_and_logic() {
    let mut s = session();
    let out = s
        .execute(
            r#"
            a = ifelse(3 > 2, 10, 20)
            b = ifelse(FALSE, 1, 2)
            c = (1 < 2) & !(3 <= 2) | FALSE
            "#,
            &[],
            &["a", "b", "c"],
        )
        .unwrap();
    assert_eq!(out.f64("a").unwrap(), 10.0);
    assert_eq!(out.f64("b").unwrap(), 2.0);
    assert_eq!(out.scalar("c").unwrap(), ScalarValue::Bool(true));
}

#[test]
fn cv_and_grid_search_builtins() {
    let mut s = session();
    let (x, y) = gen::synthetic_regression(200, 5, 1.0, 0.1, 613);
    let out = s
        .execute(
            r#"
            err = cvLM(X=X, y=y, folds=4, reg=0.001)
            lambdas = matrix(seq(1, 5), rows=5, cols=1) * 0.001
            [B, best] = gridSearchLM(X=X, y=y, lambdas=lambdas)
            "#,
            &[("X", Data::from_matrix(x)), ("y", Data::from_matrix(y))],
            &["err", "B", "best"],
        )
        .unwrap();
    // noise 0.1 → per-fold mse should be near 0.01
    let err = out.f64("err").unwrap();
    assert!(err > 0.0 && err < 0.1, "cv error {err}");
    assert_eq!(out.matrix("B").unwrap().shape(), (5, 1));
    let best = out.f64("best").unwrap();
    assert!((0.0009..=0.0051).contains(&best), "best lambda {best}");
}

#[test]
fn logistic_regression_builtin_classifies() {
    let mut s = session();
    // labels in {0,1}: 1 iff first feature above 0.5
    let x = gen::rand_uniform(300, 2, 0.0, 1.0, 1.0, 614);
    let mut yv = Vec::with_capacity(300);
    for i in 0..300 {
        yv.push(if x.get(i, 0) > 0.5 { 1.0 } else { 0.0 });
    }
    let y = Matrix::from_vec(300, 1, yv).unwrap();
    let out = s
        .execute(
            r#"
            Xb = cbind(X, matrix(1, rows=nrow(X), cols=1))
            w = logisticReg(X=Xb, y=y, step=2.0, maxi=500, reg=0.0001)
            p = sigmoid(Xb %*% w)
            pred = p > 0.5
            acc = sum(pred == y) / nrow(y)
            "#,
            &[("X", Data::from_matrix(x)), ("y", Data::from_matrix(y))],
            &["acc"],
        )
        .unwrap();
    assert!(
        out.f64("acc").unwrap() > 0.9,
        "accuracy {}",
        out.f64("acc").unwrap()
    );
}

#[test]
fn paramserv_builtin_trains_linear_model() {
    let mut s = session();
    let (x, y) = gen::synthetic_regression(300, 4, 1.0, 0.0, 615);
    let out = s
        .execute(
            r#"
            w = paramserv(X=X, y=y, epochs=300, batchsize=50, lr=0.5, mode="BSP", workers=2)
            exact = lmDS(X=X, y=y, reg=0.0)
            d = max(abs(w - exact))
            "#,
            &[("X", Data::from_matrix(x)), ("y", Data::from_matrix(y))],
            &["w", "d"],
        )
        .unwrap();
    assert_eq!(out.matrix("w").unwrap().shape(), (4, 1));
    assert!(
        out.f64("d").unwrap() < 0.05,
        "distance {}",
        out.f64("d").unwrap()
    );
}

#[test]
fn paramserv_rejects_counts_below_one() {
    let (x, y) = gen::synthetic_regression(40, 3, 1.0, 0.0, 616);
    let run = |call: &str| {
        session().execute(
            &format!("w = {call}"),
            &[
                ("X", Data::from_matrix(x.clone())),
                ("y", Data::from_matrix(y.clone())),
            ],
            &["w"],
        )
    };
    // `workers` defaults to the engine's thread count.
    let out = run("paramserv(X=X, y=y, epochs=2)").unwrap();
    assert_eq!(out.matrix("w").unwrap().shape(), (3, 1));
    for (arg, shown) in [
        ("epochs=-1", "-1"),
        ("batchsize=0", "0"),
        ("workers=0", "0"),
    ] {
        let err = run(&format!("paramserv(X=X, y=y, {arg})"))
            .unwrap_err()
            .to_string();
        let name = arg.split('=').next().unwrap();
        assert!(
            err.contains(&format!("paramserv {name} must be at least 1, got {shown}")),
            "{err}"
        );
    }
}

#[test]
fn lineage_trace_exposed_for_debugging() {
    let mut config = EngineConfig::default();
    config.lineage = true;
    config.spill_dir = sysds_common::testing::unique_temp_dir("sysds-e2e-tests");
    let mut s = SystemDS::with_config(config).unwrap();
    let out = s
        .execute(
            r#"
            X = rand(rows=10, cols=3, seed=5)
            G = t(X) %*% X
            "#,
            &[],
            &["G"],
        )
        .unwrap();
    let trace = out.lineage_trace("G").expect("lineage recorded");
    // The trace names the fused op and the seeded generator.
    assert!(trace.contains("tsmm"), "{trace}");
    assert!(
        trace.contains("rand:10:3:") && trace.contains(":5:uniform"),
        "{trace}"
    );
}
