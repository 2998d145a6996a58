//! Integration tests for the `sysds` command-line launcher.

use std::process::Command;

fn sysds_bin() -> &'static str {
    env!("CARGO_BIN_EXE_sysds")
}

fn write_script(name: &str, content: &str) -> std::path::PathBuf {
    let dir = sysds_common::testing::unique_temp_dir("sysds-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(format!("{name}-{}.dml", std::process::id()));
    std::fs::write(&p, content).unwrap();
    p
}

#[test]
fn runs_a_script_and_prints() {
    let p = write_script("hello", r#"print("hello from dml: " + (2 + 3))"#);
    let out = Command::new(sysds_bin())
        .args(["run", p.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("hello from dml: 5"));
}

#[test]
fn argument_substitution() {
    let p = write_script("args", r#"print("n = " + sum(matrix(1, rows=$N, cols=1)))"#);
    let out = Command::new(sysds_bin())
        .args(["run", p.to_str().unwrap(), "--arg", "N=7"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("n = 7"));
}

#[test]
fn stats_and_explain_flags() {
    let p = write_script(
        "stats",
        r#"
        X = rand(rows=200, cols=20, seed=1)
        y = rand(rows=200, cols=1, seed=2)
        for (i in 1:3) { B = lmDS(X=X, y=y, reg=0.001 * i) }
        "#,
    );
    let out = Command::new(sysds_bin())
        .args([
            "run",
            p.to_str().unwrap(),
            "--reuse",
            "--stats",
            "--explain",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("compiled program"), "{err}");
    assert!(err.contains("EXPLAIN (HOPS):"), "{err}");
    assert!(err.contains("Lineage cache:"), "{err}");
    assert!(err.contains("Heavy hitter instructions:"), "{err}");
    let tiers = err
        .lines()
        .filter(|l| l.starts_with("Dense kernels: "))
        .collect::<Vec<_>>();
    assert!(
        matches!(
            tiers[..],
            ["Dense kernels: avx512f" | "Dense kernels: avx2+fma" | "Dense kernels: blocked"]
        ),
        "{err}"
    );
}

#[test]
fn script_errors_set_exit_code() {
    let p = write_script("bad", "x = undefined_variable + 1");
    let out = Command::new(sysds_bin())
        .args(["run", p.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("undefined_variable"));
}

#[test]
fn compile_errors_print_one_prefix() {
    let p = write_script(
        "badarg",
        "X = rand(rows=4, cols=2, seed=1)\n[w, V] = eigen(X, extra=3)",
    );
    let out = Command::new(sysds_bin())
        .args(["run", p.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("error: compile error: unknown argument 'extra' for 'eigen'"),
        "{err}"
    );
    assert!(!err.contains("compile error: compile error"), "{err}");
}

#[test]
fn missing_script_reported() {
    let out = Command::new(sysds_bin())
        .args(["run", "/nonexistent/script.dml"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn usage_on_bad_invocation() {
    let out = Command::new(sysds_bin())
        .arg("frobnicate")
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn flag_values_missing_or_unparseable_print_usage() {
    for args in [
        &["run", "x.dml", "--threads"][..],
        &["run", "x.dml", "--threads", "abc"],
        &["fuzz", "--iters", "x"],
    ] {
        let out = Command::new(sysds_bin()).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage:"), "{args:?}: {err}");
    }
}

#[test]
fn stop_statement_exit_code() {
    let p = write_script("stop", r#"stop("refusing to continue")"#);
    let out = Command::new(sysds_bin())
        .args(["run", p.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("refusing to continue"));
}
