#![allow(clippy::field_reassign_with_default)]

//! The end-to-end data-science lifecycle (paper §1, Figure 1): raw CSV →
//! schema detection → cleaning → feature transformation → model training
//! → evaluation, crossing frames, transform encoders, and DML scripts
//! without any boundary crossing into external tools.

use std::path::PathBuf;
use sysds::api::SystemDS;
use sysds::Data;
use sysds_common::EngineConfig;
use sysds_frame::clean;
use sysds_frame::{Frame, FrameColumn};
use sysds_io::FormatDescriptor;

fn session() -> SystemDS {
    let mut config = EngineConfig::default();
    config.spill_dir = sysds_common::testing::unique_temp_dir("sysds-lifecycle-tests");
    SystemDS::with_config(config).unwrap()
}

fn dir() -> PathBuf {
    let d = sysds_common::testing::unique_temp_dir("sysds-lifecycle-tests");
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// A small messy dataset: categorical city, numeric age/income with a
/// missing value and an outlier, boolean-ish flag, and a target column.
fn messy_csv() -> PathBuf {
    // Unique per call: tests in this binary run concurrently, and a shared
    // path would race one test's truncating write against another's read.
    use std::sync::atomic::{AtomicU64, Ordering};
    static CALL: AtomicU64 = AtomicU64::new(0);
    let p = dir().join(format!(
        "people-{}-{}.csv",
        std::process::id(),
        CALL.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(
        &p,
        "city,age,income,flag,target\n\
         graz,30,50000,TRUE,1.0\n\
         wien,40,NA,FALSE,2.0\n\
         graz,35,52000,TRUE,1.5\n\
         linz,999,51000,FALSE,1.7\n\
         wien,38,49000,TRUE,1.9\n\
         graz,33,50500,FALSE,1.4\n",
    )
    .unwrap();
    p
}

#[test]
fn frame_ingestion_and_schema_detection() {
    let p = messy_csv();
    let f = sysds_io::csv::read_frame(&p, &FormatDescriptor::csv().with_header(true))
        .unwrap()
        .detect_schema();
    assert_eq!(f.rows(), 6);
    assert_eq!(f.cols(), 5);
    use sysds_common::ValueType::*;
    assert_eq!(f.schema(), vec![String, Int64, Fp64, Boolean, Fp64]);
    // NA became NaN in the numeric column
    let income = f.column_by_name("income").unwrap().as_f64().unwrap();
    assert!(income[1].is_nan());
}

#[test]
fn cleaning_pipeline_impute_winsorize() {
    let p = messy_csv();
    let f = sysds_io::csv::read_frame(&p, &FormatDescriptor::csv().with_header(true))
        .unwrap()
        .detect_schema();
    // numeric sub-frame → matrix
    let numeric = Frame::from_columns(vec![
        ("age".into(), f.column_by_name("age").unwrap().clone()),
        ("income".into(), f.column_by_name("income").unwrap().clone()),
    ])
    .unwrap();
    let m = numeric.to_matrix().unwrap();
    // impute missing income by mean; the age 999 outlier is flagged and
    // clamped
    let out = session()
        .execute(
            r#"
            [imputed, rules] = imputeByMean(M)
            outliers = outlierBySd(imputed, 2.0)
            clamped = winsorizeBySd(imputed, 2.0)
            "#,
            &[("M", Data::from_matrix(m))],
            &["imputed", "rules", "outliers", "clamped"],
        )
        .unwrap();
    assert!(!out.matrix("imputed").unwrap().get(1, 1).is_nan());
    assert_eq!(out.matrix("rules").unwrap().shape(), (1, 2));
    let outliers = out.matrix("outliers").unwrap();
    assert_eq!(outliers.get(3, 0), 1.0, "age=999 must be an outlier");
    assert!(out.matrix("clamped").unwrap().get(3, 0) < 999.0);
}

#[test]
fn transformencode_to_training_in_one_script() {
    let p = messy_csv();
    let mut s = session();
    let f = sysds_io::csv::read_frame(&p, &FormatDescriptor::csv().with_header(true))
        .unwrap()
        .detect_schema();
    let out = s
        .execute(
            r#"
            [X, M] = transformencode(target=F, spec="dummy=city bin=age:3")
            n = nrow(X)
            d = ncol(X)
            "#,
            &[("F", Data::Frame(std::sync::Arc::new(f)))],
            &["X", "M", "n", "d"],
        )
        .unwrap();
    // city dummy (3) + age bin (1) + income (1) + flag (1) + target (1)
    assert_eq!(out.f64("d").unwrap(), 7.0);
    assert_eq!(out.f64("n").unwrap(), 6.0);
    let meta = out.frame("M").unwrap();
    assert!(meta.rows() > 0);
}

#[test]
fn transformapply_reuses_fitted_encoder() {
    let p = messy_csv();
    let mut s = session();
    let f = sysds_io::csv::read_frame(&p, &FormatDescriptor::csv().with_header(true))
        .unwrap()
        .detect_schema();
    let fdata = Data::Frame(std::sync::Arc::new(f.clone()));
    let out = s
        .execute(
            r#"
            [X1, M] = transformencode(target=F, spec="recode=city bin=income:3")
            X2 = transformapply(target=F, meta=M)
            d = sum((X1 - X2) * (X1 - X2))
            "#,
            &[("F", fdata)],
            &["d"],
        )
        .unwrap();
    assert_eq!(out.f64("d").unwrap(), 0.0, "apply(fit(F)) == encode(F)");
}

#[test]
fn full_lifecycle_train_and_score() {
    // CSV → frame → encode → split → train (lm) → score (mse) all driven
    // from Rust + DML, with data written and read through sysds-io.
    let p = messy_csv();
    let mut s = session();
    let f = sysds_io::csv::read_frame(&p, &FormatDescriptor::csv().with_header(true))
        .unwrap()
        .detect_schema();
    let out = s
        .execute(
            r#"
            [E, M] = transformencode(target=F, spec="dummy=city bin=income:5")
            n = ncol(E)
            X = E[, 1:(n - 1)]
            y = E[, n]
            B = lmDS(X=X, y=y, reg=0.001)
            yhat = lmPredict(X=X, B=B)
            err = mse(yhat=yhat, y=y)
            "#,
            &[("F", Data::Frame(std::sync::Arc::new(f)))],
            &["B", "err"],
        )
        .unwrap();
    // 6 rows, 6 features: must fit closely (small ridge).
    assert!(
        out.f64("err").unwrap() < 1e-2,
        "mse {}",
        out.f64("err").unwrap()
    );
}

#[test]
fn dedup_and_drop_invalid() {
    let f = Frame::from_columns(vec![
        (
            "a".into(),
            FrameColumn::Str(vec!["x".into(), "x".into(), "y".into(), "NA".into()]),
        ),
        ("b".into(), FrameColumn::F64(vec![1.0, 1.0, 2.0, 3.0])),
    ])
    .unwrap();
    let d = clean::dedup(&f).unwrap();
    assert_eq!(d.rows(), 3);
    let v = clean::drop_invalid(&d).unwrap();
    assert_eq!(v.rows(), 2);
}

#[test]
fn prepared_script_for_low_latency_scoring() {
    // JMLC-style: pre-compile once, score many small inputs.
    let s = session();
    let prep = s.prepare("yhat = X %*% B", &["yhat"]).unwrap();
    let b = sysds_tensor::Matrix::from_vec(3, 1, vec![1.0, -1.0, 0.5]).unwrap();
    for i in 0..10 {
        let x = sysds_tensor::kernels::gen::rand_uniform(1, 3, -1.0, 1.0, 1.0, 800 + i);
        let out = prep
            .execute(&[
                ("X", Data::from_matrix(x.clone())),
                ("B", Data::from_matrix(b.clone())),
            ])
            .unwrap();
        let expect = sysds_tensor::kernels::matmult::matmul(&x, &b, 1).unwrap();
        assert!(out.matrix("yhat").unwrap().approx_eq(&expect, 1e-12));
    }
}
