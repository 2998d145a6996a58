//! The data-integration-and-cleaning half of the lifecycle (paper §3.2):
//! raw CSV with mixed types, missing values, and outliers → schema
//! detection → feature transformation → imputation/winsorizing → training,
//! the last three in one DML script.
//!
//! ```bash
//! cargo run --release --example data_cleaning
//! ```

use std::sync::Arc;
use sysds::api::SystemDS;
use sysds::Data;
use sysds_frame::Frame;
use sysds_io::FormatDescriptor;

fn main() -> sysds::Result<()> {
    // 1. "Ingest" a messy CSV (written here to keep the example portable).
    let dir = std::env::temp_dir().join("sysds-example-cleaning");
    std::fs::create_dir_all(&dir).map_err(|e| sysds::SysDsError::io("tmp", e))?;
    let path = dir.join("sensors.csv");
    std::fs::write(
        &path,
        "site,temp,pressure,ok,target\n\
         north,21.5,1012,TRUE,0.52\n\
         south,22.1,NA,TRUE,0.61\n\
         north,21.9,1013,FALSE,0.55\n\
         east,900.0,1011,TRUE,0.57\n\
         south,22.4,1014,TRUE,0.63\n\
         east,21.2,1012,FALSE,0.49\n\
         north,20.8,1010,TRUE,0.47\n\
         south,22.0,1013,FALSE,0.58\n",
    )
    .map_err(|e| sysds::SysDsError::io(path.display().to_string(), e))?;

    // 2. Read as a frame and detect the schema (paper L4: heterogeneous data).
    let frame = sysds_io::csv::read_frame(&path, &FormatDescriptor::csv().with_header(true))?
        .detect_schema();
    println!("detected schema: {:?}", frame.schema());

    // 3. One declarative script from the raw table to a model. The
    //    encoder dummy-codes the site; the cleaning builtins impute the
    //    missing pressure and clamp the temperature outlier (900 °C is a
    //    sensor glitch). Encoder metadata and impute rules are themselves
    //    data ("rules as tensors").
    let raw = Frame::from_columns(vec![
        ("site".into(), frame.column_by_name("site")?.clone()),
        ("temp".into(), frame.column_by_name("temp")?.clone()),
        ("pressure".into(), frame.column_by_name("pressure")?.clone()),
        ("target".into(), frame.column_by_name("target")?.clone()),
    ])?;
    let mut sds = SystemDS::new();
    sds.echo_stdout(true);
    let out = sds.execute(
        r#"
        [E, Meta] = transformencode(target=F, spec="dummy=site")
        d = ncol(E)
        [N, rules] = imputeByMean(E[, (d - 2):d])
        print("impute rules (column means): " + toString(rules))
        print("outlier cells flagged: " + sum(outlierByIQR(N, 1.5)))
        N = winsorizeByIQR(N, 1.5)
        X = cbind(E[, 1:(d - 3)], N[, 1:2])
        y = N[, 3]
        B = lmDS(X=X, y=y, reg=0.0001)
        err = mse(yhat=lmPredict(X=X, B=B), y=y)
        print("clean-data training mse: " + err)
        "#,
        &[("F", Data::Frame(Arc::new(raw)))],
        &["B", "err"],
    )?;
    println!("model coefficients: {:?}", out.matrix("B")?.to_vec());
    assert!(out.f64("err")? < 0.01);
    Ok(())
}
