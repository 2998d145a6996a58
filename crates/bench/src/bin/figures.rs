//! Regenerate the paper's Figure 5 series as tables.
//!
//! ```bash
//! cargo run --release -p sysds-bench --bin figures            # all figures
//! cargo run --release -p sysds-bench --bin figures -- 5a 5c   # subset
//! SYSDS_SCALE=paper cargo run --release -p sysds-bench --bin figures
//! ```
//!
//! Scales default to a laptop-friendly reduction of the paper's setup
//! (see `sysds_bench::Scale`); the claims being reproduced are *shapes*:
//!
//! * 5(a) dense: SysDS beats TF for one model (multi-threaded CSV parse);
//!   all grow linearly with k. The paper's SysDS-B column has no series
//!   here: the engine runs one kernel tier, and the portable-vs-native gap
//!   of §4.2 is the `ablation_kernels` bench (`gram_tsmm_dense` vs
//!   `gram_tsmm_dense_blas`).
//! * 5(b) sparse: SysDS wins big (fused sparse tsmm, no transpose);
//!   TF pays the materialized transpose per model, TF-G once.
//! * 5(c): reuse flattens the k-sweep to near-constant after model 1.
//! * 5(d): the reuse gap grows with the input rows.

#![deny(unsafe_code)]

use sysds_baselines::HyperParamWorkload;
use sysds_bench::{mean_secs, print_table, run_baseline, run_sysds, Scale, SysVariant};

/// Also dump each figure's series as a CSV file for plotting when
/// `--csv <dir>` is passed.
fn maybe_write_csv(
    dir: &Option<std::path::PathBuf>,
    name: &str,
    xlabel: &str,
    xs: &[String],
    series: &[(String, Vec<f64>)],
) {
    let Some(dir) = dir else { return };
    let _ = std::fs::create_dir_all(dir);
    let mut out = String::new();
    out.push_str(xlabel);
    for (n, _) in series {
        out.push(',');
        out.push_str(n);
    }
    out.push('\n');
    for (i, x) in xs.iter().enumerate() {
        out.push_str(x);
        for (_, ys) in series {
            out.push(',');
            out.push_str(&ys.get(i).map_or(String::new(), |v| format!("{v:.6}")));
        }
        out.push('\n');
    }
    let path = dir.join(format!("{name}.csv"));
    if std::fs::write(&path, out).is_ok() {
        eprintln!("# wrote {}", path.display());
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let csv_at = args.iter().position(|a| a == "--csv").map(|i| i + 1);
    let csv_dir = csv_at
        .and_then(|i| args.get(i))
        .map(std::path::PathBuf::from);
    let figures: Vec<&String> = (0..args.len())
        .filter(|&i| Some(i) != csv_at && !args[i].starts_with("--"))
        .map(|i| &args[i])
        .collect();
    let all = figures.is_empty() || figures.iter().any(|a| *a == "all");
    let want = |f: &str| all || figures.iter().any(|a| *a == f);
    let scale = Scale::from_env();
    println!(
        "# SystemDS-rs figure harness (rows={}, cols={}, ks={:?})",
        scale.rows, scale.cols, scale.ks
    );

    let ks = |sparsity| -> Vec<_> {
        let ws = scale
            .ks
            .iter()
            .map(|&k| (k.to_string(), scale.workload(k, sparsity)));
        ws.collect()
    };
    let k = ("k", "k models");
    let baselines = ["TF", "TF-G", "Julia", "SysDS"];
    let reuse = ["SysDS", "SysDS w/ Reuse"];
    if want("5a") {
        let title = "Figure 5(a): baselines, dense";
        sweep("fig5a", title, k, ks(1.0), &baselines, &csv_dir);
    }
    if want("5b") {
        let title = "Figure 5(b): baselines, sparse (0.1)";
        sweep("fig5b", title, k, ks(0.1), &baselines, &csv_dir);
    }
    if want("5c") {
        sweep(
            "fig5c",
            "Figure 5(c): reuse, dense",
            k,
            ks(1.0),
            &reuse,
            &csv_dir,
        );
    }
    if want("5d") {
        let title = format!(
            "Figure 5(d): reuse, sparse rows sweep (k={})",
            scale.k_sweep
        );
        let rows = scale
            .row_sweep
            .iter()
            .map(|&r| (r.to_string(), scale.workload_rows(r)));
        let x = ("nrow", "nrow(X)");
        sweep("fig5d", &title, x, rows.collect(), &reuse, &csv_dir);
    }
}

/// Measure every engine on every workload of one figure's sweep, print the
/// table and, with `--csv`, write the series to `<name>.csv`. `x` labels
/// the sweep's variable in the CSV and in the table.
fn sweep(
    name: &str,
    title: &str,
    (csv_x, table_x): (&str, &str),
    points: Vec<(String, HyperParamWorkload)>,
    engines: &[&str],
    csv: &Option<std::path::PathBuf>,
) {
    let mut series: Vec<(String, Vec<f64>)> = engines
        .iter()
        .map(|e| (e.to_string(), Vec::new()))
        .collect();
    let mut xs = Vec::new();
    for (x, w) in points {
        w.materialize().expect("generate inputs");
        xs.push(x);
        for (engine, ys) in series.iter_mut() {
            ys.push(mean_secs(|| match engine.as_str() {
                "SysDS" => run_sysds(&w, SysVariant::Plain),
                "SysDS w/ Reuse" => run_sysds(&w, SysVariant::Reuse),
                other => run_baseline(&w, other),
            }));
        }
    }
    print_table(title, table_x, &xs, &series);
    maybe_write_csv(csv, name, csv_x, &xs, &series);
}
