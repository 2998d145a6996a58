//! Shared harness for regenerating the paper's Figure 5 and the ablation
//! benchmarks (see DESIGN.md §4 for the experiment index).
//!
//! Sizes are scaled down from the paper's single-node setup (100K×1K,
//! k ≤ 70) so the full sweep finishes in CI time; set `SYSDS_SCALE=paper`
//! to run the original sizes. The *shape* of the results — who wins, by
//! roughly what factor, where lines cross — is what the harness verifies,
//! not absolute numbers (the substrate is a simulator, not the authors'
//! testbed).

#![deny(unsafe_code)]

use std::time::Instant;
use sysds::api::SystemDS;
use sysds_baselines::{EagerEngine, Engine, GraphEngine, HyperParamWorkload, NativeEngine};
use sysds_common::config::ReusePolicy;
use sysds_common::EngineConfig;

/// Benchmark scale: dimensions of the Figure 5 workloads.
#[derive(Debug, Clone)]
pub struct Scale {
    pub rows: usize,
    pub cols: usize,
    /// The k sweep of Fig. 5(a)-(c) (paper: 1, 10, 20, ..., 70).
    pub ks: Vec<usize>,
    /// The nrow sweep of Fig. 5(d) (paper: 33K, 100K, 330K, 1M, 3.3M).
    pub row_sweep: Vec<usize>,
    /// k used in Fig. 5(d) (paper: 70).
    pub k_sweep: usize,
}

impl Scale {
    /// Scale from the `SYSDS_SCALE` environment variable:
    /// `ci` (tiny), `default` (seconds per series), or `paper` (original).
    pub fn from_env() -> Scale {
        match std::env::var("SYSDS_SCALE").as_deref() {
            Ok("paper") => Scale {
                rows: 100_000,
                cols: 1_000,
                ks: vec![1, 10, 20, 30, 40, 50, 60, 70],
                row_sweep: vec![33_000, 100_000, 330_000, 1_000_000, 3_300_000],
                k_sweep: 70,
            },
            Ok("ci") => Scale {
                rows: 2_000,
                cols: 50,
                ks: vec![1, 4, 8],
                row_sweep: vec![1_000, 2_000, 4_000],
                k_sweep: 8,
            },
            _ => Scale {
                rows: 20_000,
                cols: 200,
                ks: vec![1, 4, 8, 12, 16, 20],
                row_sweep: vec![6_600, 20_000, 66_000, 200_000],
                k_sweep: 14,
            },
        }
    }

    /// The workload for a given k / sparsity (dense = 1.0, sparse = 0.1).
    pub fn workload(&self, k: usize, sparsity: f64) -> HyperParamWorkload {
        HyperParamWorkload {
            rows: self.rows,
            cols: self.cols,
            sparsity,
            num_models: k,
            seed: 0xF165,
            dir: bench_dir(),
        }
    }

    /// The Fig. 5(d) workload for a given row count.
    pub fn workload_rows(&self, rows: usize) -> HyperParamWorkload {
        HyperParamWorkload {
            rows,
            cols: self.cols,
            sparsity: 0.1,
            num_models: self.k_sweep,
            seed: 0xF165D,
            dir: bench_dir(),
        }
    }
}

/// Scratch directory for benchmark inputs.
pub fn bench_dir() -> std::path::PathBuf {
    let d = std::env::temp_dir().join("sysds-bench-data");
    let _ = std::fs::create_dir_all(&d);
    d
}

/// The paper's workload as a DML script, end-to-end: read CSV, train k
/// models, write the stacked models as one CSV.
pub fn hyperparam_script(w: &HyperParamWorkload) -> String {
    format!(
        r#"
        X = read("{x}")
        y = read("{y}")
        B = matrix(0, rows=ncol(X), cols={k})
        for (i in 1:{k}) {{
            reg = 0.000001 * i
            Bi = lmDS(X=X, y=y, reg=reg)
            B[, i] = Bi
        }}
        write(B, "{out}")
        "#,
        x = w.x_path().display(),
        y = w.y_path().display(),
        k = w.num_models,
        out = w.model_path().display(),
    )
}

/// The SystemDS engine variants of Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SysVariant {
    /// No reuse (SysDS).
    Plain,
    /// Lineage-based reuse (SysDS w/ Reuse).
    Reuse,
}

impl SysVariant {
    pub fn label(self) -> &'static str {
        match self {
            SysVariant::Plain => "SysDS",
            SysVariant::Reuse => "SysDS+Reuse",
        }
    }

    fn config(self) -> EngineConfig {
        let base = EngineConfig::default();
        match self {
            SysVariant::Plain => base,
            SysVariant::Reuse => base.reuse_policy(ReusePolicy::FullAndPartial),
        }
    }
}

/// Number of repetitions averaged per measurement (paper §4.1 reports the
/// "mean of 3 repetitions"); override with `SYSDS_REPS`.
pub fn repetitions() -> usize {
    std::env::var("SYSDS_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
}

/// Run the DML workload end-to-end (including I/O) and return seconds.
/// Every run uses a fresh session so no state leaks between measurements.
pub fn run_sysds(w: &HyperParamWorkload, variant: SysVariant) -> f64 {
    let mut sds = SystemDS::with_config(variant.config()).expect("config valid");
    let script = hyperparam_script(w);
    let t0 = Instant::now();
    sds.execute(&script, &[], &[]).expect("workload runs");
    t0.elapsed().as_secs_f64()
}

/// Mean of [`repetitions`] runs of a measurement closure.
pub fn mean_secs(mut f: impl FnMut() -> f64) -> f64 {
    let reps = repetitions();
    let total: f64 = (0..reps).map(|_| f()).sum();
    total / reps as f64
}

/// Time `f` for a benchmark main: one warm-up call, then the mean of
/// [`repetitions`] timed calls, printed as one `name  mean ms` line.
/// Returns the mean in seconds.
pub fn time<R>(name: &str, mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let secs = mean_secs(|| {
        let t0 = Instant::now();
        std::hint::black_box(f());
        t0.elapsed().as_secs_f64()
    });
    println!("{name:<48} {:>10.3} ms", secs * 1e3);
    secs
}

/// Threads a benchmark uses for its multi-threaded runs.
pub fn max_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Run one of the baseline engines end-to-end and return seconds.
pub fn run_baseline(w: &HyperParamWorkload, which: &str) -> f64 {
    let threads = max_threads();
    let engine: Box<dyn Engine> = match which {
        "TF" => Box::new(EagerEngine { threads }),
        "TF-G" => Box::new(GraphEngine { threads }),
        "Julia" => Box::new(NativeEngine { threads }),
        other => panic!("unknown baseline '{other}'"),
    };
    let t0 = Instant::now();
    engine.run(w).expect("baseline runs");
    t0.elapsed().as_secs_f64()
}

/// Pretty-print one figure's series as a markdown-ish table.
pub fn print_table(title: &str, xlabel: &str, xs: &[String], series: &[(String, Vec<f64>)]) {
    println!("\n## {title}");
    print!("| {xlabel:>12} |");
    for (name, _) in series {
        print!(" {name:>12} |");
    }
    println!();
    print!("|{}|", "-".repeat(14));
    for _ in series {
        print!("{}|", "-".repeat(14));
    }
    println!();
    for (i, x) in xs.iter().enumerate() {
        print!("| {x:>12} |");
        for (_, ys) in series {
            match ys.get(i) {
                Some(v) => print!(" {v:>11.3}s |"),
                None => print!(" {:>12} |", "-"),
            }
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses_env_variants() {
        // Default path (no env var assumed in tests).
        let s = Scale::from_env();
        assert!(!s.ks.is_empty());
        assert!(s.rows > 0);
    }

    #[test]
    fn workload_paths_distinct_by_parameters() {
        let s = Scale::from_env();
        let a = s.workload(4, 1.0);
        let b = s.workload(4, 0.1);
        assert_ne!(a.x_path(), b.x_path());
    }

    #[test]
    fn sysds_and_baselines_agree_end_to_end() {
        let w = HyperParamWorkload {
            rows: 200,
            cols: 10,
            sparsity: 1.0,
            num_models: 3,
            seed: 42,
            dir: bench_dir().join("agree-test"),
        };
        w.materialize().unwrap();
        // Baseline writes its models...
        run_baseline(&w, "Julia");
        let desc = sysds_io::FormatDescriptor::csv();
        let julia = sysds_io::csv::read_matrix(w.model_path(), &desc, 1).unwrap();
        // ...then SystemDS overwrites the same file via the DML script.
        run_sysds(&w, SysVariant::Plain);
        let sys = sysds_io::csv::read_matrix(w.model_path(), &desc, 1).unwrap();
        assert_eq!(julia.shape(), sys.shape());
        assert!(
            julia.approx_eq(&sys, 1e-6),
            "engines must train identical models"
        );
        w.cleanup();
    }

    #[test]
    fn reuse_variant_matches_plain_results() {
        let w = HyperParamWorkload {
            rows: 300,
            cols: 12,
            sparsity: 1.0,
            num_models: 4,
            seed: 43,
            dir: bench_dir().join("reuse-test"),
        };
        w.materialize().unwrap();
        run_sysds(&w, SysVariant::Plain);
        let desc = sysds_io::FormatDescriptor::csv();
        let plain = sysds_io::csv::read_matrix(w.model_path(), &desc, 1).unwrap();
        run_sysds(&w, SysVariant::Reuse);
        let reuse = sysds_io::csv::read_matrix(w.model_path(), &desc, 1).unwrap();
        assert!(plain.approx_eq(&reuse, 1e-9));
        w.cleanup();
    }
}
