//! Estimate-vs-actual audit: validating the compiler's size and memory
//! estimates against what the runtime actually produced.
//!
//! The optimizer picks rewrites and fusion and decides when to recompile
//! based on compile-time `SizeInfo` estimates. This
//! module keeps a per-opcode table of how those estimates compared to the
//! observed outputs (residual = actual bytes / estimated bytes), plus a
//! per-trigger attribution of every dynamic recompile. Like the registry,
//! the table is a keyed-cell table of all-atomic cells.

use crate::{Obs, OBS};
use std::sync::atomic::{AtomicU64, Ordering};

/// Residuals are accumulated as fixed-point milli-units (ratio × 1000) so
/// cells stay plain `AtomicU64`s. Capped to keep sums from overflowing.
const RESID_SCALE: f64 = 1000.0;
const RESID_CAP_MILLI: u64 = 1_000_000_000; // ratio cap of 1e6

/// Compile-time knowledge about one instruction's output, as recorded by
/// the runtime next to the observed actuals.
#[derive(Debug, Clone, Copy, Default)]
pub struct EstimateInfo {
    /// Estimated output rows, if known at compile time.
    pub rows: Option<u64>,
    /// Estimated output columns, if known at compile time.
    pub cols: Option<u64>,
    /// Estimated output memory in bytes, if dims were known.
    pub bytes: Option<u64>,
}

#[derive(Debug, Default)]
pub(crate) struct AuditCell {
    /// Matrix outputs observed for this opcode.
    count: AtomicU64,
    /// Outputs whose compile-time estimate was unknown (no dims).
    unknown_est: AtomicU64,
    /// Outputs whose estimated dims were known but wrong.
    dim_mismatches: AtomicU64,
    /// Sum of estimated bytes over rows with an estimate.
    est_bytes: AtomicU64,
    /// Sum of actual bytes over rows with an estimate.
    actual_bytes: AtomicU64,
    /// Sum of per-row residuals (actual/estimated) in milli-units.
    resid_milli_sum: AtomicU64,
    /// Largest per-row residual in milli-units.
    resid_milli_max: AtomicU64,
}

impl AuditCell {
    fn record(&self, est: &EstimateInfo, actual_rows: u64, actual_cols: u64, actual_bytes: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        let Some(est_bytes) = est.bytes else {
            self.unknown_est.fetch_add(1, Ordering::Relaxed);
            return;
        };
        if est.rows.is_some_and(|r| r != actual_rows) || est.cols.is_some_and(|c| c != actual_cols)
        {
            self.dim_mismatches.fetch_add(1, Ordering::Relaxed);
        }
        self.est_bytes.fetch_add(est_bytes, Ordering::Relaxed);
        self.actual_bytes.fetch_add(actual_bytes, Ordering::Relaxed);
        let ratio = actual_bytes as f64 / est_bytes.max(1) as f64;
        let milli = ((ratio * RESID_SCALE) as u64).min(RESID_CAP_MILLI);
        self.resid_milli_sum.fetch_add(milli, Ordering::Relaxed);
        self.resid_milli_max.fetch_max(milli, Ordering::Relaxed);
    }
}

/// Snapshot of one opcode's estimate-vs-actual audit cell.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditRow {
    pub opcode: String,
    /// Matrix outputs observed.
    pub count: u64,
    /// Outputs that had no compile-time estimate (unknown dims).
    pub unknown_est: u64,
    /// Outputs whose estimated dims were known but differed from actuals.
    pub dim_mismatches: u64,
    /// Total estimated bytes (rows with an estimate only).
    pub est_bytes: u64,
    /// Total actual bytes (rows with an estimate only).
    pub actual_bytes: u64,
    /// Mean residual actual/estimated over rows with an estimate.
    pub mean_residual: f64,
    /// Worst single-output residual actual/estimated.
    pub max_residual: f64,
}

impl AuditRow {
    /// How far the worst residual strays from a perfect 1.0 estimate, in
    /// log space (over- and under-estimation rank symmetrically).
    fn badness(&self) -> f64 {
        if self.count == self.unknown_est {
            // No estimates at all: rank below any row with a measurable
            // residual but above perfect rows.
            return 0.0;
        }
        self.max_residual.max(1e-9).ln().abs()
    }
}

impl Obs {
    /// Record one instruction's actual matrix output against its
    /// compile-time estimate. The caller checks that statistics are on.
    pub fn record_estimate(
        &self,
        opcode: &str,
        est: &EstimateInfo,
        actual_rows: u64,
        actual_cols: u64,
        actual_bytes: u64,
    ) {
        self.audit.with(opcode, |cell| {
            cell.record(est, actual_rows, actual_cols, actual_bytes)
        });
    }

    /// Snapshot every audit cell, unsorted.
    pub fn audit_rows(&self) -> Vec<AuditRow> {
        self.audit.rows(|opcode, cell| {
            let count = cell.count.load(Ordering::Relaxed);
            let unknown_est = cell.unknown_est.load(Ordering::Relaxed);
            let with_est = count.saturating_sub(unknown_est);
            let sum_milli = cell.resid_milli_sum.load(Ordering::Relaxed);
            AuditRow {
                opcode: opcode.to_string(),
                count,
                unknown_est,
                dim_mismatches: cell.dim_mismatches.load(Ordering::Relaxed),
                est_bytes: cell.est_bytes.load(Ordering::Relaxed),
                actual_bytes: cell.actual_bytes.load(Ordering::Relaxed),
                mean_residual: if with_est == 0 {
                    0.0
                } else {
                    sum_milli as f64 / RESID_SCALE / with_est as f64
                },
                max_residual: cell.resid_milli_max.load(Ordering::Relaxed) as f64 / RESID_SCALE,
            }
        })
    }

    /// The `k` opcodes whose estimates were furthest from reality, worst
    /// first (residual distance from 1.0 in log space; ties by opcode).
    pub fn worst_offenders(&self, k: usize) -> Vec<AuditRow> {
        let mut rows = self.audit_rows();
        rows.sort_by(|a, b| {
            b.badness()
                .partial_cmp(&a.badness())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| b.unknown_est.cmp(&a.unknown_est))
                .then_with(|| a.opcode.cmp(&b.opcode))
        });
        rows.truncate(k);
        rows
    }

    /// Count one dynamic recompile and attribute it to its trigger, when
    /// statistics are on.
    pub fn record_recompile(&self, trigger: RecompileTrigger) {
        if self.stats_enabled() {
            self.counters.recompiles.add(1);
            self.triggers[trigger as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Read the recompile-trigger counters.
    pub fn recompile_triggers(&self) -> RecompileTriggers {
        let [unknown_dims, dims_change, sparsity_drift] =
            self.triggers.each_ref().map(|t| t.load(Ordering::Relaxed));
        RecompileTriggers {
            unknown_dims,
            dims_change,
            sparsity_drift,
        }
    }
}

/// Record one instruction's actual matrix output against its compile-time
/// estimate in the process audit. The caller checks that statistics are
/// on.
pub fn record(
    opcode: &str,
    est: &EstimateInfo,
    actual_rows: u64,
    actual_cols: u64,
    actual_bytes: u64,
) {
    OBS.record_estimate(opcode, est, actual_rows, actual_cols, actual_bytes);
}

/// The `k` opcodes of the process audit whose estimates were furthest from
/// reality, worst first.
pub fn worst_offenders(k: usize) -> Vec<AuditRow> {
    OBS.worst_offenders(k)
}

/// Render audit rows as an aligned table for the `--stats` report.
pub fn render_audit_table(rows: &[AuditRow]) -> String {
    let op_width = rows
        .iter()
        .map(|r| r.opcode.len())
        .chain(std::iter::once("Opcode".len()))
        .max()
        .unwrap_or(6);
    let mut out = String::new();
    out.push_str(&format!(
        "  {:>3}  {:<op_width$}  {:>8}  {:>10}  {:>10}  {:>9}  {:>9}  {:>6}  {:>7}\n",
        "#", "Opcode", "Count", "Est(KB)", "Act(KB)", "MeanResid", "MaxResid", "NoEst", "DimMiss",
    ));
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "  {:>3}  {:<op_width$}  {:>8}  {:>10.1}  {:>10.1}  {:>9.3}  {:>9.3}  {:>6}  {:>7}\n",
            i + 1,
            r.opcode,
            r.count,
            r.est_bytes as f64 / 1024.0,
            r.actual_bytes as f64 / 1024.0,
            r.mean_residual,
            r.max_residual,
            r.unknown_est,
            r.dim_mismatches,
        ));
    }
    out
}

/// Why a block plan was re-lowered (paper §2.3 (3): dynamic recompilation
/// "to mitigate initial unknowns"). The discriminant indexes the trigger
/// counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecompileTrigger {
    /// The cached plan was lowered with unknown dims somewhere in the DAG.
    UnknownDims,
    /// A live-in's dimensions changed since the plan was lowered.
    DimsChange,
    /// A live-in's sparsity drifted across a bucket boundary.
    SparsityDrift,
}

/// Count one dynamic recompile of the process and attribute it to its
/// trigger, when statistics are on.
pub fn record_recompile(trigger: RecompileTrigger) {
    OBS.record_recompile(trigger);
}

/// Plain-integer snapshot of the recompile-trigger attribution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecompileTriggers {
    pub unknown_dims: u64,
    pub dims_change: u64,
    pub sparsity_drift: u64,
}

impl RecompileTriggers {
    /// Recompiles attributed to a cause.
    pub fn total(&self) -> u64 {
        self.unknown_dims + self.dims_change + self.sparsity_drift
    }

    /// One-line rendering for the `--stats` report.
    pub fn render(&self) -> String {
        format!(
            "unknown dims {}, dims change {}, sparsity drift {}",
            self.unknown_dims, self.dims_change, self.sparsity_drift
        )
    }
}

/// Read the process's recompile-trigger counters.
pub fn recompile_triggers() -> RecompileTriggers {
    OBS.recompile_triggers()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est(rows: u64, cols: u64, bytes: u64) -> EstimateInfo {
        EstimateInfo {
            rows: Some(rows),
            cols: Some(cols),
            bytes: Some(bytes),
        }
    }

    #[test]
    fn residuals_accumulate_per_opcode() {
        let obs = Obs::new();
        // Perfect estimate, then a 2x overshoot by the runtime.
        obs.record_estimate("a", &est(10, 10, 800), 10, 10, 800);
        obs.record_estimate("a", &est(10, 10, 800), 20, 10, 1600);
        let rows = obs.audit_rows();
        let r = &rows[0];
        assert_eq!((rows.len(), r.opcode.as_str()), (1, "a"));
        assert_eq!(r.count, 2);
        assert_eq!(r.unknown_est, 0);
        assert_eq!(r.dim_mismatches, 1, "second output had 20 rows, not 10");
        assert_eq!(r.est_bytes, 1600);
        assert_eq!(r.actual_bytes, 2400);
        assert!((r.mean_residual - 1.5).abs() < 1e-9, "{}", r.mean_residual);
        assert!((r.max_residual - 2.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_estimates_counted_separately() {
        let obs = Obs::new();
        obs.record_estimate("unknown", &EstimateInfo::default(), 5, 5, 200);
        let r = &obs.audit_rows()[0];
        assert_eq!(r.count, 1);
        assert_eq!(r.unknown_est, 1);
        assert_eq!(r.est_bytes, 0, "no estimate, nothing accumulated");
        assert_eq!(r.mean_residual, 0.0);
    }

    #[test]
    fn worst_offenders_rank_by_residual_distance() {
        let obs = Obs::new();
        obs.record_estimate("good", &est(1, 1, 1000), 1, 1, 1000); // residual 1.0
        obs.record_estimate("bad", &est(1, 1, 1000), 1, 1, 8000); // residual 8.0
        obs.record_estimate("under", &est(1, 1, 1000), 1, 1, 100); // residual 0.1
        let order: Vec<String> = obs
            .worst_offenders(100)
            .into_iter()
            .map(|r| r.opcode)
            .collect();
        assert_eq!(order, ["under", "bad", "good"]);
    }

    #[test]
    fn recompile_triggers_count_and_render() {
        let obs = Obs::new();
        obs.record_recompile(RecompileTrigger::UnknownDims);
        assert_eq!(obs.recompile_triggers().total(), 0, "stats are off");
        obs.enable_stats();
        obs.record_recompile(RecompileTrigger::UnknownDims);
        obs.record_recompile(RecompileTrigger::DimsChange);
        let t = obs.recompile_triggers();
        assert_eq!((t.unknown_dims, t.dims_change, t.sparsity_drift), (1, 1, 0));
        assert_eq!(obs.counters().snapshot().recompiles, 2);
        assert!(t.render().contains("unknown dims"));
    }

    #[test]
    fn audit_table_renders_rows() {
        let obs = Obs::new();
        obs.record_estimate("audit-render", &est(2, 2, 32), 2, 2, 32);
        let text = render_audit_table(&obs.audit_rows());
        assert!(text.contains("Opcode"));
        assert!(text.contains("audit-render"));
        assert!(text.contains("MaxResid"));
    }
}
