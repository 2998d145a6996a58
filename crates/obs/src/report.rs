//! Text rendering for statistics reports.
//!
//! Produces the SystemDS-style heavy-hitter table printed by `--stats`:
//!
//! ```text
//! Heavy hitter instructions:
//!   #  Instruction      Time(s)     Count   Mean(ms)    Max(ms)
//!   1  ba+*              0.01234        12      1.028      2.110
//!   2  rand              0.00410         3      1.367      1.501
//! ```

use crate::registry::{HeavyHitter, OpStats, Phase};

fn secs(nanos: u64) -> f64 {
    nanos as f64 / 1e9
}

fn millis(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

/// Render a heavy-hitter list as an aligned table.
pub fn render_table(hitters: &[HeavyHitter]) -> String {
    let op_width = hitters
        .iter()
        .map(|h| h.opcode.len())
        .chain(std::iter::once("Instruction".len()))
        .max()
        .unwrap_or(11);
    let mut out = String::new();
    out.push_str(&format!(
        "  {:>3}  {:<op_width$}  {:>10}  {:>8}  {:>10}  {:>10}\n",
        "#", "Instruction", "Time(s)", "Count", "Mean(ms)", "Max(ms)",
    ));
    for (i, h) in hitters.iter().enumerate() {
        out.push_str(&format!(
            "  {:>3}  {:<op_width$}  {:>10.5}  {:>8}  {:>10.3}  {:>10.3}\n",
            i + 1,
            h.opcode,
            secs(h.total_nanos),
            h.count,
            millis(h.mean_nanos),
            millis(h.max_nanos),
        ));
    }
    out
}

/// Render a compact one-phase summary line, e.g. for compiler phases:
/// `parse 0.00123s (1)`.
pub fn phase_summary(phase: Phase) -> Option<String> {
    summarize(phase, &crate::registry::phase_stats(phase))
}

/// The summary line of `phase` over its cells; `None` when it has none.
fn summarize(phase: Phase, stats: &[OpStats]) -> Option<String> {
    if stats.is_empty() {
        return None;
    }
    let total: u64 = stats.iter().map(|s| s.total_nanos).sum();
    let count: u64 = stats.iter().map(|s| s.count).sum();
    Some(format!(
        "{:<12} {:>10.5}s  ({} calls)",
        phase.as_str(),
        secs(total),
        count
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::HeavyHitter;

    #[test]
    fn table_renders_rows_in_order() {
        let hitters = vec![
            HeavyHitter {
                opcode: "ba+*".to_string(),
                count: 12,
                total_nanos: 12_340_000,
                mean_nanos: 1_028_333,
                max_nanos: 2_110_000,
            },
            HeavyHitter {
                opcode: "rand".to_string(),
                count: 3,
                total_nanos: 4_100_000,
                mean_nanos: 1_366_666,
                max_nanos: 1_501_000,
            },
        ];
        let table = render_table(&hitters);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("Instruction"));
        assert!(lines[1].contains("ba+*"));
        assert!(lines[2].contains("rand"));
        let pos1 = table.find("ba+*").unwrap();
        let pos2 = table.find("rand").unwrap();
        assert!(pos1 < pos2, "rows must keep heavy-hitter order");
    }

    #[test]
    fn empty_phase_renders_nothing() {
        assert!(summarize(Phase::Federated, &[]).is_none());
        let obs = crate::Obs::new();
        obs.record(Phase::Parse, "parse", 2_000_000);
        let line = summarize(Phase::Parse, &obs.phase_stats(Phase::Parse)).unwrap();
        assert!(
            line.starts_with("parse") && line.ends_with("(1 calls)"),
            "{line}"
        );
    }
}
