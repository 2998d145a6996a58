//! Integration tests for optimizer observability through the `sysds` CLI:
//! `--explain hops|runtime` plan dumps, the estimate-vs-actual audit with
//! recompile-trigger attribution in `--stats`, and the Chrome trace that
//! `--trace` writes.

use std::collections::BTreeSet;
use std::process::Command;
use sysds_common::json::{parse, Value};

fn sysds_bin() -> &'static str {
    env!("CARGO_BIN_EXE_sysds")
}

fn temp_dir() -> std::path::PathBuf {
    let dir = sysds_common::testing::unique_temp_dir("sysds-optobs-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_script(name: &str, content: &str) -> std::path::PathBuf {
    let p = temp_dir().join(format!("{name}-{}.dml", std::process::id()));
    std::fs::write(&p, content).unwrap();
    p
}

/// Multi-block script: a generic block, an if, and a trailing block.
const MULTI_BLOCK: &str = r#"
X = rand(rows=100, cols=10, seed=1)
G = t(X) %*% X
if (sum(G) > 0) { Z = G + 1 } else { Z = G - 1 }
print("z = " + sum(Z))
"#;

#[test]
fn explain_hops_renders_sizes_and_exec_types() {
    let p = write_script("explain-hops", MULTI_BLOCK);
    let out = Command::new(sysds_bin())
        .args(["run", p.to_str().unwrap(), "--explain", "hops"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("EXPLAIN (HOPS):"), "{err}");
    assert!(err.contains("MAIN PROGRAM"), "{err}");
    // Block structure: generic blocks plus the if with its predicate.
    assert!(err.contains("GENERIC block"), "{err}");
    assert!(err.contains("IF block"), "{err}");
    assert!(err.contains("predicate:"), "{err}");
    // Per-HOP propagated dims, sparsity, memory estimate.
    assert!(err.contains("tsmm"), "{err}");
    assert!(err.contains("[100x10"), "{err}");
    assert!(err.contains("10x10"), "{err}");
    assert!(err.contains("sp="), "{err}");
    assert!(err.contains("mem="), "{err}");
    assert!(err.contains(") tsmm ("), "{err}");
    // The script still executed after explaining.
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("z = "),
        "{err}"
    );
}

#[test]
fn explain_runtime_lists_lowered_instructions() {
    let p = write_script("explain-runtime", MULTI_BLOCK);
    let out = Command::new(sysds_bin())
        .args(["run", p.to_str().unwrap(), "--explain", "runtime"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("EXPLAIN (RUNTIME):"), "{err}");
    // Slot-numbered instruction lines with opcode.
    assert!(err.contains("[0] "), "{err}");
    assert!(err.contains("tsmm in=["), "{err}");
    assert!(err.contains("in=["), "{err}");
    // Bare --explain still works and defaults to the HOP view.
    let out = Command::new(sysds_bin())
        .args(["run", p.to_str().unwrap(), "--explain"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("EXPLAIN (HOPS):"), "{err}");
}

#[test]
fn stats_report_audits_estimates_and_attributes_recompiles() {
    // `rows=i*10` is unknown at compile time: every iteration lowers with
    // unknowns, so iterations 2..3 recompile the body block, attributed to
    // the unknown-dims trigger. The audit table fills with per-opcode
    // estimate-vs-actual rows from the executed matrix instructions.
    let p = write_script(
        "audit-recompile",
        r#"
s = 0
for (i in 1:3) {
  M = matrix(1, rows=i*10, cols=4)
  s = s + sum(M)
}
print("s = " + s)
"#,
    );
    let out = Command::new(sysds_bin())
        .args(["run", p.to_str().unwrap(), "--stats"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    // Estimate-vs-actual audit table is present and non-empty: the header
    // plus at least one opcode row ('matrix' ran with unknown estimates).
    assert!(err.contains("Estimate vs actual"), "{err}");
    assert!(err.contains("Opcode"), "{err}");
    assert!(err.contains("matrix"), "{err}");
    // Recompiles happened and are attributed to their trigger.
    let recompiles: u64 = err
        .lines()
        .find_map(|l| l.strip_prefix("Recompiles: "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no recompile count in: {err}"));
    assert!(recompiles >= 2, "expected >=2 recompiles: {err}");
    assert!(err.contains("Recompile triggers:"), "{err}");
    let triggers = err
        .lines()
        .find(|l| l.contains("Recompile triggers:"))
        .unwrap();
    assert!(triggers.contains("unknown dims"), "{triggers}");
    assert!(!triggers.contains("unknown dims 0,"), "{triggers}");
}

#[test]
fn chrome_trace_exports_valid_events_with_worker_tids() {
    let p = write_script(
        "trace-timeline",
        r#"
X = rand(rows=30, cols=5, seed=1)
Y = t(X) %*% X
s = 0
parfor (i in 1:4) { s = i + sum(Y) }
print("s = " + s)
"#,
    );
    let trace = temp_dir().join(format!("chrome-{}.json", std::process::id()));
    let out = Command::new(sysds_bin())
        .args([
            "run",
            p.to_str().unwrap(),
            "--threads",
            "4",
            "--trace",
            trace.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let body = std::fs::read_to_string(&trace).unwrap();
    let Some(Value::Array(events)) = parse(&body) else {
        panic!("trace is not valid trace_event JSON: {body}");
    };
    assert!(!events.is_empty(), "trace must contain events");
    let text = |e: &Value, k: &str| e.field(k).and_then(Value::as_str).map(str::to_string);
    let num = |e: &Value, k: &str| e.field(k).and_then(Value::as_f64);

    // Every event carries the required trace_event fields; complete
    // events ("X") additionally carry a duration.
    for ev in &events {
        let ph = text(ev, "ph");
        assert!(
            matches!(ph.as_deref(), Some("X" | "i" | "M")),
            "unexpected phase {ev:?}"
        );
        assert!(text(ev, "name").is_some(), "{ev:?}");
        assert_eq!(
            ev.field("pid").and_then(Value::as_u64),
            Some(sysds_obs::trace::TRACE_PID),
            "{ev:?}"
        );
        assert!(ev.field("tid").and_then(Value::as_u64).is_some(), "{ev:?}");
        if ph.as_deref() == Some("X") {
            assert!(
                num(ev, "dur").is_some(),
                "complete event without dur: {ev:?}"
            );
            assert!(num(ev, "ts").is_some_and(|ts| ts >= 0.0), "{ev:?}");
        }
    }
    let spans: Vec<&Value> = events
        .iter()
        .filter(|e| text(e, "ph").as_deref() == Some("X"))
        .collect();
    assert!(!spans.is_empty());

    // Compiler phases and instructions appear by name.
    let names: BTreeSet<String> = spans.iter().filter_map(|e| text(e, "name")).collect();
    assert!(names.contains("parse"), "names: {names:?}");
    assert!(names.contains("tsmm"), "names: {names:?}");

    // Parfor workers appear as four distinct synthetic tids.
    let base = sysds_obs::trace::WORKER_TID_BASE;
    let worker_tids: BTreeSet<u64> = spans
        .iter()
        .filter_map(|e| e.field("tid").and_then(Value::as_u64))
        .filter(|tid| (base..base + 64).contains(tid))
        .collect();
    assert_eq!(
        worker_tids,
        (base..base + 4).collect::<BTreeSet<u64>>(),
        "events: {events:?}"
    );

    // Worker threads are labelled via thread_name metadata.
    let rows: BTreeSet<String> = events
        .iter()
        .filter(|e| text(e, "name").as_deref() == Some("thread_name"))
        .filter_map(|e| text(e.field("args")?, "name"))
        .collect();
    assert!(rows.contains("worker-0"), "rows: {rows:?}");
    assert!(rows.contains("thread-0"), "rows: {rows:?}");

    let _ = std::fs::remove_file(&trace);
}
