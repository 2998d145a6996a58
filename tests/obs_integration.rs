//! Integration tests for the observability subsystem through the `sysds`
//! CLI: `--stats` report rendering and `--trace FILE` span events.

use std::collections::BTreeSet;
use std::process::Command;
use sysds_common::json::{parse, Value};
use sysds_obs::{parse_record, TraceRecord};

fn sysds_bin() -> &'static str {
    env!("CARGO_BIN_EXE_sysds")
}

fn temp_dir() -> std::path::PathBuf {
    let dir = sysds_common::testing::unique_temp_dir("sysds-obs-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_script(name: &str, content: &str) -> std::path::PathBuf {
    let p = temp_dir().join(format!("{name}-{}.dml", std::process::id()));
    std::fs::write(&p, content).unwrap();
    p
}

const SCRIPT: &str = r#"
X = rand(rows=30, cols=5, seed=1)
Y = t(X) %*% X
s = 0
parfor (i in 1:4) { s = i + sum(Y) }
print("s = " + s)
"#;

#[test]
fn stats_flag_prints_full_report() {
    let p = write_script("stats-report", SCRIPT);
    let out = Command::new(sysds_bin())
        .args(["run", p.to_str().unwrap(), "--stats", "--threads", "4"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    // The three mandatory report sections.
    assert!(err.contains("Heavy hitter instructions:"), "{err}");
    assert!(err.contains("Buffer pool:"), "{err}");
    assert!(err.contains("Lineage cache:"), "{err}");
    // Instructions actually executed, so the table must have rows.
    assert!(!err.contains("(none recorded)"), "{err}");
    assert!(err.contains("Instruction"), "{err}");
    // Compiler phases recorded time too.
    assert!(err.contains("Compiler phases:"), "{err}");
    assert!(err.contains("parse"), "{err}");
    // Parfor ran, so worker counters must be reported.
    assert!(err.contains("Parfor: 4 workers"), "{err}");
}

#[test]
fn trace_flag_writes_parseable_span_events() {
    let p = write_script("trace-spans", SCRIPT);
    let trace = temp_dir().join(format!("trace-{}.json", std::process::id()));
    let out = Command::new(sysds_bin())
        .args([
            "run",
            p.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
            "--threads",
            "4",
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
        panic!("trace is not one JSON array: {body}");
    };
    // Every complete event is a span line that reads back as its record.
    let spans = events
        .iter()
        .filter(|e| e.field("ph").and_then(Value::as_str) == Some("X"))
        .count();
    let records: Vec<TraceRecord> = body.lines().filter_map(parse_record).collect();
    assert_eq!(records.len(), spans);
    assert!(!records.is_empty(), "trace file must contain spans");

    // One span per executed instruction: this script runs rand, t, %*%,
    // sum and more, so well over five instruction spans.
    let instr: Vec<&TraceRecord> = records
        .iter()
        .filter(|r| r.phase == "instruction")
        .collect();
    assert!(
        instr.len() >= 5,
        "expected >=5 instruction spans, got {}",
        instr.len()
    );

    // Compiler phases are traced as spans too.
    let phases: BTreeSet<&str> = records.iter().map(|r| r.phase.as_str()).collect();
    assert!(phases.contains("parse"), "phases: {phases:?}");
    assert!(phases.contains("hop_build"), "phases: {phases:?}");
    assert!(phases.contains("lower"), "phases: {phases:?}");

    // Parfor worker spans carry their worker id: 4 iterations on 4
    // threads means workers 0..=3 each ran (and traced) a chunk.
    let worker_ids: BTreeSet<u64> = records
        .iter()
        .filter(|r| r.phase == "parfor_worker")
        .map(|r| r.worker.expect("parfor worker span must carry worker id"))
        .collect();
    assert_eq!(
        worker_ids,
        (0..4).collect::<BTreeSet<u64>>(),
        "records: {records:?}"
    );

    // Every worker enters the caller's span context, so each worker span
    // hangs off the enclosing span: the program's one `execute` span.
    let execute: Vec<u64> = records
        .iter()
        .filter(|r| r.phase == "execute")
        .map(|r| r.id)
        .collect();
    assert_eq!(execute.len(), 1, "records: {records:?}");
    for r in records.iter().filter(|r| r.phase == "parfor_worker") {
        assert_eq!(
            r.parent, execute[0],
            "worker span without its parent: {r:?}"
        );
    }

    // Parent linking: instructions executed inside a parfor worker hang
    // off that worker's span.
    let worker_span_ids: BTreeSet<u64> = records
        .iter()
        .filter(|r| r.phase == "parfor_worker")
        .map(|r| r.id)
        .collect();
    assert!(
        instr.iter().any(|r| worker_span_ids.contains(&r.parent)),
        "no instruction span is parented to a parfor worker"
    );

    let _ = std::fs::remove_file(&trace);
}

#[test]
fn trace_and_stats_compose() {
    let p = write_script("both-flags", "x = sum(matrix(2, rows=4, cols=4))\nprint(x)");
    let trace = temp_dir().join(format!("both-{}.json", std::process::id()));
    let out = Command::new(sysds_bin())
        .args([
            "run",
            p.to_str().unwrap(),
            "--stats",
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
    assert!(String::from_utf8_lossy(&out.stderr).contains("Heavy hitter instructions:"));
    let body = std::fs::read_to_string(&trace).unwrap();
    assert!(body.lines().any(|l| parse_record(l).is_some()));
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn trace_to_unwritable_path_fails_cleanly() {
    let p = write_script("bad-trace", "x = 1");
    let out = Command::new(sysds_bin())
        .args([
            "run",
            p.to_str().unwrap(),
            "--trace",
            "/nonexistent-dir/trace.json",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("trace"));
}

#[test]
fn federated_spans_link_to_their_instruction() {
    use sysds::{EngineConfig, SystemDS};
    let session = |trace_file| {
        SystemDS::with_config(EngineConfig {
            trace_file,
            spill_dir: temp_dir(),
            ..EngineConfig::default()
        })
        .unwrap()
    };
    let (x, y) = sysds_tensor::kernels::gen::synthetic_regression(120, 4, 1.0, 0.05, 61);
    // Scatter before tracing starts: its Puts run outside any instruction.
    let mut inputs = session(None).federate_many(&[&x, &y], 3).unwrap();
    let fy = inputs.pop().unwrap();
    let fx = inputs.pop().unwrap();

    // This is the only test in this binary that traces in-process.
    let trace = temp_dir().join(format!("fed-trace-{}.json", std::process::id()));
    let mut traced = session(Some(trace.clone()));
    // A parfor in the same trace: its workers' ids must not collide with
    // the sites'.
    let run = traced.execute(
        "B = lmDS(X=X, y=y, reg=0.001)\ns = 0\nparfor (i in 1:4) { s = i + sum(B) }",
        &[("X", fx), ("y", fy)],
        &["B", "s"],
    );
    sysds_obs::disable_trace();
    run.unwrap();

    let records: Vec<TraceRecord> = std::fs::read_to_string(&trace)
        .unwrap()
        .lines()
        .filter_map(parse_record)
        .collect();
    let ids: BTreeSet<u64> = records.iter().map(|r| r.id).collect();
    let federated: Vec<&TraceRecord> = records.iter().filter(|r| r.phase == "federated").collect();
    // tsmm and tmv, each at three sites: a master request span and a site
    // execution span per site.
    assert!(federated.len() >= 12, "{federated:?}");
    for r in &federated {
        assert!(
            r.parent != 0 && ids.contains(&r.parent),
            "federated span without its parent in the trace: {r:?}"
        );
    }
    let parfor: BTreeSet<u64> = records
        .iter()
        .filter(|r| r.phase == "parfor_worker")
        .filter_map(|r| r.worker)
        .collect();
    assert!(!parfor.is_empty(), "the parfor traced no worker");
    // Site execution spans carry the site's worker id; their parent is the
    // master's request span, which runs outside any worker.
    let sites: Vec<&TraceRecord> = federated
        .iter()
        .copied()
        .filter(|r| r.worker.is_some())
        .collect();
    assert!(sites.len() >= 6, "{federated:?}");
    for r in &sites {
        let parent = records.iter().find(|p| p.id == r.parent).unwrap();
        assert!(
            parent.phase == "federated" && parent.worker.is_none(),
            "site span not under its master request span: {r:?} under {parent:?}"
        );
        let w = r.worker.unwrap();
        assert!(!parfor.contains(&w), "site and parfor worker share id {w}");
    }
    let _ = std::fs::remove_file(&trace);
}
