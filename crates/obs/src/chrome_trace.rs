//! Chrome/Perfetto `trace_event` export.
//!
//! Converts the span records collected by the [`crate::trace`] sink into
//! the Trace Event Format consumed by `chrome://tracing`, Perfetto, and
//! speedscope: a JSON array of events with `ph`/`ts`/`dur`/`pid`/`tid`.
//!
//! * every finished span becomes a complete (`"ph":"X"`) duration event
//!   with microsecond `ts`/`dur`;
//! * recompiles and buffer-pool evictions additionally emit instant
//!   (`"ph":"i"`) marker events;
//! * parfor workers and federated sites render as their own timeline rows:
//!   a span carrying worker id `w` is assigned `tid = 100 + w`, and a
//!   `thread_name` metadata event labels the row `worker-w`.
//!
//! The writer is hand-rolled, and the test-facing [`parse_events`] reader
//! uses the workspace's one JSON reader ([`sysds_common::json`]).

use crate::trace::TraceRecord;
use std::collections::BTreeSet;
use std::path::Path;
use sysds_common::json::{escape_into, parse, Value};

/// Timeline rows for workers start here so they never collide with plain
/// thread ids.
pub const WORKER_TID_BASE: u64 = 100;

/// The pid stamped on every event (single-process engine).
pub const TRACE_PID: u64 = 1;

fn tid_of(rec: &TraceRecord) -> u64 {
    match rec.worker {
        Some(w) => WORKER_TID_BASE + w,
        None => rec.thread,
    }
}

fn push_duration_event(out: &mut String, rec: &TraceRecord) {
    out.push_str("{\"name\":\"");
    escape_into(out, &rec.op);
    out.push_str("\",\"cat\":\"");
    escape_into(out, &rec.phase);
    out.push_str("\",\"ph\":\"X\",\"ts\":");
    out.push_str(&format!("{:.3}", rec.start_ns as f64 / 1000.0));
    out.push_str(",\"dur\":");
    out.push_str(&format!("{:.3}", rec.dur_ns as f64 / 1000.0));
    out.push_str(&format!(",\"pid\":{TRACE_PID},\"tid\":{}}}", tid_of(rec)));
}

fn push_instant_event(out: &mut String, rec: &TraceRecord) {
    out.push_str("{\"name\":\"");
    escape_into(out, &rec.op);
    out.push_str("\",\"cat\":\"");
    escape_into(out, &rec.phase);
    out.push_str("\",\"ph\":\"i\",\"s\":\"t\",\"ts\":");
    out.push_str(&format!("{:.3}", rec.start_ns as f64 / 1000.0));
    out.push_str(&format!(
        ",\"dur\":0,\"pid\":{TRACE_PID},\"tid\":{}}}",
        tid_of(rec)
    ));
}

fn push_thread_name(out: &mut String, tid: u64, name: &str) {
    out.push_str("{\"name\":\"thread_name\",\"cat\":\"__metadata\",\"ph\":\"M\",\"ts\":0,");
    out.push_str(&format!("\"pid\":{TRACE_PID},\"tid\":{tid},"));
    out.push_str("\"args\":{\"name\":\"");
    escape_into(out, name);
    out.push_str("\"}}");
}

/// Whether a span should additionally surface as an instant marker.
fn is_marker(rec: &TraceRecord) -> bool {
    rec.phase == "recompile" || (rec.phase == "buffer_pool" && rec.op == "evict")
}

/// Render span records as a Chrome `trace_event` JSON array.
pub fn to_chrome_trace(records: &[TraceRecord]) -> String {
    let mut events: Vec<String> = Vec::with_capacity(records.len() + 8);
    // Metadata first: name the process and every timeline row.
    {
        let mut s = String::new();
        s.push_str("{\"name\":\"process_name\",\"cat\":\"__metadata\",\"ph\":\"M\",\"ts\":0,");
        s.push_str(&format!("\"pid\":{TRACE_PID},\"tid\":0,"));
        s.push_str("\"args\":{\"name\":\"sysds\"}}");
        events.push(s);
    }
    let mut worker_tids: BTreeSet<u64> = BTreeSet::new();
    let mut thread_tids: BTreeSet<u64> = BTreeSet::new();
    for rec in records {
        match rec.worker {
            Some(w) => {
                worker_tids.insert(w);
            }
            None => {
                thread_tids.insert(rec.thread);
            }
        }
    }
    for t in &thread_tids {
        let mut s = String::new();
        push_thread_name(&mut s, *t, &format!("thread-{t}"));
        events.push(s);
    }
    for w in &worker_tids {
        let mut s = String::new();
        push_thread_name(&mut s, WORKER_TID_BASE + w, &format!("worker-{w}"));
        events.push(s);
    }
    for rec in records {
        let mut s = String::new();
        push_duration_event(&mut s, rec);
        events.push(s);
        if is_marker(rec) {
            let mut s = String::new();
            push_instant_event(&mut s, rec);
            events.push(s);
        }
    }
    let mut out = String::with_capacity(events.iter().map(|e| e.len() + 2).sum::<usize>() + 4);
    out.push_str("[\n");
    for (i, e) in events.iter().enumerate() {
        out.push_str(e);
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// Write the Chrome trace for `records` to `path`.
pub fn write_chrome_trace(path: &Path, records: &[TraceRecord]) -> std::io::Result<()> {
    std::fs::write(path, to_chrome_trace(records))
}

/// One parsed trace event (reader side, for tests and tooling).
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeEvent {
    pub name: String,
    pub cat: String,
    pub ph: String,
    pub ts: f64,
    /// Present on duration events; instant/metadata events carry 0 or none.
    pub dur: Option<f64>,
    pub pid: u64,
    pub tid: u64,
    /// `args.name`, set on metadata events.
    pub arg_name: Option<String>,
}

/// Parse a Chrome `trace_event` JSON array as produced by
/// [`to_chrome_trace`]. Returns `None` on malformed input or events
/// missing required fields.
pub fn parse_events(s: &str) -> Option<Vec<ChromeEvent>> {
    let Value::Array(items) = parse(s)? else {
        return None;
    };
    let mut out = Vec::with_capacity(items.len());
    for item in &items {
        if !matches!(item, Value::Object(_)) {
            return None;
        }
        let text = |k: &str| item.field(k)?.as_str().map(str::to_string);
        let num = |k: &str| item.field(k)?.as_f64();
        out.push(ChromeEvent {
            name: text("name")?,
            cat: text("cat")?,
            ph: text("ph")?,
            ts: num("ts")?,
            dur: num("dur"),
            pid: num("pid")? as u64,
            tid: num("tid")? as u64,
            arg_name: item
                .field("args")
                .and_then(|args| args.field("name")?.as_str())
                .map(str::to_string),
        });
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(phase: &str, op: &str, start: u64, dur: u64, worker: Option<u64>) -> TraceRecord {
        TraceRecord {
            id: 1,
            parent: 0,
            phase: phase.into(),
            op: op.into(),
            start_ns: start,
            dur_ns: dur,
            thread: 0,
            worker,
        }
    }

    #[test]
    fn duration_events_round_trip() {
        let records = vec![
            rec("parse", "parse", 1_000, 2_000, None),
            rec("instruction", "ba+*", 5_000, 500, Some(2)),
        ];
        let json = to_chrome_trace(&records);
        let events = parse_events(&json).expect("valid trace json");
        let xs: Vec<&ChromeEvent> = events.iter().filter(|e| e.ph == "X").collect();
        assert_eq!(xs.len(), 2);
        assert_eq!(xs[0].name, "parse");
        assert!((xs[0].ts - 1.0).abs() < 1e-9, "ns converted to µs");
        assert_eq!(xs[0].dur, Some(2.0));
        assert_eq!(xs[0].tid, 0);
        assert_eq!(xs[1].tid, WORKER_TID_BASE + 2, "worker gets its own tid");
        assert!(events.iter().all(|e| e.pid == TRACE_PID));
    }

    #[test]
    fn recompiles_and_evictions_become_instants() {
        let records = vec![
            rec("recompile", "recompile", 10, 5, None),
            rec("buffer_pool", "evict", 20, 5, None),
            rec("buffer_pool", "restore", 30, 5, None),
        ];
        let events = parse_events(&to_chrome_trace(&records)).unwrap();
        let instants: Vec<&ChromeEvent> = events.iter().filter(|e| e.ph == "i").collect();
        assert_eq!(instants.len(), 2, "recompile + evict, but not restore");
        assert!(instants.iter().any(|e| e.name == "recompile"));
        assert!(instants.iter().any(|e| e.name == "evict"));
    }

    #[test]
    fn workers_get_named_timeline_rows() {
        let records = vec![
            rec("parfor_worker", "worker-0", 0, 10, Some(0)),
            rec("parfor_worker", "worker-3", 0, 10, Some(3)),
        ];
        let events = parse_events(&to_chrome_trace(&records)).unwrap();
        let meta: Vec<&ChromeEvent> = events
            .iter()
            .filter(|e| e.ph == "M" && e.name == "thread_name")
            .collect();
        assert!(meta
            .iter()
            .any(|e| e.arg_name.as_deref() == Some("worker-0") && e.tid == WORKER_TID_BASE));
        assert!(meta
            .iter()
            .any(|e| e.arg_name.as_deref() == Some("worker-3") && e.tid == WORKER_TID_BASE + 3));
    }

    #[test]
    fn op_names_are_escaped() {
        let records = vec![rec("instruction", "weird\"op\\n", 0, 1, None)];
        let json = to_chrome_trace(&records);
        let events = parse_events(&json).expect("escaping must keep json valid");
        assert!(events.iter().any(|e| e.name == "weird\"op\\n"));
    }

    #[test]
    fn empty_records_still_valid() {
        let events = parse_events(&to_chrome_trace(&[])).unwrap();
        // Just the process_name metadata event.
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].ph, "M");
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(parse_events("").is_none());
        assert!(parse_events("{}").is_none());
        assert!(
            parse_events("[{\"name\":\"x\"}]").is_none(),
            "missing fields"
        );
        assert!(parse_events("[{]").is_none());
    }
}
