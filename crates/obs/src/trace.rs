//! The JSONL trace sink: one object per line, one line per finished span.
//!
//! Schema (all fields always present; `worker` is `null` off-worker):
//!
//! ```json
//! {"id":12,"parent":3,"phase":"instruction","op":"ba+*",
//!  "start_ns":104114,"dur_ns":88021,"thread":0,"worker":null}
//! ```
//!
//! Records are written under the observer's one sink mutex, which holds
//! the file sink and the in-memory sink together — tracing is a
//! diagnostics mode, not the fast path. [`parse_record`] reads the schema
//! back with the workspace's one JSON reader ([`sysds_common::json`]), so
//! tests and the bench harness can consume traces machine-readably.

use crate::Obs;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use sysds_common::json::{escape_into, parse, Value};
use sysds_common::sync::lock;

/// The trace sinks of one observer.
pub(crate) struct Sinks {
    file: Option<BufWriter<File>>,
    /// Records buffered for post-run export (the Chrome-trace sink).
    memory: Option<Vec<TraceRecord>>,
}

impl Sinks {
    pub(crate) const fn new() -> Sinks {
        Sinks {
            file: None,
            memory: None,
        }
    }
}

/// One span record, as written to (and parsed from) the trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    pub id: u64,
    pub parent: u64,
    pub phase: String,
    pub op: String,
    /// Start offset in nanoseconds since the process trace epoch.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Per-process logical thread id.
    pub thread: u64,
    /// Logical worker id (parfor worker or federated site), if any.
    pub worker: Option<u64>,
}

impl Obs {
    /// Open (truncate) `path` as the file sink.
    pub(crate) fn open_file(&self, path: &Path) -> std::io::Result<()> {
        let file = File::create(path)?;
        lock(&self.sinks).file = Some(BufWriter::new(file));
        Ok(())
    }

    /// Flush and drop the file sink.
    pub(crate) fn close_file(&self) {
        if let Some(mut w) = lock(&self.sinks).file.take() {
            let _ = w.flush();
        }
    }

    /// Start buffering records in memory (in addition to any file sink).
    pub(crate) fn open_memory(&self) {
        lock(&self.sinks).memory = Some(Vec::new());
    }

    /// Take the buffered span records and stop the memory sink; the trace
    /// flag stays as it is.
    pub fn take_memory_trace(&self) -> Vec<TraceRecord> {
        lock(&self.sinks).memory.take().unwrap_or_default()
    }

    /// Append one record to the open sinks (no-op when none is open).
    pub(crate) fn write_trace(&self, rec: TraceRecord) {
        let mut sinks = lock(&self.sinks);
        if let Some(w) = sinks.file.as_mut() {
            let _ = writeln!(w, "{}", rec.to_json());
        }
        if let Some(buf) = sinks.memory.as_mut() {
            buf.push(rec);
        }
    }
}

impl TraceRecord {
    /// Render as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128);
        s.push_str("{\"id\":");
        s.push_str(&self.id.to_string());
        s.push_str(",\"parent\":");
        s.push_str(&self.parent.to_string());
        s.push_str(",\"phase\":\"");
        escape_into(&mut s, &self.phase);
        s.push_str("\",\"op\":\"");
        escape_into(&mut s, &self.op);
        s.push_str("\",\"start_ns\":");
        s.push_str(&self.start_ns.to_string());
        s.push_str(",\"dur_ns\":");
        s.push_str(&self.dur_ns.to_string());
        s.push_str(",\"thread\":");
        s.push_str(&self.thread.to_string());
        s.push_str(",\"worker\":");
        match self.worker {
            Some(w) => s.push_str(&w.to_string()),
            None => s.push_str("null"),
        }
        s.push('}');
        s
    }
}

/// Parse one JSONL line produced by this sink. Returns `None` for
/// malformed lines or lines missing required fields.
pub fn parse_record(line: &str) -> Option<TraceRecord> {
    let obj = parse(line)?;
    let num = |k: &str| obj.field(k)?.as_u64();
    let text = |k: &str| obj.field(k)?.as_str().map(str::to_string);
    let worker = match obj.field("worker")? {
        Value::Null => None,
        v => Some(v.as_u64()?),
    };
    Some(TraceRecord {
        id: num("id")?,
        parent: num("parent")?,
        phase: text("phase")?,
        op: text("op")?,
        start_ns: num("start_ns")?,
        dur_ns: num("dur_ns")?,
        thread: num("thread")?,
        worker,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip() {
        let rec = TraceRecord {
            id: 42,
            parent: 7,
            phase: "instruction".into(),
            op: "ba+*".into(),
            start_ns: 1_000,
            dur_ns: 2_500,
            thread: 3,
            worker: Some(1),
        };
        let line = rec.to_json();
        assert_eq!(parse_record(&line).unwrap(), rec);
    }

    #[test]
    fn null_worker_round_trip() {
        let rec = TraceRecord {
            id: 1,
            parent: 0,
            phase: "parse".into(),
            op: "parse".into(),
            start_ns: 0,
            dur_ns: 9,
            thread: 0,
            worker: None,
        };
        let parsed = parse_record(&rec.to_json()).unwrap();
        assert_eq!(parsed.worker, None);
    }

    #[test]
    fn escaping_round_trips() {
        let rec = TraceRecord {
            id: 1,
            parent: 0,
            phase: "instruction".into(),
            op: "weird\"op\\with\nstuff".into(),
            start_ns: 0,
            dur_ns: 0,
            thread: 0,
            worker: None,
        };
        assert_eq!(parse_record(&rec.to_json()).unwrap().op, rec.op);
    }

    #[test]
    fn quotes_and_backslashes_round_trip() {
        for op in [
            r#"a"b"#,
            r"a\b",
            r#"\""#,
            r#""\"#,
            r"\\\\",
            r#"end with quote""#,
            r#""start with quote"#,
            r#"mix \" of \\ both \n"#,
        ] {
            let rec = TraceRecord {
                id: 9,
                parent: 0,
                phase: format!("p-{op}"),
                op: op.to_string(),
                start_ns: 0,
                dur_ns: 0,
                thread: 0,
                worker: None,
            };
            let parsed = parse_record(&rec.to_json())
                .unwrap_or_else(|| panic!("unparseable for op {op:?}: {}", rec.to_json()));
            assert_eq!(parsed, rec, "round trip for {op:?}");
        }
    }

    #[test]
    fn control_characters_round_trip() {
        // Every C0 control char, plus the common named escapes.
        let mut op = String::new();
        for c in 0u32..0x20 {
            op.push(char::from_u32(c).unwrap());
        }
        op.push_str("\n\r\t\u{7f}");
        let rec = TraceRecord {
            id: 10,
            parent: 0,
            phase: "ctrl".into(),
            op: op.clone(),
            start_ns: 0,
            dur_ns: 0,
            thread: 0,
            worker: None,
        };
        let line = rec.to_json();
        assert!(
            !line.chars().any(|c| (c as u32) < 0x20),
            "raw control chars must never reach the wire: {line:?}"
        );
        assert_eq!(parse_record(&line).unwrap().op, op);
    }

    #[test]
    fn non_ascii_and_astral_round_trip() {
        let rec = TraceRecord {
            id: 11,
            parent: 0,
            phase: "unicode".into(),
            op: "öp-𝛴-矩阵".into(),
            start_ns: 0,
            dur_ns: 0,
            thread: 0,
            worker: None,
        };
        assert_eq!(parse_record(&rec.to_json()).unwrap(), rec);
    }

    #[test]
    fn memory_sink_buffers_and_drains() {
        let obs = Obs::new();
        obs.open_memory();
        let rec = TraceRecord {
            id: 77,
            parent: 0,
            phase: "instruction".into(),
            op: "mem-sink".into(),
            start_ns: 1,
            dur_ns: 2,
            thread: 0,
            worker: Some(1),
        };
        obs.write_trace(rec.clone());
        assert_eq!(obs.take_memory_trace(), vec![rec.clone()]);
        // Drained sink is closed: further writes are dropped.
        obs.write_trace(rec);
        assert!(obs.take_memory_trace().is_empty());
    }

    #[test]
    fn u64_fields_parse_exactly() {
        // Above 2^53, so a reader going through f64 would round them.
        let rec = TraceRecord {
            id: u64::MAX,
            parent: (1 << 53) + 1,
            phase: "instruction".into(),
            op: "tsmm".into(),
            start_ns: u64::MAX - 1,
            dur_ns: 0,
            thread: 0,
            worker: Some(u64::MAX),
        };
        let fractional = rec.to_json().replace("\"dur_ns\":0", "\"dur_ns\":1.5");
        assert_eq!(parse_record(&rec.to_json()), Some(rec));
        assert!(parse_record(&fractional).is_none());
    }

    #[test]
    fn malformed_lines_rejected() {
        assert!(parse_record("").is_none());
        assert!(parse_record("{").is_none());
        assert!(parse_record("{\"id\":1}").is_none());
        assert!(parse_record("not json at all").is_none());
    }

    #[test]
    fn file_sink_writes_lines() {
        let obs = Obs::new();
        let dir = sysds_common::testing::unique_temp_dir("sysds-obs-tests");
        let path = dir.join("trace.jsonl");
        obs.open_file(&path).unwrap();
        obs.write_trace(TraceRecord {
            id: 5,
            parent: 0,
            phase: "execute".into(),
            op: "script".into(),
            start_ns: 1,
            dur_ns: 2,
            thread: 0,
            worker: None,
        });
        obs.close_file();
        let content = std::fs::read_to_string(&path).unwrap();
        let rec = parse_record(content.lines().next().unwrap()).unwrap();
        assert_eq!(rec.id, 5);
        std::fs::remove_dir_all(&dir).ok();
    }
}
