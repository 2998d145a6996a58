//! The JSONL trace sink: one object per line, one line per finished span.
//!
//! Schema (all fields always present; `worker` is `null` off-worker):
//!
//! ```json
//! {"id":12,"parent":3,"phase":"instruction","op":"ba+*",
//!  "start_ns":104114,"dur_ns":88021,"thread":0,"worker":null}
//! ```
//!
//! Records are written under a short mutex — tracing is a diagnostics
//! mode, not the fast path. [`parse_record`] reads the schema back with the
//! crate's one JSON reader (in [`crate::chrome_trace`]), so tests and the
//! bench harness can consume traces machine-readably.

use crate::chrome_trace::{parse_json, Value};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

static SINK: Mutex<Option<BufWriter<File>>> = Mutex::new(None);

/// Optional in-memory sink (Chrome-trace export buffers records here).
static MEM_SINK: Mutex<Option<Vec<TraceRecord>>> = Mutex::new(None);

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

/// Open (truncate) `path` as the sink.
pub(crate) fn open(path: &Path) -> std::io::Result<()> {
    let file = File::create(path)?;
    *SINK.lock().unwrap_or_else(|e| e.into_inner()) = Some(BufWriter::new(file));
    Ok(())
}

/// Flush and drop the sink.
pub(crate) fn close() {
    let mut guard = SINK.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(mut w) = guard.take() {
        let _ = w.flush();
    }
}

/// Flush buffered records without closing the sink.
pub fn flush() {
    let mut guard = SINK.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(w) = guard.as_mut() {
        let _ = w.flush();
    }
}

/// Start buffering records in memory (in addition to any file sink).
pub(crate) fn open_memory() {
    *MEM_SINK.lock().unwrap_or_else(|e| e.into_inner()) = Some(Vec::new());
}

/// Take all buffered in-memory records and stop the memory sink.
pub(crate) fn drain_memory() -> Vec<TraceRecord> {
    MEM_SINK
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .take()
        .unwrap_or_default()
}

pub(crate) fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
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

/// Append one record to the open sinks (no-op when none is open).
pub(crate) fn write(rec: &TraceRecord) {
    {
        let mut guard = SINK.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(w) = guard.as_mut() {
            let _ = writeln!(w, "{}", rec.to_json());
        }
    }
    let mut mem = MEM_SINK.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(buf) = mem.as_mut() {
        buf.push(rec.clone());
    }
}

/// Parse one JSONL line produced by this sink. Returns `None` for
/// malformed lines or lines missing required fields.
pub fn parse_record(line: &str) -> Option<TraceRecord> {
    let obj = parse_json(line)?;
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
        let _g = crate::test_flag_guard();
        open_memory();
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
        write(&rec);
        let drained = drain_memory();
        assert_eq!(drained, vec![rec]);
        // Drained sink is closed: further writes are dropped.
        write(&TraceRecord {
            id: 78,
            parent: 0,
            phase: "instruction".into(),
            op: "dropped".into(),
            start_ns: 0,
            dur_ns: 0,
            thread: 0,
            worker: None,
        });
        assert!(drain_memory().is_empty());
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
        let _g = crate::test_flag_guard();
        // Unique per process AND per call (sysds-obs is dependency-free,
        // so this inlines what sysds_common::testing::unique_temp_dir does).
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("sysds-obs-tests-{}-{seq}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        open(&path).unwrap();
        write(&TraceRecord {
            id: 5,
            parent: 0,
            phase: "execute".into(),
            op: "script".into(),
            start_ns: 1,
            dur_ns: 2,
            thread: 0,
            worker: None,
        });
        close();
        let content = std::fs::read_to_string(&path).unwrap();
        let rec = parse_record(content.lines().next().unwrap()).unwrap();
        assert_eq!(rec.id, 5);
        std::fs::remove_file(&path).ok();
    }
}
