//! The trace sinks: every finished span becomes one Chrome `trace_event`.
//!
//! The file sink streams one JSON array, the Trace Event Format that
//! `chrome://tracing`, Perfetto and speedscope open. It writes `[` when it
//! opens, then one event per line as each span ends, and `]` when
//! [`crate::disable_trace`] closes it:
//!
//! ```json
//! [
//! {"name":"process_name","ph":"M","pid":1,"tid":0,"ts":0,"args":{"name":"sysds"}},
//! {"name":"thread_name","ph":"M","pid":1,"tid":0,"ts":0,"args":{"name":"thread-0"}},
//! {"name":"ba+*","cat":"instruction","ph":"X","pid":1,"tid":0,"ts":104.114,
//!  "dur":88.021,"args":{"id":12,"parent":3,"thread":0,"worker":null}}
//! ]
//! ```
//!
//! * every span is a complete (`"ph":"X"`) event; its `args` carry the
//!   span's `id`, `parent`, `thread` and `worker` (`null` off-worker);
//! * a recompile or buffer-pool eviction span is followed by an instant
//!   (`"ph":"i"`) marker;
//! * a span on worker `w` (parfor worker or federated site) goes on row
//!   `tid = 100 + w`, any other on its thread's row; a `thread_name`
//!   metadata event names a row `worker-w` or `thread-N` the first time it
//!   appears.
//!
//! `ts` and `dur` are microseconds written from integer nanoseconds as
//! `{µs}.{ns % 1000:03}`, so [`parse_record`] reads a span's line back
//! into the exact record with the workspace's one JSON reader
//! ([`sysds_common::json`]). Records are written under the observer's one
//! sink mutex, which holds the file sink and the in-memory sink together —
//! tracing is a diagnostics mode, not the fast path.

use crate::Obs;
use std::collections::BTreeSet;
use std::fmt::{self, Write as _};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use sysds_common::json::{escape_into, parse, Value};
use sysds_common::sync::lock;

/// Timeline rows for workers start here so they never collide with plain
/// thread ids.
pub const WORKER_TID_BASE: u64 = 100;

/// The pid stamped on every event (single-process engine).
pub const TRACE_PID: u64 = 1;

/// The trace sinks of one observer.
pub(crate) struct Sinks {
    file: Option<FileSink>,
    /// Records buffered for an in-process reader.
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

/// An open trace array and the timeline rows it has named.
struct FileSink {
    out: BufWriter<File>,
    rows: BTreeSet<u64>,
    /// The events of one span, built here and written in one call.
    line: String,
}

impl FileSink {
    /// Append the events of `rec`, each on a line of its own after the
    /// array's last one.
    fn write(&mut self, rec: &TraceRecord) -> std::io::Result<()> {
        let line = &mut self.line;
        line.clear();
        let tid = rec.tid();
        if self.rows.insert(tid) {
            let row = match rec.worker {
                Some(w) => format!("worker-{w}"),
                None => format!("thread-{tid}"),
            };
            line.push_str(",\n");
            line.push_str(&metadata("thread_name", tid, &row));
        }
        line.push_str(",\n");
        rec.push_event(line, false);
        if rec.phase == "recompile" || (rec.phase == "buffer_pool" && rec.op == "evict") {
            line.push_str(",\n");
            rec.push_event(line, true);
        }
        self.out.write_all(line.as_bytes())
    }

    /// End the array and flush the file.
    fn close(mut self) -> std::io::Result<()> {
        self.out.write_all(b"\n]\n")?;
        self.out.flush()
    }
}

/// A metadata (`"ph":"M"`) event naming the process or a timeline row.
fn metadata(kind: &str, tid: u64, name: &str) -> String {
    format!(
        "{{\"name\":\"{kind}\",\"ph\":\"M\",\"pid\":{TRACE_PID},\"tid\":{tid},\"ts\":0,\
         \"args\":{{\"name\":\"{name}\"}}}}"
    )
}

/// Integer nanoseconds shown as microseconds with three exact decimals.
struct Micros(u64);

impl fmt::Display for Micros {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:03}", self.0 / 1000, self.0 % 1000)
    }
}

/// Nanoseconds back from a number [`Micros`] wrote; `None` for any other.
fn nanos(v: &Value) -> Option<u64> {
    let Value::Num(text) = v else { return None };
    let (us, ns) = text.split_once('.')?;
    if ns.len() != 3 || !ns.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    us.parse::<u64>()
        .ok()?
        .checked_mul(1000)?
        .checked_add(ns.parse().ok()?)
}

/// One span record, as written to (and parsed from) the trace.
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

impl TraceRecord {
    /// The span's timeline row.
    fn tid(&self) -> u64 {
        match self.worker {
            Some(w) => WORKER_TID_BASE.wrapping_add(w),
            None => self.thread,
        }
    }

    /// Append this span's complete (`"ph":"X"`) event, or with `instant`
    /// its instant (`"ph":"i"`) marker.
    fn push_event(&self, s: &mut String, instant: bool) {
        s.push_str("{\"name\":\"");
        escape_into(s, &self.op);
        s.push_str("\",\"cat\":\"");
        escape_into(s, &self.phase);
        let ph = if instant { 'i' } else { 'X' };
        let (tid, ts) = (self.tid(), Micros(self.start_ns));
        let _ = write!(
            s,
            "\",\"ph\":\"{ph}\",\"pid\":{TRACE_PID},\"tid\":{tid},\"ts\":{ts}"
        );
        if instant {
            s.push_str(",\"s\":\"t\"}");
            return;
        }
        let _ = write!(
            s,
            ",\"dur\":{},\"args\":{{\"id\":{},\"parent\":{},\"thread\":{},\"worker\":",
            Micros(self.dur_ns),
            self.id,
            self.parent,
            self.thread
        );
        match self.worker {
            Some(w) => _ = write!(s, "{w}}}}}"),
            None => s.push_str("null}}"),
        }
    }
}

impl Obs {
    /// Close any open trace file, then open (truncate) `path` as the file
    /// sink and start its array.
    pub(crate) fn open_file(&self, path: &Path) -> std::io::Result<()> {
        self.close_file();
        let mut out = BufWriter::new(File::create(path)?);
        write!(out, "[\n{}", metadata("process_name", 0, "sysds"))?;
        lock(&self.sinks).file = Some(FileSink {
            out,
            rows: BTreeSet::new(),
            line: String::new(),
        });
        Ok(())
    }

    /// End the file sink's array, flush it and drop the sink.
    pub(crate) fn close_file(&self) {
        if let Some(sink) = lock(&self.sinks).file.take() {
            let _ = sink.close();
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
        if let Some(sink) = sinks.file.as_mut() {
            let _ = sink.write(&rec);
        }
        if let Some(buf) = sinks.memory.as_mut() {
            buf.push(rec);
        }
    }
}

/// Parse one line of a trace file back into its span record. Returns
/// `None` for the array's brackets, metadata and instant events, and
/// malformed lines.
pub fn parse_record(line: &str) -> Option<TraceRecord> {
    let line = line.trim_end();
    let event = parse(line.strip_suffix(',').unwrap_or(line))?;
    if event.field("ph")?.as_str()? != "X" {
        return None;
    }
    let args = event.field("args")?;
    let num = |k: &str| args.field(k)?.as_u64();
    let text = |k: &str| event.field(k)?.as_str().map(str::to_string);
    let worker = match args.field("worker")? {
        Value::Null => None,
        v => Some(v.as_u64()?),
    };
    Some(TraceRecord {
        id: num("id")?,
        parent: num("parent")?,
        phase: text("cat")?,
        op: text("name")?,
        start_ns: nanos(event.field("ts")?)?,
        dur_ns: nanos(event.field("dur")?)?,
        thread: num("thread")?,
        worker,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TraceRecord {
        fn span_event(&self) -> String {
            let mut s = String::new();
            self.push_event(&mut s, false);
            s
        }
    }

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

    /// The lines a file sink writes for `records`, and the events of the
    /// whole file parsed as one JSON array.
    fn traced(records: &[TraceRecord]) -> (Vec<String>, Vec<Value>) {
        let obs = Obs::new();
        let dir = sysds_common::testing::unique_temp_dir("sysds-obs-tests");
        let path = dir.join("trace.json");
        obs.open_file(&path).unwrap();
        for r in records {
            obs.write_trace(r.clone());
        }
        obs.close_file();
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let Some(Value::Array(events)) = parse(&body) else {
            panic!("not one JSON array: {body}");
        };
        (body.lines().map(str::to_string).collect(), events)
    }

    fn field<'a>(e: &'a Value, k: &str) -> &'a str {
        e.field(k).and_then(Value::as_str).unwrap_or("")
    }

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
        assert_eq!(parse_record(&rec.span_event()), Some(rec.clone()));
        // A line of the file ends in the comma before the next event.
        assert_eq!(parse_record(&(rec.span_event() + ",")), Some(rec));
    }

    #[test]
    fn null_worker_round_trip() {
        let rec = rec("parse", "parse", 0, 9, None);
        let parsed = parse_record(&rec.span_event()).unwrap();
        assert_eq!(parsed.worker, None);
    }

    #[test]
    fn escaping_round_trips() {
        let rec = rec("instruction", "weird\"op\\with\nstuff", 0, 0, None);
        assert_eq!(parse_record(&rec.span_event()).unwrap().op, rec.op);
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
            let rec = rec(&format!("p-{op}"), op, 0, 0, None);
            let parsed = parse_record(&rec.span_event())
                .unwrap_or_else(|| panic!("unparseable for op {op:?}: {}", rec.span_event()));
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
        let rec = rec("ctrl", &op, 0, 0, None);
        let line = rec.span_event();
        assert!(
            !line.chars().any(|c| (c as u32) < 0x20),
            "raw control chars must never reach the wire: {line:?}"
        );
        assert_eq!(parse_record(&line).unwrap().op, op);
    }

    #[test]
    fn non_ascii_and_astral_round_trip() {
        let rec = rec("unicode", "öp-𝛴-矩阵", 0, 0, None);
        assert_eq!(parse_record(&rec.span_event()).unwrap(), rec);
    }

    #[test]
    fn memory_sink_buffers_and_drains() {
        let obs = Obs::new();
        obs.open_memory();
        let rec = rec("instruction", "mem-sink", 1, 2, Some(1));
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
        let line = rec.span_event();
        assert_eq!(parse_record(&line), Some(rec));
        for bad in [
            "\"dur\":0.5",
            "\"dur\":0.0001",
            "\"dur\":0",
            "\"dur\":-0.000",
        ] {
            let broken = line.replace("\"dur\":0.000", bad);
            assert!(parse_record(&broken).is_none(), "{broken}");
        }
        let fractional_id = line.replace("\"id\":18446744073709551615", "\"id\":1.5");
        assert!(parse_record(&fractional_id).is_none());
    }

    #[test]
    fn ts_and_dur_keep_exact_nanoseconds() {
        let rec = rec("instruction", "ba+*", 123_456_789_012_345, 1_001, None);
        let line = rec.span_event();
        assert!(line.contains("\"ts\":123456789012.345"), "{line}");
        assert!(line.contains("\"dur\":1.001"), "{line}");
        assert_eq!(parse_record(&line), Some(rec));
    }

    #[test]
    fn malformed_lines_rejected() {
        let meta = metadata("thread_name", 0, "thread-0");
        let mut instant = String::new();
        rec("recompile", "recompile", 0, 0, None).push_event(&mut instant, true);
        for line in [
            "",
            "{",
            "{}",
            "[{]",
            "[",
            "]",
            "{\"id\":1}",
            "not json at all",
            &meta,
            &instant,
        ] {
            assert!(parse_record(line).is_none(), "{line:?}");
        }
    }

    #[test]
    fn malformed_json_rejected() {
        // An event with only a name is not a span.
        assert!(parse_record("{\"name\":\"x\"}").is_none());
        assert!(parse_record("[{\"name\":\"x\"}]").is_none());
        // A trace cut off before its closing bracket is not one JSON array.
        let obs = Obs::new();
        let dir = sysds_common::testing::unique_temp_dir("sysds-obs-tests");
        let path = dir.join("trace.json");
        obs.open_file(&path).unwrap();
        obs.write_trace(rec("execute", "script", 0, 1, None));
        obs.close_file();
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let cut = body.trim_end().strip_suffix(']').expect("closed array");
        assert!(parse(cut).is_none(), "{cut}");
    }

    #[test]
    fn op_names_are_escaped() {
        let op = "weird\"op\\n";
        let (_, events) = traced(&[rec("instruction", op, 0, 1, None)]);
        assert!(events.iter().any(|e| field(e, "name") == op));
    }

    #[test]
    fn file_sink_writes_lines() {
        let records = [
            rec("execute", "script", 1, 2, None),
            rec("instruction", "tsmm", 3, 4, Some(2)),
        ];
        let (lines, events) = traced(&records);
        assert_eq!(
            (lines[0].as_str(), lines.last().unwrap().as_str()),
            ("[", "]")
        );
        let spans: Vec<TraceRecord> = lines.iter().filter_map(|l| parse_record(l)).collect();
        assert_eq!(spans, records);
        // Two row names, the process name and the two spans, one per line.
        assert_eq!((lines.len(), events.len()), (7, 5));
    }

    #[test]
    fn duration_events_round_trip() {
        let (_, events) = traced(&[
            rec("parse", "parse", 1_000, 2_000, None),
            rec("instruction", "ba+*", 5_000, 500, Some(2)),
        ]);
        let xs: Vec<&Value> = events.iter().filter(|e| field(e, "ph") == "X").collect();
        assert_eq!(xs.len(), 2);
        assert_eq!(field(xs[0], "name"), "parse");
        assert_eq!(xs[0].field("ts").and_then(Value::as_f64), Some(1.0));
        assert_eq!(xs[0].field("dur").and_then(Value::as_f64), Some(2.0));
        assert_eq!(xs[0].field("tid").and_then(Value::as_u64), Some(0));
        let worker_tid = xs[1].field("tid").and_then(Value::as_u64);
        assert_eq!(
            worker_tid,
            Some(WORKER_TID_BASE + 2),
            "worker gets its own tid"
        );
        assert!(events
            .iter()
            .all(|e| e.field("pid").and_then(Value::as_u64) == Some(TRACE_PID)));
    }

    #[test]
    fn recompiles_and_evictions_become_instants() {
        let (_, events) = traced(&[
            rec("recompile", "recompile", 10, 5, None),
            rec("buffer_pool", "evict", 20, 5, None),
            rec("buffer_pool", "restore", 30, 5, None),
        ]);
        let instants: Vec<&str> = events
            .iter()
            .filter(|e| field(e, "ph") == "i")
            .map(|e| field(e, "name"))
            .collect();
        assert_eq!(instants, ["recompile", "evict"], "but not restore");
    }

    #[test]
    fn workers_get_named_timeline_rows() {
        let (_, events) = traced(&[
            rec("parfor_worker", "worker-0", 0, 10, Some(0)),
            rec("parfor_worker", "worker-3", 0, 10, Some(3)),
            rec("parfor_worker", "worker-3", 20, 10, Some(3)),
            rec("execute", "script", 0, 40, None),
        ]);
        let rows: Vec<(u64, &str)> = events
            .iter()
            .filter(|e| field(e, "name") == "thread_name")
            .map(|e| {
                let tid = e.field("tid").and_then(Value::as_u64).unwrap();
                (tid, e.field("args").map_or("", |a| field(a, "name")))
            })
            .collect();
        let base = WORKER_TID_BASE;
        assert_eq!(
            rows,
            [(base, "worker-0"), (base + 3, "worker-3"), (0, "thread-0")]
        );
    }

    #[test]
    fn empty_trace_is_an_array_of_metadata() {
        let (lines, events) = traced(&[]);
        assert_eq!(lines.len(), 3);
        assert_eq!(events.len(), 1);
        assert_eq!(field(&events[0], "ph"), "M");
    }

    #[test]
    fn reopening_closes_the_previous_array() {
        let obs = Obs::new();
        let dir = sysds_common::testing::unique_temp_dir("sysds-obs-tests");
        let (first, second) = (dir.join("first.json"), dir.join("second.json"));
        obs.open_file(&first).unwrap();
        obs.write_trace(rec("execute", "first", 0, 1, None));
        obs.open_file(&second).unwrap();
        obs.write_trace(rec("execute", "second", 0, 1, None));
        let body = std::fs::read_to_string(&first).unwrap();
        let Some(Value::Array(events)) = parse(&body) else {
            panic!("first trace left open: {body}");
        };
        let names: Vec<&str> = events.iter().map(|e| field(e, "name")).collect();
        assert_eq!(names, ["process_name", "thread_name", "first"]);
        obs.close_file();
        assert!(parse(&std::fs::read_to_string(&second).unwrap()).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }
}
