//! `sysds-obs` — span-based runtime observability.
//!
//! Three cooperating pieces, all global and lock-light:
//!
//! * a **statistics registry** ([`registry`]): atomic counters plus
//!   per-phase, per-opcode timing cells (count / total / max / log2
//!   histogram) with a SystemDS-style heavy-hitter query;
//! * a **span API** ([`span::Span`]): RAII guards around compiler phases,
//!   instruction executions, buffer-pool transfers, parfor workers, and
//!   federated requests, with parent/child linking through a thread-local
//!   span stack and worker attribution through a thread-local worker id
//!   (carried across threads by [`SpanContext`]);
//! * a **JSONL trace sink** ([`trace`]): one record per finished span,
//!   machine-parseable with [`trace::parse_record`] (no serde needed);
//! * an **estimate-vs-actual audit** ([`audit`]): per-opcode residuals of
//!   compile-time size/memory estimates against observed outputs, plus
//!   per-trigger attribution of dynamic recompiles;
//! * a **Chrome-trace exporter** ([`chrome_trace`]): converts buffered
//!   span records ([`enable_memory_trace`]) into `trace_event` JSON for
//!   `chrome://tracing` / Perfetto.
//!
//! Everything is disabled by default. The fast path for a disabled
//! observer is a single relaxed atomic load ([`enabled`]) — no mutex, no
//! allocation, no clock read. Enabling statistics ([`enable_stats`]) turns
//! on the registry; enabling tracing ([`enable_trace`]) additionally
//! appends every span to a JSONL file.

#![deny(unsafe_code)]

pub mod audit;
pub mod chrome_trace;
pub mod fingerprint;
pub mod net;
pub mod registry;
pub mod report;
pub mod span;
pub mod trace;

pub use audit::{AuditRow, EstimateInfo, RecompileTrigger, RecompileTriggers};
pub use chrome_trace::{parse_events, ChromeEvent};
pub use fingerprint::{fingerprint64, render_fingerprint};
pub use net::SiteStats;
pub use registry::{counters, CounterSnapshot, Counters, HeavyHitter, OpStats, Phase};
pub use span::{set_worker, ContextGuard, Span, SpanContext, WorkerGuard};
pub use trace::{parse_record, TraceRecord};

use std::path::Path;
use std::sync::atomic::{AtomicU8, Ordering};

const STATS_BIT: u8 = 1;
const TRACE_BIT: u8 = 2;

static FLAGS: AtomicU8 = AtomicU8::new(0);

/// Whether any observability (stats or tracing) is on.
///
/// This is the *only* check on the instruction fast path: one relaxed
/// atomic load.
#[inline(always)]
pub fn enabled() -> bool {
    FLAGS.load(Ordering::Relaxed) != 0
}

/// Whether the statistics registry is collecting.
#[inline(always)]
pub fn stats_enabled() -> bool {
    FLAGS.load(Ordering::Relaxed) & STATS_BIT != 0
}

/// Whether the JSONL trace sink is collecting.
#[inline(always)]
pub fn trace_enabled() -> bool {
    FLAGS.load(Ordering::Relaxed) & TRACE_BIT != 0
}

/// Turn on the statistics registry.
pub fn enable_stats() {
    FLAGS.fetch_or(STATS_BIT, Ordering::Relaxed);
}

/// Turn off the statistics registry (already-recorded data is kept).
pub fn disable_stats() {
    FLAGS.fetch_and(!STATS_BIT, Ordering::Relaxed);
}

/// Open `path` as the JSONL trace sink and start emitting span records.
pub fn enable_trace(path: &Path) -> std::io::Result<()> {
    trace::open(path)?;
    FLAGS.fetch_or(TRACE_BIT, Ordering::Relaxed);
    Ok(())
}

/// Start buffering span records in memory (for post-run export, e.g. the
/// Chrome-trace sink). Composes with [`enable_trace`]: when both are on,
/// every record goes to the file and the buffer.
pub fn enable_memory_trace() {
    trace::open_memory();
    FLAGS.fetch_or(TRACE_BIT, Ordering::Relaxed);
}

/// Take all span records buffered by [`enable_memory_trace`] and stop the
/// memory sink. Leaves the trace flag untouched when a file sink is still
/// open; call [`disable_trace`] to stop tracing entirely.
pub fn take_memory_trace() -> Vec<TraceRecord> {
    trace::drain_memory()
}

/// Stop tracing and flush/close the sink.
pub fn disable_trace() {
    FLAGS.fetch_and(!TRACE_BIT, Ordering::Relaxed);
    trace::close();
}

/// Reset all counters, timing cells, and audit tables (flags are left as
/// they are).
pub fn reset() {
    registry::reset();
    audit::reset();
    net::reset();
}

/// Serializes unit tests that mutate the global flags or trace sink;
/// `cargo test` runs tests on parallel threads inside one process.
#[cfg(test)]
pub(crate) fn test_flag_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_toggle_independently() {
        let _g = crate::test_flag_guard();
        disable_stats();
        disable_trace();
        assert!(!enabled());
        enable_stats();
        assert!(enabled());
        assert!(stats_enabled());
        assert!(!trace_enabled());
        disable_stats();
        assert!(!enabled());
    }
}
