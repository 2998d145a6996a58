//! `sysds-obs` — span-based runtime observability.
//!
//! All of it is one `Obs` value; the process's value sits in one static and
//! the free functions of this crate read and write it. An `Obs` holds:
//!
//! * a **statistics registry** ([`registry`]): named counters plus
//!   per-phase, per-opcode timing cells (count / total / max / log2
//!   histogram) with a SystemDS-style heavy-hitter query;
//! * an **estimate-vs-actual audit** ([`audit`]): per-opcode residuals of
//!   compile-time size/memory estimates against observed outputs, plus
//!   per-trigger attribution of dynamic recompiles;
//! * **per-site network statistics** ([`net`]) for federated transports;
//! * the **trace sinks** ([`trace`]): a file that streams one Chrome
//!   `trace_event` per finished span into a JSON array that
//!   `chrome://tracing` and Perfetto open, each span's line read back by
//!   [`trace::parse_record`], and an in-memory buffer
//!   ([`enable_memory_trace`]) of the same records.
//!
//! Records come from the **span API** ([`span::Span`]): RAII guards around
//! compiler phases, instruction executions, buffer-pool transfers, parfor
//! workers, and federated requests, with parent/child linking through a
//! thread-local span stack and worker attribution through a thread-local
//! worker id (carried across threads by [`SpanContext`]). Events that are
//! not spans go through [`count`].
//!
//! Everything is disabled by default. The fast path for a disabled
//! observer is a single relaxed atomic load ([`enabled`]) — no mutex, no
//! allocation, no clock read. Enabling statistics ([`enable_stats`]) turns
//! on the registry, the audit and the network table; enabling tracing
//! ([`enable_trace`]) additionally writes every span to the trace file.

#![deny(unsafe_code)]

pub mod audit;
pub mod fingerprint;
pub mod net;
pub mod registry;
pub mod report;
pub mod span;
mod table;
pub mod trace;

pub use audit::{AuditRow, EstimateInfo, RecompileTrigger, RecompileTriggers};
pub use fingerprint::{fingerprint64, render_fingerprint};
pub use net::SiteStats;
pub use registry::{
    count, counters, Counter, CounterSnapshot, Counters, HeavyHitter, OpStats, Phase,
};
pub use span::{set_worker, ContextGuard, Span, SpanContext, WorkerGuard};
pub use trace::{parse_record, TraceRecord};

use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use table::Table;

const STATS_BIT: u8 = 1;
const TRACE_BIT: u8 = 2;

/// One observer: flags, timing tables, counters, audit, per-site network
/// table and trace sinks. The process's observer is a static that the free
/// functions of this crate use; a separate value records on its own.
pub(crate) struct Obs {
    flags: AtomicU8,
    /// Timing cells per phase, indexed by [`Phase`].
    pub(crate) phases: [Table<registry::OpCell>; Phase::ALL.len()],
    pub(crate) counters: Counters,
    pub(crate) audit: Table<audit::AuditCell>,
    /// Recompiles per [`RecompileTrigger`].
    pub(crate) triggers: [AtomicU64; 3],
    pub(crate) sites: Table<net::SiteCell>,
    /// The file and memory trace sinks, written under one lock.
    pub(crate) sinks: Mutex<trace::Sinks>,
}

static OBS: Obs = Obs::new();

impl Obs {
    /// An observer with everything off and empty.
    pub const fn new() -> Obs {
        Obs {
            flags: AtomicU8::new(0),
            phases: [const { Table::new() }; Phase::ALL.len()],
            counters: Counters::new(),
            audit: Table::new(),
            triggers: [const { AtomicU64::new(0) }; 3],
            sites: Table::new(),
            sinks: Mutex::new(trace::Sinks::new()),
        }
    }

    /// Whether statistics or tracing is on.
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        self.flags.load(Ordering::Relaxed) != 0
    }

    /// Whether the registry, audit and network table are collecting.
    #[inline(always)]
    pub fn stats_enabled(&self) -> bool {
        self.flags.load(Ordering::Relaxed) & STATS_BIT != 0
    }

    /// Whether spans go to a trace sink.
    #[inline(always)]
    pub fn trace_enabled(&self) -> bool {
        self.flags.load(Ordering::Relaxed) & TRACE_BIT != 0
    }

    /// Start collecting statistics.
    pub fn enable_stats(&self) {
        self.flags.fetch_or(STATS_BIT, Ordering::Relaxed);
    }

    /// Stop collecting statistics; recorded data is kept.
    pub fn disable_stats(&self) {
        self.flags.fetch_and(!STATS_BIT, Ordering::Relaxed);
    }

    /// Open `path` as the trace file and start writing span events to it;
    /// an open trace file is closed first.
    pub fn enable_trace(&self, path: &Path) -> std::io::Result<()> {
        self.open_file(path)?;
        self.flags.fetch_or(TRACE_BIT, Ordering::Relaxed);
        Ok(())
    }

    /// Start buffering span records in memory; composes with a file sink.
    pub fn enable_memory_trace(&self) {
        self.open_memory();
        self.flags.fetch_or(TRACE_BIT, Ordering::Relaxed);
    }

    /// Stop tracing; close the trace file's array and flush it.
    pub fn disable_trace(&self) {
        self.flags.fetch_and(!TRACE_BIT, Ordering::Relaxed);
        self.close_file();
    }

    /// Clear the timing cells, counters, audit table, recompile triggers
    /// and network table; flags and sinks stay as they are.
    pub fn reset(&self) {
        self.phases.iter().for_each(Table::clear);
        self.counters.reset();
        self.audit.clear();
        for t in &self.triggers {
            t.store(0, Ordering::Relaxed);
        }
        self.sites.clear();
    }
}

/// Whether any observability (stats or tracing) is on.
///
/// This is the *only* check on the instruction fast path: one relaxed
/// atomic load.
#[inline(always)]
pub fn enabled() -> bool {
    OBS.enabled()
}

/// Whether the statistics registry is collecting.
#[inline(always)]
pub fn stats_enabled() -> bool {
    OBS.stats_enabled()
}

/// Turn on the statistics registry.
pub fn enable_stats() {
    OBS.enable_stats();
}

/// Turn off the statistics registry (already-recorded data is kept).
pub fn disable_stats() {
    OBS.disable_stats();
}

/// Open `path` as the trace file and start writing one Chrome
/// `trace_event` per finished span to it; an open trace file is closed
/// first.
pub fn enable_trace(path: &Path) -> std::io::Result<()> {
    OBS.enable_trace(path)
}

/// Start buffering span records in memory, for a reader in the same
/// process. Composes with [`enable_trace`]: when both are on, every record
/// goes to the file and the buffer.
pub fn enable_memory_trace() {
    OBS.enable_memory_trace();
}

/// Take all span records buffered by [`enable_memory_trace`] and stop the
/// memory sink. Leaves the trace flag untouched when a file sink is still
/// open; call [`disable_trace`] to stop tracing entirely.
pub fn take_memory_trace() -> Vec<TraceRecord> {
    OBS.take_memory_trace()
}

/// Stop tracing; close the trace file's array and flush it.
pub fn disable_trace() {
    OBS.disable_trace();
}

/// Reset all counters, timing cells, and audit tables (flags are left as
/// they are).
pub fn reset() {
    OBS.reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_toggle_independently() {
        let obs = Obs::new();
        assert!(!obs.enabled());
        obs.enable_stats();
        assert!(obs.enabled());
        assert!(obs.stats_enabled());
        assert!(!obs.trace_enabled());
        obs.enable_memory_trace();
        assert!(obs.trace_enabled());
        obs.disable_trace();
        obs.disable_stats();
        assert!(!obs.enabled());
    }

    #[test]
    fn two_observers_never_see_each_others_records() {
        let (a, b) = (Obs::new(), Obs::new());
        a.enable_stats();
        b.enable_stats();
        a.record(Phase::Instruction, "only-a", 10);
        a.count(|c| &c.lin_hits, 2);
        a.record_estimate("only-a", &EstimateInfo::default(), 1, 1, 8);
        a.record_recompile(RecompileTrigger::DimsChange);
        a.record_request("test://a", 1, 2, 3, 0, 0);
        b.record(Phase::Instruction, "only-b", 20);
        assert_eq!(a.phase_stats(Phase::Instruction).len(), 1);
        assert_eq!(b.phase_stats(Phase::Instruction)[0].opcode, "only-b");
        assert_eq!(a.counters().snapshot().lin_hits, 2);
        assert_eq!(b.counters().snapshot(), CounterSnapshot::default());
        assert!(b.audit_rows().is_empty());
        assert_eq!(b.recompile_triggers(), RecompileTriggers::default());
        assert!(b.site_stats().is_empty());
        assert_eq!(a.site_stats().len(), 1);
    }

    #[test]
    fn reset_clears_everything_but_the_flags() {
        let obs = Obs::new();
        obs.enable_stats();
        obs.record(Phase::Parse, "parse", 5);
        obs.count(|c| &c.fed_requests, 1);
        obs.record_estimate("op", &EstimateInfo::default(), 1, 1, 8);
        obs.record_recompile(RecompileTrigger::UnknownDims);
        obs.record_failure("test://dead", 1, 1);
        obs.reset();
        assert!(obs.stats_enabled());
        assert!(Phase::ALL.iter().all(|&p| obs.phase_stats(p).is_empty()));
        assert_eq!(obs.counters().snapshot(), CounterSnapshot::default());
        assert!(obs.audit_rows().is_empty());
        assert_eq!(obs.recompile_triggers().total(), 0);
        assert!(obs.site_stats().is_empty());
    }
}
