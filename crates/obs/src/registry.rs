//! The statistics registry: named counters plus per-phase, per-opcode
//! timing cells.
//!
//! Each phase is one keyed-cell table of all-atomic cells, so concurrent
//! parfor workers never serialize on a mutex while recording.

use crate::{Obs, OBS};
use std::sync::atomic::{AtomicU64, Ordering};

/// Execution phases a span can belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// DML text → AST.
    Parse,
    /// AST → program blocks + HOP DAGs (inlining, CSE).
    HopBuild,
    /// Static or dynamic DAG rewrites.
    Rewrite,
    /// Size/sparsity propagation over a DAG.
    SizeProp,
    /// DAG → instruction plan.
    Lower,
    /// Re-lowering a block whose live-in sizes changed.
    Recompile,
    /// One runtime instruction execution.
    Instruction,
    /// Buffer-pool evict/restore transfers.
    BufferPool,
    /// A parfor worker's whole chunk.
    ParforWorker,
    /// One federated request round trip (master side) or site execution.
    Federated,
    /// Whole-script execution.
    Execute,
}

impl Phase {
    /// Stable lowercase name used in trace records and reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::HopBuild => "hop_build",
            Phase::Rewrite => "rewrite",
            Phase::SizeProp => "size_prop",
            Phase::Lower => "lower",
            Phase::Recompile => "recompile",
            Phase::Instruction => "instruction",
            Phase::BufferPool => "buffer_pool",
            Phase::ParforWorker => "parfor_worker",
            Phase::Federated => "federated",
            Phase::Execute => "execute",
        }
    }

    /// All phases, in registry order.
    pub const ALL: [Phase; 11] = [
        Phase::Parse,
        Phase::HopBuild,
        Phase::Rewrite,
        Phase::SizeProp,
        Phase::Lower,
        Phase::Recompile,
        Phase::Instruction,
        Phase::BufferPool,
        Phase::ParforWorker,
        Phase::Federated,
        Phase::Execute,
    ];

    /// Position in [`Phase::ALL`] (declaration order).
    fn index(self) -> usize {
        self as usize
    }
}

/// Number of log2(nanos) histogram buckets (bucket 31 ≈ ≥ 2.1 s).
pub const HIST_BUCKETS: usize = 32;

/// One timing cell: all-atomic.
#[derive(Debug, Default)]
pub(crate) struct OpCell {
    count: AtomicU64,
    total_nanos: AtomicU64,
    max_nanos: AtomicU64,
    hist: [AtomicU64; HIST_BUCKETS],
}

impl OpCell {
    fn record(&self, nanos: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
        let bucket = if nanos == 0 {
            0
        } else {
            (63 - nanos.leading_zeros() as usize).min(HIST_BUCKETS - 1)
        };
        self.hist[bucket].fetch_add(1, Ordering::Relaxed);
    }
}

/// Snapshot of one (phase, opcode) timing cell.
#[derive(Debug, Clone)]
pub struct OpStats {
    pub phase: Phase,
    pub opcode: String,
    pub count: u64,
    pub total_nanos: u64,
    pub max_nanos: u64,
    /// log2(nanos) histogram: bucket `i` counts spans with
    /// `2^i <= nanos < 2^(i+1)` (bucket 0 also holds sub-nanosecond spans).
    pub hist: [u64; HIST_BUCKETS],
}

impl OpStats {
    /// Mean duration in nanoseconds (0 when the cell is empty).
    pub fn mean_nanos(&self) -> u64 {
        self.total_nanos.checked_div(self.count).unwrap_or(0)
    }
}

/// One row of the heavy-hitter table.
#[derive(Debug, Clone)]
pub struct HeavyHitter {
    pub opcode: String,
    pub count: u64,
    pub total_nanos: u64,
    pub mean_nanos: u64,
    pub max_nanos: u64,
}

impl Obs {
    /// Record one finished span into its phase's timing table.
    pub fn record(&self, phase: Phase, opcode: &str, nanos: u64) {
        self.phases[phase.index()].with(opcode, |cell| cell.record(nanos));
    }

    /// Snapshot every cell of one phase.
    pub fn phase_stats(&self, phase: Phase) -> Vec<OpStats> {
        self.phases[phase.index()].rows(|opcode, cell| OpStats {
            phase,
            opcode: opcode.to_string(),
            count: cell.count.load(Ordering::Relaxed),
            total_nanos: cell.total_nanos.load(Ordering::Relaxed),
            max_nanos: cell.max_nanos.load(Ordering::Relaxed),
            hist: cell.hist.each_ref().map(|b| b.load(Ordering::Relaxed)),
        })
    }

    /// Top-k opcodes of a phase by cumulative time (the SystemDS
    /// heavy-hitter table; ties broken by opcode name for determinism).
    pub fn heavy_hitters(&self, phase: Phase, k: usize) -> Vec<HeavyHitter> {
        let mut rows = self.phase_stats(phase);
        rows.sort_by(|a, b| {
            b.total_nanos
                .cmp(&a.total_nanos)
                .then_with(|| a.opcode.cmp(&b.opcode))
        });
        rows.truncate(k);
        rows.into_iter()
            .map(|s| HeavyHitter {
                mean_nanos: s.mean_nanos(),
                opcode: s.opcode,
                count: s.count,
                total_nanos: s.total_nanos,
                max_nanos: s.max_nanos,
            })
            .collect()
    }

    /// The counter set.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Add `n` to the counter `pick` selects, when statistics are on.
    #[inline]
    pub fn count(&self, pick: impl FnOnce(&Counters) -> &Counter, n: u64) {
        if self.stats_enabled() {
            pick(&self.counters).add(n);
        }
    }
}

/// Snapshot every cell of one phase of the process registry.
pub fn phase_stats(phase: Phase) -> Vec<OpStats> {
    OBS.phase_stats(phase)
}

/// Top-k opcodes of a phase of the process registry by cumulative time.
pub fn heavy_hitters(phase: Phase, k: usize) -> Vec<HeavyHitter> {
    OBS.heavy_hitters(phase, k)
}

/// The process counter set.
pub fn counters() -> &'static Counters {
    OBS.counters()
}

/// Count one kind of event that is not a span: add `n` to the process
/// counter `pick` selects, when statistics are on.
///
/// ```
/// sysds_obs::count(|c| &c.buf_evictions, 1);
/// ```
#[inline]
pub fn count(pick: impl FnOnce(&Counters) -> &Counter, n: u64) {
    OBS.count(pick, n);
}

/// One event counter. Only this crate adds to it; others read it through
/// [`Counters::snapshot`].
#[derive(Debug)]
pub struct Counter(AtomicU64);

impl Counter {
    const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    pub(crate) fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }
}

/// Declares the counter set once: the [`Counters`] fields, the
/// [`CounterSnapshot`] fields, and `new`, `snapshot` and `reset` over them.
macro_rules! counter_set {
    ($($(#[doc = $doc:literal])+ $name:ident,)+) => {
        /// Named event counters covering the non-span subsystems.
        #[derive(Debug)]
        pub struct Counters {
            $($(#[doc = $doc])+ pub $name: Counter,)+
        }

        /// Plain-integer copy of [`Counters`] for reports and delta
        /// assertions.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct CounterSnapshot {
            $($(#[doc = $doc])+ pub $name: u64,)+
        }

        impl Counters {
            pub(crate) const fn new() -> Counters {
                Counters { $($name: Counter::new(),)+ }
            }

            /// Read every counter (relaxed) into a plain snapshot.
            pub fn snapshot(&self) -> CounterSnapshot {
                CounterSnapshot { $($name: self.$name.0.load(Ordering::Relaxed),)+ }
            }

            pub(crate) fn reset(&self) {
                $(self.$name.0.store(0, Ordering::Relaxed);)+
            }
        }
    };
}

counter_set! {
    /// Buffer pool: matrices written to spill files.
    buf_evictions,
    /// Buffer pool: bytes written to spill files.
    buf_spilled_bytes,
    /// Buffer pool: matrices restored from spill files.
    buf_restores,
    /// Buffer pool: bytes restored from spill files.
    buf_restored_bytes,
    /// Lineage cache: full hits.
    lin_hits,
    /// Lineage cache: partial (compensation-plan) hits.
    lin_partial_hits,
    /// Lineage cache: misses.
    lin_misses,
    /// Lineage cache: evictions.
    lin_evictions,
    /// Parfor: workers spawned.
    parfor_workers,
    /// Parfor: iterations executed.
    parfor_iters,
    /// Parfor: summed worker wall time.
    parfor_worker_nanos,
    /// Federated: requests sent by the master.
    fed_requests,
    /// Federated: summed request round-trip latency.
    fed_request_nanos,
    /// Compiler: block plans re-lowered after a size change.
    recompiles,
    /// Fused operators executed via the one-pass kernel.
    fusion_hits,
    /// Bytes of per-operator intermediates fusion avoided materializing.
    fusion_bytes_saved,
    /// Network transport: completed request round trips.
    net_requests,
    /// Network transport: re-sent attempts beyond each request's first try.
    net_retries,
    /// Network transport: attempts abandoned at the per-request deadline.
    net_timeouts,
    /// Network transport: requests that exhausted their retry budget.
    net_failures,
    /// Network transport: request frame bytes written to sockets.
    net_bytes_sent,
    /// Network transport: response frame bytes read from sockets.
    net_bytes_recv,
    /// Network transport: summed request round-trip latency.
    net_request_nanos,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_heavy_hitters() {
        let obs = Obs::new();
        obs.record(Phase::Execute, "a", 100);
        obs.record(Phase::Execute, "a", 300);
        obs.record(Phase::Execute, "b", 50);
        let hh = obs.heavy_hitters(Phase::Execute, 10);
        let opcodes: Vec<&str> = hh.iter().map(|h| h.opcode.as_str()).collect();
        assert_eq!(opcodes, ["a", "b"], "sorted by cumulative time");
        let a = &hh[0];
        assert_eq!(a.count, 2);
        assert_eq!(a.total_nanos, 400);
        assert_eq!(a.mean_nanos, 200);
        assert_eq!(a.max_nanos, 300);
    }

    #[test]
    fn histogram_buckets() {
        let obs = Obs::new();
        obs.record(Phase::Parse, "hist", 1); // bucket 0
        obs.record(Phase::Parse, "hist", 1024); // bucket 10
        let s = &obs.phase_stats(Phase::Parse)[0];
        assert_eq!((s.hist[0], s.hist[10]), (1, 1));
        assert_eq!(s.hist.iter().sum::<u64>(), 2);
    }

    #[test]
    fn phases_index_in_declaration_order() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn counter_snapshot_reads_back() {
        let obs = Obs::new();
        obs.count(|c| &c.fed_requests, 3);
        assert_eq!(obs.counters().snapshot().fed_requests, 0);
        obs.enable_stats();
        obs.count(|c| &c.fed_requests, 3);
        assert_eq!(obs.counters().snapshot().fed_requests, 3);
    }
}
