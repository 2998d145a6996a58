//! Engine configuration.
//!
//! Threads, buffer-pool and lineage-cache limits, lineage tracing / reuse,
//! kernel, recompilation and fusion switches, and observability outputs.
//! All of those knobs live here so the compiler, runtime, and benchmarks
//! share one source of truth. Every operator runs as a local (CP)
//! instruction; scale-out is federation (`sysds-fed`).

use std::path::PathBuf;

/// How lineage-based reuse of intermediates behaves (paper §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReusePolicy {
    /// No reuse; lineage may still be traced for provenance.
    None,
    /// Reuse only exact (full) lineage matches.
    Full,
    /// Full reuse plus compensation-plan based partial reuse.
    FullAndPartial,
}

/// Robustness knobs for networked federation (timeouts and retries).
///
/// All durations are milliseconds. Retries apply only to requests that are
/// idempotent or deduplicated site-side by request id; the backoff between
/// attempt `k` and `k+1` is `backoff_base_ms * 2^k` plus deterministic
/// jitter, capped at `sysds_net::client::BACKOFF_MAX_MS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// TCP connect timeout per attempt.
    pub connect_timeout_ms: u64,
    /// Per-request deadline (send + site execution + receive).
    pub request_timeout_ms: u64,
    /// Retries after the first failed attempt (0 = fail fast).
    pub max_retries: u32,
    /// Base backoff before the first retry.
    pub backoff_base_ms: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            connect_timeout_ms: 2_000,
            request_timeout_ms: 30_000,
            max_retries: 3,
            backoff_base_ms: 20,
        }
    }
}

impl NetConfig {
    /// Builder-style setter for the per-request deadline.
    pub fn request_timeout_ms(mut self, ms: u64) -> Self {
        self.request_timeout_ms = ms;
        self
    }

    /// Builder-style setter for the retry budget.
    pub fn max_retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    /// Builder-style setter for the base backoff.
    pub fn backoff_base_ms(mut self, ms: u64) -> Self {
        self.backoff_base_ms = ms;
        self
    }
}

/// Global engine configuration, threaded through compiler and runtime.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Degree of parallelism for multi-threaded kernels, parfor, and I/O.
    pub num_threads: usize,
    /// Maximum bytes the buffer pool holds before evicting to disk.
    pub buffer_pool_limit: usize,
    /// Directory for buffer-pool spill files.
    pub spill_dir: PathBuf,
    /// Whether lineage tracing is enabled.
    pub lineage: bool,
    /// Reuse policy for the lineage cache.
    pub reuse: ReusePolicy,
    /// Maximum bytes held by the lineage reuse cache.
    pub reuse_cache_limit: usize,
    /// Enable dynamic recompilation of blocks with unknown sizes.
    pub dynamic_recompile: bool,
    /// Fuse single-consumer cell-wise chains (and aggregates over them)
    /// into one-pass `Fused` operators during lowering.
    pub fusion: bool,
    /// Collect runtime statistics (heavy hitters, counters) for reporting.
    pub stats: bool,
    /// When set, write one Chrome `trace_event` per instrumented region to
    /// this file as the region ends (chrome://tracing, Perfetto).
    pub trace_file: Option<PathBuf>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        EngineConfig {
            num_threads: threads,
            buffer_pool_limit: 2 << 30, // 2 GiB buffer pool
            spill_dir: std::env::temp_dir().join("sysds-spill"),
            lineage: false,
            reuse: ReusePolicy::None,
            reuse_cache_limit: 1 << 30, // 1 GiB lineage cache
            dynamic_recompile: true,
            fusion: true,
            stats: false,
            trace_file: None,
        }
    }
}

impl EngineConfig {
    /// Configuration with lineage tracing and full+partial reuse enabled.
    pub fn with_reuse() -> Self {
        EngineConfig {
            lineage: true,
            reuse: ReusePolicy::FullAndPartial,
            ..Self::default()
        }
    }

    /// Builder-style setter for the thread count.
    pub fn threads(mut self, n: usize) -> Self {
        self.num_threads = n.max(1);
        self
    }

    /// Builder-style setter for the reuse policy (implies lineage tracing
    /// when the policy is not [`ReusePolicy::None`]).
    pub fn reuse_policy(mut self, policy: ReusePolicy) -> Self {
        self.reuse = policy;
        if policy != ReusePolicy::None {
            self.lineage = true;
        }
        self
    }

    /// Builder-style setter for operator fusion (`--no-fusion` disables).
    pub fn fusion(mut self, enabled: bool) -> Self {
        self.fusion = enabled;
        self
    }

    /// Builder-style setter for statistics collection (`--stats`).
    pub fn stats(mut self, enabled: bool) -> Self {
        self.stats = enabled;
        self
    }

    /// Builder-style setter for span tracing (`--trace FILE`).
    pub fn trace(mut self, path: impl Into<PathBuf>) -> Self {
        self.trace_file = Some(path.into());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let c = EngineConfig::default();
        assert!(c.num_threads >= 1);
        assert_eq!(c.reuse, ReusePolicy::None);
        assert!(!c.lineage);
    }

    #[test]
    fn with_reuse_enables_lineage() {
        let c = EngineConfig::with_reuse();
        assert!(c.lineage);
        assert_eq!(c.reuse, ReusePolicy::FullAndPartial);
    }

    #[test]
    fn builder_chain() {
        let c = EngineConfig::default().threads(2).fusion(false).stats(true);
        assert_eq!(c.num_threads, 2);
        assert!(!c.fusion && c.stats);
    }

    #[test]
    fn reuse_policy_setter_implies_lineage() {
        let c = EngineConfig::default().reuse_policy(ReusePolicy::Full);
        assert!(c.lineage);
    }

    #[test]
    fn threads_clamped_to_one() {
        assert_eq!(EngineConfig::default().threads(0).num_threads, 1);
    }

    #[test]
    fn stats_and_trace_builders() {
        let c = EngineConfig::default();
        assert!(!c.stats);
        assert!(c.trace_file.is_none());
        let c = c.stats(true).trace("/tmp/out.json");
        assert!(c.stats);
        assert_eq!(
            c.trace_file.as_deref(),
            Some(std::path::Path::new("/tmp/out.json"))
        );
    }

    #[test]
    fn net_config_defaults_and_builders() {
        let n = NetConfig::default();
        assert!(n.request_timeout_ms > 0);
        assert!(n.max_retries >= 1);
        let n = n.request_timeout_ms(500).max_retries(0).backoff_base_ms(5);
        assert_eq!(n.request_timeout_ms, 500);
        assert_eq!(n.max_retries, 0);
        assert_eq!(n.backoff_base_ms, 5);
    }
}
