//! Per-endpoint network statistics for federated transports.
//!
//! Every networked site the master talks to gets one all-atomic cell keyed
//! by its endpoint string (`tcp://host:port`). Transports record each
//! request's byte counts, latency, retries, and timeouts here while
//! statistics are on; the `--stats` report renders one row per site plus
//! workspace-wide totals from the `net_*` counters in
//! [`crate::registry::Counters`].

use crate::{Obs, OBS};
use std::sync::atomic::{AtomicU64, Ordering};

/// One endpoint's all-atomic statistics cell.
#[derive(Debug, Default)]
pub(crate) struct SiteCell {
    requests: AtomicU64,
    retries: AtomicU64,
    timeouts: AtomicU64,
    failures: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_recv: AtomicU64,
    total_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

/// Plain snapshot of one endpoint's network statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteStats {
    pub endpoint: String,
    /// Completed request round trips (after any retries).
    pub requests: u64,
    /// Re-sent attempts beyond each request's first try.
    pub retries: u64,
    /// Attempts abandoned at the per-request deadline.
    pub timeouts: u64,
    /// Requests that exhausted their retry budget (site lost).
    pub failures: u64,
    pub bytes_sent: u64,
    pub bytes_recv: u64,
    pub total_nanos: u64,
    pub max_nanos: u64,
}

impl SiteStats {
    /// Mean round-trip latency in nanoseconds (0 when idle).
    pub fn mean_nanos(&self) -> u64 {
        self.total_nanos.checked_div(self.requests).unwrap_or(0)
    }
}

impl Obs {
    /// Record one completed request round trip against `endpoint`, when
    /// statistics are on. `retries` counts the attempts beyond the first;
    /// `timeouts` the attempts that hit the deadline along the way.
    pub fn record_request(
        &self,
        endpoint: &str,
        bytes_sent: u64,
        bytes_recv: u64,
        nanos: u64,
        retries: u64,
        timeouts: u64,
    ) {
        if !self.stats_enabled() {
            return;
        }
        self.sites.with(endpoint, |c| {
            c.requests.fetch_add(1, Ordering::Relaxed);
            c.retries.fetch_add(retries, Ordering::Relaxed);
            c.timeouts.fetch_add(timeouts, Ordering::Relaxed);
            c.bytes_sent.fetch_add(bytes_sent, Ordering::Relaxed);
            c.bytes_recv.fetch_add(bytes_recv, Ordering::Relaxed);
            c.total_nanos.fetch_add(nanos, Ordering::Relaxed);
            c.max_nanos.fetch_max(nanos, Ordering::Relaxed);
        });
        let g = &self.counters;
        g.net_requests.add(1);
        g.net_retries.add(retries);
        g.net_timeouts.add(timeouts);
        g.net_bytes_sent.add(bytes_sent);
        g.net_bytes_recv.add(bytes_recv);
        g.net_request_nanos.add(nanos);
    }

    /// Record a request that exhausted its retry budget against `endpoint`
    /// (the site is reported lost to the caller), when statistics are on.
    pub fn record_failure(&self, endpoint: &str, retries: u64, timeouts: u64) {
        if !self.stats_enabled() {
            return;
        }
        self.sites.with(endpoint, |c| {
            c.failures.fetch_add(1, Ordering::Relaxed);
            c.retries.fetch_add(retries, Ordering::Relaxed);
            c.timeouts.fetch_add(timeouts, Ordering::Relaxed);
        });
        let g = &self.counters;
        g.net_failures.add(1);
        g.net_retries.add(retries);
        g.net_timeouts.add(timeouts);
    }

    /// Snapshot every endpoint's statistics, sorted by endpoint for
    /// deterministic reports.
    pub fn site_stats(&self) -> Vec<SiteStats> {
        let mut rows = self.sites.rows(|endpoint, c| SiteStats {
            endpoint: endpoint.to_string(),
            requests: c.requests.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            timeouts: c.timeouts.load(Ordering::Relaxed),
            failures: c.failures.load(Ordering::Relaxed),
            bytes_sent: c.bytes_sent.load(Ordering::Relaxed),
            bytes_recv: c.bytes_recv.load(Ordering::Relaxed),
            total_nanos: c.total_nanos.load(Ordering::Relaxed),
            max_nanos: c.max_nanos.load(Ordering::Relaxed),
        });
        rows.sort_by(|a, b| a.endpoint.cmp(&b.endpoint));
        rows
    }
}

/// Record one completed request round trip against `endpoint` in the
/// process table, when statistics are on.
pub fn record_request(
    endpoint: &str,
    bytes_sent: u64,
    bytes_recv: u64,
    nanos: u64,
    retries: u64,
    timeouts: u64,
) {
    OBS.record_request(endpoint, bytes_sent, bytes_recv, nanos, retries, timeouts);
}

/// Record a request against `endpoint` that exhausted its retry budget in
/// the process table, when statistics are on.
pub fn record_failure(endpoint: &str, retries: u64, timeouts: u64) {
    OBS.record_failure(endpoint, retries, timeouts);
}

/// Snapshot every endpoint of the process table, sorted by endpoint.
pub fn site_stats() -> Vec<SiteStats> {
    OBS.site_stats()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_on() -> Obs {
        let obs = Obs::new();
        obs.enable_stats();
        obs
    }

    #[test]
    fn record_and_snapshot_per_site() {
        let obs = stats_on();
        obs.record_request("test://b", 10, 10, 500, 0, 0);
        obs.record_request("test://a", 100, 200, 1_000, 0, 0);
        obs.record_request("test://a", 50, 25, 3_000, 2, 1);
        let rows = obs.site_stats();
        let endpoints: Vec<&str> = rows.iter().map(|r| r.endpoint.as_str()).collect();
        assert_eq!(endpoints, ["test://a", "test://b"], "sorted by endpoint");
        let a = &rows[0];
        assert_eq!(a.requests, 2);
        assert_eq!(a.retries, 2);
        assert_eq!(a.timeouts, 1);
        assert_eq!(a.bytes_sent, 150);
        assert_eq!(a.bytes_recv, 225);
        assert_eq!(a.mean_nanos(), 2_000);
        assert_eq!(a.max_nanos, 3_000);
    }

    #[test]
    fn failures_tracked_separately() {
        let obs = stats_on();
        obs.record_failure("test://dead", 3, 3);
        let d = &obs.site_stats()[0];
        assert_eq!(d.failures, 1);
        assert_eq!(d.retries, 3);
        assert_eq!(d.requests, 0);
        assert_eq!(obs.counters().snapshot().net_failures, 1);
    }

    #[test]
    fn global_counters_accumulate() {
        let obs = stats_on();
        obs.record_request("test://c", 7, 9, 100, 1, 0);
        let c = obs.counters().snapshot();
        assert_eq!((c.net_requests, c.net_retries), (1, 1));
        assert_eq!((c.net_bytes_sent, c.net_bytes_recv), (7, 9));
        assert_eq!(c.net_request_nanos, 100);
    }

    #[test]
    fn nothing_is_recorded_while_stats_are_off() {
        let obs = Obs::new();
        obs.record_request("test://off", 1, 1, 1, 0, 0);
        obs.record_failure("test://off", 1, 1);
        assert!(obs.site_stats().is_empty());
        assert_eq!(obs.counters().snapshot(), Default::default());
    }
}
