//! The pluggable site transport.
//!
//! `FederatedMatrix` and the learning algorithms never talk to a concrete
//! worker type: they hold `Arc<dyn Transport>` handles and issue
//! [`FedRequest`]s through this trait. The in-process site called directly
//! ([`crate::worker::WorkerHandle`]) and the TCP transport in `sysds-net`
//! both implement it, so the same federated program runs unchanged in one
//! process or over sockets.
//!
//! Implementors provide the raw [`Transport::exchange`] round trip; the
//! instrumented [`Transport::request`] (span + counters + error mapping)
//! is a default method so every transport reports into `sysds-obs` the
//! same way.

use crate::worker::{FedRequest, FedResponse};
use std::sync::atomic::Ordering;
use sysds_common::{Result, SysDsError};

/// One federated site, as seen by the master.
pub trait Transport: Send + Sync + std::fmt::Debug {
    /// Send one request and wait for the raw response. Transport-level
    /// failures (socket error, exhausted retries) surface as `Err`;
    /// site-side execution failures arrive as [`FedResponse::Error`] and
    /// are mapped by [`Transport::request`].
    fn exchange(&self, req: FedRequest) -> Result<FedResponse>;

    /// Stable identity of the site (e.g. `inproc://site-3` or
    /// `tcp://127.0.0.1:7700`). Partition alignment checks compare
    /// endpoints, so two handles to the same site must agree.
    fn endpoint(&self) -> &str;

    /// Send one request and wait for the response, instrumented with a
    /// `Federated` span and the master-side request counters.
    fn request(&self, req: FedRequest) -> Result<FedResponse> {
        let opcode = req.opcode();
        let _span = sysds_obs::Span::enter(sysds_obs::Phase::Federated, opcode);
        let start = std::time::Instant::now();
        let out = match self.exchange(req) {
            Ok(FedResponse::Error(msg)) => Err(SysDsError::Federated(msg)),
            other => other,
        };
        if sysds_obs::stats_enabled() {
            let c = sysds_obs::counters();
            c.fed_requests.fetch_add(1, Ordering::Relaxed);
            c.fed_request_nanos
                .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        out
    }

    /// Liveness probe: a [`FedRequest::Ping`] round trip.
    fn ping(&self) -> Result<()> {
        match self.request(FedRequest::Ping)? {
            FedResponse::Ok => Ok(()),
            other => Err(SysDsError::Federated(format!(
                "unexpected ping response: {other:?}"
            ))),
        }
    }
}
