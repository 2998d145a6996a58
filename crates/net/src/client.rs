//! The master-side TCP transport: a [`sysds_fed::Transport`] over sockets.
//!
//! Each [`TcpTransport`] owns a small connection pool to one site and runs
//! every request through the robustness layer:
//!
//! * **deadlines** — read/write socket timeouts, set once when a
//!   connection opens, bound each attempt by
//!   [`NetConfig::request_timeout_ms`];
//! * **bounded retries** — up to [`NetConfig::max_retries`] re-sends with
//!   exponential backoff plus deterministic jitter. Re-sending is safe for
//!   every request kind: read-only requests are idempotent and mutating
//!   requests are deduplicated site-side by request id;
//! * **graceful degradation** — when the budget is exhausted the request
//!   fails with [`SysDsError::FederatedSiteLost`] instead of hanging.
//!
//! Every round trip is recorded into `sysds_obs::net` (per-endpoint bytes,
//! latency, retries, timeouts) in addition to the federated counters the
//! [`Transport::request`] wrapper keeps.

use crate::wire;
use std::io::{self, BufReader, BufWriter, ErrorKind};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use sysds_common::rng::XorShift64;
use sysds_common::sync::lock;
use sysds_common::{NetConfig, Result, SysDsError};
use sysds_fed::{FedRequest, FedResponse, Transport};
use sysds_io::binary::CHUNK;

/// Upper bound on any single backoff sleep between retries.
pub const BACKOFF_MAX_MS: u64 = 2_000;

/// Seed of the deterministic backoff jitter (folded with the request id).
const JITTER_SEED: u64 = 0x5d5d5;

/// Process-wide request sequence, combined with a randomized epoch by
/// [`next_request_id`].
static NEXT_REQUEST_SEQ: AtomicU64 = AtomicU64::new(1);

/// Produce a request id that is unique per site *across processes*: the
/// server deduplicates mutating replays by id against a long-lived cache,
/// so a restarted or second master must never reuse a predecessor's ids.
/// The high 32 bits are a per-process random epoch (OS-seeded `RandomState`
/// folded with the pid); the low 32 bits count up within the process.
fn next_request_id() -> u64 {
    use std::hash::{BuildHasher, Hasher};
    use std::sync::OnceLock;
    static EPOCH: OnceLock<u64> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(|| {
        let mut h = std::collections::hash_map::RandomState::new().build_hasher();
        h.write_u32(std::process::id());
        h.finish() << 32
    });
    epoch | (NEXT_REQUEST_SEQ.fetch_add(1, Ordering::Relaxed) & 0xFFFF_FFFF)
}

/// Most idle connections kept per site.
const POOL_LIMIT: usize = 4;

/// TCP transport to one federated site.
#[derive(Debug)]
pub struct TcpTransport {
    addr: SocketAddr,
    endpoint: String,
    cfg: NetConfig,
    pool: Mutex<Vec<Conn>>,
}

impl TcpTransport {
    /// Resolve `addr` (`host:port`) and verify the site with one ping.
    pub fn connect(addr: &str, cfg: NetConfig) -> Result<TcpTransport> {
        let sock_addr = addr
            .to_socket_addrs()
            .map_err(|e| SysDsError::site_lost(addr, format!("resolve: {e}")))?
            .next()
            .ok_or_else(|| SysDsError::site_lost(addr, "no address resolved"))?;
        let transport = TcpTransport {
            addr: sock_addr,
            endpoint: format!("tcp://{sock_addr}"),
            cfg,
            pool: Mutex::new(Vec::new()),
        };
        transport.ping()?;
        Ok(transport)
    }

    /// Ask the site daemon to shut down gracefully.
    pub fn shutdown_site(&self) -> Result<()> {
        match self.request(FedRequest::Shutdown)? {
            FedResponse::Ok => Ok(()),
            other => Err(SysDsError::Federated(format!(
                "unexpected shutdown response: {other:?}"
            ))),
        }
    }

    /// A pooled connection, or a new one with its deadlines set.
    fn checkout(&self) -> io::Result<Conn> {
        if let Some(conn) = lock(&self.pool).pop() {
            return Ok(conn);
        }
        let stream = TcpStream::connect_timeout(
            &self.addr,
            Duration::from_millis(self.cfg.connect_timeout_ms.max(1)),
        )?;
        let timeout = Some(Duration::from_millis(self.cfg.request_timeout_ms.max(1)));
        stream.set_nodelay(true)?;
        stream.set_read_timeout(timeout)?;
        stream.set_write_timeout(timeout)?;
        Ok(Conn {
            writer: BufWriter::with_capacity(CHUNK, stream.try_clone()?),
            reader: BufReader::with_capacity(CHUNK, stream),
        })
    }

    fn checkin(&self, conn: Conn) {
        let mut pool = lock(&self.pool);
        if pool.len() < POOL_LIMIT {
            pool.push(conn);
        }
    }

    /// One attempt: send the frame, read the matching response. Any error
    /// closes the connection (a stale or half-written socket must never go
    /// back into the pool), shutting it down first so that dropping its
    /// writer does not wait on a stalled socket. Returns the response plus
    /// bytes received.
    fn single_attempt(&self, frame: &wire::Frame<'_>, id: u64) -> io::Result<(FedResponse, u64)> {
        let mut conn = self.checkout()?;
        let reply = conn.round_trip(frame, id);
        match reply {
            Ok(_) => self.checkin(conn),
            Err(_) => {
                let _ = conn.reader.get_ref().shutdown(Shutdown::Both);
            }
        }
        reply
    }

    fn backoff(&self, attempt: u32, rng: &mut XorShift64) -> Duration {
        let base = self.cfg.backoff_base_ms.max(1);
        let max = BACKOFF_MAX_MS.max(base);
        let exp = base.saturating_mul(1u64 << attempt.min(16));
        let capped = exp.min(max);
        // Deterministic jitter in [0, capped/2]: spreads synchronized
        // retries without introducing nondeterminism into tests. The total
        // is clamped so no single sleep ever exceeds BACKOFF_MAX_MS.
        let jitter = rng.next_below((capped / 2 + 1) as usize) as u64;
        Duration::from_millis((capped + jitter).min(max))
    }
}

/// A connection to a site: a buffered reader and a buffered writer over
/// one socket, so a small frame leaves in one write.
#[derive(Debug)]
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    fn round_trip(&mut self, frame: &wire::Frame<'_>, id: u64) -> io::Result<(FedResponse, u64)> {
        let invalid = |e: SysDsError| io::Error::new(ErrorKind::InvalidData, e.to_string());
        frame.write_to(&mut self.writer)?;
        let header = wire::read_header(&mut self.reader)?.map_err(invalid)?;
        if header.request_id != id {
            let msg = format!(
                "response id {} does not match request id {id}",
                header.request_id
            );
            return Err(io::Error::new(ErrorKind::InvalidData, msg));
        }
        let resp = wire::read_response(&mut self.reader, &header)?.map_err(invalid)?;
        Ok((resp, wire::HEADER_LEN as u64 + header.payload_len))
    }
}

impl Transport for TcpTransport {
    fn exchange(&self, req: FedRequest) -> Result<FedResponse> {
        let request_id = next_request_id();
        let mut rng = XorShift64::new(JITTER_SEED ^ request_id);
        let attempts = self.cfg.max_retries as u64 + 1;
        let start = Instant::now();
        let mut bytes_sent = 0u64;
        let mut retries = 0u64;
        let mut timeouts = 0u64;
        let mut last_err = String::new();
        for attempt in 0..attempts {
            if attempt > 0 {
                retries += 1;
                std::thread::sleep(self.backoff(attempt as u32 - 1, &mut rng));
            }
            // Each attempt encodes the request again; the block streams
            // from the matrix, so no copy of it is kept for a retry.
            let frame = wire::Frame::request(request_id, &req);
            bytes_sent += frame.byte_len() as u64;
            match self.single_attempt(&frame, request_id) {
                Ok((resp, bytes_recv)) => {
                    sysds_obs::net::record_request(
                        &self.endpoint,
                        bytes_sent,
                        bytes_recv,
                        start.elapsed().as_nanos() as u64,
                        retries,
                        timeouts,
                    );
                    return Ok(resp);
                }
                Err(e) => {
                    if matches!(e.kind(), ErrorKind::TimedOut | ErrorKind::WouldBlock) {
                        timeouts += 1;
                    }
                    last_err = e.to_string();
                }
            }
        }
        sysds_obs::net::record_failure(&self.endpoint, retries, timeouts);
        Err(SysDsError::site_lost(
            &self.endpoint,
            format!("{attempts} attempts failed; last error: {last_err}"),
        ))
    }

    fn endpoint(&self) -> &str {
        &self.endpoint
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_to_dead_address_is_site_lost() {
        // Port 1 on localhost is essentially never listening.
        let err = TcpTransport::connect(
            "127.0.0.1:1",
            NetConfig::default()
                .max_retries(0)
                .request_timeout_ms(200)
                .backoff_base_ms(1),
        )
        .unwrap_err();
        assert!(matches!(err, SysDsError::FederatedSiteLost { .. }), "{err}");
    }

    #[test]
    fn backoff_grows_and_respects_cap() {
        let t = TcpTransport {
            addr: "127.0.0.1:1".parse().unwrap(),
            endpoint: "tcp://test".into(),
            cfg: NetConfig::default().backoff_base_ms(10),
            pool: Mutex::new(Vec::new()),
        };
        let mut rng = XorShift64::new(1);
        let b0 = t.backoff(0, &mut rng);
        let b4 = t.backoff(4, &mut rng);
        assert!(b0 >= Duration::from_millis(10));
        assert!(b4 >= b0);
        for attempt in 0..40 {
            assert!(
                t.backoff(attempt, &mut rng) <= Duration::from_millis(BACKOFF_MAX_MS),
                "attempt {attempt} slept past BACKOFF_MAX_MS"
            );
        }
    }

    #[test]
    fn request_ids_share_a_process_epoch_and_increment() {
        let a = next_request_id();
        let b = next_request_id();
        assert_eq!(a >> 32, b >> 32, "epoch must be stable within a process");
        assert!(
            (b & 0xFFFF_FFFF) > (a & 0xFFFF_FFFF),
            "sequence must increase"
        );
    }
}
