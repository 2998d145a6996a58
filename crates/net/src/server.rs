//! The TCP site daemon: serves the framed wire protocol over a socket.
//!
//! One accept thread plus one thread per connection. All connections share
//! the site's variable map, the request sequence counter the
//! [`FaultPlan`] triggers on, and a bounded request-id deduplication cache
//! that makes retried mutating requests (`Put`, `Remove`, an `Exec` that
//! keeps its result under `out`) exactly-once: a replayed request id is
//! answered from the cache without re-executing, and a retry that races
//! the still-executing original (e.g. arriving on a second connection
//! after a timeout) waits for the original's result via an in-flight
//! marker instead of executing twice. Every reply, an error for a
//! malformed payload included, leaves through one write in
//! `serve_connection`; what it carries comes from the site's one
//! [`Site::respond`], the one the in-process handle calls too.
//! Client request ids carry a randomized per-process epoch (see
//! `client::next_request_id`), so a restarted or second master never
//! collides with a predecessor's ids in this cache.
//!
//! Accept and idle reads block; nothing polls. Shutdown is graceful: a
//! wire `Shutdown` request (or [`WorkerServer::shutdown`]) sets the stop
//! flag and wakes the accept with a connection to the server's own
//! address. The accept thread then calls `shutdown(Read)` on its clone of
//! every open stream, which ends each idle read, lets in-flight requests
//! finish and their responses flush, and joins every thread.

use crate::fault::{FaultAction, FaultPlan};
use crate::wire;
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use sysds_common::{Result, SysDsError};
use sysds_fed::{FedRequest, FedResponse, Site};
use sysds_tensor::Matrix;

/// Maximum request ids remembered for replay deduplication.
const DEDUP_CAPACITY: usize = 1024;
/// Longest a retry waits for the original in-flight attempt to finish
/// before giving up with an error reply.
const DEDUP_WAIT_TIMEOUT: Duration = Duration::from_secs(60);
/// Read deadline for the body of a frame whose first byte has arrived.
const FRAME_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// State of a request id in the dedup cache.
#[derive(Clone)]
enum DedupEntry {
    /// The first arrival is still executing; retries wait on the condvar.
    InFlight,
    /// Finished: replay the recorded response.
    Done(FedResponse),
}

/// Bounded request-id → response cache (FIFO eviction of completed
/// entries; in-flight markers are never evicted).
struct DedupCache {
    map: HashMap<u64, DedupEntry>,
    order: VecDeque<u64>,
}

impl DedupCache {
    fn new() -> DedupCache {
        DedupCache {
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    fn get(&self, id: u64) -> Option<DedupEntry> {
        self.map.get(&id).cloned()
    }

    /// Claim `id` for execution; the caller must later [`Self::complete`].
    fn begin(&mut self, id: u64) {
        self.map.insert(id, DedupEntry::InFlight);
    }

    /// Record the result of an in-flight id and make it evictable.
    fn complete(&mut self, id: u64, resp: FedResponse) {
        if self.map.insert(id, DedupEntry::Done(resp)).is_some() {
            self.order.push_back(id);
            while self.order.len() > DEDUP_CAPACITY {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                }
            }
        }
    }
}

struct SiteState {
    site: Site,
    dedup: Mutex<DedupCache>,
    /// Signalled whenever an in-flight dedup entry completes.
    dedup_done: Condvar,
    faults: FaultPlan,
    /// Server-wide request sequence; the fault plan matches against it.
    seq: AtomicU64,
    stop: Arc<Stop>,
}

/// The stop flag, and the listening address a stop connects to, to wake
/// the blocked accept.
#[derive(Debug)]
struct Stop {
    flag: AtomicBool,
    addr: SocketAddr,
}

impl Stop {
    fn stop(&self) {
        if self.flag.swap(true, Ordering::SeqCst) {
            return;
        }
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect(wake);
    }

    fn stopped(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// A running TCP federated site. It holds only the stop handle: the site
/// state belongs to the server's threads and is freed by the accept
/// thread as it ends. Freed on the caller's thread instead, small blocks
/// of the handlers' allocator arenas stayed cached there and kept about
/// 20 MB of freed site data resident (glibc, `fed_train` set-up).
#[derive(Debug)]
pub struct WorkerServer {
    stop: Arc<Stop>,
    accept_join: Option<JoinHandle<()>>,
}

impl WorkerServer {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// serving with the given initial variables.
    pub fn bind(
        addr: &str,
        initial: Vec<(String, Matrix)>,
        threads: usize,
    ) -> Result<WorkerServer> {
        WorkerServer::bind_with_faults(addr, initial, threads, FaultPlan::none())
    }

    /// [`WorkerServer::bind`] plus a deterministic fault-injection plan.
    pub fn bind_with_faults(
        addr: &str,
        initial: Vec<(String, Matrix)>,
        threads: usize,
        faults: FaultPlan,
    ) -> Result<WorkerServer> {
        map_large_blocks();
        let listener = TcpListener::bind(addr)
            .map_err(|e| SysDsError::Federated(format!("bind {addr}: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| SysDsError::Federated(format!("local_addr: {e}")))?;
        let stop = Arc::new(Stop {
            flag: AtomicBool::new(false),
            addr,
        });
        let state = Arc::new(SiteState {
            site: Site::new(initial, threads),
            dedup: Mutex::new(DedupCache::new()),
            dedup_done: Condvar::new(),
            faults,
            seq: AtomicU64::new(0),
            stop: Arc::clone(&stop),
        });
        let accept_join = std::thread::spawn(move || accept_loop(listener, state));
        Ok(WorkerServer {
            stop,
            accept_join: Some(accept_join),
        })
    }

    /// The bound socket address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.stop.addr
    }

    /// The endpoint string clients connect to.
    pub fn endpoint(&self) -> String {
        format!("tcp://{}", self.stop.addr)
    }

    /// Stop accepting, drain in-flight requests, and join all threads.
    pub fn shutdown(&mut self) {
        self.stop.stop();
        self.wait();
    }

    /// Block until the server has stopped (after a wire `Shutdown`
    /// request or [`WorkerServer::shutdown`]) and joined its threads.
    pub fn wait(&mut self) {
        if let Some(join) = self.accept_join.take() {
            let _ = join.join();
        }
    }

    /// Whether the server has fully stopped (after a wire `Shutdown`
    /// request or [`WorkerServer::shutdown`]).
    pub fn is_stopped(&self) -> bool {
        self.stop.stopped() && self.accept_join.as_ref().is_none_or(|j| j.is_finished())
    }
}

impl Drop for WorkerServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, state: Arc<SiteState>) {
    // Each handler, with a clone of its stream whose read side a stop
    // shuts down.
    let mut handlers: Vec<(JoinHandle<()>, TcpStream)> = Vec::new();
    for stream in listener.incoming() {
        if state.stop.stopped() {
            break;
        }
        let Ok(stream) = stream else { break };
        let Ok(clone) = stream.try_clone() else {
            continue;
        };
        let site = Arc::clone(&state);
        let handler = std::thread::spawn(move || serve_connection(stream, &site));
        handlers.push((handler, clone));
        handlers.retain(|(h, _)| !h.is_finished());
    }
    // Wake every idle read, then drain the handlers: each one finishes
    // (and flushes) its in-flight request before exiting.
    state.stop.stop();
    for (_, stream) in &handlers {
        let _ = stream.shutdown(Shutdown::Read);
    }
    for (handler, _) in handlers {
        let _ = handler.join();
    }
}

/// Have glibc map every block of 1 MiB or more on its own and
/// unmap it when it is freed (process-wide; idempotent). A site's
/// partitions are allocated on its connection threads, each in whichever
/// allocator arena the thread lands on, and which one that is depends on
/// thread timing. Under glibc's default, which raises the mapping
/// threshold as large blocks are freed, freed partitions stayed in those
/// arenas and were reused only by a thread that landed on the same one: a
/// process that starts and stops sites (the `fed_train` benchmark's
/// set-up) kept 0, 20 or 40 MB more resident from one run to the next.
/// Setting the threshold also stops glibc from raising it.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
#[allow(unsafe_code)]
fn map_large_blocks() {
    use std::ffi::c_int;
    const M_MMAP_THRESHOLD: c_int = -3;
    const LARGE_BLOCK: c_int = 1 << 20;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    // SAFETY: `mallopt` takes no pointer; it sets one parameter of the
    // allocator, under the allocator's own lock.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, LARGE_BLOCK);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn map_large_blocks() {}

/// Serve one connection, then close it: the accept thread's clone of the
/// stream must not keep it open.
fn serve_connection(mut stream: TcpStream, state: &SiteState) {
    serve_frames(&mut stream, state);
    let _ = stream.shutdown(Shutdown::Both);
}

fn serve_frames(stream: &mut TcpStream, state: &SiteState) {
    let _ = stream.set_nodelay(true);
    loop {
        // Block until the next frame starts, without consuming it; the
        // peer closing or a stop ends the wait.
        let _ = stream.set_read_timeout(None);
        match stream.peek(&mut [0u8; 1]) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        // A frame is arriving: read it whole under the long deadline.
        let _ = stream.set_read_timeout(Some(FRAME_READ_TIMEOUT));
        let header = match wire::read_header(stream) {
            Ok(Ok(header)) => header,
            // Protocol violation: this peer is corrupt; drop the link.
            Ok(Err(_)) | Err(_) => return,
        };
        let request_id = header.request_id;
        let Ok(decoded) = wire::read_request(stream, &header) else {
            return;
        };
        // A malformed payload gets an error reply and the link stays up.
        let (resp, fault, is_shutdown) = match decoded {
            Ok(req) => {
                let seq = state.seq.fetch_add(1, Ordering::Relaxed);
                let is_shutdown = matches!(req, FedRequest::Shutdown);
                let resp = respond(state, request_id, req);
                (resp, state.faults.action_for(seq), is_shutdown)
            }
            Err(e) => (FedResponse::Error(e.to_string()), None, false),
        };
        let frame = wire::response_frame(request_id, &resp);
        match fault {
            Some(FaultAction::DropResponse) => return,
            Some(FaultAction::DelayMillis(ms)) => {
                std::thread::sleep(Duration::from_millis(ms));
                let _ = wire::write_frame(stream, &frame);
            }
            Some(FaultAction::CloseAfterBytes(n)) => {
                let cut = n.min(frame.len());
                let _ = stream.write_all(&frame[..cut]);
                let _ = stream.flush();
                return;
            }
            None => {
                if wire::write_frame(stream, &frame).is_err() {
                    return;
                }
            }
        }
        if is_shutdown {
            state.stop.stop();
            return;
        }
    }
}

fn respond(state: &SiteState, request_id: u64, req: FedRequest) -> FedResponse {
    if matches!(req, FedRequest::Shutdown) {
        return FedResponse::Ok;
    }
    if req.idempotent() {
        return state.site.respond(req);
    }
    // Mutating request: under the dedup lock, atomically either claim the
    // id (first arrival) or defer to the attempt that already did. A retry
    // racing the still-executing original waits for its result instead of
    // executing the mutation twice.
    {
        let mut cache = state.dedup.lock().expect("dedup poisoned");
        let deadline = Instant::now() + DEDUP_WAIT_TIMEOUT;
        loop {
            match cache.get(request_id) {
                Some(DedupEntry::Done(resp)) => return resp,
                Some(DedupEntry::InFlight) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return FedResponse::Error(format!(
                            "request {request_id} still in flight after {DEDUP_WAIT_TIMEOUT:?}"
                        ));
                    }
                    cache = state
                        .dedup_done
                        .wait_timeout(cache, deadline - now)
                        .expect("dedup poisoned")
                        .0;
                }
                None => {
                    cache.begin(request_id);
                    break;
                }
            }
        }
    }
    let resp = state.site.respond(req);
    state
        .dedup
        .lock()
        .expect("dedup poisoned")
        .complete(request_id, resp.clone());
    state.dedup_done.notify_all();
    resp
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_cache_replays_and_evicts() {
        let mut cache = DedupCache::new();
        cache.begin(1);
        assert!(matches!(cache.get(1), Some(DedupEntry::InFlight)));
        cache.complete(1, FedResponse::Scalar(1.0));
        assert!(matches!(cache.get(1), Some(DedupEntry::Done(FedResponse::Scalar(v))) if v == 1.0));
        assert!(cache.get(2).is_none());
        for id in 2..(DEDUP_CAPACITY as u64 + 2) {
            cache.begin(id);
            cache.complete(id, FedResponse::Ok);
        }
        assert!(cache.get(1).is_none(), "oldest completed entry evicted");
        assert!(cache.get(DEDUP_CAPACITY as u64 + 1).is_some());
    }

    #[test]
    fn retry_waits_for_in_flight_original_instead_of_reexecuting() {
        let state = Arc::new(SiteState {
            site: Site::new(vec![], 1),
            dedup: Mutex::new(DedupCache::new()),
            dedup_done: Condvar::new(),
            faults: FaultPlan::none(),
            seq: AtomicU64::new(0),
            stop: Arc::new(Stop {
                flag: AtomicBool::new(false),
                addr: "127.0.0.1:0".parse().unwrap(),
            }),
        });
        // Simulate the original attempt still executing.
        state.dedup.lock().unwrap().begin(42);
        let retry = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || {
                respond(
                    &state,
                    42,
                    FedRequest::Put {
                        var: "X".into(),
                        data: Matrix::filled(1, 1, 7.0),
                    },
                )
            })
        };
        // Give the retry time to block, then publish the original result.
        std::thread::sleep(Duration::from_millis(50));
        state
            .dedup
            .lock()
            .unwrap()
            .complete(42, FedResponse::Scalar(9.0));
        state.dedup_done.notify_all();
        let resp = retry.join().unwrap();
        assert!(
            matches!(resp, FedResponse::Scalar(v) if v == 9.0),
            "retry must replay the original result, got {resp:?}"
        );
        let stored = state.site.respond(FedRequest::Exec {
            op: &sysds_fed::ops::NROWS,
            vars: vec!["X".into()],
            operand: None,
            out: None,
        });
        assert!(
            matches!(stored, FedResponse::Error(_)),
            "retry must not re-execute the mutation, got {stored:?}"
        );
    }

    #[test]
    fn bind_reports_endpoint_and_stops() {
        let mut server = WorkerServer::bind("127.0.0.1:0", vec![], 1).unwrap();
        assert!(server.endpoint().starts_with("tcp://127.0.0.1:"));
        assert!(!server.is_stopped());
        server.shutdown();
        assert!(server.is_stopped());
    }

    #[test]
    fn shutdown_wakes_idle_connections_at_once() {
        let best = (0..5)
            .map(|_| {
                let mut server = WorkerServer::bind("127.0.0.1:0", vec![], 1).unwrap();
                // Three connections, each answered once, so their handlers
                // are running and idle.
                let idle: Vec<TcpStream> = (0..3)
                    .map(|k| {
                        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
                        let ping = wire::request_frame(k, &FedRequest::Ping);
                        wire::write_frame(&mut conn, &ping).unwrap();
                        wire::read_frame(&mut conn).unwrap().unwrap();
                        conn
                    })
                    .collect();
                let start = Instant::now();
                server.shutdown();
                let took = start.elapsed();
                assert!(server.is_stopped());
                drop(idle);
                took
            })
            .min()
            .unwrap();
        assert!(best < Duration::from_millis(10), "shutdown took {best:?}");
    }
}
