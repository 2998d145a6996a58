//! `sysds-net` — networked federated workers.
//!
//! The paper's federated tensors (§3.3) reference *remote* sub-tensors;
//! `sysds-fed` models the protocol with in-process sites called directly,
//! and this crate provides the real transport: a length-prefixed binary
//! wire protocol ([`wire`]), a TCP site daemon ([`server::WorkerServer`],
//! exposed as `sysds worker --listen ADDR`), and a master-side transport
//! ([`client::TcpTransport`]) implementing [`sysds_fed::Transport`] — so
//! `FederatedMatrix` and the learning algorithms run unchanged in one
//! process or over sockets. Both kinds of site answer through one
//! [`sysds_fed::Site`].
//!
//! Robustness is first-class: per-request deadlines, bounded retries with
//! exponential backoff + deterministic jitter, request-id deduplication for
//! mutating requests, and typed `FederatedSiteLost` degradation. The deterministic [`fault::FaultPlan`]
//! hook injects drops/delays/truncations server-side so every failure path
//! is testable in CI without flaky sleeps.

#![deny(unsafe_code)]

pub mod client;
pub mod fault;
pub mod server;
pub mod wire;

pub use client::TcpTransport;
pub use fault::{FaultAction, FaultPlan, FaultRule};
pub use server::WorkerServer;
