//! Federated ML (paper §3.3).
//!
//! "Our basic design consists of multiple control programs, each having
//! local data. A master control program holds the federated tensors
//! including connections to the other sites."
//!
//! Each site is one [`Site`] owning its partitions: an in-process site
//! called directly, or a TCP daemon in `sysds-net`; the master reaches
//! both through one [`Transport`]. Only aggregates whose size is independent of the local
//! row count leave a site (the *exchange constraint*): the site checks
//! every request against the row of the instruction it runs.
//!
//! * [`ops`] — the table of federated instructions, one [`ops::FedOp`]
//!   row per operation;
//! * [`worker`] — the request/response protocol, the [`Site`] with its one
//!   [`Site::respond`], and the in-process handle that calls it directly;
//! * [`transport`] — the [`Transport`] trait (the in-process site here, TCP
//!   in `sysds-net`);
//! * [`tensor`] — [`FederatedMatrix`]: disjoint row ranges mapped to sites;
//!   [`FederatedMatrix::exec`] runs one row at all sites at once and adds
//!   the replies up in partition order;
//! * [`learn`] — federated linear regression (normal equations) and
//!   federated mini-batch SGD with a parameter-server master.

#![deny(unsafe_code)]

pub mod learn;
pub mod ops;
pub mod tensor;
pub mod transport;
pub mod worker;

pub use tensor::{FedValue, FederatedMatrix};
pub use transport::Transport;
pub use worker::{FedRequest, FedResponse, Site, WorkerHandle};
