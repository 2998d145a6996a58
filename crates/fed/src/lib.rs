//! Federated ML (paper §3.3).
//!
//! "Our basic design consists of multiple control programs, each having
//! local data. A master control program holds the federated tensors
//! including connections to the other sites."
//!
//! Here each site is an in-process worker thread owning its partition; the
//! master communicates exclusively over message channels. The key invariant
//! — the *exchange constraint* — is enforced structurally: workers only
//! ever answer with **aggregates whose size is independent of the local row
//! count** (Gram matrices, gradient vectors, scalar statistics); there is no
//! request that returns raw rows.
//!
//! * [`worker`] — the federated site: request/response protocol and the
//!   worker event loop;
//! * [`transport`] — the pluggable [`Transport`] trait the master uses to
//!   reach a site (in-process channels here; TCP in `sysds-net`);
//! * [`tensor`] — [`FederatedMatrix`]: a metadata object mapping disjoint
//!   row ranges to workers, with federated instructions (tsmm, `t(X)y`,
//!   broadcast mat-vec, scalar ops, column aggregates). Every instruction
//!   sends all sites their requests at once, one thread per site, and
//!   merges the replies in partition order, so site compute overlaps and
//!   sums stay bitwise reproducible;
//! * [`learn`] — federated linear regression (normal equations) and
//!   federated mini-batch SGD with a parameter-server master.

pub mod learn;
pub mod tensor;
pub mod transport;
pub mod worker;

pub use tensor::FederatedMatrix;
pub use transport::Transport;
pub use worker::{FedRequest, FedResponse, WorkerHandle};
