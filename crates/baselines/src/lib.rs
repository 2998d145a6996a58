//! Baseline engines for the paper's Figure 5 experiments.
//!
//! The paper compares SystemDS against TensorFlow (eager and graph mode)
//! and Julia on a hyper-parameter-optimization workload: read a CSV file,
//! train `k` ridge-regression models (`lmDS`) with different λ, write the
//! models. We cannot run the originals offline, so each baseline is
//! re-implemented to reproduce its *performance-shaping behaviour*
//! (see DESIGN.md §2):
//!
//! * [`EagerEngine`] (≈ TF eager): op-by-op execution, **materializes the
//!   transpose** for `t(X) %*% X` (TF's sparse-dense matmul "lacks a fused
//!   call"), single-threaded CSV parse, no redundancy elimination at all.
//! * [`GraphEngine`] (≈ TF-G): builds one expression graph for the whole
//!   λ-sweep and eliminates common subexpressions **within that graph** —
//!   the transpose happens once — but still recomputes the per-λ work.
//! * [`NativeEngine`] (≈ Julia): straight-line calls into the blocked
//!   kernels with fused `tsmm`, but single-threaded I/O and no
//!   cross-model reuse.
//!
//! All engines share one workload definition, [`workload::HyperParamWorkload`],
//! which is also what the SystemDS engine runs via DML in `sysds-bench`.

#![deny(unsafe_code)]

pub mod engines;
pub mod workload;

pub use engines::{EagerEngine, Engine, GraphEngine, NativeEngine};
pub use workload::{HyperParamWorkload, WorkloadResult};
