//! # SystemDS in Rust
//!
//! A declarative ML system for the end-to-end data science lifecycle,
//! reproducing Boehm et al., *SystemDS* (CIDR 2020). The crate hosts the
//! paper's primary contribution — the stack from language to runtime:
//!
//! * [`parser`] — DML, a scripting language with R-like syntax: linear
//!   algebra, control flow (`if`/`for`/`while`/`parfor`), user-defined
//!   functions, named arguments, multi-assignments.
//! * [`compiler`] — the compilation chain of §2.3: statement blocks → HOP
//!   DAGs → rewrites (constant folding, CSE, algebraic simplification with
//!   `tsmm`/`tmv` fusion, dead-code elimination) → size propagation (dims
//!   and sparsity) → memory estimates → operator fusion → runtime
//!   instructions (local CP kernels; federated operands push the operator
//!   to their sites).
//! * [`runtime`] — the control program of §2.3: block interpretation,
//!   dynamic recompilation, a buffer pool with spill-to-disk eviction,
//!   `parfor` with result merge, and a local parameter server.
//! * [`lineage`] — §3.1: fine-grained lineage tracing and the
//!   lineage-keyed cache for full **and partial** reuse of
//!   intermediates (compensation plans over `cbind` as in `steplm`).
//! * [`builtins`] — the registry of DML-bodied builtin functions (`lm`,
//!   `lmDS`, `lmCG`, `steplm`, `pca`, `kmeans`, `l2svm`, `scale`, ...);
//!   §2.2's "mechanism for registering DML-bodied built-in functions" —
//!   and the table of runtime builtins, one row per native builtin.
//! * [`api`] — the embedding APIs: [`api::SystemDS`] (an `MLContext`-like
//!   session) and [`api::PreparedScript`] (a `JMLC`-like pre-compiled
//!   script for low-latency repeated scoring).
//!
//! ## Quickstart
//!
//! ```
//! use sysds::api::SystemDS;
//!
//! let mut sds = SystemDS::new();
//! let out = sds
//!     .execute(
//!         r#"
//!         X = rand(rows=100, cols=5, seed=7)
//!         y = rand(rows=100, cols=1, seed=8)
//!         B = lmDS(X=X, y=y, reg=0.001)
//!         print(toString(nrow(B)))
//!         "#,
//!         &[],
//!         &["B"],
//!     )
//!     .unwrap();
//! let b = out.matrix("B").unwrap();
//! assert_eq!(b.rows(), 5);
//! ```

#![deny(unsafe_code)]

pub mod api;
pub mod builtins;
pub mod compiler;
pub mod lineage;
pub mod parser;
pub mod runtime;

pub use api::{PreparedScript, ScriptOutputs, SystemDS};
pub use runtime::value::Data;
pub use sysds_common::{EngineConfig, Result, SysDsError};
