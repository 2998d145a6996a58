//! `sysds-conformance` — differential DML fuzzing harness.
//!
//! A declarative ML system promises that optimizer and runtime choices are
//! invisible in results: operator fusion, multi-threading, lineage-based
//! reuse, buffer-pool eviction, dynamic recompilation, and federation are
//! plan decisions, not semantics. This crate checks that promise by
//! construction:
//!
//! * [`gen`] — a seeded random DML program generator (deterministic,
//!   numerically tame, feature-dense);
//! * [`oracle`] — runs one script under a configuration matrix and compares
//!   all outputs (shape-exact, value-approximate at 1e-9 relative);
//! * [`shrink`] — minimizes failing seeds (smaller dims, fewer statements);
//! * [`corpus`] — self-contained `.dml` repro files under `tests/corpus/`,
//!   replayed as a tier-1 test;
//! * [`fuzz`] — the campaign driver behind `sysds fuzz --seed S --iters N`.

#![deny(unsafe_code)]

pub mod corpus;
pub mod fuzz;
pub mod gen;
pub mod oracle;
pub mod shrink;

pub use fuzz::{run, FuzzOptions, FuzzReport};
pub use gen::{generate, GenOptions, Script};
pub use oracle::{check_script, config_matrix, Divergence, REL_TOL};
