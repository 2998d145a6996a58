//! Shared foundations for the `systemds-rs` workspace.
//!
//! This crate hosts the pieces every other crate needs: the workspace-wide
//! error type ([`SysDsError`]), the value-type lattice of the heterogeneous
//! tensor data model ([`ValueType`], [`ScalarValue`]), engine configuration
//! ([`config::EngineConfig`]), a fast non-cryptographic hasher used for
//! lineage keys ([`hash`]), the one JSON reader ([`json`]), the one
//! parallel-loop entry point ([`par`]), small deterministic RNG utilities
//! ([`rng`]), lock helpers that ignore poisoning ([`sync`]), and test
//! support ([`testing`]).

#![deny(unsafe_code)]

pub mod config;
pub mod error;
pub mod hash;
pub mod json;
pub mod par;
pub mod rng;
pub mod sync;
pub mod testing;
pub mod value;

pub use config::{EngineConfig, NetConfig};
pub use error::{Result, SysDsError};
pub use value::{ScalarValue, ValueType};
