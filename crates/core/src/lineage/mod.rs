//! Lineage tracing and reuse of intermediates (paper §3.1).

pub mod cache;
pub mod item;

pub use cache::{CacheStats, LineageCache};
pub use item::LineageItem;
