//! The keyed-cell table behind the timing registry, the audit and the
//! per-site network statistics.
//!
//! A table maps a key (opcode or endpoint) to an all-atomic cell. The read
//! lock covers the common "key already known" case and the write lock is
//! taken only the first time a key appears, so concurrent parfor workers
//! never serialize while recording.

use std::sync::RwLock;
use sysds_common::hash::{FxBuildHasher, FxHashMap};
use sysds_common::sync::{read, write};

pub(crate) struct Table<C>(RwLock<FxHashMap<String, C>>);

impl<C: Default> Table<C> {
    pub(crate) const fn new() -> Table<C> {
        Table(RwLock::new(FxHashMap::with_hasher(FxBuildHasher::new())))
    }

    /// Apply `f` to the cell of `key`, adding an empty cell the first time
    /// the key is seen.
    pub(crate) fn with<R>(&self, key: &str, f: impl FnOnce(&C) -> R) -> R {
        {
            let map = read(&self.0);
            if let Some(cell) = map.get(key) {
                return f(cell);
            }
        }
        f(write(&self.0).entry(key.to_string()).or_default())
    }

    /// One row per cell, in no particular order.
    pub(crate) fn rows<R>(&self, row: impl Fn(&str, &C) -> R) -> Vec<R> {
        read(&self.0).iter().map(|(k, c)| row(k, c)).collect()
    }

    pub(crate) fn clear(&self) {
        write(&self.0).clear();
    }
}
