//! The multi-level buffer pool (paper §2.3 (3)).
//!
//! The control program "maintains a multi-level buffer pool that is
//! responsible for evicting intermediate variables if necessary" — here a
//! [`BufferPool`] tracks registered [`MatrixHandle`]s, accounts in-memory
//! bytes, and evicts cold matrices to spill files (binary block format)
//! when the configured limit is exceeded. Access through
//! [`MatrixHandle::acquire`] transparently restores evicted data. Spills
//! and restores stream the block through a buffered writer or reader on
//! the spill file, so neither holds a second copy of the matrix in bytes.

use std::hash::Hasher;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use sysds_common::hash::FxHasher64;
use sysds_common::sync::lock;
use sysds_common::{Result, SysDsError};
use sysds_io::binary;
use sysds_tensor::Matrix;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static CLOCK: AtomicU64 = AtomicU64::new(1);

#[derive(Debug)]
struct HandleState {
    /// Handle id — also names the spill file, so it must live in the
    /// state: evictions run through weak pool entries that have no
    /// access to the owning `MatrixHandle`.
    id: u64,
    /// In-memory copy, if cached.
    mem: Option<Arc<Matrix>>,
    /// Spill file, if evicted (kept until drop for cheap re-eviction).
    disk: Option<PathBuf>,
    /// [`checksum`] of the matrix the spill file holds, checked on restore.
    spilled_sum: u64,
    /// Logical shape (known even when evicted).
    shape: (usize, usize),
    sparsity: f64,
    bytes: usize,
    last_access: u64,
}

/// A shared, evictable matrix handle (SystemML's `MatrixObject`).
#[derive(Debug, Clone)]
pub struct MatrixHandle {
    id: u64,
    state: Arc<Mutex<HandleState>>,
}

impl MatrixHandle {
    /// A handle outside any pool (never evicted). A shared matrix is held,
    /// not copied.
    pub fn unmanaged(m: impl Into<Arc<Matrix>>) -> MatrixHandle {
        let m = m.into();
        let bytes = m.in_memory_size();
        let shape = m.shape();
        let sparsity = m.sparsity();
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        MatrixHandle {
            id,
            state: Arc::new(Mutex::new(HandleState {
                id,
                mem: Some(m),
                disk: None,
                spilled_sum: 0,
                shape,
                sparsity,
                bytes,
                last_access: CLOCK.fetch_add(1, Ordering::Relaxed),
            })),
        }
    }

    /// Unique id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Logical shape (available even when evicted).
    pub fn shape(&self) -> Option<(usize, usize)> {
        Some(lock(&self.state).shape)
    }

    /// Sparsity estimate recorded at registration.
    pub fn sparsity(&self) -> Option<f64> {
        Some(lock(&self.state).sparsity)
    }

    /// Whether the matrix currently resides in memory.
    pub fn is_cached(&self) -> bool {
        lock(&self.state).mem.is_some()
    }

    /// In-memory byte estimate.
    pub fn bytes(&self) -> usize {
        lock(&self.state).bytes
    }

    /// Acquire the matrix, restoring from the spill file if evicted.
    pub fn acquire(&self) -> Result<Arc<Matrix>> {
        let mut st = lock(&self.state);
        st.last_access = CLOCK.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = &st.mem {
            return Ok(m.clone());
        }
        let path = st
            .disk
            .clone()
            .ok_or_else(|| SysDsError::runtime("matrix handle has neither memory nor disk copy"))?;
        let _span = sysds_obs::Span::enter(sysds_obs::Phase::BufferPool, "restore");
        let m = Arc::new(binary::read_file(&path, binary::decode_block)?);
        if checksum(&m) != st.spilled_sum {
            return Err(SysDsError::format(format!(
                "spill file {} fails its checksum",
                path.display()
            )));
        }
        sysds_obs::count(|c| &c.buf_restores, 1);
        sysds_obs::count(|c| &c.buf_restored_bytes, binary::block_len(&m) as u64);
        st.mem = Some(m.clone());
        Ok(m)
    }
}

/// A hash of `m`'s shape and non-zero cells: equal for a matrix and its
/// restored spill, whose block drops stored zeros of a sparse matrix.
fn checksum(m: &Matrix) -> u64 {
    let mut h = FxHasher64::default();
    h.write_usize(m.rows());
    h.write_usize(m.cols());
    for (i, j, v) in m.iter_nonzeros().filter(|&(_, _, v)| v != 0.0) {
        h.write_usize(i);
        h.write_usize(j);
        h.write_u64(v.to_bits());
    }
    h.finish()
}

impl HandleState {
    /// Write the matrix to its spill file (once) and drop the in-memory
    /// copy; returns the bytes freed.
    fn evict(&mut self, dir: &std::path::Path) -> Result<usize> {
        if self.mem.is_none() {
            return Ok(0);
        }
        let _span = sysds_obs::Span::enter(sysds_obs::Phase::BufferPool, "evict");
        if self.disk.is_none() {
            let path = dir.join(format!("spill-{}.bin", self.id));
            let m = self.mem.as_ref().unwrap();
            binary::write_file(&path, &[], m)?;
            self.spilled_sum = checksum(m);
            sysds_obs::count(|c| &c.buf_spilled_bytes, binary::block_len(m) as u64);
            self.disk = Some(path);
        }
        sysds_obs::count(|c| &c.buf_evictions, 1);
        self.mem = None;
        Ok(self.bytes)
    }
}

impl Drop for HandleState {
    fn drop(&mut self) {
        if let Some(path) = &self.disk {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// The buffer pool: registered handles + capacity accounting.
#[derive(Debug)]
pub struct BufferPool {
    limit: usize,
    spill_dir: PathBuf,
    entries: Mutex<Vec<Weak<Mutex<HandleState>>>>,
}

impl BufferPool {
    /// Create a pool with the given in-memory byte limit.
    pub fn new(limit: usize, spill_dir: PathBuf) -> Result<BufferPool> {
        std::fs::create_dir_all(&spill_dir)
            .map_err(|e| SysDsError::io(spill_dir.display().to_string(), e))?;
        Ok(BufferPool {
            limit,
            spill_dir,
            entries: Mutex::new(Vec::new()),
        })
    }

    /// Register a new matrix, then enforce the capacity limit.
    pub fn register(&self, m: impl Into<Arc<Matrix>>) -> Result<MatrixHandle> {
        let handle = MatrixHandle::unmanaged(m);
        lock(&self.entries).push(Arc::downgrade(&handle.state));
        self.enforce_limit()?;
        Ok(handle)
    }

    /// Total bytes of live, in-memory registered matrices.
    pub fn cached_bytes(&self) -> usize {
        lock(&self.entries)
            .iter()
            .filter_map(Weak::upgrade)
            .filter_map(|s| {
                let st = lock(&s);
                st.mem.as_ref().map(|_| st.bytes)
            })
            .sum()
    }

    /// Number of live registered handles.
    pub fn live_handles(&self) -> usize {
        lock(&self.entries)
            .iter()
            .filter(|w| w.strong_count() > 0)
            .count()
    }

    /// Evict least-recently-used handles until under the limit.
    fn enforce_limit(&self) -> Result<()> {
        let mut entries = lock(&self.entries);
        entries.retain(|w| w.strong_count() > 0);
        let mut live: Vec<Arc<Mutex<HandleState>>> =
            entries.iter().filter_map(Weak::upgrade).collect();
        drop(entries);
        let mut total: usize = live
            .iter()
            .map(|s| {
                let st = lock(s);
                if st.mem.is_some() {
                    st.bytes
                } else {
                    0
                }
            })
            .sum();
        if total <= self.limit {
            return Ok(());
        }
        // Sort by last access (oldest first).
        live.sort_by_key(|s| lock(s).last_access);
        for state in live {
            if total <= self.limit {
                break;
            }
            total = total.saturating_sub(lock(&state).evict(&self.spill_dir)?);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysds_tensor::kernels::gen;

    fn dir(name: &str) -> PathBuf {
        sysds_common::testing::unique_temp_dir(&format!("sysds-pool-tests-{name}"))
    }

    #[test]
    fn unmanaged_acquire() {
        let m = gen::rand_uniform(5, 5, 0.0, 1.0, 1.0, 201);
        let h = MatrixHandle::unmanaged(m.clone());
        assert!(h.is_cached());
        assert!(h.acquire().unwrap().approx_eq(&m, 0.0));
        assert_eq!(h.shape(), Some((5, 5)));
    }

    #[test]
    fn eviction_and_restore_round_trip() {
        let pool = BufferPool::new(10_000, dir("evict")).unwrap();
        let m1 = gen::rand_uniform(30, 30, 0.0, 1.0, 1.0, 202); // ~7.2 KB
        let m2 = gen::rand_uniform(30, 30, 0.0, 1.0, 1.0, 203);
        let h1 = pool.register(m1.clone()).unwrap();
        let h2 = pool.register(m2.clone()).unwrap();
        // Pool limit fits only one: h1 (older) must have been evicted.
        assert!(!h1.is_cached(), "older handle should be evicted");
        assert!(h2.is_cached());
        // Restore transparently and verify content.
        assert!(h1.acquire().unwrap().approx_eq(&m1, 0.0));
        assert!(h1.is_cached());
    }

    #[test]
    fn lru_order_respected() {
        let pool = BufferPool::new(16_000, dir("lru")).unwrap();
        let h1 = pool
            .register(gen::rand_uniform(30, 30, 0.0, 1.0, 1.0, 204))
            .unwrap();
        let h2 = pool
            .register(gen::rand_uniform(30, 30, 0.0, 1.0, 1.0, 205))
            .unwrap();
        // Touch h1 so h2 becomes the LRU.
        h1.acquire().unwrap();
        let _h3 = pool
            .register(gen::rand_uniform(30, 30, 0.0, 1.0, 1.0, 206))
            .unwrap();
        assert!(h1.is_cached());
        assert!(!h2.is_cached());
    }

    #[test]
    fn cached_bytes_accounting() {
        let pool = BufferPool::new(1 << 20, dir("bytes")).unwrap();
        assert_eq!(pool.cached_bytes(), 0);
        let h = pool
            .register(gen::rand_uniform(10, 10, 0.0, 1.0, 1.0, 207))
            .unwrap();
        assert_eq!(pool.cached_bytes(), h.bytes());
        drop(h);
        // dropped handles no longer count
        let _ = pool
            .register(gen::rand_uniform(2, 2, 0.0, 1.0, 1.0, 208))
            .unwrap();
        assert!(pool.cached_bytes() < 1000);
    }

    #[test]
    fn spill_files_cleaned_on_drop() {
        let d = dir("cleanup");
        let pool = BufferPool::new(100, d.clone()).unwrap();
        let h = pool
            .register(gen::rand_uniform(20, 20, 0.0, 1.0, 1.0, 209))
            .unwrap();
        assert!(!h.is_cached()); // limit 100 bytes → immediate eviction
        let files = std::fs::read_dir(&d).unwrap().count();
        assert_eq!(files, 1);
        drop(h);
        let files = std::fs::read_dir(&d).unwrap().count();
        assert_eq!(files, 0, "spill file removed with last handle");
    }

    #[test]
    fn eviction_and_restore_update_obs_counters() {
        sysds_obs::enable_stats();
        let before = sysds_obs::counters().snapshot();
        let pool = BufferPool::new(1, dir("obs-counters")).unwrap();
        let m = gen::rand_uniform(40, 40, -1.0, 1.0, 1.0, 211);
        let h = pool.register(m.clone()).unwrap();
        assert!(!h.is_cached(), "limit of 1 byte forces eviction");
        let back = h.acquire().unwrap();
        assert!(
            back.approx_eq(&m, 0.0),
            "restore must be bit-identical to the spilled data"
        );
        // Deltas are `>=` because the counters are global and other tests
        // in this process may evict concurrently.
        let after = sysds_obs::counters().snapshot();
        assert!(after.buf_evictions > before.buf_evictions);
        assert!(after.buf_restores > before.buf_restores);
        // 40x40 dense f64 payload: well over 10 KB on disk, both ways.
        assert!(after.buf_spilled_bytes >= before.buf_spilled_bytes + 10_000);
        assert!(after.buf_restored_bytes >= before.buf_restored_bytes + 10_000);
    }

    /// A pool that evicted `m` at once, its handle and the spill file.
    fn evicted(name: &str, m: &Matrix) -> (BufferPool, MatrixHandle, PathBuf) {
        let d = dir(name);
        let pool = BufferPool::new(1, d.clone()).unwrap();
        let h = pool.register(m.clone()).unwrap();
        assert!(!h.is_cached());
        let path = std::fs::read_dir(&d)
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        (pool, h, path)
    }

    #[test]
    fn spill_file_holds_the_block_encoding() {
        let m = gen::rand_uniform(30, 20, -1.0, 1.0, 1.0, 212);
        let (_pool, _h, path) = evicted("encoding", &m);
        let mut block = Vec::new();
        binary::encode_block(&m, &mut block).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), block);
    }

    #[test]
    fn damaged_spill_files_are_format_errors() {
        let m = gen::rand_uniform(30, 20, -1.0, 1.0, 1.0, 213);
        // One value cut off; rows 30 made 31 by flipping bit 0 of byte 1;
        // cell 5's exponent changed by flipping bit 6 of its top byte.
        let damages: [fn(&mut Vec<u8>); 3] = [
            |b| b.truncate(b.len() - 8),
            |b| b[1] ^= 1,
            |b| b[17 + 5 * 8 + 7] ^= 0x40,
        ];
        for damage in damages {
            let (_pool, h, path) = evicted("damaged", &m);
            let mut bytes = std::fs::read(&path).unwrap();
            damage(&mut bytes);
            std::fs::write(&path, bytes).unwrap();
            let r = h.acquire();
            assert!(matches!(r, Err(SysDsError::Format(_))), "{r:?}");
        }
    }

    #[test]
    fn sparse_matrices_survive_eviction() {
        let pool = BufferPool::new(1, dir("sparse")).unwrap();
        let m = gen::rand_uniform(50, 50, -1.0, 1.0, 0.05, 210).compact();
        assert!(m.is_sparse());
        let h = pool.register(m.clone()).unwrap();
        assert!(!h.is_cached());
        let back = h.acquire().unwrap();
        assert!(back.approx_eq(&m, 0.0));
        assert!(back.is_sparse());
    }
}
