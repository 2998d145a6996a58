//! The lineage-keyed reuse cache with full and partial reuse (paper §3.1).
//!
//! "We establish a cache, where intermediates are identified by their
//! lineage (hash over the lineage DAG). Before executing an instruction,
//! we update the output lineage and probe the cache for full or partial
//! reuse. Partial reuse computes an output via a compensation plan over
//! cached intermediates."
//!
//! The implemented compensation plans cover the `steplm` pattern of
//! Example 1, where a feature column is cbind-appended between what-if
//! model trainings:
//!
//! * `tsmm(cbind(A, b))` = `[[tsmm(A), t(A)b], [t(b)A, t(b)b]]`
//! * `tmv(cbind(A, b), y)` = `rbind(tmv(A, y), t(b)y)`
//!
//! The map is keyed on the 64-bit lineage hash, and every entry keeps its
//! lineage DAG: a probe hits only when the stored DAG is structurally equal
//! to the probed one, so two lineages whose hashes collide never share a
//! value.
//!
//! An entry holds the result's buffer-pool handle, not the matrix: a hit
//! hands out that same handle, so the pool counts a cached value once and
//! may spill it like any other variable; a probe that reads it restores it.

use super::item::LineageItem;
use crate::runtime::bufferpool::MatrixHandle;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, Mutex};
use sysds_common::config::ReusePolicy;
use sysds_common::hash::FxHashMap;
use sysds_common::sync::lock;
use sysds_common::Result;
use sysds_tensor::kernels::{indexing, matmult, reorg, tsmm as tsmm_k};
use sysds_tensor::Matrix;

/// Cache statistics exposed for experiments (Fig. 5(c)/(d)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub partial_hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

#[derive(Debug)]
struct CacheEntry {
    /// The lineage the value was computed from; confirms hash matches.
    lineage: Arc<LineageItem>,
    value: MatrixHandle,
    bytes: usize,
    last_access: u64,
    /// Time the original computation took (cost-aware eviction keeps
    /// expensive entries longer).
    compute_nanos: u128,
}

/// The lineage reuse cache.
#[derive(Debug)]
pub struct LineageCache {
    policy: ReusePolicy,
    limit: usize,
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    map: FxHashMap<u64, CacheEntry>,
    bytes: usize,
    clock: u64,
    stats: CacheStats,
}

impl Inner {
    /// The value cached under a lineage structurally equal to `lineage`.
    fn lookup(&mut self, lineage: &LineageItem) -> Option<MatrixHandle> {
        self.clock += 1;
        let clock = self.clock;
        let e = self.map.get_mut(&lineage.hash)?;
        if *e.lineage != *lineage {
            return None;
        }
        e.last_access = clock;
        Some(e.value.clone())
    }

    /// Evict entries until at most `limit` bytes remain, cheapest to
    /// recompute first and least recently used among equals; returns the
    /// victims in eviction order. Entries with equal keys leave in map
    /// iteration order.
    ///
    /// The entries go into a heap in one pass, keyed by their position in
    /// the map as the last tie-break, and the heap is popped only as far as
    /// the limit needs: `k` victims among `n` entries cost `O(n + k log n)`,
    /// not `k` scans of the map.
    fn evict_to(&mut self, limit: usize) -> Vec<u64> {
        let mut victims = Vec::new();
        if self.bytes <= limit {
            return victims;
        }
        let mut order: BinaryHeap<_> = self
            .map
            .iter()
            .enumerate()
            .map(|(pos, (&h, e))| Reverse((e.compute_nanos, e.last_access, pos, h)))
            .collect();
        while self.bytes > limit {
            let Reverse((_, _, _, h)) = order
                .pop()
                .expect("entries remain while the cache is over its limit");
            let e = self.map.remove(&h).expect("every heap entry is in the map");
            self.bytes -= e.bytes;
            self.stats.evictions += 1;
            sysds_obs::count(|c| &c.lin_evictions, 1);
            victims.push(h);
        }
        victims
    }
}

/// Minimum compute time for an intermediate to be admitted; cheap ops are
/// faster to recompute than to cache (SystemML's cost-based admission).
const MIN_COMPUTE_NANOS: u128 = 50_000; // 50µs

impl LineageCache {
    /// Create a cache with the given policy and byte limit.
    pub fn new(policy: ReusePolicy, limit: usize) -> LineageCache {
        LineageCache {
            policy,
            limit,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> CacheStats {
        lock(&self.inner).stats
    }

    /// Bytes currently cached.
    pub fn bytes(&self) -> usize {
        lock(&self.inner).bytes
    }

    /// Probe for a full match of `lineage`.
    pub fn probe(&self, lineage: &Arc<LineageItem>) -> Option<MatrixHandle> {
        if self.policy == ReusePolicy::None {
            return None;
        }
        let mut inner = lock(&self.inner);
        let hit = inner.lookup(lineage);
        if hit.is_some() {
            inner.stats.hits += 1;
            sysds_obs::count(|c| &c.lin_hits, 1);
        } else {
            inner.stats.misses += 1;
            sysds_obs::count(|c| &c.lin_misses, 1);
        }
        hit
    }

    /// Probe for partial reuse of `tsmm(cbind(A, b))` given the
    /// materialized `cbind` result `xi`. On a hit, assembles the output
    /// from the cached `tsmm(A)` plus the compensation products.
    pub fn probe_partial_tsmm(
        &self,
        lineage: &Arc<LineageItem>,
        xi: &Matrix,
        threads: usize,
    ) -> Result<Option<Arc<Matrix>>> {
        if self.policy != ReusePolicy::FullAndPartial {
            return Ok(None);
        }
        // Pattern: tsmm over a cbind lineage.
        let input = match lineage.inputs.as_slice() {
            [one] if one.opcode == "cbind" => one,
            _ => return Ok(None),
        };
        let base_lineage = LineageItem::node("tsmm", vec![input.inputs[0].clone()]);
        let Some(gram_a) = lock(&self.inner).lookup(&base_lineage) else {
            return Ok(None);
        };
        let gram_a = gram_a.acquire()?;
        let k = gram_a.rows();
        let m = xi.cols();
        if k >= m || xi.rows() == 0 {
            return Ok(None);
        }
        // Compensation plan: corner blocks from the appended columns.
        let a = indexing::slice(xi, 0..xi.rows(), 0..k)?;
        let b = indexing::slice(xi, 0..xi.rows(), k..m)?;
        let cross = matmult::matmul(&reorg::transpose(&a, threads), &b, threads)?; // k x (m-k)
        let corner = tsmm_k::tsmm(&b, threads, true); // (m-k) x (m-k)
        let top = indexing::cbind(&gram_a, &cross)?;
        let bottom = indexing::cbind(&reorg::transpose(&cross, threads), &corner)?;
        let full = indexing::rbind(&top, &bottom)?;
        lock(&self.inner).stats.partial_hits += 1;
        sysds_obs::count(|c| &c.lin_partial_hits, 1);
        Ok(Some(Arc::new(full)))
    }

    /// Probe for partial reuse of `tmv(cbind(A, b), y)`.
    pub fn probe_partial_tmv(
        &self,
        lineage: &Arc<LineageItem>,
        xi: &Matrix,
        y: &Matrix,
        threads: usize,
    ) -> Result<Option<Arc<Matrix>>> {
        if self.policy != ReusePolicy::FullAndPartial {
            return Ok(None);
        }
        let (x_lin, y_lin) = match lineage.inputs.as_slice() {
            [x, y] if x.opcode == "cbind" => (x, y),
            _ => return Ok(None),
        };
        let base = LineageItem::node("tmv", vec![x_lin.inputs[0].clone(), y_lin.clone()]);
        let Some(tmv_a) = lock(&self.inner).lookup(&base) else {
            return Ok(None);
        };
        let tmv_a = tmv_a.acquire()?;
        let k = tmv_a.rows();
        let m = xi.cols();
        if k >= m || xi.rows() == 0 {
            return Ok(None);
        }
        let b = indexing::slice(xi, 0..xi.rows(), k..m)?;
        let tail = tsmm_k::tmv(&b, y, threads)?;
        let full = indexing::rbind(&tmv_a, &tail)?;
        lock(&self.inner).stats.partial_hits += 1;
        sysds_obs::count(|c| &c.lin_partial_hits, 1);
        Ok(Some(Arc::new(full)))
    }

    /// Offer a computed intermediate's handle for caching. Admission is
    /// cost-based: only values whose computation took at least 50µs are
    /// kept.
    pub fn put(&self, lineage: &Arc<LineageItem>, value: &MatrixHandle, compute_nanos: u128) {
        if self.policy == ReusePolicy::None || compute_nanos < MIN_COMPUTE_NANOS {
            return;
        }
        let bytes = value.bytes();
        if bytes > self.limit / 2 {
            return; // single entry would dominate the cache
        }
        let mut inner = lock(&self.inner);
        if inner.map.contains_key(&lineage.hash) {
            return; // already cached, or a colliding lineage holds the slot
        }
        inner.clock += 1;
        let clock = inner.clock;
        inner.bytes += bytes;
        inner.map.insert(
            lineage.hash,
            CacheEntry {
                lineage: lineage.clone(),
                value: value.clone(),
                bytes,
                last_access: clock,
                compute_nanos,
            },
        );
        inner.evict_to(self.limit);
    }

    /// Drop all entries (e.g. between experiments).
    pub fn clear(&self) {
        let mut inner = lock(&self.inner);
        inner.map.clear();
        inner.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysds_tensor::kernels::gen;

    const BIG: u128 = 1_000_000; // 1ms, above the admission threshold

    fn handle(m: Matrix) -> MatrixHandle {
        MatrixHandle::unmanaged(m)
    }

    fn cache() -> LineageCache {
        LineageCache::new(ReusePolicy::FullAndPartial, 1 << 20)
    }

    #[test]
    fn full_reuse_round_trip() {
        let c = cache();
        let lin = LineageItem::node("tsmm", vec![LineageItem::leaf("input:X")]);
        assert!(c.probe(&lin).is_none());
        let m = handle(gen::rand_uniform(5, 5, 0.0, 1.0, 1.0, 301));
        c.put(&lin, &m, BIG);
        let hit = c.probe(&lin).unwrap();
        assert_eq!(hit.id(), m.id(), "a hit hands out the cached handle");
        let stats = c.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn colliding_lineages_do_not_share_values() {
        // Two 16-byte leaf strings with equal FxHash values.
        let a = LineageItem::leaf("read:6n,E4e_byU?");
        let b = LineageItem::leaf("read:1d&S4e_bYhx");
        assert_eq!(a.hash, b.hash);
        let tsmm_a = LineageItem::node("tsmm", vec![a.clone()]);
        let tsmm_b = LineageItem::node("tsmm", vec![b.clone()]);
        assert_eq!(tsmm_a.hash, tsmm_b.hash);

        let c = cache();
        c.put(&tsmm_a, &handle(Matrix::filled(3, 3, 1.0)), BIG);
        assert!(
            c.probe(&tsmm_b).is_none(),
            "full probe hit a colliding lineage"
        );
        assert!(c.probe(&tsmm_a).is_some());
        assert_eq!((c.stats().hits, c.stats().misses), (1, 1));

        // The partial-reuse base lookup checks the lineage too.
        let col = LineageItem::leaf("obj:col");
        let probe = LineageItem::node("tsmm", vec![LineageItem::node("cbind", vec![b, col])]);
        let xi = gen::rand_uniform(10, 4, 0.0, 1.0, 1.0, 311);
        assert!(c.probe_partial_tsmm(&probe, &xi, 1).unwrap().is_none());
        assert_eq!(c.stats().partial_hits, 0);
    }

    /// A loop body that recomputes the same value over a loop-invariant
    /// input builds a new, structurally equal lineage every iteration: the
    /// first iteration misses, the rest hit.
    #[test]
    fn loop_invariant_iterations_hit_after_first() {
        let c = LineageCache::new(ReusePolicy::Full, 1 << 20);
        let x = LineageItem::leaf("input:X");
        let value = handle(Matrix::filled(4, 4, 2.5));
        for i in 0..10 {
            let lin = LineageItem::node("tsmm", vec![LineageItem::node("exp", vec![x.clone()])]);
            match c.probe(&lin) {
                Some(v) => assert_eq!(v.id(), value.id(), "iteration {i} got stale data"),
                None => c.put(&lin, &value, BIG),
            }
        }
        let stats = c.stats();
        assert_eq!((stats.hits, stats.misses), (9, 1));
    }

    /// `parfor`-style iterations over different columns get distinct keys:
    /// no iteration hits another's value, and a second sweep hits each
    /// iteration's own value.
    #[test]
    fn parfor_iterations_keyed_by_entry_no_false_hits() {
        let c = LineageCache::new(ReusePolicy::Full, 1 << 20);
        let lin = |i: usize| {
            let col = LineageItem::node(
                format!("rightIndex:{i}"),
                vec![LineageItem::leaf("input:X")],
            );
            LineageItem::node("tsmm", vec![col])
        };
        for i in 0..6 {
            assert!(
                c.probe(&lin(i)).is_none(),
                "iteration {i} hit another's entry"
            );
            c.put(&lin(i), &handle(Matrix::filled(2, 2, i as f64)), BIG);
        }
        assert_eq!((c.stats().hits, c.stats().misses), (0, 6));
        for i in 0..6 {
            let v = c.probe(&lin(i)).expect("second sweep must hit");
            let v = v.acquire().unwrap();
            assert_eq!(v.get(0, 0), i as f64, "iteration {i} got another's value");
        }
        assert_eq!((c.stats().hits, c.stats().misses), (6, 6));
    }

    #[test]
    fn disabled_policy_never_caches() {
        let c = LineageCache::new(ReusePolicy::None, 1 << 20);
        let lin = LineageItem::leaf("x");
        c.put(&lin, &handle(Matrix::zeros(2, 2)), BIG);
        assert!(c.probe(&lin).is_none());
    }

    #[test]
    fn cheap_computations_not_admitted() {
        let c = cache();
        let lin = LineageItem::leaf("cheap");
        c.put(&lin, &handle(Matrix::zeros(2, 2)), 10); // 10ns
        assert!(c.probe(&lin).is_none());
    }

    #[test]
    fn eviction_respects_limit() {
        let c = LineageCache::new(ReusePolicy::Full, 20_000);
        for k in 0..10 {
            let lin = LineageItem::leaf(format!("m{k}"));
            c.put(
                &lin,
                &handle(gen::rand_uniform(20, 20, 0.0, 1.0, 1.0, k as u64)),
                BIG,
            );
        }
        assert!(c.bytes() <= 20_000);
        assert!(c.stats().evictions > 0);
    }

    /// The eviction loop `put` ran before: a scan of the whole map per
    /// victim. Entries are `hash -> (compute_nanos, last_access, bytes)`.
    fn evict_by_rescan(
        map: &mut FxHashMap<u64, (u128, u64, usize)>,
        bytes: &mut usize,
        limit: usize,
    ) -> Vec<u64> {
        let mut victims = Vec::new();
        while *bytes > limit {
            let Some(h) = map.iter().min_by_key(|(_, e)| (e.0, e.1)).map(|(&h, _)| h) else {
                break;
            };
            *bytes -= map.remove(&h).expect("victim is in the map").2;
            victims.push(h);
        }
        victims
    }

    #[test]
    fn one_ordering_evicts_as_the_rescan_loop_did() {
        let value = handle(Matrix::zeros(1, 1));
        let mut rng = sysds_common::rng::XorShift64::new(17);
        for round in 0..200 {
            let mut inner = Inner::default();
            let mut model = FxHashMap::default();
            for k in 0..rng.next_u64() % 40 {
                // Few distinct costs and access times, so keys tie often,
                // in cost alone and in both.
                let (nanos, last_access) = (rng.next_u64() % 3, rng.next_u64() % 6);
                let bytes = 1 + (rng.next_u64() % 100) as usize;
                let h = k.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ round;
                model.insert(h, (BIG * u128::from(nanos), last_access, bytes));
                inner.bytes += bytes;
                inner.map.insert(
                    h,
                    CacheEntry {
                        lineage: LineageItem::leaf(format!("e{k}")),
                        value: value.clone(),
                        bytes,
                        last_access,
                        compute_nanos: BIG * u128::from(nanos),
                    },
                );
            }
            let limit = (rng.next_u64() % (inner.bytes as u64 + 1)) as usize;
            let mut model_bytes = inner.bytes;
            let expect = evict_by_rescan(&mut model, &mut model_bytes, limit);
            assert_eq!(inner.evict_to(limit), expect, "round {round}");
            assert_eq!(inner.stats.evictions, expect.len() as u64);
            assert_eq!(inner.bytes, model_bytes);
            assert!(inner.map.keys().all(|h| model.contains_key(h)));
            assert_eq!(inner.map.len(), model.len());
        }
    }

    #[test]
    fn partial_tsmm_compensation_is_exact() {
        let c = cache();
        let n = 40;
        let xg = gen::rand_uniform(n, 6, -1.0, 1.0, 1.0, 302);
        let xi_col = gen::rand_uniform(n, 1, -1.0, 1.0, 1.0, 303);
        let xi = indexing::cbind(&xg, &xi_col).unwrap();

        // Cache tsmm(Xg) under its lineage.
        let lin_xg = LineageItem::leaf("obj:Xg");
        let lin_col = LineageItem::leaf("obj:col");
        let lin_tsmm_xg = LineageItem::node("tsmm", vec![lin_xg.clone()]);
        c.put(&lin_tsmm_xg, &handle(tsmm_k::tsmm(&xg, 1, false)), BIG);

        // Probe tsmm(cbind(Xg, col)).
        let lin_cbind = LineageItem::node("cbind", vec![lin_xg, lin_col]);
        let lin_tsmm_xi = LineageItem::node("tsmm", vec![lin_cbind]);
        let got = c.probe_partial_tsmm(&lin_tsmm_xi, &xi, 1).unwrap().unwrap();
        let expect = tsmm_k::tsmm(&xi, 1, false);
        assert!(got.approx_eq(&expect, 1e-9));
        assert_eq!(c.stats().partial_hits, 1);
    }

    #[test]
    fn partial_tsmm_misses_without_base_entry() {
        let c = cache();
        let lin_cbind = LineageItem::node(
            "cbind",
            vec![LineageItem::leaf("obj:A"), LineageItem::leaf("obj:b")],
        );
        let lin = LineageItem::node("tsmm", vec![lin_cbind]);
        let xi = gen::rand_uniform(10, 3, 0.0, 1.0, 1.0, 304);
        assert!(c.probe_partial_tsmm(&lin, &xi, 1).unwrap().is_none());
    }

    #[test]
    fn partial_tmv_compensation_is_exact() {
        let c = cache();
        let n = 30;
        let xg = gen::rand_uniform(n, 4, -1.0, 1.0, 1.0, 305);
        let col = gen::rand_uniform(n, 1, -1.0, 1.0, 1.0, 306);
        let y = gen::rand_uniform(n, 1, -1.0, 1.0, 1.0, 307);
        let xi = indexing::cbind(&xg, &col).unwrap();

        let lin_xg = LineageItem::leaf("obj:Xg");
        let lin_col = LineageItem::leaf("obj:col");
        let lin_y = LineageItem::leaf("obj:y");
        let base = LineageItem::node("tmv", vec![lin_xg.clone(), lin_y.clone()]);
        c.put(&base, &handle(tsmm_k::tmv(&xg, &y, 1).unwrap()), BIG);

        let lin_cbind = LineageItem::node("cbind", vec![lin_xg, lin_col]);
        let probe_lin = LineageItem::node("tmv", vec![lin_cbind, lin_y]);
        let got = c
            .probe_partial_tmv(&probe_lin, &xi, &y, 1)
            .unwrap()
            .unwrap();
        let expect = tsmm_k::tmv(&xi, &y, 1).unwrap();
        assert!(got.approx_eq(&expect, 1e-9));
    }

    #[test]
    fn partial_reuse_disabled_under_full_policy() {
        let c = LineageCache::new(ReusePolicy::Full, 1 << 20);
        let lin_cbind = LineageItem::node(
            "cbind",
            vec![LineageItem::leaf("obj:A"), LineageItem::leaf("obj:b")],
        );
        let lin = LineageItem::node("tsmm", vec![lin_cbind]);
        let xi = gen::rand_uniform(10, 3, 0.0, 1.0, 1.0, 308);
        assert!(c.probe_partial_tsmm(&lin, &xi, 1).unwrap().is_none());
    }

    #[test]
    fn oversized_entries_rejected() {
        let c = LineageCache::new(ReusePolicy::Full, 1000);
        let lin = LineageItem::leaf("big");
        c.put(
            &lin,
            &handle(gen::rand_uniform(50, 50, 0.0, 1.0, 1.0, 309)),
            BIG,
        );
        assert!(c.probe(&lin).is_none());
    }

    #[test]
    fn clear_resets_contents() {
        let c = cache();
        let lin = LineageItem::leaf("x");
        c.put(
            &lin,
            &handle(gen::rand_uniform(5, 5, 0.0, 1.0, 1.0, 310)),
            BIG,
        );
        assert!(c.probe(&lin).is_some());
        c.clear();
        assert!(c.probe(&lin).is_none());
        assert_eq!(c.bytes(), 0);
    }
}
