//! Register-tiled Gram kernels behind the one runtime ISA dispatch point.
//!
//! [`kernel_tier`] picks the dense-kernel tier once per process with
//! `is_x86_feature_detected!`: an `avx512f` kernel, an `avx2,fma` kernel,
//! or [`KernelTier::Blocked`], the portable loops of the other kernel
//! modules. There is no option to pick a tier; a host without AVX2+FMA and
//! every non-x86-64 target run the blocked loops.
//!
//! `upper_gram` computes one row partition of `t(X) %*% X` on a tiled
//! kernel. It walks the rows in k-blocks of `KC` rows, packs each block
//! into column panels of `NR` columns (zero-padded to a multiple of `NR`),
//! and sums every `MR x NR` tile of the upper triangle in vector registers
//! over the block before it adds the tile to the accumulator. Packing also
//! checks that every cell is finite: with finite cells, multiplying a zero
//! cell instead of skipping it adds `+0.0` and changes no result, so the
//! zero-skip and `NaN` semantics of [`super::tsmm`] hold. A non-finite
//! cell stops the kernel, and the caller runs the blocked loop instead.
//!
//! This is the one module of the workspace that holds `unsafe` code:
//! calling a `#[target_feature]` kernel, which rests on the detection, and
//! its vector loads and stores, which rest on bounds asserted before the
//! loops. Every block carries a `SAFETY` comment.

use crate::matrix::DenseMatrix;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Rows per k-block. A packed block of a 256-column input is 256 KiB and
/// stays in L2 cache; one tile's two panel streams (16 KiB and 8 KiB at
/// `NR = 16`) stay in L1.
const KC: usize = 128;

/// Panel width (`NR`) of the AVX-512 kernel: two 8-lane vectors.
const AVX512_NR: usize = 16;

/// Panel width (`NR`) of the AVX2 kernel: two 4-lane vectors.
const AVX2_NR: usize = 8;

/// The dense-kernel tier a process runs, named once in `--stats`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelTier {
    /// 8x16 register tiles with AVX-512 fused multiply-add.
    Avx512f,
    /// 4x8 register tiles with AVX2 fused multiply-add.
    Avx2Fma,
    /// The portable blocked loops; no tiled kernel.
    Blocked,
}

impl KernelTier {
    /// Every tier, fastest first.
    pub const ALL: [KernelTier; 3] = [
        KernelTier::Avx512f,
        KernelTier::Avx2Fma,
        KernelTier::Blocked,
    ];

    /// Whether the host CPU can run this tier.
    pub fn is_supported(self) -> bool {
        match self {
            KernelTier::Blocked => true,
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx512f => is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2Fma => {
                is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

/// The name `--stats` and the run report show.
impl fmt::Display for KernelTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            KernelTier::Avx512f => "avx512f",
            KernelTier::Avx2Fma => "avx2+fma",
            KernelTier::Blocked => "blocked",
        })
    }
}

/// The tier this process runs: the fastest one the host supports,
/// detected on the first call.
pub fn kernel_tier() -> KernelTier {
    static TIER: OnceLock<KernelTier> = OnceLock::new();
    *TIER.get_or_init(|| {
        KernelTier::ALL
            .into_iter()
            .find(|t| t.is_supported())
            .unwrap_or(KernelTier::Blocked)
    })
}

/// `t(X) %*% X` over rows `lo..hi` of `x` on `tier`'s tiled kernel, as a
/// `cols x cols` row-major buffer whose upper triangle holds the result
/// (cells below the diagonal are unspecified). Returns `None`, and sets
/// `stop`, when a cell of those rows is not finite; returns `None` early
/// once `stop` is set, so the other partitions of one call give up too.
///
/// Panics for [`KernelTier::Blocked`] or a tier the host does not support.
pub(crate) fn upper_gram(
    tier: KernelTier,
    x: &DenseMatrix,
    lo: usize,
    hi: usize,
    stop: &AtomicBool,
) -> Option<Vec<f64>> {
    match tier {
        KernelTier::Avx512f => tiled::<AVX512_NR>(tier, x, lo, hi, stop),
        KernelTier::Avx2Fma => tiled::<AVX2_NR>(tier, x, lo, hi, stop),
        KernelTier::Blocked => panic!("the blocked tier has no tiled kernel"),
    }
}

/// The k-block loop of [`upper_gram`] for a kernel with panel width `NR`.
fn tiled<const NR: usize>(
    tier: KernelTier,
    x: &DenseMatrix,
    lo: usize,
    hi: usize,
    stop: &AtomicBool,
) -> Option<Vec<f64>> {
    let n = x.cols();
    if n == 0 {
        return Some(Vec::new());
    }
    let np = n.next_multiple_of(NR);
    let mut panel = vec![0.0f64; KC.min(hi - lo) * np];
    let mut acc = vec![0.0f64; np * np];
    for k0 in (lo..hi).step_by(KC) {
        let kc = KC.min(hi - k0);
        let rows = &x.values()[k0 * n..(k0 + kc) * n];
        if stop.load(Ordering::Relaxed) || !pack::<NR>(rows, n, kc, &mut panel) {
            stop.store(true, Ordering::Relaxed);
            return None;
        }
        run_block(tier, &panel[..kc * np], kc, np, &mut acc);
    }
    // Drop the padding: row `i` moves from offset `i * np` to `i * n`.
    for i in 1..n {
        acc.copy_within(i * np..i * np + n, i * n);
    }
    acc.truncate(n * n);
    Some(acc)
}

/// Pack `kc` rows of `n` cells into column panels of `NR` columns: cell
/// `(k, p * NR + c)` lands at `(p * kc + k) * NR + c`, and the columns of
/// the last panel past `n` are zero. Returns whether every cell is finite.
fn pack<const NR: usize>(rows: &[f64], n: usize, kc: usize, panel: &mut [f64]) -> bool {
    let mut finite = true;
    for (k, row) in rows.chunks_exact(n).enumerate() {
        finite &= row.iter().fold(true, |f, v| f & v.is_finite());
        let mut cells = row.chunks_exact(NR);
        for (p, src) in cells.by_ref().enumerate() {
            panel[(p * kc + k) * NR..][..NR].copy_from_slice(src);
        }
        let tail = cells.remainder();
        if !tail.is_empty() {
            let dst = &mut panel[((n / NR) * kc + k) * NR..][..NR];
            dst[..tail.len()].copy_from_slice(tail);
            dst[tail.len()..].fill(0.0);
        }
    }
    finite
}

/// Add the Gram tiles of one packed k-block to the `np x np` accumulator
/// on `tier`'s kernel.
fn run_block(tier: KernelTier, panel: &[f64], kc: usize, np: usize, acc: &mut [f64]) {
    assert!(
        tier.is_supported(),
        "{tier} kernel on a host without {tier}"
    );
    match tier {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the host supports avx512f, asserted above.
        KernelTier::Avx512f => unsafe { x86::gram_avx512f(panel, kc, np, acc) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the host supports avx2 and fma, asserted above.
        KernelTier::Avx2Fma => unsafe { x86::gram_avx2_fma(panel, kc, np, acc) },
        _ => unreachable!("{tier} has no tiled kernel on this target"),
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// Defines one tiled Gram kernel: for every column panel `q` and every
    /// `MR`-row block `i0` that reaches the upper triangle of that panel,
    /// `MR x NR` accumulators in registers sum `a[k, i0 + r] * b[k, j]`
    /// over the `kc` packed rows in `k` order, then the tile is added to
    /// `acc`. `NR` is `NV` vectors of `LANES` doubles; `MR` divides `NR`.
    macro_rules! gram_kernel {
        (
            $(#[$doc:meta])*
            fn $name:ident, feature = $feature:literal,
            MR = $mr:literal, NR = $nr:expr, LANES = $lanes:literal,
            $zero:ident, $load:ident, $store:ident, $set1:ident, $fmadd:ident, $add:ident
        ) => {
            $(#[$doc])*
            #[target_feature(enable = $feature)]
            pub(super) fn $name(panel: &[f64], kc: usize, np: usize, acc: &mut [f64]) {
                const MR: usize = $mr;
                const NR: usize = $nr;
                const NV: usize = NR / $lanes;
                // The bounds every load and store below rests on.
                assert!(NR % MR == 0 && np % NR == 0);
                assert!(panel.len() >= kc * np && acc.len() >= np * np);
                let (p, c) = (panel.as_ptr(), acc.as_mut_ptr());
                for q in 0..np / NR {
                    let b = q * kc * NR;
                    for i0 in (0..(q + 1) * NR).step_by(MR) {
                        let a = (i0 / NR) * kc * NR + i0 % NR;
                        let mut t = [[$zero(); NV]; MR];
                        for k in 0..kc {
                            let mut bv = [$zero(); NV];
                            for (v, bv) in bv.iter_mut().enumerate() {
                                // SAFETY: b + k * NR + NR <= (q + 1) * kc * NR
                                // <= kc * np <= panel.len().
                                *bv = unsafe { $load(p.add(b + k * NR + v * $lanes)) };
                            }
                            for (r, row) in t.iter_mut().enumerate() {
                                // SAFETY: i0 % NR + r < NR and i0 / NR < np / NR,
                                // so the index is below kc * np <= panel.len().
                                let av = $set1(unsafe { *p.add(a + k * NR + r) });
                                for (tv, bv) in row.iter_mut().zip(bv) {
                                    *tv = $fmadd(av, bv, *tv);
                                }
                            }
                        }
                        for (r, row) in t.iter().enumerate() {
                            for (v, tv) in row.iter().enumerate() {
                                // SAFETY: row i0 + r < (q + 1) * NR <= np and
                                // columns q * NR + v * LANES + LANES <= np, so
                                // the cells lie inside np * np <= acc.len().
                                unsafe {
                                    let dst = c.add((i0 + r) * np + q * NR + v * $lanes);
                                    $store(dst, $add($load(dst), *tv));
                                }
                            }
                        }
                    }
                }
            }
        };
    }

    gram_kernel! {
        /// The AVX-512 kernel: 8x16 tiles, 16 `zmm` accumulators.
        fn gram_avx512f, feature = "avx512f",
        MR = 8, NR = super::AVX512_NR, LANES = 8,
        _mm512_setzero_pd, _mm512_loadu_pd, _mm512_storeu_pd, _mm512_set1_pd,
        _mm512_fmadd_pd, _mm512_add_pd
    }

    gram_kernel! {
        /// The AVX2 kernel: 4x8 tiles, 8 `ymm` accumulators.
        fn gram_avx2_fma, feature = "avx2,fma",
        MR = 4, NR = super::AVX2_NR, LANES = 4,
        _mm256_setzero_pd, _mm256_loadu_pd, _mm256_storeu_pd, _mm256_set1_pd,
        _mm256_fmadd_pd, _mm256_add_pd
    }
}
