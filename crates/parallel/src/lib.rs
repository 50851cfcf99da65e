//! # titant-parallel — deterministic parallel iteration for the offline stack
//!
//! The daily T+1 retrain window is a hard wall-clock budget (§5.1: a fresh
//! model "will be trained and deployed in an offline manner on a daily
//! basis"), so every offline stage must scale with cores. External crates
//! are vendored stubs in this build environment (no rayon), so this crate
//! provides the one primitive the whole training stack shares: a
//! [`Pool`] of `std::thread::scope` workers with contiguous-chunk
//! splitting.
//!
//! ## Determinism contract
//!
//! Every helper splits `0..n` into **contiguous chunks in index order** and
//! returns (or writes) results **in chunk order**. A caller that
//!
//! 1. keeps per-element work independent (no cross-chunk reductions), or
//! 2. reduces over the returned per-chunk values in order with an
//!    order-stable operator (e.g. strictly-greater "first wins" argmax),
//!
//! gets bit-identical results for *any* thread count — the property the
//! GBDT trainer's cross-thread determinism test asserts.

#![forbid(unsafe_code)]
// This crate is the one place the workspace starts threads (clippy.toml).
#![allow(clippy::disallowed_methods)]

use std::num::NonZeroUsize;
use std::ops::Range;

/// Resolve a requested worker count: `0` means "auto-detect via
/// [`std::thread::available_parallelism`]", anything else is taken as-is.
/// Always returns at least 1.
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    }
}

/// Split `0..n` into at most `parts` contiguous, near-even, non-empty
/// ranges. Boundaries sit at `i * n / parts`, so two callers chunking the
/// same `n` with the same `parts` agree exactly.
pub fn chunk_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1).min(n);
    (0..parts)
        .map(|i| (i * n / parts)..((i + 1) * n / parts))
        .filter(|r| !r.is_empty())
        .collect()
}

/// The seed of item `index` in a run seeded with `seed`: a SplitMix64
/// finaliser over the pair. Work that seeds its RNG per item (a walk's
/// start node, an SGNS shard) draws the same stream whichever chunk or
/// thread runs it, so its output does not depend on the thread count.
pub fn item_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fixed-width scoped-thread pool.
///
/// Creation is free (no threads are kept alive between calls); each
/// parallel region spawns scoped workers, which keeps borrows of the
/// caller's stack safe without `'static` bounds. The struct exists so one
/// resolved thread count can be threaded through a whole pipeline run and
/// shared concurrently from several stages (`&Pool` is `Sync`).
#[derive(Debug, Clone)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool of `resolve_threads(requested)` workers.
    pub fn new(requested: usize) -> Self {
        Self {
            threads: resolve_threads(requested),
        }
    }

    /// A single-worker pool: every helper runs inline on the caller.
    pub fn serial() -> Self {
        Self { threads: 1 }
    }

    /// Resolved worker count.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `f(chunk_index, range)` over contiguous chunks of `0..n` and
    /// return the per-chunk results **in chunk order**.
    pub fn map_ranges<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, Range<usize>) -> T + Sync,
    {
        let ranges = chunk_ranges(n, self.threads);
        if ranges.len() <= 1 {
            return ranges
                .into_iter()
                .enumerate()
                .map(|(i, r)| f(i, r))
                .collect();
        }
        let f = &f;
        std::thread::scope(|scope| {
            let handles: Vec<_> = ranges
                .into_iter()
                .enumerate()
                .map(|(i, r)| scope.spawn(move || f(i, r)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("pool worker panicked"))
                .collect()
        })
    }

    /// Split `data` into per-worker chunks whose lengths are multiples of
    /// `stride` (rows of a flattened row-major matrix) and run
    /// `f(first_item_index, chunk)` on each. Chunks are disjoint, so every
    /// element is written by exactly one worker — element-wise work is
    /// bit-identical for any thread count.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of `stride`.
    pub fn for_chunks_mut<T, F>(&self, data: &mut [T], stride: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let stride = stride.max(1);
        assert_eq!(data.len() % stride, 0, "data length not a stride multiple");
        let n_items = data.len() / stride;
        let ranges = chunk_ranges(n_items, self.threads);
        if ranges.len() <= 1 {
            if !data.is_empty() {
                f(0, data);
            }
            return;
        }
        let f = &f;
        std::thread::scope(|scope| {
            let mut rest = data;
            for r in ranges {
                let (chunk, tail) = rest.split_at_mut((r.end - r.start) * stride);
                rest = tail;
                scope.spawn(move || f(r.start, chunk));
            }
        });
    }

    /// Like [`Pool::for_chunks_mut`] with `stride == 1`, but over two
    /// equal-length slices split at the same boundaries (e.g. the
    /// gradient/hessian pair of a boosting round).
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    pub fn for_chunks_mut2<A, B, F>(&self, a: &mut [A], b: &mut [B], f: F)
    where
        A: Send,
        B: Send,
        F: Fn(usize, &mut [A], &mut [B]) + Sync,
    {
        assert_eq!(a.len(), b.len(), "paired slices differ in length");
        let ranges = chunk_ranges(a.len(), self.threads);
        if ranges.len() <= 1 {
            if !a.is_empty() {
                f(0, a, b);
            }
            return;
        }
        let f = &f;
        std::thread::scope(|scope| {
            let (mut rest_a, mut rest_b) = (a, b);
            for r in ranges {
                let len = r.end - r.start;
                let (chunk_a, tail_a) = rest_a.split_at_mut(len);
                let (chunk_b, tail_b) = rest_b.split_at_mut(len);
                rest_a = tail_a;
                rest_b = tail_b;
                scope.spawn(move || f(r.start, chunk_a, chunk_b));
            }
        });
    }
}

impl Default for Pool {
    /// Auto-sized pool (`threads: 0`).
    fn default() -> Self {
        Self::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_zero_autodetects() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn chunk_ranges_cover_exactly_once() {
        for n in [0usize, 1, 2, 7, 64, 1000] {
            for parts in [1usize, 2, 3, 8, 1500] {
                let ranges = chunk_ranges(n, parts);
                let mut covered = 0;
                let mut prev_end = 0;
                for r in &ranges {
                    assert_eq!(r.start, prev_end, "contiguous");
                    assert!(!r.is_empty());
                    covered += r.end - r.start;
                    prev_end = r.end;
                }
                assert_eq!(covered, n, "n={n} parts={parts}");
            }
        }
    }

    #[test]
    fn item_seeds_differ_per_item_and_per_run() {
        let seeds: std::collections::HashSet<u64> = (0..1000).map(|i| item_seed(7, i)).collect();
        assert_eq!(seeds.len(), 1000);
        assert_ne!(item_seed(7, 3), item_seed(8, 3));
        assert_eq!(item_seed(7, 3), item_seed(7, 3));
    }

    #[test]
    fn map_ranges_preserves_chunk_order() {
        for threads in [1usize, 2, 4, 7] {
            let pool = Pool::new(threads);
            let sums = pool.map_ranges(100, |_, r| r.sum::<usize>());
            assert_eq!(sums.iter().sum::<usize>(), 4950);
            // Chunk order == index order: starts are increasing.
            let starts = pool.map_ranges(100, |_, r| r.start);
            assert!(starts.windows(2).all(|w| w[0] < w[1]) || starts.len() == 1);
        }
    }

    #[test]
    fn for_chunks_mut_writes_every_element_once() {
        for threads in [1usize, 2, 3, 8] {
            let mut data = vec![0u32; 97];
            Pool::new(threads).for_chunks_mut(&mut data, 1, |off, chunk| {
                for (k, v) in chunk.iter_mut().enumerate() {
                    *v += (off + k) as u32 + 1;
                }
            });
            assert!(data.iter().enumerate().all(|(i, &v)| v == i as u32 + 1));
        }
    }

    #[test]
    fn strided_chunks_align_to_rows() {
        let stride = 4;
        let mut data = vec![0usize; 10 * stride];
        Pool::new(3).for_chunks_mut(&mut data, stride, |first_row, chunk| {
            assert_eq!(chunk.len() % stride, 0);
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = first_row + k / stride; // row index
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i / stride);
        }
    }

    #[test]
    fn paired_chunks_split_at_same_boundaries() {
        let mut a = vec![0i64; 1000];
        let mut b = vec![0i64; 1000];
        Pool::new(4).for_chunks_mut2(&mut a, &mut b, |off, ca, cb| {
            for k in 0..ca.len() {
                ca[k] = (off + k) as i64;
                cb[k] = -((off + k) as i64);
            }
        });
        for i in 0..1000 {
            assert_eq!(a[i], i as i64);
            assert_eq!(b[i], -(i as i64));
        }
    }

    #[test]
    fn empty_inputs_are_noops() {
        let pool = Pool::new(4);
        assert!(pool.map_ranges(0, |_, _| 1).is_empty());
        let mut empty: Vec<u8> = Vec::new();
        pool.for_chunks_mut(&mut empty, 1, |_, _| panic!("must not run"));
    }

    /// Concurrency smoke test: several "pipeline stages" hammer one shared
    /// pool at once (nested scoped regions), as the offline pipeline does
    /// when assembly and upload overlap in tests.
    #[test]
    fn shared_pool_survives_concurrent_stages() {
        let pool = Pool::new(4);
        let totals: Vec<usize> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..6)
                .map(|stage| {
                    let pool = &pool;
                    scope.spawn(move || {
                        let mut acc = 0usize;
                        for round in 0..20 {
                            let parts = pool.map_ranges(500 + stage * 13 + round, |_, r| r.len());
                            acc += parts.iter().sum::<usize>();
                        }
                        acc
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (stage, total) in totals.iter().enumerate() {
            let expected: usize = (0..20).map(|round| 500 + stage * 13 + round).sum();
            assert_eq!(*total, expected);
        }
    }
}
