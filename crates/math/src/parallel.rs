//! Scoped-thread data-parallel helpers.
//!
//! The HPC guides for this workspace present two idioms: rayon-style
//! parallel iterators, and scoped threads over disjoint chunks. This module
//! provides the scoped-chunk one on `std::thread::scope`: split a buffer
//! (or an index range) into bands, hand each band to a scoped worker, and
//! join. Workers own disjoint `&mut` regions, so the compiler proves
//! data-race freedom — no locks, no atomics on the hot path.
//!
//! These helpers are where the registry's parallelism lives: executor jobs
//! ([`par_map_dynamic_stats`]) and the §2.5 `parallelize` schedule
//! primitive ([`for_each_band`]). The math kernels themselves (GEMM, conv)
//! run on one thread.
//!
//! Two scheduling policies are provided for index-range maps:
//!
//! * **static** ([`par_map`]) — contiguous bands, one per worker, fixed up
//!   front. Zero coordination, but a worker whose band holds the expensive
//!   items becomes the critical path while the others idle.
//! * **dynamic** ([`par_map_dynamic`]) — a self-scheduling work queue:
//!   workers repeatedly claim the next chunk of indices from a shared
//!   atomic counter, compute out of order, and the results are merged back
//!   in **index order** after the join. Output is therefore bitwise
//!   identical to the sequential map regardless of which worker computed
//!   what, or in what order — scheduling moves wall-clock time, never
//!   results.
//!
//! Both are deterministic in the only sense that matters here (output ==
//! sequential output); dynamic additionally keeps workers busy under
//! skewed per-item costs, and reports per-worker load via [`SchedStats`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Splits `buf` into `threads` near-equal bands of whole rows (each row is
/// `row_len` elements) and runs `f(first_row_index, band)` on each band in
/// its own scoped thread.
///
/// Bands are maximal prefixes: band `t` starts at row
/// `t * ceil(rows / threads)`. If `buf` is empty or `threads <= 1`, `f` runs
/// inline on the whole buffer.
///
/// # Panics
///
/// Panics if `row_len == 0` or `buf.len()` is not a multiple of `row_len`.
pub fn for_each_band(
    buf: &mut [f64],
    row_len: usize,
    threads: usize,
    f: impl Fn(usize, &mut [f64]) + Sync,
) {
    assert!(row_len > 0, "row_len must be positive");
    assert_eq!(buf.len() % row_len, 0, "buffer not a whole number of rows");
    let rows = buf.len() / row_len;
    if threads <= 1 || rows <= 1 {
        f(0, buf);
        return;
    }
    let band_rows = rows.div_ceil(threads);
    std::thread::scope(|s| {
        let mut rest = buf;
        let mut row0 = 0;
        while !rest.is_empty() {
            let take = (band_rows * row_len).min(rest.len());
            let (band, tail) = rest.split_at_mut(take);
            let fr = &f;
            let start = row0;
            s.spawn(move || fr(start, band));
            row0 += take / row_len;
            rest = tail;
        }
    });
}

/// Applies `f` to every index in `0..n` across `threads` scoped workers and
/// collects the results in index order — **static** scheduling.
///
/// Work is split into contiguous ranges, one per worker; each worker fills
/// its own disjoint band of `Option<T>` slots, so any `Send` result type
/// works (no `Default + Clone` required). Deterministic: output order
/// never depends on thread scheduling.
pub fn par_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let band = n.div_ceil(threads);
    std::thread::scope(|s| {
        let mut rest = out.as_mut_slice();
        let mut i0 = 0;
        while !rest.is_empty() {
            let take = band.min(rest.len());
            let (chunk, tail) = rest.split_at_mut(take);
            let fr = &f;
            let start = i0;
            s.spawn(move || {
                for (k, slot) in chunk.iter_mut().enumerate() {
                    *slot = Some(fr(start + k));
                }
            });
            i0 += take;
            rest = tail;
        }
    });
    out.into_iter().map(|o| o.expect("worker filled every slot")).collect()
}

/// Per-worker load accounting for one [`par_map_dynamic_stats`] call.
///
/// Busy seconds are measured inside each worker (claim loop entry to
/// exit), so the vector exposes load imbalance directly: a static
/// schedule over skewed costs shows one hot worker and idle peers, a
/// dynamic schedule shows near-equal entries. Timing is environment, not
/// result — nothing here feeds fingerprints.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchedStats {
    /// Workers actually spawned (≤ the requested thread count; never more
    /// than the number of chunks).
    pub workers: usize,
    /// Chunk size used (indices claimed per atomic increment).
    pub chunk: usize,
    /// Per-worker busy seconds, in worker-spawn order.
    pub busy_seconds: Vec<f64>,
    /// Per-worker count of chunks claimed.
    pub chunks_claimed: Vec<usize>,
    /// Per-worker count of items computed.
    pub items: Vec<usize>,
}

impl SchedStats {
    fn sequential(n: usize, chunk: usize, busy: f64) -> Self {
        Self {
            workers: 1,
            chunk,
            busy_seconds: vec![busy],
            chunks_claimed: vec![n.div_ceil(chunk.max(1))],
            items: vec![n],
        }
    }
}

/// Chunk size for [`par_map_dynamic`]: aims for ~8 claims per worker, so
/// imbalance is bounded by roughly an eighth of a static band while the
/// shared counter is touched rarely enough not to matter. Always ≥ 1.
pub fn adaptive_chunk(n: usize, threads: usize) -> usize {
    (n / (threads.max(1) * 8)).max(1)
}

/// Applies `f` to every index in `0..n` with **deterministic dynamic
/// scheduling**: workers claim chunks of indices from a shared atomic
/// counter (so expensive items never strand their band-mates on one
/// worker), compute out of order, and results are merged back in index
/// order after the join.
///
/// The output is bitwise-identical to `(0..n).map(f).collect()` for every
/// thread count and chunk size — only wall-clock time depends on the
/// schedule. Chunk size is chosen by [`adaptive_chunk`], as the executor
/// chooses it. Each worker collects its chunks into its own `Vec` and the
/// merge runs after the join, so no two workers write one output line.
pub fn par_map_dynamic<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_dynamic_stats(n, threads, adaptive_chunk(n, threads), f).0
}

/// [`par_map_dynamic`] with an explicit chunk size, returning per-worker
/// [`SchedStats`] alongside the (index-ordered, scheduling-independent)
/// results.
///
/// # Panics
///
/// Panics if `chunk == 0`.
pub fn par_map_dynamic_stats<T, F>(
    n: usize,
    threads: usize,
    chunk: usize,
    f: F,
) -> (Vec<T>, SchedStats)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    if threads <= 1 || n <= 1 {
        // treu-lint: allow(wall-clock, reason = "per-worker busy time is report-only load accounting")
        let t0 = Instant::now();
        let out: Vec<T> = (0..n).map(f).collect();
        return (out, SchedStats::sequential(n, chunk, t0.elapsed().as_secs_f64()));
    }
    // Each worker returns (claimed parts, chunks claimed, busy seconds);
    // parts carry their start index so the merge below is order-free.
    type WorkerYield<T> = (Vec<(usize, Vec<T>)>, usize, f64);
    // Never spawn more workers than there are chunks to claim.
    let workers = threads.min(n.div_ceil(chunk)).max(1);
    let counter = AtomicUsize::new(0);
    let mut per_worker: Vec<WorkerYield<T>> = Vec::with_capacity(workers);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let fr = &f;
                let ctr = &counter;
                s.spawn(move || {
                    // treu-lint: allow(wall-clock, reason = "per-worker busy time is report-only load accounting")
                    let t0 = Instant::now();
                    let mut parts: Vec<(usize, Vec<T>)> = Vec::new();
                    let mut claimed = 0usize;
                    loop {
                        let start = ctr.fetch_add(chunk, Ordering::SeqCst);
                        if start >= n {
                            break;
                        }
                        let end = (start + chunk).min(n);
                        parts.push((start, (start..end).map(fr).collect()));
                        claimed += 1;
                    }
                    (parts, claimed, t0.elapsed().as_secs_f64())
                })
            })
            .collect();
        for h in handles {
            per_worker.push(h.join().expect("dynamic map worker panicked"));
        }
    });
    // Index-ordered merge: placement depends only on each part's start
    // index, so completion order cannot influence the output.
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut stats = SchedStats {
        workers,
        chunk,
        busy_seconds: Vec::with_capacity(workers),
        chunks_claimed: Vec::with_capacity(workers),
        items: Vec::with_capacity(workers),
    };
    for (parts, claimed, busy) in per_worker {
        stats.items.push(parts.iter().map(|(_, vals)| vals.len()).sum());
        stats.chunks_claimed.push(claimed);
        stats.busy_seconds.push(busy);
        for (start, vals) in parts {
            for (k, v) in vals.into_iter().enumerate() {
                slots[start + k] = Some(v);
            }
        }
    }
    let out = slots.into_iter().map(|o| o.expect("every index claimed exactly once")).collect();
    (out, stats)
}

/// Recommended worker count for this machine: the number of available
/// hardware threads, minimum 1.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bands_cover_everything_once() {
        let mut buf = vec![0.0; 7 * 3]; // 7 rows of 3
        for_each_band(&mut buf, 3, 3, |row0, band| {
            for (k, v) in band.iter_mut().enumerate() {
                *v += (row0 * 3 + k) as f64 + 1.0;
            }
        });
        let expect: Vec<f64> = (0..21).map(|i| i as f64 + 1.0).collect();
        assert_eq!(buf, expect);
    }

    #[test]
    fn single_thread_runs_inline() {
        let mut buf = vec![0.0; 4];
        for_each_band(&mut buf, 2, 1, |row0, band| {
            assert_eq!(row0, 0);
            assert_eq!(band.len(), 4);
            band.fill(9.0);
        });
        assert_eq!(buf, vec![9.0; 4]);
    }

    #[test]
    #[should_panic(expected = "whole number of rows")]
    fn ragged_buffer_panics() {
        let mut buf = vec![0.0; 5];
        for_each_band(&mut buf, 2, 2, |_, _| {});
    }

    #[test]
    fn par_map_is_in_order() {
        // (3, 64): more threads than items spawns one band per item.
        for (n, threads) in [(23, 1), (23, 2), (23, 5), (23, 16), (3, 64)] {
            let v = par_map(n, threads, |i| i * i);
            let expect: Vec<usize> = (0..n).map(|i| i * i).collect();
            assert_eq!(v, expect, "n={n} threads={threads}");
        }
    }

    #[test]
    fn par_map_empty() {
        let v: Vec<u64> = par_map(0, 4, |_| 1);
        assert!(v.is_empty());
    }

    #[test]
    fn adaptive_chunk_is_positive_for_every_input_shape() {
        // n == 0, threads == 0, threads > n, threads * 8 > n: all the
        // degenerate shapes an empty or tiny registry produces. A zero
        // chunk would trip par_map_dynamic_stats' assert and panic the
        // whole batch.
        for n in [0usize, 1, 2, 7, 8, 63, 64, 1000] {
            for threads in [0usize, 1, 2, 3, 8, 64, 1000] {
                let chunk = adaptive_chunk(n, threads);
                assert!(chunk >= 1, "adaptive_chunk({n}, {threads}) = {chunk}");
            }
        }
    }

    #[test]
    fn par_map_dynamic_handles_empty_and_oversubscribed_inputs() {
        // Property sweep over the edge shapes: empty input, more threads
        // than items, zero threads. Output must equal the sequential map
        // in every case — no panic, no dropped or duplicated index.
        for (n, threads) in [(0usize, 8usize), (0, 0), (1, 8), (3, 64), (5, 0), (7, 7), (2, 1000)] {
            let got = par_map_dynamic(n, threads, |i| i * 2 + 1);
            let expect: Vec<usize> = (0..n).map(|i| i * 2 + 1).collect();
            assert_eq!(got, expect, "n={n} threads={threads}");
        }
    }

    #[test]
    fn par_map_dynamic_stats_covers_all_items_when_oversubscribed() {
        // threads > n: only min(threads, ceil(n/chunk)) workers spawn,
        // and the per-worker item counts still sum to n.
        let (v, sched) = par_map_dynamic_stats(3, 16, 1, |i| i);
        assert_eq!(v, vec![0, 1, 2]);
        assert!(sched.workers >= 1 && sched.workers <= 3);
        assert_eq!(sched.items.iter().sum::<usize>(), 3);
    }

    /// A result type that is deliberately neither `Default` nor `Clone`:
    /// the satellite fix is that `par_map` no longer needs either.
    struct NoDefaultNoClone(String);

    #[test]
    fn par_map_works_without_default_or_clone() {
        for threads in [1, 2, 5, 16] {
            let v = par_map(23, threads, |i| NoDefaultNoClone(format!("r{i}")));
            let got: Vec<&str> = v.iter().map(|x| x.0.as_str()).collect();
            let expect: Vec<String> = (0..23).map(|i| format!("r{i}")).collect();
            assert_eq!(
                got,
                expect.iter().map(String::as_str).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn par_map_dynamic_matches_sequential_everywhere() {
        let expect: Vec<usize> = (0..97).map(|i| i * i + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let v = par_map_dynamic(97, threads, |i| i * i + 1);
            assert_eq!(v, expect, "threads={threads}");
        }
        for chunk in [1, 2, 7, 97, 1000] {
            let (v, stats) = par_map_dynamic_stats(97, 4, chunk, |i| i * i + 1);
            assert_eq!(v, expect, "chunk={chunk}");
            assert_eq!(stats.items.iter().sum::<usize>(), 97, "chunk={chunk}");
            assert_eq!(stats.chunks_claimed.iter().sum::<usize>(), 97usize.div_ceil(chunk));
        }
    }

    #[test]
    fn par_map_dynamic_empty_and_single() {
        let v: Vec<String> = par_map_dynamic(0, 4, |_| String::new());
        assert!(v.is_empty());
        let v = par_map_dynamic(1, 8, |i| i + 41);
        assert_eq!(v, vec![41]);
    }

    #[test]
    fn par_map_dynamic_handles_nondefault_types() {
        let v = par_map_dynamic(17, 3, |i| NoDefaultNoClone(format!("x{i}")));
        assert_eq!(v[16].0, "x16");
        assert_eq!(v.len(), 17);
    }

    #[test]
    fn dynamic_stats_account_every_worker() {
        let (_, stats) = par_map_dynamic_stats(40, 4, 2, |i| i);
        assert!(stats.workers >= 1 && stats.workers <= 4);
        assert_eq!(stats.busy_seconds.len(), stats.workers);
        assert_eq!(stats.chunks_claimed.len(), stats.workers);
        assert_eq!(stats.items.len(), stats.workers);
        assert!(stats.busy_seconds.iter().all(|&b| b >= 0.0));
    }

    #[test]
    fn dynamic_never_spawns_more_workers_than_chunks() {
        let (v, stats) = par_map_dynamic_stats(5, 64, 2, |i| i);
        assert_eq!(v, vec![0, 1, 2, 3, 4]);
        assert!(stats.workers <= 3, "5 items at chunk 2 is 3 chunks, got {}", stats.workers);
    }

    #[test]
    fn adaptive_chunk_is_positive_and_scales() {
        assert_eq!(adaptive_chunk(0, 4), 1);
        assert_eq!(adaptive_chunk(20, 8), 1);
        assert!(adaptive_chunk(100_000, 8) > 1);
        // More threads → smaller chunks (finer balancing).
        assert!(adaptive_chunk(100_000, 16) <= adaptive_chunk(100_000, 2));
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_panics() {
        let _ = par_map_dynamic_stats(4, 2, 0, |i| i);
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }
}
