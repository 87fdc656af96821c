//! # archline-par — minimal data-parallelism substrate
//!
//! A small, from-scratch parallelism layer used by the microbenchmark
//! kernels and the multi-platform sweeps, in place of an external library
//! such as rayon (per the reproduction's build-everything rule). The crate
//! has no dependencies outside `std` and the workspace's obs crate.
//!
//! * [`parallel_jobs`] runs a set of borrowing closures with fork-join
//!   semantics on scoped threads; multi-slice kernels zip their own
//!   `chunks_mut` iterators into it.
//! * [`parallel_map`] and [`parallel_chunks_mut`] are the two slice shapes
//!   built on it.
//!
//! Nested calls — a `parallel_map` inside a `parallel_map`, as in the
//! 12-platform sweep whose per-platform suites are themselves parallel —
//! run on the thread that makes them, so a nested tree stays within the
//! width of its outermost call.
//!
//! The width defaults to [`std::thread::available_parallelism`], is
//! overridden by the `ARCHLINE_THREADS` environment variable, and can be
//! pinned programmatically with [`set_num_threads`] (e.g. from a
//! `--threads` CLI flag); each parallel call reads it afresh.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scope;

pub use scope::{parallel_chunks_mut, parallel_jobs, parallel_map};

use std::sync::atomic::{AtomicUsize, Ordering};

/// Programmatic thread-count override (0 = unset); takes precedence over
/// `ARCHLINE_THREADS`.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// The worker count used by the parallel primitives: the
/// [`set_num_threads`] override if set, else `ARCHLINE_THREADS` if set to a
/// positive integer, otherwise the machine's available parallelism
/// (minimum 1).
pub fn num_threads() -> usize {
    // ordering: Relaxed — a standalone configuration word with no dependent
    // data; each parallel call reads it once.
    let pinned = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if pinned > 0 {
        return pinned;
    }
    if let Ok(s) = std::env::var("ARCHLINE_THREADS") {
        if let Ok(n) = s.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Pins the width of later parallel calls, overriding `ARCHLINE_THREADS`.
/// Returns an error for a zero width.
pub fn set_num_threads(n: usize) -> Result<(), String> {
    if n == 0 {
        return Err("thread count must be positive".into());
    }
    // ordering: Relaxed — standalone configuration word, see num_threads.
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
    Ok(())
}

/// Smallest chunk handed to a thread by [`adaptive_grain`]: 8 Ki elements
/// (64 KiB of `f64`). Below this the per-job cost (a pull from the shared
/// job queue, plus a share of the batch's thread spawns) is a measurable
/// fraction of the chunk's work for streaming kernels in the ~1 Gelem/s
/// class.
pub const MIN_PAR_GRAIN: usize = 1 << 13;

/// Chunk length for splitting a `len`-element data-parallel loop across
/// threads: adapts to the input and the worker count — see
/// [`adaptive_grain_for`] for the policy.
pub fn adaptive_grain(len: usize) -> usize {
    adaptive_grain_for(len, num_threads())
}

/// The grain policy behind [`adaptive_grain`], exposed with explicit inputs
/// so it can be tested (and reported) without touching process state:
///
/// * target ~4 tasks per worker, so threads that pull from the shared job
///   queue can even out a straggler without drowning in tiny jobs;
/// * never below [`MIN_PAR_GRAIN`], so spawn and queue overhead stays
///   amortized;
/// * rounded up to a whole number of 64-byte cache lines of `f64` (8
///   elements), so chunk boundaries never make two workers write the same
///   line (false sharing) and the lane-structured kernels see full lanes.
pub fn adaptive_grain_for(len: usize, workers: usize) -> usize {
    let tasks = 4 * workers.max(1);
    len.div_ceil(tasks).next_multiple_of(8).max(MIN_PAR_GRAIN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn adaptive_grain_targets_four_tasks_per_worker() {
        // Large input: ~4 tasks per worker.
        let len = 1 << 20;
        for workers in [2usize, 4, 8] {
            let g = adaptive_grain_for(len, workers);
            let tasks = len.div_ceil(g);
            assert!(
                tasks >= 3 * workers && tasks <= 5 * workers,
                "workers={workers} grain={g} tasks={tasks}"
            );
        }
    }

    #[test]
    fn adaptive_grain_never_below_minimum() {
        assert_eq!(adaptive_grain_for(100, 64), MIN_PAR_GRAIN);
        assert_eq!(adaptive_grain_for(0, 1), MIN_PAR_GRAIN);
    }

    #[test]
    fn adaptive_grain_is_lane_aligned() {
        for len in [1 << 16, (1 << 20) + 7, 12_345_678] {
            for workers in [1usize, 3, 7, 16] {
                assert_eq!(adaptive_grain_for(len, workers) % 8, 0);
            }
        }
    }

    #[test]
    fn set_num_threads_rejects_zero() {
        assert!(set_num_threads(0).is_err());
    }
}
