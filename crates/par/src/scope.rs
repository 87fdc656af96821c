//! Fork-join data parallelism: one primitive, [`parallel_jobs`], and the
//! two slice helpers built on it.
//!
//! Each parallel call opens a [`std::thread::scope`]: the caller and up to
//! [`num_threads`]` - 1` scoped helper threads pull the call's jobs from
//! one shared queue, and the scope joins the helpers before the call
//! returns, so jobs may borrow the caller's data. A nested call (a
//! `parallel_map` inside a `parallel_map`) runs its jobs on the thread that
//! makes it, so a nested tree never has more than [`num_threads`] threads
//! live.
//!
//! Callers fix each job's work before submission (contiguous chunks, each
//! processed in index order by whichever thread picks it up), so results,
//! including floating-point results, are bit-for-bit deterministic and
//! independent of scheduling.

use std::any::Any;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard};
use std::{thread, vec};

use archline_obs::{self as obs, Counter, Histogram};

use crate::num_threads;

/// Batches run on the multi-job path.
static BATCHES: Counter = Counter::new("par.batches");
/// Tasks executed, regardless of which thread ran them.
static TASKS: Counter = Counter::new("par.tasks");
/// Task panics captured by the batch barrier.
static TASK_PANICS: Counter = Counter::new("par.task_panics");
/// Jobs per multi-job batch.
static BATCH_JOBS: Histogram = Histogram::new("par.batch_jobs");

thread_local! {
    /// Set while this thread drains a batch; a nested batch then spawns no
    /// helpers.
    static DRAINING: Cell<bool> = const { Cell::new(false) };
}

type Payload = Box<dyn Any + Send>;

/// Locks a mutex, ignoring poisoning: no code panics while holding either
/// lock below (jobs run after the queue guard drops), so the data is whole.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Splits `0..len` into at most `parts` contiguous chunks of roughly equal
/// size; returns the ranges (empty when `len == 0`).
fn split_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    assert!(parts > 0, "need at least one part");
    if len == 0 {
        return Vec::new();
    }
    let parts = parts.min(len);
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for t in 0..parts {
        let size = base + usize::from(t < extra);
        out.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    out
}

/// Runs every job and waits for all of them (fork-join). With one worker
/// or fewer than two jobs the jobs run inline, in order. Otherwise the
/// caller and up to `num_threads() - 1` scoped helpers take the jobs in
/// index order, each under the caller's [`obs::Scope`]; a nested call on a
/// thread already draining a batch spawns no helpers. A job panic
/// propagates after the whole batch finishes.
///
/// Multi-slice kernels zip their own `chunks_mut` iterators into the jobs;
/// the caller checks the slice lengths first, so the zip cannot drop a
/// trailing chunk.
pub fn parallel_jobs<'scope, I, F>(jobs: I)
where
    I: IntoIterator<Item = F>,
    F: FnOnce() + Send + 'scope,
{
    let jobs: Vec<F> = jobs.into_iter().collect();
    let (threads, n) = (num_threads(), jobs.len());
    if threads <= 1 || n < 2 {
        jobs.into_iter().for_each(|job| job());
        return;
    }
    BATCHES.inc();
    BATCH_JOBS.record(n as u64);
    let _span = obs::span_with(obs::Level::Trace, "par", "batch", &[obs::field("jobs", n as u64)]);
    let helpers = if DRAINING.get() { 0 } else { threads.min(n) - 1 };
    let queue = Mutex::new(jobs.into_iter());
    let first_panic = Mutex::new(None);
    let scope = obs::current_scope();
    let work = || drain(&queue, &first_panic, scope);
    thread::scope(|s| {
        // A helper that cannot be spawned leaves its share to the others.
        let handles: Vec<_> =
            (0..helpers).map_while(|_| thread::Builder::new().spawn_scoped(s, work).ok()).collect();
        work();
        // Blocked on the helpers' jobs: the batch span's wait, not its work.
        obs::wait(|| handles.into_iter().for_each(|h| record_panic(&first_panic, h.join())));
    });
    if let Some(payload) = first_panic.into_inner().unwrap_or_else(|e| e.into_inner()) {
        resume_unwind(payload);
    }
}

/// Runs jobs from `queue` until it is empty, each in a `par.task` span under
/// `scope`, keeping the first panic payload in `first_panic`.
fn drain<F: FnOnce()>(
    queue: &Mutex<vec::IntoIter<F>>,
    first_panic: &Mutex<Option<Payload>>,
    scope: obs::Scope,
) {
    let _scope = scope.enter();
    let was_draining = DRAINING.replace(true);
    loop {
        let next = lock(queue).next();
        let Some(job) = next else { break };
        TASKS.inc();
        // Opened before `catch_unwind` so a panicking job still closes its
        // span during unwind — the trace never shows a dangling task.
        let _span = obs::span(obs::Level::Trace, "par", "task");
        record_panic(first_panic, catch_unwind(AssertUnwindSafe(job)));
    }
    DRAINING.set(was_draining);
}

/// Keeps `result`'s panic payload if it is the batch's first.
fn record_panic(first_panic: &Mutex<Option<Payload>>, result: thread::Result<()>) {
    if let Err(payload) = result {
        TASK_PANICS.inc();
        lock(first_panic).get_or_insert(payload);
    }
}

/// Parallel map over a slice, preserving order. The items are split into
/// up to four contiguous jobs per thread, so threads that finish early pull
/// the remaining jobs and uneven items (the 12 platforms' sweeps) even out.
pub fn parallel_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let threads = num_threads();
    let ranges = split_ranges(items.len(), 4 * threads);
    if threads <= 1 || ranges.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let mut pieces: Vec<Vec<U>> = ranges.iter().map(|_| Vec::new()).collect();
    let f = &f;
    parallel_jobs(
        pieces.iter_mut().zip(ranges).map(|(piece, r)| move || *piece = items[r].iter().map(f).collect()),
    );
    pieces.into_iter().flatten().collect()
}

/// Runs `f(chunk_index, chunk)` over disjoint mutable chunks of `data` of
/// size `chunk_len` (the last chunk may be shorter), in parallel, on at
/// most [`num_threads`] threads however many chunks there are.
///
/// # Panics
/// Panics if `chunk_len == 0`.
pub fn parallel_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let f = &f;
    parallel_jobs(data.chunks_mut(chunk_len).enumerate().map(|(idx, chunk)| move || f(idx, chunk)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn split_ranges_covers_exactly_once() {
        for len in [0usize, 1, 7, 64, 1000, 1001] {
            for threads in [1usize, 2, 3, 8, 64] {
                let ranges = split_ranges(len, threads);
                let mut seen = vec![false; len];
                for r in &ranges {
                    for i in r.clone() {
                        assert!(!seen[i], "index {i} covered twice");
                        seen[i] = true;
                    }
                }
                assert!(seen.iter().all(|&s| s), "len={len} threads={threads}");
                // Balanced: sizes differ by at most 1.
                if !ranges.is_empty() {
                    let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                    let (mn, mx) =
                        (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                    assert!(mx - mn <= 1);
                }
            }
        }
    }

    #[test]
    fn parallel_for_touches_every_index_once() {
        let n = 10_000;
        let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let counters = &counters;
        parallel_jobs(split_ranges(n, 4 * num_threads()).into_iter().map(|range| {
            move || {
                for i in range {
                    counters[i].fetch_add(1, Ordering::Relaxed);
                }
            }
        }));
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_empty_is_noop() {
        parallel_jobs(std::iter::empty::<fn()>());
        let mut empty: [u32; 0] = [];
        parallel_jobs(empty.chunks_mut(8).map(|_| || panic!("must not be called")));
    }

    #[test]
    fn chunks_mut2_keeps_slices_aligned() {
        let n = 1003;
        let mut a = vec![0u32; n];
        let mut b = vec![0u64; n];
        parallel_jobs(a.chunks_mut(100).zip(b.chunks_mut(100)).enumerate().map(|(idx, (ca, cb))| {
            move || {
                assert_eq!(ca.len(), cb.len());
                for (x, y) in ca.iter_mut().zip(cb.iter_mut()) {
                    *x = idx as u32;
                    *y = idx as u64 + 1;
                }
            }
        }));
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(*x, (i / 100) as u32, "index {i}");
            assert_eq!(*y, (i / 100) as u64 + 1, "index {i}");
        }
    }

    /// Zips four slices of `n` elements of different types into aligned
    /// chunks and adds `chunk index + 1` to every slot: a slot skipped,
    /// visited twice or paired with the wrong chunk reads back wrong.
    fn zip_four(n: usize, chunk_len: usize) {
        let (mut a, mut b, mut c, mut d) = (vec![0u8; n], vec![0u16; n], vec![0u32; n], vec![0u64; n]);
        parallel_jobs(
            a.chunks_mut(chunk_len)
                .zip(b.chunks_mut(chunk_len))
                .zip(c.chunks_mut(chunk_len))
                .zip(d.chunks_mut(chunk_len))
                .enumerate()
                .map(|(idx, (((ca, cb), cc), cd))| {
                    move || {
                        assert!(ca.len() == cb.len() && cb.len() == cc.len() && cc.len() == cd.len());
                        for k in 0..ca.len() {
                            ca[k] += idx as u8 + 1;
                            cb[k] += idx as u16 + 1;
                            cc[k] += idx as u32 + 1;
                            cd[k] += idx as u64 + 1;
                        }
                    }
                }),
        );
        for i in 0..n {
            let want = (i / chunk_len) as u64 + 1;
            assert_eq!(
                [a[i] as u64, b[i] as u64, c[i] as u64, d[i]],
                [want; 4],
                "slot {i}, n {n}, chunk_len {chunk_len}"
            );
        }
    }

    #[test]
    fn chunks_mut4_covers_every_slot_once() {
        zip_four(517, 64); // nine jobs, the last one short
        zip_four(0, 64); // no jobs
    }

    #[test]
    fn parallel_jobs_zipped_chunks_cover_every_slot_once() {
        parallel_jobs(std::iter::empty::<fn()>());
        zip_four(1003, 1003); // one job
        zip_four(1003, 100); // eleven jobs, the last one short
        let nested = parallel_map(&[1003usize, 100, 100, 1003], |&chunk_len| zip_four(1003, chunk_len));
        assert_eq!(nested.len(), 4);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let xs: Vec<i64> = (0..5000).collect();
        let ys = parallel_map(&xs, |&x| x * x);
        assert_eq!(ys.len(), xs.len());
        for (i, y) in ys.iter().enumerate() {
            assert_eq!(*y, (i as i64) * (i as i64));
        }
    }

    #[test]
    fn parallel_map_small_inputs() {
        assert_eq!(parallel_map(&[3], |&x: &i32| x + 1), vec![4]);
        assert_eq!(parallel_map::<i32, i32, _>(&[], |&x| x), Vec::<i32>::new());
    }

    #[test]
    fn parallel_map_lets_free_threads_take_a_stragglers_neighbours() {
        // Item 0 finishes only once items 1..8 have. Split into one job per
        // thread, items 1..4 would sit behind it in the same job and it
        // would time out; split finer, the other threads take them. Pins
        // the same width as `nested_batches_bound_concurrency`, which reads
        // it back.
        crate::set_num_threads(4).expect("positive width");
        let done = AtomicUsize::new(0);
        let items: Vec<usize> = (0..8).collect();
        let waited = parallel_map(&items, |&i| {
            if i > 0 {
                done.fetch_add(1, Ordering::SeqCst);
                return true;
            }
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while done.load(Ordering::SeqCst) < 7 && std::time::Instant::now() < deadline {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            done.load(Ordering::SeqCst) == 7
        });
        assert!(waited[0], "items 1..8 must run while item 0 is in progress");
    }

    #[test]
    fn parallel_chunks_mut_writes_disjointly() {
        let mut data = vec![0u32; 1003];
        parallel_chunks_mut(&mut data, 100, |idx, chunk| {
            for v in chunk.iter_mut() {
                *v = idx as u32 + 1;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, (i / 100) as u32 + 1, "index {i}");
        }
    }

    #[test]
    #[should_panic(expected = "chunk_len")]
    fn zero_chunk_len_panics() {
        let mut data = [1, 2, 3];
        parallel_chunks_mut(&mut data, 0, |_, _| {});
    }

    #[test]
    fn matches_sequential_for_float_kernel() {
        // The exact arithmetic (per-chunk order) must match a sequential
        // chunked loop — determinism matters for benchmarks.
        let xs: Vec<f64> = (0..4096).map(|i| (i as f64).sin()).collect();
        let par = parallel_map(&xs, |&x| x.mul_add(2.0, 1.0));
        let seq: Vec<f64> = xs.iter().map(|&x| x.mul_add(2.0, 1.0)).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn nested_map_completes_without_deadlock() {
        // Outer map over 8 items, each running an inner map over 64 items.
        let outer: Vec<usize> = (0..8).collect();
        let got = parallel_map(&outer, |&o| {
            let inner: Vec<usize> = (0..64).map(|i| o * 64 + i).collect();
            let squares = parallel_map(&inner, |&x| x * x);
            squares.iter().sum::<usize>()
        });
        for (o, sum) in got.iter().enumerate() {
            let expect: usize = (0..64).map(|i| (o * 64 + i) * (o * 64 + i)).sum();
            assert_eq!(*sum, expect, "outer item {o}");
        }
    }

    #[test]
    fn nested_panic_propagates_to_outer_caller() {
        let outer: Vec<usize> = (0..6).collect();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_map(&outer, |&o| {
                let inner: Vec<usize> = (0..32).collect();
                parallel_map(&inner, |&i| {
                    if o == 3 && i == 17 {
                        panic!("inner task failed");
                    }
                    i
                })
            });
        }));
        assert!(err.is_err(), "nested panic must reach the outer caller");
        // Fork-join still works after the unwind.
        let xs: Vec<i32> = (0..100).collect();
        assert_eq!(parallel_map(&xs, |&x| x + 1).len(), 100);
    }

    #[test]
    fn nested_batches_bound_concurrency() {
        // Each outer job runs its inner batch on its own thread, so however
        // the 8 x 16 leaves are scheduled, no more than `num_threads()` run
        // at once.
        crate::set_num_threads(4).expect("positive width");
        let live = AtomicUsize::new(0);
        let high_water = AtomicUsize::new(0);
        let leaf = || {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            high_water.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_micros(500));
            live.fetch_sub(1, Ordering::SeqCst);
        };
        parallel_jobs((0..8).map(|_| || parallel_jobs((0..16).map(|_| leaf))));
        let seen = high_water.load(Ordering::SeqCst);
        assert!(seen >= 1, "leaves must have run");
        assert!(seen <= num_threads(), "high water {seen} exceeds {} threads", num_threads());
    }

    #[test]
    fn nested_map_preserves_ordering() {
        let outer: Vec<usize> = (0..12).collect();
        let got = parallel_map(&outer, |&o| {
            let inner: Vec<usize> = (0..100).collect();
            parallel_map(&inner, |&i| o * 1000 + i)
        });
        for (o, row) in got.iter().enumerate() {
            for (i, v) in row.iter().enumerate() {
                assert_eq!(*v, o * 1000 + i, "outer {o} inner {i}");
            }
        }
    }
}
