//! A process-wide, lazily-initialized work-stealing executor: the one
//! substrate under every parallel primitive in the crate.
//!
//! * **One set of worker threads per process.** The first parallel call
//!   builds the global executor with [`crate::num_threads`] workers
//!   (`ARCHLINE_THREADS` / [`crate::set_num_threads`] override); every later
//!   call reuses them.
//! * **Chunked deque-based distribution.** Each worker owns a deque; batches
//!   submitted from a worker go to its own deque (LIFO pop for locality),
//!   external submissions go to a shared injector queue, and idle workers
//!   steal the oldest task from their siblings.
//! * **Nested submission.** A task running on a worker may submit a
//!   sub-batch and *help drain it* while waiting: the joiner executes any
//!   available task instead of blocking, so recursive `parallel_map` calls
//!   complete without deadlock and without oversubscribing the machine.
//!
//! # Panics and determinism
//!
//! A panic in any job is captured, the batch still runs to completion, and
//! the original payload is re-raised from [`Executor::run_batch`] on the
//! submitting thread. Work distribution never affects *what* each job
//! computes — callers assign work to jobs before submission — so results
//! are deterministic regardless of which thread runs which job.
//!
//! # Safety
//!
//! Jobs are boxed with a caller-chosen lifetime and transmuted to `'static`
//! for storage in the shared queues. This is sound because `run_batch` does
//! not return (normally or by unwinding) until every job in the batch has
//! finished executing, so no job can outlive the borrows it captures. This
//! is the same join-barrier argument scoped threads rely on, and it is the
//! only use of `unsafe` in the crate.

use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use archline_obs::{self as obs, Counter, Histogram};

/// Batches submitted through `run_batch` (multi-job path only).
static BATCHES: Counter = Counter::new("par.batches");
/// Tasks executed, regardless of which thread ran them.
static TASKS: Counter = Counter::new("par.tasks");
/// Tasks taken from the shared injector queue.
static INJECTOR_POPS: Counter = Counter::new("par.injector_pops");
/// Tasks stolen from a sibling worker's deque.
static STEALS: Counter = Counter::new("par.steals");
/// Task panics captured by the batch barrier.
static TASK_PANICS: Counter = Counter::new("par.task_panics");
/// Queue depth (tasks queued, not yet popped) sampled at each submission.
static QUEUE_DEPTH: Histogram = Histogram::new("par.queue_depth");
/// Jobs per multi-job batch.
static BATCH_JOBS: Histogram = Histogram::new("par.batch_jobs");

/// A unit of work with the lifetime of the submitting `run_batch` call.
pub type Job<'scope> = Box<dyn FnOnce() + Send + 'scope>;

type ErasedJob = Box<dyn FnOnce() + Send + 'static>;

/// Locks a mutex, ignoring poisoning (jobs run under `catch_unwind`, so a
/// poisoned lock only means some unrelated job panicked; the protected data
/// is plain queues/counters that remain consistent).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Join-barrier state for one `run_batch` call.
struct Batch {
    /// Jobs not yet finished executing.
    remaining: AtomicUsize,
    /// First panic payload raised by a job in this batch.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Completion signal: notified when `remaining` reaches zero.
    done_lock: Mutex<()>,
    done_cv: Condvar,
}

impl Batch {
    fn new(jobs: usize) -> Self {
        Self {
            remaining: AtomicUsize::new(jobs),
            panic: Mutex::new(None),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
        }
    }
}

/// A queued task: an erased job, the batch it belongs to, and the
/// submitter's event scope, which the task runs under on whichever thread
/// executes it.
struct Task {
    batch: Arc<Batch>,
    job: ErasedJob,
    scope: obs::Scope,
}

/// State shared between workers and submitters.
struct Shared {
    /// Per-worker deques; worker `i` pushes/pops at the back of
    /// `queues[i]`, thieves take from the front.
    queues: Vec<Mutex<VecDeque<Task>>>,
    /// Overflow queue for tasks submitted from non-worker threads.
    injector: Mutex<VecDeque<Task>>,
    /// Tasks queued but not yet popped (not: currently executing).
    queued: AtomicUsize,
    /// Wakes parked workers when work arrives.
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
    /// Set by `Drop` (test-local executors only; the global one is eternal).
    shutdown: AtomicBool,
}

thread_local! {
    /// Identity of the current executor worker thread, if any.
    static WORKER: RefCell<Option<(Arc<Shared>, usize)>> = const { RefCell::new(None) };
}

/// The work-stealing executor. Use [`Executor::global`] in library code;
/// constructing private instances is intended for tests.
pub struct Executor {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

static GLOBAL: OnceLock<Executor> = OnceLock::new();

/// Whether the process-wide executor has been initialized (after which the
/// thread-count override can no longer take effect).
pub(crate) fn global_started() -> bool {
    GLOBAL.get().is_some()
}

impl Executor {
    /// The process-wide executor, created with [`crate::num_threads`]
    /// workers on first use.
    pub fn global() -> &'static Executor {
        GLOBAL.get_or_init(|| Executor::new(crate::num_threads()))
    }

    /// Creates a private executor with `threads` workers. Its workers exit
    /// when the executor is dropped.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "executor needs at least one worker");
        let shared = Arc::new(Shared {
            queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            queued: AtomicUsize::new(0),
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("archline-exec-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    // lint:allow(panic-discipline, reason = "one-time construction, not the job path: if the OS cannot spawn worker threads there is no executor to degrade to")
                    .expect("spawn executor worker")
            })
            .collect();
        Self { shared, handles }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.shared.queues.len()
    }

    /// Runs a batch of jobs to completion, blocking until all finish.
    ///
    /// The calling thread helps execute queued tasks while it waits, so
    /// this may be called from inside a job (nested fork-join) without
    /// deadlock or extra threads. Zero jobs is a no-op; a single job runs
    /// inline on the caller.
    ///
    /// # Panics
    /// Re-raises the first panic payload raised by any job in the batch
    /// (after every job has finished).
    pub fn run_batch<'scope>(&self, jobs: Vec<Job<'scope>>) {
        match jobs.len() {
            0 => return,
            1 => {
                if let Some(job) = jobs.into_iter().next() {
                    job();
                }
                return;
            }
            _ => {}
        }

        let batch = Arc::new(Batch::new(jobs.len()));
        let n = jobs.len();
        let scope = obs::current_scope();
        let tasks: Vec<Task> = jobs
            .into_iter()
            .map(|job| Task { batch: Arc::clone(&batch), job: erase(job), scope })
            .collect();

        BATCHES.inc();
        BATCH_JOBS.record(n as u64);
        let _span = obs::span_with(
            obs::Level::Trace,
            "par",
            "batch",
            &[obs::field("jobs", n as u64)],
        );

        let me = current_worker_on(&self.shared);
        match me {
            Some(idx) => lock(&self.shared.queues[idx]).extend(tasks),
            None => lock(&self.shared.injector).extend(tasks),
        }
        // ordering: Relaxed — `queued` is a sleep-gate hint, not a publication
        // channel: tasks themselves are published by the deque/injector
        // mutexes above, and sleepers re-check under `idle_lock` with a
        // timeout backstop, so no ordering stronger than the counter's own
        // atomicity is needed.
        // A worker may pop (and decrement) before this increment runs, so
        // the pre-add value can be transiently wrapped-negative; clamp the
        // sampled depth at zero instead of overflowing the add.
        let prev = self.shared.queued.fetch_add(n, Ordering::Relaxed);
        QUEUE_DEPTH.record((prev as i64).saturating_add(n as i64).max(0) as u64);
        {
            let _guard = lock(&self.shared.idle_lock);
            self.shared.idle_cv.notify_all();
        }

        // Join barrier: help drain any available work while waiting.
        // ordering: Acquire — pairs with the Release `fetch_sub` in
        // `execute`; observing 0 synchronizes with every job's decrement
        // (RMWs extend the release sequence), so all job effects are
        // visible before the borrows captured by `erase` expire.
        while batch.remaining.load(Ordering::Acquire) != 0 {
            if let Some(task) = find_task(&self.shared, me) {
                execute(task);
            } else {
                // Blocked on other workers' tasks: the batch span's wait,
                // not its work.
                obs::wait(|| {
                    let guard = lock(&batch.done_lock);
                    // ordering: Acquire — same pairing as the loop condition;
                    // re-checked under `done_lock` so the completion notify
                    // cannot slip between check and wait.
                    if batch.remaining.load(Ordering::Acquire) != 0 {
                        // Timeout guards against sleeping through work becoming
                        // stealable; completion itself is notified under the lock.
                        let _ = batch.done_cv.wait_timeout(guard, Duration::from_micros(200));
                    }
                });
            }
        }

        let payload = lock(&batch.panic).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        // ordering: Release — pairs with the workers' Acquire load so a
        // worker that observes the flag also observes everything sequenced
        // before the drop began; the `idle_lock` notify below guarantees no
        // sleeping worker misses the transition.
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _guard = lock(&self.shared.idle_lock);
            self.shared.idle_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// The worker index of the calling thread *on this executor*, if any.
fn current_worker_on(shared: &Arc<Shared>) -> Option<usize> {
    WORKER.with(|w| {
        w.borrow().as_ref().and_then(
            |(s, i)| {
                if Arc::ptr_eq(s, shared) {
                    Some(*i)
                } else {
                    None
                }
            },
        )
    })
}

fn worker_loop(shared: Arc<Shared>, idx: usize) {
    WORKER.with(|w| *w.borrow_mut() = Some((Arc::clone(&shared), idx)));
    // Per-worker utilization counter, interned once (updates are one
    // relaxed fetch_add; the registry lookup happens only here).
    let worker_tasks = obs::counter(&format!("par.worker.{idx}.tasks"));
    loop {
        if let Some(task) = find_task(&shared, Some(idx)) {
            worker_tasks.inc();
            execute(task);
            continue;
        }
        let guard = lock(&shared.idle_lock);
        // ordering: Acquire — pairs with the Release store in `Drop` so the
        // exiting worker sees all pre-shutdown writes.
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // ordering: Relaxed — hint only: submitters bump `queued` before
        // notifying under `idle_lock`, so this check-then-wait cannot miss
        // a wakeup, and the 10ms timeout backstops stealable work appearing
        // without a notify.
        if shared.queued.load(Ordering::Relaxed) == 0 {
            // Submitters notify under `idle_lock` after bumping `queued`,
            // so this check-then-wait cannot miss a wakeup; the timeout is
            // a backstop, not a correctness requirement.
            let _ = shared.idle_cv.wait_timeout(guard, Duration::from_millis(10));
        }
    }
}

/// Pops the next task: own deque from the back (freshest first — nested
/// sub-batches before older work), then the injector, then steal the oldest
/// task from sibling deques.
fn find_task(shared: &Shared, me: Option<usize>) -> Option<Task> {
    if let Some(idx) = me {
        if let Some(t) = lock(&shared.queues[idx]).pop_back() {
            // ordering: Relaxed — sleep-gate hint; the task was received
            // through the deque mutex, which is the publication channel.
            shared.queued.fetch_sub(1, Ordering::Relaxed);
            return Some(t);
        }
    }
    if let Some(t) = lock(&shared.injector).pop_front() {
        // ordering: Relaxed — sleep-gate hint; publication is the mutex.
        shared.queued.fetch_sub(1, Ordering::Relaxed);
        INJECTOR_POPS.inc();
        return Some(t);
    }
    let n = shared.queues.len();
    let start = me.map_or(0, |i| i + 1);
    for off in 0..n {
        let victim = (start + off) % n;
        if Some(victim) == me {
            continue;
        }
        if let Some(t) = lock(&shared.queues[victim]).pop_front() {
            // ordering: Relaxed — sleep-gate hint; publication is the mutex.
            shared.queued.fetch_sub(1, Ordering::Relaxed);
            STEALS.inc();
            return Some(t);
        }
    }
    None
}

/// Runs one task, capturing a panic into its batch and signalling the
/// joiner when the batch completes.
fn execute(task: Task) {
    let Task { batch, job, scope } = task;
    TASKS.inc();
    let result = {
        let _scope = scope.enter();
        // Opened before `catch_unwind` so a panicking job still closes its
        // span during unwind — the trace never shows a dangling task.
        let _span = obs::span(obs::Level::Trace, "par", "task");
        catch_unwind(AssertUnwindSafe(job))
    };
    if let Err(payload) = result {
        TASK_PANICS.inc();
        let mut slot = lock(&batch.panic);
        if slot.is_none() {
            *slot = Some(payload);
        }
    }
    // ordering: Release — publishes this job's effects to the joiner, whose
    // Acquire load of 0 synchronizes with the whole decrement chain (each
    // RMW extends the release sequence); Acquire on the ==1 path is not
    // needed because the last decrementer only notifies, it does not read
    // other jobs' data.
    if batch.remaining.fetch_sub(1, Ordering::Release) == 1 {
        let _guard = lock(&batch.done_lock);
        batch.done_cv.notify_all();
    }
}

/// Erases the scope lifetime from a job so it can sit in the shared queues.
///
/// Sound to call only from [`Executor::run_batch`], whose join barrier
/// keeps the captured borrows alive until the job finishes; it is private
/// to this module to keep that audit surface minimal.
#[allow(unsafe_code)]
fn erase(job: Job<'_>) -> ErasedJob {
    // SAFETY: `run_batch` does not return (normally or by unwinding) until
    // every erased job has finished executing (`remaining == 0`), so the
    // scope borrows cannot expire while a job is reachable from the queues.
    unsafe { std::mem::transmute(job) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn batch_runs_all_jobs() {
        let ex = Executor::new(4);
        let counter = AtomicU64::new(0);
        let jobs: Vec<Job<'_>> = (0..100)
            .map(|_| {
                Box::new(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                }) as Job<'_>
            })
            .collect();
        ex.run_batch(jobs);
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn empty_and_single_batches() {
        let ex = Executor::new(2);
        ex.run_batch(Vec::new());
        let hit = AtomicU64::new(0);
        ex.run_batch(vec![Box::new(|| {
            hit.fetch_add(1, Ordering::Relaxed);
        }) as Job<'_>]);
        assert_eq!(hit.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn borrows_local_data() {
        let ex = Executor::new(3);
        let mut out = vec![0u64; 8];
        {
            let jobs: Vec<Job<'_>> = out
                .iter_mut()
                .enumerate()
                .map(|(i, slot)| {
                    Box::new(move || {
                        *slot = i as u64 * 10;
                    }) as Job<'_>
                })
                .collect();
            ex.run_batch(jobs);
        }
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn panic_propagates_after_batch_completes() {
        let ex = Executor::new(2);
        let survivors = AtomicU64::new(0);
        let jobs: Vec<Job<'_>> = (0..16)
            .map(|i| {
                let survivors = &survivors;
                Box::new(move || {
                    if i == 7 {
                        panic!("job seven failed");
                    }
                    survivors.fetch_add(1, Ordering::Relaxed);
                }) as Job<'_>
            })
            .collect();
        let err = catch_unwind(AssertUnwindSafe(|| ex.run_batch(jobs)));
        assert!(err.is_err());
        // Every non-panicking job still ran: the barrier waits for all.
        assert_eq!(survivors.load(Ordering::Relaxed), 15);
        // Executor is still usable.
        let after = AtomicU64::new(0);
        let jobs: Vec<Job<'_>> = (0..4)
            .map(|_| {
                Box::new(|| {
                    after.fetch_add(1, Ordering::Relaxed);
                }) as Job<'_>
            })
            .collect();
        ex.run_batch(jobs);
        assert_eq!(after.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn drop_joins_workers() {
        let ex = Executor::new(3);
        let hit = AtomicU64::new(0);
        ex.run_batch(
            (0..8)
                .map(|_| {
                    Box::new(|| {
                        hit.fetch_add(1, Ordering::Relaxed);
                    }) as Job<'_>
                })
                .collect(),
        );
        drop(ex);
        assert_eq!(hit.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn nested_batches_bound_concurrency() {
        // A private executor sees no traffic from other tests, so the bound
        // is exact: its workers plus the one external joining thread. The
        // old scoped-thread implementation ran width^2 leaves at once for
        // this shape.
        let width = 4;
        let ex = Executor::new(width);
        let live = AtomicU64::new(0);
        let high_water = AtomicU64::new(0);
        let outer: Vec<Job<'_>> = (0..width * 2)
            .map(|_| {
                let (ex, live, high_water) = (&ex, &live, &high_water);
                Box::new(move || {
                    let inner: Vec<Job<'_>> = (0..width * 4)
                        .map(|_| {
                            Box::new(move || {
                                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                                high_water.fetch_max(now, Ordering::SeqCst);
                                std::thread::sleep(Duration::from_micros(500));
                                live.fetch_sub(1, Ordering::SeqCst);
                            }) as Job<'_>
                        })
                        .collect();
                    ex.run_batch(inner);
                }) as Job<'_>
            })
            .collect();
        ex.run_batch(outer);
        let seen = high_water.load(Ordering::SeqCst) as usize;
        assert!(seen >= 1, "leaves must have run");
        assert!(seen <= width + 1, "high water {seen} exceeds workers+joiner {}", width + 1);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let _ = Executor::new(0);
    }

    #[test]
    fn global_width_matches_num_threads_config() {
        // The global executor may already exist (other tests); its width
        // always reflects some valid `num_threads()` outcome >= 1.
        assert!(Executor::global().threads() >= 1);
    }
}
