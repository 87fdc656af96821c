//! Hierarchical spans with monotonic timing.
//!
//! A [`Span`] is an RAII guard: opening emits a `span_open` event (when a
//! sink is listening) and pushes the span onto a per-thread stack; dropping
//! pops it, computes the wall duration ([`std::time::Instant`], never
//! wall-clock), emits `span_close`, and — when profiling is on — folds the
//! timing into the self-time profile. Parentage is per-thread: a span
//! opened on an executor worker roots a fresh tree on that worker, which is
//! exactly how work-stealing execution looks from the inside.
//!
//! Time a span spends blocked — joining another thread, waiting on a
//! condition variable — is booked as *wait* through [`wait`], not as self
//! time, so a span that only waits for work done elsewhere does not look
//! like work.
//!
//! Panic safety: the guard closes in `Drop`, so a span opened inside a task
//! that panics still closes while the panic unwinds toward the executor's
//! `catch_unwind` — no dangling `span_open` in the trace.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::event::{dispatch, Event, Field};
use crate::{enabled, EventKind, Level};

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

struct StackEntry {
    id: u64,
    /// Wall time spent in already-closed direct children, ns.
    child_ns: u64,
    /// Wall time spent blocked in [`wait`] outside children, ns.
    wait_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<StackEntry>> = const { RefCell::new(Vec::new()) };
}

/// An open span; closes (and reports) when dropped.
#[must_use = "a span measures the scope it lives in; drop closes it"]
pub struct Span {
    inner: Option<Inner>,
}

struct Inner {
    id: u64,
    level: Level,
    target: &'static str,
    name: &'static str,
    start: Instant,
    /// Whether `span_open` was emitted (so `span_close` pairs with it).
    emitted: bool,
}

/// Opens a span. Inert (no clock read, no allocation) unless a sink accepts
/// `level` or profiling is on.
pub fn span(level: Level, target: &'static str, name: &'static str) -> Span {
    span_with(level, target, name, &[])
}

/// Opens a span with fields on its `span_open` event.
pub fn span_with(
    level: Level,
    target: &'static str,
    name: &'static str,
    fields: &[Field],
) -> Span {
    let emit = enabled(level);
    if !emit && !crate::profile::profiling() {
        return Span { inner: None };
    }
    // ordering: Relaxed — id allocator: uniqueness is the only contract;
    // parent/child linkage is thread-local.
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().map_or(0, |e| e.id);
        s.push(StackEntry { id, child_ns: 0, wait_ns: 0 });
        parent
    });
    if emit {
        dispatch(&Event {
            seq: 0,
            kind: EventKind::SpanOpen,
            level,
            target,
            name,
            span_id: id,
            parent,
            dur_ns: None,
            self_ns: None,
            fields,
            msg: None,
        });
    }
    Span {
        inner: Some(Inner { id, level, target, name, start: Instant::now(), emitted: emit }),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else { return };
        let dur_ns = inner.start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        // Pop this span's stack entry. Guards drop LIFO in straight-line
        // code; if user code dropped guards out of order, remove by id so
        // the stack cannot grow without bound.
        let (child_ns, wait_ns) = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let entry = match s.last() {
                Some(top) if top.id == inner.id => s.pop(),
                _ => s.iter().rposition(|e| e.id == inner.id).map(|idx| s.remove(idx)),
            };
            if let Some(parent) = s.last_mut() {
                parent.child_ns = parent.child_ns.saturating_add(dur_ns);
            }
            entry.map_or((0, 0), |e| (e.child_ns, e.wait_ns))
        });
        let wait_ns = wait_ns.min(dur_ns.saturating_sub(child_ns));
        let self_ns = dur_ns.saturating_sub(child_ns).saturating_sub(wait_ns);
        if crate::profile::profiling() {
            crate::profile::record(inner.target, inner.name, dur_ns, self_ns, wait_ns);
        }
        if inner.emitted {
            dispatch(&Event {
                seq: 0,
                kind: EventKind::SpanClose,
                level: inner.level,
                target: inner.target,
                name: inner.name,
                span_id: inner.id,
                parent: 0,
                dur_ns: Some(dur_ns),
                self_ns: Some(self_ns),
                fields: &[],
                msg: None,
            });
        }
    }
}

/// Runs `f`, which should block (join a thread, wait on a condition
/// variable), and books its wall time to the innermost open span on this
/// thread as wait rather than self time. Spans closed inside `f` still
/// count as that span's children, not as wait. With no live span on this
/// thread, `f` just runs: no clock read.
pub fn wait<T>(f: impl FnOnce() -> T) -> T {
    let Some((id, child_before)) =
        STACK.with(|s| s.borrow().last().map(|e| (e.id, e.child_ns)))
    else {
        return f();
    };
    let start = Instant::now();
    let out = f();
    let elapsed = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    STACK.with(|s| {
        if let Some(top) = s.borrow_mut().last_mut().filter(|e| e.id == id) {
            let children = top.child_ns.saturating_sub(child_before);
            top.wait_ns = top.wait_ns.saturating_add(elapsed.saturating_sub(children));
        }
    });
    out
}

impl Span {
    /// Whether this span is live (a sink or the profiler is watching).
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// This span's id (0 when inert).
    pub fn id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::capture;
    use std::sync::{Mutex, MutexGuard};

    /// Serializes the tests that switch the process-wide profiler on and
    /// off, so one cannot switch it off under another's open span.
    fn profiling_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn spans_nest_and_close_in_order() {
        let ((), events) = capture(|| {
            let outer = span(Level::Info, "test", "outer");
            let outer_id = outer.id();
            {
                let inner = span(Level::Info, "test", "inner");
                assert_ne!(inner.id(), outer_id);
            }
            drop(outer);
        });
        let opens: Vec<_> =
            events.iter().filter(|e| e.kind == EventKind::SpanOpen && e.target == "test").collect();
        let closes: Vec<_> =
            events.iter().filter(|e| e.kind == EventKind::SpanClose && e.target == "test").collect();
        assert_eq!(opens.len(), 2);
        assert_eq!(closes.len(), 2);
        // Inner's parent is outer; outer is a root.
        let outer_open = opens.iter().find(|e| e.name == "outer").unwrap();
        let inner_open = opens.iter().find(|e| e.name == "inner").unwrap();
        assert_eq!(inner_open.parent, outer_open.span_id);
        // Inner closes before outer; sequence numbers are monotonic.
        let inner_close = closes.iter().find(|e| e.name == "inner").unwrap();
        let outer_close = closes.iter().find(|e| e.name == "outer").unwrap();
        assert!(inner_close.seq < outer_close.seq);
    }

    #[test]
    fn panicking_scope_still_closes_its_span() {
        let ((), events) = capture(|| {
            let result = std::panic::catch_unwind(|| {
                let _s = span(Level::Info, "test", "doomed");
                panic!("boom");
            });
            assert!(result.is_err());
        });
        let opens =
            events.iter().filter(|e| e.kind == EventKind::SpanOpen && e.name == "doomed").count();
        let closes =
            events.iter().filter(|e| e.kind == EventKind::SpanClose && e.name == "doomed").count();
        assert_eq!(opens, 1);
        assert_eq!(closes, 1, "drop during unwind must close the span");
    }

    #[test]
    fn span_blocked_on_a_child_thread_reports_wait_not_self_time() {
        let _serial = profiling_lock();
        crate::profile::set_profiling(true);
        {
            let _s = span(Level::Trace, "wtest", "blocked");
            let child = std::thread::spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(40));
            });
            wait(|| child.join()).expect("child thread");
        }
        crate::profile::set_profiling(false);
        let rows = crate::profile::profile_snapshot();
        let row = rows
            .iter()
            .find(|r| r.target == "wtest" && r.name == "blocked")
            .expect("profiled");
        assert_eq!(row.count, 1);
        assert!(row.total_ns >= 40_000_000, "{row:?}");
        assert!(row.wait_ns >= 39_000_000, "the join is wait: {row:?}");
        assert!(row.self_ns < 5_000_000, "near-zero self time: {row:?}");
        assert_eq!(row.total_ns, row.self_ns + row.wait_ns, "no children: {row:?}");
    }

    #[test]
    fn wait_excludes_spans_closed_inside_it() {
        let _serial = profiling_lock();
        crate::profile::set_profiling(true);
        {
            let _s = span(Level::Trace, "wtest", "outer");
            wait(|| {
                let _c = span(Level::Trace, "wtest", "inner");
                std::thread::sleep(std::time::Duration::from_millis(10));
            });
        }
        crate::profile::set_profiling(false);
        let rows = crate::profile::profile_snapshot();
        let outer = rows.iter().find(|r| r.target == "wtest" && r.name == "outer").unwrap();
        assert!(outer.wait_ns < 5_000_000, "the child span is not wait: {outer:?}");
        assert!(outer.self_ns < 5_000_000, "nor self time: {outer:?}");
    }

    #[test]
    fn wait_without_a_live_span_just_runs() {
        assert_eq!(wait(|| 7), 7);
    }

    #[test]
    fn inert_span_when_disabled() {
        // Outside `capture` no sink is installed by this test; if another
        // test's capture window overlaps, the span may be live — both are
        // valid, the call just must be cheap and not panic.
        let s = span(Level::Trace, "test", "maybe");
        let _ = s.is_active();
    }
}
