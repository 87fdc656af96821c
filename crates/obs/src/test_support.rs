//! Test helpers: run a closure with an in-memory capture sink installed
//! and get back everything it emitted.
//!
//! Sinks are process-global, and the test harness runs tests on parallel
//! threads, so a capture window would also hear every other test that emits
//! while it is open. `capture` therefore runs the closure under a fresh
//! [`Scope`] and keeps only events emitted under it: the capturing thread's
//! own, plus those of the threads and fork-join tasks it puts to work
//! (`archline-par`'s batches and the serve crate's shard and connection
//! threads carry the submitter's scope across, see [`crate::scope`]). A
//! global mutex still serializes capture windows, because the stderr level
//! and the sink set are process-wide.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use crate::event::OwnedEvent;
use crate::scope::Scope;
use crate::sink::CaptureSink;

fn capture_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` with a fresh capture sink installed; returns `f`'s result and
/// every event emitted during the window under `f`'s scope (the calling
/// thread and the work it hands to other threads), in `seq` order.
///
/// The sink is removed even if `f` panics (the panic is then propagated),
/// so one failing test cannot leave global tracing enabled for the rest of
/// the suite.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Vec<OwnedEvent>) {
    let _guard = capture_lock();
    let scope = Scope::fresh();
    let sink = Arc::new(CaptureSink::new(scope));
    let id = crate::install_sink(sink.clone());
    let result = {
        let _in_scope = scope.enter();
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
    };
    crate::remove_sink(id);
    let mut events = sink.drain();
    events.sort_by_key(|e| e.seq);
    match result {
        Ok(v) => (v, events),
        Err(p) => std::panic::resume_unwind(p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventKind, Level};

    #[test]
    fn capture_sees_events_and_cleans_up() {
        let ((), events) = capture(|| {
            crate::emit(Level::Info, "tsup", "ping", &[crate::field("n", 1u64)]);
        });
        let ping =
            events.iter().find(|e| e.target == "tsup" && e.name == "ping").expect("captured");
        assert_eq!(ping.kind, EventKind::Point);
        assert_eq!(ping.get_u64("n"), Some(1));
    }

    #[test]
    fn capture_removes_sink_on_panic() {
        let r = std::panic::catch_unwind(|| {
            capture(|| {
                crate::emit(Level::Info, "tsup", "pre-panic", &[]);
                panic!("test panic");
            })
        });
        assert!(r.is_err());
        // A later capture window still works and starts empty of our events.
        let ((), events) = capture(|| {
            crate::emit(Level::Info, "tsup", "after", &[]);
        });
        assert!(events.iter().any(|e| e.name == "after"));
        assert!(!events.iter().any(|e| e.name == "pre-panic"));
    }

    #[test]
    fn capture_keeps_its_own_threads_and_drops_bystanders() {
        use std::sync::mpsc;
        // A bystander thread (standing in for a parallel test) emits while
        // the window is open; a worker the closure starts emits under the
        // handed-over scope.
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let bystander = std::thread::spawn(move || {
            go_rx.recv().unwrap();
            crate::emit(Level::Info, "tsup", "bystander", &[]);
            done_tx.send(()).unwrap();
        });
        let ((), events) = capture(|| {
            crate::emit(Level::Info, "tsup", "mine", &[]);
            go_tx.send(()).unwrap();
            done_rx.recv().unwrap();
            let scope = crate::current_scope();
            std::thread::spawn(move || {
                let _g = scope.enter();
                crate::emit(Level::Info, "tsup", "worker", &[]);
            })
            .join()
            .unwrap();
        });
        bystander.join().unwrap();
        let names: Vec<&str> =
            events.iter().filter(|e| e.target == "tsup").map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["mine", "worker"]);
    }
}
