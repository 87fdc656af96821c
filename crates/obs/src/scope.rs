//! Event scopes: which piece of work a thread's events belong to.
//!
//! Sinks are process-wide, so a sink installed for one piece of work also
//! hears every other thread in the process. A [`Scope`] tags the current
//! thread; the test capture sink ([`crate::CaptureSink`], behind
//! [`crate::test_support::capture`]) keeps only events emitted under its
//! scope. Code that hands work to another thread — `archline-par`'s fork-join
//! tasks, the serve crate's shard and connection threads — carries the
//! submitter's scope across with [`current_scope`] and [`Scope::enter`], so
//! the scope covers the capturing thread and the threads it puts to work.
//!
//! Unscoped threads are in scope 0, which no capture matches; the other
//! sinks ignore scopes entirely.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_SCOPE: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

/// A copyable event-scope token (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Scope(u64);

impl Scope {
    /// A scope no other call returns.
    pub(crate) fn fresh() -> Self {
        // ordering: Relaxed — id allocator: uniqueness is the only contract.
        Self(NEXT_SCOPE.fetch_add(1, Ordering::Relaxed))
    }

    /// Makes this the current thread's scope until the guard drops, which
    /// restores the previous one.
    pub fn enter(self) -> ScopeGuard {
        ScopeGuard { previous: CURRENT.with(|c| c.replace(self.0)) }
    }
}

/// The current thread's scope, to hand to a thread or task doing its work.
pub fn current_scope() -> Scope {
    Scope(CURRENT.with(Cell::get))
}

/// Restores the previous scope when dropped (see [`Scope::enter`]).
#[must_use = "the scope is left when the guard drops"]
pub struct ScopeGuard {
    previous: u64,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.previous));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enter_nests_and_restores() {
        let outer = Scope::fresh();
        let inner = Scope::fresh();
        assert_ne!(outer, inner);
        assert_eq!(current_scope(), Scope::default());
        {
            let _o = outer.enter();
            assert_eq!(current_scope(), outer);
            {
                let _i = inner.enter();
                assert_eq!(current_scope(), inner);
            }
            assert_eq!(current_scope(), outer);
            // A spawned thread starts unscoped until it enters one.
            let handed = current_scope();
            std::thread::spawn(move || {
                assert_eq!(current_scope(), Scope::default());
                let _g = handed.enter();
                assert_eq!(current_scope(), outer);
            })
            .join()
            .unwrap();
        }
        assert_eq!(current_scope(), Scope::default());
    }
}
