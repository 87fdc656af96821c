//! Per-shard circuit breaker: trip on consecutive evaluation failures,
//! reject while open, probe half-open after a cooldown.
//!
//! State machine:
//!
//! ```text
//!            N consecutive failures
//!   Closed ───────────────────────────▶ Open
//!     ▲                                  │ cooldown elapsed
//!     │ probe outcome: success           ▼ (first admit transitions)
//!     └───────────────────────────── HalfOpen
//!                 probe outcome: failure └──▶ Open (cooldown restarts)
//! ```
//!
//! `HalfOpen` admits requests (the probe trickle); the first recorded
//! outcome decides. Deadline expiries and shed requests are *not*
//! outcomes — only evaluation results move the breaker, so a load spike
//! alone can never trip it.
//!
//! Transitions are counted on the breaker's own `serve.breaker.*`
//! counters, which the server sums into its `metrics` op so an operator
//! can see flapping without scraping logs.

use archline_obs::Counter;
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Indices into [`Breaker::TRANSITIONS`]: Closed→Open (trips),
/// Open→HalfOpen (probe admissions), HalfOpen→Closed (recoveries),
/// HalfOpen→Open (failed probes).
const TRIPS: usize = 0;
const PROBES: usize = 1;
const CLOSES: usize = 2;
const REOPENS: usize = 3;

const CLOSED: u8 = 0;
const OPEN: u8 = 1;
const HALF_OPEN: u8 = 2;

/// Observable breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: everything is admitted.
    Closed,
    /// Tripped: admission rejects until the cooldown elapses.
    Open,
    /// Probing: requests flow; the next outcome decides.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase name (metrics/trace vocabulary).
    pub fn name(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// One shard's breaker. All methods are lock-free on the hot (closed)
/// path; the `opened_at` mutex is touched only while open.
pub struct Breaker {
    state: AtomicU8,
    consecutive_failures: AtomicU32,
    opened_at: Mutex<Option<Instant>>,
    trip_threshold: u32,
    cooldown: Duration,
    transitions: [Counter; 4],
}

impl Breaker {
    /// Exposition names of the transition counts, in the order
    /// [`Breaker::transitions`] reports them.
    pub const TRANSITIONS: [&'static str; 4] = [
        "serve.breaker.trips",
        "serve.breaker.probes",
        "serve.breaker.closes",
        "serve.breaker.reopens",
    ];

    /// A closed breaker that trips after `trip_threshold` consecutive
    /// failures and probes after `cooldown` spent open. A threshold of 0
    /// is clamped to 1 (a breaker that can never trip would be
    /// decorative).
    pub fn new(trip_threshold: u32, cooldown: Duration) -> Self {
        Self {
            state: AtomicU8::new(CLOSED),
            consecutive_failures: AtomicU32::new(0),
            opened_at: Mutex::new(None),
            trip_threshold: trip_threshold.max(1),
            cooldown,
            transitions: Self::TRANSITIONS.map(Counter::new),
        }
    }

    /// Transition counts so far, named by [`Breaker::TRANSITIONS`].
    pub fn transitions(&self) -> [u64; 4] {
        self.transitions.each_ref().map(Counter::get)
    }

    /// Current state (the lazy Open→HalfOpen transition happens in
    /// [`Self::admit`], so this can report `Open` with an expired
    /// cooldown).
    pub fn state(&self) -> BreakerState {
        // ordering: Relaxed — observational read; every datum the state
        // guards (`opened_at`) is behind its own mutex.
        match self.state.load(Ordering::Relaxed) {
            OPEN => BreakerState::Open,
            HALF_OPEN => BreakerState::HalfOpen,
            _ => BreakerState::Closed,
        }
    }

    /// Admission check. `false` means reject with
    /// [`Reject::BreakerOpen`](crate::Reject::BreakerOpen). When the
    /// cooldown has elapsed, the first caller flips Open→HalfOpen and is
    /// admitted as the probe.
    pub fn admit(&self) -> bool {
        // ordering: Relaxed — the hot (closed) path reads only the state
        // byte; `opened_at` is mutex-ordered on the open path, and a racy
        // not-yet-written None is handled below by `unwrap_or(true)`.
        match self.state.load(Ordering::Relaxed) {
            CLOSED | HALF_OPEN => true,
            _ => {
                let elapsed = {
                    let guard = self.opened_at.lock().unwrap_or_else(|e| e.into_inner());
                    guard.map(|t| t.elapsed() >= self.cooldown).unwrap_or(true)
                };
                if !elapsed {
                    return false;
                }
                // One winner flips to half-open and carries the probe;
                // losers stay rejected until the probe resolves.
                // ordering: AcqRel — cold-path transition: atomicity picks
                // the single probe winner; the conservative edge keeps all
                // state transitions totally ordered at zero hot-path cost.
                let won = self
                    .state
                    .compare_exchange(OPEN, HALF_OPEN, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok();
                if won {
                    self.transitions[PROBES].add_owned(1);
                }
                won
            }
        }
    }

    /// Records a successful evaluation outcome.
    pub fn on_success(&self) {
        // ordering: Relaxed — standalone saturation counter; the trip
        // decision in on_failure reads only this one cell.
        self.consecutive_failures.store(0, Ordering::Relaxed);
        // ordering: AcqRel — cold-path transition, kept totally ordered
        // with the other state edges (atomicity alone decides the winner).
        if self
            .state
            .compare_exchange(HALF_OPEN, CLOSED, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            self.transitions[CLOSES].add_owned(1);
        }
    }

    /// Records a failed evaluation outcome; trips Closed→Open at the
    /// threshold and re-opens a failed half-open probe.
    pub fn on_failure(&self) {
        // ordering: Relaxed — RMW atomicity gives each failure a distinct
        // count; exactly one caller observes the threshold value.
        let failures = self.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
        // ordering: Relaxed — advisory read; the CAS below re-validates
        // the transition it picks.
        let state = self.state.load(Ordering::Relaxed);
        let (from, counter) = match state {
            HALF_OPEN => (HALF_OPEN, REOPENS),
            CLOSED if failures >= self.trip_threshold => (CLOSED, TRIPS),
            _ => return,
        };
        // ordering: AcqRel — cold-path transition, kept totally ordered
        // with the other state edges; `opened_at` is published by its
        // mutex, not by this CAS.
        if self.state.compare_exchange(from, OPEN, Ordering::AcqRel, Ordering::Acquire).is_ok() {
            *self.opened_at.lock().unwrap_or_else(|e| e.into_inner()) = Some(Instant::now());
            self.transitions[counter].add_owned(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_after_consecutive_failures_only() {
        let b = Breaker::new(3, Duration::from_secs(3600));
        for _ in 0..2 {
            b.on_failure();
        }
        assert_eq!(b.state(), BreakerState::Closed);
        // A success resets the streak: two more failures still don't trip.
        b.on_success();
        b.on_failure();
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.admit());
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.admit(), "open rejects inside the cooldown");
    }

    #[test]
    fn half_open_probe_closes_on_success_and_reopens_on_failure() {
        let b = Breaker::new(1, Duration::from_millis(0));
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        // Zero cooldown: the next admit is the probe.
        assert!(b.admit());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open, "failed probe reopens");
        assert!(b.admit());
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed, "successful probe closes");
        assert!(b.admit());
    }

    #[test]
    fn cooldown_gates_the_probe() {
        let b = Breaker::new(1, Duration::from_secs(3600));
        b.on_failure();
        assert!(!b.admit(), "cooldown not elapsed: no probe");
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn transition_counters_move() {
        let b = Breaker::new(1, Duration::from_millis(0));
        b.on_failure();
        assert!(b.admit());
        b.on_failure();
        assert!(b.admit());
        b.on_success();
        assert_eq!(b.transitions(), [1, 2, 1, 1], "trips, probes, closes, reopens");
        let global = archline_obs::metrics::snapshot();
        assert_eq!(global.counter("serve.breaker.trips"), None, "owned, not registered");
    }
}
