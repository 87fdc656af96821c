//! # archline-obs — structured tracing, metrics, and diagnostics
//!
//! The paper's claims live or die on *measured* time/energy/power, so the
//! pipeline that produces those measurements must itself be auditable. This
//! crate is the zero-dependency observability substrate every other
//! workspace crate instruments against:
//!
//! * **Hierarchical spans** ([`span`]) with monotonic timing (`Instant`,
//!   never wall-clock) and per-thread nesting, closed by RAII guard — a
//!   span opened inside a panicking executor task still closes during
//!   unwind.
//! * **Process-wide metrics** ([`Counter`], [`Gauge`], [`Histogram`]):
//!   lock-free atomic updates, registered lazily, snapshotted on demand.
//! * **Pluggable sinks**: a built-in human-readable stderr sink at a
//!   configurable verbosity, a machine-readable JSONL event stream
//!   ([`JsonlSink`], wired to `--trace-out` / `ARCHLINE_TRACE`), and an
//!   in-memory capture sink for tests ([`test_support::capture`]).
//! * **A self-time profile** ([`profile`]): per-(target, name) span
//!   statistics with self time (total minus child and wait time) and wait
//!   time (blocked in [`span::wait`]), behind `repro --profile`.
//!
//! # Determinism
//!
//! JSONL events are keyed by a process-wide monotonic sequence number —
//! never by wall-clock time — so two traces of the same run are diffable
//! after a stable sort on `seq`. Durations appear only as *data* fields
//! (`dur_us`/`self_us`) and can be suppressed entirely with
//! `ARCHLINE_TRACE_TIMING=0` for byte-diffable traces (single-threaded
//! runs; with the work-stealing executor the interleaving itself varies).
//!
//! # Overhead
//!
//! When nothing is listening (no sink installed, profiling off), every
//! entry point reduces to one or two relaxed atomic loads: [`span`] returns
//! an inert guard without reading the clock, the logging macros skip their
//! `format!`, and events are dropped before any allocation. Counters always
//! count (a relaxed `fetch_add`); `crates/bench/benches/obs.rs` pins these
//! costs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod git;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod scope;
pub mod sink;
pub mod span;
pub mod test_support;

pub use event::{field, Event, EventKind, Field, FieldValue, OwnedEvent};
pub use git::git_revision;
pub use metrics::{counter, Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot};
pub use profile::{profile_snapshot, render_profile, set_profiling, ProfileEntry};
pub use scope::{current_scope, Scope, ScopeGuard};
pub use sink::{install_sink, remove_sink, CaptureSink, JsonlSink, Sink, SinkId};
pub use span::{span, span_with, wait, Span};

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};

/// Severity / verbosity of a log line, event, or span.
///
/// The numeric order is the filtering order: a sink at [`Level::Info`]
/// passes `Error`, `Warn`, and `Info`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Level {
    /// The pipeline lost something it should not have.
    Error = 1,
    /// Suspicious but survivable (degraded fits, schema mismatches).
    Warn = 2,
    /// Progress and results (`[time]` lines, artifact completion).
    Info = 3,
    /// Stage-level detail: fit stages, rejection events, fault audits.
    Debug = 4,
    /// Everything: per-task executor spans, NM iteration traces.
    Trace = 5,
}

impl Level {
    /// Stable lowercase name (as written in JSONL `level` fields).
    pub fn name(&self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Parses a level name (`error|warn|info|debug|trace`).
    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "error" => Some(Level::Error),
            "warn" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }

    /// Converts the numeric representation back to a level.
    pub fn from_u8(v: u8) -> Option<Level> {
        match v {
            1 => Some(Level::Error),
            2 => Some(Level::Warn),
            3 => Some(Level::Info),
            4 => Some(Level::Debug),
            5 => Some(Level::Trace),
            _ => None,
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Cached maximum level any sink wants — the one atomic the disabled fast
/// path reads. 0 means "nothing listening".
static MAX_LEVEL: AtomicU8 = AtomicU8::new(0);

/// Whether JSONL events include wall-time duration fields.
static TIMING: AtomicBool = AtomicBool::new(true);

/// `true` when anything (any sink) would accept an event at `level`.
/// One relaxed load — this is the hot-path gate.
#[inline]
pub fn enabled(level: Level) -> bool {
    // ordering: Relaxed — level gate with no dependent data; a stale read
    // costs one extra (or one missed) event around a reconfiguration, and
    // sink installs resync via the SINKS RwLock before events flow.
    level as u8 <= MAX_LEVEL.load(Ordering::Relaxed)
}

pub(crate) fn set_max_level(v: u8) {
    // ordering: Relaxed — see `enabled`: standalone gate, no payload.
    MAX_LEVEL.store(v, Ordering::Relaxed);
}

/// Whether JSONL sinks include `dur_us`/`self_us` fields (default yes;
/// `ARCHLINE_TRACE_TIMING=0` turns them off for byte-diffable traces).
pub fn timing_fields() -> bool {
    // ordering: Relaxed — standalone format flag; no dependent data.
    TIMING.load(Ordering::Relaxed)
}

/// Sets whether JSONL events carry wall-time duration fields.
pub fn set_timing_fields(on: bool) {
    // ordering: Relaxed — standalone format flag; no dependent data.
    TIMING.store(on, Ordering::Relaxed);
}

/// Sets the built-in stderr sink's verbosity. `None` silences it.
pub fn set_stderr_level(level: Option<Level>) {
    sink::set_stderr_level(level);
}

/// Reads the environment and wires up sinks accordingly:
///
/// * `ARCHLINE_TRACE=<path>` — install a JSONL sink writing to `<path>`.
/// * `ARCHLINE_LOG=<error|warn|info|debug|trace>` — set the stderr
///   verbosity (leaves it untouched when unset, so binaries keep the
///   default they chose).
/// * `ARCHLINE_TRACE_TIMING=0` — omit wall-time fields from JSONL events.
///
/// Returns an error string when `ARCHLINE_TRACE` names an unwritable path.
pub fn init_from_env() -> Result<(), String> {
    if let Ok(v) = std::env::var("ARCHLINE_TRACE_TIMING") {
        if v == "0" || v.eq_ignore_ascii_case("false") {
            set_timing_fields(false);
        }
    }
    if let Ok(level) = std::env::var("ARCHLINE_LOG") {
        match Level::parse(&level) {
            Some(l) => set_stderr_level(Some(l)),
            None => return Err(format!("ARCHLINE_LOG: unknown level `{level}`")),
        }
    }
    if let Ok(path) = std::env::var("ARCHLINE_TRACE") {
        if !path.is_empty() {
            let sink = JsonlSink::file(&path)
                .map_err(|e| format!("ARCHLINE_TRACE: cannot open `{path}`: {e}"))?;
            install_sink(std::sync::Arc::new(sink));
        }
    }
    Ok(())
}

/// Emits a log line (already formatted). Prefer the level macros
/// ([`error!`], [`warn!`], [`info!`], [`debug!`], [`trace!`]), which skip
/// formatting when nothing is listening.
pub fn log(level: Level, target: &'static str, msg: &str) {
    if !enabled(level) {
        return;
    }
    event::dispatch(&Event {
        seq: 0,
        kind: EventKind::Log,
        level,
        target,
        name: "",
        span_id: 0,
        parent: 0,
        dur_ns: None,
        self_ns: None,
        fields: &[],
        msg: Some(msg),
    });
}

/// Emits a structured point event (a named occurrence with fields —
/// a fault injection, an NM convergence verdict, a sanitize repair).
pub fn emit(level: Level, target: &'static str, name: &'static str, fields: &[Field]) {
    if !enabled(level) {
        return;
    }
    event::dispatch(&Event {
        seq: 0,
        kind: EventKind::Point,
        level,
        target,
        name,
        span_id: 0,
        parent: 0,
        dur_ns: None,
        self_ns: None,
        fields,
        msg: None,
    });
}

/// Flushes every sink: JSONL sinks receive a final `metrics` event (the
/// full counter/gauge/histogram snapshot) and flush their writers. Call
/// once before process exit.
pub fn flush() {
    let snap = metrics::snapshot();
    sink::flush_all(&snap);
}

/// Logs at [`Level::Error`]; formats lazily.
#[macro_export]
macro_rules! error {
    ($target:expr, $($arg:tt)*) => {
        if $crate::enabled($crate::Level::Error) {
            $crate::log($crate::Level::Error, $target, &format!($($arg)*));
        }
    };
}

/// Logs at [`Level::Warn`]; formats lazily.
#[macro_export]
macro_rules! warn {
    ($target:expr, $($arg:tt)*) => {
        if $crate::enabled($crate::Level::Warn) {
            $crate::log($crate::Level::Warn, $target, &format!($($arg)*));
        }
    };
}

/// Logs at [`Level::Info`]; formats lazily.
#[macro_export]
macro_rules! info {
    ($target:expr, $($arg:tt)*) => {
        if $crate::enabled($crate::Level::Info) {
            $crate::log($crate::Level::Info, $target, &format!($($arg)*));
        }
    };
}

/// Logs at [`Level::Debug`]; formats lazily.
#[macro_export]
macro_rules! debug {
    ($target:expr, $($arg:tt)*) => {
        if $crate::enabled($crate::Level::Debug) {
            $crate::log($crate::Level::Debug, $target, &format!($($arg)*));
        }
    };
}

/// Logs at [`Level::Trace`]; formats lazily.
#[macro_export]
macro_rules! trace {
    ($target:expr, $($arg:tt)*) => {
        if $crate::enabled($crate::Level::Trace) {
            $crate::log($crate::Level::Trace, $target, &format!($($arg)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_order_and_names_round_trip() {
        assert!(Level::Error < Level::Trace);
        for l in [Level::Error, Level::Warn, Level::Info, Level::Debug, Level::Trace] {
            assert_eq!(Level::parse(l.name()), Some(l));
            assert_eq!(Level::from_u8(l as u8), Some(l));
        }
        assert_eq!(Level::parse("loud"), None);
        assert_eq!(Level::from_u8(0), None);
    }

    #[test]
    fn disabled_by_default_in_tests() {
        // No sink installed by this test: the gate must be closed unless a
        // concurrently-running capture test opened it; either way the call
        // is a cheap no-op and must not panic.
        let _ = enabled(Level::Trace);
        log(Level::Info, "obs", "goes nowhere");
        emit(Level::Info, "obs", "nothing", &[]);
    }
}
