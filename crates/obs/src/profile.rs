//! The self-time profile behind `repro --profile`.
//!
//! When profiling is on, every closed span folds its timing into a
//! per-`(target, name)` table: call count, total wall time, and *self*
//! time (total minus time spent in same-thread child spans and minus time
//! spent blocked, see [`crate::span::wait`]), and that blocked *wait* time.
//! Self time is what answers "where does the pipeline actually spend its
//! time" without double-counting nested stages or booking a join barrier's
//! sleep as work.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

static PROFILING: AtomicBool = AtomicBool::new(false);

type Key = (&'static str, &'static str);

static TABLE: Mutex<BTreeMap<Key, ProfileEntry>> = Mutex::new(BTreeMap::new());

/// Aggregated statistics for one span site.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileEntry {
    /// Subsystem (`fit`, `par`, `repro`, ...).
    pub target: String,
    /// Span name.
    pub name: String,
    /// Times the span closed.
    pub count: u64,
    /// Total wall time across closes, ns.
    pub total_ns: u64,
    /// Total minus same-thread child time and wait time, ns.
    pub self_ns: u64,
    /// Time spent blocked in [`crate::span::wait`] outside children, ns.
    pub wait_ns: u64,
}

/// Whether span timings are being folded into the profile.
#[inline]
pub fn profiling() -> bool {
    // ordering: Relaxed — standalone on/off gate; the profile table itself
    // is under a Mutex, which orders all recorded data.
    PROFILING.load(Ordering::Relaxed)
}

/// Turns profiling on or off (spans become live even with no sink).
pub fn set_profiling(on: bool) {
    // ordering: Relaxed — standalone gate, see `profiling`.
    PROFILING.store(on, Ordering::Relaxed);
}

pub(crate) fn record(
    target: &'static str,
    name: &'static str,
    dur_ns: u64,
    self_ns: u64,
    wait_ns: u64,
) {
    let mut table = TABLE.lock().unwrap_or_else(|e| e.into_inner());
    let e = table.entry((target, name)).or_insert_with(|| ProfileEntry {
        target: target.to_string(),
        name: name.to_string(),
        ..ProfileEntry::default()
    });
    e.count += 1;
    e.total_ns = e.total_ns.saturating_add(dur_ns);
    e.self_ns = e.self_ns.saturating_add(self_ns);
    e.wait_ns = e.wait_ns.saturating_add(wait_ns);
}

/// The profile so far, sorted by self time descending (then by name for
/// deterministic ties).
pub fn profile_snapshot() -> Vec<ProfileEntry> {
    let table = TABLE.lock().unwrap_or_else(|e| e.into_inner());
    let mut rows: Vec<ProfileEntry> = table.values().cloned().collect();
    rows.sort_by(|a, b| {
        b.self_ns
            .cmp(&a.self_ns)
            .then_with(|| a.target.cmp(&b.target))
            .then_with(|| a.name.cmp(&b.name))
    });
    rows
}

/// Renders the profile as an aligned human-readable table (what
/// `repro --profile` prints to stderr).
pub fn render_profile(rows: &[ProfileEntry]) -> String {
    let mut out = String::new();
    use std::fmt::Write as _;
    let total_self: u64 = rows.iter().map(|r| r.self_ns).sum();
    let _ = writeln!(
        out,
        "{:<32} {:>8} {:>12} {:>12} {:>6} {:>12}",
        "span", "count", "total_ms", "self_ms", "self%", "wait_ms"
    );
    for r in rows {
        let pct = if total_self > 0 { 100.0 * r.self_ns as f64 / total_self as f64 } else { 0.0 };
        let _ = writeln!(
            out,
            "{:<32} {:>8} {:>12.3} {:>12.3} {:>5.1}% {:>12.3}",
            format!("{}.{}", r.target, r.name),
            r.count,
            r.total_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6,
            pct,
            r.wait_ns as f64 / 1e6
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_accumulates_and_sorts_by_self_time() {
        record("ptest", "slow", 5_000_000, 4_000_000, 0);
        record("ptest", "fast", 1_000_000, 500_000, 250_000);
        record("ptest", "slow", 5_000_000, 4_000_000, 0);
        let rows = profile_snapshot();
        let slow = rows.iter().find(|r| r.target == "ptest" && r.name == "slow").unwrap();
        let fast = rows.iter().find(|r| r.target == "ptest" && r.name == "fast").unwrap();
        assert_eq!(slow.count, 2);
        assert_eq!(slow.total_ns, 10_000_000);
        assert_eq!(slow.self_ns, 8_000_000);
        let slow_idx = rows.iter().position(|r| r.name == "slow" && r.target == "ptest").unwrap();
        let fast_idx = rows.iter().position(|r| r.name == "fast" && r.target == "ptest").unwrap();
        assert!(slow_idx < fast_idx, "higher self time sorts first");
        assert_eq!(fast.count, 1);
        assert_eq!(fast.wait_ns, 250_000);
        let table = render_profile(&rows);
        assert!(table.contains("ptest.slow"), "{table}");
        assert!(table.contains("self_ms"), "{table}");
        assert!(table.contains("wait_ms"), "{table}");
        let fast_line = table.lines().find(|l| l.starts_with("ptest.fast")).unwrap();
        assert!(fast_line.ends_with("0.250"), "wait column: {fast_line}");
    }
}
