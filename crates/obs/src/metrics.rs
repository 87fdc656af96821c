//! Process-wide metrics: counters, gauges, and power-of-two histograms.
//!
//! All updates are single relaxed atomic operations — metrics stay on even
//! when no sink is installed, because a `fetch_add` is cheaper than any
//! branch-and-maybe-count scheme is worth. `static` instruments register
//! themselves in a global registry on first use (via [`std::sync::Once`]),
//! so a snapshot sees exactly the instruments the run actually touched.
//!
//! Three ways to hold an instrument:
//!
//! * `static TASKS: Counter = Counter::new("par.tasks");` — zero-cost
//!   static with `const` construction, updated through the registering
//!   `&'static self` entry points (`add`, `set`, `record`, …);
//! * [`counter(name)`](counter) — a name built at run time, leaked into
//!   the registry (bounded: one allocation per distinct name per process);
//! * a plain struct field, updated through the `*_owned` methods, which
//!   never touch the registry — the owner reports it (e.g. one server's
//!   instruments, so two servers in one process never mix counts).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, Once};

use crate::json;

/// A monotonically increasing counter.
pub struct Counter {
    name: &'static str,
    v: AtomicU64,
    once: Once,
}

impl Counter {
    /// A new counter; registers itself on first [`add`](Counter::add).
    pub const fn new(name: &'static str) -> Self {
        Self { name, v: AtomicU64::new(0), once: Once::new() }
    }

    /// Adds `n`, registering the counter on first use. Requires
    /// `&'static self` so the registry can hold the reference.
    #[inline]
    pub fn add(&'static self, n: u64) {
        self.once.call_once(|| with_registry(|r| r.counters.push(self)));
        self.add_owned(n);
    }

    /// Adds `n` without registering: for a counter its owner reports.
    #[inline]
    pub fn add_owned(&self, n: u64) {
        // ordering: Relaxed — monotonic statistic; snapshots tolerate
        // torn cross-counter views, and no reader derives control flow
        // from exact values.
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&'static self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // ordering: Relaxed — observational read of a statistic.
        self.v.load(Ordering::Relaxed)
    }

    /// The counter's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// A last-value-wins gauge (also tracks the maximum ever set).
pub struct Gauge {
    name: &'static str,
    v: AtomicU64,
    max: AtomicU64,
    once: Once,
}

impl Gauge {
    /// A new gauge; registers itself on first [`set`](Gauge::set).
    pub const fn new(name: &'static str) -> Self {
        Self { name, v: AtomicU64::new(0), max: AtomicU64::new(0), once: Once::new() }
    }

    /// Sets the current value (and folds it into the running maximum).
    #[inline]
    pub fn set(&'static self, v: u64) {
        self.once.call_once(|| with_registry(|r| r.gauges.push(self)));
        // ordering: Relaxed — last-value-wins statistic; `v` and `max` need
        // no mutual ordering (max is monotone under fetch_max atomicity).
        self.v.store(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Adjusts the current value by `delta`, saturating at zero, without
    /// registering: for an owner-held gauge tracking live occupancy (queue
    /// depths), where concurrent increments race decrements and `set`
    /// would lose updates.
    #[inline]
    pub fn adjust_owned(&self, delta: i64) {
        // ordering: Relaxed — occupancy statistic; fetch_update's RMW
        // atomicity alone keeps the running value consistent, and no
        // reader derives control flow from exact values.
        let updated = self
            .v
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_add_signed(delta))
            })
            .unwrap_or(0)
            .saturating_add_signed(delta);
        // ordering: Relaxed — max is monotone under fetch_max atomicity.
        self.max.fetch_max(updated, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // ordering: Relaxed — observational read of a statistic.
        self.v.load(Ordering::Relaxed)
    }

    /// Highest value ever set.
    pub fn max(&self) -> u64 {
        // ordering: Relaxed — observational read of a statistic.
        self.max.load(Ordering::Relaxed)
    }
}

const BUCKETS: usize = 64;

/// A histogram over `u64` samples with power-of-two buckets: bucket `i`
/// counts samples of bit length `i` (bucket 0 holds the value 0).
/// Fixed-size, lock-free — good enough for queue depths and durations.
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    once: Once,
}

impl Histogram {
    /// A new histogram; registers itself on first [`record`](Histogram::record).
    pub const fn new(name: &'static str) -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const Z: AtomicU64 = AtomicU64::new(0);
        Self {
            name,
            buckets: [Z; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            once: Once::new(),
        }
    }

    /// Records one sample, registering the histogram on first use.
    #[inline]
    pub fn record(&'static self, v: u64) {
        self.once.call_once(|| with_registry(|r| r.histograms.push(self)));
        self.record_owned(v);
    }

    /// Records one sample without registering: for a histogram its owner
    /// reports (through [`snapshot`](Histogram::snapshot)).
    #[inline]
    pub fn record_owned(&self, v: u64) {
        let b = (64 - v.leading_zeros()) as usize; // 0 for v==0, else bit length
        // ordering: Relaxed — per-cell statistics: a snapshot may observe a
        // sample in `buckets` before `count`/`sum`, which the reporter
        // tolerates (it never reconciles the cells against each other).
        self.buckets[b.min(BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Estimated `q`-quantile of every sample recorded so far. A
    /// convenience over snapshotting: see [`HistogramSnapshot::quantile`]
    /// for the estimator and its documented error bound.
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }

    /// A point-in-time copy of this histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        // ordering: Relaxed — observational snapshot; cells are
        // independent statistics (see `record`).
        let count = self.count.load(Ordering::Relaxed);
        let sum = self.sum.load(Ordering::Relaxed);
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            // ordering: Relaxed — observational snapshot cell.
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                // Inclusive upper bound of bucket i (values of bit length
                // i are < 2^i); bucket 0 is exactly the value 0.
                let le = if i == 0 { 0 } else { ((1u128 << i) - 1) as u64 };
                buckets.push((le, n));
            }
        }
        HistogramSnapshot {
            name: self.name.to_string(),
            count,
            sum,
            // ordering: Relaxed — observational snapshot cell.
            max: self.max.load(Ordering::Relaxed),
            mean: if count > 0 { sum as f64 / count as f64 } else { 0.0 },
            buckets,
        }
    }
}

/// A point-in-time copy of one histogram.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Registered name.
    pub name: String,
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
    /// Mean sample (0 when empty).
    pub mean: f64,
    /// Non-empty buckets as `(upper_bound_inclusive, count)`.
    pub buckets: Vec<(u64, u64)>,
}

/// Inclusive lower bound of the power-of-two bucket whose inclusive upper
/// bound is `le` (bucket 0 holds exactly the value 0).
fn bucket_lo(le: u64) -> u64 {
    if le == 0 {
        0
    } else {
        (le >> 1) + 1
    }
}

impl HistogramSnapshot {
    /// Estimated `q`-quantile (nearest rank) of the recorded samples.
    /// `q` is clamped to `[0, 1]`; an empty histogram answers 0.
    ///
    /// # Error bound
    ///
    /// Bucket counts are exact, so the estimate `e` always lands in the
    /// same power-of-two bucket `[lo, 2·lo − 1]` as the true nearest-rank
    /// sample `t`. Buckets 0 and 1 each hold a single value (`0` and `1`),
    /// so for `t ≤ 1` the estimate is **exact**; for `t > 1` both `e` and
    /// `t` lie in `[lo, 2·lo − 1]`, giving the strict relative bound
    ///
    /// ```text
    /// t/2 < e < 2·t
    /// ```
    ///
    /// Within the shared bucket the estimate interpolates linearly in
    /// rank (assuming samples spread uniformly across the bucket) and is
    /// clamped to the recorded maximum, which only tightens the bound.
    /// `tests/obs_telemetry.rs` pins the bound against exact sorted
    /// samples by property test.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = if q <= 0.0 {
            1
        } else {
            ((q * self.count as f64).ceil() as u64).clamp(1, self.count)
        };
        let mut seen = 0u64;
        for &(le, n) in &self.buckets {
            if seen + n >= rank {
                let lo = bucket_lo(le);
                let hi = le.min(self.max).max(lo);
                // Linear rank interpolation inside the bucket: the r-th of
                // n samples sits a fraction r/n of the way up the range.
                let frac = (rank - seen) as f64 / n as f64;
                let est = lo as f64 + frac * (hi - lo) as f64;
                return (est.round() as u64).clamp(lo, hi);
            }
            seen += n;
        }
        // A torn concurrent snapshot can leave `count` ahead of the bucket
        // cells; the recorded maximum is the honest answer for the tail.
        self.max
    }
}

struct Registry {
    counters: Vec<&'static Counter>,
    gauges: Vec<&'static Gauge>,
    histograms: Vec<&'static Histogram>,
    dynamic: BTreeMap<String, &'static Counter>,
}

static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);

fn with_registry<T>(f: impl FnOnce(&mut Registry) -> T) -> T {
    let mut guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let reg = guard.get_or_insert_with(|| Registry {
        counters: Vec::new(),
        gauges: Vec::new(),
        histograms: Vec::new(),
        dynamic: BTreeMap::new(),
    });
    f(reg)
}

/// A dynamically named counter. The first call for a given name leaks one
/// `Counter` (and its name) so updates after lookup are as cheap as the
/// static flavor; subsequent calls return the same instance.
pub fn counter(name: &str) -> &'static Counter {
    with_registry(|r| {
        if let Some(c) = r.dynamic.get(name) {
            return *c;
        }
        let leaked_name: &'static str = Box::leak(name.to_string().into_boxed_str());
        let c: &'static Counter = Box::leak(Box::new(Counter::new(leaked_name)));
        // Registered here directly; burn the `Once` so the first `add`
        // doesn't register it a second time.
        c.once.call_once(|| {});
        r.dynamic.insert(leaked_name.to_string(), c);
        r.counters.push(c);
        c
    })
}

/// A point-in-time copy of every registered instrument, sorted by name.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter touched so far.
    pub counters: Vec<(String, u64)>,
    /// `(name, value, max)` for every gauge touched so far.
    pub gauges: Vec<(String, u64, u64)>,
    /// Every histogram touched so far.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The value of counter `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Appends this snapshot as a JSON object to `out`:
    /// `{"counters":{...},"gauges":{...},"histograms":{...}}`.
    pub fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        out.push_str("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_str_escaped(out, name);
            let _ = write!(out, ":{v}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v, max)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_str_escaped(out, name);
            let _ = write!(out, ":{{\"value\":{v},\"max\":{max}}}");
        }
        out.push_str("},\"histograms\":{");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_str_escaped(out, &h.name);
            let _ = write!(
                out,
                ":{{\"count\":{},\"sum\":{},\"max\":{},\"mean\":",
                h.count, h.sum, h.max
            );
            json::push_f64(out, h.mean);
            out.push_str(",\"buckets\":[");
            for (j, (le, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{le},{n}]");
            }
            out.push_str("]}");
        }
        out.push_str("}}");
    }

    /// Appends this snapshot in Prometheus text exposition format.
    ///
    /// Metric names are sanitized (every character outside
    /// `[a-zA-Z0-9_:]` becomes `_`, so `serve.latency_us` scrapes as
    /// `serve_latency_us`). Counters and gauges emit one series each
    /// (plus a `<name>_max` gauge for the high-water mark); histograms
    /// emit the conventional `<name>_bucket{le="..."}` cumulative series
    /// with a closing `le="+Inf"` bucket, `<name>_sum`, and
    /// `<name>_count`. Bucket cells and the count are updated relaxed, so
    /// a snapshot taken mid-record can momentarily disagree; the exporter
    /// reconciles by taking the larger of the two for `+Inf`/`_count`.
    pub fn write_prometheus(&self, out: &mut String) {
        use std::fmt::Write as _;
        for (name, v) in &self.counters {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} counter");
            let _ = writeln!(out, "{n} {v}");
        }
        for (name, v, max) in &self.gauges {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} gauge");
            let _ = writeln!(out, "{n} {v}");
            let _ = writeln!(out, "# TYPE {n}_max gauge");
            let _ = writeln!(out, "{n}_max {max}");
        }
        for h in &self.histograms {
            let n = prom_name(&h.name);
            let _ = writeln!(out, "# TYPE {n} histogram");
            let mut cum = 0u64;
            for (le, c) in &h.buckets {
                cum += c;
                let _ = writeln!(out, "{n}_bucket{{le=\"{le}\"}} {cum}");
            }
            let total = h.count.max(cum);
            let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {total}");
            let _ = writeln!(out, "{n}_sum {}", h.sum);
            let _ = writeln!(out, "{n}_count {total}");
        }
    }
}

/// Sanitizes a metric name for the Prometheus exposition format.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == ':' { c } else { '_' })
        .collect()
}

/// Snapshots every registered instrument, sorted (and same-name counters
/// merged) so the JSON output is deterministic regardless of registration
/// order.
pub fn snapshot() -> MetricsSnapshot {
    with_registry(|r| {
        let mut by_name: BTreeMap<String, u64> = BTreeMap::new();
        for c in &r.counters {
            *by_name.entry(c.name.to_string()).or_insert(0) += c.get();
        }
        let counters: Vec<(String, u64)> = by_name.into_iter().collect();
        let mut gauges: Vec<(String, u64, u64)> =
            r.gauges.iter().map(|g| (g.name.to_string(), g.get(), g.max())).collect();
        gauges.sort();
        let mut histograms: Vec<HistogramSnapshot> =
            r.histograms.iter().map(|h| h.snapshot()).collect();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot { counters, gauges, histograms }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        static C: Counter = Counter::new("test.metrics.counter");
        C.add(3);
        C.inc();
        assert_eq!(C.get(), 4);
        let snap = snapshot();
        assert_eq!(snap.counter("test.metrics.counter"), Some(4));
    }

    #[test]
    fn gauges_track_max() {
        static G: Gauge = Gauge::new("test.metrics.gauge");
        G.set(10);
        G.set(3);
        assert_eq!(G.get(), 3);
        assert_eq!(G.max(), 10);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        static H: Histogram = Histogram::new("test.metrics.hist");
        for v in [0u64, 1, 2, 3, 100, 1000] {
            H.record(v);
        }
        let snap = snapshot();
        let h = snap.histograms.iter().find(|h| h.name == "test.metrics.hist").unwrap();
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1106);
        assert_eq!(h.max, 1000);
        // 0 → le=0; 1 → le=1; 2,3 → le=3; 100 → le=127; 1000 → le=1023.
        assert_eq!(h.buckets, vec![(0, 1), (1, 1), (3, 2), (127, 1), (1023, 1)]);
    }

    #[test]
    fn owned_gauge_adjust_saturates_at_zero() {
        let g = Gauge::new("test.metrics.owned_gauge");
        g.adjust_owned(5);
        assert_eq!(g.get(), 5);
        assert_eq!(g.max(), 5);
        g.adjust_owned(-9);
        assert_eq!(g.get(), 0, "adjust saturates at zero");
        assert_eq!(g.max(), 5);
        assert!(!snapshot().gauges.iter().any(|(n, _, _)| n == "test.metrics.owned_gauge"));
    }

    #[test]
    fn owned_histogram_stays_out_of_the_registry_and_agrees_with_a_static_one() {
        static REGISTERED: Histogram = Histogram::new("test.metrics.hist_twin");
        let owned = Histogram::new("test.metrics.hist_owned");
        let samples: Vec<u64> = (0..500).map(|i| i * 37 % 1009).collect();
        for &v in &samples {
            REGISTERED.record(v);
            owned.record_owned(v);
        }
        let snap = snapshot();
        assert!(!snap.histograms.iter().any(|h| h.name == "test.metrics.hist_owned"));
        let twin = snap.histograms.iter().find(|h| h.name == "test.metrics.hist_twin").unwrap();
        let mine = owned.snapshot();
        assert_eq!((mine.count, mine.sum, mine.max), (twin.count, twin.sum, twin.max));
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(mine.quantile(q), twin.quantile(q), "q={q}");
        }
    }

    #[test]
    fn dynamic_counters_are_interned() {
        let a = counter("test.metrics.dyn");
        let b = counter("test.metrics.dyn");
        assert!(std::ptr::eq(a, b));
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        let snap = snapshot();
        assert_eq!(snap.counter("test.metrics.dyn"), Some(2));
    }

    fn hist_of(samples: &[u64]) -> HistogramSnapshot {
        let mut by_le: BTreeMap<u64, u64> = BTreeMap::new();
        let mut sum = 0u64;
        let mut max = 0u64;
        for &v in samples {
            let b = 64 - v.leading_zeros();
            let le = if b == 0 { 0 } else { ((1u128 << b) - 1) as u64 };
            *by_le.entry(le).or_insert(0) += 1;
            sum += v;
            max = max.max(v);
        }
        let count = samples.len() as u64;
        HistogramSnapshot {
            name: "test".into(),
            count,
            sum,
            max,
            mean: if count > 0 { sum as f64 / count as f64 } else { 0.0 },
            buckets: by_le.into_iter().collect(),
        }
    }

    #[test]
    fn quantile_is_exact_for_single_value_buckets() {
        let h = hist_of(&[0, 0, 0, 1, 1, 1]);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(1.0), 1);
        assert_eq!(hist_of(&[]).quantile(0.5), 0);
    }

    #[test]
    fn quantile_stays_within_a_factor_of_two() {
        let samples: Vec<u64> = (0..1000).map(|i| i * i % 7919 + 1).collect();
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let h = hist_of(&samples);
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let t = sorted[rank - 1];
            let e = h.quantile(q);
            assert!(
                (t <= 1 && e == t) || (e as f64) < 2.0 * t as f64 && (e as f64) > t as f64 / 2.0,
                "q={q}: est {e} vs true {t}"
            );
        }
    }

    #[test]
    fn quantile_clamps_to_recorded_max() {
        // One sample of 1000 lands in the [512, 1023] bucket; the top
        // estimate must answer the recorded max, not the bucket edge.
        let h = hist_of(&[1000]);
        assert_eq!(h.quantile(1.0), 1000);
        assert!(h.quantile(0.5) >= 512 && h.quantile(0.5) <= 1000);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let h = hist_of(&[0, 1, 2, 3, 100]);
        let snap = MetricsSnapshot {
            counters: vec![("serve.accepted".into(), 5)],
            gauges: vec![("serve.shard0.queue_depth".into(), 2, 9)],
            histograms: vec![HistogramSnapshot { name: "serve.latency_us".into(), ..h }],
        };
        let mut out = String::new();
        snap.write_prometheus(&mut out);
        assert!(out.contains("# TYPE serve_accepted counter\nserve_accepted 5\n"), "{out}");
        assert!(out.contains("serve_shard0_queue_depth 2\n"), "{out}");
        assert!(out.contains("serve_shard0_queue_depth_max 9\n"), "{out}");
        assert!(out.contains("# TYPE serve_latency_us histogram"), "{out}");
        // Cumulative buckets: 0→1, 1→2, {2,3}→4, 100→5, then +Inf.
        assert!(out.contains("serve_latency_us_bucket{le=\"0\"} 1\n"), "{out}");
        assert!(out.contains("serve_latency_us_bucket{le=\"1\"} 2\n"), "{out}");
        assert!(out.contains("serve_latency_us_bucket{le=\"3\"} 4\n"), "{out}");
        assert!(out.contains("serve_latency_us_bucket{le=\"127\"} 5\n"), "{out}");
        assert!(out.contains("serve_latency_us_bucket{le=\"+Inf\"} 5\n"), "{out}");
        assert!(out.contains("serve_latency_us_sum 106\n"), "{out}");
        assert!(out.contains("serve_latency_us_count 5\n"), "{out}");
    }

    #[test]
    fn snapshot_json_shape() {
        static C: Counter = Counter::new("test.metrics.json_c");
        C.inc();
        let snap = snapshot();
        let mut out = String::new();
        snap.write_json(&mut out);
        assert!(out.starts_with("{\"counters\":{"), "{out}");
        assert!(out.contains("\"test.metrics.json_c\":1"), "{out}");
        assert!(out.ends_with("}}"), "{out}");
    }
}
