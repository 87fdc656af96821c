//! Telemetry-plane contract in archline-obs:
//! [`HistogramSnapshot::quantile`] documents an error bound — exact for
//! true quantiles `t ≤ 1`, strict `t/2 < e < 2·t` otherwise. The property
//! tests here pin that bound against the *exact* nearest-rank quantile of
//! sorted samples (the doc on `quantile` points at this file).
//!
//! [`HistogramSnapshot::quantile`]: archline_obs::HistogramSnapshot::quantile

use archline_obs::Histogram;
use proptest::prelude::*;

/// Samples spread over many magnitudes (bit lengths 0..=40), so every
/// power-of-two bucket shape gets exercised — including the exact
/// single-value buckets for 0 and 1.
fn arb_samples() -> BoxedStrategy<Vec<u64>> {
    proptest::collection::vec(
        (0u32..=40).prop_flat_map(|bits| 0u64..=(1u64 << bits)),
        1..120,
    )
}

/// Exact nearest-rank `q`-quantile of `samples` (the reference the
/// histogram estimate is judged against).
fn exact_quantile(samples: &[u64], q: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let n = sorted.len() as u64;
    let rank = if q <= 0.0 { 1 } else { ((q * n as f64).ceil() as u64).clamp(1, n) };
    sorted[(rank - 1) as usize]
}

/// A fresh histogram per case: `record` wants `&'static self` (it
/// self-registers), so each case leaks one — a few hundred bytes per case
/// in a test process.
fn fresh_histogram(samples: &[u64]) -> &'static Histogram {
    let h: &'static Histogram = Box::leak(Box::new(Histogram::new("obs.telemetry.prop")));
    for &s in samples {
        h.record(s);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// The documented error bound holds for every (samples, q) pair:
    /// exact when the true nearest-rank sample is 0 or 1, strictly within
    /// (t/2, 2t) otherwise.
    #[test]
    fn quantile_respects_documented_error_bound(
        samples in arb_samples(),
        q in 0f64..=1.0,
    ) {
        let h = fresh_histogram(&samples);
        let t = exact_quantile(&samples, q);
        let e = h.quantile(q);
        if t <= 1 {
            prop_assert_eq!(e, t, "t <= 1 must be exact (q={q}, samples={samples:?})");
        } else {
            prop_assert!(
                (e as f64) > t as f64 / 2.0 && (e as f64) < 2.0 * t as f64,
                "bound violated: t={t}, e={e}, q={q}, samples={samples:?}"
            );
        }
    }

    /// The estimator never leaves the sample envelope and is monotone in
    /// `q` — a p99 can never undercut a p50 from the same snapshot.
    #[test]
    fn quantile_is_monotone_and_bounded(
        samples in arb_samples(),
        q1 in 0f64..=1.0,
        q2 in 0f64..=1.0,
    ) {
        let h = fresh_histogram(&samples);
        let (lo, hi) = (q1.min(q2), q1.max(q2));
        let (e_lo, e_hi) = (h.quantile(lo), h.quantile(hi));
        prop_assert!(e_lo <= e_hi, "quantile not monotone: q{lo}->{e_lo} > q{hi}->{e_hi}");
        let max = samples.iter().copied().max().unwrap_or(0);
        prop_assert!(e_hi <= max, "estimate {e_hi} above recorded max {max}");
    }
}
