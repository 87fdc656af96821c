//! The harness's one quantile estimator: nearest rank, refusing any
//! percentile the sample cannot support.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 100]`) of `samples`.
///
/// Refuses (returns `Err`) when fewer than [`MIN_BEYOND`] samples lie
/// beyond the percentile, so a tail is never read off a handful of points.
/// The median needs at least 20 samples by the same rule.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    if !(p > 0.0 && p <= 100.0) {
        return Err(format!("percentile {p} outside (0, 100]"));
    }
    let n = samples.len();
    if !supported(n, p) {
        return Err(format!(
            "p{p} of {n} samples has {} beyond it; at least {MIN_BEYOND} are needed",
            n.saturating_sub(rank(n, p))
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank(n, p) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// slack keeps `p · n / 100` from rounding up past an exact integer.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0) - 1e-9).ceil().max(1.0) as usize
}

fn supported(n: usize, p: f64) -> bool {
    n > 0 && n.saturating_sub(rank(n, p)) >= MIN_BEYOND
}

/// Samples needed before percentile `p` (in `(0, 100)`) is supported.
pub fn samples_needed(p: f64) -> usize {
    (1..)
        .find(|&n| supported(n, p))
        .expect("some sample count supports p < 100")
}

/// Percentile `p` of each `width`-second window of a trial's samples, a
/// window holding the samples whose time `at` (seconds from the trial's
/// start) falls in it. Windows too sparse to support `p` are left out;
/// `Err` when none is left.
///
/// The median of these is what the benchmark reports for a latency: a
/// host stall of a few milliseconds moves the windows it falls in, not
/// the median window, where it would move a whole trial's tail.
pub fn windowed_percentiles(
    at: &[f64],
    values: &[f64],
    width: f64,
    p: f64,
) -> Result<Vec<f64>, String> {
    let mut windows: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    for (&t, &v) in at.iter().zip(values) {
        windows.entry((t / width) as u64).or_default().push(v);
    }
    let supported: Vec<f64> = windows
        .values()
        .filter_map(|w| percentile(w, p).ok())
        .collect();
    if supported.is_empty() {
        return Err(format!(
            "no {width} s window of {} samples supports p{p}",
            values.len()
        ));
    }
    Ok(supported)
}

/// Events per second in each full `width`-second window of `[0, span)`,
/// counting the events whose time `at` (seconds) falls in it. `width` is
/// cut to `span` when longer, so there is always one window.
pub fn windowed_rates(at: &[f64], width: f64, span: f64) -> Vec<f64> {
    let width = width.min(span);
    let mut counts = vec![0u64; (span / width) as usize];
    for &t in at {
        if let Some(c) = counts.get_mut((t / width) as usize) {
            *c += 1;
        }
    }
    counts.iter().map(|&c| c as f64 / width).collect()
}

/// Median of a short list of per-trial or per-setup values (the middle
/// value; the mean of the two middle values for an even count). No
/// support rule: these are summaries of repeated measurements, not tails.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// Arithmetic mean (0 for no values).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the estimator must sort.
        (0..n).map(|i| ((i * 7919) % n + 1) as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let s = ramp(1000);
        assert_eq!(percentile(&s, 50.0).unwrap(), 500.0);
        assert_eq!(percentile(&s, 99.0).unwrap(), 990.0);
        assert_eq!(percentile(&s, 90.0).unwrap(), 900.0);
        // 0.1% of 1000 is rank 1.
        assert_eq!(percentile(&s, 0.1).unwrap(), 1.0);
        let s = ramp(101);
        // ceil(0.5 * 101) = 51.
        assert_eq!(percentile(&s, 50.0).unwrap(), 51.0);
    }

    #[test]
    fn refuses_a_percentile_with_fewer_than_ten_samples_beyond() {
        // p99 of 1000 leaves exactly 10 beyond: supported.
        assert!(percentile(&ramp(1000), 99.0).is_ok());
        // p99 of 999 leaves 9 beyond (rank 990): refused.
        let err = percentile(&ramp(999), 99.0).unwrap_err();
        assert!(err.contains("9 beyond"), "{err}");
        // p90 needs 100 samples, the median 20.
        assert!(percentile(&ramp(100), 90.0).is_ok());
        assert!(percentile(&ramp(99), 90.0).is_err());
        assert!(percentile(&ramp(20), 50.0).is_ok());
        assert!(percentile(&ramp(19), 50.0).is_err());
        assert!(percentile(&[], 50.0).is_err());
        assert!(percentile(&ramp(1000), 100.0).is_err());
        assert!(percentile(&ramp(1000), 0.0).is_err());
    }

    #[test]
    fn samples_needed_matches_the_refusal_rule() {
        for p in [50.0, 90.0, 99.0] {
            let n = samples_needed(p);
            assert!(percentile(&ramp(n), p).is_ok(), "p{p} at {n}");
            assert!(percentile(&ramp(n - 1), p).is_err(), "p{p} at {}", n - 1);
        }
    }

    #[test]
    fn windowed_percentiles_skip_sparse_windows() {
        // 30 samples in [0, 1), 5 in [1, 2), 25 in [2, 3).
        let at: Vec<f64> = (0..30)
            .map(|i| i as f64 / 30.0)
            .chain((0..5).map(|i| 1.0 + i as f64 / 5.0))
            .chain((0..25).map(|i| 2.0 + i as f64 / 25.0))
            .collect();
        let values: Vec<f64> = (0..30)
            .map(|i| i as f64)
            .chain([1e9; 5])
            .chain((0..25).map(|i| 100.0 + i as f64))
            .collect();
        // The median of each window that has 20 samples; the 5-sample
        // window cannot support one and is left out.
        assert_eq!(
            windowed_percentiles(&at, &values, 1.0, 50.0).unwrap(),
            [14.0, 112.0]
        );
        assert!(windowed_percentiles(&at, &values, 0.1, 50.0).is_err());
    }

    #[test]
    fn windowed_rates_count_full_windows_only() {
        let at = [0.01, 0.05, 0.12, 0.15, 0.18, 0.25, 0.31];
        // Windows [0, 0.1) and [0.1, 0.2) of span 0.25; 0.25 and 0.31 fall
        // past the last full window.
        let r = windowed_rates(&at, 0.1, 0.25);
        assert_eq!(r.len(), 2);
        assert!((r[0] - 20.0).abs() < 1e-9 && (r[1] - 30.0).abs() < 1e-9);
        // A window longer than the span is cut to it.
        assert_eq!(windowed_rates(&at, 1.0, 0.2).len(), 1);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }
}
