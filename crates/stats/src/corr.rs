//! Pearson correlation, and the mid-ranks the Mann–Whitney test uses.

use crate::check_sample;

/// Pearson product-moment correlation coefficient of two equal-length
/// samples.
///
/// Returns NaN when either sample is constant (zero variance).
///
/// # Panics
/// Panics if lengths differ, samples are shorter than 2, or contain NaN.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    check_sample("pearson xs", xs);
    check_sample("pearson ys", ys);
    assert_eq!(xs.len(), ys.len(), "samples must have equal length");
    assert!(xs.len() >= 2, "need at least two points");
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    sxy / (sxx * syy).sqrt()
}

/// Mid-ranks of a sample (1-based; ties averaged).
pub fn ranks(xs: &[f64]) -> Vec<f64> {
    check_sample("ranks", xs);
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).expect("NaN rejected"));
    let mut out = vec![0.0; xs.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        // Positions i..=j are tied: assign the average 1-based rank.
        let rank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = rank;
        }
        i = j + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_linear_correlation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = ys.iter().map(|y| -y).collect();
        assert!((pearson(&xs, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn orthogonal_samples_have_zero_correlation() {
        let xs = [-1.0, 0.0, 1.0];
        let ys = [1.0, 0.0, 1.0]; // even function of xs
        assert!(pearson(&xs, &ys).abs() < 1e-12);
    }

    #[test]
    fn constant_sample_yields_nan() {
        assert!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]).is_nan());
    }

    #[test]
    fn ranks_with_ties_are_midranks() {
        assert_eq!(ranks(&[10.0, 20.0, 20.0, 30.0]), vec![1.0, 2.5, 2.5, 4.0]);
        assert_eq!(ranks(&[5.0, 5.0, 5.0]), vec![2.0, 2.0, 2.0]);
        assert_eq!(ranks(&[3.0, 1.0, 2.0]), vec![3.0, 1.0, 2.0]);
    }

    #[test]
    fn known_moderate_correlation() {
        // Hand-checked example.
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [2.0, 1.0, 4.0, 3.0, 5.0];
        let r = pearson(&xs, &ys);
        assert!((r - 0.8).abs() < 1e-12, "got {r}");
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn length_mismatch_rejected() {
        let _ = pearson(&[1.0, 2.0], &[1.0]);
    }
}
