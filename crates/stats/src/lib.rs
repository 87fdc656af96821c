//! # archline-stats — statistics substrate
//!
//! From-scratch implementations of the statistical machinery the paper's
//! analysis uses (it used R): summary statistics, type-7 quantiles and
//! boxplot five-number summaries (Fig. 4's boxplots), empirical CDFs, the
//! two-sample Kolmogorov–Smirnov test with asymptotic p-values (Fig. 4's
//! `**` significance marks), the Mann–Whitney U test, and Pearson
//! correlation (§V-C's ≈ −0.6 correlation between constant-power fraction
//! and peak energy-efficiency).
//!
//! Everything operates on `&[f64]`; NaNs are rejected loudly rather than
//! silently propagated.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corr;
pub mod ecdf;
pub mod ks;
pub mod mannwhitney;
pub mod quantiles;
pub mod summary;

pub use corr::pearson;
pub use ecdf::Ecdf;
pub use ks::{ks_two_sample, KsResult};
pub use mannwhitney::{mann_whitney_u, MannWhitneyResult};
pub use quantiles::{boxplot, quantile, BoxplotStats};
pub use summary::Summary;

/// Asserts that a sample is non-empty and NaN-free; returns it unchanged.
///
/// # Panics
/// Panics with a descriptive message otherwise.
pub(crate) fn check_sample<'a>(name: &str, xs: &'a [f64]) -> &'a [f64] {
    assert!(!xs.is_empty(), "sample `{name}` is empty");
    assert!(xs.iter().all(|x| !x.is_nan()), "sample `{name}` contains NaN");
    xs
}

/// Returns a sorted copy of the sample.
pub(crate) fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN rejected earlier"));
    v
}
