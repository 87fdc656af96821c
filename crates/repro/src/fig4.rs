//! Fig. 4: capped vs. uncapped power-prediction error distributions per
//! platform, with the two-sample Kolmogorov–Smirnov significance test.

use serde::{Deserialize, Serialize};

use archline_fit::{relative_errors, select_model, ErrorKind};
use archline_stats::{
    boxplot, ks_two_sample, mann_whitney_u, quantile, BoxplotStats, KsResult, MannWhitneyResult,
};

use crate::analysis::PlatformAnalysis;
use crate::context::AnalysisContext;
use crate::render::{sig3, TextTable};

/// Error distributions for one platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig4Row {
    /// Platform name.
    pub name: String,
    /// Relative power errors of the capped fit, one per intensity point.
    pub capped_errors: Vec<f64>,
    /// Relative power errors of the uncapped fit.
    pub uncapped_errors: Vec<f64>,
    /// Boxplot of the capped errors.
    pub capped_box: BoxplotStats,
    /// Boxplot of the uncapped errors.
    pub uncapped_box: BoxplotStats,
    /// K-S test between the two error samples.
    pub ks: KsResult,
    /// Mann–Whitney U cross-check (location-shift sensitive, where K-S is
    /// sensitive to any distributional difference).
    pub mann_whitney: MannWhitneyResult,
    /// Which model family AICc prefers for this platform's data
    /// ("capped" or "uncapped"), penalizing the capped model's extra `Δπ`.
    pub aic_preferred: String,
    /// `true` when the distributions differ at p < 0.05 — the paper's
    /// "**" mark.
    pub starred: bool,
    /// Whether the paper's Fig. 4 stars this platform.
    pub paper_starred: bool,
    /// K-S on *time* errors (the paper: "we have similar data for time and
    /// energy, omitted for space").
    pub time_ks: KsResult,
    /// K-S on *energy* errors.
    pub energy_ks: KsResult,
}

impl Fig4Row {
    /// Median of the absolute uncapped errors (the paper sorts panels by
    /// descending uncapped median error).
    pub fn uncapped_median_abs(&self) -> f64 {
        let abs: Vec<f64> = self.uncapped_errors.iter().map(|e| e.abs()).collect();
        quantile(&abs, 0.5)
    }

    /// Median of the absolute capped errors.
    pub fn capped_median_abs(&self) -> f64 {
        let abs: Vec<f64> = self.capped_errors.iter().map(|e| e.abs()).collect();
        quantile(&abs, 0.5)
    }
}

/// The regenerated figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig4Report {
    /// One row per platform, sorted by descending uncapped median error
    /// (the paper's x-axis order).
    pub rows: Vec<Fig4Row>,
}

impl Fig4Report {
    /// Number of platforms where our star matches the paper's.
    pub fn star_agreement(&self) -> usize {
        self.rows.iter().filter(|r| r.starred == r.paper_starred).count()
    }
}

/// Regenerates Fig. 4 from a shared [`AnalysisContext`] (no re-sweep).
pub fn compute(ctx: &AnalysisContext) -> Fig4Report {
    let mut rows: Vec<Fig4Row> = ctx.analyses().iter().map(row_for).collect();
    rows.sort_by(|a, b| {
        b.uncapped_median_abs()
            .partial_cmp(&a.uncapped_median_abs())
            .expect("finite medians")
    });
    Fig4Report { rows }
}

fn row_for(a: &PlatformAnalysis) -> Fig4Row {
    let capped_errors = relative_errors(&a.fit.capped, &a.suite.dram.runs, ErrorKind::Power);
    let uncapped_errors =
        relative_errors(&a.fit.uncapped, &a.suite.dram.runs, ErrorKind::Power);
    let ks = ks_two_sample(&capped_errors, &uncapped_errors);
    let mann_whitney = mann_whitney_u(&capped_errors, &uncapped_errors);
    let rss = |errs: &[f64]| errs.iter().map(|e| e * e).sum::<f64>().max(1e-300);
    // Capped model fits 6 parameters (τ_f, τ_m, ε_f, ε_m, π_1, Δπ);
    // uncapped fits 5.
    let ranked = select_model(
        &[("capped", 6, rss(&capped_errors)), ("uncapped", 5, rss(&uncapped_errors))],
        capped_errors.len(),
    );
    let time_ks = ks_two_sample(
        &relative_errors(&a.fit.capped, &a.suite.dram.runs, ErrorKind::Time),
        &relative_errors(&a.fit.uncapped, &a.suite.dram.runs, ErrorKind::Time),
    );
    let energy_ks = ks_two_sample(
        &relative_errors(&a.fit.capped, &a.suite.dram.runs, ErrorKind::Energy),
        &relative_errors(&a.fit.uncapped, &a.suite.dram.runs, ErrorKind::Energy),
    );
    Fig4Row {
        name: a.platform.name.clone(),
        capped_box: boxplot(&capped_errors),
        uncapped_box: boxplot(&uncapped_errors),
        starred: ks.significant_at(0.05),
        paper_starred: a.platform.ks_starred,
        aic_preferred: ranked[0].name.clone(),
        capped_errors,
        uncapped_errors,
        ks,
        mann_whitney,
        time_ks,
        energy_ks,
    }
}

/// Renders the per-platform error summary.
pub fn render(report: &Fig4Report) -> String {
    let mut t = TextTable::new(vec![
        "Platform",
        "uncap med", "uncap q3",
        "cap med", "cap q3",
        "KS D", "p",
        "MW p",
        "AICc",
        "stars", "paper",
    ]);
    for r in &report.rows {
        t.row(vec![
            r.name.clone(),
            sig3(r.uncapped_box.median),
            sig3(r.uncapped_box.q3),
            sig3(r.capped_box.median),
            sig3(r.capped_box.q3),
            sig3(r.ks.statistic),
            format!("{:.3}", r.ks.p_value),
            format!("{:.3}", r.mann_whitney.p_value),
            r.aic_preferred.clone(),
            if r.starred { "**" } else { "" }.to_string(),
            if r.paper_starred { "**" } else { "" }.to_string(),
        ]);
    }
    format!(
        "Fig. 4: power prediction error, uncapped (prior) vs capped model\n\
         (relative error distributions over the intensity sweep; ** = K-S p < 0.05)\n\n{}\
         Star agreement with the paper: {}/12\n",
        t.render(),
        report.star_agreement()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::fast_config;

    #[test]
    fn capped_model_dominates_uncapped() {
        let report = compute(&AnalysisContext::new(fast_config()));
        assert_eq!(report.rows.len(), 12);
        // The paper's headline qualitative claim: the capped model's error
        // distributions are lower or tighter on every platform.
        for r in &report.rows {
            assert!(
                r.capped_median_abs() <= r.uncapped_median_abs() + 0.02,
                "{}: capped {} vs uncapped {}",
                r.name,
                r.capped_median_abs(),
                r.uncapped_median_abs()
            );
        }
    }

    #[test]
    fn star_pattern_matches_paper_on_ten_of_twelve() {
        // Documented deviations (EXPERIMENTS.md): the Xeon Phi and APU GPU
        // are starred in the paper but their cap plateaus are ≤1.5 % power
        // effects over ≤1 octave of intensity given Table I's own
        // constants — undetectable from the published model; the paper's
        // stars there must reflect empirical effects beyond those
        // constants. All other ten platforms must match.
        let report = compute(&AnalysisContext::new(fast_config()));
        assert!(report.star_agreement() >= 10, "agreement {}/12", report.star_agreement());
        for r in &report.rows {
            match r.name.as_str() {
                "Xeon Phi" | "APU GPU" => {}
                _ => assert_eq!(
                    r.starred, r.paper_starred,
                    "{}: star mismatch (p = {})",
                    r.name, r.ks.p_value
                ),
            }
        }
    }

    #[test]
    fn aic_prefers_capped_exactly_where_it_earns_its_parameter() {
        // On K-S-starred platforms the cap term buys large RSS reductions,
        // so AICc must pick the capped family; on Titan/Desktop-class
        // platforms where the two fits coincide, the uncapped family's
        // fewer parameters may win — but never by explaining the data
        // better.
        let report = compute(&AnalysisContext::new(fast_config()));
        for r in &report.rows {
            if r.starred {
                assert_eq!(r.aic_preferred, "capped", "{}", r.name);
            }
        }
        let capped_wins = report.rows.iter().filter(|r| r.aic_preferred == "capped").count();
        assert!(capped_wins >= 5, "capped preferred on only {capped_wins}/12");
    }

    #[test]
    fn mann_whitney_never_contradicts_ks() {
        // Because both fits minimize squared error, each error sample is
        // re-centered near zero: the capped-vs-uncapped difference is a
        // *shape/tail* effect (excess mass at high overprediction in the
        // cap region), which K-S detects but a location test cannot. The
        // U test must therefore be the weaker of the two — it may fail to
        // reject on starred platforms, but must never reject where K-S
        // does not.
        let report = compute(&AnalysisContext::new(fast_config()));
        for r in &report.rows {
            assert!((0.0..=1.0).contains(&r.mann_whitney.p_value), "{}", r.name);
            if r.mann_whitney.significant_at(0.05) {
                assert!(
                    r.starred,
                    "{}: MW rejects (p={}) where K-S does not (p={})",
                    r.name, r.mann_whitney.p_value, r.ks.p_value
                );
            }
        }
    }

    #[test]
    fn time_and_energy_views_corroborate_the_power_view() {
        // The paper's omitted-for-space time/energy distributions should
        // separate at least as strongly where the cap slows execution: on
        // the power-starred platforms, time-error K-S must also reject.
        let report = compute(&AnalysisContext::new(fast_config()));
        for r in &report.rows {
            if r.starred {
                assert!(
                    r.time_ks.significant_at(0.05) || r.energy_ks.significant_at(0.05),
                    "{}: time p={} energy p={}",
                    r.name,
                    r.time_ks.p_value,
                    r.energy_ks.p_value
                );
            }
        }
    }

    #[test]
    fn uncapped_errors_bias_positive_in_cap_region() {
        // The paper: "the bias is to overpredict". Uncapped q3 should sit
        // clearly positive on starred platforms.
        let report = compute(&AnalysisContext::new(fast_config()));
        let starred: Vec<_> = report.rows.iter().filter(|r| r.paper_starred).collect();
        let positive = starred.iter().filter(|r| r.uncapped_box.q3 > 0.0).count();
        assert!(positive >= starred.len() - 1, "{positive}/{}", starred.len());
    }
}
