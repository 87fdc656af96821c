//! Table I: the full platform summary, regenerated.
//!
//! For every platform we simulate the microbenchmark suite, run the staged
//! fit, and compare each recovered constant with the paper's published
//! value. Absolute agreement is expected by construction (the simulator is
//! seeded with Table I); what this validates is the *measurement and
//! estimation pipeline* — sampling, rail summation, the paper's
//! energy-estimator, the staged nonlinear regression — recovering the
//! constants through realistic noise, caps, and quirks.

use serde::{Deserialize, Serialize};

use archline_fit::{fit_level_cost, fit_random_cost};

use crate::analysis::PlatformAnalysis;
use crate::context::AnalysisContext;
use crate::render::{sig3, TextTable};

/// A paper value paired with the pipeline's re-fitted estimate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FittedValue {
    /// The value Table I publishes (SI units).
    pub paper: f64,
    /// The value our pipeline recovered (SI units).
    pub fitted: f64,
}

impl FittedValue {
    /// Relative error of the fit against the paper value.
    pub fn rel_err(&self) -> f64 {
        (self.fitted - self.paper) / self.paper
    }
}

/// One regenerated Table I row (single precision, plus `ε_d` when
/// supported).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Row {
    /// Platform name.
    pub name: String,
    /// Constant power `π_1`, W.
    pub const_power: FittedValue,
    /// Usable power `Δπ`, W.
    pub usable_power: FittedValue,
    /// `ε_s`, J/flop.
    pub eps_single: FittedValue,
    /// Sustained single-precision rate, flop/s.
    pub sustained_single: FittedValue,
    /// `ε_d`, J/flop (None where unsupported).
    pub eps_double: Option<FittedValue>,
    /// `ε_mem`, J/B.
    pub eps_mem: FittedValue,
    /// Sustained DRAM bandwidth, B/s.
    pub sustained_bw: FittedValue,
    /// `ε_L1`, J/B.
    pub eps_l1: Option<FittedValue>,
    /// `ε_L2`, J/B.
    pub eps_l2: Option<FittedValue>,
    /// `ε_rand`, J/access.
    pub eps_rand: Option<FittedValue>,
    /// Capped-fit power RMSE (diagnostic).
    pub power_rmse: f64,
    /// `true` when this row's fit completed but is flagged degraded
    /// (non-converged refinement or heavy outlier rejection).
    #[serde(default)]
    pub degraded: bool,
}

/// A platform the sweep could not fit at all: it has no row, only a cause.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegradedPlatform {
    /// Platform name (Table I spelling).
    pub name: String,
    /// Why the measure-and-fit failed.
    pub reason: String,
}

/// The regenerated table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Report {
    /// One row per successfully fitted platform, Fig. 5 panel order.
    pub rows: Vec<Table1Row>,
    /// Platforms with no row because their measure-and-fit failed (empty in
    /// a healthy run).
    #[serde(default)]
    pub degraded: Vec<DegradedPlatform>,
}

/// Regenerates Table I from a shared [`AnalysisContext`] (no re-sweep).
/// `include_double` additionally sweeps the double-precision pipeline on
/// platforms that support it (slower; memoized on the context too).
pub fn compute(ctx: &AnalysisContext, include_double: bool) -> Table1Report {
    let analyses = ctx.analyses();
    let rows = analyses
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let eps_double = if include_double { ctx.doubles()[i] } else { None };
            row_for(a, eps_double)
        })
        .collect();
    let degraded = ctx
        .failures()
        .iter()
        .map(|f| DegradedPlatform { name: f.name.clone(), reason: f.error.clone() })
        .collect();
    Table1Report { rows, degraded }
}

fn row_for(a: &PlatformAnalysis, eps_double: Option<FittedValue>) -> Table1Row {
    let p = &a.platform;
    let capped = &a.fit.capped;
    let pi1 = capped.const_power;

    let mut eps_l1 = None;
    let mut eps_l2 = None;
    for (name, set) in &a.suite.levels {
        let (_bw, eps) = fit_level_cost(&set.runs, pi1);
        let fitted = FittedValue {
            paper: match name.as_str() {
                "L1" => p.l1.map(|c| c.energy).unwrap_or(f64::NAN),
                _ => p.l2.map(|c| c.energy).unwrap_or(f64::NAN),
            },
            fitted: eps,
        };
        match name.as_str() {
            "L1" => eps_l1 = Some(fitted),
            _ => eps_l2 = Some(fitted),
        }
    }

    let eps_rand = a.suite.random.as_ref().and_then(|set| {
        let (_rate, eps) = fit_random_cost(&set.runs, pi1);
        p.random.map(|r| FittedValue { paper: r.energy_per_access, fitted: eps })
    });

    Table1Row {
        name: p.name.clone(),
        const_power: FittedValue { paper: p.const_power, fitted: pi1 },
        usable_power: FittedValue { paper: p.usable_power, fitted: capped.cap.watts() },
        eps_single: FittedValue { paper: p.flop_single.energy, fitted: capped.energy_per_flop },
        sustained_single: FittedValue {
            paper: p.flop_single.rate,
            fitted: a.fit.observed_flops,
        },
        eps_double,
        eps_mem: FittedValue { paper: p.mem.energy, fitted: capped.energy_per_byte },
        sustained_bw: FittedValue { paper: p.mem.rate, fitted: a.fit.observed_bw },
        eps_l1,
        eps_l2,
        eps_rand,
        power_rmse: a.fit.capped_diag.power_rmse,
        degraded: a.fit.capped_diag.degraded,
    }
}

/// Renders the regenerated table (paper value → fitted value per cell).
pub fn render(report: &Table1Report) -> String {
    let mut t = TextTable::new(vec![
        "Platform",
        "pi1 W",
        "dpi W",
        "eps_s pJ",
        "(Gflop/s)",
        "eps_d pJ",
        "eps_mem pJ",
        "(GB/s)",
        "eps_L1 pJ",
        "eps_L2 pJ",
        "eps_rand nJ",
        "P rmse",
    ]);
    let cell = |v: &FittedValue, scale: f64| -> String {
        format!("{}->{}", sig3(v.paper / scale), sig3(v.fitted / scale))
    };
    let opt = |v: &Option<FittedValue>, scale: f64| -> String {
        v.as_ref().map_or("-".to_string(), |v| cell(v, scale))
    };
    for r in &report.rows {
        t.row(vec![
            if r.degraded { format!("{} [DEGRADED]", r.name) } else { r.name.clone() },
            cell(&r.const_power, 1.0),
            cell(&r.usable_power, 1.0),
            cell(&r.eps_single, 1e-12),
            cell(&r.sustained_single, 1e9),
            opt(&r.eps_double, 1e-12),
            cell(&r.eps_mem, 1e-12),
            cell(&r.sustained_bw, 1e9),
            opt(&r.eps_l1, 1e-12),
            opt(&r.eps_l2, 1e-12),
            opt(&r.eps_rand, 1e-9),
            format!("{:.3}", r.power_rmse),
        ]);
    }
    let mut out =
        format!("Table I (paper -> re-fitted through the simulated pipeline)\n\n{}", t.render());
    if !report.degraded.is_empty() {
        out.push_str("\nDEGRADED platforms (measure-and-fit failed; no row above):\n");
        for d in &report.degraded {
            out.push_str(&format!("  {} — {}\n", d.name, d.reason));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::fast_config;
    use archline_microbench::SweepConfig;

    #[test]
    fn pipeline_recovers_table1_within_tolerance() {
        use archline_core::EnergyRoofline;
        use archline_platforms::{all_platforms, Precision};

        let cfg = fast_config();
        let report = compute(&AnalysisContext::new(cfg), false);
        assert_eq!(report.rows.len(), 12);
        let records = all_platforms();
        for r in &report.rows {
            // The sustained peak the capped machine can actually reach may
            // sit below the published sustained rate when Δπ < π_flop (the
            // NUC GPU: Δπ/ε_s ≈ 233 Gflop/s < the published 268 Gflop/s) —
            // compare against the model-implied achievable peak over the
            // sweep range.
            let rec = records.iter().find(|p| p.name == r.name).expect("record");
            let truth = EnergyRoofline::new(rec.machine_params(Precision::Single).unwrap());
            let achievable_flops = truth.perf_at(cfg.intensity_hi);
            let achievable_bw = truth.perf_at(cfg.intensity_lo) / cfg.intensity_lo;
            let rel_f = (r.sustained_single.fitted - achievable_flops) / achievable_flops;
            let rel_b = (r.sustained_bw.fitted - achievable_bw) / achievable_bw;
            assert!(rel_f.abs() < 0.06, "{}: flops {:?} vs achievable {achievable_flops}", r.name, r.sustained_single);
            assert!(rel_b.abs() < 0.06, "{}: bw {:?} vs achievable {achievable_bw}", r.name, r.sustained_bw);
            // π_1 and Δπ trade off inside the plateau; on quirky platforms
            // (where the paper's own fit landed *below idle power*) allow a
            // wider individual band but require their sum to stay tight.
            let pi1_tol = match r.name.as_str() {
                "NUC GPU" | "Arndale GPU" => 0.30,
                _ => 0.10,
            };
            assert!(
                r.const_power.rel_err().abs() < pi1_tol,
                "{}: π1 {:?}",
                r.name,
                r.const_power
            );
            let max_power_paper = r.const_power.paper + r.usable_power.paper;
            let max_power_fitted = r.const_power.fitted + r.usable_power.fitted;
            let sum_err = (max_power_fitted - max_power_paper) / max_power_paper;
            // The Xeon Phi's cap binds over a ~0.1-octave sliver, so its
            // fitted Δπ is weakly identified; everywhere else the plateau
            // pins π1 + Δπ tightly.
            let sum_tol = if r.name == "Xeon Phi" { 0.35 } else { 0.08 };
            assert!(sum_err.abs() < sum_tol, "{}: π1+Δπ {max_power_fitted} vs {max_power_paper}", r.name);
            assert!(r.eps_mem.rel_err().abs() < 0.25, "{}: ε_mem {:?}", r.name, r.eps_mem);
            if let Some(l1) = &r.eps_l1 {
                assert!(l1.rel_err().abs() < 0.30, "{}: ε_L1 {:?}", r.name, l1);
            }
            if let Some(rand) = &r.eps_rand {
                assert!(rand.rel_err().abs() < 0.30, "{}: ε_rand {:?}", r.name, rand);
            }
        }
    }

    #[test]
    fn double_precision_constants_recovered_where_supported() {
        let cfg = SweepConfig { points: 17, target_secs: 0.05, level_runs: 1, random_runs: 1, ..fast_config() };
        let report = compute(&AnalysisContext::new(cfg), true);
        let mut checked = 0;
        for r in &report.rows {
            match &r.eps_double {
                Some(v) => {
                    // The GTX 580 carries the noisiest calibration
                    // (σ_power = 9 %), which the small double-precision
                    // sweep cannot average away; allow it a wider band.
                    let tol = if r.name == "GTX 580" { 0.55 } else { 0.30 };
                    assert!(
                        v.rel_err().abs() < tol,
                        "{}: ε_d {:?} ({}% off)",
                        r.name,
                        v,
                        v.rel_err() * 100.0
                    );
                    checked += 1;
                }
                None => assert!(
                    ["NUC GPU", "APU GPU", "Arndale GPU"].contains(&r.name.as_str()),
                    "{} should support double",
                    r.name
                ),
            }
        }
        assert_eq!(checked, 9, "nine platforms support double precision");
    }

    #[test]
    fn degraded_platforms_render_as_a_footer() {
        use archline_faults::{FaultClass, FaultPlan};
        let plan = FaultPlan::single(FaultClass::FailRun, 1.0, 5);
        let ctx = AnalysisContext::with_sabotage(
            fast_config(),
            vec![("NUC GPU".to_string(), plan)],
        );
        let report = compute(&ctx, false);
        assert_eq!(report.rows.len(), 11);
        assert_eq!(report.degraded.len(), 1);
        let text = render(&report);
        assert!(text.contains("DEGRADED"));
        assert!(text.contains("NUC GPU"));
        assert!(text.contains("at least 4"), "reason carried through:\n{text}");
    }

    #[test]
    fn render_contains_all_platforms() {
        let report = compute(&AnalysisContext::new(fast_config()), false);
        let text = render(&report);
        for name in ["GTX Titan", "Desktop CPU", "Arndale GPU"] {
            assert!(text.contains(name), "missing {name}");
        }
        // Cells show paper -> fitted.
        assert!(text.contains("->"));
    }
}
