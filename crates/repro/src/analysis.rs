//! Shared per-platform analysis: simulate the microbenchmark suite and fit
//! both models. Table I, Fig. 4, and Fig. 5 all consume this.
//!
//! [`analyze_outcome`] is the failure-isolating entry point: each
//! platform's measure-and-fit runs behind `catch_unwind`, so one corrupt or
//! crashing platform degrades to a [`PlatformFailure`] record instead of
//! taking the whole sweep down. Fault injection for chaos/degradation
//! testing hooks in here too: a sabotage plan corrupts the chosen
//! platform's DRAM sweep before fitting, and that platform is fitted with
//! the robust policy ([`FitOptions::robust`]).

use std::panic::{catch_unwind, AssertUnwindSafe};

use serde::{Deserialize, Serialize};

use archline_faults::FaultPlan;
use archline_fit::{try_fit_platform, FitError, FitOptions, FitReport};
use archline_machine::{spec_for, Engine, PlatformSpec};
use archline_microbench::{run_suite, SimulatedSuite, SweepConfig};
use archline_obs::{self as obs, field};
use archline_par::parallel_map;
use archline_platforms::{Platform, Precision};

use crate::failure::{panic_message, PlatformFailure};
use crate::platforms_by_peak_efficiency;

/// Everything measured and fitted for one platform at single precision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformAnalysis {
    /// The Table I record.
    pub platform: Platform,
    /// Ground-truth simulator spec the measurements came from.
    pub spec: PlatformSpec,
    /// The simulated measurement suite.
    pub suite: SimulatedSuite,
    /// Capped + uncapped fits to the DRAM intensity sweep.
    pub fit: FitReport,
}

/// Runs the suite and fit for every platform with per-platform failure
/// isolation, optionally corrupting named platforms' DRAM sweeps with
/// seeded fault plans (those platforms are fitted with the robust policy).
///
/// Returns the successfully analyzed platforms (in Fig. 5 panel order) and
/// a failure record per platform that could not be fitted.
pub fn analyze_outcome(
    cfg: &SweepConfig,
    sabotage: &[(String, FaultPlan)],
) -> (Vec<PlatformAnalysis>, Vec<PlatformFailure>) {
    let engine = Engine::default();
    let platforms = platforms_by_peak_efficiency();
    let results = parallel_map(&platforms, |platform| {
        let plan = sabotage.iter().find(|(name, _)| *name == platform.name).map(|(_, p)| p);
        let _span = obs::span_with(
            obs::Level::Debug,
            "repro",
            "platform",
            &[field("name", platform.name.clone()), field("sabotaged", plan.is_some())],
        );
        match catch_unwind(AssertUnwindSafe(|| analyze_one(platform, cfg, &engine, plan))) {
            Ok(Ok(analysis)) => Ok(analysis),
            Ok(Err(e)) => Err(PlatformFailure {
                name: platform.name.clone(),
                error: e.to_string(),
                panicked: false,
            }),
            Err(payload) => Err(PlatformFailure {
                name: platform.name.clone(),
                error: panic_message(payload),
                panicked: true,
            }),
        }
    });
    let mut healthy = Vec::new();
    let mut failures = Vec::new();
    for r in results {
        match r {
            Ok(a) => healthy.push(a),
            Err(f) => {
                obs::emit(
                    obs::Level::Debug,
                    "repro",
                    "platform_failed",
                    &[field("name", f.name.clone()), field("panicked", f.panicked)],
                );
                failures.push(f);
            }
        }
    }
    (healthy, failures)
}

fn analyze_one(
    platform: &Platform,
    cfg: &SweepConfig,
    engine: &Engine,
    plan: Option<&FaultPlan>,
) -> Result<PlatformAnalysis, FitError> {
    let spec = spec_for(platform, Precision::Single);
    let mut suite = run_suite(&spec, cfg, engine);
    let opts = match plan {
        Some(plan) => {
            let runs = std::mem::take(&mut suite.dram.runs);
            suite.dram.runs = plan.apply_to_runs(runs);
            FitOptions::robust()
        }
        None => FitOptions::default(),
    };
    let fit = try_fit_platform(&suite.dram, &opts)?;
    Ok(PlatformAnalysis { platform: platform.clone(), spec, suite, fit })
}

/// A smaller sweep for tests and `repro --fast`.
pub fn fast_config() -> SweepConfig {
    SweepConfig { points: 33, target_secs: 0.08, level_runs: 2, random_runs: 2, ..Default::default() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archline_faults::{FaultClass, FaultPlan};

    #[test]
    fn analyzes_all_twelve_platforms() {
        let (all, failures) = analyze_outcome(&fast_config(), &[]);
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(all.len(), 12);
        assert_eq!(all[0].platform.name, "GTX Titan");
        for a in &all {
            assert_eq!(a.suite.dram.len(), fast_config().points);
            assert!(a.fit.capped_diag.power_rmse < 0.25, "{}: {:?}", a.platform.name, a.fit.capped_diag);
        }
    }

    #[test]
    fn sabotaged_platform_degrades_to_a_failure_record() {
        let plan = FaultPlan::single(FaultClass::FailRun, 1.0, 7);
        let (healthy, failures) =
            analyze_outcome(&fast_config(), &[("Arndale GPU".to_string(), plan)]);
        assert_eq!(healthy.len(), 11);
        assert!(healthy.iter().all(|a| a.platform.name != "Arndale GPU"));
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].name, "Arndale GPU");
        assert!(!failures[0].panicked);
        assert!(failures[0].error.contains("at least 4"), "{}", failures[0].error);
    }

    #[test]
    fn moderate_corruption_survives_via_the_robust_fit() {
        // 15% energy spikes: the robust policy rejects them and keeps the
        // platform healthy (constants within loose tolerance of the clean
        // fit's).
        let plan = FaultPlan::single(FaultClass::Spike, 0.15, 11);
        let (healthy, failures) =
            analyze_outcome(&fast_config(), &[("GTX Titan".to_string(), plan)]);
        assert!(failures.is_empty(), "{failures:?}");
        let titan = healthy.iter().find(|a| a.platform.name == "GTX Titan").unwrap();
        assert!(titan.fit.capped_diag.rejected_runs > 0);
        let (clean, clean_failures) = analyze_outcome(&fast_config(), &[]);
        assert!(clean_failures.is_empty(), "{clean_failures:?}");
        let clean_titan = clean.iter().find(|a| a.platform.name == "GTX Titan").unwrap();
        let rel = |a: f64, b: f64| (a - b).abs() / b;
        assert!(
            rel(titan.fit.capped.const_power, clean_titan.fit.capped.const_power) < 0.25,
            "π1 {} vs clean {}",
            titan.fit.capped.const_power,
            clean_titan.fit.capped.const_power
        );
    }
}
