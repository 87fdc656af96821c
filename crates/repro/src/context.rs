//! Shared analysis cache for the artifact pipeline.
//!
//! Almost every artifact starts from the same 12-platform sweep
//! ([`analyze_outcome`]): simulate the microbenchmark suite, then fit both
//! models. Before this cache existed, `repro all` re-ran that sweep once per
//! artifact. [`AnalysisContext`] memoizes the sweep (and Table I's
//! double-precision variant) behind [`OnceLock`], so any number of artifacts
//! computed against one context share a single sweep — concurrently-arriving
//! callers block on the first computation instead of duplicating it.
//!
//! The context also carries the pipeline's **degradation state**: platforms
//! whose measure-and-fit failed (organically or through an injected fault
//! plan) are recorded as [`PlatformFailure`]s instead of aborting the
//! sweep, and [`Self::analyses`] serves the healthy subset. Artifacts mark
//! those platforms degraded rather than crashing.
//!
//! Each sweep-backed artifact's `compute` takes `&AnalysisContext`; the
//! model-only artifacts (Figs. 1, 6 and 7, §V-C, §V-D and the `ext-*`
//! what-ifs) take no context at all.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use archline_faults::FaultPlan;
use archline_fit::{try_fit_platform, FitOptions};
use archline_machine::{spec_for, Engine};
use archline_microbench::{run_suite, SweepConfig};
use archline_obs::{self as obs, field, Counter};
use archline_par::parallel_map;
use archline_platforms::Precision;

/// Artifact requests that found the shared sweep already memoized.
static CACHE_HITS: Counter = Counter::new("repro.cache.hits");
/// Artifact requests that had to run the sweep (1 per context).
static CACHE_MISSES: Counter = Counter::new("repro.cache.misses");

use crate::analysis::{analyze_outcome, PlatformAnalysis};
use crate::failure::PlatformFailure;
use crate::table1::FittedValue;

/// Config-keyed memo of the shared per-platform analyses.
///
/// Construct one per [`SweepConfig`]; the sweep runs lazily on first use and
/// exactly once per context regardless of how many artifacts (or threads)
/// ask for it. `&AnalysisContext` is `Send + Sync`, so artifacts may be
/// computed concurrently against the same context.
#[derive(Debug)]
pub struct AnalysisContext {
    cfg: SweepConfig,
    sabotage: Vec<(String, FaultPlan)>,
    outcome: OnceLock<(Vec<PlatformAnalysis>, Vec<PlatformFailure>)>,
    doubles: OnceLock<Vec<Option<FittedValue>>>,
    sweep_misses: AtomicUsize,
}

impl AnalysisContext {
    /// A context keyed to `cfg`. No work happens until an artifact asks.
    pub fn new(cfg: SweepConfig) -> Self {
        Self::with_sabotage(cfg, Vec::new())
    }

    /// A context whose sweep will corrupt the named platforms' DRAM
    /// measurements with the given seeded fault plans (chaos testing and
    /// the `repro --inject` flag). Sabotaged platforms are fitted with the
    /// robust policy; those corrupted past fitability surface in
    /// [`Self::failures`] instead of panicking.
    pub fn with_sabotage(cfg: SweepConfig, sabotage: Vec<(String, FaultPlan)>) -> Self {
        Self {
            cfg,
            sabotage,
            outcome: OnceLock::new(),
            doubles: OnceLock::new(),
            sweep_misses: AtomicUsize::new(0),
        }
    }

    /// The sweep configuration this context is keyed to.
    pub fn cfg(&self) -> &SweepConfig {
        &self.cfg
    }

    fn outcome(&self) -> &(Vec<PlatformAnalysis>, Vec<PlatformFailure>) {
        if let Some(cached) = self.outcome.get() {
            CACHE_HITS.inc();
            return cached;
        }
        self.outcome.get_or_init(|| {
            self.sweep_misses.fetch_add(1, Ordering::Relaxed);
            CACHE_MISSES.inc();
            let _span = obs::span(obs::Level::Debug, "repro", "sweep");
            let outcome = analyze_outcome(&self.cfg, &self.sabotage);
            obs::emit(
                obs::Level::Debug,
                "repro",
                "cache_fill",
                &[
                    field("platforms", outcome.0.len()),
                    field("failures", outcome.1.len()),
                ],
            );
            outcome
        })
    }

    /// The single-precision 12-platform sweep, computed at most once. Only
    /// successfully fitted platforms appear (all 12 in a healthy run); see
    /// [`Self::failures`] for the rest.
    pub fn analyses(&self) -> &[PlatformAnalysis] {
        &self.outcome().0
    }

    /// Platforms whose measure-and-fit failed, with causes. Empty in a
    /// healthy run.
    pub fn failures(&self) -> &[PlatformFailure] {
        &self.outcome().1
    }

    /// Table I's double-precision `ε_d` column (one slot per *healthy*
    /// platform, aligned with [`Self::analyses`]; `None` where double
    /// precision is unsupported or its fit fails). Also memoized: only the
    /// first caller pays for the extra sweeps.
    pub fn doubles(&self) -> &[Option<FittedValue>] {
        self.doubles.get_or_init(|| {
            let engine = Engine::default();
            parallel_map(self.analyses(), |a| {
                if !a.platform.supports_double() {
                    return None;
                }
                let spec = spec_for(&a.platform, Precision::Double);
                let suite = run_suite(&spec, &self.cfg, &engine);
                let fit = try_fit_platform(&suite.dram, &FitOptions::default()).ok()?;
                a.platform.flop_double.map(|paper| FittedValue {
                    paper: paper.energy,
                    fitted: fit.capped.energy_per_flop,
                })
            })
        })
    }

    /// How many times the sweep was actually run (1 after any use; the whole
    /// point of the cache is that it never reaches 2).
    pub fn sweep_misses(&self) -> usize {
        self.sweep_misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::fast_config;
    use crate::{ext, fig4, fig5, scorecard, table1};
    use archline_faults::FaultClass;

    #[test]
    fn sweep_runs_exactly_once_across_artifacts() {
        let ctx = AnalysisContext::new(fast_config());
        assert_eq!(ctx.sweep_misses(), 0, "lazy until first use");

        let t1 = table1::compute(&ctx, false);
        let f4 = fig4::compute(&ctx);
        let f5 = fig5::compute(&ctx);
        let sc = scorecard::compute(&ctx);
        let ab = ext::arndale_ablation(&ctx).expect("Arndale healthy");

        assert_eq!(t1.rows.len(), 12);
        assert_eq!(f4.rows.len(), 12);
        assert_eq!(f5.panels.len(), 12);
        assert!(!sc.claims.is_empty());
        assert!(ab.true_depth > 0.0);
        assert_eq!(ctx.sweep_misses(), 1, "sweep must run exactly once");
    }

    #[test]
    fn context_results_match_uncached_compute() {
        // A context that has already served other artifacts answers from
        // its memo; each fresh context runs its own sweep.
        let cfg = fast_config();
        let ctx = AnalysisContext::new(cfg);
        let _ = fig5::compute(&ctx);
        let _ = scorecard::compute(&ctx);
        assert_eq!(table1::compute(&ctx, false), table1::compute(&AnalysisContext::new(cfg), false));
        assert_eq!(fig4::compute(&ctx), fig4::compute(&AnalysisContext::new(cfg)));
    }

    #[test]
    fn concurrent_first_use_still_sweeps_once() {
        let ctx = AnalysisContext::new(fast_config());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    assert_eq!(ctx.analyses().len(), 12);
                });
            }
        });
        assert_eq!(ctx.sweep_misses(), 1);
    }

    #[test]
    fn sabotaged_context_serves_the_healthy_subset() {
        let plan = FaultPlan::single(FaultClass::FailRun, 1.0, 3);
        let ctx =
            AnalysisContext::with_sabotage(fast_config(), vec![("Xeon Phi".to_string(), plan)]);
        assert_eq!(ctx.analyses().len(), 11);
        assert_eq!(ctx.failures().len(), 1);
        assert_eq!(ctx.failures()[0].name, "Xeon Phi");
        assert_eq!(ctx.sweep_misses(), 1, "failure path shares the memo");
        // Artifacts over the degraded context still complete.
        let t1 = table1::compute(&ctx, false);
        assert_eq!(t1.rows.len(), 11);
        assert_eq!(t1.degraded.len(), 1);
        assert_eq!(t1.degraded[0].name, "Xeon Phi");
    }
}
