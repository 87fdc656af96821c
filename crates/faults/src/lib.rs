//! # archline-faults — seeded fault injection for the measurement pipeline
//!
//! The paper's machine constants come from physical instrumentation
//! (PowerMon 2 interposed on DC rails, RAPL counters, the Arndale energy
//! probe), and real meters misbehave: they drop and duplicate samples,
//! deliver out of order over USB, skew and jitter their clocks, spike on
//! ADC glitches, quantize coarsely, wrap 32-bit energy counters in minutes
//! at high power, and lose whole rails or whole runs. This crate provides
//! **composable, deterministic fault injectors** over both representations
//! the pipeline uses:
//!
//! * [`Sample`] streams (instantaneous power traces) — see
//!   [`FaultPlan::apply_to_samples`]; repair them with
//!   `PowerTrace::sanitize`.
//! * [`Run`] tuples (the `(W, Q, T, E)` measurements the fitting pipeline
//!   consumes) — see [`FaultPlan::apply_to_runs`]; survive them with
//!   `archline_fit::try_fit_platform` and robust [`FitOptions`].
//!
//! Every injector is seeded and pure: the same `(input, spec)` produces the
//! same corruption, which is what lets the chaos suite sweep severities and
//! assert recovery tolerances deterministically.
//!
//! [`FitOptions`]: ../archline_fit/robust/struct.FitOptions.html

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use archline_fit::Run;
use archline_obs::{self as obs, field, Counter};
use archline_powermon::noise::gauss;
use archline_powermon::Sample;

/// Fault-spec applications (one per spec per stream/run-set injected).
static INJECTIONS: Counter = Counter::new("fault.injections");
/// Individual samples/runs corrupted across all injections.
static SITES: Counter = Counter::new("fault.sites");

/// Emits the audit event for one spec application. Exactly one event per
/// `(spec, representation)` — the chaos suite asserts this — carrying the
/// seed so any corruption is reproducible from the trace alone. Counting
/// `affected` never draws from the spec's RNG: corrupted streams must stay
/// bit-identical to their un-audited form.
fn audit(spec: &FaultSpec, site: &str, n_in: usize, n_out: usize, affected: u64) {
    INJECTIONS.inc();
    SITES.add(affected);
    if obs::enabled(obs::Level::Debug) {
        obs::emit(
            obs::Level::Debug,
            "fault",
            "injected",
            &[
                field("class", spec.class.name()),
                field("severity", spec.severity),
                field("seed", spec.seed),
                field("site", site.to_string()),
                field("n_in", n_in),
                field("n_out", n_out),
                field("affected", affected),
            ],
        );
    }
}

/// Energy span of a 32-bit µJ RAPL counter, Joules (`2^32 µJ`); the amount
/// an un-decoded wraparound subtracts from a measured energy.
pub const COUNTER_WRAP_JOULES: f64 = 4294.967296;

/// One class of measurement pathology.
///
/// Severity is a single knob per class; its meaning (probability, relative
/// magnitude, or window fraction) is documented per variant. All classes
/// are defined for both sample streams and run sets where that makes
/// physical sense; classes that do not apply to a representation leave it
/// untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultClass {
    /// Each sample/run is lost with probability `severity`.
    Drop,
    /// Each sample/run is duplicated with probability `severity`.
    Duplicate,
    /// Each adjacent sample pair is swapped with probability `severity`
    /// (out-of-order delivery). No effect on runs (their order carries no
    /// information).
    OutOfOrder,
    /// Systematic clock skew: all timestamps/durations are scaled by
    /// `1 + severity`.
    ClockSkew,
    /// Random timing jitter: each timestamp moves by a zero-mean Gaussian
    /// with σ = `severity ×` the median sample interval. No effect on runs.
    Jitter,
    /// Lognormal outlier spikes: with probability `severity`, a sample's
    /// power (or a run's energy) is multiplied by `exp(2 + |N(0,1)|)`
    /// (≥ ~7.4×) — the signature of an ADC glitch or a dropped
    /// voltage-sense line.
    Spike,
    /// Coarse quantization: powers (or run energies) are rounded to a grid
    /// of `severity ×` the stream's peak value.
    Quantize,
    /// Un-decoded 32-bit energy-counter wraparound: with probability
    /// `severity`, a run's energy loses [`COUNTER_WRAP_JOULES`] (driving it
    /// negative at benchmark scales — an invalid run the robust fit must
    /// reject). On samples, the affected power is zeroed.
    CounterWrap,
    /// Rail dropout: a contiguous window covering fraction `severity` of
    /// the trace reads zero Watts (one rail's sense line lost). No effect
    /// on runs.
    RailDropout,
    /// Whole-run failure/timeout: with probability `severity`, a run's
    /// time and energy are replaced by non-finite or non-positive garbage
    /// (the shapes a crashed or timed-out benchmark leaves behind). On
    /// samples, the affected sample's fields go NaN.
    FailRun,
}

impl FaultClass {
    /// Every fault class, in a stable order (the chaos suite sweeps this).
    pub const ALL: [FaultClass; 10] = [
        FaultClass::Drop,
        FaultClass::Duplicate,
        FaultClass::OutOfOrder,
        FaultClass::ClockSkew,
        FaultClass::Jitter,
        FaultClass::Spike,
        FaultClass::Quantize,
        FaultClass::CounterWrap,
        FaultClass::RailDropout,
        FaultClass::FailRun,
    ];

    /// Stable lowercase name (CLI and report vocabulary).
    pub fn name(&self) -> &'static str {
        match self {
            FaultClass::Drop => "drop",
            FaultClass::Duplicate => "duplicate",
            FaultClass::OutOfOrder => "out-of-order",
            FaultClass::ClockSkew => "clock-skew",
            FaultClass::Jitter => "jitter",
            FaultClass::Spike => "spike",
            FaultClass::Quantize => "quantize",
            FaultClass::CounterWrap => "counter-wrap",
            FaultClass::RailDropout => "rail-dropout",
            FaultClass::FailRun => "fail-run",
        }
    }

    /// Parses a class from its [`Self::name`].
    pub fn parse(s: &str) -> Option<FaultClass> {
        FaultClass::ALL.iter().copied().find(|c| c.name() == s)
    }
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One seeded fault injection: a class at a severity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// What kind of corruption.
    pub class: FaultClass,
    /// How much (per-class meaning; see [`FaultClass`]).
    pub severity: f64,
    /// RNG seed; the same spec on the same input reproduces bit-identically.
    pub seed: u64,
}

impl FaultSpec {
    /// Creates a spec.
    pub fn new(class: FaultClass, severity: f64, seed: u64) -> Self {
        Self { class, severity, seed }
    }

    /// Parses `class:severity[:seed]` (e.g. `spike:0.1:7`); seed defaults
    /// to 0.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut parts = s.split(':');
        let class = parts
            .next()
            .and_then(FaultClass::parse)
            .ok_or_else(|| format!("unknown fault class in `{s}`"))?;
        let severity = parts
            .next()
            .ok_or_else(|| format!("missing severity in `{s}`"))?
            .parse::<f64>()
            .map_err(|_| format!("bad severity in `{s}`"))?;
        if !(0.0..=1.0).contains(&severity) {
            return Err(format!("severity must be in [0, 1], got {severity}"));
        }
        let seed = match parts.next() {
            Some(v) => v.parse::<u64>().map_err(|_| format!("bad seed in `{s}`"))?,
            None => 0,
        };
        if parts.next().is_some() {
            return Err(format!("trailing fields in `{s}`"));
        }
        Ok(Self { class, severity, seed })
    }

    fn rng(&self) -> StdRng {
        // Decorrelate specs that share a seed but differ in class/severity.
        let class_tag = self.class.name().bytes().fold(0u64, |h, b| {
            h.wrapping_mul(0x100000001b3).wrapping_add(u64::from(b))
        });
        StdRng::seed_from_u64(self.seed ^ class_tag.rotate_left(17))
    }
}

impl std::fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}:{}", self.class, self.severity, self.seed)
    }
}

/// An ordered composition of fault injections, applied left to right.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The injections, in application order.
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// A plan from specs (applied in order).
    pub fn new(specs: Vec<FaultSpec>) -> Self {
        Self { specs }
    }

    /// A single-fault plan.
    pub fn single(class: FaultClass, severity: f64, seed: u64) -> Self {
        Self { specs: vec![FaultSpec::new(class, severity, seed)] }
    }

    /// Corrupts a sample stream. The output is *raw*: it may be unordered,
    /// non-finite, or negative — exactly what `PowerTrace::sanitize` (or a
    /// `PowerTrace::try_new` rejection) is for.
    ///
    /// Audits under the default `"samples"` site; callers outside the repro
    /// pipeline should use [`Self::apply_to_samples_at`] so the trace names
    /// the real injection point.
    pub fn apply_to_samples(&self, samples: Vec<Sample>) -> Vec<Sample> {
        self.apply_to_samples_at(samples, "samples")
    }

    /// Like [`Self::apply_to_samples`], auditing each injection under the
    /// caller-supplied `site` label (e.g. `"serve"` for the query server).
    pub fn apply_to_samples_at(&self, mut samples: Vec<Sample>, site: &str) -> Vec<Sample> {
        for spec in &self.specs {
            samples = inject_samples(samples, spec, site);
        }
        samples
    }

    /// Corrupts a run set. The output may contain invalid runs (negative or
    /// non-finite time/energy); `archline_fit::try_fit_platform` filters
    /// and reports them.
    ///
    /// Audits under the default `"runs"` site; callers outside the repro
    /// pipeline should use [`Self::apply_to_runs_at`] so the trace names
    /// the real injection point.
    pub fn apply_to_runs(&self, runs: Vec<Run>) -> Vec<Run> {
        self.apply_to_runs_at(runs, "runs")
    }

    /// Like [`Self::apply_to_runs`], auditing each injection under the
    /// caller-supplied `site` label (e.g. `"serve"` for the query server).
    pub fn apply_to_runs_at(&self, mut runs: Vec<Run>, site: &str) -> Vec<Run> {
        for spec in &self.specs {
            runs = inject_runs(runs, spec, site);
        }
        runs
    }
}

/// A gross multiplicative outlier, always ≥ e² ≈ 7.4×.
fn spike_factor<R: Rng>(rng: &mut R) -> f64 {
    (2.0 + gauss(rng).abs()).exp()
}

fn inject_samples(samples: Vec<Sample>, spec: &FaultSpec, site: &str) -> Vec<Sample> {
    let n_in = samples.len();
    let mut affected = 0u64;
    let out = inject_samples_impl(samples, spec, &mut affected);
    audit(spec, site, n_in, out.len(), affected);
    out
}

fn inject_samples_impl(samples: Vec<Sample>, spec: &FaultSpec, affected: &mut u64) -> Vec<Sample> {
    let mut rng = spec.rng();
    let s = spec.severity;
    match spec.class {
        FaultClass::Drop => samples
            .into_iter()
            .filter(|_| {
                let dropped = rng.gen_bool(s);
                if dropped {
                    *affected += 1;
                }
                !dropped
            })
            .collect(),
        FaultClass::Duplicate => {
            let mut out = Vec::with_capacity(samples.len() * 2);
            for sample in samples {
                out.push(sample);
                if rng.gen_bool(s) {
                    *affected += 1;
                    out.push(sample);
                }
            }
            out
        }
        FaultClass::OutOfOrder => {
            let mut out = samples;
            let mut i = 0;
            while i + 1 < out.len() {
                if rng.gen_bool(s) {
                    out.swap(i, i + 1);
                    *affected += 2;
                    i += 2; // don't re-swap the pair we just disordered
                } else {
                    i += 1;
                }
            }
            out
        }
        FaultClass::ClockSkew => {
            let k = 1.0 + s;
            *affected = samples.len() as u64;
            samples.into_iter().map(|p| Sample { time: p.time * k, watts: p.watts }).collect()
        }
        FaultClass::Jitter => {
            let mut dts: Vec<f64> =
                samples.windows(2).map(|w| w[1].time - w[0].time).collect();
            dts.sort_by(f64::total_cmp);
            let median_dt = dts.get(dts.len() / 2).copied().unwrap_or(0.0);
            *affected = samples.len() as u64;
            samples
                .into_iter()
                .map(|p| Sample { time: p.time + gauss(&mut rng) * s * median_dt, watts: p.watts })
                .collect()
        }
        FaultClass::Spike => samples
            .into_iter()
            .map(|mut p| {
                if rng.gen_bool(s) {
                    *affected += 1;
                    p.watts *= spike_factor(&mut rng);
                }
                p
            })
            .collect(),
        FaultClass::Quantize => {
            let peak = samples.iter().map(|p| p.watts).fold(0.0f64, f64::max);
            let step = s * peak;
            if step <= 0.0 {
                return samples;
            }
            *affected = samples.len() as u64;
            samples
                .into_iter()
                .map(|p| Sample { time: p.time, watts: (p.watts / step).round() * step })
                .collect()
        }
        FaultClass::CounterWrap => samples
            .into_iter()
            .map(|mut p| {
                if rng.gen_bool(s) {
                    *affected += 1;
                    p.watts = 0.0;
                }
                p
            })
            .collect(),
        FaultClass::RailDropout => {
            let (t0, t1) = match (samples.first(), samples.last()) {
                (Some(a), Some(b)) if b.time > a.time => (a.time, b.time),
                _ => return samples,
            };
            let span = t1 - t0;
            let width = s * span;
            let start = t0 + rng.gen_range(0.0..1.0) * (span - width).max(0.0);
            samples
                .into_iter()
                .map(|mut p| {
                    if p.time >= start && p.time <= start + width {
                        *affected += 1;
                        p.watts = 0.0;
                    }
                    p
                })
                .collect()
        }
        FaultClass::FailRun => samples
            .into_iter()
            .map(|mut p| {
                if rng.gen_bool(s) {
                    *affected += 1;
                    p.watts = f64::NAN;
                }
                p
            })
            .collect(),
    }
}

fn inject_runs(runs: Vec<Run>, spec: &FaultSpec, site: &str) -> Vec<Run> {
    let n_in = runs.len();
    let mut affected = 0u64;
    let out = inject_runs_impl(runs, spec, &mut affected);
    audit(spec, site, n_in, out.len(), affected);
    out
}

fn inject_runs_impl(runs: Vec<Run>, spec: &FaultSpec, affected: &mut u64) -> Vec<Run> {
    let mut rng = spec.rng();
    let s = spec.severity;
    match spec.class {
        FaultClass::Drop => runs
            .into_iter()
            .filter(|_| {
                let dropped = rng.gen_bool(s);
                if dropped {
                    *affected += 1;
                }
                !dropped
            })
            .collect(),
        FaultClass::Duplicate => {
            let mut out = Vec::with_capacity(runs.len() * 2);
            for run in runs {
                out.push(run);
                if rng.gen_bool(s) {
                    *affected += 1;
                    out.push(run);
                }
            }
            out
        }
        FaultClass::OutOfOrder | FaultClass::Jitter | FaultClass::RailDropout => runs,
        FaultClass::ClockSkew => {
            // A skewed clock stretches every measured duration; energy is
            // integrated power × (skewed) time, so it stretches too.
            let k = 1.0 + s;
            *affected = runs.len() as u64;
            runs.into_iter()
                .map(|mut r| {
                    r.time *= k;
                    r.energy *= k;
                    r
                })
                .collect()
        }
        FaultClass::Spike => runs
            .into_iter()
            .map(|mut r| {
                if rng.gen_bool(s) {
                    *affected += 1;
                    r.energy *= spike_factor(&mut rng);
                }
                r
            })
            .collect(),
        FaultClass::Quantize => {
            let peak = runs.iter().map(|r| r.energy).fold(0.0f64, f64::max);
            let step = s * peak;
            if step <= 0.0 {
                return runs;
            }
            *affected = runs.len() as u64;
            runs.into_iter()
                .map(|mut r| {
                    r.energy = (r.energy / step).round() * step;
                    r
                })
                .collect()
        }
        FaultClass::CounterWrap => runs
            .into_iter()
            .map(|mut r| {
                if rng.gen_bool(s) {
                    *affected += 1;
                    r.energy -= COUNTER_WRAP_JOULES;
                }
                r
            })
            .collect(),
        FaultClass::FailRun => runs
            .into_iter()
            .map(|mut r| {
                if rng.gen_bool(s) {
                    *affected += 1;
                    // Rotate through the shapes real failures leave behind.
                    match rng.gen_range(0u32..3) {
                        0 => {
                            r.time = f64::NAN;
                            r.energy = f64::NAN;
                        }
                        1 => {
                            r.time = 0.0;
                            r.energy = 0.0;
                        }
                        _ => {
                            r.energy = -r.energy;
                        }
                    }
                }
                r
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_samples(n: usize) -> Vec<Sample> {
        (0..n).map(|i| Sample { time: i as f64 * 0.01, watts: 10.0 + i as f64 * 0.1 }).collect()
    }

    fn runs(n: usize) -> Vec<Run> {
        (0..n)
            .map(|i| Run {
                flops: 1e9 * (i + 1) as f64,
                bytes: 1e8 * (i + 1) as f64,
                accesses: 0.0,
                time: 0.1 * (i + 1) as f64,
                energy: 2.0 * (i + 1) as f64,
            })
            .collect()
    }

    /// Bit-exact f64 equality (NaN == NaN), since FailRun injects NaNs.
    fn same_bits(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits()
    }

    #[test]
    fn deterministic_per_seed() {
        for class in FaultClass::ALL {
            let plan = FaultPlan::single(class, 0.3, 42);
            let (s1, s2) =
                (plan.apply_to_samples(ramp_samples(200)), plan.apply_to_samples(ramp_samples(200)));
            assert_eq!(s1.len(), s2.len(), "{class}");
            for (a, b) in s1.iter().zip(&s2) {
                assert!(
                    same_bits(a.time, b.time) && same_bits(a.watts, b.watts),
                    "{class} samples not deterministic"
                );
            }
            let (r1, r2) = (plan.apply_to_runs(runs(50)), plan.apply_to_runs(runs(50)));
            assert_eq!(r1.len(), r2.len(), "{class}");
            for (a, b) in r1.iter().zip(&r2) {
                assert!(
                    same_bits(a.time, b.time) && same_bits(a.energy, b.energy),
                    "{class} runs not deterministic"
                );
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::single(FaultClass::Drop, 0.5, 1).apply_to_samples(ramp_samples(400));
        let b = FaultPlan::single(FaultClass::Drop, 0.5, 2).apply_to_samples(ramp_samples(400));
        assert_ne!(a, b);
    }

    #[test]
    fn zero_severity_is_identity() {
        for class in FaultClass::ALL {
            let plan = FaultPlan::single(class, 0.0, 7);
            assert_eq!(plan.apply_to_samples(ramp_samples(100)), ramp_samples(100), "{class}");
            assert_eq!(plan.apply_to_runs(runs(20)), runs(20), "{class}");
        }
    }

    #[test]
    fn drop_removes_about_the_requested_fraction() {
        let out = FaultPlan::single(FaultClass::Drop, 0.3, 9).apply_to_samples(ramp_samples(2000));
        let frac = 1.0 - out.len() as f64 / 2000.0;
        assert!((frac - 0.3).abs() < 0.05, "dropped {frac}");
    }

    #[test]
    fn duplicate_grows_the_stream() {
        let out =
            FaultPlan::single(FaultClass::Duplicate, 0.5, 3).apply_to_runs(runs(1000));
        assert!(out.len() > 1300 && out.len() < 1700, "{}", out.len());
    }

    #[test]
    fn out_of_order_breaks_monotonicity() {
        let out =
            FaultPlan::single(FaultClass::OutOfOrder, 0.5, 5).apply_to_samples(ramp_samples(100));
        assert_eq!(out.len(), 100);
        let inversions = out.windows(2).filter(|w| w[1].time < w[0].time).count();
        assert!(inversions > 10, "only {inversions} inversions");
    }

    #[test]
    fn clock_skew_scales_times() {
        let out =
            FaultPlan::single(FaultClass::ClockSkew, 0.1, 0).apply_to_samples(ramp_samples(10));
        assert!((out[9].time - 0.09 * 1.1).abs() < 1e-12);
        let r = FaultPlan::single(FaultClass::ClockSkew, 0.1, 0).apply_to_runs(runs(3));
        assert!((r[0].time - 0.11).abs() < 1e-12);
        // Average power is preserved by a pure clock skew.
        assert!((r[0].avg_power() - runs(3)[0].avg_power()).abs() < 1e-9);
    }

    #[test]
    fn spikes_are_gross_outliers() {
        let out = FaultPlan::single(FaultClass::Spike, 0.2, 11).apply_to_runs(runs(500));
        let clean = runs(500);
        let mut spiked = 0;
        for (o, c) in out.iter().zip(&clean) {
            if o.energy != c.energy {
                assert!(o.energy / c.energy > 7.0, "spike too small: {}", o.energy / c.energy);
                spiked += 1;
            }
        }
        assert!(spiked > 60 && spiked < 140, "{spiked} spiked");
    }

    #[test]
    fn counter_wrap_drives_energies_negative() {
        let out = FaultPlan::single(FaultClass::CounterWrap, 1.0, 2).apply_to_runs(runs(5));
        for r in &out {
            assert!(r.energy < 0.0, "wrap should dominate benchmark-scale energies");
        }
    }

    #[test]
    fn rail_dropout_zeroes_a_contiguous_window() {
        let out =
            FaultPlan::single(FaultClass::RailDropout, 0.25, 13).apply_to_samples(ramp_samples(1000));
        let zeros: Vec<usize> =
            out.iter().enumerate().filter(|(_, p)| p.watts == 0.0).map(|(i, _)| i).collect();
        assert!(!zeros.is_empty());
        let frac = zeros.len() as f64 / 1000.0;
        assert!((frac - 0.25).abs() < 0.05, "window fraction {frac}");
        // Contiguous indices.
        for pair in zeros.windows(2) {
            assert_eq!(pair[1], pair[0] + 1);
        }
    }

    #[test]
    fn fail_run_produces_invalid_runs() {
        let out = FaultPlan::single(FaultClass::FailRun, 1.0, 1).apply_to_runs(runs(30));
        assert!(out.iter().all(|r| !r.is_valid()));
    }

    #[test]
    fn plans_compose_in_order() {
        let plan = FaultPlan::new(vec![
            FaultSpec::new(FaultClass::Drop, 0.2, 1),
            FaultSpec::new(FaultClass::Spike, 0.1, 2),
        ]);
        let out = plan.apply_to_runs(runs(200));
        assert!(out.len() < 200);
        let single = FaultPlan::single(FaultClass::Drop, 0.2, 1).apply_to_runs(runs(200));
        assert_eq!(out.len(), single.len(), "drop happens before spike");
    }

    #[test]
    fn spec_parsing_round_trips() {
        let spec = FaultSpec::parse("spike:0.1:7").unwrap();
        assert_eq!(spec, FaultSpec::new(FaultClass::Spike, 0.1, 7));
        assert_eq!(FaultSpec::parse(&spec.to_string()).unwrap(), spec);
        let spec = FaultSpec::parse("drop:0.5").unwrap();
        assert_eq!(spec.seed, 0);
        assert!(FaultSpec::parse("nope:0.5").is_err());
        assert!(FaultSpec::parse("spike:2.0").is_err());
        assert!(FaultSpec::parse("spike").is_err());
        assert!(FaultSpec::parse("spike:0.1:7:9").is_err());
        for class in FaultClass::ALL {
            assert_eq!(FaultClass::parse(class.name()), Some(class));
        }
    }

    #[test]
    fn audit_event_emitted_exactly_once_per_spec() {
        let plan = FaultPlan::new(vec![
            FaultSpec::new(FaultClass::Spike, 0.2, 1234),
            FaultSpec::new(FaultClass::Drop, 0.1, 5678),
        ]);
        let ((), events) = archline_obs::test_support::capture(|| {
            let _ = plan.apply_to_runs(runs(100));
        });
        let audits: Vec<_> =
            events.iter().filter(|e| e.target == "fault" && e.name == "injected").collect();
        assert_eq!(audits.len(), 2, "one audit event per spec application");
        assert_eq!(audits[0].get_str("class"), Some("spike"));
        assert_eq!(audits[0].get_u64("seed"), Some(1234));
        assert_eq!(audits[0].get_str("site"), Some("runs"));
        assert_eq!(audits[1].get_str("class"), Some("drop"));
        assert_eq!(audits[1].get_u64("seed"), Some(5678));
        // The affected count is real: spikes at 20% over 100 runs.
        let affected = audits[0].get_u64("affected").unwrap();
        assert!(affected > 0 && affected < 50, "{affected}");
    }

    #[test]
    fn audit_carries_caller_supplied_site() {
        // A non-repro caller (the serve crate routes injections through
        // `apply_to_runs_at`) must see its own site label in the audit, not
        // the hardcoded repro one — and the corruption itself must be
        // bit-identical regardless of which entry point was used.
        let plan = FaultPlan::single(FaultClass::Spike, 0.3, 77);
        let (via_default, default_events) =
            archline_obs::test_support::capture(|| plan.apply_to_runs(runs(100)));
        let (via_site, site_events) = archline_obs::test_support::capture(|| {
            (
                plan.apply_to_runs_at(runs(100), "serve"),
                plan.apply_to_samples_at(ramp_samples(100), "serve/trace"),
            )
        });
        let audits = |evs: &[archline_obs::OwnedEvent]| -> Vec<String> {
            evs.iter()
                .filter(|e| e.target == "fault" && e.name == "injected")
                .map(|e| e.get_str("site").unwrap().to_string())
                .collect()
        };
        assert_eq!(audits(&default_events), ["runs"]);
        assert_eq!(audits(&site_events), ["serve", "serve/trace"]);
        for (a, b) in via_default.iter().zip(&via_site.0) {
            assert!(
                same_bits(a.time, b.time) && same_bits(a.energy, b.energy),
                "site label must not change the corruption"
            );
        }
    }

    #[test]
    fn audit_does_not_perturb_rng_streams() {
        // Corruption must be bit-identical whether or not anyone listens:
        // the audit path must never draw from the spec's RNG.
        let plan = FaultPlan::single(FaultClass::FailRun, 0.5, 99);
        let silent = plan.apply_to_runs(runs(200));
        let (observed, _) =
            archline_obs::test_support::capture(|| plan.apply_to_runs(runs(200)));
        for (a, b) in silent.iter().zip(&observed) {
            assert!(same_bits(a.time, b.time) && same_bits(a.energy, b.energy));
        }
    }

    #[test]
    fn sanitize_recovers_reordered_stream() {
        use archline_powermon::PowerTrace;
        let clean = ramp_samples(500);
        let clean_avg = PowerTrace::new(clean.clone()).avg_power();
        let dirty =
            FaultPlan::single(FaultClass::OutOfOrder, 0.4, 21).apply_to_samples(clean);
        assert!(PowerTrace::try_new(dirty.clone()).is_err());
        let (trace, report) = PowerTrace::sanitize(dirty);
        assert!(report.reordered > 0);
        assert!((trace.avg_power() - clean_avg).abs() < 1e-9, "reordering must not bias power");
    }
}
