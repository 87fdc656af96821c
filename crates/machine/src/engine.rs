//! The continuous-time execution engine with a power-cap governor.

use rand::Rng;
use serde::{Deserialize, Serialize};

use archline_core::HierWorkload;

use crate::noise::{box_muller, gauss_uniforms, RunNoise};
use crate::spec::{PlatformSpec, Quirk};

/// One constant-power stretch of a run-length-encoded profile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// Power drawn over the segment, Watts.
    pub watts: f64,
    /// End time of the segment, seconds (segments are contiguous from 0).
    pub until: f64,
}

/// A piecewise-constant power profile: either uniform ticks (the last tick
/// may be partial), as produced by the tick integrator, or run-length
/// encoded [`Segment`]s, as produced by the closed-form fast path. Both
/// representations share exact `power_at`/`energy` semantics; a time on a
/// boundary belongs to the later tick/segment.
///
/// A tick profile stores what the tick loop drew, not the power it implies:
/// each tick's Box–Muller uniform pair, its OS-interference power (kept only
/// for specs with that quirk), and the run constants. A tick's power is
/// evaluated when [`StepProfile::power_at`] or [`StepProfile::energy`]
/// reads it, with the loop's arithmetic in the loop's operation order, so
/// every value has the bits eager evaluation would have given it. The
/// measurement chain reads about one tick in ten (PowerMon's 1,024 Hz
/// samples over 10 kHz ticks), so the transcendental work of the other
/// nine is never done.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepProfile {
    dt: f64,
    duration: f64,
    steps: Steps,
}

/// The two profile representations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Steps {
    Ticks(Ticks),
    Segments(Vec<Segment>),
}

/// The per-tick draws and run constants of a tick-integrated run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Ticks {
    /// Constant power π₁, W.
    const_power: f64,
    /// Steady operation power times the run's power factor, W.
    ops_power: f64,
    /// Relative sigma of the per-tick power noise.
    tick_sigma: f64,
    /// Each tick's Box–Muller uniform pair, in draw order.
    uniforms: Vec<[f64; 2]>,
    /// Each tick's OS-interference power, W; empty when the spec has no
    /// such quirk (every tick then adds exactly `0.0`).
    extra: Vec<f64>,
}

impl Ticks {
    /// Power drawn during tick `i`: the tick loop's
    /// `const + ops · max(1 + σ·g, 0) + extra`, same operations, same order.
    fn watts(&self, i: usize) -> f64 {
        let tick_noise = 1.0 + self.tick_sigma * box_muller(self.uniforms[i]);
        let extra = self.extra.get(i).copied().unwrap_or(0.0);
        self.const_power + self.ops_power * tick_noise.max(0.0) + extra
    }
}

impl StepProfile {
    /// Builds a run-length-encoded profile from contiguous segments
    /// (closed-form fast-path output). The span is the last segment's end.
    pub fn from_segments(segments: Vec<Segment>) -> Self {
        let duration = segments.last().map_or(0.0, |s| s.until);
        Self { dt: duration, duration, steps: Steps::Segments(segments) }
    }

    /// Instantaneous power at time `t` (clamped to the profile's span).
    pub fn power_at(&self, t: f64) -> f64 {
        match &self.steps {
            Steps::Segments(segments) => {
                if segments.is_empty() {
                    return 0.0;
                }
                // Segment end times are strictly increasing, so the first
                // segment with `t < until` is a binary-search boundary;
                // times past the span clamp to the last segment.
                let idx = segments.partition_point(|s| s.until <= t);
                segments[idx.min(segments.len() - 1)].watts
            }
            Steps::Ticks(ticks) => {
                if ticks.uniforms.is_empty() {
                    return 0.0;
                }
                ticks.watts(((t / self.dt) as usize).min(ticks.uniforms.len() - 1))
            }
        }
    }

    /// Total span, seconds.
    pub fn duration(&self) -> f64 {
        self.duration
    }

    /// Exact integral of the profile, Joules.
    pub fn energy(&self) -> f64 {
        let mut e = 0.0;
        match &self.steps {
            Steps::Segments(segments) => {
                let mut start = 0.0;
                for s in segments {
                    e += s.watts * (s.until - start);
                    start = s.until;
                }
            }
            Steps::Ticks(ticks) => {
                let mut remaining = self.duration;
                for i in 0..ticks.uniforms.len() {
                    let span = remaining.min(self.dt);
                    e += ticks.watts(i) * span;
                    remaining -= span;
                }
            }
        }
        e
    }

    /// Tick length, seconds (equals [`StepProfile::duration`] for
    /// run-length-encoded profiles, which have no uniform tick).
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// The run-length-encoded segments, if this profile came from the
    /// closed-form fast path.
    pub fn segments(&self) -> Option<&[Segment]> {
        match &self.steps {
            Steps::Segments(segments) => Some(segments),
            Steps::Ticks(_) => None,
        }
    }
}

/// Result of simulating one workload execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Execution {
    /// Wall-clock duration, seconds.
    pub duration: f64,
    /// The power the device actually drew over time.
    pub profile: StepProfile,
}

impl Execution {
    /// Ground-truth energy (exact integral of the drawn power), Joules.
    pub fn true_energy(&self) -> f64 {
        self.profile.energy()
    }

    /// Ground-truth average power, Watts.
    pub fn true_avg_power(&self) -> f64 {
        self.true_energy() / self.duration
    }
}

/// The simulator: integrates workload progress in fixed ticks, enforcing the
/// power budget `Δπ` by throttling all resources proportionally whenever the
/// demanded operation power exceeds it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Engine {
    /// Integration tick, seconds.
    pub dt: f64,
}

impl Default for Engine {
    fn default() -> Self {
        Self { dt: 1e-4 }
    }
}

/// Internal view of one throughput resource for a given workload.
struct Resource {
    /// Time to process this resource's share alone at full (noised) rate.
    t_alone: f64,
    /// Power at full utilization, W.
    pi: f64,
}

/// A platform spec validated once with its run-invariant decisions
/// precompiled (closed-form eligibility), so repeated executions — trial
/// campaigns, suite sweeps — skip the per-run validation walk. Building a
/// plan consumes no RNG; running through it is bit-identical to
/// [`Engine::run`].
#[derive(Debug, Clone, Copy)]
pub struct SpecPlan<'a> {
    spec: &'a PlatformSpec,
    piecewise_constant: bool,
}

impl<'a> SpecPlan<'a> {
    /// Validates `spec` and compiles the run-invariant decisions.
    ///
    /// # Panics
    /// Panics if the spec fails validation.
    pub fn new(spec: &'a PlatformSpec) -> Self {
        spec.validate().expect("invalid platform spec");
        Self { spec, piecewise_constant: Engine::is_piecewise_constant(spec) }
    }

    /// The validated spec this plan compiles.
    pub fn spec(&self) -> &'a PlatformSpec {
        self.spec
    }
}

impl Engine {
    /// Simulates `workload` on `spec`, returning the wall time and power
    /// profile. Deterministic for a given `rng` state.
    ///
    /// When the spec has no [`Quirk::OsInterference`] and zero `tick_sigma`,
    /// every tick is identical and the simulation is evaluated in closed
    /// form ([`Engine::run_closed_form`]) — same speed, power, and energy,
    /// with a run-length-encoded profile instead of ~`duration/dt` ticks.
    /// The closed form consumes no RNG beyond the per-run noise draw (the
    /// tick loop draws one Gaussian's uniform pair per tick), so for such
    /// specs the `rng` stream position after `run` differs from older
    /// releases; seeded results on noisy specs (all Table I platforms) are
    /// unchanged.
    ///
    /// # Panics
    /// Panics if the spec fails validation or the workload exercises a
    /// random-access path the platform lacks.
    pub fn run<R: Rng>(
        &self,
        spec: &PlatformSpec,
        workload: &HierWorkload,
        rng: &mut R,
    ) -> Execution {
        self.run_planned(&SpecPlan::new(spec), workload, rng)
    }

    /// [`Engine::run`] through a prebuilt [`SpecPlan`]: identical output
    /// and RNG consumption, minus the per-run spec validation.
    ///
    /// # Panics
    /// Panics if the workload exercises a random-access path the platform
    /// lacks or does nothing at all.
    pub fn run_planned<R: Rng>(
        &self,
        plan: &SpecPlan<'_>,
        workload: &HierWorkload,
        rng: &mut R,
    ) -> Execution {
        assert!(self.dt > 0.0 && self.dt.is_finite(), "bad tick");
        let spec = plan.spec;
        let run_noise = RunNoise::draw(spec.noise.rate_sigma, spec.noise.power_sigma, rng);
        let resources = Self::resources_for(spec, workload, &run_noise);
        if plan.piecewise_constant {
            Self::run_closed_form(spec, &resources, &run_noise)
        } else {
            self.run_ticks(spec, &resources, &run_noise, rng)
        }
    }

    /// Reference integrator: always runs the per-tick loop, even for specs
    /// the closed-form fast path could handle. Property tests compare this
    /// against [`Engine::run`] as `dt → 0`.
    pub fn run_ticked<R: Rng>(
        &self,
        spec: &PlatformSpec,
        workload: &HierWorkload,
        rng: &mut R,
    ) -> Execution {
        spec.validate().expect("invalid platform spec");
        assert!(self.dt > 0.0 && self.dt.is_finite(), "bad tick");
        let run_noise = RunNoise::draw(spec.noise.rate_sigma, spec.noise.power_sigma, rng);
        let resources = Self::resources_for(spec, workload, &run_noise);
        self.run_ticks(spec, &resources, &run_noise, rng)
    }

    /// Whether every tick of a run on `spec` is identical, making the
    /// closed-form evaluation exact: no stochastic per-tick noise and no
    /// episodic OS interference (utilization scaling is a deterministic
    /// function of the steady speed, so it stays eligible).
    fn is_piecewise_constant(spec: &PlatformSpec) -> bool {
        spec.noise.tick_sigma == 0.0 && !matches!(spec.quirk, Quirk::OsInterference { .. })
    }

    /// Builds the per-resource view of `workload` under this run's noise.
    ///
    /// # Panics
    /// Panics if the workload exercises no resource or needs a
    /// random-access path the platform lacks.
    fn resources_for(
        spec: &PlatformSpec,
        workload: &HierWorkload,
        run_noise: &RunNoise,
    ) -> Vec<Resource> {
        let mut resources: Vec<Resource> = Vec::new();
        if workload.flops > 0.0 {
            let rate = spec.flop.rate * run_noise.rate_factor;
            resources.push(Resource {
                t_alone: workload.flops / rate,
                pi: rate * spec.flop.energy_per_op,
            });
        }
        for (level, &bytes) in spec.levels.iter().zip(&workload.bytes_per_level) {
            if bytes > 0.0 {
                let rate = level.rate * run_noise.rate_factor;
                resources.push(Resource {
                    t_alone: bytes / rate,
                    pi: rate * level.energy_per_byte,
                });
            }
        }
        if workload.random_accesses > 0.0 {
            let r = spec.random.expect("platform lacks a random-access path");
            let rate = r.rate * run_noise.rate_factor;
            resources.push(Resource {
                t_alone: workload.random_accesses / rate,
                pi: rate * r.energy_per_access,
            });
        }
        assert!(!resources.is_empty(), "workload does nothing");
        resources
    }

    /// The steady (speed, operation-power) pair the governor settles on —
    /// the same arithmetic as one iteration of the tick loop.
    fn steady_state(spec: &PlatformSpec, resources: &[Resource]) -> (f64, f64) {
        let t_max = resources.iter().map(|r| r.t_alone).fold(0.0, f64::max);
        let mut s = 1.0 / t_max;
        let mut p_ops: f64 = resources.iter().map(|r| (s * r.t_alone).min(1.0) * r.pi).sum();
        if p_ops > spec.usable_power {
            let scale = spec.usable_power / p_ops;
            s *= scale;
            p_ops = spec.usable_power;
        }
        if let Quirk::UtilizationScaling { depth } = spec.quirk {
            p_ops = resources
                .iter()
                .map(|r| {
                    let u = (s * r.t_alone).min(1.0);
                    u * r.pi * (1.0 - depth * (1.0 - u))
                })
                .sum::<f64>()
                .min(spec.usable_power);
        }
        (s, p_ops)
    }

    /// Closed-form evaluation for piecewise-constant runs: the governor's
    /// steady state holds for the entire execution, so the run is a single
    /// constant-power segment of length `1/s` — no tick loop, no per-tick
    /// RNG draws, bit-for-bit deterministic.
    fn run_closed_form(
        spec: &PlatformSpec,
        resources: &[Resource],
        run_noise: &RunNoise,
    ) -> Execution {
        let (s, p_ops) = Self::steady_state(spec, resources);
        let power = spec.const_power + p_ops * run_noise.power_factor;
        let duration = 1.0 / s;
        Execution {
            duration,
            profile: StepProfile::from_segments(vec![Segment { watts: power, until: duration }]),
        }
    }

    /// The per-tick integrator (reference path; also handles OS
    /// interference and per-tick noise, which the closed form cannot).
    ///
    /// Each tick draws, in order, the OS-interference decision (quirked
    /// specs only) and the uniform pair of its power-noise Gaussian. The
    /// profile keeps the pair and evaluates the Gaussian only when a tick's
    /// power is read (see [`StepProfile`]); the RNG stream and every power
    /// value are the same as evaluating it here.
    fn run_ticks<R: Rng>(
        &self,
        spec: &PlatformSpec,
        resources: &[Resource],
        run_noise: &RunNoise,
        rng: &mut R,
    ) -> Execution {
        let t_max = resources.iter().map(|r| r.t_alone).fold(0.0, f64::max);
        // The governor's steady state is constant over the run (only quirks
        // and per-tick noise perturb it below), so hoist it out of the loop.
        let (steady_s, steady_p_ops) = Self::steady_state(spec, resources);

        let mut progress = 0.0f64;
        let mut time = 0.0f64;
        let capacity = (t_max / self.dt) as usize + 8;
        let mut uniforms = Vec::with_capacity(capacity);
        let mut extra = Vec::new();
        if matches!(spec.quirk, Quirk::OsInterference { .. }) {
            extra.reserve(capacity);
        }
        // OS-interference episode bookkeeping.
        let mut episode_left = 0.0f64;

        while progress < 1.0 {
            let mut s = steady_s;
            if let Quirk::OsInterference { rate_hz, mean_secs, slowdown, extra_power_frac } =
                spec.quirk
            {
                let mut extra_power = 0.0;
                if episode_left > 0.0 {
                    episode_left -= self.dt;
                    s *= slowdown;
                    extra_power = extra_power_frac * spec.const_power;
                } else if rng.gen_bool((rate_hz * self.dt).min(1.0)) {
                    episode_left = mean_secs * (0.5 + rng.gen_range(0.0..1.0));
                }
                extra.push(extra_power);
            }
            uniforms.push(gauss_uniforms(rng));

            let step = s * self.dt;
            if progress + step >= 1.0 {
                // Final, partial tick.
                time += (1.0 - progress) / s;
                progress = 1.0;
            } else {
                progress += step;
                time += self.dt;
            }
        }

        let ticks = Ticks {
            const_power: spec.const_power,
            ops_power: steady_p_ops * run_noise.power_factor,
            tick_sigma: spec.noise.tick_sigma,
            uniforms,
            extra,
        };
        Execution {
            duration: time,
            profile: StepProfile { dt: self.dt, duration: time, steps: Steps::Ticks(ticks) },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{LevelSpec, NoiseSpec, PipelineSpec, PlatformSpec, RandomSpec};
    use archline_core::{EnergyRoofline, MachineParams, PowerCap, Workload};
    use archline_powermon::RailSplit;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy() -> PlatformSpec {
        PlatformSpec {
            name: "toy".to_string(),
            flop: PipelineSpec { rate: 100e9, energy_per_op: 50e-12 }, // π_f = 5 W
            levels: vec![
                LevelSpec { name: "L1".into(), rate: 400e9, energy_per_byte: 10e-12 },
                LevelSpec { name: "DRAM".into(), rate: 20e9, energy_per_byte: 400e-12 }, // π_m = 8 W
            ],
            random: Some(RandomSpec { rate: 50e6, energy_per_access: 60e-9 }),
            const_power: 10.0,
            usable_power: 9.0,
            noise: NoiseSpec::NONE,
            quirk: Quirk::None,
            rail_split: RailSplit::single("brick", 12.0),
        }
    }

    fn model_of(spec: &PlatformSpec) -> EnergyRoofline {
        let dram = spec.levels.last().unwrap();
        EnergyRoofline::new(
            MachineParams::builder()
                .flops_per_sec(spec.flop.rate)
                .bytes_per_sec(dram.rate)
                .energy_per_flop(spec.flop.energy_per_op)
                .energy_per_byte(dram.energy_per_byte)
                .const_power(spec.const_power)
                .cap(PowerCap::Capped(spec.usable_power))
                .build()
                .unwrap(),
        )
    }

    fn run_noiseless(intensity: f64) -> (Execution, Workload) {
        let spec = toy();
        let w = spec.intensity_workload(intensity, 0.3);
        let mut rng = StdRng::seed_from_u64(9);
        let ex = Engine::default().run(&spec, &w, &mut rng);
        (ex, Workload::new(w.flops, w.bytes_per_level[1]))
    }

    #[test]
    fn emergent_time_matches_closed_form_across_regimes() {
        // The engine enforces the cap mechanistically; the model's eq. (3)
        // must predict its wall time on a noiseless platform.
        let spec = toy();
        let model = model_of(&spec);
        for &i in &[0.125, 0.5, 1.0, 2.0, 4.0, 6.25, 16.0, 64.0, 512.0] {
            let (ex, flat) = run_noiseless(i);
            let predicted = model.time(&flat);
            let rel = (ex.duration - predicted).abs() / predicted;
            assert!(rel < 2e-3, "I={i}: sim {} vs model {}", ex.duration, predicted);
        }
    }

    #[test]
    fn emergent_power_matches_closed_form_across_regimes() {
        let spec = toy();
        let model = model_of(&spec);
        for &i in &[0.125, 1.0, 6.25, 64.0, 512.0] {
            let (ex, flat) = run_noiseless(i);
            let predicted = model.avg_power(&flat);
            let rel = (ex.true_avg_power() - predicted).abs() / predicted;
            assert!(rel < 2e-3, "I={i}: sim {} vs model {}", ex.true_avg_power(), predicted);
        }
    }

    #[test]
    fn cap_bound_region_draws_exactly_budget() {
        // Toy machine: B_τ = 100/20 = 5 flop:B; π_f + π_m = 13 > Δπ = 9, so
        // at I = 5 the governor must hold operation power at Δπ.
        let (ex, _) = run_noiseless(5.0);
        let avg = ex.true_avg_power();
        assert!((avg - 19.0).abs() < 0.05, "avg {avg}");
        // And the cap stretches wall time beyond the uncapped bound.
        let spec = toy();
        let w = spec.intensity_workload(5.0, 0.3);
        let uncapped = w.bytes_per_level[1] / spec.levels[1].rate;
        assert!(ex.duration > uncapped * 1.3, "{} vs {}", ex.duration, uncapped);
    }

    #[test]
    fn power_never_exceeds_budget_on_clean_platform() {
        for &i in &[0.125, 1.0, 5.0, 64.0] {
            let (ex, _) = run_noiseless(i);
            let max = ex
                .profile
                .power_at(0.0)
                .max(ex.profile.power_at(ex.duration * 0.5))
                .max(ex.profile.power_at(ex.duration));
            assert!(max <= 19.0 + 1e-9, "I={i}: {max}");
        }
    }

    #[test]
    fn profile_energy_consistent_with_duration() {
        let (ex, _) = run_noiseless(2.0);
        let e = ex.true_energy();
        let p = ex.true_avg_power();
        assert!((e - p * ex.duration).abs() / e < 1e-12);
        assert_eq!(ex.profile.duration(), ex.duration);
    }

    #[test]
    fn pointer_chase_runs_at_random_rate() {
        let spec = toy();
        let w = spec.random_workload(0.2);
        let mut rng = StdRng::seed_from_u64(1);
        let ex = Engine::default().run(&spec, &w, &mut rng);
        assert!((ex.duration - 0.2).abs() < 1e-3, "duration {}", ex.duration);
        // Random path: π_rand = 50e6 × 60e-9 = 3 W, plus π_1 = 10.
        assert!((ex.true_avg_power() - 13.0).abs() < 0.05);
    }

    #[test]
    fn rate_noise_perturbs_duration_reproducibly() {
        let mut spec = toy();
        spec.noise = NoiseSpec { rate_sigma: 0.05, power_sigma: 0.0, tick_sigma: 0.0 };
        let w = spec.intensity_workload(64.0, 0.2);
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            Engine::default().run(&spec, &w, &mut rng).duration
        };
        assert_eq!(run(5), run(5), "same seed must reproduce");
        assert_ne!(run(5), run(6), "different seeds must differ");
        // Spread is on the order of rate_sigma.
        let durations: Vec<f64> = (0..64).map(run).collect();
        let mean = durations.iter().sum::<f64>() / durations.len() as f64;
        let sd = (durations.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>()
            / durations.len() as f64)
            .sqrt();
        assert!(sd / mean > 0.02 && sd / mean < 0.10, "rel sd {}", sd / mean);
    }

    #[test]
    fn os_interference_adds_variance_and_slows() {
        let clean = run_noiseless(64.0).0;
        let mut spec = toy();
        spec.quirk = Quirk::OsInterference {
            rate_hz: 30.0,
            mean_secs: 0.01,
            slowdown: 0.5,
            extra_power_frac: 0.2,
        };
        let w = spec.intensity_workload(64.0, 0.3);
        let mut rng = StdRng::seed_from_u64(11);
        let ex = Engine::default().run(&spec, &w, &mut rng);
        assert!(ex.duration > clean.duration * 1.02, "{} vs {}", ex.duration, clean.duration);
    }

    #[test]
    fn utilization_scaling_reduces_mid_intensity_power() {
        // At the cap-bound balance point both pipelines run partially
        // utilized; with the quirk the measured power dips below π_1 + Δπ.
        let mut spec = toy();
        spec.quirk = Quirk::UtilizationScaling { depth: 0.15 };
        let w = spec.intensity_workload(5.0, 0.3);
        let mut rng = StdRng::seed_from_u64(3);
        let ex = Engine::default().run(&spec, &w, &mut rng);
        let avg = ex.true_avg_power();
        assert!(avg < 19.0 - 0.1, "expected dip below cap plateau, got {avg}");
        assert!(avg > 17.0, "dip should be bounded (≤15 %), got {avg}");
        // But at extreme intensities utilization → 1 and the quirk vanishes.
        let w = spec.intensity_workload(512.0, 0.2);
        let ex = Engine::default().run(&spec, &w, &mut rng);
        let clean = run_noiseless(512.0).0;
        assert!((ex.true_avg_power() - clean.true_avg_power()).abs() < 0.15);
    }

    #[test]
    #[should_panic(expected = "does nothing")]
    fn empty_workload_rejected() {
        let spec = toy();
        let w = HierWorkload { flops: 0.0, bytes_per_level: vec![0.0, 0.0], random_accesses: 0.0 };
        let mut rng = StdRng::seed_from_u64(0);
        let _ = Engine::default().run(&spec, &w, &mut rng);
    }

    #[test]
    fn step_profile_lookup() {
        // Zero tick sigma and zero operation power make each tick's power
        // its stored extra term exactly, so the lookups read known values.
        let ticks = Ticks {
            const_power: 0.0,
            ops_power: 0.0,
            tick_sigma: 0.0,
            uniforms: vec![[0.5, 0.25]; 3],
            extra: vec![1.0, 2.0, 3.0],
        };
        let p = StepProfile { dt: 0.1, duration: 0.25, steps: Steps::Ticks(ticks) };
        assert_eq!(p.power_at(0.05), 1.0);
        assert_eq!(p.power_at(0.15), 2.0);
        assert_eq!(p.power_at(0.22), 3.0);
        assert_eq!(p.power_at(5.0), 3.0); // clamped
        // Energy respects the partial last tick: 0.1 + 0.2 + 3*0.05.
        assert!((p.energy() - (0.1 + 0.2 + 0.15)).abs() < 1e-12);
        assert!(p.segments().is_none());
    }

    #[test]
    fn segment_profile_lookup() {
        let p = StepProfile::from_segments(vec![
            Segment { watts: 4.0, until: 0.1 },
            Segment { watts: 2.0, until: 0.4 },
        ]);
        assert_eq!(p.duration(), 0.4);
        assert_eq!(p.power_at(0.0), 4.0);
        assert_eq!(p.power_at(0.1), 2.0); // boundary belongs to the later segment
        assert_eq!(p.power_at(0.39), 2.0);
        assert_eq!(p.power_at(9.0), 2.0); // clamped
        assert!((p.energy() - (4.0 * 0.1 + 2.0 * 0.3)).abs() < 1e-12);
        assert_eq!(p.segments().map(<[Segment]>::len), Some(2));
        // Degenerate cases.
        let empty = StepProfile::from_segments(Vec::new());
        assert_eq!(empty.power_at(0.0), 0.0);
        assert_eq!(empty.energy(), 0.0);
    }

    #[test]
    fn segment_lookup_agrees_with_linear_scan_on_boundaries() {
        // Many-segment profile: the binary search must agree with the
        // reference linear scan exactly on, just before, and just after
        // every boundary, plus before the profile and past its span.
        let segments: Vec<Segment> =
            (0..37).map(|k| Segment { watts: k as f64, until: 0.1 * (k + 1) as f64 }).collect();
        let p = StepProfile::from_segments(segments.clone());
        let linear = |t: f64| -> f64 {
            segments.iter().find(|s| t < s.until).unwrap_or(segments.last().unwrap()).watts
        };
        let mut probes = vec![-1.0, 0.0, 1e-12, p.duration(), p.duration() + 5.0];
        for s in &segments {
            probes.extend([s.until - 1e-9, s.until, s.until + 1e-9]);
        }
        for t in probes {
            assert_eq!(p.power_at(t), linear(t), "t = {t}");
        }
        // Single-segment profile degenerates to a constant.
        let one = StepProfile::from_segments(vec![Segment { watts: 7.0, until: 2.0 }]);
        for t in [0.0, 1.0, 2.0, 3.0] {
            assert_eq!(one.power_at(t), 7.0);
        }
    }

    #[test]
    fn fast_path_engages_only_for_piecewise_constant_specs() {
        // Noise-free, quirk-free toy: closed form, RLE profile.
        let (ex, _) = run_noiseless(2.0);
        assert!(ex.profile.segments().is_some(), "expected closed-form profile");

        // Per-tick noise forces the tick integrator.
        let mut spec = toy();
        spec.noise = NoiseSpec { rate_sigma: 0.0, power_sigma: 0.0, tick_sigma: 0.004 };
        let w = spec.intensity_workload(2.0, 0.3);
        let mut rng = StdRng::seed_from_u64(9);
        let ex = Engine::default().run(&spec, &w, &mut rng);
        assert!(ex.profile.segments().is_none(), "tick_sigma must use the tick loop");

        // OS interference forces the tick integrator.
        let mut spec = toy();
        spec.quirk = Quirk::OsInterference {
            rate_hz: 30.0,
            mean_secs: 0.01,
            slowdown: 0.5,
            extra_power_frac: 0.2,
        };
        let w = spec.intensity_workload(2.0, 0.3);
        let mut rng = StdRng::seed_from_u64(9);
        let ex = Engine::default().run(&spec, &w, &mut rng);
        assert!(ex.profile.segments().is_none(), "OsInterference must use the tick loop");

        // Utilization scaling is deterministic: still closed form.
        let mut spec = toy();
        spec.quirk = Quirk::UtilizationScaling { depth: 0.15 };
        let w = spec.intensity_workload(2.0, 0.3);
        let mut rng = StdRng::seed_from_u64(9);
        let ex = Engine::default().run(&spec, &w, &mut rng);
        assert!(ex.profile.segments().is_some(), "deterministic quirk stays closed-form");
    }

    #[test]
    fn fast_path_agrees_with_tick_integrator() {
        // dt → 0: the tick loop converges on the closed form it replaced.
        for quirk in [Quirk::None, Quirk::UtilizationScaling { depth: 0.15 }] {
            let mut spec = toy();
            spec.quirk = quirk;
            for &i in &[0.125, 1.0, 5.0, 64.0, 512.0] {
                let w = spec.intensity_workload(i, 0.05);
                let mut rng = StdRng::seed_from_u64(7);
                let fast = Engine::default().run(&spec, &w, &mut rng);
                let mut rng = StdRng::seed_from_u64(7);
                let tick = Engine { dt: 1e-5 }.run_ticked(&spec, &w, &mut rng);
                let dt_rel = (fast.duration - tick.duration).abs() / tick.duration;
                let de_rel =
                    (fast.true_energy() - tick.true_energy()).abs() / tick.true_energy();
                assert!(dt_rel < 1e-6, "I={i}: duration rel err {dt_rel}");
                assert!(de_rel < 1e-6, "I={i}: energy rel err {de_rel}");
            }
        }
    }

    #[test]
    fn fast_path_is_bit_for_bit_deterministic() {
        let mut spec = toy();
        spec.noise = NoiseSpec { rate_sigma: 0.05, power_sigma: 0.03, tick_sigma: 0.0 };
        let w = spec.intensity_workload(6.25, 0.2);
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            Engine::default().run(&spec, &w, &mut rng)
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a.duration.to_bits(), b.duration.to_bits());
        assert_eq!(a.profile, b.profile);
        assert!(a.profile.segments().is_some());
    }
}
