//! The tick profile stores each tick's Box–Muller uniforms and evaluates
//! the tick's power only when it is read. These tests pin that design to an
//! independent eager replica of the tick loop — one that computes every
//! tick's power as it goes and keeps the wattages — bit for bit, on every
//! Table I platform (NUC GPU's OS interference and Arndale GPU's
//! utilization scaling included), over several workloads and seeds.
//!
//! Compared with `to_bits`: the run's duration, the power at every PowerMon
//! sample time and at every tick start, the profile's energy, the RNG's
//! next draw after the run, and the full measurement through PowerMon.

use std::f64::consts::PI;

use archline_core::HierWorkload;
use archline_machine::spec::{PlatformSpec, Quirk};
use archline_machine::{spec_for, Engine, MeasurePlan, SpecPlan};
use archline_platforms::{all_platforms, Precision};
use archline_powermon::PowerMon2;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

fn gauss(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * PI * u2).cos()
}

fn lognormal(sigma: f64, rng: &mut StdRng) -> f64 {
    if sigma == 0.0 {
        1.0
    } else {
        (sigma * gauss(rng)).exp()
    }
}

/// An eagerly evaluated tick profile: one wattage per tick.
struct Eager {
    dt: f64,
    watts: Vec<f64>,
    duration: f64,
    /// Ticks that carried OS-interference power.
    interfered: usize,
}

impl Eager {
    fn power_at(&self, t: f64) -> f64 {
        self.watts[((t / self.dt) as usize).min(self.watts.len() - 1)]
    }

    fn energy(&self) -> f64 {
        let mut e = 0.0;
        let mut remaining = self.duration;
        for &w in &self.watts {
            let span = remaining.min(self.dt);
            e += w * span;
            remaining -= span;
        }
        e
    }
}

/// The tick integrator with every tick's power computed in the loop: run
/// noise, per-resource rates and powers, the governor's steady state, then
/// per tick the OS-interference draws, the power-noise Gaussian, and the
/// power itself.
fn eager_run(spec: &PlatformSpec, w: &HierWorkload, dt: f64, rng: &mut StdRng) -> Eager {
    let rate_factor = lognormal(spec.noise.rate_sigma, rng);
    let power_factor = lognormal(spec.noise.power_sigma, rng);

    // (time alone at full rate, power at full utilization) per resource.
    let mut res: Vec<(f64, f64)> = Vec::new();
    if w.flops > 0.0 {
        let rate = spec.flop.rate * rate_factor;
        res.push((w.flops / rate, rate * spec.flop.energy_per_op));
    }
    for (level, &bytes) in spec.levels.iter().zip(&w.bytes_per_level) {
        if bytes > 0.0 {
            let rate = level.rate * rate_factor;
            res.push((bytes / rate, rate * level.energy_per_byte));
        }
    }
    if w.random_accesses > 0.0 {
        let r = spec.random.expect("random path");
        let rate = r.rate * rate_factor;
        res.push((w.random_accesses / rate, rate * r.energy_per_access));
    }

    let t_max = res.iter().map(|r| r.0).fold(0.0, f64::max);
    let mut steady_s = 1.0 / t_max;
    let mut steady_p: f64 = res.iter().map(|&(t, pi)| (steady_s * t).min(1.0) * pi).sum();
    if steady_p > spec.usable_power {
        steady_s *= spec.usable_power / steady_p;
        steady_p = spec.usable_power;
    }
    if let Quirk::UtilizationScaling { depth } = spec.quirk {
        steady_p = res
            .iter()
            .map(|&(t, pi)| {
                let u = (steady_s * t).min(1.0);
                u * pi * (1.0 - depth * (1.0 - u))
            })
            .sum::<f64>()
            .min(spec.usable_power);
    }

    let (mut progress, mut time, mut episode_left) = (0.0f64, 0.0f64, 0.0f64);
    let mut watts = Vec::new();
    let mut interfered = 0;
    while progress < 1.0 {
        let mut s = steady_s;
        let mut extra_power = 0.0;
        if let Quirk::OsInterference { rate_hz, mean_secs, slowdown, extra_power_frac } =
            spec.quirk
        {
            if episode_left > 0.0 {
                episode_left -= dt;
                s *= slowdown;
                extra_power = extra_power_frac * spec.const_power;
                interfered += 1;
            } else if rng.gen_bool((rate_hz * dt).min(1.0)) {
                episode_left = mean_secs * (0.5 + rng.gen_range(0.0..1.0));
            }
        }
        let tick_noise = 1.0 + spec.noise.tick_sigma * gauss(rng);
        watts.push(spec.const_power + steady_p * power_factor * tick_noise.max(0.0) + extra_power);
        let step = s * dt;
        if progress + step >= 1.0 {
            time += (1.0 - progress) / s;
            progress = 1.0;
        } else {
            progress += step;
            time += dt;
        }
    }
    Eager { dt, watts, duration: time, interfered }
}

/// A spread of workloads per platform: both sides of the ridge, a cache
/// stream, and the pointer chase where the platform has one.
fn workloads(spec: &PlatformSpec) -> Vec<HierWorkload> {
    let mut out = vec![
        spec.intensity_workload(0.25, 0.04),
        spec.intensity_workload(4.0, 0.12),
        spec.intensity_workload(64.0, 0.3),
        spec.level_stream_workload(0, 0.05),
    ];
    if spec.random.is_some() {
        out.push(spec.random_workload(0.03));
    }
    out
}

const SEEDS: [u64; 3] = [1, 65, 0xdead_beef];

fn table1_specs() -> Vec<PlatformSpec> {
    let mut specs = Vec::new();
    for p in all_platforms() {
        specs.push(spec_for(&p, Precision::Single));
        if p.supports_double() {
            specs.push(spec_for(&p, Precision::Double));
        }
    }
    specs
}

#[test]
fn lazy_tick_profile_matches_eager_replica_bit_for_bit() {
    let engine = Engine::default();
    let mut interfered = 0;
    let mut quirks = (false, false);
    for spec in table1_specs() {
        quirks.0 |= matches!(spec.quirk, Quirk::OsInterference { .. });
        quirks.1 |= matches!(spec.quirk, Quirk::UtilizationScaling { .. });
        let plan = SpecPlan::new(&spec);
        let hz = PowerMon2::for_rails(&spec.rail_split, 1.0).effective_channel_hz();
        for w in workloads(&spec) {
            for seed in SEEDS {
                let ctx = format!("{} seed {seed} w {w:?}", spec.name);
                let mut rng = StdRng::seed_from_u64(seed);
                let lazy = engine.run_planned(&plan, &w, &mut rng);
                let mut eager_rng = StdRng::seed_from_u64(seed);
                let eager = eager_run(&spec, &w, engine.dt, &mut eager_rng);
                interfered += eager.interfered;

                assert!(lazy.profile.segments().is_none(), "{ctx}: tick path expected");
                assert_eq!(lazy.duration.to_bits(), eager.duration.to_bits(), "{ctx}");
                assert_eq!(lazy.profile.duration().to_bits(), eager.duration.to_bits());
                let n_samples = ((eager.duration * hz).floor() as usize).max(1);
                for k in 0..n_samples {
                    let t = (k as f64 + 0.5) / hz;
                    assert_eq!(
                        lazy.profile.power_at(t).to_bits(),
                        eager.power_at(t).to_bits(),
                        "{ctx}: sample {k}"
                    );
                }
                for k in 0..eager.watts.len() + 2 {
                    let t = k as f64 * engine.dt;
                    assert_eq!(
                        lazy.profile.power_at(t).to_bits(),
                        eager.power_at(t).to_bits(),
                        "{ctx}: tick {k}"
                    );
                }
                assert_eq!(lazy.true_energy().to_bits(), eager.energy().to_bits(), "{ctx}");
                assert_eq!(rng.next_u64(), eager_rng.next_u64(), "{ctx}: RNG position");

                // The unplanned and reference entry points take the same path.
                let again = engine.run(&spec, &w, &mut StdRng::seed_from_u64(seed));
                assert_eq!(again, lazy, "{ctx}: run vs run_planned");
                let ticked = engine.run_ticked(&spec, &w, &mut StdRng::seed_from_u64(seed));
                assert_eq!(ticked, lazy, "{ctx}: run_ticked vs run_planned");
            }
        }
    }
    assert!(quirks.0 && quirks.1, "both Table I quirks covered");
    assert!(interfered > 0, "no OS-interference episode was exercised");
}

#[test]
fn measurement_matches_eager_replica_through_powermon() {
    let engine = Engine::default();
    for spec in table1_specs() {
        let plan = MeasurePlan::new(&spec, engine);
        let device =
            PowerMon2::for_rails(&spec.rail_split, 1.4 * (spec.const_power + spec.usable_power));
        for w in workloads(&spec) {
            for seed in SEEDS {
                let ctx = format!("{} seed {seed} w {w:?}", spec.name);
                let measured = plan.measure(&w, seed);
                let mut rng = StdRng::seed_from_u64(seed);
                let eager = eager_run(&spec, &w, engine.dt, &mut rng);
                let m = device.record(
                    &spec.rail_split,
                    |t| eager.power_at(t),
                    eager.duration,
                    &mut rng,
                );
                assert_eq!(measured.duration.to_bits(), eager.duration.to_bits(), "{ctx}");
                assert_eq!(measured.avg_power.to_bits(), m.avg_power().to_bits(), "{ctx}");
                assert_eq!(measured.energy.to_bits(), m.energy().to_bits(), "{ctx}");
            }
        }
    }
}
