//! Measured execution: simulator + PowerMon, yielding the tuples the
//! fitting pipeline consumes.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use archline_core::HierWorkload;
use archline_obs::{self as obs, Counter};
use archline_powermon::PowerMon2;

/// Simulated measurement runs executed through [`MeasurePlan::measure`].
static RUNS: Counter = Counter::new("machine.runs");

use crate::engine::{Engine, SpecPlan};
use crate::spec::PlatformSpec;

/// One measured run: the workload, its wall time, and the power/energy the
/// measurement chain reported (the paper's estimators: mean instantaneous
/// power per rail, summed; energy = average power × wall time).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// The workload that ran.
    pub workload: HierWorkload,
    /// Wall-clock execution time, seconds.
    pub duration: f64,
    /// Measured total average power, Watts.
    pub avg_power: f64,
    /// Measured total energy, Joules (`avg_power × duration`).
    pub energy: f64,
}

impl RunResult {
    /// Operational intensity against the DRAM level `dram_idx`
    /// (flop:Byte); infinite when the run moved no DRAM bytes.
    pub fn intensity(&self, dram_idx: usize) -> f64 {
        let q = self.workload.bytes_per_level.get(dram_idx).copied().unwrap_or(0.0);
        if q == 0.0 {
            f64::INFINITY
        } else {
            self.workload.flops / q
        }
    }

    /// Achieved flop rate, flop/s.
    pub fn flops_per_sec(&self) -> f64 {
        self.workload.flops / self.duration
    }

    /// Achieved energy-efficiency, flop/J.
    pub fn flops_per_joule(&self) -> f64 {
        self.workload.flops / self.energy
    }
}

/// The measurement chain compiled once per platform: validated
/// [`SpecPlan`], engine, and the PowerMon 2 device sized for the
/// platform's rails. Campaigns and sweeps reuse one plan across trials
/// instead of re-validating the spec and rebuilding the device per run;
/// neither step consumes RNG, so results are bit-identical to the
/// one-shot [`measure`].
#[derive(Debug, Clone)]
pub struct MeasurePlan<'a> {
    plan: SpecPlan<'a>,
    engine: Engine,
    device: PowerMon2,
}

impl<'a> MeasurePlan<'a> {
    /// Compiles the measurement chain for `spec`.
    ///
    /// # Panics
    /// Panics if the spec fails validation.
    pub fn new(spec: &'a PlatformSpec, engine: Engine) -> Self {
        let headroom = 1.4 * (spec.const_power + spec.usable_power);
        Self {
            plan: SpecPlan::new(spec),
            engine,
            device: PowerMon2::for_rails(&spec.rail_split, headroom),
        }
    }

    /// Runs `workload` and measures it, deterministic in `seed`.
    pub fn measure(&self, workload: &HierWorkload, seed: u64) -> RunResult {
        RUNS.inc();
        let _span = obs::span(obs::Level::Trace, "machine", "measure");
        let spec = self.plan.spec();
        let mut rng = StdRng::seed_from_u64(seed);
        let execution = self.engine.run_planned(&self.plan, workload, &mut rng);
        let m = {
            let _span = obs::span(obs::Level::Trace, "powermon", "record");
            self.device.record(
                &spec.rail_split,
                |t| execution.profile.power_at(t),
                execution.duration,
                &mut rng,
            )
        };
        RunResult {
            workload: workload.clone(),
            duration: execution.duration,
            avg_power: m.avg_power(),
            energy: m.energy(),
        }
    }
}

/// Runs `workload` on the simulated platform and measures it with a
/// PowerMon 2 configured for the platform's rails. Deterministic in `seed`.
pub fn measure(spec: &PlatformSpec, workload: &HierWorkload, engine: &Engine, seed: u64) -> RunResult {
    MeasurePlan::new(spec, *engine).measure(workload, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{LevelSpec, NoiseSpec, PipelineSpec, Quirk, RandomSpec};
    use archline_powermon::RailSplit;

    fn toy() -> PlatformSpec {
        PlatformSpec {
            name: "toy".to_string(),
            flop: PipelineSpec { rate: 100e9, energy_per_op: 50e-12 },
            levels: vec![
                LevelSpec { name: "L1".into(), rate: 400e9, energy_per_byte: 10e-12 },
                LevelSpec { name: "DRAM".into(), rate: 20e9, energy_per_byte: 400e-12 },
            ],
            random: Some(RandomSpec { rate: 50e6, energy_per_access: 60e-9 }),
            const_power: 10.0,
            usable_power: 9.0,
            noise: NoiseSpec::NONE,
            quirk: Quirk::None,
            rail_split: RailSplit::single("brick", 12.0),
        }
    }

    #[test]
    fn measurement_close_to_ground_truth() {
        let spec = toy();
        let w = spec.intensity_workload(64.0, 0.5);
        let r = measure(&spec, &w, &Engine::default(), 7);
        // Compute-bound: ~0.5 s at 100 Gflop/s, power = 10 + 5 + π_m·B_τ/I.
        assert!((r.duration - 0.5).abs() < 0.01, "duration {}", r.duration);
        let expected_power = 10.0 + 5.0 + 8.0 * (5.0 / 64.0);
        assert!(
            (r.avg_power - expected_power).abs() < 0.2,
            "power {} vs {}",
            r.avg_power,
            expected_power
        );
        assert!((r.energy - r.avg_power * r.duration).abs() < 1e-9);
    }

    #[test]
    fn intensity_accessor() {
        let spec = toy();
        let w = spec.intensity_workload(2.0, 0.1);
        let r = measure(&spec, &w, &Engine::default(), 1);
        assert!((r.intensity(1) - 2.0).abs() < 1e-9);
        let chase = spec.random_workload(0.05);
        let rc = measure(&spec, &chase, &Engine::default(), 2);
        assert!(rc.intensity(1).is_infinite());
    }

    #[test]
    fn deterministic_in_seed() {
        let spec = toy();
        let w = spec.intensity_workload(1.0, 0.2);
        let a = measure(&spec, &w, &Engine::default(), 42);
        let b = measure(&spec, &w, &Engine::default(), 42);
        assert_eq!(a, b);
        let c = measure(&spec, &w, &Engine::default(), 43);
        assert_ne!(a.avg_power, c.avg_power);
    }

    #[test]
    fn derived_rates() {
        let spec = toy();
        let w = spec.intensity_workload(128.0, 0.3);
        let r = measure(&spec, &w, &Engine::default(), 3);
        assert!((r.flops_per_sec() - 100e9).abs() / 100e9 < 0.02);
        assert!(r.flops_per_joule() > 0.0);
    }
}
