//! The simulated PowerMon 2 device.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::adc::Adc;
use crate::noise::gauss;
use crate::rail::RailSplit;
use crate::trace::{PowerTrace, Sample};

/// Per-channel sensing configuration: a voltage ADC and a current ADC sized
/// for the rail's expected ranges.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChannelConfig {
    /// Voltage converter.
    pub volt_adc: Adc,
    /// Current converter.
    pub curr_adc: Adc,
    /// Relative sigma of supply-voltage ripple around nominal.
    pub ripple_sigma: f64,
}

impl ChannelConfig {
    /// A channel sized for a rail with the given nominal voltage and a
    /// maximum expected current, using 12-bit ADCs with modest headroom.
    pub fn for_rail(nominal_volts: f64, max_amps: f64) -> Self {
        Self {
            volt_adc: Adc::twelve_bit(nominal_volts * 1.25),
            curr_adc: Adc::twelve_bit(max_amps * 1.25),
            ripple_sigma: 0.003,
        }
    }
}

/// A power measurement: one trace per monitored rail.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Measurement {
    /// Rail names, parallel to `traces`.
    pub rail_names: Vec<String>,
    /// Per-rail sample traces.
    pub traces: Vec<PowerTrace>,
    /// Wall-clock duration of the measured execution, seconds.
    pub exec_time: f64,
}

impl Measurement {
    /// The summed total-power trace across rails.
    pub fn total_trace(&self) -> PowerTrace {
        PowerTrace::sum_rails(&self.traces)
    }

    /// Total average power, the paper's way: the sum over rails of each
    /// rail's mean instantaneous power.
    pub fn avg_power(&self) -> f64 {
        self.traces.iter().map(PowerTrace::avg_power).sum()
    }

    /// Total energy, the paper's way: total average power × execution time.
    pub fn energy(&self) -> f64 {
        self.avg_power() * self.exec_time
    }

    /// Higher-fidelity energy: trapezoidal integration of the summed trace.
    pub fn energy_trapezoid(&self) -> f64 {
        self.total_trace().energy_trapezoid()
    }
}

/// The simulated PowerMon 2: up to 8 channels, 1024 Hz per channel, at most
/// 3072 Hz aggregate (paper §IV-h).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerMon2 {
    channels: Vec<ChannelConfig>,
}

impl PowerMon2 {
    /// Maximum channels the device exposes.
    pub const MAX_CHANNELS: usize = 8;
    /// Per-channel sample-rate ceiling, Hz.
    pub const CHANNEL_HZ: f64 = 1024.0;
    /// Aggregate sample-rate ceiling across channels, Hz.
    pub const AGGREGATE_HZ: f64 = 3072.0;

    /// Creates a device with one configured channel per monitored rail.
    ///
    /// # Panics
    /// Panics if `channels` is empty or exceeds [`Self::MAX_CHANNELS`].
    pub fn new(channels: Vec<ChannelConfig>) -> Self {
        assert!(!channels.is_empty(), "need at least one channel");
        assert!(
            channels.len() <= Self::MAX_CHANNELS,
            "PowerMon 2 has {} channels",
            Self::MAX_CHANNELS
        );
        Self { channels }
    }

    /// A device configured for `split`, sizing each channel for its rail
    /// assuming at most `max_watts` total draw.
    pub fn for_rails(split: &RailSplit, max_watts: f64) -> Self {
        let channels = split
            .rails()
            .iter()
            .map(|r| ChannelConfig::for_rail(r.nominal_volts, max_watts / r.nominal_volts))
            .collect();
        Self::new(channels)
    }

    /// Number of configured channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Effective per-channel sample rate under the aggregate budget:
    /// `min(1024, 3072 / channels)` Hz.
    pub fn effective_channel_hz(&self) -> f64 {
        Self::CHANNEL_HZ.min(Self::AGGREGATE_HZ / self.channels.len() as f64)
    }

    /// Records the device power `power_fn(t)` (Watts as a function of
    /// seconds) for `duration` seconds, splitting it across `split`'s rails
    /// and sensing each through its channel's ripple + ADC chain.
    ///
    /// # Panics
    /// Panics if the split's rail count differs from the channel count or
    /// `duration` is not positive.
    pub fn record<R, F>(
        &self,
        split: &RailSplit,
        power_fn: F,
        duration: f64,
        rng: &mut R,
    ) -> Measurement
    where
        R: Rng,
        F: Fn(f64) -> f64,
    {
        assert_eq!(
            split.rails().len(),
            self.channels.len(),
            "rail/channel count mismatch"
        );
        assert!(duration > 0.0 && duration.is_finite(), "duration must be positive");
        let hz = self.effective_channel_hz();
        let n_samples = ((duration * hz).floor() as usize).max(1);
        let mut raw: Vec<Vec<Sample>> =
            self.channels.iter().map(|_| Vec::with_capacity(n_samples)).collect();
        // Per-channel ADC steps, hoisted: each is the same division every
        // sample. The rail split lands in a stack buffer, not a fresh Vec.
        let mut steps = [(0.0, 0.0); Self::MAX_CHANNELS];
        for (step, cfg) in steps.iter_mut().zip(&self.channels) {
            *step = (cfg.volt_adc.step(), cfg.curr_adc.step());
        }
        let mut alloc_buf = [0.0; Self::MAX_CHANNELS];
        let alloc = &mut alloc_buf[..self.channels.len()];
        for k in 0..n_samples {
            let t = (k as f64 + 0.5) / hz; // mid-interval sampling
            let total = power_fn(t).max(0.0);
            split.split_into(total, alloc);
            for (((samples, cfg), &(volt_step, curr_step)), (watts, rail)) in raw
                .iter_mut()
                .zip(&self.channels)
                .zip(&steps)
                .zip(alloc.iter().zip(split.rails()))
            {
                let true_volts = rail.nominal_volts * (1.0 + cfg.ripple_sigma * gauss(rng));
                let true_amps = if true_volts > 0.0 { watts / true_volts } else { 0.0 };
                let meas_volts = cfg.volt_adc.convert_stepped(true_volts, volt_step, rng);
                let meas_amps = cfg.curr_adc.convert_stepped(true_amps, curr_step, rng);
                samples.push(Sample { time: t, watts: meas_volts * meas_amps });
            }
        }
        Measurement {
            rail_names: split.rails().iter().map(|r| r.name.clone()).collect(),
            traces: raw.into_iter().map(PowerTrace::new).collect(),
            exec_time: duration,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rail::{Rail, RailSplit};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn gpu_split() -> RailSplit {
        RailSplit::new(vec![
            Rail::limited("PCIe slot", 12.0, 1.0, 75.0),
            Rail::new("8-pin", 12.0, 2.0),
            Rail::new("6-pin", 12.0, 1.0),
        ])
    }

    #[test]
    fn channel_rate_budgeting() {
        let one = PowerMon2::new(vec![ChannelConfig::for_rail(12.0, 10.0)]);
        assert_eq!(one.effective_channel_hz(), 1024.0);
        let three = PowerMon2::for_rails(&gpu_split(), 300.0);
        assert_eq!(three.channel_count(), 3);
        assert_eq!(three.effective_channel_hz(), 1024.0);
        let eight = PowerMon2::new(vec![ChannelConfig::for_rail(12.0, 10.0); 8]);
        assert_eq!(eight.effective_channel_hz(), 384.0);
    }

    #[test]
    fn constant_load_measured_accurately() {
        let split = gpu_split();
        let dev = PowerMon2::for_rails(&split, 400.0);
        let mut rng = StdRng::seed_from_u64(1);
        let m = dev.record(&split, |_| 250.0, 2.0, &mut rng);
        assert!((m.avg_power() - 250.0).abs() < 2.0, "avg {}", m.avg_power());
        assert!((m.energy() - 500.0).abs() < 5.0, "E {}", m.energy());
        // Trapezoid and paper estimators agree for a constant load.
        assert!((m.energy_trapezoid() - m.energy() * (m.total_trace().duration() / 2.0)).abs() < 10.0);
    }

    #[test]
    fn sample_count_matches_rate_and_duration() {
        let split = RailSplit::single("brick", 5.0);
        let dev = PowerMon2::for_rails(&split, 10.0);
        let mut rng = StdRng::seed_from_u64(2);
        let m = dev.record(&split, |_| 5.0, 1.0, &mut rng);
        assert_eq!(m.traces[0].len(), 1024);
    }

    #[test]
    fn time_varying_load_tracked() {
        let split = RailSplit::single("brick", 12.0);
        let dev = PowerMon2::for_rails(&split, 100.0);
        let mut rng = StdRng::seed_from_u64(3);
        // Power steps from 20 W to 60 W halfway through.
        let m = dev.record(&split, |t| if t < 1.0 { 20.0 } else { 60.0 }, 2.0, &mut rng);
        assert!((m.avg_power() - 40.0).abs() < 1.0, "avg {}", m.avg_power());
        let early = m.total_trace().window(0.0, 0.9);
        let late = m.total_trace().window(1.1, 2.0);
        assert!((early.avg_power() - 20.0).abs() < 1.0);
        assert!((late.avg_power() - 60.0).abs() < 1.5);
    }

    #[test]
    fn slot_rail_respects_limit() {
        let split = gpu_split();
        let dev = PowerMon2::for_rails(&split, 400.0);
        let mut rng = StdRng::seed_from_u64(4);
        let m = dev.record(&split, |_| 380.0, 0.5, &mut rng);
        // Slot rail averages at most ~75 W (plus sensing noise).
        assert!(m.traces[0].avg_power() < 78.0);
        assert!((m.avg_power() - 380.0).abs() < 4.0);
    }

    #[test]
    fn short_duration_yields_at_least_one_sample() {
        let split = RailSplit::single("brick", 5.0);
        let dev = PowerMon2::for_rails(&split, 10.0);
        let mut rng = StdRng::seed_from_u64(5);
        let m = dev.record(&split, |_| 5.0, 1e-4, &mut rng);
        assert_eq!(m.traces[0].len(), 1);
        assert!(m.avg_power() > 0.0);
    }

    #[test]
    #[should_panic(expected = "channels")]
    fn more_than_eight_channels_rejected() {
        let _ = PowerMon2::new(vec![ChannelConfig::for_rail(12.0, 1.0); 9]);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn rail_channel_mismatch_rejected() {
        let dev = PowerMon2::new(vec![ChannelConfig::for_rail(12.0, 1.0)]);
        let split = gpu_split();
        let mut rng = StdRng::seed_from_u64(6);
        let _ = dev.record(&split, |_| 10.0, 0.1, &mut rng);
    }
}
