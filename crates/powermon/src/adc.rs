//! Sensor noise and ADC quantization for the simulated channels.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::noise::gauss;

/// A linear analog-to-digital converter with `bits` of resolution over
/// `[0, full_scale]`, preceded by multiplicative Gaussian sensor noise.
///
/// PowerMon 2 digitizes each channel's voltage and current; we model both
/// conversions with one ADC each.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Adc {
    /// Resolution in bits (PowerMon-class hardware: 12).
    pub bits: u32,
    /// Full-scale input value (Volts or Amperes).
    pub full_scale: f64,
    /// Relative sigma of the multiplicative sensor noise before conversion.
    pub noise_sigma: f64,
}

impl Adc {
    /// A 12-bit converter over `[0, full_scale]` with 0.2 % sensor noise.
    pub fn twelve_bit(full_scale: f64) -> Self {
        Self { bits: 12, full_scale, noise_sigma: 0.002 }
    }

    /// The quantization step size.
    pub fn step(&self) -> f64 {
        self.full_scale / (((1u64 << self.bits) - 1) as f64)
    }

    /// Converts `value` through noise + quantization, clamping to range.
    pub fn convert<R: Rng>(&self, value: f64, rng: &mut R) -> f64 {
        self.convert_stepped(value, self.step(), rng)
    }

    /// [`Adc::convert`] with the quantization step precomputed by the
    /// caller (`step` must be [`Adc::step`]), for loops that convert many
    /// samples through the same converter.
    pub(crate) fn convert_stepped<R: Rng>(&self, value: f64, step: f64, rng: &mut R) -> f64 {
        let noisy = value * (1.0 + self.noise_sigma * gauss(rng));
        let clamped = noisy.clamp(0.0, self.full_scale);
        (clamped / step).round() * step
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn step_size_of_12_bit() {
        let adc = Adc::twelve_bit(40.95);
        assert!((adc.step() - 0.01).abs() < 1e-6);
    }

    #[test]
    fn noiseless_conversion_quantizes() {
        let adc = Adc { bits: 12, full_scale: 4.095, noise_sigma: 0.0 };
        let mut rng = StdRng::seed_from_u64(0);
        let v = adc.convert(1.23456, &mut rng);
        // Quantized to the nearest millivolt step.
        assert!((v - 1.2345).abs() < 1e-3);
        let residue = v / adc.step();
        assert!((residue - residue.round()).abs() < 1e-9);
    }

    #[test]
    fn conversion_clamps_to_range() {
        let adc = Adc { bits: 8, full_scale: 1.0, noise_sigma: 0.0 };
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(adc.convert(5.0, &mut rng), 1.0);
        assert_eq!(adc.convert(-3.0, &mut rng), 0.0);
    }

    #[test]
    fn noise_is_unbiased_on_average() {
        let adc = Adc::twelve_bit(100.0);
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| adc.convert(50.0, &mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 50.0).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn gauss_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| gauss(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }
}
