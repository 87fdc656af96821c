//! Noise generators for the simulator.

use rand::Rng;

/// Standard normal via Box–Muller: [`gauss_uniforms`] then [`box_muller`].
pub fn gauss<R: Rng>(rng: &mut R) -> f64 {
    box_muller(gauss_uniforms(rng))
}

/// Draws the uniform pair one [`gauss`] call consumes, in the same order:
/// `u1` in `[ε, 1)`, then `u2` in `[0, 1)`.
pub fn gauss_uniforms<R: Rng>(rng: &mut R) -> [f64; 2] {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    [u1, u2]
}

/// The Box–Muller transform of a pair from [`gauss_uniforms`]. A pure
/// function of its inputs, so deferring it to when the value is read gives
/// the same bits as computing it at draw time.
pub fn box_muller([u1, u2]: [f64; 2]) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A multiplicative lognormal factor with median 1 and log-sigma `sigma`
/// (for small `sigma` the relative spread is ≈ `sigma`). `sigma == 0`
/// returns exactly 1.
pub fn lognormal_factor<R: Rng>(sigma: f64, rng: &mut R) -> f64 {
    if sigma == 0.0 {
        1.0
    } else {
        (sigma * gauss(rng)).exp()
    }
}

/// Per-run noise drawn once at the start of an execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunNoise {
    /// Multiplies every resource rate for the whole run.
    pub rate_factor: f64,
    /// Multiplies operation power for the whole run.
    pub power_factor: f64,
}

impl RunNoise {
    /// Draws run-level factors from the given sigmas.
    pub fn draw<R: Rng>(rate_sigma: f64, power_sigma: f64, rng: &mut R) -> Self {
        Self {
            rate_factor: lognormal_factor(rate_sigma, rng),
            power_factor: lognormal_factor(power_sigma, rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_sigma_is_exactly_one() {
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(lognormal_factor(0.0, &mut rng), 1.0);
        }
        let n = RunNoise::draw(0.0, 0.0, &mut rng);
        assert_eq!(n.rate_factor, 1.0);
        assert_eq!(n.power_factor, 1.0);
    }

    #[test]
    fn lognormal_median_near_one() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut xs: Vec<f64> = (0..20_001).map(|_| lognormal_factor(0.05, &mut rng)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        assert!((median - 1.0).abs() < 0.01, "median {median}");
        // Relative spread ≈ sigma.
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let sd = (xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64)
            .sqrt();
        assert!((sd - 0.05).abs() < 0.01, "sd {sd}");
    }

    #[test]
    fn factors_always_positive() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            assert!(lognormal_factor(0.5, &mut rng) > 0.0);
        }
    }
}
