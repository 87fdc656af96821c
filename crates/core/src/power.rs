//! Average-power regimes and curve sampling (paper eq. 7 and Fig. 5).

use serde::{Deserialize, Serialize};

use crate::model::EnergyRoofline;

/// The three possible operating regimes of the capped model at a given
/// intensity (the paper's Fig. 5/6 annotations "M", "C"-cap, "F"):
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Regime {
    /// `I ≤ B⁻_τ`: memory bandwidth saturated, flops idle part-time ("M").
    MemoryBound,
    /// `B⁻_τ < I < B⁺_τ`: all operations throttled to hold `P̄ = π_1 + Δπ` ("C").
    CapBound,
    /// `I ≥ B⁺_τ`: flop pipeline saturated, memory idle part-time ("F").
    ComputeBound,
}

impl Regime {
    /// The single-letter label the paper uses in Figs. 6–7 ("F" flop-bound,
    /// "C" cap-bound, "M" memory-bound).
    pub fn letter(&self) -> char {
        match self {
            Regime::MemoryBound => 'M',
            Regime::CapBound => 'C',
            Regime::ComputeBound => 'F',
        }
    }
}

impl std::fmt::Display for Regime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Regime::MemoryBound => "memory-bound",
            Regime::CapBound => "cap-bound",
            Regime::ComputeBound => "compute-bound",
        };
        f.write_str(name)
    }
}

/// One sample of the model's power curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerPoint {
    /// Operational intensity, flop:Byte.
    pub intensity: f64,
    /// Predicted average power, Watts.
    pub power: f64,
    /// Operating regime at this intensity.
    pub regime: Regime,
}

/// Samples the closed-form power curve `P̄(I)` at `n` log-spaced intensities
/// in `[lo, hi]` (inclusive), as the paper's figures do (log-2 x-axes).
///
/// Evaluated through the model's precompiled plan with the fused SoA
/// kernel ([`crate::RooflinePlan::power_regime_batch`]): one memory pass
/// for both quantities, bit-identical to per-point scalar calls.
///
/// # Panics
/// Panics if `lo`/`hi` are not positive finite with `lo < hi`, or `n < 2`.
pub fn power_curve(model: &EnergyRoofline, lo: f64, hi: f64, n: usize) -> Vec<PowerPoint> {
    let xs = sample_intensities(lo, hi, n);
    let plan = model.plan();
    let mut power = vec![0.0; xs.len()];
    let mut regime = vec![Regime::MemoryBound; xs.len()];
    plan.power_regime_batch(&xs, &mut power, &mut regime);
    xs.iter()
        .zip(power.iter().zip(regime.iter()))
        .map(|(&intensity, (&power, &regime))| PowerPoint { intensity, power, regime })
        .collect()
}

/// `n` log-spaced intensities spanning `[lo, hi]`, endpoints included.
///
/// # Panics
/// Panics if `lo`/`hi` are not positive finite with `lo < hi`, or `n < 2`.
pub fn sample_intensities(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    let (llo, lhi) = log_range(lo, hi, n);
    (0..n).map(|k| log_point(llo, lhi, n, k)).collect()
}

/// Checks a log-spaced grid's range and sample count; returns
/// `(ln lo, ln hi)`.
pub(crate) fn log_range(lo: f64, hi: f64, n: usize) -> (f64, f64) {
    assert!(lo.is_finite() && hi.is_finite() && lo > 0.0 && lo < hi, "bad intensity range");
    assert!(n >= 2, "need at least two samples");
    (lo.ln(), hi.ln())
}

/// Point `k` of the `n`-point log-spaced grid from `e^llo` to `e^lhi`. The
/// one place the grid formula is written, so [`sample_intensities`] and
/// [`crate::RooflinePlan::sweep`] produce the same bits.
#[inline(always)]
pub(crate) fn log_point(llo: f64, lhi: f64, n: usize, k: usize) -> f64 {
    (llo + (lhi - llo) * k as f64 / (n - 1) as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MachineParams;

    fn model() -> EnergyRoofline {
        EnergyRoofline::new(
            MachineParams::builder()
                .flops_per_sec(4.02e12)
                .bytes_per_sec(239e9)
                .energy_per_flop(30.4e-12)
                .energy_per_byte(267e-12)
                .const_power(123.0)
                .usable_power(164.0)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn letters_match_paper_annotation() {
        assert_eq!(Regime::MemoryBound.letter(), 'M');
        assert_eq!(Regime::CapBound.letter(), 'C');
        assert_eq!(Regime::ComputeBound.letter(), 'F');
    }

    #[test]
    fn sample_intensities_hits_endpoints_and_is_monotone() {
        let xs = sample_intensities(0.125, 512.0, 13);
        assert_eq!(xs.len(), 13);
        assert!((xs[0] - 0.125).abs() < 1e-12);
        assert!((xs[12] - 512.0).abs() < 1e-9);
        for w in xs.windows(2) {
            assert!(w[0] < w[1]);
        }
        // Log-spacing over 12 octaves at 13 points = exact powers of two.
        assert!((xs[6] - 8.0).abs() < 1e-9);
    }

    #[test]
    fn power_curve_regimes_are_ordered_m_c_f() {
        let pts = power_curve(&model(), 0.125, 512.0, 200);
        // Regime sequence must be a run of M, then C, then F (some possibly empty).
        let mut seen_c = false;
        let mut seen_f = false;
        for p in &pts {
            match p.regime {
                Regime::MemoryBound => {
                    assert!(!seen_c && !seen_f, "M after C/F at I={}", p.intensity)
                }
                Regime::CapBound => {
                    assert!(!seen_f, "C after F at I={}", p.intensity);
                    seen_c = true;
                }
                Regime::ComputeBound => seen_f = true,
            }
        }
        assert!(seen_c && seen_f, "Titan's curve should show all three regimes");
    }

    #[test]
    fn power_curve_unimodal_for_capped_machine() {
        // Power rises in M, is flat in C, falls in F.
        let pts = power_curve(&model(), 0.125, 512.0, 400);
        let mut increasing = true;
        for w in pts.windows(2) {
            let (a, b) = (w[0].power, w[1].power);
            if b < a - 1e-9 {
                increasing = false;
            } else if !increasing {
                assert!(b <= a + 1e-9, "power rose again after falling at I={}", w[1].intensity);
            }
        }
    }

    #[test]
    #[should_panic(expected = "bad intensity range")]
    fn bad_range_panics() {
        let _ = sample_intensities(2.0, 1.0, 10);
    }
}
