//! Fig. 7: hypothetical performance (7a) and energy-efficiency (7b) as the
//! usable power cap shrinks to `Δπ/k`.
//!
//! Normalizations follow the paper: performance to the GTX Titan's
//! 4.0 Tflop/s sustained peak, energy-efficiency to its 16 Gflop/J peak.

use serde::{Deserialize, Serialize};

use archline_core::{power::sample_intensities, EnergyRoofline, ThrottleScenario};
use archline_platforms::{platform, PlatformId, Precision};

use crate::platforms_by_peak_efficiency;
use crate::render::{sig3, TextTable};

/// Which of the two sub-figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fig7Kind {
    /// Fig. 7a: flop/s.
    Performance,
    /// Fig. 7b: flop/J.
    EnergyEfficiency,
}

/// One platform's curves at the four cap settings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig7Panel {
    /// Platform name.
    pub name: String,
    /// `(k, samples)` where samples are `(intensity, normalized value)`.
    pub curves: Vec<(f64, Vec<(f64, f64)>)>,
}

/// The regenerated sub-figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig7Report {
    /// Which sub-figure this is.
    pub kind: Fig7Kind,
    /// Normalization constant (4.02 Tflop/s or the Titan's peak flop/J).
    pub norm: f64,
    /// Panels in Fig. 5 order.
    pub panels: Vec<Fig7Panel>,
}

/// Regenerates Fig. 7a or 7b (model-only).
pub fn compute(kind: Fig7Kind) -> Fig7Report {
    let titan = EnergyRoofline::new(
        platform(PlatformId::GtxTitan).machine_params(Precision::Single).expect("single"),
    );
    let norm = match kind {
        Fig7Kind::Performance => titan.peak_perf(),
        Fig7Kind::EnergyEfficiency => titan.peak_energy_eff(),
    };
    let grid = sample_intensities(0.25, 128.0, 37);
    let panels = platforms_by_peak_efficiency()
        .iter()
        .map(|p| {
            let params = p.machine_params(Precision::Single).expect("single");
            let curves = ThrottleScenario::paper_factors(params)
                .models()
                .into_iter()
                .map(|(k, model)| {
                    // One batch evaluation per curve instead of a scalar
                    // call per grid point.
                    let mut vals = vec![0.0; grid.len()];
                    match kind {
                        Fig7Kind::Performance => model.plan().perf_batch(&grid, &mut vals),
                        Fig7Kind::EnergyEfficiency => {
                            model.plan().energy_eff_batch(&grid, &mut vals);
                        }
                    }
                    let samples =
                        grid.iter().zip(&vals).map(|(&i, &v)| (i, v / norm)).collect();
                    (k, samples)
                })
                .collect();
            Fig7Panel { name: p.name.clone(), curves }
        })
        .collect();
    Fig7Report { kind, norm, panels }
}

/// Value at the grid point nearest `intensity` for cap factor `k`.
pub fn value_at(panel: &Fig7Panel, k: f64, intensity: f64) -> Option<f64> {
    let (_, samples) = panel.curves.iter().find(|(kk, _)| *kk == k)?;
    samples
        .iter()
        .min_by(|a, b| {
            (a.0.ln() - intensity.ln())
                .abs()
                .partial_cmp(&(b.0.ln() - intensity.ln()).abs())
                .expect("finite")
        })
        .map(|&(_, v)| v)
}

/// Renders a compact per-panel summary at representative intensities.
pub fn render(report: &Fig7Report) -> String {
    let title = match report.kind {
        Fig7Kind::Performance => "Fig. 7a: performance under caps (normalized to 4.0 Tflop/s)",
        Fig7Kind::EnergyEfficiency => {
            "Fig. 7b: energy-efficiency under caps (normalized to 16 Gflop/J)"
        }
    };
    let mut t = TextTable::new(vec![
        "Platform", "k", "I=1/4", "I=2", "I=16", "I=128",
    ]);
    for p in &report.panels {
        for &(k, _) in &p.curves {
            // lint:allow(float-discipline, reason = "throttle factor is propagated verbatim from the paper_factors literal table, never computed")
            let label = if k == 1.0 { "Full".to_string() } else { format!("1/{}", k as u32) };
            t.row(vec![
                p.name.clone(),
                label,
                sig3(value_at(p, k, 0.25).unwrap_or(f64::NAN)),
                sig3(value_at(p, k, 2.0).unwrap_or(f64::NAN)),
                sig3(value_at(p, k, 16.0).unwrap_or(f64::NAN)),
                sig3(value_at(p, k, 128.0).unwrap_or(f64::NAN)),
            ]);
        }
    }
    format!("{title}\n\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn panel<'a>(r: &'a Fig7Report, name: &str) -> &'a Fig7Panel {
        r.panels.iter().find(|p| p.name == name).expect("platform present")
    }

    #[test]
    fn both_kinds_have_12_panels_4_curves() {
        for kind in [Fig7Kind::Performance, Fig7Kind::EnergyEfficiency] {
            let r = compute(kind);
            assert_eq!(r.panels.len(), 12);
            assert!(r.panels.iter().all(|p| p.curves.len() == 4));
        }
    }

    #[test]
    fn titan_full_normalizes_to_one_at_high_intensity() {
        let r = compute(Fig7Kind::Performance);
        let t = panel(&r, "GTX Titan");
        let v = value_at(t, 1.0, 128.0).unwrap();
        assert!((v - 1.0).abs() < 0.02, "{v}");
    }

    #[test]
    fn throttling_never_helps() {
        for kind in [Fig7Kind::Performance, Fig7Kind::EnergyEfficiency] {
            let r = compute(kind);
            for p in &r.panels {
                for i in [0.25, 2.0, 16.0, 128.0] {
                    let mut prev = f64::INFINITY;
                    for k in [1.0, 2.0, 4.0, 8.0] {
                        let v = value_at(p, k, i).unwrap();
                        assert!(
                            v <= prev * (1.0 + 1e-9),
                            "{} {kind:?} I={i} k={k}: {v} > {prev}",
                            p.name
                        );
                        prev = v;
                    }
                }
            }
        }
    }

    #[test]
    fn titan_low_intensity_degrades_least_nuc_cpu_high_intensity() {
        // Paper §V-D(i): memory-bound work on the Titan degrades least as
        // Δπ falls (compute-overprovisioned design); compute-bound work on
        // the NUC CPU degrades least (memory-overprovisioned design).
        let r = compute(Fig7Kind::Performance);
        let retention = |name: &str, i: f64| -> f64 {
            let p = panel(&r, name);
            value_at(p, 8.0, i).unwrap() / value_at(p, 1.0, i).unwrap()
        };
        // Titan holds bandwidth-bound performance best among the GPUs.
        let titan_low = retention("GTX Titan", 0.25);
        for other in ["GTX 680", "GTX 580", "Arndale GPU", "APU GPU", "NUC GPU"] {
            assert!(
                titan_low >= retention(other, 0.25) - 1e-9,
                "Titan {titan_low} vs {other} {}",
                retention(other, 0.25)
            );
        }
        // NUC CPU holds compute-bound performance best of all platforms
        // (its π_flop ≈ 0.8 W is tiny relative even to Δπ/8).
        let nuc_high = retention("NUC CPU", 128.0);
        for p in &r.panels {
            assert!(
                nuc_high >= retention(&p.name, 128.0) - 1e-9,
                "NUC CPU {nuc_high} vs {} {}",
                p.name,
                retention(&p.name, 128.0)
            );
        }
        assert!(nuc_high > 0.85, "{nuc_high}");
    }

    #[test]
    fn titan_at_k8_i_quarter_is_031x() {
        // §V-D: "a performance of approximately 0.31× at I = 0.25 relative
        // to the default Δπ".
        let r = compute(Fig7Kind::Performance);
        let t = panel(&r, "GTX Titan");
        let ratio = value_at(t, 8.0, 0.25).unwrap() / value_at(t, 1.0, 0.25).unwrap();
        assert!((ratio - 0.31).abs() < 0.02, "{ratio}");
    }
}
