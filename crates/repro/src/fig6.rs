//! Fig. 6: hypothetical power as the usable power cap shrinks to `Δπ/k`,
//! `k ∈ {1, 2, 4, 8}`, per platform, with regime labels.

use serde::{Deserialize, Serialize};

use archline_core::{power::power_curve, Regime, ThrottleScenario};
use archline_platforms::Precision;

use crate::platforms_by_peak_efficiency;
use crate::render::{sig3, TextTable};

/// One cap setting's curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CapCurve {
    /// The reduction factor `k` (1 = "Full").
    pub factor: f64,
    /// Maximum system power at this setting, `π_1 + Δπ/k`, W.
    pub max_power: f64,
    /// `(intensity, power normalized to π_1 + Δπ, regime)` samples.
    pub points: Vec<(f64, f64, Regime)>,
}

/// One platform's panel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6Panel {
    /// Platform name.
    pub name: String,
    /// Overall power-reduction factor actually achieved at each `k`
    /// (strictly less than `k` because `π_1 > 0`).
    pub achieved_reduction: Vec<(f64, f64)>,
    /// Curves at each cap setting.
    pub curves: Vec<CapCurve>,
}

/// The regenerated figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6Report {
    /// Panels in Fig. 5/6 order.
    pub panels: Vec<Fig6Panel>,
}

/// Regenerates Fig. 6 (model-only, from Table I constants).
pub fn compute() -> Fig6Report {
    let panels = platforms_by_peak_efficiency()
        .iter()
        .map(|p| {
            let params = p.machine_params(Precision::Single).expect("single");
            let scenario = ThrottleScenario::paper_factors(params);
            let full_cap = params.const_power + params.cap.watts();
            let curves = scenario
                .models()
                .into_iter()
                .map(|(k, model)| CapCurve {
                    factor: k,
                    max_power: params.const_power + params.cap.watts() / k,
                    points: power_curve(&model, 0.25, 128.0, 37)
                        .into_iter()
                        .map(|pt| (pt.intensity, pt.power / full_cap, pt.regime))
                        .collect(),
                })
                .collect();
            Fig6Panel {
                name: p.name.clone(),
                achieved_reduction: scenario.power_reduction(),
                curves,
            }
        })
        .collect();
    Fig6Report { panels }
}

/// Renders the achieved power reductions and a per-panel series sketch.
pub fn render(report: &Fig6Report) -> String {
    let mut t = TextTable::new(vec![
        "Platform",
        "max W (full)",
        "reduction @k=2",
        "@k=4",
        "@k=8",
    ]);
    for p in &report.panels {
        let red = |k: f64| -> String {
            p.achieved_reduction
                .iter()
                .find(|(kk, _)| *kk == k)
                .map(|(_, r)| format!("{}x", sig3(*r)))
                .unwrap_or_default()
        };
        t.row(vec![
            p.name.clone(),
            sig3(p.curves[0].max_power),
            red(2.0),
            red(4.0),
            red(8.0),
        ]);
    }
    let mut out = format!(
        "Fig. 6: power under cap Δπ/k (normalized to full π_1+Δπ)\n\
         Overall power reduction is < k because π_1 > 0:\n\n{}",
        t.render()
    );
    out.push_str("\nCurves at I = 1/4, 2, 16, 128 (power_norm [regime]):\n");
    for p in &report.panels {
        out.push_str(&format!("\n{}\n", p.name));
        for c in &p.curves {
            // lint:allow(float-discipline, reason = "throttle factor is propagated verbatim from the paper_factors literal table, never computed")
            let label = if c.factor == 1.0 { "Full".to_string() } else { format!("1/{}", c.factor as u32) };
            let mut cells = Vec::new();
            for target in [0.25, 2.0, 16.0, 128.0] {
                if let Some((_, pw, reg)) = c
                    .points
                    .iter()
                    .min_by(|a, b| {
                        (a.0.ln() - f64::ln(target))
                            .abs()
                            .partial_cmp(&(b.0.ln() - f64::ln(target)).abs())
                            .expect("finite")
                    })
                {
                    cells.push(format!("{:.2}[{}]", pw, reg.letter()));
                }
            }
            out.push_str(&format!("  {label:<5} {}\n", cells.join("  ")));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use archline_platforms::{platform, PlatformId};

    #[test]
    fn twelve_panels_with_four_curves() {
        let r = compute();
        assert_eq!(r.panels.len(), 12);
        for p in &r.panels {
            assert_eq!(p.curves.len(), 4);
            assert_eq!(p.curves[0].factor, 1.0);
            assert_eq!(p.curves[3].factor, 8.0);
        }
    }

    #[test]
    fn reducing_cap_reduces_power_by_less_than_k() {
        let r = compute();
        for p in &r.panels {
            for &(k, achieved) in &p.achieved_reduction {
                assert!(achieved <= k + 1e-9, "{}: k={k} achieved={achieved}", p.name);
                if k > 1.0 {
                    assert!(achieved < k, "{}", p.name);
                }
            }
        }
    }

    #[test]
    fn arndale_gpu_has_most_reduction_headroom_phi_apu_least() {
        // Paper: "the Arndale GPU has the most potential to reduce system
        // power by reducing Δπ, whereas the Xeon Phi, APU CPU, and APU GPU
        // platforms have the least."
        let r = compute();
        let reduction_at_8 = |name: &str| -> f64 {
            r.panels
                .iter()
                .find(|p| p.name == name)
                .and_then(|p| p.achieved_reduction.iter().find(|(k, _)| *k == 8.0))
                .map(|(_, v)| *v)
                .expect("platform present")
        };
        let arndale = reduction_at_8("Arndale GPU");
        for other in ["Xeon Phi", "APU CPU", "APU GPU"] {
            assert!(
                arndale > 1.5 * reduction_at_8(other),
                "Arndale {} vs {} {}",
                arndale,
                other,
                reduction_at_8(other)
            );
        }
        // And nobody beats the Arndale GPU.
        for p in &r.panels {
            assert!(reduction_at_8(&p.name) <= arndale + 1e-9, "{}", p.name);
        }
    }

    #[test]
    fn curves_monotone_in_cap() {
        // At any intensity, a tighter cap cannot draw more power.
        let r = compute();
        for p in &r.panels {
            for idx in 0..p.curves[0].points.len() {
                for pair in p.curves.windows(2) {
                    assert!(
                        pair[1].points[idx].1 <= pair[0].points[idx].1 + 1e-9,
                        "{} at I={}",
                        p.name,
                        p.curves[0].points[idx].0
                    );
                }
            }
        }
    }

    #[test]
    fn titan_at_k8_is_140w_per_node() {
        // §V-D: "reduce per-node power by half, to 140 Watts per node …
        // corresponds to a power cap setting of Δπ/8".
        let titan = platform(PlatformId::GtxTitan);
        let _ = titan;
        let r = compute();
        let t = r.panels.iter().find(|p| p.name == "GTX Titan").unwrap();
        let k8 = t.curves.iter().find(|c| c.factor == 8.0).unwrap();
        assert!((k8.max_power - 143.5).abs() < 1.0, "{}", k8.max_power);
    }
}
