//! §V-C analyses: the streaming energy-per-byte worked example and the
//! constant-power-fraction vs. peak-efficiency correlation.

use serde::{Deserialize, Serialize};

use archline_core::EnergyRoofline;
use archline_platforms::{platform, PlatformId, Precision};
use archline_stats::pearson;

use crate::platforms_by_peak_efficiency;
use crate::render::{pct, sig3, TextTable};

/// The streaming worked example for one platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamEnergyRow {
    /// Platform name.
    pub name: String,
    /// Marginal `ε_mem`, J/B.
    pub eps_mem: f64,
    /// Constant-power charge `τ_mem·π_1`, J/B.
    pub const_charge: f64,
    /// Total streaming energy per byte, J/B.
    pub total: f64,
}

/// The §V-C report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SectionVcReport {
    /// The Xeon Phi / GTX Titan / Arndale GPU worked example (paper order),
    /// then every other platform.
    pub stream_energy: Vec<StreamEnergyRow>,
    /// `π_1/(π_1 + Δπ)` per platform (Fig. 5 order).
    pub const_fraction: Vec<(String, f64)>,
    /// Number of platforms with constant-power fraction above 50 %.
    pub over_half: usize,
    /// Pearson correlation between the constant-power fraction and peak
    /// energy-efficiency (log scale) — the paper reports ≈ −0.6.
    pub correlation: f64,
}

/// Computes the §V-C analyses (model-only, from Table I).
pub fn compute() -> SectionVcReport {
    let featured = [PlatformId::XeonPhi, PlatformId::GtxTitan, PlatformId::ArndaleGpu];
    let mut stream_energy: Vec<StreamEnergyRow> = Vec::new();
    let mut push_row = |id: PlatformId| {
        let p = platform(id);
        let params = p.machine_params(Precision::Single).expect("single");
        let model = EnergyRoofline::new(params);
        stream_energy.push(StreamEnergyRow {
            name: p.name.clone(),
            eps_mem: params.energy_per_byte,
            const_charge: params.time_per_byte * params.const_power,
            total: model.streaming_energy_per_byte(),
        });
    };
    for id in featured {
        push_row(id);
    }
    for id in PlatformId::ALL {
        if !featured.contains(&id) {
            push_row(id);
        }
    }

    let ordered = platforms_by_peak_efficiency();
    let const_fraction: Vec<(String, f64)> = ordered
        .iter()
        .map(|p| {
            let params = p.machine_params(Precision::Single).expect("single");
            (p.name.clone(), params.const_power_fraction())
        })
        .collect();
    let over_half = const_fraction.iter().filter(|(_, f)| *f > 0.5).count();

    let fractions: Vec<f64> = const_fraction.iter().map(|(_, f)| *f).collect();
    let peak_eff_log: Vec<f64> = ordered
        .iter()
        .map(|p| {
            EnergyRoofline::new(p.machine_params(Precision::Single).expect("single"))
                .peak_energy_eff()
                .ln()
        })
        .collect();
    let correlation = pearson(&fractions, &peak_eff_log);

    SectionVcReport { stream_energy, const_fraction, over_half, correlation }
}

/// Renders the worked example and the correlation.
pub fn render(report: &SectionVcReport) -> String {
    let mut t = TextTable::new(vec!["Platform", "eps_mem pJ/B", "pi1 charge pJ/B", "total pJ/B"]);
    for r in &report.stream_energy {
        t.row(vec![
            r.name.clone(),
            sig3(r.eps_mem / 1e-12),
            sig3(r.const_charge / 1e-12),
            sig3(r.total / 1e-12),
        ]);
    }
    let mut f = TextTable::new(vec!["Platform", "pi1/(pi1+cap)"]);
    for (name, frac) in &report.const_fraction {
        f.row(vec![name.clone(), pct(*frac)]);
    }
    format!(
        "§V-C: total energy per streamed byte (ε_mem + τ_mem·π_1)\n\n{}\n\
         Constant-power fraction per platform (> 50% on {} of 12):\n\n{}\n\
         Pearson correlation of constant-power fraction vs log peak Gflop/J: {}\n",
        t.render(),
        report.over_half,
        f.render(),
        sig3(report.correlation)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worked_example_matches_paper_numbers() {
        // Paper: Arndale GPU 671 pJ/B < GTX Titan 782 pJ/B < Xeon Phi
        // 1.13 nJ/B — despite the Phi having the lowest ε_mem.
        let r = compute();
        let total = |name: &str| {
            r.stream_energy.iter().find(|s| s.name == name).expect("present").total
        };
        assert!((total("Arndale GPU") - 671e-12).abs() < 4e-12);
        assert!((total("GTX Titan") - 782e-12).abs() < 4e-12);
        assert!((total("Xeon Phi") - 1.13e-9).abs() < 0.02e-9);
        assert!(total("Arndale GPU") < total("GTX Titan"));
        assert!(total("GTX Titan") < total("Xeon Phi"));
    }

    #[test]
    fn phi_has_lowest_marginal_eps_mem() {
        let r = compute();
        let phi = r.stream_energy.iter().find(|s| s.name == "Xeon Phi").unwrap();
        for s in &r.stream_energy {
            assert!(s.eps_mem >= phi.eps_mem, "{}", s.name);
        }
    }

    #[test]
    fn seven_platforms_over_half_constant_power() {
        let r = compute();
        assert_eq!(r.over_half, 7);
    }

    #[test]
    fn correlation_is_negative_around_point_six() {
        // Paper: "this fraction correlates with overall peak
        // energy-efficiency, with a correlation coefficient of about −0.6".
        let r = compute();
        assert!(
            (-0.75..=-0.45).contains(&r.correlation),
            "correlation {}",
            r.correlation
        );
    }

    #[test]
    fn rows_cover_all_platforms_featured_first() {
        let r = compute();
        assert_eq!(r.stream_energy.len(), 12);
        assert_eq!(r.stream_energy[0].name, "Xeon Phi");
        assert_eq!(r.stream_energy[1].name, "GTX Titan");
        assert_eq!(r.stream_energy[2].name, "Arndale GPU");
    }
}
