//! # archline-repro — regenerating the paper's tables and figures
//!
//! One module per artifact of the paper's evaluation (Choi et al., IPDPS
//! 2014), each with a `compute` entry point returning a serializable report
//! and a text renderer that prints the same rows/series the paper shows:
//!
//! | module | paper artifact |
//! |---|---|
//! | [`table1`] | Table I — platform summary, paper vs. re-fitted constants |
//! | [`fig1`]  | Fig. 1 — GTX Titan vs. Arndale GPU (+ power-matched array) |
//! | [`fig4`]  | Fig. 4 — capped vs. uncapped error distributions + K-S tests |
//! | [`fig5`]  | Fig. 5 — normalized power vs. intensity, 12 platforms |
//! | [`fig6`]  | Fig. 6 — power under caps `Δπ/k`, `k ∈ {1,2,4,8}` |
//! | [`fig7`]  | Fig. 7a/7b — performance and energy-efficiency under caps |
//! | [`section_vc`] | §V-C — streaming energy/byte example; `π_1` fraction vs. efficiency correlation |
//! | [`section_vd`] | §V-D — power bounding: capped Titan vs. Arndale array |
//! | [`ext`] | extension analyses beyond the paper (ablation, network, DVFS) |
//!
//! The `repro` binary exposes each as a subcommand; `repro all` regenerates
//! everything (see EXPERIMENTS.md at the repository root for the recorded
//! paper-vs-measured comparison).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod artifacts;
pub mod context;
pub mod ext;
pub mod failure;
pub mod fig1;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod plot;
pub mod render;
pub mod scorecard;
pub mod section_vc;
pub mod section_vd;
pub mod table1;

use archline_core::EnergyRoofline;
use archline_platforms::{all_platforms, Platform, Precision};

pub use artifacts::{run_artifact, ARTIFACTS};
pub use context::AnalysisContext;
pub use failure::{panic_message, ArtifactError, PlatformFailure};

/// The 12 platforms ordered by decreasing peak energy-efficiency — the
/// panel order of Figs. 5–7 (GTX Titan first, Desktop CPU last).
pub fn platforms_by_peak_efficiency() -> Vec<Platform> {
    let mut ps = all_platforms();
    ps.sort_by(|a, b| {
        let ea = peak_eff(a);
        let eb = peak_eff(b);
        eb.partial_cmp(&ea).expect("finite efficiencies")
    });
    ps
}

fn peak_eff(p: &Platform) -> f64 {
    EnergyRoofline::new(p.machine_params(Precision::Single).expect("single precision"))
        .peak_energy_eff()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_order_matches_fig5_panels() {
        let names: Vec<String> =
            platforms_by_peak_efficiency().into_iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            vec![
                "GTX Titan",
                "GTX 680",
                "Xeon Phi",
                "NUC GPU",
                "Arndale GPU",
                "APU GPU",
                "GTX 580",
                "NUC CPU",
                "PandaBoard ES",
                "Arndale CPU",
                "APU CPU",
                "Desktop CPU",
            ]
        );
    }
}
