//! Beyond-the-paper extension analyses, exercising the model refinements
//! the paper names as future work:
//!
//! 1. **Arndale capping ablation** — the paper conjectures the Arndale
//!    GPU's mid-intensity mispredictions come from "active energy-
//!    efficiency scaling with respect to utilization" (§V-C). We fit the
//!    utilization-scaled model of [`archline_core::extended`] to the
//!    simulated Arndale measurements and compare its power errors against
//!    the clean capped model's.
//! 2. **Interconnect erosion** — Fig. 1's best case "ignores the
//!    significant costs of an interconnection network". We sweep per-node
//!    network power and bandwidth efficiency to find where the Arndale
//!    array's 1.6× bandwidth edge over the GTX Titan vanishes.
//! 3. **DVFS what-if** — energy-optimal relative core frequency as a
//!    function of intensity, per platform (the knob the paper's power cap
//!    generalizes; Rountree et al.).

use serde::{Deserialize, Serialize};

use archline_core::{
    power_match_with, DvfsModel, EnergyRoofline, Interconnect, UtilizationScaledModel, Workload,
};
use archline_core::extended::fit_depth;
use archline_platforms::{platform, PlatformId, Precision};

use crate::context::AnalysisContext;
use crate::failure::ArtifactError;
use crate::render::{pct, sig3, TextTable};

/// Single-precision machine params for a Table I record, as an artifact
/// error when absent (every Table I platform publishes single precision,
/// but the failure path must not panic).
fn single_params(
    rec: &archline_platforms::Platform,
) -> Result<archline_core::MachineParams, ArtifactError> {
    rec.machine_params(Precision::Single)
        .map_err(|e| ArtifactError::new(format!("{}: no single-precision constants: {e}", rec.name)))
}

// ---------------------------------------------------------------------------
// 1. Arndale capping ablation
// ---------------------------------------------------------------------------

/// Result of the utilization-scaled-model ablation on the Arndale GPU.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArndaleAblation {
    /// Fitted efficiency-scaling depth `γ`.
    pub fitted_depth: f64,
    /// Ground-truth depth used by the simulator quirk.
    pub true_depth: f64,
    /// RMS relative power error of the clean capped model.
    pub clean_rmse: f64,
    /// RMS relative power error of the utilization-scaled model.
    pub scaled_rmse: f64,
    /// Worst-case clean-model error (the paper's "< 15 %" mispredictions).
    pub clean_max: f64,
}

/// Runs the Arndale ablation from a shared [`AnalysisContext`], reusing the
/// context's Arndale GPU suite and refit. Errors when the Arndale GPU is
/// missing from the sweep — i.e. its measure-and-fit was degraded.
///
/// The comparison is anchored on the *published* Table I constants (as the
/// paper's Fig. 5 is): a free refit would simply absorb the dip into a
/// lower Δπ, hiding the effect the refinement is meant to explain. (The
/// refit is still performed; its diagnostics are not used here.)
pub fn arndale_ablation(ctx: &AnalysisContext) -> Result<ArndaleAblation, ArtifactError> {
    let a = ctx
        .analyses()
        .iter()
        .find(|a| a.platform.id == PlatformId::ArndaleGpu)
        .ok_or_else(|| {
            ArtifactError::new("Arndale GPU missing from the sweep (platform degraded)")
        })?;
    let (rec, spec, suite) = (&a.platform, &a.spec, &a.suite);
    let table1_params = single_params(rec)?;

    let observations: Vec<(Workload, f64)> = suite
        .dram
        .runs
        .iter()
        .map(|r| (Workload::new(r.flops, r.bytes), r.avg_power()))
        .collect();
    let gamma = fit_depth(&table1_params, &observations);
    let scaled = UtilizationScaledModel::new(table1_params, gamma);
    let clean = EnergyRoofline::new(table1_params);

    let mut clean_sq = 0.0;
    let mut scaled_sq = 0.0;
    let mut clean_max = 0.0f64;
    for (w, measured) in &observations {
        let ce = (clean.avg_power(w) - measured) / measured;
        let se = (scaled.avg_power(w) - measured) / measured;
        clean_sq += ce * ce;
        scaled_sq += se * se;
        clean_max = clean_max.max(ce.abs());
    }
    let n = observations.len() as f64;
    let true_depth = match spec.quirk {
        archline_machine::Quirk::UtilizationScaling { depth } => depth,
        _ => 0.0,
    };
    Ok(ArndaleAblation {
        fitted_depth: gamma,
        true_depth,
        clean_rmse: (clean_sq / n).sqrt(),
        scaled_rmse: (scaled_sq / n).sqrt(),
        clean_max,
    })
}

/// Renders the ablation.
pub fn render_arndale(a: &ArndaleAblation) -> String {
    format!(
        "Extension 1: utilization-scaled capping on the Arndale GPU\n\n\
         fitted efficiency depth γ : {} (simulator ground truth {})\n\
         clean capped model  power RMSE {} (max {})\n\
         utilization-scaled  power RMSE {}  ({}x lower)\n\
         (the paper observed ≤15% mid-intensity mispredictions and proposed\n\
          exactly this refinement; the scaled model absorbs them)\n",
        sig3(a.fitted_depth),
        sig3(a.true_depth),
        pct(a.clean_rmse),
        pct(a.clean_max),
        pct(a.scaled_rmse),
        sig3(a.clean_rmse / a.scaled_rmse.max(1e-12)),
    )
}

// ---------------------------------------------------------------------------
// 2. Interconnect erosion
// ---------------------------------------------------------------------------

/// One point of the network-overhead sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkPoint {
    /// Per-node network power, W.
    pub per_node_watts: f64,
    /// Delivered-bandwidth efficiency.
    pub bandwidth_efficiency: f64,
    /// Boards that fit the Titan's power budget.
    pub boards: u32,
    /// Aggregate-bandwidth advantage over the Titan (1.0 = parity).
    pub bandwidth_advantage: f64,
}

/// The network-erosion sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkErosion {
    /// Sweep points.
    pub points: Vec<NetworkPoint>,
    /// Smallest per-node power (at efficiency 0.9) at which the advantage
    /// drops below parity, if reached within the sweep.
    pub break_even_watts: Option<f64>,
}

/// Sweeps interconnect overheads for the Fig. 1 Arndale-array scenario.
pub fn network_erosion() -> Result<NetworkErosion, ArtifactError> {
    let titan = single_params(&platform(PlatformId::GtxTitan))?;
    let arndale = single_params(&platform(PlatformId::ArndaleGpu))?;
    let budget = titan.const_power + titan.cap.watts();
    let titan_model = EnergyRoofline::new(titan);

    let mut points = Vec::new();
    for &eff in &[1.0, 0.9, 0.8] {
        for &watts in &[0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0] {
            let net = Interconnect { per_node_watts: watts, bandwidth_efficiency: eff };
            let rep = power_match_with(&arndale, &net, budget);
            let agg = EnergyRoofline::new(rep.aggregate_with(&net));
            points.push(NetworkPoint {
                per_node_watts: watts,
                bandwidth_efficiency: eff,
                boards: rep.n,
                bandwidth_advantage: agg.peak_bandwidth() / titan_model.peak_bandwidth(),
            });
        }
    }
    let break_even_watts = points
        .iter()
        // lint:allow(float-discipline, reason = "selects the 0.9 row of the efficiency grid; the literal is propagated verbatim from the grid constant, never computed")
        .filter(|p| p.bandwidth_efficiency == 0.9 && p.bandwidth_advantage < 1.0)
        .map(|p| p.per_node_watts)
        .fold(None, |acc: Option<f64>, w| Some(acc.map_or(w, |a| a.min(w))));
    Ok(NetworkErosion { points, break_even_watts })
}

/// Renders the sweep.
pub fn render_network(n: &NetworkErosion) -> String {
    let mut t = TextTable::new(vec!["net W/node", "bw eff", "boards", "bw advantage"]);
    for p in &n.points {
        t.row(vec![
            sig3(p.per_node_watts),
            pct(p.bandwidth_efficiency),
            p.boards.to_string(),
            format!("{}x", sig3(p.bandwidth_advantage)),
        ]);
    }
    format!(
        "Extension 2: interconnect costs vs the Fig. 1 best case\n\
         (47x Arndale array's bandwidth edge over one GTX Titan)\n\n{}\
         break-even per-node network power at 90% efficiency: {}\n\
         (the paper: with real network costs the array is 'more likely to\n\
          improve upon GTX Titan only marginally or not at all')\n",
        t.render(),
        n.break_even_watts.map_or("not reached".to_string(), |w| format!("{} W", sig3(w))),
    )
}

// ---------------------------------------------------------------------------
// 2b. Power-bounding matrix (generalizing §V-D to all pairs)
// ---------------------------------------------------------------------------

/// One big-node row of the bounding matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoundingRow {
    /// The big node being power-bounded.
    pub big: String,
    /// The budget: the big node at `Δπ/8`, W.
    pub budget: f64,
    /// Speedup of each candidate small-node array over the bounded big
    /// node, `(small name, n nodes, speedup)`, best first.
    pub alternatives: Vec<(String, u32, f64)>,
}

/// The §V-D analysis for every (big, small) platform pair at `I = 0.25`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoundingMatrix {
    /// One row per big node (platforms with `π_1 + Δπ/8` still above the
    /// smallest candidate's node power).
    pub rows: Vec<BoundingRow>,
}

/// Computes the full power-bounding matrix: bound each platform to its own
/// `Δπ/8` budget and ask which other platform, replicated into the same
/// budget, runs an `I = 0.25` (SpMV-like) workload fastest.
pub fn bounding_matrix() -> Result<BoundingMatrix, ArtifactError> {
    use archline_core::power_bounding;
    let platforms = crate::platforms_by_peak_efficiency();
    let intensity = 0.25;
    let mut rows = Vec::new();
    for big in &platforms {
        let big_params = single_params(big)?;
        let budget = big_params.const_power + big_params.cap.watts() / 8.0;
        let mut alternatives = Vec::new();
        for small in platforms.iter().filter(|s| s.id != big.id && s.max_power() <= budget) {
            let small_params = single_params(small)?;
            let out = power_bounding(&big_params, &small_params, budget, intensity);
            alternatives.push((small.name.clone(), out.small_nodes, out.ensemble_speedup));
        }
        alternatives.sort_by(|a: &(String, u32, f64), b| b.2.total_cmp(&a.2));
        rows.push(BoundingRow { big: big.name.clone(), budget, alternatives });
    }
    Ok(BoundingMatrix { rows })
}

/// Renders the top alternative per bounded platform.
pub fn render_bounding(m: &BoundingMatrix) -> String {
    let mut t = TextTable::new(vec![
        "bounded platform", "budget W", "best alternative", "nodes", "speedup",
    ]);
    for r in &m.rows {
        match r.alternatives.first() {
            Some((name, n, speedup)) => t.row(vec![
                r.big.clone(),
                sig3(r.budget),
                name.clone(),
                n.to_string(),
                format!("{}x", sig3(*speedup)),
            ]),
            None => t.row(vec![
                r.big.clone(),
                sig3(r.budget),
                "(none fits)".to_string(),
                "-".to_string(),
                "-".to_string(),
            ]),
        };
    }
    format!(
        "Extension 2b: §V-D generalized — bound each platform to its Δπ/8\n\
         budget; which other block, replicated into that budget, runs an\n\
         I = 0.25 workload fastest?\n\n{}",
        t.render()
    )
}

// ---------------------------------------------------------------------------
// 3. DVFS what-if
// ---------------------------------------------------------------------------

/// Energy-optimal relative frequency per intensity for one platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DvfsRow {
    /// Platform name.
    pub name: String,
    /// `(intensity, optimal relative frequency)` samples.
    pub optima: Vec<(f64, f64)>,
}

/// The DVFS what-if report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DvfsReport {
    /// Per-platform optima.
    pub rows: Vec<DvfsRow>,
}

/// Computes energy-optimal frequencies for a representative platform trio.
pub fn dvfs_whatif() -> Result<DvfsReport, ArtifactError> {
    let intensities = [0.125, 0.5, 2.0, 8.0, 32.0, 128.0];
    let mut rows = Vec::new();
    for &id in &[PlatformId::GtxTitan, PlatformId::NucCpu, PlatformId::ArndaleCpu] {
        let rec = platform(id);
        let dvfs = DvfsModel::conventional(single_params(&rec)?);
        let optima = intensities
            .iter()
            .map(|&i| (i, dvfs.energy_optimal_frequency(i, 0.25, 1.5, 51).0))
            .collect();
        rows.push(DvfsRow { name: rec.name.clone(), optima });
    }
    Ok(DvfsReport { rows })
}

/// Renders the DVFS table.
pub fn render_dvfs(r: &DvfsReport) -> String {
    let mut t = TextTable::new(vec!["Platform", "I=1/8", "I=1/2", "I=2", "I=8", "I=32", "I=128"]);
    for row in &r.rows {
        let mut cells = vec![row.name.clone()];
        cells.extend(row.optima.iter().map(|(_, f)| sig3(*f)));
        t.row(cells);
    }
    format!(
        "Extension 3: energy-optimal relative core frequency by intensity\n\
         (first-order DVFS on top of the roofline; 1.0 = nominal clock)\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::fast_config;

    #[test]
    fn scaled_model_halves_arndale_error() {
        let a = arndale_ablation(&AnalysisContext::new(fast_config())).unwrap();
        assert!(a.clean_max < 0.15, "paper bound: {}", a.clean_max);
        assert!(a.clean_max > 0.01, "quirk should be visible: {}", a.clean_max);
        assert!(
            a.scaled_rmse < 0.6 * a.clean_rmse,
            "scaled {} vs clean {}",
            a.scaled_rmse,
            a.clean_rmse
        );
        // Fitted depth lands near the simulator's ground truth (0.13).
        assert!((a.fitted_depth - a.true_depth).abs() < 0.06, "{}", a.fitted_depth);
    }

    #[test]
    fn network_overheads_erode_the_edge_monotonically() {
        let n = network_erosion().unwrap();
        // Ideal point reproduces Fig. 1.
        let ideal = n
            .points
            .iter()
            .find(|p| p.per_node_watts == 0.0 && p.bandwidth_efficiency == 1.0)
            .unwrap();
        assert!((ideal.bandwidth_advantage - 1.61).abs() < 0.1);
        // More network power → fewer boards and less advantage.
        for eff in [1.0, 0.9, 0.8] {
            let series: Vec<&NetworkPoint> =
                n.points.iter().filter(|p| p.bandwidth_efficiency == eff).collect();
            for pair in series.windows(2) {
                assert!(pair[1].boards <= pair[0].boards);
                assert!(pair[1].bandwidth_advantage <= pair[0].bandwidth_advantage + 1e-12);
            }
        }
        // A handful of Watts per node erases the edge entirely.
        assert!(n.break_even_watts.is_some());
        assert!(n.break_even_watts.unwrap() <= 6.0);
    }

    #[test]
    fn bounding_matrix_reproduces_the_papers_pair_and_more() {
        let m = bounding_matrix().unwrap();
        assert_eq!(m.rows.len(), 12);
        // The paper's pair: Titan bounded, Arndale GPU among alternatives
        // with 23 nodes and ≈2.6×.
        let titan = m.rows.iter().find(|r| r.big == "GTX Titan").unwrap();
        let arndale = titan
            .alternatives
            .iter()
            .find(|(name, _, _)| name == "Arndale GPU")
            .expect("Arndale fits the Titan budget");
        assert_eq!(arndale.1, 23);
        assert!((2.3..3.0).contains(&arndale.2), "{}", arndale.2);
        // Low-power boards cannot host a bounded-Titan-class replacement
        // the other way around: the Arndale GPU's Δπ/8 budget (< 2 W)
        // admits no other Table I platform.
        let arndale_row = m.rows.iter().find(|r| r.big == "Arndale GPU").unwrap();
        assert!(arndale_row.alternatives.is_empty(), "{:?}", arndale_row.alternatives);
        // Alternatives are sorted best-first.
        for r in &m.rows {
            for pair in r.alternatives.windows(2) {
                assert!(pair[0].2 >= pair[1].2);
            }
        }
    }

    #[test]
    fn dvfs_optima_increase_with_intensity_dependence() {
        let r = dvfs_whatif().unwrap();
        assert_eq!(r.rows.len(), 3);
        for row in &r.rows {
            // Memory-bound work never wants a *higher* clock than
            // compute-bound work on the same platform.
            let low = row.optima.first().unwrap().1;
            let high = row.optima.last().unwrap().1;
            assert!(low <= high + 1e-9, "{}: {low} vs {high}", row.name);
            for (_, f) in &row.optima {
                assert!((0.25..=1.5).contains(f));
            }
        }
    }

    #[test]
    fn renders_are_nonempty() {
        assert!(render_network(&network_erosion().unwrap()).contains("boards"));
        assert!(render_dvfs(&dvfs_whatif().unwrap()).contains("Platform"));
    }

    #[test]
    fn ablation_reports_degradation_instead_of_panicking() {
        use archline_faults::{FaultClass, FaultPlan};
        let plan = FaultPlan::single(FaultClass::FailRun, 1.0, 13);
        let ctx = AnalysisContext::with_sabotage(
            fast_config(),
            vec![("Arndale GPU".to_string(), plan)],
        );
        let err = arndale_ablation(&ctx).unwrap_err();
        assert!(err.message.contains("degraded"), "{err}");
    }
}
