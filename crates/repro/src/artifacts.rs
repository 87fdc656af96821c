//! Shared artifact entry point: the dispatch table the `repro` bin, the
//! benchmark harness and the integration tests all call into.
//!
//! Each artifact is a pure function of an [`AnalysisContext`] (plus the
//! `fast` knob) returning the rendered text and the machine-readable JSON
//! report. Keeping the dispatch here — instead of inside the bin — means
//! every caller shares one name → handler mapping.

use crate::{
    ext, fig1, fig4, fig5, fig6, fig7, scorecard, section_vc, section_vd, table1,
    AnalysisContext, ArtifactError,
};

/// Every artifact name, in `repro all` execution order.
pub const ARTIFACTS: &[&str] = &[
    "table1",
    "fig1",
    "fig4",
    "fig5",
    "fig6",
    "fig7a",
    "fig7b",
    "vc-energy",
    "vc-constpower",
    "vd-bounding",
    "ext-arndale",
    "ext-network",
    "ext-bounding",
    "ext-dvfs",
    "scorecard",
];

/// Serializes a report, mapping serializer errors into the failure path.
fn to_json<T: serde::Serialize>(name: &str, report: &T) -> Result<String, ArtifactError> {
    serde_json::to_string_pretty(report)
        .map_err(|e| ArtifactError::new(format!("serialize {name}: {e}")))
}

/// Computes one artifact against a shared context, returning
/// `(rendered_text, json_report)`.
pub fn run_artifact(
    name: &str,
    ctx: &AnalysisContext,
    fast: bool,
) -> Result<(String, String), ArtifactError> {
    match name {
        "table1" => {
            let r = table1::compute(ctx, !fast);
            Ok((table1::render(&r), to_json(name, &r)?))
        }
        "fig1" => {
            let r = fig1::compute(if fast { 9 } else { 17 });
            Ok((fig1::render(&r), to_json(name, &r)?))
        }
        "fig4" => {
            let r = fig4::compute(ctx);
            Ok((fig4::render(&r), to_json(name, &r)?))
        }
        "fig5" => {
            let r = fig5::compute(ctx);
            Ok((fig5::render(&r), to_json(name, &r)?))
        }
        "fig6" => {
            let r = fig6::compute();
            Ok((fig6::render(&r), to_json(name, &r)?))
        }
        "fig7a" => {
            let r = fig7::compute(fig7::Fig7Kind::Performance);
            Ok((fig7::render(&r), to_json(name, &r)?))
        }
        "fig7b" => {
            let r = fig7::compute(fig7::Fig7Kind::EnergyEfficiency);
            Ok((fig7::render(&r), to_json(name, &r)?))
        }
        "vc-energy" | "vc-constpower" => {
            let r = section_vc::compute();
            Ok((section_vc::render(&r), to_json(name, &r)?))
        }
        "vd-bounding" => {
            let r = section_vd::compute();
            Ok((section_vd::render(&r), to_json(name, &r)?))
        }
        "ext-arndale" => {
            let r = ext::arndale_ablation(ctx)?;
            Ok((ext::render_arndale(&r), to_json(name, &r)?))
        }
        "ext-network" => {
            let r = ext::network_erosion()?;
            Ok((ext::render_network(&r), to_json(name, &r)?))
        }
        "ext-bounding" => {
            let r = ext::bounding_matrix()?;
            Ok((ext::render_bounding(&r), to_json(name, &r)?))
        }
        "ext-dvfs" => {
            let r = ext::dvfs_whatif()?;
            Ok((ext::render_dvfs(&r), to_json(name, &r)?))
        }
        "scorecard" => {
            let r = scorecard::compute(ctx);
            Ok((scorecard::render(&r), to_json(name, &r)?))
        }
        other => Err(ArtifactError::new(format!("unknown artifact `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_artifact_is_a_typed_error() {
        let ctx = AnalysisContext::new(crate::analysis::fast_config());
        let err = run_artifact("nope", &ctx, true).unwrap_err();
        assert!(err.message.contains("unknown artifact"), "{}", err.message);
    }

    #[test]
    fn every_listed_artifact_is_recognized() {
        // `repro all` runs each listed name once, and the bin's `all`
        // keyword must not shadow an artifact.
        for (i, name) in ARTIFACTS.iter().enumerate() {
            assert!(!ARTIFACTS[..i].contains(name), "`{name}` listed twice");
        }
        assert!(!ARTIFACTS.contains(&"all"));
    }
}
