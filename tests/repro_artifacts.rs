//! Smoke + serialization tests over every reproduction artifact: each
//! report computes on a small configuration, serializes to JSON, and
//! round-trips — the contract the `repro --csv` output relies on.

use archline::microbench::SweepConfig;
use archline::repro::{
    ext, fig1, fig4, fig5, fig6, fig7, scorecard, section_vc, section_vd, table1, AnalysisContext,
};

/// A fresh context (no memoized sweep) over a small configuration.
fn tiny() -> AnalysisContext {
    AnalysisContext::new(SweepConfig {
        points: 17,
        target_secs: 0.04,
        level_runs: 1,
        random_runs: 1,
        ..Default::default()
    })
}

#[test]
fn table1_serializes_and_round_trips() {
    let r = table1::compute(&tiny(), false);
    let json = serde_json::to_string(&r).unwrap();
    let back: table1::Table1Report = serde_json::from_str(&json).unwrap();
    assert_eq!(back, r);
    assert!(table1::render(&r).contains("Table I"));
}

#[test]
fn fig1_serializes_and_round_trips() {
    let r = fig1::compute(0);
    let json = serde_json::to_string(&r).unwrap();
    let back: fig1::Fig1Report = serde_json::from_str(&json).unwrap();
    assert_eq!(back, r);
    let text = fig1::render(&r);
    assert!(text.contains("GTX Titan"));
    assert!(text.contains("┤"), "chart rendering present");
}

#[test]
fn fig4_serializes_and_round_trips() {
    let r = fig4::compute(&tiny());
    let json = serde_json::to_string(&r).unwrap();
    let back: fig4::Fig4Report = serde_json::from_str(&json).unwrap();
    assert_eq!(back, r);
    assert!(fig4::render(&r).contains("K-S"));
}

#[test]
fn fig5_serializes_and_round_trips() {
    let r = fig5::compute(&tiny());
    let json = serde_json::to_string(&r).unwrap();
    let back: fig5::Fig5Report = serde_json::from_str(&json).unwrap();
    assert_eq!(back, r);
    assert!(fig5::render(&r).contains("normalized"));
}

#[test]
fn fig6_and_fig7_serialize_and_round_trip() {
    let r6 = fig6::compute();
    let back6: fig6::Fig6Report =
        serde_json::from_str(&serde_json::to_string(&r6).unwrap()).unwrap();
    assert_eq!(back6, r6);
    for kind in [fig7::Fig7Kind::Performance, fig7::Fig7Kind::EnergyEfficiency] {
        let r7 = fig7::compute(kind);
        let back7: fig7::Fig7Report =
            serde_json::from_str(&serde_json::to_string(&r7).unwrap()).unwrap();
        assert_eq!(back7, r7);
    }
}

#[test]
fn section_reports_serialize() {
    let vc = section_vc::compute();
    let back: section_vc::SectionVcReport =
        serde_json::from_str(&serde_json::to_string(&vc).unwrap()).unwrap();
    assert_eq!(back, vc);
    let vd = section_vd::compute();
    let back: section_vd::SectionVdReport =
        serde_json::from_str(&serde_json::to_string(&vd).unwrap()).unwrap();
    assert_eq!(back, vd);
}

#[test]
fn extension_reports_serialize() {
    let net = ext::network_erosion().unwrap();
    let back: ext::NetworkErosion =
        serde_json::from_str(&serde_json::to_string(&net).unwrap()).unwrap();
    assert_eq!(back, net);
    let dvfs = ext::dvfs_whatif().unwrap();
    let back: ext::DvfsReport =
        serde_json::from_str(&serde_json::to_string(&dvfs).unwrap()).unwrap();
    assert_eq!(back, dvfs);
    let bounding = ext::bounding_matrix().unwrap();
    let back: ext::BoundingMatrix =
        serde_json::from_str(&serde_json::to_string(&bounding).unwrap()).unwrap();
    assert_eq!(back, bounding);
}

#[test]
fn scorecard_serializes_and_all_pass() {
    // The Fig. 4 claim needs enough intensity points for K-S power; use
    // the standard fast configuration rather than the tiny smoke config.
    let card = scorecard::compute(&AnalysisContext::new(archline::repro::analysis::fast_config()));
    let back: scorecard::Scorecard =
        serde_json::from_str(&serde_json::to_string(&card).unwrap()).unwrap();
    assert_eq!(back, card);
    assert_eq!(card.passed(), card.total());
}

#[test]
fn reports_are_deterministic_across_computations() {
    // Two computations with the same config must serialize identically —
    // the property that makes EXPERIMENTS.md's recorded numbers stable.
    let a = serde_json::to_string(&fig4::compute(&tiny())).unwrap();
    let b = serde_json::to_string(&fig4::compute(&tiny())).unwrap();
    assert_eq!(a, b);
}
