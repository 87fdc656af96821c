//! Bit-identity pin for the reproduction: every artifact that
//! `repro all --fast` prints and writes, digested per artifact.
//!
//! Each digest is FNV-1a 64 over the artifact's rendered text, a `0xff`
//! separator, and its JSON report — the same digest the benchmark's
//! `repro` workload pins at seed 65. A simulator, measurement or fit
//! change that moves a single bit of any output fails here under
//! `cargo test`, naming the artifacts that moved. Changes that are meant to
//! move outputs must regenerate this table and say why.

use archline::repro::{analysis::fast_config, run_artifact, AnalysisContext, ARTIFACTS};

/// `(artifact, digest)` of `repro all --fast`, in `ARTIFACTS` order. The
/// two §V-C artifacts render the same report, so they share a digest.
const PINNED: [(&str, u64); 15] = [
    ("table1", 0x5cbf_6735_2100_27ff),
    ("fig1", 0x7441_ce29_13a5_a648),
    ("fig4", 0x57b8_aec0_ea47_14a1),
    ("fig5", 0xa1f5_d9ce_c513_45f5),
    ("fig6", 0x17f6_4103_873a_f3e0),
    ("fig7a", 0x2bf5_ba87_4161_3ac4),
    ("fig7b", 0x67af_ca1d_5577_9024),
    ("vc-energy", 0xa53d_5ae7_1dd3_7b3e),
    ("vc-constpower", 0xa53d_5ae7_1dd3_7b3e),
    ("vd-bounding", 0x6711_29b4_630f_1242),
    ("ext-arndale", 0x8cac_bc0e_8746_1aac),
    ("ext-network", 0x5ee0_8df1_1846_5803),
    ("ext-bounding", 0xc115_877e_dfa0_ea8a),
    ("ext-dvfs", 0x1f1f_78de_e98a_716f),
    ("scorecard", 0x3473_a5d6_9fb6_7842),
];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[test]
fn repro_all_fast_outputs_are_bit_identical_to_the_pinned_digests() {
    let ctx = AnalysisContext::new(fast_config());
    let got: Vec<(&str, u64)> = ARTIFACTS
        .iter()
        .map(|&name| {
            let (text, json) = run_artifact(name, &ctx, true)
                .unwrap_or_else(|e| panic!("artifact {name} failed: {}", e.message));
            let h = fnv1a(fnv1a(fnv1a(FNV_OFFSET, text.as_bytes()), &[0xff]), json.as_bytes());
            (name, h)
        })
        .collect();
    assert!(ctx.failures().is_empty(), "degraded platforms: {:?}", ctx.failures());
    let moved: Vec<String> = PINNED
        .iter()
        .zip(&got)
        .filter(|(pinned, now)| pinned != now)
        .map(|(&(name, pinned), &(_, now))| format!("{name}: pinned {pinned:#018x}, now {now:#018x}"))
        .collect();
    assert_eq!(got.len(), PINNED.len(), "artifact list changed: {got:?}");
    assert!(moved.is_empty(), "artifacts moved:\n{}", moved.join("\n"));
}
