//! Bench-only crate: criterion targets live in `benches/`, the
//! `bench_report` binary in `src/bin/`. This library holds the pieces both
//! need and the tests want to pin: the `BENCH_model.json` schema version
//! and the replaced-file schema check.

/// Schema of `BENCH_model.json`.
///
/// * v1 (implicit, pre-versioning): no marker.
/// * v2: adds `schema_version`, `git_rev`, and the final counter snapshot
///   under `metrics`.
/// * v3: `avg_power_sweep` becomes `kernel_sweeps` with one entry per batch
///   kernel (not just avg_power); adds `num_workers`, `par_grain`,
///   `par_threshold`; the headline `speedup_batch_vs_scalar` is the fused
///   `evaluate_batch` sweep against the *derived* per-point scalar path
///   (the underived-baseline ratio is still recorded, but no longer the
///   headline); the GEMM section gains explicit branchy/branchless fields
///   both measured from the same workspace.
/// * v4: adds the `serve` section — throughput (queries/s), shed rate,
///   mean batch occupancy, and p50/p99 latency of an in-process
///   archline-serve engine under concurrent closed-loop clients.
/// * v5: the serve section reflects adaptive batching — the headline
///   closed-loop run is pipelined (per-client request depth > 1, which
///   the admission window coalesces into wide kernel passes), the
///   depth-1 run is kept as `closed_loop_depth1` for continuity with v4,
///   an `open_loop` arrival-rate sweep records offered vs achieved qps,
///   occupancy, and p99 per rate, and `plan_cache` records hit/miss/
///   eviction counts plus the hit rate (dropped in v8).
/// * v6: the headline closed-loop run gains a `phases_us` object — p50/p99
///   of the telemetry plane's per-phase latency decomposition (queue-wait,
///   window-hold, kernel, total) as reported on the responses' `phases_us`
///   envelope, so a regression can be localized to a pipeline stage
///   instead of showing up only in end-to-end p99.
/// * v7: the serve engine no longer holds batches open, so the headline
///   drops its hold count, and its `window` phase now measures batch
///   assembly (pickup to dispatch) rather than a hold.
/// * v8: the serve section drops the `plan_cache` block — the engine
///   compiles each request's plan once at admission and keeps no cache.
pub const BENCH_SCHEMA_VERSION: u64 = 8;

/// Inspects a prior `BENCH_model.json` about to be replaced and returns a
/// human-readable warning when it predates `current` (or does not parse) —
/// an older binary's output should never be silently confused with the new
/// schema. Returns `None` when the file is already current.
///
/// Files written before versioning carry no `schema_version` marker and
/// count as schema 1.
pub fn prior_schema_warning(contents: &str, current: u64) -> Option<String> {
    match serde_json::from_str::<serde_json::Value>(contents) {
        Ok(v) => {
            let old_ver = v
                .as_object()
                .and_then(|m| m.get("schema_version"))
                .and_then(|v| match v {
                    serde_json::Value::Number(serde_json::Number::PosInt(n)) => Some(*n),
                    _ => None,
                })
                .unwrap_or(1);
            (old_ver < current).then(|| {
                format!(
                    "replacing BENCH_model.json with schema_version {old_ver} \
                     (current is {current})"
                )
            })
        }
        Err(e) => Some(format!("replacing unparseable BENCH_model.json: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn current_schema_is_silent() {
        let doc = format!("{{\"schema_version\": {BENCH_SCHEMA_VERSION}}}");
        assert_eq!(prior_schema_warning(&doc, BENCH_SCHEMA_VERSION), None);
    }

    #[test]
    fn older_schema_warns_with_both_versions() {
        // Every prior version must warn on downgrade — including the
        // immediately preceding one (v5 → v6 is the newest edge).
        for old in 2..BENCH_SCHEMA_VERSION {
            let w = prior_schema_warning(
                &format!("{{\"schema_version\": {old}}}"),
                BENCH_SCHEMA_VERSION,
            )
            .expect("older schema must warn");
            assert!(w.contains(&format!("schema_version {old}")), "{w}");
            assert!(w.contains(&format!("current is {BENCH_SCHEMA_VERSION}")), "{w}");
        }
    }

    #[test]
    fn unversioned_file_counts_as_schema_one() {
        let w = prior_schema_warning("{\"sweep_points\": 1000000}", BENCH_SCHEMA_VERSION)
            .expect("unversioned file must warn");
        assert!(w.contains("schema_version 1"), "{w}");
    }

    #[test]
    fn unparseable_file_warns() {
        let w = prior_schema_warning("not json at all", BENCH_SCHEMA_VERSION)
            .expect("junk must warn");
        assert!(w.contains("unparseable"), "{w}");
    }

    #[test]
    fn newer_schema_does_not_warn() {
        // A file from a *newer* binary is not "older"; replacing it is the
        // caller's decision, not a downgrade we flag here.
        let doc = format!("{{\"schema_version\": {}}}", BENCH_SCHEMA_VERSION + 1);
        assert_eq!(prior_schema_warning(&doc, BENCH_SCHEMA_VERSION), None);
    }
}
