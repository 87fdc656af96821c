//! The observability contract of the `repro` binary.
//!
//! Two promises, both load-bearing for reproduction claims:
//!
//! 1. **Tracing never changes results.** `repro all` stdout (the rendered
//!    artifacts) is byte-identical with and without a JSONL trace attached.
//! 2. **The trace is complete and parseable.** Every line of `--trace-out`
//!    parses as JSON; a traced injected run contains the fit convergence
//!    verdicts, the fault audit (with its seed), per-artifact spans that
//!    all close, and a final `metrics` snapshot carrying counters from the
//!    fit, par, powermon, and repro layers.

use std::path::PathBuf;
use std::process::Command;

use serde_json::Value;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("archline-trace-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object().and_then(|m| m.get(key))
}

fn get_str<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    match get(v, key) {
        Some(Value::String(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn get_u64(v: &Value, key: &str) -> Option<u64> {
    match get(v, key) {
        Some(Value::Number(serde_json::Number::PosInt(n))) => Some(*n),
        _ => None,
    }
}

#[test]
fn stdout_is_byte_identical_with_tracing_attached() {
    let dir = fresh_dir("ident");
    let trace = dir.join("trace.jsonl");
    let plain = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["all", "--fast"])
        .current_dir(&dir)
        .output()
        .unwrap();
    let traced = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["all", "--fast", "--trace-out", trace.to_str().unwrap()])
        .current_dir(&dir)
        .output()
        .unwrap();
    assert_eq!(plain.status.code(), Some(0));
    assert_eq!(traced.status.code(), Some(0));
    assert_eq!(
        plain.stdout, traced.stdout,
        "artifact output must not depend on whether a trace is attached"
    );
    assert!(trace.exists(), "trace file written");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn traced_injected_run_satisfies_the_event_contract() {
    let dir = fresh_dir("events");
    let trace = dir.join("trace.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "all",
            "--fast",
            "--threads",
            "2",
            "--inject",
            "GTX Titan:spike:0.2:7",
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .current_dir(&dir)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    // 20% spikes are survivable through the robust fit: clean exit.
    assert_eq!(out.status.code(), Some(0), "stderr:\n{stderr}");

    let text = std::fs::read_to_string(&trace).unwrap();
    let events: Vec<Value> = text
        .lines()
        .enumerate()
        .map(|(i, line)| {
            serde_json::from_str(line)
                .unwrap_or_else(|e| panic!("trace line {} unparseable: {e}\n{line}", i + 1))
        })
        .collect();
    assert!(events.len() > 50, "substantive trace, got {} events", events.len());
    let mut events = events;
    // The metrics snapshot is flushed last and takes the final seq, so the
    // canonical (seq-sorted) order keeps it at the end.
    events.sort_by_key(|e| get_u64(e, "seq").unwrap_or(0));

    // seq is the ordering key: every event carries one and no two events
    // share one (file order may interleave across worker threads; sorting
    // on seq is what makes traces diffable).
    let mut seqs: Vec<u64> =
        events.iter().map(|e| get_u64(e, "seq").expect("every event has seq")).collect();
    seqs.sort_unstable();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "seq values unique");

    let named = |ev: &str, target: &str, name: &str| -> Vec<&Value> {
        events
            .iter()
            .filter(|e| {
                get_str(e, "ev") == Some(ev)
                    && get_str(e, "target") == Some(target)
                    && get_str(e, "name") == Some(name)
            })
            .collect()
    };

    // Fit convergence verdicts: one per model per platform.
    let conv = named("event", "fit", "convergence");
    assert!(conv.len() >= 12, "convergence events, got {}", conv.len());

    // The fault audit, with the seed we injected.
    let audits = named("event", "fault", "injected");
    assert_eq!(audits.len(), 1, "exactly one audit for one --inject");
    let fields = get(audits[0], "fields").expect("audit fields");
    assert_eq!(get_u64(fields, "seed"), Some(7));
    assert_eq!(get_str(fields, "class"), Some("spike"));

    // Per-artifact spans: 15 opens, and every open span closes.
    let artifact_opens = named("span_open", "repro", "artifact");
    assert_eq!(artifact_opens.len(), 15);
    let mut open_ids: Vec<u64> = Vec::new();
    for e in &events {
        let Some(id) = get_u64(e, "id") else { continue };
        match get_str(e, "ev") {
            Some("span_open") => open_ids.push(id),
            Some("span_close") => {
                let pos = open_ids.iter().position(|&o| o == id);
                assert!(pos.is_some(), "span {id} closed but never opened");
                open_ids.remove(pos.unwrap());
            }
            _ => {}
        }
    }
    assert!(open_ids.is_empty(), "spans left open: {open_ids:?}");

    // Final metrics snapshot with counters from every instrumented layer.
    let metrics = events.last().expect("non-empty trace");
    assert_eq!(get_str(metrics, "ev"), Some("metrics"), "trace ends with the snapshot");
    let counters = get(metrics, "data").and_then(|d| get(d, "counters")).expect("counters");
    for key in ["fit.platforms", "machine.runs", "powermon.traces", "par.tasks", "repro.cache.misses", "fault.injections"] {
        let v = get_u64(counters, key);
        assert!(v.is_some_and(|v| v > 0), "counter {key} present and nonzero, got {v:?}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quiet_flag_silences_stderr_but_not_artifacts() {
    let dir = fresh_dir("quiet");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig1", "--fast", "-q"])
        .current_dir(&dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("GTX Titan"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("[time]"), "progress lines suppressed: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_repro_json_carries_schema_version_and_metrics_under_profile() {
    let dir = fresh_dir("schema");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["all", "--fast", "--profile"])
        .current_dir(&dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("self_ms"), "profile table printed: {stderr}");

    let bench: Value =
        serde_json::from_str(&std::fs::read_to_string(dir.join("BENCH_repro.json")).unwrap())
            .unwrap();
    assert_eq!(get_u64(&bench, "schema_version"), Some(2));
    assert_eq!(get_str(&bench, "status"), Some("ok"));
    let counters = get(&bench, "metrics").and_then(|m| get(m, "counters")).expect("metrics");
    assert!(get_u64(counters, "fit.platforms").is_some_and(|v| v > 0));
    assert!(
        get(&bench, "profile").is_some_and(|p| matches!(p, Value::Array(rows) if !rows.is_empty())),
        "profile rows embedded"
    );

    // Rewriting over an older-schema file warns instead of silently mixing
    // formats.
    std::fs::write(dir.join("BENCH_repro.json"), "{\"total\": 1.0}\n").unwrap();
    let again = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["all", "--fast"])
        .current_dir(&dir)
        .output()
        .unwrap();
    assert_eq!(again.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&again.stderr);
    assert!(stderr.contains("schema_version 1"), "older-schema warning: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
