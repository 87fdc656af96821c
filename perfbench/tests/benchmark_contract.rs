//! The benchmark's contract: `BENCHMARK.json` is well formed and names
//! exactly the metrics the binary emits, and every workload, plain and
//! traced, runs a smoke pass that emits all of them with their units,
//! passes its correctness checks and fails no operation.

use std::collections::BTreeSet;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use archline_perfbench::metrics::{valid_name, valid_unit, Better, Def, END_TO_END, PER_LAYER};
use archline_perfbench::Workload;
use serde_json::{Map, Value};

fn benchmark_json() -> Map {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    match serde_json::from_str(&text).expect("BENCHMARK.json parses") {
        Value::Object(m) => m,
        other => panic!("BENCHMARK.json is not an object: {other:?}"),
    }
}

fn array<'a>(m: &'a Map, key: &str) -> &'a [Value] {
    match m.get(key) {
        Some(Value::Array(a)) => a,
        other => panic!("`{key}` is not an array: {other:?}"),
    }
}

fn object(v: &Value) -> &Map {
    v.as_object()
        .unwrap_or_else(|| panic!("not an object: {v:?}"))
}

fn string<'a>(m: &'a Map, key: &str) -> &'a str {
    match m.get(key) {
        Some(Value::String(s)) => s,
        other => panic!("`{key}` is not a string: {other:?}"),
    }
}

fn keys(m: &Map) -> Vec<&str> {
    m.keys().map(String::as_str).collect()
}

/// The entries of `list` against the registry `defs`: same names in the
/// same order, same units and directions.
fn same_metrics(list: &[Value], defs: &[Def], with_bound: bool) {
    assert_eq!(list.len(), defs.len(), "metric count");
    for (v, d) in list.iter().zip(defs) {
        let m = object(v);
        let want: &[&str] = if with_bound {
            &["better", "bound", "name", "unit"]
        } else {
            &["better", "name", "unit"]
        };
        assert_eq!(keys(m), want, "{m:?}");
        assert_eq!(string(m, "name"), d.name);
        assert_eq!(string(m, "unit"), d.unit, "unit of {}", d.name);
        let better = if d.better == Better::Lower {
            "lower"
        } else {
            "higher"
        };
        assert_eq!(string(m, "better"), better, "direction of {}", d.name);
        if with_bound {
            let Some(Value::Number(b)) = m.get("bound") else {
                panic!("bound of {}", d.name)
            };
            assert!(
                b.as_f64() > 0.0 && b.as_f64() <= 0.25,
                "bound of {}",
                d.name
            );
        }
    }
}

#[test]
fn benchmark_json_matches_the_registry() {
    let b = benchmark_json();
    assert_eq!(
        keys(&b),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let paths = array(&b, "paths");
    assert_eq!(paths, [Value::from("perfbench")]);
    let command: Vec<&str> = array(&b, "command")
        .iter()
        .map(|v| match v {
            Value::String(s) => s.as_str(),
            other => panic!("command entry {other:?}"),
        })
        .collect();
    assert!(
        command.len() <= 32
            && command
                .iter()
                .all(|c| c.len() <= 200 && !c.starts_with('/'))
    );
    assert!(command.contains(&"perfbench/Cargo.toml"), "{command:?}");
    let Some(Value::Number(secs)) = b.get("run_seconds") else {
        panic!("run_seconds")
    };
    assert!((1.0..=60.0).contains(&secs.as_f64()) && secs.as_f64().fract() == 0.0);

    let workloads: Vec<&str> = array(&b, "workloads")
        .iter()
        .map(|w| {
            let w = object(w);
            assert_eq!(keys(w), ["name", "why"]);
            let why = string(w, "why");
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
            string(w, "name")
        })
        .collect();
    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(
        workloads.iter().copied().collect::<BTreeSet<_>>(),
        known.iter().copied().collect()
    );

    same_metrics(array(&b, "end_to_end"), END_TO_END, true);
    same_metrics(array(&b, "per_layer"), PER_LAYER, false);
    for d in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(d.name) && valid_unit(d.unit), "{}", d.name);
    }
}

/// Runs one smoke pass and checks its result object.
fn smoke(workload: &str, traced: bool) -> Result<(), String> {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_archline-bench"));
    cmd.args(["--workload", workload, "--seed", "65", "--smoke"]);
    cmd.args(["--trace", if traced { "1" } else { "0" }]);
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let tag = format!("{workload}{}", if traced { " (traced)" } else { "" });
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    if !out.status.success() {
        return Err(format!("{tag}: exit {:?}\n{stderr}", out.status.code()));
    }
    let last = stdout.lines().last().ok_or(format!("{tag}: no output"))?;
    let result: Value = serde_json::from_str(last).map_err(|e| format!("{tag}: {e}: {last}"))?;
    let r = object(&result);
    if keys(r) != ["attempted", "correct", "failed", "metrics"] {
        return Err(format!("{tag}: keys {:?}", keys(r)));
    }
    if r.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!("{tag}: not correct\n{stderr}"));
    }
    // error_rate = failed / attempted must be 0.
    match (r.get("attempted"), r.get("failed")) {
        (Some(Value::Number(a)), Some(Value::Number(f)))
            if a.as_f64() >= 1.0 && f.as_f64() == 0.0 => {}
        other => return Err(format!("{tag}: attempted/failed {other:?}")),
    }
    let defs = if traced { PER_LAYER } else { END_TO_END };
    let metrics = object(r.get("metrics").ok_or(format!("{tag}: no metrics"))?);
    let want: Vec<&str> = {
        let mut v: Vec<&str> = defs.iter().map(|d| d.name).collect();
        v.sort_unstable();
        v
    };
    if keys(metrics) != want {
        return Err(format!(
            "{tag}: metrics {:?}, expected {want:?}",
            keys(metrics)
        ));
    }
    for d in defs {
        let m = object(&metrics[d.name]);
        let finite = matches!(m.get("value"), Some(Value::Number(n)) if n.as_f64().is_finite());
        if !finite || m.get("unit") != Some(&Value::from(d.unit)) {
            return Err(format!("{tag}: {} is {m:?}", d.name));
        }
    }
    Ok(())
}

#[test]
fn every_workload_smoke_runs_plain_and_traced() {
    // The longer traced runs first, two at a time: a smoke pass is about
    // correctness, not speed.
    let cases: Vec<(&str, bool)> = [true, false]
        .into_iter()
        .flat_map(|traced| Workload::ALL.iter().map(move |w| (w.name(), traced)))
        .collect();
    let next = AtomicUsize::new(0);
    let failures = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(w, traced)) = cases.get(i) else {
                    break;
                };
                if let Err(e) = smoke(w, traced) {
                    failures.lock().expect("failure list").push(e);
                }
            });
        }
    });
    let failures = failures.into_inner().expect("failure list");
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}
