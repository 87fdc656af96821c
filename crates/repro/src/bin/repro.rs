//! `repro` — regenerate the tables and figures of Choi et al. (IPDPS 2014).
//!
//! ```text
//! repro <artifact> [--fast] [--csv DIR] [--threads N] [--inject SPEC]
//!
//! artifacts:
//!   table1         Table I  — platform summary (paper vs re-fitted)
//!   fig1           Fig. 1   — GTX Titan vs Arndale GPU (+ power-matched array)
//!   fig4           Fig. 4   — capped vs uncapped error distributions + K-S
//!   fig5           Fig. 5   — normalized power vs intensity, 12 platforms
//!   fig6           Fig. 6   — power under caps Δπ/k
//!   fig7a | fig7b  Fig. 7   — performance / energy-efficiency under caps
//!   vc-energy      §V-C     — streaming energy per byte worked example
//!   vc-constpower  §V-C     — constant-power fraction + correlation
//!   vd-bounding    §V-D     — power bounding comparison
//!   ext-arndale    extension: utilization-scaled capping ablation
//!   ext-network    extension: interconnect-cost erosion of Fig. 1
//!   ext-bounding   extension: §V-D generalized to all platform pairs
//!   ext-dvfs       extension: energy-optimal DVFS frequencies
//!   scorecard      every headline claim checked with a PASS/DEVIATION verdict
//!   all            everything above
//!
//! flags:
//!   --fast         smaller simulated sweeps (quick smoke runs)
//!   --csv DIR      also write machine-readable JSON reports into DIR
//!   --threads N    worker threads for the simulation sweeps (default: all
//!                  cores, or the ARCHLINE_THREADS environment variable)
//!   --inject SPEC  corrupt one platform's DRAM measurements with a seeded
//!                  fault before fitting (repeatable). SPEC is
//!                  `PLATFORM:CLASS:SEVERITY[:SEED]`, e.g.
//!                  `Arndale GPU:spike:0.2:7`. Classes: drop, duplicate,
//!                  out-of-order, clock-skew, jitter, spike, quantize,
//!                  counter-wrap, rail-dropout, fail-run.
//!   -q, --quiet    stderr shows errors only
//!   -v, --verbose  stderr verbosity: -v = stage-level detail (fit stages,
//!                  fault audits), -vv = everything (per-task spans, NM
//!                  iteration traces)
//!   --trace-out P  write a machine-readable JSONL trace of the whole run
//!                  to P (every level, regardless of -q/-v; equivalent to
//!                  ARCHLINE_TRACE=P)
//!   --profile      collect span timings; print a per-stage self-time
//!                  breakdown to stderr and embed the metrics snapshot in
//!                  BENCH_repro.json
//! ```
//!
//! All artifacts computed in one invocation share an
//! [`archline_repro::AnalysisContext`], so `repro all` runs the 12-platform
//! measurement-and-fit sweep exactly once. Per-artifact wall times go to
//! stderr; `repro all` additionally writes them to `BENCH_repro.json`
//! (emitted even when some artifacts fail, with the failures recorded).
//!
//! **Degradation contract**: a platform whose measure-and-fit fails — or
//! that `--inject` corrupts past fitability — is dropped from the sweep and
//! marked DEGRADED in Table I and the scorecard; artifacts that crash or
//! error are reported in an end-of-run failure summary instead of aborting
//! the rest. Exit status: `0` when everything succeeded, `3` when some
//! artifacts succeeded but platforms were degraded or artifacts failed
//! (partial failure), `1` when no artifact succeeded, `2` for usage errors.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use archline_faults::{FaultPlan, FaultSpec};
use archline_microbench::SweepConfig;
use archline_obs::{self as obs, field};
use archline_repro::{
    analysis, failure::panic_message, run_artifact, AnalysisContext, ArtifactError, ARTIFACTS,
};

const EXIT_TOTAL_FAILURE: i32 = 1;
const EXIT_USAGE: i32 = 2;
const EXIT_PARTIAL_FAILURE: i32 = 3;

/// Schema of `BENCH_repro.json`. v1 (implicit, pre-versioning) had only
/// per-artifact timings + status; v2 adds `schema_version`, `git_rev`, and
/// the optional `metrics`/`profile` sections.
const BENCH_SCHEMA_VERSION: u64 = 2;

fn usage(error: &str) -> ! {
    if !error.is_empty() {
        eprintln!("repro: {error}");
    }
    eprintln!(
        "usage: repro <artifact> [--fast] [--csv DIR] [--threads N] \
         [--inject 'PLATFORM:CLASS:SEVERITY[:SEED]'] [-q] [-v[v]] \
         [--trace-out PATH] [--profile]\n\
         artifacts: {} | all",
        ARTIFACTS.join(" | ")
    );
    obs::flush();
    std::process::exit(EXIT_USAGE);
}

/// Parses one `--inject` value: `PLATFORM:CLASS:SEVERITY[:SEED]`.
fn parse_inject(value: &str) -> Result<(String, FaultSpec), String> {
    let (platform, spec) = value
        .split_once(':')
        .ok_or_else(|| format!("--inject `{value}`: expected PLATFORM:CLASS:SEVERITY[:SEED]"))?;
    let known = archline_repro::platforms_by_peak_efficiency();
    if !known.iter().any(|p| p.name == platform) {
        return Err(format!(
            "--inject: unknown platform `{platform}` (one of: {})",
            known.iter().map(|p| p.name.as_str()).collect::<Vec<_>>().join(", ")
        ));
    }
    let spec = FaultSpec::parse(spec).map_err(|e| format!("--inject: {e}"))?;
    Ok((platform.to_string(), spec))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut fast = false;
    let mut csv_dir: Option<String> = None;
    let mut threads: Option<usize> = None;
    let mut artifact: Option<String> = None;
    let mut injections: Vec<(String, FaultSpec)> = Vec::new();
    let mut quiet = false;
    let mut verbose: u8 = 0;
    let mut trace_out: Option<String> = None;
    let mut profile = false;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--fast" => fast = true,
            "-q" | "--quiet" => quiet = true,
            "-v" | "--verbose" => verbose += 1,
            "-vv" => verbose += 2,
            "--profile" => profile = true,
            "--trace-out" => match it.next() {
                Some(path) => trace_out = Some(path.clone()),
                None => usage("--trace-out needs a path"),
            },
            "--csv" => match it.next() {
                Some(dir) => csv_dir = Some(dir.clone()),
                None => usage("--csv needs a directory"),
            },
            "--threads" => match it.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) => threads = Some(n),
                Some(Err(_)) => usage("--threads needs a positive integer"),
                None => usage("--threads needs a positive integer"),
            },
            "--inject" => match it.next() {
                Some(value) => match parse_inject(value) {
                    Ok(inj) => injections.push(inj),
                    Err(e) => usage(&e),
                },
                None => usage("--inject needs PLATFORM:CLASS:SEVERITY[:SEED]"),
            },
            name if !name.starts_with("--") && artifact.is_none() => {
                artifact = Some(name.to_string());
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
    }

    let artifact = artifact.unwrap_or_else(|| usage(""));
    if artifact != "all" && !ARTIFACTS.contains(&artifact.as_str()) {
        usage(&format!("unknown artifact `{artifact}`"));
    }

    // Observability: Info on stderr preserves the pre-obs output
    // ([time] lines, error reports, the failure summary). The environment
    // (ARCHLINE_LOG / ARCHLINE_TRACE) applies
    // next; explicit flags win over both.
    obs::set_stderr_level(Some(obs::Level::Info));
    if let Err(e) = obs::init_from_env() {
        usage(&e);
    }
    if quiet {
        obs::set_stderr_level(Some(obs::Level::Error));
    } else if verbose >= 2 {
        obs::set_stderr_level(Some(obs::Level::Trace));
    } else if verbose == 1 {
        obs::set_stderr_level(Some(obs::Level::Debug));
    }
    if let Some(path) = &trace_out {
        match obs::JsonlSink::file(path) {
            Ok(sink) => {
                obs::install_sink(std::sync::Arc::new(sink));
            }
            Err(e) => usage(&format!("--trace-out: cannot open `{path}`: {e}")),
        }
    }
    if profile {
        obs::set_profiling(true);
    }

    if let Some(n) = threads {
        if let Err(e) = archline_par::set_num_threads(n) {
            usage(&format!("--threads {n}: {e}"));
        }
    }

    // Fold repeated --inject specs into one ordered plan per platform.
    let mut sabotage: Vec<(String, FaultPlan)> = Vec::new();
    for (platform, spec) in injections {
        match sabotage.iter_mut().find(|(name, _)| *name == platform) {
            Some((_, plan)) => plan.specs.push(spec),
            None => sabotage.push((platform, FaultPlan::new(vec![spec]))),
        }
    }

    let cfg = if fast { analysis::fast_config() } else { SweepConfig::default() };
    // One shared context: every artifact below reuses the same 12-platform
    // sweep instead of re-running it.
    let ctx = AnalysisContext::with_sabotage(cfg, sabotage);
    let all = artifact == "all";
    let names: Vec<&str> = if all { ARTIFACTS.to_vec() } else { vec![artifact.as_str()] };
    let attempted = names.len();

    let total_start = Instant::now();
    let mut timings: Vec<(&str, f64)> = Vec::new();
    let mut failed: Vec<(&str, String)> = Vec::new();
    for name in names {
        let start = Instant::now();
        // Isolate each artifact: a panic (or error) in one must not take
        // down the rest of `repro all`. The span guard sits outside the
        // unwind handler, so a panicking artifact still closes its span.
        let outcome = {
            let _span = obs::span_with(
                obs::Level::Debug,
                "repro",
                "artifact",
                &[field("name", name.to_string())],
            );
            catch_unwind(AssertUnwindSafe(|| run_one(name, &ctx, fast, &csv_dir)))
        };
        let result = match outcome {
            Ok(r) => r,
            Err(payload) => Err(ArtifactError::new(panic_message(payload))),
        };
        let secs = start.elapsed().as_secs_f64();
        timings.push((name, secs));
        obs::info!("repro", "[time] {name}: {secs:.3}s");
        if let Err(e) = result {
            obs::error!("repro", "repro: ERROR: {name}: {e}");
            failed.push((name, e.message));
        }
    }
    let total = total_start.elapsed().as_secs_f64();
    obs::info!("repro", "[time] total: {total:.3}s");

    // Degraded platforms, without forcing the sweep for artifacts that
    // never needed it (fig1, the model-only extensions).
    let degraded: Vec<(String, String)> = if ctx.sweep_misses() > 0 {
        ctx.failures().iter().map(|f| (f.name.clone(), f.error.clone())).collect()
    } else {
        Vec::new()
    };

    let exit = if failed.is_empty() && degraded.is_empty() {
        0
    } else if failed.len() == attempted {
        EXIT_TOTAL_FAILURE
    } else {
        EXIT_PARTIAL_FAILURE
    };

    if all {
        write_bench(&timings, total, &failed, &degraded, profile);
    }

    // End-of-run failure summary (stderr, after all artifact output).
    if !degraded.is_empty() || !failed.is_empty() {
        obs::error!("repro", "repro: failure summary");
        if !degraded.is_empty() {
            obs::error!("repro", "  degraded platforms ({} of 12):", degraded.len());
            for (name, reason) in &degraded {
                obs::error!("repro", "    {name} — {reason}");
            }
        }
        if !failed.is_empty() {
            obs::error!("repro", "  failed artifacts ({} of {attempted}):", failed.len());
            for (name, reason) in &failed {
                obs::error!("repro", "    {name} — {reason}");
            }
        }
        let kind = if exit == EXIT_TOTAL_FAILURE { "total" } else { "partial" };
        obs::error!("repro", "repro: exiting {exit} ({kind} failure)");
    }

    if profile {
        eprint!("{}", obs::render_profile(&obs::profile_snapshot()));
    }
    // `exit` skips destructors, so flush the trace/metrics explicitly.
    obs::flush();
    std::process::exit(exit);
}

/// Computes, prints, and (optionally) persists one artifact.
fn run_one(
    name: &str,
    ctx: &AnalysisContext,
    fast: bool,
    csv_dir: &Option<String>,
) -> Result<(), ArtifactError> {
    let (text, json) = run_artifact(name, ctx, fast)?;
    println!("{text}");
    if let Some(dir) = csv_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| ArtifactError::new(format!("create output dir {dir}: {e}")))?;
        let path = format!("{dir}/{name}.json");
        std::fs::write(&path, json)
            .map_err(|e| ArtifactError::new(format!("write {path}: {e}")))?;
        obs::info!("repro", "wrote {path}");
    }
    Ok(())
}

/// Warns when the file about to be replaced predates the current schema —
/// an older binary's output should never be silently confused with ours.
fn check_prior_schema(path: &str) {
    let Ok(old) = std::fs::read_to_string(path) else { return };
    match serde_json::from_str::<serde_json::Value>(&old) {
        Ok(v) => {
            // Files written before versioning carry no marker: schema v1.
            let old_ver = v
                .as_object()
                .and_then(|m| m.get("schema_version"))
                .and_then(|v| match v {
                    serde_json::Value::Number(serde_json::Number::PosInt(n)) => Some(*n),
                    _ => None,
                })
                .unwrap_or(1);
            if old_ver < BENCH_SCHEMA_VERSION {
                obs::warn!(
                    "repro",
                    "repro: replacing {path} with schema_version {old_ver} \
                     (current is {BENCH_SCHEMA_VERSION})"
                );
            }
        }
        Err(e) => obs::warn!("repro", "repro: replacing unparseable {path}: {e}"),
    }
}

/// Writes `BENCH_repro.json` — always, even on partial failure, so a
/// degraded run still leaves a machine-readable record of what completed.
fn write_bench(
    timings: &[(&str, f64)],
    total: f64,
    failed: &[(&str, String)],
    degraded: &[(String, String)],
    profile: bool,
) {
    let mut bench = serde_json::Map::new();
    bench.insert("schema_version".to_string(), serde_json::Value::from(BENCH_SCHEMA_VERSION));
    if let Some(rev) = obs::git_revision() {
        bench.insert("git_rev".to_string(), serde_json::Value::from(rev));
    }
    for (name, secs) in timings {
        bench.insert((*name).to_string(), serde_json::Value::from(*secs));
    }
    bench.insert("total".to_string(), serde_json::Value::from(total));
    let status = if failed.is_empty() && degraded.is_empty() {
        "ok"
    } else if failed.len() == timings.len() {
        "failed"
    } else {
        "partial"
    };
    bench.insert("status".to_string(), serde_json::Value::from(status));
    if !failed.is_empty() {
        let list = failed.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(", ");
        bench.insert("failed_artifacts".to_string(), serde_json::Value::from(list));
    }
    if !degraded.is_empty() {
        let list = degraded.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>().join(", ");
        bench.insert("degraded_platforms".to_string(), serde_json::Value::from(list));
    }
    if profile {
        let mut metrics = String::new();
        obs::metrics::snapshot().write_json(&mut metrics);
        match serde_json::from_str::<serde_json::Value>(&metrics) {
            Ok(v) => {
                bench.insert("metrics".to_string(), v);
            }
            Err(e) => obs::warn!("repro", "repro: warning: metrics snapshot unparseable: {e}"),
        }
        let rows: Vec<serde_json::Value> = obs::profile_snapshot()
            .iter()
            .map(|r| {
                let mut m = serde_json::Map::new();
                m.insert(
                    "span".to_string(),
                    serde_json::Value::from(format!("{}.{}", r.target, r.name)),
                );
                m.insert("count".to_string(), serde_json::Value::from(r.count));
                m.insert(
                    "total_ms".to_string(),
                    serde_json::Value::from(r.total_ns as f64 / 1e6),
                );
                m.insert("self_ms".to_string(), serde_json::Value::from(r.self_ns as f64 / 1e6));
                m.insert("wait_ms".to_string(), serde_json::Value::from(r.wait_ns as f64 / 1e6));
                serde_json::Value::Object(m)
            })
            .collect();
        bench.insert("profile".to_string(), serde_json::Value::from(rows));
    }
    let body = match serde_json::to_string_pretty(&serde_json::Value::Object(bench)) {
        Ok(body) => body,
        Err(e) => {
            obs::warn!("repro", "repro: warning: serialize BENCH_repro.json: {e}");
            return;
        }
    };
    check_prior_schema("BENCH_repro.json");
    match std::fs::write("BENCH_repro.json", body) {
        Ok(()) => obs::info!("repro", "wrote BENCH_repro.json"),
        Err(e) => obs::warn!("repro", "repro: warning: write BENCH_repro.json: {e}"),
    }
}

