//! The `repro` workload — regenerating every paper artifact from a fresh
//! analysis context — and the probes of the pipeline's layers
//! (microbenchmark suite, simulated measurement, PowerMon recording, fit,
//! parallel sweep).

use std::hint::black_box;
use std::time::Instant;

use archline_core::power::sample_intensities;
use archline_core::HierWorkload;
use archline_fit::{try_fit_platform, FitOptions};
use archline_machine::{spec_for, Engine, MeasurePlan, PlatformSpec, SpecPlan};
use archline_microbench::{run_suite, SweepConfig};
use archline_platforms::Precision;
use archline_repro::analysis::fast_config;
use archline_repro::{platforms_by_peak_efficiency, run_artifact, AnalysisContext, ARTIFACTS};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::metrics::Outcome;
use crate::stats::{mean, median, percentile};
use crate::Plan;

/// Seed whose regeneration is pinned in `reference/repro_seed65.txt`: the
/// sweep's default base seed.
pub const REFERENCE_SEED: u64 = 0x41;

/// Per-artifact digests of the default-config regeneration at
/// [`REFERENCE_SEED`], one `name hex` line each.
const REFERENCE: &str = include_str!("../reference/repro_seed65.txt");

/// Iterations the tail percentile (p90) needs.
pub const MIN_ITERATIONS: usize = 100;

/// The tail percentile this workload reports: the highest its
/// [`MIN_ITERATIONS`] iterations support.
pub const TAIL: f64 = 90.0;

/// The sweep configuration for `seed`: the paper's default sweep, or
/// `repro --fast`'s in a smoke run. Returns the config and the `fast` knob.
pub fn config(seed: u64, smoke: bool) -> (SweepConfig, bool) {
    let base = if smoke {
        fast_config()
    } else {
        SweepConfig::default()
    };
    (
        SweepConfig {
            base_seed: seed,
            ..base
        },
        smoke,
    )
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// What one regeneration produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Regen {
    /// FNV-1a 64 of each artifact's rendered text and JSON report.
    pub artifacts: Vec<(&'static str, u64)>,
    /// Failed artifacts and degraded platforms.
    pub problems: Vec<String>,
}

impl Regen {
    /// Digest over every artifact digest, in `ARTIFACTS` order.
    pub fn digest(&self) -> u64 {
        self.artifacts
            .iter()
            .fold(FNV_OFFSET, |h, (_, d)| fnv1a(h, &d.to_le_bytes()))
    }
}

/// Wall time of each pipeline stage within one traced regeneration.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    /// The first `ctx.analyses()`: the 12-platform measure-and-fit sweep.
    pub sweep_s: f64,
    /// `ctx.doubles()`: Table I's double-precision sweeps (0 when fast).
    pub doubles_s: f64,
    /// Every `run_artifact` call on the warm context.
    pub render_s: f64,
}

/// Regenerates all artifacts from a fresh context. With `stages`, the
/// sweep and double-precision stages are forced first so each stage is
/// timed on its own; the work done is the same.
pub fn regenerate(cfg: &SweepConfig, fast: bool, stages: Option<&mut StageTimes>) -> Regen {
    let ctx = AnalysisContext::new(*cfg);
    let mut render_start = None;
    if let Some(t) = stages {
        let start = Instant::now();
        black_box(ctx.analyses());
        t.sweep_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        if !fast {
            black_box(ctx.doubles());
        }
        t.doubles_s = start.elapsed().as_secs_f64();
        render_start = Some((Instant::now(), t));
    }
    let mut problems = Vec::new();
    let artifacts = ARTIFACTS
        .iter()
        .map(|&name| match run_artifact(name, &ctx, fast) {
            Ok((text, json)) => (
                name,
                fnv1a(
                    fnv1a(fnv1a(FNV_OFFSET, text.as_bytes()), &[0xff]),
                    json.as_bytes(),
                ),
            ),
            Err(e) => {
                problems.push(format!("artifact {name} failed: {}", e.message));
                (name, 0)
            }
        })
        .collect();
    if let Some((start, t)) = render_start {
        t.render_s = start.elapsed().as_secs_f64();
    }
    for f in ctx.failures() {
        problems.push(format!("platform {} degraded: {}", f.name, f.error));
    }
    Regen {
        artifacts,
        problems,
    }
}

/// The pinned reference digests, `(name, digest)`.
pub fn reference() -> Vec<(String, u64)> {
    REFERENCE
        .lines()
        .filter_map(|l| {
            let (name, hex) = l.trim().split_once(' ')?;
            Some((name.to_string(), u64::from_str_radix(hex.trim(), 16).ok()?))
        })
        .collect()
}

/// Renders per-artifact digests in the reference file's format.
pub fn render_digests(r: &Regen) -> String {
    r.artifacts
        .iter()
        .map(|(n, d)| format!("{n} {d:016x}\n"))
        .collect()
}

/// Checks a regeneration against the first one of the run and, at the
/// reference seed with the default sweep, against the pinned digests.
/// Returns whether every check passed.
pub fn check(first: &Regen, r: &Regen, pinned: bool, out: &mut Outcome) -> bool {
    for p in &r.problems {
        out.error(p.clone());
    }
    let same = r.artifacts == first.artifacts;
    if !same {
        out.error("regeneration differs from the run's first regeneration".to_string());
    }
    let want = reference();
    let matches_pin = !pinned
        || (want.len() == r.artifacts.len()
            && want
                .iter()
                .zip(&r.artifacts)
                .all(|((wn, wd), (n, d))| wn == n && wd == d));
    if !matches_pin {
        let changed: Vec<&str> = r
            .artifacts
            .iter()
            .filter(|(n, d)| !want.iter().any(|(wn, wd)| wn == n && wd == d))
            .map(|(n, _)| *n)
            .collect();
        out.error(format!(
            "artifacts differ from the pinned seed-65 digests: {changed:?}"
        ));
    }
    r.problems.is_empty() && same && matches_pin
}

/// Counts one measured regeneration and its checks into `out`.
fn count(first: &Regen, r: &Regen, pinned: bool, out: &mut Outcome) {
    out.attempted += 1;
    if !check(first, r, pinned, out) {
        out.failed += 1;
    }
}

/// One setup: a fresh context plus the throwaway warm-up regeneration.
pub fn setup(cfg: &SweepConfig, fast: bool) -> (f64, Regen) {
    let start = Instant::now();
    let r = regenerate(cfg, fast, None);
    (start.elapsed().as_secs_f64(), r)
}

/// Regenerates until `secs` have passed and at least `min_iters` ran.
/// Returns per-iteration seconds, checking each regeneration.
pub fn iterate(
    cfg: &SweepConfig,
    fast: bool,
    secs: f64,
    min_iters: usize,
    first: &Regen,
    pinned: bool,
    out: &mut Outcome,
) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_iters || start.elapsed().as_secs_f64() < secs {
        let t0 = Instant::now();
        let r = regenerate(cfg, fast, None);
        times.push(t0.elapsed().as_secs_f64());
        count(first, &r, pinned, out);
    }
    times
}

/// End-to-end metrics from per-iteration seconds; the p90 tail only when
/// `tail` (the short halves of a traced run cannot support it).
pub fn put_end_to_end(times: &[f64], tail: bool, out: &mut Outcome) -> Result<(), String> {
    let us: Vec<f64> = times.iter().map(|t| t * 1e6).collect();
    out.put("throughput", 1e6 / mean(&us), vec![]);
    if tail {
        out.put("latency_tail_us", percentile(&us, TAIL)?, vec![]);
    }
    out.put("latency_us", mean(&us), us);
    Ok(())
}

/// The suite's measured workloads and their seeds, in `run_suite` order:
/// the DRAM intensity sweep, the per-level streams, the pointer chase.
fn suite_workloads(spec: &PlatformSpec, cfg: &SweepConfig) -> Vec<(HierWorkload, u64)> {
    let mut out: Vec<(HierWorkload, u64)> =
        sample_intensities(cfg.intensity_lo, cfg.intensity_hi, cfg.points)
            .iter()
            .enumerate()
            .map(|(seq, &i)| {
                (
                    spec.intensity_workload(i, cfg.target_secs),
                    cfg.base_seed.wrapping_add(seq as u64),
                )
            })
            .collect();
    for li in (0..spec.levels.len()).filter(|&li| li != spec.dram_level()) {
        for k in 0..cfg.level_runs {
            let secs = cfg.target_secs * (0.5 + 0.5 * k as f64);
            let seed = cfg.base_seed.wrapping_add(1000 + (li * 100 + k) as u64);
            out.push((spec.level_stream_workload(li, secs), seed));
        }
    }
    if spec.random.is_some() {
        for k in 0..cfg.random_runs {
            let secs = cfg.target_secs * (0.5 + 0.5 * k as f64);
            out.push((
                spec.random_workload(secs),
                cfg.base_seed.wrapping_add(5000 + k as u64),
            ));
        }
    }
    out
}

fn counter(name: &str) -> u64 {
    archline_obs::metrics::snapshot().counter(name).unwrap_or(0)
}

/// Times each pipeline layer: stage-timed regenerations until `secs` have
/// passed and at least `min_reps` ran, then one serial pass over the
/// platforms timing the suite, the fit, and every suite measurement both
/// through `MeasurePlan::measure` and through the bare engine. Returns the
/// stage-timed regenerations' wall seconds.
pub fn layers(
    cfg: &SweepConfig,
    fast: bool,
    secs: f64,
    min_reps: usize,
    out: &mut Outcome,
) -> Vec<f64> {
    let mut stages = Vec::new();
    let mut wall = Vec::new();
    let mut first = None;
    let (mut calls, mut nm_evals) = (0, 0);
    let start = Instant::now();
    while stages.len() < min_reps.max(1) || start.elapsed().as_secs_f64() < secs {
        let mut t = StageTimes::default();
        let (runs0, nm0) = (counter("machine.runs"), counter("fit.nm_evals"));
        let t0 = Instant::now();
        let r = regenerate(cfg, fast, Some(&mut t));
        wall.push(t0.elapsed().as_secs_f64());
        (calls, nm_evals) = (
            counter("machine.runs") - runs0,
            counter("fit.nm_evals") - nm0,
        );
        count(first.get_or_insert_with(|| r.clone()), &r, false, out);
        stages.push(t);
    }
    let ms =
        |f: fn(&StageTimes) -> f64| -> Vec<f64> { stages.iter().map(|s| f(s) * 1e3).collect() };
    let sweep_ms = ms(|s| s.sweep_s);
    let sweep = median(&sweep_ms);
    out.put("repro.sweep_ms", sweep, sweep_ms);
    let doubles_ms = ms(|s| s.doubles_s);
    out.put("repro.doubles_ms", median(&doubles_ms), doubles_ms);
    let render_ms = ms(|s| s.render_s);
    out.put("repro.render_ms", median(&render_ms), render_ms);
    out.put("machine.measure_calls", calls as f64, vec![]);
    out.put("fit.nm_evals", nm_evals as f64, vec![]);

    let engine = Engine::default();
    let (mut suite_ms, mut fit_ms) = (Vec::new(), Vec::new());
    let (mut measure_s, mut engine_s, mut measured) = (0.0, 0.0, 0usize);
    for platform in platforms_by_peak_efficiency() {
        let spec = spec_for(&platform, Precision::Single);
        let start = Instant::now();
        let suite = run_suite(&spec, cfg, &engine);
        suite_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let start = Instant::now();
        if let Err(e) = try_fit_platform(&suite.dram, &FitOptions::default()) {
            out.error(format!("fit of {} failed: {e}", platform.name));
        }
        fit_ms.push(start.elapsed().as_secs_f64() * 1e3);

        let work = suite_workloads(&spec, cfg);
        let plan = MeasurePlan::new(&spec, engine);
        let start = Instant::now();
        for (w, seed) in &work {
            black_box(plan.measure(w, *seed));
        }
        measure_s += start.elapsed().as_secs_f64();
        let splan = SpecPlan::new(&spec);
        let start = Instant::now();
        for (w, seed) in &work {
            black_box(engine.run_planned(&splan, w, &mut StdRng::seed_from_u64(*seed)));
        }
        engine_s += start.elapsed().as_secs_f64();
        measured += work.len();
    }
    let serial_ms: f64 = suite_ms.iter().sum::<f64>() + fit_ms.iter().sum::<f64>();
    out.put("microbench.run_suite_ms", mean(&suite_ms), suite_ms);
    out.put("fit.fit_platform_ms", mean(&fit_ms), fit_ms);
    let per_call = |s: f64| s * 1e6 / measured.max(1) as f64;
    out.put("machine.measure_us", per_call(measure_s), vec![]);
    out.put("machine.engine_us", per_call(engine_s), vec![]);
    // Derived: the measurement chain's cost beyond the bare engine.
    out.put("powermon.record_us", per_call(measure_s - engine_s), vec![]);
    out.put("par.sweep_speedup", serial_ms / sweep, vec![]);
    out.note("pipeline.suite_measurements", measured);
    out.note("pipeline.serial_suite_fit_ms", serial_ms);
    wall
}

/// Runs the workload per `plan`.
pub fn run(plan: &Plan, out: &mut Outcome) -> Result<(), String> {
    let (cfg, fast) = config(plan.seed, plan.smoke);
    let pinned = plan.seed == REFERENCE_SEED && !fast;
    let mut setups = Vec::new();
    let mut first: Option<Regen> = None;
    for _ in 0..plan.setups {
        let (secs, r) = setup(&cfg, fast);
        setups.push(secs);
        check(first.get_or_insert_with(|| r.clone()), &r, pinned, out);
    }
    let first = first.ok_or("no setup ran")?;
    out.put("setup_s", median(&setups), setups);
    out.note("repro.digest", format!("{:016x}", first.digest()));
    if plan.traced {
        let plain = iterate(&cfg, fast, plan.trial_secs, 20, &first, pinned, out);
        put_end_to_end(&plain, false, out)?;
        let traced = layers(&cfg, fast, plan.trial_secs, 20, out);
        crate::put_trace_overhead(mean(&traced) * 1e6, out);
        let stages = ["repro.sweep_ms", "repro.doubles_ms", "repro.render_ms"];
        let staged: f64 = stages.iter().map(|n| out.metrics[n].value).sum();
        out.note(
            "repro.stages_over_regen",
            staged * 1e3 / out.metrics["latency_us"].value,
        );
    } else {
        let times = iterate(
            &cfg,
            fast,
            plan.seconds,
            MIN_ITERATIONS,
            &first,
            pinned,
            out,
        );
        put_end_to_end(&times, true, out)?;
    }
    out.note("repro.artifact_digests", render_digests(&first));
    Ok(())
}

/// One stage-timed regeneration and the layer pass, for another
/// workload's traced run.
pub fn probe(plan: &Plan, out: &mut Outcome) -> Result<(), String> {
    let (cfg, fast) = config(plan.seed, plan.smoke);
    layers(&cfg, fast, 0.0, 1, out);
    Ok(())
}
