//! The `serve-sweep` workload: large metric sweeps on the in-process
//! engine. Every request is above the packing limit and on the parallel
//! path, so grid synthesis, the batch kernels and the `par` executor do
//! the work and queueing does almost none. Also the probe of the batch
//! kernels themselves at the workload's sizes.

use std::hint::black_box;
use std::time::Instant;

use archline_core::power::sample_intensities;
use archline_core::RooflinePlan;
use archline_platforms::all_platforms;
use archline_serve::{Query, Request, Server, SweepMetric};

use crate::gen::SplitMix64;
use crate::inproc::{self, params_for, StatsSnap, Trial};
use crate::metrics::Outcome;
use crate::stats::median;
use crate::Plan;

/// Grid sizes, drawn evenly: all at or above `PAR_THRESHOLD` (2^15).
pub const SIZES: [usize; 4] = [1 << 15, 1 << 16, 1 << 17, 1 << 18];
/// Requests the single client keeps in flight.
pub const WINDOW: usize = 2;
const METRICS: [SweepMetric; 3] = [
    SweepMetric::Power,
    SweepMetric::Perf,
    SweepMetric::EnergyEff,
];
/// Answers per trial at least: enough for a supported p99.
const MIN_ANSWERS: u64 = 1000;
/// Answers in one warm-up.
const WARMUP_ANSWERS: u64 = 64;

/// Seeded sweep bodies: every platform once at every size, each metric
/// equally often at every size, seeded intensity ranges.
pub fn templates(seed: u64) -> Vec<Request> {
    let mut rng = SplitMix64::new(seed, 2);
    let platforms = all_platforms();
    let mut out = Vec::new();
    for &points in &SIZES {
        let mut metrics: Vec<SweepMetric> = (0..platforms.len())
            .map(|i| METRICS[i % METRICS.len()])
            .collect();
        rng.shuffle(&mut metrics);
        for (platform, metric) in platforms.iter().zip(metrics) {
            out.push(Request {
                id: 0,
                platform: platform.name.clone(),
                double_precision: false,
                cap: None,
                deadline_ms: None,
                trace: None,
                query: Query::Sweep {
                    metric,
                    lo: rng.log_uniform(0.01, 1.0),
                    hi: rng.log_uniform(16.0, 4096.0),
                    points,
                },
            });
        }
    }
    out
}

/// Median seconds per call of grid synthesis and of each metric's batch
/// kernel, parallel and serial, at one size.
#[derive(Debug, Clone, Copy)]
struct KernelTimes {
    grid: f64,
    par: [f64; 3],
    serial: [f64; 3],
}

fn kernel(plan: &RooflinePlan, m: usize, xs: &[f64], out: &mut [f64], serial: bool) {
    match (m, serial) {
        (0, false) => plan.avg_power_batch(xs, out),
        (1, false) => plan.perf_batch(xs, out),
        (_, false) => plan.energy_eff_batch(xs, out),
        (0, true) => plan.avg_power_batch_serial(xs, out),
        (1, true) => plan.perf_batch_serial(xs, out),
        (_, true) => plan.energy_eff_batch_serial(xs, out),
    }
}

/// Times `sample_intensities` and the batch kernels at every size,
/// `reps` times each, on one platform's plan.
fn kernel_times(reps: usize) -> Vec<(usize, KernelTimes)> {
    let plan = RooflinePlan::new(params_for(&templates(0)[0]));
    let time = |f: &mut dyn FnMut()| {
        let t = (0..reps.max(1))
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed().as_secs_f64()
            })
            .collect::<Vec<_>>();
        median(&t)
    };
    SIZES
        .iter()
        .map(|&n| {
            let grid = time(&mut || {
                black_box(sample_intensities(black_box(0.05), black_box(2048.0), n));
            });
            let xs = sample_intensities(0.05, 2048.0, n);
            let mut out = vec![0.0; n];
            let mut k = |serial| {
                [0, 1, 2].map(|m| {
                    time(&mut || {
                        kernel(&plan, m, black_box(&xs), &mut out, serial);
                        black_box(&out);
                    })
                })
            };
            (
                n,
                KernelTimes {
                    grid,
                    par: k(false),
                    serial: k(true),
                },
            )
        })
        .collect()
}

/// The core-layer metrics from [`kernel_times`].
fn put_kernels(times: &[(usize, KernelTimes)], out: &mut Outcome) {
    let points: f64 = times.iter().map(|(n, _)| *n as f64).sum();
    let grid: f64 = times.iter().map(|(_, t)| t.grid).sum();
    let par: f64 = times.iter().map(|(_, t)| t.par.iter().sum::<f64>()).sum();
    let serial: f64 = times
        .iter()
        .map(|(_, t)| t.serial.iter().sum::<f64>())
        .sum();
    out.put("core.grid_mpts", points / grid / 1e6, vec![]);
    out.put("core.kernel_mpts", 3.0 * points / par / 1e6, vec![]);
    out.put(
        "core.kernel_serial_mpts",
        3.0 * points / serial / 1e6,
        vec![],
    );
    out.put("par.kernel_speedup", serial / par, vec![]);
}

/// Share of the engine's kernel phase that grid synthesis plus the batch
/// kernel, timed alone at the same size and metric, do not explain.
fn put_overhead(
    t: &Trial,
    templates: &[Request],
    times: &[(usize, KernelTimes)],
    out: &mut Outcome,
) {
    let (mut phase_us, mut explained_us) = (0.0, 0.0);
    for (ph, &ti) in t.phases.iter().zip(&t.phase_template) {
        if let Query::Sweep { metric, points, .. } = &templates[ti].query {
            if let Some((_, k)) = times.iter().find(|(n, _)| n == points) {
                let m = METRICS.iter().position(|x| x == metric).unwrap_or(0);
                explained_us += (k.grid + k.par[m]) * 1e6;
                phase_us += ph.kernel_us as f64;
            }
        }
    }
    out.put(
        "serve.sweep_overhead_pct",
        (1.0 - explained_us / phase_us) * 100.0,
        vec![],
    );
}

/// A started, warmed engine and its traffic.
pub struct Ready {
    server: Server,
    templates: Vec<Request>,
}

/// One setup: engine start plus a fixed warm-up of the same traffic.
fn setup(seed: u64, out: &mut Outcome) -> (f64, Ready) {
    let start = Instant::now();
    let server = inproc::start(true);
    let templates = templates(seed);
    inproc::closed_loop(
        &server.handle(),
        &templates,
        seed ^ 0x5eed,
        1,
        WINDOW,
        0.0,
        WARMUP_ANSWERS,
        false,
        out,
    );
    (start.elapsed().as_secs_f64(), Ready { server, templates })
}

/// One closed-loop trial of the sweep traffic, until `secs` have passed
/// and at least `min` answers arrived.
fn trial(r: &Ready, seed: u64, secs: f64, min: u64, traced: bool, out: &mut Outcome) -> Trial {
    let h = r.server.handle();
    inproc::closed_loop(&h, &r.templates, seed, 1, WINDOW, secs, min, traced, out)
}

/// Kernel probe plus a traced stretch of sweep traffic.
fn layers(r: &Ready, seed: u64, secs: f64, reps: usize, out: &mut Outcome) -> Result<(), String> {
    let times = kernel_times(reps);
    put_kernels(&times, out);
    let handle = r.server.handle();
    let before = StatsSnap::take(handle.stats());
    // The p50s need 20 answers; the tails come from the full traced trials.
    let t = &trial(r, seed, secs, 20, true, out);
    before.put_delta(&StatsSnap::take(handle.stats()), out);
    inproc::put_layers(t, &handle, &r.templates, out)?;
    put_overhead(t, &r.templates, &times, out);
    Ok(())
}

/// Answered points per second, millions, of a trial.
fn mpts(t: &Trial, templates: &[Request]) -> f64 {
    let points: u64 = templates
        .iter()
        .zip(&t.uses)
        .map(|(r, &u)| match r.query {
            Query::Sweep { points, .. } => points as u64 * u,
            _ => 0,
        })
        .sum();
    points as f64 / t.secs / 1e6
}

/// Runs the workload per `plan`: every trial on a freshly started and
/// warmed engine.
pub fn run(plan: &Plan, out: &mut Outcome) -> Result<(), String> {
    let (mut setups, mut plain, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let mut mpts_per_trial = Vec::new();
    for i in 0..plan.trials {
        let (s, r) = setup(plan.seed, out);
        setups.push(s);
        let seed = plan.seed.wrapping_add(i as u64);
        let t = trial(&r, seed, plan.trial_secs, MIN_ANSWERS, false, out);
        mpts_per_trial.push(mpts(&t, &r.templates));
        plain.push(t);
        if plan.traced {
            traced.push(trial(&r, seed, plan.trial_secs, MIN_ANSWERS, true, out));
            if i + 1 == plan.trials {
                // Phase tails from the full traced trials; the layer
                // stretch is too short to support them.
                let phases: Vec<_> = traced
                    .iter()
                    .flat_map(|t: &Trial| t.phases.iter().copied())
                    .collect();
                inproc::put_phase_tails(&phases, out)?;
                layers(&r, plan.seed, plan.layer_secs, 7, out)?;
            }
        }
        r.server.shutdown();
    }
    out.put("setup_s", median(&setups), setups);
    // One window per trial: at under 1,000 sweeps per second, two windows
    // that each support a p99 would need 5 s of answers.
    inproc::put_end_to_end(&plain, false, out)?;
    out.note("serve_sweep.mpts", mpts_per_trial);
    if plan.traced {
        crate::put_trace_overhead(inproc::median_mean(&traced), out);
    }
    Ok(())
}

/// Kernel probe and short sweep traffic for another workload's traced run.
pub fn probe(plan: &Plan, out: &mut Outcome) -> Result<(), String> {
    let (_, r) = setup(plan.seed, out);
    layers(&r, plan.seed, plan.probe_secs, 3, out)?;
    r.server.shutdown();
    Ok(())
}
