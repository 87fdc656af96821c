//! The `serve-eval` workload: small, plan-reusing point evaluations on the
//! in-process engine, so admission, queueing, the batching window and
//! cross-request packing dominate and no wire is involved.

use std::time::Instant;

use archline_serve::{Query, Request, Server};

use crate::gen::SplitMix64;
use crate::inproc::{self, StatsSnap, Trial};
use crate::metrics::Outcome;
use crate::stats::median;
use crate::Plan;

/// The four platforms the eval traffic spreads over (`bench_report`'s
/// serve set).
pub const PLATFORMS: [&str; 4] = ["GTX Titan", "Desktop CPU", "NUC CPU", "GTX 680"];
/// Points per eval request.
pub const POINTS: usize = 64;
/// Client threads.
pub const CLIENTS: usize = 2;
/// Requests each client keeps in flight.
pub const WINDOW: usize = 32;
/// Distinct request bodies per seed.
const POOL: usize = 256;
/// Answers per trial at least: enough for a supported p99.
const MIN_ANSWERS: u64 = 1000;
/// Answers in one warm-up.
const WARMUP_ANSWERS: u64 = 20_000;

/// Seeded eval request bodies: an equal share per platform, work and
/// intensity log-uniform over the figures' ranges.
pub fn templates(seed: u64) -> Vec<Request> {
    let mut rng = SplitMix64::new(seed, 1);
    (0..POOL)
        .map(|i| {
            let (mut flops, mut bytes) = (Vec::with_capacity(POINTS), Vec::with_capacity(POINTS));
            for _ in 0..POINTS {
                let w = rng.log_uniform(1e6, 1e12);
                flops.push(w);
                bytes.push(w / rng.log_uniform(0.0625, 1024.0));
            }
            Request {
                id: 0,
                platform: PLATFORMS[i % PLATFORMS.len()].to_string(),
                double_precision: false,
                cap: None,
                deadline_ms: None,
                trace: None,
                query: Query::Eval { flops, bytes },
            }
        })
        .collect()
}

/// A started, warmed engine and its traffic.
pub struct Ready {
    /// The engine under load.
    pub server: Server,
    /// The request bodies.
    pub templates: Vec<Request>,
}

/// One setup: engine start plus a fixed warm-up of the same traffic.
pub fn setup(seed: u64, telemetry: bool, out: &mut Outcome) -> (f64, Ready) {
    let start = Instant::now();
    let server = inproc::start(telemetry);
    let templates = templates(seed);
    inproc::closed_loop(
        &server.handle(),
        &templates,
        seed ^ 0x5eed,
        CLIENTS,
        WINDOW,
        0.0,
        WARMUP_ANSWERS,
        false,
        out,
    );
    let secs = start.elapsed().as_secs_f64();
    (secs, Ready { server, templates })
}

/// One closed-loop trial of the eval traffic.
fn trial(r: &Ready, seed: u64, secs: f64, traced: bool, out: &mut Outcome) -> Trial {
    let h = r.server.handle();
    inproc::closed_loop(
        &h,
        &r.templates,
        seed,
        CLIENTS,
        WINDOW,
        secs,
        MIN_ANSWERS,
        traced,
        out,
    )
}

/// Throughput of eval traffic with telemetry off against on, alternating
/// engines so drift falls on both sides: `(qps_off / qps_on - 1) * 100`.
fn telemetry_cost(seed: u64, pairs: usize, secs: f64, out: &mut Outcome) -> f64 {
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for i in 0..pairs {
        for telemetry in [i % 2 == 0, i % 2 != 0] {
            let (_, r) = setup(seed, telemetry, out);
            let t = trial(&r, seed, secs, false, out);
            if telemetry {
                on.push(t.throughput())
            } else {
                off.push(t.throughput())
            }
            r.server.shutdown();
        }
    }
    out.note("serve_eval.telemetry_on_qps", on.clone());
    out.note("serve_eval.telemetry_off_qps", off.clone());
    (median(&off) / median(&on) - 1.0) * 100.0
}

/// The engine's per-layer metrics from a traced stretch of eval traffic
/// and the telemetry on/off pair.
fn layers(r: &Ready, seed: u64, secs: f64, ab_secs: f64, out: &mut Outcome) -> Result<(), String> {
    let handle = r.server.handle();
    let before = StatsSnap::take(handle.stats());
    let t = &trial(r, seed, secs, true, out);
    before.put_delta(&StatsSnap::take(handle.stats()), out);
    inproc::put_layers(t, &handle, &r.templates, out)?;
    let cost = telemetry_cost(seed, 2, ab_secs, out);
    out.put("obs.telemetry_cost_pct", cost, vec![]);
    Ok(())
}

/// Runs the workload per `plan`: every trial on a freshly started and
/// warmed engine, so the run samples how the engine's threads happen to
/// settle rather than one instance of it.
pub fn run(plan: &Plan, out: &mut Outcome) -> Result<(), String> {
    let (mut setups, mut plain, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..plan.trials {
        let (s, r) = setup(plan.seed, true, out);
        setups.push(s);
        let seed = plan.seed.wrapping_add(i as u64);
        plain.push(trial(&r, seed, plan.trial_secs, false, out));
        if plan.traced {
            traced.push(trial(&r, seed, plan.trial_secs, true, out));
            if i + 1 == plan.trials {
                layers(&r, plan.seed, plan.layer_secs, plan.layer_secs / 4.0, out)?;
            }
        }
        r.server.shutdown();
    }
    out.put("setup_s", median(&setups), setups);
    inproc::put_end_to_end(&plain, true, out)?;
    if plan.traced {
        crate::put_trace_overhead(inproc::median_mean(&traced), out);
    }
    Ok(())
}

/// Short traced eval traffic for another workload's traced run.
pub fn probe(plan: &Plan, out: &mut Outcome) -> Result<(), String> {
    let (_, r) = setup(plan.seed, true, out);
    layers(&r, plan.seed, plan.probe_secs, plan.probe_secs / 4.0, out)?;
    r.server.shutdown();
    Ok(())
}
