//! Closed-loop load on the in-process engine (`ServeHandle`), shared by
//! the `serve-eval` and `serve-sweep` workloads, plus the bit-for-bit
//! answer checks against direct `RooflinePlan` evaluation.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use archline_core::power::sample_intensities;
use archline_core::{MachineParams, RooflinePlan};
use archline_platforms::{all_platforms, Precision};
use archline_serve::{
    CapOverride, Phases, Query, QueryResult, Request, ServeConfig, ServeHandle, ServeStats, Server,
    SweepMetric,
};

use crate::gen::{Deck, SplitMix64};
use crate::metrics::Outcome;
use crate::stats::{mean, median, percentile, samples_needed, windowed_percentiles};

/// Every this-many answers per client is checked bit for bit.
pub const CHECK_EVERY: u64 = 256;

/// The model parameters a request resolves to, computed here rather than
/// by the server so answers can be checked independently.
pub fn params_for(req: &Request) -> MachineParams {
    let platform = all_platforms()
        .into_iter()
        .find(|p| p.name == req.platform)
        .unwrap_or_else(|| panic!("benchmark platform `{}` not in the catalog", req.platform));
    let precision = if req.double_precision {
        Precision::Double
    } else {
        Precision::Single
    };
    let params = platform
        .machine_params(precision)
        .expect("benchmark platforms have a model");
    match req.cap {
        None => params,
        Some(CapOverride::Throttle(k)) => params.throttled(k),
        Some(other) => panic!("benchmark requests never carry {other:?}"),
    }
}

/// `true` when `got` equals direct plan evaluation of `req` bit for bit.
/// Handles eval and sweep queries (the in-process workloads' kinds).
pub fn answer_matches(req: &Request, got: &QueryResult) -> bool {
    let plan = RooflinePlan::new(params_for(req));
    let same = |a: &[f64], b: &[f64]| {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    };
    match (&req.query, got) {
        (
            Query::Eval { flops, bytes },
            QueryResult::Eval {
                time,
                energy,
                power,
                regime,
            },
        ) => {
            flops.len() == time.len()
                && flops.iter().zip(bytes).enumerate().all(|(i, (&f, &b))| {
                    let (t, e, p, r) = plan.evaluate(f, b);
                    t.to_bits() == time[i].to_bits()
                        && e.to_bits() == energy[i].to_bits()
                        && p.to_bits() == power[i].to_bits()
                        && r.letter() == regime[i]
                })
        }
        (
            Query::Sweep {
                metric,
                lo,
                hi,
                points,
            },
            QueryResult::Sweep { intensity, value },
        ) => {
            let xs = sample_intensities(*lo, *hi, *points);
            let mut want = vec![0.0; xs.len()];
            match metric {
                SweepMetric::Power => plan.avg_power_batch_serial(&xs, &mut want),
                SweepMetric::Perf => plan.perf_batch_serial(&xs, &mut want),
                SweepMetric::EnergyEff => plan.energy_eff_batch_serial(&xs, &mut want),
            }
            same(&xs, intensity) && same(&want, value)
        }
        _ => false,
    }
}

/// Engine counters read at the edges of a measured window.
#[derive(Debug, Clone, Copy, Default)]
pub struct StatsSnap {
    batches: u64,
    batched: u64,
    hits: u64,
    misses: u64,
    shed: u64,
    retries: u64,
}

impl StatsSnap {
    /// The engine's counters now.
    pub fn take(s: &ServeStats) -> Self {
        // ordering: Relaxed — statistics read after the window's answers
        // were all received, which already ordered their updates.
        let l = |c: &AtomicU64| c.load(Ordering::Relaxed);
        Self {
            batches: l(&s.batches),
            batched: l(&s.batched_requests),
            hits: l(&s.plan_cache_hits),
            misses: l(&s.plan_cache_misses),
            shed: l(&s.shed),
            retries: l(&s.retries),
        }
    }

    /// Records the window's occupancy, plan-cache hit rate, sheds and
    /// retries (`self` is the window's start).
    pub fn put_delta(&self, end: &StatsSnap, out: &mut Outcome) {
        let d = |a: u64, b: u64| b.saturating_sub(a) as f64;
        let batches = d(self.batches, end.batches);
        out.put(
            "serve.batch_occupancy",
            d(self.batched, end.batched) / batches.max(1.0),
            vec![],
        );
        let lookups = d(self.hits, end.hits) + d(self.misses, end.misses);
        out.put(
            "serve.plan_cache_hit_rate",
            d(self.hits, end.hits) / lookups.max(1.0),
            vec![],
        );
        out.put("serve.shed", d(self.shed, end.shed), vec![]);
        out.put("serve.retries", d(self.retries, end.retries), vec![]);
    }
}

/// Starts an engine with the default configuration (telemetry `on` or
/// off).
pub fn start(telemetry: bool) -> Server {
    Server::start(ServeConfig {
        telemetry,
        ..ServeConfig::default()
    })
    .expect("engine starts")
}

/// What one closed-loop trial measured.
#[derive(Debug, Default)]
pub struct Trial {
    /// Wall seconds from the first submit to the last answer.
    pub secs: f64,
    /// Answered successfully.
    pub completed: u64,
    /// Client-observed latency per answer, µs (submit to answer).
    pub latency_us: Vec<f64>,
    /// When each answer in `latency_us` arrived, seconds from the trial's
    /// start.
    pub done_s: Vec<f64>,
    /// Time inside `ServeHandle::submit`, µs (traced only).
    pub submit_us: Vec<f64>,
    /// The engine's phase envelope per answer (traced only).
    pub phases: Vec<Phases>,
    /// The template each `phases` entry answered (traced only).
    pub phase_template: Vec<usize>,
    /// Client latency minus the envelope's total, µs (traced only).
    pub handoff_us: Vec<f64>,
    /// Uses per template.
    pub uses: Vec<u64>,
}

impl Trial {
    /// Answers per second.
    pub fn throughput(&self) -> f64 {
        self.completed as f64 / self.secs
    }
}

/// Closed loop: `clients` threads each keep `window` requests in flight
/// (FIFO sliding window: wait for the oldest, submit the next) drawn from
/// `templates`, until `secs` have passed and at least `min_answers` were
/// answered. Every [`CHECK_EVERY`]th answer of each client is checked.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    handle: &ServeHandle,
    templates: &[Request],
    seed: u64,
    clients: usize,
    window: usize,
    secs: f64,
    min_answers: u64,
    traced: bool,
    out: &mut Outcome,
) -> Trial {
    let start = Instant::now();
    let stop_at = start + Duration::from_secs_f64(secs);
    let per_client = min_answers.div_ceil(clients as u64);
    let parts: Vec<(Trial, u64, u64, Vec<String>)> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..clients)
            .map(|c| {
                let mut deck = Deck::new(SplitMix64::new(seed, 100 + c as u64), templates.len());
                s.spawn(move || {
                    let mut t = Trial { uses: vec![0; templates.len()], ..Trial::default() };
                    let (mut attempted, mut failed, mut errors) = (0u64, 0u64, Vec::new());
                    let mut inflight = VecDeque::with_capacity(window);
                    let mut seq = 0u64;
                    let mut submit = |inflight: &mut VecDeque<_>, t: &mut Trial| {
                        let ti = deck.draw();
                        let mut req = templates[ti].clone();
                        req.id = ((c as u64) << 48) | seq;
                        t.uses[ti] += 1;
                        let t0 = Instant::now();
                        let ticket = handle.submit(req);
                        if traced {
                            t.submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
                        }
                        inflight.push_back((t0, ti, seq, ticket));
                        seq += 1;
                    };
                    for _ in 0..window {
                        submit(&mut inflight, &mut t);
                    }
                    while let Some((t0, ti, s, ticket)) = inflight.pop_front() {
                        let resp = ticket.wait();
                        let now = Instant::now();
                        let lat = now.duration_since(t0).as_secs_f64() * 1e6;
                        attempted += 1;
                        let wrong = match &resp.result {
                            _ if resp.id != ((c as u64) << 48) | s => {
                                Some(format!("answer id {} for request {s}", resp.id))
                            }
                            Ok(r) => {
                                t.completed += 1;
                                t.latency_us.push(lat);
                                t.done_s.push(now.duration_since(start).as_secs_f64());
                                (s % CHECK_EVERY == 0 && !answer_matches(&templates[ti], r)).then(
                                    || format!("answer {s} of client {c} differs from direct plan evaluation"),
                                )
                            }
                            Err(e) => Some(format!("request refused: {e}")),
                        };
                        if let Some(e) = wrong {
                            failed += 1;
                            if errors.len() < 8 {
                                errors.push(e);
                            }
                        }
                        if traced {
                            if let Some(ph) = resp.phases {
                                t.handoff_us.push(lat - ph.total_us as f64);
                                t.phases.push(ph);
                                t.phase_template.push(ti);
                            }
                        }
                        if now < stop_at || t.completed < per_client {
                            submit(&mut inflight, &mut t);
                        }
                    }
                    (t, attempted, failed, errors)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut all = Trial {
        secs: start.elapsed().as_secs_f64(),
        ..Trial::default()
    };
    all.uses = vec![0; templates.len()];
    for (t, attempted, failed, errors) in parts {
        all.completed += t.completed;
        all.latency_us.extend(t.latency_us);
        all.done_s.extend(t.done_s);
        all.submit_us.extend(t.submit_us);
        all.phases.extend(t.phases);
        all.phase_template.extend(t.phase_template);
        all.handoff_us.extend(t.handoff_us);
        for (a, u) in all.uses.iter_mut().zip(t.uses) {
            *a += u;
        }
        out.attempted += attempted;
        out.failed += failed;
        for e in errors {
            out.error(e);
        }
    }
    all
}

/// Median over trials of each trial's mean latency, µs.
pub fn median_mean(trials: &[Trial]) -> f64 {
    median(
        &trials
            .iter()
            .map(|t| mean(&t.latency_us))
            .collect::<Vec<_>>(),
    )
}

/// End-to-end throughput and latency: medians over trials of each trial's
/// throughput and mean latency, and the tail. With `windowed`, the tail is
/// the median over the trials' windows of each window's p99 (per trial,
/// the median of its windows), a window holding about twice the answers a
/// p99 needs; otherwise each trial is one window. The shorter the window,
/// the more host stalls per second it takes before the median window
/// holds one.
pub fn put_end_to_end(trials: &[Trial], windowed: bool, out: &mut Outcome) -> Result<(), String> {
    let qps: Vec<f64> = trials.iter().map(Trial::throughput).collect();
    let means: Vec<f64> = trials.iter().map(|t| mean(&t.latency_us)).collect();
    let windows = trials
        .iter()
        .map(|t| {
            let width = if windowed {
                (2.0 * samples_needed(99.0) as f64 / t.throughput()).min(t.secs)
            } else {
                t.secs
            };
            windowed_percentiles(&t.done_s, &t.latency_us, width, 99.0)
        })
        .collect::<Result<Vec<_>, _>>()?;
    out.put("throughput", median(&qps), qps);
    out.put("latency_us", median(&means), means);
    out.put_windowed("latency_tail_us", &windows);
    Ok(())
}

/// Per-layer engine metrics from a traced trial's samples: submit time,
/// phase percentiles, the client-side handoff, and how unevenly the
/// traffic's plans spread over the shards.
pub fn put_layers(
    t: &Trial,
    handle: &ServeHandle,
    templates: &[Request],
    out: &mut Outcome,
) -> Result<(), String> {
    let col =
        |f: fn(&Phases) -> u64| -> Vec<f64> { t.phases.iter().map(|p| f(p) as f64).collect() };
    let (queue, window, kernel) = (
        col(|p| p.queue_us),
        col(|p| p.window_us),
        col(|p| p.kernel_us),
    );
    out.put("serve.submit_us", percentile(&t.submit_us, 50.0)?, vec![]);
    out.put("serve.queue_us_p50", percentile(&queue, 50.0)?, vec![]);
    out.put("serve.window_us_p50", percentile(&window, 50.0)?, vec![]);
    out.put("serve.kernel_us_p50", percentile(&kernel, 50.0)?, vec![]);
    if t.phases.len() >= samples_needed(99.0) {
        put_phase_tails(&t.phases, out)?;
    }
    out.put(
        "serve.handoff_us_p50",
        percentile(&t.handoff_us, 50.0)?,
        vec![],
    );
    out.put(
        "serve.shard_max_share",
        shard_max_share(handle, templates, &t.uses),
        vec![],
    );
    Ok(())
}

/// p99 of the queue, window and kernel phases.
pub fn put_phase_tails(phases: &[Phases], out: &mut Outcome) -> Result<(), String> {
    let col = |f: fn(&Phases) -> u64| -> Vec<f64> { phases.iter().map(|p| f(p) as f64).collect() };
    out.put(
        "serve.queue_us_p99",
        percentile(&col(|p| p.queue_us), 99.0)?,
        vec![],
    );
    out.put(
        "serve.window_us_p99",
        percentile(&col(|p| p.window_us), 99.0)?,
        vec![],
    );
    out.put(
        "serve.kernel_us_p99",
        percentile(&col(|p| p.kernel_us), 99.0)?,
        vec![],
    );
    Ok(())
}

/// Largest share of the requests sent that `shard_of` maps to one shard.
pub fn shard_max_share(handle: &ServeHandle, templates: &[Request], uses: &[u64]) -> f64 {
    let mut per_shard = vec![0u64; handle.num_shards()];
    for (req, &n) in templates.iter().zip(uses) {
        if let Ok(s) = handle.shard_of(req) {
            per_shard[s] += n;
        }
    }
    let total: u64 = per_shard.iter().sum();
    per_shard.iter().copied().max().unwrap_or(0) as f64 / total.max(1) as f64
}
