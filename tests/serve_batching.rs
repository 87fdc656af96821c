//! Queue-depth invariance property suite: how deep a shard's queue runs
//! must be *invisible* in the answers. A worker picks one request at a
//! time and evaluates it on the plan compiled at its admission, under its
//! own panic guard.
//!
//! Every deep-queue case first submits a busy head request (a
//! `MAX_WIRE_POINTS` sweep) to the single shard and then submits the rest
//! while the worker is busy with it, so they wait in the queue and are
//! picked one after another. The reference serves each request alone
//! (submit and wait, nothing queued around it).
//!
//! * **Bit-identity vs one request at a time** — the same workload served
//!   alone and drained from a deep queue produces byte-for-byte identical
//!   answers, for every query kind: point evals, all three sweep metrics
//!   (small grids and, per metric, one grid on the parallel side of
//!   `PAR_THRESHOLD`), crossovers, and what-if cap overrides that multiply
//!   the distinct-plan count. Every sweep answer also equals the grid and
//!   serial kernel evaluated directly on the plan.
//! * **Poisoned-request isolation** — a sweep or crossover whose grid
//!   panics fails alone, with a typed `Internal` answer, one caught panic
//!   and one breaker failure; the requests queued with it on the same plan
//!   answer as usual. So does an eval whose fault-injected results fail
//!   verification.
//! * **Deadlines** — an already-expired request is answered with a typed
//!   `DeadlineExceeded` when a worker picks it.
//! * **Many plans in one queue** — a deep queue where every request
//!   carries a distinct plan still answers every request correctly and
//!   bit-identically to direct plan evaluation.
//! * **Accounting** — every request, the busy head included, is accepted
//!   and completed exactly once.
//! * **Phase truth** — one worker's `kernel` intervals never overlap, so
//!   their sum fits in the client's wall time; `window` is always 0 and
//!   `total` is exactly `queue + kernel`.
//! * **Telemetry invariance** — serving with the telemetry plane on vs
//!   off changes only the response envelope (trace ids, `phases_us`),
//!   never a result bit.

use archline_core::plan::PAR_THRESHOLD;
use archline_core::power::sample_intensities;
use archline_core::RooflinePlan;
use archline_faults::{FaultClass, FaultPlan, FaultSpec};
use archline_platforms::{all_platforms, Precision};
use archline_serve::protocol::MAX_WIRE_POINTS;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use archline_serve::{
    BreakerState, CapOverride, Query, QueryResult, Reject, Request, ServeConfig, ServeHandle,
    Server, SweepMetric,
};

fn req(id: u64, platform: &str, query: Query) -> Request {
    Request {
        id,
        platform: platform.to_string(),
        double_precision: false,
        cap: None,
        deadline_ms: None,
        trace: None,
        query,
    }
}

fn eval_query(n: usize, scale: f64) -> Query {
    Query::Eval {
        flops: (1..=n).map(|i| scale * 1e9 * i as f64).collect(),
        bytes: (1..=n).map(|i| 2e8 * i as f64).collect(),
    }
}

/// A mixed workload touching every query kind, several platforms, small,
/// mid-size and parallel-path sweeps, and throttle overrides (distinct
/// plans).
fn workload() -> Vec<Request> {
    let platforms = ["GTX Titan", "Desktop CPU", "NUC CPU", "GTX 680"];
    let mut reqs = Vec::new();
    let mut id = 0u64;
    let mut next_id = || {
        id += 1;
        id
    };
    for (pi, platform) in platforms.iter().enumerate() {
        for n in [1usize, 3, 16, 64] {
            reqs.push(req(next_id(), platform, eval_query(n, 1.0 + pi as f64)));
        }
        for metric in [SweepMetric::Power, SweepMetric::Perf, SweepMetric::EnergyEff] {
            reqs.push(req(next_id(), platform, Query::Sweep {
                metric,
                lo: 0.01,
                hi: 1e4,
                points: 33,
            }));
        }
        reqs.push(req(next_id(), platform, Query::Sweep {
            metric: SweepMetric::Perf,
            lo: 0.1,
            hi: 100.0,
            points: 5_000,
        }));
        reqs.push(req(next_id(), platform, Query::Crossover {
            other: platforms[(pi + 1) % platforms.len()].to_string(),
            metric: SweepMetric::EnergyEff,
            lo: 0.01,
            hi: 1e4,
            grid: 128,
        }));
        // What-if throttle: a distinct plan on the same platform.
        let mut throttled = req(next_id(), platform, eval_query(8, 1.0));
        throttled.cap = Some(CapOverride::Throttle(2.0 + pi as f64));
        reqs.push(throttled);
    }
    // One sweep per metric large enough for the parallel fused pass.
    for (mi, metric) in [SweepMetric::Power, SweepMetric::Perf, SweepMetric::EnergyEff]
        .into_iter()
        .enumerate()
    {
        reqs.push(req(next_id(), platforms[mi], Query::Sweep {
            metric,
            lo: 0.02,
            hi: 2e3,
            points: PAR_THRESHOLD + 123,
        }));
    }
    reqs
}

/// Answers sorted by request id.
type Answers = Vec<(u64, Result<QueryResult, Reject>)>;

/// A request that keeps a worker busy while a case's real requests queue
/// up behind it: a sweep of the most points a request may carry. Its id, 0, is one no workload uses.
fn busy_head() -> Request {
    req(0, "GTX Titan", Query::Sweep {
        metric: SweepMetric::Perf,
        lo: 0.1,
        hi: 100.0,
        points: MAX_WIRE_POINTS,
    })
}

/// Serves the whole workload behind a [`busy_head`] (submit the head,
/// then everything else, then wait), so a single-shard engine finds the
/// workload queued and drains it from a deep queue. Returns the
/// workload's answers sorted by id and the drained engine, for its stats.
fn serve_all(config: ServeConfig, reqs: &[Request]) -> (Answers, ServeHandle) {
    let server = Server::start(config).expect("server");
    let handle = server.handle();
    let head = handle.submit(busy_head());
    let tickets: Vec<_> = reqs.iter().map(|r| (r.id, handle.submit(r.clone()))).collect();
    let mut out: Vec<_> = tickets.into_iter().map(|(id, t)| (id, t.wait().result)).collect();
    assert!(head.wait().result.is_ok(), "the busy head request must answer");
    out.sort_by_key(|(id, _)| *id);
    (out, server.shutdown())
}

/// Serves each request alone: submit it and wait for its answer before
/// the next, with no busy head, so nothing is ever queued around it.
/// Returns the answers sorted by id.
fn serve_one_at_a_time(config: ServeConfig, reqs: &[Request]) -> Answers {
    let server = Server::start(config).expect("server");
    let handle = server.handle();
    let mut out: Answers = reqs.iter().map(|r| (r.id, handle.query(r.clone()).result)).collect();
    out.sort_by_key(|(id, _)| *id);
    server.shutdown();
    out
}

fn load(c: &AtomicU64) -> u64 {
    c.load(Ordering::Relaxed)
}

/// Bit-level equality: f64s compare by `to_bits`, so `-0.0` vs `0.0` or
/// NaN payloads would fail where `==` could lie.
fn assert_bits_equal(id: u64, a: &Result<QueryResult, Reject>, b: &Result<QueryResult, Reject>) {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    match (a, b) {
        (
            Ok(QueryResult::Eval { time: t0, energy: e0, power: p0, regime: r0 }),
            Ok(QueryResult::Eval { time: t1, energy: e1, power: p1, regime: r1 }),
        ) => {
            assert_eq!(bits(t0), bits(t1), "id {id}: eval time bits");
            assert_eq!(bits(e0), bits(e1), "id {id}: eval energy bits");
            assert_eq!(bits(p0), bits(p1), "id {id}: eval power bits");
            assert_eq!(r0, r1, "id {id}: eval regimes");
        }
        (
            Ok(QueryResult::Sweep { intensity: x0, value: v0 }),
            Ok(QueryResult::Sweep { intensity: x1, value: v1 }),
        ) => {
            assert_eq!(bits(x0), bits(x1), "id {id}: sweep grid bits");
            assert_eq!(bits(v0), bits(v1), "id {id}: sweep value bits");
        }
        (
            Ok(QueryResult::Crossover { crossings: c0 }),
            Ok(QueryResult::Crossover { crossings: c1 }),
        ) => {
            assert_eq!(c0.len(), c1.len(), "id {id}: crossing count");
            for ((x0, l0), (x1, l1)) in c0.iter().zip(c1) {
                assert_eq!(x0.to_bits(), x1.to_bits(), "id {id}: crossing intensity bits");
                assert_eq!(l0, l1, "id {id}: crossing lead side");
            }
        }
        (other_a, other_b) => {
            panic!("id {id}: result kinds diverge or rejected:\n  a: {other_a:?}\n  b: {other_b:?}")
        }
    }
}

/// The single-precision parameters of a catalog platform.
fn platform_params(name: &str) -> archline_core::MachineParams {
    all_platforms()
        .into_iter()
        .find(|p| p.name == name)
        .expect("platform")
        .machine_params(Precision::Single)
        .expect("single")
}

/// Fails unless a sweep's answer equals its grid followed by the metric's
/// serial kernel, evaluated directly on the request's plan. Other query
/// kinds pass through.
fn assert_sweep_matches_plan(r: &Request, result: &Result<QueryResult, Reject>) {
    let Query::Sweep { metric, lo, hi, points } = &r.query else { return };
    assert!(r.cap.is_none(), "sweep {}: the direct plan here has no cap override", r.id);
    let plan = RooflinePlan::new(platform_params(&r.platform));
    let xs = sample_intensities(*lo, *hi, *points);
    let mut want = vec![0.0; xs.len()];
    match metric {
        SweepMetric::Power => plan.avg_power_batch_serial(&xs, &mut want),
        SweepMetric::Perf => plan.perf_batch_serial(&xs, &mut want),
        SweepMetric::EnergyEff => plan.energy_eff_batch_serial(&xs, &mut want),
    }
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let Ok(QueryResult::Sweep { intensity, value }) = result else {
        panic!("sweep {} rejected: {result:?}", r.id);
    };
    assert_eq!(bits(intensity), bits(&xs), "sweep {}: grid bits", r.id);
    assert_eq!(bits(value), bits(&want), "sweep {}: value bits", r.id);
}

fn one_shard() -> ServeConfig {
    ServeConfig { shards: 1, ..ServeConfig::default() }
}

#[test]
fn windowed_packed_serving_is_bit_identical_to_unbatched() {
    let reqs = workload();
    let reference = serve_one_at_a_time(one_shard(), &reqs);
    for (r, (id, answer)) in reqs.iter().zip(&reference) {
        assert_eq!(r.id, *id);
        assert_sweep_matches_plan(r, answer);
    }

    // One shard forces every plan through the same worker, which drains
    // the whole workload from a deep queue.
    let (queued, _) = serve_all(one_shard(), &reqs);
    assert_eq!(reference.len(), queued.len());
    for ((id_a, a), (id_b, b)) in reference.iter().zip(&queued) {
        assert_eq!(id_a, id_b);
        assert_bits_equal(*id_a, a, b);
    }

    // The default engine, its plans spread over four shards, must be just
    // as invisible.
    let (default_answers, _) = serve_all(ServeConfig::default(), &reqs);
    for ((id_a, a), (id_b, b)) in reference.iter().zip(&default_answers) {
        assert_eq!(id_a, id_b);
        assert_bits_equal(*id_a, a, b);
    }
}

#[test]
fn telemetry_on_and_off_answer_bit_identically() {
    // The telemetry plane rides the response *envelope* (trace ids,
    // phases_us); the result payloads must be byte-for-byte identical
    // with it on (the default) and off — observation must not perturb
    // the observable.
    let reqs = workload();
    let (on, _) =
        serve_all(ServeConfig { shards: 1, telemetry: true, ..ServeConfig::default() }, &reqs);
    let (off, _) =
        serve_all(ServeConfig { shards: 1, telemetry: false, ..ServeConfig::default() }, &reqs);
    assert_eq!(on.len(), off.len());
    for ((id_a, a), (id_b, b)) in on.iter().zip(&off) {
        assert_eq!(id_a, id_b);
        assert_bits_equal(*id_a, a, b);
    }

    // And the envelope itself honors the toggle: telemetry-on responses
    // carry a minted trace + phase breakdown, telemetry-off responses
    // carry neither (no client trace was supplied).
    let probe = |telemetry: bool| {
        let server = Server::start(ServeConfig {
            shards: 1,
            telemetry,
            ..ServeConfig::default()
        })
        .expect("server");
        let resp = server.handle().query(req(1, "GTX Titan", eval_query(4, 1.0)));
        server.shutdown();
        resp
    };
    let with = probe(true);
    assert!(with.result.is_ok(), "{:?}", with.result);
    assert!(with.trace.is_some(), "telemetry on mints a trace");
    let phases = with.phases.expect("telemetry on attaches phases");
    assert_eq!(phases.window_us, 0, "there is no window phase");
    assert_eq!(
        phases.total_us,
        phases.queue_us + phases.kernel_us,
        "phase decomposition must sum exactly to the total"
    );
    let without = probe(false);
    assert!(without.result.is_ok(), "{:?}", without.result);
    assert!(without.trace.is_none(), "telemetry off mints nothing");
    assert!(without.phases.is_none(), "telemetry off stamps nothing");
}

#[test]
fn windowed_serving_actually_coalesces() {
    // 128 requests queued behind a busy head all answer, and the books
    // close: each one, the head included, is accepted and completed once.
    let reqs: Vec<Request> =
        (0..128).map(|i| req(i + 1, "GTX Titan", eval_query(16, 1.0))).collect();
    let (answers, after) = serve_all(one_shard(), &reqs);
    for (id, result) in &answers {
        assert!(result.is_ok(), "request {id}: {result:?}");
    }
    let stats = after.stats();
    assert_eq!(load(&stats.accepted), 129, "128 requests plus the head");
    assert_eq!(load(&stats.completed), 129, "128 requests plus the head");
}

#[test]
fn kernel_phases_of_one_worker_never_overlap() {
    // One worker answers one request at a time, so the `kernel` intervals
    // (pick to answer) of its requests are disjoint and all lie inside
    // the client's wall time from the first submit to the last answer.
    // Their sum therefore fits in that wall time — unless a request's
    // kernel phase also counts time spent on other requests.
    let server = Server::start(one_shard()).expect("server");
    let handle = server.handle();
    let sweeps: Vec<Request> = (0..32)
        .map(|i| {
            req(i + 1, "GTX Titan", Query::Sweep {
                metric: SweepMetric::Perf,
                lo: 0.1,
                hi: 100.0,
                points: 1 << 15,
            })
        })
        .collect();
    let start = Instant::now();
    let head = handle.submit(busy_head());
    let tickets: Vec<_> = sweeps.into_iter().map(|r| handle.submit(r)).collect();
    let answers: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
    let head = head.wait();
    let wall_us = start.elapsed().as_micros() as u64;
    server.shutdown();

    let phases: Vec<_> = answers
        .iter()
        .chain([&head])
        .map(|resp| {
            assert!(resp.result.is_ok(), "request {}: {:?}", resp.id, resp.result);
            (resp.id, resp.phases.expect("telemetry is on"))
        })
        .collect();
    let kernel_sum: u64 =
        phases.iter().filter(|(id, _)| *id != 0).map(|(_, ph)| ph.kernel_us).sum();
    assert!(
        kernel_sum <= wall_us,
        "the 32 kernel phases sum to {kernel_sum} us, more than the {wall_us} us wall time \
         they all lie in"
    );
    for (id, ph) in phases {
        assert_eq!(ph.window_us, 0, "request {id}: {ph:?}");
        assert_eq!(ph.total_us, ph.queue_us + ph.kernel_us, "request {id}: {ph:?}");
    }
}

#[test]
fn deadlines_are_honored_at_window_boundaries() {
    // An already-expired deadline rejects typed when a worker picks it.
    let server = Server::start(one_shard()).expect("server");
    let handle = server.handle();
    let mut expired = req(1, "GTX Titan", eval_query(4, 1.0));
    expired.deadline_ms = Some(0);
    assert_eq!(handle.query(expired).result, Err(Reject::DeadlineExceeded));
    server.shutdown();
}

#[test]
fn many_distinct_plans_in_one_batch_answer_correctly() {
    // Every queued request carries its own plan (distinct throttle
    // factors), all on one shard. Answers must match direct plan
    // evaluation bit-for-bit.
    let n = 100u64;
    let params = all_platforms()
        .into_iter()
        .find(|p| p.name == "GTX Titan")
        .expect("platform")
        .machine_params(Precision::Single)
        .expect("single");
    let reqs: Vec<Request> = (0..n)
        .map(|i| {
            let mut r = req(i + 1, "GTX Titan", eval_query(4, 1.0));
            r.cap = Some(CapOverride::Throttle(1.0 + i as f64 * 0.25));
            r
        })
        .collect();
    let (answers, _) = serve_all(one_shard(), &reqs);
    for (i, (_, result)) in answers.iter().enumerate() {
        let plan = RooflinePlan::new(params.throttled(1.0 + i as f64 * 0.25));
        let Ok(QueryResult::Eval { time, energy, power, .. }) = result else {
            panic!("request {i} rejected: {result:?}");
        };
        let Query::Eval { flops, bytes } = &reqs[i].query else { unreachable!() };
        for (k, (&w, &q)) in flops.iter().zip(bytes).enumerate() {
            let (t, e, p, _) = plan.evaluate(w, q);
            assert_eq!(t.to_bits(), time[k].to_bits(), "request {i} point {k}: time");
            assert_eq!(e.to_bits(), energy[k].to_bits(), "request {i} point {k}: energy");
            assert_eq!(p.to_bits(), power[k].to_bits(), "request {i} point {k}: power");
        }
    }
}

#[test]
fn packed_sweeps_match_direct_kernel_evaluation() {
    // Beyond server-vs-server identity: sweep answers must equal the
    // *direct* kernel over the request's own grid, also when many sweeps
    // wait in one queue.
    let params = all_platforms()
        .into_iter()
        .find(|p| p.name == "NUC CPU")
        .expect("platform")
        .machine_params(Precision::Single)
        .expect("single");
    let plan = RooflinePlan::new(params);
    let reqs: Vec<Request> = (0..12u64)
        .map(|i| {
            let metric = match i % 3 {
                0 => SweepMetric::Power,
                1 => SweepMetric::Perf,
                _ => SweepMetric::EnergyEff,
            };
            req(i + 1, "NUC CPU", Query::Sweep {
                metric,
                lo: 0.01 * (1.0 + i as f64),
                hi: 1e3,
                points: 17 + i as usize,
            })
        })
        .collect();
    let (answers, _) = serve_all(one_shard(), &reqs);
    for ((_, result), r) in answers.iter().zip(&reqs) {
        let Query::Sweep { metric, lo, hi, points } = &r.query else { unreachable!() };
        let xs = sample_intensities(*lo, *hi, *points);
        let mut want = vec![0.0; xs.len()];
        match metric {
            SweepMetric::Power => plan.avg_power_batch(&xs, &mut want),
            SweepMetric::Perf => plan.perf_batch(&xs, &mut want),
            SweepMetric::EnergyEff => plan.energy_eff_batch(&xs, &mut want),
        }
        let Ok(QueryResult::Sweep { intensity, value }) = result else {
            panic!("sweep {} rejected: {result:?}", r.id);
        };
        for k in 0..xs.len() {
            assert_eq!(xs[k].to_bits(), intensity[k].to_bits(), "sweep {} grid[{k}]", r.id);
            assert_eq!(want[k].to_bits(), value[k].to_bits(), "sweep {} value[{k}]", r.id);
        }
    }
}

#[test]
fn a_poisoned_sweep_fails_alone_and_its_batchmates_answer() {
    // Queued behind the busy head, on one plan: a poisoned query (a sweep
    // or a crossover whose grid panics at `lo = 0`), an eval, a good sweep
    // and a good crossover. Only the poisoned request fails; the breaker
    // trips at two consecutive failures, so it would open if a request
    // queued with it failed too.
    let poisons = [
        Query::Sweep { metric: SweepMetric::Perf, lo: 0.0, hi: 10.0, points: 64 },
        Query::Crossover {
            other: "GTX 680".to_string(),
            metric: SweepMetric::Perf,
            lo: 0.0,
            hi: 10.0,
            grid: 64,
        },
    ];
    for poison in poisons {
        let reqs = vec![
            req(1, "NUC CPU", poison),
            req(2, "NUC CPU", eval_query(16, 1.0)),
            req(3, "NUC CPU", Query::Sweep {
                metric: SweepMetric::EnergyEff,
                lo: 0.1,
                hi: 10.0,
                points: 64,
            }),
            req(4, "NUC CPU", Query::Crossover {
                other: "GTX 680".to_string(),
                metric: SweepMetric::EnergyEff,
                lo: 0.01,
                hi: 1e4,
                grid: 128,
            }),
        ];
        let config = ServeConfig { shards: 1, breaker_trip: 2, ..ServeConfig::default() };
        let (answers, after) = serve_all(config.clone(), &reqs);
        let want = Err(Reject::Internal("panic: bad intensity range".to_string()));
        assert_eq!(answers[0].1, want, "the poisoned request gets a typed internal answer");
        let stats = after.stats();
        assert_eq!(load(&stats.panics_caught), 1, "one poisoned request, one caught panic");
        assert_eq!(load(&stats.failed), 1, "one poisoned request, one failure");
        assert_eq!(after.breaker_state(0), BreakerState::Closed, "one failure does not trip the breaker");

        let reference = serve_one_at_a_time(config, &reqs);
        assert_eq!(reference[0].1, want);
        for ((id, a), (_, b)) in answers.iter().zip(&reference).skip(1) {
            assert_bits_equal(*id, a, b);
        }
        assert_sweep_matches_plan(&reqs[2], &answers[2].1);
    }
}

#[test]
fn a_sabotaged_eval_fails_alone_and_its_batchmates_answer() {
    // Chaos mode drops every one of the platform's eval results, so the
    // eval fails verification. Queued behind the busy head on the same
    // plan, a sweep and a crossover (never injected) must still answer,
    // bit-identically to serving each alone; the breaker trips at two
    // consecutive failures, so it would open if another request failed too.
    let reqs = vec![
        req(1, "NUC CPU", eval_query(16, 1.0)),
        req(2, "NUC CPU", Query::Sweep {
            metric: SweepMetric::EnergyEff,
            lo: 0.1,
            hi: 10.0,
            points: 64,
        }),
        req(3, "NUC CPU", Query::Crossover {
            other: "GTX 680".to_string(),
            metric: SweepMetric::EnergyEff,
            lo: 0.01,
            hi: 1e4,
            grid: 128,
        }),
    ];
    let config = ServeConfig {
        shards: 1,
        breaker_trip: 2,
        inject: vec![(
            "NUC CPU".to_string(),
            FaultPlan::new(vec![FaultSpec::new(FaultClass::Drop, 1.0, 7)]),
        )],
        ..ServeConfig::default()
    };
    let (answers, after) = serve_all(config.clone(), &reqs);
    let want =
        Err(Reject::Internal("injected corruption changed the result count (16 -> 0)".to_string()));
    assert_eq!(answers[0].1, want, "the sabotaged eval gets a typed internal answer");
    let stats = after.stats();
    assert_eq!(load(&stats.failed), 1, "one sabotaged eval, one failure");
    assert_eq!(load(&stats.panics_caught), 0, "verification fails typed, not by panic");
    assert_eq!(after.breaker_state(0), BreakerState::Closed, "one failure does not trip the breaker");

    let reference = serve_one_at_a_time(config, &reqs);
    assert_eq!(reference[0].1, want);
    for ((id, a), (_, b)) in answers.iter().zip(&reference).skip(1) {
        assert_bits_equal(*id, a, b);
    }
    assert_sweep_matches_plan(&reqs[1], &answers[1].1);
}
