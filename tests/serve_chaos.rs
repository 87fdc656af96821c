//! Chaos soak: drive every fault class through a live archline-serve
//! engine and assert the degradation contract holds.
//!
//! For each of the 10 [`FaultClass`]es, a fresh server runs with that
//! class injected (severity 1.0, seeded) on one *sabotaged* platform
//! while a *healthy* platform on a different shard keeps answering. The
//! contract under test:
//!
//! * **No panic escapes** — every query gets an answer, and a genuinely
//!   poisoned query (panicking kernel) degrades to a typed error while
//!   the worker keeps serving.
//! * **Every rejection is typed** — nothing but the documented `Reject`
//!   kinds comes back.
//! * **Audits appear exactly once** — one `fault/injected` trace event
//!   per injection application, all at site `serve`, naming the class.
//! * **Healthy shards answer bit-identically** — byte-for-byte equal to
//!   a direct `RooflinePlan` evaluation, even while the sabotaged
//!   shard's breaker is open.
//!
//! Corrupting classes must trip the sabotaged shard's breaker
//! (consecutive verification failures; a failed request fails once); the three
//! classes that are no-ops on run-shaped data (out-of-order, jitter,
//! rail-dropout) must leave answers intact and the breaker closed while
//! still being audited.
//!
//! Seeded via `ARCHLINE_CHAOS_SEED` (default 42) so CI can soak a seed
//! matrix; every assertion is seed-independent (severity 1.0 corrupts
//! regardless of the RNG draw).
//!
//! Every server here runs with `ServeConfig::default()` layered under the
//! chaos knobs, so workers batch whatever their queues hold: the whole
//! fault matrix (injection audits, breaker sequences, bit-identity on
//! healthy shards, drain-on-shutdown) holds with queue-depth batching on.
//! The queries are sequential, so the exact breaker sequences below do
//! not depend on how requests share batches.

use archline_core::RooflinePlan;
use archline_faults::{FaultClass, FaultPlan, FaultSpec};
use archline_platforms::{all_platforms, Precision};
use archline_serve::{
    BreakerState, Query, QueryResult, Reject, Request, ServeConfig, ServeHandle, Server,
    SweepMetric,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

fn chaos_seed() -> u64 {
    std::env::var("ARCHLINE_CHAOS_SEED").ok().and_then(|s| s.trim().parse().ok()).unwrap_or(42)
}

fn eval_req(id: u64, platform: &str) -> Request {
    Request {
        id,
        platform: platform.to_string(),
        double_precision: false,
        cap: None,
        deadline_ms: None,
        trace: None,
        query: Query::Eval {
            flops: (1..=8).map(|i| 3e9 * i as f64).collect(),
            bytes: (1..=8).map(|i| 5e8 / i as f64).collect(),
        },
    }
}

/// Picks a sabotaged platform and a healthy platform that hash to
/// different shards (so sabotage and health are physically separate
/// workers).
fn pick_platforms(handle: &ServeHandle) -> (String, String) {
    let names: Vec<String> = all_platforms()
        .iter()
        .filter(|p| p.machine_params(Precision::Single).is_ok())
        .map(|p| p.name.clone())
        .collect();
    let shard = |name: &str| handle.shard_of(&eval_req(0, name)).expect("resolvable");
    let sab = names.first().expect("catalog non-empty").clone();
    let healthy = names
        .iter()
        .find(|n| shard(n) != shard(&sab))
        .expect("two platforms on distinct shards")
        .clone();
    (sab, healthy)
}

/// Reference answer straight off the plan kernels, bypassing the server.
fn reference_eval(platform: &str, req: &Request) -> (Vec<u64>, Vec<u64>, Vec<u64>, Vec<char>) {
    let params = all_platforms()
        .into_iter()
        .find(|p| p.name == platform)
        .expect("platform")
        .machine_params(Precision::Single)
        .expect("single-precision model");
    let plan = RooflinePlan::new(params);
    let Query::Eval { flops, bytes } = &req.query else { panic!("eval request") };
    let mut t = Vec::new();
    let mut e = Vec::new();
    let mut p = Vec::new();
    let mut r = Vec::new();
    for (&w, &q) in flops.iter().zip(bytes) {
        let (ti, ei, pi, ri) = plan.evaluate(w, q);
        t.push(ti.to_bits());
        e.push(ei.to_bits());
        p.push(pi.to_bits());
        r.push(ri.letter());
    }
    (t, e, p, r)
}

fn assert_bit_identical(resp_result: &Result<QueryResult, Reject>, platform: &str, req: &Request) {
    let QueryResult::Eval { time, energy, power, regime } =
        resp_result.as_ref().unwrap_or_else(|e| panic!("healthy query rejected: {e}"))
    else {
        panic!("eval result expected");
    };
    let (rt, re, rp, rr) = reference_eval(platform, req);
    assert_eq!(time.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), rt);
    assert_eq!(energy.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), re);
    assert_eq!(power.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), rp);
    assert_eq!(regime, &rr);
}

/// Classes that corrupt run-shaped results (and so must trip the breaker
/// under severity-1.0 injection). The other three
/// are documented no-ops on runs.
fn corrupts_runs(class: FaultClass) -> bool {
    !matches!(class, FaultClass::OutOfOrder | FaultClass::Jitter | FaultClass::RailDropout)
}

#[test]
fn chaos_soak_every_fault_class_degrades_gracefully() {
    let seed = chaos_seed();
    for class in FaultClass::ALL {
        let (_, events) = archline_obs::test_support::capture(|| soak_one_class(class, seed));

        // Audit contract: every injection audit carries site "serve" and
        // the class under test; the count matches evaluated queries
        // exactly (admission-level rejections never reach injection).
        let audits: Vec<_> =
            events.iter().filter(|e| e.target == "fault" && e.name == "injected").collect();
        let expected = if corrupts_runs(class) { 3 } else { 6 };
        assert_eq!(
            audits.len(),
            expected,
            "{class}: one audit per injection application (got {})",
            audits.len()
        );
        for a in &audits {
            assert_eq!(a.get_str("site"), Some("serve"), "{class}: audit site");
            assert_eq!(a.get_str("class"), Some(class.name()), "{class}: audit class");
        }
    }
}

fn soak_one_class(class: FaultClass, seed: u64) {
    let spec = FaultSpec::new(class, 1.0, seed);
    let sabotaged_probe = Server::start(ServeConfig::default()).expect("probe server");
    let (sab, healthy) = pick_platforms(&sabotaged_probe.handle());
    sabotaged_probe.shutdown();

    let server = Server::start(ServeConfig {
        inject: vec![(sab.clone(), FaultPlan::new(vec![spec]))],
        breaker_trip: 3,
        breaker_cooldown: Duration::from_secs(3600),
        ..ServeConfig::default()
    })
    .expect("chaos server");
    let handle = server.handle();
    let sab_shard = handle.shard_of(&eval_req(0, &sab)).unwrap();

    // Phase 1: six sequential queries at the sabotaged platform.
    let mut kinds = Vec::new();
    for id in 1..=6u64 {
        let resp = handle.query(eval_req(id, &sab));
        assert_eq!(resp.id, id);
        match &resp.result {
            Ok(r) => {
                // Only the no-op classes may answer — and then the answer
                // must be exactly the uncorrupted one.
                assert!(!corrupts_runs(class), "{class}: corrupted answer returned: {r:?}");
                assert_bit_identical(&resp.result, &sab, &eval_req(id, &sab));
                kinds.push("ok");
            }
            Err(reject) => kinds.push(reject.kind()),
        }
    }
    if corrupts_runs(class) {
        // Three verification failures trip the breaker; the rest reject
        // at admission without evaluating.
        assert_eq!(
            kinds,
            ["internal", "internal", "internal", "breaker_open", "breaker_open", "breaker_open"],
            "{class}"
        );
        assert_eq!(handle.breaker_state(sab_shard), BreakerState::Open, "{class}");
    } else {
        assert_eq!(kinds, ["ok"; 6], "{class}: no-op injection must not degrade answers");
        assert_eq!(handle.breaker_state(sab_shard), BreakerState::Closed, "{class}");
    }

    // Phase 2: the healthy platform (different shard) answers
    // bit-identically while its neighbor is (possibly) breaker-open.
    for id in 10..14u64 {
        let req = eval_req(id, &healthy);
        let resp = handle.query(req.clone());
        assert_bit_identical(&resp.result, &healthy, &req);
    }

    // Phase 3: a genuinely poisoned query (panicking kernel) on the
    // healthy shard degrades to a typed internal error — and the worker
    // survives to answer the next query.
    let poisoned = Request {
        id: 99,
        platform: healthy.clone(),
        double_precision: false,
        cap: None,
        deadline_ms: None,
        trace: None,
        query: Query::Sweep { metric: SweepMetric::Perf, lo: -1.0, hi: 10.0, points: 8 },
    };
    match handle.query(poisoned).result {
        Err(Reject::Internal(msg)) => assert!(msg.contains("panic"), "{class}: {msg}"),
        other => panic!("{class}: poisoned query must reject typed, got {other:?}"),
    }
    let req = eval_req(100, &healthy);
    assert_bit_identical(&handle.query(req.clone()).result, &healthy, &req);

    // Phase 4: drain-on-shutdown answers everything already admitted.
    let late = handle.submit(eval_req(200, &healthy));
    let after = server.shutdown();
    assert!(late.wait().result.is_ok(), "{class}: admitted work survives shutdown");
    assert_eq!(
        after.handle_query_after_shutdown_kind(),
        "shutting_down",
        "{class}: post-drain admission is typed"
    );

    // Drain-time invariants: every admitted request was answered exactly
    // once, every queue gauge is back to zero, and no failure was retried
    // (the audit count above also pins one evaluation per failed query).
    let stats = after.stats();
    let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
    assert_eq!(
        load(&stats.accepted),
        load(&stats.completed) + load(&stats.failed) + load(&stats.deadline_expired),
        "{class}: accepted = completed + failed + deadline_expired"
    );
    for shard in 0..after.num_shards() {
        assert_eq!(after.shard_depth(shard), 0, "{class}: shard {shard} depth after drain");
    }
    assert_eq!(load(&stats.retries), 0, "{class}: nothing is retried");
}

/// Tiny extension trait so the soak reads declaratively above.
trait AfterShutdown {
    fn handle_query_after_shutdown_kind(&self) -> &'static str;
}

impl AfterShutdown for ServeHandle {
    fn handle_query_after_shutdown_kind(&self) -> &'static str {
        match self.query(eval_req(201, "GTX Titan")).result {
            Err(reject) => reject.kind(),
            Ok(_) => "ok",
        }
    }
}
