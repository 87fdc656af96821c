//! The query engine: sharded workers over [`RooflinePlan`]s with
//! admission control, deadlines, circuit breakers, and drain-on-shutdown.
//!
//! Requests are admitted on the caller's thread (validate + resolve +
//! compile the plan + breaker check + bounded `try_send`), then a shard
//! worker picks one request at a time, answers it at once if its deadline
//! has passed, and otherwise evaluates it under its own panic guard and
//! answers it. A plan is a few divisions over six constants, so each
//! request carries its own, compiled once at admission: a parameter set
//! the model rejects is a typed `bad_request` there and never reaches a
//! worker.
//!
//! [`RooflinePlan`]: archline_core::RooflinePlan

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use archline_core::{crossovers, EnergyRoofline, MachineParams, Metric, PowerCap, RooflinePlan};
use archline_faults::{FaultPlan, FaultSpec};
use archline_fit::Run;
use archline_obs::{self as obs, field, Gauge, Histogram, MetricsSnapshot};
use archline_platforms::{all_platforms, Platform, Precision};

use crate::breaker::{Breaker, BreakerState};
use crate::protocol::{
    CapOverride, Phases, Query, QueryResult, Reject, Request, Response, SweepMetric, TraceId,
};
use crate::telemetry;

/// Engine configuration. `Default` is the production setting the
/// `archline-serve` binary starts from. Its flags set `shards`,
/// `queue_bound`, `deadline`, `inject` and `telemetry`; the
/// other fields have no flag, so the binary runs with their defaults and
/// only in-process callers change them.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker shards, one breaker each. The 12 catalog platforms share the default 4, so a
    /// tripped breaker also refuses its shard's healthy co-tenants. Minimum 1.
    pub shards: usize,
    /// Bounded queue length per shard; a full queue sheds. Minimum 1.
    pub queue_bound: usize,
    /// Default per-request deadline (a request's `deadline_ms` overrides).
    pub deadline: Duration,
    /// Most points/grid entries accepted per request.
    pub max_points: usize,
    /// Consecutive failures that trip a shard's breaker (default 5).
    pub breaker_trip: u32,
    /// Time a tripped breaker stays open before a half-open probe
    /// (default 100 ms).
    pub breaker_cooldown: Duration,
    /// Chaos mode: corrupt these platforms' evaluation results with the
    /// given fault plans before validation (the `--inject` flag).
    pub inject: Vec<(String, FaultPlan)>,
    /// Request telemetry: mint trace ids, stamp per-phase timestamps,
    /// record the phase histograms, and attach `trace`/`phases_us` to
    /// responses. Off leaves answers bit-identical minus those envelope
    /// fields (`--metrics off`).
    pub telemetry: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            queue_bound: 256,
            deadline: Duration::from_secs(2),
            max_points: crate::protocol::MAX_WIRE_POINTS,
            breaker_trip: 5,
            breaker_cooldown: Duration::from_millis(100),
            inject: Vec::new(),
            telemetry: true,
        }
    }
}

/// One engine's request accounting: the only counters serve keeps. The
/// `stats` and `metrics` wire ops both render from [`ServeStats::table`],
/// so two engines in one process never count into each other.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Admitted into a shard queue.
    pub accepted: AtomicU64,
    /// Shed by a full queue.
    pub shed: AtomicU64,
    /// Rejected when a worker picked it: deadline passed.
    pub deadline_expired: AtomicU64,
    /// Rejected at admission: breaker open.
    pub breaker_rejected: AtomicU64,
    /// Rejected at admission: malformed.
    pub bad_request: AtomicU64,
    /// Rejected at admission: server draining.
    pub shutdown_rejected: AtomicU64,
    /// Answered successfully.
    pub completed: AtomicU64,
    /// Evaluation failed; answered with a typed internal error.
    pub failed: AtomicU64,
    /// Always 0: the engine never retries (its kernels are deterministic,
    /// so a failed request fails once, typed). Kept so readers of this
    /// field still compile; not exposed on the wire.
    pub retries: AtomicU64,
    /// Panics caught in evaluation.
    pub panics_caught: AtomicU64,
    /// Requests picked by a worker. Each pick is one request, so this
    /// always equals `batched_requests`. Kept, like `retries`, only so
    /// perfbench still compiles and reads an occupancy of exactly 1; not
    /// exposed on the wire.
    pub batches: AtomicU64,
    /// Requests picked by a worker; see `batches`.
    pub batched_requests: AtomicU64,
    /// Always 0: each request's plan is compiled once at admission, so
    /// there is no plan cache to hit. Kept, like `retries`, so readers of
    /// this field still compile; not exposed on the wire.
    pub plan_cache_hits: AtomicU64,
    /// Always 0, for the same reason as `plan_cache_hits`.
    pub plan_cache_misses: AtomicU64,
}

impl ServeStats {
    fn bump(counter: &AtomicU64) {
        // ordering: Relaxed — admission statistics; readers take snapshots
        // and tolerate torn cross-counter views.
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Every exposed counter as `(exposition name, value)`. The `metrics`
    /// op publishes these names as-is (`serve.accepted` scrapes as
    /// `serve_accepted`); the `stats` op keys them without the `serve.`
    /// prefix (`accepted`, `bad_request`).
    pub fn table(&self) -> [(&'static str, u64); 8] {
        // ordering: Relaxed — observational snapshot of statistics.
        let v = |c: &AtomicU64| c.load(Ordering::Relaxed);
        [
            ("serve.accepted", v(&self.accepted)),
            ("serve.shed", v(&self.shed)),
            ("serve.deadline_expired", v(&self.deadline_expired)),
            ("serve.breaker_rejected", v(&self.breaker_rejected)),
            ("serve.bad_request", v(&self.bad_request)),
            ("serve.completed", v(&self.completed)),
            ("serve.failed", v(&self.failed)),
            ("serve.panics_caught", v(&self.panics_caught)),
        ]
    }
}

/// One queued request, resolved and compiled at admission.
struct Pending {
    id: u64,
    plan: RooflinePlan,
    platform: String,
    other_params: Option<MachineParams>,
    query: Query,
    deadline: Instant,
    enqueued: Instant,
    /// The trace this request runs under: the client's, or minted at
    /// admission when telemetry is on (`None` = telemetry off and the
    /// client sent none — nothing to echo).
    trace: Option<TraceId>,
    reply: mpsc::Sender<Response>,
}

struct Shard {
    sender: RwLock<Option<SyncSender<Pending>>>,
    breaker: Breaker,
    /// Live queue depth (`serve.shard<i>.queue_depth`); moves only by
    /// `adjust_owned`, so racing admissions and drains never lose updates.
    depth: Gauge,
}

struct Inner {
    config: ServeConfig,
    shards: Vec<Shard>,
    catalog: HashMap<String, Platform>,
    accepting: AtomicBool,
    stats: ServeStats,
    phases: telemetry::PhaseHistograms,
    /// Admission-to-response latency, microseconds.
    latency_us: Histogram,
    /// Injection applications so far (rotates injected seeds so each
    /// application corrupts afresh while staying deterministic).
    injections_applied: AtomicU64,
    /// Engine start (uptime basis).
    started: Instant,
}

/// Rolls back the optimistic depth accounting of an admission whose send
/// never published the request (queue full, shard shut down). Safe to run
/// any time: no worker decrement exists for an unpublished request.
fn undo_depth(shard: &Shard) {
    shard.depth.adjust_owned(-1);
}

/// FNV-1a over the parameter bits, used only to pick the shard: equal params co-locate, and the
/// 12 catalog platforms share 4 breakers, so a tripped one also refuses its shard's healthy
/// co-tenants. The cap arm is folded in so a what-if cap override hashes apart from its platform.
fn params_key(p: &MachineParams) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let (cap_tag, cap_bits) = match p.cap {
        PowerCap::Uncapped => (0u64, 0u64),
        PowerCap::Capped(w) => (1u64, w.to_bits()),
    };
    [
        p.time_per_flop.to_bits(),
        p.time_per_byte.to_bits(),
        p.energy_per_flop.to_bits(),
        p.energy_per_byte.to_bits(),
        p.const_power.to_bits(),
        cap_tag,
        cap_bits,
    ]
    .iter()
    .fold(OFFSET, |h, &word| {
        word.to_le_bytes().iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(PRIME))
    })
}

/// An admitted request's pending answer. Dropping it abandons the answer
/// (the worker's send just fails); waiting blocks until the worker (or
/// the admission path) responds.
pub struct Ticket {
    rx: Receiver<Response>,
    id: u64,
}

impl Ticket {
    /// Blocks for the response. If the engine dropped the reply channel
    /// without answering (a worker died outside its unwind guard — never
    /// expected), synthesizes a typed internal error rather than hanging.
    pub fn wait(self) -> Response {
        self.rx.recv().unwrap_or_else(|_| {
            Response::reject(self.id, Reject::Internal("reply channel closed".to_string()))
        })
    }

    /// Non-blocking poll; `None` while the answer is still in flight.
    pub fn try_wait(&self) -> Option<Response> {
        self.rx.try_recv().ok()
    }
}

/// Cloneable front door to a running [`Server`].
#[derive(Clone)]
pub struct ServeHandle {
    inner: Arc<Inner>,
}

/// A running engine: owns the worker threads. Admission flows through
/// [`ServeHandle`]s; [`Server::shutdown`] drains and joins.
pub struct Server {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Spawns the shard workers. Fails (with a message suitable for a
    /// usage error) when an injected platform name is unknown.
    pub fn start(config: ServeConfig) -> Result<Server, String> {
        let catalog: HashMap<String, Platform> =
            all_platforms().into_iter().map(|p| (p.name.clone(), p)).collect();
        for (name, _) in &config.inject {
            if !catalog.contains_key(name) {
                let mut known: Vec<&str> = catalog.keys().map(|s| s.as_str()).collect();
                known.sort_unstable();
                return Err(format!(
                    "inject: unknown platform `{name}` (one of: {})",
                    known.join(", ")
                ));
            }
        }
        let config = ServeConfig {
            shards: config.shards.max(1),
            queue_bound: config.queue_bound.max(1),
            ..config
        };
        let mut shards = Vec::with_capacity(config.shards);
        let mut receivers = Vec::with_capacity(config.shards);
        for _ in 0..config.shards {
            let (tx, rx) = sync_channel::<Pending>(config.queue_bound);
            shards.push(Shard {
                sender: RwLock::new(Some(tx)),
                breaker: Breaker::new(config.breaker_trip, config.breaker_cooldown),
                depth: Gauge::new("serve.shard.queue_depth"),
            });
            receivers.push(rx);
        }
        let inner = Arc::new(Inner {
            config,
            shards,
            catalog,
            accepting: AtomicBool::new(true),
            stats: ServeStats::default(),
            phases: telemetry::phase_histograms(),
            latency_us: Histogram::new("serve.latency_us"),
            injections_applied: AtomicU64::new(0),
            started: Instant::now(),
        });
        let workers = receivers
            .into_iter()
            .enumerate()
            .map(|(shard_idx, rx)| {
                let inner = Arc::clone(&inner);
                let scope = obs::current_scope();
                std::thread::Builder::new()
                    .name(format!("serve-shard-{shard_idx}"))
                    .spawn(move || {
                        let _scope = scope.enter();
                        worker_loop(inner, shard_idx, rx)
                    })
                    .map_err(|e| format!("spawn shard {shard_idx}: {e}"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        obs::info!(
            "serve",
            "serve: started {} shards (queue {}, deadline {:?})",
            inner.config.shards,
            inner.config.queue_bound,
            inner.config.deadline
        );
        Ok(Server { inner, workers })
    }

    /// A cloneable admission handle.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle { inner: Arc::clone(&self.inner) }
    }

    /// Stops admission, drains every queued request (in-flight work
    /// completes and is answered), joins the workers, and returns a
    /// handle for post-drain stats inspection.
    pub fn shutdown(mut self) -> ServeHandle {
        // ordering: Release — pairs with the admission path's Acquire
        // loads: an admitter that observes the closed flag also observes
        // every write sequenced before shutdown began. One-time
        // transition, so the stronger-than-strictly-needed edge is free.
        self.inner.accepting.store(false, Ordering::Release);
        for shard in &self.inner.shards {
            // Dropping the original sender disconnects the channel once
            // transient admission clones are gone; the worker drains what
            // is queued, then exits.
            shard.sender.write().unwrap_or_else(|e| e.into_inner()).take();
        }
        for (i, w) in self.workers.drain(..).enumerate() {
            if w.join().is_err() {
                obs::error!("serve", "serve: shard {i} worker panicked outside its guard");
            }
        }
        obs::info!("serve", "serve: drained and stopped");
        ServeHandle { inner: Arc::clone(&self.inner) }
    }
}

impl ServeHandle {
    /// Shard count.
    pub fn num_shards(&self) -> usize {
        self.inner.config.shards
    }

    /// Per-engine request accounting.
    pub fn stats(&self) -> &ServeStats {
        &self.inner.stats
    }

    /// A shard's breaker state (ops/test surface).
    pub fn breaker_state(&self, shard: usize) -> BreakerState {
        self.inner.shards[shard].breaker.state()
    }

    /// Time since this engine started.
    pub fn uptime(&self) -> Duration {
        self.inner.started.elapsed()
    }

    /// Shard `shard`'s live queue depth (the `serve.shard<i>.queue_depth`
    /// gauge).
    pub fn shard_depth(&self, shard: usize) -> u64 {
        self.inner.shards[shard].depth.get()
    }

    /// This engine's instruments merged into the process-wide obs
    /// snapshot (par/fit/faults): the [`ServeStats::table`] counters,
    /// summed breaker transitions, per-shard depth gauges, and the
    /// latency and phase histograms.
    pub(crate) fn metrics(&self) -> MetricsSnapshot {
        let inner = &self.inner;
        let mut snap = obs::metrics::snapshot();
        snap.counters.extend(inner.stats.table().map(|(n, v)| (n.to_string(), v)));
        let mut transitions = [0u64; 4];
        for shard in &inner.shards {
            for (sum, v) in transitions.iter_mut().zip(shard.breaker.transitions()) {
                *sum += v;
            }
        }
        snap.counters.extend(
            Breaker::TRANSITIONS.iter().zip(transitions).map(|(n, v)| (n.to_string(), v)),
        );
        snap.gauges.extend(inner.shards.iter().enumerate().map(|(i, s)| {
            (format!("serve.shard{i}.queue_depth"), s.depth.get(), s.depth.max())
        }));
        snap.histograms.extend(
            std::iter::once(&inner.latency_us)
                .chain(inner.phases.iter().flatten())
                .map(Histogram::snapshot),
        );
        snap.counters.sort();
        snap.gauges.sort();
        snap.histograms.sort_by(|a, b| a.name.cmp(&b.name));
        snap
    }

    /// Records a response's wire-measured serialization time.
    pub(crate) fn record_serialize(&self, resp: &Response, us: u64) {
        telemetry::record_serialize(&self.inner.phases, resp, us);
    }

    /// Which shard a request's resolved parameters map to, or the typed
    /// rejection its resolution would produce. Lets tests pick platforms
    /// on distinct shards.
    pub fn shard_of(&self, req: &Request) -> Result<usize, Reject> {
        let plan = self.resolve(&req.platform, req.double_precision, req.cap)?;
        Ok((params_key(plan.params()) % self.inner.config.shards as u64) as usize)
    }

    /// Submits a request; every outcome — including immediate typed
    /// rejection — arrives through the returned [`Ticket`].
    pub fn submit(&self, req: Request) -> Ticket {
        let (tx, rx) = mpsc::channel();
        let ticket = Ticket { rx, id: req.id };
        match self.admit(req, &tx) {
            Ok(()) => {}
            Err(resp) => {
                let _ = tx.send(resp);
            }
        }
        ticket
    }

    /// Submit and block for the answer.
    pub fn query(&self, req: Request) -> Response {
        self.submit(req).wait()
    }

    /// Resolves platform + precision + cap override into model parameters
    /// and compiles their plan, or the `BadRequest` naming what failed —
    /// including a parameter the override pushed out of the model's range
    /// (a tiny throttle makes `Δπ/k` infinite).
    fn resolve(
        &self,
        platform: &str,
        double_precision: bool,
        cap: Option<CapOverride>,
    ) -> Result<RooflinePlan, Reject> {
        let entry = self
            .inner
            .catalog
            .get(platform)
            .ok_or_else(|| Reject::BadRequest(format!("unknown platform `{platform}`")))?;
        let precision = if double_precision { Precision::Double } else { Precision::Single };
        let params = entry.machine_params(precision).map_err(|e| {
            Reject::BadRequest(format!("`{platform}` has no {precision:?} model: {e}"))
        })?;
        let params = match cap {
            None => params,
            Some(CapOverride::Uncapped) => params.uncapped(),
            Some(CapOverride::Throttle(k)) => {
                if !(k.is_finite() && k > 0.0) {
                    return Err(Reject::BadRequest(format!("throttle must be > 0, got {k}")));
                }
                params.throttled(k)
            }
            Some(CapOverride::Watts(w)) => MachineParams { cap: PowerCap::Capped(w), ..params },
        };
        RooflinePlan::try_new(params)
            .map_err(|e| Reject::BadRequest(format!("invalid model for `{platform}`: {e}")))
    }

    /// The admission path: validate, resolve and compile the plan,
    /// breaker-check, bounded enqueue. Runs on the caller's thread; never
    /// blocks on a queue.
    ///
    /// The `Err` payload is the full rejection `Response` (envelope fields
    /// included), handed straight to the reply channel by the one caller —
    /// boxing it would only add an allocation to the shed path.
    #[allow(clippy::result_large_err)]
    fn admit(&self, req: Request, reply: &mpsc::Sender<Response>) -> Result<(), Response> {
        let inner = &self.inner;
        let id = req.id;
        // With telemetry on every admitted request runs under a trace
        // (client-supplied or minted); rejections echo the client's trace
        // only — minting an id for a request that never entered would make
        // the trace vocabulary lie about admission.
        let trace = if inner.config.telemetry {
            Some(req.trace.unwrap_or_else(telemetry::mint_trace))
        } else {
            req.trace
        };
        // ordering: Acquire — pairs with the Release store in `shutdown`;
        // admission after the flag flips must see the drained senders.
        if !inner.accepting.load(Ordering::Acquire) {
            ServeStats::bump(&inner.stats.shutdown_rejected);
            return Err(Response::reject(id, Reject::ShuttingDown).with_trace(req.trace));
        }
        if let Err(reject) = validate_query(&req.query, inner.config.max_points) {
            ServeStats::bump(&inner.stats.bad_request);
            return Err(Response::reject(id, reject).with_trace(req.trace));
        }
        let resolved = self.resolve(&req.platform, req.double_precision, req.cap).and_then(|plan| {
            let other = match &req.query {
                Query::Crossover { other, .. } => {
                    Some(*self.resolve(other, req.double_precision, None)?.params())
                }
                _ => None,
            };
            Ok((plan, other))
        });
        let (plan, other_params) = match resolved {
            Ok(r) => r,
            Err(reject) => {
                ServeStats::bump(&inner.stats.bad_request);
                return Err(Response::reject(id, reject).with_trace(req.trace));
            }
        };
        let shard_idx = (params_key(plan.params()) % inner.config.shards as u64) as usize;
        let shard = &inner.shards[shard_idx];
        if !shard.breaker.admit() {
            ServeStats::bump(&inner.stats.breaker_rejected);
            if obs::enabled(obs::Level::Debug) {
                obs::emit(
                    obs::Level::Debug,
                    "serve",
                    "rejected",
                    &[
                        field("id", id),
                        field("kind", "breaker_open"),
                        field("shard", shard_idx),
                    ],
                );
            }
            return Err(
                Response::reject(id, Reject::BreakerOpen { shard: shard_idx })
                    .with_trace(req.trace),
            );
        }
        let now = Instant::now();
        let deadline =
            now + req.deadline_ms.map(Duration::from_millis).unwrap_or(inner.config.deadline);
        let pending = Pending {
            id,
            plan,
            platform: req.platform,
            other_params,
            query: req.query,
            deadline,
            enqueued: now,
            trace,
            reply: reply.clone(),
        };
        let sender = {
            let guard = shard.sender.read().unwrap_or_else(|e| e.into_inner());
            match guard.as_ref() {
                Some(tx) => tx.clone(),
                None => {
                    ServeStats::bump(&inner.stats.shutdown_rejected);
                    return Err(Response::reject(id, Reject::ShuttingDown).with_trace(req.trace));
                }
            }
        };
        // Gauge up *before* the send publishes the request: the worker's
        // matching decrement can only run after the send, so it always
        // observes this increment — adjusting after the send races a fast
        // worker into a zero-saturated decrement that strands the gauge
        // one high. Undone on the rejection arms below.
        shard.depth.adjust_owned(1);
        match sender.try_send(pending) {
            Ok(()) => {
                ServeStats::bump(&inner.stats.accepted);
                Ok(())
            }
            Err(TrySendError::Full(_)) => {
                undo_depth(shard);
                ServeStats::bump(&inner.stats.shed);
                if obs::enabled(obs::Level::Debug) {
                    obs::emit(
                        obs::Level::Debug,
                        "serve",
                        "rejected",
                        &[field("id", id), field("kind", "overloaded"), field("shard", shard_idx)],
                    );
                }
                Err(Response::reject(id, Reject::Overloaded { shard: shard_idx })
                    .with_trace(req.trace))
            }
            Err(TrySendError::Disconnected(_)) => {
                undo_depth(shard);
                ServeStats::bump(&inner.stats.shutdown_rejected);
                Err(Response::reject(id, Reject::ShuttingDown).with_trace(req.trace))
            }
        }
    }
}

/// Shape validation at admission. Semantic validity (e.g. a sweep's
/// `lo > 0`) is deliberately left to the kernels: their panics are the
/// poisoned-query path the `catch_unwind` isolation converts to typed
/// errors.
fn validate_query(query: &Query, max_points: usize) -> Result<(), Reject> {
    match query {
        Query::Eval { flops, bytes } => {
            if flops.is_empty() {
                return Err(Reject::BadRequest("`flops` must be non-empty".to_string()));
            }
            if flops.len() != bytes.len() {
                return Err(Reject::BadRequest(format!(
                    "`flops` ({}) and `bytes` ({}) must be the same length",
                    flops.len(),
                    bytes.len()
                )));
            }
            if flops.len() > max_points {
                return Err(Reject::BadRequest(format!("at most {max_points} points")));
            }
        }
        Query::Sweep { points, .. } => {
            if *points < 2 || *points > max_points {
                return Err(Reject::BadRequest(format!(
                    "`points` must be in 2..={max_points}, got {points}"
                )));
            }
        }
        Query::Crossover { grid, .. } => {
            if *grid > max_points {
                return Err(Reject::BadRequest(format!("`grid` must be <= {max_points}")));
            }
        }
    }
    Ok(())
}

/// Answers `p`, which a worker picked at `picked`.
fn respond(inner: &Inner, p: &Pending, picked: Instant, result: Result<QueryResult, Reject>) {
    let ok = result.is_ok();
    let now = Instant::now();
    let total_us = now.saturating_duration_since(p.enqueued).as_micros() as u64;
    inner.latency_us.record_owned(total_us);
    // Phase decomposition: queue (enqueued→picked) and kernel (picked→here,
    // this request alone); `window` is always 0. The phase total is defined
    // as the sum of the parts so it holds exactly despite each duration
    // flooring its own microsecond conversion (the raw enqueued→now
    // measurement, off by at most 1us, still feeds `latency_us` above); the
    // serialize phase is measured later, at the wire layer.
    let phases = if inner.config.telemetry {
        let queue_us = picked.saturating_duration_since(p.enqueued).as_micros() as u64;
        let kernel_us = now.saturating_duration_since(picked).as_micros() as u64;
        let ph = Phases { queue_us, window_us: 0, kernel_us, total_us: queue_us + kernel_us };
        if ok {
            telemetry::record_phases(&inner.phases, telemetry::kind_index(&p.query), &ph);
        }
        Some(ph)
    } else {
        None
    };
    // Count before replying: a client holding its answer must never read
    // a `stats` that has not counted it yet.
    if ok {
        ServeStats::bump(&inner.stats.completed);
    }
    let _ = p.reply.send(Response { id: p.id, trace: p.trace, phases, result });
}

/// One shard's worker: picks one request at a time and answers it before
/// picking the next. Each request is evaluated on the plan compiled at its
/// admission, under its own panic guard: the model is pointwise, so
/// grouping requests would save no arithmetic.
fn worker_loop(inner: Arc<Inner>, shard_idx: usize, rx: Receiver<Pending>) {
    let shard = &inner.shards[shard_idx];
    // Block for work; a disconnect means every sender is gone (shutdown)
    // and the queue is fully drained.
    while let Ok(p) = rx.recv() {
        // End of the queue-wait phase: this worker now holds the request.
        let picked = Instant::now();
        shard.depth.adjust_owned(-1);
        ServeStats::bump(&inner.stats.batches);
        ServeStats::bump(&inner.stats.batched_requests);
        // Cooperative cancellation at pick time: an expired request is
        // answered without evaluation. Deadline outcomes never touch the
        // breaker — a queueing delay is not an evaluation failure.
        if p.deadline <= picked {
            ServeStats::bump(&inner.stats.deadline_expired);
            respond(&inner, &p, picked, Err(Reject::DeadlineExceeded));
            continue;
        }
        let result = guarded(&inner, || evaluate(&inner, &p)).and_then(|r| r);
        match &result {
            Ok(_) => shard.breaker.on_success(),
            Err(why) => {
                // A failed request fails once: it counts one breaker
                // failure and gets a typed `Internal` answer.
                ServeStats::bump(&inner.stats.failed);
                shard.breaker.on_failure();
                if obs::enabled(obs::Level::Debug) {
                    obs::emit(
                        obs::Level::Debug,
                        "serve",
                        "rejected",
                        &[
                            field("id", p.id),
                            field("kind", "internal"),
                            field("shard", shard_idx),
                            field("detail", why.clone()),
                        ],
                    );
                }
            }
        }
        respond(&inner, &p, picked, result.map_err(Reject::Internal));
    }
    obs::debug!("serve", "serve: shard {shard_idx} drained");
}

/// Runs `f` under a panic guard: a panic becomes the `Err` text of a typed
/// `Internal` answer, counted once in `panics_caught`.
fn guarded<T>(inner: &Inner, f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        ServeStats::bump(&inner.stats.panics_caught);
        format!("panic: {}", panic_text(payload))
    })
}

fn core_metric(metric: SweepMetric) -> Metric {
    match metric {
        SweepMetric::Power => Metric::Power,
        SweepMetric::Perf => Metric::Performance,
        SweepMetric::EnergyEff => Metric::EnergyEfficiency,
    }
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// One request's kernel pass on its own plan; `Err` fails this request
/// only.
///
/// An eval is one fused [`RooflinePlan::evaluate_batch`] written straight
/// into its answer columns. A sweep is one [`RooflinePlan::sweep`] call,
/// which builds its grid and evaluates its metric in the same pass
/// (parallel above the kernel threshold). A crossover runs its own grid
/// search.
fn evaluate(inner: &Inner, p: &Pending) -> Result<QueryResult, String> {
    let plan = &p.plan;
    match &p.query {
        Query::Eval { flops, bytes } => {
            let n = flops.len();
            let (mut time, mut energy, mut power) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
            let mut regime = vec![archline_core::Regime::MemoryBound; n];
            plan.evaluate_batch(flops, bytes, &mut time, &mut energy, &mut power, &mut regime);
            verify_injected(inner, &p.platform, flops, bytes, &time, &energy)?;
            let regime = regime.iter().map(|r| r.letter()).collect();
            Ok(QueryResult::Eval { time, energy, power, regime })
        }
        Query::Sweep { metric, lo, hi, points } => {
            let (intensity, value) = plan.sweep(core_metric(*metric), *lo, *hi, *points);
            Ok(QueryResult::Sweep { intensity, value })
        }
        Query::Crossover { metric, lo, hi, grid, .. } => {
            // Admission resolves the comparison platform before the request
            // reaches a shard; a missing resolution is an admission bug and
            // fails this request only.
            let other = p.other_params.ok_or_else(|| {
                "internal: crossover admitted without resolved comparison params".to_string()
            })?;
            let a = EnergyRoofline::new(*plan.params());
            let b = EnergyRoofline::new(other);
            let crossings = crossovers(&a, &b, core_metric(*metric), *lo, *hi, *grid)
                .into_iter()
                .map(|c| (c.intensity, c.a_leads_below))
                .collect();
            Ok(QueryResult::Crossover { crossings })
        }
    }
}

/// Chaos mode: routes one eval's results through its platform's fault plan
/// (runs-shaped, audited at site "serve"), then checks the injected runs
/// against the computed bits. Detection is honest redundancy: the injected
/// path simulates a flaky compute backend, and the server refuses to
/// return answers that fail verification. A platform with no fault plan
/// passes untouched.
fn verify_injected(
    inner: &Inner,
    platform: &str,
    flops: &[f64],
    bytes: &[f64],
    time: &[f64],
    energy: &[f64],
) -> Result<(), String> {
    let Some((_, fault_plan)) = inner.config.inject.iter().find(|(name, _)| name == platform)
    else {
        return Ok(());
    };
    // ordering: Relaxed — the counter only needs to hand each application a
    // distinct rotation for seed derivation; no other shared data rides on it.
    let rotation = inner.injections_applied.fetch_add(1, Ordering::Relaxed);
    let rotated = FaultPlan::new(
        fault_plan
            .specs
            .iter()
            .map(|s| FaultSpec::new(s.class, s.severity, s.seed.wrapping_add(rotation)))
            .collect(),
    );
    let runs: Vec<Run> = (0..time.len())
        .map(|i| Run {
            flops: flops[i],
            bytes: bytes[i],
            accesses: 0.0,
            time: time[i],
            energy: energy[i],
        })
        .collect();
    let injected = rotated.apply_to_runs_at(runs, "serve");
    if injected.len() != time.len() {
        return Err(format!(
            "injected corruption changed the result count ({} -> {})",
            time.len(),
            injected.len()
        ));
    }
    let clean = time.iter().zip(energy).zip(&injected).all(|((t, e), r)| {
        t.to_bits() == r.time.to_bits() && e.to_bits() == r.energy.to_bits()
    });
    if !clean {
        return Err("fault-injected corruption detected by result verification".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval_req(id: u64, platform: &str, n: usize) -> Request {
        Request {
            id,
            platform: platform.to_string(),
            double_precision: false,
            cap: None,
            deadline_ms: None,
            trace: None,
            query: Query::Eval {
                flops: (1..=n).map(|i| 1e9 * i as f64).collect(),
                bytes: (1..=n).map(|i| 2e8 * i as f64).collect(),
            },
        }
    }

    #[test]
    fn answers_match_the_scalar_plan_bit_for_bit() {
        let server = Server::start(ServeConfig::default()).unwrap();
        let handle = server.handle();
        let resp = handle.query(eval_req(1, "GTX Titan", 16));
        let Ok(QueryResult::Eval { time, energy, power, regime }) = resp.result else {
            panic!("{resp:?}");
        };
        let params = all_platforms()
            .into_iter()
            .find(|p| p.name == "GTX Titan")
            .unwrap()
            .machine_params(Precision::Single)
            .unwrap();
        let plan = RooflinePlan::new(params);
        for i in 0..16 {
            let (t, e, pw, r) = plan.evaluate(1e9 * (i + 1) as f64, 2e8 * (i + 1) as f64);
            assert_eq!(t.to_bits(), time[i].to_bits());
            assert_eq!(e.to_bits(), energy[i].to_bits());
            assert_eq!(pw.to_bits(), power[i].to_bits());
            assert_eq!(r.letter(), regime[i]);
        }
        server.shutdown();
    }

    #[test]
    fn what_if_cap_overrides_change_the_answer() {
        let server = Server::start(ServeConfig::default()).unwrap();
        let handle = server.handle();
        let base = handle.query(eval_req(1, "Desktop CPU", 4));
        let mut capped_req = eval_req(2, "Desktop CPU", 4);
        capped_req.cap = Some(CapOverride::Throttle(8.0));
        let capped = handle.query(capped_req);
        let mut uncapped_req = eval_req(3, "Desktop CPU", 4);
        uncapped_req.cap = Some(CapOverride::Uncapped);
        let uncapped = handle.query(uncapped_req);
        let t = |r: &Response| match &r.result {
            Ok(QueryResult::Eval { time, .. }) => time.clone(),
            other => panic!("{other:?}"),
        };
        assert!(t(&capped).iter().zip(t(&base)).any(|(c, b)| *c > b), "throttle slows");
        assert!(t(&uncapped).iter().zip(t(&base)).all(|(u, b)| *u <= b), "uncapped never slower");
        server.shutdown();
    }

    #[test]
    fn unknown_platform_is_a_typed_bad_request() {
        let server = Server::start(ServeConfig::default()).unwrap();
        let handle = server.handle();
        let resp = handle.query(eval_req(9, "Cray-1", 1));
        assert!(matches!(resp.result, Err(Reject::BadRequest(_))), "{resp:?}");
        assert_eq!(handle.stats().bad_request.load(Ordering::Relaxed), 1);
        server.shutdown();
    }

    #[test]
    fn an_invalid_what_if_plan_is_a_typed_bad_request_and_its_shard_keeps_serving() {
        // A finite, positive throttle that still breaks the model: Δπ/k
        // overflows to infinity. Compiling that plan must fail at admission,
        // typed, not panic a shard worker outside its guard.
        let server = Server::start(ServeConfig { shards: 1, ..Default::default() }).unwrap();
        let handle = server.handle();
        let mut req = eval_req(1, "Desktop CPU", 4);
        req.cap = Some(CapOverride::Throttle(1e-307));
        let resp = handle.query(req);
        match resp.result {
            Err(Reject::BadRequest(msg)) => assert!(msg.contains("delta_pi"), "{msg}"),
            other => panic!("{other:?}"),
        }
        assert_eq!(handle.stats().bad_request.load(Ordering::Relaxed), 1);
        assert_eq!(handle.stats().accepted.load(Ordering::Relaxed), 0);
        let ok = handle.query(eval_req(2, "Desktop CPU", 4));
        assert!(ok.result.is_ok(), "{ok:?}");
        server.shutdown();
    }

    #[test]
    fn poisoned_sweep_degrades_to_typed_internal_and_server_keeps_serving() {
        let server = Server::start(ServeConfig::default()).unwrap();
        let handle = server.handle();
        // Non-positive lower bound: perf_batch's intensity validation
        // panics; the worker must catch it and answer typed.
        let poisoned = Request {
            id: 1,
            platform: "NUC CPU".to_string(),
            double_precision: false,
            cap: None,
            deadline_ms: None,
            trace: None,
            query: Query::Sweep { metric: SweepMetric::Perf, lo: -1.0, hi: 10.0, points: 8 },
        };
        let resp = handle.query(poisoned);
        match resp.result {
            Err(Reject::Internal(msg)) => assert!(msg.contains("panic"), "{msg}"),
            other => panic!("{other:?}"),
        }
        assert!(handle.stats().panics_caught.load(Ordering::Relaxed) >= 1);
        // The worker survived: the next query on the same shard answers.
        let ok = handle.query(eval_req(2, "NUC CPU", 3));
        assert!(ok.result.is_ok(), "{ok:?}");
        server.shutdown();
    }

    #[test]
    fn drain_on_shutdown_answers_everything_admitted() {
        let server = Server::start(ServeConfig::default()).unwrap();
        let handle = server.handle();
        let tickets: Vec<Ticket> =
            (0..40).map(|i| handle.submit(eval_req(i, "GTX 680", 8))).collect();
        let after = server.shutdown();
        for t in tickets {
            assert!(t.wait().result.is_ok(), "admitted work must be drained, not dropped");
        }
        // Post-drain admission is a typed rejection, not a hang.
        let late = handle.query(eval_req(99, "GTX 680", 1));
        assert_eq!(late.result, Err(Reject::ShuttingDown));
        assert!(after.stats().shutdown_rejected.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn overload_sheds_with_typed_rejection_and_bounded_queues() {
        // One shard, tiny queue, and a worker kept busy by big requests:
        // past the bound, admission must shed (typed), never block or grow.
        let server =
            Server::start(ServeConfig { shards: 1, queue_bound: 4, ..Default::default() })
                .unwrap();
        let handle = server.handle();
        let mut tickets = Vec::new();
        let mut shed = 0;
        for i in 0..200 {
            let t = handle.submit(eval_req(i, "Xeon Phi", 4096));
            match t.try_wait() {
                // A fast worker may have answered already; only a typed
                // Overloaded counts as shed.
                Some(Response { result: Err(reject), .. }) => {
                    assert_eq!(reject, Reject::Overloaded { shard: 0 });
                    shed += 1;
                }
                Some(Response { result: Ok(_), .. }) => {}
                None => tickets.push(t),
            }
        }
        assert!(shed > 0, "an unbounded queue would never shed");
        assert_eq!(handle.stats().shed.load(Ordering::Relaxed), shed);
        for t in tickets {
            assert!(t.wait().result.is_ok());
        }
        server.shutdown();
    }

    #[test]
    fn expired_deadlines_reject_at_the_batch_boundary() {
        let server = Server::start(ServeConfig { shards: 1, ..Default::default() }).unwrap();
        let handle = server.handle();
        // A zero-millisecond deadline expires before any worker picks it.
        let mut req = eval_req(5, "Arndale CPU", 4);
        req.deadline_ms = Some(0);
        let resp = handle.query(req);
        assert_eq!(resp.result, Err(Reject::DeadlineExceeded));
        assert_eq!(handle.stats().deadline_expired.load(Ordering::Relaxed), 1);
        // Deadline rejections are not breaker outcomes.
        assert_eq!(handle.breaker_state(0), BreakerState::Closed);
        server.shutdown();
    }

    #[test]
    fn params_key_separates_cap_overrides_and_colocates_equal_params() {
        let p = all_platforms()[0].machine_params(Precision::Single).unwrap();
        assert_eq!(params_key(&p), params_key(&p.clone()));
        assert_ne!(params_key(&p), params_key(&p.uncapped()));
        assert_ne!(params_key(&p), params_key(&p.throttled(2.0)));
    }
}
