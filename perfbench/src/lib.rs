//! `archline-bench`: one repeated, layered benchmark of the two paths
//! through the program — the paper pipeline (`repro`) and the query engine
//! in process (`serve-eval`, `serve-sweep`) and over the wire
//! (`wire-mixed`). It drives the program only through its public APIs.
//!
//! An untraced run reports the end-to-end metrics; a traced run reports
//! every per-layer metric, timing calls into each layer's public functions
//! from this crate's own code. See README.md for the workloads, the metric
//! tables and how to compare two commits.

pub mod gen;
mod inproc;
pub mod metrics;
mod pipeline;
pub mod provenance;
mod serve_eval;
mod serve_sweep;
pub mod stats;
mod wire;

use metrics::{Outcome, PER_LAYER};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Regenerate every paper artifact.
    Repro,
    /// Small point evaluations on the in-process engine.
    ServeEval,
    /// Large sweeps on the in-process engine.
    ServeSweep,
    /// A mixed query stream over NDJSON/TCP, open loop.
    WireMixed,
}

impl Workload {
    /// Every workload, in the order probes run for a traced run.
    pub const ALL: [Workload; 4] = [
        Workload::ServeEval,
        Workload::ServeSweep,
        Workload::WireMixed,
        Workload::Repro,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Repro => "repro",
            Workload::ServeEval => "serve-eval",
            Workload::ServeSweep => "serve-sweep",
            Workload::WireMixed => "wire-mixed",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How long each part of a run lasts, derived from the run length.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds of the run.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// Smoke run: about a second per workload, `repro` on the fast sweep.
    pub smoke: bool,
    /// `repro` setups per run (the reported `setup_s` is their median; the
    /// serve workloads set up once per trial).
    pub setups: usize,
    /// Measured trials (per side of the A/B in a traced run).
    pub trials: usize,
    /// Seconds per trial.
    pub trial_secs: f64,
    /// Seconds of wire warm-up traffic per setup (`wire-mixed`).
    pub warmup_secs: f64,
    /// Seconds of traced traffic for the workload's own layers.
    pub layer_secs: f64,
    /// Seconds of traffic for a probe of another workload's layers.
    pub probe_secs: f64,
}

impl Plan {
    /// The plan for a run of `seconds` (smoke runs use one second).
    pub fn new(workload: Workload, seed: u64, seconds: f64, traced: bool, smoke: bool) -> Plan {
        let s = if smoke { 1.0 } else { seconds };
        let (trials, trial_secs) = match (traced, workload) {
            // The A/B halves of a traced run: a quarter of the run each.
            (true, Workload::Repro) => (1, s / 4.0),
            (true, _) => (2, s / 8.0),
            (false, Workload::Repro) => (1, s),
            // Half the run for the latency stretches, half for the
            // throughput stretches, over ten server instances: the
            // closed-loop rate of one instance varies by up to 2x.
            (false, Workload::WireMixed) => (10, s / 20.0),
            (false, _) => (5, s / 5.0),
        };
        Plan {
            workload,
            seed,
            seconds: s,
            traced,
            smoke,
            setups: if smoke { 2 } else { 9 },
            trials: if smoke { trials.min(2) } else { trials },
            trial_secs,
            warmup_secs: if smoke { 0.1 } else { 0.25 },
            layer_secs: s / 4.0,
            probe_secs: if smoke { 0.25 } else { 0.5 },
        }
    }
}

/// Records `trace_overhead_pct`: the traced measurement's latency, taken
/// the way `latency_us` is, against the untraced `latency_us` already
/// recorded.
pub fn put_trace_overhead(traced_us: f64, out: &mut Outcome) {
    let plain = out.metrics.get("latency_us").map_or(f64::NAN, |m| m.value);
    out.note("traced_latency_us", traced_us);
    out.put(
        "trace_overhead_pct",
        (traced_us / plain - 1.0) * 100.0,
        vec![],
    );
}

fn run_one(w: Workload, plan: &Plan, out: &mut Outcome) -> Result<(), String> {
    match w {
        Workload::Repro => pipeline::run(plan, out),
        Workload::ServeEval => serve_eval::run(plan, out),
        Workload::ServeSweep => serve_sweep::run(plan, out),
        Workload::WireMixed => wire::run(plan, out),
    }
}

fn probe(w: Workload, plan: &Plan, out: &mut Outcome) -> Result<(), String> {
    match w {
        Workload::Repro => pipeline::probe(plan, out),
        Workload::ServeEval => serve_eval::probe(plan, out),
        Workload::ServeSweep => serve_sweep::probe(plan, out),
        Workload::WireMixed => wire::probe(plan, out),
    }
}

/// Runs `plan`. A traced run measures its own workload's layers first,
/// then probes the other workloads' layers for every per-layer metric
/// still missing, so each traced run reports the whole layer table.
pub fn run(plan: &Plan) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_one(plan.workload, plan, &mut out) {
        out.error(e);
    }
    if plan.traced {
        for w in Workload::ALL.into_iter().filter(|&w| w != plan.workload) {
            if PER_LAYER.iter().all(|d| out.metrics.contains_key(d.name)) {
                break;
            }
            let mut p = Outcome::default();
            if let Err(e) = probe(w, plan, &mut p) {
                p.error(format!("{} probe: {e}", w.name()));
            }
            out.absorb(p);
        }
    }
    out
}
