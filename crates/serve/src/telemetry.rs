//! Trace-id minting and phase-decomposed latency instruments.
//!
//! Every admitted request runs under a [`TraceId`] (client-supplied or
//! minted here — deterministically, from a process-wide counter mixed
//! with the engine seed, never from wall-clock time) and carries
//! monotonic per-phase timestamps. When a request is answered, the phase
//! breakdown is recorded into its server's [`PhaseHistograms`], named
//! `serve.phase.<phase>_us.<kind>`, which the `{"op":"metrics"}` wire op
//! exposes as JSON and Prometheus text (`serve_phase_queue_us_eval`, …).
//!
//! The serialize phase is special: it happens after the worker hands the
//! answer to the wire, so the TCP layer measures it around response
//! rendering and records it here via [`record_serialize`].

use std::sync::atomic::{AtomicU64, Ordering};

use archline_obs::Histogram;

use crate::protocol::{Phases, Query, QueryResult, TraceId};

/// Instrument index for a query body. The kind vocabulary (and histogram
/// name suffix) is `eval` (0), `sweep` (1), `crossover` (2).
pub(crate) fn kind_index(q: &Query) -> usize {
    match q {
        Query::Eval { .. } => 0,
        Query::Sweep { .. } => 1,
        Query::Crossover { .. } => 2,
    }
}

/// Instrument index for an answered result.
pub(crate) fn result_kind_index(r: &QueryResult) -> usize {
    match r {
        QueryResult::Eval { .. } => 0,
        QueryResult::Sweep { .. } => 1,
        QueryResult::Crossover { .. } => 2,
    }
}

/// One server's phase histograms, indexed `[kind][phase]`: kinds as in
/// [`kind_index`], phases queue, kernel, serialize, total. The wire's
/// `window` phase is always 0, so it has no histogram.
pub(crate) type PhaseHistograms = [[Histogram; 4]; 3];

const PHASE_NAMES: [[&str; 4]; 3] = [
    [
        "serve.phase.queue_us.eval",
        "serve.phase.kernel_us.eval",
        "serve.phase.serialize_us.eval",
        "serve.phase.total_us.eval",
    ],
    [
        "serve.phase.queue_us.sweep",
        "serve.phase.kernel_us.sweep",
        "serve.phase.serialize_us.sweep",
        "serve.phase.total_us.sweep",
    ],
    [
        "serve.phase.queue_us.crossover",
        "serve.phase.kernel_us.crossover",
        "serve.phase.serialize_us.crossover",
        "serve.phase.total_us.crossover",
    ],
];

const SERIALIZE: usize = 2;

/// Empty phase histograms for a new server.
pub(crate) fn phase_histograms() -> PhaseHistograms {
    PHASE_NAMES.map(|kind| kind.map(Histogram::new))
}

/// Records a successfully answered request's phase breakdown for its
/// query kind (the serialize phase arrives later, from the wire layer).
pub(crate) fn record_phases(h: &PhaseHistograms, kind: usize, ph: &Phases) {
    let [queue, kernel, _, total] = &h[kind];
    queue.record_owned(ph.queue_us);
    kernel.record_owned(ph.kernel_us);
    total.record_owned(ph.total_us);
}

/// Records the wire-measured serialization time for an answered response
/// (phase-carrying successes only — rejections serialize a fixed-shape
/// error object whose cost says nothing about result size).
pub(crate) fn record_serialize(h: &PhaseHistograms, resp: &crate::protocol::Response, us: u64) {
    if resp.phases.is_none() {
        return;
    }
    if let Ok(res) = &resp.result {
        h[result_kind_index(res)][SERIALIZE].record_owned(us);
    }
}

/// Process-wide mint counter; see [`mint_trace`].
static TRACE_COUNTER: AtomicU64 = AtomicU64::new(1);

/// splitmix64 — a cheap bijective mixer, so sequential mint counts come
/// out looking like ids rather than 1, 2, 3, …
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Mints a trace id for a request that arrived without one: splitmix64
/// over a process-wide counter mixed with the engine seed. Deterministic
/// for a given (seed, admission order) — no wall-clock input — and
/// process-unique because the counter never repeats.
pub(crate) fn mint_trace(seed: u64) -> TraceId {
    // ordering: Relaxed — RMW atomicity alone hands each mint a distinct
    // counter value; nothing else rides on this counter.
    let n = TRACE_COUNTER.fetch_add(1, Ordering::Relaxed);
    TraceId(splitmix64(n ^ seed.rotate_left(32)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minted_traces_are_distinct() {
        let a = mint_trace(7);
        let b = mint_trace(7);
        let c = mint_trace(8);
        assert_ne!(a, b);
        assert_ne!(b, c);
    }

    #[test]
    fn kind_indices_agree_between_query_and_result() {
        let q = Query::Eval { flops: vec![1.0], bytes: vec![1.0] };
        let r = QueryResult::Eval {
            time: vec![],
            energy: vec![],
            power: vec![],
            regime: vec![],
        };
        assert_eq!(kind_index(&q), result_kind_index(&r));
        assert_eq!(kind_index(&q), 0, "eval is kind 0");
    }

    #[test]
    fn phase_records_land_in_the_owner_not_the_registry() {
        let h = phase_histograms();
        record_phases(&h, 0, &Phases { queue_us: 1, window_us: 0, kernel_us: 3, total_us: 4 });
        assert_eq!(h[0][0].snapshot().name, "serve.phase.queue_us.eval");
        assert_eq!(h[0][0].snapshot().count, 1);
        assert_eq!(h[0][3].snapshot().sum, 4);
        assert_eq!(h[0][SERIALIZE].snapshot().count, 0, "serialize comes from the wire");
        let snap = archline_obs::metrics::snapshot();
        assert!(!snap.histograms.iter().any(|s| s.name.starts_with("serve.")));
    }
}
