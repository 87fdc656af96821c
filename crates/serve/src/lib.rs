//! # archline-serve — roofline-as-a-service
//!
//! A long-running, concurrent query engine over the energy-roofline model:
//! clients ask "time/energy/power of `(W, Q)` on platform X" — as point
//! evaluations, metric sweeps, crossover searches, or what-if cap changes —
//! and the server answers with the SoA batch kernels of a [`RooflinePlan`]
//! compiled for each request at admission.
//!
//! A shard worker picks one request from its queue, checks its deadline,
//! evaluates it and answers it before it picks the next; it never waits
//! for more work to arrive. A plan is a few divisions over six constants,
//! so no cache holds them: admission compiles each request's plan, and a
//! what-if override the model rejects is a typed [`Reject::BadRequest`]
//! before any worker sees it. The model is pointwise, so grouping
//! requests into shared kernel passes would save no arithmetic, only
//! copies. An eval is one fused batch-kernel pass written straight into
//! its answer columns; a sweep is one [`RooflinePlan::sweep`] pass that
//! builds its grid and evaluates its metric together, in parallel chunks
//! when large.
//!
//! Two front doors share one engine:
//!
//! * [`Server::start`] + [`ServeHandle`] — the in-process API tests and
//!   benches drive directly (no serialization on the hot path).
//! * [`tcp::serve_tcp`] — newline-delimited JSON over TCP (one request
//!   object per line, one response object per line; see `docs/serve.md`).
//!
//! ## Robustness model
//!
//! The service degrades, it does not fall over:
//!
//! * **Bounded admission**: each shard's queue is a bounded channel;
//!   when it is full the request is *shed* with a typed
//!   [`Reject::Overloaded`] — queues never grow without bound.
//! * **Deadlines**: every request carries a deadline (default from
//!   [`ServeConfig::deadline`]); expiry is checked cooperatively when a
//!   worker picks the request and answered with
//!   [`Reject::DeadlineExceeded`].
//! * **Circuit breaker**: per shard — consecutive evaluation failures trip
//!   it open, admission then rejects with [`Reject::BreakerOpen`], and
//!   after a cooldown a half-open probe decides whether to close it.
//! * **Panic isolation**: every request is evaluated under its own
//!   `catch_unwind` guard; a poisoned query (e.g. a sweep with a
//!   non-positive intensity bound) degrades to a typed [`Reject::Internal`]
//!   and fails alone while the worker keeps serving.
//! * **Drain on shutdown**: [`Server::shutdown`] stops admission, lets the
//!   workers drain every queued request, and joins them.
//!
//! Chaos mode (`--inject`, [`ServeConfig::inject`]) routes a sabotaged
//! platform's evaluation results through `archline-faults` before
//! validation, so the whole degradation surface is exercised by a live
//! server in `tests/serve_chaos.rs`.
//!
//! ## Telemetry plane
//!
//! With telemetry on (the default; `--metrics off` disables), every
//! admitted request runs under a [`TraceId`] — client-supplied via the
//! request's `trace` field or minted at admission — echoed on the response
//! next to a [`Phases`] breakdown (`phases_us`: queue, admission to pick;
//! window, always 0; kernel, pick to answer for this request alone;
//! serialize; total), and
//! the same breakdown feeds per-query-kind histograms the
//! `{"op":"metrics"}` wire op exposes as JSON *and* Prometheus text
//! exposition. Every serve instrument belongs to one server, so two
//! servers in one process never count into each other. The answer
//! payloads themselves are bit-identical with telemetry on or off — the
//! envelope grows, the results do not (pinned by
//! `tests/serve_batching.rs`).
//!
//! Healthy shards answer **bit-identically** under load, queue depth, and
//! co-resident sabotage: the plan kernels are elementwise and
//! split-invariant (pinned by `core/tests/plan_properties.rs`), so a
//! query's answer never depends on what was queued around it.
//!
//! [`RooflinePlan`]: archline_core::RooflinePlan
//! [`RooflinePlan::sweep`]: archline_core::RooflinePlan::sweep

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breaker;
pub mod protocol;
pub mod server;
pub mod tcp;
mod telemetry;

pub use breaker::{Breaker, BreakerState};
pub use protocol::{
    CapOverride, Phases, Query, QueryResult, Reject, Request, Response, SweepMetric, TraceId,
};
pub use server::{ServeConfig, ServeHandle, ServeStats, Server, Ticket};
