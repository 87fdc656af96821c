//! `bench_report` — measures the batch-evaluation speedups and writes
//! `BENCH_model.json` (schema v9, see [`archline_bench::BENCH_SCHEMA_VERSION`])
//! into the current directory (the repo root in CI).
//!
//! Per batch kernel (`avg_power`, `time_energy`, the fused `evaluate`,
//! `perf`, `energy_eff`), three measurements bracket the claim over the
//! same 10⁶-point log-spaced sweep:
//! - `scalar`: today's per-point plan-backed calls (inputs `black_box`ed per
//!   call, so the compiler cannot turn the baseline loop into the batch
//!   kernel);
//! - `batch`: the serial SoA lane kernel;
//! - `batch_par`: the adaptive-grain executor path (identical code to
//!   `batch` when one worker).
//!
//! The headline `speedup_batch_vs_scalar` is the fused `evaluate` sweep —
//! the shape the fit objective and the figure artifacts actually run — not
//! the underived-baseline ratio (still recorded as
//! `speedup_batch_vs_scalar_underived` for continuity with schema v2).
//! The GEMM section measures the branchless blocked SGEMM *and* the seed's
//! branchy zero-skip variant from the same workspace so a regression in
//! either direction stays visible.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

use archline_bench::{prior_schema_warning, BENCH_SCHEMA_VERSION};
use archline_serve::{Phases, Query, Request, ServeConfig, Server};
use archline_core::{plan::PAR_THRESHOLD, EnergyRoofline, MachineParams, Regime};
use archline_fit::{try_fit_platform, FitOptions};
use archline_machine::{spec_for, Engine};
use archline_microbench::{gemm_bench_with, run_suite, GemmWorkspace, SweepConfig};
use archline_obs as obs;
use archline_par::{adaptive_grain, num_threads};
use archline_platforms::{platform, PlatformId, Precision};

const SWEEP_POINTS: usize = 1_000_000;

/// Points per call for the L2-resident `evaluate_cached` sweep. Divides
/// `SWEEP_POINTS` exactly (64 calls per timed rep) and is deliberately not a
/// power of two so the remainder lanes run too.
const CACHED_POINTS: usize = 15_625;

fn grid(n: usize) -> Vec<f64> {
    let (lo, hi) = (0.01f64, 1e4f64);
    let step = (hi / lo).ln() / (n - 1) as f64;
    (0..n).map(|k| lo * (step * k as f64).exp()).collect()
}

/// Replica of the pre-plan `avg_power_at`: balance points and pipeline
/// powers re-derived per call, as the seed's scalar model did. Never
/// inlined — the seed's consumers (the `dyn Fn` sweeps in fig1, the
/// per-candidate fit objectives) paid the full derivation on every call,
/// so the baseline must not let LICM amortize it across the loop.
#[inline(never)]
fn avg_power_underived(p: &MachineParams, intensity: f64) -> f64 {
    let b = p.balances();
    let pi_f = p.flop_power();
    let pi_m = p.mem_power();
    let b_tau = b.time;
    p.const_power
        + if intensity >= b.upper {
            pi_f + if intensity.is_infinite() { 0.0 } else { pi_m * b_tau / intensity }
        } else if intensity <= b.lower {
            pi_m + pi_f * intensity / b_tau
        } else {
            p.cap.watts()
        }
}

/// Measured streaming bandwidth of this machine, GB/s: best-of-`reps` fused
/// triad (`o = fma(a, 1.5, b)`, 24 bytes of traffic per point) over the
/// sweep-sized buffers. The multi-output batch kernels run at DRAM speed,
/// not ALU speed, at 10⁶ points — this field is the ceiling to read their
/// throughputs against (see EXPERIMENTS.md, "Kernel optimization").
fn streaming_bw_gbps(reps: usize, a: &[f64], b: &[f64], out: &mut [f64]) -> f64 {
    let secs = best_secs(reps, || {
        for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *o = x.mul_add(1.5, y);
        }
        black_box(&out);
    });
    24.0 * a.len() as f64 / secs / 1e9
}

/// Best-of-`reps` wall time of `f`, seconds.
fn best_secs<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn mpts(n: usize, secs: f64) -> f64 {
    n as f64 / secs / 1e6
}

/// One kernel's scalar/batch/batch_par timings (best-of seconds).
struct Sweep {
    scalar: f64,
    batch: f64,
    batch_par: f64,
}

impl Sweep {
    fn write_json(&self, json: &mut String, name: &str, trailing_comma: bool) {
        let _ = writeln!(json, "    \"{name}\": {{");
        let _ = writeln!(json, "      \"scalar_mpts_per_sec\": {:.3},", mpts(SWEEP_POINTS, self.scalar));
        let _ = writeln!(json, "      \"batch_mpts_per_sec\": {:.3},", mpts(SWEEP_POINTS, self.batch));
        let _ = writeln!(
            json,
            "      \"batch_par_mpts_per_sec\": {:.3},",
            mpts(SWEEP_POINTS, self.batch_par)
        );
        let _ = writeln!(json, "      \"speedup_batch_vs_scalar\": {:.3},", self.scalar / self.batch);
        let _ = writeln!(
            json,
            "      \"speedup_batch_par_vs_batch\": {:.3}",
            self.batch / self.batch_par
        );
        let _ = writeln!(json, "    }}{}", if trailing_comma { "," } else { "" });
    }
}

/// Platforms the serve benchmarks spread their clients across, the way a
/// mixed query stream would.
const SERVE_PLATFORMS: [&str; 4] = ["GTX Titan", "Desktop CPU", "NUC CPU", "GTX 680"];

/// Points per serve-bench eval query.
const SERVE_EVAL_POINTS: usize = 64;

fn serve_request(id: u64, platform: &str) -> Request {
    Request {
        id,
        platform: platform.to_string(),
        double_precision: false,
        cap: None,
        deadline_ms: None,
        trace: None,
        query: Query::Eval {
            flops: (1..=SERVE_EVAL_POINTS).map(|i| 1e9 * i as f64).collect(),
            bytes: (1..=SERVE_EVAL_POINTS).map(|i| 2e8 * i as f64).collect(),
        },
    }
}

/// p50/p99 of one telemetry phase across a run's responses (µs).
struct PhasePct {
    p50: f64,
    p99: f64,
}

/// Per-phase latency decomposition from the responses' `phases_us`
/// envelope (schema v6). The serialize phase is wire-level and absent
/// from the in-process API, and `window` is always 0, so the breakdown is
/// queue, kernel and total.
struct PhaseBreakdown {
    queue: PhasePct,
    kernel: PhasePct,
    total: PhasePct,
}

impl PhaseBreakdown {
    fn from_samples(phases: &[Phases]) -> Option<PhaseBreakdown> {
        if phases.is_empty() {
            return None;
        }
        let pcts = |mut v: Vec<u64>| {
            v.sort_unstable();
            let at = |p: f64| v[((v.len() - 1) as f64 * p) as usize] as f64;
            PhasePct { p50: at(0.50), p99: at(0.99) }
        };
        Some(PhaseBreakdown {
            queue: pcts(phases.iter().map(|p| p.queue_us).collect()),
            kernel: pcts(phases.iter().map(|p| p.kernel_us).collect()),
            total: pcts(phases.iter().map(|p| p.total_us).collect()),
        })
    }
}

/// One closed-loop run's numbers.
struct ClosedLoop {
    clients: usize,
    depth: usize,
    queries: usize,
    queries_per_sec: f64,
    latency_p50_us: f64,
    latency_p99_us: f64,
    phases: Option<PhaseBreakdown>,
}

/// One arrival rate of the open-loop sweep.
struct OpenLoopPoint {
    offered_qps: f64,
    achieved_qps: f64,
    latency_p99_us: f64,
    shed_rate: f64,
}

/// What the in-process archline-serve engine measures for the report.
struct ServeBench {
    headline: ClosedLoop,
    depth1: ClosedLoop,
    open_loop: Vec<OpenLoopPoint>,
    overload_submitted: usize,
    overload_shed: u64,
}

/// Closed-loop clients, each keeping `depth` requests in flight (pipelined
/// submit-then-drain bursts). `depth = 1` is the strict one-at-a-time mode
/// schema v4 reported; deeper pipelines keep the shard queues non-empty.
fn serve_closed_loop(clients: usize, depth: usize, queries_per_client: usize) -> ClosedLoop {
    let server = Server::start(ServeConfig::default()).expect("serve engine");
    let handle = server.handle();
    let start = Instant::now();
    let (mut latencies, phase_samples): (Vec<u64>, Vec<Phases>) = std::thread::scope(|s| {
        let threads: Vec<_> = (0..clients)
            .map(|c| {
                let handle = handle.clone();
                let platform = SERVE_PLATFORMS[c % SERVE_PLATFORMS.len()];
                s.spawn(move || {
                    let mut lat = Vec::with_capacity(queries_per_client);
                    let mut phases = Vec::with_capacity(queries_per_client);
                    let mut q = 0;
                    while q < queries_per_client {
                        let burst = depth.min(queries_per_client - q);
                        let pending: Vec<(Instant, _)> = (0..burst)
                            .map(|i| {
                                let id = (c * queries_per_client + q + i) as u64;
                                (Instant::now(), handle.submit(serve_request(id, platform)))
                            })
                            .collect();
                        for (t0, t) in pending {
                            let resp = t.wait();
                            assert!(resp.result.is_ok(), "bench query rejected: {:?}", resp.result);
                            lat.push(t0.elapsed().as_micros() as u64);
                            if let Some(ph) = resp.phases {
                                phases.push(ph);
                            }
                        }
                        q += burst;
                    }
                    (lat, phases)
                })
            })
            .collect();
        let mut all_lat = Vec::new();
        let mut all_phases = Vec::new();
        for t in threads {
            let (lat, phases) = t.join().expect("client thread");
            all_lat.extend(lat);
            all_phases.extend(phases);
        }
        (all_lat, all_phases)
    });
    let secs = start.elapsed().as_secs_f64();
    server.shutdown();
    latencies.sort_unstable();
    let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p) as usize] as f64;
    ClosedLoop {
        clients,
        depth,
        queries: clients * queries_per_client,
        queries_per_sec: (clients * queries_per_client) as f64 / secs,
        latency_p50_us: pct(0.50),
        latency_p99_us: pct(0.99),
        phases: PhaseBreakdown::from_samples(&phase_samples),
    }
}

/// Open loop at a fixed arrival rate: a submitter paces bursts on a 1 ms
/// tick regardless of completions (so queueing, shedding, and deadline
/// pressure are the system's problem, not the client's), while a collector
/// drains tickets in submission order. Reported latency is client-observed
/// (submit to collected answer) — an honest upper bound under pipelining.
fn serve_open_loop(rate: f64) -> OpenLoopPoint {
    const TICK: Duration = Duration::from_millis(1);
    const DURATION_SECS: f64 = 0.4;
    let server = Server::start(ServeConfig::default()).expect("serve engine");
    let handle = server.handle();
    let total = (rate * DURATION_SECS) as usize;
    let per_tick = ((rate * TICK.as_secs_f64()) as usize).max(1);
    let (tx, rx) = std::sync::mpsc::channel();
    let start = Instant::now();
    let (completed, mut latencies): (u64, Vec<u64>) = std::thread::scope(|s| {
        let submit_handle = handle.clone();
        s.spawn(move || {
            let mut sent = 0usize;
            let mut tick_idx = 0u32;
            while sent < total {
                let burst = per_tick.min(total - sent);
                for i in 0..burst {
                    let id = (sent + i) as u64;
                    let platform = SERVE_PLATFORMS[(sent + i) % SERVE_PLATFORMS.len()];
                    let ticket = submit_handle.submit(serve_request(id, platform));
                    if tx.send((Instant::now(), ticket)).is_err() {
                        return;
                    }
                }
                sent += burst;
                tick_idx += 1;
                if let Some(d) =
                    (start + TICK * tick_idx).checked_duration_since(Instant::now())
                {
                    std::thread::sleep(d);
                }
            }
        });
        let mut completed = 0u64;
        let mut lat = Vec::with_capacity(total);
        for (t0, ticket) in rx {
            if ticket.wait().result.is_ok() {
                completed += 1;
                lat.push(t0.elapsed().as_micros() as u64);
            }
        }
        (completed, lat)
    });
    let secs = start.elapsed().as_secs_f64();
    let after = server.shutdown();
    let stats = after.stats();
    latencies.sort_unstable();
    let p99 = if latencies.is_empty() {
        0.0
    } else {
        latencies[((latencies.len() - 1) as f64 * 0.99) as usize] as f64
    };
    let shed = stats.shed.load(std::sync::atomic::Ordering::Relaxed);
    OpenLoopPoint {
        offered_qps: rate,
        achieved_qps: completed as f64 / secs,
        latency_p99_us: p99,
        shed_rate: shed as f64 / (total as f64).max(1.0),
    }
}

/// Drives an in-process archline-serve engine four ways: a pipelined
/// closed loop (the headline — concurrent load that keeps the shard
/// queues non-empty), the strict depth-1 closed loop
/// schema v4 reported (continuity), an open-loop arrival-rate sweep
/// (offered vs achieved qps through saturation), and a deliberate
/// overload burst against a small queue for the shed rate (a shed rate of
/// zero would mean admission control never engaged).
fn serve_bench() -> ServeBench {
    let headline = serve_closed_loop(4, 16, 16_000);
    let depth1 = serve_closed_loop(4, 1, 2_000);
    let open_loop = [50_000.0, 150_000.0, 450_000.0].iter().map(|&r| serve_open_loop(r)).collect();

    // Shed rate under deliberate overload (tiny queue, one shard, un-paced
    // burst).
    let overload =
        Server::start(ServeConfig { shards: 1, queue_bound: 32, ..ServeConfig::default() })
            .expect("overload engine");
    let ohandle = overload.handle();
    let submitted = 2_000;
    let tickets: Vec<_> =
        (0..submitted).map(|i| ohandle.submit(serve_request(i as u64, "Xeon Phi"))).collect();
    for t in tickets {
        let _ = t.wait();
    }
    let shed = overload.shutdown().stats().shed.load(std::sync::atomic::Ordering::Relaxed);

    ServeBench { headline, depth1, open_loop, overload_submitted: submitted, overload_shed: shed }
}

fn main() {
    obs::set_stderr_level(Some(obs::Level::Info));
    if let Err(e) = obs::init_from_env() {
        obs::error!("bench", "bench_report: {e}");
        std::process::exit(2);
    }

    let model = EnergyRoofline::new(
        platform(PlatformId::GtxTitan).machine_params(Precision::Single).expect("single"),
    );
    let params = *model.params();
    let plan = *model.plan();
    let n = SWEEP_POINTS;
    let xs = grid(n);
    // The (W, Q) view of the same sweep for the workload-space kernels:
    // fixed work, bytes from intensity.
    let flops: Vec<f64> = vec![1e9; n];
    let bytes: Vec<f64> = xs.iter().map(|&i| 1e9 / i).collect();
    let mut out = vec![0.0; n];
    let (mut t_buf, mut e_buf, mut p_buf) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    let mut r_buf = vec![Regime::MemoryBound; n];
    let reps = 7;

    obs::info!("bench", "bench_report: 10^6-point kernel sweeps ({reps} reps each)...");
    let bw_gbps = streaming_bw_gbps(reps, &flops, &bytes, &mut out);
    let t_underived = best_secs(reps, || {
        for (o, &x) in out.iter_mut().zip(&xs) {
            *o = avg_power_underived(black_box(&params), black_box(x));
        }
        black_box(&out);
    });

    let avg_power = Sweep {
        scalar: best_secs(reps, || {
            for (o, &x) in out.iter_mut().zip(&xs) {
                *o = model.avg_power_at(black_box(x));
            }
            black_box(&out);
        }),
        batch: best_secs(reps, || {
            plan.avg_power_batch_serial(black_box(&xs), &mut out);
            black_box(&out);
        }),
        batch_par: best_secs(reps, || {
            plan.avg_power_batch(black_box(&xs), &mut out);
            black_box(&out);
        }),
    };

    let time_energy = Sweep {
        scalar: best_secs(reps, || {
            for k in 0..n {
                (t_buf[k], e_buf[k]) = plan.time_energy(black_box(flops[k]), black_box(bytes[k]));
            }
            black_box(&t_buf);
            black_box(&e_buf);
        }),
        batch: best_secs(reps, || {
            plan.time_energy_batch_serial(black_box(&flops), black_box(&bytes), &mut t_buf, &mut e_buf);
            black_box(&t_buf);
            black_box(&e_buf);
        }),
        batch_par: best_secs(reps, || {
            plan.time_energy_batch(black_box(&flops), black_box(&bytes), &mut t_buf, &mut e_buf);
            black_box(&t_buf);
            black_box(&e_buf);
        }),
    };

    let evaluate = Sweep {
        scalar: best_secs(reps, || {
            for k in 0..n {
                (t_buf[k], e_buf[k], p_buf[k], r_buf[k]) =
                    plan.evaluate(black_box(flops[k]), black_box(bytes[k]));
            }
            black_box(&t_buf);
            black_box(&e_buf);
            black_box(&p_buf);
            black_box(&r_buf);
        }),
        batch: best_secs(reps, || {
            plan.evaluate_batch_serial(
                black_box(&flops),
                black_box(&bytes),
                &mut t_buf,
                &mut e_buf,
                &mut p_buf,
                &mut r_buf,
            );
            black_box(&t_buf);
            black_box(&e_buf);
            black_box(&p_buf);
            black_box(&r_buf);
        }),
        batch_par: best_secs(reps, || {
            plan.evaluate_batch(
                black_box(&flops),
                black_box(&bytes),
                &mut t_buf,
                &mut e_buf,
                &mut p_buf,
                &mut r_buf,
            );
            black_box(&t_buf);
            black_box(&e_buf);
            black_box(&p_buf);
            black_box(&r_buf);
        }),
    };

    // L2-resident view of the fused kernel: same sweep shape at
    // `CACHED_POINTS` (6 streams ≈ 0.8 MB, inside a 1–2 MB L2), repeated so
    // each timed rep does `SWEEP_POINTS` of work. At 10⁶ points the fused
    // kernel is DRAM-bound and batch ≈ scalar (both sit at the streaming
    // wall — see `streaming_bw_gbps`); this sweep is the apples-to-apples
    // view of the kernel itself. Below `PAR_THRESHOLD`, so `batch_par`
    // degenerates to `batch` by design.
    let nc = CACHED_POINTS;
    let inner = SWEEP_POINTS / nc;
    let (fc, bc) = (&flops[..nc], &bytes[..nc]);
    let evaluate_cached = Sweep {
        scalar: best_secs(reps, || {
            for _ in 0..inner {
                for k in 0..nc {
                    (t_buf[k], e_buf[k], p_buf[k], r_buf[k]) =
                        plan.evaluate(black_box(fc[k]), black_box(bc[k]));
                }
                black_box(&t_buf);
                black_box(&e_buf);
                black_box(&p_buf);
                black_box(&r_buf);
            }
        }),
        batch: best_secs(reps, || {
            for _ in 0..inner {
                plan.evaluate_batch_serial(
                    black_box(fc),
                    black_box(bc),
                    &mut t_buf[..nc],
                    &mut e_buf[..nc],
                    &mut p_buf[..nc],
                    &mut r_buf[..nc],
                );
                black_box(&t_buf);
                black_box(&e_buf);
                black_box(&p_buf);
                black_box(&r_buf);
            }
        }),
        batch_par: best_secs(reps, || {
            for _ in 0..inner {
                plan.evaluate_batch(
                    black_box(fc),
                    black_box(bc),
                    &mut t_buf[..nc],
                    &mut e_buf[..nc],
                    &mut p_buf[..nc],
                    &mut r_buf[..nc],
                );
                black_box(&t_buf);
                black_box(&e_buf);
                black_box(&p_buf);
                black_box(&r_buf);
            }
        }),
    };

    let perf = Sweep {
        scalar: best_secs(reps, || {
            for (o, &x) in out.iter_mut().zip(&xs) {
                *o = model.perf_at(black_box(x));
            }
            black_box(&out);
        }),
        batch: best_secs(reps, || {
            plan.perf_batch_serial(black_box(&xs), &mut out);
            black_box(&out);
        }),
        batch_par: best_secs(reps, || {
            plan.perf_batch(black_box(&xs), &mut out);
            black_box(&out);
        }),
    };

    let energy_eff = Sweep {
        scalar: best_secs(reps, || {
            for (o, &x) in out.iter_mut().zip(&xs) {
                *o = model.energy_eff_at(black_box(x));
            }
            black_box(&out);
        }),
        batch: best_secs(reps, || {
            plan.energy_eff_batch_serial(black_box(&xs), &mut out);
            black_box(&out);
        }),
        batch_par: best_secs(reps, || {
            plan.energy_eff_batch(black_box(&xs), &mut out);
            black_box(&out);
        }),
    };

    obs::info!("bench", "bench_report: end-to-end fit_platform...");
    let spec = spec_for(&platform(PlatformId::ArndaleGpu), Precision::Single);
    let cfg = SweepConfig {
        points: 17,
        target_secs: 0.04,
        level_runs: 1,
        random_runs: 1,
        ..Default::default()
    };
    let suite = run_suite(&spec, &cfg, &Engine::default()).dram;
    let t_fit = best_secs(3, || {
        black_box(try_fit_platform(black_box(&suite), &FitOptions::default()).expect("fit"));
    });

    obs::info!("bench", "bench_report: blocked SGEMM (branchless vs branchy replica)...");
    let n_gemm = 256;
    let mut ws = GemmWorkspace::new(n_gemm);
    let branchless = gemm_bench_with(&mut ws, 64, 0.2);
    let branchy_secs = {
        let a: Vec<f32> = (0..n_gemm * n_gemm).map(|i| ((i % 101) as f32) * 0.01).collect();
        let b: Vec<f32> = (0..n_gemm * n_gemm).map(|i| ((i % 97) as f32) * 0.01).collect();
        let mut c = vec![0.0f32; n_gemm * n_gemm];
        // Warmup + best-of until 0.2 s, mirroring `time_kernel`.
        branchy_sgemm(&mut c, &a, &b, n_gemm, 64);
        let mut best = f64::INFINITY;
        let mut total = 0.0;
        while total < 0.2 {
            c.fill(0.0);
            let start = Instant::now();
            branchy_sgemm(&mut c, &a, &b, n_gemm, 64);
            let dt = start.elapsed().as_secs_f64();
            black_box(&c);
            best = best.min(dt);
            total += dt;
        }
        best
    };
    let gflops = |secs: f64| 2.0 * (n_gemm as f64).powi(3) / secs / 1e9;

    obs::info!(
        "bench",
        "bench_report: archline-serve engine (pipelined + depth-1 closed loop, \
         open-loop rate sweep, overload burst)..."
    );
    let serve = serve_bench();

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema_version\": {BENCH_SCHEMA_VERSION},");
    if let Some(rev) = obs::git_revision() {
        let _ = writeln!(json, "  \"git_rev\": \"{rev}\",");
    }
    let _ = writeln!(json, "  \"sweep_points\": {SWEEP_POINTS},");
    let _ = writeln!(json, "  \"num_workers\": {},", num_threads());
    let _ = writeln!(json, "  \"par_grain\": {},", adaptive_grain(SWEEP_POINTS));
    let _ = writeln!(json, "  \"par_threshold\": {PAR_THRESHOLD},");
    let _ = writeln!(json, "  \"streaming_bw_gbps\": {bw_gbps:.1},");
    // Headline: the fused sweep the fit objective and artifacts actually
    // run, against the *derived* per-point scalar path.
    let _ = writeln!(
        json,
        "  \"speedup_batch_vs_scalar\": {:.3},",
        evaluate.scalar / evaluate.batch
    );
    let _ = writeln!(
        json,
        "  \"speedup_batch_par_vs_batch\": {:.3},",
        evaluate.batch / evaluate.batch_par
    );
    // The same fused kernel with its working set inside L2: what the kernel
    // does when DRAM is not the limiter (small fit suites, figure grids).
    let _ = writeln!(
        json,
        "  \"speedup_batch_vs_scalar_cached\": {:.3},",
        evaluate_cached.scalar / evaluate_cached.batch
    );
    let _ = writeln!(
        json,
        "  \"scalar_underived_mpts_per_sec\": {:.3},",
        mpts(SWEEP_POINTS, t_underived)
    );
    let _ = writeln!(
        json,
        "  \"speedup_batch_vs_scalar_underived\": {:.3},",
        t_underived / avg_power.batch
    );
    let _ = writeln!(json, "  \"kernel_sweeps\": {{");
    avg_power.write_json(&mut json, "avg_power", true);
    time_energy.write_json(&mut json, "time_energy", true);
    evaluate.write_json(&mut json, "evaluate", true);
    evaluate_cached.write_json(&mut json, "evaluate_cached", true);
    perf.write_json(&mut json, "perf", true);
    energy_eff.write_json(&mut json, "energy_eff", false);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"fit_platform_ms\": {:.3},", t_fit * 1e3);
    let _ = writeln!(json, "  \"gemm_n{n_gemm}_block64\": {{");
    let _ = writeln!(json, "    \"branchy_gflops\": {:.3},", gflops(branchy_secs));
    let _ = writeln!(json, "    \"branchless_gflops\": {:.3}", branchless.gflops());
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"serve\": {{");
    let h = &serve.headline;
    let _ = writeln!(json, "    \"clients\": {},", h.clients);
    let _ = writeln!(json, "    \"depth\": {},", h.depth);
    let _ = writeln!(json, "    \"queries\": {},", h.queries);
    let _ = writeln!(json, "    \"queries_per_sec\": {:.1},", h.queries_per_sec);
    let _ = writeln!(json, "    \"latency_p50_us\": {:.1},", h.latency_p50_us);
    let _ = writeln!(json, "    \"latency_p99_us\": {:.1},", h.latency_p99_us);
    if let Some(ph) = &h.phases {
        let _ = writeln!(json, "    \"phases_us\": {{");
        let phase_rows: [(&str, &PhasePct); 3] = [
            ("queue", &ph.queue),
            ("kernel", &ph.kernel),
            ("total", &ph.total),
        ];
        for (i, (name, p)) in phase_rows.iter().enumerate() {
            let _ = writeln!(
                json,
                "      \"{name}\": {{\"p50\": {:.1}, \"p99\": {:.1}}}{}",
                p.p50,
                p.p99,
                if i == phase_rows.len() - 1 { "" } else { "," }
            );
        }
        let _ = writeln!(json, "    }},");
    }
    let d1 = &serve.depth1;
    let _ = writeln!(json, "    \"closed_loop_depth1\": {{");
    let _ = writeln!(json, "      \"clients\": {},", d1.clients);
    let _ = writeln!(json, "      \"queries\": {},", d1.queries);
    let _ = writeln!(json, "      \"queries_per_sec\": {:.1},", d1.queries_per_sec);
    let _ = writeln!(json, "      \"latency_p50_us\": {:.1},", d1.latency_p50_us);
    let _ = writeln!(json, "      \"latency_p99_us\": {:.1}", d1.latency_p99_us);
    let _ = writeln!(json, "    }},");
    let _ = writeln!(json, "    \"open_loop\": [");
    let last = serve.open_loop.len().saturating_sub(1);
    for (i, pt) in serve.open_loop.iter().enumerate() {
        let _ = writeln!(json, "      {{");
        let _ = writeln!(json, "        \"offered_qps\": {:.1},", pt.offered_qps);
        let _ = writeln!(json, "        \"achieved_qps\": {:.1},", pt.achieved_qps);
        let _ = writeln!(json, "        \"latency_p99_us\": {:.1},", pt.latency_p99_us);
        let _ = writeln!(json, "        \"shed_rate\": {:.3}", pt.shed_rate);
        let _ = writeln!(json, "      }}{}", if i == last { "" } else { "," });
    }
    let _ = writeln!(json, "    ],");
    let _ = writeln!(json, "    \"overload_submitted\": {},", serve.overload_submitted);
    let _ = writeln!(json, "    \"overload_shed\": {},", serve.overload_shed);
    let _ = writeln!(
        json,
        "    \"shed_rate\": {:.3}",
        serve.overload_shed as f64 / serve.overload_submitted as f64
    );
    let _ = writeln!(json, "  }},");
    // Final counter snapshot (obs writes well-formed JSON), so the report
    // records how much measured work stands behind the numbers above.
    json.push_str("  \"metrics\": ");
    obs::metrics::snapshot().write_json(&mut json);
    json.push_str("\n}\n");

    if let Ok(old) = std::fs::read_to_string("BENCH_model.json") {
        if let Some(w) = prior_schema_warning(&old, BENCH_SCHEMA_VERSION) {
            obs::warn!("bench", "bench_report: {w}");
        }
    }
    std::fs::write("BENCH_model.json", &json).expect("write BENCH_model.json");
    obs::info!("bench", "wrote BENCH_model.json");
    print!("{json}");
    obs::flush();
}

/// The seed's blocked SGEMM, zero-skip branch included — kept only so the
/// report can quantify what removing it bought.
fn branchy_sgemm(c: &mut [f32], a: &[f32], b: &[f32], n: usize, block: usize) {
    archline_par::parallel_chunks_mut(c, block * n, |panel_idx, c_panel| {
        let i0 = panel_idx * block;
        let rows = c_panel.len() / n;
        for k0 in (0..n).step_by(block) {
            let k_hi = (k0 + block).min(n);
            for j0 in (0..n).step_by(block) {
                let j_hi = (j0 + block).min(n);
                for di in 0..rows {
                    let i = i0 + di;
                    let c_row = &mut c_panel[di * n..(di + 1) * n];
                    for k in k0..k_hi {
                        let aik = a[i * n + k];
                        if aik == 0.0 {
                            continue;
                        }
                        let b_row = &b[k * n + j0..k * n + j_hi];
                        for (cj, &bkj) in c_row[j0..j_hi].iter_mut().zip(b_row) {
                            *cj = bkj.mul_add(aik, *cj);
                        }
                    }
                }
            }
        }
    });
}
