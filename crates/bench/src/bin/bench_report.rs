//! `bench_report` — measures the batch-evaluation kernels against their
//! per-point scalar paths, and the blocked SGEMM against the seed's branchy
//! variant, in the same run, and writes `BENCH_model.json` (schema
//! `SCHEMA_VERSION`) into the current directory. CI's perf smoke gate reads
//! the ratios; each is taken on one machine in one run, so it means something
//! on any runner.
//!
//! Per batch kernel (`avg_power`, the fused `evaluate`, its
//! L2-resident `evaluate_cached` view, `perf`, `energy_eff`), three
//! measurements bracket the claim over the same 10⁶-point log-spaced sweep:
//! - `scalar`: today's per-point plan-backed calls (inputs `black_box`ed per
//!   call, so the compiler cannot turn the baseline loop into the batch
//!   kernel);
//! - `batch`: the serial SoA lane kernel;
//! - `batch_par`: the adaptive-grain dispatching path (identical code to
//!   `batch` when one worker).
//!
//! The GEMM section measures the branchless blocked SGEMM *and* the seed's
//! branchy zero-skip variant from the same workspace so a regression in
//! either direction stays visible.
//!
//! Serve throughput is perfbench's (`serve-eval`, `wire-mixed`), gated in
//! CI against the parent commit by `ci/perf_pair.py`.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use archline_core::{plan::PAR_THRESHOLD, EnergyRoofline, Regime};
use archline_microbench::{gemm_bench_with, GemmWorkspace};
use archline_obs as obs;
use archline_par::{adaptive_grain, num_threads};
use archline_platforms::{platform, PlatformId, Precision};

/// Schema of `BENCH_model.json`: v11 holds the provenance header, the
/// `kernel_sweeps` and the GEMM pair (earlier versions: see the git history).
const SCHEMA_VERSION: u64 = 11;

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

fn main() {
    obs::set_stderr_level(Some(obs::Level::Info));

    let model = EnergyRoofline::new(
        platform(PlatformId::GtxTitan).machine_params(Precision::Single).expect("single"),
    );
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

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema_version\": {SCHEMA_VERSION},");
    if let Some(rev) = obs::git_revision() {
        let _ = writeln!(json, "  \"git_rev\": \"{rev}\",");
    }
    let _ = writeln!(json, "  \"sweep_points\": {SWEEP_POINTS},");
    let _ = writeln!(json, "  \"num_workers\": {},", num_threads());
    let _ = writeln!(json, "  \"par_grain\": {},", adaptive_grain(SWEEP_POINTS));
    let _ = writeln!(json, "  \"par_threshold\": {PAR_THRESHOLD},");
    let _ = writeln!(json, "  \"streaming_bw_gbps\": {bw_gbps:.1},");
    let _ = writeln!(json, "  \"kernel_sweeps\": {{");
    avg_power.write_json(&mut json, "avg_power", true);
    evaluate.write_json(&mut json, "evaluate", true);
    evaluate_cached.write_json(&mut json, "evaluate_cached", true);
    perf.write_json(&mut json, "perf", true);
    energy_eff.write_json(&mut json, "energy_eff", false);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"gemm_n{n_gemm}_block64\": {{");
    let _ = writeln!(json, "    \"branchy_gflops\": {:.3},", gflops(branchy_secs));
    let _ = writeln!(json, "    \"branchless_gflops\": {:.3}", branchless.gflops());
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");

    std::fs::write("BENCH_model.json", &json).expect("write BENCH_model.json");
    obs::info!("bench", "wrote BENCH_model.json");
    print!("{json}");
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
