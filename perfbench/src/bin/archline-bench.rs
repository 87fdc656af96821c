//! `archline-bench` — runs one workload of the benchmark and prints its
//! result.
//!
//! ```text
//! archline-bench --workload <repro|serve-eval|serve-sweep|wire-mixed>
//!                [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! The next-to-last stdout line is a detail object (provenance, every
//! metric with its per-trial values, run notes); the last is the result
//! object `{"correct","attempted","failed","metrics"}` holding the
//! end-to-end metrics, or the per-layer ones with `--trace 1`. Exits 1
//! when a correctness check fails or a metric could not be measured, 2 on
//! usage errors.

use archline_perfbench::metrics::{END_TO_END, PER_LAYER};
use archline_perfbench::{provenance, run, Plan, Workload};
use serde_json::{Map, Value};

/// Default input seed of every workload: the sweep's default base seed,
/// at which `repro` matches its pinned digests.
const DEFAULT_SEED: u64 = 65;
/// Default measured seconds per run.
const DEFAULT_SECONDS: f64 = 20.0;

fn usage(msg: &str) -> ! {
    eprintln!("archline-bench: {msg}");
    eprintln!(
        "usage: archline-bench --workload <repro|serve-eval|serve-sweep|wire-mixed> \
         [--seed N] [--seconds S] [--trace 0|1] [--smoke]"
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut traced = false;
    let mut smoke = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match a.as_str() {
            "--workload" => {
                let v = value("--workload");
                workload = Some(
                    Workload::parse(&v)
                        .unwrap_or_else(|| usage(&format!("unknown workload `{v}`"))),
                );
            }
            "--seed" => {
                seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs an unsigned integer"))
            }
            "--seconds" => {
                seconds = value("--seconds")
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds needs a positive number"))
            }
            "--trace" => {
                traced = match value("--trace").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--smoke" => smoke = true,
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let plan = Plan::new(workload, seed, seconds, traced, smoke);
    let out = run(&plan);

    let mut detail = Map::new();
    detail.insert(
        "provenance".to_string(),
        provenance::record(workload.name(), seed, traced, smoke, plan.seconds),
    );
    detail.insert("trials".to_string(), Value::from(plan.trials));
    detail.insert("trial_secs".to_string(), Value::from(plan.trial_secs));
    detail.insert("metrics".to_string(), out.metrics_detail());
    detail.insert("errors".to_string(), Value::from(out.errors.clone()));
    detail.insert("notes".to_string(), Value::Object(out.detail.clone()));
    println!(
        "{}",
        serde_json::to_string(&Value::Object(detail)).unwrap_or_default()
    );

    let wanted = if traced { PER_LAYER } else { END_TO_END };
    match out.result_line(wanted) {
        Ok(line) => {
            println!("{line}");
            for e in &out.errors {
                eprintln!("archline-bench: check failed: {e}");
            }
            std::process::exit(if out.correct() { 0 } else { 1 });
        }
        Err(e) => {
            for e in &out.errors {
                eprintln!("archline-bench: {e}");
            }
            eprintln!("archline-bench: no result: {e}");
            std::process::exit(1);
        }
    }
}
