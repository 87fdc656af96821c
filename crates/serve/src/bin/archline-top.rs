//! archline-top — live one-screen view of a running archline-serve.
//!
//! ```text
//! archline-top [--addr HOST:PORT] [--interval-ms N] [--once]
//! ```
//!
//! Each tick opens a connection, sends `{"op":"stats"}` and
//! `{"op":"metrics"}`, and renders: uptime, qps (completed delta over the
//! tick), shed rate, occupancy, per-shard breaker state + live queue
//! depth, and per-phase p50/p99 from
//! the `serve.phase.*` histograms (reconstructed from the metrics op's
//! JSON buckets through the obs quantile estimator).
//!
//! Exit codes: 0 clean (`--once` or interrupt via closed terminal),
//! 1 when the server can't be reached on the first tick, 2 usage.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use archline_obs::HistogramSnapshot;
use serde_json::Value;

const EXIT_FATAL: i32 = 1;
const EXIT_USAGE: i32 = 2;

fn usage(error: &str) -> ! {
    if !error.is_empty() {
        eprintln!("archline-top: {error}");
    }
    eprintln!("usage: archline-top [--addr HOST:PORT] [--interval-ms N] [--once]");
    std::process::exit(EXIT_USAGE);
}

/// One scrape: the `result` objects of the stats and metrics ops.
struct Scrape {
    stats: Value,
    metrics: Value,
}

fn scrape(addr: &str) -> Result<Scrape, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| format!("socket: {e}"))?;
    let mut w = BufWriter::new(stream.try_clone().map_err(|e| format!("socket: {e}"))?);
    let mut r = BufReader::new(stream);
    let mut ask = |op: &str| -> Result<Value, String> {
        writeln!(w, "{{\"op\":\"{op}\"}}").map_err(|e| format!("send {op}: {e}"))?;
        w.flush().map_err(|e| format!("send {op}: {e}"))?;
        let mut line = String::new();
        r.read_line(&mut line).map_err(|e| format!("read {op}: {e}"))?;
        let v: Value =
            serde_json::from_str(line.trim()).map_err(|e| format!("parse {op}: {e}"))?;
        v.as_object()
            .and_then(|o| o.get("result").cloned())
            .ok_or_else(|| format!("{op}: response has no result"))
    };
    Ok(Scrape { stats: ask("stats")?, metrics: ask("metrics")? })
}

fn val_u64(v: &Value) -> Option<u64> {
    match v {
        Value::Number(serde_json::Number::PosInt(n)) => Some(*n),
        Value::Number(n) => {
            let f = n.as_f64();
            (f >= 0.0 && f.is_finite()).then_some(f as u64)
        }
        _ => None,
    }
}

fn get_u64(obj: &Value, key: &str) -> u64 {
    obj.as_object().and_then(|o| o.get(key)).and_then(val_u64).unwrap_or(0)
}

fn get_f64(obj: &Value, key: &str) -> f64 {
    match obj.as_object().and_then(|o| o.get(key)) {
        Some(Value::Number(n)) => n.as_f64(),
        _ => 0.0,
    }
}

fn get_array(obj: &Value, key: &str) -> Vec<Value> {
    match obj.as_object().and_then(|o| o.get(key)) {
        Some(Value::Array(a)) => a.clone(),
        _ => Vec::new(),
    }
}

/// Rebuilds an obs histogram snapshot from the metrics op's structured
/// snapshot (`result.json.histograms.<name>`, each
/// `{"count":..,"sum":..,"max":..,"mean":..,"buckets":[[le,n],..]}`), so
/// quantiles come from the same estimator the server would use.
fn histogram(metrics: &Value, name: &str) -> Option<HistogramSnapshot> {
    let h = metrics.as_object()?.get("json")?.as_object()?.get("histograms")?.as_object()?.get(name)?;
    let count = get_u64(h, "count");
    let buckets = get_array(h, "buckets")
        .iter()
        .filter_map(|pair| {
            let Value::Array(p) = pair else { return None };
            Some((val_u64(p.first()?)?, val_u64(p.get(1)?)?))
        })
        .collect();
    Some(HistogramSnapshot {
        name: name.to_string(),
        count,
        sum: get_u64(h, "sum"),
        max: get_u64(h, "max"),
        mean: get_f64(h, "mean"),
        buckets,
    })
}

/// `p50/p99` cell for one phase histogram, `-` when it has no samples.
fn quantile_cell(metrics: &Value, name: &str) -> String {
    match histogram(metrics, name) {
        Some(h) if h.count > 0 => {
            format!("{:>8} {:>8}", fmt_us(h.quantile(0.50)), fmt_us(h.quantile(0.99)))
        }
        _ => format!("{:>8} {:>8}", "-", "-"),
    }
}

fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{us}us")
    }
}

fn render(addr: &str, s: &Scrape, qps: f64, shed_rate: f64, clear: bool) {
    if clear {
        // Clear screen + home: a live top view, not a scrolling log.
        print!("\x1b[2J\x1b[H");
    }
    let uptime = get_f64(&s.stats, "uptime_s");
    println!("archline-top — {addr}   up {uptime:.0}s");
    println!(
        "qps {qps:>8.1}   shed/s {shed_rate:>7.1}   occupancy {:>5.2}",
        get_f64(&s.stats, "mean_batch_occupancy"),
    );
    println!(
        "accepted {}   completed {}   shed {}   failed {}   expired {}   panics {}",
        get_u64(&s.stats, "accepted"),
        get_u64(&s.stats, "completed"),
        get_u64(&s.stats, "shed"),
        get_u64(&s.stats, "failed"),
        get_u64(&s.stats, "deadline_expired"),
        get_u64(&s.stats, "panics_caught"),
    );
    println!();
    println!("{:<10} {:<10} {:>6}", "shard", "breaker", "depth");
    let breakers = get_array(&s.stats, "breakers");
    let depths = get_array(&s.stats, "queue_depths");
    for (i, b) in breakers.iter().enumerate() {
        let state = match b {
            Value::String(s) => s.as_str(),
            _ => "?",
        };
        let depth = depths.get(i).and_then(val_u64).unwrap_or(0);
        println!("{i:<10} {state:<10} {depth:>6}");
    }
    println!();
    println!("{:<12} {:>17} {:>17} {:>17}", "phase p50/p99", "eval", "sweep", "crossover");
    for phase in ["queue", "window", "kernel", "serialize", "total"] {
        let cells: Vec<String> = ["eval", "sweep", "crossover"]
            .iter()
            .map(|kind| quantile_cell(&s.metrics, &format!("serve.phase.{phase}_us.{kind}")))
            .collect();
        println!("{phase:<12} {}", cells.join(" "));
    }
    let _ = std::io::stdout().flush();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:7878".to_string();
    let mut interval = Duration::from_millis(1000);
    let mut once = false;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => match it.next() {
                Some(v) => addr = v.clone(),
                None => usage("--addr needs HOST:PORT"),
            },
            "--interval-ms" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(ms)) if ms > 0 => interval = Duration::from_millis(ms),
                _ => usage("--interval-ms needs a positive integer"),
            },
            "--once" => once = true,
            other => usage(&format!("unknown argument `{other}`")),
        }
    }

    let mut prev: Option<(Instant, u64, u64)> = None; // (when, completed, shed)
    loop {
        let s = match scrape(&addr) {
            Ok(s) => s,
            Err(e) => {
                if prev.is_none() {
                    eprintln!("archline-top: {e}");
                    std::process::exit(EXIT_FATAL);
                }
                eprintln!("archline-top: {e} (retrying)");
                std::thread::sleep(interval);
                continue;
            }
        };
        let now = Instant::now();
        let completed = get_u64(&s.stats, "completed");
        let shed = get_u64(&s.stats, "shed");
        let (qps, shed_rate) = match prev {
            Some((t0, c0, s0)) => {
                let dt = now.saturating_duration_since(t0).as_secs_f64().max(1e-9);
                ((completed.saturating_sub(c0)) as f64 / dt, (shed.saturating_sub(s0)) as f64 / dt)
            }
            None => (0.0, 0.0),
        };
        prev = Some((now, completed, shed));
        render(&addr, &s, qps, shed_rate, !once);
        if once {
            break;
        }
        std::thread::sleep(interval);
    }
}
