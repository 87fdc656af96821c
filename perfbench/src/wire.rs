//! The `wire-mixed` workload: the same engine behind `serve_tcp` on
//! loopback, one connection, open-loop Poisson arrivals of a mixed query
//! stream whose capped requests churn the per-worker plan caches. Also the
//! probe of the NDJSON protocol (`parse_line`, `to_json_line`) on the
//! workload's own lines.

use std::fmt::Write as _;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use archline_platforms::all_platforms;
use archline_serve::protocol::{parse_line, WireMsg};
use archline_serve::tcp::serve_tcp;
use archline_serve::{CapOverride, Query, Request, Response, Server, SweepMetric};

use crate::gen::{poisson_schedule, Deck, SplitMix64};
use crate::inproc::{self, StatsSnap, CHECK_EVERY};
use crate::metrics::Outcome;
use crate::stats::{
    mean, median, percentile, samples_needed, windowed_percentiles, windowed_rates,
};
use crate::Plan;

/// The tail percentile of the latency trials. Not p99: on a two-core
/// host, scheduling stalls of a few milliseconds, in which no answer
/// arrives, touch about 1 % of the requests, so a trial's p99 flips
/// between the server's tail and the host's stalls from run to run.
pub const TAIL: f64 = 95.0;
/// Seconds per window: latencies are read per window of scheduled send
/// times and the closed-loop rate per window of answer times, and the
/// run reports the median window (see `stats::windowed_percentiles`).
const WINDOW_SECS: f64 = 0.1;
/// Offered rate of the latency trials.
pub const BASE_RATE: f64 = 4000.0;
/// Distinct request bodies per seed.
const POOL: usize = 1024;
/// Eval, sweep and crossover bodies in the pool: 70 / 20 / 10 %.
const MIX: [usize; 3] = [717, 205, 102];
/// Pool entries carrying a throttle cap: 25 %.
const CAPPED: usize = 256;
/// Distinct throttle factors: with 12 platforms, more plans than a
/// 32-entry worker cache holds.
const THROTTLES: usize = 48;
/// Requests the closed-loop stretches keep outstanding.
pub const WINDOW: usize = 64;

/// Query kinds, in `MIX` order.
pub const KINDS: [&str; 3] = ["eval", "sweep", "crossover"];

/// One pool entry: the request, its wire line after the id, and the
/// engine's in-process answer to it.
pub struct Template {
    /// The request (id 0).
    pub req: Request,
    /// Index into [`KINDS`].
    pub kind: usize,
    /// The request line after `{"id":<id>`, newline included.
    pub rest: String,
    /// The in-process answer, with its telemetry envelope.
    pub answer: Response,
    /// The answer's `result` JSON as the wire renders it.
    pub result: String,
}

/// The request's wire line after the id. Floats print in shortest
/// round-trip form so the server parses back exactly these values.
pub fn line_rest(req: &Request) -> String {
    let mut s = format!(",\"platform\":\"{}\"", req.platform);
    if let Some(CapOverride::Throttle(k)) = req.cap {
        let _ = write!(s, ",\"cap\":{{\"throttle\":{k:e}}}");
    }
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:e}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    match &req.query {
        Query::Eval { flops, bytes } => {
            let _ = write!(
                s,
                ",\"query\":{{\"kind\":\"eval\",\"flops\":[{}],\"bytes\":[{}]}}",
                list(flops),
                list(bytes)
            );
        }
        Query::Sweep {
            metric,
            lo,
            hi,
            points,
        } => {
            let _ = write!(
                s,
                ",\"query\":{{\"kind\":\"sweep\",\"metric\":\"{}\",\"lo\":{lo:e},\"hi\":{hi:e},\"points\":{points}}}",
                metric.name()
            );
        }
        Query::Crossover {
            other,
            metric,
            lo,
            hi,
            grid,
        } => {
            let _ = write!(
                s,
                ",\"query\":{{\"kind\":\"crossover\",\"other\":\"{other}\",\"metric\":\"{}\",\"lo\":{lo:e},\"hi\":{hi:e},\"grid\":{grid}}}",
                metric.name()
            );
        }
    }
    s.push_str("}\n");
    s
}

/// The `result` JSON of a response line, `None` for an error line.
pub fn result_part(line: &str) -> Option<&str> {
    let at = line.find(",\"result\":")?;
    line.trim_end()
        .strip_suffix('}')
        .and_then(|l| l.get(at + 10..))
}

/// Seeded request bodies with the exact 70/20/10 mix and 25 % capped.
pub fn requests(seed: u64) -> Vec<(usize, Request)> {
    let mut rng = SplitMix64::new(seed, 3);
    let names: Vec<String> = all_platforms().into_iter().map(|p| p.name).collect();
    let metrics = [
        SweepMetric::Power,
        SweepMetric::Perf,
        SweepMetric::EnergyEff,
    ];
    let mut kinds: Vec<usize> = MIX
        .iter()
        .enumerate()
        .flat_map(|(k, &n)| std::iter::repeat_n(k, n))
        .collect();
    rng.shuffle(&mut kinds);
    let mut capped: Vec<bool> = (0..POOL).map(|i| i < CAPPED).collect();
    rng.shuffle(&mut capped);
    kinds
        .into_iter()
        .zip(capped)
        .map(|(kind, capped)| {
            let p = rng.below(names.len());
            let query = match kind {
                0 => {
                    let (mut flops, mut bytes) = (Vec::new(), Vec::new());
                    for _ in 0..crate::serve_eval::POINTS {
                        let w = rng.log_uniform(1e6, 1e12);
                        flops.push(w);
                        bytes.push(w / rng.log_uniform(0.0625, 1024.0));
                    }
                    Query::Eval { flops, bytes }
                }
                1 => Query::Sweep {
                    metric: metrics[rng.below(3)],
                    lo: rng.log_uniform(0.01, 1.0),
                    hi: rng.log_uniform(16.0, 4096.0),
                    points: 256,
                },
                _ => Query::Crossover {
                    other: names[(p + 1 + rng.below(names.len() - 1)) % names.len()].clone(),
                    metric: metrics[rng.below(3)],
                    lo: rng.log_uniform(0.01, 1.0),
                    hi: rng.log_uniform(64.0, 4096.0),
                    grid: 256,
                },
            };
            let cap = capped
                .then(|| CapOverride::Throttle(1.0 + 0.05 * (1 + rng.below(THROTTLES)) as f64));
            let req = Request {
                id: 0,
                platform: names[p].clone(),
                double_precision: false,
                cap,
                deadline_ms: None,
                trace: None,
                query,
            };
            (kind, req)
        })
        .collect()
}

/// The connection's two halves.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// What one open-loop phase measured; times are seconds from its start.
#[derive(Debug, Default)]
pub struct Phase {
    /// Scheduled send offsets.
    pub sched: Vec<f64>,
    /// Actual send offsets.
    pub sent: Vec<f64>,
    /// Answer arrival offsets.
    pub recv: Vec<f64>,
    /// Answered successfully.
    pub ok: Vec<bool>,
    /// `(queue, window, kernel, serialize, total)` µs per answer (traced).
    pub phases: Vec<[f64; 5]>,
    /// Template per request.
    pub template: Vec<usize>,
    /// Requests answered out of order, with a wrong id, or wrongly.
    pub wrong: u64,
    /// Descriptions of the first few wrong answers.
    pub errors: Vec<String>,
}

impl Phase {
    /// Client latency from the scheduled send, µs.
    pub fn latency_us(&self) -> Vec<f64> {
        self.recv
            .iter()
            .zip(&self.sched)
            .map(|(r, s)| (r - s) * 1e6)
            .collect()
    }

    /// Generator lateness, µs.
    pub fn late_us(&self) -> Vec<f64> {
        self.sent
            .iter()
            .zip(&self.sched)
            .map(|(a, s)| (a - s) * 1e6)
            .collect()
    }

    /// Refused, failed or wrong answers.
    pub fn failed(&self) -> u64 {
        self.ok.iter().filter(|ok| !**ok).count() as u64
    }
}

fn number_after(line: &str, key: &str) -> Option<f64> {
    let at = line.find(key)? + key.len();
    let digits = line[at..].bytes().take_while(u8::is_ascii_digit).count();
    line[at..at + digits].parse().ok()
}

/// Checks one answer line: its id, and every [`CHECK_EVERY`]th id's
/// `result` against the in-process answer. `Ok(answered)` or a wrong
/// answer's description.
fn check_line(line: &str, id: u64, t: &Template) -> Result<bool, String> {
    let got = number_after(line, "{\"id\":").map(|v| v as u64);
    if got != Some(id) {
        return Err(format!("answer carries id {got:?}, expected {id}"));
    }
    // The envelope leads the line: `{"id":N,"ok":true,...`.
    let ok = line.get(..40).unwrap_or(line).contains("\"ok\":true");
    if ok && id % CHECK_EVERY == 0 && result_part(line) != Some(t.result.as_str()) {
        return Err(format!("answer {id} differs from the in-process answer"));
    }
    Ok(ok)
}

/// Open loop over one connection: a sender thread writes each request at
/// its Poisson-scheduled time (every request already due goes out in one
/// write), a reader thread takes the answers, which must come back in
/// order with their ids. Every [`CHECK_EVERY`]th id's `result` must equal
/// the in-process answer.
fn open_loop(r: &mut Ready, rate: f64, secs: f64, traced: bool) -> Result<Phase, String> {
    let Ready {
        conn,
        templates,
        deck,
        schedule: rng,
        next_id,
        ..
    } = r;
    let templates: &[Template] = templates;
    let sched = poisson_schedule(rng, rate, secs);
    let n = sched.len();
    let template: Vec<usize> = (0..n).map(|_| deck.draw()).collect();
    let base = *next_id;
    *next_id += n as u64;
    let start = Instant::now() + Duration::from_millis(2);
    let Conn { writer, reader } = conn;
    let (sent, read) = std::thread::scope(|s| {
        let sender = s.spawn(|| -> std::io::Result<Vec<f64>> {
            let mut sent = vec![0.0; n];
            let mut buf = String::new();
            let mut k = 0;
            while k < n {
                let due = start + Duration::from_secs_f64(sched[k]);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let now = Instant::now().duration_since(start).as_secs_f64();
                buf.clear();
                let mut j = k;
                while j < n && (j == k || sched[j] <= now) {
                    let _ = write!(buf, "{{\"id\":{}", base + j as u64);
                    buf.push_str(&templates[template[j]].rest);
                    j += 1;
                }
                writer.write_all(buf.as_bytes())?;
                let at = Instant::now().duration_since(start).as_secs_f64();
                sent[k..j].fill(at);
                k = j;
            }
            Ok(sent)
        });
        let reader = s.spawn(|| -> std::io::Result<Phase> {
            let mut p = Phase {
                recv: Vec::with_capacity(n),
                ok: Vec::with_capacity(n),
                ..Phase::default()
            };
            let mut line = String::new();
            for k in 0..n {
                line.clear();
                if reader.read_line(&mut line)? == 0 {
                    return Err(std::io::Error::other("connection closed mid-phase"));
                }
                p.recv
                    .push(Instant::now().duration_since(start).as_secs_f64());
                match check_line(&line, base + k as u64, &templates[template[k]]) {
                    Ok(ok) => p.ok.push(ok),
                    Err(e) => {
                        p.ok.push(false);
                        p.wrong += 1;
                        if p.errors.len() < 4 {
                            p.errors.push(e);
                        }
                    }
                }
                if traced {
                    let f = |key| number_after(&line, key).unwrap_or(f64::NAN);
                    p.phases.push([
                        f("\"queue\":"),
                        f("\"window\":"),
                        f("\"kernel\":"),
                        f("\"serialize\":"),
                        f("\"total\":"),
                    ]);
                }
            }
            Ok(p)
        });
        (
            sender.join().expect("sender thread"),
            reader.join().expect("reader thread"),
        )
    });
    let mut p = read.map_err(|e| format!("reading answers: {e}"))?;
    p.sent = sent.map_err(|e| format!("sending requests: {e}"))?;
    p.sched = sched;
    p.template = template;
    Ok(p)
}

/// What one closed-loop stretch measured.
#[derive(Debug, Default)]
pub struct Saturation {
    /// Requests sent.
    pub sent: u64,
    /// Answered successfully.
    pub answered: u64,
    /// Descriptions of the first few wrong answers.
    pub errors: Vec<String>,
    /// When each successful answer arrived, seconds from the first send.
    pub done: Vec<f64>,
}

/// Closed loop over the one connection: the sender keeps `window`
/// requests outstanding (a new one as each answer arrives) for `secs`,
/// then sends a `ping`, whose in-order `pong` tells the reader that every
/// answer is in.
fn saturate(r: &mut Ready, window: usize, secs: f64) -> Result<Saturation, String> {
    let Ready {
        conn,
        templates,
        deck,
        next_id,
        ..
    } = r;
    let templates: &[Template] = templates;
    let (tokens_tx, tokens_rx) = std::sync::mpsc::sync_channel::<()>(window);
    for _ in 0..window {
        tokens_tx.send(()).map_err(|e| e.to_string())?;
    }
    // Drawn up front so the reader knows each id's template.
    let capacity = (secs * 100_000.0) as usize + window;
    let template: Vec<usize> = (0..capacity).map(|_| deck.draw()).collect();
    let base = *next_id;
    let template = &template;
    let start = Instant::now();
    let Conn { writer, reader } = conn;
    let (sent, read) = std::thread::scope(|s| {
        let sender = s.spawn(move || -> std::io::Result<u64> {
            let stop = start + Duration::from_secs_f64(secs);
            let mut line = String::new();
            let mut k = 0;
            while k < capacity && Instant::now() < stop {
                if tokens_rx.recv().is_err() {
                    break;
                }
                line.clear();
                let _ = write!(line, "{{\"id\":{}", base + k as u64);
                line.push_str(&templates[template[k]].rest);
                writer.write_all(line.as_bytes())?;
                k += 1;
            }
            writer.write_all(b"{\"op\":\"ping\"}\n")?;
            Ok(k as u64)
        });
        let reader = s.spawn(|| -> std::io::Result<Saturation> {
            let mut sat = Saturation::default();
            let mut line = String::new();
            let mut k = 0;
            loop {
                line.clear();
                if reader.read_line(&mut line)? == 0 {
                    return Err(std::io::Error::other("connection closed mid-stretch"));
                }
                if line.contains("\"kind\":\"pong\"") {
                    break;
                }
                match check_line(
                    &line,
                    base + k as u64,
                    &templates[template[k.min(capacity - 1)]],
                ) {
                    Ok(true) => {
                        sat.answered += 1;
                        sat.done.push(start.elapsed().as_secs_f64());
                    }
                    Ok(false) => {}
                    Err(e) => {
                        if sat.errors.len() < 4 {
                            sat.errors.push(e);
                        }
                    }
                }
                k += 1;
                // The sender may already have stopped; then nobody waits.
                let _ = tokens_tx.try_send(());
            }
            Ok(sat)
        });
        (
            sender.join().expect("sender thread"),
            reader.join().expect("reader thread"),
        )
    });
    let mut sat = read.map_err(|e| format!("reading answers: {e}"))?;
    sat.sent = sent.map_err(|e| format!("sending requests: {e}"))?;
    *next_id += sat.sent;
    Ok(sat)
}

/// A started, warmed server with its connection and traffic.
pub struct Ready {
    server: Server,
    stop: Arc<AtomicBool>,
    addr: std::net::SocketAddr,
    accept: JoinHandle<std::io::Result<()>>,
    conn: Conn,
    templates: Vec<Template>,
    deck: Deck,
    schedule: SplitMix64,
    next_id: u64,
}

impl Ready {
    /// A closed-loop stretch of `secs`, counted into `out`: its answer rate
    /// per [`WINDOW_SECS`] window.
    fn saturate(&mut self, secs: f64, out: &mut Outcome) -> Result<Vec<f64>, String> {
        let sat = saturate(self, WINDOW, secs)?;
        out.attempted += sat.sent;
        out.failed += sat.sent - sat.answered;
        for e in sat.errors {
            out.error(e);
        }
        Ok(windowed_rates(&sat.done, WINDOW_SECS, secs))
    }

    /// Closes the connection, stops the accept loop and drains the engine,
    /// waiting for each.
    fn shutdown(self) -> Result<(), String> {
        let Ready {
            server,
            stop,
            addr,
            accept,
            conn,
            ..
        } = self;
        let Conn { writer, mut reader } = conn;
        // The server answers what it has, then closes its side.
        writer
            .shutdown(Shutdown::Write)
            .map_err(|e| e.to_string())?;
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).map_err(|e| e.to_string())?;
        stop.store(true, Ordering::Release);
        // Wakes the accept loop so it sees the flag.
        drop(TcpStream::connect(addr));
        accept
            .join()
            .map_err(|_| "accept loop panicked".to_string())?
            .map_err(|e| e.to_string())?;
        server.shutdown();
        Ok(())
    }
}

/// One setup: engine and listener start, connect, build the traffic and
/// its in-process answers, and a fixed warm-up on the wire.
pub fn setup(seed: u64, warmup_secs: f64, out: &mut Outcome) -> Result<(f64, Ready), String> {
    let start = Instant::now();
    let server = inproc::start(true);
    let handle = server.handle();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept = {
        let (handle, stop) = (handle.clone(), Arc::clone(&stop));
        std::thread::spawn(move || serve_tcp(listener, handle, false, stop))
    };
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut templates = Vec::with_capacity(POOL);
    for (kind, req) in requests(seed) {
        let rest = line_rest(&req);
        match parse_line(&format!("{{\"id\":0{}", rest.trim_end())) {
            Ok(WireMsg::Request(parsed)) if parsed == req => {}
            other => return Err(format!("request line does not parse back: {other:?}")),
        }
        let answer = handle.query(req.clone());
        let Ok(result) = answer.result.clone() else {
            return Err(format!("in-process answer refused: {:?}", answer.result));
        };
        let rendered = Response::new(0, Ok(result)).to_json_line();
        let result = result_part(&rendered)
            .ok_or("in-process answer renders no result")?
            .to_string();
        templates.push(Template {
            req,
            kind,
            rest,
            answer,
            result,
        });
    }
    let mut ready = Ready {
        server,
        stop,
        addr,
        accept,
        conn: Conn {
            writer: stream,
            reader,
        },
        deck: Deck::new(SplitMix64::new(seed, 4), templates.len()),
        templates,
        schedule: SplitMix64::new(seed, 5),
        next_id: 0,
    };
    let warm = open_loop(&mut ready, BASE_RATE, warmup_secs, false)?;
    count(&warm, out);
    Ok((start.elapsed().as_secs_f64(), ready))
}

/// Counts a phase's requests and failures into `out`.
fn count(p: &Phase, out: &mut Outcome) {
    out.attempted += p.sched.len() as u64;
    out.failed += p.failed();
    for e in &p.errors {
        out.error(e.clone());
    }
}

/// One open-loop stretch at [`BASE_RATE`], counted into `out`.
fn latency_trial(
    r: &mut Ready,
    secs: f64,
    traced: bool,
    out: &mut Outcome,
) -> Result<Phase, String> {
    // Long enough for a supported p99 even in a smoke run.
    let secs = secs.max(1.25 * samples_needed(99.0) as f64 / BASE_RATE);
    let p = open_loop(r, BASE_RATE, secs, traced)?;
    count(&p, out);
    Ok(p)
}

/// Latency percentile `p` per [`WINDOW_SECS`] window of scheduled send
/// times, one list per phase.
fn windowed_latency(phases: &[Phase], p: f64) -> Result<Vec<Vec<f64>>, String> {
    phases
        .iter()
        .map(|ph| windowed_percentiles(&ph.sched, &ph.latency_us(), WINDOW_SECS, p))
        .collect()
}

/// Per-layer metrics from traced phases: the wire's phase envelope, the
/// client-side residual, the generator's lateness.
fn put_wire_layers(phases: &[Phase], r: &Ready, out: &mut Outcome) -> Result<(), String> {
    let col = |i: usize| -> Vec<f64> {
        phases
            .iter()
            .flat_map(|p| p.phases.iter().map(move |x| x[i]))
            .collect()
    };
    out.put("serve.queue_us_p50", percentile(&col(0), 50.0)?, vec![]);
    out.put("serve.window_us_p50", percentile(&col(1), 50.0)?, vec![]);
    out.put("serve.kernel_us_p50", percentile(&col(2), 50.0)?, vec![]);
    out.put("serve.serialize_us_p50", percentile(&col(3), 50.0)?, vec![]);
    out.put("serve.queue_us_p99", percentile(&col(0), 99.0)?, vec![]);
    out.put("serve.window_us_p99", percentile(&col(1), 99.0)?, vec![]);
    out.put("serve.kernel_us_p99", percentile(&col(2), 99.0)?, vec![]);
    // What the client waited beyond the server's own envelope: reader and
    // writer threads, socket, and the client's own reading.
    let residual: Vec<f64> = phases
        .iter()
        .flat_map(|p| {
            p.recv
                .iter()
                .zip(&p.sent)
                .zip(&p.phases)
                .map(|((r, s), x)| (r - s) * 1e6 - (x[4] + x[3]))
        })
        .collect();
    out.put("tcp.residual_us_p50", percentile(&residual, 50.0)?, vec![]);
    out.put("tcp.residual_us_p99", percentile(&residual, 99.0)?, vec![]);
    let late: Vec<f64> = phases.iter().flat_map(Phase::late_us).collect();
    out.put("gen.late_us_p99", percentile(&late, 99.0)?, vec![]);
    out.put(
        "gen.late_us_max",
        late.iter().copied().fold(0.0, f64::max),
        vec![],
    );
    let mut uses = vec![0u64; r.templates.len()];
    for p in phases {
        for &t in &p.template {
            uses[t] += 1;
        }
    }
    let reqs: Vec<Request> = r.templates.iter().map(|t| t.req.clone()).collect();
    out.put(
        "serve.shard_max_share",
        inproc::shard_max_share(&r.server.handle(), &reqs, &uses),
        vec![],
    );
    Ok(())
}

/// Mean µs per call of `parse_line` on each kind's request lines and of
/// `to_json_line` on each kind's in-process answers; median of `reps`.
fn put_protocol(templates: &[Template], reps: usize, out: &mut Outcome) {
    let lines: Vec<String> = templates
        .iter()
        .map(|t| format!("{{\"id\":1{}", t.rest.trim_end()))
        .collect();
    for (k, kind) in KINDS.iter().enumerate() {
        let of_kind: Vec<usize> = (0..templates.len())
            .filter(|&i| templates[i].kind == k)
            .collect();
        let time = |f: &dyn Fn(usize)| {
            let per_call: Vec<f64> = (0..reps.max(1))
                .map(|_| {
                    let start = Instant::now();
                    for &i in &of_kind {
                        f(i);
                    }
                    start.elapsed().as_secs_f64() * 1e6 / of_kind.len() as f64
                })
                .collect();
            median(&per_call)
        };
        let parse = time(&|i| {
            black_box(parse_line(black_box(&lines[i])).is_ok());
        });
        let render = time(&|i| {
            black_box(templates[i].answer.to_json_line());
        });
        let name = |what: &str| -> &'static str {
            crate::metrics::PER_LAYER
                .iter()
                .find(|d| d.name == format!("protocol.{what}_us.{kind}"))
                .map(|d| d.name)
                .expect("protocol metrics are registered")
        };
        out.put(name("parse"), parse, vec![]);
        out.put(name("render"), render, vec![]);
    }
}

/// Runs the workload per `plan`. Every trial starts a fresh server and
/// connection, then runs a latency stretch at [`BASE_RATE`] and a
/// closed-loop throughput stretch; traced, also a traced latency stretch,
/// and on the last instance the layer probes.
pub fn run(plan: &Plan, out: &mut Outcome) -> Result<(), String> {
    let (mut setups, mut plain, mut traced, mut rates) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in 0..plan.trials {
        let (s, mut r) = setup(plan.seed, plan.warmup_secs, out)?;
        setups.push(s);
        plain.push(latency_trial(&mut r, plan.trial_secs, false, out)?);
        rates.push(r.saturate(plan.trial_secs, out)?);
        if plan.traced {
            let before = StatsSnap::take(r.server.handle().stats());
            traced.push(latency_trial(&mut r, plan.trial_secs, true, out)?);
            if i + 1 == plan.trials {
                before.put_delta(&StatsSnap::take(r.server.handle().stats()), out);
                put_wire_layers(&traced, &r, out)?;
                put_protocol(&r.templates, 5, out);
            }
        }
        r.shutdown()?;
    }
    out.put("setup_s", median(&setups), setups);
    // Medians, not means: a host stall of a few milliseconds backs up every
    // request scheduled during it, which moved a trial's mean latency up to
    // 4x on the reference machine, and a trial's p95 up to 2.5x.
    out.put_windowed("latency_us", &windowed_latency(&plain, 50.0)?);
    out.put_windowed("latency_tail_us", &windowed_latency(&plain, TAIL)?);
    // The closed loop stalls too: whole-stretch rates of one run ranged
    // 7.5k-12.4k answers/s.
    out.put_windowed("throughput", &rates);
    out.note(
        "wire.latency_mean_us",
        plain
            .iter()
            .map(|p| mean(&p.latency_us()))
            .collect::<Vec<_>>(),
    );
    if plan.traced {
        crate::put_trace_overhead(median(&windowed_latency(&traced, 50.0)?.concat()), out);
    }
    Ok(())
}

/// Short traced wire traffic and the protocol probe for another workload's
/// traced run.
pub fn probe(plan: &Plan, out: &mut Outcome) -> Result<(), String> {
    let (_, mut r) = setup(plan.seed, plan.warmup_secs, out)?;
    let before = StatsSnap::take(r.server.handle().stats());
    let traced = [latency_trial(&mut r, plan.probe_secs, true, out)?];
    before.put_delta(&StatsSnap::take(r.server.handle().stats()), out);
    put_wire_layers(&traced, &r, out)?;
    put_protocol(&r.templates, 3, out);
    r.shutdown()
}
