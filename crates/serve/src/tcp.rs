//! NDJSON-over-TCP front door.
//!
//! One JSON object per line in each direction. Per connection, a reader
//! thread parses and submits on the admission path (so shedding happens
//! on the connection's thread, never in a worker) and a writer thread
//! answers **in submission order** — clients may pipeline requests and
//! correlate by either order or `id`. Accepted sockets run with
//! `TCP_NODELAY`, and each answer leaves in one write, so an answer is
//! never held back waiting for the client's ACK of the previous one.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};

use archline_obs as obs;
use serde_json::Value;
use std::collections::BTreeMap;

use crate::protocol::{parse_line, salvage_id, Reject, Response, WireMsg};
use crate::server::{ServeHandle, Ticket};

/// What the reader hands the writer: an admitted ticket to wait on, or a
/// pre-rendered line (control ops, parse rejections).
enum Out {
    Ticket(Ticket),
    Line(String),
}

/// Accept loop. Serves until `shutdown` is set externally or — when
/// `allow_shutdown` is true — a client sends `{"op":"shutdown"}`.
///
/// Returns `Ok(())` on graceful stop; `Err` only for accept-loop I/O
/// errors (a single connection failing never stops the server).
pub fn serve_tcp(
    listener: TcpListener,
    handle: ServeHandle,
    allow_shutdown: bool,
    shutdown: Arc<AtomicBool>,
) -> std::io::Result<()> {
    let local = listener.local_addr()?;
    obs::info!("serve", "serve: listening on {local}");
    loop {
        let stream = accept(&listener);
        // ordering: Acquire — pairs with the Release store in the shutdown
        // command handler; the exiting loop must observe everything the
        // requesting connection wrote before asking to stop.
        if shutdown.load(Ordering::Acquire) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(e) => {
                obs::warn!("serve", "serve: accept failed: {e}");
                continue;
            }
        };
        let handle = handle.clone();
        let shutdown = Arc::clone(&shutdown);
        let scope = obs::current_scope();
        let spawned = std::thread::Builder::new().name("serve-conn".to_string()).spawn(move || {
            let _scope = scope.enter();
            let peer =
                stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "?".to_string());
            if let Err(e) = handle_connection(stream, &handle, allow_shutdown, &shutdown) {
                obs::debug!("serve", "serve: connection {peer} ended: {e}");
            }
            // Unblock the accept loop so a requested shutdown takes
            // effect without waiting for another client.
            // ordering: Acquire — same pairing as the accept-loop check.
            if shutdown.load(Ordering::Acquire) {
                let _ = TcpStream::connect(local);
            }
        });
        // The failed spawn dropped the stream, closing this client's
        // connection; the listener itself is fine, so keep accepting.
        if let Err(e) = spawned {
            obs::warn!("serve", "serve: cannot spawn a connection thread: {e}");
        }
    }
    obs::info!("serve", "serve: accept loop stopped");
    Ok(())
}

/// Accepts one connection, with `TCP_NODELAY` set: answers are small and
/// written one at a time, which is the pattern Nagle's algorithm stalls.
fn accept(listener: &TcpListener) -> std::io::Result<TcpStream> {
    let (stream, _) = listener.accept()?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

fn handle_connection(
    stream: TcpStream,
    handle: &ServeHandle,
    allow_shutdown: bool,
    shutdown: &AtomicBool,
) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let (tx, rx) = mpsc::channel::<Out>();
    let wire_handle = handle.clone();

    let scope = obs::current_scope();
    let writer_thread = std::thread::Builder::new().name("serve-conn-writer".to_string()).spawn(
        move || -> std::io::Result<()> {
            let _scope = scope.enter();
            // One buffer for the connection's lifetime; each answer is
            // written into it and leaves in a single write.
            let mut line = String::new();
            for out in rx {
                line.clear();
                match out {
                    Out::Ticket(t) => {
                        // The serialize phase happens here, on the wire:
                        // write_line measures it, embeds it in the line's
                        // `phases_us`, and we feed the same number to the
                        // server's phase histogram.
                        let resp = t.wait();
                        let serialize_us = resp.write_line(&mut line);
                        wire_handle.record_serialize(&resp, serialize_us);
                    }
                    Out::Line(l) => line.push_str(&l),
                }
                line.push('\n');
                writer.write_all(line.as_bytes())?;
            }
            Ok(())
        },
    )?;

    // Lines are read as bytes into one reused buffer; the line ending is
    // whitespace to the parser, so it stays on.
    let mut buf = Vec::new();
    loop {
        buf.clear();
        if reader.read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        let out = match std::str::from_utf8(&buf) {
            Ok(line) if line.trim().is_empty() => continue,
            // Answer with whatever id survives and keep the connection.
            Err(_) => bad_request(
                salvage_id(&String::from_utf8_lossy(&buf)),
                "request line is not valid UTF-8".to_string(),
            ),
            Ok(line) => match parse_line(line) {
                Ok(WireMsg::Request(req)) => Out::Ticket(handle.submit(req)),
                Ok(WireMsg::Ping) => Out::Line(control_line("pong", [])),
                Ok(WireMsg::Stats) => Out::Line(stats_line(handle)),
                Ok(WireMsg::Metrics) => Out::Line(metrics_line(handle)),
                Ok(WireMsg::Shutdown) => {
                    if allow_shutdown {
                        // ordering: Release — pairs with the accept loop's
                        // Acquire load; one-time transition.
                        shutdown.store(true, Ordering::Release);
                        let _ = tx.send(Out::Line(control_line("shutting_down", [])));
                        break;
                    }
                    bad_request(0, "shutdown not allowed (run with --allow-shutdown)".to_string())
                }
                Err(msg) => bad_request(salvage_id(line), msg),
            },
        };
        if tx.send(out).is_err() {
            break; // writer died (client hung up mid-response)
        }
    }
    drop(tx);
    writer_thread.join().map_err(|_| std::io::Error::other("connection writer panicked"))?
}

/// A rendered `bad_request` rejection.
fn bad_request(id: u64, msg: String) -> Out {
    Out::Line(Response::reject(id, Reject::BadRequest(msg)).to_json_line())
}

/// `{"id":0,"ok":true,"result":{"kind":<kind>, ...}}`
fn control_line(kind: &str, extra: impl IntoIterator<Item = (String, Value)>) -> String {
    let mut r: BTreeMap<String, Value> = extra.into_iter().collect();
    r.insert("kind".to_string(), Value::from(kind));
    let mut obj: BTreeMap<String, Value> = BTreeMap::new();
    obj.insert("id".to_string(), Value::from(0u64));
    obj.insert("ok".to_string(), Value::from(true));
    obj.insert("result".to_string(), Value::Object(r));
    serde_json::to_string(&Value::Object(obj)).unwrap_or_default()
}

/// The `{"op":"stats"}` answer: this engine's [`ServeStats::table`]
/// counters plus uptime and per-shard state.
///
/// [`ServeStats::table`]: crate::ServeStats::table
fn stats_line(handle: &ServeHandle) -> String {
    let s = handle.stats();
    let per_shard =
        |f: &dyn Fn(usize) -> Value| Value::Array((0..handle.num_shards()).map(f).collect());
    let derived = [
        ("uptime_s", Value::from(handle.uptime().as_secs_f64())),
        ("queue_depths", per_shard(&|i| Value::from(handle.shard_depth(i)))),
        ("breakers", per_shard(&|i| Value::from(handle.breaker_state(i).name()))),
    ];
    let counters =
        s.table().map(|(name, v)| (name.trim_start_matches("serve.").to_string(), Value::from(v)));
    control_line("stats", counters.into_iter().chain(derived.map(|(k, v)| (k.to_string(), v))))
}

/// The `{"op":"metrics"}` answer: one NDJSON line carrying this engine's
/// instruments merged into the process-wide obs snapshot, twice — as a
/// structured `json` object (spliced in verbatim from
/// [`obs::metrics::MetricsSnapshot::write_json`]) and as a Prometheus
/// text exposition `prometheus` string — plus the engine's `uptime_s`.
/// One line keeps the wire framing; scrapers unwrap the field they want.
fn metrics_line(handle: &ServeHandle) -> String {
    use std::fmt::Write as _;
    let snap = handle.metrics();
    let mut json = String::new();
    snap.write_json(&mut json);
    let mut prom = String::new();
    snap.write_prometheus(&mut prom);
    let prom = serde_json::to_string(&Value::from(prom.as_str())).unwrap_or_default();
    let mut line = String::with_capacity(json.len() + prom.len() + 96);
    let _ = write!(
        line,
        "{{\"id\":0,\"ok\":true,\"result\":{{\"kind\":\"metrics\",\"uptime_s\":{},\"json\":{json},\"prometheus\":{prom}}}}}",
        handle.uptime().as_secs_f64(),
    );
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Query, Request, SweepMetric, MAX_WIRE_POINTS};
    use crate::server::{ServeConfig, Server};
    use std::io::BufWriter;

    fn start_tcp(allow_shutdown: bool) -> (std::net::SocketAddr, Server, Arc<AtomicBool>) {
        start_tcp_with(ServeConfig::default(), allow_shutdown)
    }

    fn start_tcp_with(
        config: ServeConfig,
        allow_shutdown: bool,
    ) -> (std::net::SocketAddr, Server, Arc<AtomicBool>) {
        let server = Server::start(config).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = server.handle();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        std::thread::spawn(move || serve_tcp(listener, handle, allow_shutdown, stop2));
        (addr, server, stop)
    }

    fn roundtrip(addr: std::net::SocketAddr, lines: &[&str]) -> Vec<BTreeMap<String, Value>> {
        let stream = TcpStream::connect(addr).unwrap();
        let mut w = BufWriter::new(stream.try_clone().unwrap());
        let mut r = BufReader::new(stream);
        let mut out = Vec::new();
        for line in lines {
            writeln!(w, "{line}").unwrap();
            w.flush().unwrap();
            let mut resp = String::new();
            r.read_line(&mut resp).unwrap();
            let v: Value = serde_json::from_str(resp.trim()).unwrap();
            out.push(v.as_object().unwrap().clone());
        }
        out
    }

    #[test]
    fn pipelined_queries_answer_in_order_with_ids() {
        let (addr, server, _stop) = start_tcp(false);
        let resps = roundtrip(
            addr,
            &[
                r#"{"op":"ping"}"#,
                r#"{"id":11,"platform":"GTX Titan","query":{"kind":"eval","flops":[1e9],"bytes":[1e8]}}"#,
                r#"{"id":12,"platform":"Nowhere","query":{"kind":"eval","flops":[1.0],"bytes":[1.0]}}"#,
                "garbage",
                r#"{"op":"stats"}"#,
            ],
        );
        assert_eq!(resps[0].get("ok"), Some(&Value::Bool(true)));
        assert_eq!(resps[1].get("id"), Some(&Value::from(11u64)));
        assert_eq!(resps[1].get("ok"), Some(&Value::Bool(true)));
        assert_eq!(resps[2].get("ok"), Some(&Value::Bool(false)));
        assert_eq!(resps[3].get("ok"), Some(&Value::Bool(false)));
        let stats = match resps[4].get("result") {
            Some(Value::Object(r)) => r.clone(),
            other => panic!("{other:?}"),
        };
        assert_eq!(stats.get("kind"), Some(&Value::from("stats")));
        assert!(matches!(stats.get("accepted"), Some(Value::Number(_))));
        server.shutdown();
    }

    #[test]
    fn shutdown_op_is_refused_unless_allowed() {
        let (addr, server, stop) = start_tcp(false);
        let resps = roundtrip(addr, &[r#"{"op":"shutdown"}"#]);
        assert_eq!(resps[0].get("ok"), Some(&Value::Bool(false)));
        assert!(!stop.load(Ordering::Acquire));
        server.shutdown();

        let (addr, server, stop) = start_tcp(true);
        let resps = roundtrip(addr, &[r#"{"op":"shutdown"}"#]);
        assert_eq!(resps[0].get("ok"), Some(&Value::Bool(true)));
        assert!(stop.load(Ordering::Acquire));
        server.shutdown();
    }

    /// Writes `bytes` in one go, then reads `n` answer lines.
    fn pipeline(
        addr: std::net::SocketAddr,
        bytes: &[u8],
        n: usize,
    ) -> Vec<BTreeMap<String, Value>> {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(bytes).unwrap();
        let mut r = BufReader::new(stream);
        (0..n)
            .map(|_| {
                let mut resp = String::new();
                r.read_line(&mut resp).unwrap();
                let v: Value = serde_json::from_str(resp.trim()).unwrap();
                v.as_object().unwrap().clone()
            })
            .collect()
    }

    fn error_of(resp: &BTreeMap<String, Value>) -> (String, String) {
        let Some(Value::Object(e)) = resp.get("error") else { panic!("{resp:?}") };
        let text = |k: &str| match e.get(k) {
            Some(Value::String(s)) => s.clone(),
            other => panic!("{other:?}"),
        };
        (text("kind"), text("detail"))
    }

    #[test]
    fn accepted_sockets_have_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let stream = accept(&listener).unwrap();
        assert!(stream.nodelay().unwrap());
        drop(client);
    }

    #[test]
    fn invalid_utf8_line_gets_a_typed_answer_and_the_connection_lives() {
        let (addr, server, _stop) = start_tcp(false);
        let eval = |id: u64| {
            format!(
                r#"{{"id":{id},"platform":"NUC CPU","query":
                    {{"kind":"eval","flops":[1e9],"bytes":[1e8]}}}}"#
            )
            .replace('\n', "")
        };
        let mut bytes = eval(1).into_bytes();
        bytes.extend_from_slice(b"\n{\"id\":2,\"platform\":\"NUC \xff\xfe CPU\"}\r\n\xc3\n");
        bytes.extend_from_slice(eval(3).as_bytes());
        bytes.push(b'\n');
        let resps = pipeline(addr, &bytes, 4);
        assert_eq!(resps[0].get("id"), Some(&Value::from(1u64)));
        assert_eq!(resps[0].get("ok"), Some(&Value::Bool(true)));
        for (resp, id) in [(&resps[1], 2u64), (&resps[2], 0)] {
            assert_eq!(resp.get("id"), Some(&Value::from(id)), "{resp:?}");
            let (kind, detail) = error_of(resp);
            assert_eq!(kind, "bad_request");
            assert_eq!(detail, "request line is not valid UTF-8");
        }
        assert_eq!(resps[3].get("id"), Some(&Value::from(3u64)));
        assert_eq!(resps[3].get("ok"), Some(&Value::Bool(true)));
        server.shutdown();
    }

    /// Size limits are checked once, at admission: a request over them is
    /// rejected on the wire with the in-process message, never shrunk.
    #[test]
    fn oversized_requests_are_rejected_on_the_wire_as_in_process() {
        let request = |query: Query| Request {
            id: 5,
            platform: "NUC CPU".to_string(),
            double_precision: false,
            cap: None,
            deadline_ms: None,
            trace: None,
            query,
        };
        let sweep =
            |points: usize| Query::Sweep { metric: SweepMetric::Perf, lo: 0.1, hi: 10.0, points };
        let crossover = |grid: usize| Query::Crossover {
            other: "GTX 680".to_string(),
            metric: SweepMetric::Perf,
            lo: 0.1,
            hi: 10.0,
            grid,
        };
        let eval = |flops: usize, bytes: usize| Query::Eval {
            flops: vec![1e9; flops],
            bytes: vec![1e8; bytes],
        };
        let body = |q: &str| format!(r#"{{"id":5,"platform":"NUC CPU","query":{q}}}"#);
        let sweep_line = |n: usize| {
            body(&format!(r#"{{"kind":"sweep","metric":"perf","lo":0.1,"hi":10.0,"points":{n}}}"#))
        };
        let crossover_line = |n: usize| {
            body(&format!(
                r#"{{"kind":"crossover","other":"GTX 680","metric":"perf",
                    "lo":0.1,"hi":10.0,"grid":{n}}}"#
            ))
            .replace('\n', "")
        };
        let eval_line = |f: usize, b: usize| {
            let nums = |n: usize, v: &str| vec![v; n].join(",");
            body(&format!(
                r#"{{"kind":"eval","flops":[{}],"bytes":[{}]}}"#,
                nums(f, "1e9"),
                nums(b, "1e8")
            ))
        };

        let small = ServeConfig { max_points: 16, ..ServeConfig::default() };
        for (config, cases) in [
            (
                ServeConfig::default(),
                vec![
                    (sweep_line(2_000_000), sweep(2_000_000)),
                    (sweep_line(MAX_WIRE_POINTS + 1), sweep(MAX_WIRE_POINTS + 1)),
                    (crossover_line(2_000_000), crossover(2_000_000)),
                    (sweep_line(1), sweep(1)),
                    (eval_line(0, 0), eval(0, 0)),
                    (eval_line(1, 2), eval(1, 2)),
                ],
            ),
            (
                small.clone(),
                vec![
                    (sweep_line(17), sweep(17)),
                    (crossover_line(17), crossover(17)),
                    (eval_line(17, 17), eval(17, 17)),
                ],
            ),
        ] {
            let (addr, server, _stop) = start_tcp_with(config, false);
            let lines: Vec<&str> = cases.iter().map(|(line, _)| line.as_str()).collect();
            let resps = roundtrip(addr, &lines);
            for ((line, query), resp) in cases.iter().zip(&resps) {
                let in_process = server.handle().query(request(query.clone()));
                let Err(Reject::BadRequest(want)) = in_process.result else {
                    panic!("in process accepted {line}: {in_process:?}")
                };
                assert_eq!(resp.get("id"), Some(&Value::from(5u64)));
                assert_eq!(error_of(resp), ("bad_request".to_string(), want), "{line}");
            }
            server.shutdown();
        }

        // At the limit, the request is answered in full.
        let (addr, server, _stop) = start_tcp_with(small, false);
        let resps = roundtrip(addr, &[&sweep_line(16), &eval_line(16, 16)]);
        for resp in &resps {
            assert_eq!(resp.get("ok"), Some(&Value::Bool(true)), "{resp:?}");
        }
        let Some(Value::Object(r)) = resps[0].get("result") else { panic!() };
        let Some(Value::Array(grid)) = r.get("intensity") else { panic!() };
        assert_eq!(grid.len(), 16);
        server.shutdown();
    }
}
