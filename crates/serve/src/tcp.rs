//! NDJSON-over-TCP front door.
//!
//! One JSON object per line in each direction. Per connection, a reader
//! thread parses and submits on the admission path (so shedding happens
//! on the connection's thread, never in a worker) and a writer thread
//! answers **in submission order** — clients may pipeline requests and
//! correlate by either order or `id`.

use std::io::{BufRead, BufReader, BufWriter, Write};
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
    for stream in listener.incoming() {
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
        let _ = std::thread::Builder::new().name("serve-conn".to_string()).spawn(move || {
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
    }
    obs::info!("serve", "serve: accept loop stopped");
    Ok(())
}

fn handle_connection(
    stream: TcpStream,
    handle: &ServeHandle,
    allow_shutdown: bool,
    shutdown: &AtomicBool,
) -> std::io::Result<()> {
    let reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let (tx, rx) = mpsc::channel::<Out>();
    let wire_handle = handle.clone();

    let scope = obs::current_scope();
    let writer_thread = std::thread::Builder::new().name("serve-conn-writer".to_string()).spawn(
        move || -> std::io::Result<()> {
            let _scope = scope.enter();
            for out in rx {
                let line = match out {
                    Out::Ticket(t) => {
                        // The serialize phase happens here, on the wire:
                        // render_timed measures it, embeds it in the
                        // line's `phases_us`, and we feed the same number
                        // to the server's phase histogram.
                        let resp = t.wait();
                        let (line, serialize_us) = resp.render_timed();
                        wire_handle.record_serialize(&resp, serialize_us);
                        line
                    }
                    Out::Line(l) => l,
                };
                writer.write_all(line.as_bytes())?;
                writer.write_all(b"\n")?;
                writer.flush()?;
            }
            Ok(())
        },
    )?;

    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let out = match parse_line(&line) {
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
                Out::Line(
                    Response::reject(
                        0,
                        Reject::BadRequest("shutdown not allowed (run with --allow-shutdown)"
                            .to_string()),
                    )
                    .to_json_line(),
                )
            }
            Err(msg) => Out::Line(
                Response::reject(salvage_id(&line), Reject::BadRequest(msg)).to_json_line(),
            ),
        };
        if tx.send(out).is_err() {
            break; // writer died (client hung up mid-response)
        }
    }
    drop(tx);
    writer_thread.join().map_err(|_| std::io::Error::other("connection writer panicked"))?
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

/// The `stats` op's key for a counter's exposition name:
/// `serve.plan_cache.hit` → `plan_cache_hit`.
fn stats_key(name: &str) -> String {
    name.trim_start_matches("serve.").replace('.', "_")
}

/// The `{"op":"stats"}` answer: this engine's [`ServeStats::table`]
/// counters plus derived ratios and per-shard state.
///
/// [`ServeStats::table`]: crate::ServeStats::table
fn stats_line(handle: &ServeHandle) -> String {
    let s = handle.stats();
    let per_shard =
        |f: &dyn Fn(usize) -> Value| Value::Array((0..handle.num_shards()).map(f).collect());
    let derived = [
        ("uptime_s", Value::from(handle.uptime().as_secs_f64())),
        ("mean_batch_occupancy", Value::from(s.mean_batch_occupancy())),
        ("plan_cache_hit_rate", Value::from(s.plan_cache_hit_rate())),
        ("queue_depths", per_shard(&|i| Value::from(handle.shard_depth(i)))),
        ("breakers", per_shard(&|i| Value::from(handle.breaker_state(i).name()))),
    ];
    let counters = s.table().map(|(name, v)| (stats_key(name), Value::from(v)));
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
    use crate::server::{ServeConfig, Server};

    fn start_tcp(allow_shutdown: bool) -> (std::net::SocketAddr, Server, Arc<AtomicBool>) {
        let server = Server::start(ServeConfig::default()).unwrap();
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
}
