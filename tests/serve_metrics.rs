//! Telemetry-plane wire contract: a live NDJSON/TCP server must
//! round-trip client trace ids, expose `uptime_s` and per-shard queue
//! depths on the stats op, and answer `{"op":"metrics"}` with a
//! Prometheus text exposition whose per-phase histogram `_count` equals
//! the queries it actually served — its own, not another server's.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use archline_serve::tcp::serve_tcp;
use archline_serve::{Query, Request, ServeConfig, Server};
use serde_json::Value;

/// Minimal Prometheus text-exposition parser: `name{labels} value` and
/// `name value` lines into a flat map keyed by the full series name
/// (label block included, verbatim). `# TYPE`/`# HELP` comments are
/// validated for shape and skipped.
fn parse_prometheus(text: &str) -> BTreeMap<String, f64> {
    let mut series = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut words = comment.split_whitespace();
            let kind = words.next().unwrap_or("");
            assert!(
                kind == "TYPE" || kind == "HELP",
                "unknown exposition comment: {line}"
            );
            if kind == "TYPE" {
                let ty = words.nth(1).unwrap_or("");
                assert!(
                    ["counter", "gauge", "histogram", "summary", "untyped"].contains(&ty),
                    "bad TYPE line: {line}"
                );
            }
            continue;
        }
        let (name, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("bad series: {line}"));
        let value: f64 = value.parse().unwrap_or_else(|_| panic!("bad value: {line}"));
        assert!(
            name.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_'),
            "bad series name: {line}"
        );
        series.insert(name.trim().to_string(), value);
    }
    series
}

/// Cumulative-bucket sanity for one histogram: buckets never decrease and
/// the `+Inf` bucket equals `_count`.
fn assert_histogram_shape(series: &BTreeMap<String, f64>, name: &str) {
    let mut buckets: Vec<(&str, f64)> = series
        .iter()
        .filter(|(k, _)| k.starts_with(&format!("{name}_bucket{{")))
        .map(|(k, v)| (k.as_str(), *v))
        .collect();
    // Buckets sort by numeric le (the exposition emits them in order, but
    // the map resorted lexicographically); re-derive the numeric order.
    buckets.sort_by(|a, b| {
        let le = |s: &str| -> f64 {
            let inner = s.rsplit_once("le=\"").map(|(_, t)| t).unwrap_or("");
            let inner = inner.trim_end_matches("\"}");
            if inner == "+Inf" { f64::INFINITY } else { inner.parse().unwrap_or(f64::NAN) }
        };
        le(a.0).partial_cmp(&le(b.0)).unwrap_or(std::cmp::Ordering::Equal)
    });
    assert!(!buckets.is_empty(), "{name}: no _bucket series");
    let mut prev = 0.0;
    for (k, v) in &buckets {
        assert!(*v >= prev, "{k}: cumulative bucket decreased ({v} < {prev})");
        prev = *v;
    }
    let inf = buckets.last().map(|(_, v)| *v).unwrap_or(0.0);
    let count = series.get(&format!("{name}_count")).copied().unwrap_or(-1.0);
    assert_eq!(inf, count, "{name}: +Inf bucket must equal _count");
    assert!(series.contains_key(&format!("{name}_sum")), "{name}: missing _sum");
}

struct Client {
    w: BufWriter<TcpStream>,
    r: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        Client {
            w: BufWriter::new(stream.try_clone().expect("clone")),
            r: BufReader::new(stream),
        }
    }

    fn roundtrip(&mut self, line: &str) -> BTreeMap<String, Value> {
        writeln!(self.w, "{line}").expect("send");
        self.w.flush().expect("flush");
        let mut resp = String::new();
        self.r.read_line(&mut resp).expect("recv");
        let v: Value = serde_json::from_str(resp.trim()).expect("response parses");
        v.as_object().expect("response is an object").clone()
    }
}

fn get_u64(obj: &BTreeMap<String, Value>, key: &str) -> Option<u64> {
    match obj.get(key) {
        Some(Value::Number(serde_json::Number::PosInt(n))) => Some(*n),
        _ => None,
    }
}

/// Starts `server` behind `serve_tcp` on an ephemeral loopback port.
fn listen(server: &Server) -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let handle = server.handle();
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::spawn(move || serve_tcp(listener, handle, false, stop));
    addr
}

/// The `result` object of a control op.
fn control(client: &mut Client, op: &str) -> BTreeMap<String, Value> {
    let resp = client.roundtrip(&format!(r#"{{"op":"{op}"}}"#));
    resp.get("result").and_then(Value::as_object).expect("control result").clone()
}

/// The metrics op's Prometheus exposition, parsed.
fn prometheus(client: &mut Client) -> BTreeMap<String, f64> {
    match control(client, "metrics").get("prometheus") {
        Some(Value::String(s)) => parse_prometheus(s),
        other => panic!("metrics must carry a prometheus string, got {other:?}"),
    }
}

fn eval_line(id: u64, platform: &str) -> String {
    format!(
        r#"{{"id":{id},"platform":"{platform}","query":{{"kind":"eval","flops":[2e9],"bytes":[1e8]}}}}"#
    )
}

#[test]
fn live_server_traces_stats_and_prometheus_metrics() {
    let server = Server::start(ServeConfig { shards: 2, ..ServeConfig::default() })
        .expect("server");
    let mut client = Client::connect(listen(&server));

    // --- Trace round-trip: a client-supplied trace id echoes verbatim
    // (normalized to 16 hex digits), a traceless request gets a mint.
    let resp = client.roundtrip(
        r#"{"id":1,"trace":"deadbeef","platform":"GTX Titan","query":{"kind":"eval","flops":[1e9],"bytes":[1e8]}}"#,
    );
    assert_eq!(resp.get("ok"), Some(&Value::Bool(true)), "{resp:?}");
    assert_eq!(
        resp.get("trace"),
        Some(&Value::String("00000000deadbeef".to_string())),
        "client trace must echo, zero-extended"
    );
    let phases = resp.get("phases_us").and_then(Value::as_object).expect("phases_us attached");
    for key in ["queue", "window", "kernel", "serialize", "total"] {
        assert!(phases.contains_key(key), "phases_us missing `{key}`: {phases:?}");
    }

    let resp = client.roundtrip(
        r#"{"id":2,"platform":"GTX Titan","query":{"kind":"eval","flops":[1e9],"bytes":[1e8]}}"#,
    );
    match resp.get("trace") {
        Some(Value::String(t)) => {
            assert_eq!(t.len(), 16, "minted trace is 16 hex digits: {t}");
            assert!(t.bytes().all(|b| b.is_ascii_hexdigit()), "minted trace is hex: {t}");
        }
        other => panic!("telemetry-on server must mint a trace, got {other:?}"),
    }

    // A bad trace is a parse-level rejection naming the field.
    let resp = client.roundtrip(
        r#"{"id":3,"trace":"not-hex","platform":"GTX Titan","query":{"kind":"eval","flops":[1.0],"bytes":[1.0]}}"#,
    );
    assert_eq!(resp.get("ok"), Some(&Value::Bool(false)), "{resp:?}");

    // Serve a known batch of queries so the histograms have real mass.
    const EXTRA: u64 = 30;
    for i in 0..EXTRA {
        let resp = client.roundtrip(&eval_line(10 + i, "Desktop CPU"));
        assert_eq!(resp.get("ok"), Some(&Value::Bool(true)), "{resp:?}");
    }

    // --- Stats op, read right after the last answer: `completed` is
    // counted before a reply is sent, so the counts are already exact
    // (2 traced evals + EXTRA; id=3 was rejected at parse and never
    // reached the engine).
    let expected = 2 + EXTRA;
    let result = &control(&mut client, "stats");
    assert_eq!(get_u64(result, "completed"), Some(expected), "{result:?}");
    assert_eq!(get_u64(result, "accepted"), Some(expected), "{result:?}");
    assert_eq!(get_u64(result, "failed"), Some(0), "{result:?}");
    assert!(!result.contains_key("retries"), "retries are not exposed: {result:?}");
    match result.get("uptime_s") {
        Some(Value::Number(n)) => assert!(n.as_f64() >= 0.0, "uptime_s must be >= 0"),
        other => panic!("stats must report uptime_s, got {other:?}"),
    }
    match result.get("queue_depths") {
        Some(Value::Array(depths)) => {
            assert_eq!(depths.len(), 2, "one depth per shard: {depths:?}");
            // This client runs serially: queues must be fully drained.
            for d in depths {
                match d {
                    Value::Number(serde_json::Number::PosInt(n)) => assert_eq!(*n, 0),
                    other => panic!("queue depth must be a non-negative integer: {other:?}"),
                }
            }
        }
        other => panic!("stats must report queue_depths, got {other:?}"),
    }

    // --- Metrics op: JSON + Prometheus exposition, with per-phase
    // histogram `_count` equal to the queries this engine completed.
    // Phase records land *before* the reply is sent, and the serialize
    // record lands before each response line hits the wire, so every
    // count has settled by now — but poll anyway to stay robust.
    let deadline = Instant::now() + Duration::from_secs(10);
    let (json, prom) = loop {
        let metrics = client.roundtrip(r#"{"op":"metrics"}"#);
        let result = metrics.get("result").and_then(Value::as_object).expect("metrics result");
        assert_eq!(result.get("kind"), Some(&Value::String("metrics".to_string())));
        assert!(
            matches!(result.get("uptime_s"), Some(Value::Number(_))),
            "metrics op reports uptime_s"
        );
        let json = result.get("json").and_then(Value::as_object).expect("json snapshot").clone();
        let prom = match result.get("prometheus") {
            Some(Value::String(s)) => s.clone(),
            other => panic!("metrics must carry a prometheus string, got {other:?}"),
        };
        let series = parse_prometheus(&prom);
        let count = series.get("serve_phase_total_us_eval_count").copied().unwrap_or(0.0);
        if count == expected as f64 {
            break (json, series);
        }
        assert!(
            Instant::now() < deadline,
            "phase histogram count stuck at {count}, want {expected}"
        );
        std::thread::sleep(Duration::from_millis(10));
    };

    // Every phase histogram carries the same count as queries served.
    for phase in ["queue", "window", "kernel", "serialize", "total"] {
        let name = format!("serve_phase_{phase}_us_eval");
        let count = prom.get(&format!("{name}_count")).copied().unwrap_or(-1.0);
        assert_eq!(
            count, expected as f64,
            "{name}_count must equal queries served ({expected})"
        );
        assert_histogram_shape(&prom, &name);
    }
    // The JSON flavor agrees with the text flavor.
    let h = json
        .get("histograms")
        .and_then(Value::as_object)
        .and_then(|hs| hs.get("serve.phase.total_us.eval"))
        .and_then(Value::as_object)
        .expect("JSON histogram present");
    match h.get("count") {
        Some(Value::Number(serde_json::Number::PosInt(n))) => assert_eq!(*n, expected),
        other => panic!("JSON count must be an integer, got {other:?}"),
    }

    server.shutdown();
}

/// Two servers in one process keep disjoint books: each `metrics` op
/// reports exactly its own completions and phase samples.
#[test]
fn two_concurrent_servers_report_only_their_own_metrics() {
    let servers: Vec<Server> = (0..2)
        .map(|_| Server::start(ServeConfig::default()).expect("server"))
        .collect();
    let served = [7u64, 19];
    std::thread::scope(|scope| {
        for (server, &n) in servers.iter().zip(&served) {
            let addr = listen(server);
            scope.spawn(move || {
                let mut client = Client::connect(addr);
                for id in 0..n {
                    let resp = client.roundtrip(&eval_line(id, "GTX Titan"));
                    assert_eq!(resp.get("ok"), Some(&Value::Bool(true)), "{resp:?}");
                }
            });
        }
    });
    for (server, &n) in servers.iter().zip(&served) {
        let mut client = Client::connect(listen(server));
        let series = prometheus(&mut client);
        let count = |name: &str| series.get(name).copied().unwrap_or(-1.0);
        assert_eq!(count("serve_completed"), n as f64, "serve_completed");
        assert_eq!(count("serve_phase_total_us_eval_count"), n as f64, "phase count");
        assert!(!series.contains_key("serve_retries"), "no retry counter is exposed");
        assert!(!series.contains_key("serve_queue_depth"), "no aggregate depth gauge");
    }
    for server in servers {
        server.shutdown();
    }
}

/// `completed` is counted before the reply is sent: a client that already
/// holds its answer never reads a `stats` that misses it. The client spins
/// on the ticket so it looks at the counter the instant the answer lands.
#[test]
fn stats_count_every_answer_the_client_already_holds() {
    let server =
        Server::start(ServeConfig { shards: 1, ..ServeConfig::default() }).expect("server");
    let handle = server.handle();
    for id in 0..20_000u64 {
        let ticket = handle.submit(Request {
            id,
            platform: "GTX Titan".to_string(),
            double_precision: false,
            cap: None,
            deadline_ms: None,
            trace: None,
            query: Query::Eval { flops: vec![1e9], bytes: vec![1e8] },
        });
        let resp = loop {
            if let Some(r) = ticket.try_wait() {
                break r;
            }
            std::hint::spin_loop();
        };
        assert!(resp.result.is_ok(), "{resp:?}");
        let completed = handle.stats().completed.load(Ordering::Relaxed);
        assert_eq!(completed, id + 1, "stats missed an answer the client holds");
    }
    server.shutdown();
}
