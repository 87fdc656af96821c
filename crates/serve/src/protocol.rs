//! Wire protocol: request/response types, NDJSON parsing and emission.
//!
//! One JSON object per line in both directions. A request line is either a
//! *query* (`{"id":…,"platform":…,"query":{…}}`) or a control *op*
//! (`{"op":"ping"|"stats"|"shutdown"}`). Every response line carries the
//! request `id`, `"ok"` and either a `"result"` or a typed `"error"` with a
//! stable `"kind"` — a client can always dispatch on `kind` without
//! parsing prose. See `docs/serve.md` for the full grammar.

use serde_json::Value;
use std::collections::BTreeMap;

/// Ceiling on sweep/crossover grid sizes and eval point counts accepted
/// from the wire, so one request cannot allocate unboundedly.
pub const MAX_WIRE_POINTS: usize = 1 << 20;

/// A request-scoped trace identifier: 64 bits, rendered on the wire as 16
/// lowercase hex digits. Either supplied by the client (`"trace":"beef"`,
/// 1–16 hex digits, zero-extended) or minted at admission; echoed on the
/// response either way so a client can correlate its own traces with the
/// server's flight-recorder events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Parses the wire form: 1–16 ASCII hex digits. Shorter strings are
    /// zero-extended, so `"beef"` and `"000000000000beef"` name the same
    /// trace.
    pub fn parse(s: &str) -> Option<TraceId> {
        if s.is_empty() || s.len() > 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(TraceId)
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Where a response's latency went, in microseconds per phase. `total` is
/// the admission→answer wall time, defined as exactly `queue + window +
/// kernel` (each part floors its own microseconds); result serialization
/// happens after the answer is
/// handed to the wire and is measured separately (the fifth `serialize`
/// entry of the wire's `phases_us` object).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Phases {
    /// Admission to batch pickup: time spent waiting in the shard queue.
    pub queue_us: u64,
    /// Batch pickup to batch dispatch: batch assembly (draining the rest
    /// of the queued batch, then the deadline partition). The worker never
    /// waits for more work here.
    pub window_us: u64,
    /// Batch dispatch to answer: plan lookup plus kernel evaluation
    /// (including sibling plan-groups in the batch).
    pub kernel_us: u64,
    /// Admission to answer.
    pub total_us: u64,
}

/// Which scalar metric a sweep or crossover query evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepMetric {
    /// Average power, Watts.
    Power,
    /// Performance, flop/s.
    Perf,
    /// Energy efficiency, flop/J.
    EnergyEff,
}

impl SweepMetric {
    /// Stable wire name.
    pub fn name(&self) -> &'static str {
        match self {
            SweepMetric::Power => "power",
            SweepMetric::Perf => "perf",
            SweepMetric::EnergyEff => "energy_eff",
        }
    }

    /// Parses the wire name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "power" => Some(SweepMetric::Power),
            "perf" => Some(SweepMetric::Perf),
            "energy_eff" => Some(SweepMetric::EnergyEff),
            _ => None,
        }
    }
}

/// A what-if power-cap override applied to the platform's fitted
/// parameters before planning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CapOverride {
    /// Remove the cap entirely (`Δπ = ∞`).
    Uncapped,
    /// Scale the fitted cap by `k` (`Δπ/k`, the Fig. 6 family). Must be
    /// `> 0`.
    Throttle(f64),
    /// Replace the cap with an absolute Watt budget. Must be `> 0`.
    Watts(f64),
}

/// The query body: what to evaluate.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Pointwise `(W, Q) → (T, E, P̄, regime)` over parallel arrays.
    Eval {
        /// Work per point, flops.
        flops: Vec<f64>,
        /// Traffic per point, bytes.
        bytes: Vec<f64>,
    },
    /// A log-spaced metric sweep over intensity `[lo, hi]`.
    Sweep {
        /// Metric to sweep.
        metric: SweepMetric,
        /// Lower intensity bound, flop/B.
        lo: f64,
        /// Upper intensity bound, flop/B.
        hi: f64,
        /// Number of grid points.
        points: usize,
    },
    /// Crossover intensities against another platform on a metric.
    Crossover {
        /// The other platform's display name.
        other: String,
        /// Metric to compare.
        metric: SweepMetric,
        /// Lower intensity bound, flop/B.
        lo: f64,
        /// Upper intensity bound, flop/B.
        hi: f64,
        /// Scan grid size.
        grid: usize,
    },
}

/// One roofline query.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen id, echoed on the response.
    pub id: u64,
    /// Platform display name (Table I vocabulary, e.g. `"GTX Titan"`).
    pub platform: String,
    /// `true` for double precision (`"precision":"double"`).
    pub double_precision: bool,
    /// Optional what-if cap override.
    pub cap: Option<CapOverride>,
    /// Per-request deadline in milliseconds (default:
    /// [`ServeConfig::deadline`](crate::ServeConfig::deadline)).
    pub deadline_ms: Option<u64>,
    /// Client-supplied trace id (`"trace"`, 1–16 hex digits). `None` lets
    /// the server mint one at admission.
    pub trace: Option<TraceId>,
    /// The query body.
    pub query: Query,
}

/// A typed rejection: every way the server declines to answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Reject {
    /// The request never parsed or referenced unknown vocabulary.
    BadRequest(String),
    /// The shard's admission queue was full; the request was shed.
    Overloaded {
        /// Which shard shed it.
        shard: usize,
    },
    /// The deadline passed before evaluation started.
    DeadlineExceeded,
    /// The shard's circuit breaker is open.
    BreakerOpen {
        /// Which shard's breaker.
        shard: usize,
    },
    /// Evaluation failed (panic caught, or results failed validation).
    Internal(String),
    /// The server is draining; no new work is admitted.
    ShuttingDown,
}

impl Reject {
    /// Stable machine-readable kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Reject::BadRequest(_) => "bad_request",
            Reject::Overloaded { .. } => "overloaded",
            Reject::DeadlineExceeded => "deadline_exceeded",
            Reject::BreakerOpen { .. } => "breaker_open",
            Reject::Internal(_) => "internal",
            Reject::ShuttingDown => "shutting_down",
        }
    }

    /// Human-readable detail (may be empty).
    pub fn detail(&self) -> String {
        match self {
            Reject::BadRequest(m) | Reject::Internal(m) => m.clone(),
            Reject::Overloaded { shard } => format!("shard {shard} queue full"),
            Reject::DeadlineExceeded => "deadline passed before evaluation".to_string(),
            Reject::BreakerOpen { shard } => format!("shard {shard} breaker open"),
            Reject::ShuttingDown => "server draining".to_string(),
        }
    }
}

impl std::fmt::Display for Reject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind(), self.detail())
    }
}

/// A successful answer.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// Pointwise evaluation: parallel arrays, same length as the request.
    Eval {
        /// Time per point, seconds.
        time: Vec<f64>,
        /// Energy per point, Joules.
        energy: Vec<f64>,
        /// Average power per point, Watts.
        power: Vec<f64>,
        /// Regime letter per point (`'M'`/`'C'`/`'F'`).
        regime: Vec<char>,
    },
    /// Metric sweep: the grid and the metric values on it.
    Sweep {
        /// Intensity grid, flop/B.
        intensity: Vec<f64>,
        /// Metric value at each grid point.
        value: Vec<f64>,
    },
    /// Crossover search: `(intensity, a_leads_below)` per crossing.
    Crossover {
        /// Tie intensities with lead direction.
        crossings: Vec<(f64, bool)>,
    },
}

/// One response: the echoed id plus answer or typed rejection, with the
/// optional telemetry envelope (trace echo, phase breakdown).
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Echo of [`Request::id`] (0 when the line never parsed far enough
    /// to recover one).
    pub id: u64,
    /// The trace id this request ran under (client-supplied or minted at
    /// admission). `None` only when the request never reached admission
    /// without a client trace, or telemetry is off.
    pub trace: Option<TraceId>,
    /// Where the latency went (present when the engine runs with
    /// telemetry on and the request was admitted).
    pub phases: Option<Phases>,
    /// Answer or typed rejection.
    pub result: Result<QueryResult, Reject>,
}

impl Response {
    /// A response with no telemetry envelope.
    pub fn new(id: u64, result: Result<QueryResult, Reject>) -> Self {
        Self { id, trace: None, phases: None, result }
    }

    /// A rejection response.
    pub fn reject(id: u64, reject: Reject) -> Self {
        Self::new(id, Err(reject))
    }

    /// Attaches a trace echo.
    pub fn with_trace(mut self, trace: Option<TraceId>) -> Self {
        self.trace = trace;
        self
    }

    /// Serializes to one NDJSON line (no trailing newline). Non-finite
    /// floats serialize as `null` per JSON — corrupted results are
    /// rejected before this point, but a client asking for `inf` work
    /// gets `null` fields rather than invalid JSON.
    pub fn to_json_line(&self) -> String {
        self.render_timed().0
    }

    /// [`Self::to_json_line`] plus the measured result-serialization time
    /// in microseconds (always 0 when the response carries no phase
    /// breakdown — the clock is only read when telemetry asked for it).
    /// The same measurement is embedded in the line's
    /// `phases_us.serialize` entry, so the wire and the serialize-phase
    /// histogram agree.
    pub fn render_timed(&self) -> (String, u64) {
        use std::fmt::Write as _;
        let started = self.phases.map(|_| std::time::Instant::now());
        let (ok, key, body) = match &self.result {
            Ok(res) => (true, "result", result_value(res)),
            Err(reject) => {
                let mut e: BTreeMap<String, Value> = BTreeMap::new();
                e.insert("kind".to_string(), Value::from(reject.kind()));
                e.insert("detail".to_string(), Value::from(reject.detail()));
                (false, "error", Value::Object(e))
            }
        };
        let body = serde_json::to_string(&body).unwrap_or_else(|_| "null".to_string());
        let serialize_us =
            started.map(|t0| t0.elapsed().as_micros() as u64).unwrap_or(0);
        let mut line = String::with_capacity(body.len() + 128);
        let _ = write!(line, "{{\"id\":{},\"ok\":{ok}", self.id);
        if let Some(trace) = self.trace {
            let _ = write!(line, ",\"trace\":\"{trace}\"");
        }
        if let Some(ph) = self.phases {
            let _ = write!(
                line,
                ",\"phases_us\":{{\"queue\":{},\"window\":{},\"kernel\":{},\
                 \"serialize\":{},\"total\":{}}}",
                ph.queue_us, ph.window_us, ph.kernel_us, serialize_us, ph.total_us
            );
        }
        let _ = write!(line, ",\"{key}\":{body}}}");
        (line, serialize_us)
    }
}

/// The `result` payload of a successful response.
fn result_value(res: &QueryResult) -> Value {
    let mut r: BTreeMap<String, Value> = BTreeMap::new();
    match res {
        QueryResult::Eval { time, energy, power, regime } => {
            r.insert("kind".to_string(), Value::from("eval"));
            r.insert("time_s".to_string(), Value::from(time.clone()));
            r.insert("energy_j".to_string(), Value::from(energy.clone()));
            r.insert("power_w".to_string(), Value::from(power.clone()));
            r.insert(
                "regime".to_string(),
                Value::from(regime.iter().map(|c| c.to_string()).collect::<Vec<_>>()),
            );
        }
        QueryResult::Sweep { intensity, value } => {
            r.insert("kind".to_string(), Value::from("sweep"));
            r.insert("intensity".to_string(), Value::from(intensity.clone()));
            r.insert("value".to_string(), Value::from(value.clone()));
        }
        QueryResult::Crossover { crossings } => {
            r.insert("kind".to_string(), Value::from("crossover"));
            let rows: Vec<Value> = crossings
                .iter()
                .map(|(x, lead)| {
                    let mut m: BTreeMap<String, Value> = BTreeMap::new();
                    m.insert("intensity".to_string(), Value::from(*x));
                    m.insert("a_leads_below".to_string(), Value::from(*lead));
                    Value::Object(m)
                })
                .collect();
            r.insert("crossings".to_string(), Value::Array(rows));
        }
    }
    Value::Object(r)
}

/// A parsed wire line: a query or a control op.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMsg {
    /// A roofline query.
    Request(Request),
    /// Liveness probe; answered `{"id":0,"ok":true,"result":{"kind":"pong"}}`.
    Ping,
    /// Engine counters snapshot request.
    Stats,
    /// Full obs registry snapshot: counters, gauges, and histograms, both
    /// as JSON and as Prometheus text exposition format.
    Metrics,
    /// Graceful shutdown (honored only when the bin allows it).
    Shutdown,
}

fn get<'v>(obj: &'v BTreeMap<String, Value>, key: &str) -> Option<&'v Value> {
    obj.get(key)
}

fn get_str(obj: &BTreeMap<String, Value>, key: &str) -> Result<Option<String>, String> {
    match get(obj, key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::String(s)) => Ok(Some(s.clone())),
        Some(_) => Err(format!("`{key}` must be a string")),
    }
}

fn get_f64(obj: &BTreeMap<String, Value>, key: &str) -> Result<Option<f64>, String> {
    match get(obj, key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Number(n)) => Ok(Some(n.as_f64())),
        Some(_) => Err(format!("`{key}` must be a number")),
    }
}

fn get_u64(obj: &BTreeMap<String, Value>, key: &str) -> Result<Option<u64>, String> {
    match get(obj, key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Number(serde_json::Number::PosInt(n))) => Ok(Some(*n)),
        Some(_) => Err(format!("`{key}` must be a non-negative integer")),
    }
}

fn get_f64_array(obj: &BTreeMap<String, Value>, key: &str) -> Result<Vec<f64>, String> {
    match get(obj, key) {
        Some(Value::Array(items)) => items
            .iter()
            .map(|v| match v {
                Value::Number(n) => Ok(n.as_f64()),
                _ => Err(format!("`{key}` must contain only numbers")),
            })
            .collect(),
        _ => Err(format!("`{key}` must be an array of numbers")),
    }
}

/// Parses one request line. `Err` carries a message destined for a
/// [`Reject::BadRequest`] response.
pub fn parse_line(line: &str) -> Result<WireMsg, String> {
    let value: Value =
        serde_json::from_str(line).map_err(|e| format!("invalid JSON: {e}"))?;
    let obj = value.as_object().ok_or("request must be a JSON object")?;

    if let Some(op) = get_str(obj, "op")? {
        return match op.as_str() {
            "ping" => Ok(WireMsg::Ping),
            "stats" => Ok(WireMsg::Stats),
            "metrics" => Ok(WireMsg::Metrics),
            "shutdown" => Ok(WireMsg::Shutdown),
            other => Err(format!("unknown op `{other}`")),
        };
    }

    let id = get_u64(obj, "id")?.ok_or("missing `id`")?;
    let platform = get_str(obj, "platform")?.ok_or("missing `platform`")?;
    let double_precision = match get_str(obj, "precision")? {
        None => false,
        Some(p) if p == "single" => false,
        Some(p) if p == "double" => true,
        Some(p) => return Err(format!("unknown precision `{p}`")),
    };
    let deadline_ms = get_u64(obj, "deadline_ms")?;
    let trace = match get_str(obj, "trace")? {
        None => None,
        Some(s) => Some(
            TraceId::parse(&s)
                .ok_or_else(|| format!("`trace` must be 1-16 hex digits, got `{s}`"))?,
        ),
    };

    let cap = match get(obj, "cap") {
        None | Some(Value::Null) => None,
        Some(Value::String(s)) if s == "uncapped" => Some(CapOverride::Uncapped),
        Some(Value::Object(c)) => {
            if let Some(k) = get_f64(c, "throttle")? {
                Some(CapOverride::Throttle(k))
            } else if let Some(w) = get_f64(c, "watts")? {
                Some(CapOverride::Watts(w))
            } else {
                return Err("`cap` object needs `throttle` or `watts`".to_string());
            }
        }
        Some(_) => return Err("`cap` must be \"uncapped\" or an object".to_string()),
    };

    let query_obj = match get(obj, "query") {
        Some(Value::Object(q)) => q,
        _ => return Err("missing `query` object".to_string()),
    };
    let kind = get_str(query_obj, "kind")?.ok_or("missing `query.kind`")?;
    let query = match kind.as_str() {
        "eval" => {
            let flops = get_f64_array(query_obj, "flops")?;
            let bytes = get_f64_array(query_obj, "bytes")?;
            if flops.len() != bytes.len() {
                return Err(format!(
                    "`flops` ({}) and `bytes` ({}) must be the same length",
                    flops.len(),
                    bytes.len()
                ));
            }
            if flops.is_empty() {
                return Err("`flops` must be non-empty".to_string());
            }
            if flops.len() > MAX_WIRE_POINTS {
                return Err(format!("at most {MAX_WIRE_POINTS} points per request"));
            }
            Query::Eval { flops, bytes }
        }
        "sweep" => {
            let metric = parse_metric(query_obj)?;
            let lo = get_f64(query_obj, "lo")?.ok_or("missing `lo`")?;
            let hi = get_f64(query_obj, "hi")?.ok_or("missing `hi`")?;
            let points =
                get_u64(query_obj, "points")?.unwrap_or(64).min(MAX_WIRE_POINTS as u64) as usize;
            Query::Sweep { metric, lo, hi, points }
        }
        "crossover" => {
            let other = get_str(query_obj, "other")?.ok_or("missing `other`")?;
            let metric = parse_metric(query_obj)?;
            let lo = get_f64(query_obj, "lo")?.ok_or("missing `lo`")?;
            let hi = get_f64(query_obj, "hi")?.ok_or("missing `hi`")?;
            let grid =
                get_u64(query_obj, "grid")?.unwrap_or(256).min(MAX_WIRE_POINTS as u64) as usize;
            Query::Crossover { other, metric, lo, hi, grid }
        }
        other => return Err(format!("unknown query kind `{other}`")),
    };

    Ok(WireMsg::Request(Request { id, platform, double_precision, cap, deadline_ms, trace, query }))
}

fn parse_metric(obj: &BTreeMap<String, Value>) -> Result<SweepMetric, String> {
    let name = get_str(obj, "metric")?.ok_or("missing `metric`")?;
    SweepMetric::parse(&name)
        .ok_or_else(|| format!("unknown metric `{name}` (power | perf | energy_eff)"))
}

/// Best-effort extraction of `id` from an unparseable request, so the
/// rejection still correlates with the client's line.
pub fn salvage_id(line: &str) -> u64 {
    serde_json::from_str::<Value>(line)
        .ok()
        .and_then(|v| v.as_object().and_then(|o| get_u64(o, "id").ok().flatten()))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_an_eval_request() {
        let line = r#"{"id":7,"platform":"GTX Titan","query":
            {"kind":"eval","flops":[1e9,2e9],"bytes":[1e8,1e8]}}"#;
        let msg = parse_line(line).unwrap();
        match msg {
            WireMsg::Request(r) => {
                assert_eq!(r.id, 7);
                assert_eq!(r.platform, "GTX Titan");
                assert!(!r.double_precision);
                assert_eq!(r.cap, None);
                assert_eq!(
                    r.query,
                    Query::Eval { flops: vec![1e9, 2e9], bytes: vec![1e8, 1e8] }
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_sweep_crossover_cap_and_ops() {
        let line = r#"{"id":1,"platform":"NUC CPU","precision":"double",
            "cap":{"throttle":2.0},"deadline_ms":50,
            "query":{"kind":"sweep","metric":"energy_eff","lo":0.1,"hi":100.0,"points":32}}"#;
        let WireMsg::Request(r) = parse_line(line).unwrap() else { panic!() };
        assert!(r.double_precision);
        assert_eq!(r.cap, Some(CapOverride::Throttle(2.0)));
        assert_eq!(r.deadline_ms, Some(50));
        assert!(matches!(r.query, Query::Sweep { metric: SweepMetric::EnergyEff, points: 32, .. }));

        let line = r#"{"id":2,"platform":"GTX 680","cap":"uncapped","query":
            {"kind":"crossover","other":"Arndale GPU","metric":"perf","lo":0.5,"hi":50.0}}"#;
        let WireMsg::Request(r) = parse_line(line).unwrap() else { panic!() };
        assert_eq!(r.cap, Some(CapOverride::Uncapped));
        assert!(matches!(r.query, Query::Crossover { grid: 256, .. }));

        assert_eq!(parse_line(r#"{"op":"ping"}"#).unwrap(), WireMsg::Ping);
        assert_eq!(parse_line(r#"{"op":"stats"}"#).unwrap(), WireMsg::Stats);
        assert_eq!(parse_line(r#"{"op":"metrics"}"#).unwrap(), WireMsg::Metrics);
        assert_eq!(parse_line(r#"{"op":"shutdown"}"#).unwrap(), WireMsg::Shutdown);
    }

    #[test]
    fn trace_ids_parse_normalize_and_reject_junk() {
        let line = r#"{"id":3,"platform":"GTX Titan","trace":"BEEF","query":
            {"kind":"eval","flops":[1.0],"bytes":[1.0]}}"#;
        let WireMsg::Request(r) = parse_line(line).unwrap() else { panic!() };
        assert_eq!(r.trace, Some(TraceId(0xbeef)));
        assert_eq!(TraceId(0xbeef).to_string(), "000000000000beef");
        assert_eq!(TraceId::parse("000000000000beef"), Some(TraceId(0xbeef)));
        for junk in ["", "xyz", "0123456789abcdef0", "be ef"] {
            assert_eq!(TraceId::parse(junk), None, "{junk:?}");
        }
        let bad = r#"{"id":3,"platform":"GTX Titan","trace":"nope","query":
            {"kind":"eval","flops":[1.0],"bytes":[1.0]}}"#;
        assert!(parse_line(bad).unwrap_err().contains("`trace`"));
    }

    #[test]
    fn telemetry_envelope_rides_the_line_without_touching_the_result() {
        let result = Ok(QueryResult::Sweep { intensity: vec![1.0, 2.0], value: vec![3.0, 4.0] });
        let bare = Response::new(7, result.clone());
        let traced = Response {
            phases: Some(Phases { queue_us: 5, window_us: 6, kernel_us: 7, total_us: 18 }),
            ..Response::new(7, result).with_trace(Some(TraceId(0xabc)))
        };
        let bare_line = bare.to_json_line();
        let (traced_line, _) = traced.render_timed();
        assert!(!bare_line.contains("trace"), "{bare_line}");
        assert!(!bare_line.contains("phases_us"), "{bare_line}");
        assert!(traced_line.contains("\"trace\":\"0000000000000abc\""), "{traced_line}");
        assert!(traced_line.contains("\"queue\":5"), "{traced_line}");
        assert!(traced_line.contains("\"total\":18"), "{traced_line}");
        // The result payload is byte-identical with and without telemetry.
        let strip = |line: &str| {
            let v: Value = serde_json::from_str(line).unwrap();
            serde_json::to_string(v.as_object().unwrap().get("result").unwrap()).unwrap()
        };
        assert_eq!(strip(&bare_line), strip(&traced_line));
    }

    #[test]
    fn typed_errors_for_malformed_lines() {
        for (line, needle) in [
            ("not json", "invalid JSON"),
            ("[1,2]", "must be a JSON object"),
            (r#"{"id":1}"#, "missing `platform`"),
            (r#"{"platform":"NUC CPU"}"#, "missing `id`"),
            (
                r#"{"id":1,"platform":"NUC CPU","query":{"kind":"warp"}}"#,
                "unknown query kind",
            ),
            (
                r#"{"id":1,"platform":"NUC CPU","query":
                    {"kind":"eval","flops":[1.0],"bytes":[1.0,2.0]}}"#,
                "same length",
            ),
            (
                r#"{"id":1,"platform":"NUC CPU","query":
                    {"kind":"sweep","metric":"speed","lo":1.0,"hi":2.0}}"#,
                "unknown metric",
            ),
            (r#"{"op":"reboot"}"#, "unknown op"),
        ] {
            let err = parse_line(line).unwrap_err();
            assert!(err.contains(needle), "`{line}` → `{err}`");
        }
    }

    #[test]
    fn response_lines_round_trip_through_the_parser() {
        let resp = Response::new(
            9,
            Ok(QueryResult::Eval {
                time: vec![1.5e-3],
                energy: vec![0.25],
                power: vec![166.6],
                regime: vec!['M'],
            }),
        );
        let line = resp.to_json_line();
        let v: Value = serde_json::from_str(&line).unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(get_u64(obj, "id").unwrap(), Some(9));
        assert_eq!(obj.get("ok"), Some(&Value::Bool(true)));

        let rej = Response::reject(3, Reject::Overloaded { shard: 2 });
        let v: Value = serde_json::from_str(&rej.to_json_line()).unwrap();
        let err = match v.as_object().unwrap().get("error") {
            Some(Value::Object(e)) => e.clone(),
            other => panic!("{other:?}"),
        };
        assert_eq!(get_str(&err, "kind").unwrap().as_deref(), Some("overloaded"));
    }

    #[test]
    fn salvage_id_recovers_what_it_can() {
        assert_eq!(salvage_id(r#"{"id":41,"platform":17}"#), 41);
        assert_eq!(salvage_id("garbage"), 0);
    }
}
