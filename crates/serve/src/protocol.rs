//! Wire protocol: request/response types, NDJSON parsing and emission.
//!
//! One JSON object per line in both directions. A request line is either a
//! *query* (`{"id":…,"platform":…,"query":{…}}`) or a control *op*
//! (`{"op":"ping"|"stats"|"shutdown"}`). Every response line carries the
//! request `id`, `"ok"` and either a `"result"` or a typed `"error"` with a
//! stable `"kind"` — a client can always dispatch on `kind` without
//! parsing prose. See `docs/serve.md` for the full grammar.

use std::borrow::Cow;

/// Default ceiling ([`ServeConfig::max_points`]) on eval point counts and
/// sweep/crossover grid sizes, so one request cannot allocate unboundedly.
/// Admission rejects a larger request; it is never shrunk to fit.
///
/// [`ServeConfig::max_points`]: crate::ServeConfig::max_points
pub const MAX_WIRE_POINTS: usize = 1 << 20;

/// A request-scoped trace identifier: 64 bits, rendered on the wire as 16
/// lowercase hex digits. Either supplied by the client (`"trace":"beef"`,
/// 1–16 hex digits, zero-extended) or minted at admission; echoed on the
/// response either way so a client can correlate its own traces with the
/// server's obs events.
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
/// the admission→answer wall time, defined as exactly `queue + kernel`
/// (each part floors its own microseconds); result serialization happens
/// after the answer is handed to the wire and is measured separately (the
/// `serialize` entry of the wire's `phases_us` object).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Phases {
    /// Admission to pick: time spent waiting in the shard queue.
    pub queue_us: u64,
    /// Always 0: a worker picks one request and evaluates it at once, so
    /// there is no assembly step between pick and kernel. Kept so the wire
    /// key `phases_us.window` and the readers of this field keep their
    /// shape.
    pub window_us: u64,
    /// Pick to answer: the deadline check, this request's own kernel
    /// evaluation and its reply.
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

    /// Serializes to one NDJSON line (no trailing newline). A thin wrapper
    /// over [`Self::write_line`] for callers without a buffer to reuse.
    pub fn to_json_line(&self) -> String {
        let mut line = String::new();
        self.write_line(&mut line);
        line
    }

    /// Appends this response's NDJSON line (no trailing newline) to `out`
    /// and returns the measured result-serialization time in microseconds
    /// (always 0 when the response carries no phase breakdown — the clock
    /// is only read when telemetry asked for it). The same measurement is
    /// embedded in the line's `phases_us.serialize` entry, so the wire and
    /// the serialize-phase histogram agree.
    ///
    /// The envelope keys come first (`id`, `ok`, `trace`, `phases_us`),
    /// then `result` or `error`, whose keys are sorted by name. Numbers
    /// follow one rule set: integers print as integers; a non-finite float
    /// prints `null` (corrupted results are rejected before this point,
    /// but a client asking for `inf` work gets `null` fields rather than
    /// invalid JSON); a float whose magnitude is zero or in `[1e-5, 1e16)`
    /// prints as the shortest decimal that round-trips, with `.0` appended
    /// when it is integral; any other float prints in scientific notation
    /// (`3.04e-11`).
    pub fn write_line(&self, out: &mut String) -> u64 {
        use std::fmt::Write as _;
        let start = out.len();
        let started = self.phases.map(|_| std::time::Instant::now());
        let key = match &self.result {
            Ok(res) => {
                write_result(out, res);
                "result"
            }
            Err(reject) => {
                out.push_str("{\"detail\":");
                write_str(out, &reject.detail());
                out.push_str(",\"kind\":");
                write_str(out, reject.kind());
                out.push('}');
                "error"
            }
        };
        let serialize_us = started.map(|t0| t0.elapsed().as_micros() as u64).unwrap_or(0);
        out.push('}');
        // The envelope precedes the body on the wire but carries the
        // body's serialize time, so it is written last and moved in front.
        let mut head = String::with_capacity(192);
        let _ = write!(head, "{{\"id\":{},\"ok\":{}", self.id, self.result.is_ok());
        if let Some(trace) = self.trace {
            let _ = write!(head, ",\"trace\":\"{trace}\"");
        }
        if let Some(ph) = self.phases {
            let _ = write!(
                head,
                ",\"phases_us\":{{\"queue\":{},\"window\":{},\"kernel\":{},\
                 \"serialize\":{},\"total\":{}}}",
                ph.queue_us, ph.window_us, ph.kernel_us, serialize_us, ph.total_us
            );
        }
        let _ = write!(head, ",\"{key}\":");
        out.insert_str(start, &head);
        serialize_us
    }
}

/// Writes the `result` object of a successful response.
fn write_result(out: &mut String, res: &QueryResult) {
    match res {
        QueryResult::Eval { time, energy, power, regime } => {
            out.push_str("{\"energy_j\":");
            write_f64s(out, energy);
            out.push_str(",\"kind\":\"eval\",\"power_w\":");
            write_f64s(out, power);
            out.push_str(",\"regime\":");
            write_list(out, regime, |out, c| write_str(out, c.encode_utf8(&mut [0; 4])));
            out.push_str(",\"time_s\":");
            write_f64s(out, time);
        }
        QueryResult::Sweep { intensity, value } => {
            out.push_str("{\"intensity\":");
            write_f64s(out, intensity);
            out.push_str(",\"kind\":\"sweep\",\"value\":");
            write_f64s(out, value);
        }
        QueryResult::Crossover { crossings } => {
            out.push_str("{\"crossings\":");
            write_list(out, crossings, |out, &(x, lead)| {
                out.push_str("{\"a_leads_below\":");
                out.push_str(if lead { "true" } else { "false" });
                out.push_str(",\"intensity\":");
                write_f64(out, x);
                out.push('}');
            });
            out.push_str(",\"kind\":\"crossover\"");
        }
    }
    out.push('}');
}

/// `[item,item,...]`, each item written by `each`.
fn write_list<T>(out: &mut String, items: &[T], mut each: impl FnMut(&mut String, &T)) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        each(out, item);
    }
    out.push(']');
}

fn write_f64s(out: &mut String, values: &[f64]) {
    write_list(out, values, |out, &v| write_f64(out, v));
}

/// One float by the rules in [`Response::write_line`].
fn write_f64(out: &mut String, v: f64) {
    use std::fmt::Write as _;
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let abs = v.abs();
    if abs != 0.0 && !(1e-5..1e16).contains(&abs) {
        let _ = write!(out, "{v:e}");
    } else {
        let start = out.len();
        let _ = write!(out, "{v}");
        // `Display` never uses an exponent, so a missing `.` means the
        // value printed as an integer.
        if !out[start..].contains('.') {
            out.push_str(".0");
        }
    }
}

/// A JSON string literal: quotes, backslashes and control characters
/// escaped, everything else verbatim.
fn write_str(out: &mut String, s: &str) {
    use std::fmt::Write as _;
    out.push('"');
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[plain..i]);
        plain = i + 1;
        if esc.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(esc);
        }
    }
    out.push_str(&s[plain..]);
    out.push('"');
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

/// Parses one request line. `Err` carries a message destined for a
/// [`Reject::BadRequest`] response.
///
/// The parser reads the line once, straight into the fields the schema
/// knows, and skips every other value after checking its syntax. The
/// whole line must be valid JSON before any schema rule is applied, so a
/// syntax error anywhere wins over a schema error. Unknown keys are
/// ignored, a repeated key keeps its last value, and `null` counts as
/// absent; a skipped value may nest at most 128 levels.
/// Size limits (`points`, `grid`, eval length) are not checked here but
/// at admission, the same for every front door.
pub fn parse_line(line: &str) -> Result<WireMsg, String> {
    let top = Lexer::new(line).document().map_err(|e| format!("invalid JSON: {e}"))?;
    let top = top.ok_or("request must be a JSON object")?;

    if let Some(op) = str_field(top.op, "op")? {
        return match &*op {
            "ping" => Ok(WireMsg::Ping),
            "stats" => Ok(WireMsg::Stats),
            "metrics" => Ok(WireMsg::Metrics),
            "shutdown" => Ok(WireMsg::Shutdown),
            other => Err(format!("unknown op `{other}`")),
        };
    }

    let id = u64_field(top.id, "id")?.ok_or("missing `id`")?;
    let platform = str_field(top.platform, "platform")?.ok_or("missing `platform`")?.into_owned();
    let double_precision = match str_field(top.precision, "precision")?.as_deref() {
        None | Some("single") => false,
        Some("double") => true,
        Some(p) => return Err(format!("unknown precision `{p}`")),
    };
    let deadline_ms = u64_field(top.deadline_ms, "deadline_ms")?;
    let trace = match str_field(top.trace, "trace")? {
        None => None,
        Some(s) => Some(
            TraceId::parse(&s)
                .ok_or_else(|| format!("`trace` must be 1-16 hex digits, got `{s}`"))?,
        ),
    };

    let cap = match top.cap {
        None | Some(Field::Null) => None,
        Some(Field::Str(s)) if s == "uncapped" => Some(CapOverride::Uncapped),
        Some(Field::Cap(c)) => {
            if let Some(k) = f64_field(c.throttle, "throttle")? {
                Some(CapOverride::Throttle(k))
            } else if let Some(w) = f64_field(c.watts, "watts")? {
                Some(CapOverride::Watts(w))
            } else {
                return Err("`cap` object needs `throttle` or `watts`".to_string());
            }
        }
        Some(_) => return Err("`cap` must be \"uncapped\" or an object".to_string()),
    };

    let q = match top.query {
        Some(Field::Query(q)) => *q,
        _ => return Err("missing `query` object".to_string()),
    };
    let kind = str_field(q.kind, "kind")?.ok_or("missing `query.kind`")?;
    let query = match &*kind {
        "eval" => Query::Eval {
            flops: f64s_field(q.flops, "flops")?,
            bytes: f64s_field(q.bytes, "bytes")?,
        },
        "sweep" => {
            let metric = metric_field(q.metric)?;
            let lo = f64_field(q.lo, "lo")?.ok_or("missing `lo`")?;
            let hi = f64_field(q.hi, "hi")?.ok_or("missing `hi`")?;
            let points = u64_field(q.points, "points")?.map_or(64, saturating_usize);
            Query::Sweep { metric, lo, hi, points }
        }
        "crossover" => {
            let other = str_field(q.other, "other")?.ok_or("missing `other`")?.into_owned();
            let metric = metric_field(q.metric)?;
            let lo = f64_field(q.lo, "lo")?.ok_or("missing `lo`")?;
            let hi = f64_field(q.hi, "hi")?.ok_or("missing `hi`")?;
            let grid = u64_field(q.grid, "grid")?.map_or(256, saturating_usize);
            Query::Crossover { other, metric, lo, hi, grid }
        }
        other => return Err(format!("unknown query kind `{other}`")),
    };

    Ok(WireMsg::Request(Request { id, platform, double_precision, cap, deadline_ms, trace, query }))
}

/// A size from the wire; one too large for `usize` stays too large, so
/// admission rejects it rather than a truncated value passing.
fn saturating_usize(n: u64) -> usize {
    usize::try_from(n).unwrap_or(usize::MAX)
}

/// Best-effort extraction of `id` from an unparseable request, so the
/// rejection still correlates with the client's line: the id when the
/// line is valid JSON with a non-negative integer `id`, else 0.
pub fn salvage_id(line: &str) -> u64 {
    Lexer::new(line)
        .document()
        .ok()
        .flatten()
        .and_then(|top| u64_field(top.id, "id").ok().flatten())
        .unwrap_or(0)
}

/// A JSON number as the schema reads it: its value as `f64`, plus the
/// integer itself when it was written as one that fits a `u64`.
#[derive(Clone, Copy)]
struct Num {
    value: f64,
    uint: Option<u64>,
}

/// A field's value, kept only as far as the schema reads it.
enum Field<'a> {
    Null,
    Num(Num),
    Str(Cow<'a, str>),
    /// An array of numbers under `flops` or `bytes`.
    Numbers(Vec<f64>),
    /// An array under `flops` or `bytes` holding something else too.
    Mixed,
    /// The object under `cap`.
    Cap(Box<CapFields<'a>>),
    /// The object under `query`.
    Query(Box<QueryFields<'a>>),
    /// Anything the schema never reads as such (`true`, or an array or
    /// object under any other key).
    Other,
}

/// Which compound value a key keeps; scalars are always kept.
#[derive(Clone, Copy)]
enum Shape {
    Scalar,
    Numbers,
    Cap,
    Query,
}

#[derive(Default)]
struct TopFields<'a> {
    op: Option<Field<'a>>,
    id: Option<Field<'a>>,
    platform: Option<Field<'a>>,
    precision: Option<Field<'a>>,
    deadline_ms: Option<Field<'a>>,
    trace: Option<Field<'a>>,
    cap: Option<Field<'a>>,
    query: Option<Field<'a>>,
}

#[derive(Default)]
struct CapFields<'a> {
    throttle: Option<Field<'a>>,
    watts: Option<Field<'a>>,
}

#[derive(Default)]
struct QueryFields<'a> {
    kind: Option<Field<'a>>,
    flops: Option<Field<'a>>,
    bytes: Option<Field<'a>>,
    metric: Option<Field<'a>>,
    lo: Option<Field<'a>>,
    hi: Option<Field<'a>>,
    points: Option<Field<'a>>,
    other: Option<Field<'a>>,
    grid: Option<Field<'a>>,
}

fn str_field<'a>(f: Option<Field<'a>>, key: &str) -> Result<Option<Cow<'a, str>>, String> {
    match f {
        None | Some(Field::Null) => Ok(None),
        Some(Field::Str(s)) => Ok(Some(s)),
        Some(_) => Err(format!("`{key}` must be a string")),
    }
}

fn f64_field(f: Option<Field<'_>>, key: &str) -> Result<Option<f64>, String> {
    match f {
        None | Some(Field::Null) => Ok(None),
        Some(Field::Num(n)) => Ok(Some(n.value)),
        Some(_) => Err(format!("`{key}` must be a number")),
    }
}

fn u64_field(f: Option<Field<'_>>, key: &str) -> Result<Option<u64>, String> {
    match f {
        None | Some(Field::Null) => Ok(None),
        Some(Field::Num(Num { uint: Some(n), .. })) => Ok(Some(n)),
        Some(_) => Err(format!("`{key}` must be a non-negative integer")),
    }
}

fn f64s_field(f: Option<Field<'_>>, key: &str) -> Result<Vec<f64>, String> {
    match f {
        Some(Field::Numbers(v)) => Ok(v),
        Some(Field::Mixed) => Err(format!("`{key}` must contain only numbers")),
        _ => Err(format!("`{key}` must be an array of numbers")),
    }
}

fn metric_field(f: Option<Field<'_>>) -> Result<SweepMetric, String> {
    let name = str_field(f, "metric")?.ok_or("missing `metric`")?;
    SweepMetric::parse(&name)
        .ok_or_else(|| format!("unknown metric `{name}` (power | perf | energy_eff)"))
}

/// Deepest nesting accepted inside a value the schema skips (the
/// recursion limit upstream `serde_json` applies to a whole document).
const MAX_SKIP_DEPTH: usize = 128;

/// Byte-level JSON reader over one request line.
struct Lexer<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(text: &'a str) -> Self {
        Self { text, pos: 0 }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn require(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn eat(&mut self, word: &str) -> bool {
        let hit = self.text.as_bytes()[self.pos..].starts_with(word.as_bytes());
        if hit {
            self.pos += word.len();
        }
        hit
    }

    /// The whole line: the top-level fields when it is one object, `None`
    /// when it is any other JSON value.
    fn document(mut self) -> Result<Option<TopFields<'a>>, String> {
        self.ws();
        let top = if self.peek() == Some(b'{') {
            let mut t = TopFields::default();
            self.object(|p, key| {
                let (slot, shape) = match key {
                    "op" => (&mut t.op, Shape::Scalar),
                    "id" => (&mut t.id, Shape::Scalar),
                    "platform" => (&mut t.platform, Shape::Scalar),
                    "precision" => (&mut t.precision, Shape::Scalar),
                    "deadline_ms" => (&mut t.deadline_ms, Shape::Scalar),
                    "trace" => (&mut t.trace, Shape::Scalar),
                    "cap" => (&mut t.cap, Shape::Cap),
                    "query" => (&mut t.query, Shape::Query),
                    _ => return p.skip_value(0),
                };
                *slot = Some(p.field(shape)?);
                Ok(())
            })?;
            Some(t)
        } else {
            self.skip_value(0)?;
            None
        };
        self.ws();
        if self.pos != self.text.len() {
            return Err(format!("trailing characters at byte {}", self.pos));
        }
        Ok(top)
    }

    /// `open item, item, ... close`, handing each item to `each`, which
    /// must consume it.
    fn seq(
        &mut self,
        open: u8,
        close: u8,
        mut each: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.require(open)?;
        self.ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.ws();
            each(self)?;
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {
                    return Err(format!("expected `,` or `{}` at byte {}", close as char, self.pos))
                }
            }
        }
    }

    /// `{ "key": value, ... }`, handing each key to `each`, which must
    /// consume the value.
    fn object(
        &mut self,
        mut each: impl FnMut(&mut Self, &str) -> Result<(), String>,
    ) -> Result<(), String> {
        self.seq(b'{', b'}', |p| {
            let key = p.string()?;
            p.ws();
            p.require(b':')?;
            p.ws();
            each(p, &key)
        })
    }

    /// One value under a known key.
    fn field(&mut self, shape: Shape) -> Result<Field<'a>, String> {
        Ok(match (self.peek(), shape) {
            (Some(b'"'), _) => Field::Str(self.string()?),
            (Some(b'-' | b'0'..=b'9'), _) => Field::Num(self.number()?),
            (Some(b'n'), _) if self.eat("null") => Field::Null,
            (Some(b'['), Shape::Numbers) => self.numbers()?,
            (Some(b'{'), Shape::Cap) => {
                let mut c = CapFields::default();
                self.object(|p, key| {
                    let slot = match key {
                        "throttle" => &mut c.throttle,
                        "watts" => &mut c.watts,
                        _ => return p.skip_value(0),
                    };
                    *slot = Some(p.field(Shape::Scalar)?);
                    Ok(())
                })?;
                Field::Cap(Box::new(c))
            }
            (Some(b'{'), Shape::Query) => {
                let mut q = QueryFields::default();
                self.object(|p, key| {
                    let (slot, shape) = match key {
                        "kind" => (&mut q.kind, Shape::Scalar),
                        "flops" => (&mut q.flops, Shape::Numbers),
                        "bytes" => (&mut q.bytes, Shape::Numbers),
                        "metric" => (&mut q.metric, Shape::Scalar),
                        "lo" => (&mut q.lo, Shape::Scalar),
                        "hi" => (&mut q.hi, Shape::Scalar),
                        "points" => (&mut q.points, Shape::Scalar),
                        "other" => (&mut q.other, Shape::Scalar),
                        "grid" => (&mut q.grid, Shape::Scalar),
                        _ => return p.skip_value(0),
                    };
                    *slot = Some(p.field(shape)?);
                    Ok(())
                })?;
                Field::Query(Box::new(q))
            }
            _ => {
                self.skip_value(0)?;
                Field::Other
            }
        })
    }

    /// `[n, n, ...]`: [`Field::Numbers`], or [`Field::Mixed`] once any
    /// element is not a number.
    fn numbers(&mut self) -> Result<Field<'a>, String> {
        let (mut values, mut mixed) = (Vec::new(), false);
        self.seq(b'[', b']', |p| {
            if let Some(b'-' | b'0'..=b'9') = p.peek() {
                values.push(p.number()?.value);
                Ok(())
            } else {
                mixed = true;
                p.skip_value(0)
            }
        })?;
        Ok(if mixed { Field::Mixed } else { Field::Numbers(values) })
    }

    /// Checks one value of any shape and moves past it. `depth` counts the
    /// containers already open around it within the skipped value; past
    /// [`MAX_SKIP_DEPTH`] the line is refused rather than risking the
    /// connection thread's stack.
    fn skip_value(&mut self, depth: usize) -> Result<(), String> {
        match self.peek() {
            Some(b'{' | b'[') if depth >= MAX_SKIP_DEPTH => {
                Err(format!("nesting deeper than {MAX_SKIP_DEPTH} levels at byte {}", self.pos))
            }
            Some(b'{') => self.object(|p, _| p.skip_value(depth + 1)),
            Some(b'[') => self.seq(b'[', b']', |p| p.skip_value(depth + 1)),
            Some(b'"') => self.string().map(drop),
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            Some(b'n') if self.eat("null") => Ok(()),
            Some(b't') if self.eat("true") => Ok(()),
            Some(b'f') if self.eat("false") => Ok(()),
            Some(b) => Err(format!("unexpected character `{}` at byte {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// A number: an optional `-`, then the run of digits, `.`, `e`, `E`,
    /// `+` and `-`. Written as an integer it converts exactly when it fits
    /// (`-0` is `+0.0`, and a `u64` keeps its integer); anything else goes
    /// through the standard `f64` parser.
    fn number(&mut self) -> Result<Num, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        if !is_float {
            if text.starts_with('-') {
                if let Ok(v) = text.parse::<i64>() {
                    return Ok(Num { value: v as f64, uint: None });
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(Num { value: v as f64, uint: Some(v) });
            }
        }
        text.parse::<f64>()
            .map(|value| Num { value, uint: None })
            .map_err(|_| format!("invalid number `{text}`"))
    }

    /// A string literal, borrowed from the line unless it has escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.require(b'"')?;
        let bytes = self.text.as_bytes();
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            while let Some(&b) = bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            let run = &self.text[start..self.pos];
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut s) => {
                            s.push_str(run);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(run);
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    s.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => self.unicode_escape()?,
                        other => return Err(format!("invalid escape `\\{}`", other as char)),
                    });
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    /// The character after `\u`: one BMP code point, or a surrogate pair
    /// written as two escapes.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let code = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&code) {
            if !self.eat("\\u") {
                return Err("unpaired surrogate".to_string());
            }
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err("unpaired surrogate".to_string());
            }
            0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
        } else {
            code
        };
        char::from_u32(code).ok_or_else(|| "invalid unicode escape".to_string())
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self.text.get(self.pos..self.pos + 4).ok_or("truncated \\u escape")?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape `{hex}`"))?;
        self.pos += 4;
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

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
        let mut traced_line = String::new();
        traced.write_line(&mut traced_line);
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
                    {"kind":"eval","flops":[1.0],"bytes":[1.0,"2"]}}"#,
                "only numbers",
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
        assert_eq!(obj.get("id"), Some(&Value::from(9u64)));
        assert_eq!(obj.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(salvage_id(&line), 9);

        let rej = Response::reject(3, Reject::Overloaded { shard: 2 });
        let v: Value = serde_json::from_str(&rej.to_json_line()).unwrap();
        let err = match v.as_object().unwrap().get("error") {
            Some(Value::Object(e)) => e.clone(),
            other => panic!("{other:?}"),
        };
        assert_eq!(err.get("kind"), Some(&Value::from("overloaded")));
    }

    #[test]
    fn salvage_id_recovers_what_it_can() {
        assert_eq!(salvage_id(r#"{"id":41,"platform":17}"#), 41);
        assert_eq!(salvage_id(r#"{"id":41,"id":42,"platform":17}"#), 42);
        assert_eq!(salvage_id(r#"{"id":-41}"#), 0);
        assert_eq!(salvage_id(r#"{"id":41,"platform":"#), 0);
        assert_eq!(salvage_id("garbage"), 0);
    }

    #[test]
    fn write_line_appends_to_a_reused_buffer() {
        let resp = Response {
            phases: Some(Phases { queue_us: 1, window_us: 2, kernel_us: 3, total_us: 6 }),
            ..Response::new(5, Ok(QueryResult::Crossover { crossings: vec![(2.5, true)] }))
        };
        let mut buf = String::from("prefix|");
        resp.write_line(&mut buf);
        let line = buf.strip_prefix("prefix|").unwrap();
        let serialize = line.split("\"serialize\":").nth(1).unwrap().split(',').next().unwrap();
        let want = format!(
            "{{\"id\":5,\"ok\":true,\"phases_us\":{{\"queue\":1,\"window\":2,\"kernel\":3,\
             \"serialize\":{serialize},\"total\":6}},\"result\":{{\"crossings\":\
             [{{\"a_leads_below\":true,\"intensity\":2.5}}],\"kind\":\"crossover\"}}}}"
        );
        assert_eq!(line, want);
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let nested =
            |n: usize| format!(r#"{{"op":"ping","junk":{}{}}}"#, "[".repeat(n), "]".repeat(n));
        assert_eq!(parse_line(&nested(MAX_SKIP_DEPTH)).unwrap(), WireMsg::Ping);
        for n in [MAX_SKIP_DEPTH + 1, 1_000_000] {
            assert!(parse_line(&nested(n)).unwrap_err().starts_with("invalid JSON: "));
        }
    }
}
