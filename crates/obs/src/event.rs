//! The event model: everything a sink can observe is one [`Event`] —
//! a span opening or closing, a structured point event, or a log line.
//!
//! Ordering: every dispatched event gets a process-wide monotonic `seq`
//! from an atomic counter. That sequence number — never wall-clock time —
//! is the ordering key of the JSONL stream, which keeps traces diffable
//! across runs (sort by `seq`; interleaving across worker threads is the
//! only nondeterminism left, and a single-threaded run has none).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::json;
use crate::Level;

/// What kind of occurrence an [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span started (`span_id`/`parent` identify it in the tree).
    SpanOpen,
    /// A span finished (`dur_ns`/`self_ns` carry its timing).
    SpanClose,
    /// A named structured occurrence with fields.
    Point,
    /// A formatted log line (`msg`).
    Log,
}

impl EventKind {
    /// Stable name used in the JSONL `ev` field.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::SpanOpen => "span_open",
            EventKind::SpanClose => "span_close",
            EventKind::Point => "event",
            EventKind::Log => "log",
        }
    }
}

/// A typed field value on a span or point event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (non-finite serializes to `null`).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Owned string (platform names, fault classes).
    Str(String),
    /// Static string (cheap constants).
    S(&'static str),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}
impl From<&'static str> for FieldValue {
    fn from(v: &'static str) -> Self {
        FieldValue::S(v)
    }
}

impl FieldValue {
    /// Appends the JSON encoding of this value to `out`.
    pub fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            FieldValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            FieldValue::I64(v) => {
                let _ = write!(out, "{v}");
            }
            FieldValue::F64(v) => json::push_f64(out, *v),
            FieldValue::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            FieldValue::Str(v) => json::push_str_escaped(out, v),
            FieldValue::S(v) => json::push_str_escaped(out, v),
        }
    }
}

/// One key/value pair on an event. Build with [`field`].
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Field name (JSONL object key inside `fields`).
    pub key: &'static str,
    /// Field value.
    pub value: FieldValue,
}

/// Shorthand [`Field`] constructor: `field("seed", 7u64)`.
pub fn field(key: &'static str, value: impl Into<FieldValue>) -> Field {
    Field { key, value: value.into() }
}

/// One observable occurrence, borrowed (sinks that need to keep it convert
/// to [`OwnedEvent`]).
#[derive(Debug)]
pub struct Event<'a> {
    /// Monotonic sequence number (assigned at dispatch; the JSONL ordering
    /// key).
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
    /// Severity.
    pub level: Level,
    /// Subsystem that emitted it (`fit`, `par`, `fault`, `powermon`,
    /// `machine`, `repro`, ...).
    pub target: &'static str,
    /// Span or event name (empty for log lines).
    pub name: &'a str,
    /// Span id for span events, 0 otherwise.
    pub span_id: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Span wall duration, ns (close events only).
    pub dur_ns: Option<u64>,
    /// Span self time (duration minus same-thread children), ns.
    pub self_ns: Option<u64>,
    /// Structured fields.
    pub fields: &'a [Field],
    /// Pre-formatted message (log lines only).
    pub msg: Option<&'a str>,
}

/// An owned copy of an [`Event`] (what the capture sink stores).
#[derive(Debug, Clone)]
pub struct OwnedEvent {
    /// See [`Event::seq`].
    pub seq: u64,
    /// See [`Event::kind`].
    pub kind: EventKind,
    /// See [`Event::level`].
    pub level: Level,
    /// See [`Event::target`].
    pub target: String,
    /// See [`Event::name`].
    pub name: String,
    /// See [`Event::span_id`].
    pub span_id: u64,
    /// See [`Event::parent`].
    pub parent: u64,
    /// See [`Event::dur_ns`].
    pub dur_ns: Option<u64>,
    /// See [`Event::fields`].
    pub fields: Vec<Field>,
    /// See [`Event::msg`].
    pub msg: Option<String>,
}

impl OwnedEvent {
    /// The value of field `key`, if present.
    pub fn get(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|f| f.key == key).map(|f| &f.value)
    }

    /// The u64 value of field `key`, if present and unsigned.
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        match self.get(key) {
            Some(FieldValue::U64(v)) => Some(*v),
            _ => None,
        }
    }

    /// The string value of field `key`, if present and a string.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(FieldValue::Str(v)) => Some(v),
            Some(FieldValue::S(v)) => Some(v),
            _ => None,
        }
    }
}

impl Event<'_> {
    /// Deep copy for sinks that outlive the borrow.
    pub fn to_owned(&self) -> OwnedEvent {
        OwnedEvent {
            seq: self.seq,
            kind: self.kind,
            level: self.level,
            target: self.target.to_string(),
            name: self.name.to_string(),
            span_id: self.span_id,
            parent: self.parent,
            dur_ns: self.dur_ns,
            fields: self.fields.to_vec(),
            msg: self.msg.map(str::to_string),
        }
    }

    /// Renders this event as one JSONL line (no trailing newline).
    pub fn render_jsonl(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(out, "{{\"seq\":{},\"ev\":\"{}\"", self.seq, self.kind.name());
        let _ = write!(out, ",\"level\":\"{}\"", self.level.name());
        out.push_str(",\"target\":");
        json::push_str_escaped(out, self.target);
        if !self.name.is_empty() {
            out.push_str(",\"name\":");
            json::push_str_escaped(out, self.name);
        }
        if self.span_id != 0 {
            let _ = write!(out, ",\"id\":{}", self.span_id);
        }
        if matches!(self.kind, EventKind::SpanOpen) {
            let _ = write!(out, ",\"parent\":{}", self.parent);
        }
        if let Some(ns) = self.dur_ns {
            out.push_str(",\"dur_us\":");
            json::push_f64(out, ns as f64 / 1e3);
        }
        if let Some(ns) = self.self_ns {
            out.push_str(",\"self_us\":");
            json::push_f64(out, ns as f64 / 1e3);
        }
        if !self.fields.is_empty() {
            out.push_str(",\"fields\":{");
            for (i, f) in self.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::push_str_escaped(out, f.key);
                out.push(':');
                f.value.write_json(out);
            }
            out.push('}');
        }
        if let Some(msg) = self.msg {
            out.push_str(",\"msg\":");
            json::push_str_escaped(out, msg);
        }
        out.push('}');
    }
}

/// Process-wide monotonic event sequence.
static SEQ: AtomicU64 = AtomicU64::new(1);

/// Assigns the next sequence number.
pub(crate) fn next_seq() -> u64 {
    // ordering: Relaxed — uniqueness is the only contract; cross-thread
    // sequence gaps are expected and consumers sort by (seq) per thread.
    SEQ.fetch_add(1, Ordering::Relaxed)
}

/// Stamps `ev` with a sequence number and hands it to every interested
/// sink. Callers check [`crate::enabled`] first; this function re-checks
/// nothing.
pub(crate) fn dispatch(ev: &Event<'_>) {
    let stamped = Event {
        seq: next_seq(),
        kind: ev.kind,
        level: ev.level,
        target: ev.target,
        name: ev.name,
        span_id: ev.span_id,
        parent: ev.parent,
        dur_ns: ev.dur_ns,
        self_ns: ev.self_ns,
        fields: ev.fields,
        msg: ev.msg,
    };
    crate::sink::broadcast(&stamped);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_rendering_is_stable() {
        let fields = vec![field("class", "spike"), field("seed", 7u64), field("sev", 0.25)];
        let ev = Event {
            seq: 42,
            kind: EventKind::Point,
            level: Level::Debug,
            target: "fault",
            name: "injected",
            span_id: 0,
            parent: 0,
            dur_ns: None,
            self_ns: None,
            fields: &fields,
            msg: None,
        };
        let mut out = String::new();
        ev.render_jsonl(&mut out);
        assert_eq!(
            out,
            "{\"seq\":42,\"ev\":\"event\",\"level\":\"debug\",\"target\":\"fault\",\
             \"name\":\"injected\",\"fields\":{\"class\":\"spike\",\"seed\":7,\"sev\":0.25}}"
        );

        // A span-close event carries its wall-time fields.
        let close = Event {
            seq: 1,
            kind: EventKind::SpanClose,
            level: Level::Trace,
            target: "par",
            name: "task",
            span_id: 9,
            parent: 0,
            dur_ns: Some(1500),
            self_ns: Some(1000),
            fields: &[],
            msg: None,
        };
        let mut out = String::new();
        close.render_jsonl(&mut out);
        assert!(out.contains("\"dur_us\":1.5"), "{out}");
        assert!(out.contains("\"self_us\":1.0"), "{out}");
    }

    #[test]
    fn owned_event_field_access() {
        let ev = Event {
            seq: 3,
            kind: EventKind::Point,
            level: Level::Info,
            target: "fault",
            name: "injected",
            span_id: 0,
            parent: 0,
            dur_ns: None,
            self_ns: None,
            fields: &[field("seed", 9u64), field("class", "drop")],
            msg: None,
        };
        let owned = ev.to_owned();
        assert_eq!(owned.get_u64("seed"), Some(9));
        assert_eq!(owned.get_str("class"), Some("drop"));
        assert_eq!(owned.get_u64("missing"), None);
    }
}
