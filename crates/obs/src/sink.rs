//! Sinks: where events go. A built-in human-readable stderr sink (always
//! present, verbosity-gated, off by default) plus dynamically installed
//! sinks — the JSONL trace stream and the test capture sink.
//!
//! All sinks must be thread-safe: events arrive concurrently from the
//! work-stealing executor's workers. Each sink serializes internally
//! (one mutex-guarded writer per sink); the dispatch path itself only
//! takes a read lock on the sink list.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::sync::atomic::{AtomicU8, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use crate::event::Event;
use crate::metrics::MetricsSnapshot;
use crate::{EventKind, Level};

/// A destination for events.
pub trait Sink: Send + Sync {
    /// The most verbose level this sink wants; events above it are never
    /// delivered. The maximum over all sinks gates the global fast path.
    fn max_level(&self) -> Level;

    /// Delivers one event (already level-filtered for this sink).
    fn emit(&self, ev: &Event<'_>);

    /// Delivers the final metrics snapshot and flushes buffered output.
    /// Called from [`crate::flush`].
    fn flush(&self, _metrics: &MetricsSnapshot) {}
}

/// Handle to an installed sink, for [`remove_sink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SinkId(u64);

static NEXT_SINK_ID: AtomicU64 = AtomicU64::new(1);

/// Installed dynamic sinks.
#[allow(clippy::type_complexity)]
static SINKS: RwLock<Vec<(SinkId, Arc<dyn Sink>)>> = RwLock::new(Vec::new());

/// Built-in stderr sink verbosity (0 = silent).
static STDERR_LEVEL: AtomicU8 = AtomicU8::new(0);

fn recompute_max_level() {
    // ordering: Relaxed — verbosity byte with no dependent data; the sink
    // list read below is ordered by its own RwLock.
    let mut max = STDERR_LEVEL.load(Ordering::Relaxed);
    if let Ok(sinks) = SINKS.read() {
        for (_, s) in sinks.iter() {
            max = max.max(s.max_level() as u8);
        }
    }
    crate::set_max_level(max);
}

pub(crate) fn set_stderr_level(level: Option<Level>) {
    // ordering: Relaxed — verbosity byte; a racing emit sees old-or-new,
    // both valid snapshots.
    STDERR_LEVEL.store(level.map_or(0, |l| l as u8), Ordering::Relaxed);
    recompute_max_level();
}

/// Installs a sink; events start flowing to it immediately.
pub fn install_sink(sink: Arc<dyn Sink>) -> SinkId {
    // ordering: Relaxed — id allocator: uniqueness is the only contract.
    let id = SinkId(NEXT_SINK_ID.fetch_add(1, Ordering::Relaxed));
    SINKS.write().unwrap_or_else(|e| e.into_inner()).push((id, sink));
    recompute_max_level();
    id
}

/// Removes a previously installed sink. No-op for unknown ids.
pub fn remove_sink(id: SinkId) {
    SINKS.write().unwrap_or_else(|e| e.into_inner()).retain(|(sid, _)| *sid != id);
    recompute_max_level();
}

/// Fans one event out to stderr (if verbose enough) and every dynamic sink
/// that wants it.
pub(crate) fn broadcast(ev: &Event<'_>) {
    // ordering: Relaxed — verbosity gate; old-or-new are both valid.
    if ev.level as u8 <= STDERR_LEVEL.load(Ordering::Relaxed) {
        emit_stderr(ev);
    }
    if let Ok(sinks) = SINKS.read() {
        for (_, s) in sinks.iter() {
            if ev.level as u8 <= s.max_level() as u8 {
                s.emit(ev);
            }
        }
    }
}

pub(crate) fn flush_all(metrics: &MetricsSnapshot) {
    if let Ok(sinks) = SINKS.read() {
        for (_, s) in sinks.iter() {
            s.flush(metrics);
        }
    }
    let _ = std::io::stderr().flush();
}

/// Human rendering, one line per event:
///
/// * log lines print their message verbatim (the binaries phrase their own
///   prefixes, preserving the pre-obs stderr vocabulary);
/// * point events print `[target] name key=value ...`;
/// * span open/close print `>> target.name` / `<< target.name 1.234ms`.
fn emit_stderr(ev: &Event<'_>) {
    let mut line = String::with_capacity(96);
    match ev.kind {
        EventKind::Log => {
            if let Some(msg) = ev.msg {
                line.push_str(msg);
            }
        }
        EventKind::Point => {
            use std::fmt::Write as _;
            let _ = write!(line, "[{}] {}", ev.target, ev.name);
            for f in ev.fields {
                let _ = write!(line, " {}=", f.key);
                let mut v = String::new();
                f.value.write_json(&mut v);
                line.push_str(&v);
            }
        }
        EventKind::SpanOpen => {
            use std::fmt::Write as _;
            let _ = write!(line, ">> {}.{}", ev.target, ev.name);
            for f in ev.fields {
                let _ = write!(line, " {}=", f.key);
                let mut v = String::new();
                f.value.write_json(&mut v);
                line.push_str(&v);
            }
        }
        EventKind::SpanClose => {
            use std::fmt::Write as _;
            let _ = write!(line, "<< {}.{}", ev.target, ev.name);
            if let Some(ns) = ev.dur_ns {
                let _ = write!(line, " {:.3}ms", ns as f64 / 1e6);
            }
        }
    }
    eprintln!("{line}");
}

/// Machine-readable JSONL sink: one event per line, ordered by `seq`,
/// written through a mutex-guarded buffered writer (safe under the
/// work-stealing executor). Accepts every level — verbosity filtering is
/// the stderr sink's job; the trace is for machines.
pub struct JsonlSink {
    w: Mutex<BufWriter<Box<dyn Write + Send>>>,
}

impl JsonlSink {
    /// A sink writing to `path` (truncates).
    pub fn file(path: &str) -> std::io::Result<Self> {
        let f = File::create(path)?;
        Ok(Self::writer(Box::new(f)))
    }

    /// A sink writing to an arbitrary writer (tests, benches).
    pub fn writer(w: Box<dyn Write + Send>) -> Self {
        Self { w: Mutex::new(BufWriter::new(w)) }
    }
}

impl Sink for JsonlSink {
    fn max_level(&self) -> Level {
        Level::Trace
    }

    fn emit(&self, ev: &Event<'_>) {
        let mut line = String::with_capacity(128);
        ev.render_jsonl(crate::timing_fields(), &mut line);
        line.push('\n');
        let mut w = self.w.lock().unwrap_or_else(|e| e.into_inner());
        let _ = w.write_all(line.as_bytes());
    }

    fn flush(&self, metrics: &MetricsSnapshot) {
        let mut line = String::with_capacity(256);
        use std::fmt::Write as _;
        let _ = write!(line, "{{\"seq\":{},\"ev\":\"metrics\",\"data\":", crate::event::next_seq());
        metrics.write_json(&mut line);
        line.push_str("}\n");
        let mut w = self.w.lock().unwrap_or_else(|e| e.into_inner());
        let _ = w.write_all(line.as_bytes());
        let _ = w.flush();
    }
}

/// In-memory sink for tests: records owned copies of the events emitted
/// under one [`Scope`](crate::Scope) (see [`crate::test_support::capture`]).
pub struct CaptureSink {
    events: Mutex<Vec<crate::OwnedEvent>>,
    scope: crate::Scope,
}

impl CaptureSink {
    /// An empty capture of the events emitted under `scope`.
    pub fn new(scope: crate::Scope) -> Self {
        Self { events: Mutex::new(Vec::new()), scope }
    }

    /// Takes everything captured so far.
    pub fn drain(&self) -> Vec<crate::OwnedEvent> {
        std::mem::take(&mut *self.events.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

impl Sink for CaptureSink {
    fn max_level(&self) -> Level {
        Level::Trace
    }

    fn emit(&self, ev: &Event<'_>) {
        // Sinks run on the emitting thread, so its scope is current here.
        if self.scope == crate::current_scope() {
            self.events.lock().unwrap_or_else(|e| e.into_inner()).push(ev.to_owned());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::field;

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        // Shared buffer via a small adapter.
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Arc::new(Mutex::new(Vec::new()));
        let sink = JsonlSink::writer(Box::new(Shared(Arc::clone(&buf))));
        for i in 0..3u64 {
            let fields = vec![field("i", i)];
            sink.emit(&Event {
                seq: i + 1,
                kind: EventKind::Point,
                level: Level::Info,
                target: "t",
                name: "n",
                span_id: 0,
                parent: 0,
                dur_ns: None,
                self_ns: None,
                fields: &fields,
                msg: None,
            });
        }
        sink.flush(&crate::metrics::snapshot());
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "3 events + metrics: {text}");
        assert!(lines[0].starts_with("{\"seq\":1,"));
        assert!(lines[3].contains("\"ev\":\"metrics\""));
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "{l}");
        }
    }
}
