//! The traced run's span store.
//!
//! Spans are recorded by the benchmark's own code around calls into each
//! layer's public functions: one root `job` span per job and one child span
//! per layer call. They stay in memory and are written once at exit through
//! `telemetry::export::trace_json`, so `cargo run -p xtask -- check-trace`
//! accepts the file. The program's own collectors stay unattached.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use telemetry::span::current_thread_id;
use telemetry::{AttrValue, Span, SpanId};

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh span id.
    pub fn id(&self) -> SpanId {
        SpanId(self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Records a span that ran from `start` for `duration`.
    pub fn record(
        &self,
        id: SpanId,
        parent: SpanId,
        name: &'static str,
        start: Instant,
        duration: Duration,
        tag: Option<(&'static str, &'static str)>,
    ) {
        let span = Span {
            id,
            parent,
            name,
            thread: current_thread_id(),
            start_micros: start.saturating_duration_since(self.epoch).as_micros() as u64,
            duration_micros: duration.as_micros() as u64,
            attrs: tag
                .map(|(k, v)| vec![(k, AttrValue::Str(v))])
                .unwrap_or_default(),
        };
        self.spans.lock().expect("span store lock").push(span);
    }

    /// Runs `f` inside a child span of `parent` called `name`.
    pub fn time<T>(&self, parent: SpanId, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(self.id(), parent, name, start, start.elapsed(), None);
        out
    }

    /// Every recorded span.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store lock").clone()
    }

    /// The spans as Chrome Trace Event JSON.
    pub fn trace_json(&self) -> String {
        telemetry::export::trace_json(&self.spans())
    }
}

/// Durations (ms) of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_micros as f64 / 1e3)
        .collect()
}

/// Durations (ms) of every span called `name` whose parent is a root span
/// tagged `key = value`.
pub fn durations_ms_under(spans: &[Span], name: &str, key: &str, value: &str) -> Vec<f64> {
    let roots: Vec<SpanId> = spans
        .iter()
        .filter(|s| {
            s.attrs
                .iter()
                .any(|(k, v)| *k == key && matches!(v, AttrValue::Str(s) if *s == value))
        })
        .map(|s| s.id)
        .collect();
    spans
        .iter()
        .filter(|s| s.name == name && roots.contains(&s.parent))
        .map(|s| s.duration_micros as f64 / 1e3)
        .collect()
}

/// Self time (ms) of every root span: its duration minus the durations of
/// its children. Children never overlap in this benchmark's traces, so the
/// difference is exactly the time no layer span covers.
pub fn root_self_times_ms(spans: &[Span]) -> Vec<f64> {
    let mut children: BTreeMap<u64, u64> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.parent.is_some()) {
        *children.entry(span.parent.0).or_default() += span.duration_micros;
    }
    spans
        .iter()
        .filter(|s| !s.parent.is_some())
        .map(|s| {
            let covered = children.get(&s.id.0).copied().unwrap_or(0);
            s.duration_micros.saturating_sub(covered) as f64 / 1e3
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_root_minus_its_children() {
        let tracer = Tracer::new();
        let root = tracer.id();
        let start = Instant::now();
        tracer.record(
            tracer.id(),
            root,
            "a",
            start,
            Duration::from_micros(300),
            None,
        );
        tracer.record(
            tracer.id(),
            root,
            "b",
            start,
            Duration::from_micros(200),
            None,
        );
        tracer.record(
            root,
            SpanId::NONE,
            "job",
            start,
            Duration::from_micros(1000),
            Some(("class", "x")),
        );
        let spans = tracer.spans();
        assert_eq!(root_self_times_ms(&spans), vec![0.5]);
        assert_eq!(durations_ms(&spans, "a"), vec![0.3]);
        assert_eq!(durations_ms_under(&spans, "b", "class", "x"), vec![0.2]);
        assert!(durations_ms_under(&spans, "b", "class", "y").is_empty());
        let json = tracer.trace_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"job\""));
    }
}
