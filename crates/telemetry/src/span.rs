//! Hierarchical spans and the collector that stores them.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::metrics::{Counter, Gauge, Histogram, Registry};

/// Default bound of the completed-span ring buffer.
pub const DEFAULT_SPAN_CAPACITY: usize = 4096;

/// Identifier of a recorded span. `SpanId::NONE` (zero) means "no span" —
/// used both for root spans (no parent) and for guards created against a
/// disabled collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null id: no parent / not recording.
    pub const NONE: SpanId = SpanId(0);

    /// True for any id other than [`SpanId::NONE`].
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

/// One attribute value attached to a span: either a number (shot counts,
/// qubit counts, shard indices) or a static tag (regime names, fusion
/// policies). Static strings keep attribute recording allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrValue {
    /// An unsigned integer attribute.
    U64(u64),
    /// A static string tag.
    Str(&'static str),
}

/// A completed span: what the ring buffer stores and the exporters render.
///
/// Fields are public so deterministic tests (and adapters synthesizing spans
/// from externally measured intervals) can build records directly and feed
/// them through [`Collector::record_span_raw`].
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the collector.
    pub id: SpanId,
    /// Parent span id, or [`SpanId::NONE`] for roots.
    pub parent: SpanId,
    /// Static name ("job", "compile", "shard", ...).
    pub name: &'static str,
    /// Telemetry thread id of the recording thread (process-unique, assigned
    /// in creation order — not the OS tid).
    pub thread: u64,
    /// Start time in microseconds since the collector's epoch.
    pub start_micros: u64,
    /// Duration in microseconds.
    pub duration_micros: u64,
    /// Attributes, in the order they were set.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl Span {
    /// Starts a root span against `collector` (pass `None`, or a disabled
    /// collector, for a guard that only measures time). See the
    /// [crate docs](crate) for an example.
    pub fn enter(collector: Option<&Arc<Collector>>, name: &'static str) -> SpanGuard {
        Span::enter_child(collector, name, SpanId::NONE)
    }

    /// Starts a span whose parent is `parent` — the cross-thread attachment
    /// point: a scoped worker passes the id of the span its job runs under.
    pub fn enter_child(
        collector: Option<&Arc<Collector>>,
        name: &'static str,
        parent: SpanId,
    ) -> SpanGuard {
        SpanGuard::new(collector, name, parent, Instant::now())
    }

    /// Starts a span whose clock began at `start` (before the guard was
    /// created). The server uses this to open a job span at its *admission*
    /// timestamp once a worker picks the job up, so queue wait is inside the
    /// job span.
    pub fn enter_at(
        collector: Option<&Arc<Collector>>,
        name: &'static str,
        parent: SpanId,
        start: Instant,
    ) -> SpanGuard {
        SpanGuard::new(collector, name, parent, start)
    }
}

/// RAII guard for an in-progress span; records the completed [`Span`] when
/// finished (or dropped). Created by [`Span::enter`] and friends.
#[derive(Debug)]
pub struct SpanGuard {
    /// `Some` only when this guard will record on finish.
    collector: Option<Arc<Collector>>,
    name: &'static str,
    id: SpanId,
    parent: SpanId,
    start: Instant,
    attrs: Vec<(&'static str, AttrValue)>,
}

impl SpanGuard {
    fn new(
        collector: Option<&Arc<Collector>>,
        name: &'static str,
        parent: SpanId,
        start: Instant,
    ) -> SpanGuard {
        // The enabled check comes before any allocation or id assignment: a
        // disabled collector leaves only the Instant read on the hot path.
        let collector = collector.filter(|c| c.enabled()).map(Arc::clone);
        let id = collector
            .as_ref()
            .map_or(SpanId::NONE, |c| c.next_span_id());
        SpanGuard {
            collector,
            name,
            id,
            parent,
            start,
            attrs: Vec::new(),
        }
    }

    /// This span's id, for children to name as their parent.
    /// [`SpanId::NONE`] when the guard is not recording.
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// True when finishing this guard will store a record.
    pub fn recording(&self) -> bool {
        self.collector.is_some()
    }

    /// Attaches a numeric attribute (no-op when not recording).
    pub fn set_attr(&mut self, key: &'static str, value: u64) {
        if self.collector.is_some() {
            self.attrs.push((key, AttrValue::U64(value)));
        }
    }

    /// Attaches a static string tag (no-op when not recording).
    pub fn set_tag(&mut self, key: &'static str, value: &'static str) {
        if self.collector.is_some() {
            self.attrs.push((key, AttrValue::Str(value)));
        }
    }

    /// Ends the span, records it (when recording) and returns the measured
    /// wall-clock duration — so callers can use the span as their single
    /// timing source even with telemetry disabled.
    pub fn finish(mut self) -> Duration {
        let elapsed = self.start.elapsed();
        self.record(elapsed);
        elapsed
    }

    fn record(&mut self, elapsed: Duration) {
        let Some(collector) = self.collector.take() else {
            return;
        };
        collector.record_span_raw(Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            thread: current_thread_id(),
            start_micros: collector.micros_since_epoch(self.start),
            duration_micros: elapsed.as_micros() as u64,
            attrs: std::mem::take(&mut self.attrs),
        });
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        self.record(elapsed);
    }
}

static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
}

/// The calling thread's telemetry id: process-unique, assigned in first-use
/// order (stable within a thread's lifetime, unlike OS tids it never
/// recycles mid-run).
pub fn current_thread_id() -> u64 {
    THREAD_ID.with(|id| *id)
}

/// Thread-safe store for completed spans plus a metrics [`Registry`].
///
/// Cheap to share (`Arc<Collector>`); every recording path first checks the
/// `enabled` atomic, so a disabled collector can be wired through the whole
/// stack at near-zero cost. Completed spans live in a bounded ring buffer
/// (oldest evicted first) sized at construction.
pub struct Collector {
    enabled: AtomicBool,
    next_id: AtomicU64,
    epoch: Instant,
    capacity: usize,
    spans: Mutex<VecDeque<Span>>,
    registry: Registry,
}

impl Default for Collector {
    fn default() -> Self {
        Collector::new()
    }
}

impl Collector {
    /// An enabled collector holding up to [`DEFAULT_SPAN_CAPACITY`] completed
    /// spans.
    pub fn new() -> Collector {
        Collector::with_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// An enabled collector bounded at `capacity` completed spans
    /// (minimum 1).
    pub fn with_capacity(capacity: usize) -> Collector {
        Collector {
            enabled: AtomicBool::new(true),
            next_id: AtomicU64::new(1),
            epoch: Instant::now(),
            capacity: capacity.max(1),
            spans: Mutex::new(VecDeque::new()),
            registry: Registry::new(),
        }
    }

    /// A collector that records nothing until [`Collector::set_enabled`].
    pub fn disabled() -> Collector {
        let collector = Collector::new();
        collector.enabled.store(false, Ordering::Relaxed);
        collector
    }

    /// Whether recording is on.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off. Off is near-free for every instrumentation
    /// point: one relaxed load, no allocation.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub(crate) fn next_span_id(&self) -> SpanId {
        SpanId(self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Microseconds from the collector's creation to `at` (0 for instants
    /// before the epoch).
    pub fn micros_since_epoch(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Stores an already-built record, evicting the oldest when full. This is
    /// the deterministic back door: tests (and adapters timing intervals
    /// externally) construct [`Span`]s with fixed values and push them here.
    /// The id is taken as given, so synthesized spans should use ids from
    /// the collector's own sequence (the ones [`Span::enter`] hands out) to
    /// stay unique.
    pub fn record_span_raw(&self, span: Span) {
        if !self.enabled() {
            return;
        }
        let mut spans = self.spans.lock();
        while spans.len() >= self.capacity {
            spans.pop_front();
        }
        spans.push_back(span);
    }

    /// A copy of every completed span, oldest first.
    pub fn completed_spans(&self) -> Vec<Span> {
        self.spans.lock().iter().cloned().collect()
    }

    /// Removes and returns every completed span, oldest first.
    pub fn drain_spans(&self) -> Vec<Span> {
        self.spans.lock().drain(..).collect()
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Shorthand for [`Registry::counter`].
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.registry.counter(name)
    }

    /// Shorthand for [`Registry::gauge`].
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.registry.gauge(name)
    }

    /// Shorthand for [`Registry::histogram`].
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.registry.histogram(name)
    }
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("enabled", &self.enabled())
            .field("spans", &self.spans.lock().len())
            .field("capacity", &self.capacity)
            .finish()
    }
}
