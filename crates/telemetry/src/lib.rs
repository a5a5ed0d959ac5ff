//! Low-overhead telemetry shared by the compiler, engine and server.
//!
//! Three pieces, designed to stay out of the hot paths they measure:
//!
//! * **Hierarchical spans** ([`Span::enter`] / [`SpanGuard`]): RAII timers
//!   with explicit parent ids, so scoped worker threads can attach their
//!   shard spans to the job span that spawned them without thread-local
//!   magic. A guard created against a disabled (or absent) [`Collector`]
//!   costs one `Instant::now()` and allocates nothing.
//! * **A metrics [`Registry`]** of [`Counter`]s, [`Gauge`]s and log-bucketed
//!   latency [`Histogram`]s with p50/p90/p99 quantile estimation. All
//!   recording is relaxed atomics; registration is a lock + map lookup and
//!   belongs outside per-shot loops.
//! * **One exporter** ([`export::trace_json`]): Chrome Trace Event Format
//!   (load the file in <https://ui.perfetto.dev> or `chrome://tracing` for a
//!   flamegraph of one run).
//!
//! # Spans
//!
//! ```
//! use std::sync::Arc;
//! use telemetry::{Collector, Span};
//!
//! let collector = Arc::new(Collector::new());
//! let mut job = Span::enter(Some(&collector), "job");
//! job.set_attr("shots", 128);
//! {
//!     // Children name their parent explicitly — this also works from a
//!     // scoped worker thread holding a clone of the Arc.
//!     let stage = Span::enter_child(Some(&collector), "compile", job.id());
//!     let elapsed = stage.finish();
//!     assert!(elapsed.as_nanos() > 0);
//! }
//! job.finish();
//! let spans = collector.completed_spans();
//! assert_eq!(spans.len(), 2);
//! assert_eq!(spans[0].name, "compile");
//! assert_eq!(spans[0].parent, spans[1].id);
//! ```
//!
//! # Metrics
//!
//! ```
//! use telemetry::Collector;
//!
//! let collector = Collector::new();
//! collector.counter("cache_hits").add(3);
//! let latency = collector.histogram("compile_micros");
//! for micros in [100, 200, 400, 800] {
//!     latency.record(micros);
//! }
//! assert_eq!(collector.counter("cache_hits").get(), 3);
//! // Quantile estimates are exact to within one log2 bucket.
//! assert!(latency.quantile(0.5) >= 128 && latency.quantile(0.5) <= 255);
//! ```
//!
//! # Overhead model
//!
//! Every instrumentation point in this workspace first checks
//! [`Collector::enabled`] (one relaxed atomic load) — a disabled collector
//! records nothing and allocates nothing. The amplitude sweeps record no
//! spans at all; their cost shows in the engine's `simulate` span.

#![warn(missing_docs)]

pub mod export;
pub mod metrics;
pub mod span;

pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use span::{AttrValue, Collector, Span, SpanGuard, SpanId};
