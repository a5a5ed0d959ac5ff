//! Compile-and-simulate job server.
//!
//! The paper's experiments are batch sweeps; this crate wraps the same
//! pipeline — [`compiler::Compiler`] in front of [`sim::ExecutionEngine`] —
//! in a long-running, multi-tenant service:
//!
//! * **Bounded work-stealing queue** ([`queue`]): jobs from every tenant are
//!   spread round-robin over per-worker deques; idle workers steal, so one
//!   slow compile cannot idle the pool. Admission is bounded — once the
//!   queue holds `queue_capacity` jobs, submissions fail fast with
//!   [`ServerError::Overloaded`] backpressure instead of queueing unbounded
//!   latency.
//! * **Per-tenant cache namespaces**: each tenant owns a bounded
//!   [`nuop_core::DecompositionCache`] shared by its per-instruction-set
//!   compilers. Tenants never see each other's cache traffic, and the
//!   metrics endpoint reports hit rates and evictions per namespace.
//! * **Panic-isolated workers** ([`server`]): every job body runs inside
//!   `catch_unwind`. A panicking job resolves its own ticket with
//!   [`ServerError::Panicked`] (carrying the original message) while the
//!   worker thread and every other job carry on untouched.
//! * **Wire format** ([`wire`]): requests name deterministic workloads
//!   (tenant, instruction set, generator, qubits, seed) in flat JSON, so a
//!   few scalars reproduce any circuit on both ends of the wire.
//! * **Metrics endpoint** ([`metrics`]): [`JobServer::metrics_json`] serves
//!   queue depth, completion/failure/panic counts, compile and simulate
//!   wall-clock, per-stage latency quantiles (p50/p90/p99 for queue wait,
//!   compile, simulate and per tenant, when telemetry is attached), and
//!   per-tenant cache statistics as JSON.
//! * **Trace endpoint** ([`JobServer::trace_json`]): with a
//!   [`telemetry::Collector`] attached via [`ServerBuilder::telemetry`],
//!   every job leaves a `job → queue_wait / compile / simulate → shard`
//!   span tree; the endpoint renders the most recent completed spans as
//!   Chrome Trace Event JSON loadable in Perfetto.
//!
//! The `replay` binary (`cargo run --release -p server --bin replay`) replays
//! a recorded request mix against the server and a serial baseline and
//! prints p50/p99 latency and jobs/sec (`--out <path>` also writes them as
//! JSON).
//!
//! ```
//! use device::DeviceModel;
//! use compiler::CompilerOptions;
//! use server::{JobOp, JobRequest, JobServer, WorkloadKind};
//!
//! let server = JobServer::builder(DeviceModel::ideal(3, 0.99))
//!     .options(CompilerOptions::sweep())
//!     .build()
//!     .unwrap();
//! // Wire text and typed requests land on the same queue.
//! let ticket = server
//!     .submit_wire(
//!         r#"{"tenant":"demo","set":"S3","workload":"qaoa",
//!             "qubits":3,"seed":7,"op":"simulate","shots":128}"#,
//!     )
//!     .unwrap();
//! let response = ticket.wait().unwrap();
//! assert_eq!(response.sim.unwrap().shots, 128);
//! # let _ = JobRequest { tenant: String::new(), set: String::new(),
//! #     workload: WorkloadKind::Qv, qubits: 1, seed: 0, op: JobOp::Compile, fusion: None };
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![deny(deprecated)]

pub mod error;
pub mod metrics;
pub mod queue;
pub mod server;
pub mod wire;

pub use error::ServerError;
pub use metrics::{LatencyStats, MetricsSnapshot, ServerMetrics, TenantCacheStats};
pub use queue::{Scheduler, SubmitError};
pub use server::{JobServer, JobTicket, ServerBuilder, ServerConfigError, MAX_SIM_QUBITS};
pub use wire::{JobOp, JobRequest, JobResponse, SimSummary, WireError, WorkloadKind};
