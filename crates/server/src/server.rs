//! The job server: admission, per-tenant compiler state, panic-isolated
//! workers, and the metrics endpoint.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use apps::workloads::{qaoa_circuit, qv_circuit};
use compiler::{CompileError, Compiler, CompilerOptions};
use device::DeviceModel;
use nuop_core::DecompositionCache;
use parking_lot::Mutex;
use qmath::RngSeed;
use sim::{ExecutionEngine, NoiseModel, SimJob};
use telemetry::{Collector, Histogram, Span, SpanId};

use crate::error::ServerError;
use crate::metrics::{MetricsSnapshot, ServerMetrics, TenantCacheStats};
use crate::queue::{Scheduler, SubmitError};
use crate::wire::{JobOp, JobRequest, JobResponse, SimSummary, WorkloadKind};

/// Largest register a simulate request may ask for: beyond this the dense
/// statevector no longer fits a request-serving memory budget.
pub const MAX_SIM_QUBITS: usize = 20;

/// An invalid server configuration, reported by [`ServerBuilder::build`]
/// instead of panicking (the same contract as `sim`'s `EngineConfigError`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerConfigError {
    /// `workers(0)` was requested.
    ZeroWorkers,
    /// `queue_capacity(0)` was requested.
    ZeroQueueCapacity,
    /// `tenant_cache_capacity(0)` was requested.
    ZeroTenantCacheCapacity,
}

impl std::fmt::Display for ServerConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerConfigError::ZeroWorkers => write!(f, "worker count must be positive (got 0)"),
            ServerConfigError::ZeroQueueCapacity => {
                write!(f, "queue capacity must be positive (got 0)")
            }
            ServerConfigError::ZeroTenantCacheCapacity => {
                write!(f, "tenant cache capacity must be positive (got 0)")
            }
        }
    }
}

impl std::error::Error for ServerConfigError {}

/// One tenant's namespace: a bounded decomposition cache plus one lazily
/// built [`Compiler`] per instruction set, all sharing that cache.
struct Tenant {
    cache: Arc<DecompositionCache>,
    compilers: Mutex<HashMap<String, Arc<Compiler>>>,
    /// Admission to response of each successful job, µs, recorded while the
    /// server's collector is attached and enabled.
    latency: Histogram,
}

impl Tenant {
    fn new(cache_capacity: usize) -> Self {
        Tenant {
            cache: Arc::new(DecompositionCache::with_capacity(cache_capacity)),
            compilers: Mutex::new(HashMap::new()),
            latency: Histogram::new(),
        }
    }
}

type JobBody = Box<dyn FnOnce() -> Result<JobResponse, ServerError> + Send + 'static>;

struct QueuedJob {
    ticket: Arc<TicketInner>,
    body: JobBody,
}

struct Shared {
    scheduler: Scheduler<QueuedJob>,
    device: DeviceModel,
    options: CompilerOptions,
    tenant_cache_capacity: usize,
    engine: ExecutionEngine,
    validate: bool,
    tenants: Mutex<HashMap<String, Arc<Tenant>>>,
    metrics: ServerMetrics,
    /// Telemetry sink shared by the server, its per-tenant compilers and its
    /// engine; `None` when the server was built without telemetry.
    collector: Option<Arc<Collector>>,
}

impl Shared {
    fn tenant(&self, name: &str) -> Arc<Tenant> {
        let mut map = self.tenants.lock();
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Tenant::new(self.tenant_cache_capacity))),
        )
    }

    fn compiler_for(&self, tenant: &Tenant, set: &str) -> Result<Arc<Compiler>, ServerError> {
        let key = set.to_ascii_uppercase();
        let mut map = tenant.compilers.lock();
        if let Some(compiler) = map.get(&key) {
            return Ok(Arc::clone(compiler));
        }
        let mut builder = Compiler::for_device(self.device.clone())
            .instruction_set_named(set)
            .shared_cache(Arc::clone(&tenant.cache))
            .options(self.options.clone());
        if let Some(collector) = &self.collector {
            builder = builder.telemetry(Arc::clone(collector));
        }
        let compiler = Arc::new(builder.build()?);
        map.insert(key, Arc::clone(&compiler));
        Ok(compiler)
    }

    /// Records `elapsed` into `histogram`, in microseconds. A no-op without
    /// an attached, enabled collector.
    fn record_latency(&self, histogram: &Histogram, elapsed: Duration) {
        if self.collector.as_ref().is_some_and(|c| c.enabled()) {
            histogram.record(elapsed.as_micros() as u64);
        }
    }

    /// Runs one job on a worker thread. `admitted` is the admission
    /// timestamp, captured in [`JobServer::submit_request`]; the job span
    /// opens there so queue wait is inside the job span, as a synthesized
    /// `queue_wait` child covering admission → worker pickup.
    fn execute(&self, request: &JobRequest, admitted: Instant) -> Result<JobResponse, ServerError> {
        let collector = self.collector.as_ref();
        let mut job_span = Span::enter_at(collector, "job", SpanId::NONE, admitted);
        let job_id = job_span.id();
        if job_span.recording() {
            job_span.set_attr("qubits", request.qubits as u64);
            job_span.set_attr("seed", request.seed);
            job_span.set_tag(
                "workload",
                match request.workload {
                    WorkloadKind::Qv => "qv",
                    WorkloadKind::Qaoa => "qaoa",
                },
            );
        }
        let queue_wait = Span::enter_at(collector, "queue_wait", job_id, admitted).finish();
        self.record_latency(&self.metrics.queue_wait, queue_wait);

        let tenant = self.tenant(&request.tenant);
        let compiler = self.compiler_for(&tenant, &request.set)?;
        // The compile returns this error too, but only after generating the
        // circuit, and a QAOA graph lists all n(n-1)/2 candidate edges first:
        // a huge `n` exhausts memory, which no `catch_unwind` can contain.
        let available = self.device.num_qubits();
        if request.qubits > available {
            return Err(ServerError::Compile(CompileError::RegionUnavailable {
                requested: request.qubits,
                available,
            }));
        }
        let circuit = match request.workload {
            WorkloadKind::Qv => qv_circuit(request.qubits, RngSeed(request.seed)),
            WorkloadKind::Qaoa => qaoa_circuit(request.qubits, RngSeed(request.seed)),
        };
        let compile_span = Span::enter_child(collector, "compile", job_id);
        let (compiled, report) =
            compiler.compile_with_report_in_span(&circuit, compile_span.id())?;
        let compile_elapsed = compile_span.finish();
        self.metrics.record_compile(compile_elapsed);
        self.record_latency(&self.metrics.compile, compile_elapsed);
        if self.validate {
            // Validate-before-run: prove the compiled artifact legal (coupling,
            // gate set, layouts) before any shot executes. Findings feed the
            // metrics endpoint tagged with the job's span id, so a non-zero
            // error count correlates to the exact traced request; they never
            // abort the job.
            let diagnostics: Vec<_> = compiled
                .verify(compiler.instruction_set())
                .into_diagnostics()
                .into_iter()
                .map(|d| d.with_trace_span(job_id.0))
                .collect();
            self.metrics.record_verify(&diagnostics);
        }

        let sim = match request.op {
            JobOp::Compile => None,
            JobOp::Simulate { shots } => {
                let fusion = request.fusion.unwrap_or(self.engine.fusion());
                let noise = NoiseModel::from_device(&compiled.subdevice);
                let job = SimJob::noisy(
                    compiled.circuit.clone(),
                    noise,
                    shots,
                    RngSeed(request.seed),
                );
                let result = self.engine.run_job_in_span(&job, fusion, job_id);
                // Account simulation by the simulate phase alone: the
                // report's total also includes precompilation (lowering and
                // validation), which belongs to neither shots/sec nor the
                // simulate latency histogram.
                self.metrics
                    .record_simulate(result.report.simulate, shots, fusion);
                self.record_latency(&self.metrics.simulate, result.report.simulate);
                if self.validate {
                    let diagnostics: Vec<_> = result
                        .diagnostics
                        .iter()
                        .cloned()
                        .map(|d| d.with_trace_span(job_id.0))
                        .collect();
                    self.metrics.record_verify(&diagnostics);
                }
                Some(SimSummary {
                    shots,
                    simulate_micros: result.report.simulate.as_micros() as u64,
                    distinct_outcomes: result.counts.iter().filter(|(_, c)| *c > 0).count(),
                    fusion,
                })
            }
        };

        let total = job_span.finish();
        self.record_latency(&tenant.latency, total);

        Ok(JobResponse {
            tenant: request.tenant.clone(),
            set: compiler.instruction_set().name().to_string(),
            two_qubit_gates: compiled.two_qubit_gate_count(),
            swap_count: compiled.swap_count,
            cache_hits: report.cache_hits,
            cache_misses: report.cache_misses,
            compile_micros: compile_elapsed.as_micros() as u64,
            sim,
        })
    }
}

struct TicketInner {
    slot: StdMutex<Option<Result<JobResponse, ServerError>>>,
    ready: Condvar,
}

impl TicketInner {
    fn complete(&self, result: Result<JobResponse, ServerError>) {
        let mut slot = self.slot.lock().unwrap_or_else(|p| p.into_inner());
        *slot = Some(result);
        self.ready.notify_all();
    }
}

/// A handle to one submitted job. [`JobTicket::wait`] blocks until a worker
/// finishes the job and yields its response (or its typed failure, including
/// [`ServerError::Panicked`] when the job's body blew up).
pub struct JobTicket {
    inner: Arc<TicketInner>,
}

impl std::fmt::Debug for JobTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let done = self
            .inner
            .slot
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .is_some();
        f.debug_struct("JobTicket").field("done", &done).finish()
    }
}

impl JobTicket {
    /// Blocks until the job completes.
    pub fn wait(self) -> Result<JobResponse, ServerError> {
        let mut slot = self.inner.slot.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self
                .inner
                .ready
                .wait(slot)
                .unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// A compile-and-simulate job server.
///
/// Build one with [`JobServer::builder`], submit [`JobRequest`]s (or raw wire
/// text via [`JobServer::submit_wire`]) and wait on the returned
/// [`JobTicket`]s. Jobs from all tenants run on one work-stealing worker
/// pool; each tenant gets an isolated, bounded decomposition cache.
///
/// ```
/// use compiler::CompilerOptions;
/// use device::DeviceModel;
/// use server::{JobOp, JobRequest, JobServer, WorkloadKind};
///
/// let server = JobServer::builder(DeviceModel::ideal(3, 0.99))
///     .workers(2)
///     .options(CompilerOptions::sweep())
///     .build()
///     .unwrap();
/// let ticket = server
///     .submit_request(JobRequest {
///         tenant: "docs".into(),
///         set: "S3".into(),
///         workload: WorkloadKind::Qv,
///         qubits: 3,
///         seed: 1,
///         op: JobOp::Compile,
///         fusion: None,
///     })
///     .unwrap();
/// let response = ticket.wait().unwrap();
/// assert!(response.two_qubit_gates > 0);
/// assert_eq!(server.metrics().completed, 1);
/// server.shutdown();
/// ```
pub struct JobServer {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl JobServer {
    /// Starts building a server that compiles onto `device`.
    pub fn builder(device: DeviceModel) -> ServerBuilder {
        ServerBuilder {
            device,
            workers: 2,
            queue_capacity: 64,
            tenant_cache_capacity: 1024,
            options: CompilerOptions::default(),
            validate: false,
            telemetry: None,
        }
    }

    /// Submits a request; returns its ticket, or an admission failure when
    /// the queue is full ([`ServerError::Overloaded`]) or the request fails
    /// validation.
    pub fn submit_request(&self, request: JobRequest) -> Result<JobTicket, ServerError> {
        validate(&request)?;
        let shared = Arc::clone(&self.shared);
        // Stamp admission time now: the worker that picks the job up opens
        // the job's telemetry span at this instant and derives the
        // queue-wait histogram sample from it.
        let admitted = Instant::now();
        self.submit_task(move || shared.execute(&request, admitted))
    }

    /// Parses a wire-format request (see [`JobRequest::parse`]) and submits
    /// it.
    pub fn submit_wire(&self, text: &str) -> Result<JobTicket, ServerError> {
        self.submit_request(JobRequest::parse(text)?)
    }

    /// Submits an arbitrary job body. This is the escape hatch the typed
    /// submission paths are built on; tests use it to inject panicking jobs
    /// and prove worker isolation.
    pub fn submit_task(
        &self,
        body: impl FnOnce() -> Result<JobResponse, ServerError> + Send + 'static,
    ) -> Result<JobTicket, ServerError> {
        let inner = Arc::new(TicketInner {
            slot: StdMutex::new(None),
            ready: Condvar::new(),
        });
        let job = QueuedJob {
            ticket: Arc::clone(&inner),
            body: Box::new(body),
        };
        match self.shared.scheduler.submit(job) {
            Ok(()) => {
                self.shared
                    .metrics
                    .submitted
                    .fetch_add(1, Ordering::Relaxed);
                Ok(JobTicket { inner })
            }
            Err(e) => {
                self.shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                Err(match e {
                    SubmitError::Overloaded { capacity } => ServerError::Overloaded { capacity },
                    SubmitError::ShutDown => ServerError::ShutDown,
                })
            }
        }
    }

    /// A point-in-time snapshot of every server counter, including
    /// per-tenant cache statistics.
    pub fn metrics(&self) -> MetricsSnapshot {
        let tenant_map = self.shared.tenants.lock();
        let tenants = tenant_map
            .iter()
            .map(|(name, tenant)| TenantCacheStats {
                tenant: name.clone(),
                entries: tenant.cache.len(),
                hits: tenant.cache.hits(),
                misses: tenant.cache.misses(),
                evictions: tenant.cache.evictions(),
            })
            .collect();
        let latency = self.shared.metrics.latency_stats(
            tenant_map
                .iter()
                .map(|(name, tenant)| (name.as_str(), &tenant.latency)),
        );
        MetricsSnapshot::from_counters(
            &self.shared.metrics,
            self.shared.scheduler.len(),
            self.shared.scheduler.workers(),
            self.shared.scheduler.steals(),
            latency,
            tenants,
        )
    }

    /// The metrics endpoint body: [`JobServer::metrics`] rendered as JSON.
    pub fn metrics_json(&self) -> String {
        self.metrics().to_json()
    }

    /// The trace endpoint body: the collector's ring buffer of completed
    /// spans (most recent [`telemetry::span::DEFAULT_SPAN_CAPACITY`] by
    /// default) rendered as Chrome Trace Event JSON — load it in Perfetto or
    /// `chrome://tracing`. Returns an empty trace when the server was built
    /// without telemetry.
    pub fn trace_json(&self) -> String {
        let spans = match &self.shared.collector {
            Some(collector) => collector.completed_spans(),
            None => Vec::new(),
        };
        telemetry::export::trace_json(&spans)
    }

    /// Stops admission, drains already-queued jobs and joins every worker.
    /// Dropping the server does the same.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        self.shared.scheduler.shutdown();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for JobServer {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

impl std::fmt::Debug for JobServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobServer")
            .field("device", &self.shared.device.name())
            .field("workers", &self.shared.scheduler.workers())
            .field("queue_capacity", &self.shared.scheduler.capacity())
            .finish()
    }
}

fn validate(request: &JobRequest) -> Result<(), ServerError> {
    // The tenant is echoed into every response and into `metrics_json()`,
    // whose writers carry no escape sequences.
    if request.tenant.is_empty() {
        return Err(ServerError::InvalidRequest {
            reason: "tenant must be non-empty".into(),
        });
    }
    if let Some(c) = request
        .tenant
        .chars()
        .find(|&c| c == '"' || c == '\\' || c.is_control())
    {
        return Err(ServerError::InvalidRequest {
            reason: format!("tenant must not contain {c:?}"),
        });
    }
    // Both workload generators need a pair of qubits to entangle.
    if request.qubits < 2 {
        return Err(ServerError::InvalidRequest {
            reason: format!("qubits must be at least 2 (got {})", request.qubits),
        });
    }
    match request.op {
        JobOp::Simulate { shots: 0 } => Err(ServerError::InvalidRequest {
            reason: "shots must be positive".into(),
        }),
        JobOp::Simulate { .. } if request.qubits > MAX_SIM_QUBITS => {
            Err(ServerError::InvalidRequest {
                reason: format!(
                    "simulate requests are limited to {MAX_SIM_QUBITS} qubits (got {})",
                    request.qubits
                ),
            })
        }
        _ => Ok(()),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

fn worker_loop(shared: &Shared, index: usize) {
    while let Some(QueuedJob { ticket, body }) = shared.scheduler.pop(index) {
        // The catch_unwind boundary is the whole point of the worker: one
        // buggy job must neither take the thread down nor touch its
        // neighbours. The payload is converted to text here, so the ticket
        // owner sees the original message.
        let result = match catch_unwind(AssertUnwindSafe(body)) {
            Ok(result) => {
                match &result {
                    Ok(_) => shared.metrics.completed.fetch_add(1, Ordering::Relaxed),
                    Err(_) => shared.metrics.failed.fetch_add(1, Ordering::Relaxed),
                };
                result
            }
            Err(payload) => {
                shared.metrics.panicked.fetch_add(1, Ordering::Relaxed);
                Err(ServerError::Panicked {
                    message: panic_message(payload.as_ref()),
                })
            }
        };
        ticket.complete(result);
    }
}

/// Builder returned by [`JobServer::builder`].
pub struct ServerBuilder {
    device: DeviceModel,
    workers: usize,
    queue_capacity: usize,
    tenant_cache_capacity: usize,
    options: CompilerOptions,
    validate: bool,
    telemetry: Option<Arc<Collector>>,
}

impl ServerBuilder {
    /// Number of worker threads (default 2).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Admission bound of the job queue (default 64).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Bound of each tenant's decomposition cache (default 1024 entries).
    pub fn tenant_cache_capacity(mut self, capacity: usize) -> Self {
        self.tenant_cache_capacity = capacity;
        self
    }

    /// Compilation options used by every per-tenant compiler. The per-job
    /// thread count is forced to 1: on a server, parallelism lives *across*
    /// jobs (the worker pool), not inside one compile.
    pub fn options(mut self, options: CompilerOptions) -> Self {
        self.options = options;
        self
    }

    /// Enables validate-before-run (default off): every compiled artifact is
    /// statically verified before execution and every simulate job's lowered
    /// kernels are audited by the engine. Finding counts surface in the
    /// metrics endpoint (`verify_errors` / `verify_warnings`); jobs are never
    /// aborted.
    pub fn validate(mut self, on: bool) -> Self {
        self.validate = on;
        self
    }

    /// Attaches a telemetry collector (default none). The collector is
    /// shared with every per-tenant compiler and the engine, so
    /// one trace carries the full job → stage → shard span tree. While it is
    /// enabled, the server's own per-stage and per-tenant latency histograms
    /// record too, and [`JobServer::metrics_json`] reports them.
    /// Telemetry costs nothing until [`Collector::set_enabled`] turns the
    /// collector on.
    pub fn telemetry(mut self, collector: Arc<Collector>) -> Self {
        self.telemetry = Some(collector);
        self
    }

    /// Builds and starts the server (spawns the worker threads).
    pub fn build(self) -> Result<JobServer, ServerConfigError> {
        if self.workers == 0 {
            return Err(ServerConfigError::ZeroWorkers);
        }
        if self.queue_capacity == 0 {
            return Err(ServerConfigError::ZeroQueueCapacity);
        }
        if self.tenant_cache_capacity == 0 {
            return Err(ServerConfigError::ZeroTenantCacheCapacity);
        }
        let mut options = self.options;
        options.threads = 1;
        // One thread per job: the worker pool is the server's parallelism.
        // The server's collector, when set, also records the engine-side
        // spans (precompile / simulate / shard), so they land in the same
        // trace as the server's job spans.
        let mut engine = ExecutionEngine::builder()
            .threads(1)
            .validate(self.validate);
        if let Some(collector) = &self.telemetry {
            engine = engine.telemetry(Arc::clone(collector));
        }
        let engine = engine
            .build()
            .expect("one thread and the default chunk size are a valid config");
        let shared = Arc::new(Shared {
            scheduler: Scheduler::new(self.workers, self.queue_capacity),
            device: self.device,
            options,
            tenant_cache_capacity: self.tenant_cache_capacity,
            engine,
            validate: self.validate,
            tenants: Mutex::new(HashMap::new()),
            metrics: ServerMetrics::default(),
            collector: self.telemetry,
        });
        let handles = (0..self.workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("server-worker-{index}"))
                    .spawn(move || worker_loop(&shared, index))
                    .expect("spawning a worker thread succeeds")
            })
            .collect();
        Ok(JobServer { shared, handles })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::FusionPolicy;

    fn test_server(workers: usize) -> JobServer {
        JobServer::builder(DeviceModel::ideal(3, 0.99))
            .workers(workers)
            .options(CompilerOptions::sweep())
            .build()
            .unwrap()
    }

    fn compile_request(tenant: &str, seed: u64) -> JobRequest {
        JobRequest {
            tenant: tenant.into(),
            set: "S3".into(),
            workload: WorkloadKind::Qv,
            qubits: 3,
            seed,
            op: JobOp::Compile,
            fusion: None,
        }
    }

    #[test]
    fn misconfiguration_is_a_typed_error_not_a_panic() {
        let device = DeviceModel::ideal(2, 0.99);
        assert_eq!(
            JobServer::builder(device.clone()).workers(0).build().err(),
            Some(ServerConfigError::ZeroWorkers)
        );
        assert_eq!(
            JobServer::builder(device.clone())
                .queue_capacity(0)
                .build()
                .err(),
            Some(ServerConfigError::ZeroQueueCapacity)
        );
        assert_eq!(
            JobServer::builder(device)
                .tenant_cache_capacity(0)
                .build()
                .err(),
            Some(ServerConfigError::ZeroTenantCacheCapacity)
        );
    }

    #[test]
    fn compile_and_simulate_round_trip() {
        let server = test_server(2);
        let compile = server.submit_request(compile_request("t", 1)).unwrap();
        let simulate = server
            .submit_request(JobRequest {
                op: JobOp::Simulate { shots: 64 },
                ..compile_request("t", 1)
            })
            .unwrap();
        let compiled = compile.wait().unwrap();
        assert!(compiled.two_qubit_gates > 0);
        assert!(compiled.sim.is_none());
        let simulated = simulate.wait().unwrap();
        let sim = simulated.sim.expect("simulate jobs report sampling stats");
        assert_eq!(sim.shots, 64);
        assert!(sim.distinct_outcomes >= 1);
        let metrics = server.metrics();
        assert_eq!(metrics.completed, 2);
        assert_eq!(metrics.shots_total, 64);
        assert_eq!(metrics.tenants.len(), 1);
        assert!(metrics.tenants[0].misses > 0);
    }

    #[test]
    fn wire_submission_and_validation_errors() {
        let server = test_server(1);
        let wire = compile_request("w", 3).encode();
        assert!(server.submit_wire(&wire).unwrap().wait().is_ok());
        assert!(matches!(
            server.submit_wire("{oops"),
            Err(ServerError::InvalidRequest { .. })
        ));
        assert!(matches!(
            server.submit_request(JobRequest {
                qubits: 0,
                ..compile_request("w", 1)
            }),
            Err(ServerError::InvalidRequest { .. })
        ));
        assert!(matches!(
            server.submit_request(JobRequest {
                qubits: MAX_SIM_QUBITS + 1,
                op: JobOp::Simulate { shots: 1 },
                ..compile_request("w", 1)
            }),
            Err(ServerError::InvalidRequest { .. })
        ));
        // Tenants the flat JSON writers cannot carry are rejected, on the
        // typed path and over the wire.
        for tenant in ["", "q\"t", "q\\t", "tab\there", "nul\u{0}", "del\u{7f}"] {
            let err = server.submit_request(compile_request(tenant, 1)).err();
            assert!(
                matches!(&err, Some(ServerError::InvalidRequest { reason }) if reason.contains("tenant")),
                "{tenant:?}: {err:?}"
            );
        }
        let raw_tab = compile_request("w", 1)
            .encode()
            .replace("\"w\"", "\"w\tx\"");
        assert!(matches!(
            server.submit_wire(&raw_tab),
            Err(ServerError::InvalidRequest { .. })
        ));
    }

    #[test]
    fn validated_jobs_report_zero_findings_in_metrics() {
        let server = JobServer::builder(DeviceModel::ideal(3, 0.99))
            .workers(2)
            .options(CompilerOptions::sweep())
            .validate(true)
            .build()
            .unwrap();
        let ticket = server
            .submit_request(JobRequest {
                op: JobOp::Simulate { shots: 32 },
                ..compile_request("v", 1)
            })
            .unwrap();
        ticket.wait().unwrap();
        let metrics = server.metrics();
        // A legal pipeline produces no findings; the counters exist and stay
        // at zero, and the JSON endpoint exposes them.
        assert_eq!(metrics.verify_errors, 0);
        assert_eq!(metrics.verify_warnings, 0);
        assert!(server.metrics_json().contains("\"verify_errors\": 0"));
    }

    #[test]
    fn wire_fusion_policy_selects_the_engine_and_shows_in_metrics() {
        let server = test_server(2);
        for (policy, expect) in [
            (FusionPolicy::Off, "off"),
            (FusionPolicy::Safe, "safe"),
            (FusionPolicy::Aggressive, "aggressive"),
        ] {
            let ticket = server
                .submit_request(JobRequest {
                    op: JobOp::Simulate { shots: 32 },
                    fusion: Some(policy),
                    ..compile_request("f", 1)
                })
                .unwrap();
            let response = ticket.wait().unwrap();
            assert!(response
                .encode()
                .contains(&format!("\"fusion\":\"{expect}\"")));
            let sim = response.sim.expect("simulate jobs report sampling stats");
            assert_eq!(sim.fusion, policy);
        }
        let metrics = server.metrics();
        assert_eq!(metrics.sim_fusion_off, 1);
        assert_eq!(metrics.sim_fusion_safe, 1);
        assert_eq!(metrics.sim_fusion_aggressive, 1);
        assert!(server
            .metrics_json()
            .contains("\"sim_fusion_aggressive\": 1"));
        // A request that leaves fusion unset runs under the server engine's
        // own policy (Safe by default) and is counted under that policy.
        let ticket = server
            .submit_request(JobRequest {
                op: JobOp::Simulate { shots: 16 },
                ..compile_request("f", 2)
            })
            .unwrap();
        assert_eq!(
            ticket.wait().unwrap().sim.unwrap().fusion,
            FusionPolicy::Safe
        );
        assert_eq!(server.metrics().sim_fusion_safe, 2);
    }

    #[test]
    fn telemetry_server_reports_latency_histograms_and_a_job_span_tree() {
        let collector = Arc::new(Collector::new());
        collector.set_enabled(true);
        let server = JobServer::builder(DeviceModel::ideal(3, 0.99))
            .workers(2)
            .options(CompilerOptions::sweep())
            .telemetry(Arc::clone(&collector))
            .build()
            .unwrap();
        let compile = server.submit_request(compile_request("t", 1)).unwrap();
        let simulate = server
            .submit_request(JobRequest {
                op: JobOp::Simulate { shots: 64 },
                ..compile_request("t", 2)
            })
            .unwrap();
        compile.wait().unwrap();
        simulate.wait().unwrap();

        // Per-stage latency quantiles in the snapshot and the JSON endpoint.
        let metrics = server.metrics();
        let stage = |name: &str| {
            metrics
                .latency
                .iter()
                .find(|s| s.stage == name)
                .unwrap_or_else(|| panic!("latency stage {name} missing"))
                .clone()
        };
        assert_eq!(stage("queue_wait").count, 2);
        assert_eq!(stage("compile").count, 2);
        assert_eq!(stage("simulate").count, 1);
        assert_eq!(stage("tenant.t").count, 2);
        let latency = stage("compile");
        assert!(latency.p50_micros <= latency.p90_micros);
        assert!(latency.p90_micros <= latency.p99_micros);
        let json = server.metrics_json();
        assert!(json.contains("\"compile\": {\"count\": 2"));
        assert!(json.contains("\"p50_micros\":"));
        assert!(json.contains("\"p99_micros\":"));

        // The trace holds a job → stage span tree with consistent parent ids.
        let spans = collector.completed_spans();
        let jobs: Vec<_> = spans.iter().filter(|s| s.name == "job").collect();
        assert_eq!(jobs.len(), 2);
        for name in ["queue_wait", "compile", "simulate"] {
            assert!(
                spans
                    .iter()
                    .filter(|s| s.name == name)
                    .all(|s| jobs.iter().any(|j| j.id == s.parent)),
                "every {name} span nests under a job span"
            );
        }
        assert!(spans.iter().any(|s| s.name == "simulate"));
        let trace = server.trace_json();
        assert!(trace.starts_with("{\"traceEvents\":["));
        assert!(trace.contains("\"name\":\"job\""));
        assert!(trace.contains("\"name\":\"queue_wait\""));
        server.shutdown();
    }

    #[test]
    fn untraced_server_serves_empty_latency_and_trace() {
        let server = test_server(1);
        server
            .submit_request(compile_request("t", 1))
            .unwrap()
            .wait()
            .unwrap();
        assert!(server.metrics().latency.is_empty());
        assert_eq!(server.trace_json(), "{\"traceEvents\":[]}");
        assert!(server.metrics_json().contains("\"latency\": {}"));
    }

    #[test]
    fn traced_latency_lists_only_the_stages_that_recorded() {
        let server = JobServer::builder(DeviceModel::ideal(3, 0.99))
            .workers(1)
            .options(CompilerOptions::sweep())
            .telemetry(Arc::new(Collector::new()))
            .build()
            .unwrap();
        let compile = server.submit_request(compile_request("a", 1)).unwrap();
        let simulate = server
            .submit_request(JobRequest {
                op: JobOp::Simulate { shots: 16 },
                ..compile_request("a", 2)
            })
            .unwrap();
        let unknown_set = server
            .submit_request(JobRequest {
                set: "G99".into(),
                ..compile_request("b", 1)
            })
            .unwrap();
        compile.wait().unwrap();
        simulate.wait().unwrap();
        assert!(matches!(unknown_set.wait(), Err(ServerError::Compile(_))));

        // The failed job waited in the queue but recorded no tenant latency,
        // though its tenant's namespace exists.
        let metrics = server.metrics();
        let stages: Vec<(&str, u64)> = metrics
            .latency
            .iter()
            .map(|s| (s.stage.as_str(), s.count))
            .collect();
        assert_eq!(
            stages,
            [
                ("compile", 2),
                ("queue_wait", 3),
                ("simulate", 1),
                ("tenant.a", 2)
            ]
        );
        assert_eq!(metrics.tenants.len(), 2);
    }

    #[test]
    fn disabled_collector_serves_empty_latency() {
        let server = JobServer::builder(DeviceModel::ideal(3, 0.99))
            .workers(1)
            .options(CompilerOptions::sweep())
            .telemetry(Arc::new(Collector::disabled()))
            .build()
            .unwrap();
        server
            .submit_request(JobRequest {
                op: JobOp::Simulate { shots: 16 },
                ..compile_request("t", 1)
            })
            .unwrap()
            .wait()
            .unwrap();
        assert!(server.metrics().latency.is_empty());
        assert!(server.metrics_json().contains("\"latency\": {}"));
    }

    #[test]
    fn servers_sharing_a_collector_report_only_their_own_latency() {
        let collector = Arc::new(Collector::new());
        let build = || {
            JobServer::builder(DeviceModel::ideal(3, 0.99))
                .workers(1)
                .options(CompilerOptions::sweep())
                .telemetry(Arc::clone(&collector))
                .build()
                .unwrap()
        };
        let (first, second) = (build(), build());
        first
            .submit_request(compile_request("t", 1))
            .unwrap()
            .wait()
            .unwrap();
        for seed in [1, 2] {
            second
                .submit_request(compile_request("t", seed))
                .unwrap()
                .wait()
                .unwrap();
        }
        let count = |server: &JobServer, stage: &str| {
            server
                .metrics()
                .latency
                .iter()
                .find(|s| s.stage == stage)
                .map(|s| s.count)
        };
        for stage in ["compile", "queue_wait", "tenant.t"] {
            assert_eq!(count(&first, stage), Some(1), "{stage}");
            assert_eq!(count(&second, stage), Some(2), "{stage}");
        }
        // Both servers' spans still land in the one trace.
        let jobs = collector
            .completed_spans()
            .iter()
            .filter(|s| s.name == "job")
            .count();
        assert_eq!(jobs, 3);
    }

    #[test]
    fn one_qubit_requests_are_invalid_not_panics() {
        let server = test_server(1);
        for workload in [WorkloadKind::Qv, WorkloadKind::Qaoa] {
            let request = JobRequest {
                workload,
                qubits: 1,
                ..compile_request("w", 1)
            };
            let wire = request.encode();
            for err in [
                server.submit_request(request).err(),
                server.submit_wire(&wire).err(),
            ] {
                assert!(
                    matches!(&err, Some(ServerError::InvalidRequest { reason }) if reason.contains("qubits")),
                    "{workload:?}: {err:?}"
                );
            }
        }
        assert_eq!(server.metrics().panicked, 0);
    }

    #[test]
    fn requests_wider_than_the_device_fail_before_generating_a_circuit() {
        // A million-qubit QAOA request would list about 5e11 candidate edges
        // before the compile could reject it.
        let server = test_server(1);
        let unavailable = Err(ServerError::Compile(CompileError::RegionUnavailable {
            requested: 1_000_000,
            available: 3,
        }));
        for workload in [WorkloadKind::Qv, WorkloadKind::Qaoa] {
            let request = JobRequest {
                workload,
                qubits: 1_000_000,
                ..compile_request("w", 1)
            };
            let wire = request.encode();
            assert_eq!(server.submit_request(request).unwrap().wait(), unavailable);
            assert_eq!(server.submit_wire(&wire).unwrap().wait(), unavailable);
        }
        // The worker survived and serves a normal job.
        assert!(server
            .submit_request(compile_request("w", 2))
            .unwrap()
            .wait()
            .is_ok());
        let metrics = server.metrics();
        assert_eq!(
            (metrics.failed, metrics.panicked, metrics.completed),
            (4, 0, 1)
        );
    }

    #[test]
    fn validated_telemetry_jobs_tag_findings_with_the_job_span() {
        // A legal pipeline yields no findings, so the correlation field stays
        // zero — but the endpoint must expose it.
        let collector = Arc::new(Collector::new());
        collector.set_enabled(true);
        let server = JobServer::builder(DeviceModel::ideal(3, 0.99))
            .workers(1)
            .options(CompilerOptions::sweep())
            .validate(true)
            .telemetry(collector)
            .build()
            .unwrap();
        let ticket = server
            .submit_request(JobRequest {
                op: JobOp::Simulate { shots: 16 },
                ..compile_request("v", 1)
            })
            .unwrap();
        ticket.wait().unwrap();
        let metrics = server.metrics();
        assert_eq!(metrics.verify_errors, 0);
        assert_eq!(metrics.verify_last_error_span, 0);
        assert!(server
            .metrics_json()
            .contains("\"verify_last_error_span\": 0"));
    }

    #[test]
    fn unknown_instruction_sets_fail_the_job_not_the_server() {
        let server = test_server(1);
        let bad = server
            .submit_request(JobRequest {
                set: "G99".into(),
                ..compile_request("t", 1)
            })
            .unwrap();
        assert!(matches!(bad.wait(), Err(ServerError::Compile(_))));
        // The worker survived and serves the next job.
        let good = server.submit_request(compile_request("t", 2)).unwrap();
        assert!(good.wait().is_ok());
        assert_eq!(server.metrics().failed, 1);
    }

    #[test]
    fn shutdown_rejects_new_submissions() {
        let server = test_server(1);
        let shared = Arc::clone(&server.shared);
        server.shutdown();
        assert!(matches!(
            shared.scheduler.submit(QueuedJob {
                ticket: Arc::new(TicketInner {
                    slot: StdMutex::new(None),
                    ready: Condvar::new(),
                }),
                body: Box::new(|| Err(ServerError::ShutDown)),
            }),
            Err(SubmitError::ShutDown)
        ));
    }
}
