//! Replay harness: measures the job server against serial baselines.
//!
//! A fixed, deterministic request mix (several tenants x instruction sets x
//! workload generators x seeds) is replayed three ways:
//!
//! * `serial_cold` — one-shot loop: every request builds a fresh compiler
//!   with an empty decomposition cache, the way a per-request CLI process
//!   would serve it.
//! * `serial_warm` — a long-lived single-threaded loop that keeps one warm
//!   compiler per (tenant, set), an upper bound for any serial server.
//! * `server` — the [`server::JobServer`] with its work-stealing pool and
//!   per-tenant caches, driven closed-loop at a bounded in-flight window.
//!
//! Per-request latency (p50/p99) and jobs/sec are printed; `--out <path>`
//! also writes them, with the server's metrics, as JSON. `--smoke` runs a
//! tiny mix — that is what CI runs.
//!
//! `--telemetry on|off` controls whether the server run records spans and
//! per-stage latency histograms (default: on in full mode, off in smoke).
//! With telemetry on, the replay exits non-zero unless those histograms
//! count every replayed request (see [`check_latency`]).
//! `--trace <path>` writes the server's span ring buffer as Chrome Trace
//! Event JSON (Perfetto-loadable) and implies `--telemetry on`.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use apps::workloads::{qaoa_circuit, qv_circuit};
use compiler::{Compiler, CompilerOptions};
use device::DeviceModel;
use qmath::RngSeed;
use server::{JobOp, JobRequest, JobServer, MetricsSnapshot, ServerError, WorkloadKind};
use sim::{ExecutionEngine, NoiseModel, SimJob};
use telemetry::Collector;

struct Config {
    requests: usize,
    workers: usize,
    queue_capacity: usize,
    tenants: usize,
    smoke: bool,
    out: Option<String>,
    /// Whether the server run records spans and latency histograms. Resolved
    /// from `--telemetry on|off`; defaults to on in full mode, off in smoke
    /// mode (so the CI smoke measures the un-instrumented hot path), and
    /// `--trace` forces it on.
    telemetry: bool,
    trace: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut config = Config {
        requests: 120,
        workers: 4,
        queue_capacity: 256,
        tenants: 2,
        smoke: false,
        out: None,
        telemetry: false,
        trace: None,
    };
    let mut telemetry: Option<bool> = None;
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = |name: &str| -> Result<&str, String> {
            args.get(i + 1)
                .map(|s| s.as_str())
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag {
            "--smoke" => {
                config.smoke = true;
                i += 1;
            }
            "--requests" => {
                config.requests = parse_positive(flag, value(flag)?)?;
                i += 2;
            }
            "--workers" => {
                config.workers = parse_positive(flag, value(flag)?)?;
                i += 2;
            }
            "--queue" => {
                config.queue_capacity = parse_positive(flag, value(flag)?)?;
                i += 2;
            }
            "--tenants" => {
                config.tenants = parse_positive(flag, value(flag)?)?;
                i += 2;
            }
            "--out" => {
                config.out = Some(value(flag)?.to_string());
                i += 2;
            }
            "--telemetry" => {
                telemetry = Some(match value(flag)? {
                    "on" => true,
                    "off" => false,
                    other => {
                        return Err(format!(
                            "invalid value {other:?} for --telemetry (expected on|off)"
                        ))
                    }
                });
                i += 2;
            }
            "--trace" => {
                let path = value(flag)?;
                // Probe the path now: a typo'd directory must fail before
                // the replay runs, not after.
                if std::fs::write(path, "").is_err() {
                    return Err(format!(
                        "invalid value {path:?} for --trace (expected a writable file path)"
                    ));
                }
                config.trace = Some(path.to_string());
                i += 2;
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if config.smoke {
        config.requests = config.requests.min(16);
    }
    config.telemetry = config.trace.is_some() || telemetry.unwrap_or(!config.smoke);
    Ok(config)
}

fn parse_positive(flag: &str, text: &str) -> Result<usize, String> {
    match text.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!(
            "invalid value {text:?} for {flag} (expected a positive integer)"
        )),
    }
}

/// The deterministic request mix: every tenant replays the same small pool
/// of distinct workloads, alternating compile-only and simulate ops.
fn request_mix(config: &Config) -> Vec<JobRequest> {
    let sets = ["S3", "G3"];
    let seeds_per_combo = 2u64;
    let mut pool = Vec::new();
    for tenant in 0..config.tenants {
        for (s, set) in sets.iter().enumerate() {
            for seed in 0..seeds_per_combo {
                for workload in [WorkloadKind::Qv, WorkloadKind::Qaoa] {
                    let simulate = (tenant + s + seed as usize).is_multiple_of(2);
                    pool.push(JobRequest {
                        tenant: format!("tenant-{tenant}"),
                        set: set.to_string(),
                        workload,
                        qubits: 3,
                        seed: seed + 1,
                        op: if simulate {
                            JobOp::Simulate { shots: 64 }
                        } else {
                            JobOp::Compile
                        },
                        fusion: None,
                    });
                }
            }
        }
    }
    (0..config.requests)
        .map(|i| pool[i % pool.len()].clone())
        .collect()
}

fn build_circuit(request: &JobRequest) -> circuit::Circuit {
    match request.workload {
        WorkloadKind::Qv => qv_circuit(request.qubits, RngSeed(request.seed)),
        WorkloadKind::Qaoa => qaoa_circuit(request.qubits, RngSeed(request.seed)),
    }
}

fn serial_options() -> CompilerOptions {
    CompilerOptions {
        threads: 1,
        ..CompilerOptions::sweep()
    }
}

fn serve_one(compiler: &Compiler, engine: &ExecutionEngine, request: &JobRequest) {
    let compiled = compiler
        .compile(&build_circuit(request))
        .expect("the replay mix only contains compilable requests");
    if let JobOp::Simulate { shots } = request.op {
        let noise = NoiseModel::from_device(&compiled.subdevice);
        let job = SimJob::noisy(
            compiled.circuit.clone(),
            noise,
            shots,
            RngSeed(request.seed),
        );
        engine.run_job(&job);
    }
}

struct RunStats {
    p50: Duration,
    p99: Duration,
    jobs_per_sec: f64,
}

fn stats_from(mut latencies: Vec<Duration>, total: Duration) -> RunStats {
    let n = latencies.len();
    latencies.sort_unstable();
    let percentile = |p: f64| latencies[(((n - 1) as f64) * p).round() as usize];
    RunStats {
        p50: percentile(0.50),
        p99: percentile(0.99),
        jobs_per_sec: n as f64 / total.as_secs_f64(),
    }
}

/// One-shot loop: fresh compiler (cold cache) per request.
fn run_serial_cold(device: &DeviceModel, requests: &[JobRequest]) -> RunStats {
    let engine = ExecutionEngine::builder().threads(1).build().unwrap();
    let started = Instant::now();
    let latencies = requests
        .iter()
        .map(|request| {
            let job_started = Instant::now();
            let compiler = Compiler::for_device(device.clone())
                .instruction_set_named(&request.set)
                .options(serial_options())
                .build()
                .expect("Table II set names resolve");
            serve_one(&compiler, &engine, request);
            job_started.elapsed()
        })
        .collect();
    stats_from(latencies, started.elapsed())
}

/// Long-lived serial loop: one warm compiler per (tenant, set).
fn run_serial_warm(device: &DeviceModel, requests: &[JobRequest]) -> RunStats {
    let engine = ExecutionEngine::builder().threads(1).build().unwrap();
    let mut compilers: HashMap<(String, String), Compiler> = HashMap::new();
    let started = Instant::now();
    let latencies = requests
        .iter()
        .map(|request| {
            let job_started = Instant::now();
            let key = (request.tenant.clone(), request.set.clone());
            let compiler = compilers.entry(key).or_insert_with(|| {
                Compiler::for_device(device.clone())
                    .instruction_set_named(&request.set)
                    .options(serial_options())
                    .build()
                    .expect("Table II set names resolve")
            });
            serve_one(compiler, &engine, request);
            job_started.elapsed()
        })
        .collect();
    stats_from(latencies, started.elapsed())
}

/// Closed-loop replay against the job server, plus a panic-isolation probe.
fn run_server(
    device: &DeviceModel,
    requests: &[JobRequest],
    config: &Config,
) -> (RunStats, MetricsSnapshot, bool) {
    // The collector is always attached; it records only when --telemetry
    // resolves to on. The disabled path is a single atomic load per span
    // site, which is what the <2% overhead acceptance bound measures.
    let collector = Arc::new(Collector::new());
    collector.set_enabled(config.telemetry);
    let server = JobServer::builder(device.clone())
        .workers(config.workers)
        .queue_capacity(config.queue_capacity)
        .options(CompilerOptions::sweep())
        .telemetry(collector)
        .build()
        .expect("replay config validated at arg parse time");

    // Mid-run, inject a job that panics on its worker: the probe passes when
    // the panic comes back as a typed error and the whole replay still
    // completes. (The panic message printed by the std hook is expected.)
    eprintln!("note: the worker panic printed below is an intentional isolation probe");
    let probe = server
        .submit_task(|| panic!("replay harness isolation probe"))
        .expect("queue has room for the probe");

    let window = (config.workers * 2).max(2);
    let mut in_flight: Vec<(Instant, server::JobTicket)> = Vec::new();
    let mut latencies = Vec::with_capacity(requests.len());
    let started = Instant::now();
    for request in requests {
        let ticket = loop {
            match server.submit_request(request.clone()) {
                Ok(ticket) => break ticket,
                Err(ServerError::Overloaded { .. }) => {
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(e) => panic!("replay submission failed: {e}"),
            }
        };
        in_flight.push((Instant::now(), ticket));
        if in_flight.len() >= window {
            let (submitted, oldest) = in_flight.remove(0);
            oldest.wait().expect("replay jobs compile and simulate");
            latencies.push(submitted.elapsed());
        }
    }
    for (submitted, ticket) in in_flight {
        ticket.wait().expect("replay jobs compile and simulate");
        latencies.push(submitted.elapsed());
    }
    let total = started.elapsed();

    let probe_isolated = matches!(probe.wait(), Err(ServerError::Panicked { .. }));
    let metrics = server.metrics();
    if let Some(path) = &config.trace {
        std::fs::write(path, server.trace_json()).expect("trace path probed at arg parse time");
        println!("wrote trace {path}");
    }
    server.shutdown();
    (stats_from(latencies, total), metrics, probe_isolated)
}

/// Checks that the server's latency histograms count every replayed request:
/// one `queue_wait`, `compile` and `tenant.*` sample per request and one
/// `simulate` sample per simulate request (the panic probe records none).
fn check_latency(latency: &[server::LatencyStats], requests: &[JobRequest]) -> Result<(), String> {
    let simulated = requests
        .iter()
        .filter(|r| matches!(r.op, JobOp::Simulate { .. }))
        .count();
    let all = requests.len();
    for (stage, expected) in [
        ("queue_wait", all),
        ("compile", all),
        ("simulate", simulated),
        ("tenant", all),
    ] {
        let counted: u64 = latency
            .iter()
            .filter(|s| s.stage.split('.').next() == Some(stage))
            .map(|s| s.count)
            .sum();
        if counted != expected as u64 {
            return Err(format!(
                "latency stage {stage} counted {counted} samples, expected {expected}"
            ));
        }
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let config = match parse_args(&args) {
        Ok(config) => config,
        Err(message) => {
            eprintln!("replay: {message}");
            std::process::exit(2);
        }
    };
    let device = DeviceModel::aspen8(RngSeed(1));
    let requests = request_mix(&config);
    let distinct = requests.len().min({
        let sets = 2;
        let workloads = 2;
        let seeds = 2;
        config.tenants * sets * workloads * seeds
    });

    println!(
        "replaying {} requests ({} distinct) on {} workers, queue capacity {}...",
        requests.len(),
        distinct,
        config.workers,
        config.queue_capacity
    );
    let cold = run_serial_cold(&device, &requests);
    println!(
        "serial_cold:  p50 {:>8.1} us  p99 {:>8.1} us  {:>6.1} jobs/s",
        cold.p50.as_secs_f64() * 1e6,
        cold.p99.as_secs_f64() * 1e6,
        cold.jobs_per_sec
    );
    let warm = run_serial_warm(&device, &requests);
    println!(
        "serial_warm:  p50 {:>8.1} us  p99 {:>8.1} us  {:>6.1} jobs/s",
        warm.p50.as_secs_f64() * 1e6,
        warm.p99.as_secs_f64() * 1e6,
        warm.jobs_per_sec
    );
    let (served, metrics, probe_isolated) = run_server(&device, &requests, &config);
    println!(
        "server:       p50 {:>8.1} us  p99 {:>8.1} us  {:>6.1} jobs/s",
        served.p50.as_secs_f64() * 1e6,
        served.p99.as_secs_f64() * 1e6,
        served.jobs_per_sec
    );
    let speedup = served.jobs_per_sec / cold.jobs_per_sec;
    println!("speedup vs serial_cold: {speedup:.2}x; panic probe isolated: {probe_isolated}");
    if !probe_isolated {
        eprintln!("replay: panic probe was NOT isolated");
        std::process::exit(1);
    }
    if config.telemetry {
        if let Err(message) = check_latency(&metrics.latency, &requests) {
            eprintln!("replay: {message}");
            std::process::exit(1);
        }
        println!("latency histograms count every replayed request");
    }
    if config.smoke && speedup <= 1.0 {
        // In smoke mode the mix is tiny; warn but do not fail CI on noise.
        eprintln!("replay: warning: server did not beat serial_cold on this tiny smoke mix");
    }

    if let Some(path) = &config.out {
        let json = render_json(
            &config,
            &requests,
            distinct,
            &cold,
            &warm,
            &served,
            speedup,
            probe_isolated,
            &metrics.to_json(),
        );
        std::fs::write(path, json).expect("write benchmark output");
        println!("wrote {path}");
    }
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    config: &Config,
    requests: &[JobRequest],
    distinct: usize,
    cold: &RunStats,
    warm: &RunStats,
    served: &RunStats,
    speedup: f64,
    probe_isolated: bool,
    metrics_json: &str,
) -> String {
    let run = |stats: &RunStats| {
        format!(
            "{{\"p50_us\": {:.1}, \"p99_us\": {:.1}, \"jobs_per_sec\": {:.2}}}",
            stats.p50.as_secs_f64() * 1e6,
            stats.p99.as_secs_f64() * 1e6,
            stats.jobs_per_sec
        )
    };
    let metrics_indented = metrics_json.replace('\n', "\n  ");
    format!(
        r#"{{
  "description": "Replay harness for the compile-and-simulate job server (crates/server). A deterministic request mix (tenants x {{S3, G3}} x {{qv, qaoa}} x seeds, 3-qubit workloads on Aspen-8 calibration, half compile-only and half compile+64-shot simulate) is replayed three ways. serial_cold = fresh compiler and empty decomposition cache per request (a per-request CLI process). serial_warm = long-lived serial loop with one warm compiler per (tenant, set). server = JobServer with a bounded work-stealing queue, per-tenant caches and panic-isolated workers, driven closed-loop. Latencies are per-request submit-to-complete wall-clock.",
  "config": {{"requests": {requests_len}, "distinct_requests": {distinct}, "workers": {workers}, "queue_capacity": {queue}, "tenants": {tenants}, "telemetry": {telemetry}}},
  "serial_cold": {cold},
  "serial_warm": {warm},
  "server": {server},
  "acceptance": {{
    "criterion": "server jobs/sec beats the serial_cold job loop, and a deliberately panicking job resolves as a typed error without aborting the replay",
    "speedup_vs_serial_cold": {speedup:.2},
    "panic_probe_isolated": {probe_isolated},
    "met": {met}
  }},
  "server_metrics": {metrics},
  "notes": [
    {notes}
  ]
}}
"#,
        requests_len = requests.len(),
        workers = config.workers,
        queue = config.queue_capacity,
        tenants = config.tenants,
        telemetry = config.telemetry,
        cold = run(cold),
        warm = run(warm),
        server = run(served),
        met = speedup > 1.0 && probe_isolated,
        metrics = metrics_indented,
        notes = notes(
            std::thread::available_parallelism().ok().map(usize::from),
            config.workers
        )
        .map(|note| format!("\"{note}\""))
        .join(",\n    "),
    )
}

/// The report's notes, from the CPUs this host exposes (`None` when unknown)
/// and the configured worker count: the [`host_note`], what serial_warm and
/// the server's latencies mean at that parallelism, and the panic probe.
fn notes(cpus: Option<usize>, workers: usize) -> [String; 4] {
    let one_at_a_time = cpus.map_or(workers, |cpus| cpus.min(workers)) <= 1;
    let (warm, latency) = if one_at_a_time {
        (
            "on one core the JobServer tracks it to within queueing overhead",
            "so on one core p99 reflects time spent waiting behind the window, not service time",
        )
    } else {
        (
            "running jobs in parallel, the JobServer can exceed it",
            "so p99 adds the time spent waiting behind the window to the service time",
        )
    };
    [
        host_note(cpus, workers),
        format!("serial_warm is the upper bound for any single-threaded server; {warm} while adding admission control, tenant isolation and panic isolation."),
        format!("Server latencies include queueing: the closed-loop driver keeps 2x workers jobs in flight, {latency}. jobs/sec is the like-for-like comparison with the serial loops."),
        "The panic probe is injected mid-run via submit_task; its worker prints the standard panic message to stderr and keeps serving.".to_string(),
    ]
}

/// The note on what parallelism the server run had, from the CPUs this host
/// exposes (`None` when unknown) and the configured worker count.
fn host_note(cpus: Option<usize>, workers: usize) -> String {
    let cache_win = "persistent per-tenant decomposition caches (every repeated request is a cache hit instead of a cold NuOp decomposition)";
    let plural = |n: usize| if n == 1 { "" } else { "s" };
    let ran = format!("the server ran {workers} worker{}", plural(workers));
    let Some(cpus) = cpus else {
        return format!(
            "The host did not report its CPU count and {ran}; its win over serial_cold comes at least from {cache_win}."
        );
    };
    let host = format!(
        "This host exposes {cpus} CPU{} (std::thread::available_parallelism) and {ran}",
        plural(cpus)
    );
    match cpus.min(workers) {
        0 | 1 => format!(
            "{host}, so one job runs at a time and the work-stealing pool cannot add parallel speedup: the server's win over serial_cold comes from {cache_win}."
        ),
        parallel => format!(
            "{host}, so up to {parallel} jobs run at once: the server's win over serial_cold combines {cache_win} with cross-job parallelism, which serial_warm lacks."
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::{check_latency, host_note, notes};
    use server::{JobOp, JobRequest, LatencyStats, WorkloadKind};

    #[test]
    fn latency_check_wants_every_request_counted() {
        let request = |tenant: &str, op| JobRequest {
            tenant: tenant.into(),
            set: "S3".into(),
            workload: WorkloadKind::Qv,
            qubits: 3,
            seed: 1,
            op,
            fusion: None,
        };
        let requests = [
            request("a", JobOp::Compile),
            request("a", JobOp::Simulate { shots: 8 }),
            request("b", JobOp::Compile),
        ];
        let stage = |stage: &str, count| LatencyStats {
            stage: stage.into(),
            count,
            p50_micros: 1,
            p90_micros: 1,
            p99_micros: 1,
            max_micros: 1,
        };
        let complete = vec![
            stage("compile", 3),
            stage("queue_wait", 3),
            stage("simulate", 1),
            stage("tenant.a", 2),
            stage("tenant.b", 1),
        ];
        assert_eq!(check_latency(&complete, &requests), Ok(()));
        for missing in 0..complete.len() {
            let mut short = complete.clone();
            short.remove(missing);
            let err = check_latency(&short, &requests).unwrap_err();
            assert!(err.contains("expected"), "{err}");
        }
        // Telemetry off: nothing recorded, so every stage comes up short.
        assert!(check_latency(&[], &requests).is_err());
    }

    #[test]
    fn host_note_follows_the_cpus_and_workers() {
        let one = host_note(Some(1), 4);
        assert!(one.contains("exposes 1 CPU (") && one.contains("one job runs at a time"));
        let two = host_note(Some(2), 4);
        assert!(two.contains("exposes 2 CPUs") && two.contains("up to 2 jobs run at once"));
        let one_worker = host_note(Some(8), 1);
        assert!(
            one_worker.contains("ran 1 worker,") && one_worker.contains("one job runs at a time")
        );
        assert!(host_note(None, 4).contains("did not report"));
        // Only a run with one job at a time may speak of one core.
        for (cpus, workers, one_core) in [
            (Some(1), 4, true),
            (Some(8), 1, true),
            (Some(2), 4, false),
            (None, 4, false),
        ] {
            let notes = notes(cpus, workers);
            let claims = notes
                .iter()
                .filter(|note| note.contains("one core"))
                .count();
            assert_eq!(
                claims > 0,
                one_core,
                "{cpus:?} CPUs, {workers} workers: {notes:?}"
            );
            for note in &notes {
                assert!(!note.contains('"') && !note.contains('\\'), "{note}");
            }
        }
    }
}
