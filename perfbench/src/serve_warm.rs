//! `serve_warm`: the long-lived job server in steady state.
//!
//! A `JobServer` with one worker per hardware thread is driven closed-loop by
//! `2 × workers` clients, each of which submits its next request only after
//! the previous one answered. Requests are a seeded draw from a fixed pool of
//! distinct requests (tenants × {S3, G3, R3, FullXY} × {QV 3–4 q, QAOA 4–6 q}
//! × generator seeds); three in four are compile-only and the rest simulate
//! 32 shots. Set-up serves every pool entry once, so every timed compile is
//! a cache hit: the time goes to admission and hand-off, per-request circuit
//! generation, region selection, mapping, routing, cache lookups and small
//! shot loops, and NuOp optimisation does no work.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use apps::workloads::{qaoa_circuit, qv_circuit};
use circuit::Circuit;
use compiler::{initial_mapping, try_route, try_select_region, Compiler, CompilerOptions};
use device::DeviceModel;
use nuop_core::NuOpPass;
use qmath::RngSeed;
use rand::Rng;
use server::{JobOp, JobRequest, JobResponse, JobServer, ServerError, WorkloadKind};
use sim::{ExecutionEngine, FusionPolicy, NoiseModel, PrecompiledCircuit, SimJob};
use telemetry::SpanId;

use crate::checks::{density_matrix_agreement, Checks};
use crate::report::{zero_per_layer, Json};
use crate::stats::{tail, Outcome, Window};
use crate::trace::{durations_ms, root_self_times_ms, Tracer};
use crate::{host, median_or_zero, secs, RunConfig, RunResult};

/// Instruction sets the tenants compile for.
const SETS: [&str; 4] = ["S3", "G3", "R3", "FullXY"];

/// Workload generators and register sizes of the pool.
const SHAPES: [(WorkloadKind, usize); 5] = [
    (WorkloadKind::Qv, 3),
    (WorkloadKind::Qv, 4),
    (WorkloadKind::Qaoa, 4),
    (WorkloadKind::Qaoa, 5),
    (WorkloadKind::Qaoa, 6),
];

/// Shots of a simulate request.
const SIM_SHOTS: usize = 32;

/// Requests in the seeded schedule; a window longer than this cycles it.
const SCHEDULE_LEN: usize = 1 << 16;

/// Responses with a schedule index below this are kept for the checks.
const KEPT: usize = 256;

/// Salt of the seed stream that picks the checked and replayed requests.
const SAMPLE_SALT: u64 = 0x5a4d_9e1e;

/// The device every tenant compiles onto.
fn device() -> DeviceModel {
    DeviceModel::aspen8(RngSeed(1))
}

/// The compiler options the server runs with (it forces one thread per
/// compile, parallelism lives across jobs).
fn server_options() -> CompilerOptions {
    CompilerOptions {
        threads: 1,
        ..CompilerOptions::sweep()
    }
}

/// The pool of distinct requests. It does not depend on the workload seed,
/// so set-up does the same work on every run.
fn pool(smoke: bool) -> Vec<JobRequest> {
    let (tenants, sets, shapes, seeds): (u64, &[&str], &[(WorkloadKind, usize)], u64) = if smoke {
        (1, &["S3", "R3"], &SHAPES[..3], 1)
    } else {
        (2, &SETS, &SHAPES, 2)
    };
    let mut pool = Vec::new();
    for tenant in 0..tenants {
        for set in sets {
            for &(workload, qubits) in shapes {
                for seed in 1..=seeds {
                    pool.push(JobRequest {
                        tenant: format!("tenant-{tenant}"),
                        set: (*set).to_string(),
                        workload,
                        qubits,
                        seed,
                        op: JobOp::Compile,
                        fusion: None,
                    });
                }
            }
        }
    }
    pool
}

/// The seeded request schedule: `(pool index, simulate?)`. Every block of
/// four holds exactly one simulate request, so the 3:1 mix is exact.
fn schedule(seed: u64, pool_len: usize, len: usize) -> Vec<(usize, bool)> {
    let mut out = Vec::with_capacity(len);
    for block in 0..len.div_ceil(4) {
        let mut rng = RngSeed(seed).child(block as u64).rng();
        let simulate_slot = rng.gen_range(0..4usize);
        for slot in 0..4 {
            out.push((rng.gen_range(0..pool_len), slot == simulate_slot));
        }
    }
    out.truncate(len);
    out
}

fn request_at(pool: &[JobRequest], schedule: &[(usize, bool)], i: usize) -> JobRequest {
    let (entry, simulate) = schedule[i % schedule.len()];
    JobRequest {
        op: if simulate {
            JobOp::Simulate { shots: SIM_SHOTS }
        } else {
            JobOp::Compile
        },
        ..pool[entry].clone()
    }
}

fn generate(request: &JobRequest) -> Circuit {
    match request.workload {
        WorkloadKind::Qv => qv_circuit(request.qubits, RngSeed(request.seed)),
        WorkloadKind::Qaoa => qaoa_circuit(request.qubits, RngSeed(request.seed)),
    }
}

/// What the clients saw in one closed-loop drive.
#[derive(Debug, Default)]
struct Drive {
    window: Window,
    kept: Vec<(usize, JobResponse)>,
    hits: usize,
    misses: usize,
    min_misses: Option<usize>,
    /// Completed responses whose simulation summary contradicts the request.
    bad_responses: usize,
    /// Request latency minus the response's compile and simulate time (ms).
    overhead_ms: Vec<f64>,
}

impl Drive {
    fn absorb(&mut self, other: Drive) {
        self.window.absorb(other.window);
        self.kept.extend(other.kept);
        self.hits += other.hits;
        self.misses += other.misses;
        self.min_misses = match (self.min_misses, other.min_misses) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.bad_responses += other.bad_responses;
        self.overhead_ms.extend(other.overhead_ms);
    }
}

/// Drives `server` closed-loop with `clients` clients until `next` runs dry.
/// Rejections are counted, never retried.
fn drive(
    server: &JobServer,
    clients: usize,
    next: &(dyn Fn(usize) -> Option<JobRequest> + Sync),
    tracer: Option<&Tracer>,
) -> Drive {
    let cursor = AtomicUsize::new(0);
    let started = Instant::now();
    let parts: Vec<Drive> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| scope.spawn(|| client(server, &cursor, next, tracer)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let mut total = Drive::default();
    for part in parts {
        total.absorb(part);
    }
    total.window.seconds = secs(started);
    total
}

fn client(
    server: &JobServer,
    cursor: &AtomicUsize,
    next: &(dyn Fn(usize) -> Option<JobRequest> + Sync),
    tracer: Option<&Tracer>,
) -> Drive {
    let mut part = Drive::default();
    loop {
        let index = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(request) = next(index) else { break };
        let shots = match request.op {
            JobOp::Simulate { shots } => Some(shots),
            JobOp::Compile => None,
        };
        let submitted = Instant::now();
        let outcome = server
            .submit_request(request)
            .and_then(|ticket| ticket.wait());
        let latency = submitted.elapsed();
        match outcome {
            Ok(response) => {
                let latency_ms = latency.as_secs_f64() * 1e3;
                part.window.completed(latency_ms);
                part.hits += response.cache_hits;
                part.misses += response.cache_misses;
                part.min_misses = Some(
                    part.min_misses
                        .map_or(response.cache_misses, |m| m.min(response.cache_misses)),
                );
                let consistent = match (shots, &response.sim) {
                    (None, None) => true,
                    (Some(n), Some(sim)) => {
                        sim.shots == n && sim.distinct_outcomes >= 1 && sim.distinct_outcomes <= n
                    }
                    _ => false,
                };
                if !consistent {
                    part.bad_responses += 1;
                }
                let compile = Duration::from_micros(response.compile_micros);
                let simulate =
                    Duration::from_micros(response.sim.as_ref().map_or(0, |s| s.simulate_micros));
                part.overhead_ms
                    .push(latency_ms - (compile + simulate).as_secs_f64() * 1e3);
                if let Some(tracer) = tracer {
                    record_job_spans(tracer, submitted, latency, compile, simulate);
                }
                if index < KEPT {
                    part.kept.push((index, response));
                }
            }
            Err(ServerError::Overloaded { .. }) => part.window.missed(Outcome::Rejected),
            Err(_) => part.window.missed(Outcome::Failed),
        }
    }
    part
}

/// One server job's spans: the client-side root and the compile and
/// simulate children the response reports, placed at the end of the job.
fn record_job_spans(
    tracer: &Tracer,
    submitted: Instant,
    latency: Duration,
    compile: Duration,
    simulate: Duration,
) {
    let root = tracer.id();
    let end = submitted + latency;
    let simulate_start = end.checked_sub(simulate).unwrap_or(submitted);
    let compile_start = simulate_start.checked_sub(compile).unwrap_or(submitted);
    tracer.record(
        tracer.id(),
        root,
        "server.compile",
        compile_start,
        compile,
        None,
    );
    let op = if simulate.is_zero() {
        "compile"
    } else {
        tracer.record(
            tracer.id(),
            root,
            "server.simulate",
            simulate_start,
            simulate,
            None,
        );
        "simulate"
    };
    tracer.record(
        root,
        SpanId::NONE,
        "job",
        submitted,
        latency,
        Some(("op", op)),
    );
}

fn build_and_warm(pool: &[JobRequest], workers: usize) -> (JobServer, f64, Drive) {
    let started = Instant::now();
    let server = JobServer::builder(device())
        .workers(workers)
        .options(CompilerOptions::sweep())
        .build()
        .expect("a positive worker count and default capacities are a valid config");
    let warm = drive(
        &server,
        2 * workers,
        &|i| {
            pool.get(i).map(|r| JobRequest {
                op: JobOp::Simulate { shots: SIM_SHOTS },
                ..r.clone()
            })
        },
        None,
    );
    (server, secs(started), warm)
}

/// Runs the workload.
pub fn run(config: &RunConfig) -> RunResult {
    let workers = host::cpus();
    let clients = 2 * workers;
    let pool = pool(config.smoke);
    let schedule = schedule(
        config.seed,
        pool.len(),
        if config.smoke { 256 } else { SCHEDULE_LEN },
    );
    let mut result = RunResult::default();

    let mut setup_ok = true;
    let mut server = None;
    for _ in 0..config.setup_reps() {
        let (built, seconds, warm) = build_and_warm(&pool, workers);
        setup_ok &= warm.window.accounting.completed == pool.len() && warm.bad_responses == 0;
        result.setup_s.push(seconds);
        if let Some(previous) = server.replace(built) {
            JobServer::shutdown(previous);
        }
    }
    let server = server.expect("at least one set-up");
    result.checks.push(
        "set-up serves every pool entry",
        setup_ok,
        format!("{} entries", pool.len()),
    );

    result.first_job_s = secs(config.process_start);
    let timed = |seconds: f64, tracer: Option<&Tracer>| {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        drive(
            &server,
            clients,
            &|i| (Instant::now() < deadline).then(|| request_at(&pool, &schedule, i)),
            tracer,
        )
    };
    let untraced = timed(config.window_seconds(), None);

    let mut per_layer = zero_per_layer();
    let mut traced_drive = None;
    if config.trace {
        let tracer = Tracer::new();
        let before = server.metrics();
        let traced = timed(config.window_seconds(), Some(&tracer));
        let after = server.metrics();
        per_layer.set(
            "server.overhead_ms.p50",
            median_or_zero(&traced.overhead_ms),
            "ms",
        );
        per_layer.set(
            "server.overhead_ms.tail",
            tail(&traced.overhead_ms).value,
            "ms",
        );
        per_layer.set(
            "server.queue_steals",
            after.queue_steals.saturating_sub(before.queue_steals) as f64,
            "count",
        );
        per_layer.set(
            "server.rejected",
            after.rejected.saturating_sub(before.rejected) as f64,
            "count",
        );
        per_layer.set("core.cache_misses", traced.misses as f64, "count");
        per_layer.set(
            "core.min_misses_per_job",
            traced.min_misses.unwrap_or(0) as f64,
            "count",
        );
        per_layer.set(
            "core.cache_hit_ratio",
            traced.hits as f64 / (traced.hits + traced.misses).max(1) as f64,
            "ratio",
        );
        per_layer.set(
            "trace.overhead_frac",
            1.0 - traced.window.jobs_per_s() / untraced.window.jobs_per_s(),
            "ratio",
        );
        replay(
            config,
            &pool,
            &schedule,
            &tracer,
            &mut result.checks,
            &mut per_layer,
        );
        let spans = tracer.spans();
        per_layer.set(
            "apps.circuit_gen_us",
            1e3 * median_or_zero(&durations_ms(&spans, "apps.circuit_gen")),
            "us",
        );
        crate::set_pass_metrics(&mut per_layer, &spans);
        crate::set_sim_class_metrics(&mut per_layer, &spans, "serve", SIM_SHOTS);
        per_layer.set(
            "leftover_ms",
            median_or_zero(&root_self_times_ms(&spans)),
            "ms",
        );
        result.traced = Some(traced.window.clone());
        result.tracer = Some(tracer);
        traced_drive = Some(traced);
    }
    result.per_layer = per_layer;

    let drives: Vec<&Drive> = std::iter::once(&untraced).chain(&traced_drive).collect();
    check_windows(&mut result.checks, &drives);
    check_samples(config, &pool, &schedule, &untraced.kept, &mut result.checks);
    result.detail(
        "mix",
        Json::obj(vec![
            ("workers", Json::Int(workers as u64)),
            ("clients", Json::Int(clients as u64)),
            ("pool_entries", Json::Int(pool.len() as u64)),
            ("simulate_share", Json::Num(0.25)),
            ("simulate_shots", Json::Int(SIM_SHOTS as u64)),
        ]),
    );
    result.window = untraced.window;
    JobServer::shutdown(server);
    result
}

fn check_windows(checks: &mut Checks, drives: &[&Drive]) {
    let mut a = crate::stats::Accounting::default();
    for drive in drives {
        a.merge(drive.window.accounting);
    }
    let bad: usize = drives.iter().map(|d| d.bad_responses).sum();
    let misses: usize = drives.iter().map(|d| d.misses).sum();
    let hits: usize = drives.iter().map(|d| d.hits).sum();
    checks.push(
        "every job returns Ok",
        a.not_completed() == 0 && a.completed > 0,
        format!(
            "attempted {}, completed {}, failed {}, rejected {}",
            a.attempted, a.completed, a.failed, a.rejected
        ),
    );
    checks.push(
        "simulate responses total their shots",
        bad == 0,
        format!("{bad} inconsistent responses"),
    );
    checks.push(
        "every timed compile is a cache hit",
        misses == 0 && hits > 0,
        format!("{misses} misses, {hits} hits"),
    );
}

/// A seeded sample of responses against a standalone recompile, the
/// verifier, a serial re-simulation and the exact density matrix.
fn check_samples(
    config: &RunConfig,
    pool: &[JobRequest],
    schedule: &[(usize, bool)],
    kept: &[(usize, JobResponse)],
    checks: &mut Checks,
) {
    let mut kept: Vec<&(usize, JobResponse)> = kept.iter().collect();
    kept.sort_by_key(|(i, _)| *i);
    let mut rng = RngSeed(config.seed).child(SAMPLE_SALT).rng();
    let mut chosen: Vec<&(usize, JobResponse)> = Vec::new();
    for want_sim in [false, false, false, false, true, true] {
        let candidates: Vec<_> = kept
            .iter()
            .filter(|(_, r)| r.sim.is_some() == want_sim)
            .filter(|(i, _)| !chosen.iter().any(|(j, _)| j == i))
            .collect();
        if !candidates.is_empty() {
            chosen.push(candidates[rng.gen_range(0..candidates.len())]);
        }
    }
    let device = device();
    let serial = ExecutionEngine::builder()
        .threads(1)
        .build()
        .expect("one thread is a valid engine config");
    let wide = ExecutionEngine::new();
    let mut mismatches = Vec::new();
    let mut sims = 0;
    for (index, response) in &chosen {
        let request = request_at(pool, schedule, *index);
        let compiler = Compiler::for_device(device.clone())
            .instruction_set_named(&request.set)
            .options(server_options())
            .build()
            .expect("pool sets are Table II names");
        let compiled = match compiler.compile(&generate(&request)) {
            Ok(compiled) => compiled,
            Err(err) => {
                mismatches.push(format!("#{index}: recompile failed: {err}"));
                continue;
            }
        };
        if compiled.two_qubit_gate_count() != response.two_qubit_gates
            || compiled.swap_count != response.swap_count
        {
            mismatches.push(format!(
                "#{index}: server {}/{} vs recompile {}/{} two-qubit gates/swaps",
                response.two_qubit_gates,
                response.swap_count,
                compiled.two_qubit_gate_count(),
                compiled.swap_count
            ));
        }
        let verdict = compiled.verify(compiler.instruction_set());
        if verdict.has_errors() {
            mismatches.push(format!("#{index}: verifier: {verdict}"));
        }
        if let (JobOp::Simulate { shots }, Some(sim)) = (request.op, &response.sim) {
            sims += 1;
            let noise = NoiseModel::from_device(&compiled.subdevice);
            let job = SimJob::noisy(
                compiled.circuit.clone(),
                noise.clone(),
                shots,
                RngSeed(request.seed),
            );
            let counts = serial.run_job(&job).counts;
            let distinct = counts.iter().filter(|(_, c)| *c > 0).count();
            if counts.total() != shots || distinct != sim.distinct_outcomes {
                mismatches.push(format!(
                    "#{index}: re-simulation {} shots / {distinct} outcomes vs server {} / {}",
                    counts.total(),
                    sim.shots,
                    sim.distinct_outcomes
                ));
            }
            density_matrix_agreement(
                checks,
                &format!("serve_warm request #{index}"),
                &wide,
                &compiled.circuit,
                &noise,
                RngSeed(config.seed).child(*index as u64),
            );
        }
    }
    checks.push(
        "sampled responses match a standalone recompile and pass the verifier",
        mismatches.is_empty() && chosen.len() >= 2 && sims > 0,
        if mismatches.is_empty() {
            format!("{} responses, {sims} re-simulated", chosen.len())
        } else {
            mismatches.join("; ")
        },
    );
}

/// Replays a seeded sample of the schedule serially through direct layer
/// calls, for the split by pass and by lowering step. Each sampled compile
/// runs on a standalone compiler warmed with that request first, as the
/// server's tenant caches are, and its result must equal `Compiler::compile`.
fn replay(
    config: &RunConfig,
    pool: &[JobRequest],
    schedule: &[(usize, bool)],
    tracer: &Tracer,
    checks: &mut Checks,
    per_layer: &mut crate::report::Metrics,
) {
    let (want_compile, want_sim) = if config.smoke { (2, 1) } else { (18, 6) };
    let mut rng = RngSeed(config.seed).child(SAMPLE_SALT + 1).rng();
    let mut sample = Vec::new();
    let (mut compiles, mut sims) = (0, 0);
    while compiles < want_compile || sims < want_sim {
        let request = request_at(pool, schedule, rng.gen_range(0..schedule.len()));
        let simulate = matches!(request.op, JobOp::Simulate { .. });
        if simulate && sims < want_sim {
            sims += 1;
            sample.push(request);
        } else if !simulate && compiles < want_compile {
            compiles += 1;
            sample.push(request);
        }
    }
    let device = device();
    let engine = crate::sim_wide::Observer::new(
        &ExecutionEngine::builder()
            .threads(1)
            .build()
            .expect("one thread is a valid engine config"),
    );
    let mut compilers: HashMap<(String, String), Compiler> = HashMap::new();
    let (mut swaps, mut twoq_in, mut twoq_out, mut amp_jobs, mut fused) = (0usize, 0, 0, 0, vec![]);
    let mut mismatches = Vec::new();
    for request in &sample {
        let compiler = compilers
            .entry((request.tenant.clone(), request.set.clone()))
            .or_insert_with(|| {
                Compiler::for_device(device.clone())
                    .instruction_set_named(&request.set)
                    .options(server_options())
                    .build()
                    .expect("pool sets are Table II names")
            });
        let Ok(reference) = compiler.compile(&generate(request)) else {
            mismatches.push(format!("{request:?}: compile failed"));
            continue;
        };
        let root = tracer.id();
        let started = Instant::now();
        let circuit = tracer.time(root, "apps.circuit_gen", || generate(request));
        let selected = tracer.time(root, "compiler.region_select", || {
            try_select_region(&device, circuit.num_qubits())
                .map(|region| (device.subdevice(&region), region))
        });
        let Ok((subdevice, region)) = selected else {
            mismatches.push(format!("{request:?}: region selection failed"));
            continue;
        };
        let layout = tracer.time(root, "compiler.initial_map", || {
            initial_mapping(&circuit, &subdevice)
        });
        let Ok(routed) = tracer.time(root, "compiler.swap_route", || {
            try_route(&circuit, &subdevice, &layout)
        }) else {
            mismatches.push(format!("{request:?}: routing failed"));
            continue;
        };
        let (decomposed, stats) = tracer.time(root, "compiler.nuop_decompose", || {
            NuOpPass::new(
                compiler.instruction_set().clone(),
                compiler.options().decompose.clone(),
            )
            .with_threads(1)
            .with_cache(Arc::clone(compiler.cache()))
            .run(&routed.circuit, &subdevice)
        });
        if decomposed != reference.circuit
            || routed.swap_count != reference.swap_count
            || region != reference.region
        {
            mismatches.push(format!(
                "{request:?}: direct passes differ from Compiler::compile"
            ));
        }
        swaps += routed.swap_count;
        twoq_in += stats.input_two_qubit_gates;
        twoq_out += stats.output_two_qubit_gates;
        if let JobOp::Simulate { shots } = request.op {
            let noise = NoiseModel::from_device(&subdevice);
            let pre = tracer.time(root, "sim.precompile", || {
                PrecompiledCircuit::with_fusion(&decomposed, &noise, FusionPolicy::Safe)
            });
            let (result, amp) = tracer.time(root, "sim.simulate", || {
                engine.run(&pre, shots, RngSeed(request.seed))
            });
            if result.counts.total() != shots {
                mismatches.push(format!(
                    "{request:?}: counts total {}",
                    result.counts.total()
                ));
            }
            amp_jobs += usize::from(amp);
            fused.push(pre.fused_ops() as f64 / decomposed.len().max(1) as f64);
        }
        tracer.record(
            root,
            SpanId::NONE,
            "job",
            started,
            started.elapsed(),
            Some(("class", "serve")),
        );
    }
    checks.push(
        "direct pass calls equal Compiler::compile",
        mismatches.is_empty(),
        if mismatches.is_empty() {
            format!("{} replayed requests", sample.len())
        } else {
            mismatches.join("; ")
        },
    );
    per_layer.set(
        "compiler.swaps_per_compile",
        swaps as f64 / sample.len().max(1) as f64,
        "count",
    );
    per_layer.set(
        "compiler.twoq_out_per_in",
        twoq_out as f64 / twoq_in.max(1) as f64,
        "ratio",
    );
    per_layer.set("sim.fused_frac.serve", median_or_zero(&fused), "ratio");
    per_layer.set("sim.amp_parallel_jobs.serve", amp_jobs as f64, "count");
}
