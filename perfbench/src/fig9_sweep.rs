//! `fig9_sweep`: the paper's Fig. 9 experiment through the `bench` library.
//!
//! Every sweep builds a fresh `Compiler` per Rigetti instruction set (S2–S6,
//! R1–R5, FullXY) and runs `evaluate_set_with_engine` over QV-3, QAOA-4 and
//! QFT-3 suites whose circuits the seed chooses; one job is one (set, suite)
//! evaluation. Fresh compilers make cold NuOp decompositions dominate, and
//! this is the only workload that exercises `compile_batch` fan-out over a
//! shared cache, `run_batch` shot sharding and scoring against ideal
//! probabilities.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use bench::{
    evaluate_set_with_engine, qaoa_suite, qft_suite, qv_suite, score_counts, sim_job, BenchCircuit,
    SetResult,
};
use circuit::Circuit;
use compiler::{
    initial_mapping, try_route, try_select_region, CompileError, CompiledCircuit, Compiler,
    CompilerOptions,
};
use device::DeviceModel;
use gates::InstructionSet;
use nuop_core::{DecompositionCache, NuOpPass, Template};
use qmath::{haar_random_su4, hilbert_schmidt_fidelity, RngSeed};
use rand::Rng;
use sim::{ExecutionEngine, NoiseModel};
use telemetry::SpanId;

use crate::checks::{density_matrix_agreement, Checks};
use crate::report::{zero_per_layer, Json, Metrics, SUITES};
use crate::stats::{median, Outcome, Window};
use crate::trace::{durations_ms_under, root_self_times_ms, Tracer};
use crate::{median_or_zero, ms, secs, RunConfig, RunResult};

/// Shots per circuit (the fig9 binary's small scale).
const SHOTS: usize = 300;

/// Seed of the untimed set-up sweep, outside the timed sweeps'
/// `RngSeed(seed).child(k)` range and the same on every run.
const SETUP_SEED: u64 = 0x0f19_5e70;

const SAMPLE_SALT: u64 = 0x5a17;

/// The Rigetti sets of Fig. 9.
fn sets(smoke: bool) -> Vec<InstructionSet> {
    if smoke {
        return vec![InstructionSet::s(3), InstructionSet::r(2)];
    }
    let mut sets: Vec<InstructionSet> = (2..=6).map(InstructionSet::s).collect();
    sets.extend((1..=5).map(InstructionSet::r));
    sets.push(InstructionSet::full_xy());
    sets
}

/// The three suites of one sweep, named as in the per-layer metrics.
fn suites(seed: RngSeed, smoke: bool) -> [(&'static str, Vec<BenchCircuit>); 3] {
    let (qv, qaoa, qft) = if smoke { (2, 2, 1) } else { (4, 4, 2) };
    [
        (SUITES[0], qv_suite(3, qv, seed.child(1))),
        (SUITES[1], qaoa_suite(4, qaoa, seed.child(2))),
        (SUITES[2], qft_suite(3, qft, seed.child(3))),
    ]
}

fn device() -> DeviceModel {
    DeviceModel::aspen8(RngSeed(0xF9).child(0))
}

/// The sweep options with one compile thread per CPU.
fn options() -> CompilerOptions {
    CompilerOptions {
        threads: crate::host::cpus(),
        ..CompilerOptions::sweep()
    }
}

fn compiler_for(device: &DeviceModel, set: &InstructionSet) -> Compiler {
    bench::compiler_for(device, set, &options())
        .expect("Fig. 9 sets are valid compiler configurations")
}

/// The engine with one worker per CPU.
fn engine() -> ExecutionEngine {
    ExecutionEngine::builder()
        .threads(crate::host::cpus())
        .build()
        .expect("a positive thread count is a valid config")
}

/// One finished job.
struct JobRecord {
    sweep: usize,
    set: usize,
    suite: usize,
    /// The set result, or why the job failed.
    result: Result<SetResult, String>,
    ms: f64,
    misses: usize,
    hits: usize,
    inflight_waits: usize,
}

/// `evaluate_set_with_engine`, split into its three layer calls with a span
/// around each. Assembles the same `SetResult` in the same order, and fails
/// a job whose counts do not total its shots.
fn evaluate_traced(
    tracer: &Tracer,
    root: SpanId,
    suite: &[BenchCircuit],
    compiler: &Compiler,
    engine: &ExecutionEngine,
    seed: RngSeed,
) -> Result<SetResult, String> {
    let circuits: Vec<Circuit> = suite.iter().map(|b| b.circuit.clone()).collect();
    let compiled: Vec<CompiledCircuit> = tracer
        .time(root, "bench.compile_batch", || {
            compiler.compile_batch(&circuits)
        })
        .into_iter()
        .collect::<Result<_, CompileError>>()
        .map_err(|err| err.to_string())?;
    let jobs: Vec<_> = compiled
        .iter()
        .enumerate()
        .map(|(i, c)| sim_job(c, SHOTS, seed.child(i as u64)))
        .collect();
    let results = tracer.time(root, "bench.run_batch", || engine.run_batch(&jobs));
    if let Some(short) = results.iter().find(|r| r.counts.total() != SHOTS) {
        return Err(format!(
            "counts total {} of {SHOTS} shots",
            short.counts.total()
        ));
    }
    let scores: Vec<f64> = tracer.time(root, "bench.score", || {
        suite
            .iter()
            .zip(&compiled)
            .zip(&results)
            .map(|((bench, compiled), result)| score_counts(bench, compiled, &result.counts))
            .collect()
    });
    let n = suite.len() as f64;
    let (mut metric, mut gates, mut swaps, mut fid) = (0.0, 0.0, 0.0, 0.0);
    for (score, compiled) in scores.iter().zip(&compiled) {
        metric += score;
        gates += compiled.two_qubit_gate_count() as f64;
        swaps += compiled.swap_count as f64;
        fid += compiled.pass_stats.estimated_circuit_fidelity;
    }
    Ok(SetResult {
        set: compiler.instruction_set().name().to_string(),
        mean_metric: metric / n,
        mean_two_qubit_gates: gates / n,
        mean_swaps: swaps / n,
        mean_estimated_fidelity: fid / n,
    })
}

/// The jobs of a window.
#[derive(Default)]
struct Jobs {
    window: Window,
    records: Vec<JobRecord>,
}

/// One sweep: a fresh compiler per set, then every suite.
fn sweep(
    config: &RunConfig,
    device: &DeviceModel,
    engine: &ExecutionEngine,
    sweep_index: usize,
    seed: RngSeed,
    tracer: Option<&Tracer>,
    jobs: &mut Jobs,
) {
    let suites = suites(seed, config.smoke);
    for (si, set) in sets(config.smoke).iter().enumerate() {
        let compiler = compiler_for(device, set);
        for (ui, (name, suite)) in suites.iter().enumerate() {
            let cache = compiler.cache();
            let (misses, hits, waits) = (cache.misses(), cache.hits(), cache.inflight_waits());
            let started = Instant::now();
            let result = match tracer {
                None => evaluate_set_with_engine(suite, &compiler, engine, SHOTS, seed.child(7))
                    .map_err(|err| err.to_string()),
                Some(tracer) => {
                    let root = tracer.id();
                    let result =
                        evaluate_traced(tracer, root, suite, &compiler, engine, seed.child(7));
                    tracer.record(
                        root,
                        SpanId::NONE,
                        "job",
                        started,
                        started.elapsed(),
                        Some(("class", name)),
                    );
                    result
                }
            };
            let elapsed = ms(started);
            match &result {
                Ok(_) => jobs.window.completed(elapsed),
                Err(_) => jobs.window.missed(Outcome::Failed),
            }
            jobs.records.push(JobRecord {
                sweep: sweep_index,
                set: si,
                suite: ui,
                result,
                ms: elapsed,
                misses: cache.misses() - misses,
                hits: cache.hits() - hits,
                inflight_waits: cache.inflight_waits() - waits,
            });
        }
    }
}

/// Whole sweeps until the window is used up: a sweep starts only if it is
/// expected to end within half a sweep of the deadline.
fn timed(
    config: &RunConfig,
    device: &DeviceModel,
    engine: &ExecutionEngine,
    first_sweep: usize,
    tracer: Option<&Tracer>,
) -> (Window, Vec<JobRecord>) {
    let mut jobs = Jobs::default();
    let started = Instant::now();
    let mut last = 0.0;
    let mut k = first_sweep;
    while k == first_sweep || secs(started) + last / 2.0 < config.window_seconds() {
        let sweep_started = Instant::now();
        let seed = RngSeed(config.seed).child(k as u64);
        sweep(config, device, engine, k, seed, tracer, &mut jobs);
        last = secs(sweep_started);
        k += 1;
    }
    jobs.window.seconds = secs(started);
    (jobs.window, jobs.records)
}

/// Runs the workload.
pub fn run(config: &RunConfig) -> RunResult {
    let device = device();
    let engine = engine();
    let mut result = RunResult::default();
    let mut setup_ok = true;
    for _ in 0..config.setup_reps() {
        let started = Instant::now();
        let mut jobs = Jobs::default();
        sweep(
            config,
            &device,
            &engine,
            usize::MAX,
            RngSeed(SETUP_SEED),
            None,
            &mut jobs,
        );
        result.setup_s.push(secs(started));
        setup_ok &= jobs.window.accounting.not_completed() == 0;
    }
    result.checks.push(
        "set-up sweep completes",
        setup_ok,
        "every (set, suite) evaluated",
    );

    result.first_job_s = secs(config.process_start);
    let (window, records) = timed(config, &device, &engine, 0, None);
    let mut all = window.accounting;
    let mut per_layer = zero_per_layer();
    if config.trace {
        let tracer = Tracer::new();
        let first = 1 << 20;
        let (traced, traced_records) = timed(config, &device, &engine, first, Some(&tracer));
        all.merge(traced.accounting);
        let misses: Vec<usize> = traced_records.iter().map(|r| r.misses).collect();
        let total_misses: usize = misses.iter().sum();
        let hits: usize = traced_records.iter().map(|r| r.hits).sum();
        per_layer.set("core.cache_misses", total_misses as f64, "count");
        per_layer.set(
            "core.min_misses_per_job",
            misses.iter().copied().min().unwrap_or(0) as f64,
            "count",
        );
        per_layer.set(
            "core.cache_hit_ratio",
            hits as f64 / (hits + total_misses).max(1) as f64,
            "ratio",
        );
        per_layer.set(
            "core.inflight_waits",
            traced_records
                .iter()
                .map(|r| r.inflight_waits)
                .sum::<usize>() as f64,
            "count",
        );
        let spans = tracer.spans();
        for (metric, span) in [
            ("compile_batch_ms", "bench.compile_batch"),
            ("run_batch_ms", "bench.run_batch"),
            ("score_ms", "bench.score"),
        ] {
            for suite in SUITES {
                let values = durations_ms_under(&spans, span, "class", suite);
                per_layer.set(
                    &format!("bench.{metric}.{suite}"),
                    median_or_zero(&values),
                    "ms",
                );
            }
        }
        per_layer.set(
            "leftover_ms",
            median_or_zero(&root_self_times_ms(&spans)),
            "ms",
        );
        per_layer.set(
            "trace.overhead_frac",
            1.0 - traced.jobs_per_s() / window.jobs_per_s(),
            "ratio",
        );
        cold_replay(config, &device, &tracer, &mut per_layer, &mut result);
        objective_eval(config, &mut per_layer);
        result.detail("per_set_suite_ms", per_set_suite(config, &traced_records));
        result.traced = Some(traced);
        result.tracer = Some(tracer);
    }
    result.per_layer = per_layer;

    result.checks.push(
        "every job returns Ok",
        all.not_completed() == 0 && all.completed > 0,
        format!("attempted {}, completed {}", all.attempted, all.completed),
    );
    check_sample(config, &device, &engine, &records, &mut result.checks);
    result.detail(
        "mix",
        Json::obj(vec![
            ("sets", Json::Int(sets(config.smoke).len() as u64)),
            (
                "suites",
                Json::Arr(SUITES.iter().map(|s| Json::str(s)).collect()),
            ),
            ("shots", Json::Int(SHOTS as u64)),
        ]),
    );
    result.window = window;
    result
}

/// Median job time per (set, suite) in the traced window.
fn per_set_suite(config: &RunConfig, records: &[JobRecord]) -> Json {
    let sets = sets(config.smoke);
    let mut table: BTreeMap<(usize, usize), Vec<f64>> = BTreeMap::new();
    for record in records {
        table
            .entry((record.set, record.suite))
            .or_default()
            .push(record.ms);
    }
    Json::Arr(
        table
            .into_iter()
            .map(|((set, suite), values)| {
                Json::obj(vec![
                    ("set", Json::str(sets[set].name())),
                    ("suite", Json::str(SUITES[suite])),
                    ("ms", Json::Num(median(&values))),
                ])
            })
            .collect(),
    )
}

/// Replays a seeded sample of jobs' compiles through direct pass calls on a
/// fresh cache: the cold per-pass split and the cost of one decomposition.
fn cold_replay(
    config: &RunConfig,
    device: &DeviceModel,
    tracer: &Tracer,
    per_layer: &mut Metrics,
    result: &mut RunResult,
) {
    let sets = sets(config.smoke);
    let mut rng = RngSeed(config.seed).child(SAMPLE_SALT).rng();
    let seed = RngSeed(config.seed).child(1 << 20);
    let suites = suites(seed, config.smoke);
    let options = CompilerOptions {
        threads: 1,
        ..CompilerOptions::sweep()
    };
    let (mut swaps, mut twoq_in, mut twoq_out, mut compiles) = (0usize, 0usize, 0usize, 0usize);
    let (mut nuop_ms, mut misses) = (0.0, 0usize);
    let mut per_set: Vec<Json> = Vec::new();
    let mut mismatches = Vec::new();
    for _ in 0..if config.smoke { 1 } else { 3 } {
        let set = &sets[rng.gen_range(0..sets.len())];
        let (suite_name, suite) = &suites[rng.gen_range(0..suites.len())];
        let cache = Arc::new(DecompositionCache::new());
        let reference = Compiler::for_device(device.clone())
            .instruction_set(set.clone())
            .options(options.clone())
            .build()
            .expect("Fig. 9 sets are valid compiler configurations");
        let (mut set_ms, mut set_misses) = (0.0, 0usize);
        for bench in suite {
            let circuit = &bench.circuit;
            let root = tracer.id();
            let started = Instant::now();
            let selected = tracer.time(root, "compiler.region_select", || {
                try_select_region(device, circuit.num_qubits())
                    .map(|region| (device.subdevice(&region), region))
            });
            let Ok((subdevice, region)) = selected else {
                mismatches.push(format!(
                    "{} {suite_name}: region selection failed",
                    set.name()
                ));
                continue;
            };
            let layout = tracer.time(root, "compiler.initial_map", || {
                initial_mapping(circuit, &subdevice)
            });
            let Ok(routed) = tracer.time(root, "compiler.swap_route", || {
                try_route(circuit, &subdevice, &layout)
            }) else {
                mismatches.push(format!("{} {suite_name}: routing failed", set.name()));
                continue;
            };
            let nuop_started = Instant::now();
            let (decomposed, stats) = tracer.time(root, "compiler.nuop_decompose", || {
                NuOpPass::new(set.clone(), options.decompose.clone())
                    .with_threads(1)
                    .with_cache(Arc::clone(&cache))
                    .run(&routed.circuit, &subdevice)
            });
            set_ms += ms(nuop_started);
            set_misses += stats.cache_misses;
            tracer.record(
                root,
                SpanId::NONE,
                "job",
                started,
                started.elapsed(),
                Some(("class", "replay")),
            );
            match reference.compile(circuit) {
                Ok(compiled)
                    if compiled.circuit == decomposed
                        && compiled.swap_count == routed.swap_count
                        && compiled.region == region => {}
                _ => mismatches.push(format!(
                    "{} {suite_name}: direct passes differ from Compiler::compile",
                    set.name()
                )),
            }
            compiles += 1;
            swaps += routed.swap_count;
            twoq_in += stats.input_two_qubit_gates;
            twoq_out += stats.output_two_qubit_gates;
        }
        nuop_ms += set_ms;
        misses += set_misses;
        per_set.push(Json::obj(vec![
            ("set", Json::str(set.name())),
            ("suite", Json::str(suite_name)),
            (
                "cold_ms_per_miss",
                Json::Num(set_ms / set_misses.max(1) as f64),
            ),
        ]));
    }
    crate::set_pass_metrics(per_layer, &tracer.spans());
    per_layer.set(
        "core.cold_decompose_ms",
        nuop_ms / misses.max(1) as f64,
        "ms",
    );
    per_layer.set(
        "compiler.swaps_per_compile",
        swaps as f64 / compiles.max(1) as f64,
        "count",
    );
    per_layer.set(
        "compiler.twoq_out_per_in",
        twoq_out as f64 / twoq_in.max(1) as f64,
        "ratio",
    );
    result.checks.push(
        "direct pass calls equal Compiler::compile",
        mismatches.is_empty() && compiles > 0,
        if mismatches.is_empty() {
            format!("{compiles} cold compiles replayed")
        } else {
            mismatches.join("; ")
        },
    );
    result.detail("scoping", Json::Arr(per_set));
}

/// One `Template::unitary` plus `hilbert_schmidt_fidelity` against a Haar
/// target, on three-layer templates of every set's gate types (ns, median
/// over templates).
fn objective_eval(config: &RunConfig, per_layer: &mut Metrics) {
    let mut rng = RngSeed(config.seed).child(SAMPLE_SALT + 1).rng();
    let target = haar_random_su4(&mut rng);
    let evals = if config.smoke { 20 } else { 4000 };
    let mut per_template = Vec::new();
    for set in sets(config.smoke) {
        let templates: Vec<Template> = match set.family() {
            Some(family) => vec![Template::family(family, 3)],
            None => set
                .gate_types()
                .iter()
                .map(|g| Template::fixed(*g.unitary(), 3))
                .collect(),
        };
        for template in templates {
            let params: Vec<f64> = (0..template.parameter_count())
                .map(|_| rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI))
                .collect();
            let started = Instant::now();
            let mut acc = 0.0;
            for _ in 0..evals {
                acc += hilbert_schmidt_fidelity(
                    &template.unitary(std::hint::black_box(&params)),
                    &target,
                );
            }
            std::hint::black_box(acc);
            per_template.push(started.elapsed().as_secs_f64() * 1e9 / evals as f64);
        }
    }
    per_layer.set(
        "qmath.objective_eval_ns",
        median_or_zero(&per_template),
        "ns",
    );
}

/// Re-evaluates a seeded sample of the untimed window's jobs through the
/// three layer calls on fresh compilers: counts total their shots, the
/// result equals the timed one, and one circuit agrees with the exact
/// density matrix.
fn check_sample(
    config: &RunConfig,
    device: &DeviceModel,
    engine: &ExecutionEngine,
    records: &[JobRecord],
    checks: &mut Checks,
) {
    let sets = sets(config.smoke);
    let finite = records.iter().all(|r| {
        r.result.as_ref().is_ok_and(|s| {
            s.mean_metric.is_finite()
                && s.mean_two_qubit_gates > 0.0
                && (0.0..=1.0).contains(&s.mean_estimated_fidelity)
        })
    });
    checks.push(
        "set results are finite and in range",
        finite,
        format!("{} jobs", records.len()),
    );
    let missed = records.iter().filter(|r| r.misses == 0).count();
    checks.push(
        "every job decomposes at least one new unitary",
        missed == 0,
        format!("{missed} jobs without a cache miss"),
    );
    let mut rng = RngSeed(config.seed).child(SAMPLE_SALT + 2).rng();
    let tracer = Tracer::new();
    let mut mismatches = Vec::new();
    let samples = if config.smoke { 1 } else { 2 };
    for _ in 0..samples {
        let record = &records[rng.gen_range(0..records.len())];
        let seed = RngSeed(config.seed).child(record.sweep as u64);
        let suites = suites(seed, config.smoke);
        let compiler = compiler_for(device, &sets[record.set]);
        let (_, suite) = &suites[record.suite];
        let again = evaluate_traced(
            &tracer,
            tracer.id(),
            suite,
            &compiler,
            engine,
            seed.child(7),
        );
        if again.as_ref().ok() != record.result.as_ref().ok() {
            mismatches.push(format!(
                "sweep {} {} {}: {again:?} vs {:?}",
                record.sweep,
                sets[record.set].name(),
                SUITES[record.suite],
                record.result
            ));
        }
    }
    checks.push(
        "sampled jobs re-evaluate to the same result with counts totalling their shots",
        mismatches.is_empty(),
        if mismatches.is_empty() {
            format!("{samples} jobs re-evaluated")
        } else {
            mismatches.join("; ")
        },
    );
    let record = &records[rng.gen_range(0..records.len())];
    let seed = RngSeed(config.seed).child(record.sweep as u64);
    let (_, suite) = &suites(seed, config.smoke)[record.suite];
    let bench = &suite[rng.gen_range(0..suite.len())];
    match compiler_for(device, &sets[record.set]).compile(&bench.circuit) {
        Ok(compiled) => density_matrix_agreement(
            checks,
            &format!("fig9 {} {}", sets[record.set].name(), SUITES[record.suite]),
            engine,
            &compiled.circuit,
            &NoiseModel::from_device(&compiled.subdevice),
            seed.child(SAMPLE_SALT),
        ),
        Err(err) => checks.push("density-matrix agreement", false, err.to_string()),
    }
}
