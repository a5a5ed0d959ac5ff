//! `sim_wide`: wide statevector jobs straight on the execution engine.
//!
//! `ExecutionEngine::run_job` with one thread per CPU, one job at a time, on
//! QAOA circuits compiled for Aspen-8 during set-up. The job classes sit on
//! both sides of the engine's trade-offs: Safe against Aggressive fusion at
//! 11 and 13 qubits, registers below and at the 14-qubit threshold where the
//! engine may switch from shot-parallel to amplitude-parallel scheduling
//! (with more than one thread the noiseless 20-qubit job switches; noisy
//! jobs switch only when the process also sees more than one CPU), and a
//! noiseless 20-qubit job whose sweeps show whether a second thread helps.
//! The compiler and the server do no work in the timed window.

use std::sync::Arc;
use std::time::Instant;

use apps::workloads::qaoa_circuit;
use circuit::Circuit;
use compiler::{Compiler, CompilerOptions};
use device::DeviceModel;
use gates::InstructionSet;
use qmath::{haar_random_su4, RngSeed};
use rand::seq::SliceRandom;
use sim::{
    Counts, ExecutionEngine, FusionPolicy, NoiseModel, PrecompiledCircuit, SimJob, SimResult,
    StateVector,
};
use telemetry::{AttrValue, Collector, SpanId};
use verify::{Artifact, DistributionArtifact, Verifier};

use crate::report::{zero_per_layer, Json, Metrics};
use crate::stats::{median, Outcome, Window};
use crate::trace::{root_self_times_ms, Tracer};
use crate::{host, median_or_zero, ms, secs, RunConfig, RunResult};

/// One job class.
#[derive(Debug, Clone, Copy)]
struct Class {
    /// Name used in the per-layer metrics.
    name: &'static str,
    /// QAOA register width.
    qubits: usize,
    /// Calibrated device noise, or a noiseless job.
    noisy: bool,
    /// Shots per job.
    shots: usize,
    /// Fusion policy of the engine that runs it.
    fusion: FusionPolicy,
    /// Jobs of this class in every block of the schedule, and circuits
    /// compiled for it: each block runs every circuit once.
    per_block: usize,
}

/// The job classes. In a block of 15 jobs the ten 11-qubit ones (one per
/// circuit) hold the median: 7.5 of 15 lands in the middle of the eighth
/// cheapest circuit's jobs, where with 16 it fell between two circuits
/// 15 ms apart. The two 14-qubit jobs, the costliest, hold the tail.
const CLASSES: [Class; 6] = [
    Class {
        name: "q11s",
        qubits: 11,
        noisy: true,
        shots: 16,
        fusion: FusionPolicy::Safe,
        per_block: 5,
    },
    Class {
        name: "q11a",
        qubits: 11,
        noisy: true,
        shots: 16,
        fusion: FusionPolicy::Aggressive,
        per_block: 5,
    },
    Class {
        name: "q13s",
        qubits: 13,
        noisy: true,
        shots: 8,
        fusion: FusionPolicy::Safe,
        per_block: 1,
    },
    Class {
        name: "q13a",
        qubits: 13,
        noisy: true,
        shots: 8,
        fusion: FusionPolicy::Aggressive,
        per_block: 1,
    },
    Class {
        name: "q14a",
        qubits: 14,
        noisy: true,
        shots: 8,
        fusion: FusionPolicy::Aggressive,
        per_block: 2,
    },
    Class {
        name: "i20",
        qubits: 20,
        noisy: false,
        shots: 1024,
        fusion: FusionPolicy::Safe,
        per_block: 1,
    },
];

/// Seed of the class circuits. QAOA routing cost varies widely from graph to
/// graph, so circuits drawn from the workload seed moved the median by a
/// fifth between seeds; fixed circuits keep each class's cost the same on
/// every run, while the workload seed orders the jobs and draws every
/// trajectory.
const CIRCUIT_SEED: u64 = 0x51_3a1d;

/// Smoke runs shrink every register by this many qubits.
const SMOKE_SHRINK: usize = 8;

const BLOCK_SALT: u64 = 0xb10c;
const JOB_SALT: u64 = 0x10b5;
const CHECK_SALT: u64 = 0xc4ec;

/// An engine with a collector attached only to observe which scheduling
/// regime each job ran in (the engine tags its `simulate` span with it).
pub(crate) struct Observer {
    engine: ExecutionEngine,
    collector: Arc<Collector>,
}

impl Observer {
    /// An engine with `base`'s knobs plus a private collector.
    pub(crate) fn new(base: &ExecutionEngine) -> Observer {
        let collector = Arc::new(Collector::new());
        let engine = ExecutionEngine::builder()
            .threads(base.threads())
            .shot_chunk_size(base.shot_chunk_size())
            .seed_policy(base.seed_policy())
            .fusion(base.fusion())
            .parallel_sweep_min_qubits(base.parallel_sweep_min_qubits())
            .telemetry(Arc::clone(&collector))
            .build()
            .expect("a built engine's knobs are a valid config");
        Observer { engine, collector }
    }

    /// `ExecutionEngine::run_precompiled`, plus whether the job ran in the
    /// amplitude-parallel regime.
    pub(crate) fn run(
        &self,
        pre: &PrecompiledCircuit,
        shots: usize,
        seed: RngSeed,
    ) -> (SimResult, bool) {
        let result = self.engine.run_precompiled(pre, shots, seed);
        let amplitude_parallel = self.collector.drain_spans().iter().any(|s| {
            s.name == "simulate"
                && s.attrs
                    .iter()
                    .any(|(k, v)| *k == "regime" && *v == AttrValue::Str("amplitude_parallel"))
        });
        (result, amplitude_parallel)
    }
}

fn classes(config: &RunConfig) -> Vec<Class> {
    CLASSES
        .iter()
        .map(|c| Class {
            qubits: if config.smoke {
                c.qubits - SMOKE_SHRINK
            } else {
                c.qubits
            },
            per_block: if config.smoke { 1 } else { c.per_block },
            ..*c
        })
        .collect()
}

/// One compiled circuit of a class and its noise.
struct Prepared {
    circuit: Circuit,
    noise: Option<NoiseModel>,
}

struct Setup {
    circuits: Vec<Vec<Prepared>>,
    safe: ExecutionEngine,
    aggressive: ExecutionEngine,
}

impl Setup {
    fn engine(&self, fusion: FusionPolicy) -> &ExecutionEngine {
        match fusion {
            FusionPolicy::Aggressive => &self.aggressive,
            _ => &self.safe,
        }
    }

    fn job(&self, class: usize, circuit: usize, shots: usize, seed: RngSeed) -> SimJob {
        let prepared = &self.circuits[class][circuit];
        SimJob {
            circuit: prepared.circuit.clone(),
            noise: prepared.noise.clone(),
            shots,
            seed,
        }
    }
}

/// Compiles every class's circuits and runs one warm-up job per class.
fn set_up(config: &RunConfig, classes: &[Class]) -> (Setup, bool) {
    let compiler = Compiler::for_device(DeviceModel::aspen8(RngSeed(1)))
        .instruction_set(InstructionSet::s(3))
        .options(CompilerOptions::sweep())
        .build()
        .expect("S3 is a valid instruction set");
    let circuits = classes
        .iter()
        .enumerate()
        .map(|(ci, class)| {
            (0..class.per_block)
                .map(|k| {
                    let logical = qaoa_circuit(
                        class.qubits,
                        RngSeed(CIRCUIT_SEED).child(ci as u64).child(k as u64),
                    );
                    let compiled = compiler
                        .compile(&logical)
                        .expect("QAOA circuits up to 20 qubits fit Aspen-8");
                    Prepared {
                        noise: class
                            .noisy
                            .then(|| NoiseModel::from_device(&compiled.subdevice)),
                        circuit: compiled.circuit,
                    }
                })
                .collect()
        })
        .collect();
    let engine = |fusion| {
        ExecutionEngine::builder()
            .threads(host::cpus())
            .fusion(fusion)
            .build()
            .expect("a positive thread count is a valid config")
    };
    let setup = Setup {
        circuits,
        safe: engine(FusionPolicy::Safe),
        aggressive: engine(FusionPolicy::Aggressive),
    };
    let mut ok = true;
    for (ci, class) in classes.iter().enumerate() {
        let job = setup.job(ci, 0, class.shots, RngSeed(config.seed).child(CHECK_SALT));
        ok &= setup.engine(class.fusion).run_job(&job).counts.total() == class.shots;
    }
    (setup, ok)
}

/// The classes of block `block`, in seeded order.
fn block(seed: u64, block: usize, classes: &[Class]) -> Vec<usize> {
    let mut order: Vec<usize> = classes
        .iter()
        .enumerate()
        .flat_map(|(ci, c)| std::iter::repeat_n(ci, c.per_block))
        .collect();
    order.shuffle(&mut RngSeed(seed).child(BLOCK_SALT).child(block as u64).rng());
    order
}

/// A finished job kept for the thread-count check.
struct Kept {
    class: usize,
    circuit: usize,
    seed: RngSeed,
    counts: Counts,
}

/// Per-class observations of the traced window.
#[derive(Default, Clone)]
struct ClassStats {
    fused_frac: Vec<f64>,
    amp_parallel: usize,
}

struct Timed {
    window: Window,
    kept: Vec<Kept>,
    stats: Vec<ClassStats>,
    /// Job latencies (ms) per class.
    class_ms: Vec<Vec<f64>>,
}

/// Runs whole blocks until the window is used up: a block starts only if it
/// is expected to end within half a block of the deadline.
fn timed(
    config: &RunConfig,
    classes: &[Class],
    setup: &Setup,
    first_block: usize,
    tracer: Option<(&Tracer, &Observer, &Observer)>,
) -> Timed {
    let mut window = Window::default();
    let mut kept: Vec<Kept> = Vec::new();
    let mut stats = vec![ClassStats::default(); classes.len()];
    let mut uses = vec![0usize; classes.len()];
    let mut class_ms = vec![Vec::new(); classes.len()];
    let started = Instant::now();
    let mut last_block = 0.0;
    let mut b = first_block;
    while b == first_block || secs(started) + last_block / 2.0 < config.window_seconds() {
        let block_started = Instant::now();
        for (slot, ci) in block(config.seed, b, classes).into_iter().enumerate() {
            let class = classes[ci];
            let circuit = uses[ci] % setup.circuits[ci].len();
            uses[ci] += 1;
            let job_index = (b * 64 + slot) as u64;
            let seed = RngSeed(config.seed).child(JOB_SALT).child(job_index);
            let job = setup.job(ci, circuit, class.shots, seed);
            let job_started = Instant::now();
            let counts = match tracer {
                None => setup.engine(class.fusion).run_job(&job).counts,
                Some((tracer, safe, aggressive)) => {
                    let root = tracer.id();
                    let pre = tracer.time(root, "sim.precompile", || match &job.noise {
                        Some(noise) => {
                            PrecompiledCircuit::with_fusion(&job.circuit, noise, class.fusion)
                        }
                        None => PrecompiledCircuit::ideal_with_fusion(&job.circuit, class.fusion),
                    });
                    let observer = match class.fusion {
                        FusionPolicy::Aggressive => aggressive,
                        _ => safe,
                    };
                    let (result, amp) =
                        tracer.time(root, "sim.simulate", || observer.run(&pre, job.shots, seed));
                    tracer.record(
                        root,
                        SpanId::NONE,
                        "job",
                        job_started,
                        job_started.elapsed(),
                        Some(("class", class.name)),
                    );
                    stats[ci]
                        .fused_frac
                        .push(pre.fused_ops() as f64 / job.circuit.len().max(1) as f64);
                    stats[ci].amp_parallel += usize::from(amp);
                    result.counts
                }
            };
            let latency = ms(job_started);
            class_ms[ci].push(latency);
            if counts.total() == class.shots {
                window.completed(latency);
            } else {
                window.missed(Outcome::Failed);
            }
            if class.fusion == FusionPolicy::Safe && !kept.iter().any(|k| k.class == ci) {
                kept.push(Kept {
                    class: ci,
                    circuit,
                    seed,
                    counts,
                });
            }
        }
        last_block = secs(block_started);
        b += 1;
    }
    window.seconds = secs(started);
    Timed {
        window,
        kept,
        stats,
        class_ms,
    }
}

/// Runs the workload.
pub fn run(config: &RunConfig) -> RunResult {
    let classes = classes(config);
    let mut result = RunResult::default();
    let mut setup = None;
    let mut setup_ok = true;
    for _ in 0..config.setup_reps() {
        let started = Instant::now();
        let (built, ok) = set_up(config, &classes);
        result.setup_s.push(secs(started));
        setup_ok &= ok;
        setup = Some(built);
    }
    let setup = setup.expect("at least one set-up");
    result.checks.push(
        "set-up warm-up jobs total their shots",
        setup_ok,
        "one job per class",
    );

    result.first_job_s = secs(config.process_start);
    let untraced = timed(config, &classes, &setup, 0, None);
    let mut windows = vec![untraced.window.accounting];
    let mut per_layer = zero_per_layer();
    if config.trace {
        let tracer = Tracer::new();
        let safe = Observer::new(&setup.safe);
        let aggressive = Observer::new(&setup.aggressive);
        let traced = timed(
            config,
            &classes,
            &setup,
            1 << 20,
            Some((&tracer, &safe, &aggressive)),
        );
        windows.push(traced.window.accounting);
        let spans = tracer.spans();
        for (ci, class) in classes.iter().enumerate() {
            let name = class.name;
            crate::set_sim_class_metrics(&mut per_layer, &spans, name, class.shots);
            per_layer.set(
                &format!("sim.fused_frac.{name}"),
                median_or_zero(&traced.stats[ci].fused_frac),
                "ratio",
            );
            per_layer.set(
                &format!("sim.amp_parallel_jobs.{name}"),
                traced.stats[ci].amp_parallel as f64,
                "count",
            );
        }
        per_layer.set(
            "leftover_ms",
            median_or_zero(&root_self_times_ms(&spans)),
            "ms",
        );
        per_layer.set(
            "trace.overhead_frac",
            1.0 - traced.window.jobs_per_s() / untraced.window.jobs_per_s(),
            "ratio",
        );
        sweep_kernels(config, &mut per_layer);
        scoping(config, &classes, &setup, &per_layer, &mut result);
        result.traced = Some(traced.window);
        result.tracer = Some(tracer);
    }
    result.per_layer = per_layer;

    let mut all = crate::stats::Accounting::default();
    for a in windows {
        all.merge(a);
    }
    result.checks.push(
        "every job returns counts that total its shots",
        all.not_completed() == 0 && all.completed > 0,
        format!("attempted {}, completed {}", all.attempted, all.completed),
    );
    check_thread_counts(&setup, &classes, &untraced.kept, &mut result);
    check_aggressive(config, &classes, &setup, &mut result);
    result.detail(
        "mix",
        Json::Arr(
            classes
                .iter()
                .map(|c| {
                    Json::obj(vec![
                        ("class", Json::str(c.name)),
                        ("qubits", Json::Int(c.qubits as u64)),
                        ("noisy", Json::Bool(c.noisy)),
                        ("shots", Json::Int(c.shots as u64)),
                        ("fusion", Json::str(&format!("{:?}", c.fusion))),
                        ("per_block", Json::Int(c.per_block as u64)),
                    ])
                })
                .collect(),
        ),
    );
    result.detail(
        "class_ms",
        Json::Obj(
            classes
                .iter()
                .zip(&untraced.class_ms)
                .map(|(c, v)| (c.name.to_string(), Json::Num(median_or_zero(v))))
                .collect(),
        ),
    );
    result.window = untraced.window;
    result
}

/// Safe counts are bit-identical at one thread and at the default count.
fn check_thread_counts(setup: &Setup, classes: &[Class], kept: &[Kept], result: &mut RunResult) {
    let serial = ExecutionEngine::builder()
        .threads(1)
        .fusion(FusionPolicy::Safe)
        .build()
        .expect("one thread is a valid engine config");
    let mut differing = Vec::new();
    for k in kept {
        let class = classes[k.class];
        let again = serial
            .run_job(&setup.job(k.class, k.circuit, class.shots, k.seed))
            .counts;
        if again != k.counts {
            differing.push(class.name);
        }
    }
    result.checks.push(
        "Safe counts are identical at 1 and nproc threads",
        differing.is_empty() && !kept.is_empty(),
        format!(
            "{} classes compared at 1 vs {} threads; differing: {differing:?}",
            kept.len(),
            setup.safe.threads()
        ),
    );
}

/// Aggressive counts stay within `verify::distribution`'s TVD bound of Safe.
fn check_aggressive(config: &RunConfig, classes: &[Class], setup: &Setup, result: &mut RunResult) {
    let Some(ci) = classes
        .iter()
        .position(|c| c.fusion == FusionPolicy::Aggressive)
    else {
        return;
    };
    let shots = 256;
    let seed = RngSeed(config.seed).child(CHECK_SALT + 1);
    let job = setup.job(ci, 0, shots, seed);
    let counts = |engine: &ExecutionEngine| -> Vec<(usize, usize)> {
        engine.run_job(&job).counts.iter().collect()
    };
    let (safe, aggressive) = (counts(&setup.safe), counts(&setup.aggressive));
    let artifact = DistributionArtifact {
        num_qubits: classes[ci].qubits,
        label_a: "safe",
        label_b: "aggressive",
        counts_a: &safe,
        counts_b: &aggressive,
    };
    let report = Verifier::statistical().run(&Artifact::Distributions(&artifact));
    result.checks.push(
        "Aggressive counts stay within the TVD bound of Safe",
        !report.has_errors(),
        format!(
            "class {}, {shots} shots each: per-qubit marginals within the fusion/tvd-bound rule",
            classes[ci].name
        ),
    );
}

/// Times one call of `f` per repetition and returns the median (µs).
fn median_us(reps: usize, mut f: impl FnMut(usize)) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|rep| {
            let started = Instant::now();
            f(rep);
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

/// One- and two-qubit amplitude sweeps at 14 and 20 qubits, serial and
/// split over every hardware thread.
fn sweep_kernels(config: &RunConfig, per_layer: &mut Metrics) {
    let threads = host::cpus();
    let one = gates::standard::u3(0.3, 0.2, 0.1);
    let two = haar_random_su4(&mut RngSeed(config.seed).child(CHECK_SALT + 2).rng());
    for width in [14usize, 20] {
        let mut state = StateVector::zero_state(width);
        let reps = match (config.smoke, width) {
            (true, _) => 3,
            (false, 14) => 400,
            (false, _) => 40,
        };
        for (mode, t) in [("serial", 1), ("threaded", threads)] {
            let us = median_us(reps, |rep| {
                state.apply_one_qubit_threaded(&one, rep % width, t)
            });
            per_layer.set(&format!("sim.sweep_us.1q.{width}q.{mode}"), us, "us");
            let us = median_us(reps, |rep| {
                state.apply_two_qubit_threaded(&two, rep % width, (rep + 1) % width, t)
            });
            per_layer.set(&format!("sim.sweep_us.2q.{width}q.{mode}"), us, "us");
        }
        std::hint::black_box(state.amplitude(0));
    }
    let serial_us = per_layer
        .get("sim.sweep_us.1q.20q.serial")
        .unwrap_or(f64::NAN);
    // Every amplitude (16 bytes) is read and written once per sweep.
    let bytes = (1u64 << 20) as f64 * 16.0 * 2.0;
    per_layer.set(
        "sim.sweep_gbps.20q",
        bytes / (serial_us * 1e-6) / 1e9,
        "GB/s",
    );
}

/// Re-measures the trade-offs the classes were chosen around.
fn scoping(
    config: &RunConfig,
    classes: &[Class],
    setup: &Setup,
    per_layer: &Metrics,
    result: &mut RunResult,
) {
    let class_ms = |name: &str| {
        per_layer
            .get(&format!("sim.precompile_ms.{name}"))
            .unwrap_or(0.0)
            + per_layer
                .get(&format!("sim.simulate_ms.{name}"))
                .unwrap_or(0.0)
    };
    let single = |fusion| {
        ExecutionEngine::builder()
            .threads(1)
            .fusion(fusion)
            .build()
            .expect("one thread is a valid engine config")
    };
    let job_ms = |engine: &ExecutionEngine, ci: usize| {
        let job = setup.job(
            ci,
            0,
            classes[ci].shots,
            RngSeed(config.seed).child(CHECK_SALT + 3),
        );
        let times: Vec<f64> = (0..2)
            .map(|_| {
                let started = Instant::now();
                engine.run_job(&job);
                ms(started)
            })
            .collect();
        median(&times)
    };
    let q14 = classes.iter().position(|c| c.name == "q14a").unwrap_or(0);
    let i20 = classes.iter().position(|c| c.name == "i20").unwrap_or(0);
    let safe_q14_nproc = job_ms(&setup.safe, q14);
    let safe_q14_one = job_ms(&single(FusionPolicy::Safe), q14);
    let i20_one = job_ms(&single(FusionPolicy::Safe), i20);
    let fact = |what: &str, a: f64, b: f64| {
        Json::obj(vec![
            ("fact", Json::str(what)),
            ("ms", Json::Arr(vec![Json::Num(a), Json::Num(b)])),
        ])
    };
    result.detail(
        "scoping",
        Json::Arr(vec![
            fact(
                "noisy 14 q Safe, 8 shots: one thread per CPU vs 1 thread",
                safe_q14_nproc,
                safe_q14_one,
            ),
            fact(
                "noisy 11 q, 16 shots: Aggressive vs Safe (precompile + simulate)",
                class_ms("q11a"),
                class_ms("q11s"),
            ),
            fact(
                "noisy 13 q, 8 shots: Aggressive vs Safe (precompile + simulate)",
                class_ms("q13a"),
                class_ms("q13s"),
            ),
            fact(
                "noiseless 20 q, 1024 shots: one thread per CPU vs 1 thread",
                class_ms("i20"),
                i20_one,
            ),
        ]),
    );
}
