//! Shared experiment harness for the per-figure binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper.
//! They share this harness: benchmark-suite construction, the
//! compile → simulate → score loop, and plain-text/CSV reporting.
//!
//! All binaries accept `--scale small|paper` (default `small`): `small` runs
//! laptop-sized versions of each experiment (fewer circuits, fewer shots,
//! coarser grids) in seconds-to-minutes; `paper` uses the circuit counts and
//! shot counts reported in §VI.

#![warn(missing_docs)]

use apps::workloads::{fermi_hubbard_circuit, qaoa_circuit, qft_echo_circuit, qv_circuit};
use apps::{cross_entropy_difference, heavy_output_probability, linear_xeb_fidelity, success_rate};
use circuit::Circuit;
use compiler::{CompileError, CompiledCircuit, Compiler, CompilerOptions};
use device::DeviceModel;
use gates::InstructionSet;
use qmath::RngSeed;
use serde::{Deserialize, Serialize};
use sim::{Counts, ExecutionEngine, FusionPolicy, NoiseModel, SimJob, StateVector};
use std::sync::Arc;
use telemetry::Collector;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// Laptop-sized: few circuits, few shots, coarse grids.
    Small,
    /// The paper's configuration (100 circuits per benchmark, 10000 shots).
    Paper,
}

impl Scale {
    /// Parses `--scale small|paper` from the process arguments (default
    /// Small). Malformed values print a clear message to stderr and exit with
    /// status 2 — never a silent fall-through to the default.
    pub fn from_args() -> Scale {
        exit_on_arg_error(Scale::try_from_arg_list(
            &std::env::args().collect::<Vec<_>>(),
        ))
    }

    /// [`Scale::from_args`] over an explicit argument list (testable core).
    /// Unknown scales and a trailing `--scale` with no value are rejected.
    pub fn try_from_arg_list(args: &[String]) -> Result<Scale, ArgError> {
        let mut scale = Scale::Small;
        for (flag, value) in flag_values(args, "--scale")? {
            scale = match value.to_ascii_lowercase().as_str() {
                "small" => Scale::Small,
                "paper" => Scale::Paper,
                other => {
                    return Err(ArgError {
                        flag,
                        value: other.to_string(),
                        expected: "small|paper",
                    })
                }
            };
        }
        Ok(scale)
    }

    /// Picks the small or paper value.
    pub fn pick(&self, small: usize, paper: usize) -> usize {
        match self {
            Scale::Small => small,
            Scale::Paper => paper,
        }
    }

    /// Number of random circuits per benchmark.
    pub fn circuits(&self) -> usize {
        self.pick(8, 100)
    }

    /// Number of measurement shots per circuit.
    pub fn shots(&self) -> usize {
        self.pick(500, 10000)
    }

    /// Compiler options (cheaper optimizer at small scale).
    pub fn compiler_options(&self) -> CompilerOptions {
        match self {
            Scale::Small => CompilerOptions::sweep(),
            Scale::Paper => CompilerOptions::default(),
        }
    }
}

/// A malformed command-line value: the flag, what was given, what was
/// expected.
///
/// The figure binaries used to silently ignore values they could not parse
/// (`--sim-threads x` fell back to the default thread count), which makes a
/// typo in a benchmark invocation indistinguishable from the intended run.
/// Now every malformed value is rejected with a clear message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError {
    /// The flag whose value failed to parse (e.g. `--sim-threads`).
    pub flag: &'static str,
    /// The offending value (empty when the flag had no value at all).
    pub value: String,
    /// Human-readable description of what the flag accepts.
    pub expected: &'static str,
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.value.is_empty() {
            write!(f, "{} requires a value ({})", self.flag, self.expected)
        } else {
            write!(
                f,
                "invalid value {:?} for {} (expected {})",
                self.value, self.flag, self.expected
            )
        }
    }
}

impl std::error::Error for ArgError {}

/// Collects every `(flag, value)` occurrence of `flag` in `args`, rejecting a
/// trailing flag with no value.
fn flag_values<'a>(
    args: &'a [String],
    flag: &'static str,
) -> Result<Vec<(&'static str, &'a str)>, ArgError> {
    let mut values = Vec::new();
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        if arg == flag {
            match iter.next() {
                Some(value) => values.push((flag, value.as_str())),
                None => {
                    return Err(ArgError {
                        flag,
                        value: String::new(),
                        expected: "a value",
                    })
                }
            }
        }
    }
    Ok(values)
}

/// Prints an argument error to stderr and exits with status 2 (binaries
/// only; library code and tests use the `try_*` variants).
fn exit_on_arg_error<T>(result: Result<T, ArgError>) -> T {
    result.unwrap_or_else(|err| {
        eprintln!("error: {err}");
        std::process::exit(2);
    })
}

/// A `--trace <path>` destination: an enabled [`telemetry::Collector`] plus
/// the file the collected spans are written to (as Chrome Trace Event JSON,
/// loadable in Perfetto) when the run finishes.
#[derive(Debug)]
pub struct TraceSink {
    path: String,
    collector: Arc<Collector>,
}

impl TraceSink {
    /// The collector recording this run's spans. Attach it to engines and
    /// compilers (their builders take `.telemetry(...)`).
    pub fn collector(&self) -> &Arc<Collector> {
        &self.collector
    }

    /// The destination path given on the command line.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Writes every span collected so far to the destination as Chrome
    /// Trace Event JSON.
    pub fn write(&self) -> std::io::Result<()> {
        let trace = telemetry::export::trace_json(&self.collector.completed_spans());
        std::fs::write(&self.path, trace)
    }
}

/// Parses `--trace <path>` from the process arguments (default none).
/// Unwritable paths are rejected at parse time, before the experiment runs.
pub fn trace_sink_from_args() -> Option<TraceSink> {
    exit_on_arg_error(trace_sink_from_arg_list(
        &std::env::args().collect::<Vec<_>>(),
    ))
}

/// [`trace_sink_from_args`] over an explicit argument list (testable core).
/// The path is probed by creating (or truncating) the file now, so a typo'd
/// directory fails before minutes of simulation, with the same typed
/// [`ArgError`] framing as `--sim-threads`.
pub fn trace_sink_from_arg_list(args: &[String]) -> Result<Option<TraceSink>, ArgError> {
    let mut path: Option<&str> = None;
    for (_, value) in flag_values(args, "--trace")? {
        path = Some(value);
    }
    let Some(path) = path else { return Ok(None) };
    if std::fs::write(path, "").is_err() {
        return Err(ArgError {
            flag: "--trace",
            value: path.to_string(),
            expected: "a writable file path",
        });
    }
    let collector = Arc::new(Collector::new());
    collector.set_enabled(true);
    Ok(Some(TraceSink {
        path: path.to_string(),
        collector,
    }))
}

/// Writes the sink (when one was requested) and reports the destination;
/// write failures exit with status 2. Call at the end of a figure binary.
pub fn write_trace_or_exit(sink: &Option<TraceSink>) {
    if let Some(sink) = sink {
        if let Err(err) = sink.write() {
            eprintln!("error: failed to write trace to {}: {err}", sink.path());
            std::process::exit(2);
        }
        eprintln!("trace written to {}", sink.path());
    }
}

/// Builds the simulation engine the figure binaries share, honouring three
/// optional command-line knobs:
///
/// - `--fusion off|safe` — gate-fusion policy jobs are lowered under
///   (default `safe`; never changes counts, see `sim::precompiled`).
/// - `--sim-threads N` — worker-thread cap for the engine (default: the
///   machine's available parallelism). Thread count never changes results.
/// - `--trace <path>` — builds the engine with the sink's collector
///   attached, so its precompile / simulate / shard spans land in the
///   written trace.
///
/// Malformed values (`--fusion blah`, `--sim-threads x`, `--sim-threads 0`)
/// print a clear message to stderr and exit with status 2.
pub fn engine_and_trace_from_args() -> (ExecutionEngine, Option<TraceSink>) {
    exit_on_arg_error(engine_and_trace_from_arg_list(
        &std::env::args().collect::<Vec<_>>(),
    ))
}

/// [`engine_and_trace_from_args`] over an explicit argument list.
pub fn engine_and_trace_from_arg_list(
    args: &[String],
) -> Result<(ExecutionEngine, Option<TraceSink>), ArgError> {
    let sink = trace_sink_from_arg_list(args)?;
    let collector = sink.as_ref().map(|s| Arc::clone(s.collector()));
    Ok((engine_from_arg_list_with(args, collector)?, sink))
}

/// The engine half of [`engine_and_trace_from_arg_list`], without a trace
/// sink (testable core).
pub fn engine_from_arg_list(args: &[String]) -> Result<ExecutionEngine, ArgError> {
    engine_from_arg_list_with(args, None)
}

fn engine_from_arg_list_with(
    args: &[String],
    collector: Option<Arc<Collector>>,
) -> Result<ExecutionEngine, ArgError> {
    let mut builder = ExecutionEngine::builder();
    if let Some(collector) = collector {
        builder = builder.telemetry(collector);
    }
    for (flag, value) in flag_values(args, "--fusion")? {
        builder = match value.to_ascii_lowercase().as_str() {
            "off" => builder.fusion(FusionPolicy::Off),
            "safe" => builder.fusion(FusionPolicy::Safe),
            other => {
                return Err(ArgError {
                    flag,
                    value: other.to_string(),
                    expected: "off|safe",
                })
            }
        };
    }
    for (flag, value) in flag_values(args, "--sim-threads")? {
        // Zero threads is a typed EngineConfigError at build(); report it
        // with the same flag/value framing as an unparsable number.
        match value.parse::<usize>() {
            Ok(threads) if threads > 0 => builder = builder.threads(threads),
            _ => {
                return Err(ArgError {
                    flag,
                    value: value.to_string(),
                    expected: "a positive integer",
                })
            }
        }
    }
    Ok(builder
        .build()
        .expect("default chunk size and positive threads are a valid config"))
}

/// Which metric scores a benchmark circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Metric {
    /// Heavy-output probability (QV).
    Hop,
    /// Cross-entropy difference (QAOA).
    Xed,
    /// Linear XEB fidelity (Fermi–Hubbard).
    Xeb,
    /// Success rate (QFT echo).
    SuccessRate,
}

impl Metric {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Metric::Hop => "HOP",
            Metric::Xed => "XED",
            Metric::Xeb => "XEB fidelity",
            Metric::SuccessRate => "success rate",
        }
    }
}

/// One benchmark circuit plus the data needed to score it.
#[derive(Debug, Clone)]
pub struct BenchCircuit {
    /// The logical (device-independent) circuit.
    pub circuit: Circuit,
    /// Metric used to score it.
    pub metric: Metric,
    /// Expected outcome for success-rate benchmarks.
    pub expected_outcome: Option<usize>,
}

/// An all-depolarizing noise model for the fusion benchmarks and the TVD
/// harness: every 1q gate carries a `depolarizing_1q(1 - one_qubit_fidelity)`
/// channel and every 2q gate a `depolarizing_2q(1 - two_qubit_fidelity)`
/// channel, with no relaxation (so channels stay exact unitary mixtures and
/// the scaled-unitary fast path applies). With noise on *every* gate,
/// `FusionPolicy::Safe` cannot fuse across any boundary while `Aggressive`
/// conjugates the channels past the unitaries and composes them — the widest
/// gap between the two policies, which is exactly what the
/// `noisy_trajectory_20q` bench grid and `bin/tvd` measure.
pub fn all_depolarizing_noise(
    num_qubits: usize,
    one_qubit_fidelity: f64,
    two_qubit_fidelity: f64,
) -> NoiseModel {
    use device::{EdgeCalibration, GateDurations, QubitCalibration, Topology};
    let mut topology = Topology::new(num_qubits);
    for a in 0..num_qubits {
        for b in (a + 1)..num_qubits {
            topology.add_edge(a, b);
        }
    }
    let mut edges = std::collections::BTreeMap::new();
    for (a, b) in topology.edges() {
        edges.insert((a, b), EdgeCalibration::new(two_qubit_fidelity));
    }
    let qubits = vec![QubitCalibration::new(1e6, 1e6, 0.0, one_qubit_fidelity); num_qubits];
    let device = DeviceModel::new(
        "all-depolarizing",
        topology,
        edges,
        qubits,
        GateDurations::default(),
    );
    let mut noise = NoiseModel::from_device(&device);
    noise.with_relaxation = false;
    noise
}

/// Builds the QV benchmark suite: `count` random `n`-qubit QV circuits.
pub fn qv_suite(n: usize, count: usize, seed: RngSeed) -> Vec<BenchCircuit> {
    (0..count)
        .map(|i| BenchCircuit {
            circuit: qv_circuit(n, seed.child(i as u64)),
            metric: Metric::Hop,
            expected_outcome: None,
        })
        .collect()
}

/// Builds the QAOA benchmark suite.
pub fn qaoa_suite(n: usize, count: usize, seed: RngSeed) -> Vec<BenchCircuit> {
    (0..count)
        .map(|i| BenchCircuit {
            circuit: qaoa_circuit(n, seed.child(i as u64)),
            metric: Metric::Xed,
            expected_outcome: None,
        })
        .collect()
}

/// Builds the QFT-echo benchmark suite (the paper uses one QFT circuit per
/// size; we allow several random input states).
pub fn qft_suite(n: usize, count: usize, seed: RngSeed) -> Vec<BenchCircuit> {
    (0..count)
        .map(|i| {
            let (circuit, expected) = qft_echo_circuit(n, seed.child(i as u64));
            BenchCircuit {
                circuit,
                metric: Metric::SuccessRate,
                expected_outcome: Some(expected),
            }
        })
        .collect()
}

/// Builds the Fermi–Hubbard benchmark suite.
pub fn fh_suite(n: usize, count: usize, seed: RngSeed) -> Vec<BenchCircuit> {
    (0..count)
        .map(|i| BenchCircuit {
            circuit: fermi_hubbard_circuit(n, seed.child(i as u64)),
            metric: Metric::Xeb,
            expected_outcome: None,
        })
        .collect()
}

/// Result of evaluating one instruction set on one benchmark suite.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SetResult {
    /// Instruction-set name.
    pub set: String,
    /// Mean metric value across circuits (higher is better).
    pub mean_metric: f64,
    /// Mean number of two-qubit hardware gates per compiled circuit.
    pub mean_two_qubit_gates: f64,
    /// Mean routing SWAPs inserted per circuit.
    pub mean_swaps: f64,
    /// Mean estimated circuit fidelity from the compiler's model.
    pub mean_estimated_fidelity: f64,
}

/// Builds a reusable [`Compiler`] for a (device, instruction set, options)
/// triple. The returned service shares its decomposition cache across every
/// compile, which is what makes repeated-workload sweeps fast.
pub fn compiler_for(
    device: &DeviceModel,
    set: &InstructionSet,
    options: &CompilerOptions,
) -> Result<Compiler, CompileError> {
    Compiler::for_device(device.clone())
        .instruction_set(set.clone())
        .options(options.clone())
        .build()
}

/// The simulation job for one compiled benchmark circuit: its physical
/// circuit under the carved-out subdevice's calibrated noise.
pub fn sim_job(compiled: &CompiledCircuit, shots: usize, seed: RngSeed) -> SimJob {
    SimJob::noisy(
        compiled.circuit.clone(),
        NoiseModel::from_device(&compiled.subdevice),
        shots,
        seed,
    )
}

/// Scores already-measured counts of a compiled benchmark circuit against the
/// ideal distribution of its logical circuit.
pub fn score_counts(bench: &BenchCircuit, compiled: &CompiledCircuit, counts: &Counts) -> f64 {
    let logical = compiled.logical_counts(counts);
    let ideal = StateVector::evolve(&bench.circuit.without_measurements()).probabilities();
    match bench.metric {
        Metric::Hop => heavy_output_probability(&logical, &ideal),
        Metric::Xed => cross_entropy_difference(&logical, &ideal),
        Metric::Xeb => linear_xeb_fidelity(&logical, &ideal),
        Metric::SuccessRate => success_rate(
            &logical,
            bench.expected_outcome.expect("expected outcome set"),
        ),
    }
}

/// Evaluates an instruction set over a whole suite with a default-configured
/// [`ExecutionEngine`]. See [`evaluate_set_with_engine`].
pub fn evaluate_set(
    suite: &[BenchCircuit],
    compiler: &Compiler,
    shots: usize,
    seed: RngSeed,
) -> Result<SetResult, CompileError> {
    evaluate_set_with_engine(suite, compiler, &ExecutionEngine::new(), shots, seed)
}

/// Evaluates an instruction set over a whole suite.
///
/// The suite is compiled as one [`Compiler::compile_batch`] fan-out (worker
/// threads share the compiler's decomposition cache, so suites with repeated
/// unitaries only pay for each distinct decomposition once) and then simulated
/// as one [`ExecutionEngine::run_batch`] call: every circuit is lowered to its
/// Kraus channels once and its shots are sharded across the engine's worker
/// threads, with per-shard seed streams keeping scores independent of the
/// thread count.
pub fn evaluate_set_with_engine(
    suite: &[BenchCircuit],
    compiler: &Compiler,
    engine: &ExecutionEngine,
    shots: usize,
    seed: RngSeed,
) -> Result<SetResult, CompileError> {
    assert!(!suite.is_empty(), "benchmark suite must not be empty");
    let circuits: Vec<Circuit> = suite.iter().map(|b| b.circuit.clone()).collect();
    let compiled: Vec<CompiledCircuit> = compiler
        .compile_batch(&circuits)
        .into_iter()
        .collect::<Result<_, _>>()?;
    let jobs: Vec<SimJob> = compiled
        .iter()
        .enumerate()
        .map(|(i, c)| sim_job(c, shots, seed.child(i as u64)))
        .collect();
    let results = engine.run_batch(&jobs);
    let mut metric_sum = 0.0;
    let mut gate_sum = 0.0;
    let mut swap_sum = 0.0;
    let mut fid_sum = 0.0;
    for ((bench, compiled), result) in suite.iter().zip(compiled.iter()).zip(results.iter()) {
        metric_sum += score_counts(bench, compiled, &result.counts);
        gate_sum += compiled.two_qubit_gate_count() as f64;
        swap_sum += compiled.swap_count as f64;
        fid_sum += compiled.pass_stats.estimated_circuit_fidelity;
    }
    let n = suite.len() as f64;
    Ok(SetResult {
        set: compiler.instruction_set().name().to_string(),
        mean_metric: metric_sum / n,
        mean_two_qubit_gates: gate_sum / n,
        mean_swaps: swap_sum / n,
        mean_estimated_fidelity: fid_sum / n,
    })
}

/// Prints a results table in the style of the paper's bar-chart annotations
/// (metric value plus the two-qubit instruction count above each bar).
pub fn print_results(title: &str, metric: Metric, results: &[SetResult]) {
    println!("\n== {title} ==");
    println!(
        "{:<10} {:>14} {:>12} {:>10} {:>12}",
        "set",
        metric.name(),
        "2Q gates",
        "SWAPs",
        "est. fid."
    );
    for r in results {
        println!(
            "{:<10} {:>14.4} {:>12.1} {:>10.1} {:>12.4}",
            r.set, r.mean_metric, r.mean_two_qubit_gates, r.mean_swaps, r.mean_estimated_fidelity
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_picks_values() {
        assert_eq!(Scale::Small.pick(3, 100), 3);
        assert_eq!(Scale::Paper.pick(3, 100), 100);
        assert!(Scale::Small.shots() < Scale::Paper.shots());
    }

    #[test]
    fn suites_have_requested_sizes_and_metrics() {
        let qv = qv_suite(3, 4, RngSeed(1));
        assert_eq!(qv.len(), 4);
        assert!(qv.iter().all(|b| b.metric == Metric::Hop));
        let qft = qft_suite(3, 2, RngSeed(2));
        assert!(qft.iter().all(|b| b.expected_outcome.is_some()));
        let fh = fh_suite(4, 2, RngSeed(3));
        assert!(fh.iter().all(|b| b.metric == Metric::Xeb));
        let qaoa = qaoa_suite(4, 2, RngSeed(4));
        assert!(qaoa.iter().all(|b| b.metric == Metric::Xed));
    }

    #[test]
    fn evaluate_set_produces_sane_numbers() {
        let device = DeviceModel::aspen8(RngSeed(5));
        let suite = qaoa_suite(3, 2, RngSeed(6));
        let compiler =
            compiler_for(&device, &InstructionSet::s(3), &CompilerOptions::sweep()).unwrap();
        let result = evaluate_set(&suite, &compiler, 200, RngSeed(7)).unwrap();
        assert_eq!(result.set, "S3");
        assert!(result.mean_two_qubit_gates >= suite[0].circuit.two_qubit_gate_count() as f64);
        assert!(result.mean_estimated_fidelity > 0.0 && result.mean_estimated_fidelity <= 1.0);
        assert!(result.mean_metric.is_finite());
    }

    #[test]
    fn evaluate_set_surfaces_compile_errors() {
        let device = DeviceModel::ideal(2, 0.99);
        let suite = qaoa_suite(3, 1, RngSeed(8)); // needs 3 qubits
        let compiler =
            compiler_for(&device, &InstructionSet::s(3), &CompilerOptions::sweep()).unwrap();
        assert!(matches!(
            evaluate_set(&suite, &compiler, 50, RngSeed(9)),
            Err(CompileError::RegionUnavailable { .. })
        ));
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn engine_args_parse_fusion_and_threads() {
        let engine =
            engine_from_arg_list(&args(&["fig", "--fusion", "off", "--sim-threads", "3"])).unwrap();
        assert_eq!(engine.fusion(), FusionPolicy::Off);
        assert_eq!(engine.threads(), 3);
        // Defaults with no flags at all.
        let engine = engine_from_arg_list(&args(&["fig"])).unwrap();
        assert_eq!(engine.fusion(), FusionPolicy::Safe);
        // Later occurrences win, like most CLI parsers.
        let engine =
            engine_from_arg_list(&args(&["fig", "--fusion", "off", "--fusion", "safe"])).unwrap();
        assert_eq!(engine.fusion(), FusionPolicy::Safe);
    }

    #[test]
    fn malformed_engine_args_are_rejected_not_ignored() {
        // `--sim-threads x` used to silently fall back to the default; now it
        // is a typed error with the offending value in the message.
        let err = engine_from_arg_list(&args(&["fig", "--sim-threads", "x"])).unwrap_err();
        assert_eq!(err.flag, "--sim-threads");
        assert!(err.to_string().contains("\"x\""));
        assert!(err.to_string().contains("positive integer"));

        let err = engine_from_arg_list(&args(&["fig", "--sim-threads", "0"])).unwrap_err();
        assert!(err.to_string().contains("\"0\""));

        let err = engine_from_arg_list(&args(&["fig", "--fusion", "blah"])).unwrap_err();
        assert_eq!(err.flag, "--fusion");
        assert!(err.to_string().contains("off|safe"));

        // A trailing flag with no value is also an error.
        let err = engine_from_arg_list(&args(&["fig", "--sim-threads"])).unwrap_err();
        assert!(err.to_string().contains("requires a value"));
        let err = engine_from_arg_list(&args(&["fig", "--fusion"])).unwrap_err();
        assert!(err.to_string().contains("requires a value"));
    }

    #[test]
    fn scale_args_parse_and_reject() {
        assert_eq!(
            Scale::try_from_arg_list(&args(&["fig", "--scale", "paper"])).unwrap(),
            Scale::Paper
        );
        assert_eq!(
            Scale::try_from_arg_list(&args(&["fig", "--scale", "SMALL"])).unwrap(),
            Scale::Small
        );
        assert_eq!(
            Scale::try_from_arg_list(&args(&["fig"])).unwrap(),
            Scale::Small
        );
        let err = Scale::try_from_arg_list(&args(&["fig", "--scale", "bogus"])).unwrap_err();
        assert_eq!(err.flag, "--scale");
        assert!(err.to_string().contains("small|paper"));
        let err = Scale::try_from_arg_list(&args(&["fig", "--scale"])).unwrap_err();
        assert!(err.to_string().contains("requires a value"));
    }

    #[test]
    fn metric_names() {
        assert_eq!(Metric::Hop.name(), "HOP");
        assert_eq!(Metric::SuccessRate.name(), "success rate");
    }

    #[test]
    fn trace_flag_is_optional_and_rejects_unwritable_paths() {
        assert!(trace_sink_from_arg_list(&args(&["fig"])).unwrap().is_none());
        let err = trace_sink_from_arg_list(&args(&["fig", "--trace", "/nonexistent-dir/x.json"]))
            .unwrap_err();
        assert_eq!(err.flag, "--trace");
        assert!(err.to_string().contains("writable file path"));
        let err = trace_sink_from_arg_list(&args(&["fig", "--trace"])).unwrap_err();
        assert!(err.to_string().contains("requires a value"));
    }

    #[test]
    fn traced_engine_writes_perfetto_loadable_json() {
        let path = std::env::temp_dir().join("bench-lib-trace-test.json");
        let path_str = path.to_str().unwrap().to_string();
        let (engine, sink) =
            engine_and_trace_from_arg_list(&args(&["fig", "--trace", &path_str])).unwrap();
        let sink = sink.expect("--trace yields a sink");
        assert_eq!(sink.path(), path_str);
        // Run one tiny job through the traced engine, then write the sink.
        let mut circuit = Circuit::new(2);
        circuit.push(circuit::Operation::h(0));
        circuit.measure_all();
        engine.run_job(&SimJob::ideal(circuit, 16, RngSeed(1)));
        assert!(!sink.collector().completed_spans().is_empty());
        sink.write().unwrap();
        let written = std::fs::read_to_string(&path).unwrap();
        assert!(written.starts_with("{\"traceEvents\":["));
        assert!(written.contains("\"name\":\"simulate\""));
        let _ = std::fs::remove_file(&path);
    }
}
