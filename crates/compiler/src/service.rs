//! The reusable compilation service.
//!
//! A [`Compiler`] owns a device model, an instruction set, options and —
//! crucially for instruction-set sweeps — a **shared, sharded decomposition
//! cache** that persists across [`Compiler::compile`] calls. The paper's
//! headline experiments compile the same workloads against 21 instruction
//! sets; with a long-lived `Compiler` per set, every repeated SU(4), ZZ or
//! SWAP decomposition after the first is a cache hit.
//!
//! Every compile runs the same four stages of paper Fig. 1, in order:
//! region selection, initial mapping, SWAP routing and NuOp decomposition.
//! Each stage runs in its own telemetry span, whose duration is also the
//! stage's [`CompileReport`] timing.

use std::sync::Arc;
use std::time::Duration;

use circuit::Circuit;
use device::DeviceModel;
use gates::{InstructionSet, InvalidInstructionSet};
use nuop_core::{DecompositionCache, NuOpPass};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use telemetry::{Collector, SpanId};

use verify::{Artifact, Stage, StageSnapshot, Verifier, VerifyLevel};

use crate::error::CompileError;
use crate::mapping::initial_mapping;
use crate::pipeline::{CompiledCircuit, CompilerOptions};
use crate::region::try_select_region;
use crate::routing::try_route;

/// Per-stage timing entry of a [`CompileReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageTiming {
    /// The stage name (`region-select`, `initial-map`, `swap-route` or
    /// `nuop-decompose`), which is also its telemetry span's name.
    pub pass: &'static str,
    /// Wall-clock time the stage took.
    pub duration: Duration,
}

/// What a compile cost: per-stage wall-clock timings and decomposition-cache
/// traffic. Returned by [`Compiler::compile_with_report`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct CompileReport {
    /// Wall-clock time per stage, in execution order.
    pub stages: Vec<StageTiming>,
    /// Two-qubit operations served from the shared decomposition cache.
    pub cache_hits: usize,
    /// Two-qubit operations that required a fresh numerical optimization.
    pub cache_misses: usize,
    /// Findings of the static verifier, when the compiler was built with
    /// [`CompilerBuilder::verify`] enabled (empty otherwise).
    pub diagnostics: Vec<verify::Diagnostic>,
}

impl CompileReport {
    /// Total wall-clock time across stages.
    pub fn total_duration(&self) -> Duration {
        self.stages.iter().map(|s| s.duration).sum()
    }

    /// Time spent in the stage called `pass`, if it ran.
    pub fn stage_duration(&self, pass: &str) -> Option<Duration> {
        self.stages
            .iter()
            .find(|s| s.pass == pass)
            .map(|s| s.duration)
    }

    /// True when the static verifier reported at least one error-level
    /// finding.
    pub fn has_verify_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity() == verify::Severity::Error)
    }
}

/// A reusable, fallible compilation service.
///
/// Build one with [`Compiler::for_device`] and reuse it for every circuit
/// targeting that device + instruction set: the decomposition cache is shared
/// across calls (and across [`Compiler::compile_batch`] worker threads).
///
/// ```
/// use apps::workloads::qv_circuit;
/// use compiler::{Compiler, CompilerOptions};
/// use device::DeviceModel;
/// use gates::InstructionSet;
/// use qmath::RngSeed;
///
/// let compiler = Compiler::for_device(DeviceModel::aspen8(RngSeed(1)))
///     .instruction_set(InstructionSet::r(2))
///     .options(CompilerOptions::sweep())
///     .build()
///     .unwrap();
///
/// let circuit = qv_circuit(3, RngSeed(2));
/// let compiled = compiler.compile(&circuit).unwrap();
/// assert_eq!(compiled.region.len(), 3);
///
/// // The second compile of the same circuit is served from the cache.
/// let (again, report) = compiler.compile_with_report(&circuit).unwrap();
/// assert_eq!(again.circuit, compiled.circuit);
/// assert_eq!(report.cache_misses, 0);
/// assert!(report.cache_hits > 0);
/// ```
pub struct Compiler {
    device: DeviceModel,
    instruction_set: InstructionSet,
    options: CompilerOptions,
    cache: Arc<DecompositionCache>,
    verify_level: VerifyLevel,
    telemetry: Option<Arc<Collector>>,
}

impl Compiler {
    /// Starts building a compiler for `device`.
    pub fn for_device(device: DeviceModel) -> CompilerBuilder {
        CompilerBuilder {
            device,
            instruction_set: None,
            instruction_set_name: None,
            options: CompilerOptions::default(),
            cache: None,
            verify_level: VerifyLevel::Off,
            telemetry: None,
        }
    }

    /// The device this compiler targets.
    pub fn device(&self) -> &DeviceModel {
        &self.device
    }

    /// The instruction set this compiler targets.
    pub fn instruction_set(&self) -> &InstructionSet {
        &self.instruction_set
    }

    /// The compilation options.
    pub fn options(&self) -> &CompilerOptions {
        &self.options
    }

    /// The shared decomposition cache (inspect hit/miss counters, share it
    /// with another compiler via [`CompilerBuilder::shared_cache`]).
    pub fn cache(&self) -> &Arc<DecompositionCache> {
        &self.cache
    }

    /// The static-verification level this compiler runs at.
    pub fn verify_level(&self) -> VerifyLevel {
        self.verify_level
    }

    /// Compiles one circuit.
    pub fn compile(&self, circuit: &Circuit) -> Result<CompiledCircuit, CompileError> {
        self.compile_inner(circuit, self.options.threads.max(1), SpanId::NONE)
            .map(|(compiled, _)| compiled)
    }

    /// Compiles one circuit and reports per-stage timings plus cache traffic.
    pub fn compile_with_report(
        &self,
        circuit: &Circuit,
    ) -> Result<(CompiledCircuit, CompileReport), CompileError> {
        self.compile_inner(circuit, self.options.threads.max(1), SpanId::NONE)
    }

    /// Like [`Compiler::compile_with_report`], but records each stage as a
    /// telemetry span parented under `parent` (the caller's job or compile
    /// span). With no collector configured — or a disabled one — this is
    /// exactly `compile_with_report`.
    pub fn compile_with_report_in_span(
        &self,
        circuit: &Circuit,
        parent: SpanId,
    ) -> Result<(CompiledCircuit, CompileReport), CompileError> {
        self.compile_inner(circuit, self.options.threads.max(1), parent)
    }

    /// Compiles many circuits, fanning out across the configured worker
    /// threads. All workers share the decomposition cache, so sweeps over
    /// suites with repeated unitaries (identical SU(4)s, ZZ terms, routing
    /// SWAPs) only optimize each distinct decomposition once.
    ///
    /// Failures are per-circuit: one unhostable circuit yields its `Err`
    /// without poisoning the rest of the batch.
    pub fn compile_batch(
        &self,
        circuits: &[Circuit],
    ) -> Vec<Result<CompiledCircuit, CompileError>> {
        let workers = self.options.threads.max(1).min(circuits.len().max(1));
        if workers <= 1 || circuits.len() <= 1 {
            return circuits.iter().map(|c| self.compile(c)).collect();
        }
        // Parallelism moves to the batch level: each worker compiles whole
        // circuits serially (threads = 1) to avoid oversubscription.
        let chunk = circuits.len().div_ceil(workers);
        let results = Mutex::new(Vec::with_capacity(circuits.len()));
        let results_ref = &results;
        std::thread::scope(|scope| {
            for (w, piece) in circuits.chunks(chunk.max(1)).enumerate() {
                scope.spawn(move || {
                    let base = w * chunk.max(1);
                    let mut local = Vec::with_capacity(piece.len());
                    for (offset, circuit) in piece.iter().enumerate() {
                        local.push((base + offset, self.compile_inner(circuit, 1, SpanId::NONE)));
                    }
                    results_ref.lock().extend(local);
                });
            }
        });
        let mut indexed = results.into_inner();
        indexed.sort_by_key(|(idx, _)| *idx);
        indexed
            .into_iter()
            .map(|(_, r)| r.map(|(compiled, _)| compiled))
            .collect()
    }

    fn compile_inner(
        &self,
        circuit: &Circuit,
        threads: usize,
        parent: SpanId,
    ) -> Result<(CompiledCircuit, CompileReport), CompileError> {
        if circuit.num_qubits() == 0 {
            return Err(CompileError::EmptyCircuit);
        }
        let mut stages = Stages {
            compiler: self,
            parent,
            report: CompileReport::default(),
        };

        let (region, subdevice) = stages.run(Stage::RegionSelect, || {
            let region = try_select_region(&self.device, circuit.num_qubits())?;
            let subdevice = self.device.subdevice(&region);
            Ok((region, subdevice))
        })?;
        let mut state = StageSnapshot {
            stage: Stage::RegionSelect,
            circuit,
            region: &region,
            subdevice: Some(&subdevice),
            initial_layout: &[],
            final_layout: &[],
            swap_count: 0,
            program_swap_count: 0,
            instruction_set: Some(&self.instruction_set),
        };
        stages.check(&state);

        let initial_layout = stages.run(Stage::InitialMap, || {
            Ok(initial_mapping(circuit, &subdevice))
        })?;
        state = StageSnapshot {
            stage: Stage::InitialMap,
            initial_layout: &initial_layout,
            ..state
        };
        stages.check(&state);

        let routed = stages.run(Stage::SwapRoute, || {
            try_route(circuit, &subdevice, &initial_layout)
        })?;
        state = StageSnapshot {
            stage: Stage::SwapRoute,
            circuit: &routed.circuit,
            final_layout: &routed.final_layout,
            swap_count: routed.swap_count,
            // Routing keeps the program's own SWAPs as data-moving gates, so
            // the swap-consistency rule, the only reader, must not replay
            // them as layout bookkeeping.
            program_swap_count: if stages.due(Stage::SwapRoute) {
                circuit
                    .iter()
                    .filter(|op| op.is_two_qubit_unitary() && op.label() == "SWAP")
                    .count()
            } else {
                0
            },
            ..state
        };
        stages.check(&state);

        let (decomposed, pass_stats) = stages.run(Stage::NuOpDecompose, || {
            let pass = NuOpPass::new(self.instruction_set.clone(), self.options.decompose.clone())
                .with_threads(threads)
                .with_cache(Arc::clone(&self.cache));
            Ok(pass.run(&routed.circuit, &subdevice))
        })?;
        state = StageSnapshot {
            stage: Stage::NuOpDecompose,
            circuit: &decomposed,
            ..state
        };
        stages.check(&state);

        let mut report = stages.report;
        report.cache_hits = pass_stats.cache_hits;
        report.cache_misses = pass_stats.cache_misses;
        Ok((
            CompiledCircuit {
                circuit: decomposed,
                region,
                subdevice,
                initial_layout,
                final_layout: routed.final_layout,
                swap_count: routed.swap_count,
                pass_stats,
            },
            report,
        ))
    }
}

/// The span and report name of each stage.
fn stage_name(stage: Stage) -> &'static str {
    match stage {
        Stage::RegionSelect => "region-select",
        Stage::InitialMap => "initial-map",
        Stage::SwapRoute => "swap-route",
        Stage::NuOpDecompose => "nuop-decompose",
    }
}

/// One compile's stages: each runs in its own span, and the state after it
/// is verified when the compiler's level asks for it.
struct Stages<'a> {
    compiler: &'a Compiler,
    parent: SpanId,
    report: CompileReport,
}

impl Stages<'_> {
    /// Runs `stage` inside its span and records the span's duration. A
    /// stage that fails returns before its timing is recorded.
    fn run<T>(
        &mut self,
        stage: Stage,
        run: impl FnOnce() -> Result<T, CompileError>,
    ) -> Result<T, CompileError> {
        // The span guard is the single timing source: it measures with a
        // plain `Instant` even when no collector records it, so
        // `CompileReport` stays accurate with telemetry off.
        let name = stage_name(stage);
        let span =
            telemetry::Span::enter_child(self.compiler.telemetry.as_ref(), name, self.parent);
        let out = run()?;
        self.report.stages.push(StageTiming {
            pass: name,
            duration: span.finish(),
        });
        Ok(out)
    }

    /// Whether the state after `stage` is verified: after every stage under
    /// `PerStage`, after decomposition only under `Final`.
    fn due(&self, stage: Stage) -> bool {
        match self.compiler.verify_level {
            VerifyLevel::Off => false,
            VerifyLevel::Final => stage == Stage::NuOpDecompose,
            VerifyLevel::PerStage => true,
        }
    }

    /// Verifies `snapshot` when it is due, adding the findings to the report.
    fn check(&mut self, snapshot: &StageSnapshot<'_>) {
        if !self.due(snapshot.stage) {
            return;
        }
        let report = Verifier::structural().run(&Artifact::Stage(snapshot));
        self.report.diagnostics.extend(report.into_diagnostics());
    }
}

impl std::fmt::Debug for Compiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Compiler")
            .field("device", &self.device.name())
            .field("instruction_set", &self.instruction_set.name())
            .field("cache", &self.cache)
            .finish()
    }
}

/// Builder returned by [`Compiler::for_device`].
///
/// The instruction set is mandatory; everything else has defaults
/// (default options, a fresh unbounded cache, no verification and no
/// telemetry).
pub struct CompilerBuilder {
    device: DeviceModel,
    instruction_set: Option<InstructionSet>,
    instruction_set_name: Option<String>,
    options: CompilerOptions,
    cache: Option<Arc<DecompositionCache>>,
    verify_level: VerifyLevel,
    telemetry: Option<Arc<Collector>>,
}

impl CompilerBuilder {
    /// Targets `set`.
    pub fn instruction_set(mut self, set: InstructionSet) -> Self {
        self.instruction_set = Some(set);
        self
    }

    /// Targets the Table II set called `name` (e.g. `"G3"`, `"FullfSim"`;
    /// case-insensitive). Unknown names surface as
    /// [`CompileError::InvalidInstructionSet`] at [`CompilerBuilder::build`].
    pub fn instruction_set_named(mut self, name: impl Into<String>) -> Self {
        self.instruction_set_name = Some(name.into());
        self
    }

    /// Sets the compilation options.
    pub fn options(mut self, options: CompilerOptions) -> Self {
        self.options = options;
        self
    }

    /// Shares an existing decomposition cache (e.g. across compilers for the
    /// same instruction set on error-scaled device variants). Keys include
    /// the instruction set (name and member types), pair fidelities and a
    /// fingerprint of the decomposition config, so unrelated compilers can
    /// safely share one cache.
    ///
    /// This is also how a long-running service bounds a compiler's cache:
    /// share one built with [`DecompositionCache::with_capacity`], since the
    /// default private cache grows with every distinct unitary compiled.
    pub fn shared_cache(mut self, cache: Arc<DecompositionCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Runs the static verifier during compilation: structural legality rules
    /// (qubit bounds, post-routing coupling, instruction-set conformance,
    /// layout bijections, swap consistency) check the intermediate state and
    /// attach their findings to [`CompileReport::diagnostics`].
    /// [`VerifyLevel::PerStage`] checks after every stage,
    /// [`VerifyLevel::Final`] only after decomposition; the default is
    /// [`VerifyLevel::Off`]. Findings never abort compilation — callers gate
    /// on [`CompileReport::has_verify_errors`].
    pub fn verify(mut self, level: VerifyLevel) -> Self {
        self.verify_level = level;
        self
    }

    /// Attaches a telemetry collector: every compile records one span per
    /// stage (use [`Compiler::compile_with_report_in_span`] to parent them
    /// under a job span) and nothing else; cache traffic is in the
    /// [`CompileReport`]. The default is no collector, which keeps the
    /// pipeline allocation-free on the telemetry side.
    pub fn telemetry(mut self, collector: Arc<Collector>) -> Self {
        self.telemetry = Some(collector);
        self
    }

    /// Builds the compiler, validating the configuration.
    pub fn build(self) -> Result<Compiler, CompileError> {
        let instruction_set = match (self.instruction_set, self.instruction_set_name) {
            (Some(set), _) => set,
            (None, Some(name)) => InstructionSet::by_name(&name).ok_or_else(|| {
                InvalidInstructionSet::new(
                    name.clone(),
                    format!("{name} is not a Table II instruction set"),
                )
            })?,
            (None, None) => {
                return Err(InvalidInstructionSet::new(
                    "<unset>",
                    "no instruction set supplied to Compiler builder",
                )
                .into())
            }
        };
        Ok(Compiler {
            device: self.device,
            instruction_set,
            options: self.options,
            cache: self.cache.unwrap_or_default(),
            verify_level: self.verify_level,
            telemetry: self.telemetry,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apps::workloads::{qaoa_circuit, qv_circuit};
    use nuop_core::DecomposeConfig;
    use qmath::RngSeed;

    fn quick_options() -> CompilerOptions {
        CompilerOptions {
            decompose: DecomposeConfig {
                restarts: 2,
                max_layers: 4,
                ..DecomposeConfig::default()
            },
            threads: 2,
        }
    }

    fn aspen_compiler(set: InstructionSet) -> Compiler {
        Compiler::for_device(DeviceModel::aspen8(RngSeed(1)))
            .instruction_set(set)
            .options(quick_options())
            .build()
            .unwrap()
    }

    #[test]
    fn builder_requires_an_instruction_set() {
        let err = Compiler::for_device(DeviceModel::ideal(3, 0.99))
            .build()
            .unwrap_err();
        assert!(matches!(err, CompileError::InvalidInstructionSet(_)));
    }

    #[test]
    fn builder_resolves_sets_by_name() {
        let compiler = Compiler::for_device(DeviceModel::ideal(3, 0.99))
            .instruction_set_named("g3")
            .build()
            .unwrap();
        assert_eq!(compiler.instruction_set().name(), "G3");

        let err = Compiler::for_device(DeviceModel::ideal(3, 0.99))
            .instruction_set_named("G99")
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("G99"));
    }

    #[test]
    fn oversized_circuit_is_an_error_not_a_panic() {
        let compiler = Compiler::for_device(DeviceModel::ideal(3, 0.99))
            .instruction_set(InstructionSet::s(3))
            .options(quick_options())
            .build()
            .unwrap();
        let circuit = qv_circuit(5, RngSeed(1));
        assert_eq!(
            compiler.compile(&circuit).unwrap_err(),
            CompileError::RegionUnavailable {
                requested: 5,
                available: 3,
            }
        );
    }

    #[test]
    fn fragmented_device_is_an_error_not_a_panic() {
        // Three pairwise non-adjacent Sycamore sites: enough qubits, but no
        // connected 2-qubit region exists.
        let device = DeviceModel::sycamore(RngSeed(1)).subdevice(&[0, 2, 4]);
        let compiler = Compiler::for_device(device)
            .instruction_set(InstructionSet::s(3))
            .options(quick_options())
            .build()
            .unwrap();
        let circuit = qv_circuit(2, RngSeed(1));
        assert_eq!(
            compiler.compile(&circuit).unwrap_err(),
            CompileError::RegionDisconnected { requested: 2 }
        );
    }

    #[test]
    fn second_compile_is_served_from_the_shared_cache() {
        let compiler = aspen_compiler(InstructionSet::r(2));
        let circuit = qaoa_circuit(3, RngSeed(3));
        let (first, first_report) = compiler.compile_with_report(&circuit).unwrap();
        assert_eq!(
            first_report.cache_hits + first_report.cache_misses,
            first.pass_stats.input_two_qubit_gates
        );
        assert!(first_report.cache_misses > 0);

        let (second, second_report) = compiler.compile_with_report(&circuit).unwrap();
        assert_eq!(second_report.cache_misses, 0);
        assert_eq!(
            second_report.cache_hits,
            second.pass_stats.input_two_qubit_gates
        );
        assert_eq!(first.circuit, second.circuit);
    }

    #[test]
    fn report_durations_aggregate() {
        let report = CompileReport {
            stages: vec![
                StageTiming {
                    pass: "a",
                    duration: Duration::from_millis(2),
                },
                StageTiming {
                    pass: "b",
                    duration: Duration::from_millis(3),
                },
            ],
            cache_hits: 1,
            cache_misses: 2,
            diagnostics: Vec::new(),
        };
        assert_eq!(report.total_duration(), Duration::from_millis(5));
        assert_eq!(report.stage_duration("b"), Some(Duration::from_millis(3)));
        assert_eq!(report.stage_duration("zzz"), None);
    }

    #[test]
    fn report_times_every_stage() {
        let compiler = aspen_compiler(InstructionSet::s(3));
        let circuit = qv_circuit(3, RngSeed(5));
        let (_, report) = compiler.compile_with_report(&circuit).unwrap();
        let stages: Vec<&str> = report.stages.iter().map(|s| s.pass).collect();
        assert_eq!(
            stages,
            vec![
                "region-select",
                "initial-map",
                "swap-route",
                "nuop-decompose"
            ]
        );
        assert!(report.total_duration() >= report.stage_duration("nuop-decompose").unwrap());
    }

    #[test]
    fn batch_matches_serial_compiles_and_shares_the_cache() {
        let serial = aspen_compiler(InstructionSet::r(2));
        let batched = aspen_compiler(InstructionSet::r(2));
        let circuits: Vec<Circuit> = (0..4).map(|i| qaoa_circuit(3, RngSeed(i))).collect();

        let serial_results: Vec<CompiledCircuit> = circuits
            .iter()
            .map(|c| serial.compile(c).unwrap())
            .collect();
        let batch_results = batched.compile_batch(&circuits);
        assert_eq!(batch_results.len(), circuits.len());
        for (s, b) in serial_results.iter().zip(batch_results.iter()) {
            let b = b.as_ref().unwrap();
            assert_eq!(s.circuit, b.circuit);
            assert_eq!(s.swap_count, b.swap_count);
        }

        // A follow-up compile of any batch member hits the shared cache.
        let (_, report) = batched.compile_with_report(&circuits[0]).unwrap();
        assert_eq!(report.cache_misses, 0);
    }

    #[test]
    fn batch_reports_per_circuit_errors_without_poisoning_the_rest() {
        let compiler = aspen_compiler(InstructionSet::s(3));
        let circuits = vec![
            qv_circuit(3, RngSeed(1)),
            qv_circuit(40, RngSeed(2)), // larger than Aspen-8
            qv_circuit(3, RngSeed(3)),
        ];
        let results = compiler.compile_batch(&circuits);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(CompileError::RegionUnavailable { .. })
        ));
        assert!(results[2].is_ok());
    }

    #[test]
    fn bounded_compiler_still_compiles_and_reuses_its_cache() {
        let compiler = Compiler::for_device(DeviceModel::aspen8(RngSeed(1)))
            .instruction_set(InstructionSet::r(2))
            .options(quick_options())
            .shared_cache(Arc::new(DecompositionCache::with_capacity(256)))
            .build()
            .unwrap();
        let circuit = qaoa_circuit(3, RngSeed(3));
        let (_, first) = compiler.compile_with_report(&circuit).unwrap();
        assert!(first.cache_misses > 0);
        let (_, second) = compiler.compile_with_report(&circuit).unwrap();
        assert_eq!(second.cache_misses, 0);
    }

    #[test]
    fn per_stage_verification_of_real_workloads_is_clean() {
        for set in [
            InstructionSet::s(1),
            InstructionSet::r(2),
            InstructionSet::full_xy(),
        ] {
            let compiler = Compiler::for_device(DeviceModel::aspen8(RngSeed(1)))
                .instruction_set(set.clone())
                .options(quick_options())
                .verify(VerifyLevel::PerStage)
                .build()
                .unwrap();
            let circuit = qv_circuit(3, RngSeed(2));
            let (compiled, report) = compiler.compile_with_report(&circuit).unwrap();
            assert!(
                !report.has_verify_errors(),
                "set {}: {:?}",
                set.name(),
                report.diagnostics
            );
            // The standalone artifact check agrees.
            let standalone = compiled.verify(&set);
            assert!(!standalone.has_errors(), "set {}: {standalone}", set.name());
        }
    }

    #[test]
    fn telemetry_records_one_span_per_pass_under_the_parent() {
        let collector = Arc::new(telemetry::Collector::new());
        let compiler = Compiler::for_device(DeviceModel::aspen8(RngSeed(1)))
            .instruction_set(InstructionSet::s(3))
            .options(quick_options())
            .telemetry(Arc::clone(&collector))
            .build()
            .unwrap();
        let job = telemetry::Span::enter(Some(&collector), "job");
        let (_, report) = compiler
            .compile_with_report_in_span(&qv_circuit(3, RngSeed(5)), job.id())
            .unwrap();
        let job_id = job.id();
        job.finish();

        let spans = collector.completed_spans();
        let pass_spans: Vec<&str> = spans
            .iter()
            .filter(|s| s.parent == job_id)
            .map(|s| s.name)
            .collect();
        assert_eq!(
            pass_spans,
            vec![
                "region-select",
                "initial-map",
                "swap-route",
                "nuop-decompose"
            ]
        );
        // The report is a thin view over the same measurements.
        for span in spans.iter().filter(|s| s.parent == job_id) {
            let reported = report.stage_duration(span.name).unwrap();
            assert_eq!(reported.as_micros() as u64, span.duration_micros);
        }
    }

    #[test]
    fn disabled_telemetry_still_times_stages() {
        let collector = Arc::new(telemetry::Collector::disabled());
        let compiler = Compiler::for_device(DeviceModel::aspen8(RngSeed(1)))
            .instruction_set(InstructionSet::s(3))
            .options(quick_options())
            .telemetry(Arc::clone(&collector))
            .build()
            .unwrap();
        let (_, report) = compiler
            .compile_with_report(&qv_circuit(3, RngSeed(5)))
            .unwrap();
        assert_eq!(report.stages.len(), 4);
        assert!(report.total_duration().as_nanos() > 0);
        assert!(collector.completed_spans().is_empty());
    }

    #[test]
    fn verification_off_attaches_no_diagnostics() {
        let compiler = aspen_compiler(InstructionSet::s(3));
        let (_, report) = compiler
            .compile_with_report(&qv_circuit(3, RngSeed(5)))
            .unwrap();
        assert!(report.diagnostics.is_empty());
    }
}
