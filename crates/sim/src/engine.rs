//! The parallel batched-shot execution engine.
//!
//! Monte-Carlo trajectory sampling is embarrassingly parallel: every shot is
//! an independent random realization of the same noisy circuit. The
//! [`ExecutionEngine`] exploits that in two steps:
//!
//! 1. each job's circuit is lowered **once** into a
//!    [`PrecompiledCircuit`] — per-op `Mat2`/`Mat4` kernels plus prebuilt,
//!    completeness-checked Kraus channels — so no shot rebuilds a matrix or a
//!    channel; under the default
//!    [`FusionPolicy::Safe`] adjacent ops are additionally **fused** into
//!    single kernels wherever no RNG-consuming channel separates them (see
//!    [`crate::precompiled`]), and
//! 2. the shot loop is split into fixed-size **shards** distributed over
//!    scoped worker threads.
//!
//! # Shot-parallel vs amplitude-parallel regimes
//!
//! For small registers the engine shards *shots* across its worker pool —
//! many cheap independent trajectories. At
//! [`PARALLEL_SWEEP_MIN_QUBITS`]
//! qubits and above, a single state no longer fits comfortably in cache and
//! one trajectory dominates the cost, so the engine flips regime: shots run
//! sequentially and each *amplitude sweep* is split across the same worker
//! budget instead (see
//! [`StateVector::apply_one_qubit_threaded`](crate::statevector::StateVector::apply_one_qubit_threaded)).
//! Both regimes are bit-identical to the serial path, so the switch is purely
//! a scheduling decision.
//!
//! # Determinism
//!
//! Results are **bit-identical regardless of thread count**. Shard boundaries
//! depend only on the configured [shot-chunk size](EngineBuilder::shot_chunk_size),
//! never on how many workers happen to run, and every shard derives its own
//! ChaCha stream from `(seed, shard_index)` (the [`SeedPolicy::PerShard`]
//! default) or `(seed, shot_index)` ([`SeedPolicy::PerShot`]).
//! Merged histograms are sums, so the merge order cannot be observed either.
//!
//! # Example
//!
//! ```
//! use circuit::{Circuit, Operation};
//! use device::DeviceModel;
//! use qmath::RngSeed;
//! use sim::{ExecutionEngine, NoiseModel, SimJob};
//!
//! let mut bell = Circuit::new(2);
//! bell.push(Operation::h(0));
//! bell.push(Operation::cnot(0, 1));
//! bell.measure_all();
//!
//! let noise = NoiseModel::from_device(&DeviceModel::ideal(2, 0.99));
//! let engine = ExecutionEngine::builder().threads(4).build().unwrap();
//! let jobs = vec![
//!     SimJob::noisy(bell.clone(), noise, 400, RngSeed(7)),
//!     SimJob::ideal(bell, 400, RngSeed(8)),
//! ];
//! let results = engine.run_batch(&jobs);
//! assert_eq!(results.len(), 2);
//! assert_eq!(results[0].counts.total(), 400);
//! assert!(results[1].report.shots_per_sec() > 0.0);
//! ```

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use circuit::Circuit;
use parking_lot::Mutex;
use qmath::RngSeed;
use serde::{Deserialize, Serialize};
use telemetry::{Collector, Span, SpanGuard, SpanId};

use crate::noise_model::NoiseModel;
use crate::precompiled::{FusionPolicy, PrecompiledCircuit};
use crate::runner::Counts;
use crate::statevector::{MeasurementSampler, PARALLEL_SWEEP_MIN_QUBITS};

/// Default number of shots per shard.
///
/// Small enough that typical figure workloads (hundreds to tens of thousands
/// of shots) split into many more shards than cores, large enough that shard
/// bookkeeping is negligible next to a trajectory.
pub const DEFAULT_SHOT_CHUNK: usize = 64;

/// Why an [`EngineBuilder`] configuration could not produce an engine.
///
/// Misconfiguration surfaces as a typed error at [`EngineBuilder::build`]
/// instead of a panic, so a long-running service can reject one bad
/// engine-configuration request without dying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineConfigError {
    /// `shot_chunk_size(0)` was requested; shards must hold at least one shot.
    ZeroShotChunk,
    /// `threads(0)` was requested; the worker pool needs at least one thread.
    ZeroThreads,
    /// `parallel_sweep_min_qubits(0)` was requested; a zero threshold would
    /// claim even a one-qubit register is worth scoped sweep workers.
    ZeroSweepThreshold,
}

impl std::fmt::Display for EngineConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineConfigError::ZeroShotChunk => {
                write!(f, "shot chunk size must be positive (got 0)")
            }
            EngineConfigError::ZeroThreads => {
                write!(f, "worker thread count must be positive (got 0)")
            }
            EngineConfigError::ZeroSweepThreshold => {
                write!(f, "parallel-sweep qubit threshold must be positive (got 0)")
            }
        }
    }
}

impl std::error::Error for EngineConfigError {}

/// How per-shot randomness is derived from a job's seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SeedPolicy {
    /// One ChaCha stream per **shard**, derived from `(seed, shard_index)`;
    /// shots within the shard consume it sequentially. The cheapest policy
    /// (one RNG initialization per chunk) and the engine default.
    #[default]
    PerShard,
    /// One ChaCha stream per **shot**, derived from `(seed, shot_index)`, so
    /// a shot's outcome depends only on its index and not on the
    /// [shot-chunk size](EngineBuilder::shot_chunk_size). The workspace's
    /// pinned noisy counts are sampled this way, over the unfused
    /// ([`FusionPolicy::Off`]) lowering.
    PerShot,
}

/// One unit of simulation work: a circuit, its noise, a shot budget and the
/// seed its randomness derives from.
#[derive(Debug, Clone, PartialEq)]
pub struct SimJob {
    /// The circuit to execute (measurement ops are ignored; the full register
    /// is sampled at the end of each trajectory).
    pub circuit: Circuit,
    /// Noise model, or `None` for ideal execution.
    pub noise: Option<NoiseModel>,
    /// Number of measurement shots.
    pub shots: usize,
    /// Seed of this job's randomness.
    pub seed: RngSeed,
}

impl SimJob {
    /// A noisy trajectory-sampling job.
    pub fn noisy(circuit: Circuit, noise: NoiseModel, shots: usize, seed: RngSeed) -> Self {
        SimJob {
            circuit,
            noise: Some(noise),
            shots,
            seed,
        }
    }

    /// An ideal (noise-free) sampling job.
    pub fn ideal(circuit: Circuit, shots: usize, seed: RngSeed) -> Self {
        SimJob {
            circuit,
            noise: None,
            shots,
            seed,
        }
    }
}

/// What one job cost, mirroring the compiler crate's per-stage
/// `CompileReport`: lowering time, simulation time and the achieved
/// throughput.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineReport {
    /// Shots executed.
    pub shots: usize,
    /// Shards the shot loop was split into.
    pub shards: usize,
    /// Worker threads that served the job: the shot-loop workers (capped at
    /// the shard count) or, in the amplitude-parallel regime, the per-sweep
    /// worker count.
    pub threads: usize,
    /// Source ops eliminated by gate fusion during lowering (0 under
    /// [`FusionPolicy::Off`]).
    pub fused_ops: usize,
    /// Wall-clock time to lower the circuit into a [`PrecompiledCircuit`].
    pub precompile: Duration,
    /// Wall-clock time of the sharded shot loop.
    pub simulate: Duration,
}

impl EngineReport {
    /// Total wall-clock time for the job.
    pub fn total_duration(&self) -> Duration {
        self.precompile + self.simulate
    }

    /// Achieved throughput in shots per second (0 when nothing ran).
    /// Equivalent to [`EngineReport::simulate_shots_per_sec`].
    pub fn shots_per_sec(&self) -> f64 {
        self.simulate_shots_per_sec()
    }

    /// Throughput of the shot loop alone, in shots per second (0 when
    /// nothing ran). Computed from the simulate span only — precompile time
    /// is deliberately excluded, so a job whose lowering dominates (deep
    /// circuit, few shots) still reports the true sampling rate.
    pub fn simulate_shots_per_sec(&self) -> f64 {
        let secs = self.simulate.as_secs_f64();
        if secs > 0.0 {
            self.shots as f64 / secs
        } else {
            0.0
        }
    }
}

/// Result of one [`SimJob`]: the merged measurement histogram plus the
/// engine's cost report.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Measurement counts, merged across all shards.
    pub counts: Counts,
    /// Timings and throughput for this job.
    pub report: EngineReport,
    /// Findings of the static artifact verifier, when the engine was built
    /// with [`EngineBuilder::validate`] enabled (empty otherwise). Findings
    /// never abort the job — gate on
    /// [`has_verify_errors`](SimResult::has_verify_errors).
    pub diagnostics: Vec<verify::Diagnostic>,
}

impl SimResult {
    /// True when validation reported at least one error-level finding.
    pub fn has_verify_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity() == verify::Severity::Error)
    }
}

/// Builder for an [`ExecutionEngine`].
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    threads: Option<usize>,
    shot_chunk_size: usize,
    seed_policy: SeedPolicy,
    fusion: FusionPolicy,
    validate: bool,
    parallel_sweep_min_qubits: usize,
    telemetry: Option<Arc<Collector>>,
}

impl EngineBuilder {
    /// Caps the worker-thread pool at `threads`. Defaults to the machine's
    /// available parallelism. Thread count never changes results — only how
    /// fast they arrive. A zero cap is rejected as
    /// [`EngineConfigError::ZeroThreads`] at [`EngineBuilder::build`].
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Sets the number of shots per shard (default
    /// [`DEFAULT_SHOT_CHUNK`]). Under [`SeedPolicy::PerShard`] this value is
    /// part of the deterministic result: the same seed with a different chunk
    /// size derives different shard streams. A zero size is rejected as
    /// [`EngineConfigError::ZeroShotChunk`] at [`EngineBuilder::build`].
    pub fn shot_chunk_size(mut self, size: usize) -> Self {
        self.shot_chunk_size = size;
        self
    }

    /// Chooses how shot randomness derives from the job seed (default
    /// [`SeedPolicy::PerShard`]).
    pub fn seed_policy(mut self, policy: SeedPolicy) -> Self {
        self.seed_policy = policy;
        self
    }

    /// Chooses the gate-fusion policy jobs are lowered under (default
    /// [`FusionPolicy::Safe`], which never changes counts — see
    /// [`crate::precompiled`]).
    pub fn fusion(mut self, policy: FusionPolicy) -> Self {
        self.fusion = policy;
        self
    }

    /// Enables validate-before-run (default off): every job's lowered circuit
    /// is statically verified before the shot loop — kernel unitarity, Kraus
    /// completeness, and, when fusion is on, equivalence and RNG-draw-order
    /// fidelity against a freshly lowered unfused baseline. Under
    /// [`FusionPolicy::Aggressive`] (whose reordering makes counts
    /// *distributionally* rather than bit-wise equal) an additional
    /// statistical cross-check runs a small seed-derived sample under both
    /// `Safe` and `Aggressive` lowering and holds their histograms to the
    /// `fusion/tvd-bound` rule's analytic distance bound. Findings land in
    /// [`SimResult::diagnostics`]; they never abort the job.
    pub fn validate(mut self, on: bool) -> Self {
        self.validate = on;
        self
    }

    /// Sets the register width (in qubits) at which the engine flips from
    /// shot-parallel to amplitude-parallel scheduling (default
    /// [`PARALLEL_SWEEP_MIN_QUBITS`]). Scheduling only — results are
    /// bit-identical for any threshold. The `bench` crate's calibration sweep
    /// measures the actual crossover on the host so deployments can pin an
    /// empirically sized value. A zero threshold is rejected as
    /// [`EngineConfigError::ZeroSweepThreshold`] at [`EngineBuilder::build`].
    pub fn parallel_sweep_min_qubits(mut self, qubits: usize) -> Self {
        self.parallel_sweep_min_qubits = qubits;
        self
    }

    /// Attaches a telemetry collector: each job records precompile and
    /// simulate spans (with qubit count, fused-op and regime attributes) and
    /// one span per shot shard, and nothing else; timings and shot counts are
    /// in the [`EngineReport`]. Use [`ExecutionEngine::run_job_in_span`] to
    /// parent the spans under a caller's job span. Default: no collector —
    /// the engine stays telemetry-free at zero cost.
    pub fn telemetry(mut self, collector: Arc<Collector>) -> Self {
        self.telemetry = Some(collector);
        self
    }

    /// Builds the engine, validating the configuration.
    pub fn build(self) -> Result<ExecutionEngine, EngineConfigError> {
        if self.shot_chunk_size == 0 {
            return Err(EngineConfigError::ZeroShotChunk);
        }
        if self.threads == Some(0) {
            return Err(EngineConfigError::ZeroThreads);
        }
        if self.parallel_sweep_min_qubits == 0 {
            return Err(EngineConfigError::ZeroSweepThreshold);
        }
        Ok(ExecutionEngine {
            threads: self.threads.unwrap_or_else(default_threads).max(1),
            shot_chunk_size: self.shot_chunk_size,
            seed_policy: self.seed_policy,
            fusion: self.fusion,
            validate: self.validate,
            parallel_sweep_min_qubits: self.parallel_sweep_min_qubits,
            telemetry: self.telemetry,
        })
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The parallel batched-shot execution engine. See the [module
/// docs](crate::engine) for the determinism guarantee.
///
/// ```
/// use sim::{ExecutionEngine, SeedPolicy};
///
/// // Defaults: all available cores, 64-shot shards, per-shard streams.
/// let engine = ExecutionEngine::new();
/// assert!(engine.threads() >= 1);
///
/// // Fully configured (misuse is a typed error, not a panic):
/// let engine = ExecutionEngine::builder()
///     .threads(8)
///     .shot_chunk_size(128)
///     .seed_policy(SeedPolicy::PerShard)
///     .build()
///     .unwrap();
/// assert_eq!(engine.threads(), 8);
/// assert!(ExecutionEngine::builder().shot_chunk_size(0).build().is_err());
/// ```
#[derive(Debug, Clone)]
pub struct ExecutionEngine {
    threads: usize,
    shot_chunk_size: usize,
    seed_policy: SeedPolicy,
    fusion: FusionPolicy,
    validate: bool,
    parallel_sweep_min_qubits: usize,
    telemetry: Option<Arc<Collector>>,
}

impl Default for ExecutionEngine {
    fn default() -> Self {
        // Built directly: every default is statically valid, so there is no
        // fallible configuration step to unwrap.
        ExecutionEngine {
            threads: default_threads().max(1),
            shot_chunk_size: DEFAULT_SHOT_CHUNK,
            seed_policy: SeedPolicy::default(),
            fusion: FusionPolicy::default(),
            validate: false,
            parallel_sweep_min_qubits: PARALLEL_SWEEP_MIN_QUBITS,
            telemetry: None,
        }
    }
}

impl ExecutionEngine {
    /// An engine with default settings (all cores, [`DEFAULT_SHOT_CHUNK`],
    /// [`SeedPolicy::PerShard`]).
    pub fn new() -> Self {
        ExecutionEngine::default()
    }

    /// Starts building a configured engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder {
            threads: None,
            shot_chunk_size: DEFAULT_SHOT_CHUNK,
            seed_policy: SeedPolicy::default(),
            fusion: FusionPolicy::default(),
            validate: false,
            parallel_sweep_min_qubits: PARALLEL_SWEEP_MIN_QUBITS,
            telemetry: None,
        }
    }

    /// The worker-thread cap.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Shots per shard.
    pub fn shot_chunk_size(&self) -> usize {
        self.shot_chunk_size
    }

    /// The seed policy.
    pub fn seed_policy(&self) -> SeedPolicy {
        self.seed_policy
    }

    /// The gate-fusion policy jobs are lowered under.
    pub fn fusion(&self) -> FusionPolicy {
        self.fusion
    }

    /// Whether jobs are statically verified before their shot loop (see
    /// [`EngineBuilder::validate`]).
    pub fn validate(&self) -> bool {
        self.validate
    }

    /// The register width at which scheduling flips from shot-parallel to
    /// amplitude-parallel (see [`EngineBuilder::parallel_sweep_min_qubits`]).
    pub fn parallel_sweep_min_qubits(&self) -> usize {
        self.parallel_sweep_min_qubits
    }

    /// Runs a batch of jobs and returns one [`SimResult`] per job, in order.
    ///
    /// Each job is lowered once and its shot loop sharded across the worker
    /// pool; jobs run back to back so per-job wall-clock timings stay
    /// meaningful. When consecutive jobs lower to the *same* noiseless
    /// precompiled circuit (a common batch shape: one circuit swept over
    /// seeds), the cached final state's measurement table is reused across
    /// jobs — noiseless trajectories consume no randomness, so the table is
    /// seed-independent and the reuse is exact.
    pub fn run_batch(&self, jobs: &[SimJob]) -> Vec<SimResult> {
        let mut cache: Option<NoiselessCache> = None;
        jobs.iter()
            .map(|job| self.run_job_cached(job, self.fusion, &mut cache, SpanId::NONE))
            .collect()
    }

    /// Runs a single job.
    pub fn run_job(&self, job: &SimJob) -> SimResult {
        self.run_job_cached(job, self.fusion, &mut None, SpanId::NONE)
    }

    /// Like [`ExecutionEngine::run_job`], but lowers the job under `fusion`
    /// instead of the engine's [own policy](ExecutionEngine::fusion), and
    /// records the precompile, simulate and shard telemetry spans as children
    /// of `parent` (the caller's job span). With the engine's own policy and
    /// no collector configured — or a disabled one — this is exactly
    /// `run_job`.
    pub fn run_job_in_span(&self, job: &SimJob, fusion: FusionPolicy, parent: SpanId) -> SimResult {
        self.run_job_cached(job, fusion, &mut None, parent)
    }

    fn run_job_cached(
        &self,
        job: &SimJob,
        fusion: FusionPolicy,
        cache: &mut Option<NoiselessCache>,
        parent: SpanId,
    ) -> SimResult {
        let mut precompile_span = Span::enter_child(self.telemetry.as_ref(), "precompile", parent);
        let pre = match &job.noise {
            Some(noise) => PrecompiledCircuit::with_fusion(&job.circuit, noise, fusion),
            None => PrecompiledCircuit::ideal_with_fusion(&job.circuit, fusion),
        };
        let diagnostics = if self.validate {
            // The fusion rules need the unfused stream to compare against;
            // under FusionPolicy::Off the lowered stream is its own baseline
            // and only the per-op rules (unitarity, completeness) apply.
            let baseline = match fusion {
                FusionPolicy::Safe | FusionPolicy::Aggressive => Some(match &job.noise {
                    Some(noise) => PrecompiledCircuit::new(&job.circuit, noise),
                    None => PrecompiledCircuit::ideal(&job.circuit),
                }),
                FusionPolicy::Off => None,
            };
            let mut out = pre.verify_artifact(baseline.as_ref()).into_diagnostics();
            // Aggressive fusion reorders RNG draws, so counts are only
            // *distributionally* equal to Safe — cross-check a small sample
            // statistically instead of bit-wise.
            if fusion == FusionPolicy::Aggressive {
                out.extend(self.tvd_check(job, &pre));
            }
            out
        } else {
            Vec::new()
        };
        precompile_span.set_attr("qubits", pre.num_qubits() as u64);
        precompile_span.set_attr("fused_ops", pre.fused_ops() as u64);
        let precompile = precompile_span.finish();
        let mut result =
            self.run_precompiled_in_span(&pre, job.shots, job.seed, precompile, cache, parent);
        result.diagnostics = diagnostics;
        result
    }

    /// The statistical half of Aggressive-fusion validation: runs a small
    /// sample (at most [`TVD_CHECK_MAX_SHOTS`] shots, seeded off the job seed
    /// so the check never perturbs the job's own stream) under both `Safe`
    /// and `Aggressive` lowering and holds the two histograms to the
    /// `fusion/tvd-bound` rule's analytic bound.
    fn tvd_check(&self, job: &SimJob, aggressive: &PrecompiledCircuit) -> Vec<verify::Diagnostic> {
        let shots = job.shots.min(TVD_CHECK_MAX_SHOTS);
        let safe = match &job.noise {
            Some(noise) => PrecompiledCircuit::with_fusion(&job.circuit, noise, FusionPolicy::Safe),
            None => PrecompiledCircuit::ideal_with_fusion(&job.circuit, FusionPolicy::Safe),
        };
        let seed = job.seed.child(TVD_CHECK_SALT);
        let counts_a: Vec<(usize, usize)> = self
            .run_precompiled(&safe, shots, seed)
            .counts
            .iter()
            .collect();
        let counts_b: Vec<(usize, usize)> = self
            .run_precompiled(aggressive, shots, seed)
            .counts
            .iter()
            .collect();
        let artifact = verify::DistributionArtifact {
            num_qubits: aggressive.num_qubits(),
            label_a: "safe-fusion sample",
            label_b: "aggressive-fusion sample",
            counts_a: &counts_a,
            counts_b: &counts_b,
        };
        verify::Verifier::statistical()
            .run(&verify::Artifact::Distributions(&artifact))
            .into_diagnostics()
    }

    /// Runs `shots` shots of an already-lowered circuit. Use this to amortize
    /// lowering across repeated runs of the same circuit (the
    /// Aggressive-validation cross-check and the benches do).
    pub fn run_precompiled(
        &self,
        pre: &PrecompiledCircuit,
        shots: usize,
        seed: RngSeed,
    ) -> SimResult {
        self.run_precompiled_in_span(pre, shots, seed, Duration::ZERO, &mut None, SpanId::NONE)
    }

    fn run_precompiled_in_span(
        &self,
        pre: &PrecompiledCircuit,
        shots: usize,
        seed: RngSeed,
        precompile: Duration,
        cache: &mut Option<NoiselessCache>,
        parent: SpanId,
    ) -> SimResult {
        // The simulate span is the single timing source for the report, so
        // the split stays exact with telemetry disabled.
        let mut span = Span::enter_child(self.telemetry.as_ref(), "simulate", parent);
        span.set_attr("shots", shots as u64);
        span.set_attr("qubits", pre.num_qubits() as u64);
        span.set_attr("fused_ops", pre.fused_ops() as u64);
        let (counts, shards, threads) = self.sample_shots(pre, shots, seed, cache, &mut span);
        let simulate = span.finish();
        SimResult {
            counts,
            report: EngineReport {
                shots,
                shards,
                threads,
                fused_ops: pre.fused_ops(),
                precompile,
                simulate,
            },
            diagnostics: Vec::new(),
        }
    }

    /// The sharded shot loop. Returns `(counts, shards, worker threads)`.
    fn sample_shots(
        &self,
        pre: &PrecompiledCircuit,
        shots: usize,
        seed: RngSeed,
        cache: &mut Option<NoiselessCache>,
        span: &mut SpanGuard,
    ) -> (Counts, usize, usize) {
        let mut counts = Counts::new(pre.num_qubits());
        if shots == 0 {
            return (counts, 0, 0);
        }
        let chunk = self.shot_chunk_size;
        let shards = shots.div_ceil(chunk);
        // Regime selection: below the sweep threshold the worker budget goes
        // to sharding shots; at or above it one trajectory dominates, so shots
        // run sequentially and the budget splits each amplitude sweep instead.
        // The flip consults more than the qubit count: a *noisy* wide job on
        // a host without real parallelism pays the per-sweep scoped-thread
        // setup with nothing to run it on (the bench suite measured the
        // "parallel" unfused sweep slower than serial there), and its channel
        // probe work doesn't split across amplitudes at all — so it keeps
        // shot sharding, which pays the spawn cost once per shard instead of
        // once per sweep. Either way the result is bit-identical to the fully
        // serial loop.
        let wide = pre.num_qubits() >= self.parallel_sweep_min_qubits;
        let amp_threads =
            if wide && self.threads > 1 && (pre.is_noiseless() || default_threads() > 1) {
                self.threads
            } else {
                1
            };
        let workers = if amp_threads > 1 {
            1
        } else {
            self.threads.min(shards)
        };
        span.set_tag(
            "regime",
            if amp_threads > 1 {
                "amplitude_parallel"
            } else {
                "shot_parallel"
            },
        );
        // Noiseless trajectories are deterministic and consume no randomness,
        // so the state is evolved once and every shot only samples from it
        // (via a cumulative table + binary search instead of a per-shot
        // linear scan). The per-shot/per-shard RNG draws are unchanged, which
        // keeps this fast path bit-identical to re-running the trajectory
        // every shot. The table is cached across batch jobs that lower to the
        // same circuit (it is seed-independent — no randomness is consumed
        // building it).
        if pre.is_noiseless() {
            let hit = cache.as_ref().is_some_and(|c| c.pre == *pre);
            if !hit {
                let mut rng = seed.rng();
                let state =
                    pre.run_trajectory_with(&mut rng, amp_threads, self.parallel_sweep_min_qubits);
                *cache = Some(NoiselessCache {
                    pre: pre.clone(),
                    sampler: state.measurement_sampler(),
                });
            }
        }
        let cached = if pre.is_noiseless() {
            cache.as_ref().map(|c| &c.sampler)
        } else {
            None
        };
        let policy = self.seed_policy;
        let min_parallel = self.parallel_sweep_min_qubits;
        let collector = self.telemetry.as_ref();
        let simulate_id = span.id();
        let run_shard = |shard: usize, local: &mut Counts| {
            let start = shard * chunk;
            let end = (start + chunk).min(shots);
            // Recorded on drop; shard spans attach to the simulate span by
            // explicit parent id, which is what keeps the nesting correct
            // when this closure runs on a scoped worker thread.
            let mut shard_span = Span::enter_child(collector, "shard", simulate_id);
            shard_span.set_attr("shard", shard as u64);
            shard_span.set_attr("shots", (end - start) as u64);
            match policy {
                SeedPolicy::PerShard => {
                    let mut rng = seed.child(shard as u64).rng();
                    for _ in start..end {
                        local.record(sample_one(pre, cached, amp_threads, min_parallel, &mut rng));
                    }
                }
                SeedPolicy::PerShot => {
                    for shot in start..end {
                        let mut rng = seed.child(shot as u64).rng();
                        local.record(sample_one(pre, cached, amp_threads, min_parallel, &mut rng));
                    }
                }
            }
        };
        if workers <= 1 {
            for shard in 0..shards {
                run_shard(shard, &mut counts);
            }
            return (counts, shards, amp_threads.max(1));
        }
        for local in run_sharded(pre.num_qubits(), shards, workers, &run_shard) {
            counts
                .merge(&local)
                .expect("workers sample the same register");
        }
        (counts, shards, workers)
    }
}

/// Maximum shot count of the Aggressive-validation statistical cross-check
/// (see [`EngineBuilder::validate`]): enough mass for the `fusion/tvd-bound`
/// marginals to be meaningful, small enough that validation stays a fraction
/// of a production shot loop.
const TVD_CHECK_MAX_SHOTS: usize = 512;

/// Seed salt deriving the cross-check's RNG stream from the job seed, so the
/// check never perturbs (or reuses) the job's own shard/shot streams.
const TVD_CHECK_SALT: u64 = 0x7fd_c4ec;

/// Batch-scoped reuse of the noiseless fast path's measurement table (see
/// [`ExecutionEngine::run_batch`]): the lowered circuit the table was built
/// from, and the table itself.
struct NoiselessCache {
    pre: PrecompiledCircuit,
    sampler: MeasurementSampler,
}

/// Runs `shards` calls of `run_shard` over `workers` scoped threads pulling
/// from an atomic shard cursor, and returns the per-worker partial histograms
/// (histogram addition is commutative, so the completion order cannot leak
/// into the merged result).
///
/// Panic isolation: shared state lives behind a non-poisoning
/// [`parking_lot::Mutex`], a panicking shard worker stops the remaining
/// workers from pulling further shards, and the **original** panic payload is
/// re-raised exactly once on the calling thread — not the misleading
/// second-hand "a scoped thread panicked" that a poisoned `std::sync::Mutex`
/// used to surface. A caller that wraps the engine in
/// [`std::panic::catch_unwind`] therefore observes the true failure and no
/// shared state is left poisoned for subsequent jobs.
fn run_sharded<F>(num_qubits: usize, shards: usize, workers: usize, run_shard: &F) -> Vec<Counts>
where
    F: Fn(usize, &mut Counts) + Sync,
{
    let cursor = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let merged: Mutex<Vec<Counts>> = Mutex::new(Vec::with_capacity(workers));
    let first_panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut local = Counts::new(num_qubits);
                loop {
                    if abort.load(Ordering::Relaxed) {
                        break;
                    }
                    let shard = cursor.fetch_add(1, Ordering::Relaxed);
                    if shard >= shards {
                        break;
                    }
                    if let Err(payload) =
                        catch_unwind(AssertUnwindSafe(|| run_shard(shard, &mut local)))
                    {
                        abort.store(true, Ordering::Relaxed);
                        let mut slot = first_panic.lock();
                        if slot.is_none() {
                            *slot = Some(payload);
                        }
                        return;
                    }
                }
                merged.lock().push(local);
            });
        }
    });
    if let Some(payload) = first_panic.into_inner() {
        resume_unwind(payload);
    }
    merged.into_inner()
}

/// One shot: either a full noisy trajectory (with amplitude sweeps split over
/// `amp_threads` workers), or a binary-search sample from the cached noiseless
/// final state (identical RNG draws — see the fast-path comment in
/// [`ExecutionEngine`]'s shot loop).
fn sample_one<R: rand::Rng + ?Sized>(
    pre: &PrecompiledCircuit,
    cached: Option<&MeasurementSampler>,
    amp_threads: usize,
    min_parallel_qubits: usize,
    rng: &mut R,
) -> usize {
    match cached {
        Some(sampler) => {
            let outcome = sampler.sample(rng);
            pre.apply_readout_error(outcome, rng)
        }
        None => pre.sample_shot_with(rng, amp_threads, min_parallel_qubits),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::Operation;
    use device::DeviceModel;

    fn bell_circuit() -> Circuit {
        let mut c = Circuit::new(2);
        c.push(Operation::h(0));
        c.push(Operation::cnot(0, 1));
        c.measure_all();
        c
    }

    fn noisy_job(shots: usize, seed: u64) -> SimJob {
        let device = DeviceModel::ideal(2, 0.95);
        SimJob::noisy(
            bell_circuit(),
            NoiseModel::from_device(&device),
            shots,
            RngSeed(seed),
        )
    }

    fn engine_with(threads: usize) -> ExecutionEngine {
        ExecutionEngine::builder().threads(threads).build().unwrap()
    }

    #[test]
    fn counts_are_bit_identical_across_thread_counts() {
        let job = noisy_job(700, 11);
        let reference = engine_with(1).run_job(&job);
        for threads in [2usize, 3, 8] {
            let parallel = engine_with(threads).run_job(&job);
            assert_eq!(parallel.counts, reference.counts, "threads = {threads}");
        }
    }

    #[test]
    fn per_shot_policy_is_also_thread_count_invariant() {
        let job = noisy_job(300, 13);
        let mk = |threads| {
            ExecutionEngine::builder()
                .threads(threads)
                .seed_policy(SeedPolicy::PerShot)
                .build()
                .unwrap()
                .run_job(&job)
        };
        assert_eq!(mk(1).counts, mk(8).counts);
    }

    #[test]
    fn chunk_size_changes_per_shard_streams_but_not_per_shot() {
        let job = noisy_job(256, 17);
        let with_chunk = |chunk, policy| {
            ExecutionEngine::builder()
                .threads(4)
                .shot_chunk_size(chunk)
                .seed_policy(policy)
                .build()
                .unwrap()
                .run_job(&job)
                .counts
        };
        // Per-shot streams depend only on the global shot index.
        assert_eq!(
            with_chunk(32, SeedPolicy::PerShot),
            with_chunk(64, SeedPolicy::PerShot)
        );
        // Both chunkings are valid samples of the same distribution.
        assert_eq!(with_chunk(32, SeedPolicy::PerShard).total(), 256);
    }

    #[test]
    fn run_batch_preserves_job_order_and_totals() {
        let engine = engine_with(4);
        let jobs = vec![noisy_job(100, 1), noisy_job(50, 2), noisy_job(75, 3)];
        let results = engine.run_batch(&jobs);
        let totals: Vec<usize> = results.iter().map(|r| r.counts.total()).collect();
        assert_eq!(totals, vec![100, 50, 75]);
        for r in &results {
            assert_eq!(r.report.shots, r.counts.total());
            assert!(r.report.threads >= 1);
            assert!(r.report.shards >= 1);
        }
    }

    #[test]
    fn zero_shots_yield_an_empty_histogram() {
        let result = engine_with(4).run_job(&noisy_job(0, 5));
        assert_eq!(result.counts.total(), 0);
        assert_eq!(result.report.shards, 0);
        assert_eq!(result.report.shots_per_sec(), 0.0);
    }

    #[test]
    fn ideal_jobs_only_produce_ideal_outcomes() {
        let engine = engine_with(4);
        let result = engine.run_job(&SimJob::ideal(bell_circuit(), 500, RngSeed(9)));
        // A Bell circuit never yields |01> or |10> ideally.
        assert_eq!(result.counts.count(1) + result.counts.count(2), 0);
        assert_eq!(result.counts.total(), 500);
    }

    #[test]
    fn noiseless_fast_path_matches_general_path() {
        // A noiseless *noisy-model* job takes the cached-state fast path;
        // forcing the general path by attaching readout error must leave the
        // underlying trajectory statistics unchanged. Here we check the fast
        // path against the per-shot policy's stream.
        let device = DeviceModel::ideal(2, 1.0);
        let job = SimJob::noisy(
            bell_circuit(),
            NoiseModel::noiseless(&device),
            400,
            RngSeed(23),
        );
        let fast = ExecutionEngine::builder()
            .threads(2)
            .seed_policy(SeedPolicy::PerShot)
            .build()
            .unwrap()
            .run_job(&job);
        // Reference: run every trajectory explicitly with the same per-shot
        // streams (the general path: one trajectory per shot).
        let pre = PrecompiledCircuit::new(&job.circuit, job.noise.as_ref().unwrap());
        let mut reference = Counts::new(2);
        for shot in 0..400u64 {
            let mut rng = RngSeed(23).child(shot).rng();
            reference.record(pre.sample_shot(&mut rng));
        }
        assert_eq!(fast.counts, reference);
    }

    #[test]
    fn simulate_shots_per_sec_excludes_precompile_time() {
        // Satellite fix pin: a job whose lowering dominates wall-clock must
        // still report throughput from the simulate span alone.
        let report = EngineReport {
            shots: 1000,
            shards: 4,
            threads: 2,
            fused_ops: 0,
            precompile: Duration::from_secs(10),
            simulate: Duration::from_secs(1),
        };
        assert_eq!(report.simulate_shots_per_sec(), 1000.0);
        assert_eq!(report.shots_per_sec(), 1000.0);
        // Computing from total wall-clock would have reported ~90.9.
        assert!(report.total_duration().as_secs_f64() > 10.0);
    }

    #[test]
    fn telemetry_records_the_job_span_tree() {
        let collector = Arc::new(Collector::new());
        let engine = ExecutionEngine::builder()
            .threads(2)
            .telemetry(Arc::clone(&collector))
            .build()
            .unwrap();
        let job = noisy_job(200, 37);
        let job_span = Span::enter(Some(&collector), "job");
        let job_id = job_span.id();
        let result = engine.run_job_in_span(&job, engine.fusion(), job_id);
        job_span.finish();

        let spans = collector.completed_spans();
        let precompile: Vec<_> = spans.iter().filter(|s| s.name == "precompile").collect();
        let simulate: Vec<_> = spans.iter().filter(|s| s.name == "simulate").collect();
        let shard_spans: Vec<_> = spans.iter().filter(|s| s.name == "shard").collect();
        assert_eq!(precompile.len(), 1);
        assert_eq!(simulate.len(), 1);
        assert_eq!(precompile[0].parent, job_id);
        assert_eq!(simulate[0].parent, job_id);
        // Every shard span nests under the simulate span, one per shard.
        assert_eq!(shard_spans.len(), result.report.shards);
        for shard in &shard_spans {
            assert_eq!(shard.parent, simulate[0].id);
        }
        // The report is a thin view over the simulate span's measurement.
        assert_eq!(
            result.report.simulate.as_micros() as u64,
            simulate[0].duration_micros
        );
    }

    #[test]
    fn disabled_telemetry_changes_no_counts_and_records_nothing() {
        let collector = Arc::new(Collector::disabled());
        let job = noisy_job(300, 43);
        let plain = engine_with(2).run_job(&job);
        let instrumented = ExecutionEngine::builder()
            .threads(2)
            .telemetry(Arc::clone(&collector))
            .build()
            .unwrap()
            .run_job(&job);
        assert_eq!(instrumented.counts, plain.counts);
        assert!(instrumented.report.simulate.as_nanos() > 0);
        assert!(collector.completed_spans().is_empty());
    }

    #[test]
    fn report_totals_are_consistent() {
        let result = engine_with(2).run_job(&noisy_job(200, 31));
        assert_eq!(
            result.report.total_duration(),
            result.report.precompile + result.report.simulate
        );
        assert!(result.report.shots_per_sec() >= 0.0);
    }

    #[test]
    fn validated_jobs_verify_cleanly_and_count_identically() {
        let job = noisy_job(200, 41);
        let plain = engine_with(2).run_job(&job);
        assert!(plain.diagnostics.is_empty());
        let validated = ExecutionEngine::builder()
            .threads(2)
            .validate(true)
            .build()
            .unwrap()
            .run_job(&job);
        // Validation must neither perturb the counts nor report errors on a
        // legal artifact (Info-level skips are fine).
        assert_eq!(validated.counts, plain.counts);
        assert!(
            !validated.has_verify_errors(),
            "{:?}",
            validated.diagnostics
        );
    }

    #[test]
    fn misconfiguration_is_a_typed_error_not_a_panic() {
        assert_eq!(
            ExecutionEngine::builder().shot_chunk_size(0).build().err(),
            Some(EngineConfigError::ZeroShotChunk)
        );
        assert_eq!(
            ExecutionEngine::builder().threads(0).build().err(),
            Some(EngineConfigError::ZeroThreads)
        );
        assert_eq!(
            ExecutionEngine::builder()
                .parallel_sweep_min_qubits(0)
                .build()
                .err(),
            Some(EngineConfigError::ZeroSweepThreshold)
        );
        assert!(EngineConfigError::ZeroShotChunk.to_string().contains("0"));
        let err: &dyn std::error::Error = &EngineConfigError::ZeroThreads;
        assert!(err.to_string().contains("thread"));
        assert!(EngineConfigError::ZeroSweepThreshold
            .to_string()
            .contains("threshold"));
    }

    #[test]
    fn sweep_threshold_knob_is_scheduling_only() {
        // Forcing the amplitude-parallel regime onto a tiny register (and the
        // shot-parallel regime onto everything) must leave counts
        // bit-identical — the knob only reschedules.
        let job = noisy_job(300, 19);
        let reference = engine_with(1).run_job(&job);
        for threshold in [2usize, 64] {
            let tuned = ExecutionEngine::builder()
                .threads(4)
                .parallel_sweep_min_qubits(threshold)
                .build()
                .unwrap();
            assert_eq!(tuned.parallel_sweep_min_qubits(), threshold);
            assert_eq!(
                tuned.run_job(&job).counts,
                reference.counts,
                "threshold = {threshold}"
            );
        }
    }

    #[test]
    fn batched_noiseless_jobs_reuse_the_sampler_cache_exactly() {
        // A batch repeating the same ideal circuit under different seeds hits
        // the cross-job sampler cache; results must match isolated runs bit
        // for bit (the cached table is seed-independent).
        let engine = engine_with(2);
        let jobs: Vec<SimJob> = (0..4)
            .map(|i| SimJob::ideal(bell_circuit(), 200, RngSeed(100 + i)))
            .collect();
        let batched = engine.run_batch(&jobs);
        for (job, batched) in jobs.iter().zip(&batched) {
            let isolated = engine.run_job(job);
            assert_eq!(batched.counts, isolated.counts);
        }
        // A noisy job interleaved in the batch must not be served stale
        // noiseless samples.
        let mixed = vec![
            SimJob::ideal(bell_circuit(), 150, RngSeed(7)),
            noisy_job(150, 7),
            SimJob::ideal(bell_circuit(), 150, RngSeed(8)),
        ];
        let results = engine.run_batch(&mixed);
        for (job, result) in mixed.iter().zip(&results) {
            assert_eq!(result.counts, engine.run_job(job).counts);
        }
    }

    #[test]
    fn aggressive_validation_reports_tvd_agreement() {
        let device = DeviceModel::ideal(3, 0.98);
        let mut circuit = Circuit::new(3);
        circuit.push(Operation::h(0));
        circuit.push(Operation::cnot(0, 1));
        circuit.push(Operation::rx(2, 0.4));
        circuit.push(Operation::cnot(1, 2));
        circuit.measure_all();
        let job = SimJob::noisy(circuit, NoiseModel::from_device(&device), 400, RngSeed(29));
        let result = ExecutionEngine::builder()
            .threads(2)
            .fusion(FusionPolicy::Aggressive)
            .validate(true)
            .build()
            .unwrap()
            .run_job(&job);
        assert!(!result.has_verify_errors(), "{:?}", result.diagnostics);
        assert!(
            result
                .diagnostics
                .iter()
                .any(|d| d.rule() == "fusion/tvd-bound"),
            "expected a tvd-bound finding: {:?}",
            result.diagnostics
        );
        assert_eq!(result.counts.total(), 400);
    }

    #[test]
    fn shard_worker_panic_propagates_the_original_payload_once() {
        // A shard worker that panics must surface the *original* panic (not a
        // poisoned-lock "worker panicked" follow-up), and must not prevent a
        // subsequent run over the same mechanism from succeeding.
        let boom = |shard: usize, local: &mut Counts| {
            if shard == 3 {
                panic!("shard 3 exploded");
            }
            local.record(0);
        };
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            super::run_sharded(2, 8, 4, &boom);
        }))
        .expect_err("the shard panic must propagate");
        let message = caught
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_string)
            .or_else(|| caught.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert_eq!(message, "shard 3 exploded");

        // The mechanism is reusable after the panic: nothing is poisoned.
        let fine = super::run_sharded(2, 8, 4, &|_, local: &mut Counts| local.record(1));
        let total: usize = fine.iter().map(Counts::total).sum();
        assert_eq!(total, 8);
    }
}
