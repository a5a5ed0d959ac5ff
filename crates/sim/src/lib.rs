//! Quantum circuit simulation with realistic noise.
//!
//! This crate replaces the paper's use of the Qiskit Aer simulator (§VI):
//!
//! * [`statevector`] — a dense state-vector simulator with efficient in-place
//!   application of 1- and 2-qubit gates and measurement sampling. Amplitude
//!   sweeps visit only the base indices of the touched subspace and split
//!   across scoped worker threads above
//!   [`PARALLEL_SWEEP_MIN_QUBITS`],
//!   bit-identically for any thread count.
//! * [`channels`] — Kraus-operator noise channels: depolarizing (scaled by the
//!   calibrated gate error), amplitude damping and dephasing derived from
//!   T1/T2 and gate duration, and classical readout error, each placed on
//!   its qubits as an [`AttachedChannel`].
//! * [`noise_model`] — builds each operation's channels from a
//!   [`device::DeviceModel`] calibration table, as one list in the order a
//!   trajectory applies them ([`NoiseModel::noise_for`]).
//! * [`precompiled`] — circuits lowered **once** into simulation-ready ops:
//!   each op's `Mat2`/`Mat4` kernel, copied from the circuit, and its one
//!   list of prebuilt, completeness-checked Kraus channels (instead of
//!   rebuilding them every shot), with optional **gate fusion**
//!   ([`FusionPolicy`]) coalescing adjacent ops into single kernels
//!   wherever no RNG-consuming channel separates them. From
//!   [`FOLD_MIN_QUBITS`] qubits on, each maximal run of kernels and channels
//!   on one qubit pair folds into one amplitude sweep: Kraus branches are
//!   picked from the reduced density matrix of the pair instead of by
//!   probing clones of the state.
//! * [`engine`] — the parallel batched-shot [`ExecutionEngine`]: shots are
//!   sharded across scoped worker threads with per-shard ChaCha streams, so
//!   counts are bit-identical regardless of thread count.
//!   It is the one way to sample: a noisy job runs one Monte-Carlo trajectory
//!   per shot, each sampling one noise realization, which converges to the
//!   density-matrix result while scaling to 20+ qubits; an ideal job evolves
//!   the state once and samples it. Ideal probabilities come from
//!   [`StateVector::evolve`].
//! * [`runner`] — the [`Counts`] histogram every job returns.
//! * [`density`] — an exact density-matrix simulator for small registers, used
//!   to validate the trajectory sampler (it consumes the same precompiled ops).
//! * [`audit`] — a bridge to the `verify` crate's static semantic rules:
//!   [`PrecompiledCircuit::verify_artifact`] proves every lowered kernel
//!   unitary, every Kraus channel trace-preserving, and a `Safe`-fused stream
//!   faithful to its unfused baseline without executing a single shot. The
//!   engine runs it automatically under
//!   [`EngineBuilder::validate`](engine::EngineBuilder::validate).
//!
//! # Example
//!
//! ```
//! use circuit::{Circuit, Operation};
//! use sim::{ExecutionEngine, NoiseModel, SimJob, StateVector};
//! use qmath::RngSeed;
//!
//! let mut bell = Circuit::new(2);
//! bell.push(Operation::h(0));
//! bell.push(Operation::cnot(0, 1));
//! bell.measure_all();
//!
//! // Ideal probabilities: 50/50 on |00> and |11>.
//! let probs = StateVector::evolve(&bell).probabilities();
//! assert!((probs[0] - 0.5).abs() < 1e-10);
//! assert!((probs[3] - 0.5).abs() < 1e-10);
//!
//! // Noisy counts still concentrate on the Bell outcomes; the report
//! // carries the job's timings.
//! let device = device::DeviceModel::ideal(2, 0.995);
//! let noise = NoiseModel::from_device(&device);
//! let result = ExecutionEngine::new().run_job(&SimJob::noisy(bell, noise, 200, RngSeed(5)));
//! assert_eq!(result.counts.total(), 200);
//! assert!(result.counts.probability(0) + result.counts.probability(3) > 0.9);
//! assert!(result.report.shots_per_sec() > 0.0);
//! ```

#![warn(missing_docs)]
#![deny(deprecated)]

pub mod audit;
pub mod channels;
pub mod density;
pub mod engine;
pub mod noise_model;
pub mod precompiled;
pub mod runner;
pub mod statevector;

pub use channels::{
    amplitude_damping_kraus, dephasing_kraus, depolarizing_1q, depolarizing_2q, AttachedChannel,
    Kraus1q, Kraus2q, KrausChannel,
};
pub use density::DensityMatrix;
pub use engine::{
    EngineBuilder, EngineConfigError, EngineReport, ExecutionEngine, SeedPolicy, SimJob, SimResult,
    DEFAULT_SHOT_CHUNK,
};
pub use noise_model::NoiseModel;
pub use precompiled::{
    FusionPolicy, PrecompiledCircuit, PrecompiledKind, PrecompiledOp, FOLD_MIN_QUBITS,
};
pub use runner::{Counts, CountsMismatch};
pub use statevector::{MeasurementSampler, StateVector, PARALLEL_SWEEP_MIN_QUBITS};
