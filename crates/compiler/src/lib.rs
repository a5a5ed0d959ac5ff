//! End-to-end compilation pipeline (paper Fig. 1, "Quantum compiler" box).
//!
//! The pipeline turns a device-independent application circuit into a
//! hardware circuit for a given [`device::DeviceModel`] and
//! [`gates::InstructionSet`]:
//!
//! 1. **Region selection** ([`region`], stage `region-select`) — carve a
//!    connected, high-fidelity `n`-qubit patch out of the machine (so that
//!    downstream simulation only has to track the qubits the program actually
//!    uses).
//! 2. **Qubit mapping** ([`mapping`], stage `initial-map`) — place
//!    frequently-interacting logical qubits on adjacent physical qubits.
//! 3. **Routing** ([`routing`], stage `swap-route`) — insert SWAP operations
//!    so every two-qubit operation acts on neighbouring qubits; SWAPs are
//!    emitted as ordinary two-qubit unitaries so the NuOp pass can decompose
//!    them with whatever gate types the instruction set offers (this is where
//!    native-SWAP sets R5 and G7 shine).
//! 4. **Gate decomposition** (stage `nuop-decompose`) — the NuOp pass
//!    ([`nuop_core::NuOpPass`]) rewrites every two-qubit unitary into
//!    calibrated hardware gate types, noise-adaptively.
//!
//! Every compile runs these four stages in this order.
//!
//! # The `Compiler` service
//!
//! [`Compiler`] is the entry point: a reusable, fallible service built via
//! [`Compiler::for_device`] that owns a **shared, sharded decomposition
//! cache** reused across calls — instruction-set sweeps that compile the
//! same workloads repeatedly (the paper's Figs. 9–11) pay for each distinct
//! SU(4) decomposition once. Invalid inputs (undersized devices,
//! disconnected regions, unknown instruction sets) surface as typed
//! [`CompileError`]s rather than panics, and [`Compiler::compile_batch`] fans
//! a whole suite out across worker threads that share the cache.
//!
//! ```
//! use apps::workloads::qaoa_circuit;
//! use compiler::{Compiler, CompilerOptions};
//! use device::DeviceModel;
//! use gates::InstructionSet;
//! use qmath::RngSeed;
//!
//! let compiler = Compiler::for_device(DeviceModel::sycamore(RngSeed(1)))
//!     .instruction_set(InstructionSet::g(3))
//!     .options(CompilerOptions::sweep())
//!     .build()?;
//! let compiled = compiler.compile(&qaoa_circuit(3, RngSeed(2)))?;
//! assert!(compiled.two_qubit_gate_count() > 0);
//! # Ok::<(), compiler::CompileError>(())
//! ```
//!
//! [`Compiler::compile_with_report`] returns a [`CompileReport`] with
//! per-stage wall-clock timings and cache traffic. Long-running services
//! should bound the decomposition cache: build one with
//! [`nuop_core::DecompositionCache::with_capacity`] and hand it to
//! [`CompilerBuilder::shared_cache`].

#![warn(missing_docs)]
#![deny(deprecated)]

pub mod error;
pub mod mapping;
pub mod pipeline;
pub mod region;
pub mod routing;
pub mod service;

pub use error::CompileError;
pub use mapping::initial_mapping;
pub use pipeline::{CompiledCircuit, CompilerOptions};
pub use region::try_select_region;
pub use routing::{logical_outcome_for, try_route, RoutedCircuit};
pub use service::{CompileReport, Compiler, CompilerBuilder, StageTiming};
pub use verify::VerifyLevel;
